//! The runtime invariant guard plane: structural checks that run *inside*
//! the simulators, not just over their final artifacts.
//!
//! The validation gate (`bench::expect`) grades finished figures against
//! the paper; this plane catches the step where a simulator first went
//! wrong — an RSRP that left the physical range, a congestion window past
//! the socket cap, a playback buffer above its cap, a stall ledger that no
//! longer sums. Every layer calls [`check`]-family hooks at its hot
//! points, following the same ambient-plane discipline as
//! [`crate::telemetry`]:
//!
//! * a thread-local collector, installed per experiment attempt (by
//!   [`crate::attempt::Attempt`] with a [`GuardPolicy`]) and uninstalled
//!   when its guard drops, so parallel campaign workers never share state;
//! * hooks that cost one thread-local boolean load when no collector is
//!   installed, that **never mutate simulation state**, and that **never
//!   draw randomness** — a guarded run's artifacts are byte-identical to
//!   an unguarded one;
//! * violation records carry *simulated* time plus layer and invariant
//!   names, with the human detail built lazily (only when the check
//!   actually fails). An armed check that passes costs one thread-local
//!   flag load and one thread-local counter increment, with no `RefCell`
//!   borrow; only a failing check takes the out-of-line cold path that
//!   borrows the collector.
//!
//! A violation is always recorded for the supervisor to [`drain`], never
//! printed or raised.

use crate::attempt;

/// Cap on buffered violations per attempt: a systematically broken
/// invariant in a hot loop would otherwise buffer millions of identical
/// records. Violations past the cap are counted, not stored.
pub const MAX_VIOLATIONS: usize = 1 << 12;

/// How the collector treats a failed check. `Record` — buffer the
/// violation for [`drain`] — is the only policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardPolicy {
    /// Buffer the violation for [`drain`].
    #[default]
    Record,
}

/// One failed invariant check.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Simulated time of the check, seconds (component-local clock).
    pub t_s: f64,
    /// Layer that checked, e.g. `"radio"`, `"transport"`.
    pub layer: &'static str,
    /// Invariant name, e.g. `"rsrp-range"`, `"cwnd-bounds"`.
    pub invariant: &'static str,
    /// Human context, built lazily when the check failed.
    pub detail: String,
}

impl Violation {
    /// Deterministic one-line rendering (stress reproducers compare these).
    pub fn signature(&self) -> String {
        format!(
            "{}/{} @ t={:.6}s: {}",
            self.layer, self.invariant, self.t_s, self.detail
        )
    }
}

/// Everything one attempt's guard collector saw. Produced by [`drain`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttemptGuards {
    /// Buffered violations, in emission order (bounded by
    /// [`MAX_VIOLATIONS`]).
    pub violations: Vec<Violation>,
    /// Violations past the buffer cap (still counted, not stored).
    pub dropped: u64,
    /// Total checks evaluated, passes included.
    pub checks: u64,
}

impl AttemptGuards {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.dropped == 0
    }

    /// Total violations, buffered or dropped.
    pub fn violation_count(&self) -> u64 {
        self.violations.len() as u64 + self.dropped
    }
}

/// True iff a collector is installed on this thread. The single load every
/// hook pays when the plane is off.
#[inline]
pub fn enabled() -> bool {
    attempt::hot(|h| h.guards.get())
}

/// Checks one invariant: records a [`Violation`] at sim-time `t_s` when
/// `ok` is false. `detail` is only evaluated on failure. No-op without a
/// collector; never mutates simulation state, never draws randomness.
#[inline]
pub fn check(
    layer: &'static str,
    invariant: &'static str,
    ok: bool,
    t_s: f64,
    detail: impl FnOnce() -> String,
) {
    attempt::hot(|h| {
        if !h.guards.get() {
            return;
        }
        h.checks.set(h.checks.get() + 1);
        if !ok {
            violate(layer, invariant, t_s, detail);
        }
    });
}

/// Records one failed check. Out of line so the passing path stays a
/// load, an increment and a branch.
#[cold]
#[inline(never)]
fn violate(
    layer: &'static str,
    invariant: &'static str,
    t_s: f64,
    detail: impl FnOnce() -> String,
) {
    // Build the detail before borrowing: the closure may read other hooks.
    let v = Violation {
        t_s,
        layer,
        invariant,
        detail: detail(),
    };
    attempt::cold(|c| {
        if c.violations.len() < MAX_VIOLATIONS {
            c.violations.push(v);
        } else {
            c.dropped_violations += 1;
        }
    });
}

/// Checks that `v` is a finite number.
#[inline]
pub fn finite(layer: &'static str, invariant: &'static str, v: f64, t_s: f64) {
    check(layer, invariant, v.is_finite(), t_s, || {
        format!("non-finite value {v}")
    });
}

/// Checks that `v` is finite and inside `[lo, hi]` (a small `slack`
/// absorbs floating-point accumulation at the edges).
#[inline]
pub fn in_range(
    layer: &'static str,
    invariant: &'static str,
    v: f64,
    lo: f64,
    hi: f64,
    slack: f64,
    t_s: f64,
) {
    check(
        layer,
        invariant,
        v.is_finite() && v >= lo - slack && v <= hi + slack,
        t_s,
        || format!("value {v} outside [{lo}, {hi}]"),
    );
}

/// Checks that `v` is finite and non-negative (within `slack`).
#[inline]
pub fn non_negative(layer: &'static str, invariant: &'static str, v: f64, slack: f64, t_s: f64) {
    check(layer, invariant, v.is_finite() && v >= -slack, t_s, || {
        format!("negative value {v}")
    });
}

/// Snapshots and clears this thread's guard records. Returns an empty
/// [`AttemptGuards`] when no collector is installed.
pub fn drain() -> AttemptGuards {
    let checks = attempt::hot(|h| h.checks.replace(0));
    attempt::cold(|c| AttemptGuards {
        violations: std::mem::take(&mut c.violations),
        dropped: std::mem::take(&mut c.dropped_violations),
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attempt::{Attempt, AttemptGuard};

    fn collect() -> AttemptGuard {
        Attempt::new().guards(GuardPolicy::Record).install()
    }

    #[test]
    fn hooks_are_inert_without_a_collector() {
        assert!(!enabled());
        check("l", "i", false, 1.0, || unreachable!("detail built inert"));
        finite("l", "f", f64::NAN, 1.0);
        assert!(drain().is_clean());
        assert_eq!(drain().checks, 0);
    }

    #[test]
    fn passing_checks_never_build_detail() {
        let _g = collect();
        check("l", "i", true, 1.0, || unreachable!("detail on a pass"));
        let g = drain();
        assert!(g.is_clean());
        assert_eq!(g.checks, 1);
    }

    #[test]
    fn violations_carry_time_layer_and_detail() {
        let _g = collect();
        in_range("radio", "rsrp-range", 5.0, -200.0, 0.0, 0.0, 12.5);
        non_negative("power", "rail", -1.0, 1e-9, 3.0);
        finite("video", "buffer", f64::INFINITY, 7.0);
        let g = drain();
        assert_eq!(g.violations.len(), 3);
        assert_eq!(g.checks, 3);
        let v = &g.violations[0];
        assert_eq!((v.layer, v.invariant, v.t_s), ("radio", "rsrp-range", 12.5));
        assert!(
            v.signature().contains("outside [-200, 0]"),
            "{}",
            v.signature()
        );
    }

    #[test]
    fn buffer_is_bounded_but_counts_continue() {
        let _g = collect();
        for _ in 0..(MAX_VIOLATIONS + 7) {
            check("l", "i", false, 0.0, || "x".into());
        }
        let g = drain();
        assert_eq!(g.violations.len(), MAX_VIOLATIONS);
        assert_eq!(g.dropped, 7);
        assert_eq!(g.violation_count(), MAX_VIOLATIONS as u64 + 7);
    }

    #[test]
    fn passes_and_failures_are_each_counted_once() {
        let _g = collect();
        check("l", "pass", true, 0.0, || unreachable!("detail on a pass"));
        check("l", "fail", false, 0.0, || "x".into());
        finite("l", "pass", 1.0, 0.0);
        finite("l", "fail", f64::NAN, 0.0);
        in_range("l", "pass", 0.5, 0.0, 1.0, 0.0, 0.0);
        in_range("l", "fail", 2.0, 0.0, 1.0, 0.0, 0.0);
        non_negative("l", "pass", 0.0, 0.0, 0.0);
        non_negative("l", "fail", -1.0, 0.0, 0.0);
        let g = drain();
        assert_eq!(g.checks, 8);
        assert_eq!(g.violation_count(), 4);
        let failed: Vec<&str> = g.violations.iter().map(|v| v.invariant).collect();
        assert_eq!(failed, ["fail"; 4]);
    }

    #[test]
    fn drain_resets_the_check_count() {
        let _g = collect();
        for _ in 0..5 {
            check("l", "i", true, 0.0, String::new);
        }
        assert_eq!(drain().checks, 5);
        assert_eq!(drain().checks, 0);
        finite("l", "f", 1.0, 0.0);
        assert_eq!(drain().checks, 1);
    }

    #[test]
    fn drain_resets_the_collector() {
        let _g = collect();
        check("l", "i", false, 0.0, || "x".into());
        assert_eq!(drain().violations.len(), 1);
        assert!(drain().is_clean());
    }
}
