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
//!   `simcore::ambient::install_attempt`) and uninstalled when the guard
//!   drops, so parallel campaign workers never share state;
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
//! The collector runs under a [`GuardPolicy`]: `Record` (the campaign
//! default) buffers violations for the supervisor to drain, `Warn` also
//! prints each one to stderr as it happens, and `FailFast` panics on the
//! first violation (which the supervised runner converts into a degraded
//! attempt — the mode for debugging a reproducer).

use std::cell::{Cell, RefCell};

/// Cap on buffered violations per attempt: a systematically broken
/// invariant in a hot loop would otherwise buffer millions of identical
/// records. Violations past the cap are counted, not stored.
pub const MAX_VIOLATIONS: usize = 1 << 12;

/// Prefix of the panic message a [`GuardPolicy::FailFast`] collector
/// raises; the stress harness keys on it to classify failures.
pub const VIOLATION_MSG: &str = "simcore::guard violation";

/// What the collector does when a check fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardPolicy {
    /// Buffer the violation for [`drain`]; the campaign default.
    #[default]
    Record,
    /// Buffer it and print it to stderr as it happens.
    Warn,
    /// Panic on the first violation (the supervised runner turns the
    /// panic into a degraded attempt).
    FailFast,
}

impl GuardPolicy {
    /// Stable name, for CLI flags and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            GuardPolicy::Record => "record",
            GuardPolicy::Warn => "warn",
            GuardPolicy::FailFast => "fail-fast",
        }
    }

    /// Parses a policy name.
    pub fn parse(s: &str) -> Option<GuardPolicy> {
        match s {
            "record" => Some(GuardPolicy::Record),
            "warn" => Some(GuardPolicy::Warn),
            "fail-fast" => Some(GuardPolicy::FailFast),
            _ => None,
        }
    }
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

struct Collector {
    policy: GuardPolicy,
    violations: Vec<Violation>,
    dropped: u64,
}

thread_local! {
    /// Fast flag: true iff a collector is installed on this thread.
    static ON: Cell<bool> = const { Cell::new(false) };
    /// Checks evaluated since the collector was installed or last drained,
    /// passes included. Kept outside [`COLLECTOR`] so a passing check
    /// never borrows it.
    static CHECKS: Cell<u64> = const { Cell::new(0) };
    /// The installed collector.
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Uninstalls the thread's guard collector when dropped.
#[must_use = "the guard collector uninstalls when this guard drops"]
pub struct GuardsGuard {
    _private: (),
}

impl Drop for GuardsGuard {
    fn drop(&mut self) {
        COLLECTOR.with(|c| *c.borrow_mut() = None);
        CHECKS.with(|n| n.set(0));
        ON.with(|f| f.set(false));
    }
}

/// Installs a fresh guard collector on this thread under `policy`,
/// replacing any previous one. Uninstalls when the guard drops.
pub fn collect(policy: GuardPolicy) -> GuardsGuard {
    COLLECTOR.with(|c| {
        *c.borrow_mut() = Some(Collector {
            policy,
            violations: Vec::new(),
            dropped: 0,
        })
    });
    CHECKS.with(|n| n.set(0));
    ON.with(|f| f.set(true));
    GuardsGuard { _private: () }
}

/// True iff a collector is installed on this thread. The single load every
/// hook pays when the plane is off.
#[inline]
pub fn enabled() -> bool {
    ON.with(|f| f.get())
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
    if !enabled() {
        return;
    }
    CHECKS.with(|n| n.set(n.get() + 1));
    if !ok {
        violate(layer, invariant, t_s, detail);
    }
}

/// Records one failed check under the collector's policy. Out of line so
/// the passing path stays a load, an increment and a branch.
#[cold]
#[inline(never)]
fn violate(
    layer: &'static str,
    invariant: &'static str,
    t_s: f64,
    detail: impl FnOnce() -> String,
) {
    // The failing branch may panic (FailFast); build the violation outside
    // the RefCell borrow so an unwinding check can never leave the
    // collector poisoned for a later reinstall.
    let v = Violation {
        t_s,
        layer,
        invariant,
        detail: detail(),
    };
    let policy = COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        let col = slot.as_mut()?;
        if col.violations.len() < MAX_VIOLATIONS {
            col.violations.push(v.clone());
        } else {
            col.dropped += 1;
        }
        Some(col.policy)
    });
    match policy {
        None | Some(GuardPolicy::Record) => {}
        Some(GuardPolicy::Warn) => eprintln!("{VIOLATION_MSG}: {}", v.signature()),
        Some(GuardPolicy::FailFast) => panic!("{VIOLATION_MSG}: {}", v.signature()),
    }
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

/// Total violations recorded so far by this thread's collector (0 when
/// none is installed). Cheap enough for mid-run queries.
pub fn violation_count() -> u64 {
    if !enabled() {
        return 0;
    }
    COLLECTOR.with(|c| {
        c.borrow()
            .as_ref()
            .map_or(0, |col| col.violations.len() as u64 + col.dropped)
    })
}

/// Snapshots and clears this thread's guard records. Returns an empty
/// [`AttemptGuards`] when no collector is installed.
pub fn drain() -> AttemptGuards {
    let checks = CHECKS.with(|n| n.replace(0));
    COLLECTOR
        .with(|c| {
            c.borrow_mut().as_mut().map(|col| AttemptGuards {
                violations: std::mem::take(&mut col.violations),
                dropped: std::mem::take(&mut col.dropped),
                checks,
            })
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_are_inert_without_a_collector() {
        assert!(!enabled());
        check("l", "i", false, 1.0, || unreachable!("detail built inert"));
        finite("l", "f", f64::NAN, 1.0);
        assert_eq!(violation_count(), 0);
        assert!(drain().is_clean());
        assert_eq!(drain().checks, 0);
    }

    #[test]
    fn collector_guard_installs_and_uninstalls() {
        {
            let _g = collect(GuardPolicy::Record);
            assert!(enabled());
        }
        assert!(!enabled());
    }

    #[test]
    fn passing_checks_never_build_detail() {
        let _g = collect(GuardPolicy::Record);
        check("l", "i", true, 1.0, || unreachable!("detail on a pass"));
        let g = drain();
        assert!(g.is_clean());
        assert_eq!(g.checks, 1);
    }

    #[test]
    fn violations_carry_time_layer_and_detail() {
        let _g = collect(GuardPolicy::Record);
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
        let _g = collect(GuardPolicy::Record);
        for _ in 0..(MAX_VIOLATIONS + 7) {
            check("l", "i", false, 0.0, || "x".into());
        }
        let g = drain();
        assert_eq!(g.violations.len(), MAX_VIOLATIONS);
        assert_eq!(g.dropped, 7);
        assert_eq!(g.violation_count(), MAX_VIOLATIONS as u64 + 7);
    }

    #[test]
    fn fail_fast_panics_with_the_signature() {
        let _g = collect(GuardPolicy::FailFast);
        let err = std::panic::catch_unwind(|| {
            check("rrc", "dwell", false, 2.0, || "negative dwell".into());
        })
        .expect_err("fail-fast must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with(VIOLATION_MSG), "{msg}");
        assert!(msg.contains("rrc/dwell"), "{msg}");
        // The violation was recorded before the panic, and the collector
        // survives the unwind intact.
        let g = drain();
        assert_eq!(g.violations.len(), 1);
        assert_eq!(g.checks, 1);
    }

    #[test]
    fn passes_and_failures_are_each_counted_once() {
        let _g = collect(GuardPolicy::Record);
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
        let _g = collect(GuardPolicy::Record);
        for _ in 0..5 {
            check("l", "i", true, 0.0, String::new);
        }
        assert_eq!(drain().checks, 5);
        assert_eq!(drain().checks, 0);
        finite("l", "f", 1.0, 0.0);
        assert_eq!(drain().checks, 1);
    }

    #[test]
    fn reinstalling_on_the_same_thread_counts_from_zero() {
        {
            let _g = collect(GuardPolicy::Record);
            check("l", "i", true, 0.0, String::new);
            check("l", "i", false, 0.0, String::new);
            // Dropped undrained.
        }
        assert_eq!(drain().checks, 0, "an uninstalled plane counts nothing");
        let _g = collect(GuardPolicy::Record);
        assert_eq!(drain(), AttemptGuards::default());
        check("l", "i", true, 0.0, String::new);
        // Installing over a live collector starts a fresh count too.
        let _again = collect(GuardPolicy::Record);
        check("l", "i", true, 0.0, String::new);
        assert_eq!(drain().checks, 1);
    }

    #[test]
    fn drain_resets_the_collector() {
        let _g = collect(GuardPolicy::Record);
        check("l", "i", false, 0.0, || "x".into());
        assert_eq!(drain().violations.len(), 1);
        assert!(drain().is_clean());
        assert_eq!(violation_count(), 0);
    }

    #[test]
    fn policy_round_trips_names() {
        for p in [
            GuardPolicy::Record,
            GuardPolicy::Warn,
            GuardPolicy::FailFast,
        ] {
            assert_eq!(GuardPolicy::parse(p.as_str()), Some(p));
        }
        assert_eq!(GuardPolicy::parse("nope"), None);
    }
}
