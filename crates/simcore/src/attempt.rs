//! One supervised attempt's ambient context: its fault schedule, recovery,
//! telemetry and guard collectors, event budget and cancellation token,
//! installed together by one [`Attempt`], uninstalled by one
//! [`AttemptGuard`] and read back by one [`drain`].
//!
//! The model crates never see this module. They call the per-plane hooks
//! (`budget::charge`, `faults::is_active`, `recovery::record`,
//! `telemetry::span`, `guard::check`, …), and every hook reads the state
//! held here. That state lives in two thread-locals:
//!
//! * the **hot** state, plain `Cell`s in a type with no drop glue, so the
//!   `const` thread-local needs no registration check on access: one flag
//!   per plane, the guard-check counter, and the event countdown that
//!   `budget::charge` runs on;
//! * the **cold** state, one `RefCell` beside it: the schedule, the
//!   collectors and the token. Hooks borrow it only when their plane is
//!   on and they have something to look up or record.
//!
//! Invariants an install keeps:
//!
//! * the schedule is data: the runner generates it from
//!   `(attempt seed, scenario)` only, and the stress shrinker hands in a
//!   restricted or truncated one that installs exactly the same way;
//! * the recovery collector follows the schedule, so fault-free attempts
//!   record zero recovery events by construction;
//! * telemetry and guards are on only when asked for, and neither ever
//!   mutates simulation state or draws randomness, so artifacts are
//!   byte-identical with them off or on;
//! * everything uninstalls when the guard drops, even on panic, so a
//!   reused thread never sees one attempt's state in the next.
//!
//! # The countdown
//!
//! The event budget and the cancel poll count the same charged events, so
//! they share one countdown: `left` is how many more events `charge` may
//! take before either is due. A passing charge is one load, one compare
//! and one store. The cold path works out which is due: exhaustion first,
//! then a poll every [`POLL_INTERVAL`] events that publishes progress into
//! the token and panics with [`CANCELLED_MSG`] once it was killed or its
//! deadline passed.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use crate::budget::{self, EXHAUSTED_MSG};
use crate::cancel::{CancelToken, CANCELLED_MSG, POLL_INTERVAL};
use crate::faults::FaultSchedule;
use crate::guard::{self, AttemptGuards, GuardPolicy, Violation};
use crate::recovery::{self, RecoveryEvent};
use crate::telemetry::{self, AttemptTelemetry};

/// What one attempt installs: a fault schedule, an event budget,
/// telemetry on or off, a guard policy and a cancellation token. Nothing
/// is installed by default, and the budget is unbounded.
#[derive(Debug)]
#[must_use = "an attempt does nothing until it is installed"]
pub struct Attempt {
    faults: Option<FaultSchedule>,
    budget: u64,
    telemetry: bool,
    guards: Option<GuardPolicy>,
    cancel: Option<Arc<CancelToken>>,
}

impl Default for Attempt {
    fn default() -> Self {
        Attempt::new()
    }
}

impl Attempt {
    /// An attempt that installs nothing: no schedule, an unbounded budget,
    /// telemetry off, no guards, no token.
    pub fn new() -> Attempt {
        Attempt {
            faults: None,
            budget: u64::MAX,
            telemetry: false,
            guards: None,
            cancel: None,
        }
    }

    /// The fault schedule the `faults` hooks consult; it brings the
    /// recovery collector with it.
    pub fn faults(mut self, schedule: impl Into<Option<FaultSchedule>>) -> Attempt {
        self.faults = schedule.into();
        self
    }

    /// The event budget `budget::charge` counts down; `u64::MAX` leaves it
    /// unbounded (and `budget::consumed` reads `None`).
    pub fn budget(mut self, events: u64) -> Attempt {
        self.budget = events;
        self
    }

    /// Whether the telemetry collector is installed.
    pub fn telemetry(mut self, on: bool) -> Attempt {
        self.telemetry = on;
        self
    }

    /// The guard policy; `None` leaves the guard collector uninstalled.
    pub fn guards(mut self, policy: impl Into<Option<GuardPolicy>>) -> Attempt {
        self.guards = policy.into();
        self
    }

    /// The cancellation token the countdown polls.
    pub fn cancel(mut self, token: impl Into<Option<Arc<CancelToken>>>) -> Attempt {
        self.cancel = token.into();
        self
    }

    /// Installs the attempt on this thread, replacing whatever was
    /// installed; everything uninstalls when the guard drops.
    pub fn install(self) -> AttemptGuard {
        let has_schedule = self.faults.is_some();
        let has_token = self.cancel.is_some();
        let previous = COLD.with(|c| {
            c.replace(Cold {
                schedule: self.faults,
                token: self.cancel,
                ..Cold::OFF
            })
        });
        drop(previous);
        HOT.with(|h| {
            h.faults.set(has_schedule);
            h.recovery.set(has_schedule);
            h.telemetry.set(self.telemetry);
            h.guards.set(self.guards.is_some());
            h.checks.set(0);
            h.budget.set(self.budget);
            h.poll_at
                .set(if has_token { POLL_INTERVAL } else { u64::MAX });
            h.settle(0);
        });
        AttemptGuard { _private: () }
    }
}

/// Uninstalls the attempt when dropped: the hot flags and the countdown
/// go first, so no teardown step can observe a kill, then the schedule,
/// the collectors and the token.
#[must_use = "the attempt uninstalls when this guard drops"]
pub struct AttemptGuard {
    _private: (),
}

impl Drop for AttemptGuard {
    fn drop(&mut self) {
        HOT.with(Hot::reset);
        let installed = COLD.with(|c| c.replace(Cold::OFF));
        drop(installed);
    }
}

/// Everything one attempt recorded, taken by [`drain`].
#[derive(Debug, Clone, Default)]
pub struct Drained {
    /// Events charged against the budget (0 when it is unbounded).
    pub events: u64,
    /// Recovery events, in emission order (empty without a schedule).
    pub recovery: Vec<RecoveryEvent>,
    /// The telemetry, when the collector is installed.
    pub telemetry: Option<AttemptTelemetry>,
    /// The guard records (empty without a guard policy).
    pub guards: AttemptGuards,
}

/// Takes this thread's attempt records: the charged events, and the
/// recovery, telemetry and guard collectors' contents (which restart
/// empty; the attempt stays installed).
pub fn drain() -> Drained {
    Drained {
        events: budget::consumed().unwrap_or(0),
        recovery: recovery::drain(),
        telemetry: telemetry::enabled().then(telemetry::drain),
        guards: guard::drain(),
    }
}

/// The hot state: what every hook reads, as plain `Cell`s.
pub(crate) struct Hot {
    pub(crate) faults: Cell<bool>,
    pub(crate) recovery: Cell<bool>,
    pub(crate) telemetry: Cell<bool>,
    pub(crate) guards: Cell<bool>,
    /// Guard checks evaluated, passes included.
    pub(crate) checks: Cell<u64>,
    /// Events `charge` may still take before the budget or a poll is due.
    left: Cell<u64>,
    /// `left` as the last cold path set it, and the events charged by
    /// then: `base + (window - left)` is the exact count.
    window: Cell<u64>,
    base: Cell<u64>,
    /// The budget (`u64::MAX`: unbounded).
    budget: Cell<u64>,
    /// The charged count at which the next poll is due (`u64::MAX`: no
    /// token).
    poll_at: Cell<u64>,
}

impl Hot {
    const fn off() -> Hot {
        Hot {
            faults: Cell::new(false),
            recovery: Cell::new(false),
            telemetry: Cell::new(false),
            guards: Cell::new(false),
            checks: Cell::new(0),
            left: Cell::new(u64::MAX),
            window: Cell::new(u64::MAX),
            base: Cell::new(0),
            budget: Cell::new(u64::MAX),
            poll_at: Cell::new(u64::MAX),
        }
    }

    fn reset(&self) {
        for flag in [&self.faults, &self.recovery, &self.telemetry, &self.guards] {
            flag.set(false);
        }
        self.checks.set(0);
        self.budget.set(u64::MAX);
        self.poll_at.set(u64::MAX);
        self.settle(0);
    }

    /// Events charged so far.
    fn charged(&self) -> u64 {
        self.base
            .get()
            .saturating_add(self.window.get() - self.left.get())
    }

    /// Restarts the countdown at `charged` events: `left` passes a charge
    /// of `n` iff `n` fits in the budget and stays short of the next poll.
    fn settle(&self, charged: u64) {
        let budget = self.budget.get();
        let to_budget = if budget == u64::MAX {
            u64::MAX
        } else {
            (budget - charged).saturating_add(1)
        };
        let window = to_budget.min(self.poll_at.get().saturating_sub(charged));
        self.base.set(charged);
        self.window.set(window);
        self.left.set(window);
    }
}

/// The cold state: looked up only when a plane is on.
pub(crate) struct Cold {
    pub(crate) schedule: Option<FaultSchedule>,
    pub(crate) recovery: Vec<RecoveryEvent>,
    pub(crate) telemetry: telemetry::Collector,
    pub(crate) violations: Vec<Violation>,
    pub(crate) dropped_violations: u64,
    token: Option<Arc<CancelToken>>,
}

impl Cold {
    const OFF: Cold = Cold {
        schedule: None,
        recovery: Vec::new(),
        telemetry: telemetry::Collector::new(),
        violations: Vec::new(),
        dropped_violations: 0,
        token: None,
    };
}

thread_local! {
    static HOT: Hot = const { Hot::off() };
    static COLD: RefCell<Cold> = const { RefCell::new(Cold::OFF) };
}

/// Runs `f` on this thread's hot state.
#[inline]
pub(crate) fn hot<R>(f: impl FnOnce(&Hot) -> R) -> R {
    HOT.with(f)
}

/// Runs `f` on this thread's cold state. `f` must not call a hook: the
/// state is borrowed while it runs.
pub(crate) fn cold<R>(f: impl FnOnce(&mut Cold) -> R) -> R {
    COLD.with(|c| f(&mut c.borrow_mut()))
}

/// `budget::charge`: counts `n` events down.
#[inline]
pub(crate) fn charge(n: u64) {
    HOT.with(|h| {
        let left = h.left.get();
        if n < left {
            h.left.set(left - n);
        } else {
            charge_cold(h, n);
        }
    });
}

/// The charge that reaches the budget or a poll: exhaustion first, then
/// the poll, each panicking outside any borrow.
#[cold]
#[inline(never)]
fn charge_cold(h: &Hot, n: u64) {
    let before = h.charged();
    let budget = h.budget.get();
    if budget != u64::MAX && n > budget - before {
        h.settle(budget);
        panic!("{EXHAUSTED_MSG}: experiment exceeded its event budget");
    }
    let charged = before.saturating_add(n);
    let poll_at = h.poll_at.get();
    let due = poll_at != u64::MAX && charged >= poll_at;
    if due {
        h.poll_at.set(charged.saturating_add(POLL_INTERVAL));
    }
    h.settle(charged);
    if due {
        let token = COLD.with(|c| c.borrow().token.clone());
        if let Some(reason) = token.and_then(|t| t.poll(charged)) {
            panic!("{CANCELLED_MSG}: {reason}");
        }
    }
}

/// `budget::consumed`: the events charged so far, `None` without a budget.
pub(crate) fn consumed() -> Option<u64> {
    HOT.with(|h| (h.budget.get() != u64::MAX).then(|| h.charged()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::charge;
    use crate::faults::{self, FaultKind, FaultScenario};
    use crate::recovery::RecoveryKind;
    use std::time::{Duration, Instant};

    fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn charges_summing_to_the_budget_pass_and_the_next_one_panics() {
        let _g = Attempt::new().budget(10).install();
        charge(4);
        charge(6);
        charge(0);
        assert_eq!(budget::consumed(), Some(10));
        let err = std::panic::catch_unwind(|| charge(1)).expect_err("budget is spent");
        assert!(panic_message(err).starts_with(EXHAUSTED_MSG));
    }

    #[test]
    fn one_charge_larger_than_what_is_left_panics() {
        let _g = Attempt::new().budget(10).install();
        charge(3);
        let err = std::panic::catch_unwind(|| charge(8)).expect_err("8 > 7 left");
        assert!(panic_message(err).starts_with(EXHAUSTED_MSG));
        assert_eq!(budget::consumed(), Some(10), "exhaustion spends the budget");
    }

    #[test]
    fn exhaustion_wins_when_a_poll_is_due_too() {
        let token = Arc::new(CancelToken::new());
        token.kill("killed");
        let _g = Attempt::new()
            .budget(POLL_INTERVAL - 1)
            .cancel(Arc::clone(&token))
            .install();
        let err = std::panic::catch_unwind(|| charge(POLL_INTERVAL)).expect_err("both due");
        assert!(panic_message(err).starts_with(EXHAUSTED_MSG));
        assert_eq!(token.progress(), 0, "the poll never ran");
    }

    #[test]
    fn progress_publishes_at_each_poll_boundary() {
        let token = Arc::new(CancelToken::new());
        let _g = Attempt::new()
            .budget(1 << 40)
            .cancel(Arc::clone(&token))
            .install();
        charge(POLL_INTERVAL - 1);
        assert_eq!(token.progress(), 0, "no poll yet");
        charge(1);
        assert_eq!(token.progress(), POLL_INTERVAL, "poll published progress");
        charge(POLL_INTERVAL + 5);
        assert_eq!(token.progress(), 2 * POLL_INTERVAL + 5);
        charge(POLL_INTERVAL - 1);
        assert_eq!(
            token.progress(),
            2 * POLL_INTERVAL + 5,
            "next poll counts from the last"
        );
        charge(1);
        assert_eq!(token.progress(), 3 * POLL_INTERVAL + 5);
    }

    #[test]
    fn a_kill_is_seen_within_one_interval() {
        let token = Arc::new(CancelToken::new());
        let result = std::panic::catch_unwind(|| {
            let _g = Attempt::new().cancel(Arc::clone(&token)).install();
            charge(POLL_INTERVAL); // first poll: still live
            token.kill("test kill");
            for _ in 0..POLL_INTERVAL {
                charge(1);
            }
            unreachable!("the second poll must panic");
        });
        let msg = panic_message(result.expect_err("kill must cancel"));
        assert!(crate::cancel::is_cancel_panic(&msg), "got: {msg}");
        assert!(msg.contains("test kill"), "got: {msg}");
    }

    #[test]
    fn past_deadline_cancels_and_marks_the_token() {
        let token = Arc::new(CancelToken::with_deadline(
            Instant::now() - Duration::from_millis(1),
        ));
        let result = std::panic::catch_unwind(|| {
            let _g = Attempt::new().cancel(Arc::clone(&token)).install();
            charge(POLL_INTERVAL);
        });
        let msg = panic_message(result.expect_err("deadline must cancel"));
        assert!(msg.contains("deadline"), "got: {msg}");
        assert!(
            token.killed(),
            "self-cancel marks the token for the supervisor"
        );
    }

    #[test]
    fn future_deadline_does_not_fire() {
        let token = Arc::new(CancelToken::with_deadline(
            Instant::now() + Duration::from_secs(3600),
        ));
        let _g = Attempt::new().cancel(Arc::clone(&token)).install();
        charge(4 * POLL_INTERVAL);
        assert!(!token.killed());
        assert_eq!(token.progress(), 4 * POLL_INTERVAL);
    }

    #[test]
    fn consumed_equals_the_events_charged() {
        let token = Arc::new(CancelToken::new());
        let _g = Attempt::new()
            .budget(1 << 40)
            .cancel(Arc::clone(&token))
            .install();
        let mut total = 0;
        for i in 0..10_000u64 {
            let n = (i * 7919) % 613;
            charge(n);
            total += n;
            assert_eq!(budget::consumed(), Some(total));
        }
        assert!(token.progress() > 0 && token.progress() <= total);
        assert_eq!(drain().events, total);
    }

    #[test]
    fn each_input_turns_on_its_own_plane() {
        {
            let _g = Attempt::new().budget(100).install();
            assert!(!faults::enabled() && !recovery::enabled());
            assert!(!telemetry::enabled() && !guard::enabled());
            assert_eq!(budget::consumed(), Some(0));
        }
        {
            let schedule = FaultSchedule::generate(11, &FaultScenario::chaos());
            let _g = Attempt::new().faults(schedule).install();
            assert!(faults::enabled());
            assert!(
                (0..3600).any(|t| faults::is_active(FaultKind::StallWindow, t as f64)),
                "an aggressive schedule has stall windows"
            );
            assert!(
                recovery::enabled(),
                "a schedule brings the recovery collector"
            );
            assert!(!telemetry::enabled() && !guard::enabled());
            assert_eq!(budget::consumed(), None, "the budget is unbounded");
        }
        {
            let _g = Attempt::new().telemetry(true).install();
            assert!(telemetry::enabled());
            assert!(!faults::enabled() && !recovery::enabled() && !guard::enabled());
        }
        {
            let _g = Attempt::new().guards(GuardPolicy::Record).install();
            assert!(guard::enabled());
            assert!(!faults::enabled() && !telemetry::enabled());
        }
    }

    #[test]
    fn drain_takes_every_record_together() {
        let schedule = FaultSchedule::generate(11, &FaultScenario::chaos());
        let _g = Attempt::new()
            .faults(schedule)
            .budget(1_000)
            .telemetry(true)
            .guards(GuardPolicy::Record)
            .install();
        charge(42);
        recovery::record(RecoveryKind::TcpRto, 1.0, 0.5, 2.0, || "x".into());
        telemetry::count("test/drain", 3);
        guard::check("test", "drain", false, 1.0, || "x".into());
        let d = drain();
        assert_eq!(d.events, 42);
        assert_eq!(d.recovery.len(), 1);
        assert_eq!(
            d.telemetry.expect("installed").counters,
            vec![("test/drain", 3)]
        );
        assert_eq!((d.guards.checks, d.guards.violation_count()), (1, 1));
        let again = drain();
        assert_eq!(again.events, 42, "the count is not a collector");
        assert!(again.recovery.is_empty() && again.guards.is_clean());
        assert_eq!(again.guards.checks, 0);
    }

    #[test]
    fn hooks_are_inert_after_the_guard_drops_and_the_next_install_counts_from_zero() {
        let token = Arc::new(CancelToken::new());
        {
            let schedule = FaultSchedule::generate(11, &FaultScenario::chaos());
            let _g = Attempt::new()
                .faults(schedule)
                .budget(1 << 30)
                .telemetry(true)
                .guards(GuardPolicy::Record)
                .cancel(Arc::clone(&token))
                .install();
            charge(3 * POLL_INTERVAL);
            recovery::record(RecoveryKind::TcpRto, 1.0, 0.5, 2.0, || "x".into());
            telemetry::count("test/inert", 1);
            guard::check("test", "inert", false, 1.0, || "x".into());
            // Dropped undrained.
        }
        token.kill("after the attempt");
        assert!(!faults::enabled() && !recovery::enabled());
        assert!(!telemetry::enabled() && !guard::enabled());
        assert!((0..3600).all(|t| !faults::is_active(FaultKind::StallWindow, t as f64)));
        assert_eq!(faults::window_of(FaultKind::StallWindow, 10.0), None);
        charge(10 * POLL_INTERVAL);
        assert_eq!(budget::consumed(), None);
        recovery::record(RecoveryKind::TcpRto, 1.0, 0.5, 2.0, || {
            unreachable!("inert")
        });
        guard::check("test", "inert", false, 1.0, || unreachable!("inert"));
        let d = drain();
        assert_eq!(d.events, 0);
        assert!(d.recovery.is_empty() && d.telemetry.is_none());
        assert_eq!(d.guards, AttemptGuards::default());

        let _g = Attempt::new()
            .budget(5)
            .guards(GuardPolicy::Record)
            .install();
        assert_eq!(budget::consumed(), Some(0));
        charge(5);
        assert_eq!(budget::consumed(), Some(5));
        assert_eq!(guard::drain().checks, 0);
        assert!(telemetry::drain().is_empty());
    }
}
