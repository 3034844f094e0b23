//! Event-count budgets for supervised experiment runs.
//!
//! The supervised runner in `fiveg-bench` arms a per-thread budget before an
//! experiment starts; hot simulation loops [`charge`] it once per step or
//! scheduled event. An experiment that spins (a stuck clock, a fault schedule
//! that wedges a loop) exhausts the budget and panics with a recognizable
//! message, which the runner's `catch_unwind` converts into a `degraded`
//! report instead of a hung campaign.
//!
//! With no budget armed — the default everywhere outside the supervised
//! runner — [`charge`] is a thread-local load and a branch.

use std::cell::Cell;

thread_local! {
    /// Remaining events; `u64::MAX` means "no budget armed".
    static REMAINING: Cell<u64> = const { Cell::new(u64::MAX) };
    /// The amount armed, so [`consumed`] can report events charged so far;
    /// `u64::MAX` means "no budget armed". Never read on the `charge` hot
    /// path.
    static ARMED: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// Panic message prefix on budget exhaustion; the supervised runner matches
/// on it to label the failure.
pub const EXHAUSTED_MSG: &str = "simcore::budget exhausted";

/// Disarms the budget when dropped.
#[must_use = "the budget disarms when this guard drops"]
pub struct BudgetGuard {
    _private: (),
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        REMAINING.with(|r| r.set(u64::MAX));
        ARMED.with(|a| a.set(u64::MAX));
    }
}

/// Arms a budget of `events` on this thread; the previous budget (if any)
/// is replaced. Disarms when the guard drops.
pub fn arm(events: u64) -> BudgetGuard {
    REMAINING.with(|r| r.set(events));
    ARMED.with(|a| a.set(events));
    BudgetGuard { _private: () }
}

/// Charges `n` events against the armed budget, then lets the
/// cancellation plane observe the charge (`crate::cancel::observe` — one
/// extra thread-local load and branch when no token is armed).
///
/// # Panics
///
/// Panics with [`EXHAUSTED_MSG`] when the budget runs out, or with
/// [`crate::cancel::CANCELLED_MSG`] when an armed cancellation token was
/// killed or passed its deadline. Never panics when neither plane is
/// armed.
#[inline]
pub fn charge(n: u64) {
    REMAINING.with(|r| {
        let left = r.get();
        if left == u64::MAX {
            return;
        }
        if left < n {
            r.set(0);
            panic!("{EXHAUSTED_MSG}: experiment exceeded its event budget");
        }
        r.set(left - n);
    });
    crate::cancel::observe(n);
}

/// Events charged against the armed budget so far, or `None` when no
/// budget is armed. The supervised runner reads this after an experiment
/// finishes and records it as the row's exact work count in the campaign
/// manifest.
pub fn consumed() -> Option<u64> {
    let armed = ARMED.with(Cell::get);
    if armed == u64::MAX {
        return None;
    }
    let left = REMAINING.with(Cell::get);
    Some(armed.saturating_sub(left))
}

/// Remaining events, or `None` when no budget is armed.
pub fn remaining() -> Option<u64> {
    REMAINING.with(|r| {
        let left = r.get();
        if left == u64::MAX {
            None
        } else {
            Some(left)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_charge_is_free() {
        assert_eq!(remaining(), None);
        charge(1_000_000);
        assert_eq!(remaining(), None);
    }

    #[test]
    fn armed_budget_counts_down_and_disarms() {
        {
            let _guard = arm(10);
            assert_eq!(remaining(), Some(10));
            charge(4);
            assert_eq!(remaining(), Some(6));
            assert_eq!(consumed(), Some(4));
        }
        assert_eq!(remaining(), None);
        assert_eq!(consumed(), None);
    }

    #[test]
    fn exhaustion_panics_with_marker() {
        let result = std::panic::catch_unwind(|| {
            let _guard = arm(3);
            charge(2);
            charge(2);
        });
        let err = result.expect_err("budget must blow");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains(EXHAUSTED_MSG), "got: {msg}");
        // The guard dropped during unwinding, so the thread is disarmed.
        assert_eq!(remaining(), None);
    }
}
