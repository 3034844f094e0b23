//! Event-count budgets for supervised experiment runs.
//!
//! The supervised runner in `fiveg-bench` installs an [`Attempt`] with a
//! budget before an experiment starts; hot simulation loops [`charge`] it
//! once per step or scheduled event. An experiment that spins (a stuck
//! clock, a fault schedule that wedges a loop) exhausts the budget and
//! panics with a recognizable message, which the runner's `catch_unwind`
//! converts into a `degraded` report instead of a hung campaign.
//!
//! The budget and the attempt's cancel poll share one countdown
//! (`crate::attempt`), so a passing [`charge`] is one load, one compare
//! and one store, armed or not.

use crate::attempt::{self, Attempt, AttemptGuard};

/// Panic message prefix on budget exhaustion; the supervised runner matches
/// on it to label the failure.
pub const EXHAUSTED_MSG: &str = "simcore::budget exhausted";

/// Installs an attempt whose only input is a budget of `events`,
/// replacing whatever attempt was installed on this thread.
pub fn arm(events: u64) -> AttemptGuard {
    Attempt::new().budget(events).install()
}

/// Charges `n` events against the installed attempt's countdown.
///
/// # Panics
///
/// Panics with [`EXHAUSTED_MSG`] when the budget runs out, or with
/// [`crate::cancel::CANCELLED_MSG`] at the first poll after the attempt's
/// cancellation token was killed or passed its deadline. Exhaustion comes
/// first when both are due. Never panics without a budget or a token.
#[inline]
pub fn charge(n: u64) {
    attempt::charge(n);
}

/// Events charged so far, or `None` when no budget is armed. The
/// supervised runner reads this after an experiment finishes and records
/// it as the row's exact work count in the campaign manifest.
pub fn consumed() -> Option<u64> {
    attempt::consumed()
}
