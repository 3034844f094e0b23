//! The cooperative cancellation plane: a shared per-attempt token that the
//! budget hot path observes, so a supervised experiment can be *asked* to
//! die — and actually unwind, drain its ambient planes, and exit — instead
//! of being abandoned to spin on a leaked thread.
//!
//! * a [`CancelToken`] is shared between the supervising thread (which
//!   holds an `Arc` and may call [`CancelToken::kill`]) and the attempt
//!   thread, which installs it with [`crate::attempt::Attempt::cancel`];
//! * the attempt's event countdown, which `budget::charge` runs on, polls
//!   the token every [`POLL_INTERVAL`] charged events. The poll publishes
//!   the events charged so far into the token (the supervisor's watchdog
//!   samples this to tell *slow-but-progressing* from *wedged*), checks the
//!   kill flag, and checks the token's optional deadline. It **never
//!   mutates simulation state or draws randomness**, so runs with and
//!   without a token render bit-identical artifacts;
//! * when the token is killed (or its deadline has passed), the next poll
//!   panics with [`CANCELLED_MSG`]. The attempt's `catch_unwind` converts
//!   that into a failed attempt whose thread runs every destructor —
//!   the attempt uninstalls, its collectors drain — and then exits.
//!
//! A thread that never charges the budget can never observe a kill; the
//! supervisor's escalation ladder (cancel → grace period → abandon with a
//! leak report) exists precisely for that case.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Panic message prefix raised by a poll that observes a kill; the
/// supervised runner and the stress classifier both match on it.
pub const CANCELLED_MSG: &str = "simcore::cancel cancelled";

/// Charged events between polls of the shared token. Small enough that a
/// hot loop notices a kill within milliseconds, large enough that
/// `Instant::now()` and the atomic progress store stay off the per-event
/// path.
pub const POLL_INTERVAL: u64 = 2048;

/// The shared cancellation state of one supervised attempt.
///
/// The supervisor keeps one `Arc` end and kills/reads it; the attempt
/// thread arms the other end and observes it from the budget hot path.
#[derive(Debug)]
pub struct CancelToken {
    killed: AtomicBool,
    /// Why the token was killed; written once by the first [`kill`] call
    /// (cold path only).
    reason: Mutex<String>,
    /// Self-serve deadline: a poll past this instant cancels the attempt
    /// even if no supervisor ever calls [`kill`].
    deadline: Option<Instant>,
    /// Events charged by the armed thread, published at poll granularity.
    progress: AtomicU64,
}

impl CancelToken {
    /// A live token with no deadline (kill-only).
    pub fn new() -> CancelToken {
        CancelToken {
            killed: AtomicBool::new(false),
            reason: Mutex::new(String::new()),
            deadline: None,
            progress: AtomicU64::new(0),
        }
    }

    /// A live token that self-cancels at the next poll past `deadline`.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            deadline: Some(deadline),
            ..CancelToken::new()
        }
    }

    /// Requests cancellation. The first caller's `reason` sticks; the
    /// armed thread dies with it at its next poll. Idempotent.
    pub fn kill(&self, reason: &str) {
        let mut slot = self.reason.lock().unwrap_or_else(|p| p.into_inner());
        if !self.killed.load(Ordering::Relaxed) {
            *slot = reason.to_string();
        }
        drop(slot);
        self.killed.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::kill`] has been called (or a poll tripped the deadline).
    pub fn killed(&self) -> bool {
        self.killed.load(Ordering::Acquire)
    }

    /// The kill reason (empty while the token is live).
    pub fn reason(&self) -> String {
        self.reason
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Events the armed thread has charged so far, at poll granularity
    /// (a lower bound that advances every [`POLL_INTERVAL`] events). The
    /// watchdog's progress signal.
    pub fn progress(&self) -> u64 {
        self.progress.load(Ordering::Acquire)
    }

    /// The token's self-cancel deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The attempt's poll, every [`POLL_INTERVAL`] charged events:
    /// publishes `charged` as progress, then returns the kill reason if
    /// the token was killed or its deadline has passed.
    pub(crate) fn poll(&self, charged: u64) -> Option<String> {
        self.progress.store(charged, Ordering::Release);
        if self.killed() {
            return Some(self.reason());
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.kill("deadline");
            return Some("deadline".to_string());
        }
        None
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

/// True when `note` is (or wraps) a cancellation panic; the supervised
/// runner and the stress classifier use it to tell a cooperative exit
/// from a genuine experiment failure.
pub fn is_cancel_panic(note: &str) -> bool {
    note.contains(CANCELLED_MSG)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_kill_reason_sticks() {
        let token = CancelToken::new();
        token.kill("first");
        token.kill("second");
        assert!(token.killed());
        assert_eq!(token.reason(), "first");
    }
}
