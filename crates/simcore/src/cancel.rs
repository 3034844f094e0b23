//! The cooperative cancellation plane: a shared per-attempt token that the
//! budget hot path observes, so a supervised experiment can be *asked* to
//! die — and actually unwind, drain its ambient planes, and exit — instead
//! of being abandoned to spin on a leaked thread.
//!
//! The contract mirrors the fault/telemetry/guard planes:
//!
//! * a [`CancelToken`] is shared between the supervising thread (which
//!   holds an `Arc` and may call [`CancelToken::kill`]) and the attempt
//!   thread (which arms it thread-locally via [`arm`], usually through
//!   `ambient::install_attempt`);
//! * [`observe`] sits on the existing `budget::charge` thread-local hot
//!   path. Disarmed — the default everywhere outside the supervised
//!   runner — it is one thread-local load and a branch, and it **never
//!   mutates simulation state or draws randomness**, so armed and
//!   disarmed runs render bit-identical artifacts;
//! * armed, it counts events down to the next *poll* (every
//!   [`POLL_INTERVAL`] charged events): the poll publishes the events
//!   charged so far into the token (the supervisor's watchdog samples
//!   this to tell *slow-but-progressing* from *wedged*), checks the kill
//!   flag, and checks the token's optional deadline;
//! * when the token is killed (or its deadline has passed), the next poll
//!   panics with [`CANCELLED_MSG`]. The attempt's `catch_unwind` converts
//!   that into a failed attempt whose thread runs every destructor —
//!   ambient planes uninstall, collectors drain — and then exits.
//!
//! A thread that never charges the budget can never observe a kill; the
//! supervisor's escalation ladder (cancel → grace period → abandon with a
//! leak report) exists precisely for that case.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

thread_local! {
    /// Events until the next poll; `u64::MAX` means "no token armed" (the
    /// single load-and-branch the disarmed hot path pays).
    static UNTIL_POLL: Cell<u64> = const { Cell::new(u64::MAX) };
    /// Exact events charged since the token was armed.
    static CHARGED: Cell<u64> = const { Cell::new(0) };
    /// The armed token; touched only at poll boundaries and (un)install.
    static TOKEN: RefCell<Option<Arc<CancelToken>>> = const { RefCell::new(None) };
}

/// Disarms the thread's cancellation token when dropped.
#[must_use = "the cancellation token disarms when this guard drops"]
pub struct CancelGuard {
    _private: (),
}

impl Drop for CancelGuard {
    fn drop(&mut self) {
        TOKEN.with(|t| *t.borrow_mut() = None);
        UNTIL_POLL.with(|u| u.set(u64::MAX));
        CHARGED.with(|c| c.set(0));
    }
}

/// Arms `token` on this thread; the previous token (if any) is replaced.
/// Disarms when the guard drops.
pub fn arm(token: Arc<CancelToken>) -> CancelGuard {
    TOKEN.with(|t| *t.borrow_mut() = Some(token));
    UNTIL_POLL.with(|u| u.set(POLL_INTERVAL));
    CHARGED.with(|c| c.set(0));
    CancelGuard { _private: () }
}

/// True iff a token is armed on this thread.
pub fn armed() -> bool {
    UNTIL_POLL.with(Cell::get) != u64::MAX
}

/// Exact events charged against the armed token so far (0 when disarmed).
pub fn charged() -> u64 {
    CHARGED.with(Cell::get)
}

/// Observes `n` charged events against the armed token. Called by
/// `budget::charge`; disarmed it is one thread-local load and a branch.
///
/// # Panics
///
/// Panics with [`CANCELLED_MSG`] at the first poll after the token was
/// killed or its deadline passed.
#[inline]
pub fn observe(n: u64) {
    UNTIL_POLL.with(|u| {
        let left = u.get();
        if left == u64::MAX {
            return;
        }
        CHARGED.with(|c| c.set(c.get().saturating_add(n)));
        if left > n {
            u.set(left - n);
        } else {
            u.set(POLL_INTERVAL);
            poll();
        }
    });
}

/// Polls the armed token now (also called every [`POLL_INTERVAL`] charged
/// events by [`observe`]): publishes progress, then panics with
/// [`CANCELLED_MSG`] if the token was killed or its deadline has passed.
/// No-op when disarmed.
#[cold]
pub fn poll() {
    let charged = CHARGED.with(Cell::get);
    // Decide inside the borrow, panic outside it: the unwind must never
    // tear through a live RefCell borrow of the thread-local slot.
    let cancelled: Option<String> = TOKEN.with(|t| {
        let slot = t.borrow();
        let token = slot.as_ref()?;
        token.progress.store(charged, Ordering::Release);
        if token.killed() {
            return Some(token.reason());
        }
        if let Some(d) = token.deadline {
            if Instant::now() >= d {
                token.kill("deadline");
                return Some("deadline".to_string());
            }
        }
        None
    });
    if let Some(reason) = cancelled {
        panic!("{CANCELLED_MSG}: {reason}");
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
    use std::time::Duration;

    #[test]
    fn disarmed_observe_is_free() {
        assert!(!armed());
        observe(1_000_000);
        poll();
        assert!(!armed());
        assert_eq!(charged(), 0);
    }

    #[test]
    fn arm_counts_and_disarms_on_drop() {
        let token = Arc::new(CancelToken::new());
        {
            let _g = arm(Arc::clone(&token));
            assert!(armed());
            observe(10);
            assert_eq!(charged(), 10);
        }
        assert!(!armed());
        assert_eq!(charged(), 0);
    }

    #[test]
    fn progress_publishes_at_poll_granularity() {
        let token = Arc::new(CancelToken::new());
        let _g = arm(Arc::clone(&token));
        observe(POLL_INTERVAL - 1);
        assert_eq!(token.progress(), 0, "no poll yet");
        observe(1);
        assert_eq!(token.progress(), POLL_INTERVAL, "poll published progress");
        observe(POLL_INTERVAL);
        assert_eq!(token.progress(), 2 * POLL_INTERVAL);
    }

    #[test]
    fn killed_token_panics_at_the_next_poll() {
        let token = Arc::new(CancelToken::new());
        let result = std::panic::catch_unwind(|| {
            let _g = arm(Arc::clone(&token));
            observe(POLL_INTERVAL); // first poll: still live
            token.kill("test kill");
            observe(POLL_INTERVAL); // second poll: dies
            unreachable!("the poll must panic");
        });
        let err = result.expect_err("kill must cancel");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(is_cancel_panic(&msg), "got: {msg}");
        assert!(msg.contains("test kill"), "got: {msg}");
        // The guard dropped during unwinding: the thread is disarmed and
        // re-armable.
        assert!(!armed());
        let token2 = Arc::new(CancelToken::new());
        let _g = arm(token2);
        observe(1);
        assert_eq!(charged(), 1);
    }

    #[test]
    fn first_kill_reason_sticks() {
        let token = CancelToken::new();
        token.kill("first");
        token.kill("second");
        assert!(token.killed());
        assert_eq!(token.reason(), "first");
    }

    #[test]
    fn past_deadline_cancels_and_marks_the_token() {
        let token = Arc::new(CancelToken::with_deadline(
            Instant::now() - Duration::from_millis(1),
        ));
        let outer = Arc::clone(&token);
        let result = std::panic::catch_unwind(move || {
            let _g = arm(token);
            observe(POLL_INTERVAL);
        });
        let err = result.expect_err("deadline must cancel");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("deadline"), "got: {msg}");
        assert!(
            outer.killed(),
            "self-cancel marks the token for the supervisor"
        );
    }

    #[test]
    fn future_deadline_does_not_fire() {
        let token = Arc::new(CancelToken::with_deadline(
            Instant::now() + Duration::from_secs(3600),
        ));
        let _g = arm(Arc::clone(&token));
        observe(4 * POLL_INTERVAL);
        assert!(!token.killed());
        assert_eq!(token.progress(), 4 * POLL_INTERVAL);
    }
}
