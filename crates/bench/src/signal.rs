//! Minimal graceful-shutdown signal shim for the `figures` CLI.
//!
//! The campaign driver wants exactly one bit from the operating system:
//! "the user asked us to stop" (SIGINT from ^C, SIGTERM from a supervisor
//! or CI timeout). The workspace is deliberately dependency-free, so
//! instead of a signal-handling crate this module declares the one libc
//! symbol it needs (`signal(2)`) and installs a handler that flips a
//! static [`AtomicBool`] — the only thing that is async-signal-safe to do
//! from a handler anyway. Everything downstream is ordinary Rust: the
//! campaign driver hands the flag to [`crate::runner::Supervisor`] as its
//! interrupt flag, workers stop claiming experiments, in-flight attempts
//! are cancelled cooperatively, and the manifest is flushed atomically
//! with in-flight rows marked `interrupted`.
//!
//! Off unix the shim compiles to a no-op install (the flag still exists
//! and tests can flip it by hand), so the crate builds everywhere without
//! a `libc` dependency or a platform gate in the callers.

use std::sync::atomic::{AtomicBool, Ordering};

/// Flipped by the first SIGINT/SIGTERM after [`install`]. Static for the
/// process lifetime so it can serve as [`crate::runner::Supervisor::interrupt`]
/// (which wants a `&'static AtomicBool`).
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// The exit code of a gracefully interrupted campaign: `128 + SIGINT(2)`,
/// the shell convention for "terminated by signal", distinct from the
/// CLI's usage-error (2) and strict-gate (1) exits.
pub const INTERRUPT_EXIT_CODE: i32 = 130;

#[cfg(unix)]
mod imp {
    use super::INTERRUPTED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGPIPE: i32 = 13;
    const SIGTERM: i32 = 15;
    const SIG_DFL: usize = 0;

    // `signal(2)` from the platform libc, which every unix Rust program
    // already links. The handler is a `sighandler_t`: a C function
    // pointer, or `SIG_DFL`. We never need the previous disposition, so
    // the return value is unused.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // A signal handler may only touch async-signal-safe state; a
        // relaxed atomic store is exactly that. The second ^C after this
        // one finds the flag already set and the process still draining —
        // deliberate: the flush path is what keeps the manifest
        // crash-consistent.
        INTERRUPTED.store(true, Ordering::Relaxed);
    }

    pub(super) fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `signal` only swaps the process's disposition for these
        // signals; `on_signal` is an `extern "C" fn(i32)` that does one
        // atomic store, which is async-signal-safe.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    pub(super) fn default_sigpipe() {
        // SAFETY: `SIG_DFL` is a disposition `signal` accepts for any
        // signal; no handler code runs.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub(super) fn install() {
        // No signal plumbing off unix: campaigns are still interruptible
        // by tests flipping the flag directly, just not by ^C.
    }

    pub(super) fn default_sigpipe() {}
}

/// Restores the default `SIGPIPE` disposition, which the Rust runtime
/// sets to ignore (no-op off unix). A write to a closed stdout (`figures
/// all | head -1`) then ends the process quietly, as it does for any
/// filter, instead of failing `println!` with a panic. Manifests and
/// artifacts are written atomically, so a run ended this way leaves no
/// torn file.
pub fn default_sigpipe() {
    imp::default_sigpipe();
}

/// Installs the SIGINT/SIGTERM handler (no-op off unix) and returns the
/// interrupt flag to hand to the supervisor. Idempotent.
pub fn install() -> &'static AtomicBool {
    imp::install();
    &INTERRUPTED
}

/// The interrupt flag without installing any handler (tests flip it by
/// hand; the campaign driver uses [`install`]).
pub fn flag() -> &'static AtomicBool {
    &INTERRUPTED
}

/// True once an interrupt has been requested.
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_starts_clear_and_is_static() {
        // Don't flip the flag here: it is process-global, and other tests
        // in this binary run real campaigns that must not see a phantom
        // interrupt. Just pin the wiring.
        let a = flag();
        let b = install();
        assert!(std::ptr::eq(a, b), "install returns the same static flag");
        assert_eq!(INTERRUPT_EXIT_CODE, 130);
    }
}
