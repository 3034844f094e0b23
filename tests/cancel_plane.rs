//! The cooperative cancellation plane's campaign-level contract.
//!
//! Two promises, end to end:
//! 1. an interrupted campaign is *resumable to byte-identity*: stop the
//!    pool mid-campaign (the SIGINT path, driven here through the
//!    supervisor's interrupt flag), re-run only the rows that did not
//!    finish `ok`, and the final manifest is byte-identical to an
//!    uninterrupted run — serial and on a `--jobs 4` pool;
//! 2. interruption never leaks threads: in-flight attempts observe the
//!    kill at their next budget charge and unwind, so the process-wide
//!    abandoned-thread count stays where it started.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use fiveg_bench::experiments::{self, Experiment};
use fiveg_bench::runner::{self, manifest_from_entries, ManifestEntry, RunStatus, Supervisor};

/// A small real-experiment subset, cheap enough to run several times per
/// test in debug builds but spanning several subsystems.
fn subset() -> Vec<(&'static str, Experiment)> {
    let wanted = ["table1", "fig1", "fig2", "fig9", "table2"];
    let registry = experiments::registry();
    wanted
        .iter()
        .map(|w| {
            *registry
                .iter()
                .find(|(id, _)| id == w)
                .unwrap_or_else(|| panic!("registry lost {w}"))
        })
        .collect()
}

/// Uninterrupted reference manifest for the subset.
fn reference_manifest(sup: &Supervisor, jobs: usize, seed: u64) -> String {
    let entries = subset();
    let outcomes = sup.run_registry_jobs(&entries, seed, jobs, |_, _| {});
    let rows: Vec<ManifestEntry> = outcomes.iter().map(ManifestEntry::from_outcome).collect();
    manifest_from_entries(&rows, seed, None).render()
}

/// Runs the subset, flips the interrupt flag after `interrupt_after`
/// completions (deterministic — no wall-clock race), then resumes the
/// unfinished rows exactly the way `figures --resume` does: rows that
/// completed `ok` are kept verbatim, everything else re-runs. Returns the
/// resumed manifest plus how many rows the interrupted pass left
/// unfinished (interrupted or never started).
fn interrupt_then_resume(
    sup: &Supervisor,
    jobs: usize,
    seed: u64,
    interrupt_after: usize,
) -> (String, usize) {
    let entries = subset();
    // Per-test flag (the real SIGINT static in `fiveg_bench::signal` is
    // process-global; tests in this binary run concurrently and must not
    // interrupt each other's campaigns).
    let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let mut interrupted_sup = sup.clone();
    interrupted_sup.interrupt = Some(flag);

    let slots: Mutex<Vec<Option<ManifestEntry>>> = Mutex::new(vec![None; entries.len()]);
    let finished = AtomicUsize::new(0);
    interrupted_sup.run_registry_jobs_partial(&entries, seed, jobs, |i, outcome| {
        let mut slots = slots.lock().expect("slots lock");
        slots[i] = Some(ManifestEntry::from_outcome(outcome));
        if finished.fetch_add(1, Ordering::SeqCst) + 1 == interrupt_after {
            flag.store(true, Ordering::SeqCst);
        }
    });

    let mut slots = slots.into_inner().expect("slots lock");
    let unfinished: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| !matches!(s, Some(e) if e.status == RunStatus::Ok))
        .map(|(i, _)| i)
        .collect();
    assert!(
        !unfinished.is_empty(),
        "the interrupt must leave work behind, or the test proves nothing"
    );

    // Resume: re-run only the unfinished rows (fresh supervisor, no
    // interrupt flag), slotting results back in registry order.
    let work: Vec<(&'static str, Experiment)> = unfinished.iter().map(|&i| entries[i]).collect();
    let outcomes = sup.run_registry_jobs(&work, seed, jobs, |_, _| {});
    for (&slot, outcome) in unfinished.iter().zip(&outcomes) {
        slots[slot] = Some(ManifestEntry::from_outcome(outcome));
    }
    let rows: Vec<ManifestEntry> = slots
        .into_iter()
        .map(|s| s.expect("every entry ran or resumed"))
        .collect();
    (
        manifest_from_entries(&rows, seed, None).render(),
        unfinished.len(),
    )
}

#[test]
fn interrupted_serial_campaign_resumes_to_byte_identity() {
    let sup = Supervisor::default();
    let leaked_before = runner::leaked_threads();
    let reference = reference_manifest(&sup, 1, 2021);
    let (resumed, unfinished) = interrupt_then_resume(&sup, 1, 2021, 2);
    // Serial pool: after the 2nd completion flips the flag, the lone
    // worker claims nothing further — every remaining row is unfinished.
    assert_eq!(unfinished, subset().len() - 2);
    assert_eq!(resumed, reference);
    assert_eq!(
        runner::leaked_threads(),
        leaked_before,
        "interruption must not leak attempt threads"
    );
}

#[test]
fn interrupted_parallel_campaign_resumes_to_byte_identity() {
    let sup = Supervisor::default();
    let leaked_before = runner::leaked_threads();
    let reference = reference_manifest(&sup, 4, 2021);
    // With 4 workers, rows in flight at the interrupt land as
    // `interrupted` (cancelled cooperatively) or finish inside the grace
    // window; either way the resume pass must restore byte-identity.
    let (resumed, _unfinished) = interrupt_then_resume(&sup, 4, 2021, 1);
    assert_eq!(resumed, reference);
    assert_eq!(
        runner::leaked_threads(),
        leaked_before,
        "interruption must not leak attempt threads"
    );
}
