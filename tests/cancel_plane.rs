//! The cooperative cancellation plane's campaign-level contract.
//!
//! Two promises, end to end:
//! 1. an interrupted campaign is *resumable to byte-identity*: stop the
//!    pool mid-campaign (the SIGINT path, driven here through the
//!    supervisor's interrupt flag), resume it through `campaign::run` —
//!    the code `figures --resume` runs — and the final manifest is
//!    byte-identical to an uninterrupted run, serial and on a `--jobs 4`
//!    pool;
//! 2. interruption never leaks threads: in-flight attempts observe the
//!    kill at their next budget charge and unwind, so the process-wide
//!    abandoned-thread count stays where it started.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use fiveg_bench::campaign::{self, CampaignSpec, Event};
use fiveg_bench::experiments::{self, Experiment};
use fiveg_bench::runner::{self, RunStatus, Supervisor};

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
    let outcomes = sup.run_registry_jobs(&subset(), seed, jobs, |_, _| {});
    runner::manifest(&outcomes, seed, None).render()
}

/// Runs the subset as a campaign into a fresh directory, flips the
/// interrupt flag from the progress callback after `interrupt_after`
/// experiments end (deterministic — no wall-clock race), then runs the
/// same campaign again with `resume`, as `figures --resume` does. Returns
/// the resumed campaign's `manifest.json` plus how many rows the
/// interrupted pass left unfinished (interrupted or never started).
fn interrupt_then_resume(
    sup: &Supervisor,
    jobs: usize,
    seed: u64,
    interrupt_after: usize,
) -> (String, usize) {
    let out = std::env::temp_dir().join(format!(
        "fiveg-cancel-plane-{}-{jobs}-{interrupt_after}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&out);
    // Per-test flag (the real SIGINT static in `fiveg_bench::signal` is
    // process-global; tests in this binary run concurrently and must not
    // interrupt each other's campaigns).
    let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let mut spec = CampaignSpec {
        entries: subset(),
        seed,
        jobs,
        supervisor: Supervisor {
            interrupt: Some(flag),
            ..sup.clone()
        },
        out: Some(PathBuf::from(&out)),
        ..CampaignSpec::default()
    };
    let ended = AtomicUsize::new(0);
    let interrupted = campaign::run(&spec, |event| {
        if let Event::Done(_) = event {
            if ended.fetch_add(1, Ordering::SeqCst) + 1 == interrupt_after {
                flag.store(true, Ordering::SeqCst);
            }
        }
    })
    .expect("interrupted campaign writes its artifacts");
    assert!(interrupted.interrupted);
    let unfinished = interrupted
        .rows
        .iter()
        .filter(|r| r.status != RunStatus::Ok)
        .count();
    assert!(
        unfinished > 0,
        "the interrupt must leave work behind, or the test proves nothing"
    );

    // Resume: a fresh supervisor without the interrupt flag; the rows the
    // first pass finished `ok` are kept, the rest run.
    spec.supervisor = sup.clone();
    spec.resume = true;
    let resumed = AtomicUsize::new(0);
    let done = campaign::run(&spec, |event| {
        if let Event::Resumed(_) = event {
            resumed.fetch_add(1, Ordering::SeqCst);
        }
    })
    .expect("resumed campaign writes its artifacts");
    assert!(!done.interrupted);
    assert_eq!(
        resumed.into_inner(),
        subset().len() - unfinished,
        "every row the first pass finished ok is kept, not re-run"
    );
    let manifest = std::fs::read_to_string(out.join("manifest.json")).expect("manifest");
    let _ = std::fs::remove_dir_all(&out);
    (manifest, unfinished)
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
