//! The telemetry plane's two core promises, end to end:
//!
//! 1. **Off means invisible** — a campaign run with the collector off
//!    renders a `manifest.json` byte-identical to one run with it on:
//!    installing the plane changes observation, never the world.
//! 2. **On means deterministic** — the per-experiment JSONL and Chrome
//!    trace renders carry only simulated time, so two identical runs, and
//!    a serial vs `--jobs 4` run, produce byte-identical files.
//!
//! Plus the coverage gate: one small campaign instruments enough of the
//! stack that the drained spans cross the radio, RRC, transport, and
//! video layers.

use fiveg_bench::experiments::{self, Experiment};
use fiveg_bench::runner::{manifest_from_entries, ManifestEntry, RunOutcome, Supervisor};
use fiveg_bench::telemetry as telexport;
use fiveg_wild::simcore::telemetry::AttemptTelemetry;
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// A cheap subset whose instrumented code paths span four layers: fig9
/// drives the radio, fig10 exercises the RRC machine, fig8 runs the TCP
/// simulator, fig17 streams video.
fn subset() -> Vec<(&'static str, Experiment)> {
    let wanted = ["fig9", "fig10", "fig8", "fig17"];
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

fn run(telemetry_on: bool, jobs: usize) -> Vec<RunOutcome> {
    let supervisor = Supervisor {
        telemetry: telemetry_on,
        ..Supervisor::default()
    };
    supervisor.run_registry_jobs(&subset(), 2021, jobs, |_, _| {})
}

/// The serial instrumented run, shared by several tests (the subset is
/// expensive in debug builds; the campaigns it is compared against are
/// what each test re-runs).
fn serial_on() -> &'static [RunOutcome] {
    static RUN: OnceLock<Vec<RunOutcome>> = OnceLock::new();
    RUN.get_or_init(|| run(true, 1))
}

/// The serial uninstrumented run, shared likewise.
fn serial_off() -> &'static [RunOutcome] {
    static RUN: OnceLock<Vec<RunOutcome>> = OnceLock::new();
    RUN.get_or_init(|| run(false, 1))
}

fn manifest_bytes(outcomes: &[RunOutcome]) -> String {
    let rows: Vec<ManifestEntry> = outcomes.iter().map(ManifestEntry::from_outcome).collect();
    manifest_from_entries(&rows, 2021, None).render()
}

/// Per-experiment `(jsonl, chrome trace)` renders, in registry order.
fn renders(outcomes: &[RunOutcome]) -> Vec<(String, String)> {
    outcomes
        .iter()
        .map(|o| {
            let t = o.telemetry.clone().unwrap_or_default();
            (telexport::jsonl(&t), telexport::chrome_trace(o.id, &t))
        })
        .collect()
}

#[test]
fn manifest_is_byte_identical_with_the_plane_off_and_on() {
    let off = manifest_bytes(serial_off());
    let on = manifest_bytes(serial_on());
    assert_eq!(off, on, "observing the campaign must not change it");
}

#[test]
fn telemetry_renders_are_deterministic_across_identical_runs() {
    let a = renders(serial_on());
    let b = renders(&run(true, 1));
    assert_eq!(a, b, "same campaign, same bytes");
    assert!(
        a.iter().all(|(jsonl, _)| !jsonl.is_empty()),
        "every instrumented experiment drains events"
    );
}

#[test]
fn telemetry_renders_are_identical_serial_vs_jobs_4() {
    let serial = renders(serial_on());
    let parallel = renders(&run(true, 4));
    assert_eq!(
        serial, parallel,
        "worker count must not leak into sim-time data"
    );
}

#[test]
fn campaign_spans_cover_radio_rrc_transport_and_video() {
    let mut total = AttemptTelemetry::default();
    for o in serial_on() {
        if let Some(t) = &o.telemetry {
            total.merge_aggregates(t);
        }
    }
    let names: BTreeSet<&str> = total.spans.iter().map(|(n, _)| *n).collect();
    for expected in [
        "radio/drive",
        "rrc/packet",
        "transport/run",
        "video/session",
        "video/segment",
    ] {
        assert!(
            names.contains(expected),
            "missing span {expected}; got {names:?}"
        );
    }
    let counters: BTreeSet<&str> = total.counters.iter().map(|(n, _)| *n).collect();
    assert!(counters.iter().any(|n| n.starts_with("radio/handoff/")));
    assert!(counters.iter().any(|n| n.starts_with("rrc/state/")));
}

#[test]
fn untelemetered_supervisor_yields_no_capture() {
    for outcome in serial_off() {
        assert!(outcome.telemetry.is_none());
    }
}
