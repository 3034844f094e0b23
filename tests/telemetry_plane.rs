//! The telemetry plane's determinism promise, end to end: the
//! per-experiment JSONL and Chrome trace renders that `campaign::run`
//! writes under `obs` carry only simulated time, so two identical runs,
//! and a serial vs `--jobs 4` run, produce byte-identical files.
//!
//! The rest of the export (folded stacks, `metrics.json`,
//! `observatory.txt`), the off-means-invisible manifest check and the
//! layer coverage gate live in `tests/observatory.rs`.

use fiveg_bench::campaign::{self, CampaignSpec};
use fiveg_bench::experiments::{self, Experiment};
use std::sync::OnceLock;

/// A cheap subset whose instrumented code paths span four layers: fig9
/// drives the radio, fig10 exercises the RRC machine, fig8 runs the TCP
/// simulator, fig17 streams video.
const SUBSET: [&str; 4] = ["fig9", "fig10", "fig8", "fig17"];

fn subset() -> Vec<(&'static str, Experiment)> {
    let registry = experiments::registry();
    SUBSET
        .iter()
        .map(|w| {
            *registry
                .iter()
                .find(|(id, _)| id == w)
                .unwrap_or_else(|| panic!("registry lost {w}"))
        })
        .collect()
}

/// Per-experiment `(<id>.jsonl, <id>.trace.json)` bytes of one observed
/// campaign over the subset, in subset order.
fn renders(name: &str, jobs: usize) -> Vec<(String, String)> {
    let obs = std::env::temp_dir().join(format!(
        "fiveg-telemetry-plane-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&obs);
    let spec = CampaignSpec {
        entries: subset(),
        jobs,
        obs: Some(obs.clone()),
        ..CampaignSpec::default()
    };
    campaign::run(&spec, |_| {}).expect("campaign writes its export");
    let read = |file: String| {
        std::fs::read_to_string(obs.join(&file)).unwrap_or_else(|e| panic!("{file}: {e}"))
    };
    let renders = SUBSET
        .iter()
        .map(|id| {
            (
                read(format!("{id}.jsonl")),
                read(format!("{id}.trace.json")),
            )
        })
        .collect();
    let _ = std::fs::remove_dir_all(&obs);
    renders
}

/// The serial observed run, shared by both tests (the subset is expensive
/// in debug builds; the campaigns it is compared against are what each
/// test re-runs).
fn serial() -> &'static [(String, String)] {
    static RUN: OnceLock<Vec<(String, String)>> = OnceLock::new();
    RUN.get_or_init(|| renders("serial", 1))
}

#[test]
fn telemetry_renders_are_deterministic_across_identical_runs() {
    let a = serial();
    let b = renders("rerun", 1);
    assert!(a == b.as_slice(), "same campaign, same bytes");
    assert!(
        a.iter().all(|(jsonl, _)| !jsonl.is_empty()),
        "every instrumented experiment drains events"
    );
}

#[test]
fn telemetry_renders_are_identical_serial_vs_jobs_4() {
    let serial = serial();
    let parallel = renders("jobs4", 4);
    assert!(
        serial == parallel.as_slice(),
        "worker count must not leak into sim-time data"
    );
}
