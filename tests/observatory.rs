//! The observatory's campaign-level promises, end to end:
//!
//! 1. **Catalog lint** — every metric name emitted anywhere in the
//!    workspace is registered in `telemetry::CATALOG` under the right
//!    kind, no call site uses a dynamic (unlintable) name, and every
//!    catalog entry is actually emitted somewhere (no metric rot in
//!    either direction).
//! 2. **Byte identity** — `metrics.json`, `observatory.txt`, and the
//!    folded flamegraph stacks are pure functions of sim-time telemetry:
//!    serial and `--jobs 4` campaigns produce identical bytes.
//! 3. **Diff discipline** — the drift report of a campaign against itself
//!    is empty; an injected regression is flagged at FAIL grade.

use fiveg_bench::experiments::{self, Experiment};
use fiveg_bench::json::Json;
use fiveg_bench::observe;
use fiveg_bench::runner::{RunOutcome, Supervisor};
use fiveg_wild::simcore::telemetry::{registered, AttemptTelemetry, MetricKind, CATALOG};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::OnceLock;

/// A cheap four-layer subset (see `telemetry_plane.rs`): radio, RRC,
/// transport, video.
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

fn run(jobs: usize) -> Vec<RunOutcome> {
    let supervisor = Supervisor {
        telemetry: true,
        ..Supervisor::default()
    };
    supervisor.run_registry_jobs(&subset(), 2021, jobs, |_, _| {})
}

fn per_experiment(outcomes: &[RunOutcome]) -> Vec<(String, AttemptTelemetry)> {
    outcomes
        .iter()
        .map(|o| (o.id.to_string(), o.telemetry.clone().unwrap_or_default()))
        .collect()
}

/// The serial instrumented run, shared across tests (expensive in debug).
fn serial() -> &'static [RunOutcome] {
    static RUN: OnceLock<Vec<RunOutcome>> = OnceLock::new();
    RUN.get_or_init(|| run(1))
}

/// Every observatory artifact of one campaign, as
/// `(metrics.json, observatory.txt, per-experiment folded, campaign folded)`.
fn artifacts(outcomes: &[RunOutcome]) -> (String, String, Vec<String>, String) {
    let per = per_experiment(outcomes);
    let metrics = observe::campaign_metrics(2021, None, &per).render();
    let txt = observe::observatory_txt(2021, None, &per);
    let mut campaign = std::collections::BTreeMap::new();
    let mut folded = Vec::new();
    for (_, t) in &per {
        let map = observe::folded_map(t);
        folded.push(observe::render_folded(&map));
        observe::merge_folded(&mut campaign, &map);
    }
    (metrics, txt, folded, observe::render_folded(&campaign))
}

#[test]
fn every_emitted_metric_name_is_registered_and_vice_versa() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let calls = observe::scan_dir(&root).expect("scan crates/*/src");
    assert!(
        calls.len() >= 30,
        "scanner found only {} call sites — did the source layout move?",
        calls.len()
    );
    let mut problems = Vec::new();
    let mut emitted: BTreeSet<(String, &'static str)> = BTreeSet::new();
    for c in &calls {
        let Some(name) = &c.name else {
            problems.push(format!(
                "{}:{}: dynamic metric name (hook {}) — the catalog lint \
                 cannot check it; use one literal call per name",
                c.file,
                c.line,
                c.kind.as_str()
            ));
            continue;
        };
        // `test/` names are the sanctioned scratch space of unit tests.
        if name.starts_with("test/") {
            continue;
        }
        emitted.insert((name.clone(), c.kind.as_str()));
        if registered(name, c.kind).is_none() {
            problems.push(format!(
                "{}:{}: `{name}` ({}) is not in telemetry::CATALOG",
                c.file,
                c.line,
                c.kind.as_str()
            ));
        }
    }
    for def in CATALOG {
        if !emitted.contains(&(def.name.to_string(), def.kind.as_str())) {
            problems.push(format!(
                "CATALOG entry `{}` ({}) is emitted nowhere — dead metric",
                def.name,
                def.kind.as_str()
            ));
        }
    }
    assert!(
        problems.is_empty(),
        "catalog lint:\n{}",
        problems.join("\n")
    );
}

#[test]
fn catalog_lint_fails_on_an_unregistered_name() {
    // The mechanism the lint rests on: an unregistered literal and a
    // dynamic name must both be rejected exactly as the real scan would.
    let src = "telemetry::count(\"no/such/counter\", 1); telemetry::gauge(dynamic, 0.0);";
    let calls = observe::scan_metric_calls(src, "synthetic.rs");
    assert_eq!(calls.len(), 2);
    assert_eq!(calls[0].name.as_deref(), Some("no/such/counter"));
    assert!(
        registered("no/such/counter", MetricKind::Counter).is_none(),
        "an unregistered name must not resolve"
    );
    assert_eq!(calls[1].name, None, "dynamic names surface as None");
}

#[test]
fn observatory_artifacts_are_byte_identical_serial_vs_jobs_4() {
    let a = artifacts(serial());
    let b = artifacts(&run(4));
    assert_eq!(a.0, b.0, "metrics.json must not depend on worker count");
    assert_eq!(a.1, b.1, "observatory.txt must not depend on worker count");
    assert_eq!(a.2, b.2, "folded stacks must not depend on worker count");
    assert_eq!(a.3, b.3, "campaign.folded must not depend on worker count");
}

#[test]
fn observatory_artifacts_are_deterministic_across_reruns() {
    assert_eq!(artifacts(serial()), artifacts(&run(1)));
}

#[test]
fn campaign_metrics_cover_the_four_layers_with_catalog_annotations() {
    let per = per_experiment(serial());
    let doc = observe::campaign_metrics(2021, None, &per);
    let layers: BTreeSet<&str> = doc
        .get("layers")
        .and_then(Json::as_arr)
        .expect("layers")
        .iter()
        .filter_map(|l| l.get("layer").and_then(Json::as_str))
        .collect();
    for expected in ["radio", "rrc", "transport", "video"] {
        assert!(
            layers.contains(expected),
            "missing layer {expected}: {layers:?}"
        );
    }
    assert!(
        !layers.contains("?"),
        "unregistered names leaked: {layers:?}"
    );
    // The series plane made it end to end: the radio RSRP series has
    // samples and a catalog unit.
    let series = doc.get("series").and_then(Json::as_arr).expect("series");
    let rsrp = series
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("radio/rsrp_dbm_t"))
        .expect("radio/rsrp_dbm_t series");
    assert_eq!(rsrp.get("unit").and_then(Json::as_str), Some("dBm"));
    assert!(rsrp.get("samples").and_then(Json::as_f64).unwrap_or(0.0) > 0.0);
}

#[test]
fn flamegraph_stacks_nest_and_merge() {
    let (_, _, folded, campaign) = artifacts(serial());
    assert!(
        folded.iter().any(|f| !f.is_empty()),
        "at least one experiment produced stacks"
    );
    assert!(
        campaign.lines().any(|l| l.starts_with("radio/drive ")),
        "campaign.folded misses the radio drive root: {campaign}"
    );
    // Every line is `stack<space>positive-integer`.
    for line in campaign.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("stack count");
        assert!(!stack.is_empty());
        assert!(count.parse::<u64>().expect("integer self-µs") > 0);
    }
}

#[test]
fn self_diff_is_empty_and_injected_drift_is_flagged() {
    let per = per_experiment(serial());
    let doc = observe::campaign_metrics(2021, None, &per);
    let same = observe::diff_metrics(&doc, &doc);
    assert_eq!(
        (same.warns, same.fails),
        (0, 0),
        "self-diff must be clean:\n{}",
        same.report
    );
    assert!(same.compared > 0, "self-diff compared nothing");

    // Inject a regression: drop one experiment's telemetry entirely (the
    // shape of a silently-broken instrumentation change).
    let mut broken = per.clone();
    broken[0].1 = AttemptTelemetry::default();
    let cur = observe::campaign_metrics(2021, None, &broken);
    let drift = observe::diff_metrics(&doc, &cur);
    assert!(
        drift.fails > 0,
        "a gutted experiment must FAIL the diff:\n{}",
        drift.report
    );
}
