//! The campaign export's promises, end to end, through `campaign::run`
//! with `obs` set — the code `figures --obs` runs:
//!
//! 1. **Catalog lint** — every metric name emitted anywhere in the
//!    workspace is registered in `telemetry::CATALOG` under the right
//!    kind, no call site uses a dynamic (unlintable) name, and every
//!    catalog entry is actually emitted somewhere (no metric rot in
//!    either direction).
//! 2. **Byte identity** — the whole export directory (`<id>.jsonl`,
//!    `<id>.trace.json`, `<id>.folded`, `campaign.folded`, `metrics.json`,
//!    `observatory.txt`) is a pure function of sim-time telemetry: a rerun
//!    and a `--jobs 4` campaign write identical bytes.
//! 3. **Off means invisible** — a campaign without `obs` never installs
//!    the collector, captures nothing, and writes the same manifest and
//!    reports as the observed one.
//! 4. **Coverage** — the subset's spans cross the radio, RRC, transport
//!    and video layers.
//! 5. **Diff discipline** — the drift report of a campaign against itself
//!    is empty; an injected regression is flagged at FAIL grade.

use fiveg_bench::campaign::{self, CampaignOutcome, CampaignSpec};
use fiveg_bench::experiments::{self, Experiment};
use fiveg_bench::json::Json;
use fiveg_bench::observe;
use fiveg_wild::simcore::telemetry::{registered, AttemptTelemetry, MetricKind, CATALOG};
use std::collections::BTreeSet;
use std::path::Path;
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

/// Every file of a directory as `(name, bytes)`, name-sorted.
type Files = Vec<(String, Vec<u8>)>;

/// One campaign over the subset: its outcome, and the files it wrote under
/// `out` and (when observed) `obs`.
struct Run {
    outcome: CampaignOutcome,
    out: Files,
    obs: Files,
}

fn files(dir: &Path) -> Files {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Files::new();
    };
    let mut files: Files = entries
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).expect("read artifact"))
        })
        .collect();
    files.sort();
    files
}

fn run(name: &str, jobs: usize, observed: bool) -> Run {
    let root =
        std::env::temp_dir().join(format!("fiveg-observatory-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spec = CampaignSpec {
        entries: subset(),
        jobs,
        out: Some(root.join("out")),
        obs: observed.then(|| root.join("obs")),
        ..CampaignSpec::default()
    };
    let outcome = campaign::run(&spec, |_| {}).expect("campaign writes its artifacts");
    let run = Run {
        outcome,
        out: files(&root.join("out")),
        obs: files(&root.join("obs")),
    };
    let _ = std::fs::remove_dir_all(&root);
    run
}

/// The serial observed campaign, shared across tests (expensive in debug).
fn serial() -> &'static Run {
    static RUN: OnceLock<Run> = OnceLock::new();
    RUN.get_or_init(|| run("serial", 1, true))
}

/// The serial campaign without `obs`, shared likewise.
fn unobserved() -> &'static Run {
    static RUN: OnceLock<Run> = OnceLock::new();
    RUN.get_or_init(|| run("unobserved", 1, false))
}

fn file<'a>(files: &'a Files, name: &str) -> &'a str {
    let (_, bytes) = files
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("{name} not written"));
    std::str::from_utf8(bytes).expect("utf-8 artifact")
}

fn per_experiment(outcome: &CampaignOutcome) -> Vec<(String, AttemptTelemetry)> {
    outcome
        .outcomes
        .iter()
        .map(|o| (o.id.to_string(), o.telemetry.clone().unwrap_or_default()))
        .collect()
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
    let (a, b) = (serial(), run("jobs4", 4, true));
    let names = |files: &Files| files.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    let mut expected: Vec<String> = ["campaign.folded", "metrics.json", "observatory.txt"]
        .map(String::from)
        .to_vec();
    for id in SUBSET {
        expected.extend([
            format!("{id}.folded"),
            format!("{id}.jsonl"),
            format!("{id}.trace.json"),
        ]);
    }
    expected.sort();
    assert_eq!(
        names(&a.obs),
        expected,
        "the export writes exactly these files"
    );
    assert!(
        a.obs == b.obs,
        "the export must not depend on worker count: {:?} vs {:?}",
        names(&a.obs),
        names(&b.obs)
    );
    assert!(
        a.out == b.out,
        "reports and manifest must not depend on worker count"
    );
}

#[test]
fn observatory_artifacts_are_deterministic_across_reruns() {
    let (a, b) = (serial(), run("rerun", 1, true));
    assert!(a.obs == b.obs, "same campaign, same export bytes");
    for id in SUBSET {
        assert!(
            !file(&a.obs, &format!("{id}.jsonl")).is_empty(),
            "every instrumented experiment drains events"
        );
    }
}

#[test]
fn manifest_is_byte_identical_with_the_plane_off_and_on() {
    assert!(
        unobserved().out == serial().out,
        "observing the campaign must change neither the manifest nor the reports"
    );
    assert!(unobserved().obs.is_empty(), "no export without obs");
}

#[test]
fn untelemetered_supervisor_yields_no_capture() {
    for outcome in &unobserved().outcome.outcomes {
        assert!(
            outcome.telemetry.is_none(),
            "{} captured telemetry",
            outcome.id
        );
    }
}

#[test]
fn campaign_spans_cover_radio_rrc_transport_and_video() {
    let mut total = AttemptTelemetry::default();
    for (_, t) in per_experiment(&serial().outcome) {
        total.merge_aggregates(&t);
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
fn campaign_metrics_cover_the_four_layers_with_catalog_annotations() {
    let doc = Json::parse(file(&serial().obs, "metrics.json")).expect("metrics.json parses");
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
    let obs = &serial().obs;
    assert!(
        SUBSET
            .iter()
            .any(|id| !file(obs, &format!("{id}.folded")).is_empty()),
        "at least one experiment produced stacks"
    );
    let campaign = file(obs, "campaign.folded");
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
    let doc = Json::parse(file(&serial().obs, "metrics.json")).expect("metrics.json parses");
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
    let mut broken = per_experiment(&serial().outcome);
    broken[0].1 = AttemptTelemetry::default();
    let cur = observe::campaign_metrics(2021, None, &broken);
    let drift = observe::diff_metrics(&doc, &cur);
    assert!(
        drift.fails > 0,
        "a gutted experiment must FAIL the diff:\n{}",
        drift.report
    );
}
