//! Integration tests for the intra-experiment sharding plane: the
//! contract is that sharding is a *scheduling* decision, never a
//! *semantics* decision. Concretely:
//!
//! 1. a sharded experiment's merged outcome is byte-identical whether the
//!    shards run in order, out of order, in line inside one registry slot
//!    (`run_one`), or fanned out to a `--jobs 4` pool;
//! 2. each shard's ambient fault world is a pure function of
//!    `(attempt seed, experiment id, shard index)` — re-running a shard
//!    reproduces it exactly, and sibling shards get *distinct* worlds;
//! 3. shard-level failures keep the monolithic runner's vocabulary:
//!    retries re-run only the failing shard (note prefixed
//!    `shard i/n:`), interrupts win over degradation in the merge, and a
//!    post-interrupt re-run is byte-identical to a never-interrupted one;
//! 4. per-shard telemetry merges in shard order with span ids re-based,
//!    and the plane never touches the deterministic artifacts;
//! 5. budget exhaustion kills a sharded experiment deterministically
//!    (no wall-clock dependence) and mlkit/walking charges are visible in
//!    the shard's event count.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use fiveg_bench::experiments::{self, Experiment};
use fiveg_bench::runner::{
    manifest_from_entries, ManifestEntry, RunOutcome, RunStatus, ShardRun, Supervisor,
};
use fiveg_bench::shard::ShardableExperiment;
use fiveg_wild::mlkit::dataset::Dataset;
use fiveg_wild::mlkit::tree::{DecisionTreeRegressor, TreeConfig};
use fiveg_wild::simcore::faults::{self, FaultKind, FaultScenario};
use fiveg_wild::simcore::telemetry::{self, SpanPhase};

const SEED: u64 = 2021;

/// Fetches one real experiment from the registry by id.
fn registry_entry(wanted: &str) -> (&'static str, Experiment) {
    *experiments::registry()
        .iter()
        .find(|(id, _)| *id == wanted)
        .unwrap_or_else(|| panic!("registry lost {wanted}"))
}

// ---------------------------------------------------------------------------
// Synthetic shard bodies (module-level fns so they coerce to the
// `ShardableExperiment` fn pointers).
// ---------------------------------------------------------------------------

/// Deterministic shard body: a fixed function of `(seed, shard)`.
fn plain_shard(seed: u64, shard: usize) -> Vec<f64> {
    vec![seed as f64 * 0.5 + shard as f64, (shard * shard) as f64]
}

/// Order-fixed reducer: formats every shard's values in shard order.
fn plain_merge(seed: u64, parts: &[Vec<f64>]) -> fiveg_bench::report::Report {
    let body = parts
        .iter()
        .enumerate()
        .map(|(i, vals)| format!("shard {i}: {vals:?}\n"))
        .collect::<String>();
    fiveg_bench::report::Report {
        id: "synthetic",
        title: format!("synthetic sharded experiment (seed {seed})"),
        body,
    }
}

static FLAKY_CALLS: AtomicUsize = AtomicUsize::new(0);

/// Panics on its first-ever shard-1 call, then behaves like `plain_shard`.
/// Exercises the per-shard retry loop: only the failing shard re-runs.
fn flaky_shard(seed: u64, shard: usize) -> Vec<f64> {
    if shard == 1 && FLAKY_CALLS.fetch_add(1, Ordering::SeqCst) == 0 {
        panic!("synthetic shard fault");
    }
    plain_shard(seed, shard)
}

/// Fingerprints the ambient fault plane: which kinds fire when over a
/// fixed probe grid. Two runs under the same plane seed must agree
/// exactly; sibling shards (distinct plane seeds) must not.
fn fault_probe_shard(_seed: u64, shard: usize) -> Vec<f64> {
    let kinds = [
        FaultKind::BlockageStorm,
        FaultKind::StallWindow,
        FaultKind::CellOutage,
        FaultKind::AnchorLoss,
    ];
    let mut out = vec![shard as f64];
    for kind in kinds {
        let mut active = 0u32;
        let mut first = -1.0f64;
        for i in 0..4000 {
            let t = i as f64 * 0.25;
            if faults::is_active(kind, t) {
                active += 1;
                if first < 0.0 {
                    first = t;
                }
            }
        }
        out.push(f64::from(active));
        out.push(first);
    }
    out
}

/// Emits telemetry spans and counters so the merge path has something to
/// re-base: one `shard/work` span and `shard+1` ticks per shard.
fn telemetry_shard(_seed: u64, shard: usize) -> Vec<f64> {
    telemetry::clock(0.0);
    telemetry::span_closed("shard/work", 0.0, 1.0 + shard as f64);
    telemetry::count("shard/ticks", shard as u64 + 1);
    vec![shard as f64]
}

/// Fits a small decision tree so the shard's event count reflects the
/// mlkit training charges (satellite: `budget::charge` in mlkit).
fn mlkit_shard(seed: u64, shard: usize) -> Vec<f64> {
    let mut data = Dataset::new(vec!["x".into(), "y".into()], vec![], vec![]);
    for i in 0..200 {
        let x = (i as f64 + shard as f64) * 0.1;
        data.push(vec![x, x * x], (seed % 7) as f64 + x.sin());
    }
    let model = DecisionTreeRegressor::fit(&data, &TreeConfig::default());
    vec![model.predict_all(&data)[0]]
}

fn synthetic_spec(run: fn(u64, usize) -> Vec<f64>, shards: usize) -> ShardableExperiment {
    ShardableExperiment {
        id: "synthetic",
        shards,
        run,
        merge: plain_merge,
    }
}

// ---------------------------------------------------------------------------
// 1. Scheduling independence.
// ---------------------------------------------------------------------------

/// `run_sharded` must equal a manual out-of-order shard walk followed by
/// the same merge: shard runs are independent of execution order, so any
/// scheduler that reassembles shards in index order gets the same bytes.
#[test]
fn sharded_run_equals_out_of_order_manual_merge() {
    let sup = Supervisor::default();
    let spec = synthetic_spec(plain_shard, 3);

    let reference = sup.run_sharded(&spec, SEED);
    assert_eq!(reference.status, RunStatus::Ok);

    // Run the shards in a scrambled order, then hand them to the merge in
    // shard order (the pooled scheduler's reassembly step).
    let mut runs: Vec<ShardRun> = [2usize, 0, 1]
        .iter()
        .map(|&s| sup.run_shard(&spec, SEED, s))
        .collect();
    runs.sort_by_key(|r| r.shard);
    let manual = sup.merge_shard_runs(&spec, SEED, runs);

    assert_eq!(manual.status, reference.status);
    assert_eq!(manual.attempts, reference.attempts);
    assert_eq!(manual.events, reference.events);
    assert_eq!(manual.report.render(), reference.report.render());
}

/// The real sharded experiments must produce byte-identical manifests
/// serially, on a `--jobs 4` pool (where shards fan out as independent
/// work units), and with the shards run in line by `run_one`.
#[test]
fn real_experiment_bytes_survive_pool_and_in_line_shards() {
    let entries = vec![registry_entry("fig18c")];
    let render = |outcomes: Vec<RunOutcome>| {
        assert_eq!(outcomes[0].status, RunStatus::Ok, "{:?}", outcomes[0].note);
        let rows: Vec<ManifestEntry> = outcomes.iter().map(ManifestEntry::from_outcome).collect();
        (
            manifest_from_entries(&rows, SEED, None).render(),
            outcomes[0].report.render(),
            outcomes[0].events,
        )
    };

    let sup = Supervisor::default();
    let serial = render(sup.run_registry_jobs(&entries, SEED, 1, |_, _| {}));
    let pooled = render(sup.run_registry_jobs(&entries, SEED, 4, |_, _| {}));
    let (id, f) = entries[0];
    let in_line = render(vec![sup.run_one(id, f, SEED)]);

    assert_eq!(serial, pooled, "pool fan-out changed the bytes");
    assert_eq!(serial, in_line, "in-line shards changed the bytes");
    assert!(serial.2 > 0, "sharded experiment must charge budget events");
}

// ---------------------------------------------------------------------------
// 2. Pure per-shard plane derivation.
// ---------------------------------------------------------------------------

/// Under a chaos scenario, the same shard re-run twice sees the exact
/// same fault world (pure `(attempt seed, id, shard)` derivation — no
/// scheduling state leaks in), while sibling shards see distinct worlds.
#[test]
fn shard_fault_worlds_are_pure_and_distinct() {
    let sup = Supervisor {
        scenario: Some(FaultScenario::by_name("chaos").expect("chaos scenario")),
        ..Supervisor::default()
    };
    let spec = synthetic_spec(fault_probe_shard, 3);

    let shard0_a = sup.run_shard(&spec, SEED, 0);
    let shard0_b = sup.run_shard(&spec, SEED, 0);
    let shard1 = sup.run_shard(&spec, SEED, 1);
    assert_eq!(shard0_a.status, RunStatus::Ok);
    assert_eq!(
        shard0_a.values, shard0_b.values,
        "same shard, same seed must reproduce the same fault world"
    );
    assert_ne!(
        shard0_a.values[1..],
        shard1.values[1..],
        "sibling shards must get distinct fault worlds"
    );

    // The probes must actually have observed faults, or the distinctness
    // assertion above is vacuous.
    assert!(
        shard0_a.values[1..].iter().any(|&v| v > 0.0),
        "chaos scenario produced no observable faults: {:?}",
        shard0_a.values
    );
}

// ---------------------------------------------------------------------------
// 3. Failure vocabulary: retries, interrupts, merge precedence.
// ---------------------------------------------------------------------------

/// A shard that fails once retries alone; the merged outcome stays `Ok`
/// and carries the failing shard's note under a `shard i/n:` prefix.
#[test]
fn shard_retry_prefixes_note_and_recovers() {
    FLAKY_CALLS.store(0, Ordering::SeqCst);
    let sup = Supervisor::default();
    let spec = synthetic_spec(flaky_shard, 3);

    let outcome = sup.run_sharded(&spec, SEED);
    assert_eq!(outcome.status, RunStatus::Ok);
    assert_eq!(outcome.attempts, 2, "only the flaky shard should retry");
    let note = outcome
        .note
        .as_deref()
        .expect("retried shard leaves a note");
    assert!(note.starts_with("shard 1/3:"), "note: {note}");
    assert!(note.contains("synthetic shard fault"), "note: {note}");

    // Only the flaky shard re-derives its seed: shards 0 and 2 carry
    // attempt-0 values, shard 1 the attempt-1 values. The merged report
    // must equal the reducer applied to exactly that mix.
    let s0 = sup.attempt_seed("synthetic", SEED, 0);
    let s1 = sup.attempt_seed("synthetic", SEED, 1);
    let expected = plain_merge(
        SEED,
        &[plain_shard(s0, 0), plain_shard(s1, 1), plain_shard(s0, 2)],
    );
    assert_eq!(outcome.report.render(), expected.render());
}

/// An interrupt observed mid-experiment marks the run `Interrupted`; the
/// merge gives interrupts precedence over degraded shards; and a fresh
/// run after the flag clears is byte-identical to never having been
/// interrupted.
#[test]
fn interrupt_wins_merge_precedence_and_resume_is_byte_identical() {
    let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let sup = Supervisor {
        interrupt: Some(flag),
        ..Supervisor::default()
    };
    let spec = synthetic_spec(plain_shard, 3);

    let reference = sup.run_sharded(&spec, SEED);
    assert_eq!(reference.status, RunStatus::Ok);

    flag.store(true, Ordering::SeqCst);
    let interrupted = sup.run_sharded(&spec, SEED);
    assert!(interrupted.interrupted());
    assert_eq!(interrupted.events, 0);

    flag.store(false, Ordering::SeqCst);
    let resumed = sup.run_sharded(&spec, SEED);
    assert_eq!(
        resumed.report.render(),
        reference.report.render(),
        "post-interrupt re-run must be byte-identical"
    );

    // Merge precedence: one Ok, one Degraded, one Interrupted shard must
    // merge to Interrupted (the campaign was stopped; degradation is
    // not this run's verdict).
    let ok = sup.run_shard(&spec, SEED, 0);
    let degraded = ShardRun {
        shard: 1,
        status: RunStatus::Degraded,
        attempts: 2,
        note: Some("synthetic degradation".into()),
        values: Vec::new(),
        recovery: Vec::new(),
        wall_s: 0.0,
        events: 0,
        telemetry: None,
        guards: Default::default(),
    };
    let mut cut = degraded.clone();
    cut.shard = 2;
    cut.status = RunStatus::Interrupted;
    cut.note = Some("interrupted before start".into());
    let merged = sup.merge_shard_runs(&spec, SEED, vec![ok, degraded, cut]);
    assert!(merged.interrupted());
    let note = merged.note.as_deref().unwrap_or_default();
    assert!(note.starts_with("shard 2/3:"), "note: {note}");
}

// ---------------------------------------------------------------------------
// 4. Telemetry merge.
// ---------------------------------------------------------------------------

/// Per-shard telemetry concatenates in shard order with span ids re-based
/// to stay unique, aggregates merge, and turning the plane on does not
/// change the deterministic artifact.
#[test]
fn telemetry_merges_in_shard_order_with_rebased_ids() {
    let shards = 3usize;
    let spec = synthetic_spec(telemetry_shard, shards);
    let sup = Supervisor {
        telemetry: true,
        ..Supervisor::default()
    };

    let outcome = sup.run_sharded(&spec, SEED);
    assert_eq!(outcome.status, RunStatus::Ok);
    let telemetry = outcome.telemetry.as_ref().expect("telemetry plane on");

    let (_, work) = telemetry
        .spans
        .iter()
        .find(|(name, _)| *name == "shard/work")
        .expect("merged span aggregate");
    assert_eq!(work.count, shards as u64);
    // Shard i's span lasts 1 + i simulated seconds: 1 + 2 + 3.
    assert!((work.total_s - 6.0).abs() < 1e-9, "{}", work.total_s);

    let (_, ticks) = telemetry
        .counters
        .iter()
        .find(|(name, _)| *name == "shard/ticks")
        .expect("merged counter");
    assert_eq!(*ticks, 1 + 2 + 3);

    // Enter edges must keep unique ids after the re-base.
    let mut enter_ids: Vec<u64> = telemetry
        .events
        .iter()
        .filter(|ev| ev.phase == SpanPhase::Enter)
        .map(|ev| ev.id)
        .collect();
    assert_eq!(enter_ids.len(), shards);
    enter_ids.sort_unstable();
    enter_ids.dedup();
    assert_eq!(enter_ids.len(), shards, "span ids collided across shards");

    // The plane is observational: same bytes with it off.
    let plain = Supervisor::default().run_sharded(&spec, SEED);
    assert!(plain.telemetry.is_none());
    assert_eq!(plain.report.render(), outcome.report.render());
}

// ---------------------------------------------------------------------------
// 5. Budget accounting and deterministic kill.
// ---------------------------------------------------------------------------

/// mlkit training charges must surface in the shard's event count — the
/// budget plane sees model fitting, not just simulation ticks.
#[test]
fn mlkit_training_charges_shard_budget_events() {
    let sup = Supervisor::default();
    let run = sup.run_shard(&synthetic_spec(mlkit_shard, 2), SEED, 0);
    assert_eq!(run.status, RunStatus::Ok, "{:?}", run.note);
    assert!(run.events > 0, "tree fit charged no budget events");
}

/// A starved event budget must kill fig15 (the longest experiment)
/// deterministically: every shard degrades with the budget-exhausted
/// note, and the merged verdict is `Degraded` with a shard prefix. This
/// is the wall-time barrier the sharding layer exists to bound — no
/// experiment, however long, can run away from the supervisor.
#[test]
fn starved_budget_kills_fig15_deterministically() {
    let (id, f) = registry_entry("fig15");
    let sup = Supervisor {
        event_budget: 20_000,
        retries: 0,
        ..Supervisor::default()
    };

    let outcome = sup.run_one(id, f, SEED);
    assert_eq!(outcome.status, RunStatus::Degraded);
    assert_eq!(outcome.events, 0);
    let note = outcome.note.as_deref().unwrap_or_default();
    assert!(note.starts_with("shard "), "note: {note}");
    assert!(note.contains("budget"), "note: {note}");

    // Deterministic: the same starved run reports the same note.
    let again = sup.run_one(id, f, SEED);
    assert_eq!(again.note, outcome.note);
}
