//! One end-to-end pass: what `figures --jobs 2 [--chaos chaos --obs DIR]
//! --out DIR <ids>` runs, driven through the library's public API — the
//! supervised runner with shard fan-out, one artifact per experiment, the
//! manifest rewritten after every experiment, and the observatory export
//! when `--obs` is on. (`figures`' resilience table under chaos is left
//! out: it is rendered in the binary, not the library, and only the chaos
//! probe, which does not time the pass, arms the fault plane.)

use crate::workload::{Workload, CHAOS_SCENARIO, JOBS};
use fiveg_bench::experiments::{self, Experiment};
use fiveg_bench::runner::{self, ManifestEntry, RunOutcome, Supervisor};
use fiveg_bench::{observe, shard};
use fiveg_simcore::faults::FaultScenario;
use fiveg_simcore::telemetry::AttemptTelemetry;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Seconds since the Unix epoch: the one clock the orchestrator (another
/// process) can compare with.
pub fn epoch_s() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

/// This process's peak resident set (`VmHWM`), in KiB; 0 where the kernel
/// does not report it. Read in-process because a parent's `wait4` figure
/// can carry the parent's own resident set over the spawn.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The campaign as planned before its first unit starts.
pub struct Plan {
    pub entries: Vec<(&'static str, Experiment)>,
    pub supervisor: Supervisor,
    /// Work units: one per whole experiment, one per shard.
    pub units: usize,
}

/// Argument resolution, registry lookup, supervisor configuration and the
/// shard plan: everything `figures` does before the pool claims a unit.
pub fn plan(w: &Workload) -> Result<Plan, String> {
    let registry = experiments::registry();
    let entries = w
        .ids
        .iter()
        .map(|id| {
            registry
                .iter()
                .find(|(rid, _)| rid == id)
                .copied()
                .ok_or_else(|| format!("unknown experiment: {id}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut supervisor = if w.chaos {
        let sc = FaultScenario::by_name(CHAOS_SCENARIO)
            .ok_or_else(|| format!("unknown scenario: {CHAOS_SCENARIO}"))?;
        Supervisor::with_scenario(sc)
    } else {
        Supervisor::default()
    };
    // `--obs` turns the per-attempt telemetry collector on.
    supervisor.telemetry = w.chaos;
    supervisor.interrupt = Some(fiveg_bench::signal::install());
    let units = entries
        .iter()
        .map(|(id, _)| shard::find(id).map_or(1, |s| s.shards))
        .sum();
    Ok(Plan {
        entries,
        supervisor,
        units,
    })
}

/// What one pass did, for the orchestrator's exact-count checks.
pub struct PassResult {
    pub outcomes: Vec<RunOutcome>,
    pub worker_busy_s: Vec<f64>,
    pub wall_s: f64,
    /// Wall of the observatory export (0 without `--obs`).
    pub observe_s: f64,
}

impl PassResult {
    pub fn degraded(&self) -> usize {
        self.outcomes.iter().filter(|o| o.degraded()).count()
    }
    pub fn interrupted(&self) -> usize {
        self.outcomes.iter().filter(|o| o.interrupted()).count()
    }
    pub fn events(&self) -> u64 {
        self.outcomes.iter().map(|o| o.events).sum()
    }
    pub fn recovery_events(&self) -> usize {
        self.outcomes.iter().map(|o| o.recovery.len()).sum()
    }
    pub fn attempts(&self) -> u64 {
        self.outcomes.iter().map(|o| u64::from(o.attempts)).sum()
    }
    pub fn violations(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.guards.violation_count())
            .sum()
    }
}

fn write(path: &Path, contents: &str) -> Result<(), String> {
    runner::write_atomic(path, contents)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Runs the planned campaign into `out` (and the observatory into `obs`),
/// printing each report to stdout as `figures` does.
pub fn run(
    w: &Workload,
    p: &Plan,
    seed: u64,
    out: &Path,
    obs: Option<&Path>,
) -> Result<PassResult, String> {
    let scenario = w.chaos.then_some(CHAOS_SCENARIO);
    let t0 = Instant::now();
    let slots: Mutex<Vec<Option<ManifestEntry>>> = Mutex::new(vec![None; p.entries.len()]);
    let failed_write: Mutex<Option<String>> = Mutex::new(None);
    let (outcome_slots, worker_busy_s) =
        p.supervisor
            .run_registry_jobs_partial(&p.entries, seed, JOBS, |i, outcome| {
                let mut slots = slots.lock().expect("slots lock");
                let mut result = Ok(());
                if !outcome.interrupted() {
                    let text = outcome.report.render();
                    println!("{text}");
                    result = write(&out.join(format!("{}.txt", outcome.id)), &text);
                }
                slots[i] = Some(ManifestEntry::from_outcome(outcome));
                let done: Vec<ManifestEntry> = slots.iter().flatten().cloned().collect();
                let manifest = runner::manifest_from_entries(&done, seed, scenario);
                let result = result.and(write(&out.join("manifest.json"), &manifest.render()));
                if let Err(e) = result {
                    failed_write.lock().expect("write lock").get_or_insert(e);
                }
            });
    if let Some(e) = failed_write.into_inner().expect("write lock") {
        return Err(e);
    }
    let outcomes: Vec<RunOutcome> = outcome_slots.into_iter().flatten().collect();
    if outcomes.len() != p.entries.len() {
        return Err("campaign interrupted".to_string());
    }
    let mut observe_s = 0.0;
    if let Some(dir) = obs {
        let t_obs = Instant::now();
        export_observatory(dir, seed, scenario, &outcomes)?;
        observe_s = t_obs.elapsed().as_secs_f64();
    }
    Ok(PassResult {
        outcomes,
        worker_busy_s,
        wall_s: t0.elapsed().as_secs_f64(),
        observe_s,
    })
}

/// The `--obs DIR` export: `metrics.json`, `observatory.txt` and the
/// collapsed stacks, as `figures` writes them.
fn export_observatory(
    dir: &Path,
    seed: u64,
    scenario: Option<&str>,
    outcomes: &[RunOutcome],
) -> Result<(), String> {
    let per: Vec<(String, AttemptTelemetry)> = outcomes
        .iter()
        .map(|o| (o.id.to_string(), o.telemetry.clone().unwrap_or_default()))
        .collect();
    let metrics = observe::campaign_metrics(seed, scenario, &per);
    write(&dir.join("metrics.json"), &metrics.render())?;
    write(
        &dir.join("observatory.txt"),
        &observe::observatory_txt(seed, scenario, &per),
    )?;
    let mut campaign: BTreeMap<String, u64> = BTreeMap::new();
    for (id, telem) in &per {
        let map = observe::folded_map(telem);
        write(
            &dir.join(format!("{id}.folded")),
            &observe::render_folded(&map),
        )?;
        observe::merge_folded(&mut campaign, &map);
    }
    write(
        &dir.join("campaign.folded"),
        &observe::render_folded(&campaign),
    )
}
