//! The campaign: one supervised run of a list of registry experiments, with
//! its artifacts on disk. The `figures` binary is a command line over
//! [`run`]; tests call it to exercise the same resume, manifest and export
//! code.
//!
//! The contract [`run`] keeps:
//!
//! * **Supervised.** Every experiment runs under the [`Supervisor`]: a
//!   panic, runaway loop or blown deadline in one experiment yields a
//!   `DEGRADED` report for it and the campaign continues. With a fault
//!   scenario on the supervisor, every attempt installs it and a complete
//!   campaign ends with a resilience table (recovery actions, outage and
//!   rebuffer time, failovers), also written as `resilience.txt`; without
//!   one the fault plane stays uninstalled.
//! * **Crash-consistent.** With `out`, every report and `manifest.json` are
//!   written atomically (temp file + rename). The manifest has a row for
//!   every requested experiment from its first write on: a row that has not
//!   finished reads `interrupted`, with a note saying it never started or
//!   how many of its shards finished. It is rewritten after every finished
//!   shard and experiment, so a kill at any point leaves a parseable
//!   manifest that `--check-manifest` refuses as incomplete.
//! * **Resumable.** With `resume`, the rows the prior manifest in `out`
//!   records `ok` (whose `<id>.txt` is still there) are kept verbatim and
//!   never reach the worker pool; the rest run. A missing, malformed or
//!   mismatched (other seed or scenario) manifest resumes nothing. A
//!   resumed campaign's final manifest is byte-identical to an
//!   uninterrupted one.
//! * **Schedule-independent.** `jobs` workers pull whole experiments, and
//!   the shards of sharded ones (see [`crate::shard`]), from one queue.
//!   Each unit runs on its own attempt thread with its own planes, and
//!   rows stay in request order, so the manifest, the reports, the
//!   resilience table and the export are byte-identical at any `jobs`.
//! * **The work ledger.** Each manifest row records the budget events its
//!   experiment charged, the same at any `jobs` and across resumes, so
//!   `results/manifest.json`, the seed-2021 golden, names any experiment
//!   whose work changed. No artifact carries wall-clock time; host time is
//!   measured by the `perfbench` package.
//! * **Interrupt-safe.** When the supervisor's interrupt flag flips
//!   (SIGINT/SIGTERM in `figures`), the pool stops claiming work, in-flight
//!   attempts are cancelled cooperatively and end as `interrupted` rows
//!   with no `<id>.txt`, and the manifest is flushed. Neither the export
//!   nor the resilience table is written: both describe a complete
//!   campaign, and the resumed run writes them from the full row set.
//! * **One export.** With `obs`, a complete campaign writes per experiment
//!   the telemetry event stream `<id>.jsonl` and Chrome trace
//!   `<id>.trace.json` ([`crate::telemetry`]) and the collapsed stacks
//!   `<id>.folded`, then the campaign's `metrics.json`, `observatory.txt`
//!   and `campaign.folded` ([`crate::observe`]). All of it is sim-time
//!   data, byte-identical across reruns and `jobs`, and observing changes
//!   neither the manifest nor the reports. Resumed rows did not run, so
//!   they carry no telemetry.

use crate::experiments::Experiment;
use crate::report::{f, Table};
use crate::runner::{self, ManifestEntry, Progress, RunOutcome, RunStatus, Supervisor};
use crate::{observe, telemetry, CAMPAIGN_SEED};
use fiveg_simcore::recovery::RecoveryKind;
use fiveg_simcore::telemetry::AttemptTelemetry;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// What a campaign runs, and where its artifacts go.
#[derive(Debug)]
pub struct CampaignSpec {
    /// The experiments, in the order of their manifest rows.
    pub entries: Vec<(&'static str, Experiment)>,
    /// The campaign seed.
    pub seed: u64,
    /// Worker threads.
    pub jobs: usize,
    /// Fault scenario, per-attempt limits and interrupt flag. `obs` turns
    /// its telemetry collector on.
    pub supervisor: Supervisor,
    /// Directory for `<id>.txt`, `manifest.json` and `resilience.txt`.
    pub out: Option<PathBuf>,
    /// Directory for the export.
    pub obs: Option<PathBuf>,
    /// Keep the rows the manifest in `out` records `ok` (no-op without
    /// `out`).
    pub resume: bool,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            entries: Vec::new(),
            seed: CAMPAIGN_SEED,
            jobs: 1,
            supervisor: Supervisor::default(),
            out: None,
            obs: None,
            resume: false,
        }
    }
}

/// What [`run`] reports as the campaign goes. Events arrive one at a time,
/// so the callback may print without tearing.
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    /// `resume` found no usable prior manifest, for this reason; every
    /// experiment runs.
    StartFresh(&'a str),
    /// This experiment finished `ok` in the prior run; its row is kept and
    /// it does not run.
    Resumed(&'static str),
    /// An experiment ended (ok, degraded or interrupted). Its report and
    /// the manifest row are already written.
    Done(&'a RunOutcome),
}

/// The result of a campaign.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The manifest rows, one per requested experiment, in request order.
    pub rows: Vec<ManifestEntry>,
    /// The outcomes of the experiments this run ended, in request order
    /// (none for resumed or never-started rows).
    pub outcomes: Vec<RunOutcome>,
    /// Seconds each worker spent on its units. Wall clock, never in an
    /// artifact.
    pub worker_busy_s: Vec<f64>,
    /// Wall clock of the worker pool, seconds.
    pub wall_s: f64,
    /// The interrupt flag stopped the campaign: no export and no
    /// resilience table were written.
    pub interrupted: bool,
    /// The resilience table of a complete campaign under a fault scenario.
    pub resilience: Option<String>,
    /// Attempt threads abandoned during the campaign because they ignored
    /// cancellation (see [`runner::leaked_threads`]).
    pub leaked: usize,
}

impl CampaignOutcome {
    /// Rows that ended degraded.
    pub fn degraded(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.status == RunStatus::Degraded)
            .count()
    }

    /// The `--profile` table: experiments sorted by wall clock, each with
    /// its three hottest telemetry spans (by cumulative simulated time),
    /// then each worker's busy time and the pool's occupancy. The entry
    /// point of the profile → shard → verify loop. Host-dependent, so it is
    /// printed, never written.
    pub fn profile(&self) -> String {
        let serial_s: f64 = self.outcomes.iter().map(|o| o.wall_s).sum();
        let mut by_wall: Vec<&RunOutcome> = self.outcomes.iter().collect();
        by_wall.sort_by(|a, b| b.wall_s.total_cmp(&a.wall_s));
        let mut body = format!(
            "==== PROFILE — campaign wall {:.2} s, serial experiment time {serial_s:.2} s ====\n",
            self.wall_s
        );
        for o in by_wall {
            let pct = if serial_s > 0.0 {
                100.0 * o.wall_s / serial_s
            } else {
                0.0
            };
            body.push_str(&format!(
                "{:<20} {:>8.3} s  {:>5.1}%  {:>12} events\n",
                o.id, o.wall_s, pct, o.events
            ));
            let Some(telem) = &o.telemetry else { continue };
            let mut spans: Vec<_> = telem.spans.iter().collect();
            spans.sort_by(|a, b| b.1.total_s.total_cmp(&a.1.total_s));
            for (name, stat) in spans.into_iter().take(3) {
                body.push_str(&format!(
                    "    {:<26} {:>10} span(s) {:>12.2} sim-s\n",
                    name, stat.count, stat.total_s
                ));
            }
        }
        let workers = self.worker_busy_s.len();
        for (w, busy) in self.worker_busy_s.iter().enumerate() {
            body.push_str(&format!("worker {w:<13} {busy:>8.3} s busy\n"));
        }
        if workers > 0 && self.wall_s > 0.0 {
            let busy: f64 = self.worker_busy_s.iter().sum();
            let occupancy = 100.0 * busy / (self.wall_s * workers as f64);
            body.push_str(&format!(
                "worker occupancy: {occupancy:.1}% ({workers} workers)\n"
            ));
        }
        body
    }

    /// What went wrong without failing a row, one warning per entry:
    /// attempt threads abandoned after ignoring cancellation, and the
    /// invariant violations the guard plane recorded (stderr material only:
    /// no artifact depends on the plane).
    pub fn warnings(&self) -> Vec<String> {
        let mut warnings = Vec::new();
        if self.leaked > 0 {
            warnings.push(format!(
                "{} attempt thread(s) ignored cancellation and were abandoned (leaked)",
                self.leaked
            ));
        }
        let total: u64 = self
            .outcomes
            .iter()
            .map(|o| o.guards.violation_count())
            .sum();
        if total > 0 {
            let mut findings = format!("guard plane recorded {total} invariant violation(s):");
            for o in &self.outcomes {
                if let Some(v) = o.guards.violations.first() {
                    let n = o.guards.violation_count();
                    findings.push_str(&format!(
                        "\n  {}: {n} violation(s), first: {}",
                        o.id,
                        v.signature()
                    ));
                }
            }
            warnings.push(findings);
        }
        warnings
    }
}

/// Note of a row whose experiment had not finished when the manifest was
/// written mid-campaign.
const IN_PROGRESS: &str = "not finished when this manifest was written";

/// Runs the campaign `spec` describes and writes its artifacts, calling
/// `on_event` as rows are resumed and experiments end (see the module
/// doc for the contract). `Err` names the first directory that could not
/// be created or file that could not be written; a failed write does not
/// stop the experiments already queued, but the export and resilience
/// table are then skipped.
pub fn run<F>(spec: &CampaignSpec, on_event: F) -> Result<CampaignOutcome, String>
where
    F: Fn(Event<'_>) + Sync,
{
    for dir in [&spec.out, &spec.obs].into_iter().flatten() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let seed = spec.seed;
    let scenario = spec.supervisor.scenario.as_ref().map(|s| s.name.as_str());
    let mut supervisor = spec.supervisor.clone();
    supervisor.telemetry |= spec.obs.is_some();

    let prior = match (&spec.out, spec.resume) {
        (Some(dir), true) => resumable(dir, seed, scenario).unwrap_or_else(|reason| {
            on_event(Event::StartFresh(&reason));
            HashMap::new()
        }),
        _ => HashMap::new(),
    };
    // Resumed rows are settled before the work queue exists: the workers
    // only ever see the experiments that still need to run.
    let mut slots: Vec<Option<ManifestEntry>> = vec![None; spec.entries.len()];
    let mut work = Vec::new();
    let mut work_to_slot = Vec::new();
    for (i, &(id, exp)) in spec.entries.iter().enumerate() {
        match prior.get(id) {
            Some(done) => {
                on_event(Event::Resumed(id));
                slots[i] = Some(done.clone());
            }
            None => {
                work.push((id, exp));
                work_to_slot.push(i);
            }
        }
    }

    // `shards[i]` is `(finished, of)` once sharded row `i` has finished a
    // shard.
    let rows_of = |slots: &[Option<ManifestEntry>],
                   shards: &[Option<(usize, usize)>],
                   note: &str| {
        spec.entries
            .iter()
            .zip(slots.iter().zip(shards))
            .map(|(&(id, _), (slot, progress))| match (slot, progress) {
                (Some(row), _) => row.clone(),
                (None, Some((done, of))) => {
                    ManifestEntry::unfinished(id, format!("{note}; {done} of {of} shards finished"))
                }
                (None, None) => ManifestEntry::unfinished(id, note.to_string()),
            })
            .collect::<Vec<_>>()
    };
    let write_manifest = |rows: &[ManifestEntry]| match &spec.out {
        Some(dir) => write(
            &dir.join("manifest.json"),
            &runner::manifest_from_entries(rows, seed, scenario).render(),
        ),
        None => Ok(()),
    };
    let shards = vec![None; spec.entries.len()];
    write_manifest(&rows_of(&slots, &shards, IN_PROGRESS))?;

    let failed: Mutex<Option<String>> = Mutex::new(None);
    let leaked_before = runner::leaked_threads();
    let progress = Mutex::new((slots, shards));
    let t0 = Instant::now();
    let (ended, worker_busy_s) =
        supervisor.run_registry_jobs_progress(&work, seed, spec.jobs, |wi, event| {
            // The lock serializes the writes and `on_event`, so interleaved
            // workers cannot tear a report, a manifest write or the output.
            let mut guard = progress.lock().expect("progress lock");
            let (slots, shards) = &mut *guard;
            let i = work_to_slot[wi];
            let mut result = Ok(());
            match event {
                Progress::Shard { of } => {
                    shards[i] = Some((shards[i].map_or(1, |(done, _)| done + 1), of));
                }
                Progress::Done(outcome) => {
                    // No report for an interrupted row: `resume` re-runs it,
                    // and a half-baked `<id>.txt` must never shadow the
                    // re-run's real one.
                    if let (Some(dir), false) = (&spec.out, outcome.interrupted()) {
                        let path = dir.join(format!("{}.txt", outcome.id));
                        result = write(&path, &outcome.report.render());
                    }
                    slots[i] = Some(ManifestEntry::from_outcome(outcome));
                }
            }
            let result = result.and(write_manifest(&rows_of(slots, shards, IN_PROGRESS)));
            if let Err(e) = result {
                failed.lock().expect("write lock").get_or_insert(e);
            }
            if let Progress::Done(outcome) = event {
                on_event(Event::Done(outcome));
            }
        });
    let wall_s = t0.elapsed().as_secs_f64();
    let interrupted = supervisor.interrupted();
    // An interrupted pool leaves the unclaimed tail as `None`: those
    // experiments never started and have no outcome.
    let outcomes: Vec<RunOutcome> = ended.into_iter().flatten().collect();
    let (slots, shards) = progress.into_inner().expect("progress lock");
    if let Some(e) = failed.into_inner().expect("write lock") {
        return Err(e);
    }
    // The runner has ended every experiment it started, so an empty slot
    // never started.
    let rows = rows_of(&slots, &shards, "never started");
    let mut resilience = None;
    if interrupted {
        write_manifest(&rows)?;
    } else {
        if let Some(dir) = &spec.obs {
            export(dir, seed, scenario, &outcomes)?;
        }
        if let Some(name) = scenario {
            let table = resilience_table(&rows, name, seed);
            if let Some(dir) = &spec.out {
                write(&dir.join("resilience.txt"), &table)?;
            }
            resilience = Some(table);
        }
    }
    Ok(CampaignOutcome {
        rows,
        outcomes,
        worker_busy_s,
        wall_s,
        interrupted,
        resilience,
        leaked: runner::leaked_threads() - leaked_before,
    })
}

/// Checks the manifest at `path`: `Ok` with a one-line summary iff it
/// parses and every row finished ok, else `Err` with one line per problem.
/// A row left `interrupted` means the campaign is incomplete until
/// `resume` finishes it.
pub fn check_manifest(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (seed, scenario, rows) =
        runner::parse_manifest(&text).map_err(|e| format!("{path}: malformed manifest: {e}"))?;
    let flagged = |status: RunStatus, default: &str| -> Vec<String> {
        let of = rows.iter().filter(|r| r.status == status);
        of.map(|r| {
            let note = r.note.as_deref().unwrap_or(default);
            format!("{path}: `{}` {}: {note}", r.id, status.as_str())
        })
        .collect()
    };
    let mut problems = flagged(RunStatus::Interrupted, "campaign stopped mid-run");
    if !problems.is_empty() {
        problems.push(format!(
            "{path}: campaign incomplete ({} interrupted row(s)) — finish it with --resume",
            problems.len()
        ));
    } else {
        problems = flagged(RunStatus::Degraded, "unknown failure");
    }
    if !problems.is_empty() {
        return Err(problems.join("\n"));
    }
    let recoveries: usize = rows.iter().map(|r| r.recovery.events).sum();
    Ok(format!(
        "{path}: ok — seed {seed}, scenario {}, {} experiments, {recoveries} recovery events",
        scenario.as_deref().unwrap_or("none"),
        rows.len()
    ))
}

fn write(path: &Path, contents: &str) -> Result<(), String> {
    runner::write_atomic(path, contents)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The rows of the prior manifest in `dir` that `resume` keeps: status `ok`
/// and the report still on disk. `Err` says why nothing is kept.
fn resumable(
    dir: &Path,
    seed: u64,
    scenario: Option<&str>,
) -> Result<HashMap<String, ManifestEntry>, String> {
    let path = dir.join("manifest.json");
    let text =
        std::fs::read_to_string(&path).map_err(|_| format!("no prior {}", path.display()))?;
    let (prior_seed, prior_scenario, entries) = runner::parse_manifest(&text)
        .map_err(|e| format!("ignoring malformed {}: {e}", path.display()))?;
    if prior_seed != seed || prior_scenario.as_deref() != scenario {
        return Err(format!(
            "prior manifest is for seed {prior_seed} / scenario {} \
             (this run: seed {seed} / scenario {})",
            prior_scenario.as_deref().unwrap_or("none"),
            scenario.unwrap_or("none"),
        ));
    }
    Ok(entries
        .into_iter()
        .filter(|e| e.status == RunStatus::Ok && dir.join(format!("{}.txt", e.id)).exists())
        .map(|e| (e.id.clone(), e))
        .collect())
}

/// The `obs` export of a complete campaign: per experiment `<id>.jsonl`,
/// `<id>.trace.json` and `<id>.folded`, then `campaign.folded`,
/// `metrics.json` and `observatory.txt`.
fn export(
    dir: &Path,
    seed: u64,
    scenario: Option<&str>,
    outcomes: &[RunOutcome],
) -> Result<(), String> {
    let per: Vec<(String, AttemptTelemetry)> = outcomes
        .iter()
        .map(|o| (o.id.to_string(), o.telemetry.clone().unwrap_or_default()))
        .collect();
    let mut campaign: BTreeMap<String, u64> = BTreeMap::new();
    for (id, telem) in &per {
        write(&dir.join(format!("{id}.jsonl")), &telemetry::jsonl(telem))?;
        write(
            &dir.join(format!("{id}.trace.json")),
            &telemetry::chrome_trace(id, telem),
        )?;
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
    )?;
    let metrics = observe::campaign_metrics(seed, scenario, &per);
    write(&dir.join("metrics.json"), &metrics.render())?;
    write(
        &dir.join("observatory.txt"),
        &observe::observatory_txt(seed, scenario, &per),
    )
}

/// Renders the campaign resilience table from its manifest rows.
fn resilience_table(entries: &[ManifestEntry], scenario: &str, seed: u64) -> String {
    let mut t = Table::new(vec![
        "experiment",
        "events",
        "outage(s)",
        "detect(s)",
        "rebuffer(s)",
        "failovers",
    ]);
    let (mut ev, mut out, mut reb, mut fo) = (0usize, 0.0f64, 0.0f64, 0usize);
    let mut detect_weighted = 0.0f64;
    let mut by_kind: HashMap<&str, usize> = HashMap::new();
    for e in entries {
        let r = &e.recovery;
        t.row(vec![
            e.id.clone(),
            r.events.to_string(),
            f(r.outage_s, 2),
            f(r.mean_detect_s, 2),
            f(r.rebuffer_s, 2),
            r.failovers.to_string(),
        ]);
        ev += r.events;
        out += r.outage_s;
        reb += r.rebuffer_s;
        fo += r.failovers;
        detect_weighted += r.mean_detect_s * r.events as f64;
        for (k, n) in &r.by_kind {
            for kind in RecoveryKind::ALL {
                if kind.name() == k {
                    *by_kind.entry(kind.name()).or_insert(0) += n;
                }
            }
        }
    }
    let mean_detect = if ev > 0 {
        detect_weighted / ev as f64
    } else {
        0.0
    };
    t.row(vec![
        "TOTAL".to_string(),
        ev.to_string(),
        f(out, 2),
        f(mean_detect, 2),
        f(reb, 2),
        fo.to_string(),
    ]);
    let mut body = format!(
        "==== RESILIENCE — scenario `{scenario}`, seed {seed} ====\n{}",
        t.render()
    );
    body.push_str("recovery actions by kind:\n");
    for kind in RecoveryKind::ALL {
        if let Some(n) = by_kind.get(kind.name()) {
            body.push_str(&format!("  {:<20} {n}\n", kind.name()));
        }
    }
    // Non-ok rows carry their supervisor note (why the run degraded, how
    // far it got — e.g. "deadline exceeded (30.0 s); cancelled
    // cooperatively (wedged; 84211 events charged at kill)"). Healthy
    // campaigns have none, so this section never perturbs their bytes.
    let flagged: Vec<&ManifestEntry> = entries
        .iter()
        .filter(|e| e.status != RunStatus::Ok)
        .collect();
    if !flagged.is_empty() {
        body.push_str("degraded rows:\n");
        for e in flagged {
            body.push_str(&format!(
                "  {:<10} {:<11} {}\n",
                e.id,
                e.status.as_str(),
                e.note.as_deref().unwrap_or("no note recorded")
            ));
        }
    }
    body
}
