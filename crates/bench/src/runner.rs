//! The supervised experiment runner: chaos-tolerant campaign execution.
//!
//! `figures all` regenerates ~40 experiments in sequence; one panicking,
//! wedged, or runaway experiment must not take the campaign down. The
//! [`Supervisor`] runs each attempt of an experiment on its own thread
//! ([`Supervisor::run_attempt`], which the stress harness's cases run
//! through too) with one `fiveg_simcore::attempt::Attempt` installed:
//!
//! * an optional ambient [`FaultScenario`]'s schedule (the deterministic
//!   fault plane of `fiveg_simcore::faults`),
//! * an event budget (`fiveg_simcore::budget`) so runaway loops die by
//!   panic instead of spinning forever,
//! * a cooperative cancellation token (`fiveg_simcore::cancel`) polled
//!   from the budget's countdown, so a deadline, a progress-watchdog
//!   stall, or a campaign interrupt unwinds the attempt instead of
//!   abandoning its thread,
//! * `catch_unwind` around the experiment body,
//! * a wall-clock deadline and a no-progress watchdog enforced by a
//!   supervising poll loop, escalating cancel → grace period →
//!   abandon-with-leak-report,
//! * one retry with a deterministically perturbed seed.
//!
//! An experiment that still fails yields a synthesized [`Report`] marked
//! `DEGRADED`, so every other experiment's output is written regardless.
//! A campaign interrupt (SIGINT/SIGTERM via [`Supervisor::interrupt`])
//! instead yields `INTERRUPTED` rows that `--resume` re-runs.

use crate::experiments::Experiment;
use crate::json::Json;
use crate::report::Report;
use crate::shard::{self, ShardableExperiment};
use fiveg_simcore::attempt::{self, Attempt, Drained};
use fiveg_simcore::cancel::{self, CancelToken};
use fiveg_simcore::faults::{FaultScenario, FaultSchedule};
use fiveg_simcore::guard::{AttemptGuards, GuardPolicy};
use fiveg_simcore::recovery::{self, RecoveryEvent, RecoverySummary};
use fiveg_simcore::telemetry::AttemptTelemetry;
use fiveg_simcore::{budget, RngStream};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Attempt threads abandoned because they never answered a cancellation
/// request within the grace period (process lifetime total). A healthy
/// campaign keeps this at zero; the `figures` CLI reports a non-zero
/// count on stderr at campaign end.
static LEAKED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Attempt threads abandoned (leaked) so far in this process.
pub fn leaked_threads() -> usize {
    LEAKED_THREADS.load(Ordering::Relaxed)
}

/// Silences, process-wide, the panics the runner raises on purpose to
/// unwind an attempt: cancellation ([`cancel::CANCELLED_MSG`]) and budget
/// exhaustion ([`budget::EXHAUSTED_MSG`]). The runner catches both and
/// records the row as interrupted or degraded with a note, so the default
/// hook's `thread … panicked at` line would only read like a crash. Every
/// other panic reaches the previous hook.
pub fn silence_unwind_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let deliberate = info.payload_as_str().is_some_and(|msg| {
            msg.starts_with(cancel::CANCELLED_MSG) || msg.starts_with(budget::EXHAUSTED_MSG)
        });
        if !deliberate {
            previous(info);
        }
    }));
}

/// How one supervised run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The experiment produced its report (possibly on the retry).
    Ok,
    /// Every attempt failed; the report is a synthesized placeholder.
    Degraded,
    /// A campaign interrupt (SIGINT/SIGTERM) cancelled the run before it
    /// could finish; `--resume` re-runs it. Not a failure of the
    /// experiment itself.
    Interrupted,
}

impl RunStatus {
    /// Manifest string for this status.
    pub fn as_str(self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Degraded => "degraded",
            RunStatus::Interrupted => "interrupted",
        }
    }

    /// Parses a manifest status string.
    pub fn parse(s: &str) -> Option<RunStatus> {
        match s {
            "ok" => Some(RunStatus::Ok),
            "degraded" => Some(RunStatus::Degraded),
            "interrupted" => Some(RunStatus::Interrupted),
            _ => None,
        }
    }
}

/// A registry entry's progress, as [`Supervisor::run_registry_jobs_progress`]
/// reports it.
#[derive(Debug, Clone, Copy)]
pub enum Progress<'a> {
    /// One more of the entry's `of` shards finished `ok`; the entry is
    /// still unfinished.
    Shard {
        /// The entry's shard count.
        of: usize,
    },
    /// The entry ended (`ok`, degraded or interrupted) with this outcome.
    Done(&'a RunOutcome),
}

/// The outcome of one supervised experiment.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Experiment id.
    pub id: &'static str,
    /// Final status.
    pub status: RunStatus,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Failure note from the last failed attempt, if any attempt failed.
    pub note: Option<String>,
    /// The experiment's report, or a `DEGRADED` placeholder.
    pub report: Report,
    /// Recovery events emitted by the stack's self-healing hooks during the
    /// successful attempt (empty without a fault scenario, and for degraded
    /// runs).
    pub recovery: Vec<RecoveryEvent>,
    /// Wall-clock spent on this experiment across all attempts, in seconds.
    /// Host-dependent, so it feeds `--profile` and the telemetry summary
    /// but never `manifest.json`, which must stay byte-identical across
    /// serial, parallel, and resumed runs.
    pub wall_s: f64,
    /// Simulation events charged against the budget by the successful
    /// attempt (0 for unfinished runs and for experiments whose hot loops
    /// don't charge the budget). Deterministic, so the manifest persists
    /// it as the experiment's exact work count.
    pub events: u64,
    /// Telemetry drained from the successful attempt, when the supervisor
    /// ran with [`Supervisor::telemetry`] on (`None` otherwise, and for
    /// degraded runs). Like `wall_s`, this never reaches `manifest.json`
    /// — the `figures` CLI renders it into its own files.
    pub telemetry: Option<AttemptTelemetry>,
    /// Invariant-guard records drained from the successful attempt (empty
    /// for degraded runs, and when the supervisor runs with
    /// [`Supervisor::guards`] `None`). In-memory only — violations are
    /// surfaced on stderr and by the stress harness, never persisted into
    /// `manifest.json`, which must stay byte-identical with the plane on
    /// or off.
    pub guards: AttemptGuards,
}

impl RunOutcome {
    /// True iff the run is degraded.
    pub fn degraded(&self) -> bool {
        self.status == RunStatus::Degraded
    }

    /// True iff the run was cut short by a campaign interrupt.
    pub fn interrupted(&self) -> bool {
        self.status == RunStatus::Interrupted
    }

    /// The outcome of a run that produced no report (`status` is
    /// `Degraded` or `Interrupted`): a placeholder report carrying `note`,
    /// and nothing drained from the planes.
    fn unfinished(
        id: &'static str,
        status: RunStatus,
        attempts: u32,
        note: String,
        wall_s: f64,
    ) -> RunOutcome {
        let report = match status {
            RunStatus::Interrupted => interrupted_report(id, &note),
            _ => degraded_report(id, &note),
        };
        RunOutcome {
            id,
            status,
            attempts,
            note: Some(note),
            report,
            recovery: Vec::new(),
            wall_s,
            events: 0,
            telemetry: None,
            guards: AttemptGuards::default(),
        }
    }
}

/// Supervision policy for a campaign.
#[derive(Debug, Clone)]
pub struct Supervisor {
    /// Fault scenario installed on each experiment thread (`None` = the
    /// plane stays uninstalled and the default path is untouched).
    pub scenario: Option<FaultScenario>,
    /// Event budget armed per attempt.
    pub event_budget: u64,
    /// Wall-clock deadline per attempt.
    pub deadline: Duration,
    /// Retries after the first failed attempt, each with a perturbed seed.
    pub retries: u32,
    /// Install the telemetry collector on each attempt thread and carry
    /// the drained [`AttemptTelemetry`] in the outcome. Off by default;
    /// the collector never touches simulation state, so campaign output
    /// is byte-identical either way.
    pub telemetry: bool,
    /// Guard-plane policy installed on each attempt thread; `None` leaves
    /// the invariant collector uninstalled. Defaults to
    /// [`GuardPolicy::Record`]: checks run and violations are drained into
    /// the outcome, but (since hooks never mutate simulation state) every
    /// artifact stays byte-identical to a run with the plane off.
    pub guards: Option<GuardPolicy>,
    /// How long a cancelled attempt gets to unwind and report before the
    /// supervisor gives up and abandons its thread (leak of last resort).
    pub grace: Duration,
    /// Progress-watchdog window: an attempt that has charged budget
    /// events before but charges none for this long is classified
    /// *wedged* and cancelled early, before the full deadline. Attempts
    /// that never charge events are exempt (some experiments legitimately
    /// run long without touching the budget) — the deadline covers them.
    pub stall: Duration,
    /// Campaign interrupt flag (typically the SIGINT/SIGTERM handler's
    /// static). When it flips, in-flight attempts are cancelled, retries
    /// are skipped, and runs report [`RunStatus::Interrupted`];
    /// [`Supervisor::run_registry_jobs_partial`] also stops claiming new
    /// entries.
    pub interrupt: Option<&'static AtomicBool>,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor {
            scenario: None,
            // Generous: the heaviest experiment charges tens of millions of
            // events; only a runaway loop reaches billions.
            event_budget: 2_000_000_000,
            deadline: Duration::from_secs(120),
            retries: 1,
            telemetry: false,
            guards: Some(GuardPolicy::Record),
            grace: Duration::from_secs(2),
            stall: Duration::from_secs(30),
            interrupt: None,
        }
    }
}

impl Supervisor {
    /// A supervisor injecting `scenario` into every experiment.
    pub fn with_scenario(scenario: FaultScenario) -> Self {
        Supervisor {
            scenario: Some(scenario),
            ..Self::default()
        }
    }

    /// The seed used for attempt `attempt` (0-based) of experiment `id`:
    /// attempt 0 uses the campaign seed verbatim, retries perturb it through
    /// a named stream so the retry world is different but reproducible.
    pub fn attempt_seed(&self, id: &str, seed: u64, attempt: u32) -> u64 {
        if attempt == 0 {
            seed
        } else {
            RngStream::new(seed, &format!("runner/retry/{id}/{attempt}")).next_u64()
        }
    }

    /// True iff the campaign interrupt flag has flipped.
    pub fn interrupted(&self) -> bool {
        self.interrupt.is_some_and(|f| f.load(Ordering::SeqCst))
    }

    /// Runs one experiment under supervision. Experiments with a shard
    /// declaration run shard-by-shard (sequentially here; the pool
    /// scheduler fans the same shards out as independent units) and their
    /// outcome is the order-fixed merge of the shard runs.
    pub fn run_one(&self, id: &'static str, f: Experiment, seed: u64) -> RunOutcome {
        if let Some(spec) = shard::find(id) {
            return self.run_sharded(&spec, seed);
        }
        self.run_monolithic(id, f, seed)
    }

    /// One whole experiment under [`Supervisor::retry`] (plane seed =
    /// data seed).
    fn run_monolithic(&self, id: &'static str, f: Experiment, seed: u64) -> RunOutcome {
        let run = self.retry(id, seed, |s| {
            self.run_attempt(format!("exp-{id}"), self.attempt_at(s), move || f(s))
        });
        match run.done {
            Some((report, drained)) => RunOutcome {
                id,
                status: run.status,
                attempts: run.attempts,
                note: run.note,
                report,
                recovery: drained.recovery,
                wall_s: run.wall_s,
                events: drained.events,
                telemetry: drained.telemetry,
                guards: drained.guards,
            },
            None => RunOutcome::unfinished(
                id,
                run.status,
                run.attempts,
                run.note.unwrap_or_default(),
                run.wall_s,
            ),
        }
    }

    /// Runs every shard of a sharded experiment sequentially, then merges.
    /// The pooled scheduler instead claims each shard as its own work unit
    /// and performs the identical merge — the two paths share
    /// [`Supervisor::run_shard`] and [`Supervisor::merge_shard_runs`], so
    /// their artifacts are byte-equal by construction.
    pub fn run_sharded(&self, spec: &ShardableExperiment, seed: u64) -> RunOutcome {
        let shards: Vec<ShardRun> = (0..spec.shards)
            .map(|s| self.run_shard(spec, seed, s))
            .collect();
        self.merge_shard_runs(spec, seed, shards)
    }

    /// One shard under the supervised retry loop (`Supervisor::retry`,
    /// shared with whole experiments). The shard *data* seed is the
    /// attempt seed verbatim (so shard bodies compute exactly what the
    /// monolithic experiment computed); only the ambient planes are keyed
    /// by [`crate::shard::shard_plane_seed`], giving each shard a distinct,
    /// scheduling-independent fault world.
    pub fn run_shard(&self, spec: &ShardableExperiment, seed: u64, shard_idx: usize) -> ShardRun {
        let (id, body) = (spec.id, spec.run);
        let run = self.retry(id, seed, |s| {
            let plane_seed = shard::shard_plane_seed(s, id, shard_idx);
            let name = format!("exp-{id}-s{shard_idx}");
            self.run_attempt(name, self.attempt_at(plane_seed), move || {
                body(s, shard_idx)
            })
        });
        let (values, drained) = run.done.unwrap_or_default();
        ShardRun {
            shard: shard_idx,
            status: run.status,
            attempts: run.attempts,
            note: run.note,
            values,
            recovery: drained.recovery,
            wall_s: run.wall_s,
            events: drained.events,
            telemetry: drained.telemetry,
            guards: drained.guards,
        }
    }

    /// The supervised retry loop every unit runs through, whole experiment
    /// or shard: attempt `n` runs `attempt` on the seed
    /// [`Supervisor::attempt_seed`] derives for it, and the first success
    /// wins. A failed attempt is retried up to [`Supervisor::retries`]
    /// times. A campaign interrupt — before an attempt starts, or while one
    /// fails — ends the unit [`RunStatus::Interrupted`] with no retry and
    /// no `DEGRADED` verdict: stopping is not the experiment's fault.
    fn retry<T>(
        &self,
        id: &str,
        seed: u64,
        mut attempt: impl FnMut(u64) -> Attempted<T>,
    ) -> Retried<T> {
        let t0 = Instant::now();
        let end = |status, attempts, note, done| Retried {
            status,
            attempts,
            note,
            wall_s: t0.elapsed().as_secs_f64(),
            done,
        };
        let mut last_note = String::new();
        for n in 0..=self.retries {
            if self.interrupted() {
                let note = if n == 0 {
                    "interrupted before start".to_string()
                } else {
                    last_note
                };
                return end(RunStatus::Interrupted, n, Some(note), None);
            }
            let run = attempt(self.attempt_seed(id, seed, n));
            match run.result {
                Ok(value) => {
                    return end(
                        RunStatus::Ok,
                        n + 1,
                        (n > 0).then_some(last_note),
                        Some((value, run.drained)),
                    )
                }
                Err(note) => {
                    last_note = note;
                    if self.interrupted() {
                        return end(RunStatus::Interrupted, n + 1, Some(last_note), None);
                    }
                }
            }
        }
        end(RunStatus::Degraded, self.retries + 1, Some(last_note), None)
    }

    /// Reduces one experiment's shard runs (indexed by shard) into a single
    /// [`RunOutcome`], deterministically: the report comes from the
    /// experiment's order-fixed `merge` reducer over the raw shard values;
    /// recovery events and telemetry concatenate in shard order (span ids
    /// re-based so the merged stream keeps unique ids); events sum;
    /// attempts take the max. Any interrupted shard makes the whole run
    /// interrupted; otherwise any degraded shard degrades it (first failing
    /// shard's note wins, prefixed with its index).
    pub fn merge_shard_runs(
        &self,
        spec: &ShardableExperiment,
        seed: u64,
        shards: Vec<ShardRun>,
    ) -> RunOutcome {
        let id = spec.id;
        let n = spec.shards;
        let wall_s: f64 = shards.iter().map(|s| s.wall_s).sum();
        let attempts = shards.iter().map(|s| s.attempts).max().unwrap_or(1);
        let shard_note = |status: RunStatus| {
            shards
                .iter()
                .find(|s| s.status == status && s.note.is_some())
                .map(|s| {
                    format!(
                        "shard {}/{n}: {}",
                        s.shard,
                        s.note.as_deref().unwrap_or_default()
                    )
                })
        };
        if shards.iter().any(|s| s.status == RunStatus::Interrupted) {
            let note = shard_note(RunStatus::Interrupted)
                .unwrap_or_else(|| "interrupted before start".to_string());
            return RunOutcome::unfinished(id, RunStatus::Interrupted, attempts, note, wall_s);
        }
        if shards.iter().any(|s| s.status == RunStatus::Degraded) {
            let note = shard_note(RunStatus::Degraded).unwrap_or_default();
            return RunOutcome::unfinished(id, RunStatus::Degraded, attempts, note, wall_s);
        }
        let parts: Vec<Vec<f64>> = shards.iter().map(|s| s.values.clone()).collect();
        let report = (spec.merge)(seed, &parts);
        let recovery: Vec<RecoveryEvent> = shards
            .iter()
            .flat_map(|s| s.recovery.iter().cloned())
            .collect();
        let events: u64 = shards.iter().map(|s| s.events).sum();
        let telemetry = self
            .telemetry
            .then(|| merge_shard_telemetry(shards.iter().filter_map(|s| s.telemetry.as_ref())));
        let mut guards = AttemptGuards::default();
        for s in &shards {
            guards
                .violations
                .extend(s.guards.violations.iter().cloned());
            guards.dropped += s.guards.dropped;
            guards.checks += s.guards.checks;
        }
        let note = shards.iter().find(|s| s.note.is_some()).map(|s| {
            format!(
                "shard {}/{n}: {}",
                s.shard,
                s.note.as_deref().unwrap_or_default()
            )
        });
        RunOutcome {
            id,
            status: RunStatus::Ok,
            attempts,
            note,
            report,
            recovery,
            wall_s,
            events,
            telemetry,
            guards,
        }
    }

    /// Runs every `(id, experiment)` entry serially, collecting one outcome
    /// per entry. A panic, deadline blow-out, or budget exhaustion in any
    /// one experiment cannot prevent the others from running.
    pub fn run_registry(
        &self,
        entries: &[(&'static str, Experiment)],
        seed: u64,
    ) -> Vec<RunOutcome> {
        self.run_registry_jobs(entries, seed, 1, |_, _| {})
    }

    /// Runs every `(id, experiment)` entry on a pool of `jobs` worker
    /// threads pulling from a shared queue, collecting outcomes **in entry
    /// order** regardless of completion order.
    ///
    /// Determinism contract: each experiment's world is a pure function of
    /// `(id, campaign seed, attempt)` — [`Supervisor::attempt_seed`] draws
    /// from no shared RNG, and every attempt installs its own thread-local
    /// fault/recovery/budget planes on a fresh attempt thread
    /// ([`Supervisor::run_attempt`]). Workers therefore
    /// cannot observe each other, and the returned vector — and any
    /// manifest rendered from it — is byte-identical to a serial run.
    ///
    /// `on_done(i, outcome)` fires as each entry finishes (completion
    /// order, possibly concurrently with other workers finishing — the
    /// callback must serialize its own side effects); the campaign driver
    /// uses it for progress output and crash-consistent manifest rewrites.
    pub fn run_registry_jobs<F>(
        &self,
        entries: &[(&'static str, Experiment)],
        seed: u64,
        jobs: usize,
        on_done: F,
    ) -> Vec<RunOutcome>
    where
        F: Fn(usize, &RunOutcome) + Sync,
    {
        let (slots, _) = self.run_units(entries, seed, jobs, None, |i, progress| {
            if let Progress::Done(outcome) = progress {
                on_done(i, outcome);
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every unit was claimed (no stop flag)"))
            .collect()
    }

    /// Like [`Supervisor::run_registry_jobs`], but interrupt-aware, and it
    /// also returns per-worker busy time (seconds each worker spent on its
    /// units, index = worker; wall-clock only, never in a deterministic
    /// artifact): when [`Supervisor::interrupt`] flips, workers stop
    /// claiming new registry entries and the unclaimed tail comes back as
    /// `None` (an uninterrupted run returns all `Some`, identical to the
    /// non-partial variant). In-flight entries still finish — cancelled,
    /// they land as [`RunStatus::Interrupted`] outcomes via `on_done` like
    /// any other.
    pub fn run_registry_jobs_partial<F>(
        &self,
        entries: &[(&'static str, Experiment)],
        seed: u64,
        jobs: usize,
        on_done: F,
    ) -> (Vec<Option<RunOutcome>>, Vec<f64>)
    where
        F: Fn(usize, &RunOutcome) + Sync,
    {
        self.run_registry_jobs_progress(entries, seed, jobs, |i, progress| {
            if let Progress::Done(outcome) = progress {
                on_done(i, outcome);
            }
        })
    }

    /// [`Supervisor::run_registry_jobs_partial`] that also reports each
    /// shard a sharded entry finishes `ok` before the entry itself is done,
    /// so the campaign driver can record partial progress in its manifest.
    pub fn run_registry_jobs_progress<F>(
        &self,
        entries: &[(&'static str, Experiment)],
        seed: u64,
        jobs: usize,
        on_progress: F,
    ) -> (Vec<Option<RunOutcome>>, Vec<f64>)
    where
        F: Fn(usize, Progress<'_>) + Sync,
    {
        let stop = self.interrupt.map(|f| f as &AtomicBool);
        self.run_units(entries, seed, jobs, stop, on_progress)
    }

    /// The shared pool core behind the registry runners: expands each entry
    /// into its work units — one `Whole` unit for unsharded experiments,
    /// one `Shard` unit per shard for sharded ones — and schedules the
    /// flattened unit list on one work-stealing pool. Shards of a long
    /// experiment therefore interleave with other experiments on the same
    /// workers: no second thread layer, no per-experiment barrier.
    ///
    /// Outcome slots stay in entry order. A sharded experiment's slot fills
    /// (and [`Progress::Done`] fires) when its *last* shard completes,
    /// merged by [`Supervisor::merge_shard_runs`]; each earlier shard that
    /// finishes `ok` fires [`Progress::Shard`]. On interrupt, an experiment
    /// whose shards were only partly claimed never merges: once the pool
    /// drains it ends [`RunStatus::Interrupted`], noting how many shards
    /// finished, and `--resume` re-runs it whole. Only entries none of
    /// whose units were claimed keep a `None` slot.
    fn run_units<F>(
        &self,
        entries: &[(&'static str, Experiment)],
        seed: u64,
        jobs: usize,
        stop: Option<&AtomicBool>,
        on_progress: F,
    ) -> (Vec<Option<RunOutcome>>, Vec<f64>)
    where
        F: Fn(usize, Progress<'_>) + Sync,
    {
        enum Unit {
            Whole(usize),
            Shard { exp: usize, shard: usize },
        }
        struct Acc {
            spec: ShardableExperiment,
            pieces: Vec<Mutex<Option<ShardRun>>>,
            remaining: AtomicUsize,
        }
        let accs: Vec<Option<Acc>> = entries
            .iter()
            .map(|(id, _)| {
                shard::find(id).map(|spec| Acc {
                    spec,
                    pieces: (0..spec.shards).map(|_| Mutex::new(None)).collect(),
                    remaining: AtomicUsize::new(spec.shards),
                })
            })
            .collect();
        let mut units = Vec::new();
        for (i, acc) in accs.iter().enumerate() {
            match acc {
                Some(acc) => {
                    units.extend((0..acc.spec.shards).map(|s| Unit::Shard { exp: i, shard: s }))
                }
                None => units.push(Unit::Whole(i)),
            }
        }
        let outcomes: Vec<Mutex<Option<RunOutcome>>> =
            entries.iter().map(|_| Mutex::new(None)).collect();
        let finish = |i: usize, outcome: RunOutcome| {
            on_progress(i, Progress::Done(&outcome));
            *outcomes[i].lock().expect("outcome lock") = Some(outcome);
        };
        let (_, busy) = pool_map_partial(units.len(), jobs, stop, |u| match units[u] {
            Unit::Whole(i) => {
                let (id, f) = entries[i];
                finish(i, self.run_monolithic(id, f, seed));
            }
            Unit::Shard { exp, shard } => {
                let acc = accs[exp].as_ref().expect("shard unit has an accumulator");
                let piece = self.run_shard(&acc.spec, seed, shard);
                let ok = piece.status == RunStatus::Ok;
                *acc.pieces[shard].lock().expect("piece lock") = Some(piece);
                if acc.remaining.fetch_sub(1, Ordering::AcqRel) > 1 {
                    if ok {
                        on_progress(
                            exp,
                            Progress::Shard {
                                of: acc.spec.shards,
                            },
                        );
                    }
                } else {
                    // Last shard in: this worker performs the merge. The
                    // mutexes synchronize the sibling pieces written by
                    // other workers.
                    let shards: Vec<ShardRun> = acc
                        .pieces
                        .iter()
                        .map(|m| {
                            m.lock()
                                .expect("piece lock")
                                .take()
                                .expect("all pieces present at merge")
                        })
                        .collect();
                    finish(exp, self.merge_shard_runs(&acc.spec, seed, shards));
                }
            }
        });
        // An interrupt that stopped the pool between a sharded experiment's
        // shards: its claimed shards have all completed, the rest never
        // will, so it ends here rather than in the merge.
        for (i, acc) in accs.iter().enumerate() {
            let Some(acc) = acc else { continue };
            let n = acc.spec.shards;
            let left = acc.remaining.load(Ordering::Acquire);
            if left == 0 || left == n {
                continue;
            }
            let runs: Vec<ShardRun> = acc
                .pieces
                .iter()
                .filter_map(|m| m.lock().expect("piece lock").take())
                .collect();
            let ok = runs.iter().filter(|r| r.status == RunStatus::Ok).count();
            let attempts = runs.iter().map(|r| r.attempts).max().unwrap_or(0);
            let wall_s = runs.iter().map(|r| r.wall_s).sum();
            let note = format!("interrupted with {ok} of {n} shards finished");
            let outcome =
                RunOutcome::unfinished(acc.spec.id, RunStatus::Interrupted, attempts, note, wall_s);
            finish(i, outcome);
        }
        let slots = outcomes
            .into_iter()
            .map(|slot| slot.into_inner().expect("outcome lock"))
            .collect();
        (slots, busy)
    }

    /// The attempt a unit runs under: the scenario's schedule generated
    /// from `plane_seed`, the event budget, telemetry and the guard
    /// policy. Whole experiments pass their data seed as the plane seed;
    /// shards pass the derived [`crate::shard::shard_plane_seed`] so
    /// sibling shards get distinct fault worlds while their data stays
    /// seed-pure.
    fn attempt_at(&self, plane_seed: u64) -> Attempt {
        let schedule = self
            .scenario
            .as_ref()
            .map(|sc| FaultSchedule::generate(plane_seed, sc));
        Attempt::new()
            .faults(schedule)
            .budget(self.event_budget)
            .telemetry(self.telemetry)
            .guards(self.guards)
    }

    /// One supervised attempt, the only place an attempt thread is
    /// spawned: `body` runs on a fresh thread named `name` with `attempt`
    /// installed, plus a cancellation token carrying this supervisor's
    /// deadline, under `catch_unwind`. The thread drains the attempt's
    /// records and reports; this thread supervises it, escalating on the
    /// first of interrupt / deadline / watchdog stall. The drained
    /// records come back on failure too, and are empty only when the
    /// thread never reported. Campaign units and stress cases both run
    /// here, so a shrunk schedule installs exactly like a generated one.
    pub fn run_attempt<T, F>(&self, name: String, attempt: Attempt, body: F) -> Attempted<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + std::panic::UnwindSafe + 'static,
    {
        let (tx, rx) = mpsc::channel();
        let token = Arc::new(CancelToken::with_deadline(Instant::now() + self.deadline));
        let attempt = attempt.cancel(Arc::clone(&token));
        let spawned = std::thread::Builder::new().name(name).spawn(move || {
            // Thread-locals start clean on a fresh thread, and the guard
            // uninstalls everything even if the body panicked.
            let _installed = attempt.install();
            let result = std::panic::catch_unwind(body).map_err(|p| panic_note(p.as_ref()));
            let _ = tx.send(Attempted {
                result,
                drained: attempt::drain(),
            });
        });
        match spawned {
            Ok(handle) => self.supervise(handle, &rx, &token),
            Err(e) => Attempted::failed(format!("spawn failed: {e}")),
        }
    }

    /// The supervising poll loop for one attempt: waits for the result in
    /// short ticks, sampling the token's published progress. The first of
    /// interrupt / deadline / watchdog stall starts the escalation ladder:
    /// cancel the token, give the attempt `grace` to unwind and report,
    /// and only then abandon the thread (counting the leak). An attempt
    /// that crosses the finish line before observing the kill keeps its
    /// finished, deterministic report; one that dies of its own panic as
    /// it is killed keeps that panic's note.
    fn supervise<T>(
        &self,
        handle: JoinHandle<()>,
        rx: &mpsc::Receiver<Attempted<T>>,
        token: &CancelToken,
    ) -> Attempted<T> {
        let started = Instant::now();
        let deadline_at = started + self.deadline;
        // Tick fast enough that short test deadlines stay accurate, slow
        // enough that a 120 s campaign deadline costs ~10 wakeups/s.
        let tick = (self.deadline / 4).clamp(Duration::from_millis(5), Duration::from_millis(100));
        let mut last_events: u64 = 0;
        let mut last_change = started;
        // The token's own deadline can fire inside the attempt (its poll
        // self-kills) before this loop ticks: the same cooperative kill
        // the ladder performs, reported in the same shape.
        let mut reason = format!("deadline exceeded ({:.1} s)", self.deadline.as_secs_f64());
        // Once the ladder runs: the classification at the kill, and the
        // end of the grace period.
        let mut killed: Option<(&'static str, Instant)> = None;
        loop {
            let until = killed.map_or(deadline_at, |(_, grace_end)| grace_end);
            let wait = tick
                .min(until.saturating_duration_since(Instant::now()))
                .max(Duration::from_millis(1));
            match rx.recv_timeout(wait) {
                Ok(done) => {
                    let _ = handle.join();
                    let class =
                        killed.map_or_else(|| self.classify(last_events, last_change), |k| k.0);
                    return cancelled(done, &reason, class, token, last_events);
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Attempted::failed(disconnect_note(handle))
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
            }
            let now = Instant::now();
            if let Some((class, grace_end)) = killed {
                if now < grace_end {
                    continue;
                }
                LEAKED_THREADS.fetch_add(1, Ordering::Relaxed);
                drop(handle);
                return Attempted::failed(format!(
                    "{reason}; cancel unanswered after {:.1} s grace ({class}; {} events charged at kill); thread abandoned — leaked",
                    self.grace.as_secs_f64(),
                    token.progress().max(last_events),
                ));
            }
            let progress = token.progress();
            if progress != last_events {
                last_events = progress;
                last_change = now;
            }
            let kill = if self.interrupted() {
                Some("interrupted".to_string())
            } else if now >= deadline_at {
                Some(reason.clone())
            } else if last_events > 0 && now.duration_since(last_change) >= self.stall {
                // Only experiments that have charged events can be declared
                // wedged early: some legitimately run long without touching
                // the budget, and the deadline still covers those.
                Some(format!(
                    "stalled: no progress for {:.1} s",
                    self.stall.as_secs_f64()
                ))
            } else {
                None
            };
            if let Some(kill) = kill {
                killed = Some((self.classify(last_events, last_change), now + self.grace));
                token.kill(&kill);
                reason = kill;
            }
        }
    }

    /// Classification for the degraded report: an attempt that charged
    /// events within the stall window is *slow* (still progressing, just
    /// not fast enough); one that stopped charging — or never charged —
    /// is *wedged*.
    fn classify(&self, last_events: u64, last_change: Instant) -> &'static str {
        if last_events > 0 && last_change.elapsed() < self.stall {
            "slow"
        } else {
            "wedged"
        }
    }
}

/// Relabels an attempt that died of a cancel panic as the supervisor's
/// cooperative kill for `reason`, with the watchdog's classification and
/// the events charged at the kill; any other result passes through.
fn cancelled<T>(
    mut done: Attempted<T>,
    reason: &str,
    class: &str,
    token: &CancelToken,
    last_events: u64,
) -> Attempted<T> {
    if done
        .result
        .as_ref()
        .is_err_and(|note| cancel::is_cancel_panic(note))
    {
        let events = token.progress().max(last_events);
        done.result = Err(format!(
            "{reason}; cancelled cooperatively ({class}; {events} events charged at kill)"
        ));
    }
    done
}

/// The note for a result channel that disconnected without a report: the
/// attempt thread is gone (its sender dropped), so join it and attach how
/// it died — a send-side panic *after* `catch_unwind` (draining planes,
/// serializing the output) carries its payload here, distinguishing it
/// from a genuine silent drop.
fn disconnect_note(handle: JoinHandle<()>) -> String {
    match handle.join() {
        Ok(()) => {
            "experiment thread died without reporting (thread exited cleanly but never sent; \
             result channel dropped)"
                .to_string()
        }
        Err(payload) => format!(
            "experiment thread died without reporting (send-side {})",
            panic_note(payload.as_ref())
        ),
    }
}

/// Runs `n` independent tasks on a pool of `jobs` worker threads pulling
/// indices from a shared cursor (work-stealing: a worker that lands a long
/// task simply claims fewer indices), collecting results **in index
/// order** regardless of completion order. Also returns per-worker busy
/// time in seconds (wall-clock telemetry only — it must never reach a
/// deterministic artifact). The campaign scheduler and the stress harness
/// both run on this pool; determinism is the caller's contract (each
/// task's result must be a pure function of its index).
pub fn pool_map<T, F>(n: usize, jobs: usize, run: F) -> (Vec<T>, Vec<f64>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let (slots, busy) = pool_map_partial(n, jobs, None, run);
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("every queue index was claimed by a worker"))
        .collect();
    (results, busy)
}

/// Like [`pool_map`], but workers stop claiming new indices once `stop`
/// flips, so the result vector may end with unclaimed `None` slots (every
/// claimed index still completes and lands in order). The campaign driver
/// passes the SIGINT/SIGTERM flag here: an interrupt drains the pool
/// without starting new experiments.
pub fn pool_map_partial<T, F>(
    n: usize,
    jobs: usize,
    stop: Option<&AtomicBool>,
    run: F,
) -> (Vec<Option<T>>, Vec<f64>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = jobs.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let busy: Vec<Mutex<f64>> = (0..workers).map(|_| Mutex::new(0.0)).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let next = &next;
            let slots = &slots;
            let busy = &busy;
            let run = &run;
            scope.spawn(move || loop {
                if stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let t0 = Instant::now();
                let out = run(i);
                *busy[w].lock().expect("busy lock") += t0.elapsed().as_secs_f64();
                *slots[i].lock().expect("slot lock") = Some(out);
            });
        }
    });
    let results = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("slot lock"))
        .collect();
    let busy = busy
        .into_iter()
        .map(|m| m.into_inner().expect("busy lock"))
        .collect();
    (results, busy)
}

/// What one supervised attempt ([`Supervisor::run_attempt`]) hands back:
/// the payload (a rendered [`Report`] for whole experiments, raw shard
/// values for shard attempts, a rendered artifact for stress cases) or
/// the failure note, and everything drained from the attempt.
#[derive(Debug)]
pub struct Attempted<T> {
    /// The payload, or why the attempt failed: a panic note starting with
    /// [`PANICKED`], or the supervisor's own note (a kill, a leak, a lost
    /// thread).
    pub result: Result<T, String>,
    /// The attempt's records (empty when the thread never reported).
    pub drained: Drained,
}

impl<T> Attempted<T> {
    fn failed(note: String) -> Attempted<T> {
        Attempted {
            result: Err(note),
            drained: Drained::default(),
        }
    }
}

/// What [`Supervisor::retry`] made of one unit: the verdict, the attempts
/// it took, and the successful attempt's payload and records (`None`
/// unless `status` is [`RunStatus::Ok`]).
struct Retried<T> {
    status: RunStatus,
    attempts: u32,
    /// Failure note from the last failed attempt, if any attempt failed.
    note: Option<String>,
    /// Wall-clock across the unit's attempts, seconds.
    wall_s: f64,
    done: Option<(T, Drained)>,
}

/// One shard's supervised run: the shard-granular [`RunOutcome`], carrying
/// raw values instead of a rendered report (the report exists only after
/// [`Supervisor::merge_shard_runs`]).
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Shard index within the experiment.
    pub shard: usize,
    /// How this shard's run ended.
    pub status: RunStatus,
    /// Attempts consumed.
    pub attempts: u32,
    /// Failure note from the last failed attempt, if any attempt failed.
    pub note: Option<String>,
    /// The shard body's raw values (empty unless `status` is `Ok`).
    pub values: Vec<f64>,
    /// Recovery events of the successful attempt.
    pub recovery: Vec<RecoveryEvent>,
    /// Wall-clock across this shard's attempts, seconds.
    pub wall_s: f64,
    /// Budget events charged by the successful attempt.
    pub events: u64,
    /// Telemetry drained from the successful attempt.
    pub telemetry: Option<AttemptTelemetry>,
    /// Guard records drained from the successful attempt.
    pub guards: AttemptGuards,
}

/// Concatenates per-shard telemetry in shard order into one attempt-shaped
/// stream: span events append with their ids re-based past the previous
/// shards' ids (each shard numbers spans from 0, so a plain concat would
/// collide), dropped counts sum, and the sorted aggregates merge through
/// [`AttemptTelemetry::merge_aggregates`].
fn merge_shard_telemetry<'a, I>(parts: I) -> AttemptTelemetry
where
    I: Iterator<Item = &'a AttemptTelemetry>,
{
    let mut merged = AttemptTelemetry::default();
    let mut id_base = 0u64;
    for part in parts {
        let mut max_id = None;
        for ev in &part.events {
            let mut ev = *ev;
            max_id = Some(max_id.map_or(ev.id, |m: u64| m.max(ev.id)));
            ev.id += id_base;
            merged.events.push(ev);
        }
        if let Some(m) = max_id {
            id_base += m + 1;
        }
        merged.dropped_events += part.dropped_events;
        merged.merge_aggregates(&AttemptTelemetry {
            events: Vec::new(),
            dropped_events: 0,
            ..part.clone()
        });
    }
    merged
}

/// Prefix of an attempt's failure note when its body panicked; the rest
/// of the note is the panic message.
pub const PANICKED: &str = "panicked: ";

/// Extracts a readable note from a panic payload.
fn panic_note(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic with non-string payload".to_string());
    format!("{PANICKED}{msg}")
}

/// The placeholder report for an experiment whose every attempt failed.
fn degraded_report(id: &'static str, note: &str) -> Report {
    Report {
        id,
        title: "DEGRADED — experiment failed under supervision".to_string(),
        body: format!(
            "This experiment did not complete; the rest of the campaign ran on.\nlast failure: {note}\n"
        ),
    }
}

/// The placeholder report for a run cut short by a campaign interrupt.
/// Never written to disk as the experiment's artifact — the campaign
/// driver skips report files for interrupted rows so `--resume` re-runs
/// them from scratch.
fn interrupted_report(id: &'static str, note: &str) -> Report {
    Report {
        id,
        title: "INTERRUPTED — campaign stopped before this experiment completed".to_string(),
        body: format!(
            "This experiment was cancelled by a campaign interrupt; rerun with --resume.\ninterrupt: {note}\n"
        ),
    }
}

/// One experiment's row in the campaign manifest: the persisted form of a
/// [`RunOutcome`] (the report text lives in its own file; the recovery
/// event stream is persisted as its summary). Round-trips through JSON so
/// `--resume` can rebuild completed rows from a prior manifest.
///
/// No field is host-timed, so a campaign writes the same rows at any
/// `--jobs N` and across resumes. That makes the manifest the campaign's
/// exact work ledger: `results/manifest.json` is the seed-2021 golden, and
/// a change to any row's `events` is a behaviour change, not noise.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Experiment id.
    pub id: String,
    /// Final status.
    pub status: RunStatus,
    /// Attempts consumed.
    pub attempts: u32,
    /// Budget events charged by the successful attempt (summed over shards).
    pub events: u64,
    /// Failure note, if any attempt failed.
    pub note: Option<String>,
    /// Aggregated recovery actions of the successful attempt.
    pub recovery: RecoverySummary,
}

impl ManifestEntry {
    /// The row of an experiment that has not finished: `interrupted`, with
    /// no attempt or event counted and `note` saying how far it got.
    pub fn unfinished(id: &str, note: String) -> ManifestEntry {
        ManifestEntry {
            id: id.to_string(),
            status: RunStatus::Interrupted,
            attempts: 0,
            events: 0,
            note: Some(note),
            recovery: recovery::summarize(&[]),
        }
    }

    /// The manifest row for a finished outcome.
    pub fn from_outcome(o: &RunOutcome) -> ManifestEntry {
        ManifestEntry {
            id: o.id.to_string(),
            status: o.status,
            attempts: o.attempts,
            events: o.events,
            note: o.note.clone(),
            recovery: recovery::summarize(&o.recovery),
        }
    }

    /// Serializes this row.
    pub fn to_json(&self) -> Json {
        let r = &self.recovery;
        Json::obj(vec![
            ("id", Json::str(self.id.as_str())),
            ("status", Json::str(self.status.as_str())),
            ("attempts", Json::Num(f64::from(self.attempts))),
            ("events", Json::Num(self.events as f64)),
            ("note", self.note.as_deref().map_or(Json::Null, Json::str)),
            (
                "recovery",
                Json::obj(vec![
                    ("events", Json::Num(r.events as f64)),
                    ("outage_s", Json::Num(r.outage_s)),
                    ("mean_detect_s", Json::Num(r.mean_detect_s)),
                    ("rebuffer_s", Json::Num(r.rebuffer_s)),
                    ("failovers", Json::Num(r.failovers as f64)),
                    (
                        "by_kind",
                        Json::Obj(
                            r.by_kind
                                .iter()
                                .map(|(k, n)| (k.clone(), Json::Num(*n as f64)))
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ])
    }

    /// Deserializes one manifest row.
    pub fn from_json(v: &Json) -> Result<ManifestEntry, String> {
        let id = v
            .get("id")
            .and_then(Json::as_str)
            .ok_or("result missing `id`")?
            .to_string();
        let status = v
            .get("status")
            .and_then(Json::as_str)
            .and_then(RunStatus::parse)
            .ok_or_else(|| format!("result `{id}` has a bad `status`"))?;
        let attempts =
            v.get("attempts")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result `{id}` missing `attempts`"))? as u32;
        let events = v
            .get("events")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("result `{id}` missing `events`"))? as u64;
        let note = match v.get("note") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err(format!("result `{id}` has a bad `note`")),
        };
        let r = v
            .get("recovery")
            .ok_or_else(|| format!("result `{id}` missing `recovery`"))?;
        let num = |field: &str| {
            r.get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result `{id}` recovery missing `{field}`"))
        };
        let by_kind = match r.get("by_kind") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|n| (k.clone(), n as usize))
                        .ok_or_else(|| format!("result `{id}` has a bad by_kind count"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(format!("result `{id}` recovery missing `by_kind`")),
        };
        let recovery = RecoverySummary {
            events: num("events")? as usize,
            outage_s: num("outage_s")?,
            mean_detect_s: num("mean_detect_s")?,
            rebuffer_s: num("rebuffer_s")?,
            failovers: num("failovers")? as usize,
            by_kind,
        };
        Ok(ManifestEntry {
            id,
            status,
            attempts,
            events,
            note,
            recovery,
        })
    }
}

/// Serializes campaign rows as a manifest (written as `manifest.json` next
/// to the per-experiment reports).
pub fn manifest_from_entries(entries: &[ManifestEntry], seed: u64, scenario: Option<&str>) -> Json {
    let degraded = entries
        .iter()
        .filter(|e| e.status == RunStatus::Degraded)
        .count();
    Json::obj(vec![
        ("seed", Json::Num(seed as f64)),
        ("scenario", scenario.map_or(Json::Null, Json::str)),
        ("experiments", Json::Num(entries.len() as f64)),
        ("degraded", Json::Num(degraded as f64)),
        (
            "results",
            Json::Arr(entries.iter().map(ManifestEntry::to_json).collect()),
        ),
    ])
}

/// Serializes campaign outcomes as a manifest.
pub fn manifest(outcomes: &[RunOutcome], seed: u64, scenario: Option<&str>) -> Json {
    let entries: Vec<ManifestEntry> = outcomes.iter().map(ManifestEntry::from_outcome).collect();
    manifest_from_entries(&entries, seed, scenario)
}

/// Parses a manifest document back into `(seed, scenario, entries)`.
pub fn parse_manifest(s: &str) -> Result<(u64, Option<String>, Vec<ManifestEntry>), String> {
    let v = Json::parse(s)?;
    let seed = v
        .get("seed")
        .and_then(Json::as_f64)
        .ok_or("manifest missing `seed`")? as u64;
    let scenario = match v.get("scenario") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(_) => return Err("manifest has a bad `scenario`".to_string()),
    };
    let results = v
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("manifest missing `results`")?;
    let entries = results
        .iter()
        .map(ManifestEntry::from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((seed, scenario, entries))
}

/// Writes `contents` to `path` atomically: write to a sibling temp file,
/// flush, rename over the target, then sync the parent directory so the
/// rename itself survives a crash. A kill at any point leaves either the
/// old file or the new one — never a truncated hybrid.
///
/// The temp name is the *full* file name plus a `.tmp` suffix
/// (`a.json` → `a.json.tmp`), never `with_extension` — swapping the
/// extension collides for artifacts sharing a stem (`a.json` / `a.txt`
/// both mapped to `a.tmp`), which corrupts concurrent `--jobs N` writes.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("write_atomic: no file name in {}", path.display()),
        )
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // fsync the directory entry: rename durability is a property of the
    // parent directory, not the file (the crash-consistency contract of
    // `--resume` depends on the renamed manifest actually being there).
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(parent)?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_simcore::{faults, guard, telemetry};

    fn ok_exp(seed: u64) -> Report {
        Report {
            id: "ok",
            title: "fine".into(),
            body: format!("seed={seed}"),
        }
    }

    fn panicky_exp(_seed: u64) -> Report {
        panic!("kaboom");
    }

    fn seed_sensitive_exp(seed: u64) -> Report {
        if seed == 123 {
            panic!("bad seed");
        }
        Report {
            id: "flaky",
            title: "recovered".into(),
            body: format!("seed={seed}"),
        }
    }

    fn runaway_exp(_seed: u64) -> Report {
        let mut q = fiveg_simcore::EventQueue::new();
        let mut i = 0u64;
        loop {
            q.schedule(fiveg_simcore::SimTime::from_millis(i), i);
            q.pop();
            i += 1;
        }
    }

    fn sleepy_exp(_seed: u64) -> Report {
        std::thread::sleep(Duration::from_secs(30));
        ok_exp(0)
    }

    /// Runs `body` as the only shard of a one-shard experiment, so the
    /// retry-policy tests pin `run_shard` as well as `run_one`. The bodies
    /// below wrap the experiment bodies above and return the data seed
    /// they ran with.
    fn run_as_shard(
        sup: &Supervisor,
        id: &'static str,
        body: fn(u64, usize) -> Vec<f64>,
        seed: u64,
    ) -> ShardRun {
        let spec = ShardableExperiment {
            id,
            shards: 1,
            run: body,
            merge: |_, _| unreachable!("run_shard never merges"),
        };
        sup.run_shard(&spec, seed, 0)
    }

    #[test]
    fn success_passes_report_through() {
        let sup = Supervisor::default();
        let out = sup.run_one("ok", ok_exp, 7);
        assert_eq!(out.status, RunStatus::Ok);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.report.body, "seed=7");
        assert!(out.note.is_none());

        let body = |seed, _| {
            ok_exp(seed);
            vec![seed as f64]
        };
        let shard = run_as_shard(&sup, "ok", body, 7);
        assert_eq!(shard.status, RunStatus::Ok);
        assert_eq!(shard.attempts, 1);
        assert_eq!(shard.values, vec![7.0]);
        assert!(shard.note.is_none());
    }

    #[test]
    fn panic_degrades_after_retry() {
        let sup = Supervisor::default();
        let out = sup.run_one("boom", panicky_exp, 1);
        assert_eq!(out.status, RunStatus::Degraded);
        assert_eq!(out.attempts, 2, "one retry consumed");
        assert!(out.note.as_deref().unwrap().contains("kaboom"));
        assert!(out.report.title.contains("DEGRADED"));

        let body = |seed, _| {
            panicky_exp(seed);
            vec![seed as f64]
        };
        let shard = run_as_shard(&sup, "boom", body, 1);
        assert_eq!(shard.status, RunStatus::Degraded);
        assert_eq!(shard.attempts, 2, "one retry consumed");
        assert!(shard.note.as_deref().unwrap().contains("kaboom"));
        assert!(shard.values.is_empty());
    }

    #[test]
    fn retry_with_perturbed_seed_can_recover() {
        let sup = Supervisor::default();
        let out = sup.run_one("flaky", seed_sensitive_exp, 123);
        assert_eq!(out.status, RunStatus::Ok);
        assert_eq!(out.attempts, 2);
        assert!(out.note.as_deref().unwrap().contains("bad seed"));
        assert_ne!(sup.attempt_seed("flaky", 123, 1), 123);

        let body = |seed, _| {
            seed_sensitive_exp(seed);
            vec![seed as f64]
        };
        let shard = run_as_shard(&sup, "flaky", body, 123);
        assert_eq!(shard.status, RunStatus::Ok);
        assert_eq!(shard.attempts, 2);
        assert!(shard.note.as_deref().unwrap().contains("bad seed"));
        // The retry's shard body ran with the perturbed seed.
        assert_eq!(shard.values, vec![sup.attempt_seed("flaky", 123, 1) as f64]);
    }

    #[test]
    fn budget_kills_runaway_loops() {
        let sup = Supervisor {
            event_budget: 10_000,
            ..Supervisor::default()
        };
        let out = sup.run_one("runaway", runaway_exp, 1);
        assert_eq!(out.status, RunStatus::Degraded);
        assert!(
            out.note.as_deref().unwrap().contains(budget::EXHAUSTED_MSG),
            "note: {:?}",
            out.note
        );
    }

    #[test]
    fn deadline_abandons_wedged_threads() {
        // A sleeper never charges the budget, so it cannot observe the
        // cancel — the escalation ladder runs to its end: kill, grace,
        // abandon (the leak of last resort, now at least counted).
        let leaked_before = leaked_threads();
        let sup = Supervisor {
            deadline: Duration::from_millis(50),
            grace: Duration::from_millis(50),
            retries: 0,
            ..Supervisor::default()
        };
        let out = sup.run_one("sleepy", sleepy_exp, 1);
        assert_eq!(out.status, RunStatus::Degraded);
        let note = out.note.as_deref().unwrap();
        assert!(note.contains("deadline"), "note: {note}");
        assert!(note.contains("wedged"), "note: {note}");
        assert!(note.contains("abandoned"), "note: {note}");
        assert!(leaked_threads() > leaked_before, "the leak is counted");
    }

    #[test]
    fn cancelled_attempt_thread_terminates_cooperatively() {
        // Regression for the abandoned-thread leak: a deadline kill on an
        // experiment that charges the budget must unwind the attempt
        // thread — observed by a canary whose destructor only runs if the
        // thread actually exits (the supervisor joins it on the
        // cooperative path, so the flag is settled by the time run_one
        // returns).
        static CANARY_DROPPED: AtomicBool = AtomicBool::new(false);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                CANARY_DROPPED.store(true, Ordering::SeqCst);
            }
        }
        fn charging_forever_exp(_seed: u64) -> Report {
            let _canary = Canary;
            loop {
                fiveg_simcore::budget::charge(64);
            }
        }
        let leaked_before = leaked_threads();
        let sup = Supervisor {
            deadline: Duration::from_millis(100),
            // Huge but not the u64::MAX disarm sentinel: only the cancel
            // plane may kill this loop, never budget exhaustion.
            event_budget: 1 << 60,
            grace: Duration::from_secs(10),
            retries: 0,
            ..Supervisor::default()
        };
        let out = sup.run_one("charger", charging_forever_exp, 1);
        assert_eq!(out.status, RunStatus::Degraded);
        let note = out.note.as_deref().unwrap();
        assert!(note.contains("deadline"), "note: {note}");
        assert!(note.contains("cancelled cooperatively"), "note: {note}");
        assert!(note.contains("events charged at kill"), "note: {note}");
        assert!(
            CANARY_DROPPED.load(Ordering::SeqCst),
            "the attempt thread unwound and exited"
        );
        assert_eq!(leaked_threads(), leaked_before, "no thread leaked");
    }

    #[test]
    fn stall_watchdog_kills_silent_experiments_early() {
        // Charges events, then goes silent for far longer than the stall
        // window while the deadline is still an hour away: the watchdog
        // must cancel it, and the resumed charge loop must observe the
        // kill and unwind.
        fn stall_then_charge_exp(_seed: u64) -> Report {
            fiveg_simcore::budget::charge(3 * fiveg_simcore::cancel::POLL_INTERVAL);
            std::thread::sleep(Duration::from_secs(1));
            loop {
                fiveg_simcore::budget::charge(64);
            }
        }
        let sup = Supervisor {
            deadline: Duration::from_secs(3600),
            event_budget: 1 << 60,
            stall: Duration::from_millis(100),
            grace: Duration::from_secs(10),
            retries: 0,
            ..Supervisor::default()
        };
        let out = sup.run_one("staller", stall_then_charge_exp, 1);
        assert_eq!(out.status, RunStatus::Degraded);
        let note = out.note.as_deref().unwrap();
        assert!(note.contains("stalled"), "note: {note}");
        assert!(note.contains("cancelled cooperatively"), "note: {note}");
    }

    #[test]
    fn zero_charge_experiments_are_exempt_from_the_stall_watchdog() {
        // Some experiments legitimately run long without ever touching the
        // budget (pure-compute reports); the watchdog must not kill them.
        fn quiet_compute_exp(_seed: u64) -> Report {
            std::thread::sleep(Duration::from_millis(300));
            ok_exp(0)
        }
        let sup = Supervisor {
            deadline: Duration::from_secs(3600),
            stall: Duration::from_millis(50),
            retries: 0,
            ..Supervisor::default()
        };
        let out = sup.run_one("quiet", quiet_compute_exp, 1);
        assert_eq!(out.status, RunStatus::Ok, "note: {:?}", out.note);
    }

    #[test]
    fn interrupt_before_start_skips_the_run() {
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(true)));
        let sup = Supervisor {
            interrupt: Some(flag),
            ..Supervisor::default()
        };
        let out = sup.run_one("never", ok_exp, 1);
        assert_eq!(out.status, RunStatus::Interrupted);
        assert_eq!(out.attempts, 0);
        assert!(out
            .note
            .as_deref()
            .unwrap()
            .contains("interrupted before start"));
        assert!(out.report.title.contains("INTERRUPTED"));

        let body = |seed, _| {
            ok_exp(seed);
            vec![seed as f64]
        };
        let shard = run_as_shard(&sup, "never", body, 1);
        assert_eq!(shard.status, RunStatus::Interrupted);
        assert_eq!(shard.attempts, 0);
        assert!(shard
            .note
            .as_deref()
            .unwrap()
            .contains("interrupted before start"));
        assert!(shard.values.is_empty());
    }

    #[test]
    fn interrupt_mid_run_cancels_in_flight_attempts() {
        fn charging_exp_2(_seed: u64) -> Report {
            loop {
                fiveg_simcore::budget::charge(64);
            }
        }
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let sup = Supervisor {
            deadline: Duration::from_secs(3600),
            event_budget: 1 << 60,
            grace: Duration::from_secs(10),
            interrupt: Some(flag),
            ..Supervisor::default()
        };
        let setter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            flag.store(true, Ordering::SeqCst);
        });
        let out = sup.run_one("interruptee", charging_exp_2, 1);
        setter.join().unwrap();
        assert_eq!(out.status, RunStatus::Interrupted, "note: {:?}", out.note);
        assert_eq!(out.attempts, 1, "no retry after an interrupt");
        let note = out.note.as_deref().unwrap();
        assert!(note.contains("interrupted"), "note: {note}");
        assert!(note.contains("cancelled cooperatively"), "note: {note}");
    }

    #[test]
    fn pool_map_partial_stops_claiming_after_the_flag() {
        let stop = AtomicBool::new(false);
        let (slots, busy) = pool_map_partial(4, 1, Some(&stop), |i| {
            if i == 1 {
                stop.store(true, Ordering::SeqCst);
            }
            i
        });
        assert_eq!(slots, vec![Some(0), Some(1), None, None]);
        assert_eq!(busy.len(), 1);
    }

    #[test]
    fn interrupted_status_round_trips_through_the_manifest() {
        assert_eq!(
            RunStatus::parse("interrupted"),
            Some(RunStatus::Interrupted)
        );
        assert_eq!(RunStatus::Interrupted.as_str(), "interrupted");
        let entry = ManifestEntry {
            id: "x".to_string(),
            status: RunStatus::Interrupted,
            attempts: 1,
            events: 0,
            note: Some("interrupted".to_string()),
            recovery: RecoverySummary::empty(),
        };
        let parsed = ManifestEntry::from_json(&entry.to_json()).expect("parses");
        assert_eq!(parsed.status, RunStatus::Interrupted);
    }

    #[test]
    fn one_failure_does_not_stop_the_campaign() {
        let sup = Supervisor::default();
        let entries: [(&'static str, Experiment); 3] =
            [("ok", ok_exp), ("boom", panicky_exp), ("ok2", ok_exp)];
        let outs = sup.run_registry(&entries, 9);
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[0].status, RunStatus::Ok);
        assert_eq!(outs[1].status, RunStatus::Degraded);
        assert_eq!(outs[2].status, RunStatus::Ok);
        // Every entry rendered a report.
        for o in &outs {
            assert!(!o.report.render().is_empty());
        }
    }

    #[test]
    fn manifest_counts_degraded() {
        let sup = Supervisor::default();
        let entries: [(&'static str, Experiment); 2] = [("ok", ok_exp), ("boom", panicky_exp)];
        let outs = sup.run_registry(&entries, 5);
        let m = manifest(&outs, 5, Some("chaos")).render();
        assert!(m.contains("\"seed\":5"));
        assert!(m.contains("\"scenario\":\"chaos\""));
        assert!(m.contains("\"degraded\":1"));
        assert!(m.contains("\"id\":\"boom\""));
    }

    #[test]
    fn manifest_round_trips_through_parse() {
        let sup = Supervisor::with_scenario(FaultScenario::chaos());
        fn recovering_exp(_seed: u64) -> Report {
            recovery::record(
                fiveg_simcore::recovery::RecoveryKind::TcpRto,
                3.0,
                1.0,
                4.0,
                || "test".into(),
            );
            Report {
                id: "rec",
                title: "t".into(),
                body: "b".into(),
            }
        }
        let entries: [(&'static str, Experiment); 2] =
            [("rec", recovering_exp), ("boom", panicky_exp)];
        let outs = sup.run_registry(&entries, 5);
        assert_eq!(outs[0].recovery.len(), 1, "collector captured the event");
        let text = manifest(&outs, 5, Some("chaos")).render();
        let (seed, scenario, parsed) = parse_manifest(&text).expect("parses");
        assert_eq!(seed, 5);
        assert_eq!(scenario.as_deref(), Some("chaos"));
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].recovery.events, 1);
        assert_eq!(parsed[0].recovery.by_kind, vec![("tcp-rto".to_string(), 1)]);
        assert_eq!(parsed[1].status, RunStatus::Degraded);
        // Re-rendering parsed entries is byte-identical — resume-written
        // manifests hash the same as fresh ones.
        assert_eq!(
            manifest_from_entries(&parsed, seed, scenario.as_deref()).render(),
            text
        );
    }

    #[test]
    fn parallel_run_matches_serial_byte_for_byte() {
        fn exp_a(seed: u64) -> Report {
            Report {
                id: "a",
                title: "a".into(),
                body: format!("seed={seed}"),
            }
        }
        fn exp_b(seed: u64) -> Report {
            // Consume some budget so events flow through the outcome.
            fiveg_simcore::budget::charge(17);
            Report {
                id: "b",
                title: "b".into(),
                body: format!("seed={}", seed.wrapping_mul(3)),
            }
        }
        fn exp_slow(seed: u64) -> Report {
            // Finishes *after* later queue entries, exercising ordered
            // collection under out-of-order completion.
            std::thread::sleep(Duration::from_millis(60));
            Report {
                id: "slow",
                title: "slow".into(),
                body: format!("seed={seed}"),
            }
        }
        let entries: [(&'static str, Experiment); 4] = [
            ("slow", exp_slow),
            ("a", exp_a),
            ("boom", panicky_exp),
            ("b", exp_b),
        ];
        for scenario in [None, Some(FaultScenario::chaos())] {
            let sup = Supervisor {
                scenario,
                ..Supervisor::default()
            };
            let serial = manifest(&sup.run_registry(&entries, 2021), 2021, Some("x")).render();
            let parallel = manifest(
                &sup.run_registry_jobs(&entries, 2021, 4, |_, _| {}),
                2021,
                Some("x"),
            )
            .render();
            assert_eq!(serial, parallel, "jobs=4 must not perturb the manifest");
        }
    }

    #[test]
    fn on_done_fires_once_per_entry_with_matching_ids() {
        let entries: [(&'static str, Experiment); 3] =
            [("ok", ok_exp), ("boom", panicky_exp), ("ok2", ok_exp)];
        let sup = Supervisor::default();
        let seen: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
        let outs = sup.run_registry_jobs(&entries, 5, 3, |i, o| {
            seen.lock().unwrap().push((i, o.id.to_string()));
        });
        assert_eq!(outs.len(), 3);
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        assert_eq!(
            seen,
            vec![
                (0, "ok".to_string()),
                (1, "boom".to_string()),
                (2, "ok2".to_string())
            ]
        );
        // Collection order is entry order even if completion was not.
        assert_eq!(outs[0].id, "ok");
        assert_eq!(outs[1].id, "boom");
        assert_eq!(outs[2].id, "ok2");
    }

    #[test]
    fn outcomes_carry_wall_clock_and_event_counts() {
        fn charging_exp(_seed: u64) -> Report {
            fiveg_simcore::budget::charge(123);
            Report {
                id: "charge",
                title: "t".into(),
                body: "b".into(),
            }
        }
        let out = Supervisor::default().run_one("charge", charging_exp, 1);
        assert_eq!(out.events, 123);
        assert!(out.wall_s > 0.0);
        // The exact event count is persisted, right after `attempts`; the
        // host-dependent wall clock never reaches the manifest row.
        let rendered = ManifestEntry::from_outcome(&out).to_json().render();
        assert!(
            rendered.contains("\"attempts\":1,\"events\":123,"),
            "manifest row: {rendered}"
        );
        assert!(!rendered.contains("wall"), "manifest row: {rendered}");
    }

    #[test]
    fn manifest_row_round_trips_its_event_count() {
        let entry = ManifestEntry {
            id: "fig15".to_string(),
            status: RunStatus::Ok,
            attempts: 2,
            events: 16_051_803,
            note: Some("retried".to_string()),
            recovery: RecoverySummary::empty(),
        };
        let json = entry.to_json();
        let parsed = ManifestEntry::from_json(&json).expect("parses");
        assert_eq!(parsed, entry);
        assert_eq!(parsed.to_json().render(), json.render());
    }

    #[test]
    fn manifest_row_without_events_is_rejected_by_name() {
        // A row written before `events` was persisted: no panic, and the
        // error names the experiment and the missing field.
        let old = Json::parse(
            r#"{"id":"fig9","status":"ok","attempts":1,"note":null,"recovery":{"events":0,"outage_s":0,"mean_detect_s":0,"rebuffer_s":0,"failovers":0,"by_kind":{}}}"#,
        )
        .expect("valid JSON");
        let err = ManifestEntry::from_json(&old).expect_err("missing events");
        assert_eq!(err, "result `fig9` missing `events`");
    }

    #[test]
    fn no_scenario_collects_no_recovery_events() {
        let sup = Supervisor::default();
        let out = sup.run_one("ok", ok_exp, 7);
        assert!(out.recovery.is_empty());
        let entry = ManifestEntry::from_outcome(&out);
        assert_eq!(entry.recovery, RecoverySummary::empty());
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("fiveg-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("manifest.json");
        write_atomic(&path, "first").expect("write");
        write_atomic(&path, "second").expect("overwrite");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "second");
        assert!(!path.with_extension("tmp").exists(), "old tmp name unused");
        assert!(
            !dir.join("manifest.json.tmp").exists(),
            "suffixed tmp cleaned up"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_same_stem_concurrent_writes_do_not_collide() {
        // Regression: `path.with_extension("tmp")` mapped `exp.json` and
        // `exp.txt` to the SAME temp file, so two workers writing the two
        // artifacts concurrently could rename each other's half-written
        // bytes into place (or fail the rename outright). The suffixed
        // temp name keeps the pair disjoint; hammer it to be sure.
        let dir = std::env::temp_dir().join(format!(
            "fiveg-atomic-stem-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let json = dir.join("exp.json");
        let txt = dir.join("exp.txt");
        std::thread::scope(|scope| {
            let j = scope.spawn(|| {
                for _ in 0..200 {
                    write_atomic(&json, "json-contents").expect("json write");
                }
            });
            let t = scope.spawn(|| {
                for _ in 0..200 {
                    write_atomic(&txt, "txt-contents").expect("txt write");
                }
            });
            j.join().expect("json thread");
            t.join().expect("txt thread");
        });
        assert_eq!(
            std::fs::read_to_string(&json).expect("json"),
            "json-contents"
        );
        assert_eq!(std::fs::read_to_string(&txt).expect("txt"), "txt-contents");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_rejects_pathless_targets() {
        assert!(write_atomic(Path::new("/"), "x").is_err());
    }

    #[test]
    fn guard_violations_flow_into_the_outcome_not_the_manifest() {
        fn violating_exp(_seed: u64) -> Report {
            guard::check("test", "deliberately-broken", false, 2.5, || {
                "canary".into()
            });
            Report {
                id: "viol",
                title: "t".into(),
                body: "b".into(),
            }
        }
        let out = Supervisor::default().run_one("viol", violating_exp, 1);
        assert_eq!(out.status, RunStatus::Ok, "Record policy never degrades");
        assert_eq!(out.guards.violations.len(), 1);
        assert_eq!(out.guards.violations[0].invariant, "deliberately-broken");
        // The manifest row never carries guard state — bit-identity with
        // the plane off depends on it.
        let rendered = ManifestEntry::from_outcome(&out).to_json().render();
        assert!(!rendered.contains("guard"), "manifest row: {rendered}");

        let off = Supervisor {
            guards: None,
            ..Supervisor::default()
        }
        .run_one("viol", violating_exp, 1);
        assert!(off.guards.is_clean());
        assert_eq!(off.guards.checks, 0, "no collector, no checks counted");
    }

    #[test]
    fn retry_after_panic_starts_with_clean_planes() {
        use std::sync::atomic::AtomicBool;
        static POISONED_ONCE: AtomicBool = AtomicBool::new(false);
        fn poisoning_exp(_seed: u64) -> Report {
            if !POISONED_ONCE.swap(true, Ordering::SeqCst) {
                // First attempt: dirty every per-attempt plane, then die
                // mid-experiment with the collectors still half-full.
                recovery::record(
                    fiveg_simcore::recovery::RecoveryKind::TcpRto,
                    1.0,
                    0.5,
                    2.0,
                    || "poison".into(),
                );
                telemetry::count("test/poison", 1);
                guard::check("test", "poison", false, 1.0, || "poison".into());
                fiveg_simcore::budget::charge(1_000);
                panic!("first attempt dies with dirty planes");
            }
            // The retry must see freshly-installed, empty planes: nothing
            // recorded by the panicked attempt may leak across.
            let rec = recovery::drain();
            assert!(rec.is_empty(), "retry inherited recovery events: {rec:?}");
            let telem = telemetry::drain();
            assert!(
                telem.counters.iter().all(|(n, _)| *n != "test/poison"),
                "retry inherited telemetry: {:?}",
                telem.counters
            );
            let guards = guard::drain();
            assert!(guards.is_clean(), "retry inherited guard state: {guards:?}");
            assert!(
                fiveg_simcore::budget::consumed() == Some(0),
                "retry inherited budget consumption"
            );
            Report {
                id: "poison",
                title: "clean".into(),
                body: "retry saw empty planes".into(),
            }
        }
        let sup = Supervisor {
            scenario: Some(FaultScenario::chaos()),
            telemetry: true,
            ..Supervisor::default()
        };
        let out = sup.run_one("poison", poisoning_exp, 7);
        assert_eq!(out.status, RunStatus::Ok, "note: {:?}", out.note);
        assert_eq!(out.attempts, 2);
    }

    #[test]
    fn pool_map_collects_in_index_order() {
        let (results, busy) = pool_map(16, 4, |i| {
            if i % 3 == 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
            i * i
        });
        assert_eq!(results, (0..16).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(busy.len(), 4);
    }

    #[test]
    fn scenario_installs_plane_only_inside_the_experiment() {
        fn plane_probe(_seed: u64) -> Report {
            Report {
                id: "probe",
                title: "plane".into(),
                body: format!("enabled={}", faults::enabled()),
            }
        }
        let sup = Supervisor::with_scenario(FaultScenario::chaos());
        let out = sup.run_one("probe", plane_probe, 1);
        assert_eq!(out.report.body, "enabled=true");
        assert!(!faults::enabled(), "plane never leaks to the caller thread");

        let plain = Supervisor::default().run_one("probe", plane_probe, 1);
        assert_eq!(plain.report.body, "enabled=false");
    }
}
