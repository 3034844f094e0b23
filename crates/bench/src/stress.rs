//! The deterministic stress/shrink harness: randomized scenario ×
//! fault-schedule × parameter cases, an automatic shrinker, and replayable
//! reproducers.
//!
//! `figures --stress N` draws `N` cases from a seeded generator (each case
//! = one experiment run under one fault scenario with a perturbed seed and
//! event budget), runs them on the campaign worker pool
//! ([`crate::runner::pool_map`]), and classifies every failure: a panic, a
//! blown event budget, a non-finite number in the rendered artifact, or a
//! guard-plane violation ([`fiveg_simcore::guard`]). Each failing case is
//! then minimized — fault events delta-debugged away, the schedule horizon
//! bisected, the event budget halved — while the failure *key* (verdict +
//! violated invariant) is preserved, and the minimal case is written as a
//! reproducer JSON that `figures --repro <file>` replays exactly.
//!
//! Everything here is deterministic by construction: cases are pure
//! functions of `(stress seed, case index)`, each case runs as one
//! supervised attempt on the runner's own attempt path
//! ([`crate::runner::Supervisor::run_attempt`] — so a shrunk, hand-edited
//! schedule installs exactly like a generated one), and the summary table
//! carries sim-side facts only (no wall-clock), so two runs of the same
//! seed produce byte-identical `stress.txt` files.

use crate::experiments::{self, Experiment};
use crate::json::Json;
use crate::report::Table;
use crate::runner::{self, Supervisor};
use fiveg_simcore::attempt::Attempt;
use fiveg_simcore::budget::EXHAUSTED_MSG;
use fiveg_simcore::faults::{FaultScenario, FaultSchedule};
use fiveg_simcore::guard::{self, GuardPolicy};
use fiveg_simcore::RngStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Reproducer file format version.
pub const REPRO_VERSION: f64 = 1.0;

/// Smallest event budget the generator draws. Far above what any registry
/// experiment legitimately charges is *not* wanted here — stress cases are
/// allowed to trip the budget supervisor; the classifier records those as
/// [`Verdict::BudgetExhausted`] rather than failures of the simulators.
pub const MIN_CASE_BUDGET: u64 = 200_000_000;

/// Largest event budget the generator draws (the campaign default).
pub const MAX_CASE_BUDGET: u64 = 2_000_000_000;

/// Configuration of one stress campaign.
#[derive(Debug, Clone)]
pub struct StressConfig {
    /// Number of generated cases.
    pub cases: usize,
    /// Master seed; every case derives from `(seed, index)` only.
    pub seed: u64,
    /// Pin every case to this fault scenario (`None` = draw per case).
    pub scenario: Option<String>,
    /// Inject the canary violation into every case (test hook: a
    /// deliberately broken invariant the harness must find and shrink).
    pub canary: bool,
    /// Worker threads for the case sweep.
    pub jobs: usize,
    /// Wall-clock deadline per case run (safety net only — a triggered
    /// deadline is nondeterministic, so it must be generous enough to
    /// never fire on healthy experiments). Cases run under the
    /// supervisor's escalation ladder, so a case that blows it unwinds
    /// cooperatively instead of leaking its thread.
    pub deadline: Duration,
    /// Upper bound on the event budgets the generator draws (the
    /// campaign's `--event-budget` threads through here, so a lowered
    /// campaign budget also lowers the stress sweep's — and with it the
    /// starting point of the shrinker's budget-halving phase). At the
    /// default [`MAX_CASE_BUDGET`] the draw is unchanged.
    pub max_budget: u64,
    /// Restrict generation to these experiment ids (`None` = whole
    /// registry). Test hook for cheap, targeted sweeps.
    pub experiments: Option<Vec<String>>,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            cases: 16,
            seed: crate::CAMPAIGN_SEED,
            scenario: None,
            canary: false,
            jobs: 1,
            deadline: Duration::from_secs(120),
            max_budget: MAX_CASE_BUDGET,
            experiments: None,
        }
    }
}

/// One generated (or shrunk, or replayed) stress case.
#[derive(Debug, Clone, PartialEq)]
pub struct StressCase {
    /// Index within the stress campaign (part of the reproducer name).
    pub id: usize,
    /// Registry experiment id.
    pub experiment: String,
    /// Fault scenario name (`None` = no fault plane installed).
    pub scenario: Option<String>,
    /// Seed handed to the experiment and the schedule generator.
    pub seed: u64,
    /// Event budget armed for the run.
    pub event_budget: u64,
    /// Shrinker state: keep only these (time-sorted) event indices of the
    /// generated schedule (`None` = all).
    pub keep: Option<Vec<usize>>,
    /// Shrinker state: truncate the schedule to events starting before
    /// this horizon (`None` = full horizon).
    pub horizon_s: Option<f64>,
    /// Inject the canary violation (test hook).
    pub canary: bool,
}

impl StressCase {
    /// The effective fault schedule: generated from `(seed, scenario)`,
    /// then restricted/truncated by the shrinker state. `Err` on an
    /// unknown scenario name (a hand-edited reproducer).
    pub fn schedule(&self) -> Result<Option<FaultSchedule>, String> {
        let Some(name) = &self.scenario else {
            return Ok(None);
        };
        let scenario = FaultScenario::by_name(name)
            .ok_or_else(|| format!("unknown fault scenario {name:?}"))?;
        let mut schedule = FaultSchedule::generate(self.seed, &scenario);
        if let Some(keep) = &self.keep {
            schedule = schedule.restricted(keep);
        }
        if let Some(h) = self.horizon_s {
            schedule = schedule.truncated(h);
        }
        Ok(Some(schedule))
    }

    /// Case size for shrink accounting: the number of fault events the
    /// case installs (0 for a plane-free case).
    pub fn size(&self) -> usize {
        self.schedule()
            .ok()
            .flatten()
            .map_or(0, |s| s.events().len())
    }

    /// Serializes the case for a reproducer file.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::Num(self.id as f64)),
            ("experiment", Json::str(self.experiment.clone())),
            (
                "scenario",
                match &self.scenario {
                    Some(s) => Json::str(s.clone()),
                    None => Json::Null,
                },
            ),
            // Full-range u64 — a JSON number (f64) would round above 2^53
            // and replay a *different* seed, so seeds travel as strings.
            ("seed", Json::str(self.seed.to_string())),
            ("event_budget", Json::Num(self.event_budget as f64)),
            (
                "keep",
                match &self.keep {
                    Some(k) => Json::Arr(k.iter().map(|&i| Json::Num(i as f64)).collect()),
                    None => Json::Null,
                },
            ),
            (
                "horizon_s",
                match self.horizon_s {
                    Some(h) => Json::Num(h),
                    None => Json::Null,
                },
            ),
            ("canary", Json::Bool(self.canary)),
        ])
    }

    /// Parses a case back from a reproducer file.
    pub fn from_json(v: &Json) -> Result<StressCase, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("case: missing number {key:?}"))
        };
        let experiment = v
            .get("experiment")
            .and_then(Json::as_str)
            .ok_or("case: missing experiment")?
            .to_string();
        let scenario = match v.get("scenario") {
            Some(Json::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let seed = v
            .get("seed")
            .and_then(Json::as_str)
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or("case: missing or non-decimal seed")?;
        let keep = match v.get("keep") {
            Some(Json::Arr(items)) => Some(
                items
                    .iter()
                    .map(|i| i.as_f64().map(|x| x as usize).ok_or("case: bad keep index"))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            _ => None,
        };
        let horizon_s = v.get("horizon_s").and_then(Json::as_f64);
        let canary = matches!(v.get("canary"), Some(Json::Bool(true)));
        Ok(StressCase {
            id: num("id")? as usize,
            experiment,
            scenario,
            seed,
            event_budget: num("event_budget")? as u64,
            keep,
            horizon_s,
            canary,
        })
    }
}

/// How a stress case ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Ran to completion, clean guards, finite artifact.
    Pass,
    /// The guard plane recorded at least one invariant violation.
    GuardViolation,
    /// The experiment panicked (other than a budget trip).
    Panic,
    /// The event budget supervisor killed the run.
    BudgetExhausted,
    /// The rendered artifact contains a non-finite number.
    NonFinite,
    /// The supervisor cancelled or abandoned the case: the wall-clock
    /// safety deadline or the stall watchdog fired (nondeterministic —
    /// treated as a failure but never shrunk or written up as a
    /// reproducer, since it cannot replay reliably).
    Deadline,
}

impl Verdict {
    /// Stable name, used in tables and reproducer files.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::GuardViolation => "guard-violation",
            Verdict::Panic => "panic",
            Verdict::BudgetExhausted => "budget-exhausted",
            Verdict::NonFinite => "non-finite",
            Verdict::Deadline => "deadline",
        }
    }

    /// Parses a verdict name.
    pub fn parse(s: &str) -> Option<Verdict> {
        [
            Verdict::Pass,
            Verdict::GuardViolation,
            Verdict::Panic,
            Verdict::BudgetExhausted,
            Verdict::NonFinite,
            Verdict::Deadline,
        ]
        .into_iter()
        .find(|v| v.as_str() == s)
    }

    /// True for any non-pass outcome.
    pub fn failed(self) -> bool {
        self != Verdict::Pass
    }
}

/// The classified outcome of one case run.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseOutcome {
    /// Classification.
    pub verdict: Verdict,
    /// Deterministic failure signature: the first guard violation's
    /// rendering, the panic note, or a short classifier tag. Empty on a
    /// pass.
    pub signature: String,
    /// Total guard violations the run recorded.
    pub violations: u64,
}

impl CaseOutcome {
    /// The shrink-stable failure key: verdict plus the violated invariant
    /// (the signature up to its sim-time, which legitimately moves as
    /// events are dropped).
    pub fn failure_key(&self) -> String {
        let prefix = self
            .signature
            .split(" @ ")
            .next()
            .unwrap_or(&self.signature);
        format!("{}:{}", self.verdict.as_str(), prefix)
    }
}

/// True when `text` contains a standalone `NaN` token (word-boundary
/// checked, so "NaNometers" doesn't trip).
///
/// Only `NaN` counts as non-finite here: the repo's artifact formatter
/// (`bench::expect::fmt_num`, and e.g. fig17's stall-increase column)
/// deliberately renders an undefined ratio as the token `inf`, so `inf`
/// in an artifact is a documented sentinel, not a numeric escape. A NaN,
/// by contrast, is always an arithmetic bug.
pub fn contains_non_finite(text: &str) -> bool {
    let bytes = text.as_bytes();
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let token = "NaN";
    let mut from = 0;
    while let Some(pos) = text[from..].find(token) {
        let start = from + pos;
        let end = start + token.len();
        let ok_before = start == 0 || !is_word(bytes[start - 1]);
        let ok_after = end == bytes.len() || !is_word(bytes[end]);
        if ok_before && ok_after {
            return true;
        }
        from = start + 1;
    }
    false
}

/// Runs one case as a supervised attempt and classifies the result.
/// `Err` only on a malformed case (unknown experiment or scenario).
///
/// A panic outranks recorded violations, except that a budget trip
/// classifies as itself. A case the supervisor cancelled or abandoned —
/// the deadline, the stall watchdog — is a `deadline` verdict whose
/// signature is the supervisor's reason (its note up to the first `; `),
/// so `stress.txt` never depends on which side of the race the kill
/// landed.
pub fn run_case(case: &StressCase, deadline: Duration) -> Result<CaseOutcome, String> {
    let f: Experiment = experiments::registry()
        .into_iter()
        .find(|(id, _)| *id == case.experiment)
        .map(|(_, f)| f)
        .ok_or_else(|| format!("unknown experiment {:?}", case.experiment))?;
    let attempt = Attempt::new()
        .faults(case.schedule()?)
        .budget(case.event_budget)
        .guards(GuardPolicy::Record);
    let (seed, canary) = (case.seed, case.canary);
    let supervisor = Supervisor {
        deadline,
        ..Supervisor::default()
    };
    let run = supervisor.run_attempt(format!("stress-{}", case.id), attempt, move || {
        if canary {
            guard::check("stress", "canary", false, 0.0, || {
                "deliberately broken invariant (canary)".to_string()
            });
        }
        f(seed).render()
    });
    let guards = run.drained.guards;
    let outcome = |verdict, signature, violations| CaseOutcome {
        verdict,
        signature,
        violations,
    };
    Ok(match run.result {
        Ok(_) if !guards.is_clean() => outcome(
            Verdict::GuardViolation,
            guards.violations[0].signature(),
            guards.violation_count(),
        ),
        Ok(rendered) if contains_non_finite(&rendered) => outcome(
            Verdict::NonFinite,
            "NaN in rendered artifact".to_string(),
            0,
        ),
        Ok(_) => outcome(Verdict::Pass, String::new(), 0),
        Err(note) => match note.strip_prefix(runner::PANICKED) {
            Some(msg) if msg.starts_with(EXHAUSTED_MSG) => outcome(
                Verdict::BudgetExhausted,
                EXHAUSTED_MSG.to_string(),
                guards.violation_count(),
            ),
            Some(msg) => outcome(Verdict::Panic, msg.to_string(), guards.violation_count()),
            None => {
                let reason = note.split("; ").next().unwrap_or(&note);
                outcome(Verdict::Deadline, reason.to_string(), 0)
            }
        },
    })
}

/// Generates the campaign's cases: pure function of the config (and
/// through it the stress seed), independent of execution order.
pub fn generate_cases(cfg: &StressConfig) -> Vec<StressCase> {
    let registry = experiments::registry();
    let ids: Vec<&str> = match &cfg.experiments {
        Some(list) => registry
            .iter()
            .map(|(id, _)| *id)
            .filter(|id| list.iter().any(|x| x == id))
            .collect(),
        None => registry.iter().map(|(id, _)| *id).collect(),
    };
    assert!(!ids.is_empty(), "no experiments to stress");
    let scenarios = FaultScenario::names();
    (0..cfg.cases)
        .map(|i| {
            let mut rng = RngStream::new(cfg.seed, &format!("stress/case/{i}"));
            let experiment = rng.choose(&ids).to_string();
            let scenario = match &cfg.scenario {
                Some(pinned) => Some(pinned.clone()),
                None => Some(rng.choose(&scenarios).to_string()),
            };
            let seed = rng.next_u64();
            // Draw in [lo, max_budget): at the default cap this is exactly
            // the historical `MIN + r % (MAX - MIN)` draw (byte-identical
            // cases); a lowered campaign `--event-budget` pulls the whole
            // band down with it.
            let lo = MIN_CASE_BUDGET.min(cfg.max_budget);
            let span = cfg.max_budget.saturating_sub(lo).max(1);
            let event_budget = lo + rng.next_u64() % span;
            StressCase {
                id: i,
                experiment,
                scenario,
                seed,
                event_budget,
                keep: None,
                horizon_s: None,
                canary: cfg.canary,
            }
        })
        .collect()
}

/// Hard cap on shrinker candidate runs per failing case.
const MAX_SHRINK_RUNS: usize = 160;

/// Minimizes a failing case while preserving its
/// [`CaseOutcome::failure_key`]. Returns the minimal case, its outcome,
/// and the number of candidate runs spent.
pub fn shrink(
    case: &StressCase,
    outcome: &CaseOutcome,
    deadline: Duration,
) -> (StressCase, CaseOutcome, usize) {
    let key = outcome.failure_key();
    let mut best = case.clone();
    let mut best_outcome = outcome.clone();
    let mut runs = 0usize;
    let try_candidate = |candidate: &StressCase, runs: &mut usize| -> Option<CaseOutcome> {
        if *runs >= MAX_SHRINK_RUNS {
            return None;
        }
        *runs += 1;
        match run_case(candidate, deadline) {
            Ok(o) if o.verdict.failed() && o.failure_key() == key => Some(o),
            _ => None,
        }
    };

    // Phase 1: delta-debug the fault events (classic ddmin chunk halving
    // over the kept time-sorted indices).
    let total_events = best.size();
    if best.scenario.is_some() && total_events > 0 {
        let mut kept: Vec<usize> = match &best.keep {
            Some(k) => k.clone(),
            None => (0..total_events).collect(),
        };
        let mut chunk = kept.len().div_ceil(2).max(1);
        while chunk >= 1 && !kept.is_empty() && runs < MAX_SHRINK_RUNS {
            let mut i = 0;
            let mut reduced = false;
            while i < kept.len() {
                let mut candidate_keep = kept.clone();
                let hi = (i + chunk).min(candidate_keep.len());
                candidate_keep.drain(i..hi);
                let candidate = StressCase {
                    keep: Some(candidate_keep.clone()),
                    ..best.clone()
                };
                if let Some(o) = try_candidate(&candidate, &mut runs) {
                    kept = candidate_keep;
                    best = candidate;
                    best_outcome = o;
                    reduced = true;
                } else {
                    i += chunk;
                }
            }
            if chunk == 1 && !reduced {
                break;
            }
            if !reduced {
                chunk = (chunk / 2).max(1);
            }
        }
    }

    // Phase 2: drop the scenario entirely when no events are left to
    // matter (the failure is schedule-independent).
    if best.scenario.is_some() {
        let candidate = StressCase {
            scenario: None,
            keep: None,
            horizon_s: None,
            ..best.clone()
        };
        if let Some(o) = try_candidate(&candidate, &mut runs) {
            best = candidate;
            best_outcome = o;
        }
    }

    // Phase 3: bisect the schedule horizon (only meaningful with events
    // still installed).
    if best.scenario.is_some() && best.size() > 0 {
        let mut lo = 0.0f64;
        let mut hi = best.horizon_s.unwrap_or_else(|| {
            best.schedule()
                .ok()
                .flatten()
                .and_then(|s| s.events().last().map(|e| e.start_s + 1.0))
                .unwrap_or(3_600.0)
        });
        for _ in 0..12 {
            if runs >= MAX_SHRINK_RUNS {
                break;
            }
            let mid = (lo + hi) / 2.0;
            let candidate = StressCase {
                horizon_s: Some(mid),
                ..best.clone()
            };
            match try_candidate(&candidate, &mut runs) {
                Some(o) => {
                    hi = mid;
                    best = candidate;
                    best_outcome = o;
                }
                None => lo = mid,
            }
        }
    }

    // Phase 4: halve the event budget while the same failure reproduces.
    for _ in 0..20 {
        if runs >= MAX_SHRINK_RUNS || best.event_budget <= 1_000 {
            break;
        }
        let candidate = StressCase {
            event_budget: (best.event_budget / 2).max(1_000),
            ..best.clone()
        };
        match try_candidate(&candidate, &mut runs) {
            Some(o) => {
                best = candidate;
                best_outcome = o;
            }
            None => break,
        }
    }

    (best, best_outcome, runs)
}

/// One case's full stress record.
#[derive(Debug, Clone)]
pub struct StressResult {
    /// The generated case.
    pub case: StressCase,
    /// Its classified outcome.
    pub outcome: CaseOutcome,
    /// For failures that replay (every verdict but `deadline`): the
    /// shrunk case, its outcome, and shrink runs spent.
    pub shrunk: Option<(StressCase, CaseOutcome, usize)>,
}

/// The whole campaign's records, in case order.
#[derive(Debug, Clone)]
pub struct StressReport {
    /// Per-case records, index = case id.
    pub results: Vec<StressResult>,
    /// The stress seed (for reproducer files).
    pub seed: u64,
}

impl StressReport {
    /// Number of failed cases.
    pub fn failures(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.outcome.verdict.failed())
            .count()
    }
}

/// Runs the full stress campaign: generate, sweep on the worker pool,
/// shrink every failure in place (still inside the pool, so a campaign
/// with several failures shrinks them concurrently). A `deadline` verdict
/// does not replay deterministically, so it is neither shrunk nor written
/// up as a reproducer; it still counts as a failure.
pub fn run_stress(cfg: &StressConfig) -> StressReport {
    let cases = generate_cases(cfg);
    let deadline = cfg.deadline;
    let (results, _busy) = crate::runner::pool_map(cases.len(), cfg.jobs, |i| {
        let case = &cases[i];
        match run_case(case, deadline) {
            Ok(outcome) => {
                let shrunk = (outcome.verdict.failed() && outcome.verdict != Verdict::Deadline)
                    .then(|| shrink(case, &outcome, deadline));
                StressResult {
                    case: case.clone(),
                    outcome,
                    shrunk,
                }
            }
            Err(e) => StressResult {
                case: case.clone(),
                outcome: CaseOutcome {
                    verdict: Verdict::Panic,
                    signature: format!("malformed case: {e}"),
                    violations: 0,
                },
                shrunk: None,
            },
        }
    });
    StressReport {
        results,
        seed: cfg.seed,
    }
}

/// Renders the deterministic campaign summary (`stress.txt`): sim-side
/// facts only — case identity, verdict, sizes — never wall-clock.
pub fn stress_table(report: &StressReport) -> String {
    let mut t = Table::new(vec![
        "case",
        "experiment",
        "scenario",
        "verdict",
        "size",
        "shrunk",
        "signature",
    ]);
    for r in &report.results {
        let scenario = r.case.scenario.as_deref().unwrap_or("-").to_string();
        let (shrunk_size, signature) = match &r.shrunk {
            Some((c, o, _)) => (format!("{}", c.size()), o.signature.clone()),
            None => (
                "-".to_string(),
                if r.outcome.verdict.failed() {
                    r.outcome.signature.clone()
                } else {
                    String::new()
                },
            ),
        };
        t.row(vec![
            format!("{}", r.case.id),
            r.case.experiment.clone(),
            scenario,
            r.outcome.verdict.as_str().to_string(),
            format!("{}", r.case.size()),
            shrunk_size,
            signature,
        ]);
    }
    let mut out = String::new();
    out.push_str(&format!(
        "stress campaign: seed {} — {} cases, {} failed\n\n",
        report.seed,
        report.results.len(),
        report.failures()
    ));
    out.push_str(&t.render());
    out
}

/// Writes `report` into `dir`: `stress.txt`, then one
/// `repro-c<case>-<experiment>.json` reproducer per shrunk failure.
/// Returns each reproducer's shrunk case, shrink runs and path, in case
/// order; `Err` names what could not be created or written.
pub fn write_report<'a>(
    report: &'a StressReport,
    dir: &Path,
) -> Result<Vec<(&'a StressCase, usize, PathBuf)>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let write = |path: &Path, contents: &str| {
        crate::runner::write_atomic(path, contents)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write(&dir.join("stress.txt"), &stress_table(report))?;
    let mut written = Vec::new();
    for (case, outcome, runs) in report.results.iter().filter_map(|r| r.shrunk.as_ref()) {
        let path = dir.join(format!("repro-c{}-{}.json", case.id, case.experiment));
        write(&path, &repro_json(report.seed, case, outcome).render())?;
        written.push((case, *runs, path));
    }
    Ok(written)
}

/// Builds a reproducer document for a (shrunk) failing case.
pub fn repro_json(stress_seed: u64, case: &StressCase, expected: &CaseOutcome) -> Json {
    Json::obj(vec![
        ("version", Json::Num(REPRO_VERSION)),
        ("stress_seed", Json::str(stress_seed.to_string())),
        ("case", case.to_json()),
        (
            "expected",
            Json::obj(vec![
                ("verdict", Json::str(expected.verdict.as_str())),
                ("signature", Json::str(expected.signature.clone())),
                ("violations", Json::Num(expected.violations as f64)),
            ]),
        ),
    ])
}

/// Parses a reproducer document into its case and expected outcome.
pub fn parse_repro(s: &str) -> Result<(StressCase, CaseOutcome), String> {
    let v = Json::parse(s)?;
    let case = StressCase::from_json(v.get("case").ok_or("repro: missing case")?)?;
    let expected = v.get("expected").ok_or("repro: missing expected")?;
    let verdict = expected
        .get("verdict")
        .and_then(Json::as_str)
        .and_then(Verdict::parse)
        .ok_or("repro: bad expected.verdict")?;
    let signature = expected
        .get("signature")
        .and_then(Json::as_str)
        .ok_or("repro: missing expected.signature")?
        .to_string();
    let violations = expected
        .get("violations")
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64;
    Ok((
        case,
        CaseOutcome {
            verdict,
            signature,
            violations,
        },
    ))
}

/// Replays a reproducer document: runs its case and reports whether the
/// observed outcome matches the expected one exactly (verdict and
/// signature).
pub fn replay_repro(
    doc: &str,
    deadline: Duration,
) -> Result<(StressCase, CaseOutcome, CaseOutcome, bool), String> {
    let (case, expected) = parse_repro(doc)?;
    let observed = run_case(&case, deadline)?;
    let matches = observed.verdict == expected.verdict && observed.signature == expected.signature;
    Ok((case, expected, observed, matches))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> StressConfig {
        StressConfig {
            cases: 3,
            seed: 7,
            scenario: Some("quiet".to_string()),
            experiments: Some(vec!["fig10".to_string()]),
            ..StressConfig::default()
        }
    }

    #[test]
    fn case_generation_is_deterministic() {
        let cfg = StressConfig {
            cases: 5,
            seed: 11,
            ..StressConfig::default()
        };
        let a = generate_cases(&cfg);
        let b = generate_cases(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        let c = generate_cases(&StressConfig { seed: 12, ..cfg });
        assert_ne!(a, c, "a different seed draws different cases");
    }

    #[test]
    fn lowered_max_budget_bounds_the_draws_without_reshuffling() {
        let cfg = StressConfig {
            cases: 8,
            seed: 11,
            ..StressConfig::default()
        };
        let default_cases = generate_cases(&cfg);
        let lowered_cfg = StressConfig {
            max_budget: 300_000_000,
            ..cfg
        };
        let lowered = generate_cases(&lowered_cfg);
        for (a, b) in default_cases.iter().zip(&lowered) {
            // Only the budget band moves: the cap changes the modulus of
            // the last draw, never the experiment/scenario/seed stream.
            assert_eq!(a.experiment, b.experiment);
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.seed, b.seed);
            assert!(b.event_budget < 300_000_000, "got {}", b.event_budget);
            assert!(b.event_budget >= MIN_CASE_BUDGET.min(300_000_000));
        }
    }

    #[test]
    fn case_json_round_trips() {
        let case = StressCase {
            id: 3,
            experiment: "fig9".to_string(),
            scenario: Some("chaos".to_string()),
            // Above 2^53: pins that seeds round-trip losslessly (a JSON
            // f64 number would silently round this).
            seed: u64::MAX - 12_345,
            event_budget: 500_000_000,
            keep: Some(vec![0, 2, 5]),
            horizon_s: Some(1234.5),
            canary: true,
        };
        let parsed = StressCase::from_json(&case.to_json()).expect("round trip");
        assert_eq!(parsed, case);
        // And with the optional fields absent.
        let bare = StressCase {
            scenario: None,
            keep: None,
            horizon_s: None,
            canary: false,
            ..case
        };
        assert_eq!(StressCase::from_json(&bare.to_json()).expect("bare"), bare);
    }

    #[test]
    fn verdict_names_round_trip() {
        for v in [
            Verdict::Pass,
            Verdict::GuardViolation,
            Verdict::Panic,
            Verdict::BudgetExhausted,
            Verdict::NonFinite,
            Verdict::Deadline,
        ] {
            assert_eq!(Verdict::parse(v.as_str()), Some(v));
        }
        assert_eq!(Verdict::parse("nope"), None);
    }

    #[test]
    fn non_finite_scan_respects_word_boundaries() {
        assert!(contains_non_finite("value NaN here"));
        assert!(contains_non_finite("NaN"));
        assert!(!contains_non_finite("NaNometers")); // word continues
        assert!(!contains_non_finite("banana")); // case-sensitive
        assert!(!contains_non_finite("all finite: 3.25"));
        // `inf` is the repo's documented undefined-ratio sentinel
        // (fig17's stall-increase column at the default seed), never a
        // stress failure.
        assert!(!contains_non_finite("stall increase: inf"));
    }

    #[test]
    fn quiet_case_passes() {
        let cases = generate_cases(&quick_cfg());
        let out = run_case(&cases[0], Duration::from_secs(120)).expect("valid case");
        assert_eq!(out.verdict, Verdict::Pass, "{}", out.signature);
        assert_eq!(out.violations, 0);
    }

    #[test]
    fn canary_is_caught_and_shrinks_to_nothing() {
        let cfg = StressConfig {
            canary: true,
            scenario: Some("rrc-flaky".to_string()),
            ..quick_cfg()
        };
        let cases = generate_cases(&cfg);
        let out = run_case(&cases[0], Duration::from_secs(120)).expect("valid case");
        assert_eq!(out.verdict, Verdict::GuardViolation);
        assert!(
            out.signature.starts_with("stress/canary"),
            "{}",
            out.signature
        );
        let (small, small_out, runs) = shrink(&cases[0], &out, Duration::from_secs(120));
        assert!(runs > 0);
        assert_eq!(small_out.failure_key(), out.failure_key());
        assert_eq!(small.size(), 0, "canary does not need any fault events");
        assert!(small.scenario.is_none(), "scenario dropped entirely");
        assert!(small.event_budget < cases[0].event_budget, "budget shrunk");
    }

    #[test]
    fn tiny_budget_classifies_as_exhausted() {
        let mut cases = generate_cases(&quick_cfg());
        // fig9 drives the handoff loop, which charges the event budget.
        cases[0].experiment = "fig9".to_string();
        cases[0].event_budget = 10;
        let out = run_case(&cases[0], Duration::from_secs(120)).expect("valid case");
        assert_eq!(out.verdict, Verdict::BudgetExhausted, "{}", out.signature);
    }

    #[test]
    fn repro_round_trips_and_replays() {
        let case = StressCase {
            id: 0,
            experiment: "fig10".to_string(),
            scenario: None,
            seed: 99,
            event_budget: 1_000_000,
            keep: None,
            horizon_s: None,
            canary: true,
        };
        let out = run_case(&case, Duration::from_secs(120)).expect("valid");
        assert_eq!(out.verdict, Verdict::GuardViolation);
        let doc = repro_json(7, &case, &out).render();
        let (replayed_case, expected, observed, matches) =
            replay_repro(&doc, Duration::from_secs(120)).expect("replay");
        assert_eq!(replayed_case, case);
        assert_eq!(expected, out);
        assert!(matches, "expected {expected:?}, observed {observed:?}");
    }

    #[test]
    fn malformed_cases_are_rejected() {
        let mut case = generate_cases(&quick_cfg())[0].clone();
        case.experiment = "not-an-experiment".to_string();
        assert!(run_case(&case, Duration::from_secs(5)).is_err());
        let mut case = generate_cases(&quick_cfg())[0].clone();
        case.scenario = Some("not-a-scenario".to_string());
        assert!(run_case(&case, Duration::from_secs(5)).is_err());
    }
}
