//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures                      # list available experiments
//! figures all                  # run everything, in paper order
//! figures fig3 fig9            # run specific experiments
//! figures --seed 7 all         # re-roll the simulated world
//! figures --cc bbr bonded-uplink   # bonded-family controller override
//! figures --out results/ all   # also write one .txt per experiment
//! figures --chaos chaos all    # inject a named fault scenario
//! figures --resume --out results/ all   # continue a killed campaign
//! figures --jobs 4 all         # run the campaign on 4 worker threads
//! figures --profile all        # wall-sorted profile with hottest spans
//! figures --deadline-s 30 all  # per-attempt wall-clock deadline
//! figures --event-budget 5000000 all    # per-attempt event budget
//! figures --telemetry tel/ table2 fig9   # export spans/counters/hists
//! figures --obs obs/ all       # campaign metrics observatory
//! figures --obs-diff results/OBS_baseline.json obs/   # telemetry drift
//! figures --obs-strict --obs-diff <base> <cur>   # gate FAIL-grade drift
//! figures --list-scenarios     # print fault scenarios, one per line
//! figures --check-manifest results/manifest.json   # CI gate
//! figures --validate [dir]     # paper-fidelity gate (default: results)
//! figures --strict all         # exit non-zero if any experiment degraded
//! figures --stress 32          # randomized stress sweep + shrinker
//! figures --stress 32 --stress-seed 7 --stress-scenario chaos
//! figures --repro results/stress/repro-c3-fig9.json   # replay a repro
//! ```
//!
//! Every experiment runs under the supervised runner: a panic, runaway
//! loop, or deadline blow-out in one experiment yields a `DEGRADED` report
//! for that experiment and the campaign continues. With `--chaos <name>`,
//! the named fault scenario (see `fiveg_simcore::faults::FaultScenario`)
//! is installed on each experiment's thread and a resilience table
//! (recovery actions, outage and rebuffer time, failovers) is appended to
//! the campaign output; without it the fault plane stays uninstalled and
//! the output is bit-identical to an unsupervised run.
//!
//! Campaigns are crash-consistent: with `--out`, every report and the
//! `manifest.json` are written atomically (temp file + rename), and the
//! manifest is rewritten after *each* experiment, so a kill at any point
//! leaves a parseable manifest describing exactly the work that finished.
//! `--resume` reads that manifest back and skips experiments that already
//! completed `ok` (their rows are re-emitted verbatim; a resumed campaign's
//! final manifest is byte-identical to an uninterrupted one).
//!
//! With `--jobs N` (default: the machine's available parallelism) the
//! campaign runs on a pool of worker threads pulling experiments from a
//! shared queue. Each experiment still gets its own fresh attempt thread
//! with its own fault plane / recovery collector / event budget, and rows
//! are collected in registry order, so the manifest, reports, and
//! resilience table are byte-identical to a serial run. Resumed rows are
//! skipped *before* the queue is built — workers never see them.
//!
//! The manifest is also the campaign's exact work ledger: each row records
//! the budget events its experiment charged, a count that is the same at
//! any `--jobs N` and across resumes. `results/manifest.json` is the
//! seed-2021 golden, so a change in any experiment's work shows up as a
//! manifest diff naming that experiment. Wall-clock time is never written
//! to it; host time is measured by the `perfbench` package.
//!
//! `--telemetry <dir>` installs the `fiveg_simcore::telemetry` collector
//! on every attempt thread and writes, per experiment, a JSONL event
//! stream (`<id>.jsonl`) and a Chrome `trace_event` file
//! (`<id>.trace.json`) — both pure sim-time data, byte-identical across
//! reruns and `--jobs N` — plus one campaign-wide `telemetry.txt` summary
//! (the only artifact carrying wall-clock numbers). Without the flag the
//! plane is never installed; with it, the manifest and reports are the
//! same bytes.
//!
//! `--obs <dir>` feeds the same per-attempt telemetry into the campaign
//! metrics observatory (`fiveg_bench::observe`): `metrics.json` — the
//! catalog-annotated campaign rollup (per-layer span/counter totals,
//! histogram quantiles, fixed-bin sim-time series) — plus the
//! `observatory.txt` dashboard and collapsed-stack flamegraphs
//! (`<id>.folded` per experiment, `campaign.folded` campaign-wide),
//! all byte-identical across reruns and `--jobs N`.
//! `--obs-diff <baseline> <current>` compares two such stores under the
//! shared tolerance bands and prints a deterministic drift report;
//! `--obs-strict` exits non-zero on FAIL-grade drift (CI gates against
//! the committed `results/OBS_baseline.json`).
//!
//! `--stress N` switches the binary into the stress harness
//! (`fiveg_bench::stress`): `N` seeded cases of experiment × fault
//! scenario × perturbed seed/budget run on the worker pool; every panic,
//! budget blow-out, guard-plane violation, or non-finite artifact number
//! is shrunk to a minimal case and written as a replayable reproducer
//! under `<out>/stress/`, next to a deterministic `stress.txt` summary
//! (byte-identical across reruns of the same `--stress-seed`).
//! `--repro <file>` replays one reproducer and exits 0 iff the recorded
//! failure reproduces exactly. `--strict` makes a campaign exit non-zero
//! when any experiment finished degraded.
//!
//! Shardable experiments (see `fiveg_bench::shard`) are decomposed into
//! independent units that feed the same worker pool as whole experiments,
//! so `--jobs N` parallelism applies *inside* the longest experiments too.
//! Each shard's world depends only on `(seed, id, shard)`, never on which
//! worker ran it or when, so artifacts are byte-identical to running the
//! shards in line.
//! `--profile` forces span collection on every attempt and prints a
//! wall-clock-sorted experiment profile with each experiment's hottest
//! telemetry spans — the map for deciding what to shard or optimize next.
//!
//! Campaigns are interrupt-safe: SIGINT (^C) or SIGTERM stops the worker
//! pool from claiming new experiments, cancels in-flight attempts
//! cooperatively (their threads observe the kill at the next budget
//! charge, unwind, and exit — no leaked threads), flushes the manifest
//! atomically with the in-flight rows marked `interrupted`, and exits
//! with code 130. `--resume` then re-runs only the interrupted and
//! never-started experiments; the completed prefix is re-emitted
//! verbatim, so the resumed campaign's artifacts are byte-identical to
//! an uninterrupted run. `--deadline-s <secs>` and `--event-budget <n>`
//! tighten the per-attempt wall-clock deadline and event budget (they
//! also bound stress-mode cases and `--repro` replays).
//!
//! Every flag is parsed before any mode runs, and a leftover argument that
//! starts with `-` exits 2 with `unknown flag: <arg>`, so a misspelt or
//! retired flag never runs a campaign as if it were honoured.

use fiveg_bench::json::Json;
use fiveg_bench::report::{f, Table};
use fiveg_bench::runner::{self, ManifestEntry, RunStatus, Supervisor};
use fiveg_bench::{experiments, observe, stress, telemetry as telexport, CAMPAIGN_SEED};
use fiveg_simcore::faults::FaultScenario;
use fiveg_simcore::recovery::RecoveryKind;
use fiveg_simcore::telemetry::AttemptTelemetry;
use fiveg_simcore::{budget, cancel};
use fiveg_transport::tcp::CcAlgo;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

fn print_scenarios() {
    for name in FaultScenario::names() {
        println!("{name}");
    }
}

/// `--check-manifest <path>`: exit 0 iff the manifest parses, no
/// experiment degraded, and no row was left `interrupted` (an interrupted
/// campaign is incomplete until `--resume` finishes it). The CI gate for
/// chaos campaigns.
fn check_manifest(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let (seed, scenario, entries) = match runner::parse_manifest(&text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{path}: malformed manifest: {e}");
            std::process::exit(1);
        }
    };
    let interrupted: Vec<&ManifestEntry> = entries
        .iter()
        .filter(|e| e.status == RunStatus::Interrupted)
        .collect();
    if !interrupted.is_empty() {
        for e in &interrupted {
            eprintln!(
                "{path}: `{}` interrupted: {}",
                e.id,
                e.note.as_deref().unwrap_or("campaign stopped mid-run")
            );
        }
        eprintln!(
            "{path}: campaign incomplete ({} interrupted row(s)) — finish it with --resume",
            interrupted.len()
        );
        std::process::exit(1);
    }
    let degraded: Vec<&ManifestEntry> = entries
        .iter()
        .filter(|e| e.status == RunStatus::Degraded)
        .collect();
    if !degraded.is_empty() {
        for e in &degraded {
            eprintln!(
                "{path}: `{}` degraded: {}",
                e.id,
                e.note.as_deref().unwrap_or("unknown failure")
            );
        }
        std::process::exit(1);
    }
    let recoveries: usize = entries.iter().map(|e| e.recovery.events).sum();
    println!(
        "{path}: ok — seed {seed}, scenario {}, {} experiments, {recoveries} recovery events",
        scenario.as_deref().unwrap_or("none"),
        entries.len()
    );
    std::process::exit(0);
}

/// `--obs-diff <baseline> <current>`: compare two `metrics.json` documents
/// (a directory argument means `<dir>/metrics.json`) under the shared
/// tolerance bands and print the deterministic drift report. Exits
/// non-zero on FAIL-grade drift only with `--obs-strict`.
fn obs_diff(baseline: &str, current: &str, strict: bool) -> ! {
    let read = |arg: &str| -> Json {
        let mut path = PathBuf::from(arg);
        if path.is_dir() {
            path = path.join("metrics.json");
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("--obs-diff: cannot read {}: {e}", path.display());
                std::process::exit(2);
            }
        };
        match Json::parse(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("--obs-diff: {} unparseable: {e}", path.display());
                std::process::exit(2);
            }
        }
    };
    let d = observe::diff_metrics(&read(baseline), &read(current));
    print!("{}", d.report);
    if d.fails > 0 {
        eprintln!("--obs-diff: {} FAIL-grade drift row(s)", d.fails);
        if strict {
            std::process::exit(1);
        }
    }
    std::process::exit(0);
}

/// `--validate [dir]`: grade every artifact in `dir` against the
/// expected-value table (`bench::expect`), write `<dir>/validation.txt`
/// atomically, and exit non-zero on any FAIL. The paper-fidelity gate.
fn validate(dir: &str) -> ! {
    let dir = Path::new(dir);
    let v = fiveg_bench::expect::validate_dir(dir);
    print!("{}", v.report);
    if let Err(e) = runner::write_atomic(&dir.join("validation.txt"), &v.report) {
        eprintln!("cannot write {}: {e}", dir.join("validation.txt").display());
        std::process::exit(2);
    }
    std::process::exit(if v.ok() { 0 } else { 1 });
}

/// `--repro <file>`: replay a stress reproducer and exit 0 iff the
/// recorded failure reproduces exactly (same verdict, same signature).
fn replay_repro(path: &str, deadline: std::time::Duration) -> ! {
    let doc = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match stress::replay_repro(&doc, deadline) {
        Ok((case, expected, observed, matches)) => {
            println!(
                "case {}: experiment {}, scenario {}, seed {}, budget {}, {} fault event(s)",
                case.id,
                case.experiment,
                case.scenario.as_deref().unwrap_or("none"),
                case.seed,
                case.event_budget,
                case.size()
            );
            println!(
                "expected: {} — {}",
                expected.verdict.as_str(),
                expected.signature
            );
            println!(
                "observed: {} — {}",
                observed.verdict.as_str(),
                observed.signature
            );
            if matches {
                println!("{path}: reproduced");
                std::process::exit(0);
            }
            eprintln!("{path}: did NOT reproduce");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        }
    }
}

/// `--stress N`: run the randomized stress sweep, shrink every failure,
/// and write `stress.txt` plus one reproducer per failing case under
/// `<out>/stress/`. Exits non-zero iff any case failed.
fn run_stress_mode(cfg: &stress::StressConfig, out_dir: &Path) -> ! {
    let dir = out_dir.join("stress");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    println!(
        "stress: {} case(s), seed {}, scenario {}, {} worker(s)",
        cfg.cases,
        cfg.seed,
        cfg.scenario.as_deref().unwrap_or("randomized"),
        cfg.jobs
    );
    let report = stress::run_stress(cfg);
    let table = stress::stress_table(&report);
    print!("{table}");
    write_or_die(&dir.join("stress.txt"), &table);
    let mut repros = 0usize;
    for r in &report.results {
        if let Some((case, outcome, runs)) = &r.shrunk {
            let name = format!("repro-c{}-{}.json", case.id, case.experiment);
            write_or_die(
                &dir.join(&name),
                &stress::repro_json(report.seed, case, outcome).render(),
            );
            println!(
                "case {}: shrunk to {} fault event(s) in {runs} run(s) — wrote {}",
                case.id,
                case.size(),
                dir.join(&name).display()
            );
            repros += 1;
        }
    }
    let failures = report.failures();
    println!(
        "stress: {}/{} case(s) failed, {repros} reproducer(s) written to {}",
        failures,
        report.results.len(),
        dir.display()
    );
    std::process::exit(if failures == 0 { 0 } else { 1 });
}

/// Renders the campaign resilience table from finished manifest rows.
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

/// Loads the prior manifest for `--resume`, returning rows safe to skip:
/// status `ok` *and* the report file still on disk. A missing, malformed,
/// or mismatched (different seed/scenario) manifest resumes nothing.
fn resumable_entries(
    dir: &Path,
    seed: u64,
    scenario: Option<&str>,
) -> HashMap<String, ManifestEntry> {
    let path = dir.join("manifest.json");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(_) => {
            eprintln!("--resume: no prior {} — starting fresh", path.display());
            return HashMap::new();
        }
    };
    let (prev_seed, prev_scenario, entries) = match runner::parse_manifest(&text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("--resume: ignoring malformed {}: {e}", path.display());
            return HashMap::new();
        }
    };
    if prev_seed != seed || prev_scenario.as_deref() != scenario {
        eprintln!(
            "--resume: prior manifest is for seed {prev_seed} / scenario {} \
             (this run: seed {seed} / scenario {}) — starting fresh",
            prev_scenario.as_deref().unwrap_or("none"),
            scenario.unwrap_or("none"),
        );
        return HashMap::new();
    }
    entries
        .into_iter()
        .filter(|e| e.status == RunStatus::Ok && dir.join(format!("{}.txt", e.id)).exists())
        .map(|e| (e.id.clone(), e))
        .collect()
}

/// `--profile`: experiments sorted by wall clock, each with its three
/// hottest telemetry spans (by cumulative simulated time). This is the
/// entry point of the profile → shard → verify loop: the top rows are the
/// sharding/optimization candidates, the spans say which inner phase to
/// attack. Wall numbers are host-dependent and go to stdout only — never
/// into an artifact.
fn profile_summary(outcomes: &[runner::RunOutcome], campaign_wall_s: f64) -> String {
    let serial_s: f64 = outcomes.iter().map(|o| o.wall_s).sum();
    let mut by_wall: Vec<&runner::RunOutcome> = outcomes.iter().collect();
    by_wall.sort_by(|a, b| b.wall_s.total_cmp(&a.wall_s));
    let mut body = format!(
        "==== PROFILE — campaign wall {campaign_wall_s:.2} s, \
         serial experiment time {serial_s:.2} s ====\n"
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
    body
}

fn write_or_die(path: &Path, contents: &str) {
    if let Err(e) = runner::write_atomic(path, contents) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
}

/// Silences the panics the runner raises on purpose to unwind an attempt:
/// cancellation ([`cancel::CANCELLED_MSG`]) and budget exhaustion
/// ([`budget::EXHAUSTED_MSG`]). The runner catches both and records the
/// row as interrupted or degraded with a note, so the default hook's
/// `thread … panicked at` line would only read like a crash. Every other
/// panic reaches the previous hook.
fn silence_unwind_panics() {
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

/// Removes the boolean flag `name` from `args`; true iff it was present.
fn take_switch(args: &mut Vec<String>, name: &str) -> bool {
    match args.iter().position(|a| a == name) {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    }
}

fn main() {
    silence_unwind_panics();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Every flag is taken out of `args` before any mode runs: whatever
    // starts with `-` afterwards is unknown and exits 2 below, in every
    // mode and position.
    let list_scenarios = take_switch(&mut args, "--list-scenarios");
    let obs_strict = take_switch(&mut args, "--obs-strict");
    let mut manifest_path: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--check-manifest") {
        args.remove(pos);
        let path = args.get(pos).cloned().unwrap_or_else(|| {
            eprintln!("--check-manifest needs a manifest path");
            std::process::exit(2);
        });
        args.remove(pos);
        manifest_path = Some(path);
    }
    let mut obs_diff_paths: Option<(String, String)> = None;
    if let Some(pos) = args.iter().position(|a| a == "--obs-diff") {
        args.remove(pos);
        if args.len() < pos + 2 {
            eprintln!("--obs-diff needs <baseline> <current> metrics.json paths");
            std::process::exit(2);
        }
        let baseline = args.remove(pos);
        obs_diff_paths = Some((baseline, args.remove(pos)));
    }
    let mut validate_dir: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--validate") {
        args.remove(pos);
        let dir = match args.get(pos) {
            Some(a) if !a.starts_with("--") => args.remove(pos),
            _ => "results".to_string(),
        };
        validate_dir = Some(dir);
    }
    // `--deadline-s` / `--event-budget` track "was the flag given" (`None`
    // = flag absent) because the campaign supervisor, the stress harness
    // and `--repro` have *different* built-in defaults that must not
    // clobber each other.
    let mut deadline_s: Option<f64> = None;
    if let Some(pos) = args.iter().position(|a| a == "--deadline-s") {
        args.remove(pos);
        let secs: f64 = args
            .get(pos)
            .and_then(|s| s.parse().ok())
            .filter(|&s: &f64| s > 0.0 && s.is_finite())
            .unwrap_or_else(|| {
                eprintln!("--deadline-s needs a positive number of seconds");
                std::process::exit(2);
            });
        args.remove(pos);
        deadline_s = Some(secs);
    }
    let mut event_budget: Option<u64> = None;
    if let Some(pos) = args.iter().position(|a| a == "--event-budget") {
        args.remove(pos);
        let n: u64 = args
            .get(pos)
            .and_then(|s| s.parse().ok())
            // u64::MAX is the budget plane's "disarmed" sentinel; a real
            // budget must stay below it.
            .filter(|n| (1..u64::MAX).contains(n))
            .unwrap_or_else(|| {
                eprintln!("--event-budget needs a positive event count");
                std::process::exit(2);
            });
        args.remove(pos);
        event_budget = Some(n);
    }
    let mut repro_path: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--repro") {
        args.remove(pos);
        let path = args.get(pos).cloned().unwrap_or_else(|| {
            eprintln!("--repro needs a reproducer file path");
            std::process::exit(2);
        });
        args.remove(pos);
        repro_path = Some(path);
    }
    let strict = take_switch(&mut args, "--strict");
    let mut seed = CAMPAIGN_SEED;
    if let Some(pos) = args.iter().position(|a| a == "--seed") {
        args.remove(pos);
        seed = args
            .get(pos)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("--seed needs an integer");
                std::process::exit(2);
            });
        args.remove(pos);
    }
    let mut cc: Option<(String, CcAlgo)> = None;
    if let Some(pos) = args.iter().position(|a| a == "--cc") {
        args.remove(pos);
        let name = args
            .get(pos)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| {
                eprintln!("--cc needs a controller name (bbr or nada)");
                std::process::exit(2);
            });
        args.remove(pos);
        let algo = CcAlgo::parse(&name)
            .filter(|a| a.is_rate_based())
            .unwrap_or_else(|| {
                eprintln!("--cc: unknown or non-rate-based controller `{name}` (want bbr or nada)");
                std::process::exit(2);
            });
        cc = Some((name, algo));
    }
    let mut out_dir: Option<PathBuf> = None;
    if let Some(pos) = args.iter().position(|a| a == "--out") {
        args.remove(pos);
        let dir = args.get(pos).cloned().unwrap_or_else(|| {
            eprintln!("--out needs a directory");
            std::process::exit(2);
        });
        args.remove(pos);
        out_dir = Some(PathBuf::from(dir));
    }
    let mut scenario: Option<FaultScenario> = None;
    if let Some(pos) = args.iter().position(|a| a == "--chaos") {
        args.remove(pos);
        let name = args
            .get(pos)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| {
                eprintln!("--chaos needs a scenario name; available scenarios:");
                print_scenarios();
                std::process::exit(2);
            });
        args.remove(pos);
        scenario = Some(FaultScenario::by_name(&name).unwrap_or_else(|| {
            eprintln!("unknown scenario: {name}; available scenarios:");
            print_scenarios();
            std::process::exit(2);
        }));
    }
    let resume = take_switch(&mut args, "--resume");
    if resume && out_dir.is_none() {
        eprintln!("--resume needs --out (the manifest lives there)");
        std::process::exit(2);
    }
    let mut jobs = std::thread::available_parallelism().map_or(1, usize::from);
    if let Some(pos) = args.iter().position(|a| a == "--jobs") {
        args.remove(pos);
        jobs = args
            .get(pos)
            .and_then(|s| s.parse().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                eprintln!("--jobs needs a positive integer");
                std::process::exit(2);
            });
        args.remove(pos);
    }
    let profile = take_switch(&mut args, "--profile");
    let mut telemetry_dir: Option<PathBuf> = None;
    if let Some(pos) = args.iter().position(|a| a == "--telemetry") {
        args.remove(pos);
        let dir = args.get(pos).cloned().unwrap_or_else(|| {
            eprintln!("--telemetry needs a directory");
            std::process::exit(2);
        });
        args.remove(pos);
        telemetry_dir = Some(PathBuf::from(dir));
    }
    let mut obs_dir: Option<PathBuf> = None;
    if let Some(pos) = args.iter().position(|a| a == "--obs") {
        args.remove(pos);
        let dir = args.get(pos).cloned().unwrap_or_else(|| {
            eprintln!("--obs needs a directory");
            std::process::exit(2);
        });
        args.remove(pos);
        obs_dir = Some(PathBuf::from(dir));
    }
    let mut stress_cases: Option<usize> = None;
    if let Some(pos) = args.iter().position(|a| a == "--stress") {
        args.remove(pos);
        stress_cases = Some(
            args.get(pos)
                .and_then(|s| s.parse().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    eprintln!("--stress needs a positive case count");
                    std::process::exit(2);
                }),
        );
        args.remove(pos);
    }
    let mut stress_seed = CAMPAIGN_SEED;
    if let Some(pos) = args.iter().position(|a| a == "--stress-seed") {
        args.remove(pos);
        stress_seed = args
            .get(pos)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("--stress-seed needs an integer");
                std::process::exit(2);
            });
        args.remove(pos);
    }
    let mut stress_scenario: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--stress-scenario") {
        args.remove(pos);
        let name = args
            .get(pos)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| {
                eprintln!("--stress-scenario needs a scenario name; available scenarios:");
                print_scenarios();
                std::process::exit(2);
            });
        args.remove(pos);
        if FaultScenario::by_name(&name).is_none() {
            eprintln!("unknown scenario: {name}; available scenarios:");
            print_scenarios();
            std::process::exit(2);
        }
        stress_scenario = Some(name);
    }
    let stress_canary = take_switch(&mut args, "--stress-canary");
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        eprintln!("unknown flag: {flag}");
        std::process::exit(2);
    }

    // Modes, in precedence order. The ones that only read files run
    // before any directory is created or any experiment starts.
    if list_scenarios {
        print_scenarios();
        return;
    }
    if let Some(path) = &manifest_path {
        check_manifest(path);
    }
    if let Some((baseline, current)) = &obs_diff_paths {
        obs_diff(baseline, current, obs_strict);
    }
    if let Some(dir) = &validate_dir {
        validate(dir);
    }
    if let Some(path) = &repro_path {
        let deadline = std::time::Duration::from_secs_f64(deadline_s.unwrap_or(120.0));
        replay_repro(path, deadline);
    }
    if let Some((name, algo)) = cc {
        experiments::bonded::set_cc(algo);
        if algo != CcAlgo::Nada {
            eprintln!(
                "--cc {name}: bonded-uplink will diverge from the committed golden \
                 (the default controller is nada)"
            );
        }
    }
    for dir in [&out_dir, &telemetry_dir, &obs_dir].into_iter().flatten() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    if let Some(cases) = stress_cases {
        let mut cfg = stress::StressConfig {
            cases,
            seed: stress_seed,
            scenario: stress_scenario,
            canary: stress_canary,
            jobs,
            ..stress::StressConfig::default()
        };
        if let Some(secs) = deadline_s {
            cfg.deadline = std::time::Duration::from_secs_f64(secs);
        }
        if let Some(budget) = event_budget {
            cfg.max_budget = budget;
        }
        let out = out_dir.unwrap_or_else(|| PathBuf::from("results"));
        run_stress_mode(&cfg, &out);
    }

    let registry = experiments::registry();
    if args.is_empty() {
        println!("available experiments (run `figures all` or name them):");
        for (id, _) in &registry {
            println!("  {id}");
        }
        println!("fault scenarios for --chaos:");
        for name in FaultScenario::names() {
            println!("  {name}");
        }
        return;
    }

    let mut entries: Vec<(&'static str, experiments::Experiment)> = Vec::new();
    for a in &args {
        match registry.iter().find(|(id, _)| id == a) {
            Some(&entry) => entries.push(entry),
            None if a == "all" => {}
            None => {
                eprintln!("unknown experiment: {a}");
                std::process::exit(2);
            }
        }
    }
    if args.iter().any(|a| a == "all") {
        entries = registry;
    }

    let scenario_name = scenario.as_ref().map(|s| s.name.clone());
    let mut supervisor = match scenario {
        Some(sc) => Supervisor::with_scenario(sc),
        None => Supervisor::default(),
    };
    supervisor.telemetry = telemetry_dir.is_some() || obs_dir.is_some() || profile;
    if let Some(secs) = deadline_s {
        supervisor.deadline = std::time::Duration::from_secs_f64(secs);
    }
    if let Some(budget) = event_budget {
        supervisor.event_budget = budget;
    }
    // Graceful interrupt: the first SIGINT/SIGTERM stops the pool from
    // claiming new experiments and cancels in-flight attempts; the
    // manifest flush below then records them as `interrupted` rows for
    // `--resume` to pick up.
    supervisor.interrupt = Some(fiveg_bench::signal::install());

    let prior: HashMap<String, ManifestEntry> = match (&out_dir, resume) {
        (Some(dir), true) => resumable_entries(dir, seed, scenario_name.as_deref()),
        _ => HashMap::new(),
    };

    // Resumed rows are settled *before* the work queue exists: they are
    // pre-filled into their registry-order slots and the workers only ever
    // see the experiments that still need to run.
    let mut slots: Vec<Option<ManifestEntry>> = vec![None; entries.len()];
    let mut work: Vec<(&'static str, experiments::Experiment)> = Vec::new();
    let mut work_to_slot: Vec<usize> = Vec::new();
    for (i, &(id, exp)) in entries.iter().enumerate() {
        match prior.get(id) {
            Some(done) => {
                println!("{id}: resumed — completed ok in a previous run");
                slots[i] = Some(done.clone());
            }
            None => {
                work.push((id, exp));
                work_to_slot.push(i);
            }
        }
    }

    let rewrite_manifest = |slots: &[Option<ManifestEntry>], dir: &Path| {
        let done: Vec<ManifestEntry> = slots.iter().flatten().cloned().collect();
        let manifest = runner::manifest_from_entries(&done, seed, scenario_name.as_deref());
        write_or_die(&dir.join("manifest.json"), &manifest.render());
    };
    if let Some(dir) = &out_dir {
        if !slots.iter().all(Option::is_none) {
            rewrite_manifest(&slots, dir);
        }
    }

    let campaign_t0 = Instant::now();
    let slots = Mutex::new(slots);
    let (outcome_slots, worker_busy_s) =
        supervisor.run_registry_jobs_partial(&work, seed, jobs, |wi, outcome| {
            // The lock also serializes stdout/stderr and the manifest rewrite,
            // so interleaved workers cannot tear a report or a manifest write.
            let mut slots = slots.lock().expect("slots lock");
            if outcome.interrupted() {
                // No report file for an interrupted row: `--resume` re-runs
                // it, and a half-baked `<id>.txt` must never shadow the
                // re-run's real one.
                eprintln!(
                    "{}: interrupted — {}",
                    outcome.id,
                    outcome.note.as_deref().unwrap_or("campaign stopped")
                );
            } else {
                println!("{}", outcome.report.render());
                if outcome.degraded() {
                    eprintln!(
                        "warning: {} degraded after {} attempt(s): {}",
                        outcome.id,
                        outcome.attempts,
                        outcome.note.as_deref().unwrap_or("unknown failure")
                    );
                }
                if let Some(dir) = &out_dir {
                    write_or_die(
                        &dir.join(format!("{}.txt", outcome.id)),
                        &outcome.report.render(),
                    );
                }
            }
            slots[work_to_slot[wi]] = Some(ManifestEntry::from_outcome(outcome));
            // Rewrite the manifest after every experiment: a kill mid-campaign
            // leaves a parseable record of exactly the work that finished, which
            // is what `--resume` picks up.
            if let Some(dir) = &out_dir {
                rewrite_manifest(&slots, dir);
            }
        });
    let campaign_wall_s = campaign_t0.elapsed().as_secs_f64();
    let was_interrupted = supervisor.interrupted();
    // An uninterrupted partial run returns all-`Some` (same as the
    // non-partial variant); an interrupted one leaves the unclaimed tail
    // as `None` — those experiments never started and have no outcome.
    let outcomes: Vec<runner::RunOutcome> = outcome_slots.into_iter().flatten().collect();

    // Telemetry export: per-experiment sim-time artifacts (deterministic),
    // then the campaign summary (the only file with wall-clock numbers).
    if let Some(dir) = &telemetry_dir {
        let mut total = AttemptTelemetry::default();
        let mut stats = telexport::RunnerStats {
            experiments: Vec::new(),
            worker_busy_s,
            campaign_wall_s,
        };
        for outcome in &outcomes {
            let telem = outcome.telemetry.clone().unwrap_or_default();
            write_or_die(
                &dir.join(format!("{}.jsonl", outcome.id)),
                &telexport::jsonl(&telem),
            );
            write_or_die(
                &dir.join(format!("{}.trace.json", outcome.id)),
                &telexport::chrome_trace(outcome.id, &telem),
            );
            total.merge_aggregates(&telem);
            stats
                .experiments
                .push((outcome.id.to_string(), outcome.wall_s));
        }
        write_or_die(
            &dir.join("telemetry.txt"),
            &telexport::summary(&total, &stats),
        );
        println!(
            "wrote telemetry for {} experiments to {}",
            outcomes.len(),
            dir.display()
        );
    }

    let final_slots = slots.into_inner().expect("slots lock");
    let rows: Vec<ManifestEntry> = if was_interrupted {
        // Unclaimed slots are empty by design; the manifest on disk already
        // records exactly the rows that exist (ok / degraded / interrupted).
        final_slots.into_iter().flatten().collect()
    } else {
        final_slots
            .into_iter()
            .map(|s| s.expect("every registry entry ran or resumed"))
            .collect()
    };
    let degraded = rows
        .iter()
        .filter(|r| r.status == RunStatus::Degraded)
        .count();

    if was_interrupted {
        let cancelled = rows
            .iter()
            .filter(|r| r.status == RunStatus::Interrupted)
            .count();
        let finished = rows.len() - cancelled;
        let never_started = entries.len() - rows.len();
        eprintln!(
            "interrupted: {finished} experiment(s) finished, {cancelled} cancelled in flight, \
             {never_started} never started{}",
            match &out_dir {
                Some(dir) => format!(
                    " — resume with `figures --resume --out {} ...`",
                    dir.display()
                ),
                None => String::new(),
            }
        );
        let leaked = runner::leaked_threads();
        if leaked > 0 {
            eprintln!(
                "warning: {leaked} attempt thread(s) ignored cancellation and were \
                 abandoned (leaked)"
            );
        }
        // Skip the observatory export and resilience table: both summarize
        // a *complete* campaign, and the resumed run rewrites them from the
        // full row set anyway.
        std::process::exit(fiveg_bench::signal::INTERRUPT_EXIT_CODE);
    }

    // Observatory export: the campaign metrics store, human dashboard, and
    // collapsed-stack flamegraphs — all pure sim-time data, byte-identical
    // across reruns and `--jobs N`. Placed after the interrupt exit
    // above: a partial campaign must never write a partial (yet
    // plausible-looking) metrics baseline.
    if let Some(dir) = &obs_dir {
        let per: Vec<(String, AttemptTelemetry)> = outcomes
            .iter()
            .map(|o| (o.id.to_string(), o.telemetry.clone().unwrap_or_default()))
            .collect();
        if per.len() != entries.len() {
            eprintln!(
                "warning: --obs: {} of {} experiments were resumed without telemetry — \
                 the observatory covers only the rows that ran this campaign",
                entries.len() - per.len(),
                entries.len()
            );
        }
        let metrics = observe::campaign_metrics(seed, scenario_name.as_deref(), &per);
        write_or_die(&dir.join("metrics.json"), &metrics.render());
        write_or_die(
            &dir.join("observatory.txt"),
            &observe::observatory_txt(seed, scenario_name.as_deref(), &per),
        );
        let mut campaign: BTreeMap<String, u64> = BTreeMap::new();
        for (id, telem) in &per {
            let map = observe::folded_map(telem);
            write_or_die(
                &dir.join(format!("{id}.folded")),
                &observe::render_folded(&map),
            );
            observe::merge_folded(&mut campaign, &map);
        }
        write_or_die(
            &dir.join("campaign.folded"),
            &observe::render_folded(&campaign),
        );
        println!(
            "wrote campaign observatory ({} experiments) to {}",
            per.len(),
            dir.display()
        );
    }

    if profile {
        print!("{}", profile_summary(&outcomes, campaign_wall_s));
    }

    if let Some(name) = scenario_name.as_deref() {
        let table = resilience_table(&rows, name, seed);
        println!("{table}");
        if let Some(dir) = &out_dir {
            write_or_die(&dir.join("resilience.txt"), &table);
        }
    }

    // Guard-plane findings go to stderr only — never into any artifact,
    // which must stay byte-identical with the plane on or off.
    let total_violations: u64 = outcomes.iter().map(|o| o.guards.violation_count()).sum();
    if total_violations > 0 {
        eprintln!("warning: guard plane recorded {total_violations} invariant violation(s):");
        for o in &outcomes {
            if let Some(v) = o.guards.violations.first() {
                eprintln!(
                    "  {}: {} violation(s), first: {}",
                    o.id,
                    o.guards.violation_count(),
                    v.signature()
                );
            }
        }
    }

    let leaked = runner::leaked_threads();
    if leaked > 0 {
        eprintln!(
            "warning: {leaked} attempt thread(s) ignored cancellation and were \
             abandoned (leaked) this campaign"
        );
    }

    if degraded > 0 {
        eprintln!("{degraded}/{} experiments degraded", rows.len());
        if strict {
            std::process::exit(1);
        }
    }
}
