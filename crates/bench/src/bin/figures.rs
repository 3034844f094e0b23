//! Regenerates the paper's tables and figures.
//!
//! `figures` with no argument prints its help, generated from [`FLAGS`]:
//! every flag with its argument, the modes that read it and what it does,
//! then the experiment ids and fault scenarios. `figures <id>... | all`
//! runs a campaign through [`fiveg_bench::campaign::run`], whose doc
//! holds the campaign contract (supervision, crash-consistent manifest,
//! `--resume`, `--jobs` byte identity, interrupts, the `--obs` export).
//! This binary prints the reports as they finish and turns outcomes into
//! exit codes: 0 ok, 1 a degraded campaign or a failed gate, 2 a usage or
//! I/O error, 130 interrupted.
//!
//! The other modes each have a selecting flag: `--list-scenarios`,
//! `--check-manifest`, `--obs-diff`, `--validate`, `--stress` (the
//! randomized stress sweep of `fiveg_bench::stress`) and `--repro`.
//! Arguments are parsed in one left-to-right pass before any mode runs.
//! An unknown flag, a flag given twice, a missing or malformed value, two
//! modes at once, or a flag the selected mode does not read exits 2 and
//! names the flag, so a misspelt, retired or misplaced flag never runs as
//! if it were honoured.

use fiveg_bench::campaign::{self, CampaignSpec, Event};
use fiveg_bench::runner::{self, RunStatus, Supervisor};
use fiveg_bench::{experiments, observe, stress, CAMPAIGN_SEED};
use fiveg_simcore::faults::FaultScenario;
use fiveg_transport::tcp::CcAlgo;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;

/// What one invocation does. A campaign is the default; every other mode
/// is selected by the flag it is named after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Campaign,
    Scenarios,
    CheckManifest,
    ObsDiff,
    Validate,
    Stress,
    Repro,
}
use Mode::*;

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Campaign => "campaign",
            Scenarios => "--list-scenarios",
            CheckManifest => "--check-manifest",
            ObsDiff => "--obs-diff",
            Validate => "--validate",
            Stress => "--stress",
            Repro => "--repro",
        }
    }
}

/// One command-line flag. `arg` names its values (`""` for a switch; a
/// `[bracketed]` value is optional), `modes` the modes that read it.
struct Flag {
    name: &'static str,
    arg: &'static str,
    modes: &'static [Mode],
    help: &'static str,
}

/// Every flag `figures` accepts; the help is generated from this table.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--seed", arg: "<n>", modes: &[Campaign], help: "campaign seed (default 2021); re-rolls the simulated world" },
    Flag { name: "--out", arg: "<dir>", modes: &[Campaign, Stress], help: "write <id>.txt, manifest.json, resilience.txt (stress: <dir>/stress/, default results)" },
    Flag { name: "--jobs", arg: "<n>", modes: &[Campaign, Stress], help: "worker threads (default: available parallelism)" },
    Flag { name: "--chaos", arg: "<scenario>", modes: &[Campaign], help: "inject a fault scenario; ends with the resilience table" },
    Flag { name: "--cc", arg: "<bbr|nada>", modes: &[Campaign], help: "bonded-uplink controller (the golden's is nada)" },
    Flag { name: "--resume", arg: "", modes: &[Campaign], help: "keep the rows the manifest in --out finished ok; run the rest" },
    Flag { name: "--obs", arg: "<dir>", modes: &[Campaign], help: "export <id>.jsonl, <id>.trace.json, *.folded, metrics.json, observatory.txt" },
    Flag { name: "--profile", arg: "", modes: &[Campaign], help: "print experiments by wall time with their hottest spans, and worker busy time" },
    Flag { name: "--deadline-s", arg: "<secs>", modes: &[Campaign, Stress, Repro], help: "wall-clock deadline per attempt" },
    Flag { name: "--event-budget", arg: "<n>", modes: &[Campaign, Stress], help: "event budget per attempt (stress: the largest drawn)" },
    Flag { name: "--list-scenarios", arg: "", modes: &[Scenarios], help: "print the fault scenarios, one per line" },
    Flag { name: "--check-manifest", arg: "<manifest>", modes: &[CheckManifest], help: "exit 1 unless every row finished ok" },
    Flag { name: "--obs-diff", arg: "<baseline> <current>", modes: &[ObsDiff], help: "drift between two metrics.json stores; exit 1 on FAIL-grade drift" },
    Flag { name: "--validate", arg: "[dir]", modes: &[Validate], help: "grade artifacts against the paper (default results); exit 1 on FAIL" },
    Flag { name: "--stress", arg: "<cases>", modes: &[Stress], help: "randomized stress sweep; failures shrink into reproducers" },
    Flag { name: "--stress-seed", arg: "<n>", modes: &[Stress], help: "stress sweep seed (default 2021)" },
    Flag { name: "--stress-scenario", arg: "<scenario>", modes: &[Stress], help: "pin every stress case to one fault scenario" },
    Flag { name: "--stress-canary", arg: "", modes: &[Stress], help: "inject a deliberately broken invariant" },
    Flag { name: "--repro", arg: "<file>", modes: &[Repro], help: "replay a stress reproducer; exit 0 iff it reproduces" },
];

/// A usage or I/O error: exit 2.
fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// A failed check, replay or campaign: exit 1.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// The command line after the parsing pass.
#[derive(Default)]
struct Args {
    given: Vec<(&'static Flag, Vec<String>)>,
    ids: Vec<String>,
}

impl Args {
    /// One left-to-right pass. A flag takes as many following arguments
    /// as `arg` names, stopping at one that starts with `-`; a missing
    /// value is reported when it is read.
    fn parse(argv: impl Iterator<Item = String>) -> Args {
        let mut args = Args::default();
        let mut argv = argv.peekable();
        while let Some(a) = argv.next() {
            if !a.starts_with('-') {
                args.ids.push(a);
                continue;
            }
            let Some(flag) = FLAGS.iter().find(|f| f.name == a) else {
                die(&format!("unknown flag: {a}"));
            };
            if args.has(flag.name) {
                die(&format!("`{a}` given more than once"));
            }
            let mut values = Vec::new();
            while values.len() < flag.arg.split_whitespace().count() {
                let Some(v) = argv.next_if(|v| !v.starts_with('-')) else {
                    break;
                };
                values.push(v);
            }
            args.given.push((flag, values));
        }
        args
    }

    /// The selected mode, after checking that every argument belongs to it.
    fn mode(&self) -> Mode {
        let modes = [Scenarios, CheckManifest, ObsDiff, Validate, Stress, Repro];
        let selected: Vec<Mode> = modes.into_iter().filter(|m| self.has(m.name())).collect();
        if let [a, b, ..] = selected[..] {
            die(&format!(
                "`{}` and `{}` select different modes; give one",
                a.name(),
                b.name()
            ));
        }
        let mode = selected.first().copied().unwrap_or(Campaign);
        let stray = self.given.iter().filter(|(f, _)| !f.modes.contains(&mode));
        let stray: Vec<String> = stray
            .map(|(f, _)| format!("`{}` (read by {})", f.name, modes_of(f)))
            .collect();
        if !stray.is_empty() {
            die(&format!(
                "not read by {}: {}",
                mode.name(),
                stray.join(", ")
            ));
        }
        match self.ids.first() {
            Some(id) if mode != Campaign => {
                die(&format!("unexpected argument `{id}` for {}", mode.name()))
            }
            _ => mode,
        }
    }

    fn has(&self, name: &str) -> bool {
        self.values(name).is_some()
    }

    fn values(&self, name: &str) -> Option<&[String]> {
        self.given
            .iter()
            .find(|(f, _)| f.name == name)
            .map(|(_, v)| v.as_slice())
    }

    /// Flag `name`'s value as a `T` passing `ok`; `None` when the flag is
    /// absent. A missing or bad value exits 2 with `<name> needs <what>`.
    fn value<T: FromStr>(&self, name: &str, what: &str, ok: impl Fn(&T) -> bool) -> Option<T> {
        let values = self.values(name)?;
        let value = values.first().and_then(|v| v.parse().ok()).filter(ok);
        Some(value.unwrap_or_else(|| die(&format!("{name} needs {what}"))))
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        self.value(name, "a directory", |_| true)
    }

    fn positive_secs(&self, name: &str) -> Option<Duration> {
        let secs = self.value(name, "a positive number of seconds", |s: &f64| {
            *s > 0.0 && s.is_finite()
        });
        secs.map(Duration::from_secs_f64)
    }

    fn event_budget(&self) -> Option<u64> {
        // u64::MAX is the budget plane's "disarmed" sentinel.
        self.value("--event-budget", "a positive event count", |n| {
            (1..u64::MAX).contains(n)
        })
    }

    fn jobs(&self) -> usize {
        let jobs = self.value("--jobs", "a positive integer", |&n: &usize| n >= 1);
        jobs.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
    }

    /// The fault scenario named by flag `name`.
    fn scenario(&self, name: &str) -> Option<FaultScenario> {
        let what = format!(
            "a scenario name, one of: {}",
            FaultScenario::names().join(", ")
        );
        let name = self.value(name, &what, |v: &String| {
            FaultScenario::by_name(v).is_some()
        })?;
        FaultScenario::by_name(&name)
    }
}

fn modes_of(flag: &Flag) -> String {
    let names: Vec<&str> = flag.modes.iter().map(|m| m.name()).collect();
    names.join(", ")
}

/// The no-argument listing: usage, the flag table, experiments, scenarios.
fn print_help() {
    println!("usage: figures [flags] <experiment>... | all");
    println!("flags (each names the modes that read it; a campaign is the default mode):");
    for f in FLAGS {
        let flag = format!("{} {}", f.name, f.arg);
        println!("  {flag:<32} {:<28} {}", modes_of(f), f.help);
    }
    println!("experiments:");
    for (id, _) in experiments::registry() {
        println!("  {id}");
    }
    println!("fault scenarios (--chaos, --stress-scenario):");
    for name in FaultScenario::names() {
        println!("  {name}");
    }
}

/// `--repro <file>`: replay a stress reproducer and exit 0 iff the
/// recorded failure reproduces exactly (same verdict, same signature).
fn replay_repro(path: &str, deadline: Duration) {
    let doc =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let (case, expected, observed, matches) =
        stress::replay_repro(&doc, deadline).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let scenario = case.scenario.as_deref().unwrap_or("none");
    println!(
        "case {}: experiment {}, scenario {scenario}, seed {}, budget {}, {} fault event(s)",
        case.id,
        case.experiment,
        case.seed,
        case.event_budget,
        case.size()
    );
    for (what, o) in [("expected", expected), ("observed", observed)] {
        println!("{what}: {} — {}", o.verdict.as_str(), o.signature);
    }
    if !matches {
        fail(&format!("{path}: did NOT reproduce"));
    }
    println!("{path}: reproduced");
}

/// `--stress N`: run the randomized stress sweep, shrink every failure,
/// and write `stress.txt` plus one reproducer per failing case under
/// `<out>/stress/`. Exits 1 iff any case failed.
fn run_stress_mode(cfg: &stress::StressConfig, out_dir: &Path) -> ! {
    let scenario = cfg.scenario.as_deref().unwrap_or("randomized");
    let (cases, seed, jobs) = (cfg.cases, cfg.seed, cfg.jobs);
    println!("stress: {cases} case(s), seed {seed}, scenario {scenario}, {jobs} worker(s)");
    let report = stress::run_stress(cfg);
    print!("{}", stress::stress_table(&report));
    let dir = out_dir.join("stress");
    let repros = stress::write_report(&report, &dir).unwrap_or_else(|e| die(&e));
    for (case, runs, path) in &repros {
        let (id, size, path) = (case.id, case.size(), path.display());
        println!("case {id}: shrunk to {size} fault event(s) in {runs} run(s) — wrote {path}");
    }
    let failures = report.failures();
    println!(
        "stress: {failures}/{} case(s) failed, {} reproducer(s) written to {}",
        report.results.len(),
        repros.len(),
        dir.display()
    );
    std::process::exit(if failures == 0 { 0 } else { 1 });
}

/// A campaign over the named experiments (`all` = the whole registry).
fn run_campaign(args: &Args) {
    let seed = args
        .value("--seed", "an integer", |_: &u64| true)
        .unwrap_or(CAMPAIGN_SEED);
    let jobs = args.jobs();
    let (out, obs) = (args.path("--out"), args.path("--obs"));
    let (resume, profile) = (args.has("--resume"), args.has("--profile"));
    let cc = args.value(
        "--cc",
        "a controller name (bbr or nada)",
        |name: &String| CcAlgo::parse(name).is_some_and(CcAlgo::is_rate_based),
    );
    let mut supervisor = match args.scenario("--chaos") {
        Some(scenario) => Supervisor::with_scenario(scenario),
        None => Supervisor::default(),
    };
    if let Some(deadline) = args.positive_secs("--deadline-s") {
        supervisor.deadline = deadline;
    }
    if let Some(budget) = args.event_budget() {
        supervisor.event_budget = budget;
    }
    if resume && out.is_none() {
        die("--resume needs --out (the manifest lives there)");
    }
    let registry = experiments::registry();
    if args.ids.is_empty() {
        print_help();
        return;
    }
    let mut entries = Vec::new();
    for a in &args.ids {
        match registry.iter().find(|(id, _)| id == a) {
            Some(&entry) => entries.push(entry),
            None if a == "all" => {}
            None => die(&format!("unknown experiment: {a}")),
        }
    }
    if args.ids.iter().any(|a| a == "all") {
        entries = registry;
    }
    if let Some(algo) = cc.as_deref().and_then(CcAlgo::parse) {
        experiments::bonded::set_cc(algo);
        if algo != CcAlgo::Nada {
            let name = algo.as_str();
            eprintln!("--cc {name}: bonded-uplink will diverge from the committed golden (nada)");
        }
    }
    supervisor.telemetry = profile;
    // The first SIGINT/SIGTERM stops the pool from claiming experiments and
    // cancels those in flight; they land as `interrupted` rows.
    supervisor.interrupt = Some(fiveg_bench::signal::install());
    let spec = CampaignSpec {
        entries,
        seed,
        jobs,
        supervisor,
        out: out.clone(),
        obs: obs.clone(),
        resume,
    };
    let c = campaign::run(&spec, |event| match event {
        Event::StartFresh(reason) => eprintln!("--resume: {reason} — starting fresh"),
        Event::Resumed(id) => println!("{id}: resumed — completed ok in a previous run"),
        Event::Done(o) if o.interrupted() => {
            let note = o.note.as_deref().unwrap_or("campaign stopped");
            eprintln!("{}: interrupted — {note}", o.id);
        }
        Event::Done(o) => {
            println!("{}", o.report.render());
            if o.degraded() {
                let note = o.note.as_deref().unwrap_or("unknown failure");
                eprintln!(
                    "warning: {} degraded after {} attempt(s): {note}",
                    o.id, o.attempts
                );
            }
        }
    })
    .unwrap_or_else(|e| die(&e));

    for warning in c.warnings() {
        eprintln!("warning: {warning}");
    }
    let (rows, ran) = (c.rows.len(), c.outcomes.len());
    if c.interrupted {
        let unfinished = c.rows.iter().filter(|r| r.status == RunStatus::Interrupted);
        let cancelled = c.outcomes.iter().filter(|o| o.interrupted()).count();
        let never_started = unfinished.count() - cancelled;
        let hint = out.map(|d| {
            format!(
                " — resume with `figures --resume --out {} ...`",
                d.display()
            )
        });
        eprintln!(
            "interrupted: {} experiment(s) finished, {cancelled} cancelled in flight, \
             {never_started} never started{}",
            rows - cancelled - never_started,
            hint.unwrap_or_default()
        );
        std::process::exit(fiveg_bench::signal::INTERRUPT_EXIT_CODE);
    }
    if let Some(dir) = obs.as_deref().map(Path::display) {
        println!("wrote campaign observatory ({ran} experiments) to {dir}");
        if ran < rows {
            eprintln!(
                "warning: --obs: {} resumed row(s) carry no telemetry",
                rows - ran
            );
        }
    }
    if profile {
        print!("{}", c.profile());
    }
    if let Some(table) = &c.resilience {
        println!("{table}");
    }
    if c.degraded() > 0 {
        fail(&format!("{}/{rows} experiments degraded", c.degraded()));
    }
}

fn main() {
    runner::silence_unwind_panics();
    let args = Args::parse(std::env::args().skip(1));
    let mode = args.mode();
    // The selecting flag of every mode but a campaign is present.
    let text = |name: &str, what: &str| {
        let value = args.value::<String>(name, what, |_| true);
        value.expect("the mode's own flag")
    };
    match mode {
        Campaign => run_campaign(&args),
        Scenarios => FaultScenario::names().iter().for_each(|n| println!("{n}")),
        CheckManifest => {
            let summary = campaign::check_manifest(&text("--check-manifest", "a manifest path"));
            println!("{}", summary.unwrap_or_else(|problems| fail(&problems)));
        }
        ObsDiff => {
            let [baseline, current] = args.values("--obs-diff").unwrap_or_default() else {
                die("--obs-diff needs <baseline> <current> metrics.json paths");
            };
            let d = observe::diff_files(baseline, current)
                .unwrap_or_else(|e| die(&format!("--obs-diff: {e}")));
            print!("{}", d.report);
            if d.fails > 0 {
                fail(&format!("--obs-diff: {} FAIL-grade drift row(s)", d.fails));
            }
        }
        Validate => {
            // Grades every artifact in the directory against the paper
            // (`bench::expect`) and writes `validation.txt` beside them.
            let dir = args.values("--validate").and_then(|v| v.first());
            let dir = Path::new(dir.map_or("results", String::as_str));
            let v = fiveg_bench::expect::validate_dir(dir);
            print!("{}", v.report);
            let path = dir.join("validation.txt");
            if let Err(e) = runner::write_atomic(&path, &v.report) {
                die(&format!("cannot write {}: {e}", path.display()));
            }
            std::process::exit(if v.ok() { 0 } else { 1 });
        }
        Repro => {
            let deadline = args.positive_secs("--deadline-s");
            let path = text("--repro", "a reproducer file path");
            replay_repro(&path, deadline.unwrap_or(Duration::from_secs(120)))
        }
        Stress => {
            let cases = args.value("--stress", "a positive case count", |&n: &usize| n >= 1);
            let mut cfg = stress::StressConfig {
                cases: cases.expect("the mode's own flag"),
                seed: args
                    .value("--stress-seed", "an integer", |_| true)
                    .unwrap_or(CAMPAIGN_SEED),
                scenario: args.scenario("--stress-scenario").map(|s| s.name),
                canary: args.has("--stress-canary"),
                jobs: args.jobs(),
                ..stress::StressConfig::default()
            };
            if let Some(deadline) = args.positive_secs("--deadline-s") {
                cfg.deadline = deadline;
            }
            if let Some(budget) = args.event_budget() {
                cfg.max_budget = budget;
            }
            run_stress_mode(&cfg, &args.path("--out").unwrap_or("results".into()));
        }
    }
}
