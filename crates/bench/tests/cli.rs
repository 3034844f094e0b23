//! The `figures` binary's command line, driven as a user would drive it.

use fiveg_bench::runner::{parse_manifest, RunStatus};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures runs")
}

fn scratch_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fiveg-cli-{}-{name}", std::process::id()))
}

/// Runs `figures` in a fresh empty directory, so a test can see every file
/// or directory the run creates there.
fn figures_in_empty_dir(name: &str, args: &[&str]) -> (Output, PathBuf) {
    let cwd = scratch_dir(name);
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("mkdir");
    let run = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(&cwd)
        .output()
        .expect("figures runs");
    (run, cwd)
}

/// Exits 2 with every `needle` on stderr, having printed nothing and
/// created nothing in its working directory.
fn assert_usage_error(name: &str, args: &[&str], needles: &[&str]) {
    let (run, cwd) = figures_in_empty_dir(name, args);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
    assert!(run.stdout.is_empty(), "{args:?} ran a mode");
    let created: Vec<_> = std::fs::read_dir(&cwd).expect("ls").collect();
    assert!(created.is_empty(), "{args:?} created {created:?}");
    let _ = std::fs::remove_dir_all(&cwd);
}

/// A value flag takes its own next argument or none: one that is missing
/// or starts with `-` exits 2 naming the flag, before anything is created,
/// so a later argument is never taken as its value.
#[test]
fn value_flags_never_take_a_later_argument() {
    assert_usage_error(
        "out-missing",
        &["--out", "--seed", "7", "all"],
        &["--out needs a directory"],
    );
    assert_usage_error(
        "obs-missing",
        &["--obs", "--out", "x", "table1"],
        &["--obs needs a directory"],
    );
}

/// A flag that the selected mode does not read, and two modes at once,
/// exit 2 naming the flags instead of being dropped: `--cc` in particular
/// reaches only a campaign, since a stress reproducer does not record the
/// controller.
#[test]
fn flags_outside_their_mode_exit_2_named() {
    for (name, args, needles) in [
        (
            "stress-seed",
            &["--stress-seed", "7", "table1"][..],
            &["`--stress-seed`"][..],
        ),
        (
            "two-modes",
            &["--check-manifest", "m.json", "--validate", "d"][..],
            &["`--check-manifest`", "`--validate`"][..],
        ),
        (
            "cc-stress",
            &["--stress", "1", "--cc", "bbr"][..],
            &["`--cc`"][..],
        ),
        (
            "cc-repro",
            &["--repro", "r.json", "--cc", "bbr"][..],
            &["`--cc`"][..],
        ),
    ] {
        assert_usage_error(name, args, needles);
    }
}

/// A campaign with a degraded experiment exits 1, with no flag asked.
#[test]
fn degraded_campaign_exits_1() {
    let run = figures(&["--event-budget", "1000", "fig9"]);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("1/1 experiments degraded"), "{stderr}");
}

/// `--obs-diff` exits 1 on FAIL-grade drift and 0 on a self-diff, with no
/// flag asked.
#[test]
fn obs_diff_exits_1_on_fail_grade_drift() {
    let baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/OBS_baseline.json"
    );
    let same = figures(&["--obs-diff", baseline, baseline]);
    assert_eq!(same.status.code(), Some(0));
    // A store whose campaign ran none of the baseline's experiments: every
    // baseline row is missing, which grades FAIL.
    let dir = scratch_dir("obs-diff");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(
        dir.join("metrics.json"),
        r#"{"schema":"obs-v1","seed":2021,"scenario":null,"experiments":[]}"#,
    )
    .expect("write store");
    let drift = figures(&["--obs-diff", baseline, dir.to_str().expect("utf-8")]);
    let stderr = String::from_utf8_lossy(&drift.stderr);
    assert_eq!(drift.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("FAIL-grade drift"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A retired or misspelt flag exits 2 before any experiment runs, even when
/// `all` selects the whole campaign.
#[test]
fn unknown_flags_exit_2_before_any_experiment_runs() {
    for (name, args, flag) in [
        ("retired", &["--bench-out", "x", "all"][..], "--bench-out"),
        ("trailing", &["all", "--no-such-flag"][..], "--no-such-flag"),
    ] {
        let out = scratch_dir(name);
        let dir = out.to_str().expect("utf-8 temp path");
        let run = figures(&[&["--out", dir][..], args].concat());
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag: {flag}")),
            "{args:?}: {stderr}"
        );
        assert!(
            !out.join("manifest.json").exists(),
            "{args:?} ran experiments"
        );
        let _ = std::fs::remove_dir_all(&out);
    }
}

/// A flag given twice is named as repeated, not as unknown, and exits 2
/// before anything runs, whatever the mode.
#[test]
fn repeated_flags_exit_2_named_as_repeated() {
    for (name, args, flag) in [
        (
            "seed",
            &["--seed", "1", "--seed", "2", "table1"][..],
            "--seed",
        ),
        (
            "switch",
            &["--profile", "all", "--profile"][..],
            "--profile",
        ),
        (
            "mode",
            &["--list-scenarios", "--list-scenarios"][..],
            "--list-scenarios",
        ),
        (
            "stress",
            &["--stress", "1", "--stress", "2"][..],
            "--stress",
        ),
    ] {
        let out = scratch_dir(name);
        let dir = out.to_str().expect("utf-8 temp path");
        let run = figures(&[&["--out", dir][..], args].concat());
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("`{flag}` given more than once")),
            "{args:?}: {stderr}"
        );
        assert!(run.stdout.is_empty(), "{args:?} ran a mode");
        assert!(!out.exists(), "{args:?} created its output directory");
    }
}

/// A SIGINT that lands after one of fig16's three shards has finished
/// leaves a row for every requested experiment: fig16 `interrupted` with
/// its shard count, table1 (queued behind it) `interrupted` as never
/// started. The summary counts fig16 as cancelled, `--check-manifest`
/// refuses the manifest, and `--resume` re-runs both rows to `ok`.
#[test]
fn interrupt_between_shards_keeps_every_row() {
    let out = scratch_dir("mid-shards");
    let dir = out.to_str().expect("utf-8 temp path");
    let manifest = out.join("manifest.json");
    let args = ["--jobs", "1", "--out", dir, "fig16", "table1"];
    let mut child = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("figures starts");
    // The manifest counts fig16's shards as they finish; interrupt at the
    // first, while the second runs.
    loop {
        let text = std::fs::read_to_string(&manifest).unwrap_or_default();
        if text.contains("1 of 3 shards finished") {
            break;
        }
        if let Some(status) = child.try_wait().expect("poll figures") {
            panic!(
                "figures exited ({status}) before the manifest counted a finished shard: {text}"
            );
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let run = child.wait_with_output().expect("figures exits");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(130), "{stderr}");
    assert!(
        stderr.contains("0 experiment(s) finished, 1 cancelled in flight, 1 never started"),
        "{stderr}"
    );

    let text = std::fs::read_to_string(&manifest).expect("manifest");
    let (_, _, rows) = parse_manifest(&text).expect("manifest parses");
    let summary: Vec<(&str, RunStatus, Option<&str>)> = rows
        .iter()
        .map(|r| (r.id.as_str(), r.status, r.note.as_deref()))
        .collect();
    assert_eq!(
        summary,
        [
            (
                "fig16",
                RunStatus::Interrupted,
                Some("interrupted with 1 of 3 shards finished")
            ),
            ("table1", RunStatus::Interrupted, Some("never started")),
        ]
    );
    let check = figures(&["--check-manifest", manifest.to_str().expect("utf-8")]);
    assert_eq!(check.status.code(), Some(1));

    let resume = figures(&[&["--resume"][..], &args].concat());
    assert_eq!(resume.status.code(), Some(0));
    let text = std::fs::read_to_string(&manifest).expect("manifest");
    let (_, _, rows) = parse_manifest(&text).expect("manifest parses");
    assert!(rows.iter().all(|r| r.status == RunStatus::Ok), "{text}");
    let _ = std::fs::remove_dir_all(&out);
}

/// Budget exhaustion unwinds the attempt by panicking; the runner records
/// the row as degraded, and the panic itself never reaches stderr.
#[test]
fn deliberate_unwind_panics_stay_off_stderr() {
    let run = figures(&["--event-budget", "1000", "fig9"]);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains("fig9 degraded after 2 attempt(s)"),
        "{stderr}"
    );
    assert!(stderr.contains("budget exhausted"), "{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
}

/// A closed stdout ends the run without a panic: the reader takes one line
/// and goes away, as `figures fig9 table2 | head -1` and `figures | head`
/// do. fig9's report reaches the pipe before table2 runs, so table2's is
/// written to a closed pipe.
#[test]
fn closed_stdout_ends_the_run_without_a_panic() {
    for args in [&["--jobs", "1", "fig9", "table2"][..], &[]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("figures runs");
        let mut first = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut first)
            .expect("a first line");
        let run = child.wait_with_output().expect("figures exits");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!first.is_empty(), "{args:?} printed nothing");
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
        assert_ne!(run.status.code(), Some(101), "{args:?}: {stderr}");
    }
}

/// A stress case the deadline cancels fails the sweep, but a deadline does
/// not replay deterministically: it is neither shrunk nor written up as a
/// reproducer, which `--repro` could only read back as `pass`.
#[test]
fn deadline_verdicts_write_no_reproducer() {
    let out = scratch_dir("stress-deadline");
    let _ = std::fs::remove_dir_all(&out);
    let out_arg = out.to_str().expect("utf-8");
    let run = figures(&["--stress", "1", "--deadline-s", "0.001", "--out", out_arg]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert_eq!(run.status.code(), Some(1), "{stdout}");
    assert!(!stdout.contains("shrunk to"), "{stdout}");
    let table = std::fs::read_to_string(out.join("stress/stress.txt")).expect("stress.txt");
    assert!(table.contains(" deadline "), "{table}");
    let repros: Vec<_> = std::fs::read_dir(out.join("stress"))
        .expect("ls")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("repro-"))
        .collect();
    assert!(repros.is_empty(), "wrote {repros:?}");
    let _ = std::fs::remove_dir_all(&out);
}

/// A manifest written before rows carried `events` is refused by name:
/// `--check-manifest` exits 1 and `--resume` starts fresh, neither panics.
#[test]
fn pre_ledger_manifest_is_refused_by_name() {
    let dir = scratch_dir("pre-ledger");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let manifest = dir.join("manifest.json");
    std::fs::write(
        &manifest,
        r#"{"seed":2021,"scenario":null,"experiments":1,"degraded":0,"results":[{"id":"table1","status":"ok","attempts":1,"note":null,"recovery":{"events":0,"outage_s":0,"mean_detect_s":0,"rebuffer_s":0,"failovers":0,"by_kind":{}}}]}"#,
    )
    .expect("write manifest");
    std::fs::write(dir.join("table1.txt"), "stale").expect("write report");
    let missing = "result `table1` missing `events`";

    let check = figures(&["--check-manifest", manifest.to_str().expect("utf-8")]);
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert_eq!(check.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(missing), "{stderr}");

    let dir_arg = dir.to_str().expect("utf-8");
    let resume = figures(&["--resume", "--out", dir_arg, "table1"]);
    let stderr = String::from_utf8_lossy(&resume.stderr);
    assert_eq!(resume.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("--resume: ignoring malformed"), "{stderr}");
    assert!(stderr.contains(missing), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let rerun = std::fs::read_to_string(dir.join("table1.txt")).expect("report");
    assert_ne!(rerun, "stale", "table1 was resumed instead of re-run");
    let _ = std::fs::remove_dir_all(&dir);
}
