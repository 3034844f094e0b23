//! The `figures` binary's command line, driven as a user would drive it.

use std::path::PathBuf;
use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures runs")
}

fn scratch_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fiveg-cli-{}-{name}", std::process::id()))
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
