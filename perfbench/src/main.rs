//! `perfbench`: the process the benchmark orchestrator (`run.py`) times.
//!
//! ```text
//! perfbench pass  --workload W --seed N --out DIR   # one end-to-end pass
//! perfbench setup --workload W --seed N --out DIR   # set-up only, then exit
//! perfbench plan  --workload W                      # experiment ids and units
//! perfbench check --dir DIR                         # paper-fidelity gate
//! perfbench trace --workload W --seed N --work DIR  # the traced run
//! ```
//!
//! `pass` and `setup` print, as their last stdout line, a JSON object with
//! the epoch time set-up ended (`t_setup`) and, for `pass`, the time the
//! last artifact was written (`t_end`), its peak resident set, and the
//! pass's exact counts.
//! `trace` prints the per-layer metrics of the traced run, its unit
//! attempts, and the experiments that failed its in-process checks.

mod campaign;
mod replay;
mod trace;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use workload::Workload;

struct Args {
    mode: String,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let mode = it
            .next()
            .ok_or("missing mode (pass, setup, plan, check or trace)")?;
        let mut flags = Vec::new();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name.to_string(), value));
        }
        Ok(Args { mode, flags })
    }

    fn need(&self, name: &str) -> Result<&str, String> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.need("workload")?;
        workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))
    }

    fn seed(&self) -> Result<u64, String> {
        let s = self.need("seed")?;
        s.parse()
            .map_err(|_| format!("--seed needs an integer, got `{s}`"))
    }

    fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = PathBuf::from(self.need(name)?);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

fn json_str(s: &str) -> String {
    fiveg_bench::json::Json::str(s).render()
}

fn pass(a: &Args, setup_only: bool) -> Result<(), String> {
    let w = a.workload()?;
    let seed = a.seed()?;
    let out = a.dir("out")?;
    let plan = campaign::plan(&w)?;
    let t_setup = campaign::epoch_s();
    if setup_only {
        println!("{{\"t_setup\":{t_setup}}}");
        return Ok(());
    }
    let r = campaign::run(&w, &plan, seed, &out, None)?;
    let t_end = campaign::epoch_s();
    println!(
        "{{\"t_setup\":{t_setup},\"t_end\":{t_end},\"peak_rss_kib\":{},\"units\":{},\"attempts\":{},\"degraded\":{},\
         \"interrupted\":{},\"violations\":{},\"events\":{},\"recovery\":{}}}",
        campaign::peak_rss_kib(),
        plan.units,
        r.attempts(),
        r.degraded(),
        r.interrupted(),
        r.violations(),
        r.events(),
        r.recovery_events()
    );
    Ok(())
}

/// The workload's experiment ids and work units per experiment.
fn plan(a: &Args) -> Result<(), String> {
    let w = a.workload()?;
    let ids: Vec<String> = w.ids.iter().map(|id| json_str(id)).collect();
    let units: Vec<String> = w
        .ids
        .iter()
        .map(|id| {
            let n = fiveg_bench::shard::find(id).map_or(1, |s| s.shards);
            format!("{}:{n}", json_str(id))
        })
        .collect();
    println!(
        "{{\"ids\":[{}],\"units\":{{{}}}}}",
        ids.join(","),
        units.join(",")
    );
    Ok(())
}

/// `bench::expect::validate_dir`: prints the FAIL count and failing check ids.
fn check(a: &Args) -> Result<(), String> {
    let dir = PathBuf::from(a.need("dir")?);
    let v = fiveg_bench::expect::validate_dir(&dir);
    let failing: Vec<String> = v
        .report
        .lines()
        .filter_map(|l| {
            let mut cols = l.split_whitespace();
            (cols.next() == Some("FAIL")).then(|| cols.next().map(json_str))?
        })
        .collect();
    println!(
        "{{\"passes\":{},\"warns\":{},\"fails\":{},\"failing\":[{}]}}",
        v.passes,
        v.warns,
        v.fails,
        failing.join(",")
    );
    Ok(())
}

fn trace_mode(a: &Args) -> Result<(), String> {
    let w = a.workload()?;
    let seed = a.seed()?;
    let work = a.dir("work")?;
    let t = traced::run(&w, seed, &work)?;
    write(&work.join("spans.tsv"), &trace::render(&t.spans))?;
    let metrics: Vec<String> = t
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    let strs = |v: &[&str]| v.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(",");
    let notes: Vec<&str> = t.notes.iter().map(String::as_str).collect();
    let unsplit: Vec<String> = replay::UNSPLIT
        .iter()
        .map(|(span, what)| format!("[{},{}]", json_str(span), json_str(what)))
        .collect();
    println!(
        "{{\"attempted\":{},\"degraded\":{},\"interrupted\":{},\"violations\":{},\"failed\":[{}],\
         \"probe_failed_units\":{},\"notes\":[{}],\"unsplit\":[{}],\"metrics\":{{{}}}}}",
        t.attempted,
        t.degraded,
        t.interrupted,
        t.violations,
        strs(&t.failed),
        t.probe_failed_units,
        strs(&notes),
        unsplit.join(","),
        metrics.join(",")
    );
    Ok(())
}

fn write(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() {
    let result = Args::parse().and_then(|a| match a.mode.as_str() {
        "pass" => pass(&a, false),
        "setup" => pass(&a, true),
        "plan" => plan(&a),
        "check" => check(&a),
        "trace" => trace_mode(&a),
        other => Err(format!("unknown mode `{other}`")),
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
