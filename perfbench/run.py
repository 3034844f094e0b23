#!/usr/bin/env python3
"""Repository benchmark: times `figures`-equivalent campaign passes.

    python3 perfbench/run.py --workload {quiet,net} --seed N \
        --seconds S --trace {0,1,2}

Run from the repository root. It builds `perfbench/` (a Cargo package of
its own) into $CARGO_TARGET_DIR (default `.bench_build`), then:

* `--trace 0`: spawns one `perfbench pass` process per end-to-end pass for
  about S seconds (at least three passes) plus extra set-up-only spawns,
  checks every pass, and reports `wall_s`, `cpu_s`, `peak_rss_mb` and
  `setup_s`;
* `--trace 1`: runs the in-process traced run once and reports the
  per-layer metrics;
* `--trace 2`: both, in one report.

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_SEED = 2021
MIN_PASSES = 3
# Set-up-only spawns made before each pass, so that the set-up samples
# spread over the whole measuring window.
SETUP_BATCH = 8
# A run must finish well inside the 180 s a benchmark run is allowed: the
# timed passes stop after HARD_STOP_S, the traced run is killed after
# TRACE_STOP_S.
HARD_STOP_S = 150.0
TRACE_STOP_S = 165.0


class Timeout(Exception):
    pass


def on_alarm(_signum, _frame):
    raise Timeout()


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary; returns its path."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join("perfbench", "Cargo.toml")
    if not os.path.isdir(os.path.join("crates", "bench")):
        die("no crates/ next to perfbench/: run from the repository root")
    r = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=subprocess.DEVNULL,
    )
    if r.returncode != 0:
        die(f"cargo build failed with exit code {r.returncode}")
    exe = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(exe):
        die(f"built binary not found at {exe}")
    return exe


def spawn(argv, out_path, timeout_s):
    """Runs argv with stdout to out_path; returns (status, rusage, t_spawn)."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t_spawn = time.time()
        pid = os.posix_spawn(
            argv[0],
            argv,
            os.environ,
            file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ],
        )
    signal.alarm(max(1, int(timeout_s)))
    try:
        _, status, ru = os.wait4(pid, 0)
    except Timeout:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        die(f"`{' '.join(argv[1:3])}` did not finish within {timeout_s:.0f} s")
    finally:
        signal.alarm(0)
    return os.waitstatus_to_exitcode(status), ru, t_spawn


def last_json(path):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def read_dir(path):
    """name -> bytes for every file under path (relative names, sorted)."""
    out = {}
    for base, _, files in os.walk(path):
        for name in files:
            full = os.path.join(base, name)
            with open(full, "rb") as f:
                out[os.path.relpath(full, path)] = f.read()
    return dict(sorted(out.items()))


def digest(files):
    h = hashlib.sha256()
    for name, data in files.items():
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()[:16]


def units_of(exp_ids, unit_counts):
    return sum(unit_counts.get(e, 1) for e in exp_ids)


class Checker:
    """Per-pass correctness: which experiments of a pass failed, and why."""

    def __init__(self, exe, seed, work):
        self.exe, self.seed, self.work = exe, seed, work
        self.reference = None  # (artifact files, exact counts) of the first pass
        # Experiments of the first pass that fail the golden check; a later
        # pass byte-identical to the first fails it the same way.
        self.golden_bad = set()
        self.notes = []

    def experiments_failing_validation(self, out_dir):
        """At the golden seed, quiet artifacts must equal results/ byte for
        byte and the paper-fidelity gate must report 0 FAIL."""
        bad = set()
        for name in sorted(os.listdir(out_dir)):
            if not name.endswith(".txt"):
                continue
            golden = os.path.join("results", name)
            with open(os.path.join(out_dir, name), "rb") as f:
                mine = f.read()
            if not os.path.isfile(golden) or open(golden, "rb").read() != mine:
                bad.add(name[:-4])
                self.notes.append(f"{name} differs from results/{name}")
        status, _, _ = spawn(
            [self.exe, "check", "--dir", out_dir], os.path.join(self.work, "check.out"), 60
        )
        v = last_json(os.path.join(self.work, "check.out"))
        if status != 0 or v is None:
            self.notes.append("validation gate did not run")
            return None
        for check in v["failing"]:
            bad.add(check.split(".")[0])
            self.notes.append(f"validation FAIL {check}")
        return bad

    def failing(self, ids, out_dir, counts):
        """Experiment ids of this pass that count as failed."""
        bad = set()
        files = {k: v for k, v in read_dir(out_dir).items() if not k.endswith(".tmp")}
        for e in ids:
            if f"{e}.txt" not in files:
                bad.add(e)
                self.notes.append(f"{e}: no artifact")
        if counts.get("degraded", 1) or counts.get("interrupted", 1):
            manifest = json.loads(files.get("manifest.json", b"{}") or b"{}")
            for row in manifest.get("results", []):
                if row.get("status") != "ok":
                    bad.add(row.get("id"))
                    self.notes.append(f"{row.get('id')}: status {row.get('status')}")
        if counts.get("violations", 0):
            self.notes.append(f"{counts['violations']} guard violation(s)")
            bad.update(ids)
        if self.reference is None:
            self.reference = (files, counts)
            if self.seed == GOLDEN_SEED:
                failing = self.experiments_failing_validation(out_dir)
                self.golden_bad = set(ids) if failing is None else failing
        else:
            ref_files, ref_counts = self.reference
            for name in sorted(set(files) | set(ref_files)):
                if files.get(name) != ref_files.get(name):
                    stem = name[:-4] if name.endswith(".txt") else None
                    bad.update([stem] if stem in ids else ids)
                    self.notes.append(f"{name} differs between passes")
            for key in ("units", "attempts", "events", "recovery", "degraded", "violations"):
                if counts.get(key) != ref_counts.get(key):
                    bad.update(ids)
                    self.notes.append(f"exact count `{key}` differs between passes")
        return bad | self.golden_bad


def workload_ids(exe, workload, work):
    """(experiment ids, units per experiment) as perfbench plans them."""
    status, _, _ = spawn([exe, "plan", "--workload", workload], os.path.join(work, "plan.out"), 60)
    plan = last_json(os.path.join(work, "plan.out"))
    if status != 0 or plan is None:
        die(f"cannot plan workload `{workload}`")
    return plan["ids"], plan["units"]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, exe, work):
    ids, unit_counts = workload_ids(exe, args.workload, work)
    checker = Checker(exe, args.seed, work)
    base = [exe, "pass", "--workload", args.workload, "--seed", str(args.seed)]

    setups = []

    def set_up_only():
        out = os.path.join(work, f"setup{len(setups)}")
        status, _, t_spawn = spawn(
            [exe, "setup", "--workload", args.workload, "--seed", str(args.seed), "--out", out],
            out + ".out",
            60,
        )
        r = last_json(out + ".out")
        if status != 0 or r is None:
            die("set-up-only run failed")
        setups.append(r["t_setup"] - t_spawn)

    passes, attempted, failed_units, digests = [], 0, 0, set()
    t0 = time.monotonic()
    k = 0
    while True:
        elapsed = time.monotonic() - t0
        if elapsed > HARD_STOP_S:
            break
        if k >= MIN_PASSES and elapsed + elapsed / k > args.seconds:
            break
        for _ in range(SETUP_BATCH):
            set_up_only()
        out = os.path.join(work, f"pass{k}")
        status, ru, t_spawn = spawn(base + ["--out", out], out + ".out",
                                    max(10.0, HARD_STOP_S - elapsed))
        r = last_json(out + ".out")
        attempted += sum(unit_counts.values())
        k += 1
        if status != 0 or r is None or "t_end" not in r:
            failed_units += sum(unit_counts.values())
            checker.notes.append(f"pass {k - 1} exited with status {status}")
            continue
        bad = checker.failing(ids, out, r)
        failed_units += units_of(bad, unit_counts)
        digests.add(digest(read_dir(out)))
        passes.append(
            {
                "wall": r["t_end"] - t_spawn,
                "cpu": ru.ru_utime + ru.ru_stime,
                "rss_mb": r["peak_rss_kib"] / 1024.0,
                "counts": r,
            }
        )

    if not passes:
        die("no pass completed")
    c = passes[0]["counts"]
    print(f"workload {args.workload}: seed {args.seed}, {len(passes)} passes, "
          f"{len(ids)} experiments, {c['units']} units, jobs 2")
    print(f"exact counts: events {c['events']}, recovery events {c['recovery']}, "
          f"attempts {c['attempts']}, degraded {c['degraded']}, guard violations "
          f"{c['violations']}, artifact digest {','.join(sorted(digests))}")
    walls = [p["wall"] for p in passes]
    cpus = [p["cpu"] for p in passes]
    rss = [p["rss_mb"] for p in passes]
    rows = [
        ("wall_s", min(walls), "s", walls, "fastest pass"),
        ("cpu_s", min(cpus), "s", cpus, "least-CPU pass"),
        ("peak_rss_mb", statistics.median(rss), "MB", rss, "median pass"),
        ("setup_s", statistics.median(setups), "s", setups, "median set-up-only spawn"),
    ]
    for name, value, unit, samples, how in rows:
        print(f"  {name:<12} {value:>12.6f} {unit:<3} ({how} of {len(samples)}; "
              f"min {min(samples):.6f}, median {statistics.median(samples):.6f}, "
              f"max {max(samples):.6f})")
    for note in sorted(set(checker.notes)):
        print(f"  check: {note}")
    metrics = {name: metric(value, unit) for name, value, unit, _, _ in rows}
    return failed_units == 0, attempted, failed_units, metrics


def traced(args, exe, work):
    ids, unit_counts = workload_ids(exe, args.workload, work)
    out_path = os.path.join(work, "trace.out")
    status, _, _ = spawn(
        [exe, "trace", "--workload", args.workload, "--seed", str(args.seed), "--work", work],
        out_path,
        TRACE_STOP_S,
    )
    r = last_json(out_path)
    if status != 0 or r is None:
        die(f"traced run failed with exit code {status}")
    checker = Checker(exe, args.seed, work)
    counts = {k: r[k] for k in ("degraded", "interrupted", "violations")}
    bad = checker.failing(ids, os.path.join(work, "pass"), counts)
    # In-process checks: report identity across the campaign pass, the
    # supervised units and the bare bodies, and replay drift.
    bad.update(r["failed"])
    checker.notes.extend(r["notes"])
    # Each unit was attempted three times (campaign, supervised, bare); the
    # chaos probe's failed unit attempts come counted.
    failed = 3 * units_of(bad, unit_counts) + r["probe_failed_units"]
    units = sum(unit_counts.values())
    m = r["metrics"]
    print(f"workload {args.workload}: seed {args.seed}, traced run, {units} units, "
          f"campaign artifact digest {digest(read_dir(os.path.join(work, 'pass')))}")
    for name, v in m.items():
        print(f"  {name:<36} {v['value']:>16.6f} {v['unit']}")
    for span, what in r["unsplit"]:
        if m[f"{span}.calls"]["value"]:
            print(f"  {span} self time includes {what}")
    for note in sorted(set(checker.notes)):
        print(f"  check: {note}")
    return failed == 0, r["attempted"], failed, m


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["quiet", "net"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1, 2], default=0,
                   help="0: end-to-end passes, 1: traced run, 2: both")
    args = p.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")
    os.chdir(ROOT)
    signal.signal(signal.SIGALRM, on_alarm)
    exe = os.path.abspath(build())
    modes = {0: [end_to_end], 1: [traced], 2: [end_to_end, traced]}[args.trace]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for run in modes:
        work = os.path.join(".bench_work", f"{args.workload}-{run.__name__}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        ok, att, fail, m = run(args, exe, work)
        correct, attempted, failed = correct and ok, attempted + att, failed + fail
        metrics.update(m)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
