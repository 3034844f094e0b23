#!/usr/bin/env bash
# Offline CI for the fiveg-wild workspace.
#
# Runs the tier-1 verification (release build + full test suite) plus the
# clippy, rustfmt and rustdoc lint gates. Everything here works with zero
# network access: the workspace has no external dependencies (see the note
# in Cargo.toml), so `--offline` is enforced to catch any accidental
# registry dependency.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> tier-1: cargo build --release --workspace"
cargo build --release --offline --workspace

echo "==> tier-1: cargo test -q --workspace"
cargo test -q --offline --workspace

# The benchmark (perfbench/, its own Cargo package) pins the library API
# it calls; building and testing it here fails CI on a broken pin instead
# of ending the benchmark run as `failed`. It writes only perfbench/target/.
echo "==> benchmark: cargo test --release (perfbench)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> lint: cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> lint: cargo fmt --check"
cargo fmt --check

echo "==> lint: cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# --- Chaos smoke matrix -----------------------------------------------------
# Run a small campaign under every non-quiet fault scenario, against the
# experiments that exercise that scenario's layer. `--check-manifest` is the
# gate: it exits non-zero if the manifest is malformed or any experiment
# degraded. Each scenario must also record at least one recovery action.
FIG=./target/release/figures
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT

smoke() {
    local sc=$1; shift
    local dir="$SMOKE_DIR/$sc"
    echo "==> chaos smoke: $sc ($*)"
    "$FIG" --seed 2021 --chaos "$sc" --out "$dir" "$@" > /dev/null
    "$FIG" --check-manifest "$dir/manifest.json"
    local events
    events=$("$FIG" --check-manifest "$dir/manifest.json" | grep -o '[0-9]* recovery events' | cut -d' ' -f1)
    if [ "$events" -eq 0 ]; then
        echo "error: scenario $sc recorded no recovery actions" >&2
        exit 1
    fi
}

smoke blockage-storm        fig9 fig17
smoke dead-zone-drive       fig9
smoke rrc-flaky             fig10
smoke transport-turbulence  fig8 fig17 fig19 bonded-uplink
smoke power-glitch          table2
smoke chaos                 table2 fig9 fig10

# Double-run determinism: the same chaos campaign, run twice, must produce
# byte-identical manifests (and so identical hashes).
echo "==> chaos smoke: double-run determinism"
"$FIG" --seed 2021 --chaos chaos --out "$SMOKE_DIR/det-a" table2 fig9 fig10 > /dev/null
cmp "$SMOKE_DIR/chaos/manifest.json" "$SMOKE_DIR/det-a/manifest.json"

# Resume determinism: a campaign continued with --resume finishes with the
# same manifest bytes as an uninterrupted one.
echo "==> chaos smoke: resume determinism"
"$FIG" --seed 2021 --chaos chaos --out "$SMOKE_DIR/det-b" table2 > /dev/null
"$FIG" --seed 2021 --chaos chaos --out "$SMOKE_DIR/det-b" --resume table2 fig9 fig10 > /dev/null
cmp "$SMOKE_DIR/chaos/manifest.json" "$SMOKE_DIR/det-b/manifest.json"

# --- Parallel determinism ----------------------------------------------------
# The scheduler contract: `--jobs 4` must produce a manifest byte-identical
# to `--jobs 1`, quiet and under chaos. `cmp` is the hash compare — any
# reordering, seed drift, or shared-RNG leak between workers fails the gate.
echo "==> parallel determinism: quiet, --jobs 1 vs --jobs 4"
"$FIG" --seed 2021 --jobs 1 --out "$SMOKE_DIR/par-s" table1 fig1 fig2 fig9 table2 fig11 > /dev/null
"$FIG" --seed 2021 --jobs 4 --out "$SMOKE_DIR/par-j" table1 fig1 fig2 fig9 table2 fig11 > /dev/null
cmp "$SMOKE_DIR/par-s/manifest.json" "$SMOKE_DIR/par-j/manifest.json"

# The paper-fidelity gate on subset dirs: expectations whose artifact is
# absent are skipped, so a partial campaign still validates — and the
# validation.txt written for the serial and parallel runs must be
# byte-identical.
echo "==> validation gate: serial vs --jobs 4 subset dirs"
"$FIG" --validate "$SMOKE_DIR/par-s" > /dev/null
"$FIG" --validate "$SMOKE_DIR/par-j" > /dev/null
cmp "$SMOKE_DIR/par-s/validation.txt" "$SMOKE_DIR/par-j/validation.txt"

echo "==> parallel determinism: chaos, --jobs 1 vs --jobs 4"
"$FIG" --seed 2021 --chaos chaos --jobs 1 --out "$SMOKE_DIR/par-cs" table2 fig9 fig10 > /dev/null
"$FIG" --seed 2021 --chaos chaos --jobs 4 --out "$SMOKE_DIR/par-cj" table2 fig9 fig10 > /dev/null
cmp "$SMOKE_DIR/par-cs/manifest.json" "$SMOKE_DIR/par-cj/manifest.json"

# Resume + jobs: rows resumed from a partial campaign are skipped before the
# work queue is built, and the finished manifest still matches serial bytes.
echo "==> parallel determinism: --resume with --jobs 4"
"$FIG" --seed 2021 --jobs 1 --out "$SMOKE_DIR/par-r" table1 fig1 > /dev/null
"$FIG" --seed 2021 --jobs 4 --out "$SMOKE_DIR/par-r" --resume table1 fig1 fig2 fig9 table2 fig11 > /dev/null
cmp "$SMOKE_DIR/par-s/manifest.json" "$SMOKE_DIR/par-r/manifest.json"

# --- Intra-experiment sharding -------------------------------------------------
# Shard fan-out is a scheduling decision, never a semantics decision: the
# sharded experiments (fig15/fig16/fig17/fig18*/ablation-pensieve/
# bonded-uplink) must render byte-identical artifacts serially and on a
# --jobs 4 pool (where each shard is its own work unit). The in-line shard
# path (`Supervisor::run_one`) is pinned by tests/shard_plane.rs.
SHARD_IDS="fig15 fig16 fig18c bonded-uplink"
echo "==> shard plane: --jobs 1 vs --jobs 4"
# shellcheck disable=SC2086
"$FIG" --seed 2021 --jobs 1 --out "$SMOKE_DIR/shard-s" $SHARD_IDS > /dev/null
# shellcheck disable=SC2086
"$FIG" --seed 2021 --jobs 4 --out "$SMOKE_DIR/shard-j" $SHARD_IDS > /dev/null
cmp "$SMOKE_DIR/shard-s/manifest.json" "$SMOKE_DIR/shard-j/manifest.json"
for f in "$SMOKE_DIR"/shard-s/*.txt; do
    cmp "$f" "$SMOKE_DIR/shard-j/$(basename "$f")"
done

# Same contract under chaos: per-shard fault worlds are keyed by
# (attempt seed, id, shard) — never by which worker ran the shard when.
echo "==> shard plane: chaos byte-identity"
"$FIG" --seed 2021 --chaos chaos --jobs 4 --out "$SMOKE_DIR/shard-ca" fig17 fig18c bonded-uplink > /dev/null
"$FIG" --seed 2021 --chaos chaos --jobs 1 --out "$SMOKE_DIR/shard-cb" fig17 fig18c bonded-uplink > /dev/null
cmp "$SMOKE_DIR/shard-ca/manifest.json" "$SMOKE_DIR/shard-cb/manifest.json"
# Double-run determinism for the bonded family specifically, quiet and
# chaos: the same campaign twice must render identical artifact bytes.
echo "==> shard plane: bonded-uplink double-run determinism"
"$FIG" --seed 2021 --chaos chaos --jobs 4 --out "$SMOKE_DIR/shard-ca2" fig17 fig18c bonded-uplink > /dev/null
cmp "$SMOKE_DIR/shard-ca/bonded-uplink.txt" "$SMOKE_DIR/shard-ca2/bonded-uplink.txt"
"$FIG" --seed 2021 --out "$SMOKE_DIR/bond-q1" bonded-uplink > /dev/null
"$FIG" --seed 2021 --out "$SMOKE_DIR/bond-q2" bonded-uplink > /dev/null
cmp "$SMOKE_DIR/bond-q1/bonded-uplink.txt" "$SMOKE_DIR/bond-q2/bonded-uplink.txt"

# --profile must render the hot-spot table (campaign wall ranking plus the
# heaviest telemetry spans) without touching the artifacts.
echo "==> shard plane: --profile smoke"
"$FIG" --seed 2021 --profile --out "$SMOKE_DIR/shard-p" fig16 table9 > "$SMOKE_DIR/profile.out"
grep -q '==== PROFILE' "$SMOKE_DIR/profile.out"
grep -q 'fig16' "$SMOKE_DIR/profile.out"
"$FIG" --seed 2021 --out "$SMOKE_DIR/shard-p2" fig16 table9 > /dev/null
cmp "$SMOKE_DIR/shard-p2/manifest.json" "$SMOKE_DIR/shard-p/manifest.json"

# --- Cancellation plane --------------------------------------------------------
# Interrupt safety: SIGINT a campaign mid-flight; the binary must stop
# claiming work, cancel the in-flight attempt cooperatively, flush a
# parseable manifest, and exit 130. `--resume` then finishes the campaign
# and every artifact must be byte-identical to an uninterrupted run.
echo "==> interrupt safety: SIGINT mid-campaign, then --resume"
INT_IDS="fig3 fig4 fig6 fig7 fig16 fig17"
# shellcheck disable=SC2086
"$FIG" --seed 2021 --jobs 1 --out "$SMOKE_DIR/int-ref" $INT_IDS > /dev/null
# shellcheck disable=SC2086
"$FIG" --seed 2021 --jobs 1 --out "$SMOKE_DIR/int" $INT_IDS > /dev/null 2> "$SMOKE_DIR/int.err" &
fig_pid=$!
sleep 1.5
kill -INT "$fig_pid"
rc=0; wait "$fig_pid" || rc=$?
if [ "$rc" -ne 130 ]; then
    echo "error: interrupted campaign exited $rc, expected 130" >&2
    cat "$SMOKE_DIR/int.err" >&2
    exit 1
fi
# The runner catches every cancel panic and records the row; none may
# reach stderr, where it would read like a crash.
if grep -q 'panicked at' "$SMOKE_DIR/int.err"; then
    echo "error: a cancelled attempt's panic reached stderr" >&2
    cat "$SMOKE_DIR/int.err" >&2
    exit 1
fi
# The kill landed mid-campaign: the flushed manifest must parse but be
# incomplete (different bytes than the finished reference).
if cmp -s "$SMOKE_DIR/int-ref/manifest.json" "$SMOKE_DIR/int/manifest.json"; then
    echo "error: SIGINT landed after the campaign finished — gate proved nothing" >&2
    exit 1
fi
# An in-flight row cancelled at kill time is recorded `interrupted`, and
# --check-manifest must then refuse the manifest as incomplete.
if grep -q '"status":"interrupted"' "$SMOKE_DIR/int/manifest.json"; then
    if "$FIG" --check-manifest "$SMOKE_DIR/int/manifest.json" > /dev/null 2>&1; then
        echo "error: --check-manifest accepted an interrupted manifest" >&2
        exit 1
    fi
fi
# shellcheck disable=SC2086
"$FIG" --seed 2021 --jobs 1 --out "$SMOKE_DIR/int" --resume $INT_IDS > /dev/null
cmp "$SMOKE_DIR/int-ref/manifest.json" "$SMOKE_DIR/int/manifest.json"
for f in "$SMOKE_DIR"/int-ref/*.txt; do
    cmp "$f" "$SMOKE_DIR/int/$(basename "$f")"
done

# --- Campaign observatory ------------------------------------------------------
# `--obs` writes one export directory of sim-time facts only: per experiment
# the JSONL event stream, the Chrome trace and the collapsed stacks, plus
# metrics.json, observatory.txt and campaign.folded. Every event stream and
# trace must be non-empty (fig18c records no spans, so its stacks may be),
# and all of it byte-identical across reruns and across --jobs 4 — quiet
# and under chaos. fig18c keeps a sharded experiment in the matrix.
OBS_IDS="table2 fig9 fig18c"
echo "==> observatory: quiet byte-identity (rerun, --jobs 4)"
# shellcheck disable=SC2086
"$FIG" --seed 2021 --obs "$SMOKE_DIR/obs-a" --out "$SMOKE_DIR/obso-a" $OBS_IDS > /dev/null
# shellcheck disable=SC2086
"$FIG" --seed 2021 --obs "$SMOKE_DIR/obs-b" --out "$SMOKE_DIR/obso-b" $OBS_IDS > /dev/null
# shellcheck disable=SC2086
"$FIG" --seed 2021 --jobs 4 --obs "$SMOKE_DIR/obs-j" --out "$SMOKE_DIR/obso-j" $OBS_IDS > /dev/null
for f in metrics.json observatory.txt campaign.folded; do
    cmp "$SMOKE_DIR/obs-a/$f" "$SMOKE_DIR/obs-b/$f"
    cmp "$SMOKE_DIR/obs-a/$f" "$SMOKE_DIR/obs-j/$f"
done
for id in $OBS_IDS; do
    test -s "$SMOKE_DIR/obs-a/$id.jsonl"
    test -s "$SMOKE_DIR/obs-a/$id.trace.json"
    for f in "$id.jsonl" "$id.trace.json" "$id.folded"; do
        cmp "$SMOKE_DIR/obs-a/$f" "$SMOKE_DIR/obs-b/$f"
        cmp "$SMOKE_DIR/obs-a/$f" "$SMOKE_DIR/obs-j/$f"
    done
done
grep -q '"schema":"obs-v1"' "$SMOKE_DIR/obs-a/metrics.json"
grep -q '^radio/drive' "$SMOKE_DIR/obs-a/fig9.folded"
grep -q '"name":"radio/drive"' "$SMOKE_DIR/obs-a/fig9.jsonl"
grep -q '"name":"power/record"' "$SMOKE_DIR/obs-a/table2.jsonl"
grep -q '"name":"rrc/promotion"' "$SMOKE_DIR/obs-a/table2.jsonl"

# Observing must not change the world: the campaign run with --obs renders
# the same manifest and reports as one without it.
# shellcheck disable=SC2086
"$FIG" --seed 2021 --out "$SMOKE_DIR/obso-plain" $OBS_IDS > /dev/null
cmp "$SMOKE_DIR/obso-plain/manifest.json" "$SMOKE_DIR/obso-a/manifest.json"
for id in $OBS_IDS; do
    cmp "$SMOKE_DIR/obso-plain/$id.txt" "$SMOKE_DIR/obso-a/$id.txt"
done

echo "==> observatory: chaos byte-identity"
"$FIG" --seed 2021 --chaos chaos --obs "$SMOKE_DIR/obs-ca" --out "$SMOKE_DIR/obso-ca" table2 fig9 fig10 > /dev/null
"$FIG" --seed 2021 --chaos chaos --jobs 4 --obs "$SMOKE_DIR/obs-cj" --out "$SMOKE_DIR/obso-cj" table2 fig9 fig10 > /dev/null
cmp "$SMOKE_DIR/obs-ca/metrics.json" "$SMOKE_DIR/obs-cj/metrics.json"
cmp "$SMOKE_DIR/obs-ca/campaign.folded" "$SMOKE_DIR/obs-cj/campaign.folded"

# Self-diff discipline: a store diffed against an identical rerun reports
# zero FAIL-grade drift (exit 0) …
echo "==> observatory: self-diff is empty"
"$FIG" --obs-diff "$SMOKE_DIR/obs-a" "$SMOKE_DIR/obs-b" > /dev/null

# … while a genuinely different campaign (chaos vs quiet, different id set)
# must breach the fail band and exit non-zero.
if "$FIG" --obs-diff "$SMOKE_DIR/obs-a" "$SMOKE_DIR/obs-ca" > /dev/null 2>&1; then
    echo "error: --obs-diff accepted chaos-vs-quiet telemetry drift" >&2
    exit 1
fi

# Stress smoke: a fixed quiet sweep must pass with zero failures (exit 0),
# and the summary table must be byte-identical across a rerun with a
# different worker count (stress.txt carries sim-side facts only).
echo "==> stress smoke: quiet sweep, fixed seed"
"$FIG" --stress 6 --stress-seed 2021 --stress-scenario quiet --jobs 4 \
    --out "$SMOKE_DIR/stress-a" > /dev/null
"$FIG" --stress 6 --stress-seed 2021 --stress-scenario quiet --jobs 2 \
    --out "$SMOKE_DIR/stress-b" > /dev/null
cmp "$SMOKE_DIR/stress-a/stress/stress.txt" "$SMOKE_DIR/stress-b/stress/stress.txt"

# Canary smoke: the find→shrink→replay loop end to end. A deliberately
# broken invariant must fail the sweep (exit 1), produce a reproducer,
# and that reproducer must replay to the identical violation (exit 0).
echo "==> stress smoke: canary find, shrink, replay"
if "$FIG" --stress 1 --stress-seed 7 --stress-canary \
    --out "$SMOKE_DIR/stress-c" > /dev/null 2>&1; then
    echo "error: canary sweep exited 0 — broken invariant not detected" >&2
    exit 1
fi
repro=$(ls "$SMOKE_DIR"/stress-c/stress/repro-c0-*.json)
grep -q '"verdict":"guard-violation"' "$repro"
"$FIG" --repro "$repro" > /dev/null

# --- Golden campaign -----------------------------------------------------------
# The full quiet campaign at seed 2021, run once with the observatory on. Its
# artifacts, manifest, observatory rollup and validation report are each
# compared with their committed goldens below; since the artifacts are
# rendered under --obs, their golden compare also shows that observing
# changes no artifact.
echo "==> golden campaign: figures --seed 2021 --obs quiet-obs --out quiet-all all"
"$FIG" --seed 2021 --obs "$SMOKE_DIR/quiet-obs" --out "$SMOKE_DIR/quiet-all" all > /dev/null

# The quiet campaign must render every artifact byte for byte equal to its
# committed golden in results/. The tolerance bands of the validation gate
# below would let a small drift through.
echo "==> golden gate: quiet campaign vs results/<id>.txt"
goldens=0
for f in "$SMOKE_DIR"/quiet-all/*.txt; do
    cmp "$f" "results/$(basename "$f")"
    goldens=$((goldens + 1))
done
if [ "$goldens" -ne 40 ]; then
    echo "error: expected 40 quiet artifacts, compared $goldens" >&2
    exit 1
fi

# --- Work ledger ---------------------------------------------------------------
# Each manifest row records the exact budget events its experiment charged,
# the same at any --jobs N, so the manifest is the campaign's work ledger.
# It must equal the committed results/manifest.json byte for byte; on a
# mismatch the differing rows are printed, one per line, so the failure
# names the experiment whose work changed.
echo "==> work ledger: quiet campaign manifest vs results/manifest.json"
manifest_rows() { sed 's/{"id":/\n{"id":/g' "$1"; }
if ! cmp -s results/manifest.json "$SMOKE_DIR/quiet-all/manifest.json"; then
    echo "error: the work ledger changed (< committed, > this run):" >&2
    diff <(manifest_rows results/manifest.json) \
        <(manifest_rows "$SMOKE_DIR/quiet-all/manifest.json") >&2 || true
    exit 1
fi

# The sharded fig15 must charge budget events now that the walking loops
# and mlkit training are metered — zero means the accounting regressed.
fig15_events=$(grep -o '"id":"fig15"[^}]*' "$SMOKE_DIR/quiet-all/manifest.json" | grep -o '"events":[0-9]*' | head -1 | cut -d: -f2)
if [ -z "${fig15_events:-}" ] || [ "$fig15_events" -eq 0 ]; then
    echo "error: fig15 recorded zero budget events in its manifest row" >&2
    exit 1
fi

# --- Observatory baseline ------------------------------------------------------
# The golden campaign's telemetry rollup is sim-time facts only, the same at
# any --jobs N, so it must equal the committed observatory baseline byte for
# byte. On a mismatch the --obs-diff report names the metrics that moved.
echo "==> observatory gate: golden campaign metrics.json vs results/OBS_baseline.json"
if ! cmp -s results/OBS_baseline.json "$SMOKE_DIR/quiet-obs/metrics.json"; then
    echo "error: the observatory rollup changed (baseline vs this run):" >&2
    "$FIG" --obs-diff results/OBS_baseline.json "$SMOKE_DIR/quiet-obs" >&2 || true
    exit 1
fi

# --- Paper-fidelity gate -------------------------------------------------------
# Every artifact the quiet campaign rendered must sit inside its tolerance
# band from the expected-value table (bench::expect); any FAIL exits
# non-zero. The report is a pure function of the artifacts, and the golden
# gate showed those equal results/, so it must equal the committed
# results/validation.txt byte for byte.
echo "==> validation gate: quiet campaign"
"$FIG" --validate "$SMOKE_DIR/quiet-all"
cmp "$SMOKE_DIR/quiet-all/validation.txt" results/validation.txt

echo "==> ci: all green"
