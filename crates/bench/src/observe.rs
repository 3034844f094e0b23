//! The campaign metrics observatory: rollups, flamegraphs, and telemetry
//! regression diffing.
//!
//! The paper is a measurement study, and this module is the point where the
//! reproduction turns its measurement discipline on itself. It consumes the
//! per-attempt [`AttemptTelemetry`] the runner already collects and builds
//! the campaign-wide view that `figures --obs <dir>` exports:
//!
//! * `metrics.json` — the machine-readable campaign metrics store: one row
//!   per experiment, per-layer span/counter rollups, every catalogued span,
//!   counter, gauge, histogram (with bucket-estimated quantiles), and
//!   fixed-bin sim-time series. Every name is annotated with its
//!   [`fiveg_simcore::telemetry::CATALOG`] layer and unit. This is the
//!   store ROADMAP item 5 (trace-ingest calibration) will consume.
//! * `observatory.txt` — the same data as a human dashboard (tables and
//!   sparklines). It carries **no wall-clock numbers** (those are printed
//!   by `--profile`), so it is byte-identical across reruns and `--jobs N`.
//! * `<id>.folded` / `campaign.folded` — nested spans collapsed into
//!   inferno-compatible stacks (`a;b;c <self-µs>` lines), so hot paths
//!   found by `--profile` stay visible as the code evolves.
//!
//! `figures --obs-diff <baseline> <current>` then compares two
//! `metrics.json` files under the shared [`OBS_TOLERANCE`] bands
//! (re-using [`fiveg_simcore::stats::Tolerance`]) and renders a
//! deterministic drift report; FAIL rows make `figures` exit 1, which CI
//! points at the committed `results/OBS_baseline.json`.
//!
//! Everything here is a pure function of sim-time telemetry: no clocks, no
//! randomness, no host-dependent iteration order (aggregates arrive
//! name-sorted, experiments in registry order, stacks in lexicographic
//! order), so every artifact is byte-identical across reruns and
//! `--jobs N`.

use crate::json::Json;
use crate::report::{f, sparkline, Table};
use fiveg_simcore::stats::{Grade, Tolerance};
use fiveg_simcore::telemetry::{registered, AttemptTelemetry, MetricKind, SpanPhase, SERIES_BIN_S};
use std::collections::BTreeMap;
use std::path::Path;

/// Schema tag written into (and required of) every `metrics.json`.
pub const OBS_SCHEMA: &str = "obs-v1";

/// The tolerance bands of `--obs-diff`: drift within 2 % passes, within
/// 10 % warns, beyond fails. Campaign telemetry is deterministic, so any
/// drift at all is a real behavior change — the bands only decide how
/// loudly to say so.
pub const OBS_TOLERANCE: Tolerance = Tolerance {
    warn_pct: 2.0,
    fail_pct: 10.0,
};

/// Catalog layer of `name` under `kind` (`"?"` when unregistered — the
/// catalog lint keeps that from surviving CI).
fn layer_of(name: &str, kind: MetricKind) -> &'static str {
    registered(name, kind).map_or("?", |d| d.layer)
}

/// Catalog unit of `name` under `kind`.
fn unit_of(name: &str, kind: MetricKind) -> &'static str {
    registered(name, kind).map_or("?", |d| d.unit)
}

/// Rolls every per-experiment telemetry snapshot into one campaign-wide
/// aggregate (events are per-experiment artifacts and are not merged).
pub fn campaign_total(per: &[(String, AttemptTelemetry)]) -> AttemptTelemetry {
    let mut total = AttemptTelemetry::default();
    for (_, t) in per {
        total.merge_aggregates(t);
    }
    total
}

/// Builds the `metrics.json` document for a finished campaign.
/// `per` is `(experiment id, telemetry)` in registry order — the same
/// order serial and `--jobs N` runs deliver, so the document is
/// byte-identical across scheduling modes.
pub fn campaign_metrics(
    seed: u64,
    scenario: Option<&str>,
    per: &[(String, AttemptTelemetry)],
) -> Json {
    let total = campaign_total(per);

    let experiments: Vec<Json> = per
        .iter()
        .map(|(id, t)| {
            let span_total_s: f64 = t.spans.iter().map(|(_, s)| s.total_s).sum();
            let counter_total: u64 = t.counters.iter().map(|(_, n)| *n).sum();
            Json::obj(vec![
                ("id", Json::str(id.as_str())),
                ("events", Json::Num(t.events.len() as f64)),
                ("dropped_events", Json::Num(t.dropped_events as f64)),
                ("span_total_s", Json::Num(span_total_s)),
                ("counter_total", Json::Num(counter_total as f64)),
            ])
        })
        .collect();

    // Per-layer rollup: BTreeMap gives the deterministic (sorted) layer
    // order the byte-identity contract needs.
    let mut layers: BTreeMap<&str, (f64, u64, u64)> = BTreeMap::new();
    for (name, s) in &total.spans {
        let e = layers.entry(layer_of(name, MetricKind::Span)).or_default();
        e.0 += s.total_s;
        e.1 += s.count;
    }
    for (name, n) in &total.counters {
        layers
            .entry(layer_of(name, MetricKind::Counter))
            .or_default()
            .2 += n;
    }
    let layer_rows: Vec<Json> = layers
        .iter()
        .map(|(layer, (span_s, spans, counters))| {
            Json::obj(vec![
                ("layer", Json::str(*layer)),
                ("span_total_s", Json::Num(*span_s)),
                ("span_count", Json::Num(*spans as f64)),
                ("counter_total", Json::Num(*counters as f64)),
            ])
        })
        .collect();

    let spans: Vec<Json> = total
        .spans
        .iter()
        .map(|(name, s)| {
            let mean = if s.count == 0 {
                0.0
            } else {
                s.total_s / s.count as f64
            };
            Json::obj(vec![
                ("name", Json::str(*name)),
                ("layer", Json::str(layer_of(name, MetricKind::Span))),
                ("unit", Json::str(unit_of(name, MetricKind::Span))),
                ("count", Json::Num(s.count as f64)),
                ("total_s", Json::Num(s.total_s)),
                ("mean_s", Json::Num(mean)),
            ])
        })
        .collect();

    let counters: Vec<Json> = total
        .counters
        .iter()
        .map(|(name, n)| {
            Json::obj(vec![
                ("name", Json::str(*name)),
                ("layer", Json::str(layer_of(name, MetricKind::Counter))),
                ("total", Json::Num(*n as f64)),
            ])
        })
        .collect();

    let gauges: Vec<Json> = total
        .gauges
        .iter()
        .map(|(name, g)| {
            Json::obj(vec![
                ("name", Json::str(*name)),
                ("layer", Json::str(layer_of(name, MetricKind::Gauge))),
                ("unit", Json::str(unit_of(name, MetricKind::Gauge))),
                ("last", Json::Num(g.last)),
                ("min", Json::Num(g.min)),
                ("max", Json::Num(g.max)),
                ("samples", Json::Num(g.samples as f64)),
            ])
        })
        .collect();

    let hists: Vec<Json> = total
        .hists
        .iter()
        .map(|(name, h)| {
            Json::obj(vec![
                ("name", Json::str(*name)),
                ("layer", Json::str(layer_of(name, MetricKind::Histogram))),
                ("unit", Json::str(unit_of(name, MetricKind::Histogram))),
                ("count", Json::Num(h.count as f64)),
                ("mean", Json::Num(h.mean())),
                ("p50", Json::Num(h.quantile(0.50))),
                ("p90", Json::Num(h.quantile(0.90))),
                ("p99", Json::Num(h.quantile(0.99))),
                ("min", Json::Num(if h.count == 0 { 0.0 } else { h.min })),
                ("max", Json::Num(if h.count == 0 { 0.0 } else { h.max })),
            ])
        })
        .collect();

    let series: Vec<Json> = total
        .series
        .iter()
        .map(|(name, s)| {
            Json::obj(vec![
                ("name", Json::str(*name)),
                ("layer", Json::str(layer_of(name, MetricKind::Series))),
                ("unit", Json::str(unit_of(name, MetricKind::Series))),
                ("bin_s", Json::Num(SERIES_BIN_S)),
                ("samples", Json::Num(s.samples() as f64)),
                (
                    "sums",
                    Json::Arr(s.sums.iter().map(|&v| Json::Num(v)).collect()),
                ),
                (
                    "counts",
                    Json::Arr(s.counts.iter().map(|&n| Json::Num(n as f64)).collect()),
                ),
            ])
        })
        .collect();

    Json::obj(vec![
        ("schema", Json::str(OBS_SCHEMA)),
        ("seed", Json::Num(seed as f64)),
        ("scenario", scenario.map_or(Json::Null, Json::str)),
        ("experiments", Json::Arr(experiments)),
        ("layers", Json::Arr(layer_rows)),
        ("spans", Json::Arr(spans)),
        ("counters", Json::Arr(counters)),
        ("gauges", Json::Arr(gauges)),
        ("hists", Json::Arr(hists)),
        ("series", Json::Arr(series)),
    ])
}

/// Renders the human dashboard (`observatory.txt`). Pure sim-time data —
/// deliberately no wall-clock section, so the file stays byte-identical
/// across reruns and scheduling modes (`--profile` prints the wall
/// numbers).
pub fn observatory_txt(
    seed: u64,
    scenario: Option<&str>,
    per: &[(String, AttemptTelemetry)],
) -> String {
    let total = campaign_total(per);
    let mut out = format!(
        "==== CAMPAIGN OBSERVATORY — seed {seed}, scenario `{}` ====\n\n",
        scenario.unwrap_or("none")
    );

    out.push_str("-- Experiments --\n");
    let mut t = Table::new(vec!["experiment", "events", "dropped", "span sim s"]);
    for (id, telem) in per {
        let span_total_s: f64 = telem.spans.iter().map(|(_, s)| s.total_s).sum();
        t.row(vec![
            id.clone(),
            telem.events.len().to_string(),
            telem.dropped_events.to_string(),
            f(span_total_s, 3),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\n-- Layers --\n");
    let mut layers: BTreeMap<&str, (f64, u64, u64)> = BTreeMap::new();
    for (name, s) in &total.spans {
        let e = layers.entry(layer_of(name, MetricKind::Span)).or_default();
        e.0 += s.total_s;
        e.1 += s.count;
    }
    for (name, n) in &total.counters {
        layers
            .entry(layer_of(name, MetricKind::Counter))
            .or_default()
            .2 += n;
    }
    let mut t = Table::new(vec!["layer", "span sim s", "spans", "counter total"]);
    for (layer, (span_s, spans, counters)) in &layers {
        t.row(vec![
            (*layer).to_string(),
            f(*span_s, 3),
            spans.to_string(),
            counters.to_string(),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\n-- Spans --\n");
    let mut t = Table::new(vec!["span", "layer", "count", "total sim s", "mean sim s"]);
    for (name, s) in &total.spans {
        let mean = if s.count == 0 {
            0.0
        } else {
            s.total_s / s.count as f64
        };
        t.row(vec![
            (*name).to_string(),
            layer_of(name, MetricKind::Span).to_string(),
            s.count.to_string(),
            f(s.total_s, 3),
            f(mean, 6),
        ]);
    }
    out.push_str(&t.render());

    if !total.counters.is_empty() {
        out.push_str("\n-- Counters --\n");
        let mut t = Table::new(vec!["counter", "layer", "total"]);
        for (name, n) in &total.counters {
            t.row(vec![
                (*name).to_string(),
                layer_of(name, MetricKind::Counter).to_string(),
                n.to_string(),
            ]);
        }
        out.push_str(&t.render());
    }

    if !total.gauges.is_empty() {
        out.push_str("\n-- Gauges --\n");
        let mut t = Table::new(vec!["gauge", "unit", "last", "min", "max", "samples"]);
        for (name, g) in &total.gauges {
            t.row(vec![
                (*name).to_string(),
                unit_of(name, MetricKind::Gauge).to_string(),
                f(g.last, 3),
                f(g.min, 3),
                f(g.max, 3),
                g.samples.to_string(),
            ]);
        }
        out.push_str(&t.render());
    }

    if !total.hists.is_empty() {
        out.push_str("\n-- Histograms (bucket-estimated quantiles) --\n");
        let mut t = Table::new(vec![
            "histogram",
            "unit",
            "count",
            "mean",
            "p50",
            "p90",
            "p99",
            "max",
        ]);
        for (name, h) in &total.hists {
            t.row(vec![
                (*name).to_string(),
                unit_of(name, MetricKind::Histogram).to_string(),
                h.count.to_string(),
                f(h.mean(), 3),
                f(h.quantile(0.50), 3),
                f(h.quantile(0.90), 3),
                f(h.quantile(0.99), 3),
                f(if h.count == 0 { 0.0 } else { h.max }, 3),
            ]);
        }
        out.push_str(&t.render());
    }

    if !total.series.is_empty() {
        out.push_str("\n-- Series (bin means over sim time) --\n");
        let mut t = Table::new(vec!["series", "unit", "bin s", "samples", "shape"]);
        for (name, s) in &total.series {
            let means: Vec<f64> = (0..s.counts.len())
                .map(|i| s.mean(i).unwrap_or(0.0))
                .collect();
            t.row(vec![
                (*name).to_string(),
                unit_of(name, MetricKind::Series).to_string(),
                f(SERIES_BIN_S, 0),
                s.samples().to_string(),
                sparkline(&means),
            ]);
        }
        out.push_str(&t.render());
    }

    if total.dropped_events > 0 {
        out.push_str(&format!(
            "\nspan events dropped past the per-attempt buffer cap: {}\n",
            total.dropped_events
        ));
    }
    out
}

/// Collapses one attempt's span stream into flamegraph stacks: a map from
/// `a;b;c` stack path to *self* time in rounded sim-microseconds (child
/// time is charged to the child's own deeper path, as the collapsed-stack
/// format expects). Unmatched exits are skipped; frames left open at the
/// end of the stream (or orphaned by an out-of-order exit) contribute
/// nothing — malformed nesting degrades the picture, never determinism.
pub fn folded_map(t: &AttemptTelemetry) -> BTreeMap<String, u64> {
    // Open frame: (span id, name, enter sim-s, child sim-µs).
    let mut stack: Vec<(u64, &'static str, f64, u64)> = Vec::new();
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for ev in &t.events {
        match ev.phase {
            SpanPhase::Enter => stack.push((ev.id, ev.name, ev.t_s, 0)),
            SpanPhase::Exit => {
                let Some(pos) = stack.iter().rposition(|fr| fr.0 == ev.id) else {
                    continue;
                };
                // Anything above the matching frame never closed; drop it.
                stack.truncate(pos + 1);
                let (_, name, t0, child_us) = stack.pop().expect("frame at pos");
                let dur_us = ((ev.t_s - t0).max(0.0) * 1e6).round() as u64;
                let self_us = dur_us.saturating_sub(child_us);
                if self_us > 0 {
                    let path: String = stack
                        .iter()
                        .map(|fr| fr.1)
                        .chain(std::iter::once(name))
                        .collect::<Vec<_>>()
                        .join(";");
                    *out.entry(path).or_insert(0) += self_us;
                }
                if let Some(parent) = stack.last_mut() {
                    parent.3 += dur_us;
                }
            }
        }
    }
    out
}

/// Merges one folded map into an accumulator (campaign-wide flamegraph).
pub fn merge_folded(into: &mut BTreeMap<String, u64>, other: &BTreeMap<String, u64>) {
    for (path, us) in other {
        *into.entry(path.clone()).or_insert(0) += us;
    }
}

/// Renders a folded map in the collapsed-stack format inferno and
/// flamegraph.pl consume: one `path count` line per stack, sorted by path.
pub fn render_folded(map: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    for (path, us) in map {
        out.push_str(path);
        out.push(' ');
        out.push_str(&us.to_string());
        out.push('\n');
    }
    out
}

/// Outcome of an `--obs-diff` comparison: the rendered report plus the
/// warn/fail tallies; FAIL-grade drift decides the `--obs-diff` exit code.
#[derive(Debug, Clone)]
pub struct ObsDiff {
    /// The deterministic drift report.
    pub report: String,
    /// Comparisons performed.
    pub compared: usize,
    /// Rows graded WARN (drift past the warn band, or new in current).
    pub warns: usize,
    /// Rows graded FAIL (drift past the fail band, or missing in current).
    pub fails: usize,
}

/// One diffed section: JSON array key, row key field, numeric fields.
const DIFF_SECTIONS: &[(&str, &str, &[&str])] = &[
    (
        "experiments",
        "id",
        &["events", "span_total_s", "counter_total"],
    ),
    (
        "layers",
        "layer",
        &["span_total_s", "span_count", "counter_total"],
    ),
    ("spans", "name", &["count", "total_s"]),
    ("counters", "name", &["total"]),
    ("gauges", "name", &["samples", "min", "max"]),
    ("hists", "name", &["count", "p50", "p90", "p99"]),
    ("series", "name", &["samples"]),
];

/// [`diff_metrics`] of two stores given as paths: a `metrics.json` file, or
/// a directory holding one. `Err` names a store that cannot be read or
/// parsed.
pub fn diff_files(baseline: &str, current: &str) -> Result<ObsDiff, String> {
    let read = |arg: &str| -> Result<Json, String> {
        let mut path = Path::new(arg).to_path_buf();
        if path.is_dir() {
            path = path.join("metrics.json");
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{} unparseable: {e}", path.display()))
    };
    Ok(diff_metrics(&read(baseline)?, &read(current)?))
}

/// Compares two `metrics.json` documents under [`OBS_TOLERANCE`] and
/// renders a deterministic drift report: per section, every row/field pair
/// outside the warn band is listed with its drift; rows missing from the
/// current campaign grade FAIL, rows new in it grade WARN. Two identical
/// documents produce zero warns and fails.
pub fn diff_metrics(baseline: &Json, current: &Json) -> ObsDiff {
    let mut out = String::from("==== OBSERVATORY DIFF ====\n");
    let mut compared = 0usize;
    let mut warns = 0usize;
    let mut fails = 0usize;

    let head = |v: &Json| {
        format!(
            "seed {}, scenario `{}`",
            v.get("seed").and_then(Json::as_f64).unwrap_or(-1.0) as i64,
            v.get("scenario").and_then(Json::as_str).unwrap_or("none"),
        )
    };
    out.push_str(&format!("baseline: {}\n", head(baseline)));
    out.push_str(&format!("current:  {}\n", head(current)));
    for key in ["schema", "seed", "scenario"] {
        if baseline.get(key) != current.get(key) {
            out.push_str(&format!(
                "  WARN {key} differs — campaigns may not be comparable\n"
            ));
            warns += 1;
        }
    }

    for (section, key_field, fields) in DIFF_SECTIONS {
        let empty: Vec<Json> = Vec::new();
        let base_rows = baseline
            .get(section)
            .and_then(Json::as_arr)
            .unwrap_or(&empty);
        let cur_rows = current
            .get(section)
            .and_then(Json::as_arr)
            .unwrap_or(&empty);
        let key_of = |r: &Json| {
            r.get(key_field)
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        out.push_str(&format!(
            "-- {section} ({} baseline row(s)) --\n",
            base_rows.len()
        ));
        let mut flagged = 0usize;
        for b in base_rows {
            let k = key_of(b);
            let Some(c) = cur_rows.iter().find(|r| key_of(r) == k) else {
                out.push_str(&format!("  FAIL {k}: missing from current campaign\n"));
                fails += 1;
                flagged += 1;
                continue;
            };
            for field in *fields {
                let (Some(expected), Some(actual)) = (
                    b.get(field).and_then(Json::as_f64),
                    c.get(field).and_then(Json::as_f64),
                ) else {
                    continue;
                };
                compared += 1;
                let grade = OBS_TOLERANCE.grade(expected, actual);
                if grade == Grade::Pass {
                    continue;
                }
                let drift = Tolerance::drift_pct(expected, actual);
                out.push_str(&format!(
                    "  {} {k} {field}: {} -> {} ({:+.2}%)\n",
                    grade.as_str(),
                    f(expected, 6),
                    f(actual, 6),
                    drift
                ));
                flagged += 1;
                match grade {
                    Grade::Warn => warns += 1,
                    Grade::Fail => fails += 1,
                    Grade::Pass => {}
                }
            }
        }
        for c in cur_rows {
            let k = key_of(c);
            if !base_rows.iter().any(|r| key_of(r) == k) {
                out.push_str(&format!(
                    "  WARN {k}: new in current campaign (no baseline row)\n"
                ));
                warns += 1;
                flagged += 1;
            }
        }
        if flagged == 0 {
            out.push_str("  all within tolerance\n");
        }
    }

    out.push_str(&format!(
        "drift: {warns} warn(s), {fails} fail(s) across {compared} comparison(s)\n"
    ));
    ObsDiff {
        report: out,
        compared,
        warns,
        fails,
    }
}

/// One `telemetry::<hook>(...)` call site found by the source scanner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricCall {
    /// Source file (as given to the scanner).
    pub file: String,
    /// 1-based line of the call.
    pub line: usize,
    /// Hook family (maps to the catalog kind).
    pub kind: MetricKind,
    /// The literal metric name, or `None` when the first argument is not a
    /// string literal (a dynamic name the catalog lint must reject).
    pub name: Option<String>,
}

/// Scans one source text for `telemetry::<hook>("name", ...)` call sites.
/// A deliberately small lexer, not a parser: it finds the qualified hook
/// path, then reads the first argument iff it is a string literal. Hooks
/// that take no metric name (`clock`, `drain`, …) are ignored.
pub fn scan_metric_calls(src: &str, file: &str) -> Vec<MetricCall> {
    const HOOKS: &[(&str, MetricKind)] = &[
        ("span", MetricKind::Span),
        ("span_closed", MetricKind::Span),
        ("count", MetricKind::Counter),
        ("gauge", MetricKind::Gauge),
        ("observe", MetricKind::Histogram),
        ("series", MetricKind::Series),
    ];
    // Built from two halves so scanning this very file does not match the
    // needle inside its own string literal.
    let needle = concat!("telemetry", ":", ":");
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(off) = src[from..].find(needle) {
        let start = from + off + needle.len();
        from = start;
        let ident_end = start
            + src[start..]
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(src.len() - start);
        let ident = &src[start..ident_end];
        let Some(&(_, kind)) = HOOKS.iter().find(|(h, _)| *h == ident) else {
            continue;
        };
        let mut i = ident_end;
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b'(' {
            continue;
        }
        i += 1;
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        let name = if i < bytes.len() && bytes[i] == b'"' {
            src[i + 1..]
                .find('"')
                .map(|n| src[i + 1..i + 1 + n].to_string())
        } else {
            None
        };
        let line = src[..start].matches('\n').count() + 1;
        out.push(MetricCall {
            file: file.to_string(),
            line,
            kind,
            name,
        });
    }
    out
}

/// Recursively scans every `.rs` file under `root` for metric call sites.
/// Files and directories are visited in sorted order, so the result is
/// deterministic across filesystems.
pub fn scan_dir(root: &Path) -> std::io::Result<Vec<MetricCall>> {
    let mut out = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(root)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(scan_dir(&path)?);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path)?;
            out.extend(scan_metric_calls(&src, &path.to_string_lossy()));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_simcore::attempt::Attempt;
    use fiveg_simcore::telemetry::{self, SpanEvent};

    fn synthetic() -> AttemptTelemetry {
        // outer [0, 10] containing inner [2, 5] — outer self 7 s, inner 3 s.
        let ev = |id, name, phase, t_s| SpanEvent {
            id,
            name,
            phase,
            t_s,
        };
        AttemptTelemetry {
            events: vec![
                ev(0, "outer", SpanPhase::Enter, 0.0),
                ev(1, "inner", SpanPhase::Enter, 2.0),
                ev(1, "inner", SpanPhase::Exit, 5.0),
                ev(0, "outer", SpanPhase::Exit, 10.0),
            ],
            ..AttemptTelemetry::default()
        }
    }

    #[test]
    fn folded_charges_self_time_to_the_deepest_frame() {
        let map = folded_map(&synthetic());
        assert_eq!(map.get("outer"), Some(&7_000_000));
        assert_eq!(map.get("outer;inner"), Some(&3_000_000));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn folded_skips_unmatched_exits_and_unclosed_frames() {
        let ev = |id, name, phase, t_s| SpanEvent {
            id,
            name,
            phase,
            t_s,
        };
        let t = AttemptTelemetry {
            events: vec![
                ev(7, "ghost", SpanPhase::Exit, 1.0), // never entered
                ev(0, "open", SpanPhase::Enter, 0.0), // never exits
                ev(1, "leaf", SpanPhase::Enter, 1.0),
                ev(1, "leaf", SpanPhase::Exit, 2.0),
            ],
            ..AttemptTelemetry::default()
        };
        let map = folded_map(&t);
        assert_eq!(map.get("open;leaf"), Some(&1_000_000));
        assert_eq!(map.len(), 1, "open frame contributes nothing: {map:?}");
    }

    #[test]
    fn folded_render_and_merge_are_deterministic() {
        let a = folded_map(&synthetic());
        let mut campaign = BTreeMap::new();
        merge_folded(&mut campaign, &a);
        merge_folded(&mut campaign, &a);
        let rendered = render_folded(&campaign);
        assert_eq!(rendered, "outer 14000000\nouter;inner 6000000\n");
        assert_eq!(render_folded(&campaign), rendered);
    }

    #[test]
    fn metrics_json_is_deterministic_and_annotated() {
        let per = || {
            let _g = Attempt::new().telemetry(true).install();
            telemetry::clock(0.0);
            {
                let _sp = telemetry::span("radio/drive");
                telemetry::clock(3.0);
            }
            telemetry::count("radio/rlf", 2);
            telemetry::observe("rrc/delay_ms", 80.0);
            telemetry::series("radio/rsrp_dbm_t", 1.0, -90.0);
            vec![("fig9".to_string(), telemetry::drain())]
        };
        let a = campaign_metrics(2021, None, &per()).render();
        let b = campaign_metrics(2021, None, &per()).render();
        assert_eq!(a, b);
        let doc = Json::parse(&a).expect("valid json");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(OBS_SCHEMA));
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans[0].get("layer").and_then(Json::as_str), Some("radio"));
        assert_eq!(spans[0].get("unit").and_then(Json::as_str), Some("sim-s"));
        let txt = observatory_txt(2021, None, &per());
        assert!(txt.contains("radio/drive"));
        assert!(txt.contains("radio/rsrp_dbm_t"));
        assert!(
            !txt.to_lowercase().contains("wall"),
            "no wall-clock content"
        );
    }

    #[test]
    fn self_diff_reports_zero_drift() {
        let doc = campaign_metrics(2021, Some("chaos"), &[]);
        let d = diff_metrics(&doc, &doc);
        assert_eq!(d.warns, 0, "{}", d.report);
        assert_eq!(d.fails, 0, "{}", d.report);
        assert!(d.report.contains("all within tolerance"));
    }

    #[test]
    fn diff_grades_drift_against_the_bands() {
        let row = |total: f64| {
            Json::obj(vec![
                ("schema", Json::str(OBS_SCHEMA)),
                ("seed", Json::Num(1.0)),
                ("scenario", Json::Null),
                (
                    "counters",
                    Json::Arr(vec![Json::obj(vec![
                        ("name", Json::str("web/object")),
                        ("total", Json::Num(total)),
                    ])]),
                ),
            ])
        };
        // +5% -> WARN band; +50% -> FAIL band.
        let warn = diff_metrics(&row(100.0), &row(105.0));
        assert_eq!((warn.warns, warn.fails), (1, 0), "{}", warn.report);
        let fail = diff_metrics(&row(100.0), &row(150.0));
        assert_eq!((fail.warns, fail.fails), (0, 1), "{}", fail.report);
        assert!(fail.report.contains("FAIL web/object total"));
        // A row vanishing from the current campaign is a hard failure.
        let gone = diff_metrics(&row(100.0), &campaign_metrics(1, None, &[]));
        assert!(gone.fails >= 1, "{}", gone.report);
        assert!(gone.report.contains("missing from current"));
    }

    #[test]
    fn scanner_finds_literal_and_dynamic_names() {
        // The sample uses `test/`-prefixed names (exempt in the lint) so
        // scanning this file cannot poison the workspace lint.
        let src = concat!(
            "fn x() {\n",
            "    telemetry",
            "::count(\"test/a\", 1);\n",
            "    telemetry",
            "::observe(  \"test/b\"  , 2.0);\n",
            "    telemetry",
            "::span(name_var);\n",
            "    telemetry",
            "::clock(3.0);\n",
            "}\n"
        );
        let calls = scan_metric_calls(src, "sample.rs");
        assert_eq!(calls.len(), 3, "{calls:?}");
        assert_eq!(calls[0].kind, MetricKind::Counter);
        assert_eq!(calls[0].name.as_deref(), Some("test/a"));
        assert_eq!(calls[0].line, 2);
        assert_eq!(calls[1].name.as_deref(), Some("test/b"));
        assert_eq!(calls[2].kind, MetricKind::Span);
        assert_eq!(calls[2].name, None, "dynamic name surfaces as None");
    }
}
