//! Rendering one attempt's telemetry into files.
//!
//! [`fiveg_simcore::telemetry`] drains one [`AttemptTelemetry`] per
//! instrumented experiment; this module renders the two per-experiment
//! files of the campaign export (`figures --obs <dir>`, see
//! [`crate::campaign`]):
//!
//! * `<id>.jsonl` — one JSON object per line: the span enter/exit stream in
//!   emission order, then the name-sorted aggregates. Pure sim-time data,
//!   so two runs of the same campaign (serial or `--jobs N`) produce
//!   byte-identical files.
//! * `<id>.trace.json` — the same span stream as Chrome `trace_event` JSON
//!   (async `b`/`e` events), loadable in `about:tracing` / Perfetto.
//!   Async events are used deliberately: components restart their local
//!   sim clocks, so strictly-nested `B`/`E` duration events would be
//!   malformed; async pairs keyed by span id are order-insensitive.
//!
//! The campaign-wide aggregates live in [`crate::observe`]'s
//! `metrics.json` and `observatory.txt`.

use crate::json::Json;
use fiveg_simcore::telemetry::{AttemptTelemetry, SpanPhase, SERIES_BIN_S};

/// Renders one attempt's telemetry as a JSONL event stream.
///
/// Line order: span events (emission order), then `span_stat`, `counter`,
/// `gauge`, and `hist` lines (each name-sorted), then one `dropped_events`
/// line when the event buffer overflowed. Every line is a complete JSON
/// object, so the file is greppable and streamable.
pub fn jsonl(t: &AttemptTelemetry) -> String {
    let mut out = String::new();
    for e in &t.events {
        let ph = match e.phase {
            SpanPhase::Enter => "B",
            SpanPhase::Exit => "E",
        };
        out.push_str(
            &Json::obj(vec![
                ("type", Json::str("span")),
                ("ph", Json::str(ph)),
                ("id", Json::Num(e.id as f64)),
                ("name", Json::str(e.name)),
                ("t_s", Json::Num(e.t_s)),
            ])
            .render(),
        );
        out.push('\n');
    }
    for (name, s) in &t.spans {
        out.push_str(
            &Json::obj(vec![
                ("type", Json::str("span_stat")),
                ("name", Json::str(*name)),
                ("count", Json::Num(s.count as f64)),
                ("total_s", Json::Num(s.total_s)),
            ])
            .render(),
        );
        out.push('\n');
    }
    for (name, n) in &t.counters {
        out.push_str(
            &Json::obj(vec![
                ("type", Json::str("counter")),
                ("name", Json::str(*name)),
                ("total", Json::Num(*n as f64)),
            ])
            .render(),
        );
        out.push('\n');
    }
    for (name, g) in &t.gauges {
        out.push_str(
            &Json::obj(vec![
                ("type", Json::str("gauge")),
                ("name", Json::str(*name)),
                ("last", Json::Num(g.last)),
                ("min", Json::Num(g.min)),
                ("max", Json::Num(g.max)),
                ("samples", Json::Num(g.samples as f64)),
            ])
            .render(),
        );
        out.push('\n');
    }
    for (name, h) in &t.hists {
        out.push_str(
            &Json::obj(vec![
                ("type", Json::str("hist")),
                ("name", Json::str(*name)),
                ("count", Json::Num(h.count as f64)),
                ("mean", Json::Num(h.mean())),
                ("min", Json::Num(if h.count == 0 { 0.0 } else { h.min })),
                ("p50", Json::Num(h.quantile(0.50))),
                ("p90", Json::Num(h.quantile(0.90))),
                ("p99", Json::Num(h.quantile(0.99))),
                ("max", Json::Num(if h.count == 0 { 0.0 } else { h.max })),
            ])
            .render(),
        );
        out.push('\n');
    }
    for (name, s) in &t.series {
        out.push_str(
            &Json::obj(vec![
                ("type", Json::str("series")),
                ("name", Json::str(*name)),
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
            .render(),
        );
        out.push('\n');
    }
    if t.dropped_events > 0 {
        out.push_str(
            &Json::obj(vec![
                ("type", Json::str("dropped_events")),
                ("count", Json::Num(t.dropped_events as f64)),
            ])
            .render(),
        );
        out.push('\n');
    }
    out
}

/// Renders one attempt's span stream as a Chrome `trace_event` document.
///
/// One async begin/end pair (`ph: "b"` / `"e"`) per span, keyed by the
/// span's per-attempt id, timestamps in microseconds of sim time. Load the
/// file in `about:tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace(experiment_id: &str, t: &AttemptTelemetry) -> String {
    let events: Vec<Json> = t
        .events
        .iter()
        .map(|e| {
            let ph = match e.phase {
                SpanPhase::Enter => "b",
                SpanPhase::Exit => "e",
            };
            Json::obj(vec![
                ("name", Json::str(e.name)),
                ("cat", Json::str("sim")),
                ("ph", Json::str(ph)),
                ("id", Json::Num(e.id as f64)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                // trace_event timestamps are microseconds.
                ("ts", Json::Num(e.t_s * 1e6)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
        (
            "otherData",
            Json::obj(vec![
                ("experiment", Json::str(experiment_id)),
                ("clock", Json::str("simulated seconds × 1e6")),
            ]),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_simcore::telemetry::{self, GaugeStat, Histogram, SpanEvent, SpanStat};

    fn sample() -> AttemptTelemetry {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 4.0, 8.0] {
            h.observe(v);
        }
        AttemptTelemetry {
            events: vec![
                SpanEvent {
                    id: 1,
                    name: "radio/drive",
                    phase: SpanPhase::Enter,
                    t_s: 0.0,
                },
                SpanEvent {
                    id: 1,
                    name: "radio/drive",
                    phase: SpanPhase::Exit,
                    t_s: 2.5,
                },
            ],
            dropped_events: 0,
            spans: vec![(
                "radio/drive",
                SpanStat {
                    count: 1,
                    total_s: 2.5,
                },
            )],
            counters: vec![("radio/handoff/vertical", 3)],
            gauges: vec![(
                "transport/mean_mbps",
                GaugeStat {
                    last: 80.0,
                    min: 60.0,
                    max: 95.0,
                    samples: 4,
                },
            )],
            hists: vec![("rrc/delay_ms", h)],
            series: Vec::new(),
        }
    }

    #[test]
    fn jsonl_emits_one_object_per_line_in_stable_order() {
        let s = jsonl(&sample());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 6, "2 events + 4 aggregate lines");
        for line in &lines {
            Json::parse(line).expect("every line is standalone JSON");
        }
        assert!(lines[0].contains("\"ph\":\"B\""));
        assert!(lines[1].contains("\"ph\":\"E\""));
        assert!(lines[2].contains("span_stat"));
        assert!(lines[3].contains("counter"));
        assert!(lines[4].contains("gauge"));
        assert!(lines[5].contains("hist"));
    }

    #[test]
    fn jsonl_is_byte_deterministic() {
        let t = sample();
        assert_eq!(jsonl(&t), jsonl(&t));
    }

    #[test]
    fn jsonl_reports_dropped_events() {
        let mut t = sample();
        t.dropped_events = 7;
        let s = jsonl(&t);
        assert!(s.lines().last().unwrap().contains("dropped_events"));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_async_pairs() {
        let s = chrome_trace("fig9", &sample());
        let v = Json::parse(&s).expect("valid JSON document");
        let events = v.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("b"));
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("e"));
        assert_eq!(events[1].get("ts").and_then(Json::as_f64), Some(2.5e6));
        assert_eq!(
            v.get("otherData")
                .and_then(|o| o.get("experiment"))
                .and_then(Json::as_str),
            Some("fig9")
        );
    }

    #[test]
    fn rendering_an_actual_drained_attempt_round_trips() {
        // Exercise the real collector end to end: install, record, drain,
        // render twice — byte-identical both times.
        let render = || {
            let _g = telemetry::collect();
            telemetry::clock(0.0);
            {
                let _s = telemetry::span("test/outer");
                telemetry::clock(1.0);
                telemetry::count("test/n", 2);
                telemetry::observe("test/v", 3.5);
            }
            let t = telemetry::drain();
            (jsonl(&t), chrome_trace("x", &t))
        };
        let (a_jsonl, a_trace) = render();
        let (b_jsonl, b_trace) = render();
        assert_eq!(a_jsonl, b_jsonl);
        assert_eq!(a_trace, b_trace);
        assert!(!a_jsonl.is_empty());
    }
}
