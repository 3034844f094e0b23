//! The benchmark's span recorder. A span (name, start, end, parent, run
//! id) wraps each call the benchmark makes into a public layer function;
//! spans stay in memory on the recording thread and are written out when
//! the traced run ends. Layer self time is a span's duration minus the
//! part of it its direct children cover.
//!
//! With no recorder installed on the thread, [`span`] only calls its body:
//! that is the untraced replay the tracing overhead is measured against.

use fiveg_simcore::budget;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
    /// Budget events charged inside the span (0 with no budget armed).
    pub events: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u32,
    /// Known-answer hook: sleep this long inside every span of this name.
    delay: Option<(&'static str, Duration)>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs a recorder on this thread; spans are taken back with [`finish`].
pub fn start(delay: Option<(&'static str, Duration)>) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
            delay,
        })
    });
}

/// Removes this thread's recorder and returns its spans.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Sets the run id stamped on spans opened from now on.
pub fn set_run(run: u32) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.run = run;
        }
    });
}

/// Runs `f` with this thread's recorder set aside: its calls are untraced.
pub fn untraced<T>(f: impl FnOnce() -> T) -> T {
    let rec = RECORDER.with(|r| r.borrow_mut().take());
    let out = f();
    RECORDER.with(|r| *r.borrow_mut() = rec);
    out
}

fn consumed() -> u64 {
    budget::consumed().unwrap_or(0)
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let idx = rec.spans.len();
        rec.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: rec.stack.last().copied(),
            run: rec.run,
            events: 0,
        });
        rec.stack.push(idx);
        let delay = rec.delay.filter(|(n, _)| *n == name).map(|(_, d)| d);
        let events0 = consumed();
        rec.spans[idx].start_ns = rec.origin.elapsed().as_nanos() as u64;
        Some((idx, events0, delay))
    });
    let Some((idx, events0, delay)) = opened else {
        return f();
    };
    let out = f();
    if let Some(d) = delay {
        std::thread::sleep(d);
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let end = rec.origin.elapsed().as_nanos() as u64;
            let s = &mut rec.spans[idx];
            s.end_ns = end;
            s.events = consumed().saturating_sub(events0);
            rec.stack.pop();
        }
    });
    out
}

/// Per-name totals: self time and self events (children subtracted).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub calls: u64,
    pub busy_s: f64,
    pub events: u64,
}

impl SpanTotals {
    pub fn ns_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.busy_s * 1e9 / self.events as f64
        }
    }
}

/// Self time and self events of every span.
pub fn self_costs(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_ev = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
            child_ev[p] += s.events;
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            (
                s.dur_ns().saturating_sub(child_ns[i]),
                s.events.saturating_sub(child_ev[i]),
            )
        })
        .collect()
}

/// Aggregates spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, (self_ns, self_ev)) in spans.iter().zip(self_costs(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.busy_s += self_ns as f64 / 1e9;
        t.events += self_ev;
    }
    out
}

/// Spans as tab-separated lines: `run id parent name start_ns end_ns events`.
pub fn render(spans: &[Span]) -> String {
    let mut out = String::from("run\tid\tparent\tname\tstart_ns\tend_ns\tevents\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.run, s.name, s.start_ns, s.end_ns, s.events
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(n: u64) -> u64 {
        (0..n).fold(0u64, |a, i| std::hint::black_box(a.wrapping_add(i * i)))
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        start(None);
        span("outer", || {
            span("inner", || std::thread::sleep(Duration::from_millis(20)));
            std::thread::sleep(Duration::from_millis(10));
        });
        let spans = finish();
        let t = totals(&spans);
        assert_eq!(spans[1].parent, Some(0));
        assert!(t["inner"].busy_s >= 0.020);
        assert!(t["outer"].busy_s >= 0.010 && t["outer"].busy_s < 0.020);
    }

    #[test]
    fn events_are_charged_to_the_innermost_span() {
        let _budget = budget::arm(1_000);
        start(None);
        span("outer", || {
            budget::charge(3);
            span("inner", || budget::charge(5));
        });
        let t = totals(&finish());
        assert_eq!(t["outer"].events, 3);
        assert_eq!(t["inner"].events, 5);
    }

    #[test]
    fn no_recorder_means_no_spans() {
        assert_eq!(span("x", || 7), 7);
        assert!(finish().is_empty());
    }

    #[test]
    fn injected_delay_lands_in_its_own_span() {
        start(Some(("slow", Duration::from_millis(30))));
        span("parent", || {
            span("slow", || spin(1_000));
            span("fast", || spin(1_000));
        });
        let t = totals(&finish());
        assert!(t["slow"].busy_s >= 0.030);
        assert!(t["fast"].busy_s < 0.010);
        assert!(t["parent"].busy_s < 0.010);
    }
}
