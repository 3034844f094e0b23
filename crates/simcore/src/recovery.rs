//! Recovery events: the *reaction* side of the fault plane.
//!
//! `faults` injects disruptions; this module records what the simulated
//! stack does about them. Every self-healing action — a radio link
//! re-established after an outage, a TCP retransmission timeout collapsing
//! the window, a DASH segment abandoned and refetched at panic bitrate, a
//! web object wave timed out and retried — emits a [`RecoveryEvent`] into a
//! thread-local collector, when one is installed.
//!
//! The collector follows the same ambient-plane discipline as the fault
//! plane: installed with an attempt's fault schedule
//! ([`crate::attempt::Attempt::faults`], so only when a fault scenario is
//! active), cleared when the attempt's guard drops, and a single
//! thread-local boolean load when nothing is installed. Recording never
//! draws randomness, so collection cannot perturb simulation output; with
//! no collector installed the event stream is empty and the hook points
//! cost one load.

use crate::attempt;

/// The kinds of recovery action the stack can take, one per self-healing
/// mechanism across the radio/RRC/transport/application layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryKind {
    /// Radio link failure detected: the UE lost every usable radio
    /// (`radio::handoff`).
    RadioLinkFailure,
    /// RRC (re-)establishment completed after a link failure or a fault
    /// reset, paying the promotion cost (`radio::handoff`, `rrc::machine`).
    RrcReestablish,
    /// NSA anchor loss rode out on the LTE leg (`radio::handoff`).
    NsaFallback,
    /// Serving-cell reselection away from a dark tower (`radio::handoff`).
    CellReselect,
    /// TCP retransmission timeout fired; window collapsed, backoff doubled
    /// (`transport::tcp`).
    TcpRto,
    /// TCP fast retransmit: loss repaired by multiplicative decrease during
    /// a loss-burst window (`transport::tcp`).
    TcpFastRetransmit,
    /// TCP connection reset and re-established after repeated RTO backoff
    /// (`transport::tcp`).
    TcpConnReset,
    /// DASH segment abandoned mid-download and refetched (`video::player`).
    SegmentRetry,
    /// DASH bitrate panic-down to the lowest track on a segment retry
    /// (`video::player`).
    BitratePanic,
    /// Stall-triggered 5G→4G interface failover (`video::ifselect`).
    IfaceFailover,
    /// Web object wave timed out and was retried (`web::loader`).
    ObjectRetry,
    /// Web page completed without some objects: partial-page degradation
    /// (`web::loader`).
    PartialPage,
    /// Power monitor re-synced its sampling loop after a dropout window
    /// (`power::monitor`).
    MonitorResync,
}

impl RecoveryKind {
    /// All kinds, in a stable order (manifest keys derive from this).
    pub const ALL: [RecoveryKind; 13] = [
        RecoveryKind::RadioLinkFailure,
        RecoveryKind::RrcReestablish,
        RecoveryKind::NsaFallback,
        RecoveryKind::CellReselect,
        RecoveryKind::TcpRto,
        RecoveryKind::TcpFastRetransmit,
        RecoveryKind::TcpConnReset,
        RecoveryKind::SegmentRetry,
        RecoveryKind::BitratePanic,
        RecoveryKind::IfaceFailover,
        RecoveryKind::ObjectRetry,
        RecoveryKind::PartialPage,
        RecoveryKind::MonitorResync,
    ];

    /// Stable name, used in manifests and resilience tables.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryKind::RadioLinkFailure => "radio-link-failure",
            RecoveryKind::RrcReestablish => "rrc-reestablish",
            RecoveryKind::NsaFallback => "nsa-fallback",
            RecoveryKind::CellReselect => "cell-reselect",
            RecoveryKind::TcpRto => "tcp-rto",
            RecoveryKind::TcpFastRetransmit => "tcp-fast-retransmit",
            RecoveryKind::TcpConnReset => "tcp-conn-reset",
            RecoveryKind::SegmentRetry => "segment-retry",
            RecoveryKind::BitratePanic => "bitrate-panic",
            RecoveryKind::IfaceFailover => "iface-failover",
            RecoveryKind::ObjectRetry => "object-retry",
            RecoveryKind::PartialPage => "partial-page",
            RecoveryKind::MonitorResync => "monitor-resync",
        }
    }
}

/// One recovery action taken by the simulated stack.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Simulated time the action fired/completed, seconds.
    pub t_s: f64,
    /// What the stack did.
    pub kind: RecoveryKind,
    /// Detection latency: how long the impairment ran before the stack
    /// noticed, seconds.
    pub detect_s: f64,
    /// Duration of the outage/impairment recovered from, seconds (0 when
    /// the action is instantaneous, e.g. a fast retransmit).
    pub outage_s: f64,
    /// Component-specific note (which tower, which track, backoff count…).
    pub detail: String,
}

/// True iff a collector is installed on this thread — one thread-local
/// load, the cost of every hook point on the default path.
#[inline]
pub fn enabled() -> bool {
    attempt::hot(|h| h.recovery.get())
}

/// Records one recovery event into the ambient collector; a no-op (one
/// boolean load) when none is installed. The `detail` closure only runs
/// when a collector is present, so building the note is free on the
/// default path.
#[inline]
pub fn record(
    kind: RecoveryKind,
    t_s: f64,
    detect_s: f64,
    outage_s: f64,
    detail: impl FnOnce() -> String,
) {
    if !enabled() {
        return;
    }
    let event = RecoveryEvent {
        t_s,
        kind,
        detect_s,
        outage_s,
        detail: detail(),
    };
    attempt::cold(|c| c.recovery.push(event));
}

/// Takes every event collected so far, leaving the collector installed and
/// empty. Returns an empty vector when no collector is installed.
pub fn drain() -> Vec<RecoveryEvent> {
    attempt::cold(|c| std::mem::take(&mut c.recovery))
}

/// Aggregate statistics over one experiment's recovery-event stream — the
/// per-experiment row of the resilience table.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoverySummary {
    /// Total recovery actions.
    pub events: usize,
    /// Total outage/impairment time recovered from, seconds.
    pub outage_s: f64,
    /// Mean detection latency across events, seconds (0 with no events).
    pub mean_detect_s: f64,
    /// Rebuffer-shaped outage: stall time absorbed by the video-layer
    /// recoveries (segment retries, panic-downs, interface failovers), s.
    pub rebuffer_s: f64,
    /// Interface/leg failovers (5G→4G failover + NSA fallbacks).
    pub failovers: usize,
    /// Event counts per kind, in [`RecoveryKind::ALL`] order, zero-count
    /// kinds omitted.
    pub by_kind: Vec<(String, usize)>,
}

impl RecoverySummary {
    /// The empty summary (no recovery events).
    pub fn empty() -> Self {
        RecoverySummary {
            events: 0,
            outage_s: 0.0,
            mean_detect_s: 0.0,
            rebuffer_s: 0.0,
            failovers: 0,
            by_kind: Vec::new(),
        }
    }
}

/// Summarizes an event stream.
pub fn summarize(events: &[RecoveryEvent]) -> RecoverySummary {
    if events.is_empty() {
        return RecoverySummary::empty();
    }
    // `+ 0.0` normalizes the empty-sum identity (-0.0) to +0.0 so the
    // rendered tables never show "-0.00".
    let outage_s = events.iter().map(|e| e.outage_s).sum::<f64>() + 0.0;
    let mean_detect_s = events.iter().map(|e| e.detect_s).sum::<f64>() / events.len() as f64;
    let rebuffer_s = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                RecoveryKind::SegmentRetry
                    | RecoveryKind::BitratePanic
                    | RecoveryKind::IfaceFailover
            )
        })
        .map(|e| e.outage_s)
        .sum::<f64>()
        + 0.0;
    let failovers = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                RecoveryKind::IfaceFailover | RecoveryKind::NsaFallback
            )
        })
        .count();
    let by_kind = RecoveryKind::ALL
        .iter()
        .filter_map(|k| {
            let n = events.iter().filter(|e| e.kind == *k).count();
            (n > 0).then(|| (k.name().to_string(), n))
        })
        .collect();
    RecoverySummary {
        events: events.len(),
        outage_s,
        mean_detect_s,
        rebuffer_s,
        failovers,
        by_kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attempt::Attempt;
    use crate::faults::{FaultScenario, FaultSchedule};

    #[test]
    fn record_without_collector_is_a_noop() {
        assert!(!enabled());
        record(RecoveryKind::TcpRto, 1.0, 0.5, 2.0, || "x".into());
        assert!(drain().is_empty());
    }

    #[test]
    fn collector_gathers_and_clears() {
        let schedule = FaultSchedule::generate(7, &FaultScenario::chaos());
        let _guard = Attempt::new().faults(schedule).install();
        record(RecoveryKind::TcpRto, 1.0, 0.5, 2.0, || "a".into());
        record(RecoveryKind::SegmentRetry, 2.0, 0.1, 3.0, || "b".into());
        let events = drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, RecoveryKind::TcpRto);
        // Drain leaves the collector installed and empty.
        assert!(enabled());
        assert!(drain().is_empty());
        record(RecoveryKind::TcpRto, 3.0, 0.5, 2.0, || "c".into());
        assert_eq!(drain().len(), 1);
    }

    #[test]
    fn detail_closure_is_lazy() {
        // Without a collector the detail closure must not run.
        record(RecoveryKind::TcpRto, 1.0, 0.0, 0.0, || {
            panic!("detail built on the disabled path")
        });
    }

    #[test]
    fn summary_aggregates_by_kind() {
        let events = vec![
            RecoveryEvent {
                t_s: 1.0,
                kind: RecoveryKind::TcpRto,
                detect_s: 1.0,
                outage_s: 4.0,
                detail: String::new(),
            },
            RecoveryEvent {
                t_s: 2.0,
                kind: RecoveryKind::IfaceFailover,
                detect_s: 0.5,
                outage_s: 2.0,
                detail: String::new(),
            },
            RecoveryEvent {
                t_s: 3.0,
                kind: RecoveryKind::TcpRto,
                detect_s: 1.5,
                outage_s: 6.0,
                detail: String::new(),
            },
        ];
        let s = summarize(&events);
        assert_eq!(s.events, 3);
        assert!((s.outage_s - 12.0).abs() < 1e-12);
        assert!((s.mean_detect_s - 1.0).abs() < 1e-12);
        assert!((s.rebuffer_s - 2.0).abs() < 1e-12);
        assert_eq!(s.failovers, 1);
        assert_eq!(
            s.by_kind,
            vec![
                ("tcp-rto".to_string(), 2),
                ("iface-failover".to_string(), 1)
            ]
        );
    }

    #[test]
    fn empty_summary_is_zeroed() {
        assert_eq!(summarize(&[]), RecoverySummary::empty());
    }

    #[test]
    fn kind_names_are_unique_and_cover_all() {
        let names: std::collections::HashSet<_> =
            RecoveryKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), RecoveryKind::ALL.len());
    }
}
