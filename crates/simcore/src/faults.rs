//! Deterministic fault injection: seeded, named disruption events.
//!
//! The paper's headline finding is that commercial 5G is *wildly* unreliable
//! — mmWave throughput collapses under hand/body blockage, NSA anchors drop,
//! handoffs stall TCP, dead zones appear mid-drive. The smooth stochastic
//! processes of the substrate underrepresent that; this module injects the
//! discrete catastrophes on top, deterministically.
//!
//! A [`FaultSchedule`] is a pure function of `(seed, scenario)`: every fault
//! event is drawn from [`RngStream`]s forked per fault kind, so the same
//! seed and scenario always yield the same storms, outages, and resets —
//! and so generating the schedule never perturbs the RNG streams of the
//! simulation components themselves.
//!
//! Components consult the schedule through the *ambient plane* — the
//! schedule of the thread's installed [`crate::attempt::Attempt`] (usually
//! installed by the supervised experiment runner), cleared when the
//! attempt's guard drops. When nothing is installed, every query
//! short-circuits on one thread-local boolean load: the zero-cost default
//! path. Hook points never draw randomness of their own, so a disabled
//! plane leaves simulation output bit-identical to a build without the
//! plane.

use crate::attempt;
use crate::rng::RngStream;

/// The kinds of disruption the plane can inject, one per failure mode the
/// paper observed in the wild.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A cell site goes dark; its tower is invisible to reselection
    /// (`radio::cell`). The event's `target` selects the tower id (modulo
    /// the layout's tower count).
    CellOutage,
    /// NSA anchor loss: the LTE anchor drops, tearing down the NR leg
    /// (`radio::handoff`).
    AnchorLoss,
    /// A blockage storm: LoS→NLoS transition pressure multiplies and mmWave
    /// capacity collapses (`radio::blockage`, `radio::link`).
    BlockageStorm,
    /// RRC connection reset: the state machine falls back to RRC_IDLE and
    /// pays the full promotion again (`rrc::machine`).
    RrcReset,
    /// A stuck RRC timer: paging/promotion waits stretch by the event's
    /// magnitude (`rrc::machine`).
    RrcStuckTimer,
    /// A loss burst on the transport path (`transport::tcp`, `transport::udp`).
    LossBurst,
    /// An RTT spike: path RTT multiplies by `1 + magnitude`
    /// (`transport::tcp`).
    RttSpike,
    /// A stall window: the link carries nothing (`transport::shaper`,
    /// `transport::tcp`).
    StallWindow,
    /// The power monitor's sampling loop drops readings (`power::monitor`).
    PowerDropout,
}

impl FaultKind {
    /// All fault kinds, in a stable order (stream names derive from this).
    pub const ALL: [FaultKind; 9] = [
        FaultKind::CellOutage,
        FaultKind::AnchorLoss,
        FaultKind::BlockageStorm,
        FaultKind::RrcReset,
        FaultKind::RrcStuckTimer,
        FaultKind::LossBurst,
        FaultKind::RttSpike,
        FaultKind::StallWindow,
        FaultKind::PowerDropout,
    ];

    /// Stable name, used both for RNG stream derivation and event names.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::CellOutage => "cell-outage",
            FaultKind::AnchorLoss => "anchor-loss",
            FaultKind::BlockageStorm => "blockage-storm",
            FaultKind::RrcReset => "rrc-reset",
            FaultKind::RrcStuckTimer => "rrc-stuck-timer",
            FaultKind::LossBurst => "loss-burst",
            FaultKind::RttSpike => "rtt-spike",
            FaultKind::StallWindow => "stall-window",
            FaultKind::PowerDropout => "power-dropout",
        }
    }
}

/// Arrival/shape parameters for one fault kind within a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProcess {
    /// Mean arrivals per simulated hour (Poisson).
    pub rate_per_hour: f64,
    /// Event duration bounds in seconds (uniform draw).
    pub duration_s: (f64, f64),
    /// Event magnitude bounds (uniform draw); semantics per kind.
    pub magnitude: (f64, f64),
}

impl FaultProcess {
    /// A process that never fires.
    pub const OFF: FaultProcess = FaultProcess {
        rate_per_hour: 0.0,
        duration_s: (0.0, 0.0),
        magnitude: (0.0, 0.0),
    };
}

/// A named, reproducible mix of fault processes over a time horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScenario {
    /// Scenario name; part of the schedule's identity.
    pub name: String,
    /// Horizon over which events are drawn, seconds of simulated time.
    pub horizon_s: f64,
    /// One process per fault kind (indexed by position in [`FaultKind::ALL`]).
    pub processes: [FaultProcess; 9],
}

impl FaultScenario {
    /// A scenario with every process off (the explicit no-fault baseline).
    pub fn quiet() -> FaultScenario {
        FaultScenario {
            name: "quiet".into(),
            horizon_s: 3_600.0,
            processes: [FaultProcess::OFF; 9],
        }
    }

    /// Looks up `kind`'s process.
    pub fn process(&self, kind: FaultKind) -> &FaultProcess {
        let idx = FaultKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind in ALL");
        &self.processes[idx]
    }

    fn with(mut self, kind: FaultKind, p: FaultProcess) -> FaultScenario {
        let idx = FaultKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind in ALL");
        self.processes[idx] = p;
        self
    }

    /// mmWave blockage storms plus the resulting link collapse (§4's
    /// hand/body-blockage walking campaigns, turned hostile).
    pub fn blockage_storm() -> FaultScenario {
        let mut s = Self::quiet();
        s.name = "blockage-storm".into();
        s = s.with(
            FaultKind::BlockageStorm,
            FaultProcess {
                rate_per_hour: 40.0,
                duration_s: (5.0, 45.0),
                magnitude: (4.0, 12.0),
            },
        );
        s
    }

    /// Mid-drive dead zones: cell outages and NSA anchor losses (Fig 9's
    /// corridor with towers going dark).
    pub fn dead_zone_drive() -> FaultScenario {
        let mut s = Self::quiet();
        s.name = "dead-zone-drive".into();
        s = s.with(
            FaultKind::CellOutage,
            FaultProcess {
                rate_per_hour: 30.0,
                duration_s: (20.0, 120.0),
                magnitude: (0.0, 1.0),
            },
        );
        s = s.with(
            FaultKind::AnchorLoss,
            FaultProcess {
                rate_per_hour: 25.0,
                duration_s: (3.0, 20.0),
                magnitude: (0.0, 1.0),
            },
        );
        s
    }

    /// Flaky RRC plane: connection resets and stuck timers.
    pub fn rrc_flaky() -> FaultScenario {
        let mut s = Self::quiet();
        s.name = "rrc-flaky".into();
        s = s.with(
            FaultKind::RrcReset,
            FaultProcess {
                rate_per_hour: 60.0,
                duration_s: (0.5, 3.0),
                magnitude: (0.0, 1.0),
            },
        );
        s = s.with(
            FaultKind::RrcStuckTimer,
            FaultProcess {
                rate_per_hour: 30.0,
                duration_s: (10.0, 60.0),
                magnitude: (1.0, 5.0),
            },
        );
        s
    }

    /// Transport turbulence: loss bursts, RTT spikes, and stall windows
    /// (the handoff-stalls-TCP pathology of §3.3).
    pub fn transport_turbulence() -> FaultScenario {
        let mut s = Self::quiet();
        s.name = "transport-turbulence".into();
        s = s.with(
            FaultKind::LossBurst,
            FaultProcess {
                rate_per_hour: 80.0,
                duration_s: (0.5, 5.0),
                magnitude: (2.0, 20.0),
            },
        );
        s = s.with(
            FaultKind::RttSpike,
            FaultProcess {
                rate_per_hour: 60.0,
                duration_s: (1.0, 10.0),
                magnitude: (1.0, 8.0),
            },
        );
        s = s.with(
            FaultKind::StallWindow,
            FaultProcess {
                rate_per_hour: 30.0,
                duration_s: (0.5, 4.0),
                magnitude: (1.0, 1.0),
            },
        );
        s
    }

    /// Power-monitor glitches: sampling dropouts.
    pub fn power_glitch() -> FaultScenario {
        let mut s = Self::quiet();
        s.name = "power-glitch".into();
        s = s.with(
            FaultKind::PowerDropout,
            FaultProcess {
                rate_per_hour: 120.0,
                duration_s: (0.2, 5.0),
                magnitude: (1.0, 1.0),
            },
        );
        s
    }

    /// Everything at once, aggressively. The chaos-invariant test scenario.
    pub fn chaos() -> FaultScenario {
        let mut s = Self::quiet();
        s.name = "chaos".into();
        for kind in FaultKind::ALL {
            s = s.with(
                kind,
                FaultProcess {
                    rate_per_hour: 90.0,
                    duration_s: (1.0, 30.0),
                    magnitude: (2.0, 10.0),
                },
            );
        }
        s
    }

    /// Scenario registry: maps CLI names to presets. `None` for unknown
    /// names; `"quiet"` is accepted and yields the empty scenario.
    pub fn by_name(name: &str) -> Option<FaultScenario> {
        match name {
            "quiet" => Some(Self::quiet()),
            "blockage-storm" => Some(Self::blockage_storm()),
            "dead-zone-drive" => Some(Self::dead_zone_drive()),
            "rrc-flaky" => Some(Self::rrc_flaky()),
            "transport-turbulence" => Some(Self::transport_turbulence()),
            "power-glitch" => Some(Self::power_glitch()),
            "chaos" => Some(Self::chaos()),
            _ => None,
        }
    }

    /// All preset names, for CLI listings.
    pub fn names() -> [&'static str; 7] {
        [
            "quiet",
            "blockage-storm",
            "dead-zone-drive",
            "rrc-flaky",
            "transport-turbulence",
            "power-glitch",
            "chaos",
        ]
    }
}

/// One scheduled fault event.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Stable name, e.g. `"blockage-storm/2"`.
    pub name: String,
    /// What breaks.
    pub kind: FaultKind,
    /// Start of the window, seconds of simulated time.
    pub start_s: f64,
    /// Window length, seconds.
    pub duration_s: f64,
    /// Kind-specific intensity (rate multiplier, extra loss ×1e-3, …).
    pub magnitude: f64,
    /// Kind-specific target selector (e.g. folded into a tower id);
    /// uniform over `u64` so any modulus stays uniform.
    pub target: u64,
}

impl FaultEvent {
    /// Whether the window covers time `t_s`.
    pub fn covers(&self, t_s: f64) -> bool {
        t_s >= self.start_s && t_s < self.start_s + self.duration_s
    }
}

/// The full set of fault events for one `(seed, scenario)` pair, sorted by
/// start time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    seed: u64,
    scenario: String,
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Generates the schedule — a pure function of `(seed, scenario)`.
    ///
    /// Each kind's events come from an independent stream forked off
    /// `faults/<scenario>` under `kind.name()`, so adding a kind never
    /// reshuffles another kind's arrivals.
    pub fn generate(seed: u64, scenario: &FaultScenario) -> FaultSchedule {
        let root = RngStream::new(seed, &format!("faults/{}", scenario.name));
        let mut events = Vec::new();
        for kind in FaultKind::ALL {
            let p = scenario.process(kind);
            if p.rate_per_hour <= 0.0 {
                continue;
            }
            let mut rng = root.fork(kind.name());
            let rate_per_s = p.rate_per_hour / 3_600.0;
            let mut t = rng.exponential(rate_per_s);
            let mut i = 0usize;
            while t < scenario.horizon_s {
                let duration = if p.duration_s.1 > p.duration_s.0 {
                    rng.gen_range(p.duration_s.0..p.duration_s.1)
                } else {
                    p.duration_s.0
                };
                let magnitude = if p.magnitude.1 > p.magnitude.0 {
                    rng.gen_range(p.magnitude.0..p.magnitude.1)
                } else {
                    p.magnitude.0
                };
                events.push(FaultEvent {
                    name: format!("{}/{}", kind.name(), i),
                    kind,
                    start_s: t,
                    duration_s: duration,
                    magnitude,
                    target: rng.next_u64(),
                });
                i += 1;
                t += rng.exponential(rate_per_s);
            }
        }
        events.sort_by(|a, b| a.start_s.total_cmp(&b.start_s).then(a.name.cmp(&b.name)));
        FaultSchedule {
            seed,
            scenario: scenario.name.clone(),
            events,
        }
    }

    /// The campaign seed the schedule was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scenario name the schedule was derived from.
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// All events, sorted by start time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Events of one kind, in time order.
    pub fn events_of(&self, kind: FaultKind) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Whether any `kind` window covers `t_s`.
    pub fn is_active(&self, kind: FaultKind, t_s: f64) -> bool {
        self.events_of(kind).any(|e| e.covers(t_s))
    }

    /// The strongest magnitude among `kind` windows covering `t_s`.
    pub fn magnitude(&self, kind: FaultKind, t_s: f64) -> Option<f64> {
        self.events_of(kind)
            .filter(|e| e.covers(t_s))
            .map(|e| e.magnitude)
            .max_by(f64::total_cmp)
    }

    /// Whether a `kind` window covering `t_s` selects `id` out of `n_targets`
    /// (the event's target folded modulo `n_targets`). Used for per-tower
    /// cell outages.
    pub fn targets(&self, kind: FaultKind, t_s: f64, id: u64, n_targets: u64) -> bool {
        n_targets > 0
            && self
                .events_of(kind)
                .any(|e| e.covers(t_s) && e.target % n_targets == id % n_targets)
    }

    /// The schedule restricted to the events whose (time-sorted) indices
    /// appear in `keep`. Identity (seed, scenario) is preserved, so a
    /// restricted schedule installs and replays exactly like the original
    /// minus the dropped windows. The stress shrinker's "drop fault
    /// events" dimension; out-of-range indices are ignored.
    pub fn restricted(&self, keep: &[usize]) -> FaultSchedule {
        FaultSchedule {
            seed: self.seed,
            scenario: self.scenario.clone(),
            events: self
                .events
                .iter()
                .enumerate()
                .filter(|(i, _)| keep.contains(i))
                .map(|(_, e)| e.clone())
                .collect(),
        }
    }

    /// The schedule truncated to events *starting* before `horizon_s` —
    /// the stress shrinker's "shorten duration" dimension. A window that
    /// starts before the horizon keeps its full duration (truncating
    /// mid-window would create a schedule no generator could produce).
    pub fn truncated(&self, horizon_s: f64) -> FaultSchedule {
        FaultSchedule {
            seed: self.seed,
            scenario: self.scenario.clone(),
            events: self
                .events
                .iter()
                .filter(|e| e.start_s < horizon_s)
                .cloned()
                .collect(),
        }
    }

    /// The `(start_s, duration_s)` of the `kind` window covering `t_s`, if
    /// any; with overlapping windows, the earliest-starting one. Recovery
    /// hooks use this to compute detection latency (`t_s - start_s`) and the
    /// outage duration they rode out.
    pub fn window_of(&self, kind: FaultKind, t_s: f64) -> Option<(f64, f64)> {
        self.events_of(kind)
            .filter(|e| e.covers(t_s))
            .map(|e| (e.start_s, e.duration_s))
            .min_by(|a, b| a.0.total_cmp(&b.0))
    }
}

/// True iff a plane is installed on this thread — one thread-local load,
/// the cost of every hook point on the default path.
#[inline]
pub fn enabled() -> bool {
    attempt::hot(|h| h.faults.get())
}

/// Runs `f` on the installed schedule; `None` when there is none.
#[inline]
fn with_schedule<R>(f: impl FnOnce(&FaultSchedule) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    attempt::cold(|c| c.schedule.as_ref().map(f))
}

/// Ambient [`FaultSchedule::is_active`]; false when no plane is installed.
#[inline]
pub fn is_active(kind: FaultKind, t_s: f64) -> bool {
    with_schedule(|s| s.is_active(kind, t_s)).unwrap_or(false)
}

/// Ambient [`FaultSchedule::magnitude`]; `None` when no plane is installed.
#[inline]
pub fn magnitude(kind: FaultKind, t_s: f64) -> Option<f64> {
    with_schedule(|s| s.magnitude(kind, t_s)).flatten()
}

/// Ambient [`FaultSchedule::targets`]; false when no plane is installed.
#[inline]
pub fn targets(kind: FaultKind, t_s: f64, id: u64, n_targets: u64) -> bool {
    with_schedule(|s| s.targets(kind, t_s, id, n_targets)).unwrap_or(false)
}

/// Ambient [`FaultSchedule::window_of`]; `None` when no plane is installed.
#[inline]
pub fn window_of(kind: FaultKind, t_s: f64) -> Option<(f64, f64)> {
    with_schedule(|s| s.window_of(kind, t_s)).flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_pure_function_of_seed_and_scenario() {
        let a = FaultSchedule::generate(2021, &FaultScenario::chaos());
        let b = FaultSchedule::generate(2021, &FaultScenario::chaos());
        assert_eq!(a, b);
        assert!(!a.events().is_empty(), "chaos draws events");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultSchedule::generate(1, &FaultScenario::chaos());
        let b = FaultSchedule::generate(2, &FaultScenario::chaos());
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn different_scenarios_differ() {
        let a = FaultSchedule::generate(1, &FaultScenario::blockage_storm());
        let b = FaultSchedule::generate(1, &FaultScenario::transport_turbulence());
        assert_ne!(a.events(), b.events());
        assert!(a.events_of(FaultKind::BlockageStorm).count() > 0);
        assert_eq!(a.events_of(FaultKind::LossBurst).count(), 0);
    }

    #[test]
    fn quiet_scenario_is_empty() {
        let s = FaultSchedule::generate(2021, &FaultScenario::quiet());
        assert!(s.events().is_empty());
    }

    #[test]
    fn events_are_sorted_and_within_horizon() {
        let scenario = FaultScenario::chaos();
        let s = FaultSchedule::generate(7, &scenario);
        for w in s.events().windows(2) {
            assert!(w[0].start_s <= w[1].start_s);
        }
        for e in s.events() {
            assert!((0.0..scenario.horizon_s).contains(&e.start_s));
            assert!(e.duration_s > 0.0);
        }
    }

    #[test]
    fn window_queries_match_events() {
        let s = FaultSchedule::generate(3, &FaultScenario::blockage_storm());
        let e = s
            .events_of(FaultKind::BlockageStorm)
            .next()
            .expect("at least one storm")
            .clone();
        let mid = e.start_s + e.duration_s / 2.0;
        assert!(s.is_active(FaultKind::BlockageStorm, mid));
        assert!(s.magnitude(FaultKind::BlockageStorm, mid).is_some());
        assert!(!s.is_active(FaultKind::CellOutage, mid));
        let (start, dur) = s.window_of(FaultKind::BlockageStorm, mid).expect("covered");
        assert!(start <= mid && mid < start + dur);
        assert!(s.window_of(FaultKind::CellOutage, mid).is_none());
    }

    #[test]
    fn rate_scales_event_count() {
        let lo = FaultSchedule::generate(5, &FaultScenario::blockage_storm());
        // Double the storm rate and expect materially more events.
        let mut hot = FaultScenario::blockage_storm();
        for p in hot.processes.iter_mut() {
            p.rate_per_hour *= 2.0;
        }
        let hi = FaultSchedule::generate(5, &hot);
        assert!(hi.events().len() > lo.events().len());
    }

    #[test]
    fn by_name_round_trips() {
        for name in FaultScenario::names() {
            let s = FaultScenario::by_name(name).expect(name);
            assert_eq!(s.name, name);
        }
        assert!(FaultScenario::by_name("nope").is_none());
    }

    #[test]
    fn restricted_and_truncated_preserve_identity() {
        let s = FaultSchedule::generate(17, &FaultScenario::chaos());
        assert!(s.events().len() >= 4, "chaos schedules are busy");
        let keep: Vec<usize> = (0..s.events().len()).step_by(2).collect();
        let r = s.restricted(&keep);
        assert_eq!(r.seed(), s.seed());
        assert_eq!(r.scenario(), s.scenario());
        assert_eq!(r.events().len(), keep.len());
        assert_eq!(r.events()[0], s.events()[0]);
        let horizon = s.events()[2].start_s;
        let t = s.truncated(horizon);
        assert!(t.events().iter().all(|e| e.start_s < horizon));
        assert!(t.events().len() < s.events().len());
        assert_eq!(s.restricted(&[]).events().len(), 0);
        // Restricting to everything is the identity.
        let all: Vec<usize> = (0..s.events().len()).collect();
        assert_eq!(s.restricted(&all), s);
    }

    #[test]
    fn targets_is_uniform_modulo() {
        let s = FaultSchedule::generate(13, &FaultScenario::dead_zone_drive());
        let e = s
            .events_of(FaultKind::CellOutage)
            .next()
            .expect("outages scheduled")
            .clone();
        let mid = e.start_s + e.duration_s / 2.0;
        let n = 40u64;
        let hit = (0..n)
            .filter(|&id| s.targets(FaultKind::CellOutage, mid, id, n))
            .count();
        assert!(hit >= 1, "exactly the selected tower(s) are down");
        assert!(
            !s.targets(FaultKind::CellOutage, mid, 0, 0),
            "n=0 never targets"
        );
    }
}
