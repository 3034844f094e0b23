//! 5G-aware video streaming: 4G/5G interface selection (§5.4).
//!
//! The insight: mmWave 5G burns far more power than 4G at low throughput
//! (§4) *and* its throughput collapses unpredictably. So: when the
//! predicted 5G throughput sinks below the 4G average, ride out the fade
//! on 4G (stable, cheap), and return to 5G once the buffer has recovered
//! past a threshold (10 s). Switching costs a real delay (the NSA 4G↔5G
//! promotion, §4.2), which the paper emulates with `tc` — and so do we.

use crate::abr::Abr;
use crate::asset::VideoAsset;
use crate::player::{fetch_s, link_faulted, PlayerConfig, Session, SessionResult};
use fiveg_power::datamodel::{DataPowerModel, NetworkKind};
use fiveg_radio::band::Direction;
use fiveg_radio::ue::UeModel;
use fiveg_simcore::stats::harmonic_mean_positive;
use fiveg_simcore::{faults, recovery};
use fiveg_transport::shaper::BandwidthTrace;

/// Interface-selection policy configuration.
#[derive(Debug, Clone, Copy)]
pub struct IfSelectConfig {
    /// Enable the 5G-aware policy ("5G-only MPC" when false).
    pub enabled: bool,
    /// Switch to 4G when predicted 5G throughput falls below this (the 4G
    /// corpus average).
    pub to_4g_below_mbps: f64,
    /// Return to 5G once the buffer exceeds this (paper: empirically 10 s).
    pub return_buffer_s: f64,
    /// 4G↔5G switch delay, seconds (0 for the "no overhead" variant).
    pub switch_delay_s: f64,
    /// Stall-triggered failover (fault plane only): a chunk that stalls
    /// playback longer than this while on 5G forces an immediate switch to
    /// 4G, without waiting for the throughput history to sink.
    pub failover_stall_s: f64,
}

impl IfSelectConfig {
    /// Always-5G baseline.
    pub fn five_g_only() -> Self {
        IfSelectConfig {
            enabled: false,
            to_4g_below_mbps: 25.0,
            return_buffer_s: 10.0,
            switch_delay_s: 1.5,
            failover_stall_s: 1.0,
        }
    }

    /// The 5G-aware policy with realistic switch overhead.
    pub fn aware(to_4g_below_mbps: f64) -> Self {
        IfSelectConfig {
            enabled: true,
            to_4g_below_mbps,
            return_buffer_s: 10.0,
            switch_delay_s: 1.5,
            failover_stall_s: 1.0,
        }
    }

    /// The idealized no-overhead variant.
    pub fn aware_no_overhead(to_4g_below_mbps: f64) -> Self {
        IfSelectConfig {
            switch_delay_s: 0.0,
            ..Self::aware(to_4g_below_mbps)
        }
    }
}

/// The leave-5G trigger: true when the stall-tolerant harmonic mean of
/// the recent 5G throughput window sinks below `threshold_mbps`.
///
/// Stall samples (zero or negative throughput, e.g. a chaos-shaped
/// outage recorded as a dead chunk) are excluded from the window: a
/// single zero used to collapse the plain harmonic mean to 0 and force a
/// spurious 5G→4G failover even when every real measurement was healthy.
/// A window with no positive sample at all triggers the switch — there
/// is no evidence the 5G leg still carries traffic.
pub fn should_leave_5g(recent_5g_mbps: &[f64], threshold_mbps: f64) -> bool {
    let hm = harmonic_mean_positive(recent_5g_mbps);
    !hm.is_finite() || hm < threshold_mbps
}

/// Result of an interface-selected session.
#[derive(Debug, Clone)]
pub struct IfSelectResult {
    /// The streaming session outcome.
    pub session: SessionResult,
    /// Fraction of chunks fetched over 5G.
    pub on_5g_fraction: f64,
    /// Radio energy over the session, joules.
    pub energy_j: f64,
    /// Number of interface switches.
    pub iface_switches: usize,
}

/// The radio side of a selected session: the interface in use, the
/// switches so far and the radio energy spent.
struct Radio {
    on_5g: bool,
    switches: usize,
    energy_mj: f64,
}

impl Radio {
    /// Downlink power of the interface in use at `mbps`, mW.
    fn power_mw(&self, mbps: f64) -> f64 {
        let net = if self.on_5g {
            NetworkKind::MmWave
        } else {
            NetworkKind::Lte
        };
        DataPowerModel::lookup(UeModel::GalaxyS20Ultra, net).power_mw(Direction::Downlink, mbps)
    }

    /// Switches interface: `delay_s` of dead time at the new interface's
    /// idle power, which stalls playback if the buffer can't cover it.
    fn switch(&mut self, s: &mut Session, delay_s: f64) {
        self.on_5g = !self.on_5g;
        self.switches += 1;
        s.idle(delay_s);
        self.energy_mj += self.power_mw(0.0) * delay_s;
    }
}

/// Streams `asset` with ABR `abr`, switching between a 5G and a 4G link.
pub fn stream_with_selection(
    asset: &VideoAsset,
    trace_5g: &BandwidthTrace,
    trace_4g: &BandwidthTrace,
    abr: &mut dyn Abr,
    cfg: &IfSelectConfig,
    player: &PlayerConfig,
) -> IfSelectResult {
    let mut s = Session::new(asset, player, 0.0);
    let mut radio = Radio {
        on_5g: true,
        switches: 0,
        energy_mj: 0.0,
    };
    let mut past_5g: Vec<f64> = Vec::new();
    let mut chunks_on_5g = 0usize;

    for index in 0..asset.n_chunks() {
        // Interface policy: leave 5G once its recent throughput sinks,
        // return once the buffer has recovered.
        let flip = cfg.enabled
            && if radio.on_5g {
                let recent: Vec<f64> = past_5g.iter().rev().take(5).cloned().collect();
                past_5g.len() >= 3 && should_leave_5g(&recent, cfg.to_4g_below_mbps)
            } else {
                s.buffer_s > cfg.return_buffer_s
            };
        if flip {
            radio.switch(&mut s, cfg.switch_delay_s);
        }

        let track = s.choose(abr);
        let bytes = asset.chunk_bytes(track);
        let trace = if radio.on_5g { trace_5g } else { trace_4g };
        let dl = fetch_s(trace, bytes, s.wall);
        let b = s.book(track, bytes, dl);
        let (tput, stall) = (b.rec.tput_mbps, b.rec.stall_s);
        // Radio energy: active download at `tput` over `dl` seconds, then
        // connected-idle power while a full buffer paces the player.
        radio.energy_mj += radio.power_mw(tput.min(1e4)) * dl;
        radio.energy_mj += radio.power_mw(0.0) * b.wait_s;
        if radio.on_5g {
            past_5g.push(tput);
            chunks_on_5g += 1;
        }

        // Stall-triggered failover (fault plane only): a fault-shaped 5G
        // collapse that already stalled playback doesn't wait for the
        // harmonic-mean history to sink — fail over to 4G now. A fault
        // window must cover the download (a purely natural stall never
        // fails over, so windowless scenarios stay bit-identical).
        if faults::enabled()
            && cfg.enabled
            && radio.on_5g
            && index > 0
            && stall > cfg.failover_stall_s
            && (link_faulted(b.rec.start_s) || link_faulted(b.end_s))
        {
            radio.switch(&mut s, cfg.switch_delay_s);
            recovery::record(
                recovery::RecoveryKind::IfaceFailover,
                s.wall,
                cfg.failover_stall_s,
                stall,
                || format!("chunk {index}: stalled {stall:.2}s on 5G, failing over to 4G"),
            );
        }
    }

    IfSelectResult {
        on_5g_fraction: chunks_on_5g as f64 / asset.n_chunks().max(1) as f64,
        energy_j: radio.energy_mj / 1e3,
        iface_switches: radio.switches,
        session: s.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abr::Mpc;

    /// A 5G trace with a long mid-stream fade (weak but not dead, so the
    /// player keeps making per-chunk decisions inside it), and a steady 4G
    /// trace.
    fn fade_traces() -> (BandwidthTrace, BandwidthTrace) {
        let mut s5 = vec![400.0; 60];
        s5.extend(vec![8.0; 150]);
        s5.extend(vec![400.0; 290]);
        let s4 = vec![40.0; 500];
        (BandwidthTrace::new(s5, 1.0), BandwidthTrace::new(s4, 1.0))
    }

    #[test]
    fn aware_policy_reduces_stalls_through_a_fade() {
        let asset = VideoAsset::five_g_default();
        let (t5, t4) = fade_traces();
        let only = stream_with_selection(
            &asset,
            &t5,
            &t4,
            &mut Mpc::fast(),
            &IfSelectConfig::five_g_only(),
            &PlayerConfig::default(),
        );
        let aware = stream_with_selection(
            &asset,
            &t5,
            &t4,
            &mut Mpc::fast(),
            &IfSelectConfig::aware(40.0),
            &PlayerConfig::default(),
        );
        assert!(
            aware.session.stall_time_s < only.session.stall_time_s,
            "aware {} vs only {}",
            aware.session.stall_time_s,
            only.session.stall_time_s
        );
        assert!(aware.iface_switches >= 2, "switched out and back");
        assert!(aware.on_5g_fraction > 0.2 && aware.on_5g_fraction < 1.0);
    }

    #[test]
    fn aware_policy_saves_energy() {
        let asset = VideoAsset::five_g_default();
        let (t5, t4) = fade_traces();
        let only = stream_with_selection(
            &asset,
            &t5,
            &t4,
            &mut Mpc::fast(),
            &IfSelectConfig::five_g_only(),
            &PlayerConfig::default(),
        );
        let aware = stream_with_selection(
            &asset,
            &t5,
            &t4,
            &mut Mpc::fast(),
            &IfSelectConfig::aware(40.0),
            &PlayerConfig::default(),
        );
        assert!(
            aware.energy_j < only.energy_j,
            "aware {} vs only {}",
            aware.energy_j,
            only.energy_j
        );
    }

    #[test]
    fn no_overhead_variant_stalls_no_more_than_realistic() {
        let asset = VideoAsset::five_g_default();
        let (t5, t4) = fade_traces();
        let real = stream_with_selection(
            &asset,
            &t5,
            &t4,
            &mut Mpc::fast(),
            &IfSelectConfig::aware(40.0),
            &PlayerConfig::default(),
        );
        let ideal = stream_with_selection(
            &asset,
            &t5,
            &t4,
            &mut Mpc::fast(),
            &IfSelectConfig::aware_no_overhead(40.0),
            &PlayerConfig::default(),
        );
        assert!(ideal.session.stall_time_s <= real.session.stall_time_s + 1e-9);
    }

    #[test]
    fn one_stall_sample_does_not_force_failover() {
        // Regression: a single zero-throughput sample (a stall under
        // chaos) collapsed the harmonic mean to 0 and forced a spurious
        // 5G→4G switch despite four healthy 400 Mbps measurements.
        assert!(!should_leave_5g(&[400.0, 400.0, 0.0, 400.0, 400.0], 25.0));
        // A genuinely sunk window still triggers the switch...
        assert!(should_leave_5g(&[5.0, 4.0, 6.0, 5.0, 5.0], 25.0));
        // ...and so does a window with no positive sample at all.
        assert!(should_leave_5g(&[0.0, 0.0, 0.0], 25.0));
        assert!(should_leave_5g(&[], 25.0));
    }

    #[test]
    fn disabled_policy_never_leaves_5g() {
        let asset = VideoAsset::five_g_default();
        let (t5, t4) = fade_traces();
        let r = stream_with_selection(
            &asset,
            &t5,
            &t4,
            &mut Mpc::fast(),
            &IfSelectConfig::five_g_only(),
            &PlayerConfig::default(),
        );
        assert_eq!(r.on_5g_fraction, 1.0);
        assert_eq!(r.iface_switches, 0);
    }
}
