//! The rate-based engine: BBR and NADA pace a send *rate* against an
//! explicit bottleneck queue instead of growing a congestion window.
//!
//! The fluid window engine in `tcp.rs` models the bottleneck as fair-share
//! scaling plus overflow *loss*; the rate engine makes the queue explicit,
//! because queueing *delay* is the very signal the rate-based controllers
//! feed on: the backlog integrates `arrivals − departures`, adds
//! `PathModel::queueing_delay_s` to the effective RTT, and spills into
//! loss only past `PathModel::buffer_bits()`. Around that delivery step
//! the fluid, rate and bonded engines run the same `step` code: the
//! fault-plane sample (RTT spikes, loss bursts, stall windows), the stall
//! timer (RFC 6298 RTO backoff and connection reset) and the per-second
//! goodput ledger with its partial-tail flush and conservation guards, so
//! results are comparable column-to-column in `ablation-cc`.

use crate::bbr::Bbr;
use crate::nada::{self, Nada};
use crate::path::{queue_step, PathModel};
use crate::step::{self, Ledger, StallTimer};
use crate::tcp::{step_loss_probability, CcAlgo, TcpRunResult, TcpSimConfig};
use fiveg_simcore::recovery::{self, RecoveryKind};
use fiveg_simcore::{guard, telemetry, RngStream};

/// Initial window equivalent (packets) used to seed the starting rate,
/// mirroring the window engine's `INIT_CWND`.
const INIT_PKTS: f64 = 10.0;

/// A rate controller: one per flow here, and the bonded engine's
/// aggregate pacer.
pub(crate) enum Controller {
    Bbr(Bbr),
    Nada(Nada),
}

impl Controller {
    /// A fresh `algo` controller starting at the initial window's rate
    /// over `rtt_s`.
    pub(crate) fn new(algo: CcAlgo, mss_bytes: f64, rtt_s: f64) -> Controller {
        let init_rate_mbps = INIT_PKTS * mss_bytes * 8.0 / 1e6 / rtt_s;
        match algo {
            CcAlgo::Bbr => Controller::Bbr(Bbr::new(init_rate_mbps)),
            CcAlgo::Nada => Controller::Nada(Nada::new(init_rate_mbps)),
            _ => unreachable!("window-based controllers run on the fluid engine"),
        }
    }

    /// The paced send rate at effective RTT `rtt_s`, capped by a
    /// `wmem_bytes` send buffer exactly like the window engine caps cwnd
    /// at `wmem`.
    pub(crate) fn rate_mbps(&self, wmem_bytes: f64, mss_bytes: f64, rtt_s: f64) -> f64 {
        let buf_limit = wmem_bytes * 8.0 / 1e6 / rtt_s;
        let rate = match self {
            Controller::Bbr(b) => b
                .pacing_rate_mbps()
                .min(b.cwnd_rate_cap_mbps(mss_bytes, rtt_s)),
            Controller::Nada(n) => n.rate_mbps(),
        };
        rate.min(buf_limit)
    }

    /// One feedback sample: delivered rate, effective RTT, queueing delay
    /// and the deterministic per-step loss probability.
    pub(crate) fn on_sample(
        &mut self,
        t: f64,
        delivered_mbps: f64,
        rtt_s: f64,
        qdelay_s: f64,
        p_loss: f64,
    ) {
        match self {
            Controller::Bbr(b) => b.on_sample(t, delivered_mbps, rtt_s, qdelay_s),
            Controller::Nada(n) => {
                n.on_loss_ratio_sample(p_loss);
                n.on_feedback(t, qdelay_s * 1e3, rtt_s * 1e3);
            }
        }
    }

    pub(crate) fn on_rto(&mut self, t: f64) {
        match self {
            Controller::Bbr(b) => b.on_rto(t),
            // NADA has no timeout machinery of its own: collapse to the
            // floor rate and let the ramp-up regime rebuild.
            Controller::Nada(n) => *n = Nada::new(nada::RMIN_MBPS),
        }
    }
}

/// Runs `cfg.connections` rate-based flows over `path` for `duration_s`.
/// Same contract as [`crate::TcpSim::run`], which dispatches here for
/// `CcAlgo::{Bbr, Nada}`.
pub(crate) fn run_rate(
    path: &PathModel,
    cfg: &TcpSimConfig,
    rng: &mut RngStream,
    duration_s: f64,
) -> TcpRunResult {
    let base_rtt_s = path.rtt_ms / 1e3;
    let dt = cfg.dt_s;
    let fresh = || Controller::new(cfg.algo, path.mss_bytes, base_rtt_s);
    let mut flows: Vec<Controller> = (0..cfg.connections).map(|_| fresh()).collect();

    let mut t = 0.0;
    let mut loss_events = 0u64;
    let mut ledger = Ledger::new();
    let mut stall = StallTimer::new(base_rtt_s, "", "pacing");
    // The explicit bottleneck queue, bits.
    let mut backlog_bits = 0.0_f64;

    telemetry::clock(0.0);
    let _run_span = telemetry::span("transport/run");
    while t < duration_s {
        let fault = step::begin(t);
        if fault.stalled {
            stall.stalled(
                t,
                &mut flows,
                |flows| flows.iter_mut().for_each(|f| f.on_rto(t)),
                |flows| flows.fill_with(fresh),
            );
            t += dt;
            ledger.tick(t);
            continue;
        }
        stall.clear();
        let loss_per_pkt = path.loss_per_pkt * fault.loss_mult;

        // Queueing delay from the backlog at the step's start feeds the
        // effective RTT the controllers see.
        let qdelay_s = path.queueing_delay_s(backlog_bits);
        guard::non_negative("transport", "queue-delay-nonneg", qdelay_s, 0.0, t);
        let rtt_s = base_rtt_s * fault.rtt_mult + qdelay_s;

        let sends: Vec<f64> = flows
            .iter()
            .map(|f| f.rate_mbps(cfg.wmem_bytes, path.mss_bytes, rtt_s))
            .collect();
        let arrival_mbps: f64 = sends.iter().sum();

        // Queue integration: arrivals in, at most one capacity·dt out,
        // spill past the buffer becomes overflow loss.
        let (depart_bits, overflow_frac) = queue_step(
            &mut backlog_bits,
            arrival_mbps * 1e6 * dt,
            path.capacity_mbps,
            dt,
            path.buffer_bits(),
        );
        ledger.add(depart_bits / 1e6);

        let flow_count = flows.len().max(1) as f64;
        for (i, f) in flows.iter_mut().enumerate() {
            // Each flow delivers its share of what the bottleneck drained.
            let share = if arrival_mbps > 0.0 {
                sends[i] / arrival_mbps
            } else {
                1.0 / flow_count
            };
            let thr = share * depart_bits / 1e6 / dt;
            let pkts = path.packets_per_sec(thr) * dt;
            let p_rand = 1.0 - (-pkts * loss_per_pkt).exp();
            let p_step = step_loss_probability(p_rand, overflow_frac);
            if rng.chance(p_step) {
                telemetry::count("transport/loss", 1);
                loss_events += 1;
                if fault.loss_burst {
                    recovery::record(RecoveryKind::TcpFastRetransmit, t, rtt_s, 0.0, || {
                        format!("flow {i}: rate-based repair, no window collapse")
                    });
                }
            }
            // The controllers consume the deterministic per-step loss
            // probability (fluid model), not the RNG draw: BBR ignores it
            // by design, NADA folds it into the composite signal.
            f.on_sample(t, thr, rtt_s, qdelay_s, p_step);
        }

        t += dt;
        if ledger.tick(t) {
            telemetry::observe("transport/queue_delay_s", qdelay_s);
            telemetry::series("transport/rate_mbps_t", t, arrival_mbps);
        }
    }

    let (mean_mbps, per_second_mbps) = ledger.finish(t, duration_s);
    match &flows[0] {
        Controller::Bbr(b) => {
            telemetry::gauge("transport/bbr/btlbw_mbps", b.btlbw_mbps());
            telemetry::gauge("transport/bbr/rtprop_s", b.rtprop_s(base_rtt_s));
        }
        Controller::Nada(n) => {
            telemetry::gauge("transport/nada/rate_mbps", n.rate_mbps());
        }
    }
    telemetry::gauge("transport/mean_mbps", mean_mbps);
    TcpRunResult {
        mean_mbps,
        loss_events,
        per_second_mbps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::measure_throughput;

    fn path(rtt_ms: f64, capacity: f64, dist_km: f64) -> PathModel {
        PathModel {
            rtt_ms,
            loss_per_pkt: crate::path::BASE_LOSS + crate::path::LOSS_PER_KM * dist_km,
            capacity_mbps: capacity,
            mss_bytes: 1460.0,
            queue_bdp: crate::path::DEFAULT_QUEUE_BDP,
        }
    }

    fn cfg(algo: CcAlgo) -> TcpSimConfig {
        TcpSimConfig {
            algo,
            ..TcpSimConfig::single_tuned()
        }
    }

    #[test]
    fn bbr_fills_a_clean_pipe() {
        let thr = measure_throughput(path(20.0, 2000.0, 800.0), cfg(CcAlgo::Bbr), 1);
        assert!(thr > 0.7 * 2000.0, "BBR steady state near capacity: {thr}");
    }

    #[test]
    fn bbr_shrugs_off_random_long_haul_loss() {
        // The lossy long-haul path of ablation-cc row 50 ms / 2500 km:
        // CUBIC's multiplicative decreases cost it dearly here; BBR's
        // model-based pacing must hold materially more goodput.
        let p = path(50.0, 3400.0, 2500.0);
        let bbr = measure_throughput(p, cfg(CcAlgo::Bbr), 2);
        let cubic = measure_throughput(p, cfg(CcAlgo::Cubic), 2);
        assert!(
            bbr >= cubic,
            "BBR {bbr} must not trail CUBIC {cubic} on the lossy path"
        );
    }

    #[test]
    fn nada_converges_inside_its_bounds() {
        let thr = measure_throughput(path(20.0, 2000.0, 800.0), cfg(CcAlgo::Nada), 3);
        assert!(
            thr > 100.0 && thr <= 2000.0,
            "NADA goodput within path limits: {thr}"
        );
    }

    #[test]
    fn queue_never_exceeds_the_buffer() {
        // A tiny capacity forces sustained pressure on the buffer; the
        // backlog must stay pinned at buffer_bits (checked indirectly:
        // the delivered rate cannot exceed capacity). NADA probes the
        // queue until the delay signal bites, so overflow loss must
        // actually occur along the way.
        let p = path(20.0, 50.0, 100.0);
        let mut rng = RngStream::new(4, "tcp");
        let res = run_rate(&p, &cfg(CcAlgo::Nada), &mut rng, 5.0);
        assert!(
            res.mean_mbps <= 50.0 * 1.001,
            "delivery can never beat capacity: {}",
            res.mean_mbps
        );
        assert!(res.loss_events > 0, "sustained overflow must drop packets");
    }

    #[test]
    fn multi_flow_shares_the_bottleneck() {
        let p = path(20.0, 2000.0, 800.0);
        let mut rng = RngStream::new(5, "tcp");
        let cfg = TcpSimConfig {
            connections: 4,
            ..cfg(CcAlgo::Nada)
        };
        let res = run_rate(&p, &cfg, &mut rng, 10.0);
        assert!(
            res.mean_mbps <= 2000.0 * 1.001,
            "4 flows cannot beat capacity: {}",
            res.mean_mbps
        );
        assert!(
            res.mean_mbps > 200.0,
            "4 flows make progress: {}",
            res.mean_mbps
        );
    }

    #[test]
    fn rate_engine_flushes_the_partial_tail() {
        let p = path(20.0, 1000.0, 500.0);
        let mut rng = RngStream::new(6, "tcp");
        let res = run_rate(&p, &cfg(CcAlgo::Bbr), &mut rng, 3.5);
        assert_eq!(res.per_second_mbps.len(), 4);
        let mut rng = RngStream::new(6, "tcp");
        let res = run_rate(&p, &cfg(CcAlgo::Bbr), &mut rng, 3.0);
        assert_eq!(res.per_second_mbps.len(), 3);
    }
}
