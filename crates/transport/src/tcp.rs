//! Fluid-flow TCP simulation with CUBIC and Reno congestion control.
//!
//! Rather than a packet-level stack, flows are advanced analytically in
//! small time steps: the congestion window follows the control law in real
//! time, loss events arrive as a Poisson process (random path loss plus
//! bottleneck-overflow loss), and delivered throughput is the minimum of the
//! window-limited rate, the send-buffer-limited rate (`tcp_wmem`), and the
//! flow's fair share of the bottleneck. This reproduces the §3 phenomena:
//!
//! * multi-connection tests saturate the radio regardless of distance,
//! * a single connection degrades with RTT (loss recovery epochs cost more,
//!   and longer paths lose more packets),
//! * the default send buffer pins one flow at `buf/RTT`,
//! * even a tuned buffer trails UDP because loss recovery keeps biting.

use crate::path::PathModel;
use crate::step::{self, Ledger, StallTimer};
use fiveg_simcore::recovery::{self, RecoveryKind};
use fiveg_simcore::{guard, telemetry, RngStream};

/// Congestion-control algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcAlgo {
    /// Linux CUBIC (the paper's default).
    Cubic,
    /// Classic Reno (ablation baseline).
    Reno,
    /// BBR: model-based pacing from windowed BtlBw/RTprop filters
    /// (runs on the rate engine, not the fluid window engine).
    Bbr,
    /// NADA (RFC 8698): delay-gradient rate control off the unified
    /// congestion signal (rate engine).
    Nada,
}

impl CcAlgo {
    /// Stable name, for CLI flags and report labels.
    pub fn as_str(self) -> &'static str {
        match self {
            CcAlgo::Cubic => "cubic",
            CcAlgo::Reno => "reno",
            CcAlgo::Bbr => "bbr",
            CcAlgo::Nada => "nada",
        }
    }

    /// Parses an algorithm name.
    pub fn parse(s: &str) -> Option<CcAlgo> {
        match s {
            "cubic" => Some(CcAlgo::Cubic),
            "reno" => Some(CcAlgo::Reno),
            "bbr" => Some(CcAlgo::Bbr),
            "nada" => Some(CcAlgo::Nada),
            _ => None,
        }
    }

    /// True for the controllers that pace a send *rate* (BBR, NADA)
    /// rather than growing a congestion *window* (CUBIC, Reno).
    pub fn is_rate_based(self) -> bool {
        matches!(self, CcAlgo::Bbr | CcAlgo::Nada)
    }
}

/// CUBIC constants (RFC 8312).
const CUBIC_C: f64 = 0.4;
const CUBIC_BETA: f64 = 0.7;
/// Reno multiplicative decrease.
const RENO_BETA: f64 = 0.5;
/// Initial window in packets.
const INIT_CWND: f64 = 10.0;

/// Effective default sender buffer in bytes (Linux `tcp_wmem` default
/// autotuning ceiling as observed end-to-end; Fig 8 "1-TCP Default").
pub const WMEM_DEFAULT_BYTES: f64 = 1.0e6;

/// Tuned sender buffer (Fig 8 "1-TCP Tuned": `tcp_wmem` raised so the
/// buffer is never the bottleneck at these BDPs).
pub const WMEM_TUNED_BYTES: f64 = 16.0e6;

/// Configuration of a TCP simulation run.
#[derive(Debug, Clone, Copy)]
pub struct TcpSimConfig {
    /// Number of parallel connections.
    pub connections: usize,
    /// Congestion control.
    pub algo: CcAlgo,
    /// Sender buffer cap in bytes (per connection).
    pub wmem_bytes: f64,
    /// Simulation step in seconds.
    pub dt_s: f64,
}

impl TcpSimConfig {
    /// A single default-buffer CUBIC connection.
    pub fn single_default() -> Self {
        TcpSimConfig {
            connections: 1,
            algo: CcAlgo::Cubic,
            wmem_bytes: WMEM_DEFAULT_BYTES,
            dt_s: 0.01,
        }
    }

    /// A single tuned-buffer CUBIC connection.
    pub fn single_tuned() -> Self {
        TcpSimConfig {
            wmem_bytes: WMEM_TUNED_BYTES,
            ..Self::single_default()
        }
    }

    /// `n` tuned-buffer CUBIC connections (Speedtest multi-connection mode
    /// uses 15–25; Fig 8's "TCP-8" uses 8).
    pub fn multi(n: usize) -> Self {
        TcpSimConfig {
            connections: n,
            ..Self::single_tuned()
        }
    }
}

/// CUBIC's K (RFC 8312 eq. 2): seconds from a reduction until the window
/// regrows to `w_max_pkts`.
fn cubic_k(w_max_pkts: f64) -> f64 {
    (w_max_pkts * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt()
}

/// One flow's congestion state.
#[derive(Debug, Clone)]
struct Flow {
    cwnd_pkts: f64,
    ssthresh_pkts: f64,
    in_slow_start: bool,
    /// CUBIC: window before the last reduction. Written only through
    /// [`Flow::set_w_max`], which keeps `k_s` in step.
    w_max_pkts: f64,
    /// CUBIC: `cubic_k(w_max_pkts)`, memoized because it changes only when
    /// `w_max_pkts` does, not on every step.
    k_s: f64,
    /// CUBIC: seconds since the last loss (epoch time).
    epoch_s: f64,
}

impl Flow {
    fn new() -> Self {
        Flow {
            cwnd_pkts: INIT_CWND,
            ssthresh_pkts: f64::INFINITY,
            in_slow_start: true,
            w_max_pkts: INIT_CWND,
            k_s: cubic_k(INIT_CWND),
            epoch_s: 0.0,
        }
    }

    /// Sets the saturation point and recomputes K from it.
    fn set_w_max(&mut self, w_max_pkts: f64) {
        self.w_max_pkts = w_max_pkts;
        self.k_s = cubic_k(w_max_pkts);
    }

    /// Advances the window by `dt` seconds without loss.
    fn grow(&mut self, dt_s: f64, rtt_s: f64, algo: CcAlgo) {
        if self.in_slow_start {
            // Double per RTT.
            self.cwnd_pkts *= 2f64.powf(dt_s / rtt_s);
            if self.cwnd_pkts >= self.ssthresh_pkts {
                self.cwnd_pkts = self.ssthresh_pkts;
                self.in_slow_start = false;
                self.set_w_max(self.cwnd_pkts);
                self.epoch_s = 0.0;
            }
            return;
        }
        self.epoch_s += dt_s;
        match algo {
            CcAlgo::Bbr | CcAlgo::Nada => {
                unreachable!("rate-based controllers run on the rate engine")
            }
            CcAlgo::Cubic => {
                let w_cubic = CUBIC_C * (self.epoch_s - self.k_s).powi(3) + self.w_max_pkts;
                // TCP-friendly region (RFC 8312 §4.2).
                let w_tcp = self.w_max_pkts * CUBIC_BETA
                    + 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA) * (self.epoch_s / rtt_s);
                self.cwnd_pkts = w_cubic.max(w_tcp).max(1.0);
            }
            CcAlgo::Reno => {
                // One packet per RTT.
                self.cwnd_pkts += dt_s / rtt_s;
            }
        }
    }

    /// Applies one retransmission timeout (RFC 6298 shape): collapse to one
    /// packet and restart slow start toward half the pre-RTO window.
    fn on_rto(&mut self) {
        self.ssthresh_pkts = (self.cwnd_pkts / 2.0).max(2.0);
        self.cwnd_pkts = 1.0;
        self.in_slow_start = true;
        self.set_w_max(self.ssthresh_pkts);
        self.epoch_s = 0.0;
    }

    /// Applies one loss event.
    fn on_loss(&mut self, algo: CcAlgo) {
        let beta = match algo {
            CcAlgo::Cubic => CUBIC_BETA,
            CcAlgo::Reno => RENO_BETA,
            CcAlgo::Bbr | CcAlgo::Nada => {
                unreachable!("rate-based controllers run on the rate engine")
            }
        };
        // RFC 8312 §4.6 fast convergence: a loss arriving while still
        // below the previous saturation point means another flow is taking
        // bandwidth — release the epoch target further so the flows
        // converge instead of chasing a stale w_max.
        let w_max = if algo == CcAlgo::Cubic && self.cwnd_pkts < self.w_max_pkts {
            self.cwnd_pkts * (1.0 + beta) / 2.0
        } else {
            self.cwnd_pkts
        };
        self.set_w_max(w_max);
        self.cwnd_pkts = (self.cwnd_pkts * beta).max(1.0);
        self.ssthresh_pkts = self.cwnd_pkts;
        self.in_slow_start = false;
        self.epoch_s = 0.0;
    }

    /// Hard-caps the window at the send buffer's `cwnd_cap` packets. A flow
    /// that hits the ceiling from below treats it as its new saturation
    /// point.
    fn clamp_to_cap(&mut self, cwnd_cap: f64) {
        if self.cwnd_pkts >= cwnd_cap {
            self.cwnd_pkts = cwnd_cap;
            if self.in_slow_start || self.w_max_pkts < cwnd_cap {
                self.in_slow_start = false;
                self.set_w_max(cwnd_cap);
                self.epoch_s = 0.0;
            }
        }
    }
}

/// Result of a TCP simulation run.
#[derive(Debug, Clone)]
pub struct TcpRunResult {
    /// Mean goodput over the measurement window, Mbps.
    pub mean_mbps: f64,
    /// Total loss events across flows.
    pub loss_events: u64,
    /// Per-second goodput samples, Mbps.
    pub per_second_mbps: Vec<f64>,
}

/// A multi-flow TCP simulation over one path.
pub struct TcpSim {
    path: PathModel,
    cfg: TcpSimConfig,
    flows: Vec<Flow>,
    rng: RngStream,
}

impl TcpSim {
    /// Creates a simulation of `cfg.connections` flows over `path`.
    ///
    /// # Panics
    /// Panics if the configuration has zero connections or a non-positive
    /// step.
    pub fn new(path: PathModel, cfg: TcpSimConfig, rng: RngStream) -> Self {
        assert!(cfg.connections > 0, "need at least one connection");
        assert!(cfg.dt_s > 0.0, "step must be positive");
        TcpSim {
            path,
            cfg,
            flows: (0..cfg.connections).map(|_| Flow::new()).collect(),
            rng,
        }
    }

    /// Instantaneous aggregate goodput given current windows, in Mbps, and
    /// the per-flow demands (window- and buffer-limited) at effective RTT
    /// `rtt_s`.
    fn demands_mbps(&self, rtt_s: f64) -> Vec<f64> {
        let buf_limit = self.cfg.wmem_bytes * 8.0 / 1e6 / rtt_s;
        self.flows
            .iter()
            .map(|f| {
                let wnd_mbps = f.cwnd_pkts * self.path.mss_bytes * 8.0 / 1e6 / rtt_s;
                wnd_mbps.min(buf_limit)
            })
            .collect()
    }

    /// Runs for `duration_s`, measuring goodput over the whole run.
    ///
    /// Under an ambient fault plane, per-step effective path parameters
    /// honour three fault kinds at the step's local time: loss bursts
    /// multiply the per-packet loss rate by the window's magnitude, RTT
    /// spikes multiply the path RTT by `1 + magnitude`, and stall windows
    /// freeze delivery while the retransmission timer backs off,
    /// collapsing every window to one packet and eventually resetting the
    /// connections (see `step::StallTimer`). With no plane installed the
    /// run is bit-identical to a plane-free build.
    pub fn run(&mut self, duration_s: f64) -> TcpRunResult {
        if self.cfg.algo.is_rate_based() {
            // BBR and NADA pace a rate against the explicit bottleneck
            // queue; the fluid window engine below stays byte-identical
            // for CUBIC/Reno.
            return crate::rate::run_rate(&self.path, &self.cfg, &mut self.rng, duration_s);
        }
        let base_rtt_s = self.path.rtt_ms / 1e3;
        let dt = self.cfg.dt_s;
        let mut t = 0.0;
        let mut loss_events = 0u64;
        let mut ledger = Ledger::new();
        let mut stall = StallTimer::new(base_rtt_s, "", "windows");

        telemetry::clock(0.0);
        let _run_span = telemetry::span("transport/run");
        while t < duration_s {
            let fault = step::begin(t);
            if fault.stalled {
                stall.stalled(
                    t,
                    &mut self.flows,
                    |flows| flows.iter_mut().for_each(Flow::on_rto),
                    |flows| flows.fill_with(Flow::new),
                );
                t += dt;
                ledger.tick(t);
                continue;
            }
            stall.clear();
            let rtt_s = base_rtt_s * fault.rtt_mult;
            let loss_per_pkt = self.path.loss_per_pkt * fault.loss_mult;
            let demands = self.demands_mbps(rtt_s);
            let total: f64 = demands.iter().sum();
            // Fair sharing at the bottleneck: proportional scale-down.
            let scale = if total > self.path.capacity_mbps {
                self.path.capacity_mbps / total
            } else {
                1.0
            };
            let over = total > self.path.capacity_mbps * 1.02;
            // The sender can never have more unacked data than its send
            // buffer holds: cwnd is hard-capped at wmem/MSS.
            let cwnd_cap = self.cfg.wmem_bytes / self.path.mss_bytes;
            for (i, f) in self.flows.iter_mut().enumerate() {
                let thr = demands[i] * scale;
                ledger.add(thr * dt);
                // Random path loss: Poisson over delivered packets.
                let pkts = self.path.packets_per_sec(thr) * dt;
                let p_loss = 1.0 - (-pkts * loss_per_pkt).exp();
                // Bottleneck overflow: flows pushing beyond their share get
                // cut with a rate proportional to the overload.
                let p_overflow = if over {
                    (1.0 - scale).min(0.5) * dt * 8.0
                } else {
                    0.0
                };
                if self.rng.chance(step_loss_probability(p_loss, p_overflow)) {
                    telemetry::count("transport/loss", 1);
                    telemetry::observe("transport/cwnd_pkts", f.cwnd_pkts);
                    telemetry::series("transport/cwnd_pkts_t", t, f.cwnd_pkts);
                    f.on_loss(self.cfg.algo);
                    loss_events += 1;
                    // Under a loss-burst window the repair is a fast
                    // retransmit (the decrease above) — worth surfacing as a
                    // recovery action; recording changes no simulation state.
                    if fault.loss_burst {
                        recovery::record(RecoveryKind::TcpFastRetransmit, t, rtt_s, 0.0, || {
                            format!("flow {i}: multiplicative decrease")
                        });
                    }
                } else {
                    f.grow(dt, rtt_s, self.cfg.algo);
                }
                f.clamp_to_cap(cwnd_cap);
                guard::in_range(
                    "transport",
                    "cwnd-bounds",
                    f.cwnd_pkts,
                    1.0,
                    cwnd_cap,
                    1e-9,
                    t,
                );
            }
            t += dt;
            ledger.tick(t);
        }

        let (mean_mbps, per_second_mbps) = ledger.finish(t, duration_s);
        telemetry::gauge("transport/mean_mbps", mean_mbps);
        TcpRunResult {
            mean_mbps,
            loss_events,
            per_second_mbps,
        }
    }
}

/// The per-step loss probability fed to the RNG: random path loss plus
/// bottleneck-overflow loss, clamped into `[0, 1]`. The two components
/// are probabilities of distinct events; their sum can exceed 1 at large
/// steps (`p_overflow` scales with `dt`), which would silently degenerate
/// into loss-every-step.
pub(crate) fn step_loss_probability(p_loss: f64, p_overflow: f64) -> f64 {
    (p_loss + p_overflow).clamp(0.0, 1.0)
}

/// Convenience: run one Speedtest-style 15 s transfer and report the mean
/// goodput of the steady half (skipping slow start's first seconds).
pub fn measure_throughput(path: PathModel, cfg: TcpSimConfig, seed: u64) -> f64 {
    let mut sim = TcpSim::new(path, cfg, RngStream::new(seed, "tcp"));
    let res = sim.run(15.0);
    // Speedtest reports exclude the ramp; average seconds 5..15.
    let steady: Vec<f64> = res.per_second_mbps.iter().skip(5).copied().collect();
    if steady.is_empty() {
        res.mean_mbps
    } else {
        steady.iter().sum::<f64>() / steady.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(rtt_ms: f64, capacity: f64, dist_km: f64) -> PathModel {
        PathModel {
            rtt_ms,
            loss_per_pkt: crate::path::BASE_LOSS + crate::path::LOSS_PER_KM * dist_km,
            capacity_mbps: capacity,
            mss_bytes: 1460.0,
            queue_bdp: crate::path::DEFAULT_QUEUE_BDP,
        }
    }

    #[test]
    fn multi_connection_saturates_near_and_far() {
        for (rtt, km) in [(6.0, 3.0), (55.0, 2500.0)] {
            let thr = measure_throughput(path(rtt, 3400.0, km), TcpSimConfig::multi(20), 1);
            assert!(
                thr > 0.85 * 3400.0,
                "20 conns must saturate at rtt={rtt}: {thr}"
            );
        }
    }

    #[test]
    fn single_connection_decays_with_distance() {
        let near = measure_throughput(path(6.0, 3400.0, 3.0), TcpSimConfig::single_tuned(), 2);
        let far = measure_throughput(path(55.0, 3400.0, 2500.0), TcpSimConfig::single_tuned(), 2);
        assert!(near > 2.0 * far, "near {near} vs far {far} (Fig 3 shape)");
        assert!(
            near > 2000.0,
            "near-server single conn approaches capacity: {near}"
        );
    }

    #[test]
    fn default_wmem_pins_throughput() {
        // Azure nearest region: 374 km ≈ 14 ms RTT. Default buffer must pin
        // a single flow near 1 MB × 8 / 14 ms ≈ 570 Mbps (Fig 8 ≤ 500 Mbps
        // at the farther regions).
        let thr = measure_throughput(path(14.0, 2200.0, 374.0), TcpSimConfig::single_default(), 3);
        assert!((300.0..650.0).contains(&thr), "default 1-TCP: {thr}");
        let far = measure_throughput(
            path(40.0, 2200.0, 2044.0),
            TcpSimConfig::single_default(),
            3,
        );
        assert!(far < 500.0, "far default 1-TCP ≤ 500 Mbps: {far}");
    }

    #[test]
    fn tuned_wmem_multiplies_default() {
        // Fig 8: tuning tcp_wmem lifts single-conn throughput 2.1–3×.
        for (rtt, km, seed) in [(14.0, 374.0, 4), (21.0, 1444.0, 5)] {
            let default =
                measure_throughput(path(rtt, 2200.0, km), TcpSimConfig::single_default(), seed);
            let tuned =
                measure_throughput(path(rtt, 2200.0, km), TcpSimConfig::single_tuned(), seed);
            let ratio = tuned / default;
            assert!(
                (1.8..4.5).contains(&ratio),
                "tuned/default at rtt={rtt}: {ratio} ({tuned}/{default})"
            );
        }
    }

    #[test]
    fn tuned_single_still_trails_capacity() {
        // Fig 8: tuned 1-TCP falls short of UDP by a large margin on
        // distant paths.
        let thr = measure_throughput(path(30.0, 2200.0, 1539.0), TcpSimConfig::single_tuned(), 6);
        assert!(thr < 0.85 * 2200.0, "tuned single conn gap vs UDP: {thr}");
    }

    #[test]
    fn cubic_beats_reno_on_big_bdp() {
        let p = path(40.0, 2200.0, 1500.0);
        let cubic = measure_throughput(p, TcpSimConfig::single_tuned(), 7);
        let reno = measure_throughput(
            p,
            TcpSimConfig {
                algo: CcAlgo::Reno,
                ..TcpSimConfig::single_tuned()
            },
            7,
        );
        assert!(cubic > reno, "cubic {cubic} vs reno {reno}");
    }

    #[test]
    fn loss_events_stay_plausible() {
        let mut sim = TcpSim::new(
            path(20.0, 2000.0, 1000.0),
            TcpSimConfig::single_tuned(),
            RngStream::new(8, "tcp"),
        );
        let res = sim.run(15.0);
        assert!(res.loss_events > 0, "some losses over 15 s at 2 Gbps");
        assert!(
            res.loss_events < 500,
            "but not a storm: {}",
            res.loss_events
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let p = path(20.0, 2000.0, 1000.0);
        let a = measure_throughput(p, TcpSimConfig::multi(8), 9);
        let b = measure_throughput(p, TcpSimConfig::multi(8), 9);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one connection")]
    fn rejects_zero_connections() {
        let cfg = TcpSimConfig {
            connections: 0,
            ..TcpSimConfig::single_default()
        };
        TcpSim::new(path(10.0, 100.0, 10.0), cfg, RngStream::new(1, "t"));
    }

    #[test]
    fn fast_convergence_releases_wmax_below_previous_peak() {
        // RFC 8312 §4.6: a loss arriving while cwnd is still below the
        // previous w_max must set the new w_max to cwnd·(1+β)/2, not cwnd.
        // (Failed before the fix: w_max was always set to cwnd.)
        let mut flow = Flow::new();
        flow.in_slow_start = false;
        flow.set_w_max(100.0);
        flow.cwnd_pkts = 60.0;
        flow.on_loss(CcAlgo::Cubic);
        let expected = 60.0 * (1.0 + CUBIC_BETA) / 2.0;
        assert!(
            (flow.w_max_pkts - expected).abs() < 1e-9,
            "fast convergence: w_max {} != {expected}",
            flow.w_max_pkts
        );
        // Above the previous peak the classic update still applies.
        let mut flow = Flow::new();
        flow.in_slow_start = false;
        flow.set_w_max(50.0);
        flow.cwnd_pkts = 80.0;
        flow.on_loss(CcAlgo::Cubic);
        assert_eq!(flow.w_max_pkts, 80.0);
        // Reno keeps its memoryless halving either way.
        let mut flow = Flow::new();
        flow.in_slow_start = false;
        flow.set_w_max(100.0);
        flow.cwnd_pkts = 60.0;
        flow.on_loss(CcAlgo::Reno);
        assert_eq!(flow.w_max_pkts, 60.0);
    }

    #[test]
    fn memoized_k_matches_a_fresh_cbrt_after_every_w_max_write() {
        // `grow` reads the stored K instead of recomputing the cube root,
        // so artifacts stay byte-identical only if every write of w_max
        // refreshes K. Drive flows through a seeded random mix of steps
        // that reaches each of the five writes.
        for algo in [CcAlgo::Cubic, CcAlgo::Reno] {
            let mut rng = RngStream::new(2021, "k-memo");
            let mut flow = Flow::new();
            // Writes reached: slow-start exit, loss below the previous
            // w_max (CUBIC's fast convergence), loss at or above it, RTO,
            // cap clamp.
            let mut reached = [0u32; 5];
            for step in 0..20_000 {
                let was_slow = flow.in_slow_start;
                let w_max = flow.w_max_pkts;
                match rng.gen_range(0..10u32) {
                    0 => {
                        let below = flow.cwnd_pkts < w_max;
                        flow.on_loss(algo);
                        reached[if below { 1 } else { 2 }] += 1;
                    }
                    1 if rng.chance(0.1) => {
                        flow.on_rto();
                        reached[3] += 1;
                    }
                    2 => {
                        // Caps above and below the current window.
                        let cap = flow.cwnd_pkts * rng.gen_range(0.5..1.5);
                        flow.clamp_to_cap(cap);
                        if flow.w_max_pkts != w_max || was_slow != flow.in_slow_start {
                            reached[4] += 1;
                        }
                    }
                    _ => {
                        flow.grow(rng.gen_range(0.001..0.05), rng.gen_range(0.005..0.1), algo);
                        if was_slow && !flow.in_slow_start {
                            reached[0] += 1;
                        }
                    }
                }
                assert_eq!(
                    flow.k_s.to_bits(),
                    cubic_k(flow.w_max_pkts).to_bits(),
                    "{} step {step}: stale K for w_max {}",
                    algo.as_str(),
                    flow.w_max_pkts
                );
            }
            assert!(
                reached.iter().all(|&n| n > 0),
                "{}: some w_max write never ran: {reached:?}",
                algo.as_str()
            );
        }
    }

    #[test]
    fn step_loss_probability_is_clamped_to_unit_interval() {
        // A large dt can push p_loss + p_overflow past 1 (the overflow
        // term scales with dt); the combined probability must stay a
        // probability. (Failed before the fix: the raw sum was 2.9.)
        assert_eq!(step_loss_probability(0.9, 2.0), 1.0);
        assert_eq!(step_loss_probability(0.0, 0.0), 0.0);
        // In-range sums pass through untouched (bit-identical artifacts).
        let p = step_loss_probability(1e-3, 2e-2);
        assert_eq!(p, 1e-3 + 2e-2);
    }

    #[test]
    fn partial_final_second_is_flushed() {
        // A 3.5 s run must yield 4 per-second samples, the last one a
        // rate normalized over its 0.5 s window. (Failed before the fix:
        // the tail accumulator was dropped, so only 3 samples came back.)
        let mut sim = TcpSim::new(
            path(20.0, 1000.0, 500.0),
            TcpSimConfig::single_tuned(),
            RngStream::new(11, "tcp"),
        );
        let res = sim.run(3.5);
        assert_eq!(
            res.per_second_mbps.len(),
            4,
            "tail second missing: {:?}",
            res.per_second_mbps
        );
        let tail = res.per_second_mbps[3];
        let third = res.per_second_mbps[2];
        assert!(
            tail > 0.4 * third && tail < 2.5 * third,
            "tail sample must be a normalized rate, not a half-window sum: \
             tail {tail} vs previous {third}"
        );
        // Integer durations keep their exact shape (no spurious sample).
        let mut sim = TcpSim::new(
            path(20.0, 1000.0, 500.0),
            TcpSimConfig::single_tuned(),
            RngStream::new(11, "tcp"),
        );
        assert_eq!(sim.run(3.0).per_second_mbps.len(), 3);
    }

    #[test]
    fn rate_based_algos_run_on_the_rate_engine() {
        for algo in [CcAlgo::Bbr, CcAlgo::Nada] {
            let cfg = TcpSimConfig {
                algo,
                ..TcpSimConfig::single_tuned()
            };
            let p = path(20.0, 2000.0, 800.0);
            let a = measure_throughput(p, cfg, 12);
            let b = measure_throughput(p, cfg, 12);
            assert_eq!(a, b, "{} must be deterministic under seed", algo.as_str());
            assert!(
                a > 100.0 && a <= 2000.0,
                "{} goodput plausible: {a}",
                algo.as_str()
            );
        }
    }

    #[test]
    fn cc_algo_names_round_trip() {
        for algo in [CcAlgo::Cubic, CcAlgo::Reno, CcAlgo::Bbr, CcAlgo::Nada] {
            assert_eq!(CcAlgo::parse(algo.as_str()), Some(algo));
        }
        assert_eq!(CcAlgo::parse("vegas"), None);
        assert!(CcAlgo::Bbr.is_rate_based() && CcAlgo::Nada.is_rate_based());
        assert!(!CcAlgo::Cubic.is_rate_based() && !CcAlgo::Reno.is_rate_based());
    }
}
