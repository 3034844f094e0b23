//! End-to-end path models: UE → radio → carrier core → Internet → server.
//!
//! A [`PathModel`] is the transport layer's view of one `<UE, radio link,
//! server>` combination: base RTT, random loss, and the bottleneck capacity.
//!
//! Calibration notes (§3.2):
//!
//! * RTT = radio access latency (band-dependent: ≈5 ms mmWave, ≈12 ms
//!   low-band, ≈19 ms LTE one-way-pair) + fiber propagation with a routing
//!   inflation factor + ~1 ms server turnaround. The minimum mmWave RTT to
//!   a ~3 km server comes out ≈6 ms, doubling by ≈320 km, matching Fig 2.
//! * Loss grows with path length (more hops, more shallow buffers): the
//!   paper measured <1% even at 3 Gbps; we use a per-packet probability of
//!   `2·10⁻⁷ + 1.2·10⁻⁷ per 100 km`.

use fiveg_geo::servers::ServerInfo;
use fiveg_radio::band::Direction;
use fiveg_radio::link::{link_capacity_mbps, LinkState};
use fiveg_radio::ue::UeModel;
use fiveg_simcore::units::fiber_rtt_ms;

/// Routing inflation: real Internet paths are ~70% longer than great
/// circles.
pub const ROUTE_INFLATION: f64 = 1.7;

/// Server processing + local-loop overhead added to every RTT, in ms.
pub const SERVER_TURNAROUND_MS: f64 = 1.0;

/// Base per-packet loss probability on a minimal path.
pub const BASE_LOSS: f64 = 2.0e-7;

/// Additional per-packet loss probability per kilometre of path.
pub const LOSS_PER_KM: f64 = 1.2e-9;

/// Default bottleneck buffer depth as a multiple of the path BDP — one
/// BDP of buffering, the classic router-sizing rule. The rate-based
/// controllers (BBR, NADA) turn this into a queueing-delay term; the
/// fluid window engine keeps modelling the same buffer as overflow loss.
pub const DEFAULT_QUEUE_BDP: f64 = 1.0;

/// The transport-layer view of one UE↔server path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathModel {
    /// Base round-trip time in milliseconds (no queueing).
    pub rtt_ms: f64,
    /// Per-packet random loss probability.
    pub loss_per_pkt: f64,
    /// Bottleneck capacity in Mbps (radio link vs server cap).
    pub capacity_mbps: f64,
    /// Maximum segment size in bytes.
    pub mss_bytes: f64,
    /// Bottleneck buffer depth as a multiple of the BDP (the queueing
    /// model: a backlog of one full buffer adds `queue_bdp × rtt` of
    /// queueing delay).
    pub queue_bdp: f64,
}

impl PathModel {
    /// Builds the path for `ue` on `link` testing against `server` in
    /// direction `dir`. `ue_location` is the UE's coordinates for distance.
    pub fn build(
        ue: UeModel,
        link: &LinkState,
        server: &ServerInfo,
        ue_location: fiveg_geo::LatLon,
        dir: Direction,
    ) -> PathModel {
        let dist_km = server.distance_km(ue_location);
        let radio_rtt = link.band.class().radio_rtt_ms();
        let rtt_ms = radio_rtt + fiber_rtt_ms(dist_km, ROUTE_INFLATION) + SERVER_TURNAROUND_MS;
        let radio_cap = link_capacity_mbps(ue, link, dir);
        let mut capacity = radio_cap * server.path_efficiency;
        if let Some(cap) = server.cap_mbps {
            capacity = capacity.min(cap);
        }
        PathModel {
            rtt_ms,
            loss_per_pkt: BASE_LOSS + LOSS_PER_KM * dist_km,
            capacity_mbps: capacity,
            mss_bytes: 1460.0,
            queue_bdp: DEFAULT_QUEUE_BDP,
        }
    }

    /// The bandwidth-delay product in packets.
    pub fn bdp_packets(&self) -> f64 {
        self.capacity_mbps * 1e6 / 8.0 * (self.rtt_ms / 1e3) / self.mss_bytes
    }

    /// Packets per second at `mbps`.
    pub fn packets_per_sec(&self, mbps: f64) -> f64 {
        mbps * 1e6 / 8.0 / self.mss_bytes
    }

    /// The bottleneck buffer size in bits: `queue_bdp` BDPs.
    pub fn buffer_bits(&self) -> f64 {
        self.queue_bdp * self.capacity_mbps * 1e6 * (self.rtt_ms / 1e3)
    }

    /// The queueing delay in seconds a backlog of `backlog_bits` adds at
    /// the bottleneck: the time the bottleneck needs to drain it.
    pub fn queueing_delay_s(&self, backlog_bits: f64) -> f64 {
        if self.capacity_mbps <= 0.0 {
            0.0
        } else {
            backlog_bits.max(0.0) / (self.capacity_mbps * 1e6)
        }
    }
}

/// One `dt_s` step of a bottleneck queue holding `backlog_bits`:
/// `inflow_bits` join the backlog, at most `capacity_mbps · dt_s` depart,
/// and a backlog past `buffer_bits` spills. Returns the departed bits and
/// the spill as a fraction of the inflow (the overflow loss signal). An
/// infinite buffer never spills.
pub(crate) fn queue_step(
    backlog_bits: &mut f64,
    inflow_bits: f64,
    capacity_mbps: f64,
    dt_s: f64,
    buffer_bits: f64,
) -> (f64, f64) {
    *backlog_bits += inflow_bits;
    let depart_bits = backlog_bits.min(capacity_mbps * 1e6 * dt_s);
    *backlog_bits -= depart_bits;
    let spill = *backlog_bits - buffer_bits;
    if spill > 0.0 && inflow_bits > 0.0 {
        *backlog_bits = buffer_bits;
        (depart_bits, (spill / inflow_bits).min(1.0))
    } else {
        (depart_bits, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_geo::servers::{carrier_pool, default_ue_location, Carrier};
    use fiveg_radio::band::Band;

    fn mmwave_link() -> LinkState {
        LinkState {
            band: Band::N261,
            rsrp_dbm: -70.0,
            sa: false,
        }
    }

    #[test]
    fn local_server_rtt_is_about_6ms() {
        let pool = carrier_pool(Carrier::Verizon);
        let local = pool
            .iter()
            .find(|s| s.name.contains("Minneapolis"))
            .expect("local");
        let p = PathModel::build(
            UeModel::GalaxyS20Ultra,
            &mmwave_link(),
            local,
            default_ue_location(),
            Direction::Downlink,
        );
        assert!(
            (5.0..8.0).contains(&p.rtt_ms),
            "Fig 1: min RTT ≈ 6 ms, got {}",
            p.rtt_ms
        );
    }

    #[test]
    fn rtt_grows_with_distance() {
        let pool = carrier_pool(Carrier::Verizon);
        let ue = default_ue_location();
        let far = pool
            .iter()
            .max_by(|a, b| {
                a.distance_km(ue)
                    .partial_cmp(&b.distance_km(ue))
                    .expect("finite")
            })
            .expect("non-empty");
        let p = PathModel::build(
            UeModel::GalaxyS20Ultra,
            &mmwave_link(),
            far,
            ue,
            Direction::Downlink,
        );
        assert!(
            (30.0..100.0).contains(&p.rtt_ms),
            "coast-to-coast RTT {} ms (Fig 2 shows up to ~100)",
            p.rtt_ms
        );
    }

    #[test]
    fn loss_stays_under_one_percent() {
        // Paper: "the packet loss rate was less than 1%" even at 3 Gbps.
        let loss = BASE_LOSS + LOSS_PER_KM * 2500.0;
        assert!(loss < 0.01);
    }

    #[test]
    fn server_cap_binds_capacity() {
        let server = ServerInfo {
            name: "capped".into(),
            host: fiveg_geo::servers::ServerHost::ThirdParty,
            loc: None,
            distance_override_km: Some(100.0),
            cap_mbps: Some(1000.0),
            path_efficiency: 1.0,
        };
        let p = PathModel::build(
            UeModel::GalaxyS20Ultra,
            &mmwave_link(),
            &server,
            default_ue_location(),
            Direction::Downlink,
        );
        assert_eq!(p.capacity_mbps, 1000.0);
    }

    #[test]
    fn bdp_scales_with_rtt() {
        let p = PathModel {
            rtt_ms: 10.0,
            loss_per_pkt: 0.0,
            capacity_mbps: 1168.0,
            mss_bytes: 1460.0,
            queue_bdp: DEFAULT_QUEUE_BDP,
        };
        // 1168 Mbps × 10 ms = 1.46 MB = 1000 packets.
        assert!((p.bdp_packets() - 1000.0).abs() < 1.0);
    }

    #[test]
    fn full_buffer_queues_for_queue_bdp_rtts() {
        let p = PathModel {
            rtt_ms: 20.0,
            loss_per_pkt: 0.0,
            capacity_mbps: 1000.0,
            mss_bytes: 1460.0,
            queue_bdp: 1.0,
        };
        // A full one-BDP buffer drains in exactly one base RTT.
        let d = p.queueing_delay_s(p.buffer_bits());
        assert!((d - 0.020).abs() < 1e-12, "{d}");
        // Queueing delay is linear in the backlog and never negative.
        assert_eq!(p.queueing_delay_s(0.0), 0.0);
        assert_eq!(p.queueing_delay_s(-5.0), 0.0);
        assert!((p.queueing_delay_s(p.buffer_bits() / 2.0) - 0.010).abs() < 1e-12);
    }
}
