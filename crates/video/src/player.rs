//! The chunk-level DASH player over a trace-driven link.
//!
//! Mirrors dash.js behaviour at the granularity that matters to ABR
//! research: sequential chunk downloads over the shaped link, a playback
//! buffer capped at 30 s (downloads pause when full), stalls when the
//! buffer drains, and the standard QoE decomposition (normalized bitrate,
//! rebuffering, smoothness).

use crate::abr::{Abr, AbrContext};
use crate::asset::VideoAsset;
use fiveg_simcore::{faults, guard, recovery, telemetry};
use fiveg_transport::shaper::BandwidthTrace;

/// Player configuration.
#[derive(Debug, Clone, Copy)]
pub struct PlayerConfig {
    /// Maximum buffer level in seconds; downloads pause above it.
    pub max_buffer_s: f64,
    /// Rebuffering penalty per second, in units of normalized bitrate
    /// (the QoE weight µ).
    pub rebuf_penalty: f64,
    /// Smoothness penalty per unit change of normalized bitrate.
    pub smooth_penalty: f64,
    /// Segment-retry trigger (fault plane only): once the buffer has
    /// drained and the stall has lasted this long, the player abandons the
    /// in-flight chunk and refetches it at the lowest track.
    pub panic_stall_s: f64,
}

impl Default for PlayerConfig {
    fn default() -> Self {
        PlayerConfig {
            max_buffer_s: 30.0,
            rebuf_penalty: 1.0,
            smooth_penalty: 1.0,
            panic_stall_s: 4.0,
        }
    }
}

/// Per-chunk download record.
#[derive(Debug, Clone, Copy)]
pub struct ChunkRecord {
    /// Chunk index.
    pub index: usize,
    /// Chosen track.
    pub track: usize,
    /// Track bitrate, Mbps.
    pub bitrate_mbps: f64,
    /// Wall-clock start of the download, s.
    pub start_s: f64,
    /// Download duration, s.
    pub download_s: f64,
    /// Measured delivery throughput, Mbps.
    pub tput_mbps: f64,
    /// Stall time incurred while this chunk downloaded, s.
    pub stall_s: f64,
}

/// Outcome of one streaming session.
#[derive(Debug, Clone, Default)]
pub struct SessionResult {
    /// Mean normalized bitrate across chunks (Fig 17's y-axis).
    pub avg_norm_bitrate: f64,
    /// Total stall (rebuffering) time, s.
    pub stall_time_s: f64,
    /// Total playback time, s.
    pub play_time_s: f64,
    /// Startup delay (first-chunk download), s — not counted as stall.
    pub startup_s: f64,
    /// Number of track switches.
    pub switches: usize,
    /// QoE reward: Σ q − µ·stall − Σ|Δq| with q the normalized bitrate.
    pub qoe: f64,
    /// Per-chunk records.
    pub chunks: Vec<ChunkRecord>,
}

impl SessionResult {
    /// Stall time as a percentage of playback time (Fig 17's x-axis).
    pub fn stall_pct(&self) -> f64 {
        if self.play_time_s <= 0.0 {
            return 0.0;
        }
        100.0 * self.stall_time_s / self.play_time_s
    }
}

/// True when a fault window that can disturb the delivery path covers
/// trace-time `t` — the trigger condition for the panic recoveries. Keying
/// the *behaviour* on fault windows (not merely an installed plane) keeps
/// a windowless scenario like `quiet` bit-identical to no plane at all:
/// natural stalls never trip the recovery paths.
pub(crate) fn link_faulted(t: f64) -> bool {
    use fiveg_simcore::faults::FaultKind;
    faults::is_active(FaultKind::StallWindow, t)
        || faults::is_active(FaultKind::BlockageStorm, t)
        || faults::is_active(FaultKind::LossBurst, t)
        || faults::is_active(FaultKind::RttSpike, t)
}

/// Seconds to fetch `bytes` over `trace` from wall time `t`; a trace that
/// never delivers counts as a 10⁶ s download.
pub(crate) fn fetch_s(trace: &BandwidthTrace, bytes: f64, t: f64) -> f64 {
    Some(trace.transfer_time_s(bytes, t))
        .filter(|dl| dl.is_finite())
        .unwrap_or(1e6)
}

/// One DASH session's bookkeeping, the same for every player: the ABR
/// context, buffer drain and refill with the full-buffer wait, startup and
/// stall booking, measured throughput, track switches, the QoE terms, the
/// chunk records and the video guards. A player only decides what to
/// fetch over which link, and books each download here.
pub(crate) struct Session<'a> {
    asset: &'a VideoAsset,
    cfg: &'a PlayerConfig,
    /// Wall clock, s: when the next download starts.
    pub(crate) wall: f64,
    /// Playback buffer, s.
    pub(crate) buffer_s: f64,
    past_tput: Vec<f64>,
    /// Each idle stretch's stall, keyed by the chunks booked before it.
    idle_stalls: Vec<(usize, f64)>,
    /// The result so far; [`Session::finish`] adds the mean bitrate.
    res: SessionResult,
}

/// One booked chunk, as its player sees it.
pub(crate) struct Booked {
    /// The chunk's record.
    pub(crate) rec: ChunkRecord,
    /// Wall clock when the download ended, s.
    pub(crate) end_s: f64,
    /// Full-buffer wait after the download, s (0 when the buffer had room).
    pub(crate) wait_s: f64,
    /// True when the chunk changed track.
    pub(crate) switched: bool,
}

impl<'a> Session<'a> {
    /// A session with an empty buffer, starting at wall time `start_s`.
    pub(crate) fn new(asset: &'a VideoAsset, cfg: &'a PlayerConfig, start_s: f64) -> Self {
        Session {
            asset,
            cfg,
            wall: start_s,
            buffer_s: 0.0,
            past_tput: Vec::new(),
            idle_stalls: Vec::new(),
            res: SessionResult {
                play_time_s: asset.duration_s,
                ..SessionResult::default()
            },
        }
    }

    /// The track `abr` picks for the next chunk, clamped to the ladder.
    pub(crate) fn choose(&self, abr: &mut dyn Abr) -> usize {
        let ctx = AbrContext {
            asset: self.asset,
            buffer_s: self.buffer_s,
            last_track: self.res.chunks.last().map_or(0, |c| c.track),
            past_tput_mbps: &self.past_tput,
            chunks_remaining: self.asset.n_chunks() - self.res.chunks.len(),
            wall_t_s: self.wall,
        };
        abr.choose(&ctx).min(self.asset.n_tracks() - 1)
    }

    /// `d` seconds of dead time with no download (an interface switch):
    /// playback drains the buffer and stalls for whatever it cannot cover.
    pub(crate) fn idle(&mut self, d: f64) {
        let stall = (d - self.buffer_s).max(0.0);
        self.res.stall_time_s += stall;
        self.idle_stalls.push((self.res.chunks.len(), stall));
        self.buffer_s = (self.buffer_s - d).max(0.0);
        self.wall += d;
    }

    /// Books the next chunk: `bytes` of `track`, downloaded in `dl`
    /// seconds from the current wall clock.
    pub(crate) fn book(&mut self, track: usize, bytes: f64, dl: f64) -> Booked {
        let res = &mut self.res;
        let index = res.chunks.len();
        let start_s = self.wall;
        // The buffer drains while downloading; the first chunk's wait is
        // startup, not a stall.
        let stall = if index == 0 {
            res.startup_s = dl;
            0.0
        } else {
            (dl - self.buffer_s).max(0.0)
        };
        res.stall_time_s += stall;
        self.buffer_s = (self.buffer_s - dl).max(0.0) + self.asset.chunk_len_s;
        self.wall += dl;
        let end_s = self.wall;

        // Full buffer: wait before the next request.
        let wait_s = (self.buffer_s - self.cfg.max_buffer_s).max(0.0);
        self.wall += wait_s;
        self.buffer_s = self.buffer_s.min(self.cfg.max_buffer_s);
        // The playback buffer lives in [0, cap] between requests; leaving
        // that range means the drain/refill arithmetic went wrong.
        guard::in_range(
            "video",
            "buffer-bounds",
            self.buffer_s,
            0.0,
            self.cfg.max_buffer_s,
            1e-9,
            self.wall,
        );

        let tput = if dl > 0.0 {
            bytes * 8.0 / 1e6 / dl
        } else {
            f64::INFINITY
        };
        self.past_tput.push(tput);
        let prev = res.chunks.last().copied();
        let switched = prev.is_some_and(|p| p.track != track);
        res.switches += usize::from(switched);

        let q = self.asset.norm_bitrate(track);
        res.qoe += q;
        res.qoe -= self.cfg.rebuf_penalty * stall;
        if let Some(p) = prev {
            res.qoe -= self.cfg.smooth_penalty * (q - self.asset.norm_bitrate(p.track)).abs();
        }
        // Chunk download windows are sequential: this chunk starts at or
        // after the previous one finished.
        let prev_end = prev.map_or(start_s, |p| p.start_s + p.download_s);
        guard::check(
            "video",
            "chunk-order",
            start_s >= prev_end - 1e-9,
            self.wall,
            || format!("chunk {index} starts at {start_s} before previous end {prev_end}"),
        );
        let rec = ChunkRecord {
            index,
            track,
            bitrate_mbps: self.asset.bitrates_mbps[track],
            start_s,
            download_s: dl,
            tput_mbps: tput,
            stall_s: stall,
        };
        res.chunks.push(rec);
        Booked {
            rec,
            end_s,
            wait_s,
            switched,
        }
    }

    /// Closes the session: the mean normalized bitrate, and the guard that
    /// the chunk records and idle stretches account for every stall.
    pub(crate) fn finish(self) -> SessionResult {
        let mut res = self.res;
        res.avg_norm_bitrate = res
            .chunks
            .iter()
            .map(|c| c.bitrate_mbps / self.asset.top_bitrate())
            .sum::<f64>()
            / res.chunks.len().max(1) as f64;

        if guard::enabled() {
            // Conservation: the per-chunk stall records and the idle
            // stretches between them partition the session's stall total
            // exactly (same additions, same order).
            let mut idle = self.idle_stalls.iter().peekable();
            let mut ledger = 0.0;
            for c in &res.chunks {
                while let Some((_, s)) = idle.next_if(|(before, _)| *before <= c.index) {
                    ledger += s;
                }
                ledger += c.stall_s;
            }
            for (_, s) in idle {
                ledger += s;
            }
            guard::check(
                "video",
                "stall-conserved",
                (ledger - res.stall_time_s).abs() <= 1e-9,
                self.wall,
                || format!("stall ledger {ledger}s vs total {}s", res.stall_time_s),
            );
        }
        res
    }
}

/// Streams `asset` over `trace` under `abr`, starting the trace at
/// `trace_offset_s`.
pub fn stream(
    asset: &VideoAsset,
    trace: &BandwidthTrace,
    abr: &mut dyn Abr,
    cfg: &PlayerConfig,
    trace_offset_s: f64,
) -> SessionResult {
    let mut s = Session::new(asset, cfg, trace_offset_s);
    telemetry::clock(trace_offset_s);
    let _session_span = telemetry::span("video/session");
    for index in 0..asset.n_chunks() {
        let mut track = s.choose(abr);
        let mut bytes = asset.chunk_bytes(track);
        let mut dl = fetch_s(trace, bytes, s.wall);

        // Segment retry with bitrate panic-down (fault plane only): when a
        // mid-session chunk would stall playback past the panic threshold,
        // dash.js-style players abandon the request and refetch the segment
        // at the lowest track. The retry starts where the abandon happened,
        // so the trace is consulted at the same deterministic times.
        if faults::enabled() && index > 0 && track > 0 {
            let abandon_after = s.buffer_s + cfg.panic_stall_s;
            let abandon_at = s.wall + abandon_after;
            if dl > abandon_after && (link_faulted(s.wall) || link_faulted(abandon_at)) {
                let total_dl = abandon_after + fetch_s(trace, asset.chunk_bytes(0), abandon_at);
                let stall_after = (total_dl - s.buffer_s).max(0.0);
                recovery::record(
                    recovery::RecoveryKind::SegmentRetry,
                    abandon_at,
                    cfg.panic_stall_s,
                    stall_after,
                    || format!("chunk {index}: abandoned track {track}"),
                );
                recovery::record(
                    recovery::RecoveryKind::BitratePanic,
                    abandon_at,
                    0.0,
                    0.0,
                    || format!("chunk {index}: track {track} -> 0"),
                );
                track = 0;
                bytes = asset.chunk_bytes(0);
                dl = total_dl;
            }
        }

        let b = s.book(track, bytes, dl);
        if b.rec.stall_s > 0.0 {
            telemetry::count("video/stall", 1);
            telemetry::observe("video/stall_s", b.rec.stall_s);
        }
        telemetry::clock(b.end_s);
        telemetry::span_closed("video/segment", b.end_s - dl, b.end_s);
        if b.switched {
            telemetry::count("video/bitrate_switch", 1);
        }
    }
    s.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abr::fixed_track_abr;

    fn constant_trace(mbps: f64) -> BandwidthTrace {
        BandwidthTrace::new(vec![mbps; 600], 1.0)
    }

    #[test]
    fn ample_bandwidth_never_stalls() {
        let asset = VideoAsset::five_g_default();
        let trace = constant_trace(1000.0);
        let mut abr = fixed_track_abr(5);
        let r = stream(&asset, &trace, &mut abr, &PlayerConfig::default(), 0.0);
        assert_eq!(r.stall_time_s, 0.0);
        assert_eq!(r.avg_norm_bitrate, 1.0);
        assert_eq!(r.switches, 0);
    }

    #[test]
    fn starving_bandwidth_stalls() {
        let asset = VideoAsset::five_g_default();
        // Top track is 160 Mbps; give it 80: every chunk takes 8 s for 4 s
        // of content.
        let trace = constant_trace(80.0);
        let mut abr = fixed_track_abr(5);
        let r = stream(&asset, &trace, &mut abr, &PlayerConfig::default(), 0.0);
        assert!(r.stall_time_s > 100.0, "stall {}", r.stall_time_s);
        assert!(r.stall_pct() > 40.0);
    }

    #[test]
    fn lowest_track_survives_modest_bandwidth() {
        let asset = VideoAsset::five_g_default();
        // Lowest 5G track ≈ 21 Mbps.
        let trace = constant_trace(40.0);
        let mut abr = fixed_track_abr(0);
        let r = stream(&asset, &trace, &mut abr, &PlayerConfig::default(), 0.0);
        assert_eq!(r.stall_time_s, 0.0);
        assert!(r.avg_norm_bitrate < 0.2);
    }

    #[test]
    fn startup_is_not_a_stall() {
        let asset = VideoAsset::four_g_default();
        let trace = constant_trace(40.0);
        let mut abr = fixed_track_abr(5);
        let r = stream(&asset, &trace, &mut abr, &PlayerConfig::default(), 0.0);
        assert!(r.startup_s > 0.0);
        assert_eq!(r.stall_time_s, 0.0);
    }

    #[test]
    fn buffer_cap_paces_downloads() {
        let asset = VideoAsset::four_g_default();
        let trace = constant_trace(1000.0);
        let mut abr = fixed_track_abr(0);
        let r = stream(&asset, &trace, &mut abr, &PlayerConfig::default(), 0.0);
        // With a 30 s cap and a 240 s video the last chunk must start no
        // earlier than 240 − 30 − ε seconds before… i.e. downloads take at
        // least duration − cap of wall time.
        let last = r.chunks.last().expect("non-empty");
        assert!(
            last.start_s >= asset.duration_s - PlayerConfig::default().max_buffer_s - 5.0,
            "last chunk at {}",
            last.start_s
        );
    }

    #[test]
    fn qoe_penalizes_stalls() {
        let asset = VideoAsset::five_g_default();
        let good = stream(
            &asset,
            &constant_trace(1000.0),
            &mut fixed_track_abr(5),
            &PlayerConfig::default(),
            0.0,
        );
        let bad = stream(
            &asset,
            &constant_trace(80.0),
            &mut fixed_track_abr(5),
            &PlayerConfig::default(),
            0.0,
        );
        assert!(good.qoe > bad.qoe);
    }
}
