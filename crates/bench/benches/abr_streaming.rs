//! Benchmarks for DASH sessions (Fig 17 kernel).

use fiveg_bench::timing::bench;
use fiveg_traces::lumos::TraceGenerator;
use fiveg_video::abr::{Abr, AbrContext, Bba, Mpc};
use fiveg_video::asset::VideoAsset;
use fiveg_video::player::{stream, PlayerConfig};

fn main() {
    let trace = TraceGenerator::new(42).lumos5g_trace(0);
    let asset = VideoAsset::five_g_default();
    let cfg = PlayerConfig::default();
    bench("stream_bba_240s", || {
        stream(&asset, &trace, &mut Bba::default(), &cfg, 0.0)
    });
    bench("stream_fastmpc_240s", || {
        stream(&asset, &trace, &mut Mpc::fast(), &cfg, 0.0)
    });
    // The MPC search alone: one depth-5 fastMPC decision mid-session
    // (6^5 track sequences), against a warm decision's scratch buffers.
    let past: Vec<f64> = (0..8).map(|i| trace.bandwidth_at(4.0 * i as f64)).collect();
    let ctx = AbrContext {
        asset: &asset,
        buffer_s: 12.0,
        last_track: 3,
        past_tput_mbps: &past,
        chunks_remaining: 30,
        wall_t_s: 32.0,
    };
    let mut mpc = Mpc::fast();
    bench("mpc_fastmpc_choose", || mpc.choose(&ctx));
}
