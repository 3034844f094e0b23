//! Integration of trace generation, ABR algorithms, predictors, and
//! interface selection: §5's streaming pipeline.

use fiveg_wild::simcore::stats::mean;
use fiveg_wild::traces::lumos::TraceGenerator;
use fiveg_wild::video::abr::Mpc;
use fiveg_wild::video::asset::VideoAsset;
use fiveg_wild::video::ifselect::{stream_with_selection, IfSelectConfig};
use fiveg_wild::video::player::{stream, PlayerConfig, SessionResult};
use fiveg_wild::video::predictor::OraclePredictor;

fn mean_stall_and_qoe(
    traces: &[fiveg_wild::transport::shaper::BandwidthTrace],
    mut make: impl FnMut(&fiveg_wild::transport::shaper::BandwidthTrace) -> Mpc,
) -> (f64, f64) {
    let asset = VideoAsset::five_g_default();
    let cfg = PlayerConfig::default();
    let sessions: Vec<_> = traces
        .iter()
        .map(|t| {
            let mut abr = make(t);
            stream(&asset, t, &mut abr, &cfg, 0.0)
        })
        .collect();
    (
        mean(&sessions.iter().map(|s| s.stall_pct()).collect::<Vec<_>>()),
        mean(&sessions.iter().map(|s| s.qoe).collect::<Vec<_>>()),
    )
}

#[test]
fn robust_mpc_stalls_less_than_fast_mpc_on_5g() {
    let gen = TraceGenerator::new(77);
    let traces = gen.lumos5g_corpus(12);
    let (fast_stall, _) = mean_stall_and_qoe(&traces, |_| Mpc::fast());
    let (robust_stall, _) = mean_stall_and_qoe(&traces, |_| Mpc::robust());
    assert!(
        robust_stall < fast_stall,
        "robust {robust_stall:.2}% vs fast {fast_stall:.2}%"
    );
}

#[test]
fn oracle_prediction_dominates_harmonic_mean() {
    let gen = TraceGenerator::new(78);
    let traces = gen.lumos5g_corpus(12);
    let (_, hm_qoe) = mean_stall_and_qoe(&traces, |_| Mpc::fast());
    let (_, oracle_qoe) = mean_stall_and_qoe(&traces, |t| {
        Mpc::with_predictor(Box::new(OraclePredictor::new(t.clone(), 8.0)), false, "o")
    });
    assert!(
        oracle_qoe > hm_qoe,
        "oracle {oracle_qoe:.1} vs hm {hm_qoe:.1}"
    );
}

#[test]
fn five_g_aware_selection_saves_energy_on_the_corpus() {
    let gen = TraceGenerator::new(79);
    let g5 = gen.lumos5g_corpus(12);
    let g4 = gen.lte_corpus(12);
    let asset = VideoAsset::five_g_default();
    let four_g_avg = mean(&g4.iter().map(|t| t.mean_mbps()).collect::<Vec<_>>());
    let run = |cfg: &IfSelectConfig| {
        let results: Vec<_> = g5
            .iter()
            .zip(&g4)
            .map(|(t5, t4)| {
                let mut mpc = Mpc::fast();
                stream_with_selection(&asset, t5, t4, &mut mpc, cfg, &PlayerConfig::default())
            })
            .collect();
        (
            mean(&results.iter().map(|r| r.energy_j).collect::<Vec<_>>()),
            mean(
                &results
                    .iter()
                    .map(|r| r.session.stall_time_s)
                    .collect::<Vec<_>>(),
            ),
        )
    };
    let (only_energy, only_stall) = run(&IfSelectConfig::five_g_only());
    let (aware_energy, aware_stall) = run(&IfSelectConfig::aware(four_g_avg));
    assert!(
        aware_energy < only_energy,
        "energy: aware {aware_energy:.0} vs only {only_energy:.0}"
    );
    assert!(
        aware_stall < only_stall * 1.1,
        "stalls must not regress much: {aware_stall:.1} vs {only_stall:.1}"
    );
}

#[test]
fn four_g_ladder_over_four_g_traces_rarely_stalls() {
    // The premise of Fig 17b: the 4G world is comfortable for ABR.
    let gen = TraceGenerator::new(80);
    let traces = gen.lte_corpus(12);
    let asset = VideoAsset::four_g_default();
    let cfg = PlayerConfig::default();
    let stall = mean(
        &traces
            .iter()
            .map(|t| stream(&asset, t, &mut Mpc::robust(), &cfg, 0.0).stall_pct())
            .collect::<Vec<_>>(),
    );
    assert!(stall < 2.0, "4G stall {stall:.2}%");
}

/// Every field of two sessions, compared bit for bit.
fn assert_same_session(a: &SessionResult, b: &SessionResult, label: &str) {
    let bits = |s: &SessionResult| {
        let mut v = vec![
            s.avg_norm_bitrate.to_bits(),
            s.stall_time_s.to_bits(),
            s.play_time_s.to_bits(),
            s.startup_s.to_bits(),
            s.switches as u64,
            s.qoe.to_bits(),
        ];
        for c in &s.chunks {
            v.extend([c.index as u64, c.track as u64]);
            v.extend(
                [
                    c.bitrate_mbps,
                    c.start_s,
                    c.download_s,
                    c.tput_mbps,
                    c.stall_s,
                ]
                .map(f64::to_bits),
            );
        }
        v
    };
    assert_eq!(bits(a), bits(b), "{label}: sessions differ");
}

#[test]
fn five_g_only_selection_is_the_single_link_player() {
    // With no fault plane the 5G-only scheme never leaves 5G, so it must
    // book exactly the session `stream` books over the 5G trace.
    let gen = TraceGenerator::new(2021);
    let g5 = gen.lumos5g_corpus(8);
    let g4 = gen.lte_corpus(8);
    let asset = VideoAsset::five_g_default();
    let cfg = PlayerConfig::default();
    for (i, (t5, t4)) in g5.iter().zip(&g4).enumerate() {
        let single = stream(&asset, t5, &mut Mpc::fast(), &cfg, 0.0);
        let only = IfSelectConfig::five_g_only();
        let selected = stream_with_selection(&asset, t5, t4, &mut Mpc::fast(), &only, &cfg);
        assert_same_session(&single, &selected.session, &format!("trace {i}"));
    }
}

#[test]
fn chunk_records_start_when_their_download_starts() {
    // A chunk that fills the buffer is followed by a wait; its record must
    // still carry the download's own start, so replaying the download from
    // `start_s` reproduces `download_s` bit for bit.
    let gen = TraceGenerator::new(2021);
    let asset = VideoAsset::five_g_default();
    let cfg = PlayerConfig::default();
    let mut waits = 0;
    for trace in gen.lumos5g_corpus(8) {
        let s = stream(&asset, &trace, &mut Mpc::fast(), &cfg, 0.0);
        for pair in s.chunks.windows(2) {
            waits += usize::from(pair[1].start_s > pair[0].start_s + pair[0].download_s);
        }
        for c in &s.chunks {
            let replay = trace.transfer_time_s(asset.chunk_bytes(c.track), c.start_s);
            assert_eq!(
                replay.to_bits(),
                c.download_s.to_bits(),
                "chunk {} at {}: replay {replay} vs {}",
                c.index,
                c.start_s,
                c.download_s
            );
        }
    }
    assert!(waits > 0, "no session filled its buffer");
}
