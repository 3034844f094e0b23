//! Per-unit replays: each experiment (or shard) re-issued as the sequence
//! of public layer calls its body makes, with the unit's own seeds and
//! arguments, each call wrapped in a span named `<crate>.<layer>`.
//!
//! A replay mirrors the experiment code in `crates/bench/src/experiments`;
//! the traced run checks that mirror by comparing each experiment's
//! replayed budget events with the events its campaign run charged, so a
//! replay that drifts from its experiment shows up as `replay_drift`.
//! Report formatting and summary statistics are not replayed. Layer calls
//! that nest other layers (the MLP fit inside `video.pensieve`, the tree
//! fit inside `web.ifselect`) are single spans: their parts cannot be
//! split from outside the program.

use crate::trace::span;
use fiveg_bench::experiments::bonded;
use fiveg_geo::mobility::MobilityModel;
use fiveg_geo::servers::{
    azure_regions, carrier_pool, default_ue_location, minnesota_pool, Carrier, ServerInfo,
};
use fiveg_geo::LatLon;
use fiveg_mlkit::dataset::Dataset;
use fiveg_mlkit::tree::{DecisionTreeRegressor, TreeConfig};
use fiveg_power::datamodel::{DataPowerModel, NetworkKind};
use fiveg_power::monitor::{Activity, HardwareMonitor, SoftwareMonitor};
use fiveg_power::rrcpower::{
    measure_tail_power_mw, periodic_traffic_energy_mj, promotion_scenario_trace, RrcPowerParams,
};
use fiveg_probes::rrcprobe::RrcProbe;
use fiveg_probes::speedtest::{ConnMode, SpeedtestHarness};
use fiveg_radio::band::{Band, Direction};
use fiveg_radio::cell::NetworkLayout;
use fiveg_radio::handoff::{simulate_drive, BandSetting, HandoffConfig};
use fiveg_radio::link::LinkState;
use fiveg_radio::ue::UeModel;
use fiveg_rrc::profile::{RrcConfigId, RrcProfile};
use fiveg_simcore::stats::mean;
use fiveg_simcore::{RngStream, SimTime};
use fiveg_traces::lumos::TraceGenerator;
use fiveg_traces::walking::{to_dataset, PowerFeatures, WalkingCampaign, WalkingSample};
use fiveg_transport::path::PathModel;
use fiveg_transport::shaper::BandwidthTrace;
use fiveg_transport::tcp::{measure_throughput, CcAlgo, TcpSimConfig};
use fiveg_transport::udp::UdpFlow;
use fiveg_transport::{BondedConfig, BondedSim};
use fiveg_video::abr::{self, Abr, AbrAlgo, Mpc};
use fiveg_video::asset::VideoAsset;
use fiveg_video::ifselect::{stream_with_selection, IfSelectConfig};
use fiveg_video::pensieve;
use fiveg_video::player::{stream, PlayerConfig};
use fiveg_video::predictor::{ContextGbdtPredictor, HarmonicMeanPredictor, OraclePredictor};
use fiveg_web::ifselect::{label, ModelSpec, SelectionModel, SiteMeasurement};
use fiveg_web::{PageLoader, WebRadio, WebsiteCorpus};
use std::hint::black_box;

/// Every span a replay can open, in report order.
pub const LAYER_SPANS: [&str; 18] = [
    "transport.tcp",
    "transport.udp",
    "transport.rate",
    "transport.bond",
    "video.stream",
    "video.pensieve",
    "video.predictor",
    "video.ifselect",
    "web.load",
    "web.ifselect",
    "traces.lumos",
    "traces.walking",
    "mlkit.tree",
    "mlkit.dataset",
    "power.monitor",
    "power.rrcpower",
    "radio.drive",
    "probes.rrcprobe",
];

/// Spans whose self time includes other layers' work that cannot be split
/// from outside the program, with what they fold in.
pub const UNSPLIT: [(&str, &str); 6] = [
    (
        "video.pensieve",
        "the mlkit MLP fit and its training sessions",
    ),
    ("video.predictor", "the mlkit GBDT fit"),
    ("web.ifselect", "the mlkit decision-tree fit and pruning"),
    (
        "web.load",
        "the radio and transport models of each page load",
    ),
    (
        "traces.walking",
        "radio propagation, shadowing and power sampling",
    ),
    ("radio.drive", "the RRC machine and the shadowing cache"),
];

/// Replays one unit: shard `shard` of a sharded experiment, or the whole
/// experiment when `shard` is `None`. Returns false for an unknown id.
pub fn replay(id: &str, shard: Option<usize>, seed: u64) -> bool {
    let s = shard.unwrap_or(0);
    match id {
        "table1" | "fig11" | "fig12" | "fig26" | "table3" | "table8" => {} // closed-form tables
        "fig1" | "fig2" | "fig5" => latency_table(id, seed),
        "fig3" => throughput_vs_distance(&vz_mmwave(seed), Carrier::Verizon, Direction::Downlink),
        "fig4" => throughput_vs_distance(&vz_mmwave(seed), Carrier::Verizon, Direction::Uplink),
        "fig6" => tmobile_updown(seed, Direction::Downlink),
        "fig7" => tmobile_updown(seed, Direction::Uplink),
        "fig8" => fig8(seed),
        "fig23" => fig23(seed),
        "fig24" => fig24(seed),
        "ablation-cc" => ablation_cc(seed),
        "ablation-wmem" => ablation_wmem(seed),
        "bonded-uplink" => bonded_uplink(seed, s),
        "fig17" => fig17(seed, s),
        "fig18a" => fig18a(seed, s),
        "fig18b" => fig18b(seed, s),
        "fig18c" => fig18c(seed, s),
        "ablation-pensieve" => ablation_pensieve(seed, s),
        "ablation-blockage" => ablation_blockage(seed),
        "fig19" | "fig20" | "fig21" => {
            black_box(measurements(seed));
        }
        "table6" => table6(seed),
        "fig9" => fig9(seed),
        "fig10" => fig10(seed),
        "table2" => table2(seed),
        "table7" => table7(seed),
        "fig13" | "fig14" => walking_pair(seed),
        "fig15" => fig15(seed, s),
        "fig16" => fig16(seed, s),
        "table9" => table9(seed),
        "ablation-hysteresis" => ablation_hysteresis(seed),
        "ext-periodic" => ext_periodic(),
        _ => return false,
    }
    true
}

// ---- transport (net) ------------------------------------------------------

const REPEATS: usize = 6;

fn tcp(path: PathModel, cfg: TcpSimConfig, seed: u64) -> f64 {
    let name = if cfg.algo.is_rate_based() {
        "transport.rate"
    } else {
        "transport.tcp"
    };
    span(name, || measure_throughput(path, cfg, seed))
}

fn harness(ue: UeModel, band: Band, rsrp: f64, sa: bool, seed: u64) -> SpeedtestHarness {
    SpeedtestHarness {
        ue,
        link: LinkState {
            band,
            rsrp_dbm: rsrp,
            sa,
        },
        ue_location: default_ue_location(),
        seed,
    }
}

fn vz_mmwave(seed: u64) -> SpeedtestHarness {
    harness(UeModel::GalaxyS20Ultra, Band::N261, -70.0, false, seed)
}

fn tm_low(seed: u64, sa: bool) -> SpeedtestHarness {
    harness(UeModel::GalaxyS20Ultra, Band::N71, -85.0, sa, seed)
}

fn sorted_pool(carrier: Carrier, ue: LatLon) -> Vec<ServerInfo> {
    let mut pool = carrier_pool(carrier);
    pool.sort_by(|a, b| a.distance_km(ue).total_cmp(&b.distance_km(ue)));
    pool
}

/// `SpeedtestHarness::run`, one transport call per repeat.
fn speedtest(
    h: &SpeedtestHarness,
    server: &ServerInfo,
    dir: Direction,
    mode: ConnMode,
    repeats: usize,
) {
    let path = PathModel::build(h.ue, &h.link, server, h.ue_location, dir);
    let mut rng = RngStream::new(h.seed, &format!("st/{}/{dir:?}/{mode:?}", server.name));
    for rep in 0..repeats {
        let seed = h.seed ^ (rep as u64 * 0x9e37) ^ path.rtt_ms.to_bits();
        let mbps = match mode {
            ConnMode::SingleDefault => tcp(path, TcpSimConfig::single_default(), seed),
            ConnMode::SingleTuned => tcp(path, TcpSimConfig::single_tuned(), seed),
            ConnMode::Multi => {
                let n = rng.gen_range(15..=25);
                tcp(path, TcpSimConfig::multi(n), seed)
            }
            ConnMode::TcpN(n) => tcp(path, TcpSimConfig::multi(n), seed),
            ConnMode::Udp => span("transport.udp", || {
                UdpFlow::new(f64::INFINITY).run(&path).achieved_mbps
            }),
        };
        black_box(mbps);
    }
    black_box(h.latency_ms(server, 10));
}

fn latency_table(id: &str, seed: u64) {
    let ue = default_ue_location();
    let (carrier, harnesses) = match id {
        "fig1" => (Carrier::Verizon, vec![vz_mmwave(seed)]),
        "fig2" => (
            Carrier::Verizon,
            vec![
                vz_mmwave(seed),
                harness(UeModel::GalaxyS20Ultra, Band::N5Dss, -85.0, false, seed),
                harness(
                    UeModel::GalaxyS20Ultra,
                    Band::LteMidBand,
                    -82.0,
                    false,
                    seed,
                ),
            ],
        ),
        _ => (
            Carrier::TMobile,
            vec![tm_low(seed, true), tm_low(seed, false)],
        ),
    };
    for s in sorted_pool(carrier, ue) {
        for h in &harnesses {
            black_box(h.latency_ms(&s, 10));
        }
    }
}

fn throughput_vs_distance(h: &SpeedtestHarness, carrier: Carrier, dir: Direction) {
    for s in sorted_pool(carrier, default_ue_location()) {
        speedtest(h, &s, dir, ConnMode::Multi, REPEATS);
        speedtest(h, &s, dir, ConnMode::SingleTuned, REPEATS);
    }
}

fn tmobile_updown(seed: u64, dir: Direction) {
    let (sa, nsa) = (tm_low(seed, true), tm_low(seed, false));
    for s in sorted_pool(Carrier::TMobile, default_ue_location()) {
        for h in [&sa, &nsa] {
            speedtest(h, &s, dir, ConnMode::Multi, REPEATS);
            speedtest(h, &s, dir, ConnMode::SingleTuned, REPEATS);
        }
    }
}

fn fig8(seed: u64) {
    let h = harness(UeModel::Pixel5, Band::N261, -70.0, false, seed);
    for s in azure_regions() {
        speedtest(&h, &s, Direction::Downlink, ConnMode::Udp, 3);
        speedtest(&h, &s, Direction::Downlink, ConnMode::TcpN(8), REPEATS);
        speedtest(&h, &s, Direction::Downlink, ConnMode::SingleTuned, REPEATS);
        speedtest(
            &h,
            &s,
            Direction::Downlink,
            ConnMode::SingleDefault,
            REPEATS,
        );
    }
}

fn fig23(seed: u64) {
    let local = sorted_pool(Carrier::Verizon, default_ue_location())
        .into_iter()
        .next()
        .expect("non-empty pool");
    for ue in [UeModel::Pixel5, UeModel::GalaxyS20Ultra] {
        let h = harness(ue, Band::N261, -70.0, false, seed);
        speedtest(
            &h,
            &local,
            Direction::Downlink,
            ConnMode::SingleTuned,
            REPEATS,
        );
        speedtest(&h, &local, Direction::Downlink, ConnMode::Multi, REPEATS);
        speedtest(&h, &local, Direction::Uplink, ConnMode::Multi, REPEATS);
    }
}

fn fig24(seed: u64) {
    let h = vz_mmwave(seed);
    for s in minnesota_pool() {
        speedtest(&h, &s, Direction::Downlink, ConnMode::Multi, REPEATS);
    }
}

fn mmwave_path(rtt_ms: f64, dist_km: f64) -> PathModel {
    PathModel {
        rtt_ms,
        loss_per_pkt: fiveg_transport::path::BASE_LOSS
            + fiveg_transport::path::LOSS_PER_KM * dist_km,
        capacity_mbps: 3400.0,
        mss_bytes: 1460.0,
        queue_bdp: fiveg_transport::path::DEFAULT_QUEUE_BDP,
    }
}

fn ablation_cc(seed: u64) {
    for (rtt, km) in [(8.0, 100.0), (20.0, 800.0), (35.0, 1600.0), (50.0, 2500.0)] {
        for algo in [CcAlgo::Cubic, CcAlgo::Reno, CcAlgo::Bbr, CcAlgo::Nada] {
            let cfg = TcpSimConfig {
                algo,
                ..TcpSimConfig::single_tuned()
            };
            tcp(mmwave_path(rtt, km), cfg, seed);
        }
    }
}

fn ablation_wmem(seed: u64) {
    for mb in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
        for algo in [CcAlgo::Cubic, CcAlgo::Bbr, CcAlgo::Nada] {
            let cfg = TcpSimConfig {
                wmem_bytes: mb * 1e6,
                algo,
                ..TcpSimConfig::single_default()
            };
            tcp(mmwave_path(20.0, 800.0), cfg, seed);
        }
    }
}

fn bonded_uplink(seed: u64, shard: usize) {
    let link = |rtt_ms: f64, capacity_mbps: f64, dist_km: f64| PathModel {
        rtt_ms,
        loss_per_pkt: fiveg_transport::path::BASE_LOSS
            + fiveg_transport::path::LOSS_PER_KM * dist_km,
        capacity_mbps,
        mss_bytes: 1460.0,
        queue_bdp: fiveg_transport::path::DEFAULT_QUEUE_BDP,
    };
    let (slug, links, shared_cap) = match shard {
        0 => (
            "metro",
            vec![link(30.0, 150.0, 100.0), link(20.0, 1500.0, 100.0)],
            None,
        ),
        1 => (
            "long-haul",
            vec![link(45.0, 150.0, 1600.0), link(35.0, 1500.0, 1600.0)],
            None,
        ),
        2 => (
            "capped",
            vec![link(30.0, 150.0, 100.0), link(20.0, 1500.0, 100.0)],
            Some(600.0),
        ),
        _ => (
            "dual-lte",
            vec![link(30.0, 150.0, 100.0), link(28.0, 180.0, 100.0)],
            None,
        ),
    };
    let mut cfg = BondedConfig::new(links, bonded::cc());
    cfg.shared_cap_mbps = shared_cap;
    let mut sim = BondedSim::new(cfg, RngStream::new(seed, &format!("bonded/{slug}")));
    black_box(span("transport.bond", || sim.run(15.0)));
}

// ---- video and web (qoe) --------------------------------------------------

const EVAL_TRACES: usize = 24;

struct Corpora {
    g5_eval: Vec<BandwidthTrace>,
    g4_train: Vec<BandwidthTrace>,
    g4_eval: Vec<BandwidthTrace>,
}

fn corpora(seed: u64) -> Corpora {
    let gen = TraceGenerator::new(seed);
    let mut g5 = span("traces.lumos", || gen.lumos5g_corpus(60));
    let mut g4 = span("traces.lumos", || gen.lte_corpus(60));
    let g5_eval = g5.split_off(g5.len() - EVAL_TRACES);
    let g4_eval = g4.split_off(g4.len() - EVAL_TRACES);
    Corpora {
        g5_eval,
        g4_train: g4,
        g4_eval,
    }
}

fn play(asset: &VideoAsset, trace: &BandwidthTrace, abr: &mut dyn Abr) {
    black_box(span("video.stream", || {
        stream(asset, trace, abr, &PlayerConfig::default(), 0.0)
    }));
}

fn fig17(seed: u64, shard: usize) {
    let c = corpora(seed);
    let asset5 = VideoAsset::five_g_default();
    let asset4 = VideoAsset::four_g_default();
    let algo = AbrAlgo::all()[shard];
    if algo == AbrAlgo::Pensieve {
        let mut trained = span("video.pensieve", || {
            pensieve::train(&c.g4_train, &asset4, seed)
        });
        for tr in &c.g5_eval {
            play(&asset5, tr, &mut trained);
        }
        for tr in &c.g4_eval {
            play(&asset4, tr, &mut trained);
        }
    } else {
        for tr in &c.g5_eval {
            play(&asset5, tr, abr::build(algo).as_mut());
        }
        for tr in &c.g4_eval {
            play(&asset4, tr, abr::build(algo).as_mut());
        }
    }
}

fn fig18a(seed: u64, shard: usize) {
    let c = corpora(seed);
    let asset = VideoAsset::five_g_default();
    let gen = TraceGenerator::new(seed);
    match shard {
        0 => {
            for t in &c.g5_eval {
                let mut mpc =
                    Mpc::with_predictor(Box::new(HarmonicMeanPredictor::default()), false, "hmMPC");
                play(&asset, t, &mut mpc);
            }
        }
        1 => {
            let train_pairs: Vec<_> = span("traces.lumos", || {
                (0..36).map(|i| gen.lumos5g_trace_with_context(i)).collect()
            });
            let eval_contexts: Vec<Vec<f64>> = span("traces.lumos", || {
                (36..60)
                    .map(|i| gen.lumos5g_trace_with_context(i).1)
                    .collect()
            });
            let gbdt = span("video.predictor", || {
                ContextGbdtPredictor::train(&train_pairs, &asset, 5)
            });
            for (t, ctx) in c.g5_eval.iter().zip(&eval_contexts) {
                let mut mpc =
                    Mpc::with_predictor(Box::new(gbdt.bind(ctx.clone())), false, "MPC_GDBT");
                play(&asset, t, &mut mpc);
            }
        }
        _ => {
            for t in &c.g5_eval {
                let mut mpc = Mpc::with_predictor(
                    Box::new(OraclePredictor::new(t.clone(), 8.0)),
                    false,
                    "truthMPC",
                );
                play(&asset, t, &mut mpc);
            }
        }
    }
}

fn fig18b(seed: u64, shard: usize) {
    let c = corpora(seed);
    let asset = VideoAsset::ladder(160.0, 6, [4.0, 2.0, 1.0][shard], 240.0);
    for t in &c.g5_eval {
        play(&asset, t, &mut Mpc::fast());
    }
}

fn fig18c(seed: u64, shard: usize) {
    let c = corpora(seed);
    let asset = VideoAsset::five_g_default();
    let four_g_avg = mean(&c.g4_train.iter().map(|t| t.mean_mbps()).collect::<Vec<_>>());
    let cfg = match shard {
        0 => IfSelectConfig::five_g_only(),
        1 => IfSelectConfig::aware(four_g_avg),
        _ => IfSelectConfig::aware_no_overhead(four_g_avg),
    };
    for (t5, t4) in c.g5_eval.iter().zip(c.g4_eval.iter().cycle()) {
        let mut mpc = Mpc::fast();
        black_box(span("video.ifselect", || {
            stream_with_selection(&asset, t5, t4, &mut mpc, &cfg, &PlayerConfig::default())
        }));
    }
}

fn ablation_pensieve(seed: u64, shard: usize) {
    let gen = TraceGenerator::new(seed);
    let g5_eval: Vec<_> = span("traces.lumos", || {
        (36..56).map(|i| gen.lumos5g_trace(i)).collect()
    });
    let asset5 = VideoAsset::five_g_default();
    let mut abr = if shard == 0 {
        let g4_train = span("traces.lumos", || gen.lte_corpus(36));
        span("video.pensieve", || {
            pensieve::train(&g4_train, &VideoAsset::four_g_default(), seed)
        })
    } else {
        let g5_train = span("traces.lumos", || gen.lumos5g_corpus(36));
        span("video.pensieve", || {
            pensieve::train(&g5_train, &asset5, seed)
        })
    };
    for t in &g5_eval {
        play(&asset5, t, &mut abr);
    }
}

fn ablation_blockage(seed: u64) {
    let gen = TraceGenerator::new(seed);
    let asset = VideoAsset::five_g_default();
    let on: Vec<_> = span("traces.lumos", || {
        (0..16).map(|i| gen.lumos5g_trace(i)).collect()
    });
    for t in &on {
        play(&asset, t, &mut Mpc::fast());
    }
    let off: Vec<_> = span("traces.lumos", || {
        (0..16).map(|i| gen.lumos5g_trace_no_blockage(i)).collect()
    });
    for t in &off {
        play(&asset, t, &mut Mpc::fast());
    }
}

/// `web::ifselect::measure_corpus` over the 1500-site corpus, one span per
/// page-load measurement.
fn measurements(seed: u64) -> Vec<SiteMeasurement> {
    let corpus = WebsiteCorpus::generate(1500, seed);
    let loader = PageLoader::new(UeModel::Pixel5, seed);
    corpus
        .sites
        .iter()
        .map(|site| SiteMeasurement {
            features: site.features(),
            lte: span("web.load", || loader.load_mean(site, WebRadio::Lte, 8)),
            mmwave: span("web.load", || loader.load_mean(site, WebRadio::MmWave5g, 8)),
        })
        .collect()
}

fn table6(seed: u64) {
    let mut ms = measurements(seed);
    let test = ms.split_off(ms.len() * 7 / 10);
    for spec in ModelSpec::table6() {
        span("web.ifselect", || {
            let model = SelectionModel::train(&ms, spec, seed);
            black_box(model.evaluate(&test));
            black_box(model.savings_vs_5g(&test));
            black_box(model.splits());
        });
    }
    black_box(span("web.ifselect", || {
        label(&test, &ModelSpec::table6()[0])
    }));
}

// ---- radio, RRC, power and modeling (energy) ------------------------------

fn fig9(seed: u64) {
    let layout = span("radio.drive", || {
        NetworkLayout::tmobile_drive_corridor(seed)
    });
    let mobility = MobilityModel::driving_10km();
    let cfg = HandoffConfig::default();
    for setting in BandSetting::all() {
        let result = span("radio.drive", || {
            simulate_drive(&layout, &mobility, setting, &cfg, seed)
        });
        black_box(fiveg_probes::drivetest::summarize(&result));
    }
}

fn ablation_hysteresis(seed: u64) {
    let layout = span("radio.drive", || {
        NetworkLayout::tmobile_drive_corridor(seed)
    });
    let mobility = MobilityModel::driving_10km();
    for hyst in [1.0, 2.0, 3.0, 4.0, 6.0] {
        let cfg = HandoffConfig {
            hysteresis_db: hyst,
            ..HandoffConfig::default()
        };
        for setting in [BandSetting::LteOnly, BandSetting::NsaPlusLte] {
            black_box(span("radio.drive", || {
                simulate_drive(&layout, &mobility, setting, &cfg, seed)
            }));
        }
    }
}

const SERVER_RTT_MS: f64 = 3.0;

fn fig10(seed: u64) {
    let grid: Vec<f64> = (1..=16).map(f64::from).collect();
    for config in RrcConfigId::all() {
        let probe = RrcProbe::new(RrcProfile::for_config(config), SERVER_RTT_MS, seed);
        black_box(span("probes.rrcprobe", || probe.staircase(&grid)));
    }
}

fn table7(seed: u64) {
    for config in RrcConfigId::all() {
        let probe = RrcProbe::new(RrcProfile::for_config(config), SERVER_RTT_MS, seed);
        black_box(span("probes.rrcprobe", || probe.infer()));
    }
}

fn table2(seed: u64) {
    let hw = HardwareMonitor::default();
    for config in RrcConfigId::all() {
        let profile = RrcProfile::for_config(config);
        let params = RrcPowerParams::for_config(config);
        let truth = span("power.rrcpower", || {
            promotion_scenario_trace(&profile, &params)
        });
        let duration = truth.end().expect("non-empty").as_secs_f64();
        let mut rng = RngStream::new(seed, &format!("t2/{config:?}"));
        let recorded = span("power.monitor", || {
            hw.record(
                |t_s| {
                    truth
                        .sample_at(SimTime::from_secs_f64(t_s))
                        .unwrap_or(params.idle_mw)
                },
                duration,
                &mut rng,
            )
        });
        black_box(span("power.rrcpower", || {
            measure_tail_power_mw(&profile, &recorded)
        }));
    }
}

fn ext_periodic() {
    for config in RrcConfigId::all() {
        let profile = RrcProfile::for_config(config);
        let params = RrcPowerParams::for_config(config);
        for p in [1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0] {
            black_box(span("power.rrcpower", || {
                periodic_traffic_energy_mj(&profile, &params, p, 600.0)
            }));
        }
    }
}

fn walk_campaign(c: &WalkingCampaign, seed: u64) -> Vec<WalkingSample> {
    span("traces.walking", || c.campaign(10, seed))
}

fn walking_pair(seed: u64) {
    for ue in [UeModel::GalaxyS10, UeModel::GalaxyS20Ultra] {
        let c = WalkingCampaign {
            ue,
            carrier: fiveg_radio::Carrier::Verizon,
            network: NetworkKind::MmWave,
        };
        black_box(walk_campaign(&c, seed));
    }
}

fn dataset(samples: &[WalkingSample], network: NetworkKind, feat: PowerFeatures) -> Dataset {
    span("mlkit.dataset", || to_dataset(samples, network, feat))
}

/// The modeling experiments' `dtr_mape`: split, fit, predict.
fn dtr(data: &Dataset, seed: u64) {
    let mut rng = RngStream::new(seed, "fig15/split");
    let (train, test) = span("mlkit.dataset", || data.split(0.7, &mut rng));
    let model = span("mlkit.tree", || {
        DecisionTreeRegressor::fit(&train, &TreeConfig::default())
    });
    black_box(span("mlkit.tree", || model.predict_all(&test)));
}

fn fig15(seed: u64, shard: usize) {
    let settings = WalkingCampaign::fig15_settings();
    if shard < settings.len() {
        let c = settings[shard];
        let samples = walk_campaign(&c, seed);
        for feat in [
            PowerFeatures::ThroughputAndSignal,
            PowerFeatures::ThroughputOnly,
            PowerFeatures::SignalOnly,
        ] {
            dtr(&dataset(&samples, c.network, feat), seed);
        }
        return;
    }
    let c = settings[1];
    let samples = walk_campaign(&c, seed);
    let train = dataset(&samples, c.network, PowerFeatures::ThroughputAndSignal);
    let model = span("mlkit.tree", || {
        DecisionTreeRegressor::fit(&train, &TreeConfig::default())
    });
    let fresh = span("traces.walking", || c.walk(99, seed, 10.0));
    let val = dataset(&fresh, c.network, PowerFeatures::ThroughputAndSignal);
    black_box(span("mlkit.tree", || model.predict_all(&val)));
}

/// `modeling::activity_power_mw`: the ground-truth power of each activity.
fn activity_power_mw(activity: Activity) -> f64 {
    let idle_screen_on = 2014.3;
    let radio = |mbps: f64| {
        DataPowerModel::lookup(UeModel::GalaxyS20Ultra, NetworkKind::MmWave)
            .power_mw(Direction::Downlink, mbps)
    };
    match activity {
        Activity::IdleScreenOn => idle_screen_on,
        Activity::IdleScreenOff => idle_screen_on - fiveg_power::SCREEN_POWER_MW,
        Activity::RandomInteraction => idle_screen_on + 600.0,
        Activity::UdpDl50 => idle_screen_on + radio(50.0),
        Activity::UdpDl400 => idle_screen_on + radio(400.0),
        Activity::UdpDl800 => idle_screen_on + radio(800.0),
        Activity::UdpDl1200 => idle_screen_on + radio(1200.0),
        Activity::VideoStreaming => idle_screen_on + 1200.0 + radio(80.0),
    }
}

fn fig16(seed: u64, shard: usize) {
    if shard == 0 {
        let c = WalkingCampaign::fig15_settings()[1];
        let samples = walk_campaign(&c, seed);
        dtr(
            &dataset(&samples, c.network, PowerFeatures::ThroughputAndSignal),
            seed,
        );
        return;
    }
    let hw = HardwareMonitor::default();
    let rate = [1.0, 10.0][shard - 1];
    let sw = SoftwareMonitor::new(rate);
    let mut data = Dataset::new(
        vec!["sw_reading_mw".into(), "throughput_mbps".into()],
        vec![],
        vec![],
    );
    for (ai, activity) in Activity::all().iter().enumerate() {
        let truth = activity_power_mw(*activity);
        let tput = match activity {
            Activity::UdpDl50 => 50.0,
            Activity::UdpDl400 => 400.0,
            Activity::UdpDl800 => 800.0,
            Activity::UdpDl1200 => 1200.0,
            Activity::VideoStreaming => 80.0,
            _ => 0.0,
        };
        let rng = RngStream::new(seed, &format!("fig16/{ai}/{rate}"));
        let true_fn = |t: f64| {
            truth * (1.0 + 0.08 * (t * std::f64::consts::TAU / 7.3).sin()) + sw.overhead_mw()
        };
        let hw_trace = span("power.monitor", || {
            hw.record(true_fn, 60.0, &mut rng.fork("hw"))
        });
        let sw_trace = span("power.monitor", || {
            sw.record(true_fn, *activity, 60.0, &mut rng.fork("sw"))
        });
        span("mlkit.dataset", || {
            for (t_sw, reading) in sw_trace.iter() {
                let hw_now = hw_trace.sample_at(t_sw).unwrap_or(truth);
                data.push(vec![reading, tput], hw_now);
            }
        });
    }
    dtr(&data, seed ^ rate as u64);
}

fn table9(seed: u64) {
    let hw = HardwareMonitor::default();
    for activity in Activity::all() {
        let truth = activity_power_mw(activity);
        for rate in [1.0, 10.0] {
            let sw = SoftwareMonitor::new(rate);
            let rng = RngStream::new(seed, &format!("t9/{activity:?}/{rate}"));
            let true_fn = |_t: f64| truth + sw.overhead_mw();
            black_box(span("power.monitor", || {
                hw.record(true_fn, 120.0, &mut rng.fork("hw"))
            }));
            black_box(span("power.monitor", || {
                sw.record(true_fn, activity, 120.0, &mut rng.fork("sw"))
            }));
        }
    }
}
