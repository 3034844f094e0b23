//! The benchmark workloads: `quiet` is exactly `figures all`, and `net` is
//! its transport family. `net`'s traced run also probes the armed fault,
//! recovery and observatory planes on the `chaos` subset, whose own
//! end-to-end spread is too wide for the largest bound (see README.md);
//! `chaos` is that probe's campaign, not a workload of its own.

/// One named campaign: the experiment ids it runs, whether it runs under
/// `--chaos chaos --obs DIR`, and whether its traced run also probes the
/// armed fault, recovery and observatory planes on the `chaos` subset.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub ids: &'static [&'static str],
    pub chaos: bool,
    pub armed_probe: bool,
}

pub const NET: Workload = Workload {
    name: "net",
    ids: &[
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig23",
        "fig24",
        "ablation-cc",
        "ablation-wmem",
        "bonded-uplink",
    ],
    chaos: false,
    armed_probe: true,
};

pub const CHAOS: Workload = Workload {
    name: "chaos",
    ids: &[
        "fig9",
        "fig10",
        "table2",
        "fig6",
        "fig18c",
        "table6",
        "fig19",
        "table9",
        "bonded-uplink",
    ],
    chaos: true,
    armed_probe: false,
};

/// `figures all`: every registry experiment, in registry order.
pub const QUIET: Workload = Workload {
    name: "quiet",
    ids: &[
        "table1",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "table2",
        "table7",
        "fig11",
        "fig12",
        "table8",
        "fig13",
        "fig14",
        "fig26",
        "fig15",
        "fig16",
        "table3",
        "table9",
        "fig17",
        "fig18a",
        "fig18b",
        "fig18c",
        "fig19",
        "fig20",
        "fig21",
        "table6",
        "fig23",
        "fig24",
        "ablation-cc",
        "ablation-wmem",
        "ablation-hysteresis",
        "ablation-blockage",
        "ablation-pensieve",
        "bonded-uplink",
        "ext-periodic",
    ],
    chaos: false,
    armed_probe: false,
};

/// The workloads `run.py --workload` accepts.
pub const ALL: [Workload; 2] = [QUIET, NET];

/// The fault scenario the `chaos` campaign arms.
pub const CHAOS_SCENARIO: &str = "chaos";

/// Campaign worker threads (`figures --jobs 2`).
pub const JOBS: usize = 2;

pub fn by_name(name: &str) -> Option<Workload> {
    ALL.into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_is_figures_all() {
        let registry: Vec<&str> = fiveg_bench::experiments::registry()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(QUIET.ids, registry.as_slice());
    }

    #[test]
    fn net_and_chaos_ids_are_registry_experiments() {
        let registry = fiveg_bench::experiments::registry();
        for id in NET.ids.iter().chain(CHAOS.ids) {
            assert!(registry.iter().any(|(r, _)| r == id), "{id}");
        }
    }

    #[test]
    fn only_quiet_and_net_are_named() {
        assert_eq!(by_name("quiet").map(|w| w.name), Some("quiet"));
        assert_eq!(by_name("net").map(|w| w.name), Some("net"));
        assert!(by_name("chaos").is_none());
    }
}
