//! Benchmarks for the fluid TCP simulation (Fig 3/8 kernels).

use fiveg_bench::runner::Supervisor;
use fiveg_bench::timing::bench;
use fiveg_simcore::attempt::Attempt;
use fiveg_simcore::cancel::CancelToken;
use fiveg_simcore::guard::GuardPolicy;
use fiveg_transport::path::PathModel;
use fiveg_transport::tcp::{measure_throughput, TcpSimConfig};
use std::sync::Arc;
use std::time::Instant;

fn path(rtt_ms: f64, capacity: f64) -> PathModel {
    PathModel {
        rtt_ms,
        loss_per_pkt: 1e-6,
        capacity_mbps: capacity,
        mss_bytes: 1460.0,
        queue_bdp: fiveg_transport::path::DEFAULT_QUEUE_BDP,
    }
}

fn main() {
    bench("tcp_single_15s", || {
        measure_throughput(path(20.0, 2200.0), TcpSimConfig::single_tuned(), 42)
    });
    bench("tcp_multi20_15s", || {
        measure_throughput(path(20.0, 3400.0), TcpSimConfig::multi(20), 42)
    });
    // The same run under the planes a supervised quiet attempt arms (event
    // budget, guard collector, cancel token), so their cost shows beside
    // the bare number.
    let sup = Supervisor::default();
    bench("tcp_multi20_15s_armed", || {
        let token = Arc::new(CancelToken::with_deadline(Instant::now() + sup.deadline));
        let _planes = Attempt::new()
            .budget(sup.event_budget)
            .guards(GuardPolicy::Record)
            .cancel(token)
            .install();
        measure_throughput(path(20.0, 3400.0), TcpSimConfig::multi(20), 42)
    });
}
