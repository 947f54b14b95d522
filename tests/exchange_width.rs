//! Exact traffic of a narrowing GCN layer: above layer 0 the owner
//! multiplies its rows by `W` before the exchange, so layer 1's rows and
//! their gradients cross the wire at `out_dim`, not `in_dim`. Every count
//! below is a closed form over the compiled plans, under DepComm and under
//! Hybrid; only the width of layer 1's rows depends on where `H·W` runs.

use neutronstar::prelude::*;
use ns_graph::datasets::by_name;
use ns_net::fabric::ROWS_HEADER_BYTES;
use ns_runtime::plan::WorkerPlan;

const WORKERS: usize = 2;
const EPOCHS: u64 = 3;

/// Wire bytes and messages of one exchange that sends `ids[j]` to each
/// peer `j`, `cols` floats per row plus its 4-byte id.
fn traffic(ids: &[Vec<u32>], cols: usize) -> (u64, u64) {
    let sends = ids.iter().filter(|ids| !ids.is_empty());
    let bytes = |ids: &Vec<u32>| ROWS_HEADER_BYTES + (ids.len() * (cols * 4 + 4)) as u64;
    (sends.clone().map(bytes).sum(), sends.count() as u64)
}

fn check(engine: EngineKind) {
    let ds = by_name("cora").unwrap().materialize(0.2, 7);
    let model = GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 32, ds.num_classes, 3);
    let dims = model.dims().to_vec();
    assert!(dims[2] < dims[1], "layer 1 must narrow: {dims:?}");
    let session = TrainingSession::builder()
        .engine(engine)
        .cluster(ClusterSpec::aliyun_ecs(WORKERS))
        .build(&ds, &model)
        .expect("plan");
    let plans = session.trainer().plans();
    let report = session.train(EPOCHS as usize).expect("train");
    let fetched_l1: usize = plans.iter().map(|p| p.layers[1].recv_row_count()).sum();
    assert!(fetched_l1 > 0, "{engine:?}: layer 1 must communicate rows");
    let cached = report.plan.prefetched_features + report.plan.replica_slots > 0;
    assert_eq!(cached, engine == EngineKind::Hybrid, "{engine:?}: Hybrid also caches");
    let comm_rows: usize = plans.iter().map(WorkerPlan::forward_comm_rows).sum();
    assert_eq!(report.plan.comm_rows_per_epoch, comm_rows, "{engine:?}");
    for (w, plan) in plans.iter().enumerate() {
        let count = |key: &str| report.metrics.frames[&w].counter(key);
        let what = format!("{engine:?} worker {w}");
        let (l0, l1) = (&plan.layers[0], &plan.layers[1]);
        // Layer 0's rows (features) go once per plan, layer 1's every
        // epoch; layer 1's gradients go back every epoch. Both of layer
        // 1's directions move `H·W` rows, `dims[2]` wide.
        let (l0_bytes, l0_msgs) = traffic(&l0.send_ids, dims[0]);
        let (l1_bytes, l1_msgs) = traffic(&l1.send_ids, dims[2]);
        let (g_bytes, g_msgs) = traffic(&l1.recv_ids, dims[2]);
        assert_eq!(count("net.sent.bytes.rows"), l0_bytes + EPOCHS * l1_bytes, "{what}");
        assert_eq!(count("net.sent.bytes.grads"), EPOCHS * g_bytes, "{what}");
        assert_eq!(count("net.sent.msgs.rows"), l0_msgs + EPOCHS * l1_msgs, "{what}");
        assert_eq!(count("net.sent.msgs.grads"), EPOCHS * g_msgs, "{what}");
        // Rows assembled: layer 0 in the first epoch only, layer 1 in all.
        let fetched = (l0.recv_row_count() as u64, l1.recv_row_count() as u64);
        let local = (l0.local_src.len() as u64, l1.local_src.len() as u64);
        assert_eq!(count("dep.rows.fetched"), fetched.0 + EPOCHS * fetched.1, "{what}");
        assert_eq!(count("dep.rows.local"), local.0 + EPOCHS * local.1, "{what}");
        let reused = (EPOCHS - 1) * l0.input_ids.len() as u64;
        assert_eq!(count("dep.rows.reused"), reused, "{what}");
        assert_eq!(count("dep.rows.cached"), plan.prefetched_features() as u64, "{what}");
    }
}

#[test]
fn depcomm_exchanges_layer_1_at_its_output_width() {
    check(EngineKind::DepComm);
}

#[test]
fn hybrid_exchanges_layer_1_at_its_output_width() {
    check(EngineKind::Hybrid);
}
