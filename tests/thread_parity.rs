//! `--threads` must be a pure wall-clock knob: the intra-worker parallel
//! kernels are partitioned by destination row (DESIGN.md §11), so a run
//! at any thread count is *bit-identical* — same per-epoch losses, same
//! trained parameters, byte-for-byte the same checkpoint. DepComm is the
//! engine under test because its plans do not depend on the probed cost
//! factors (which `--threads` deliberately rescales for Algorithm 4).

use std::sync::Mutex;

use neutronstar::prelude::*;
use neutronstar::tensor::checkpoint;
use ns_graph::datasets::by_name;

/// `ns_par::set_threads` is process-global; serialize the tests that
/// retune it so a concurrent test cannot retune mid-run.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

fn train_with_threads(threads: usize, epochs: usize) -> (TrainingReport, Vec<u8>) {
    let ds = by_name("cora").unwrap().materialize(0.25, 11);
    let model = GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, 5);
    let report = TrainingSession::builder()
        .engine(EngineKind::DepComm)
        .cluster(ClusterSpec::aliyun_ecs(3))
        .threads(threads)
        .build(&ds, &model)
        .expect("build")
        .train(epochs)
        .expect("train");
    let mut bytes = Vec::new();
    checkpoint::save(&report.final_params, None, &mut bytes).expect("serialize checkpoint");
    (report, bytes)
}

#[test]
fn one_thread_and_four_threads_are_bit_identical() {
    let _g = serial();
    let (seq, seq_ckpt) = train_with_threads(1, 2);
    let (par, par_ckpt) = train_with_threads(4, 2);

    assert_eq!(seq.epochs.len(), par.epochs.len());
    for (a, b) in seq.epochs.iter().zip(par.epochs.iter()) {
        assert_eq!(a.loss, b.loss, "epoch {} loss must match bitwise", a.epoch);
        assert_eq!(a.train_acc, b.train_acc);
        assert_eq!(a.val_acc, b.val_acc);
        assert_eq!(a.test_acc, b.test_acc);
    }
    assert_eq!(seq_ckpt, par_ckpt, "checkpoint bytes must be identical");
    // The adjoint kernels skip the same exactly-zero gradient rows at any
    // thread count, and the loss's unlabelled rows give them some.
    let zero_rows = |r: &TrainingReport| r.metrics.total_counter("compute.bwd_zero_rows");
    assert_eq!(zero_rows(&seq), zero_rows(&par));
    assert!(zero_rows(&seq) > 0);
}

#[test]
fn parallel_run_actually_engages_the_pool() {
    let _g = serial();
    let (par, _) = train_with_threads(4, 1);
    // Each of the 3 workers records the configured thread count once.
    assert_eq!(par.metrics.total_counter("compute.threads"), 3 * 4);
    // The lock-free enqueue path moved every dependency row.
    assert!(par.metrics.total_counter("net.enqueue.rows") > 0);
}
