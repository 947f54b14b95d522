//! Enforced tensor-pool budget (resource-robustness layer): the
//! `NS_POOL_BYTES` cap is a real ceiling, not advisory. Parked buffers
//! are shed the moment the footprint crosses it, the pressure signal
//! shrinks advised all-reduce chunks, and a full training run under a
//! measured-tight cap completes with its high-water mark at or under
//! the budget. Lives in its own test binary because the pool is
//! process-global state.

use std::sync::Mutex;

use neutronstar::prelude::*;
use neutronstar::tensor::pool;
use ns_graph::datasets::by_name;

/// Pool counters and the budget are process-global; serialize.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores the configured budget even when an assertion panics.
struct RestoreCap;
impl Drop for RestoreCap {
    fn drop(&mut self) {
        pool::set_cap_bytes(pool::default_cap_bytes());
    }
}

#[test]
fn tightening_the_cap_sheds_parked_buffers() {
    let _guard = serial();
    let _restore = RestoreCap;
    // Park a uniquely-sized buffer, then shrink the budget below it:
    // the shed meters must advance and the residency gauge drop.
    let len = 5077; // odd size no other test uses
    pool::recycle(pool::take_scratch(len));
    let before = pool::stats();
    assert!(before.resident_bytes >= (len * 4) as u64);
    pool::set_cap_bytes(1);
    let after = pool::stats();
    assert!(after.shed > before.shed, "shrinking the cap must shed");
    assert!(after.shed_bytes >= before.shed_bytes + (len * 4) as u64);
    assert_eq!(after.resident_bytes, 0, "nothing may stay parked over budget");
}

#[test]
fn pressure_signal_shrinks_advised_chunks() {
    let _guard = serial();
    let _restore = RestoreCap;
    let live = pool::take_scratch(4096); // 16 KiB live
    pool::set_cap_bytes(live.len() * 4); // footprint == cap: pressured
    assert!(pool::under_pressure());
    assert_eq!(pool::advise_chunk(8192), 2048, "pressure quarters the chunk");
    assert_eq!(pool::advise_chunk(20), 16, "floored at one cache line");
    pool::set_cap_bytes(pool::default_cap_bytes());
    assert!(!pool::under_pressure(), "headroom restored with the budget");
    assert_eq!(pool::advise_chunk(8192), 8192);
    pool::recycle(live);
}

#[test]
fn rearming_the_cap_restarts_the_high_water_mark() {
    let _guard = serial();
    let _restore = RestoreCap;
    let a = pool::take_scratch(9111);
    pool::set_cap_bytes(pool::default_cap_bytes());
    let s = pool::stats();
    assert_eq!(
        s.peak_bytes,
        s.in_use_bytes + s.resident_bytes,
        "re-arming must restart the peak from the current footprint"
    );
    let rearmed = s.peak_bytes;
    let b = pool::take_scratch(9113); // distinct size: cannot be a reuse
    assert!(
        pool::stats().peak_bytes >= rearmed + (9113 * 4) as u64,
        "new highs past the re-armed mark are tracked"
    );
    pool::recycle(a);
    pool::recycle(b);
}

#[test]
fn training_under_a_measured_cap_respects_it() {
    let _guard = serial();
    let _restore = RestoreCap;
    let ds = by_name("cora").unwrap().materialize(0.25, 11);
    let model = GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, 5);
    let run = || {
        TrainingSession::builder()
            .engine(EngineKind::DepComm)
            .cluster(ClusterSpec::aliyun_ecs(3))
            .threads(1)
            .build(&ds, &model)
            .unwrap()
            .train(2)
            .unwrap()
    };
    // Measure the clean working set, then re-run under a cap one eighth
    // above it: the enforced budget must hold and the numerics must be
    // unaffected (the low-memory sync path is bit-identical).
    pool::set_cap_bytes(pool::default_cap_bytes());
    let free = run();
    let peak = pool::stats().peak_bytes as usize;
    assert!(peak > 0);
    let cap = peak + peak / 8;
    pool::set_cap_bytes(cap);
    let capped = run();
    let capped_peak = pool::stats().peak_bytes;
    assert!(
        capped_peak <= cap as u64,
        "peak {capped_peak} exceeded the enforced cap {cap}"
    );
    assert_eq!(
        free.final_loss(),
        capped.final_loss(),
        "budget pressure must not change the numerics"
    );
}

#[test]
fn parked_buffers_are_slack_not_pressure() {
    let _guard = serial();
    let _restore = RestoreCap;
    // Park 64 MiB (zero pages, never touched), then arm a budget the
    // footprint fills exactly. Nothing live is near it, and a take that
    // needed the room would shed the parked buffer first — so nobody is
    // asked to degrade.
    let len = 16 << 20;
    pool::recycle(pool::take_scratch(len));
    let s = pool::stats();
    assert!(s.resident_bytes >= (len * 4) as u64);
    pool::set_cap_bytes((s.in_use_bytes + s.resident_bytes) as usize);
    assert!(!pool::under_pressure(), "parked bytes can be given back");
    assert_eq!(pool::advise_chunk(8192), 8192);
    // A live buffer that does not fit beside the parked one evicts it
    // instead of overshooting the budget.
    let live = pool::take_scratch(len + 1);
    let held = pool::stats();
    assert!(held.shed > s.shed, "the take must shed the parked buffer");
    assert!(held.peak_bytes <= held.cap_bytes + ((len + 1) * 4) as u64);
    assert!(pool::under_pressure(), "now the bytes are live");
    pool::recycle(live);
    pool::clear();
}

#[test]
fn serving_returns_every_buffer_it_takes() {
    let _guard = serial();
    let _restore = RestoreCap;
    let ds = by_name("cora").unwrap().materialize(0.25, 11);
    let model = GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, 5);
    let cfg = ns_runtime::ServeConfig { shards: 2, ..Default::default() };
    let deploy =
        ns_runtime::ServeDeployment::new(&ds, &model, model.fresh_store(), cfg).unwrap();
    let n = ds.graph.num_vertices() as u32;
    let seeds: Vec<u32> = (0..500u32).map(|i| (i * 137) % n).collect();
    // Hold a buffer across the run: a drop that subtracts bytes nobody
    // counted as taken then shows as a lower gauge instead of saturating
    // unnoticed at zero.
    let held = pool::take_scratch(1 << 20);
    let before = pool::stats().in_use_bytes;
    let report = deploy.answer_all(&seeds).unwrap();
    assert_eq!(report.answers.len(), seeds.len());
    drop(report);
    assert_eq!(
        pool::stats().in_use_bytes,
        before,
        "serve took and recycled different byte counts"
    );
    pool::recycle(held);
}
