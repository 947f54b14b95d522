//! Elastic-training integration tests: measured-cost adaptive replanning.
//!
//! The ISSUE acceptance criterion for the replanner: under an injected
//! straggler, the re-run Algorithm-4 greedy split must move at least one
//! dependency from communicated (`C_i^l`) to cached (`R_i^l`) for the
//! slow peer. This drives the whole feedback chain end to end — per-peer
//! receive-wait histograms → robust median attribution → calibrated
//! `CostFactors` + per-owner multipliers → greedy re-split → decision
//! diff — over the real threaded executor.

use ns_gnn::{GnnModel, ModelKind};
use ns_graph::datasets::by_name;
use ns_graph::Dataset;
use ns_net::fault::{parse_fault, Fault, FaultPlan};
use ns_net::ClusterSpec;
use ns_runtime::{EngineKind, RecoveryConfig, Trainer, TrainerConfig};
use std::sync::{Mutex, PoisonError};

/// The replan trigger reads wall-clock receive waits; running both tests
/// concurrently makes them each other's stragglers. Serialize them.
static SERIAL: Mutex<()> = Mutex::new(());

fn dataset() -> Dataset {
    by_name("google").unwrap().materialize(0.002, 11)
}

fn model(ds: &Dataset) -> GnnModel {
    GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 32, ds.num_classes, 5)
}

/// Known-intermittent until the chaos suite runs on a virtual clock
/// (ROADMAP item 5(c)): drift is judged from wall-clock receive waits, so
/// a loaded host can hide the injected 30 ms straggler ("a 30ms straggler
/// must trigger at least one drift replan"). On 2 vCPUs it has failed up
/// to one whole-binary debug run in twenty.
#[test]
fn straggler_shifts_its_dependencies_toward_caching() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let ds = dataset();
    let m = model(&ds);
    let mut cfg = TrainerConfig::new(EngineKind::Hybrid, ClusterSpec::aliyun_ecs(3));
    cfg.fault = FaultPlan::default().with_fault(Fault::Straggle {
        worker: 1,
        delay_ms: 30,
    });
    cfg.recovery = RecoveryConfig::every(2);
    let report = Trainer::prepare(&ds, &m, cfg).unwrap().train(6).unwrap();

    assert_eq!(report.epochs.len(), 6);
    assert!(report.final_loss().is_finite());
    assert!(
        !report.replans.is_empty(),
        "a 30ms straggler must trigger at least one drift replan"
    );

    let first = &report.replans[0];
    assert_eq!(first.reason, "drift");
    let max_mult = first
        .peer_mult
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        (first.peer_mult[1] - max_mult).abs() < 1e-12,
        "the straggling peer must carry the largest multiplier: {:?}",
        first.peer_mult
    );
    assert!(
        first.peer_mult[1] >= 2.0,
        "straggler multiplier must cross the replan trigger: {:?}",
        first.peer_mult
    );
    assert!(
        first.moved_to_cached[1] >= 1,
        "replan must move >= 1 dependency owned by the slow peer from \
         communicated to cached: {:?}",
        first.moved_to_cached
    );

    // Metrics mirror the replan events.
    let coord = report
        .metrics
        .frames
        .get(&ns_metrics::COORDINATOR)
        .expect("coordinator frame");
    assert!(coord.counter("replan.events") >= report.replans.len() as u64);
    assert!(coord.counter("replan.moved_to_cached") >= 1);
}

/// Known-intermittent until the chaos suite runs on a virtual clock
/// (ROADMAP item 5(c)): eviction is judged from wall-clock receive waits,
/// so on a loaded host the flapped worker is sometimes not singled out
/// ("the flapped worker must be evicted as a straggler: []"). On 2 vCPUs
/// it has failed up to two whole-binary debug runs in twenty.
#[test]
fn flap_partitioned_worker_is_evicted_heals_and_rejoins() {
    // A worker whose every link is flapping (held, not lost, 90% of each
    // period) is indistinguishable from a straggler to its peers: all
    // receivers' waits on it inflate together. The boundary pass must
    // evict it, which retires its link faults (the modeled replacement
    // host has fresh links), and rejoin must re-admit it at the next
    // checkpoint boundary.
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let ds = dataset();
    let m = model(&ds);
    let mut cfg = TrainerConfig::new(EngineKind::DepComm, ClusterSpec::aliyun_ecs(3));
    // duty 1.0 = no up-window: every message is held to the next period
    // boundary (~30ms), the link-level twin of a 30ms straggler. Lower
    // duties let ping-pong traffic synchronize into the short up-windows
    // and tunnel through with almost no measured wait.
    cfg.fault = FaultPlan::default()
        .with_fault(parse_fault("flap:w0-w1:30ms:1").unwrap())
        .with_fault(parse_fault("flap:w1-w2:30ms:1").unwrap());
    cfg.recovery = RecoveryConfig::every(2)
        .with_rejoin()
        .with_straggler_eviction();
    let report = Trainer::prepare(&ds, &m, cfg).unwrap().train(6).unwrap();

    assert_eq!(report.epochs.len(), 6);
    assert!(report.final_loss().is_finite());
    // The flap actually bit (messages were held) ...
    assert!(
        report.metrics.total_counter("net.fault.delays") > 0,
        "flapped links must inject hold delays"
    );
    assert!(
        report.recoveries.is_empty(),
        "a flapped (not killed) worker must not burn restart budget: {:?}",
        report.recoveries
    );
    let kinds: Vec<_> = report.membership.iter().map(|e| e.kind).collect();
    assert!(
        kinds.contains(&ns_net::MembershipEventKind::Evicted),
        "the flapped worker must be evicted as a straggler: {kinds:?}"
    );
    assert_eq!(
        report.membership[0].worker, 1,
        "the flapped slot is the one evicted"
    );
    assert_eq!(
        kinds.last(),
        Some(&ns_net::MembershipEventKind::Rejoined),
        "the evicted member re-admits once its links are retired: {kinds:?}"
    );
}

#[test]
fn healthy_run_never_replans() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let ds = dataset();
    let m = model(&ds);
    let mut cfg = TrainerConfig::new(EngineKind::Hybrid, ClusterSpec::aliyun_ecs(3));
    cfg.recovery = RecoveryConfig::every(2);
    let report = Trainer::prepare(&ds, &m, cfg).unwrap().train(4).unwrap();
    assert_eq!(report.epochs.len(), 4);
    assert!(
        report.replans.is_empty(),
        "no drift on a healthy cluster: {:?}",
        report.replans
    );
    assert!(report.membership.is_empty());
}
