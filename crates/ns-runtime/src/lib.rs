//! The NeutronStar distributed training runtime.
//!
//! This crate implements the paper's three dependency-management engines
//! over real multi-threaded execution:
//!
//! * **DepCache** (Algorithm 2) — every worker caches its partition's full
//!   L-hop in-neighborhood and trains with zero per-epoch dependency
//!   communication, at the price of redundant computation on replicas.
//! * **DepComm** (Algorithm 3) — master–mirror vertex-cut execution:
//!   representations of remote dependencies are fetched each layer
//!   (synchronize-compute) and their gradients pushed back each layer
//!   (compute-synchronize), with zero redundancy.
//! * **Hybrid** (§3, Algorithm 4) — a per-dependency cost model picks, for
//!   every remote dependent neighbor at every layer, whichever of the two
//!   treatments is cheaper, subject to a device-memory budget.
//!
//! All three are expressed as *dependency decisions* compiled by
//! [`plan`] into per-worker [`WorkerPlan`](crate::plan::WorkerPlan)s, and executed
//! by one engine-agnostic executor ([`exec`]). The executor runs one OS
//! thread per worker, moves real tensors over the `ns-net` fabric, and the
//! numerics are therefore identical (up to float summation order) across
//! engines — a property the integration tests assert. Timing on the target
//! cluster comes from [`taskgraph`], which compiles a plan into an
//! `ns-net` task DAG (ring send order, per-chunk overlap dependencies,
//! all-reduce rounds) for the event simulator.
//!
//! Every run is metered by the `ns-metrics` recorder: workers time each
//! phase (dependency exchange, layer compute, gradient sync, optimizer
//! step) and the fabric's traffic counters are folded into the
//! [`TrainingReport`]; [`obs`] bridges
//! the simulator's busy timeline onto the same trace. See
//! `docs/OBSERVABILITY.md` for the full catalog.

pub mod cost;
pub mod error;
pub mod exec;
pub mod feedback;
pub mod hybrid;
pub mod memory;
pub mod obs;
pub mod plan;
pub mod recovery;
pub mod serve;
pub mod store;
pub mod taskgraph;
pub mod trainer;

pub use cost::{parallel_speedup, probe_threaded, CostFactors};
pub use error::{FailureCause, RuntimeError};
pub use exec::RunState;
pub use feedback::{CostCalibration, DecisionDelta, PeerWaitStats};
pub use obs::{sim_breakdown, sim_spans, utilization_trace, SimBreakdown};
pub use hybrid::HybridConfig;
pub use recovery::{Checkpoint, RecoveryConfig};
pub use serve::{ServeConfig, ServeDeployment, ServeError, ServeReport};
pub use store::{CheckpointStore, StoreConfig};
pub use trainer::{
    EngineKind, EpochStats, ReplanEvent, Trainer, TrainerConfig, TrainingReport, VertexWeight,
};

/// Serializes tests that reconfigure the process-global tensor pool (the
/// cap is shared by every test thread in the binary, so concurrent
/// re-arming races otherwise).
#[cfg(test)]
pub(crate) fn pool_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
