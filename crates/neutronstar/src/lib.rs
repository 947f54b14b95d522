//! # NeutronStar — distributed GNN training with hybrid dependency management
//!
//! A from-scratch Rust reproduction of *NeutronStar: Distributed GNN
//! Training with Hybrid Dependency Management* (SIGMOD 2022). GNN training
//! must resolve **vertex dependencies** — each vertex's representation
//! update needs its in-neighbors' representations. Existing distributed
//! systems either **cache** every worker's k-hop dependency neighborhood
//! locally (redundant computation, zero per-epoch communication — the
//! DistDGL family) or **communicate** boundary representations every layer
//! (zero redundancy, per-epoch communication — the ROC family).
//! NeutronStar's contribution is a per-dependency cost model that mixes
//! both treatments, plus a set of runtime optimizations (ring-scheduled
//! source-chunked communication, communication/computation overlap,
//! lock-free message enqueuing) that this crate reproduces end to end.
//!
//! ## Quickstart
//!
//! ```
//! use neutronstar::prelude::*;
//!
//! // A scaled-down instance of the paper's Google web graph (R-MAT stand-in).
//! let dataset = DatasetSpec::named("google").unwrap().materialize(0.001, 42);
//! let model = GnnModel::two_layer(
//!     ModelKind::Gcn,
//!     dataset.feature_dim(),
//!     dataset.hidden_dim,
//!     dataset.num_classes,
//!     7,
//! );
//! let session = TrainingSession::builder()
//!     .engine(EngineKind::Hybrid)
//!     .cluster(ClusterSpec::aliyun_ecs(4))
//!     .build(&dataset, &model)
//!     .unwrap();
//! let report = session.train(3).unwrap();
//! assert_eq!(report.epochs.len(), 3);
//! println!(
//!     "per-epoch: {:.4}s simulated, final loss {:.4}",
//!     report.sim.epoch_seconds,
//!     report.final_loss()
//! );
//! ```
//!
//! ## Crate map
//!
//! | layer | crate | role |
//! |---|---|---|
//! | facade | `neutronstar` | this API + the `nts` CLI (train / simulate / probe / chaos / serve) |
//! | engines | `ns-runtime` | DepCache / DepComm / Hybrid (Algorithms 2–4), executor, task graphs, checkpoint store, serving |
//! | models | `ns-gnn` | GCN / GIN / GAT in the decoupled graph-op / NN-op flow (Fig. 6) |
//! | fabric | `ns-net` | worker channels, lock-free buffers, fault plans, discrete-event cluster simulator |
//! | graphs | `ns-graph` | CSC/CSR storage, Table 2 dataset registry, partitioners, k-hop closures |
//! | tensors | `ns-tensor` | dense tensors + tape autograd (the PyTorch role) |
//! | threads | `ns-par` | intra-worker thread pool + lock-free work queues |
//! | baselines | `ns-baselines` | DistDGL-like, ROC-like, DGL/PyG-like comparisons |
//! | metrics | `ns-metrics` | phase timers, counters, trace/JSON sinks (`docs/OBSERVABILITY.md`) |
//! | bench | `bench` | the `experiments` driver: every paper table/figure as golden JSON under `results/` |

pub use ns_baselines as baselines;
pub use ns_gnn as gnn;
pub use ns_graph as graph;
pub use ns_metrics as metrics;
pub use ns_net as net;
pub use ns_runtime as runtime;
pub use ns_tensor as tensor;

pub mod chaos;
pub mod cli;
pub mod session;

pub use session::{SessionBuilder, TrainingSession};

/// The types most programs need.
pub mod prelude {
    pub use crate::session::{SessionBuilder, TrainingSession};
    pub use ns_gnn::{GnnModel, ModelKind};
    pub use ns_graph::{Dataset, Partitioner};
    pub use ns_net::{ClusterSpec, ExecOptions};
    pub use ns_runtime::{EngineKind, HybridConfig, RuntimeError, TrainingReport};

    /// Re-export of the dataset registry with an ergonomic lookup.
    pub use crate::DatasetSpec;
}

/// Ergonomic wrapper around the Table 2 dataset registry.
#[derive(Debug, Clone)]
pub struct DatasetSpec(pub ns_graph::datasets::DatasetSpec);

impl DatasetSpec {
    /// Looks a dataset up by its paper name (`google`, `pokec`,
    /// `livejournal`, `reddit`, `orkut`, `wikilink`, `twitter`, `cora`,
    /// `citeseer`, `pubmed`).
    pub fn named(name: &str) -> Option<Self> {
        ns_graph::datasets::by_name(name).map(Self)
    }

    /// All registered datasets.
    pub fn all() -> Vec<Self> {
        ns_graph::datasets::registry().into_iter().map(Self).collect()
    }

    /// Materializes a scaled synthetic instance (see
    /// [`ns_graph::datasets::DatasetSpec::materialize`]).
    pub fn materialize(&self, scale: f64, seed: u64) -> ns_graph::Dataset {
        self.0.materialize(scale, seed)
    }
}

impl std::ops::Deref for DatasetSpec {
    type Target = ns_graph::datasets::DatasetSpec;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_lookup_works() {
        assert!(DatasetSpec::named("reddit").is_some());
        assert!(DatasetSpec::named("no-such-graph").is_none());
        assert_eq!(DatasetSpec::all().len(), 10);
        let spec = DatasetSpec::named("cora").unwrap();
        assert_eq!(spec.num_classes, 7);
    }
}
