//! The high-level training session builder.

use ns_gnn::GnnModel;
use ns_graph::{Dataset, Partitioner};
use ns_net::fault::FaultPlan;
use ns_net::{ClusterSpec, ExecOptions};
use ns_runtime::trainer::{SimSummary, Trainer, TrainerConfig};
use ns_runtime::{
    EngineKind, HybridConfig, RecoveryConfig, RuntimeError, TrainingReport, VertexWeight,
};

/// Builder for a [`TrainingSession`].
///
/// Mirrors the knobs the paper exposes: engine (DepCache / DepComm /
/// Hybrid), graph partitioner (chunk / metis-like / fennel), cluster
/// (Aliyun ECS or IBV presets, any worker count), and the three system
/// optimizations of Fig. 9.
///
/// Every run is metered: the returned
/// [`TrainingReport::metrics`](ns_runtime::TrainingReport) carries
/// per-worker phase timings, traffic counters, and trace spans that the
/// `ns-metrics` sinks render as a summary table, JSON, or a Chrome
/// trace (see `docs/OBSERVABILITY.md`).
///
/// ```
/// use neutronstar::prelude::*;
///
/// let dataset = DatasetSpec::named("cora").unwrap().materialize(0.2, 3);
/// let model = neutronstar::gnn::GnnModel::two_layer(
///     neutronstar::gnn::ModelKind::Gcn,
///     dataset.feature_dim(),
///     16,
///     dataset.num_classes,
///     1,
/// );
/// let session = TrainingSession::builder()
///     .engine(EngineKind::Hybrid)
///     .cluster(ClusterSpec::aliyun_ecs(2))
///     .build(&dataset, &model)
///     .unwrap();
/// let report = session.train(2).unwrap();
///
/// // Per-worker frames plus the coordinator-free run summary.
/// assert_eq!(report.metrics.worker_ids(), vec![0, 1]);
/// assert!(report.metrics.total_counter("net.sent.bytes") > 0);
/// let json = neutronstar::metrics::to_json(&report.metrics);
/// assert!(json.contains("\"schema\""));
/// ```
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    cfg: TrainerConfig,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        let mut cfg = TrainerConfig::new(EngineKind::Hybrid, ClusterSpec::aliyun_ecs(4));
        cfg.vertex_weight = VertexWeight::ModelFlops;
        Self { cfg }
    }
}

impl SessionBuilder {
    /// Dependency engine (default: Hybrid).
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.cfg.engine = engine;
        self
    }

    /// Graph partitioner (default: chunk-based, balancing the model's
    /// FLOPs: a session exists to execute, so it prices a vertex at
    /// [`VertexWeight::ModelFlops`] where a bare `TrainerConfig::new`
    /// keeps the paper's unit weight).
    pub fn partitioner(mut self, partitioner: Partitioner) -> Self {
        self.cfg.partitioner = partitioner;
        self
    }

    /// Cluster model (default: 4-worker Aliyun ECS preset).
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cfg.cluster = cluster;
        self
    }

    /// System-optimization toggles of the simulated epoch (default: all
    /// enabled; the executor always runs all three).
    pub fn optimizations(mut self, opts: ExecOptions) -> Self {
        self.cfg.opts = opts;
        self
    }

    /// Adam's learning rate (default: 0.01).
    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.cfg.lr = lr;
        self
    }

    /// Hybrid-engine knobs (memory budget, Fig. 11 ratio override).
    pub fn hybrid(mut self, hybrid: HybridConfig) -> Self {
        self.cfg.hybrid = hybrid;
        self
    }

    /// Disable the projected device-memory check (useful for what-if runs
    /// of engines the modeled device could not actually hold).
    pub fn without_memory_check(mut self) -> Self {
        self.cfg.enforce_memory = false;
        self
    }

    /// Deterministic fault injection (default: no faults).
    pub fn faults(mut self, fault: FaultPlan) -> Self {
        self.cfg.fault = fault;
        self
    }

    /// Checkpoint/rollback policy (default: disabled — a worker failure
    /// surfaces as [`RuntimeError::WorkerFailed`]).
    pub fn recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.cfg.recovery = recovery;
        self
    }

    /// Persist every checkpoint as a CRC-versioned generation under
    /// `dir` (default: memory-only). Rollbacks then read the durable
    /// store and skip damaged generations — the honest process-restart
    /// path.
    pub fn checkpoint_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cfg.store.dir = Some(dir.into());
        self
    }

    /// How many durable generations to retain (default: 3; clamped to
    /// at least 1). Only meaningful with [`checkpoint_dir`](Self::checkpoint_dir).
    pub fn keep_checkpoints(mut self, k: usize) -> Self {
        self.cfg.store = self.cfg.store.keep(k);
        self
    }

    /// Intra-worker compute threads for the tensor/aggregation kernels
    /// (default: 0 = auto — one thread per available core, capped by the
    /// `ns-par` pool; results are bit-identical at any setting).
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Plans the session (partitioning, dependency decisions, memory
    /// validation, cost probing).
    pub fn build<'a>(
        self,
        dataset: &'a Dataset,
        model: &'a GnnModel,
    ) -> Result<TrainingSession<'a>, RuntimeError> {
        Ok(TrainingSession { trainer: Trainer::prepare(dataset, model, self.cfg)? })
    }
}

/// A planned training session, ready to run.
pub struct TrainingSession<'a> {
    trainer: Trainer<'a>,
}

impl<'a> TrainingSession<'a> {
    /// Starts a builder.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Runs `epochs` epochs of real distributed training (one thread per
    /// modeled worker) and returns numerics plus simulated cluster timing.
    pub fn train(&self, epochs: usize) -> Result<TrainingReport, RuntimeError> {
        self.trainer.train(epochs)
    }

    /// Simulates one epoch on the modeled cluster without training.
    pub fn simulate_epoch(&self) -> SimSummary {
        self.trainer.simulate_epoch()
    }

    /// Access to the underlying trainer (plans, probed costs).
    pub fn trainer(&self) -> &Trainer<'a> {
        &self.trainer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_gnn::ModelKind;
    use ns_graph::datasets::by_name;

    #[test]
    fn builder_roundtrip_trains() {
        let ds = by_name("cora").unwrap().materialize(0.2, 3);
        let model =
            GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, 1);
        let session = TrainingSession::builder()
            .engine(EngineKind::DepComm)
            .cluster(ClusterSpec::aliyun_ecs(2))
            .learning_rate(0.02)
            .build(&ds, &model)
            .unwrap();
        let report = session.train(2).unwrap();
        assert_eq!(report.epochs.len(), 2);
        assert_eq!(report.engine, "DepComm");
    }

    #[test]
    fn builder_wires_fault_and_recovery() {
        let ds = by_name("cora").unwrap().materialize(0.2, 3);
        let model =
            GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, 1);
        let session = TrainingSession::builder()
            .engine(EngineKind::DepComm)
            .cluster(ClusterSpec::aliyun_ecs(3))
            .faults(FaultPlan::kill(2, 1))
            .recovery(RecoveryConfig::every(1))
            .build(&ds, &model)
            .unwrap();
        let report = session.train(3).unwrap();
        assert_eq!(report.epochs.len(), 3);
        assert_eq!(report.recoveries.len(), 1);
    }

    #[test]
    fn builder_wires_durable_checkpoints() {
        let dir = std::env::temp_dir()
            .join(format!("nts-session-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ds = by_name("cora").unwrap().materialize(0.2, 3);
        let model =
            GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, 1);
        let session = TrainingSession::builder()
            .engine(EngineKind::DepComm)
            .cluster(ClusterSpec::aliyun_ecs(2))
            .recovery(RecoveryConfig::every(1))
            .checkpoint_dir(&dir)
            .keep_checkpoints(2)
            .build(&ds, &model)
            .unwrap();
        let report = session.train(3).unwrap();
        assert_eq!(report.epochs.len(), 3);
        let generations: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".ckpt"))
            .collect();
        assert!(
            (1..=2).contains(&generations.len()),
            "retention keeps at most 2 generations, found {generations:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A session executes, so it balances the model's FLOPs; a bare
    /// `TrainerConfig::new` (figures, chaos, `nts simulate`) keeps the
    /// paper's unit weight.
    #[test]
    fn session_prices_vertices_by_model_flops_and_bare_config_by_one() {
        let ds = by_name("twitter").unwrap().materialize(0.0002, 3);
        let model = GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 32, ds.num_classes, 1);
        let cluster = ClusterSpec::aliyun_ecs(2);
        let session = TrainingSession::builder()
            .engine(EngineKind::DepComm)
            .cluster(cluster.clone())
            .without_memory_check()
            .build(&ds, &model)
            .unwrap();
        let plan = session.trainer().plan_summary();
        assert_eq!(plan.vertex_weight, session.trainer().costs().vertex_weight());
        assert_eq!(plan.vertex_weight, 16336.0 / 272.0);

        let mut bare = TrainerConfig::new(EngineKind::DepComm, cluster);
        bare.enforce_memory = false;
        let bare = Trainer::prepare(&ds, &model, bare).unwrap().plan_summary();
        assert_eq!(bare.vertex_weight, 1.0);
        let unit = Partitioner::Chunk.partition(&ds.graph, 2).part_sizes();
        assert_eq!(bare.parts.iter().map(|p| p.vertices).collect::<Vec<_>>(), unit);
        assert!(plan.parts[0].vertices > unit[0], "the hub-heavy first chunk grows");
    }

    #[test]
    fn simulate_without_training() {
        let ds = by_name("cora").unwrap().materialize(0.2, 3);
        let model =
            GnnModel::two_layer(ModelKind::Gat, ds.feature_dim(), 8, ds.num_classes, 1);
        let session = TrainingSession::builder()
            .engine(EngineKind::DepCache)
            .build(&ds, &model)
            .unwrap();
        assert!(session.simulate_epoch().epoch_seconds > 0.0);
    }
}
