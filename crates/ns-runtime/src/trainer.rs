//! High-level training entry point combining planning, simulation, and
//! real execution.

mod supervisor;

use ns_gnn::GnnModel;
use ns_graph::{Dataset, Partitioner, Partitioning};
use ns_metrics::RunMetrics;
use ns_net::fault::FaultPlan;
use ns_net::membership::MembershipEvent;
use ns_net::sim::{simulate, ResourceKind, SimReport};
use ns_net::{ClusterSpec, ExecOptions, SyncMode};

use crate::cost::{probe_threaded, CostFactors};
use crate::error::{Result, RuntimeError};
use crate::exec::DEFAULT_RECV_TIMEOUT_MS;
use crate::hybrid::{partition_dependencies, HybridConfig, HybridInfo};
use crate::memory::check_device_fit;
use crate::plan::{build_plans, DepDecision, WorkerPlan};
use crate::recovery::RecoveryConfig;
use crate::store::StoreConfig;
use crate::taskgraph::build_epoch_task_graph;
use supervisor::Supervisor;

/// Which dependency-management engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Algorithm 2: cache all dependencies.
    DepCache,
    /// Algorithm 3: communicate all dependencies.
    DepComm,
    /// Algorithm 4: cost-based mix.
    Hybrid,
}

impl EngineKind {
    /// Name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::DepCache => "DepCache",
            EngineKind::DepComm => "DepComm",
            EngineKind::Hybrid => "Hybrid",
        }
    }
}

/// What one owned vertex costs the chunk partitioner, in in-edges
/// (Gemini's α in `α·|V_i| + |E_i|`; DESIGN.md §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VertexWeight {
    /// α = 1, Gemini's and the paper's chunking: right for the modelled
    /// GPU cluster, where edges dominate an epoch, and so what every
    /// simulator-facing configuration keeps.
    Unit,
    /// α = [`CostFactors::vertex_weight`], the model's vertex FLOPs over
    /// its edge FLOPs: balances the epoch this executor runs, where a
    /// vertex's dense rows cost tens to hundreds of edges. Chosen by the
    /// entry points that execute (`SessionBuilder::build`, `nts train`).
    ModelFlops,
}

/// Full trainer configuration.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Dependency engine.
    pub engine: EngineKind,
    /// Graph partitioner.
    pub partitioner: Partitioner,
    /// The chunk partitioner's vertex weight (the other partitioners cap
    /// vertex counts and ignore it).
    pub vertex_weight: VertexWeight,
    /// Modeled cluster.
    pub cluster: ClusterSpec,
    /// System-optimization toggles (ring / lock-free / overlap): inputs of
    /// the simulated epoch only; the executor always runs all three.
    pub opts: ExecOptions,
    /// Adam's learning rate.
    pub lr: f32,
    /// Hybrid-engine knobs.
    pub hybrid: HybridConfig,
    /// ROC-like whole-partition broadcast (used by the baselines crate).
    pub broadcast_full_partition: bool,
    /// Gradient synchronization pattern of the simulated epoch (the
    /// executor always runs the ring all-reduce).
    pub sync: SyncMode,
    /// Enforce the projected device-memory check (on by default; the
    /// engine-equivalence tests disable it to run any engine anywhere).
    pub enforce_memory: bool,
    /// Deterministic fault injection (empty by default).
    pub fault: FaultPlan,
    /// Checkpoint/rollback policy (disabled by default).
    pub recovery: RecoveryConfig,
    /// Durable checkpoint store (in-memory only by default). When a
    /// directory is configured, every checkpoint boundary also persists a
    /// verified on-disk generation, and rollbacks read the store — the
    /// honest process-restart path, including its CRC fallback chain.
    pub store: StoreConfig,
    /// How long one executor receive waits for a peer's message before
    /// the peer is declared failed, in milliseconds (default 15 000).
    pub recv_timeout_ms: u64,
    /// Intra-worker compute threads for the `ns-par` pool (0 = auto:
    /// keep the pool's current/default size). Applied in
    /// [`Trainer::prepare`], so the cost probe sees the same thread
    /// count the tensor kernels will run with.
    pub threads: usize,
}

impl TrainerConfig {
    /// A sensible default configuration for `engine` on `cluster`.
    pub fn new(engine: EngineKind, cluster: ClusterSpec) -> Self {
        Self {
            engine,
            partitioner: Partitioner::Chunk,
            vertex_weight: VertexWeight::Unit,
            cluster,
            opts: ExecOptions::all(),
            lr: 0.01,
            hybrid: HybridConfig::default(),
            broadcast_full_partition: false,
            sync: SyncMode::AllReduce,
            enforce_memory: true,
            fault: FaultPlan::default(),
            recovery: RecoveryConfig::default(),
            store: StoreConfig::default(),
            recv_timeout_ms: DEFAULT_RECV_TIMEOUT_MS,
            threads: 0,
        }
    }
}

/// Per-epoch numeric results.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Epoch index.
    pub epoch: usize,
    /// Cluster-wide mean training loss.
    pub loss: f64,
    /// Training accuracy.
    pub train_acc: f64,
    /// Validation accuracy.
    pub val_acc: f64,
    /// Test accuracy.
    pub test_acc: f64,
    /// Wall-clock seconds of the slowest worker (this machine).
    pub wall_s: f64,
}

/// Simulated timing of one epoch on the modeled cluster. Identical for
/// every epoch (GNN training repeats the same dependency pattern), so it
/// is computed once.
#[derive(Debug, Clone)]
pub struct SimSummary {
    /// Seconds per epoch on the modeled cluster.
    pub epoch_seconds: f64,
    /// Bytes moved per epoch (dependencies + gradients + all-reduce).
    pub bytes_per_epoch: u64,
    /// Compute FLOPs per epoch.
    pub flops_per_epoch: u64,
    /// Mean device (GPU) utilization over the epoch.
    pub device_utilization: f64,
    /// Mean egress-NIC utilization over the epoch.
    pub nic_utilization: f64,
    /// The full event-level report (busy intervals, ingress events) for
    /// utilization plots.
    pub report: SimReport,
}

/// What the partition gave one worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartLoad {
    /// Owned vertices `|V_i|`.
    pub vertices: usize,
    /// In-edges of the owned vertices `|E_i|`.
    pub in_edges: usize,
    /// This worker's share of the epoch's priced FLOPs,
    /// `Σ_l (vertex_total_l·|V_i| + edge_total_l·|E_i|)` over the same sum
    /// for all workers: `1 / workers` when the partition balances the
    /// model's work.
    pub flop_share: f64,
}

/// Plan-level statistics.
#[derive(Debug, Clone)]
pub struct PlanSummary {
    /// The vertex weight the graph was partitioned with.
    pub vertex_weight: f64,
    /// Per-worker share of the graph under the run's initial partition.
    pub parts: Vec<PartLoad>,
    /// Replica compute slots across workers (redundant computation).
    pub replica_slots: usize,
    /// Features prefetched beyond owned partitions.
    pub prefetched_features: usize,
    /// Dependency rows the plan communicates in the forward direction,
    /// all layers: what the first epoch under the plan receives. Later
    /// epochs reuse layer 0's (`dep.rows.fetched` is the measured figure).
    pub comm_rows_per_epoch: usize,
    /// Hybrid partitioning statistics when the Hybrid engine ran.
    pub hybrid: Option<HybridInfo>,
}

/// One measured-cost adaptive replan performed at a checkpoint boundary.
#[derive(Debug, Clone)]
pub struct ReplanEvent {
    /// Checkpoint-boundary epoch the replan took effect at.
    pub epoch: usize,
    /// What triggered it (currently always `"drift"`: the measured
    /// receive-wait statistics crossed the replan thresholds).
    pub reason: &'static str,
    /// Global `T_c` multiplier applied (mean-wait drift vs the run's
    /// first chunk).
    pub comm_factor: f64,
    /// Per-peer communication multipliers fed into Algorithm 4.
    pub peer_mult: Vec<f64>,
    /// Per-owner dependencies that migrated from communicated (`C_i^l`)
    /// to cached (`R_i^l`) relative to the previous plan.
    pub moved_to_cached: Vec<usize>,
    /// Per-owner dependencies that migrated the other way.
    pub moved_to_comm: Vec<usize>,
    /// Engine the replan compiled (Hybrid unless it degraded).
    pub engine: String,
}

/// Everything a training run produces.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Engine that ran.
    pub engine: String,
    /// Dataset name.
    pub dataset: String,
    /// Model name.
    pub model: String,
    /// Number of workers.
    pub workers: usize,
    /// Per-epoch numeric results.
    pub epochs: Vec<EpochStats>,
    /// Simulated per-epoch timing.
    pub sim: SimSummary,
    /// Plan statistics.
    pub plan: PlanSummary,
    /// Trained parameters (identical on every worker after the final
    /// synchronized step). Checkpoint with `ns_tensor::checkpoint::save`.
    pub final_params: ns_tensor::ParamStore,
    /// Recovery events: `(failed_worker, rollback_epoch, engine_after)`
    /// for every rollback-and-resume the run performed. Empty for clean
    /// runs and for runs without recovery enabled.
    pub recoveries: Vec<(usize, usize, String)>,
    /// Membership transitions (failures, straggler evictions, rejoins),
    /// in order, attributed to original worker slots. Empty unless
    /// recovery is enabled.
    pub membership: Vec<MembershipEvent>,
    /// Measured-cost adaptive replans performed at checkpoint
    /// boundaries.
    pub replans: Vec<ReplanEvent>,
    /// Observability data for the whole run: one merged frame per worker
    /// (phase spans, layer graph/NN splits, fabric traffic meters), a
    /// coordinator frame with checkpoint/rollback activity, and the
    /// simulated-epoch busy timeline. Render with
    /// [`ns_metrics::summary_table`], [`ns_metrics::to_json`], or
    /// [`ns_metrics::to_chrome_trace`].
    pub metrics: RunMetrics,
}

impl TrainingReport {
    /// Simulated seconds to run `n` epochs.
    pub fn simulated_seconds(&self, n: usize) -> f64 {
        self.sim.epoch_seconds * n as f64
    }

    /// Final test accuracy.
    pub fn final_test_acc(&self) -> f64 {
        self.epochs.last().map_or(0.0, |e| e.test_acc)
    }

    /// Final loss.
    pub fn final_loss(&self) -> f64 {
        self.epochs.last().map_or(f64::NAN, |e| e.loss)
    }
}

/// The one place a training partition is made: the first plan, every
/// replan on survivors or rejoiners, and the drift replanner's owner
/// attribution all read what this returns, so they cannot disagree about
/// who owns a vertex.
fn training_partition(
    dataset: &Dataset,
    cfg: &TrainerConfig,
    vertex_weight: f64,
    workers: usize,
) -> Result<Partitioning> {
    if workers == 0 {
        return Err(RuntimeError::InvalidConfig("zero workers".into()));
    }
    Ok(cfg.partitioner.partition_weighted(&dataset.graph, workers, vertex_weight))
}

/// Compiles per-worker plans for `engine` over the partitions of `part`,
/// including the Hybrid budget-shrink loop and the device-memory check.
/// Factored out of [`Trainer::prepare`] so the recovery path can replan
/// on the surviving topology (and, if needed, on a degraded engine).
/// `peer_mult` is the measured per-owner communication multiplier fed
/// back by the adaptive replanner (`None` outside drift replans).
fn plan_engine(
    dataset: &Dataset,
    model: &GnnModel,
    cfg: &TrainerConfig,
    engine: EngineKind,
    part: &Partitioning,
    costs: &CostFactors,
    peer_mult: Option<&[f64]>,
) -> Result<(Vec<WorkerPlan>, Option<HybridInfo>, DepDecision)> {
    // Algorithm 4 under a caching budget of `budget` bytes.
    let split = |budget: u64| {
        partition_dependencies(
            &dataset.graph,
            part,
            model.dims(),
            costs,
            dataset.scale,
            cfg.cluster.device.mem_bytes,
            &HybridConfig {
                memory_budget_bytes: Some(budget),
                ratio_override: cfg.hybrid.ratio_override,
                peer_comm_mult: peer_mult.map(<[f64]>::to_vec),
            },
        )
    };
    let (decision, hybrid_info) = match engine {
        EngineKind::DepCache => (DepDecision::CacheAll, None),
        EngineKind::DepComm => (DepDecision::CommAll, None),
        EngineKind::Hybrid => {
            let budget = if cfg.enforce_memory {
                cfg.hybrid.memory_budget_bytes.unwrap_or(cfg.cluster.device.mem_bytes)
            } else {
                u64::MAX
            };
            let (d, info) = split(budget)?;
            (d, Some(info))
        }
    };
    let check = |plans: &[WorkerPlan]| -> Result<()> {
        if !cfg.enforce_memory {
            return Ok(());
        }
        // DepCache materializes whole layers (no chunk streaming);
        // the chunk-based engines stream edge tensors.
        let chunked = engine != EngineKind::DepCache;
        let edge_widths: Vec<usize> = (0..model.num_layers())
            .map(|lz| model.layer(lz).edge_tensor_width())
            .collect();
        check_device_fit(
            engine.name(),
            plans,
            model.dims(),
            &edge_widths,
            chunked,
            dataset.scale,
            cfg.cluster.device.mem_bytes,
        )
    };
    let plans = build_plans(&dataset.graph, part, model.num_layers(), &decision)?;
    let Err(first_err) = check(&plans) else {
        return Ok((plans, hybrid_info, decision));
    };
    // Algorithm 4's internal memory estimate is deliberately coarse (it
    // accrues subtree bytes, not the full working set). When the compiled
    // plan still exceeds the device in *automatic* hybrid mode, shrink the
    // caching budget and re-partition — the paper's constraint S is
    // exactly this knob. Ratio-override mode (Fig. 11) and the pure
    // engines surface the OOM instead, as the paper's tables do.
    if engine != EngineKind::Hybrid || cfg.hybrid.ratio_override.is_some() {
        return Err(first_err);
    }
    let mut budget = cfg.cluster.device.mem_bytes / 2;
    for _ in 0..6 {
        let (decision, info) = split(budget)?;
        let plans = build_plans(&dataset.graph, part, model.num_layers(), &decision)?;
        if check(&plans).is_ok() {
            return Ok((plans, Some(info), decision));
        }
        budget /= 2;
    }
    Err(first_err)
}

/// The distributed trainer: plans once, simulates once, then trains for
/// real.
pub struct Trainer<'a> {
    dataset: &'a Dataset,
    model: &'a GnnModel,
    cfg: TrainerConfig,
    /// `cfg.vertex_weight`, resolved against the probed model.
    vertex_weight: f64,
    part: Partitioning,
    plans: Vec<WorkerPlan>,
    costs: CostFactors,
    hybrid_info: Option<HybridInfo>,
    decision: DepDecision,
}

impl<'a> Trainer<'a> {
    /// Plans the run: partitions the graph, resolves the dependency
    /// decision for the chosen engine, validates memory, and probes cost
    /// factors. Returns `DeviceOom` when the engine cannot fit the
    /// dataset at paper scale (e.g. DepCache on dense graphs).
    pub fn prepare(
        dataset: &'a Dataset,
        model: &'a GnnModel,
        cfg: TrainerConfig,
    ) -> Result<Self> {
        ns_par::set_threads(cfg.threads);
        let costs = probe_threaded(model, &cfg.cluster, ns_par::threads());
        let vertex_weight = match cfg.vertex_weight {
            VertexWeight::Unit => 1.0,
            VertexWeight::ModelFlops => costs.vertex_weight(),
        };
        let part = training_partition(dataset, &cfg, vertex_weight, cfg.cluster.workers)?;
        let (plans, hybrid_info, decision) =
            plan_engine(dataset, model, &cfg, cfg.engine, &part, &costs, None)?;
        Ok(Self { dataset, model, cfg, vertex_weight, part, plans, costs, hybrid_info, decision })
    }

    /// The compiled per-worker plans.
    pub fn plans(&self) -> &[WorkerPlan] {
        &self.plans
    }

    /// The probed cost factors.
    pub fn costs(&self) -> &CostFactors {
        &self.costs
    }

    /// Statistics of the plan the run starts under: the vertex weight,
    /// what the partition gave each worker, and the dependency totals.
    pub fn plan_summary(&self) -> PlanSummary {
        let (vf, ef) = (self.costs.vertex_flops(), self.costs.edge_flops());
        let vertices = self.part.part_sizes();
        let in_edges = self.part.part_in_edges(&self.dataset.graph);
        let flops = |i: usize| vf * vertices[i] as f64 + ef * in_edges[i] as f64;
        let all: f64 = (0..vertices.len()).map(flops).sum();
        let total = |f: fn(&WorkerPlan) -> usize| -> usize { self.plans.iter().map(f).sum() };
        PlanSummary {
            vertex_weight: self.vertex_weight,
            parts: (0..vertices.len())
                .map(|i| PartLoad {
                    vertices: vertices[i],
                    in_edges: in_edges[i],
                    flop_share: flops(i) / all,
                })
                .collect(),
            replica_slots: total(WorkerPlan::replica_slots),
            prefetched_features: total(WorkerPlan::prefetched_features),
            comm_rows_per_epoch: total(WorkerPlan::forward_comm_rows),
            hybrid: self.hybrid_info.clone(),
        }
    }

    /// Simulates one epoch on the modeled cluster.
    pub fn simulate_epoch(&self) -> SimSummary {
        let tg = build_epoch_task_graph(
            &self.plans,
            self.model.dims(),
            &self.costs.flops,
            self.model.gradient_bytes(),
            &self.cfg,
        );
        let bytes = tg.total_bytes();
        let flops = tg.total_flops();
        let report = simulate(&tg, &self.cfg.cluster);
        SimSummary {
            epoch_seconds: report.makespan,
            bytes_per_epoch: bytes,
            flops_per_epoch: flops,
            device_utilization: report.mean_utilization(ResourceKind::Device),
            nic_utilization: report.mean_utilization(ResourceKind::NicOut),
            report,
        }
    }

    /// Runs `epochs` epochs of real distributed training and returns the
    /// full report. The epochs run in chunks under one supervisor loop
    /// (`trainer/supervisor.rs`, DESIGN.md §9): with [`RecoveryConfig`]
    /// enabled a chunk is `checkpoint_every` epochs, a lost worker or a
    /// diverged step rolls back to the last checkpoint and training
    /// resumes (on the survivors, if a member was lost), and each
    /// checkpoint boundary may evict a straggler, re-admit missing members
    /// and replan. With recovery disabled the same loop runs one chunk of
    /// all the epochs with no restart budget, so failures surface as
    /// [`RuntimeError::WorkerFailed`] / [`RuntimeError::Diverged`].
    pub fn train(&self, epochs: usize) -> Result<TrainingReport> {
        let sim = self.simulate_epoch();
        let mut out = Supervisor::new(self, epochs)?.run()?;
        // Lay the modeled-clock timeline alongside the real-clock spans.
        out.run_metrics.sim_spans = crate::obs::sim_spans(&sim.report);
        let plan = self.plan_summary();
        let flop_share_max = plan.parts.iter().map(|p| p.flop_share).fold(0.0, f64::max);
        let skew = crate::obs::compute_skew(&out.run_metrics);
        let gauges = &mut out.run_metrics.gauges;
        gauges.insert("plan.vertex_weight".into(), plan.vertex_weight);
        gauges.insert("plan.flop_share_max".into(), flop_share_max);
        gauges.extend(skew.map(|s| ("exec.compute_skew".into(), s)));
        let epochs_out = out
            .metrics
            .into_iter()
            .enumerate()
            .map(|(i, m)| EpochStats {
                epoch: i,
                loss: m.loss,
                train_acc: m.train_acc,
                val_acc: m.val_acc,
                test_acc: m.test_acc,
                wall_s: m.wall_s,
            })
            .collect();
        Ok(TrainingReport {
            engine: self.cfg.engine.name().to_string(),
            dataset: self.dataset.name.clone(),
            model: self.model.kind().name().to_string(),
            workers: self.cfg.cluster.workers,
            epochs: epochs_out,
            sim,
            plan,
            final_params: out.params.unwrap_or_else(|| self.model.fresh_store()),
            recoveries: out.recoveries,
            membership: out.membership,
            replans: out.replans,
            metrics: out.run_metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CheckpointStore;
    use ns_gnn::ModelKind;
    use ns_graph::datasets::by_name;
    use ns_metrics::{Phase, COORDINATOR};

    // `pub(super)`: shared with `supervisor::tests`.
    pub(super) fn dataset() -> Dataset {
        by_name("google").unwrap().materialize(0.002, 11)
    }

    pub(super) fn model(ds: &Dataset) -> GnnModel {
        GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 32, ds.num_classes, 5)
    }

    pub(super) fn cfg(engine: EngineKind, workers: usize) -> TrainerConfig {
        TrainerConfig::new(engine, ClusterSpec::aliyun_ecs(workers))
    }

    #[test]
    fn all_engines_prepare_and_train() {
        let ds = dataset();
        let m = model(&ds);
        for engine in [EngineKind::DepCache, EngineKind::DepComm, EngineKind::Hybrid] {
            let trainer = Trainer::prepare(&ds, &m, cfg(engine, 4)).unwrap();
            let report = trainer.train(3).unwrap();
            assert_eq!(report.epochs.len(), 3);
            assert!(report.sim.epoch_seconds > 0.0, "{}", engine.name());
            assert!(
                report.epochs[2].loss < report.epochs[0].loss * 1.05,
                "{} loss should not explode",
                engine.name()
            );
            assert!(report.recoveries.is_empty());
            assert_eq!(report.metrics.worker_ids().len(), 4, "{}", engine.name());
            assert!(!report.metrics.sim_spans.is_empty(), "{}", engine.name());
            assert!(report.metrics.total_counter("net.sent.bytes") > 0);
        }
    }

    #[test]
    fn engines_agree_numerically() {
        let ds = dataset();
        let m = model(&ds);
        let mut losses = Vec::new();
        for engine in [EngineKind::DepCache, EngineKind::DepComm, EngineKind::Hybrid] {
            let trainer = Trainer::prepare(&ds, &m, cfg(engine, 4)).unwrap();
            let report = trainer.train(2).unwrap();
            losses.push(report.final_loss());
        }
        for w in losses.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 2e-3 * w[0].abs().max(1.0),
                "engines diverged: {losses:?}"
            );
        }
    }

    #[test]
    fn depcache_burns_flops_depcomm_burns_bytes() {
        let ds = dataset();
        let m = model(&ds);
        let cache = Trainer::prepare(&ds, &m, cfg(EngineKind::DepCache, 4))
            .unwrap()
            .simulate_epoch();
        let comm = Trainer::prepare(&ds, &m, cfg(EngineKind::DepComm, 4))
            .unwrap()
            .simulate_epoch();
        assert!(cache.flops_per_epoch > comm.flops_per_epoch);
        assert!(comm.bytes_per_epoch > cache.bytes_per_epoch);
        // DepCache keeps the device busier.
        assert!(cache.device_utilization > comm.device_utilization);
    }

    #[test]
    fn hybrid_is_no_slower_than_both_pure_engines() {
        let ds = dataset();
        let m = model(&ds);
        let time = |engine| {
            Trainer::prepare(&ds, &m, cfg(engine, 4))
                .unwrap()
                .simulate_epoch()
                .epoch_seconds
        };
        let cache = time(EngineKind::DepCache);
        let comm = time(EngineKind::DepComm);
        let hybrid = time(EngineKind::Hybrid);
        assert!(
            hybrid <= cache.max(comm) * 1.05,
            "hybrid {hybrid} vs cache {cache} / comm {comm}"
        );
    }

    #[test]
    fn ablation_inputs_price_the_simulated_epoch_and_leave_training_untouched() {
        let ds = dataset();
        let m = model(&ds);
        // Four workers, so the ring and ascending send orders differ, and
        // the parameter server would sum in another order than the ring.
        let full = Trainer::prepare(&ds, &m, cfg(EngineKind::DepComm, 4)).unwrap();
        let mut c = cfg(EngineKind::DepComm, 4);
        c.opts = ExecOptions::none();
        c.sync = SyncMode::ParameterServer;
        let raw = Trainer::prepare(&ds, &m, c).unwrap();
        let (a, b) = (full.train(3).unwrap(), raw.train(3).unwrap());
        assert_eq!(a.epochs.len(), b.epochs.len());
        for (x, y) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(x.loss.to_bits(), y.loss.to_bits(), "epoch {}", x.epoch);
        }
        for ((_, _, x), (_, _, y)) in a.final_params.iter().zip(b.final_params.iter()) {
            assert_eq!(x.data(), y.data());
        }
        for w in a.metrics.worker_ids() {
            let bytes = |r: &TrainingReport| r.metrics.frames[&w].counter("net.sent.bytes");
            assert!(bytes(&a) > 0);
            assert_eq!(bytes(&a), bytes(&b), "worker {w}");
        }
        let (fast, slow) = (full.simulate_epoch(), raw.simulate_epoch());
        assert_ne!(fast.epoch_seconds, slow.epoch_seconds);
    }

    /// twitter's shape: R-MAT skew, 52 -> 32 -> 16.
    fn skewed() -> (Dataset, GnnModel) {
        let ds = by_name("twitter").unwrap().materialize(0.0002, 7);
        let m = GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 32, ds.num_classes, 5);
        (ds, m)
    }

    #[test]
    fn model_flop_weight_balances_priced_flops_and_unit_weight_does_not() {
        let (ds, m) = skewed();
        let shares = |vertex_weight| {
            let mut c = cfg(EngineKind::DepComm, 2);
            c.enforce_memory = false;
            c.vertex_weight = vertex_weight;
            let plan = Trainer::prepare(&ds, &m, c).unwrap().plan_summary();
            assert_eq!(plan.parts.iter().map(|p| p.vertices).sum::<usize>(), 8400);
            assert_eq!(plan.parts.iter().map(|p| p.in_edges).sum::<usize>(), ds.graph.num_edges());
            (plan.vertex_weight, plan.parts[0].flop_share, plan.parts[1].flop_share)
        };
        let (w, a, b) = shares(VertexWeight::ModelFlops);
        assert_eq!(w, 16336.0 / 272.0, "Σ vertex_total / Σ edge_total of 52 -> 32 -> 16 GCN");
        assert!(a.max(b) / a.min(b) <= 1.05, "priced FLOPs {a:.3} vs {b:.3}");
        // The default — what `TrainerConfig::new` gives the figures and
        // the chaos soaks — is Gemini's unit weight, which hands the
        // low-degree tail's worker most of the vertices and their rows.
        let (w, a, b) = shares(VertexWeight::Unit);
        assert_eq!(w, 1.0);
        assert!(b / a > 1.3, "unit weight: priced FLOPs {a:.3} vs {b:.3}");
    }

    #[test]
    fn report_carries_the_partition_and_skew_gauges() {
        let (ds, m) = skewed();
        let mut c = cfg(EngineKind::DepComm, 2);
        c.enforce_memory = false;
        c.vertex_weight = VertexWeight::ModelFlops;
        let report = Trainer::prepare(&ds, &m, c).unwrap().train(2).unwrap();
        let g = &report.metrics.gauges;
        assert_eq!(g["plan.vertex_weight"], report.plan.vertex_weight);
        let max_share = report.plan.parts.iter().map(|p| p.flop_share).fold(0.0, f64::max);
        assert_eq!(g["plan.flop_share_max"], max_share);
        assert!((0.5..0.525).contains(&max_share), "{max_share}");
        assert!(g["exec.compute_skew"] >= 1.0);
    }

    #[test]
    fn zero_workers_rejected() {
        let ds = dataset();
        let m = model(&ds);
        let mut c = cfg(EngineKind::DepComm, 1);
        c.cluster.workers = 0;
        assert!(Trainer::prepare(&ds, &m, c).is_err());
    }

    #[test]
    fn kill_without_recovery_surfaces_worker_failed() {
        let ds = dataset();
        let m = model(&ds);
        let mut c = cfg(EngineKind::DepComm, 3);
        c.fault = FaultPlan::kill(1, 1);
        let trainer = Trainer::prepare(&ds, &m, c).unwrap();
        let err = trainer.train(4).unwrap_err();
        assert!(
            matches!(err, RuntimeError::WorkerFailed { worker: 1, epoch: 1, .. }),
            "unexpected: {err:?}"
        );
    }

    #[test]
    fn recovery_finishes_all_epochs_after_kill() {
        let ds = dataset();
        let m = model(&ds);
        let mut c = cfg(EngineKind::DepComm, 3);
        c.fault = FaultPlan::kill(1, 2);
        c.recovery = RecoveryConfig::every(1);
        let trainer = Trainer::prepare(&ds, &m, c).unwrap();
        let report = trainer.train(5).unwrap();
        assert_eq!(report.epochs.len(), 5, "recovered run must finish");
        assert_eq!(report.recoveries.len(), 1);
        let (failed_worker, rollback_epoch, engine_after) = &report.recoveries[0];
        assert_eq!(*failed_worker, 1);
        assert_eq!(*rollback_epoch, 2);
        assert_eq!(engine_after, "DepComm");
        assert!(
            report.final_loss() < report.epochs[0].loss,
            "recovered run must still learn"
        );
        let coord = report
            .metrics
            .frames
            .get(&COORDINATOR)
            .expect("coordinator frame");
        assert_eq!(coord.counter("recovery.rollbacks"), 1);
        assert_eq!(coord.counter("recovery.checkpoints"), 5);
        assert!(coord.phase_total_ns(Phase::CkptSave) > 0);
        assert!(coord.phase_total_ns(Phase::CkptLoad) > 0);
    }

    #[test]
    fn rejoin_restores_full_world_after_kill() {
        use ns_net::MembershipEventKind;
        let ds = dataset();
        let m = model(&ds);
        let mut c = cfg(EngineKind::DepComm, 3);
        c.fault = FaultPlan::kill(1, 2);
        c.recovery = RecoveryConfig::every(1).with_rejoin();
        let trainer = Trainer::prepare(&ds, &m, c).unwrap();
        let report = trainer.train(5).unwrap();
        assert_eq!(report.epochs.len(), 5);
        assert_eq!(report.recoveries.len(), 1);
        let kinds: Vec<_> = report.membership.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![MembershipEventKind::Failed, MembershipEventKind::Rejoined]
        );
        assert_eq!(report.membership[0].worker, 1);
        assert_eq!(report.membership[1].worker, 1);
        // Replaying the log ends at a full world: every affected slot's
        // final transition is a rejoin.
        let mut last = std::collections::BTreeMap::new();
        for e in &report.membership {
            last.insert(e.worker, e.kind);
        }
        assert!(
            last.values().all(|k| *k == MembershipEventKind::Rejoined),
            "every rejoin must restore the world: {:?}",
            report.membership
        );
        let coord = report.metrics.frames.get(&COORDINATOR).unwrap();
        assert_eq!(coord.counter("membership.failures"), 1);
        assert_eq!(coord.counter("membership.rejoins"), 1);
        // The joiner resumes from the whole checkpoint payload, parameters
        // and Adam state; its length depends on the shapes alone.
        let params = &report.final_params;
        let adam = ns_tensor::AdamState { t: 0, m: params.zero_grads(), v: params.zero_grads() };
        let payload = crate::Checkpoint::capture(0, params, Some(adam)).payload().len() as u64;
        assert_eq!(
            coord.counter("membership.rejoin.bytes") - ns_net::membership::REJOIN_HANDSHAKE_BYTES,
            payload,
            "rejoin must meter the checkpoint payload"
        );
        assert!(report.final_loss() < report.epochs[0].loss);
    }

    #[test]
    fn hang_is_found_by_receive_budgets_and_recovery_resumes() {
        use ns_net::fault::Fault;
        use ns_net::MembershipEventKind;
        let ds = dataset();
        let m = model(&ds);
        let mut c = cfg(EngineKind::DepComm, 3);
        c.fault = FaultPlan::default().with_fault(Fault::Hang { worker: 1, epoch: 2 });
        c.recovery = RecoveryConfig::every(1).with_rejoin();
        c.recv_timeout_ms = 1_050;
        let trainer = Trainer::prepare(&ds, &m, c).unwrap();
        let report = trainer.train(5).unwrap();
        assert_eq!(report.epochs.len(), 5, "hung run must finish");
        assert_eq!(report.recoveries.len(), 1);
        assert_eq!(report.recoveries[0].0, 1, "worker 1 was the hung one");
        // The hang routes through the same membership machinery as a
        // crash: failure, then rejoin at the next boundary.
        let kinds: Vec<_> = report.membership.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![MembershipEventKind::Failed, MembershipEventKind::Rejoined]
        );
        let coord = report.metrics.frames.get(&COORDINATOR).unwrap();
        assert_eq!(coord.counter("membership.hangs"), 1, "one hung worker was evicted");
        assert!(report.final_loss() < report.epochs[0].loss);
    }

    /// A one-way partition stalls a receive inside the gradient
    /// all-reduce as often as one in the layer exchange; recovery rolls
    /// either back. Repeated because which receive runs out its budget
    /// first is a race.
    #[test]
    fn allreduce_receive_timeout_is_recovered() {
        use ns_net::fault::parse_fault;
        let ds = dataset();
        let m = model(&ds);
        let mut c = cfg(EngineKind::DepCache, 2);
        c.fault = FaultPlan::default().with_fault(parse_fault("partition:w1->w0@e2-e3").unwrap());
        c.recovery = RecoveryConfig::every(2);
        c.recv_timeout_ms = 800;
        let trainer = Trainer::prepare(&ds, &m, c).unwrap();
        for run in 0..3 {
            let report = trainer.train(4).unwrap_or_else(|e| panic!("run {run}: {e}"));
            assert_eq!(report.epochs.len(), 4, "run {run}");
            assert_eq!(report.recoveries.len(), 1, "run {run}");
        }
    }

    #[test]
    fn disk_full_window_degrades_retention_and_finishes() {
        use ns_net::fault::{Fault, Window};
        let ds = dataset();
        let m = model(&ds);
        let dir = std::env::temp_dir()
            .join(format!("nts-trainer-enospc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = cfg(EngineKind::DepComm, 2);
        c.fault = FaultPlan::default()
            .with_fault(Fault::DiskFull { window: Window { from: 2, heal: 4 } });
        c.recovery = RecoveryConfig::every(1);
        c.store = StoreConfig::at(&dir).keep(3);
        let trainer = Trainer::prepare(&ds, &m, c).unwrap();
        let report = trainer.train(6).unwrap();
        assert_eq!(report.epochs.len(), 6, "disk-full run must finish, not abort");
        let coord = report.metrics.frames.get(&COORDINATOR).unwrap();
        assert!(coord.counter("ckpt.enospc") >= 1, "the ENOSPC window was hit");
        assert!(
            coord.counter("ckpt.retention_squeezed") >= 1,
            "retention must squeeze rather than fail the run"
        );
        // The store survives the window with at least one loadable
        // generation.
        let st = CheckpointStore::open(&dir, 3).unwrap();
        let loaded = st.load_latest();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(loaded.checkpoint.is_some(), "a generation must remain loadable");
    }

    #[test]
    fn slow_disk_meters_a_bounded_penalty() {
        use ns_net::fault::Fault;
        let ds = dataset();
        let m = model(&ds);
        let dir = std::env::temp_dir()
            .join(format!("nts-trainer-slowdisk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = cfg(EngineKind::DepComm, 2);
        c.fault = FaultPlan::default().with_fault(Fault::SlowDisk { factor: 3.0 });
        c.recovery = RecoveryConfig::every(1);
        c.store = StoreConfig::at(&dir).keep(2);
        let trainer = Trainer::prepare(&ds, &m, c).unwrap();
        let report = trainer.train(3).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let coord = report.metrics.frames.get(&COORDINATOR).unwrap();
        assert!(
            coord.counter("ckpt.slow_disk_penalty_ns") > 0,
            "a 3x slow disk must charge fsync penalty time"
        );
    }

    #[test]
    fn mem_pressure_window_records_the_high_water_mark() {
        use ns_net::fault::{Fault, Window};
        let _pool = crate::pool_test_guard();
        let ds = dataset();
        let m = model(&ds);
        let mut c = cfg(EngineKind::DepComm, 2);
        // A generous cap: the invariant under test is the arming/metering
        // path, not the shed behavior (pool unit tests cover that).
        c.fault = FaultPlan::default().with_fault(Fault::MemPressure {
            cap_bytes: 1 << 30,
            window: Window { from: 1, heal: 3 },
        });
        c.recovery = RecoveryConfig::every(1);
        let trainer = Trainer::prepare(&ds, &m, c).unwrap();
        let report = trainer.train(4).unwrap();
        assert_eq!(report.epochs.len(), 4);
        let coord = report.metrics.frames.get(&COORDINATOR).unwrap();
        let peak = coord
            .histograms
            .get("alloc.peak_bytes")
            .expect("pressured chunks must export the high-water mark");
        assert!(peak.count >= 1);
        assert!(peak.max <= 1 << 30, "peak must respect the injected cap");
    }

    #[test]
    fn straggler_is_evicted_and_readmitted() {
        use ns_net::fault::Fault;
        use ns_net::MembershipEventKind;
        let ds = dataset();
        let m = model(&ds);
        let mut c = cfg(EngineKind::DepComm, 3);
        c.fault = FaultPlan::default()
            .with_fault(Fault::Straggle { worker: 1, delay_ms: 30 });
        c.recovery = RecoveryConfig::every(2)
            .with_rejoin()
            .with_straggler_eviction();
        let trainer = Trainer::prepare(&ds, &m, c).unwrap();
        let report = trainer.train(6).unwrap();
        assert_eq!(report.epochs.len(), 6);
        assert!(report.recoveries.is_empty(), "eviction burns no restart budget");
        let kinds: Vec<_> = report.membership.iter().map(|e| e.kind).collect();
        assert!(
            kinds.contains(&MembershipEventKind::Evicted),
            "30ms straggler must be evicted: {kinds:?}"
        );
        assert_eq!(
            report.membership[0].worker, 1,
            "the straggling slot is the one evicted"
        );
        assert_eq!(
            kinds.last(),
            Some(&MembershipEventKind::Rejoined),
            "evicted member re-admits at a later boundary: {kinds:?}"
        );
        let coord = report.metrics.frames.get(&COORDINATOR).unwrap();
        assert!(coord.counter("membership.evictions") >= 1);
        assert!(coord.counter("membership.rejoins") >= 1);
    }

    #[test]
    fn torn_durable_generation_falls_back_and_still_finishes() {
        use ns_net::fault::Fault;
        let dir = std::env::temp_dir()
            .join(format!("nts-trainer-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ds = dataset();
        let m = model(&ds);
        let mut c = cfg(EngineKind::DepComm, 3);
        // Boundary 4's generation is silently bit-flipped on disk; the kill
        // at epoch 5 then forces a rollback that must detect the damage and
        // fall back to the generation from boundary 2.
        c.fault = FaultPlan::kill(1, 5)
            .with_fault(Fault::CorruptCkpt { epoch: Some(4), p: 1.0 });
        c.recovery = RecoveryConfig::every(2);
        c.store = StoreConfig::at(&dir);
        let trainer = Trainer::prepare(&ds, &m, c).unwrap();
        let report = trainer.train(6).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(report.epochs.len(), 6, "run must finish all epochs");
        assert_eq!(report.recoveries.len(), 1);
        let (failed_worker, rollback_epoch, _) = &report.recoveries[0];
        assert_eq!(*failed_worker, 1);
        assert_eq!(
            *rollback_epoch, 2,
            "rollback must skip the torn boundary-4 generation"
        );
        let coord = report.metrics.frames.get(&COORDINATOR).unwrap();
        assert_eq!(coord.counter("ckpt.fallbacks"), 1);
        assert_eq!(coord.counter("recovery.rollbacks"), 1);
        assert_eq!(coord.counter("guard.nan_events"), 0);
        assert!(
            report.final_loss() < report.epochs[0].loss,
            "recovered run must still learn"
        );
    }

    #[test]
    fn durable_rollback_reads_the_store_not_memory() {
        let dir = std::env::temp_dir()
            .join(format!("nts-trainer-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ds = dataset();
        let m = model(&ds);
        let mut c = cfg(EngineKind::DepComm, 3);
        c.fault = FaultPlan::kill(1, 2);
        c.recovery = RecoveryConfig::every(2);
        c.store = StoreConfig::at(&dir).keep(2);
        let trainer = Trainer::prepare(&ds, &m, c).unwrap();
        let report = trainer.train(4).unwrap();
        // The surviving generations on disk verify end-to-end.
        let store = CheckpointStore::open(&dir, 2).unwrap();
        let gens = store.generations().unwrap();
        assert!(!gens.is_empty() && gens.len() <= 2, "{gens:?}");
        let loaded = store.load_latest();
        assert_eq!(loaded.fallbacks, 0);
        assert_eq!(loaded.checkpoint.unwrap().next_epoch, 4);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(report.epochs.len(), 4);
        assert_eq!(report.recoveries.len(), 1);
        let coord = report.metrics.frames.get(&COORDINATOR).unwrap();
        assert_eq!(coord.counter("ckpt.fallbacks"), 0);
        let fsync = coord.histograms.get("ckpt.fsync_ns").expect("fsync histogram");
        assert!(fsync.count > 0);
    }

    #[test]
    fn deterministic_divergence_exhausts_restart_budget() {
        let ds = dataset();
        let m = model(&ds);
        let mut c = cfg(EngineKind::DepComm, 2);
        c.lr = 1e30; // guarantees a non-finite loss within a few steps
        c.recovery = RecoveryConfig::every(1);
        let trainer = Trainer::prepare(&ds, &m, c).unwrap();
        let err = trainer.train(4).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Diverged { .. }),
            "deterministic divergence must surface after the budget: {err:?}"
        );
    }

    #[test]
    fn checkpoint_chunking_preserves_trajectory() {
        let ds = dataset();
        let m = model(&ds);
        let plain = Trainer::prepare(&ds, &m, cfg(EngineKind::DepComm, 3))
            .unwrap()
            .train(4)
            .unwrap();
        // Cadence 2 crosses a checkpoint boundary mid-run, carrying the
        // state across it; cadence 4 is the same single chunk the disabled
        // run takes, plus a checkpoint.
        for cadence in [2, 4] {
            let mut c = cfg(EngineKind::DepComm, 3);
            c.recovery = RecoveryConfig::every(cadence);
            let chunked = Trainer::prepare(&ds, &m, c).unwrap().train(4).unwrap();
            assert_eq!(plain.epochs.len(), chunked.epochs.len());
            for (a, b) in plain.epochs.iter().zip(chunked.epochs.iter()) {
                // Chunking round-trips params + Adam state exactly, so the
                // trajectory is identical, bit for bit.
                assert_eq!(
                    a.loss.to_bits(),
                    b.loss.to_bits(),
                    "cadence {cadence}, epoch {}: {} vs {}",
                    a.epoch,
                    a.loss,
                    b.loss
                );
            }
            for ((_, _, a), (_, _, b)) in
                plain.final_params.iter().zip(chunked.final_params.iter())
            {
                assert_eq!(a.max_abs_diff(b), 0.0);
            }
            let coord = chunked.metrics.frames.get(&COORDINATOR).expect("coordinator frame");
            assert_eq!(coord.counter("recovery.checkpoints"), 4 / cadence as u64);
            // Fault-free, nothing rolls back, so no checkpoint is decoded.
            assert_eq!(coord.phase_total_ns(Phase::CkptLoad), 0);
            assert!(coord.spans.iter().all(|s| s.phase != Phase::CkptLoad));
        }
        // The run without recovery went through the same loop and left no
        // trace of it: no coordinator frame, no checkpoint span, and none
        // of the supervisor's meters on any frame.
        assert!(!plain.metrics.frames.contains_key(&COORDINATOR));
        for frame in plain.metrics.frames.values() {
            for key in frame.counters.keys().chain(frame.histograms.keys()) {
                let supervised = ["recovery.", "ckpt.", "membership.", "replan."];
                assert!(!supervised.iter().any(|p| key.starts_with(p)), "{key}");
            }
            assert_eq!(frame.phase_total_ns(Phase::CkptSave), 0);
            assert_eq!(frame.phase_total_ns(Phase::CkptLoad), 0);
            assert!(frame
                .spans
                .iter()
                .all(|s| s.phase != Phase::CkptSave && s.phase != Phase::CkptLoad));
        }
    }

    /// The epochs in which this frame's worker ran the layer-0 exchange.
    pub(super) fn layer0_exchange_epochs(frame: &ns_metrics::MetricsFrame) -> Vec<u32> {
        let l0 = frame.spans.iter().filter(|s| s.phase == Phase::FwdComm && s.layer == 0);
        l0.map(|s| s.epoch).collect()
    }

    #[test]
    fn layer0_rows_go_out_once_per_train_call_however_it_is_chunked() {
        let ds = dataset();
        let m = model(&ds);
        let train = |c: TrainerConfig| Trainer::prepare(&ds, &m, c).unwrap().train(4).unwrap();
        let plain = train(cfg(EngineKind::Hybrid, 3));
        let mut c = cfg(EngineKind::Hybrid, 3);
        c.recovery = RecoveryConfig::every(1);
        let chunked = train(c);
        for (a, b) in plain.epochs.iter().zip(chunked.epochs.iter()) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "epoch {}", a.epoch);
        }
        for ((_, _, a), (_, _, b)) in plain.final_params.iter().zip(chunked.final_params.iter()) {
            assert_eq!(a.data(), b.data());
        }
        // Four one-epoch chunks move what one four-epoch chunk moves: the
        // prefix the first chunk built serves the other three, which
        // neither exchange layer-0 rows nor gather features.
        assert!(plain.plan.comm_rows_per_epoch > 0 && plain.plan.prefetched_features > 0);
        let once_per_call =
            ["net.sent.msgs.rows", "net.sent.bytes.rows", "dep.rows.cached", "dep.rows.reused"];
        for key in once_per_call {
            let sent = plain.metrics.total_counter(key);
            assert!(sent > 0, "{key}");
            assert_eq!(sent, chunked.metrics.total_counter(key), "{key}");
        }
        for report in [&plain, &chunked] {
            for (w, frame) in &report.metrics.frames {
                if *w != COORDINATOR {
                    assert_eq!(layer0_exchange_epochs(frame), [0], "worker {w}");
                }
            }
        }
    }

    #[test]
    fn survivors_replan_rebuilds_the_layer0_prefix_exactly_once() {
        let ds = dataset();
        let m = model(&ds);
        let mut c = cfg(EngineKind::DepComm, 3);
        c.fault = FaultPlan::kill(1, 3);
        c.recovery = RecoveryConfig::every(1);
        let report = Trainer::prepare(&ds, &m, c).unwrap().train(6).unwrap();
        assert_eq!(report.epochs.len(), 6);
        assert_eq!(report.recoveries, [(1, 3, "DepComm".to_string())]);
        // Built at epoch 0 under three plans, dropped with them when the
        // survivors replan, built again by the two survivors at the
        // re-run epoch 3, reused everywhere else.
        let frames = &report.metrics.frames;
        assert_eq!(layer0_exchange_epochs(&frames[&0]), [0, 3]);
        assert_eq!(layer0_exchange_epochs(&frames[&1]), [0, 3]);
        assert_eq!(layer0_exchange_epochs(&frames[&2]), [0]);
        assert!(report.final_loss() < report.epochs[0].loss);
    }

    #[test]
    fn last_member_failing_surfaces_the_failure() {
        use ns_net::fault::Fault;
        let ds = dataset();
        let m = model(&ds);
        let mut c = cfg(EngineKind::DepComm, 2);
        // Worker 1 dies first and is dropped; the survivor (now worker 0)
        // dies two epochs later with restart budget to spare. There is
        // nobody left to replan on, so the failure itself must come back —
        // not a planning error about zero workers.
        c.fault = FaultPlan::kill(1, 1).with_fault(Fault::Kill { worker: 0, epoch: 3 });
        c.recovery = RecoveryConfig { max_restarts: 5, ..RecoveryConfig::every(1) };
        let trainer = Trainer::prepare(&ds, &m, c).unwrap();
        let err = trainer.train(5).unwrap_err();
        assert!(
            matches!(err, RuntimeError::WorkerFailed { worker: 0, epoch: 3, .. }),
            "unexpected: {err:?}"
        );
    }

    #[test]
    fn worker_failure_past_restart_budget_surfaces_the_failure() {
        use ns_net::fault::Fault;
        let ds = dataset();
        let m = model(&ds);
        let mut c = cfg(EngineKind::DepComm, 3);
        c.fault = FaultPlan::kill(1, 1).with_fault(Fault::Kill { worker: 0, epoch: 3 });
        c.recovery = RecoveryConfig { max_restarts: 1, ..RecoveryConfig::every(1) };
        let trainer = Trainer::prepare(&ds, &m, c).unwrap();
        let err = trainer.train(5).unwrap_err();
        // The first kill spends the one restart; the second comes back as
        // the error it was, with two members still standing.
        assert!(
            matches!(err, RuntimeError::WorkerFailed { worker: 0, epoch: 3, .. }),
            "unexpected: {err:?}"
        );
    }
}
