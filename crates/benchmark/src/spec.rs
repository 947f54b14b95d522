//! The benchmark's fixed vocabulary: the five workloads with their frozen
//! sizes, every metric `nsbench` emits with its unit, direction and (for
//! end-to-end metrics) regression bound, and the narrower view of both that
//! `BENCHMARK.json` gives the benchmark driver. A unit test keeps that file
//! equal to [`crate::manifest`].

use ns_runtime::EngineKind;

/// What a training workload fixes besides its graph.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    pub engine: EngineKind,
    /// Keep the projected device-memory check (off only where the paper-
    /// scale graph cannot fit two modeled devices under this engine).
    pub memory_check: bool,
    /// Train through `RecoveryConfig::every(2)` into a durable store.
    pub durable: bool,
    /// Epochs of one `train()` call. A run makes [`TrainSpec::rounds`] such
    /// calls, each after its own set-ups, so that every sample of a metric
    /// is spread over the whole run and a slow spell of the host spoils a
    /// minority of them.
    pub epochs: usize,
    /// `train()` calls of one run at [`REF_SECONDS`].
    pub rounds: usize,
    /// `time_to_loss_s` target: train loss <= `loss_frac` x epoch-0 loss.
    pub loss_frac: f64,
}

/// What a serving workload fixes besides its fixture graph.
///
/// Every serve run is one deployment stood up from the store (repeated,
/// for the set-up time) and driven once (fresh shards, cold caches, tensor
/// pool emptied first), which is what one `nts serve` invocation is. A run
/// offers at most [`ServeSpec::phase_queries`] queries because the program
/// parks one feature matrix per batch in the process-wide tensor pool and
/// never takes it back: past ~5k queries the pool reaches its pressure
/// threshold for good and every shard halves its feature cache after
/// every batch (see README, "Findings"). Runs are repeated to fill the
/// benchmark run instead of lengthened, in rounds of `batch_runs` closed
/// runs, one open-loop run at `rate_ref` and one at `rate_hi`, so that the
/// samples of each phase are spread over the whole benchmark run.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub cache_rows: usize,
    pub zipf_s: f64,
    /// Queries of one phase run: seeds answered by one closed `batch` run,
    /// and queries offered by one open-loop run.
    pub phase_queries: usize,
    /// Open-loop rates, frozen, the same on both serving workloads so that
    /// they compare at equal offered load: 0.3x / 0.6x of the lower of
    /// their open-loop saturation rates on the seed commit (`serve-cold`:
    /// 4000 qps; `serve-hot`: 12000 qps; `nsbench ladder`, README). At
    /// 0.3x of its own rate `serve-hot` falls past its knee whenever the
    /// shared host slows down, and rejects queries.
    pub rate_ref: f64,
    pub rate_hi: f64,
    /// Closed `batch` runs per round.
    pub batch_runs: usize,
    /// Rounds of one benchmark run at [`REF_SECONDS`].
    pub rounds: usize,
}

#[derive(Debug, Clone)]
pub enum Kind {
    Train(TrainSpec),
    Serve(ServeSpec),
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the full rationale is in README.md.
    pub why: &'static str,
    pub dataset: &'static str,
    pub scale: f64,
    pub kind: Kind,
}

/// The `--seconds` value the frozen counts are sized for (and
/// `run_seconds` in `BENCHMARK.json`). Other values scale the number of
/// rounds linearly and leave a round as it is, so parent and change always
/// run the same amount of work and the loss oracle holds at any length.
pub const REF_SECONDS: f64 = 15.0;

/// Leading epochs excluded from epoch timing samples (pool warm-up).
pub const WARMUP_EPOCHS: usize = 3;
/// Leading share of each serve run's query ids excluded from latency
/// samples (per-shard feature caches start cold in every run).
pub const WARMUP_QUERY_SHARE: f64 = 0.10;
/// Set-up repetitions before each `train()` call (`SessionBuilder::build`)
/// and before each serve run (store open → load → restore → deploy); the
/// last one is the one used. `setup_s` is the lower quartile over all of a
/// run's set-ups: 25 when training, 36 when serving, at [`REF_SECONDS`].
pub const TRAIN_SETUP_REPEATS: usize = 5;
pub const SERVE_SETUP_REPEATS: usize = 3;
pub const WORKERS: usize = 2;
pub const SHARDS: usize = 2;
pub const CHECKPOINT_EVERY: usize = 2;
pub const KEEP_GENERATIONS: usize = 3;
/// Epochs the serve fixture is trained for (untimed).
pub const FIXTURE_EPOCHS: usize = 4;
/// What `serve.cache_hit_ratio` must reach where the cache is on.
pub const MIN_HOT_HIT_RATIO: f64 = 0.9;

pub fn workloads() -> Vec<Workload> {
    let serve = |cache_rows, zipf_s| {
        Kind::Serve(ServeSpec {
            cache_rows,
            zipf_s,
            phase_queries: 3_000,
            rate_ref: 1_200.0,
            rate_hi: 2_400.0,
            batch_runs: 2,
            rounds: 3,
        })
    };
    vec![
        Workload {
            name: "train-nn",
            why: "sparse web graph, wide layers, DepCache: matmul-bound epochs with no per-layer dependency traffic, so a wire or enqueue gain must show nothing here",
            dataset: "google",
            scale: 0.01,
            kind: Kind::Train(TrainSpec {
                engine: EngineKind::DepCache,
                memory_check: true,
                durable: false,
                epochs: 11,
                rounds: 5,
                loss_frac: 0.73,
            }),
        },
        Workload {
            name: "train-comm",
            why: "dense social graph, narrow layers, DepComm: aggregation and the per-layer row/gradient exchange dominate and matmul does little, the mirror image of train-nn",
            dataset: "twitter",
            scale: 0.001,
            kind: Kind::Train(TrainSpec {
                engine: EngineKind::DepComm,
                memory_check: false,
                durable: false,
                epochs: 23,
                rounds: 5,
                loss_frac: 0.9925,
            }),
        },
        Workload {
            name: "train-hybrid-ckpt",
            why: "the nts-train default: Algorithm 4 in set-up, cached and communicated dependencies in one epoch, cadence-sized chunks with durable checkpoint saves",
            dataset: "pokec",
            scale: 0.005,
            kind: Kind::Train(TrainSpec {
                engine: EngineKind::Hybrid,
                memory_check: true,
                durable: true,
                epochs: 12,
                rounds: 5,
                loss_frac: 0.77,
            }),
        },
        Workload {
            name: "serve-hot",
            why: "Zipf 0.9 seeds over a graph the per-shard cache holds whole: admission queue, batch window and local closure compute do the work, peer fetch idles after warm-up",
            dataset: "cora",
            scale: 0.25,
            kind: serve(4096, 0.9),
        },
        Workload {
            name: "serve-cold",
            why: "same deployment with the cache off and uniform seeds: every batch's remote rows take the peer-fetch path, so a cache gain must show nothing here",
            dataset: "cora",
            scale: 0.25,
            kind: serve(0, 0.0),
        },
    ]
}

pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The same workload sized for `seconds` of measurement. `quick`
    /// additionally shrinks the dataset so a smoke run of all five
    /// workloads ends in seconds; its numbers are not comparable with
    /// anything.
    pub fn sized(&self, seconds: f64, quick: bool) -> Workload {
        let f = seconds / REF_SECONDS;
        let scaled = |rounds: usize| ((rounds as f64 * f).round() as usize).max(1);
        let mut w = self.clone();
        if quick {
            w.scale = match self.dataset {
                "cora" => 0.3,
                _ => self.scale / 10.0,
            };
        }
        match &mut w.kind {
            Kind::Train(t) => t.rounds = scaled(t.rounds),
            Kind::Serve(s) => {
                s.rounds = scaled(s.rounds);
                if quick {
                    s.phase_queries = 200;
                    s.rate_ref = s.rate_ref.min(400.0);
                    s.rate_hi = s.rate_hi.min(800.0);
                }
            }
        }
        w
    }

    pub fn on(&self) -> On {
        match self.kind {
            Kind::Train(_) => On::Train,
            Kind::Serve(_) => On::Serve,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The workloads a metric is measured on; elsewhere it is `null`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {
    Train,
    Serve,
    All,
}

impl On {
    pub fn covers(self, workload: On) -> bool {
        self == On::All || self == workload
    }
}

/// How `nsbench compare` judges a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// End to end: the median may get worse by at most this share.
    Bound(f64),
    /// End to end by definition, but between sets of runs of one commit on
    /// the calibration host its median moves by more than half of the 30%
    /// a bound may be (README, "Bound calibration"), so a pair of result
    /// files cannot give it a verdict: reported with ratio and spread only.
    Demoted,
    /// Reported with its ratio, never a verdict.
    Measured,
    /// A count that is a pure function of the seeded inputs: two runs of
    /// one commit with one seed must agree exactly.
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub rule: Rule,
    pub on: On,
}

impl MetricDef {
    /// Taken from the untraced runs when a result file is folded.
    pub fn is_end_to_end(&self) -> bool {
        matches!(self.rule, Rule::Bound(_) | Rule::Demoted)
    }
}

const fn def(
    on: On,
    name: &'static str,
    unit: &'static str,
    better: Better,
    rule: Rule,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        rule,
        on,
    }
}

use Better::{Higher, Lower};
use On::{All, Serve, Train};
use Rule::{Bound, Demoted, Exact, Measured};

/// Every metric, by the names ISSUE 11 fixed. Definitions are in
/// README.md.
pub const METRICS: &[MetricDef] = &[
    // ---- end to end ------------------------------------------------------
    def(All, "setup_s", "s", Lower, Demoted),
    def(Train, "train_wall_s", "s", Lower, Demoted),
    def(Train, "epoch_s", "s", Lower, Demoted),
    def(Train, "epoch_tail_s", "s", Lower, Demoted),
    def(Train, "time_to_loss_s", "s", Lower, Demoted),
    def(All, "peak_rss_mb", "MiB", Lower, Bound(0.25)),
    def(Serve, "serve_batch_qps", "queries/s", Higher, Demoted),
    def(Serve, "serve_p50_ms", "ms", Lower, Demoted),
    def(Serve, "serve_p99_ms", "ms", Lower, Demoted),
    def(Serve, "serve_hi_p99_ms", "ms", Lower, Demoted),
    // ---- graph (ns-graph) ----------------------------------------------
    def(All, "graph.materialize_s", "s", Lower, Measured),
    def(All, "graph.partition_s", "s", Lower, Measured),
    def(All, "graph.khop_s", "s", Lower, Measured),
    def(All, "graph.edge_cut", "count", Lower, Exact),
    def(All, "graph.imbalance", "ratio", Lower, Exact),
    // ---- plan (ns-runtime cost/hybrid/plan/taskgraph + ns-net sim) -----
    def(Train, "plan.probe_s", "s", Lower, Measured),
    def(Train, "plan.prepare_s", "s", Lower, Measured),
    def(Train, "plan.cached_frac", "ratio", Higher, Exact),
    def(Train, "plan.replica_slots", "count", Lower, Exact),
    def(Train, "plan.comm_rows", "rows", Lower, Exact),
    def(Train, "plan.prefetched_rows", "rows", Lower, Exact),
    def(Train, "sim.simulate_s", "s", Lower, Measured),
    def(Train, "sim.epoch_s", "s", Lower, Exact),
    def(Train, "sim.bytes_per_epoch", "bytes", Lower, Exact),
    def(Train, "sim.flops_per_epoch", "flop", Lower, Exact),
    // ---- tensor (ns-tensor) --------------------------------------------
    def(Train, "tensor.matmul_s", "s", Lower, Measured),
    def(Train, "tensor.matmul_gflops", "GFLOP/s", Higher, Measured),
    def(Train, "tensor.matmul_tn_s", "s", Lower, Measured),
    def(Train, "tensor.aggregate_s", "s", Lower, Measured),
    def(Train, "tensor.aggregate_gbps", "GB/s", Higher, Measured),
    def(Train, "tensor.aggregate_t_s", "s", Lower, Measured),
    def(Train, "tensor.gather_s", "s", Lower, Measured),
    def(Train, "tensor.adam_step_s", "s", Lower, Measured),
    def(Train, "tensor.pool_fresh_steady", "count", Lower, Measured),
    def(All, "tensor.pool_peak_mb", "MiB", Lower, Measured),
    // ---- par (ns-par) --------------------------------------------------
    def(Train, "par.threads", "threads", Higher, Exact),
    def(Train, "par.jobs", "count", Lower, Measured),
    def(Train, "par.inline_jobs", "count", Lower, Measured),
    def(Train, "par.steal_count", "count", Higher, Measured),
    // ---- net (ns-net) --------------------------------------------------
    def(All, "net.encode_s", "s", Lower, Measured),
    def(All, "net.encode_gbps", "GB/s", Higher, Measured),
    def(All, "net.decode_s", "s", Lower, Measured),
    def(All, "net.enqueue_s", "s", Lower, Measured),
    def(All, "net.roundtrip_us", "us", Lower, Measured),
    def(Train, "net.bytes_per_epoch", "bytes", Lower, Exact),
    def(Train, "net.msgs_per_epoch", "msgs", Lower, Exact),
    def(Train, "net.rows_bytes_per_epoch", "bytes", Lower, Exact),
    def(Train, "net.grads_bytes_per_epoch", "bytes", Lower, Exact),
    def(
        Train,
        "net.allreduce_bytes_per_epoch",
        "bytes",
        Lower,
        Exact,
    ),
    def(Train, "net.recv_wait_s", "s", Lower, Measured),
    def(Train, "net.recv_retries", "count", Lower, Measured),
    // ---- exec (ns-runtime::exec) ---------------------------------------
    def(Train, "exec.fwd_comm_s", "s", Lower, Measured),
    def(Train, "exec.fwd_compute_s", "s", Lower, Measured),
    def(Train, "exec.head_s", "s", Lower, Measured),
    def(Train, "exec.bwd_compute_s", "s", Lower, Measured),
    def(Train, "exec.bwd_comm_s", "s", Lower, Measured),
    def(Train, "exec.sync_wait_s", "s", Lower, Measured),
    def(Train, "exec.opt_step_s", "s", Lower, Measured),
    def(Train, "exec.fwd_graph_s", "s", Lower, Measured),
    def(Train, "exec.fwd_nn_s", "s", Lower, Measured),
    def(Train, "exec.bwd_graph_s", "s", Lower, Measured),
    def(Train, "exec.bwd_nn_s", "s", Lower, Measured),
    def(Train, "exec.attributed_share", "ratio", Higher, Measured),
    def(Train, "exec.rows_local", "rows", Higher, Exact),
    def(Train, "exec.rows_cached", "rows", Higher, Exact),
    def(Train, "exec.rows_fetched", "rows", Lower, Exact),
    def(Train, "exec.epoch_direct_s", "s", Lower, Measured),
    // ---- trainer (ns-runtime::trainer / recovery) ----------------------
    def(Train, "trainer.overhead_s", "s", Lower, Measured),
    def(Train, "trainer.chunks", "count", Lower, Exact),
    def(All, "recovery.capture_s", "s", Lower, Measured),
    def(All, "recovery.restore_s", "s", Lower, Measured),
    // ---- store (ns-runtime::store) -------------------------------------
    def(All, "store.save_s", "s", Lower, Measured),
    def(All, "store.load_s", "s", Lower, Measured),
    def(Train, "store.fsync_s", "s", Lower, Measured),
    def(Train, "store.saves", "count", Lower, Exact),
    def(All, "store.bytes_per_gen", "bytes", Lower, Exact),
    // ---- gnn (ns-gnn) --------------------------------------------------
    def(Serve, "gnn.infer_s", "s", Lower, Measured),
    // ---- serve (ns-runtime::serve) -------------------------------------
    def(Serve, "serve.deploy_s", "s", Lower, Measured),
    def(Serve, "serve.p999_ms", "ms", Lower, Measured),
    def(Serve, "serve.queue_wait_us_mean", "us", Lower, Measured),
    def(Serve, "serve.queue_depth_mean", "queries", Lower, Measured),
    def(Serve, "serve.batch_size_mean", "queries", Higher, Measured),
    def(Serve, "serve.batches", "count", Lower, Measured),
    def(Serve, "serve.shard_latency_us_mean", "us", Lower, Measured),
    def(Serve, "serve.cache_hit_ratio", "ratio", Higher, Measured),
    def(Serve, "serve.rows_local", "rows", Higher, Measured),
    def(Serve, "serve.rows_fetched", "rows", Lower, Measured),
    def(Serve, "serve.rows_fallback", "rows", Lower, Measured),
    def(Serve, "serve.fetch_requests", "count", Lower, Measured),
    def(Serve, "serve.fetch_timeouts", "count", Lower, Measured),
    def(Serve, "serve.hedge_issued", "count", Lower, Measured),
    def(Serve, "serve.rejects", "count", Lower, Measured),
    def(Serve, "serve.offered_rate_err", "ratio", Lower, Measured),
    def(Serve, "serve.cache_lookup_ns", "ns", Lower, Measured),
    def(Serve, "serve.queue_push_ns", "ns", Lower, Measured),
    // ---- bench (this crate) --------------------------------------------
    def(All, "bench.trace_overhead_share", "ratio", Lower, Measured),
    def(All, "bench.spans", "count", Higher, Measured),
];

pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// One end-to-end metric as the benchmark driver sees it. The driver wants
/// every end-to-end metric as a number on every workload, steady from seed
/// to seed, and eight of the ten above exist on one kind of workload only,
/// so `BENCHMARK.json` lists these three instead: set-up, memory, and the
/// time of one operation (an epoch, or a query). `report::driver_value`
/// reads each from a run's metrics and notes.
#[derive(Debug, Clone, Copy)]
pub struct DriverMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn driver(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> DriverMetric {
    DriverMetric {
        name,
        unit,
        better,
        bound,
    }
}

pub const DRIVER_END_TO_END: [DriverMetric; 3] = [
    driver("setup_s", "s", Lower, 0.25),
    // Training: one epoch of a `train()` call, spawn, chunk boundaries and
    // checkpoints included. Serving: the median latency of an `R_ref` run.
    // Each workload computes it from its samples as a lower quartile (the
    // `op_ms` note; `train::run`, `serve::phases`). (Closed-loop serving
    // throughput is no driver metric: on the calibration host it sits in
    // one of two modes, 13k or 22k queries/s, for seconds at a time.)
    driver("op_ms", "ms", Lower, 0.25),
    driver("peak_rss_mb", "MiB", Lower, 0.25),
];

/// The per-layer metrics `BENCHMARK.json` lists: those measured on every
/// workload, because the driver wants each as a number from every traced
/// run. The rest of the ledger is in `nsbench all --trace` result files.
pub fn driver_per_layer() -> impl Iterator<Item = &'static MetricDef> {
    METRICS.iter().filter(|m| m.on == All && !m.is_end_to_end())
}
