//! Argument parsing and command dispatch for the `nts` command-line tool.
//!
//! Hand-rolled flag parsing (no CLI dependency): `--key value` pairs after
//! a subcommand. Parsing is separated from execution so it can be unit
//! tested without running anything.

use std::collections::BTreeMap;

use ns_gnn::ModelKind;
use ns_graph::Partitioner;
use ns_net::fault::{parse_fault, FaultPlan, KindSel, GRAMMAR};
use ns_net::{ClusterSpec, ExecOptions};
use ns_runtime::exec::SyncMode;
use ns_runtime::serve::load::OpenLoop;
use ns_runtime::{EngineKind, RecoveryConfig, RecvConfig, ServeConfig, StoreConfig};

/// A parsed `nts` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `nts datasets` — list the registry.
    Datasets,
    /// `nts train ...` — real distributed training.
    Train(RunArgs),
    /// `nts simulate ...` — plan + simulate one epoch, no training.
    Simulate(RunArgs),
    /// `nts probe ...` — print the Algorithm 4 cost factors.
    Probe(RunArgs),
    /// `nts chaos ...` — seeded chaos soak over randomized fault
    /// schedules.
    Chaos(ChaosArgs),
    /// `nts serve ...` — sharded read-only inference serving from a
    /// durable checkpoint store.
    Serve(ServeArgs),
    /// `nts help`.
    Help,
}

/// Options for `nts serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Dataset name from the registry. Must match the training run that
    /// produced the checkpoint (parameter shapes are validated).
    pub dataset: String,
    /// Materialization scale; must match training.
    pub scale: f64,
    /// Model architecture; must match training.
    pub model: ModelKind,
    /// Hidden width (defaults to the dataset's paper pairing).
    pub hidden: Option<usize>,
    /// Dataset/model seed; must match training so the materialized
    /// graph is identical.
    pub seed: u64,
    /// Durable checkpoint store directory (required).
    pub ckpt_dir: String,
    /// Durable generations retained in the store.
    pub keep_checkpoints: usize,
    /// Shard worker count.
    pub shards: usize,
    /// Partitioner assigning vertices to shards.
    pub partitioner: Partitioner,
    /// Bounded admission-queue capacity.
    pub queue_capacity: usize,
    /// Maximum queries per dispatched batch.
    pub batch_max: usize,
    /// Adaptive batch accretion window, µs.
    pub batch_window_us: u64,
    /// Maximum queries outstanding at the shards.
    pub inflight_cap: usize,
    /// Per-shard LRU feature-cache capacity, rows.
    pub cache_rows: usize,
    /// Frontend reply deadline before a shard is declared dead, ms.
    pub reply_timeout_ms: u64,
    /// Shard-to-shard feature-fetch deadline, ms.
    pub fetch_timeout_ms: u64,
    /// Modeled mirror-read penalty per fallback burst, µs.
    pub slow_path_us: u64,
    /// Queries the open-loop generator offers.
    pub queries: usize,
    /// Offered rate, queries per second.
    pub rate_qps: f64,
    /// Zipf skew of seed-vertex popularity (0 = uniform).
    pub zipf_s: f64,
    /// Raw `--fault` specs (repeatable); `kill:w<id>@e<n>` kills the
    /// shard at endpoint `<id>` once it sees query id `>= n`.
    pub faults: Vec<String>,
    /// Metrics JSON output path.
    pub metrics_out: Option<String>,
    /// `bench-serve/v1` report output path.
    pub report_out: Option<String>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        let sc = ServeConfig::default();
        Self {
            dataset: "google".to_string(),
            scale: 0.005,
            model: ModelKind::Gcn,
            hidden: None,
            seed: 42,
            ckpt_dir: String::new(),
            keep_checkpoints: 3,
            shards: sc.shards,
            partitioner: sc.partitioner,
            queue_capacity: sc.queue_capacity,
            batch_max: sc.batch_max,
            batch_window_us: sc.batch_window_us,
            inflight_cap: sc.inflight_cap,
            cache_rows: sc.cache_rows,
            reply_timeout_ms: sc.reply_timeout_ms,
            fetch_timeout_ms: sc.fetch_timeout_ms,
            slow_path_us: sc.slow_path_us,
            queries: 10_000,
            rate_qps: 2_000.0,
            zipf_s: 0.9,
            faults: Vec::new(),
            metrics_out: None,
            report_out: None,
        }
    }
}

impl ServeArgs {
    /// Compiles the `--fault` specs into a seeded [`FaultPlan`].
    pub fn fault_plan(&self) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default().with_seed(self.seed);
        for spec in &self.faults {
            plan.push_spec(spec)?;
        }
        Ok(plan)
    }

    /// The serving engine configuration these flags describe.
    pub fn serve_config(&self) -> Result<ServeConfig, String> {
        Ok(ServeConfig {
            shards: self.shards,
            partitioner: self.partitioner,
            queue_capacity: self.queue_capacity,
            batch_max: self.batch_max,
            batch_window_us: self.batch_window_us,
            inflight_cap: self.inflight_cap,
            cache_rows: self.cache_rows,
            reply_timeout_ms: self.reply_timeout_ms,
            fetch_timeout_ms: self.fetch_timeout_ms,
            slow_path_us: self.slow_path_us,
            fault: self.fault_plan()?,
        })
    }

    /// The seeded open-loop load specification.
    pub fn open_loop(&self) -> OpenLoop {
        OpenLoop {
            queries: self.queries,
            rate_qps: self.rate_qps,
            seed: self.seed,
            zipf_s: self.zipf_s,
        }
    }
}

/// Options for `nts chaos`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosArgs {
    /// Number of seeded schedules to run.
    pub schedules: usize,
    /// Base seed; schedule `i` uses `seed + i`.
    pub seed: u64,
    /// Dataset name from the registry.
    pub dataset: String,
    /// Materialization scale.
    pub scale: f64,
    /// Worker count.
    pub workers: usize,
    /// Training epochs per schedule.
    pub epochs: usize,
    /// Checkpoint cadence in epochs.
    pub checkpoint_every: usize,
    /// Upper bound on generated wire-corruption probabilities; 0
    /// disables corrupt faults.
    pub corrupt: f64,
    /// Base directory for per-seed durable checkpoint stores. `None`
    /// lets the runner pick a scratch directory under the system temp
    /// dir (durable-store corruption faults need somewhere to land).
    pub ckpt_dir: Option<String>,
    /// Generate healable link-fault schedules (partitions,
    /// half-partitions, flaps) instead of the default process-fault
    /// matrix, and check the liveness invariant.
    pub partition: bool,
    /// Generate resource-exhaustion schedules (disk-full windows, slow
    /// disks, memory-pressure caps, hung workers) instead of the default
    /// process-fault matrix, and check the degrade-don't-die invariant.
    pub resource: bool,
}

impl Default for ChaosArgs {
    fn default() -> Self {
        Self {
            schedules: 8,
            seed: 42,
            dataset: "google".to_string(),
            scale: 0.002,
            workers: 3,
            epochs: 6,
            checkpoint_every: 2,
            corrupt: 0.25,
            ckpt_dir: None,
            partition: false,
            resource: false,
        }
    }
}

/// Options shared by `train` / `simulate` / `probe`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Dataset name from the registry.
    pub dataset: String,
    /// Materialization scale.
    pub scale: f64,
    /// Model architecture.
    pub model: ModelKind,
    /// Hidden width (defaults to the dataset's paper pairing).
    pub hidden: Option<usize>,
    /// Engine.
    pub engine: EngineKind,
    /// Worker count.
    pub workers: usize,
    /// Intra-worker compute threads (0 = auto).
    pub threads: usize,
    /// Cluster preset (`ecs` or `ibv`).
    pub cluster: String,
    /// Partitioner.
    pub partitioner: Partitioner,
    /// Epochs (train only).
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Optimization toggles.
    pub opts: ExecOptions,
    /// Gradient sync mode.
    pub sync: SyncMode,
    /// RNG seed.
    pub seed: u64,
    /// Checkpoint output path (train only).
    pub save: Option<String>,
    /// Raw `--fault` specs (repeatable), e.g. `kill:w2@e3`,
    /// `drop:rows:0.01`, `straggle:w1:20`.
    pub faults: Vec<String>,
    /// Checkpoint cadence in epochs; 0 disables recovery.
    pub checkpoint_every: usize,
    /// Durable checkpoint store directory; `None` keeps checkpoints
    /// memory-only.
    pub ckpt_dir: Option<String>,
    /// Durable generations to retain under `--ckpt-dir`.
    pub keep_checkpoints: usize,
    /// Override for the first receive window in milliseconds.
    pub recv_timeout_ms: Option<u64>,
    /// Override for the number of doubled-window receive retries.
    pub recv_retries: Option<u32>,
    /// Metrics JSON output path (train only).
    pub metrics_out: Option<String>,
    /// Chrome `trace_event` JSON output path (train only).
    pub trace_out: Option<String>,
}

impl Default for RunArgs {
    fn default() -> Self {
        Self {
            dataset: "google".to_string(),
            scale: 0.005,
            model: ModelKind::Gcn,
            hidden: None,
            engine: EngineKind::Hybrid,
            workers: 4,
            threads: 0,
            cluster: "ecs".to_string(),
            partitioner: Partitioner::Chunk,
            epochs: 10,
            lr: 0.01,
            opts: ExecOptions::all(),
            sync: SyncMode::AllReduce,
            seed: 42,
            save: None,
            faults: Vec::new(),
            checkpoint_every: 0,
            ckpt_dir: None,
            keep_checkpoints: 3,
            recv_timeout_ms: None,
            recv_retries: None,
            metrics_out: None,
            trace_out: None,
        }
    }
}

impl RunArgs {
    /// Builds the modeled cluster from the preset name and worker count.
    pub fn cluster_spec(&self) -> Result<ClusterSpec, String> {
        match self.cluster.as_str() {
            "ecs" => Ok(ClusterSpec::aliyun_ecs(self.workers)),
            "ibv" => Ok(ClusterSpec::ibv(self.workers)),
            "cpu" => Ok(ClusterSpec::cpu_single()),
            other => Err(format!("unknown cluster preset {other:?} (ecs|ibv|cpu)")),
        }
    }

    /// Compiles the `--fault` specs into a seeded [`FaultPlan`].
    pub fn fault_plan(&self) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default().with_seed(self.seed);
        for spec in &self.faults {
            plan.push_spec(spec)?;
        }
        Ok(plan)
    }

    /// The recovery policy implied by `--checkpoint-every`.
    pub fn recovery(&self) -> RecoveryConfig {
        RecoveryConfig::every(self.checkpoint_every)
    }

    /// The durable checkpoint store implied by `--ckpt-dir` /
    /// `--keep-checkpoints` (disabled when no directory is given).
    pub fn store(&self) -> StoreConfig {
        match &self.ckpt_dir {
            Some(dir) => StoreConfig::at(dir).keep(self.keep_checkpoints),
            None => StoreConfig::default(),
        }
    }

    /// The receive policy: defaults with any `--recv-timeout-ms` /
    /// `--recv-retries` overrides applied.
    pub fn recv(&self) -> RecvConfig {
        let mut rc = RecvConfig::default();
        if let Some(ms) = self.recv_timeout_ms {
            rc.timeout_ms = ms;
        }
        if let Some(n) = self.recv_retries {
            rc.retries = n;
        }
        rc
    }
}

/// Usage text; `{fault-help}` stands for the `--fault` help that
/// [`usage`] renders from the fault grammar.
const USAGE: &str = "\
nts — NeutronStar reproduction CLI

USAGE:
  nts datasets
  nts train    [options]
  nts simulate [options]
  nts probe    [options]
  nts chaos    [chaos options]
  nts serve    --ckpt-dir <path> [serve options]

OPTIONS (train/simulate/probe):
  --dataset <name>        registry name (default google)
  --scale <f>             materialization scale (default 0.005)
  --model <gcn|gin|gat|sage>
  --hidden <n>            hidden width (default: dataset pairing)
  --engine <depcache|depcomm|hybrid>
  --workers <n>           worker count (default 4)
  --threads <n>           intra-worker compute threads for the tensor
                          and aggregation kernels; 0 = auto (one per
                          core). Results are bit-identical at any
                          setting (default 0)
  --cluster <ecs|ibv|cpu> cluster preset (default ecs)
  --partitioner <chunk|metis|fennel>
  --epochs <n>            training epochs (default 10)
  --lr <f>                learning rate (default 0.01)
  --sync <allreduce|ps>   gradient synchronization
  --seed <n>              RNG seed (default 42)
  --save <path>           write trained checkpoint (train only)
{fault-help}  --checkpoint-every <n>  checkpoint cadence in epochs; 0 disables
                          rollback recovery (default 0)
  --ckpt-dir <path>       persist each checkpoint as a CRC-versioned
                          generation under <path>; rollbacks reload
                          from disk, skipping damaged generations
  --keep-checkpoints <k>  durable generations to retain (default 3)
  --recv-timeout-ms <ms>  first receive window before a timeout retry
                          (default 1000)
  --recv-retries <n>      doubled-window retries after the first
                          timeout before the peer is declared failed
                          (default 3)
  --metrics-out <path>    write run metrics as JSON (train only)
  --trace-out <path>      write a Chrome trace_event JSON timeline,
                          loadable in Perfetto / chrome://tracing
                          (train only)
  --no-ring --no-lockfree --no-overlap   disable optimizations

CHAOS OPTIONS (chaos):
  --schedules <n>         seeded fault schedules to run (default 8)
  --seed <n>              base seed; schedule i uses seed+i (default 42)
  --dataset <name>        registry name (default google)
  --scale <f>             materialization scale (default 0.002)
  --workers <n>           worker count (default 3)
  --epochs <n>            epochs per schedule (default 6)
  --checkpoint-every <n>  checkpoint cadence (default 2)
  --corrupt <p>           max wire-corruption probability per schedule;
                          0 disables corrupt faults (default 0.25)
  --ckpt-dir <path>       base directory for per-seed durable stores
                          (default: scratch under the system temp dir)
  --partition             generate healable link-fault schedules
                          (partitions, half-partitions, flaps; no
                          kills) and check the liveness invariant:
                          every run must terminate with no circuit
                          breaker stuck open against a healed link
  --resource              generate resource-exhaustion schedules
                          (disk-full windows, slow disks, memory-
                          pressure caps, hung workers) and check the
                          degrade-don't-die invariant: runs finish
                          within the loss tolerance, the pool high-
                          water mark respects the cap, a disk-full
                          run keeps >= 1 loadable generation, and
                          every hang trips the watchdog

SERVE OPTIONS (serve):
  --ckpt-dir <path>       durable checkpoint store to serve (required);
                          the newest intact generation is loaded
  --keep-checkpoints <k>  generations retained in the store (default 3)
  --dataset/--scale/--model/--hidden/--seed
                          must match the training run; parameter names
                          and shapes are validated at startup
  --shards <n>            shard workers, one partition each (default 2)
  --partitioner <chunk|metis|fennel>
  --queue-cap <n>         bounded admission queue; a full queue rejects
                          rather than blocks (default 1024)
  --batch-max <n>         max queries per dispatched batch (default 32)
  --batch-window-us <us>  adaptive batch accretion window (default 400)
  --inflight <n>          max queries outstanding at shards (default 256)
  --cache-rows <n>        per-shard LRU feature-cache rows (default 4096)
  --reply-timeout-ms <ms> shard reply deadline before it is declared
                          dead and its queries reroute (default 250)
  --fetch-timeout-ms <ms> shard-to-shard feature-fetch deadline before
                          the mirror fallback (default 100)
  --slow-path-us <us>     modeled mirror-read penalty (default 300)
  --queries <n>           open-loop queries to offer (default 10000)
  --rate <qps>            offered rate (default 2000)
  --zipf <s>              seed-vertex popularity skew; 0 = uniform
                          (default 0.9)
  --fault <spec>          deterministic fault (repeatable); for serve,
                          kill:w<id>@e<n> kills the shard at endpoint
                          <id> (shards are 1..=S) once it receives a
                          query id >= n; wire faults apply to serve
                          traffic and heal via CRC + retransmission
  --metrics-out <path>    write run metrics as JSON
  --report <path>         write a bench-serve/v1 JSON report
";

/// The usage text. The `--fault` forms and message kinds are rendered from
/// [`GRAMMAR`] and [`KindSel::names`], so the help cannot drift from what
/// [`parse_fault`] accepts.
pub fn usage() -> String {
    let mut help =
        "  --fault <spec>          inject a deterministic fault (repeatable):\n".to_string();
    for (syntax, effect) in GRAMMAR {
        help += &format!("{:28}{syntax}\n{:32}{effect}\n", "", "");
    }
    help += &format!(
        "{0:26}<kind>: {1};\n{0:26}<ms> takes an optional ms suffix; see\n\
         {0:26}docs/FAULTS.md for worked examples\n",
        "",
        KindSel::names()
    );
    USAGE.replace("{fault-help}", &help)
}

fn parse_flag_value<'a>(
    flags: &'a BTreeMap<String, String>,
    key: &str,
) -> Option<&'a String> {
    flags.get(key)
}

/// Parses CLI arguments (excluding the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "datasets" => return Ok(Command::Datasets),
        "chaos" => return parse_chaos(&args[1..]),
        "serve" => return parse_serve(&args[1..]),
        "train" | "simulate" | "probe" => {}
        other => return Err(format!("unknown subcommand {other:?}")),
    }

    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut switches: Vec<String> = Vec::new();
    let mut faults: Vec<String> = Vec::new();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument {arg:?}"));
        };
        if matches!(key, "no-ring" | "no-lockfree" | "no-overlap") {
            switches.push(key.to_string());
        } else if key == "fault" {
            // Repeatable: each occurrence adds one fault to the plan.
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            parse_fault(value)?; // validate eagerly for a good error
            faults.push(value.clone());
        } else {
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            flags.insert(key.to_string(), value.clone());
        }
    }

    let mut ra = RunArgs::default();
    if let Some(v) = parse_flag_value(&flags, "dataset") {
        ra.dataset = v.clone();
    }
    if let Some(v) = parse_flag_value(&flags, "scale") {
        ra.scale = v.parse().map_err(|_| format!("bad --scale {v:?}"))?;
    }
    if let Some(v) = parse_flag_value(&flags, "model") {
        ra.model = match v.as_str() {
            "gcn" => ModelKind::Gcn,
            "gin" => ModelKind::Gin,
            "gat" => ModelKind::Gat,
            "sage" => ModelKind::Sage,
            _ => return Err(format!("bad --model {v:?}")),
        };
    }
    if let Some(v) = parse_flag_value(&flags, "hidden") {
        ra.hidden = Some(v.parse().map_err(|_| format!("bad --hidden {v:?}"))?);
    }
    if let Some(v) = parse_flag_value(&flags, "engine") {
        ra.engine = match v.as_str() {
            "depcache" => EngineKind::DepCache,
            "depcomm" => EngineKind::DepComm,
            "hybrid" => EngineKind::Hybrid,
            _ => return Err(format!("bad --engine {v:?}")),
        };
    }
    if let Some(v) = parse_flag_value(&flags, "workers") {
        ra.workers = v.parse().map_err(|_| format!("bad --workers {v:?}"))?;
    }
    if let Some(v) = parse_flag_value(&flags, "threads") {
        ra.threads = v.parse().map_err(|_| format!("bad --threads {v:?}"))?;
    }
    if let Some(v) = parse_flag_value(&flags, "cluster") {
        ra.cluster = v.clone();
    }
    if let Some(v) = parse_flag_value(&flags, "partitioner") {
        ra.partitioner = v.parse().map_err(|_| format!("bad --partitioner {v:?}"))?;
    }
    if let Some(v) = parse_flag_value(&flags, "epochs") {
        ra.epochs = v.parse().map_err(|_| format!("bad --epochs {v:?}"))?;
    }
    if let Some(v) = parse_flag_value(&flags, "lr") {
        ra.lr = v.parse().map_err(|_| format!("bad --lr {v:?}"))?;
    }
    if let Some(v) = parse_flag_value(&flags, "sync") {
        ra.sync = match v.as_str() {
            "allreduce" => SyncMode::AllReduce,
            "ps" | "parameter-server" => SyncMode::ParameterServer,
            _ => return Err(format!("bad --sync {v:?}")),
        };
    }
    if let Some(v) = parse_flag_value(&flags, "seed") {
        ra.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
    }
    if let Some(v) = parse_flag_value(&flags, "save") {
        ra.save = Some(v.clone());
    }
    if let Some(v) = parse_flag_value(&flags, "checkpoint-every") {
        ra.checkpoint_every =
            v.parse().map_err(|_| format!("bad --checkpoint-every {v:?}"))?;
    }
    if let Some(v) = parse_flag_value(&flags, "ckpt-dir") {
        ra.ckpt_dir = Some(v.clone());
    }
    if let Some(v) = parse_flag_value(&flags, "keep-checkpoints") {
        ra.keep_checkpoints =
            v.parse().map_err(|_| format!("bad --keep-checkpoints {v:?}"))?;
    }
    if let Some(v) = parse_flag_value(&flags, "recv-timeout-ms") {
        ra.recv_timeout_ms =
            Some(v.parse().map_err(|_| format!("bad --recv-timeout-ms {v:?}"))?);
    }
    if let Some(v) = parse_flag_value(&flags, "recv-retries") {
        ra.recv_retries =
            Some(v.parse().map_err(|_| format!("bad --recv-retries {v:?}"))?);
    }
    if let Some(v) = parse_flag_value(&flags, "metrics-out") {
        ra.metrics_out = Some(v.clone());
    }
    if let Some(v) = parse_flag_value(&flags, "trace-out") {
        ra.trace_out = Some(v.clone());
    }
    ra.faults = faults;
    for s in switches {
        match s.as_str() {
            "no-ring" => ra.opts.ring = false,
            "no-lockfree" => ra.opts.lock_free = false,
            "no-overlap" => ra.opts.overlap = false,
            _ => unreachable!(),
        }
    }

    Ok(match sub.as_str() {
        "train" => Command::Train(ra),
        "simulate" => Command::Simulate(ra),
        "probe" => Command::Probe(ra),
        _ => unreachable!(),
    })
}

/// Parses the flags of `nts serve`.
fn parse_serve(args: &[String]) -> Result<Command, String> {
    let mut sa = ServeArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument {arg:?}"));
        };
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        match key {
            "dataset" => sa.dataset = value.clone(),
            "scale" => {
                sa.scale = value.parse().map_err(|_| format!("bad --scale {value:?}"))?;
            }
            "model" => {
                sa.model = match value.as_str() {
                    "gcn" => ModelKind::Gcn,
                    "gin" => ModelKind::Gin,
                    "gat" => ModelKind::Gat,
                    "sage" => ModelKind::Sage,
                    _ => return Err(format!("bad --model {value:?}")),
                };
            }
            "hidden" => {
                sa.hidden =
                    Some(value.parse().map_err(|_| format!("bad --hidden {value:?}"))?);
            }
            "seed" => {
                sa.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?;
            }
            "ckpt-dir" => sa.ckpt_dir = value.clone(),
            "keep-checkpoints" => {
                sa.keep_checkpoints = value
                    .parse()
                    .map_err(|_| format!("bad --keep-checkpoints {value:?}"))?;
            }
            "shards" => {
                sa.shards = value.parse().map_err(|_| format!("bad --shards {value:?}"))?;
            }
            "partitioner" => {
                sa.partitioner =
                    value.parse().map_err(|_| format!("bad --partitioner {value:?}"))?;
            }
            "queue-cap" => {
                sa.queue_capacity =
                    value.parse().map_err(|_| format!("bad --queue-cap {value:?}"))?;
            }
            "batch-max" => {
                sa.batch_max =
                    value.parse().map_err(|_| format!("bad --batch-max {value:?}"))?;
            }
            "batch-window-us" => {
                sa.batch_window_us = value
                    .parse()
                    .map_err(|_| format!("bad --batch-window-us {value:?}"))?;
            }
            "inflight" => {
                sa.inflight_cap =
                    value.parse().map_err(|_| format!("bad --inflight {value:?}"))?;
            }
            "cache-rows" => {
                sa.cache_rows =
                    value.parse().map_err(|_| format!("bad --cache-rows {value:?}"))?;
            }
            "reply-timeout-ms" => {
                sa.reply_timeout_ms = value
                    .parse()
                    .map_err(|_| format!("bad --reply-timeout-ms {value:?}"))?;
            }
            "fetch-timeout-ms" => {
                sa.fetch_timeout_ms = value
                    .parse()
                    .map_err(|_| format!("bad --fetch-timeout-ms {value:?}"))?;
            }
            "slow-path-us" => {
                sa.slow_path_us =
                    value.parse().map_err(|_| format!("bad --slow-path-us {value:?}"))?;
            }
            "queries" => {
                sa.queries =
                    value.parse().map_err(|_| format!("bad --queries {value:?}"))?;
            }
            "rate" => {
                sa.rate_qps = value.parse().map_err(|_| format!("bad --rate {value:?}"))?;
                if sa.rate_qps <= 0.0 {
                    return Err(format!("--rate {value:?} must be positive"));
                }
            }
            "zipf" => {
                sa.zipf_s = value.parse().map_err(|_| format!("bad --zipf {value:?}"))?;
                if sa.zipf_s < 0.0 {
                    return Err(format!("--zipf {value:?} must be >= 0"));
                }
            }
            "fault" => {
                parse_fault(value)?; // validate eagerly for a good error
                sa.faults.push(value.clone());
            }
            "metrics-out" => sa.metrics_out = Some(value.clone()),
            "report" => sa.report_out = Some(value.clone()),
            other => return Err(format!("unknown serve flag --{other}")),
        }
    }
    if sa.ckpt_dir.is_empty() {
        return Err(
            "serve needs --ckpt-dir (a durable store written by \
             `nts train --ckpt-dir ...`)"
                .to_string(),
        );
    }
    if sa.shards == 0 {
        return Err("serve needs --shards >= 1".to_string());
    }
    if sa.queue_capacity == 0 || sa.batch_max == 0 || sa.inflight_cap == 0 {
        return Err(
            "--queue-cap, --batch-max, and --inflight must all be >= 1".to_string()
        );
    }
    Ok(Command::Serve(sa))
}

/// Parses the flags of `nts chaos`.
fn parse_chaos(args: &[String]) -> Result<Command, String> {
    let mut ca = ChaosArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument {arg:?}"));
        };
        if key == "partition" {
            ca.partition = true;
            continue;
        }
        if key == "resource" {
            ca.resource = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        match key {
            "schedules" => {
                ca.schedules =
                    value.parse().map_err(|_| format!("bad --schedules {value:?}"))?;
            }
            "seed" => {
                ca.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?;
            }
            "dataset" => ca.dataset = value.clone(),
            "scale" => {
                ca.scale = value.parse().map_err(|_| format!("bad --scale {value:?}"))?;
            }
            "workers" => {
                ca.workers =
                    value.parse().map_err(|_| format!("bad --workers {value:?}"))?;
            }
            "epochs" => {
                ca.epochs = value.parse().map_err(|_| format!("bad --epochs {value:?}"))?;
            }
            "checkpoint-every" => {
                ca.checkpoint_every = value
                    .parse()
                    .map_err(|_| format!("bad --checkpoint-every {value:?}"))?;
            }
            "corrupt" => {
                ca.corrupt =
                    value.parse().map_err(|_| format!("bad --corrupt {value:?}"))?;
                if !(0.0..=1.0).contains(&ca.corrupt) {
                    return Err(format!("--corrupt {value:?} must be in [0, 1]"));
                }
            }
            "ckpt-dir" => ca.ckpt_dir = Some(value.clone()),
            other => return Err(format!("unknown chaos flag --{other}")),
        }
    }
    if ca.workers < 2 {
        return Err("chaos needs --workers >= 2 (kills need a survivor)".to_string());
    }
    if ca.checkpoint_every == 0 || ca.epochs <= ca.checkpoint_every {
        return Err("chaos needs 0 < --checkpoint-every < --epochs".to_string());
    }
    if ca.partition && ca.resource {
        return Err("--partition and --resource are mutually exclusive matrices".to_string());
    }
    if ca.resource && ca.epochs <= ca.checkpoint_every + 1 {
        return Err(
            "--resource needs --epochs > --checkpoint-every + 1 (a disk-full \
             window must leave a clean final boundary)"
                .to_string(),
        );
    }
    Ok(Command::Chaos(ca))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn datasets_subcommand() {
        assert_eq!(parse(&args("datasets")).unwrap(), Command::Datasets);
    }

    #[test]
    fn train_with_full_flags() {
        let cmd = parse(&args(
            "train --dataset reddit --scale 0.001 --model gat --engine depcomm \
             --workers 8 --cluster ibv --partitioner fennel --epochs 5 --lr 0.05 \
             --sync ps --seed 7 --save /tmp/m.ckpt --no-overlap \
             --metrics-out /tmp/m.json --trace-out /tmp/m.trace.json",
        ))
        .unwrap();
        let Command::Train(ra) = cmd else { panic!("expected train") };
        assert_eq!(ra.dataset, "reddit");
        assert_eq!(ra.scale, 0.001);
        assert_eq!(ra.model, ModelKind::Gat);
        assert_eq!(ra.engine, EngineKind::DepComm);
        assert_eq!(ra.workers, 8);
        assert_eq!(ra.cluster, "ibv");
        assert_eq!(ra.partitioner, Partitioner::Fennel);
        assert_eq!(ra.epochs, 5);
        assert_eq!(ra.lr, 0.05);
        assert_eq!(ra.sync, SyncMode::ParameterServer);
        assert_eq!(ra.seed, 7);
        assert_eq!(ra.save.as_deref(), Some("/tmp/m.ckpt"));
        assert_eq!(ra.metrics_out.as_deref(), Some("/tmp/m.json"));
        assert_eq!(ra.trace_out.as_deref(), Some("/tmp/m.trace.json"));
        assert!(ra.opts.ring && ra.opts.lock_free && !ra.opts.overlap);
    }

    #[test]
    fn defaults_apply() {
        let Command::Simulate(ra) = parse(&args("simulate")).unwrap() else {
            panic!()
        };
        assert_eq!(ra, RunArgs::default());
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(&args("frobnicate")).unwrap_err().contains("unknown subcommand"));
        assert!(parse(&args("train --model vae")).unwrap_err().contains("--model"));
        assert!(parse(&args("train --epochs")).unwrap_err().contains("needs a value"));
        assert!(parse(&args("train epochs 3")).unwrap_err().contains("unexpected"));
    }

    #[test]
    fn fault_flag_is_repeatable() {
        let cmd = parse(&args(
            "train --fault kill:w2@e3 --fault drop:rows:0.01 --checkpoint-every 2 --seed 9",
        ))
        .unwrap();
        let Command::Train(ra) = cmd else { panic!("expected train") };
        assert_eq!(ra.faults, vec!["kill:w2@e3", "drop:rows:0.01"]);
        assert_eq!(ra.checkpoint_every, 2);
        let plan = ra.fault_plan().unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.kill_epoch(2), Some(3));
        assert!(ra.recovery().enabled());
    }

    #[test]
    fn bad_fault_spec_rejected_at_parse_time() {
        let err = parse(&args("train --fault explode:w1")).unwrap_err();
        assert!(err.contains("fault"), "{err}");
        assert!(parse(&args("train --fault")).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn usage_renders_every_fault_form_and_kind() {
        let text = usage();
        assert!(!text.contains("{fault-help}"), "placeholder left in the help");
        for (syntax, effect) in GRAMMAR {
            assert!(text.contains(syntax), "help lacks {syntax}");
            assert!(text.contains(effect), "help lacks the effect of {syntax}");
        }
        for name in ns_net::KIND_NAMES {
            assert!(text.contains(&format!("{name}|")), "help lacks kind {name}");
        }
        assert!(text.lines().all(|l| l.chars().count() <= 80), "help wraps at 80 columns");
    }

    #[test]
    fn recv_policy_flags() {
        let Command::Train(ra) =
            parse(&args("train --recv-timeout-ms 250 --recv-retries 5")).unwrap()
        else {
            panic!("expected train")
        };
        assert_eq!(ra.recv_timeout_ms, Some(250));
        assert_eq!(ra.recv_retries, Some(5));
        let rc = ra.recv();
        assert_eq!(rc.timeout_ms, 250);
        assert_eq!(rc.retries, 5);
        // Defaults pass through untouched.
        let rc = RunArgs::default().recv();
        assert_eq!(rc, RecvConfig::default());
        assert!(parse(&args("train --recv-retries many"))
            .unwrap_err()
            .contains("--recv-retries"));
    }

    #[test]
    fn threads_flag() {
        let Command::Train(ra) = parse(&args("train --threads 4")).unwrap() else {
            panic!("expected train")
        };
        assert_eq!(ra.threads, 4);
        assert_eq!(RunArgs::default().threads, 0);
        assert!(parse(&args("train --threads lots")).unwrap_err().contains("--threads"));
    }

    #[test]
    fn durable_store_flags() {
        let Command::Train(ra) =
            parse(&args("train --ckpt-dir /tmp/ckpts --keep-checkpoints 5")).unwrap()
        else {
            panic!("expected train")
        };
        assert_eq!(ra.ckpt_dir.as_deref(), Some("/tmp/ckpts"));
        assert_eq!(ra.keep_checkpoints, 5);
        let store = ra.store();
        assert!(store.enabled());
        assert_eq!(store.keep, 5);
        // Without --ckpt-dir, durability stays off.
        assert!(!RunArgs::default().store().enabled());
        assert!(parse(&args("train --keep-checkpoints none"))
            .unwrap_err()
            .contains("--keep-checkpoints"));
    }

    #[test]
    fn corrupt_fault_spec_round_trips() {
        let cmd = parse(&args(
            "train --fault corrupt:grads:0.25@e1 --fault corrupt:ckpt:1.0@e4",
        ))
        .unwrap();
        let Command::Train(ra) = cmd else { panic!("expected train") };
        assert_eq!(ra.faults, vec!["corrupt:grads:0.25@e1", "corrupt:ckpt:1.0@e4"]);
        let plan = ra.fault_plan().unwrap();
        let specs: Vec<String> = plan.faults.iter().map(|f| f.to_string()).collect();
        assert_eq!(specs, vec!["corrupt:grads:0.25@e1", "corrupt:ckpt:1@e4"]);
        assert!(parse(&args("train --fault corrupt:ckpt:2.0"))
            .unwrap_err()
            .contains("probability"));
    }

    #[test]
    fn chaos_subcommand() {
        let Command::Chaos(ca) = parse(&args("chaos")).unwrap() else {
            panic!("expected chaos")
        };
        assert_eq!(ca, ChaosArgs::default());
        let Command::Chaos(ca) = parse(&args(
            "chaos --schedules 32 --seed 7 --workers 4 --epochs 8 --checkpoint-every 3",
        ))
        .unwrap() else {
            panic!("expected chaos")
        };
        assert_eq!(ca.schedules, 32);
        assert_eq!(ca.seed, 7);
        assert_eq!(ca.workers, 4);
        assert_eq!(ca.epochs, 8);
        assert_eq!(ca.checkpoint_every, 3);
        assert!(!ca.partition);
        let Command::Chaos(ca) = parse(&args("chaos --partition --schedules 4")).unwrap()
        else {
            panic!("expected chaos")
        };
        assert!(ca.partition);
        assert_eq!(ca.schedules, 4);
        let Command::Chaos(ca) = parse(&args("chaos --resource --schedules 4")).unwrap()
        else {
            panic!("expected chaos")
        };
        assert!(ca.resource && !ca.partition);
        assert!(parse(&args("chaos --partition --resource"))
            .unwrap_err()
            .contains("mutually exclusive"));
        assert!(parse(&args("chaos --resource --epochs 3 --checkpoint-every 2"))
            .unwrap_err()
            .contains("clean final boundary"));
        assert!(parse(&args("chaos --workers 1")).unwrap_err().contains("workers"));
        assert!(parse(&args("chaos --epochs 2 --checkpoint-every 2"))
            .unwrap_err()
            .contains("checkpoint-every"));
        assert!(parse(&args("chaos --frobnicate 1")).unwrap_err().contains("chaos flag"));
    }

    #[test]
    fn serve_subcommand_with_full_flags() {
        let cmd = parse(&args(
            "serve --ckpt-dir /tmp/ckpts --dataset reddit --scale 0.001 --model sage \
             --seed 7 --shards 3 --partitioner fennel --queue-cap 256 --batch-max 16 \
             --batch-window-us 200 --inflight 64 --cache-rows 512 \
             --reply-timeout-ms 100 --fetch-timeout-ms 50 --slow-path-us 150 \
             --queries 5000 --rate 1500 --zipf 1.1 --fault kill:w2@e100 \
             --metrics-out /tmp/s.json --report /tmp/BENCH_serve.json",
        ))
        .unwrap();
        let Command::Serve(sa) = cmd else { panic!("expected serve") };
        assert_eq!(sa.ckpt_dir, "/tmp/ckpts");
        assert_eq!(sa.dataset, "reddit");
        assert_eq!(sa.model, ModelKind::Sage);
        assert_eq!(sa.seed, 7);
        assert_eq!(sa.shards, 3);
        assert_eq!(sa.partitioner, Partitioner::Fennel);
        assert_eq!(sa.queries, 5000);
        assert_eq!(sa.rate_qps, 1500.0);
        assert_eq!(sa.zipf_s, 1.1);
        assert_eq!(sa.faults, vec!["kill:w2@e100"]);
        assert_eq!(sa.metrics_out.as_deref(), Some("/tmp/s.json"));
        assert_eq!(sa.report_out.as_deref(), Some("/tmp/BENCH_serve.json"));
        let cfg = sa.serve_config().unwrap();
        assert_eq!(cfg.shards, 3);
        assert_eq!(cfg.queue_capacity, 256);
        assert_eq!(cfg.batch_max, 16);
        assert_eq!(cfg.batch_window_us, 200);
        assert_eq!(cfg.inflight_cap, 64);
        assert_eq!(cfg.cache_rows, 512);
        assert_eq!(cfg.reply_timeout_ms, 100);
        assert_eq!(cfg.fetch_timeout_ms, 50);
        assert_eq!(cfg.slow_path_us, 150);
        assert_eq!(cfg.fault.kill_epoch(2), Some(100));
        assert_eq!(cfg.fault.seed, 7);
        let load = sa.open_loop();
        assert_eq!(load.queries, 5000);
        assert_eq!(load.rate_qps, 1500.0);
    }

    #[test]
    fn serve_defaults_mirror_engine_defaults() {
        let Command::Serve(sa) = parse(&args("serve --ckpt-dir /tmp/c")).unwrap()
        else {
            panic!("expected serve")
        };
        assert_eq!(sa, ServeArgs { ckpt_dir: "/tmp/c".into(), ..ServeArgs::default() });
        let want = ns_runtime::ServeConfig::default();
        let got = sa.serve_config().unwrap();
        assert_eq!(got.queue_capacity, want.queue_capacity);
        assert_eq!(got.batch_max, want.batch_max);
        assert_eq!(got.inflight_cap, want.inflight_cap);
        assert_eq!(got.cache_rows, want.cache_rows);
    }

    #[test]
    fn serve_validation_errors() {
        assert!(parse(&args("serve")).unwrap_err().contains("--ckpt-dir"));
        assert!(parse(&args("serve --ckpt-dir /c --shards 0"))
            .unwrap_err()
            .contains("--shards"));
        assert!(parse(&args("serve --ckpt-dir /c --queue-cap 0"))
            .unwrap_err()
            .contains("--queue-cap"));
        assert!(parse(&args("serve --ckpt-dir /c --rate -5"))
            .unwrap_err()
            .contains("--rate"));
        assert!(parse(&args("serve --ckpt-dir /c --zipf -1"))
            .unwrap_err()
            .contains("--zipf"));
        assert!(parse(&args("serve --ckpt-dir /c --fault explode:w1"))
            .unwrap_err()
            .contains("fault"));
        assert!(parse(&args("serve --frobnicate 1"))
            .unwrap_err()
            .contains("serve flag"));
        assert!(parse(&args("serve --queries")).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn cluster_spec_resolution() {
        let mut ra = RunArgs { workers: 3, ..Default::default() };
        assert_eq!(ra.cluster_spec().unwrap().workers, 3);
        ra.cluster = "ibv".into();
        assert!(ra.cluster_spec().unwrap().name.starts_with("ibv"));
        ra.cluster = "mars".into();
        assert!(ra.cluster_spec().is_err());
    }
}
