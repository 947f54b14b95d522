//! Argument parsing for the `nts` command-line tool.
//!
//! Each subcommand's flags are one table of `Flag` rows: name and value
//! metavar, help and setter. One loop parses every subcommand against its
//! table, so a flag the table lacks is an error, and [`usage`] renders the
//! help from the same rows. Parsing is separated from execution so it can
//! be unit tested without running anything.

use std::str::FromStr;

use ns_gnn::ModelKind::{self, Gat, Gcn, Gin, Sage};
use ns_graph::Partitioner;
use ns_net::fault::{FaultPlan, KindSel, GRAMMAR};
use ns_net::SyncMode::{self, AllReduce, ParameterServer};
use ns_net::{ClusterSpec, ExecOptions};
use ns_runtime::serve::load::OpenLoop;
use ns_runtime::EngineKind::{self, DepCache, DepComm, Hybrid};
use ns_runtime::{RecoveryConfig, RunState, ServeConfig, StoreConfig};

use crate::chaos::{ChaosConfig, Matrix};

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

/// The dataset and model a run builds. `nts serve` must be given the
/// values its checkpoint was trained with: the graph is re-materialized
/// from them and the parameter shapes are validated at startup.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArgs {
    /// Dataset name from the registry.
    pub dataset: String,
    /// Materialization scale.
    pub scale: f64,
    /// Model architecture.
    pub kind: ModelKind,
    /// Hidden width; `None` takes the dataset's paper pairing.
    pub hidden: Option<usize>,
    /// Seed of the dataset, the initial weights and every seeded stream
    /// of the run (fault coins, serve load).
    pub seed: u64,
}

impl Default for ModelArgs {
    fn default() -> Self {
        Self {
            dataset: "google".to_string(),
            scale: 0.005,
            kind: Gcn,
            hidden: None,
            seed: 42,
        }
    }
}

/// Options of `train` / `simulate` / `probe`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Dataset and model.
    pub model: ModelArgs,
    /// Dependency engine.
    pub engine: EngineKind,
    /// Worker count.
    pub workers: usize,
    /// Intra-worker compute threads (0 = auto).
    pub threads: usize,
    /// Cluster preset (`ecs`, `ibv` or `cpu`).
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
    /// Checkpoint output path (train only).
    pub save: Option<String>,
    /// Injected faults, seeded with `model.seed`.
    pub fault: FaultPlan,
    /// Rollback recovery policy.
    pub recovery: RecoveryConfig,
    /// Durable checkpoint store (memory-only without a directory).
    pub store: StoreConfig,
    /// Whole wait of one receive before its peer is declared failed, ms.
    pub recv_timeout_ms: u64,
    /// Metrics JSON output path (train only).
    pub metrics_out: Option<String>,
    /// Chrome `trace_event` JSON output path (train only).
    pub trace_out: Option<String>,
}

impl Default for RunArgs {
    fn default() -> Self {
        let model = ModelArgs::default();
        Self {
            fault: FaultPlan::default().with_seed(model.seed),
            model,
            engine: Hybrid,
            workers: 4,
            threads: 0,
            cluster: "ecs".to_string(),
            partitioner: Partitioner::Chunk,
            epochs: 10,
            lr: 0.01,
            opts: ExecOptions::all(),
            sync: AllReduce,
            save: None,
            recovery: RecoveryConfig::default(),
            store: StoreConfig::default(),
            recv_timeout_ms: RunState::default().recv_timeout_ms,
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
}

/// Options of `nts serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Dataset and model; must match the training run.
    pub model: ModelArgs,
    /// Durable checkpoint store directory (required).
    pub ckpt_dir: String,
    /// Serving engine configuration; its fault plan is seeded with
    /// `model.seed`.
    pub cfg: ServeConfig,
    /// Open-loop load; its seed is `model.seed`.
    pub load: OpenLoop,
    /// Metrics JSON output path.
    pub metrics_out: Option<String>,
    /// `bench-serve/v1` report output path.
    pub report_out: Option<String>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        let model = ModelArgs::default();
        Self {
            cfg: ServeConfig {
                fault: FaultPlan::default().with_seed(model.seed),
                ..ServeConfig::default()
            },
            load: OpenLoop {
                queries: 10_000,
                rate_qps: 2_000.0,
                seed: model.seed,
                zipf_s: 0.9,
            },
            model,
            ckpt_dir: String::new(),
            metrics_out: None,
            report_out: None,
        }
    }
}

/// Options of `nts chaos`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosArgs {
    /// Number of seeded schedules to run.
    pub schedules: usize,
    /// Base seed; schedule `i` uses `seed + i`.
    pub seed: u64,
    /// The soak's workload. `ckpt_base: None` lets the runner pick a
    /// scratch directory under the system temp dir.
    pub cfg: ChaosConfig,
}

impl Default for ChaosArgs {
    fn default() -> Self {
        Self {
            schedules: 8,
            seed: 42,
            cfg: ChaosConfig::default(),
        }
    }
}

impl AsMut<ModelArgs> for RunArgs {
    fn as_mut(&mut self) -> &mut ModelArgs {
        &mut self.model
    }
}

impl AsMut<ModelArgs> for ServeArgs {
    fn as_mut(&mut self) -> &mut ModelArgs {
        &mut self.model
    }
}

/// One flag of a subcommand.
struct Flag<A> {
    /// The flag as the help shows it, without the leading `--`:
    /// `"name <metavar>"` takes a value, a bare `"name"` is a switch
    /// (its setter then receives `""`).
    spec: &'static str,
    /// Re-wrapped by [`usage`]. A `(default X)` in it must name a value
    /// that leaves the subcommand's defaults unchanged.
    help: &'static str,
    set: fn(&mut A, &str) -> Result<(), String>,
}

impl<A> Flag<A> {
    fn name(&self) -> &'static str {
        self.spec
            .split_once(' ')
            .map_or(self.spec, |(name, _)| name)
    }
}

/// Stores a parsed value in its field.
fn put<T>(slot: &mut T, value: Result<T, String>) -> Result<(), String> {
    *slot = value?;
    Ok(())
}

/// `--partition` / `--resource`: each picks the chaos matrix, so giving
/// both is an error.
fn set_matrix(slot: &mut Matrix, matrix: Matrix) -> Result<(), String> {
    if *slot != Matrix::Crash && *slot != matrix {
        return Err("--partition and --resource are mutually exclusive matrices".to_string());
    }
    *slot = matrix;
    Ok(())
}

fn num<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("cannot parse {v:?}"))
}

fn at_least(v: &str, min: usize) -> Result<usize, String> {
    let n = num(v)?;
    if n < min {
        return Err(format!("{n} is below the minimum {min}"));
    }
    Ok(n)
}

/// A real that `ok` accepts; `rule` names the accepted range. NaN fails
/// every comparison, so no rule admits it.
fn real<T>(v: &str, rule: &str, ok: fn(f64) -> bool) -> Result<T, String>
where
    T: FromStr + Copy + Into<f64>,
{
    let x: T = num(v)?;
    if !ok(x.into()) {
        return Err(format!("{v} is not {rule}"));
    }
    Ok(x)
}

fn positive<T: FromStr + Copy + Into<f64>>(v: &str) -> Result<T, String> {
    real(v, "a finite value > 0", |x| x > 0.0 && x.is_finite())
}

/// The value named `v`: `values[i]` is called by the `i`-th of the
/// `|`-separated `names`.
fn pick<T: Copy, const N: usize>(v: &str, names: &str, values: [T; N]) -> Result<T, String> {
    match names.split('|').position(|name| name == v) {
        Some(i) => Ok(values[i]),
        None => Err(format!("{v:?} is not one of {names}")),
    }
}

/// The rows `train` / `simulate` / `probe` share with `serve`.
fn model_flags<A: AsMut<ModelArgs>>() -> [Flag<A>; 5] {
    [
        Flag {
            spec: "dataset <name>",
            help: "registry name, see `nts datasets` (default google)",
            set: |a, v| put(&mut a.as_mut().dataset, Ok(v.to_string())),
        },
        Flag {
            spec: "scale <f>",
            help: "materialization scale, finite and > 0 (default 0.005)",
            set: |a, v| put(&mut a.as_mut().scale, positive(v)),
        },
        Flag {
            spec: "model <gcn|gin|gat|sage>",
            help: "model architecture (default gcn)",
            set: |a, v| {
                put(
                    &mut a.as_mut().kind,
                    pick(v, "gcn|gin|gat|sage", [Gcn, Gin, Gat, Sage]),
                )
            },
        },
        Flag {
            spec: "hidden <n>",
            help: "hidden width, at least 1; the dataset's paper pairing when unset",
            set: |a, v| put(&mut a.as_mut().hidden, at_least(v, 1).map(Some)),
        },
        Flag {
            spec: "seed <n>",
            help: "seed of the dataset, the weights and every seeded stream (default 42)",
            set: |a, v| put(&mut a.as_mut().seed, num(v)),
        },
    ]
}

/// The modelled cluster: read by `probe`, `simulate` and `train`.
fn cluster_flags() -> Vec<Flag<RunArgs>> {
    vec![
        Flag {
            spec: "workers <n>",
            help: "worker count (default 4)",
            set: |a, v| put(&mut a.workers, num(v)),
        },
        Flag {
            spec: "threads <n>",
            help: "intra-worker compute threads for the tensor and aggregation \
                   kernels; 0 = auto (one per core). Results are bit-identical \
                   at any setting (default 0)",
            set: |a, v| put(&mut a.threads, num(v)),
        },
        Flag {
            spec: "cluster <ecs|ibv|cpu>",
            help: "cluster preset (default ecs)",
            set: |a, v| put(&mut a.cluster, Ok(v.to_string())),
        },
    ]
}

/// The plan: read by `simulate` and `train`.
fn plan_flags() -> Vec<Flag<RunArgs>> {
    vec![
        Flag {
            spec: "engine <depcache|depcomm|hybrid>",
            help: "dependency engine (default hybrid)",
            set: |a, v| {
                put(
                    &mut a.engine,
                    pick(v, "depcache|depcomm|hybrid", [DepCache, DepComm, Hybrid]),
                )
            },
        },
        Flag {
            spec: "partitioner <chunk|metis|fennel>",
            help: "vertex-to-worker assignment (default chunk)",
            set: |a, v| put(&mut a.partitioner, v.parse()),
        },
        Flag {
            spec: "sync <allreduce|ps>",
            help: "price the simulated epoch's gradient synchronization \
                   (default allreduce); the executor always runs the ring \
                   all-reduce, so only the simulated epoch changes",
            set: |a, v| {
                let modes = [AllReduce, ParameterServer, ParameterServer];
                put(&mut a.sync, pick(v, "allreduce|ps|parameter-server", modes))
            },
        },
        Flag {
            spec: "no-ring",
            help: "price the simulated epoch without the ring schedule \
                   (Fig. 9); the executor always sends in ring order, so \
                   only the simulated epoch changes",
            set: |a, _| put(&mut a.opts.ring, Ok(false)),
        },
        Flag {
            spec: "no-lockfree",
            help: "price the simulated epoch with locked message enqueuing \
                   (Fig. 9); the executor always enqueues lock-free, so \
                   only the simulated epoch changes",
            set: |a, _| put(&mut a.opts.lock_free, Ok(false)),
        },
        Flag {
            spec: "no-overlap",
            help: "price the simulated epoch without communication/computation \
                   overlap (Fig. 9); the executor does not pipeline, so only \
                   the simulated epoch changes",
            set: |a, _| put(&mut a.opts.overlap, Ok(false)),
        },
    ]
}

/// The run: read by `train` only.
fn train_flags() -> Vec<Flag<RunArgs>> {
    vec![
        Flag {
            spec: "epochs <n>",
            help: "training epochs (default 10)",
            set: |a, v| put(&mut a.epochs, num(v)),
        },
        Flag {
            spec: "lr <f>",
            help: "learning rate, finite and > 0 (default 0.01)",
            set: |a, v| put(&mut a.lr, positive(v)),
        },
        Flag {
            spec: "save <path>",
            help: "write the trained checkpoint",
            set: |a, v| put(&mut a.save, Ok(Some(v.to_string()))),
        },
        Flag {
            spec: "fault <spec>",
            help: "inject a deterministic fault (repeatable); FAULT SPECS below",
            set: |a, v| a.fault.push_spec(v),
        },
        Flag {
            spec: "checkpoint-every <n>",
            help: "checkpoint cadence in epochs; 0 disables rollback recovery (default 0)",
            set: |a, v| put(&mut a.recovery.checkpoint_every, num(v)),
        },
        Flag {
            spec: "ckpt-dir <path>",
            help: "persist each checkpoint as a CRC-versioned generation under \
                   <path>; rollbacks reload from disk, skipping damaged generations",
            set: |a, v| put(&mut a.store.dir, Ok(Some(v.into()))),
        },
        Flag {
            spec: "keep-checkpoints <k>",
            help: "durable generations to retain (default 3)",
            set: |a, v| put(&mut a.store.keep, num(v).map(|k: usize| k.max(1))),
        },
        Flag {
            spec: "recv-timeout-ms <ms>",
            help: "whole wait of one receive before its peer is declared failed, \
                   at least 1 (default 15000)",
            set: |a, v| put(&mut a.recv_timeout_ms, at_least(v, 1).map(|ms| ms as u64)),
        },
        Flag {
            spec: "metrics-out <path>",
            help: "write run metrics as JSON",
            set: |a, v| put(&mut a.metrics_out, Ok(Some(v.to_string()))),
        },
        Flag {
            spec: "trace-out <path>",
            help: "write a Chrome trace_event JSON timeline, loadable in Perfetto \
                   / chrome://tracing",
            set: |a, v| put(&mut a.trace_out, Ok(Some(v.to_string()))),
        },
    ]
}

/// The rows of `probe` (`tiers` = 1), `simulate` (2) or `train` (3): the
/// model's, then the first `tiers` of the cluster's, the plan's and the
/// run's.
fn run_flags(tiers: usize) -> Vec<Flag<RunArgs>> {
    let tables = [cluster_flags, plan_flags, train_flags];
    model_flags()
        .into_iter()
        .chain(tables[..tiers].iter().flat_map(|t| t()))
        .collect()
}

/// `chaos`.
fn chaos_flags() -> Vec<Flag<ChaosArgs>> {
    vec![
        Flag {
            spec: "schedules <n>",
            help: "seeded fault schedules to run, at least 1 (default 8)",
            set: |a, v| put(&mut a.schedules, at_least(v, 1)),
        },
        Flag {
            spec: "seed <n>",
            help: "base seed; schedule i uses seed+i (default 42)",
            set: |a, v| put(&mut a.seed, num(v)),
        },
        Flag {
            spec: "dataset <name>",
            help: "registry name (default google)",
            set: |a, v| put(&mut a.cfg.dataset, Ok(v.to_string())),
        },
        Flag {
            spec: "scale <f>",
            help: "materialization scale, finite and > 0 (default 0.002)",
            set: |a, v| put(&mut a.cfg.scale, positive(v)),
        },
        Flag {
            spec: "workers <n>",
            help: "worker count, at least 2 so kills leave a survivor (default 3)",
            set: |a, v| put(&mut a.cfg.workers, at_least(v, 2)),
        },
        Flag {
            spec: "epochs <n>",
            help: "epochs per schedule (default 6)",
            set: |a, v| put(&mut a.cfg.epochs, num(v)),
        },
        Flag {
            spec: "checkpoint-every <n>",
            help: "checkpoint cadence, at least 1 and below the epochs (default 2)",
            set: |a, v| put(&mut a.cfg.checkpoint_every, num(v)),
        },
        Flag {
            spec: "corrupt <p>",
            help: "max wire-corruption probability per schedule; 0 disables \
                   corrupt faults (default 0.25)",
            set: |a, v| {
                put(
                    &mut a.cfg.corrupt,
                    real(v, "in [0, 1]", |p| (0.0..=1.0).contains(&p)),
                )
            },
        },
        Flag {
            spec: "ckpt-dir <path>",
            help: "base directory for per-seed durable stores; a scratch \
                   directory under the system temp dir when unset",
            set: |a, v| put(&mut a.cfg.ckpt_base, Ok(Some(v.into()))),
        },
        Flag {
            spec: "partition",
            help: "generate healable link-fault schedules (partitions, flaps; no \
                   kills) and check that every run comes back on its own",
            set: |a, _| set_matrix(&mut a.cfg.matrix, Matrix::Partition),
        },
        Flag {
            spec: "resource",
            help: "generate resource-exhaustion schedules (full and slow disks, memory \
                   caps, hung workers) and check that every run degrades but finishes",
            set: |a, _| set_matrix(&mut a.cfg.matrix, Matrix::Resource),
        },
    ]
}

/// `serve`.
fn serve_flags() -> Vec<Flag<ServeArgs>> {
    let mut rows: Vec<Flag<ServeArgs>> = vec![
        Flag {
            spec: "ckpt-dir <path>",
            help: "durable checkpoint store to serve (required); the newest intact \
                   generation is loaded, and the dataset and model flags must \
                   match its training run",
            set: |a, v| put(&mut a.ckpt_dir, Ok(v.to_string())),
        },
        Flag {
            spec: "shards <n>",
            help: "shard workers, one partition each (default 2)",
            set: |a, v| put(&mut a.cfg.shards, at_least(v, 1)),
        },
        Flag {
            spec: "partitioner <chunk|metis|fennel>",
            help: "vertex-to-shard assignment (default chunk)",
            set: |a, v| put(&mut a.cfg.partitioner, v.parse()),
        },
        Flag {
            spec: "queue-cap <n>",
            help: "bounded admission queue; a full queue rejects rather than \
                   blocks (default 1024)",
            set: |a, v| put(&mut a.cfg.queue_capacity, at_least(v, 1)),
        },
        Flag {
            spec: "batch-max <n>",
            help: "max queries per batch; a shard's next batch ships when it \
                   replies (default 32)",
            set: |a, v| put(&mut a.cfg.batch_max, at_least(v, 1)),
        },
        Flag {
            spec: "inflight <n>",
            help: "max queries admitted and unanswered (default 256)",
            set: |a, v| put(&mut a.cfg.inflight_cap, at_least(v, 1)),
        },
        Flag {
            spec: "cache-rows <n>",
            help: "per-shard feature-cache rows, filled on miss and kept; 0 disables \
                   (default 4096)",
            set: |a, v| put(&mut a.cfg.cache_rows, num(v)),
        },
        Flag {
            spec: "reply-timeout-ms <ms>",
            help: "reply deadline past which a silent shard is declared dead, \
                   unless a busy peer is silent too (default 250)",
            set: |a, v| put(&mut a.cfg.reply_timeout_ms, num(v)),
        },
        Flag {
            spec: "fetch-timeout-ms <ms>",
            help: "shard-to-shard feature-fetch deadline before the mirror \
                   fallback (default 100)",
            set: |a, v| put(&mut a.cfg.fetch_timeout_ms, num(v)),
        },
        Flag {
            spec: "slow-path-us <us>",
            help: "modeled mirror-read penalty (default 300)",
            set: |a, v| put(&mut a.cfg.slow_path_us, num(v)),
        },
        Flag {
            spec: "queries <n>",
            help: "open-loop queries to offer (default 10000)",
            set: |a, v| put(&mut a.load.queries, num(v)),
        },
        Flag {
            spec: "rate <qps>",
            help: "offered rate, finite and > 0 (default 2000)",
            set: |a, v| put(&mut a.load.rate_qps, positive(v)),
        },
        Flag {
            spec: "zipf <s>",
            help: "seed-vertex popularity skew; 0 = uniform (default 0.9)",
            set: |a, v| {
                put(
                    &mut a.load.zipf_s,
                    real(v, "finite and >= 0", |s| (0.0..f64::INFINITY).contains(&s)),
                )
            },
        },
        Flag {
            spec: "fault <spec>",
            help: "deterministic fault (repeatable); for serve, kill:w<id>@e<n> \
                   kills the shard at endpoint <id> (shards are 1..=S) once it \
                   receives a query id >= n; wire faults apply to serve traffic \
                   and heal via CRC + retransmission",
            set: |a, v| a.cfg.fault.push_spec(v),
        },
        Flag {
            spec: "metrics-out <path>",
            help: "write run metrics as JSON",
            set: |a, v| put(&mut a.metrics_out, Ok(Some(v.to_string()))),
        },
        Flag {
            spec: "report <path>",
            help: "write a bench-serve/v1 JSON report",
            set: |a, v| put(&mut a.report_out, Ok(Some(v.to_string()))),
        },
    ];
    rows.splice(1..1, model_flags());
    rows
}

/// Parses `args` against `table`, starting from `A::default()`: every
/// argument is a flag of the table, followed by its value unless it is a
/// switch. Errors name the flag.
fn parse_flags<A: Default>(sub: &str, args: &[String], table: &[Flag<A>]) -> Result<A, String> {
    let mut parsed = A::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
        let Some(flag) = table.iter().find(|f| f.name() == key) else {
            return Err(format!("unknown {sub} flag --{key}"));
        };
        let value = if flag.spec.contains(' ') {
            it.next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?
        } else {
            ""
        };
        (flag.set)(&mut parsed, value).map_err(|e| format!("--{key}: {e}"))?;
    }
    Ok(parsed)
}

/// Parses CLI arguments (excluding the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let sub = sub.as_str();
    let run = |tiers: usize| -> Result<RunArgs, String> {
        let mut ra: RunArgs = parse_flags(sub, rest, &run_flags(tiers))?;
        ra.fault.seed = ra.model.seed;
        Ok(ra)
    };
    Ok(match sub {
        "help" | "--help" | "-h" => Command::Help,
        "datasets" => {
            parse_flags::<()>(sub, rest, &[])?;
            Command::Datasets
        }
        "train" => Command::Train(run(3)?),
        "simulate" => Command::Simulate(run(2)?),
        "probe" => Command::Probe(run(1)?),
        "chaos" => Command::Chaos(check_chaos(parse_flags(sub, rest, &chaos_flags())?)?),
        "serve" => Command::Serve(check_serve(parse_flags(sub, rest, &serve_flags())?)?),
        other => return Err(format!("unknown subcommand {other:?}")),
    })
}

/// The rules between `chaos` flags that no single setter can check.
fn check_chaos(ca: ChaosArgs) -> Result<ChaosArgs, String> {
    let c = &ca.cfg;
    if c.checkpoint_every == 0 || c.epochs <= c.checkpoint_every {
        return Err("chaos needs 0 < --checkpoint-every < --epochs".to_string());
    }
    if c.matrix == Matrix::Resource && c.epochs <= c.checkpoint_every + 1 {
        return Err(
            "--resource needs --epochs > --checkpoint-every + 1 (a disk-full \
                    window must leave a clean final boundary)"
                .to_string(),
        );
    }
    Ok(ca)
}

/// Requires the store directory and seeds the fault coins and the load
/// generator from `--seed`.
fn check_serve(mut sa: ServeArgs) -> Result<ServeArgs, String> {
    if sa.ckpt_dir.is_empty() {
        return Err("serve needs --ckpt-dir (a durable store written by \
                    `nts train --ckpt-dir ...`)"
            .to_string());
    }
    sa.cfg.fault.seed = sa.model.seed;
    sa.load.seed = sa.model.seed;
    Ok(sa)
}

/// The column each flag's help starts at.
const HELP_COL: usize = 26;

/// Appends one help section: each row's spec, then its help
/// re-wrapped to 80 columns from [`HELP_COL`].
fn section<A>(out: &mut String, title: &str, table: &[Flag<A>]) {
    *out += &format!("\n{title}\n");
    for f in table {
        let mut line = format!("  --{}", f.spec);
        for (i, word) in f.help.split_whitespace().enumerate() {
            let width = line.chars().count();
            if i == 0 && width < HELP_COL {
                line += &" ".repeat(HELP_COL - width);
            } else if i == 0 || width + 1 + word.chars().count() > 80 {
                *out += &format!("{line}\n");
                line = " ".repeat(HELP_COL);
            } else {
                line.push(' ');
            }
            line += word;
        }
        *out += &format!("{line}\n");
    }
}

/// The help text, rendered from the flag tables and the fault grammar
/// ([`GRAMMAR`], [`KindSel::names`]), so it cannot drift from what
/// [`parse`] accepts.
pub fn usage() -> String {
    let mut out = "nts — NeutronStar reproduction CLI\n\nUSAGE:\n  nts datasets\n  \
                   nts train    [options]\n  nts simulate [options]\n  nts probe    [options]\n  \
                   nts chaos    [chaos options]\n  nts serve    [serve options]\n"
        .to_string();
    section(&mut out, "OPTIONS (train/simulate/probe):", &run_flags(1));
    section(&mut out, "PLAN OPTIONS (train/simulate):", &plan_flags());
    section(&mut out, "RUN OPTIONS (train):", &train_flags());
    section(&mut out, "CHAOS OPTIONS (chaos):", &chaos_flags());
    section(&mut out, "SERVE OPTIONS (serve):", &serve_flags());
    out += "\nFAULT SPECS (train/serve; docs/FAULTS.md has worked examples):\n";
    for (syntax, effect) in GRAMMAR {
        out += &format!("  {syntax}\n      {effect}\n");
    }
    out += &format!(
        "  <kind>: {}\n  <ms> takes an optional ms suffix\n",
        KindSel::names()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn specs(plan: &FaultPlan) -> Vec<String> {
        plan.faults.iter().map(|f| f.to_string()).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn datasets_subcommand() {
        assert_eq!(parse(&args("datasets")).unwrap(), Command::Datasets);
        assert!(parse(&args("datasets --all"))
            .unwrap_err()
            .contains("--all"));
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
        let Command::Train(ra) = cmd else {
            panic!("expected train")
        };
        assert_eq!(ra.model.dataset, "reddit");
        assert_eq!(ra.model.scale, 0.001);
        assert_eq!(ra.model.kind, ModelKind::Gat);
        assert_eq!(ra.engine, EngineKind::DepComm);
        assert_eq!(ra.workers, 8);
        assert_eq!(ra.cluster, "ibv");
        assert_eq!(ra.partitioner, Partitioner::Fennel);
        assert_eq!(ra.epochs, 5);
        assert_eq!(ra.lr, 0.05);
        assert_eq!(ra.sync, SyncMode::ParameterServer);
        assert_eq!(ra.model.seed, 7);
        assert_eq!(ra.save.as_deref(), Some("/tmp/m.ckpt"));
        assert_eq!(ra.metrics_out.as_deref(), Some("/tmp/m.json"));
        assert_eq!(ra.trace_out.as_deref(), Some("/tmp/m.trace.json"));
        assert!(ra.opts.ring && ra.opts.lock_free && !ra.opts.overlap);
        let Command::Train(ra) = parse(&args("train --no-ring --no-lockfree")).unwrap() else {
            panic!("expected train")
        };
        assert!(!ra.opts.ring && !ra.opts.lock_free && ra.opts.overlap);
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
        assert!(parse(&args("frobnicate"))
            .unwrap_err()
            .contains("unknown subcommand"));
        assert!(parse(&args("train --model vae"))
            .unwrap_err()
            .contains("--model"));
        assert!(parse(&args("train --epochs"))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&args("train epochs 3"))
            .unwrap_err()
            .contains("unexpected"));
    }

    #[test]
    fn unknown_flags_are_errors_on_every_subcommand() {
        // `--epoch` once ran the default 10 epochs and exited 0.
        let err = parse(&args("train --epoch 1")).unwrap_err();
        assert!(err.contains("--epoch"), "{err}");
        assert!(parse(&args("simulate --sharsd 3"))
            .unwrap_err()
            .contains("--sharsd"));
        assert!(parse(&args("probe --no-rings"))
            .unwrap_err()
            .contains("--no-rings"));
        assert!(parse(&args("chaos --frobnicate 1"))
            .unwrap_err()
            .contains("chaos flag"));
        assert!(parse(&args("serve --frobnicate 1"))
            .unwrap_err()
            .contains("serve flag"));
        // Retention acts only on save; serving never saves.
        let err = parse(&args("serve --ckpt-dir /c --keep-checkpoints 3")).unwrap_err();
        assert!(err.contains("--keep-checkpoints"), "{err}");
    }

    /// Flags only `train` reads, each with a value `train` accepts.
    const RUN_ONLY: [&str; 10] = [
        "--epochs 1",
        "--lr 0.1",
        "--save m.ckpt",
        "--fault kill:w1@e1",
        "--checkpoint-every 1",
        "--ckpt-dir ck",
        "--keep-checkpoints 2",
        "--recv-timeout-ms 100",
        "--metrics-out m.json",
        "--trace-out t.json",
    ];

    /// Flags `train` and `simulate` read and `probe` does not.
    const PLAN_ONLY: [&str; 6] = [
        "--engine depcomm",
        "--partitioner metis",
        "--sync ps",
        "--no-ring",
        "--no-lockfree",
        "--no-overlap",
    ];

    #[test]
    fn simulate_and_probe_reject_the_flags_only_train_reads() {
        // `simulate --metrics-out m.json` once wrote nothing and exited 0.
        for flag in RUN_ONLY {
            assert!(
                parse(&args(&format!("train {flag}"))).is_ok(),
                "train {flag}"
            );
            for sub in ["simulate", "probe"] {
                let err = parse(&args(&format!("{sub} {flag}"))).unwrap_err();
                assert!(
                    err.contains(&format!("unknown {sub} flag")),
                    "{sub} {flag}: {err}"
                );
            }
        }
    }

    #[test]
    fn probe_rejects_the_plan_flags() {
        for flag in PLAN_ONLY {
            for sub in ["train", "simulate"] {
                assert!(
                    parse(&args(&format!("{sub} {flag}"))).is_ok(),
                    "{sub} {flag}"
                );
            }
            let err = parse(&args(&format!("probe {flag}"))).unwrap_err();
            assert!(err.contains("unknown probe flag"), "probe {flag}: {err}");
        }
    }

    #[test]
    fn out_of_range_values_are_rejected_at_parse() {
        // A scale that is not a finite positive number used to reach the
        // materializer's assert on every subcommand that builds a graph.
        for sub in ["train", "simulate", "probe", "serve --ckpt-dir /c", "chaos"] {
            for scale in ["0", "-1", "nan", "inf"] {
                let err = parse(&args(&format!("{sub} --scale {scale}"))).unwrap_err();
                assert!(err.contains("--scale"), "{sub} --scale {scale}: {err}");
            }
        }
        assert!(parse(&args("train --hidden 0"))
            .unwrap_err()
            .contains("--hidden"));
        assert!(parse(&args("serve --ckpt-dir /c --hidden 0"))
            .unwrap_err()
            .contains("--hidden"));
        for lr in ["nan", "0", "-0.01", "inf"] {
            assert!(parse(&args(&format!("train --lr {lr}")))
                .unwrap_err()
                .contains("--lr"));
        }
        assert!(parse(&args("chaos --schedules 0"))
            .unwrap_err()
            .contains("--schedules"));
        assert!(parse(&args("chaos --corrupt nan"))
            .unwrap_err()
            .contains("--corrupt"));
        assert!(parse(&args("serve --ckpt-dir /c --rate nan"))
            .unwrap_err()
            .contains("--rate"));
        assert!(parse(&args("serve --ckpt-dir /c --zipf nan"))
            .unwrap_err()
            .contains("--zipf"));
        // The boundaries stay accepted.
        assert!(parse(&args("train --hidden 1 --scale 1e-9 --lr 1e-9")).is_ok());
        assert!(parse(&args("chaos --schedules 1 --corrupt 0")).is_ok());
        assert!(parse(&args("serve --ckpt-dir /c --zipf 0")).is_ok());
    }

    #[test]
    fn fault_flag_is_repeatable() {
        let cmd = parse(&args(
            "train --fault kill:w2@e3 --fault drop:rows:0.01 --checkpoint-every 2 --seed 9",
        ))
        .unwrap();
        let Command::Train(ra) = cmd else {
            panic!("expected train")
        };
        assert_eq!(specs(&ra.fault), vec!["kill:w2@e3", "drop:rows:0.01"]);
        assert_eq!(ra.recovery.checkpoint_every, 2);
        // The coins follow `--seed` wherever it appears.
        assert_eq!(ra.fault.seed, 9);
        assert_eq!(ra.fault.kill_epoch(2), Some(3));
        assert!(ra.recovery.enabled());
    }

    #[test]
    fn bad_fault_spec_rejected_at_parse_time() {
        let err = parse(&args("train --fault explode:w1")).unwrap_err();
        assert!(err.contains("fault"), "{err}");
        assert!(parse(&args("train --fault"))
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn usage_renders_every_fault_form_and_kind() {
        let text = usage();
        for (syntax, effect) in GRAMMAR {
            assert!(text.contains(syntax), "help lacks {syntax}");
            assert!(text.contains(effect), "help lacks the effect of {syntax}");
        }
        for name in ns_net::KIND_NAMES {
            assert!(text.contains(&format!("{name}|")), "help lacks kind {name}");
        }
        assert!(
            text.lines().all(|l| l.chars().count() <= 80),
            "help wraps at 80 columns"
        );
    }

    #[test]
    fn usage_lists_every_flag_of_every_table() {
        let text = usage();
        let names: Vec<&str> = run_flags(3)
            .iter()
            .map(|f| f.name())
            .chain(chaos_flags().iter().map(|f| f.name()))
            .chain(serve_flags().iter().map(|f| f.name()))
            .collect();
        for name in names {
            assert!(text.contains(&format!("  --{name}")), "help lacks --{name}");
        }
        let words: Vec<&str> = text.split_whitespace().collect();
        assert!(words.join(" ").contains("the executor does not pipeline"));
    }

    #[test]
    fn recv_timeout_flag() {
        let Command::Train(ra) = parse(&args("train --recv-timeout-ms 250")).unwrap() else {
            panic!("expected train")
        };
        assert_eq!(ra.recv_timeout_ms, 250);
        assert_eq!(RunArgs::default().recv_timeout_ms, 15_000);
        assert!(parse(&args("train --recv-timeout-ms many"))
            .unwrap_err()
            .contains("--recv-timeout-ms"));
        // A zero budget would declare every peer failed before it could
        // answer.
        let err = parse(&args("train --recv-timeout-ms 0")).unwrap_err();
        assert!(err.contains("--recv-timeout-ms") && err.contains("minimum 1"), "{err}");
        // Receives do not retry, so there is no retry count to set.
        let err = parse(&args("train --recv-retries 2")).unwrap_err();
        assert!(err.contains("unknown train flag --recv-retries"), "{err}");
    }

    #[test]
    fn threads_flag() {
        let Command::Train(ra) = parse(&args("train --threads 4")).unwrap() else {
            panic!("expected train")
        };
        assert_eq!(ra.threads, 4);
        assert_eq!(RunArgs::default().threads, 0);
        assert!(parse(&args("train --threads lots"))
            .unwrap_err()
            .contains("--threads"));
    }

    #[test]
    fn durable_store_flags() {
        let Command::Train(ra) =
            parse(&args("train --ckpt-dir /tmp/ckpts --keep-checkpoints 5")).unwrap()
        else {
            panic!("expected train")
        };
        assert_eq!(ra.store, StoreConfig::at("/tmp/ckpts").keep(5));
        assert!(ra.store.enabled());
        // Without --ckpt-dir, durability stays off.
        assert!(!RunArgs::default().store.enabled());
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
        let Command::Train(ra) = cmd else {
            panic!("expected train")
        };
        assert_eq!(
            specs(&ra.fault),
            vec!["corrupt:grads:0.25@e1", "corrupt:ckpt:1@e4"]
        );
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
            "chaos --schedules 32 --seed 7 --workers 4 --epochs 8 --checkpoint-every 3 \
             --ckpt-dir /tmp/soak",
        ))
        .unwrap() else {
            panic!("expected chaos")
        };
        assert_eq!(ca.schedules, 32);
        assert_eq!(ca.seed, 7);
        assert_eq!(ca.cfg.workers, 4);
        assert_eq!(ca.cfg.epochs, 8);
        assert_eq!(ca.cfg.checkpoint_every, 3);
        assert_eq!(ca.cfg.ckpt_base, Some("/tmp/soak".into()));
        assert_eq!(ca.cfg.matrix, Matrix::Crash);
        let Command::Chaos(ca) = parse(&args("chaos --partition --schedules 4")).unwrap() else {
            panic!("expected chaos")
        };
        assert_eq!(ca.cfg.matrix, Matrix::Partition);
        assert_eq!(ca.schedules, 4);
        let Command::Chaos(ca) = parse(&args("chaos --resource --schedules 4")).unwrap() else {
            panic!("expected chaos")
        };
        assert_eq!(ca.cfg.matrix, Matrix::Resource);
        assert!(parse(&args("chaos --partition --resource"))
            .unwrap_err()
            .contains("mutually exclusive"));
        assert!(
            parse(&args("chaos --resource --epochs 3 --checkpoint-every 2"))
                .unwrap_err()
                .contains("clean final boundary")
        );
        assert!(parse(&args("chaos --workers 1"))
            .unwrap_err()
            .contains("workers"));
        assert!(parse(&args("chaos --epochs 2 --checkpoint-every 2"))
            .unwrap_err()
            .contains("checkpoint-every"));
    }

    #[test]
    fn serve_subcommand_with_full_flags() {
        let cmd = parse(&args(
            "serve --ckpt-dir /tmp/ckpts --dataset reddit --scale 0.001 --model sage \
             --fault kill:w2@e100 --seed 7 --shards 3 --partitioner fennel --queue-cap 256 \
             --batch-max 16 --inflight 64 --cache-rows 512 \
             --reply-timeout-ms 100 --fetch-timeout-ms 50 --slow-path-us 150 \
             --queries 5000 --rate 1500 --zipf 1.1 \
             --metrics-out /tmp/s.json --report /tmp/BENCH_serve.json",
        ))
        .unwrap();
        let Command::Serve(sa) = cmd else {
            panic!("expected serve")
        };
        assert_eq!(sa.ckpt_dir, "/tmp/ckpts");
        assert_eq!(sa.model.dataset, "reddit");
        assert_eq!(sa.model.kind, ModelKind::Sage);
        assert_eq!(sa.model.seed, 7);
        assert_eq!(sa.metrics_out.as_deref(), Some("/tmp/s.json"));
        assert_eq!(sa.report_out.as_deref(), Some("/tmp/BENCH_serve.json"));
        let mut fault = FaultPlan::default().with_seed(7);
        fault.push_spec("kill:w2@e100").unwrap();
        let cfg = ServeConfig {
            shards: 3,
            partitioner: Partitioner::Fennel,
            queue_capacity: 256,
            batch_max: 16,
            inflight_cap: 64,
            cache_rows: 512,
            reply_timeout_ms: 100,
            fetch_timeout_ms: 50,
            slow_path_us: 150,
            fault,
        };
        assert_eq!(sa.cfg, cfg);
        assert_eq!(
            sa.load,
            OpenLoop {
                queries: 5000,
                rate_qps: 1500.0,
                seed: 7,
                zipf_s: 1.1
            }
        );
    }

    #[test]
    fn serve_has_no_batch_window() {
        // Batches ship when their shard is idle; no timer is left to set.
        let err = parse(&args("serve --ckpt-dir /c --batch-window-us 200")).unwrap_err();
        assert!(err.contains("unknown serve flag --batch-window-us"), "{err}");
    }

    #[test]
    fn serve_defaults_mirror_engine_defaults() {
        let Command::Serve(sa) = parse(&args("serve --ckpt-dir /tmp/c")).unwrap() else {
            panic!("expected serve")
        };
        assert_eq!(
            sa,
            ServeArgs {
                ckpt_dir: "/tmp/c".into(),
                ..ServeArgs::default()
            }
        );
        let want = ServeConfig {
            fault: FaultPlan::default().with_seed(42),
            ..Default::default()
        };
        assert_eq!(sa.cfg, want);
    }

    #[test]
    fn serve_validation_errors() {
        assert!(parse(&args("serve")).unwrap_err().contains("--ckpt-dir"));
        assert!(parse(&args("serve --ckpt-dir /c --shards 0"))
            .unwrap_err()
            .contains("--shards"));
        for knob in ["--queue-cap", "--batch-max", "--inflight"] {
            let err = parse(&args(&format!("serve --ckpt-dir /c {knob} 0"))).unwrap_err();
            assert!(err.contains(knob), "{err}");
        }
        assert!(parse(&args("serve --ckpt-dir /c --rate -5"))
            .unwrap_err()
            .contains("--rate"));
        assert!(parse(&args("serve --ckpt-dir /c --zipf -1"))
            .unwrap_err()
            .contains("--zipf"));
        assert!(parse(&args("serve --ckpt-dir /c --fault explode:w1"))
            .unwrap_err()
            .contains("fault"));
        assert!(parse(&args("serve --queries"))
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn cluster_spec_resolution() {
        let mut ra = RunArgs {
            workers: 3,
            ..Default::default()
        };
        assert_eq!(ra.cluster_spec().unwrap().workers, 3);
        ra.cluster = "ibv".into();
        assert!(ra.cluster_spec().unwrap().name.starts_with("ibv"));
        ra.cluster = "mars".into();
        assert!(ra.cluster_spec().is_err());
    }

    fn repo_file(path: &str) -> String {
        let full = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{full}: {e}"))
    }

    /// The `nts` commands in one document's code: fenced blocks and
    /// inline code spans of Markdown, the lines of YAML that run the
    /// built binary. `\` continuations are joined. Commands holding `$`,
    /// a `<placeholder>` or an ellipsis are skipped, and so is a bare
    /// `nts <sub>`, which names the subcommand rather than running it.
    fn nts_commands(path: &str) -> Vec<Vec<String>> {
        let text = repo_file(path).replace("\\\n", " ");
        let mut code = Vec::new();
        let mut fenced = false;
        for line in text.lines() {
            if path.ends_with(".yml") {
                if line.contains("release/nts ") {
                    code.push(line);
                }
            } else if line.trim_start().starts_with("```") {
                fenced = !fenced;
            } else if fenced {
                code.push(line);
            } else {
                code.extend(line.split('`').skip(1).step_by(2));
            }
        }
        let mut commands = Vec::new();
        for snippet in code {
            for (at, _) in snippet.match_indices("nts ") {
                if at > 0 && !snippet[..at].ends_with([' ', '/']) {
                    continue;
                }
                let cmd = snippet[at + 4..]
                    .split(['|', ';', '#', '&'])
                    .next()
                    .unwrap();
                if cmd.contains(['$', '<', '…']) || cmd.contains("...") {
                    continue;
                }
                let mut words: Vec<String> = cmd
                    .split_whitespace()
                    .map(|w| w.trim_matches('\'').to_string())
                    .collect();
                if words.first().map(String::as_str) == Some("--") {
                    words.remove(0); // `cargo run ... --bin nts -- train ...`
                }
                if words.len() > 1 {
                    commands.push(words);
                }
            }
        }
        commands
    }

    #[test]
    fn every_documented_invocation_parses() {
        let mut files = vec![
            "README.md".to_string(),
            ".github/workflows/ci.yml".to_string(),
        ];
        let docs = format!("{}/../../docs", env!("CARGO_MANIFEST_DIR"));
        for entry in std::fs::read_dir(docs).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if name.ends_with(".md") {
                files.push(format!("docs/{name}"));
            }
        }
        let mut checked = 0;
        for file in &files {
            for cmd in nts_commands(file) {
                if let Err(e) = parse(&cmd) {
                    panic!("{file}: `nts {}` does not parse: {e}", cmd.join(" "));
                }
                checked += 1;
            }
        }
        assert!(checked >= 40, "only {checked} documented invocations found");
    }

    /// Parses `--name X` for each `(default X)` in `table`'s help onto
    /// `base` and requires the defaults back; returns how many it checked.
    fn check_help_defaults<A>(base: &str, table: &[Flag<A>]) -> usize {
        let defaults = parse(&args(base)).unwrap();
        let mut checked = 0;
        for f in table {
            let Some((_, rest)) = f.help.split_once("(default ") else {
                continue;
            };
            let value = rest.split(')').next().unwrap();
            assert!(
                !value.contains(' '),
                "--{}: `(default {value})` is not one value",
                f.name()
            );
            let cmd = format!("{base} --{} {value}", f.name());
            assert_eq!(
                parse(&args(&cmd)),
                Ok(defaults.clone()),
                "`{cmd}` moved a default"
            );
            checked += 1;
        }
        checked
    }

    #[test]
    fn documented_defaults_are_the_defaults() {
        assert_eq!(check_help_defaults("train", &run_flags(3)), 15);
        assert_eq!(check_help_defaults("chaos", &chaos_flags()), 8);
        assert_eq!(
            check_help_defaults("serve --ckpt-dir /c", &serve_flags()),
            16
        );
        // docs/SERVING.md's knob table: `| `--flag` | default | ... |`.
        let serve = parse(&args("serve --ckpt-dir /c")).unwrap();
        let mut rows = 0;
        for line in repo_file("docs/SERVING.md").lines() {
            let Some(row) = line.strip_prefix("| `--") else {
                continue;
            };
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let cmd = format!(
                "serve --ckpt-dir /c --{} {}",
                cells[0].trim_end_matches('`'),
                cells[1]
            );
            assert_eq!(
                parse(&args(&cmd)),
                Ok(serve.clone()),
                "docs/SERVING.md: `{cmd}`"
            );
            rows += 1;
        }
        assert!(rows >= 13, "only {rows} knob rows found in docs/SERVING.md");
    }
}
