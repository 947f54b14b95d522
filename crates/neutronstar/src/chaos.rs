//! Seeded chaos soak harness.
//!
//! Generates randomized-but-reproducible fault schedules (kills,
//! stragglers, drops, delays, duplicates, optional rejoin), runs real
//! recovering training under each, and checks the six robustness
//! invariants the elastic runtime promises — [`INVARIANTS`], one
//! documented function each, numbered in table order.
//!
//! Schedules are derived from a single `u64` seed via SplitMix64 and
//! logged as `--fault` spec strings, so a failing seed reported by CI or
//! `nts chaos` reproduces exactly — by seed, or by pasting its schedule
//! back into `nts train`.

use std::path::{Path, PathBuf};

use ns_graph::datasets::by_name;
use ns_graph::Dataset;
use ns_gnn::{GnnModel, ModelKind};
use ns_net::fault::{Fault, FaultPlan, Link, MsgSel, Window};
use ns_net::membership::MembershipEventKind;
use ns_net::ClusterSpec;
use ns_rand::SplitMix64;
use ns_runtime::{
    CheckpointStore, EngineKind, RecoveryConfig, RuntimeError, StoreConfig, Trainer,
    TrainerConfig, TrainingReport,
};
use ns_tensor::ParamStore;

/// Invariant 2's bound: the relative final-loss deviation from the
/// fault-free baseline a run that recovered, changed membership or
/// replanned may show.
const LOSS_TOLERANCE: f64 = 0.15;

/// Which fault matrix the generator draws schedules from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Matrix {
    /// Kills, stragglers and wire noise (drops, delays, duplicates,
    /// corruption), plus checkpoint corruption against a durable store.
    Crash,
    /// Healable link faults (partitions and flapping links, no kills):
    /// every run must come back on its own.
    Partition,
    /// Resource exhaustion (disk-full windows, slow disks, memory-pressure
    /// caps, hung workers; no kills or wire noise); checks the
    /// degrade-don't-die invariant (6). Like [`Matrix::Partition`], it
    /// runs under a short receive budget, which is what finds a hang.
    Resource,
}

/// Fixed workload the soak runs: small enough to execute hundreds of
/// times, large enough to exercise multi-chunk recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Registry dataset name.
    pub dataset: String,
    /// Materialization scale.
    pub scale: f64,
    /// Worker count (at least 2; kills need a survivor).
    pub workers: usize,
    /// Training epochs per run.
    pub epochs: usize,
    /// Checkpoint cadence (bounds replay per restart).
    pub checkpoint_every: usize,
    /// Engine under test.
    pub engine: EngineKind,
    /// Upper bound on the per-message wire-corruption probability drawn
    /// by the generator (`0` disables corrupt faults entirely).
    pub corrupt: f64,
    /// Base directory for per-seed durable checkpoint stores. `None`
    /// keeps checkpoints memory-only, which also disables on-disk
    /// checkpoint-corruption faults (there is nothing to damage).
    pub ckpt_base: Option<PathBuf>,
    /// The fault matrix schedules are drawn from.
    pub matrix: Matrix,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            dataset: "google".to_string(),
            scale: 0.002,
            workers: 3,
            epochs: 6,
            checkpoint_every: 2,
            engine: EngineKind::DepComm,
            corrupt: 0.25,
            ckpt_base: None,
            matrix: Matrix::Crash,
        }
    }
}

/// One generated schedule: the fault plan plus the recovery knobs it is
/// meant to be survived with.
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    /// Seed the schedule was derived from.
    pub seed: u64,
    /// Faults, in generation order.
    pub faults: Vec<Fault>,
    /// Whether failed workers re-admit at checkpoint boundaries.
    pub rejoin: bool,
}

impl ChaosSchedule {
    /// One-line summary: every fault as its canonical `--fault` spec
    /// (each token parses back through `parse_fault`), then `+rejoin`.
    pub fn describe(&self) -> String {
        let mut words: Vec<String> = self.faults.iter().map(Fault::to_string).collect();
        if self.rejoin {
            words.push("+rejoin".to_string());
        }
        if words.is_empty() {
            words.push("(fault-free)".to_string());
        }
        words.join(" ")
    }
}

/// Derives a randomized fault schedule from `seed`. Every schedule is
/// survivable by construction: at most `max_restarts` kills, each at a
/// distinct epoch for a distinct worker, and message-level faults stay
/// within probabilities the retransmit/dedup machinery absorbs.
pub fn generate(seed: u64, cfg: &ChaosConfig) -> ChaosSchedule {
    generate_with_baseline(seed, cfg, None)
}

/// [`generate`] with the fault-free baseline available, so resource
/// schedules can derive a satisfiable memory cap from the measured pool
/// high-water mark. Without a baseline the resource matrix falls back to
/// a generous fixed cap.
pub fn generate_with_baseline(
    seed: u64,
    cfg: &ChaosConfig,
    base: Option<&Baseline>,
) -> ChaosSchedule {
    let mut rng = SplitMix64(seed ^ 0x6e74_735f_6368_616f); // "nts_chao"
    match cfg.matrix {
        Matrix::Resource => return generate_resource(&mut rng, seed, cfg, base),
        Matrix::Partition => return generate_partition(&mut rng, seed, cfg),
        Matrix::Crash => {}
    }
    let mut faults = Vec::new();
    let restart_budget = RecoveryConfig::every(cfg.checkpoint_every).max_restarts as u64;

    // 0..=min(2, budget) kills, distinct (worker, epoch) pairs.
    let n_kills = rng.below(restart_budget.min(2) + 1);
    let mut used_workers = Vec::new();
    let mut used_epochs = Vec::new();
    for _ in 0..n_kills {
        let worker = rng.below(cfg.workers as u64) as usize;
        let epoch = 1 + rng.below(cfg.epochs as u64 - 1) as usize;
        if used_workers.contains(&worker) || used_epochs.contains(&epoch) {
            continue; // fewer kills this seed; keeps the pair distinct
        }
        used_workers.push(worker);
        used_epochs.push(epoch);
        faults.push(Fault::Kill { worker, epoch });
    }

    // Optional straggler on a worker that is not killed.
    if rng.unit() < 0.5 {
        let worker = rng.below(cfg.workers as u64) as usize;
        if !used_workers.contains(&worker) {
            let delay_ms = 5 + rng.below(21);
            faults.push(Fault::Straggle { worker, delay_ms });
        }
    }

    // Message-level noise: drop (modeled loss + retransmission), fixed
    // extra latency, duplicate delivery.
    if rng.unit() < 0.5 {
        faults.push(Fault::Drop { sel: MsgSel::any(), p: rng.unit() * 0.3 });
    }
    if rng.unit() < 0.5 {
        faults.push(Fault::Delay { sel: MsgSel::any(), delay_ms: 1 + rng.below(10) });
    }
    if rng.unit() < 0.5 {
        faults.push(Fault::Duplicate { sel: MsgSel::any(), p: rng.unit() * 0.5 });
    }
    // Wire corruption: seeded bit-flips the receiver must catch by frame
    // CRC and recover via the clean retransmitted copy — numerics must
    // not move.
    if cfg.corrupt > 0.0 && rng.unit() < 0.5 {
        faults.push(Fault::Corrupt { sel: MsgSel::any(), p: rng.unit() * cfg.corrupt });
    }

    // On-disk corruption: with a durable store active, damage the
    // generation persisted at the boundary of the chunk the *earliest*
    // kill lands in, so its rollback finds the newest generation torn
    // and must fall back one cadence further. The anchor has to be the
    // earliest kill: after any failure or straggler eviction the
    // survivors renumber, and a later kill's worker index may fall off
    // the shrunken world and never fire — leaving the damaged
    // generation unread. For the same reason the anchor's index must
    // survive one possible eviction-renumber when a straggle is also
    // scheduled.
    if cfg.ckpt_base.is_some() {
        let straggles = faults.iter().any(|f| matches!(f, Fault::Straggle { .. }));
        let anchor = faults
            .iter()
            .filter_map(|f| match f {
                Fault::Kill { worker, epoch } => Some((*epoch, *worker)),
                _ => None,
            })
            .min();
        if let Some((epoch, worker)) = anchor {
            let boundary = (epoch / cfg.checkpoint_every) * cfg.checkpoint_every;
            let survives_renumber = worker + usize::from(straggles) < cfg.workers;
            if boundary >= cfg.checkpoint_every && survives_renumber {
                faults.push(Fault::CorruptCkpt { epoch: Some(boundary), p: 1.0 });
            }
        }
    }

    ChaosSchedule { seed, faults, rejoin: rng.unit() < 0.7 }
}

/// The healable link-fault matrix (`--partition` mode): at most one
/// severed or half-severed link that always heals at a checkpoint
/// boundary strictly before the last epoch (so the timed-out side is
/// re-admitted and trains with the link back up), an optional flapping
/// link, and mild latency noise. No kills and rejoin always on — these
/// runs must come back on their own.
fn generate_partition(rng: &mut SplitMix64, seed: u64, cfg: &ChaosConfig) -> ChaosSchedule {
    assert!(cfg.workers >= 2, "link faults need two endpoints");
    assert!(
        cfg.epochs > cfg.checkpoint_every + 1,
        "healable partitions need a boundary to heal at plus a post-heal epoch"
    );
    let mut faults = Vec::new();
    let n = cfg.workers as u64;
    let pair = |rng: &mut SplitMix64| {
        let a = rng.below(n) as usize;
        let b = (a + 1 + rng.below(n - 1) as usize) % cfg.workers;
        (a, b)
    };
    // A severed link in two of three seeds; the rest stay flap-only.
    let kind = rng.below(3);
    if kind < 2 {
        let (a, b) = pair(rng);
        // Start the outage early enough that the next checkpoint
        // boundary (the heal point) lands at or before epochs-1, so the
        // final epoch always runs with the link back up.
        let ck = cfg.checkpoint_every;
        let last_from = ck * ((cfg.epochs - 1) / ck) - 1;
        let from = 1 + rng.below(last_from as u64) as usize;
        let heal = ((from / ck) + 1) * ck;
        debug_assert!(from < heal && heal < cfg.epochs);
        let link = Link { a, b, one_way: kind == 1 };
        faults.push(Fault::Partition { link, window: Window { from, heal } });
    }
    // Flapping link: messages inside a down-window are held to the next
    // up-window, never lost, so flaps need no heal epoch to stay
    // survivable — the receive deadline absorbs the delay.
    if kind == 2 || rng.unit() < 0.5 {
        let (a, b) = pair(rng);
        let period_ms = 10 + rng.below(41);
        let duty = 0.1 + rng.unit() * 0.5;
        faults.push(Fault::Flap { link: Link { a, b, one_way: false }, period_ms, duty });
    }
    if rng.unit() < 0.5 {
        faults.push(Fault::Delay { sel: MsgSel::any(), delay_ms: 1 + rng.below(5) });
    }
    ChaosSchedule { seed, faults, rejoin: true }
}

/// The resource-exhaustion matrix (`--resource` mode): a disk-full
/// window covering exactly one interior checkpoint boundary (the final
/// boundary always saves clean, proving the store recovered), an
/// optional slow disk, a memory-pressure window whose cap sits 12.5%
/// above the baseline pool high-water mark, rounded up to a whole MiB
/// (tight enough to trip the 75% pressure threshold, loose enough that
/// invariant 6's peak-under-cap bound is satisfiable; the rounding keeps
/// the spec the same across runs whose peaks differ by a few KiB), and a
/// hung worker for its peers' receive budgets to find. No kills and
/// rejoin always on — these runs must degrade and come back, never abort.
fn generate_resource(
    rng: &mut SplitMix64,
    seed: u64,
    cfg: &ChaosConfig,
    base: Option<&Baseline>,
) -> ChaosSchedule {
    assert!(cfg.workers >= 2, "a hang needs a survivor");
    assert!(
        cfg.epochs > cfg.checkpoint_every + 1,
        "resource windows need an interior boundary plus a clean final one"
    );
    let ck = cfg.checkpoint_every;
    let mut faults = Vec::new();
    // Disk faults only matter against a durable store.
    if cfg.ckpt_base.is_some() {
        let interior = (cfg.epochs / ck).saturating_sub(1);
        if interior >= 1 && rng.unit() < 0.7 {
            let b = ck * (1 + rng.below(interior as u64) as usize);
            faults.push(Fault::DiskFull { window: Window { from: b, heal: b + 1 } });
        }
        if rng.unit() < 0.5 {
            faults.push(Fault::SlowDisk { factor: 1.5 + rng.unit() * 2.5 });
        }
    }
    if rng.unit() < 0.7 {
        let peak = base.map_or(0, |b| b.peak_bytes);
        let cap_bytes = if peak > 0 {
            (peak + peak / 8).next_multiple_of(1 << 20) as usize
        } else {
            64 << 20
        };
        let from = 1 + rng.below((cfg.epochs - 2) as u64) as usize;
        let heal = (from + 1 + rng.below(2) as usize).min(cfg.epochs);
        faults.push(Fault::MemPressure { cap_bytes, window: Window { from, heal } });
    }
    if rng.unit() < 0.6 {
        let worker = rng.below(cfg.workers as u64) as usize;
        let epoch = 1 + rng.below((cfg.epochs - 1) as u64) as usize;
        faults.push(Fault::Hang { worker, epoch });
    }
    ChaosSchedule { seed, faults, rejoin: true }
}

/// The fault-free reference run the invariants compare against.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// Final loss of the clean run.
    pub final_loss: f64,
    /// Final parameters of the clean run.
    pub final_params: ParamStore,
    /// Tensor-pool high-water mark (bytes) of the clean run — the anchor
    /// the resource matrix derives satisfiable memory caps from.
    pub peak_bytes: u64,
}

/// Outcome of one chaos run: the report's robustness-relevant facts plus
/// any invariant violations (empty means the run upheld all of them).
#[derive(Debug)]
pub struct ChaosOutcome {
    /// Seed of the schedule that ran.
    pub seed: u64,
    /// One-line schedule description.
    pub schedule: String,
    /// Final loss under faults.
    pub final_loss: f64,
    /// Rollback-and-resume recoveries performed.
    pub recoveries: usize,
    /// Membership transitions (failures, evictions, rejoins).
    pub membership_events: usize,
    /// Adaptive replans performed.
    pub replans: usize,
    /// Corrupt frames detected by receive-side CRC checks
    /// (`integrity.crc_fail`).
    pub crc_failures: u64,
    /// Damaged durable generations skipped during rollback
    /// (`ckpt.fallbacks`).
    pub ckpt_fallbacks: u64,
    /// Per-invariant verdicts, indexed by invariant number minus one
    /// (`invariant_pass[5]` is invariant 6). An invariant a schedule
    /// never exercised passes vacuously.
    pub invariant_pass: [bool; INVARIANTS.len()],
    /// Invariant violations (empty = pass).
    pub violations: Vec<String>,
}

impl ChaosOutcome {
    /// Whether the run upheld every invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

fn materialize(cfg: &ChaosConfig) -> Result<(Dataset, GnnModel), String> {
    let spec = by_name(&cfg.dataset)
        .ok_or_else(|| format!("unknown dataset {:?}", cfg.dataset))?;
    let ds = spec.materialize(cfg.scale, 11);
    let model =
        GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 32, ds.num_classes, 5);
    Ok((ds, model))
}

fn train(
    cfg: &ChaosConfig,
    ds: &Dataset,
    model: &GnnModel,
    fault: FaultPlan,
    rejoin: bool,
    store_dir: Option<&Path>,
) -> Result<TrainingReport, RuntimeError> {
    let mut tc = TrainerConfig::new(cfg.engine, ClusterSpec::aliyun_ecs(cfg.workers));
    tc.fault = fault;
    if cfg.matrix != Matrix::Crash {
        // Black-holed links and hung workers surface only as receive
        // timeouts; shrink the deadline so each severed op or hang fails
        // over in about a second instead of the default 15 s, keeping
        // 32-seed soaks fast. It still dwarfs the generator's flap periods
        // and delay noise, so healthy links never misfire.
        tc.recv_timeout_ms = 1_050;
    }
    tc.recovery = if rejoin {
        RecoveryConfig::every(cfg.checkpoint_every).with_rejoin()
    } else {
        RecoveryConfig::every(cfg.checkpoint_every)
    };
    if let Some(dir) = store_dir {
        tc.store = StoreConfig::at(dir);
    }
    Trainer::prepare(ds, model, tc)?.train(cfg.epochs)
}

/// Runs the fault-free reference for `cfg`.
pub fn baseline(cfg: &ChaosConfig) -> Result<Baseline, String> {
    let (ds, model) = materialize(cfg)?;
    // Re-arm the pool high-water mark so the measured peak belongs to
    // this workload, not whatever ran before in the process.
    ns_tensor::pool::set_cap_bytes(ns_tensor::pool::default_cap_bytes());
    let report = train(cfg, &ds, &model, FaultPlan::default(), false, None)
        .map_err(|e| format!("baseline run failed: {e}"))?;
    let peak_bytes = ns_tensor::pool::stats().peak_bytes;
    let final_loss = report.final_loss();
    Ok(Baseline { final_loss, final_params: report.final_params, peak_bytes })
}

/// Everything an invariant check may read about one finished chaos run.
pub struct Run<'a> {
    /// The soak configuration the run used.
    pub cfg: &'a ChaosConfig,
    /// The schedule that was injected.
    pub schedule: &'a ChaosSchedule,
    /// The fault-free reference run.
    pub base: &'a Baseline,
    /// What training under the schedule reported.
    pub report: &'a TrainingReport,
    /// Whether the run's durable store still held a loadable generation
    /// afterwards (`None`: the run had no store).
    pub durable_loadable: Option<bool>,
}

impl Run<'_> {
    fn counter(&self, name: &str) -> u64 {
        self.report.metrics.total_counter(name)
    }
}

/// One invariant's check: the violations it found in a run (none when the
/// schedule never exercised the invariant, so it passes vacuously).
pub type Check = fn(&Run) -> Vec<String>;

/// The soak invariants as `(name, check)`: invariant *n* is
/// `INVARIANTS[n - 1]`. `nts chaos` prints the names.
pub const INVARIANTS: [(&str, Check); 6] = [
    ("termination", termination),
    ("loss-tolerance", loss_tolerance),
    ("replay-bound", replay_bound),
    ("rejoin-world", rejoin_world),
    ("zero-corruption", zero_corruption),
    ("resource-degrade", resource_degrade),
];

/// Invariant 1: training terminates with every epoch accounted for and
/// a finite final loss.
fn termination(run: &Run) -> Vec<String> {
    let mut v = Vec::new();
    let (want, got) = (run.cfg.epochs, run.report.epochs.len());
    if got != want {
        v.push(format!("expected {want} epochs, got {got}"));
    }
    let loss = run.report.final_loss();
    if !loss.is_finite() {
        v.push(format!("non-finite final loss {loss}"));
    }
    v
}

/// Invariant 2: faults must not corrupt the numerics. Training is
/// synchronous and bit-identical across threads and engines, so a run
/// that neither recovered, changed membership nor replanned ends on the
/// fault-free baseline's exact bits: final loss and every parameter.
/// Any other run may reorder float summation and reroute dependencies,
/// and only has to land within the tolerance of the baseline's loss.
fn loss_tolerance(run: &Run) -> Vec<String> {
    let (loss, base) = (run.report.final_loss(), run.base.final_loss);
    let r = run.report;
    if r.recoveries.is_empty() && r.membership.is_empty() && r.replans.is_empty() {
        if loss.to_bits() != base.to_bits() {
            return vec![format!(
                "final loss {loss:?} differs from baseline {base:?} with nothing re-planned"
            )];
        }
        let mut base_params = run.base.final_params.iter();
        for (_, name, a) in r.final_params.iter() {
            let same = base_params.next().is_some_and(|(_, _, b)| {
                a.shape() == b.shape()
                    && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
            });
            if !same {
                return vec![format!(
                    "parameter {name:?} differs from the baseline's with nothing re-planned"
                )];
            }
        }
        return Vec::new();
    }
    let rel = (loss - base).abs() / base.abs().max(1e-9);
    if rel > LOSS_TOLERANCE {
        return vec![format!(
            "final loss {loss:.6} deviates {:.1}% from baseline {base:.6} (> {:.1}%)",
            rel * 100.0,
            LOSS_TOLERANCE * 100.0
        )];
    }
    Vec::new()
}

/// Invariant 3: checkpoint-bounded replay. Each recovery pairs (in order)
/// with a Failed membership event carrying the epoch the failure surfaced
/// in, and the rollback replays at most `checkpoint_every - 1` completed
/// epochs. Every durable-generation fallback (a damaged newest
/// generation the store skipped) legitimately adds one more cadence.
fn replay_bound(run: &Run) -> Vec<String> {
    let mut v = Vec::new();
    let (cadence, recoveries) = (run.cfg.checkpoint_every, &run.report.recoveries);
    let fallbacks = run.counter("ckpt.fallbacks");
    let bound = cadence * (1 + fallbacks as usize) - 1;
    let failures: Vec<_> = run
        .report
        .membership
        .iter()
        .filter(|e| e.kind == MembershipEventKind::Failed)
        .collect();
    if failures.len() != recoveries.len() {
        v.push(format!("{} Failed events but {} recoveries", failures.len(), recoveries.len()));
    }
    for (fail, (worker, rollback_epoch, _)) in failures.iter().zip(recoveries) {
        if fail.worker != *worker {
            v.push(format!("failure of worker {} recovered as worker {worker}", fail.worker));
        }
        if fail.epoch < *rollback_epoch {
            v.push(format!(
                "rollback to epoch {rollback_epoch} is after the failure at {}",
                fail.epoch
            ));
        } else if fail.epoch - rollback_epoch > bound {
            v.push(format!(
                "restart replays {} epochs (failure at {}, rollback to {rollback_epoch}); \
                 cadence {cadence} with {fallbacks} fallbacks bounds replay to {bound}",
                fail.epoch - rollback_epoch,
                fail.epoch,
            ));
        }
    }
    if recoveries.len() > RecoveryConfig::every(cadence).max_restarts {
        v.push(format!("{} recoveries exceed the restart budget", recoveries.len()));
    }
    v
}

/// Invariant 4: every rejoin restores the full world size, checked by
/// replaying the membership log against the world. The trainer re-admits
/// every missing member at one checkpoint boundary, logging one Rejoined
/// event per slot, so the full-world check applies after the *last*
/// Rejoined of each same-epoch batch, not after each individual event.
fn rejoin_world(run: &Run) -> Vec<String> {
    let mut v = Vec::new();
    let (cfg, log) = (run.cfg, &run.report.membership);
    let mut active = cfg.workers;
    for (i, e) in log.iter().enumerate() {
        match e.kind {
            MembershipEventKind::Failed | MembershipEventKind::Evicted => active -= 1,
            MembershipEventKind::Rejoined => {
                active += 1;
                let batch_continues = log.get(i + 1).is_some_and(|n| {
                    n.kind == MembershipEventKind::Rejoined && n.epoch == e.epoch
                });
                if active != cfg.workers && !batch_continues {
                    v.push(format!(
                        "world has {active}/{} members after worker {} rejoined at epoch {}",
                        cfg.workers, e.worker, e.epoch
                    ));
                }
            }
        }
    }
    if run.schedule.rejoin {
        // With rejoin on, any member lost before the last checkpoint
        // boundary must have been re-admitted by then.
        let last_boundary = (cfg.epochs / cfg.checkpoint_every) * cfg.checkpoint_every;
        let lost_early = log
            .iter()
            .filter(|e| {
                e.kind != MembershipEventKind::Rejoined
                    && e.epoch + cfg.checkpoint_every < last_boundary
            })
            .count();
        let rejoined = log.iter().filter(|e| e.kind == MembershipEventKind::Rejoined).count();
        if rejoined < lost_early {
            v.push(format!(
                "{lost_early} members lost with a boundary to spare but only {rejoined} rejoined"
            ));
        }
    }
    v
}

/// Invariant 5: zero silent corruptions. Every bit-flip the plan injected
/// on the wire tripped a receive-side frame CRC (`integrity.crc_fail`),
/// and a scheduled checkpoint corruption forced the rollback onto the
/// store's fallback chain (`ckpt.fallbacks`) — loading the damaged
/// generation would be silent acceptance.
fn zero_corruption(run: &Run) -> Vec<String> {
    let mut v = Vec::new();
    let corrupts = run.counter("net.fault.corrupts");
    if corrupts > 0 && run.counter("integrity.crc_fail") == 0 {
        v.push(format!("{corrupts} corrupt frames injected but zero CRC failures detected"));
    }
    let scheduled = run.schedule.faults.iter().any(|f| matches!(f, Fault::CorruptCkpt { .. }));
    if scheduled && run.counter("ckpt.fallbacks") == 0 {
        v.push(
            "checkpoint corruption scheduled but no durable-generation fallback recorded"
                .to_string(),
        );
    }
    v
}

/// Invariant 6: resource exhaustion degrades, never aborts. Each
/// scheduled resource fault must leave its proving meters behind — a
/// disk-full window forces retention squeezes, a hung worker is evicted
/// as hung, a slow disk shows up as a bounded save penalty rather than a
/// stall — and on top of the meters a disk-full run keeps at least one
/// loadable durable generation and the pool's high-water mark
/// (`alloc.peak_bytes`) stays under an enforced memory cap.
fn resource_degrade(run: &Run) -> Vec<String> {
    let mut v = Vec::new();
    for f in &run.schedule.faults {
        let proving: &[&str] = match f {
            Fault::DiskFull { .. } => &["ckpt.enospc", "ckpt.retention_squeezed"],
            Fault::SlowDisk { .. } if run.cfg.ckpt_base.is_some() => {
                &["ckpt.slow_disk_penalty_ns"]
            }
            Fault::Hang { .. } => &["membership.hangs"],
            _ => &[],
        };
        for meter in proving.iter().filter(|m| run.counter(m) == 0) {
            v.push(format!("{f} scheduled but {meter} never fired"));
        }
        match f {
            Fault::DiskFull { .. } if run.durable_loadable != Some(true) => {
                v.push(format!("{f} run left no loadable durable generation"));
            }
            Fault::MemPressure { cap_bytes, .. } => {
                let frames = run.report.metrics.frames.values();
                let peaks = frames.filter_map(|fr| fr.histograms.get("alloc.peak_bytes"));
                match peaks.map(|h| h.max).max() {
                    None => v.push(format!("{f} scheduled but alloc.peak_bytes never observed")),
                    Some(peak) if peak > *cap_bytes as u64 => v.push(format!(
                        "pool high-water mark {peak} exceeds the enforced cap of {cap_bytes} bytes"
                    )),
                    Some(_) => {}
                }
            }
            _ => {}
        }
    }
    v
}

/// Trains under `schedule` against a scratch durable store of its own,
/// returning the report and whether that store still loads afterwards.
fn train_under(
    cfg: &ChaosConfig,
    schedule: &ChaosSchedule,
) -> Result<(TrainingReport, Option<bool>), String> {
    let (ds, model) = materialize(cfg)?;
    let plan = FaultPlan {
        seed: schedule.seed,
        faults: schedule.faults.clone(),
        ..FaultPlan::default()
    };
    // Each seed gets its own durable store so parallel soak runs never
    // share generations; the directory is scratch and removed after.
    let store_dir = cfg
        .ckpt_base
        .as_ref()
        .map(|b| b.join(format!("seed-{:08x}", schedule.seed)));
    let result = train(cfg, &ds, &model, plan, schedule.rejoin, store_dir.as_deref());
    // Probe the durable store *before* tearing the scratch directory
    // down: invariant 6 demands a disk-full run still leaves at least
    // one loadable generation behind.
    let durable_loadable = store_dir.as_ref().map(|dir| {
        CheckpointStore::open(dir, 1).is_ok_and(|st| st.load_latest().checkpoint.is_some())
    });
    if let Some(dir) = &store_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let report = result.map_err(|e| format!("run failed: {e}"))?;
    Ok((report, durable_loadable))
}

/// Runs one seeded schedule and checks the invariants against `base`.
pub fn run_schedule(
    cfg: &ChaosConfig,
    base: &Baseline,
    schedule: &ChaosSchedule,
) -> ChaosOutcome {
    let mut out = ChaosOutcome {
        seed: schedule.seed,
        schedule: schedule.describe(),
        final_loss: f64::NAN,
        recoveries: 0,
        membership_events: 0,
        replans: 0,
        crc_failures: 0,
        ckpt_fallbacks: 0,
        invariant_pass: [true; INVARIANTS.len()],
        violations: Vec::new(),
    };
    match train_under(cfg, schedule) {
        Ok((report, durable_loadable)) => {
            out.final_loss = report.final_loss();
            out.recoveries = report.recoveries.len();
            out.membership_events = report.membership.len();
            out.replans = report.replans.len();
            let run = Run { cfg, schedule, base, report: &report, durable_loadable };
            out.crc_failures = run.counter("integrity.crc_fail");
            out.ckpt_fallbacks = run.counter("ckpt.fallbacks");
            for (pass, (_, check)) in out.invariant_pass.iter_mut().zip(INVARIANTS) {
                let found = check(&run);
                *pass = found.is_empty();
                out.violations.extend(found);
            }
        }
        // A run that never produced a report fails termination; the
        // other invariants are vacuous without one.
        Err(why) => {
            out.invariant_pass[0] = false;
            out.violations.push(why);
        }
    }
    out
}

/// Runs `count` schedules seeded `base_seed, base_seed+1, …` and returns
/// every outcome. The fault-free baseline is computed once.
pub fn soak(cfg: &ChaosConfig, base_seed: u64, count: usize) -> Result<Vec<ChaosOutcome>, String> {
    let base = baseline(cfg)?;
    Ok((0..count as u64)
        .map(|i| {
            run_schedule(
                cfg,
                &base,
                &generate_with_baseline(base_seed + i, cfg, Some(&base)),
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_net::fault::parse_fault;

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let cfg = ChaosConfig::default();
        for seed in 0..50 {
            let a = generate(seed, &cfg);
            let b = generate(seed, &cfg);
            assert_eq!(a.describe(), b.describe());
            assert_eq!(a.rejoin, b.rejoin);
        }
    }

    #[test]
    fn schedules_vary_across_seeds() {
        let cfg = ChaosConfig::default();
        let descriptions: std::collections::BTreeSet<String> =
            (0..32).map(|s| generate(s, &cfg).describe()).collect();
        assert!(
            descriptions.len() > 16,
            "32 seeds should produce many distinct schedules, got {}",
            descriptions.len()
        );
    }

    #[test]
    fn generated_kills_fit_the_restart_budget() {
        let cfg = ChaosConfig::default();
        for seed in 0..200 {
            let s = generate(seed, &cfg);
            let kills = s
                .faults
                .iter()
                .filter(|f| matches!(f, Fault::Kill { .. }))
                .count();
            assert!(kills <= RecoveryConfig::every(cfg.checkpoint_every).max_restarts);
            for f in &s.faults {
                match f {
                    Fault::Kill { worker, epoch } => {
                        assert!(*worker < cfg.workers);
                        assert!(*epoch >= 1 && *epoch < cfg.epochs);
                    }
                    Fault::Straggle { worker, delay_ms } => {
                        assert!(*worker < cfg.workers);
                        assert!((5..=25).contains(delay_ms));
                        // Never straggles a worker that also dies.
                        assert!(!s.faults.iter().any(|k| matches!(
                            k,
                            Fault::Kill { worker: kw, .. } if kw == worker
                        )));
                    }
                    Fault::Drop { p, .. } => assert!(*p <= 0.3),
                    Fault::Delay { delay_ms, .. } => assert!(*delay_ms <= 10),
                    Fault::Duplicate { p, .. } => assert!(*p <= 0.5),
                    Fault::Corrupt { p, .. } => assert!(*p <= cfg.corrupt),
                    Fault::CorruptCkpt { .. } => {
                        panic!("ckpt corruption requires a durable store (ckpt_base)")
                    }
                    Fault::Partition { .. } | Fault::Flap { .. } => {
                        panic!("link faults belong to the --partition matrix")
                    }
                    Fault::DiskFull { .. }
                    | Fault::SlowDisk { .. }
                    | Fault::MemPressure { .. }
                    | Fault::Hang { .. } => {
                        panic!("resource faults belong to the --resource matrix")
                    }
                }
            }
        }
    }

    #[test]
    fn resource_matrix_degrades_within_declared_bounds() {
        let cfg = ChaosConfig {
            matrix: Matrix::Resource,
            ckpt_base: Some(PathBuf::from("unused-by-generate")),
            ..ChaosConfig::default()
        };
        let ck = cfg.checkpoint_every;
        let (mut disk_full, mut slow_disk, mut pressure, mut hangs) = (0, 0, 0, 0);
        for seed in 0..200 {
            let s = generate(seed, &cfg);
            assert!(s.rejoin, "resource schedules must always rejoin");
            assert_eq!(s.describe(), generate(seed, &cfg).describe());
            for f in &s.faults {
                match f {
                    Fault::DiskFull { window: Window { from: from_epoch, heal: heal_epoch } } => {
                        disk_full += 1;
                        // Exactly one interior boundary inside the window,
                        // so ENOSPC provably fires yet the final boundary
                        // always saves clean.
                        assert_eq!(*heal_epoch, from_epoch + 1);
                        assert_eq!(from_epoch % ck, 0);
                        assert!(*from_epoch >= ck && *from_epoch < cfg.epochs);
                    }
                    Fault::SlowDisk { factor } => {
                        slow_disk += 1;
                        assert!((1.5..=4.0).contains(factor));
                    }
                    Fault::MemPressure {
                        cap_bytes,
                        window: Window { from: from_epoch, heal: heal_epoch },
                    } => {
                        pressure += 1;
                        assert!(*cap_bytes > 0);
                        assert!(*from_epoch >= 1 && from_epoch < heal_epoch);
                        assert!(*heal_epoch <= cfg.epochs);
                    }
                    Fault::Hang { worker, epoch } => {
                        hangs += 1;
                        assert!(*worker < cfg.workers);
                        assert!(*epoch >= 1 && *epoch < cfg.epochs);
                    }
                    other => panic!("resource matrix generated {other:?}"),
                }
            }
        }
        assert!(disk_full >= 1, "200 seeds should fill the disk at least once");
        assert!(slow_disk >= 1 && pressure >= 1 && hangs >= 1);
    }

    #[test]
    fn resource_matrix_without_a_store_skips_disk_faults() {
        let cfg = ChaosConfig { matrix: Matrix::Resource, ..ChaosConfig::default() };
        for seed in 0..100 {
            for f in &generate(seed, &cfg).faults {
                assert!(
                    !matches!(f, Fault::DiskFull { .. } | Fault::SlowDisk { .. }),
                    "disk faults need a durable store, got {f:?}"
                );
            }
        }
    }

    #[test]
    fn partition_matrix_is_healable_by_construction() {
        let cfg = ChaosConfig { matrix: Matrix::Partition, ..ChaosConfig::default() };
        for seed in 0..200 {
            let s = generate(seed, &cfg);
            assert!(s.rejoin, "partition schedules must always rejoin");
            let mut link_faults = 0;
            for f in &s.faults {
                match f {
                    Fault::Partition {
                        link: Link { a, b, .. },
                        window: Window { from: from_epoch, heal: heal_epoch },
                    } => {
                        link_faults += 1;
                        assert!(*a < cfg.workers && *b < cfg.workers && a != b);
                        assert!(*from_epoch >= 1 && from_epoch < heal_epoch);
                        assert_eq!(heal_epoch % cfg.checkpoint_every, 0);
                        assert!(
                            *heal_epoch < cfg.epochs,
                            "link must heal before the final epoch"
                        );
                    }
                    Fault::Flap { link: Link { a, b, .. }, period_ms, duty } => {
                        link_faults += 1;
                        assert!(*a < cfg.workers && *b < cfg.workers && a != b);
                        assert!((10..=50).contains(period_ms));
                        assert!(*duty > 0.0 && *duty < 0.7);
                    }
                    Fault::Delay { delay_ms, .. } => assert!(*delay_ms <= 5),
                    other => panic!("partition matrix generated {other:?}"),
                }
            }
            assert!(link_faults >= 1, "every partition schedule exercises a link");
        }
    }

    #[test]
    fn generator_schedules_ckpt_corruption_only_with_a_fallback_target() {
        let cfg = ChaosConfig {
            ckpt_base: Some(PathBuf::from("unused-by-generate")),
            ..ChaosConfig::default()
        };
        let mut seen = false;
        for seed in 0..200 {
            let s = generate(seed, &cfg);
            for f in &s.faults {
                if let Fault::CorruptCkpt { epoch, p } = f {
                    seen = true;
                    assert_eq!(*p, 1.0);
                    let b = epoch.expect("generator pins the boundary");
                    assert!(b >= cfg.checkpoint_every);
                    assert_eq!(b % cfg.checkpoint_every, 0);
                    // The damaged boundary must belong to the *earliest*
                    // kill: later kills may never fire once an earlier
                    // membership change renumbers the survivors.
                    let (anchor_epoch, anchor_worker) = s
                        .faults
                        .iter()
                        .filter_map(|k| match k {
                            Fault::Kill { worker, epoch } => Some((*epoch, *worker)),
                            _ => None,
                        })
                        .min()
                        .expect("ckpt corruption always rides a kill");
                    assert_eq!(
                        (anchor_epoch / cfg.checkpoint_every) * cfg.checkpoint_every,
                        b
                    );
                    // And the anchor's worker index must survive one
                    // straggler-eviction renumber, or the kill might
                    // address a slot that no longer exists.
                    let straggles =
                        s.faults.iter().any(|f| matches!(f, Fault::Straggle { .. }));
                    assert!(anchor_worker + usize::from(straggles) < cfg.workers);
                }
            }
        }
        assert!(seen, "200 seeds should schedule at least one ckpt corruption");
    }

    #[test]
    fn corrupt_faults_are_detected_and_survived() {
        let base_dir = std::env::temp_dir()
            .join(format!("nts-chaos-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base_dir);
        let cfg = ChaosConfig {
            ckpt_base: Some(base_dir.clone()),
            ..ChaosConfig::default()
        };
        let base = baseline(&cfg).unwrap();
        // Hand-built worst case: noisy wire plus a guaranteed-damaged
        // newest generation the rollback must skip.
        let schedule = ChaosSchedule {
            seed: 7,
            faults: vec![
                Fault::Kill { worker: 1, epoch: 5 },
                Fault::Corrupt { sel: MsgSel::any(), p: 0.25 },
                Fault::CorruptCkpt { epoch: Some(4), p: 1.0 },
            ],
            rejoin: false,
        };
        let outcome = run_schedule(&cfg, &base, &schedule);
        assert!(outcome.passed(), "{:?}", outcome.violations);
        assert_eq!(outcome.recoveries, 1);
        assert!(outcome.crc_failures > 0, "wire flips must trip CRC checks");
        assert!(outcome.ckpt_fallbacks >= 1, "torn generation must be skipped");
        let _ = std::fs::remove_dir_all(&base_dir);
    }

    #[test]
    fn fault_free_schedule_passes_invariants() {
        let cfg = ChaosConfig {
            epochs: 2,
            ..ChaosConfig::default()
        };
        let base = baseline(&cfg).unwrap();
        let clean = ChaosSchedule { seed: 0, faults: Vec::new(), rejoin: false };
        let outcome = run_schedule(&cfg, &base, &clean);
        assert!(outcome.passed(), "{:?}", outcome.violations);
        assert_eq!(outcome.recoveries, 0);
        // Nothing re-planned, so invariant 2 is bit-equality: one ulp off
        // in one baseline parameter fails it, naming the parameter.
        let mut off = base.clone();
        let (id, name, _) = off.final_params.iter().last().unwrap();
        let name = format!("{name:?}");
        let x = &mut off.final_params.value_mut(id).data_mut()[0];
        *x = f32::from_bits(x.to_bits() ^ 1);
        let outcome = run_schedule(&cfg, &off, &clean);
        assert!(!outcome.invariant_pass[1]);
        assert!(outcome.violations[0].contains(&name), "{:?}", outcome.violations);
    }

    fn store() -> Option<PathBuf> {
        Some(PathBuf::from("unused-by-generate"))
    }

    #[test]
    fn described_schedules_parse_back() {
        // The logged schedule is the replay contract: every token of
        // `describe()` is a `--fault` spec that parses back to the fault
        // it was printed from.
        let matrices = [
            ChaosConfig::default(),
            ChaosConfig { ckpt_base: store(), ..ChaosConfig::default() },
            ChaosConfig { matrix: Matrix::Partition, ..ChaosConfig::default() },
            ChaosConfig { matrix: Matrix::Resource, ckpt_base: store(), ..ChaosConfig::default() },
        ];
        for cfg in &matrices {
            for seed in 0..200 {
                let s = generate(seed, cfg);
                let line = s.describe();
                let parsed: Vec<Fault> = line
                    .split(' ')
                    .filter(|w| !matches!(*w, "+rejoin" | "(fault-free)"))
                    .map(|w| parse_fault(w).unwrap_or_else(|e| panic!("seed {seed} {line:?}: {e}")))
                    .collect();
                assert_eq!(parsed, s.faults, "seed {seed}: {line:?} does not replay");
            }
        }
    }

    /// A measured pool peak moves by a few KiB between runs of one
    /// build; the cap it derives must not, or a seed stops naming one
    /// schedule.
    #[test]
    fn resource_cap_is_the_same_for_peaks_within_one_mib_step() {
        let cfg = ChaosConfig { matrix: Matrix::Resource, ..ChaosConfig::default() };
        let base =
            |peak_bytes| Baseline { final_loss: 1.0, final_params: ParamStore::new(), peak_bytes };
        let spec = |peak| generate_with_baseline(1, &cfg, Some(&base(peak))).describe();
        let peak = 18 << 20; // cap 20.25 MiB, rounded up to 21
        assert_eq!(spec(peak), spec(peak + 4096));
        assert!(spec(peak).contains(&format!("mempressure:{}@", 21 << 20)), "{}", spec(peak));
    }

    #[test]
    fn generated_schedules_are_pinned() {
        // Taken from the parent of the PR that moved the generators onto
        // the shared SplitMix64 (`ns_rand` today): the streams are checked
        // bit-for-bit, not claimed.
        let pinned = [
            (
                ChaosConfig { ckpt_base: store(), ..ChaosConfig::default() },
                0,
                "kill:w1@e2 drop:any:0.13920279668589672 delay:any:8ms corrupt:ckpt:1@e2 +rejoin",
            ),
            (
                ChaosConfig { matrix: Matrix::Partition, ..ChaosConfig::default() },
                2,
                "partition:w1->w2@e2-e4 flap:w1-w0:12ms:0.2088711044666662 delay:any:3ms +rejoin",
            ),
            (
                ChaosConfig {
                    matrix: Matrix::Resource,
                    ckpt_base: store(),
                    ..ChaosConfig::default()
                },
                1,
                "diskfull:e2-e3 slowdisk:1.7590759413003918 mempressure:67108864@e1-e3 \
                 hang:w1@e2 +rejoin",
            ),
        ];
        for (cfg, seed, want) in pinned {
            assert_eq!(generate(seed, &cfg).describe(), want);
        }
    }
}
