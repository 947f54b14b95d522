//! The supervisor behind [`Trainer::train`]: one chunk loop for every run.
//!
//! A run is a sequence of *chunks* of `checkpoint_every` epochs. The
//! supervisor owns what outlives a chunk, and [`Supervisor::run`] is the
//! list of what happens around one: `run_chunk`, then on success
//! `checkpoint` and `heal`, on failure `recover`. Every decision a run
//! re-makes after start-up — roll back, drop a member, evict a straggler,
//! re-admit, replan — is taken in one of those. A run without recovery is
//! the same loop with one chunk of all the epochs and no restart budget: it
//! serializes no checkpoint, heals nothing and adds no coordinator frame.
//!
//! Two invariants. **Chunks are atomic**: a failed chunk contributes no
//! epoch metrics and no recorder frames, so the report always ends where
//! the recovery point begins and a rollback is just "replan, re-run from
//! the checkpoint". **Eviction re-admits at the next boundary, never the
//! same one.** One trace-clock origin is threaded through every chunk so
//! all spans land on one timeline (DESIGN.md §9 has the step/meter table).

use std::borrow::Cow;
use std::time::Instant;

use ns_graph::Partitioning;
use ns_metrics::{span, MetricsRecorder, Phase, RunMetrics, COORDINATOR};
use ns_net::fault::FaultPlan;
use ns_net::membership::{self, MembershipEvent, MembershipView};
use ns_tensor::{AdamState, ParamStore};

use super::{plan_engine, training_partition, EngineKind, ReplanEvent, Trainer};
use crate::cost::CostFactors;
use crate::error::{FailureCause, Result, RuntimeError};
use crate::exec::{run_workers, EpochMetrics, ExecConfig, Layer0, Layer0Carry, RunState};
use crate::feedback::{self, DecisionDelta, PeerWaitStats};
use crate::hybrid;
use crate::plan::{DepDecision, WorkerPlan};
use crate::recovery::{Checkpoint, STRAGGLER_FACTOR};
use crate::store::CheckpointStore;

/// Upper bound on measured-cost drift replans per run, so an unlucky
/// oscillating cluster cannot spend more time partitioning than training.
const MAX_DRIFT_REPLANS: usize = 4;

/// What the supervised epoch loop hands back to [`Trainer::train`].
#[derive(Default)]
pub(super) struct ElasticOutcome {
    pub metrics: Vec<EpochMetrics>,
    /// The parameters carried between chunks (`None` = the fresh store).
    pub params: Option<ParamStore>,
    pub recoveries: Vec<(usize, usize, String)>,
    pub run_metrics: RunMetrics,
    pub membership: Vec<MembershipEvent>,
    pub replans: Vec<ReplanEvent>,
}

/// The plan a chunk runs under: the partition it was compiled from, the
/// compiled per-worker plans, the engine that compiled them (the
/// configured one unless it degraded), and the dependency decision a later
/// drift replan diffs against. Borrowed from the trainer until the first
/// replan.
///
/// `layer0` is what the workers computed from the features under `plans`
/// alone. It lives here so that it outlives chunks and rollbacks, which
/// keep the plan, and is dropped by construction wherever the plan is
/// replaced (`replan_members`, `drift_replan`).
struct ActivePlan<'t> {
    part: Cow<'t, Partitioning>,
    plans: Cow<'t, [WorkerPlan]>,
    engine: EngineKind,
    decision: Cow<'t, DepDecision>,
    layer0: Layer0Carry,
}

fn store_io(e: std::io::Error) -> RuntimeError {
    RuntimeError::StoreIo(e.to_string())
}

pub(super) struct Supervisor<'t, 'a> {
    trainer: &'t Trainer<'a>,
    exec_cfg: ExecConfig,
    epochs: usize,
    /// Epochs per chunk and restart budget (all, and none, without recovery).
    cadence: usize,
    max_restarts: usize,
    // The plan the next chunk runs under.
    active: ActivePlan<'t>,
    // Who is in the cluster, and which injected faults are still armed.
    view: MembershipView,
    fault: FaultPlan,
    // The recovery point, and the live state's Adam half (`report.params`
    // is the other): handed on by a good chunk, restored by `rollback()`.
    ckpt: Checkpoint,
    opt: Option<AdamState>,
    store: Option<CheckpointStore>,
    // Budgets.
    restarts: usize,
    drift_replans: usize,
    baseline_mean: Option<f64>,
    // The report under construction, and the coordinator's own frame.
    report: ElasticOutcome,
    coord: MetricsRecorder,
}

impl<'t, 'a> Supervisor<'t, 'a> {
    pub(super) fn new(trainer: &'t Trainer<'a>, epochs: usize) -> Result<Self> {
        let cfg = &trainer.cfg;
        let recovering = cfg.recovery.enabled();
        let (cadence, max_restarts) = if recovering {
            (cfg.recovery.checkpoint_every, cfg.recovery.max_restarts)
        } else {
            (epochs, 0)
        };
        let store = match &cfg.store.dir {
            Some(dir) if recovering => {
                Some(CheckpointStore::open(dir, cfg.store.keep).map_err(store_io)?)
            }
            _ => None,
        };
        Ok(Self {
            trainer,
            exec_cfg: ExecConfig { lr: cfg.lr },
            epochs,
            cadence,
            max_restarts,
            active: ActivePlan {
                part: Cow::Borrowed(&trainer.part),
                plans: Cow::Borrowed(&trainer.plans),
                engine: cfg.engine,
                decision: Cow::Borrowed(&trainer.decision),
                layer0: Layer0Carry::default(),
            },
            view: MembershipView::new(cfg.cluster.workers),
            fault: cfg.fault.clone(),
            ckpt: Checkpoint::initial(),
            opt: None,
            store,
            restarts: 0,
            drift_replans: 0,
            baseline_mean: None,
            report: ElasticOutcome::default(),
            coord: MetricsRecorder::new(COORDINATOR, Instant::now()),
        })
    }

    /// The run, as the list of what happens around its chunks.
    pub(super) fn run(mut self) -> Result<ElasticOutcome> {
        let recovering = self.trainer.cfg.recovery.enabled();
        while self.ckpt.next_epoch < self.epochs {
            match self.run_chunk() {
                // No recovery point to advance: the one chunk was the run.
                Ok(_) if !recovering => break,
                Ok((boundary, waits)) => {
                    self.checkpoint(boundary)?;
                    self.heal(boundary, &waits)?;
                }
                Err(e) => self.recover(e)?,
            }
        }
        if recovering {
            self.report.run_metrics.absorb(self.coord.finish());
        }
        self.report.membership = self.view.events().to_vec();
        Ok(self.report)
    }

    /// Runs the next chunk on the live state, which it consumes, under the
    /// active plan. Only a chunk that succeeds touches the report: it hands
    /// its state on and returns its end epoch and measured per-peer receive
    /// waits. Failed or not, it leaves the plan's layer-0 prefixes behind.
    fn run_chunk(&mut self) -> Result<(usize, PeerWaitStats)> {
        let start = self.ckpt.next_epoch;
        let chunk = self.cadence.min(self.epochs - start);
        self.coord.set_epoch(start as u32);
        let run = RunState {
            epoch_offset: start,
            init_params: self.report.params.take(),
            opt_state: self.opt.take(),
            fault: self.fault.clone(),
            recv_timeout_ms: self.trainer.cfg.recv_timeout_ms,
            origin: Some(self.coord.origin()),
        };
        // Injected memory pressure arms at chunk granularity: the cap
        // lands before the chunk's workers spawn and lifts after they
        // have all joined, when the only live pooled buffers are the
        // layer-0 prefixes kept for the next chunk — the shrink sheds
        // parked buffers and can never invalidate a live tensor. A
        // window that touches *any* epoch of the chunk arms the whole
        // chunk (tightest cap wins), so sub-cadence windows are never
        // silently skipped. The high-water mark since arming is
        // exported at every disarm.
        let mem_cap = (start..start + chunk).filter_map(|e| self.fault.mem_cap_at(e)).min();
        if let Some(cap) = mem_cap {
            ns_tensor::pool::set_cap_bytes(cap);
        }
        let result = run_workers(
            self.trainer.dataset,
            self.trainer.model,
            &self.active.plans,
            chunk,
            &self.exec_cfg,
            &run,
            Layer0::Constant(&mut self.active.layer0),
        );
        if mem_cap.is_some() {
            self.coord.observe("alloc.peak_bytes", ns_tensor::pool::stats().peak_bytes);
            ns_tensor::pool::set_cap_bytes(ns_tensor::pool::default_cap_bytes());
        }
        let (chunk_metrics, params, opt, chunk_run) = result?;
        let waits = feedback::peer_waits(&chunk_run, self.active.plans.len());
        self.report.metrics.extend(chunk_metrics);
        self.report.run_metrics.merge(chunk_run);
        (self.report.params, self.opt) = (Some(params), opt);
        Ok((start + chunk, waits))
    }

    /// Advances the recovery point to `boundary`: captures the live
    /// parameters and optimizer state, and with a durable store persists
    /// them as the next generation.
    fn checkpoint(&mut self, boundary: usize) -> Result<()> {
        let _save = span!(&self.coord, Phase::CkptSave);
        self.coord.incr("recovery.checkpoints", 1);
        let params = self.report.params.as_ref().expect("a finished chunk left its parameters");
        self.ckpt = Checkpoint::capture(boundary, params, self.opt.clone());
        let Some(st) = self.store.as_mut() else { return Ok(()) };
        st.set_disk_fate(self.fault.disk_full_at(boundary), self.fault.slow_disk_factor());
        // Degrade, don't die: ENOSPC squeezes retention toward keep-last-1
        // and retries; only a failure of the squeezed retry defers the
        // generation (durability thins, training continues).
        let outcome = st.save_degrading(&self.ckpt, self.active.plans.len()).map_err(store_io)?;
        if outcome.enospc_hits > 0 {
            self.coord.incr("ckpt.enospc", outcome.enospc_hits);
        }
        if outcome.squeezed {
            self.coord.incr("ckpt.retention_squeezed", 1);
        }
        if outcome.deferred {
            self.coord.incr("ckpt.deferred", 1);
        }
        let Some(receipt) = outcome.receipt else { return Ok(()) };
        self.coord.observe("ckpt.fsync_ns", receipt.fsync_ns);
        if receipt.slow_penalty_ns > 0 {
            self.coord.incr("ckpt.slow_disk_penalty_ns", receipt.slow_penalty_ns);
        }
        // Injected on-disk bit rot (chaos `corrupt:ckpt` faults) lands on
        // the persisted copy only; the in-memory checkpoint stays clean,
        // exactly like real silent disk corruption.
        if let Some(bits) = self.fault.ckpt_fate(boundary) {
            st.damage_latest(bits).map_err(store_io)?;
        }
        Ok(())
    }

    /// The self-healing boundary pass, driven by the chunk's measured
    /// per-peer receive waits: evict a straggler, re-admit whoever is
    /// missing, then rebuild the plan — over the new membership if it
    /// changed, else on measured cost drift.
    fn heal(&mut self, boundary: usize, waits: &PeerWaitStats) -> Result<()> {
        let evicted = self.evict_straggler(boundary, waits);
        let rejoined = self.rejoin_missing(boundary, evicted);
        if evicted.is_some() || rejoined {
            self.replan_members()
        } else {
            self.drift_replan(boundary, waits)
        }
    }

    /// The one place an error becomes an action. A lost member, while the
    /// restart budget lasts and someone survives it: drop the member,
    /// replan on the survivors, roll back. Diverged state within budget:
    /// roll back only. Anything else surfaces as it came.
    fn recover(&mut self, err: RuntimeError) -> Result<()> {
        if self.restarts >= self.max_restarts {
            return Err(err);
        }
        let culprit = match err {
            RuntimeError::WorkerFailed { worker, epoch, cause } if self.active.plans.len() > 1 => {
                self.coord.incr("membership.failures", 1);
                if cause == FailureCause::Hung {
                    // The worker frames of a failed chunk are discarded,
                    // so the coordinator counts the hung workers routed
                    // into recovery.
                    self.coord.incr("membership.hangs", 1);
                }
                // The dead worker leaves the cluster (until it rejoins at
                // a boundary) and takes the faults pinned to its slot with
                // it: the kill or hang that just fired must not re-fire on
                // the renumbered survivors, and a partitioned (not killed)
                // worker surfaces here too — its receives time out just
                // like a death — so its link faults must not re-sever the
                // re-admitted member. Any remaining faults address the
                // *new* numbering.
                let slot = self.view.mark_failed(worker, epoch);
                self.fault.retire_member(worker, epoch);
                self.replan_members()?;
                slot
            }
            RuntimeError::Diverged { worker, .. } => {
                // Divergence is a fault of the *state*, not a member:
                // nobody leaves the cluster and no replan is needed. A
                // deterministic divergence re-trips the guard each attempt
                // and surfaces once the restart budget is spent.
                self.coord.incr("guard.nan_events", 1);
                worker
            }
            other => return Err(other),
        };
        self.restarts += 1;
        self.coord.incr("recovery.rollbacks", 1);
        self.rollback()?;
        let engine = self.active.engine.name().to_string();
        self.report.recoveries.push((culprit, self.ckpt.next_epoch, engine));
        Ok(())
    }

    /// Restores the live state from the recovery point, the only decode of
    /// a checkpoint. With a durable store the point is re-read from *disk*
    /// (the honest process-restart path): the newest good generation wins,
    /// damaged ones are skipped as metered fallbacks, and a deeper-than-
    /// memory rollback truncates the collected epoch metrics to match.
    fn rollback(&mut self) -> Result<()> {
        let _load = span!(&self.coord, Phase::CkptLoad);
        if let Some(store) = &self.store {
            let report = store.load_latest();
            if report.fallbacks > 0 {
                self.coord.incr("ckpt.fallbacks", report.fallbacks);
            }
            let resumed = report.checkpoint.unwrap_or_else(Checkpoint::initial);
            if resumed.next_epoch < self.ckpt.next_epoch {
                self.report.metrics.truncate(resumed.next_epoch);
            }
            self.ckpt = resumed;
        }
        (self.report.params, self.opt) =
            self.ckpt.restore().map_err(|e| RuntimeError::CheckpointCorrupt(e.to_string()))?;
        Ok(())
    }

    /// Straggler eviction: the peer whose attributed per-message receive
    /// wait exceeds [`STRAGGLER_FACTOR`] times the cluster median leaves
    /// voluntarily. Returns its original slot.
    fn evict_straggler(&mut self, boundary: usize, waits: &PeerWaitStats) -> Option<usize> {
        let policy = &self.trainer.cfg.recovery;
        if !policy.evict_stragglers || self.view.active_count() <= 1 || boundary >= self.epochs {
            return None;
        }
        let rank = feedback::pick_straggler(waits, STRAGGLER_FACTOR)?;
        // The eviction cures the straggle at the source: a modeled
        // replacement host takes the slot, so the faults pinned to it
        // retire with the member — the straggle, and its link faults too:
        // the survivors renumber, so a stale partition/flap would sever
        // the wrong (healthy) replacement forever.
        self.fault.retire_member(rank, boundary);
        self.coord.incr("membership.evictions", 1);
        Some(self.view.mark_evicted(rank, boundary))
    }

    /// Rejoin: every missing member (failed or evicted), except the one
    /// evicted at this very boundary, re-admits and resumes from the
    /// checkpoint. Each rejoin puts the [`membership`] handshake's control
    /// messages and the checkpoint's payload — parameters and Adam state —
    /// on the wire. True if anyone rejoined.
    fn rejoin_missing(&mut self, boundary: usize, just_evicted: Option<usize>) -> bool {
        if !self.trainer.cfg.recovery.rejoin || self.view.is_full() {
            return false;
        }
        let wire_bytes = self.ckpt.payload().len() as u64 + membership::REJOIN_HANDSHAKE_BYTES;
        let mut admitted = false;
        for slot in self.view.missing() {
            if Some(slot) == just_evicted {
                continue;
            }
            self.view.admit(slot, boundary);
            self.coord.incr("membership.rejoins", 1);
            self.coord.incr("membership.rejoin.bytes", wire_bytes);
            admitted = true;
        }
        if self.view.is_full() {
            // Full world again: retry the configured engine, so a run
            // degraded to DepComm upgrades back (`plan_for` still degrades
            // if needed).
            self.active.engine = self.trainer.cfg.engine;
        }
        admitted
    }

    /// Rebuilds the plan over whoever is active now, on the probed costs.
    fn replan_members(&mut self) -> Result<()> {
        self.active = self.plan_for(&self.trainer.costs, None)?;
        // Old wait statistics describe the old world.
        self.baseline_mean = None;
        Ok(())
    }

    /// Measured-cost drift replan (Hybrid only, membership unchanged): the
    /// chunk's receive waits are calibrated into [`CostFactors`]
    /// corrections and, past the thresholds in [`feedback`], Algorithm 4
    /// re-runs with them — a slow peer's dependencies shift from
    /// communicated to cached.
    fn drift_replan(&mut self, boundary: usize, waits: &PeerWaitStats) -> Result<()> {
        if self.active.engine != EngineKind::Hybrid
            || boundary >= self.epochs
            || self.drift_replans >= MAX_DRIFT_REPLANS
        {
            return Ok(());
        }
        let calib = feedback::calibrate(waits, self.baseline_mean);
        self.baseline_mean.get_or_insert(calib.mean_wait_ns);
        if !calib.triggers_replan() {
            return Ok(());
        }
        let scaled = self.trainer.costs.with_comm_scale(calib.comm_factor);
        let next = self.plan_for(&scaled, Some(&calib.peer_mult))?;
        let delta = self.decision_delta(&next.decision);
        self.coord.incr("replan.events", 1);
        self.coord.incr("replan.moved_to_cached", delta.total_to_cached() as u64);
        self.coord.incr("replan.moved_to_comm", delta.total_to_comm() as u64);
        self.report.replans.push(ReplanEvent {
            epoch: boundary,
            reason: "drift",
            comm_factor: calib.comm_factor,
            peer_mult: calib.peer_mult,
            moved_to_cached: delta.moved_to_cached,
            moved_to_comm: delta.moved_to_comm,
            engine: next.engine.name().to_string(),
        });
        self.active = next;
        self.drift_replans += 1;
        Ok(())
    }

    /// Plans the active engine over the active members, degrading Hybrid to
    /// DepComm when the shrunk cluster can no longer fit the cached working
    /// set — trading extra communication for staying alive rather than
    /// surfacing `DeviceOom` mid-recovery. `costs` and `peer_mult` let the
    /// drift replan feed calibrated factors in; membership replans pass
    /// the probed costs unchanged.
    fn plan_for(&self, costs: &CostFactors, peer_mult: Option<&[f64]>) -> Result<ActivePlan<'t>> {
        let t = self.trainer;
        let part =
            training_partition(t.dataset, &t.cfg, t.vertex_weight, self.view.active_count())?;
        let plan = |engine, peer_mult| {
            plan_engine(t.dataset, t.model, &t.cfg, engine, &part, costs, peer_mult)
                .map(|(plans, _, decision)| (engine, plans, decision))
        };
        let (engine, plans, decision) = match plan(self.active.engine, peer_mult) {
            Err(RuntimeError::DeviceOom { .. }) if self.active.engine == EngineKind::Hybrid => {
                plan(EngineKind::DepComm, None)
            }
            planned => planned,
        }?;
        Ok(ActivePlan {
            part: Cow::Owned(part),
            plans: Cow::Owned(plans),
            engine,
            decision: Cow::Owned(decision),
            layer0: Layer0Carry::default(),
        })
    }

    /// Attributes the migration from the active dependency decision to
    /// `new`, compiled over the same members and so the same partition, to
    /// the owners of the moved dependencies (see
    /// [`feedback::diff_decisions`]).
    fn decision_delta(&self, new: &DepDecision) -> DecisionDelta {
        let (graph, part) = (&self.trainer.dataset.graph, &self.active.part);
        let workers = part.num_parts();
        let num_layers = self.trainer.model.num_layers();
        let deps: Vec<Vec<Vec<u32>>> =
            (0..workers).map(|i| hybrid::remote_deps(graph, part, i, num_layers)).collect();
        let old = &self.active.decision;
        feedback::diff_decisions(old, new, workers, num_layers, &deps, |u| part.owner(u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::RecoveryConfig;
    use crate::trainer::tests::{cfg, dataset, layer0_exchange_epochs, model};

    /// The layer-0 prefixes live and die with the active plan: a rollback
    /// keeps both, a survivors replan replaces both.
    #[test]
    fn layer0_carry_survives_a_rollback_and_is_dropped_with_the_plan() {
        let ds = dataset();
        let model = model(&ds);
        let mut cfg = cfg(EngineKind::DepComm, 3);
        cfg.recovery = RecoveryConfig::every(1);
        let trainer = Trainer::prepare(&ds, &model, cfg).unwrap();
        let mut sup = Supervisor::new(&trainer, 4).unwrap();
        assert!(!sup.active.layer0.is_filled(), "nothing is built before the first epoch");
        let (boundary, _) = sup.run_chunk().unwrap();
        sup.checkpoint(boundary).unwrap();
        assert!(sup.active.layer0.is_filled());

        sup.recover(RuntimeError::Diverged { worker: 0, epoch: 1 }).unwrap();
        assert!(sup.active.layer0.is_filled(), "a rollback changes parameters, not the plan");
        sup.run_chunk().unwrap();
        let exchanged_at = layer0_exchange_epochs(&sup.report.run_metrics.frames[&0]);
        assert_eq!(exchanged_at, [0], "the chunk after the rollback reuses the prefix");

        let lost = RuntimeError::WorkerFailed { worker: 1, epoch: 1, cause: FailureCause::Killed };
        sup.recover(lost).unwrap();
        assert_eq!(sup.active.plans.len(), 2);
        assert_eq!(sup.active.part.num_parts(), 2, "the partition is replaced with the plans");
        assert!(!sup.active.layer0.is_filled(), "new plans start without a prefix");
    }
}
