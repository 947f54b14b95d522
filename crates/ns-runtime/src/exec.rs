//! Engine-agnostic distributed execution of a dependency plan.
//!
//! One OS thread per worker; real tensors move over the `ns-net` fabric.
//! Each thread is a `Worker` whose `epoch()` is the phase list the
//! ledger and the trace report: per layer `fwd_comm → fwd_compute`, then
//! `head`, per layer `bwd_compute → bwd_comm`, then `sync_wait`,
//! `opt_step`. A layer's `fwd_compute` also records the next layer's
//! per-row transform, if it has one (`GnnLayer::transform`: a narrowing
//! GCN layer's `H·W`), so that product runs once, at the rows' owner, and
//! the next exchange moves it at `out_dim` instead of the input at
//! `in_dim`. Layer 0 is the exception after a worker's first epoch: its
//! input is the feature matrix, so its dependency exchange, input assembly
//! and parameter-free prefix depend on the plan alone; they run once per
//! plan and later epochs start the layer from the saved [`LayerPrefix`]
//! (`Layer0Carry`). The forward *synchronize-compute* mode (masters push
//! dependency rows, mirrors assemble their input matrix, then the layer's
//! tape segment runs) and the backward *compute-synchronize* mode (the
//! tape segment's input gradient is split into locally-routed rows and
//! mirror gradients pushed back to masters) share one push/pull pair;
//! receives always fold in fixed peer order for determinism. Parameter
//! gradients are combined with a ring all-reduce and every worker applies
//! an identical optimizer step, keeping the replicated parameter stores
//! bitwise in sync.
//!
//! The exchange schedule is the paper's one (§4.3, Fig. 8): payloads
//! filled by the lock-free parallel enqueuer, sent in ring order, and a
//! ring all-reduce. Fig. 9's "–R/–L" ablations and the parameter server
//! are priced only by the simulated epoch (`Trainer::simulate_epoch`).
//!
//! Failure semantics: workers never panic on fabric trouble. Every
//! receive waits on one deadline ([`RunState::recv_timeout_ms`]); a dead,
//! wedged, or protocol-desynced peer turns the worker's result into a
//! typed failure, the coordinator drains and joins *all* threads (a
//! failed worker drops its endpoint, which cascades disconnects through
//! the mesh and unblocks every survivor), and the root-cause failure
//! surfaces as [`RuntimeError::WorkerFailed`] (a receive timeout in
//! the all-reduce included, which recovery rolls back like any other).
//! Deterministic fault injection and checkpoint-resume state ride in
//! [`RunState`].

use std::sync::mpsc;
use std::time::{Duration, Instant};

use ns_gnn::loss::{count_correct, softmax_cross_entropy, LossResult};
use ns_gnn::{GnnModel, LayerInput, LayerPrefix, LayerRun};
use ns_graph::Dataset;
use ns_metrics::{span, LayerSplit, MetricsFrame, MetricsRecorder, Phase, RunMetrics};
use ns_net::fault::FaultPlan;
use ns_net::{Endpoint, Fabric, Message, MessageKind, NetError, ParallelEnqueue};
use ns_tensor::{Adam, AdamState, Optimizer, ParamStore, Tensor};

use crate::error::{FailureCause, Result, RuntimeError};
use crate::obs::export_net_stats;
use crate::plan::WorkerPlan;

/// Executor configuration (the exchange schedule is fixed: module doc).
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Adam's learning rate.
    pub lr: f32,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self { lr: 0.01 }
    }
}

/// [`RunState::recv_timeout_ms`]'s default: 15 s, enough for any injected
/// retransmit delay or straggler the fault layer models, short enough that
/// a hang is found within one run.
pub(crate) const DEFAULT_RECV_TIMEOUT_MS: u64 = 15_000;

/// Cross-chunk execution state for fault-tolerant runs: where the run
/// starts (after a checkpoint restore), the parameters and optimizer
/// state to resume from, the fault plan to inject, and the receive
/// deadline. [`Default`] is a clean from-scratch, fault-free run.
#[derive(Debug, Clone)]
pub struct RunState {
    /// Absolute epoch the first executed epoch corresponds to (fault
    /// plans and metrics are stamped with `epoch_offset + epoch`).
    pub epoch_offset: usize,
    /// Parameters to start from (`None` = the model's fresh store).
    pub init_params: Option<ParamStore>,
    /// Adam state to resume (`None` = fresh moments).
    pub opt_state: Option<AdamState>,
    /// Injected faults.
    pub fault: FaultPlan,
    /// How long one receive waits for a peer's message before the peer
    /// is declared failed, in milliseconds. The epoch is synchronous, so
    /// a late message can only be waited for: there is no retry.
    pub recv_timeout_ms: u64,
    /// Shared trace-clock origin for the metrics recorders (`None` =
    /// "start of this call"). The recovery loop threads one origin
    /// through every chunk so the spans of a run that rolled back and
    /// resumed all land on a single timeline.
    pub origin: Option<Instant>,
}

impl Default for RunState {
    fn default() -> Self {
        Self {
            epoch_offset: 0,
            init_params: None,
            opt_state: None,
            fault: FaultPlan::default(),
            recv_timeout_ms: DEFAULT_RECV_TIMEOUT_MS,
            origin: None,
        }
    }
}

/// Each worker's layer-0 prefix under one set of plans: what the first
/// epoch's layer-0 exchange, input assembly and parameter-free operators
/// produced. It depends on the dataset and the plans only — not on
/// parameters, optimizer state or the epoch — so whoever owns the plans
/// keeps it beside them, hands it to every chunk that runs under them and
/// drops it with them. [`Default`] is "nothing computed yet".
#[derive(Default)]
pub(crate) struct Layer0Carry {
    /// One slot per worker, in plan order; all filled or all empty, since
    /// a worker that skips the exchange must not face a peer that runs it.
    slots: Vec<Option<LayerPrefix>>,
}

impl Layer0Carry {
    /// The slots for a run of `workers` workers, emptied unless every one
    /// of them is filled (a chunk that failed mid-epoch loses the prefixes
    /// its tapes held).
    fn slots_for(&mut self, workers: usize) -> &mut [Option<LayerPrefix>] {
        if self.slots.len() != workers || self.slots.iter().any(Option::is_none) {
            self.slots = (0..workers).map(|_| None).collect();
        }
        &mut self.slots
    }

    /// Whether a run under the same plans would skip the layer-0 exchange.
    #[cfg(test)]
    pub(crate) fn is_filled(&self) -> bool {
        !self.slots.is_empty() && self.slots.iter().all(Option::is_some)
    }
}

/// What a run does with layer 0's input, the feature matrix.
pub(crate) enum Layer0<'a> {
    /// Every run: nobody reads the feature gradient, so the input is a
    /// constant and the layer's prefix over it is computed in the first
    /// epoch, then reused from `Layer0Carry`.
    Constant(&'a mut Layer0Carry),
    /// `exec::tests` only: also compute the feature gradient, which nobody
    /// reads. A tracked input has no constant prefix, so every epoch runs
    /// the exchange and the whole layer — the reference both the pruning
    /// and the reuse are checked against.
    #[cfg_attr(not(test), allow(dead_code))]
    Tracked,
}

/// Numeric results of one epoch, aggregated over workers.
#[derive(Debug, Clone)]
pub struct EpochMetrics {
    /// Mean training loss (cluster-wide).
    pub loss: f64,
    /// Training accuracy.
    pub train_acc: f64,
    /// Validation accuracy.
    pub val_acc: f64,
    /// Test accuracy.
    pub test_acc: f64,
    /// Wall-clock seconds of the slowest worker.
    pub wall_s: f64,
}

struct WorkerReport {
    loss: f64,
    counts: [(usize, usize); 3], // (correct, total) for train/val/test
    wall_s: f64,
}

/// A worker's typed mid-run failure (internal; the coordinator maps the
/// root cause onto [`RuntimeError`]).
#[derive(Debug, Clone)]
struct WorkerFailure {
    worker: usize,
    epoch: usize,
    cause: FailureCause,
}

type WorkerResult<T> = std::result::Result<T, WorkerFailure>;
type NetResult<T> = std::result::Result<T, NetError>;

/// Builds one send task's per-peer payload buffers through the lock-free
/// parallel enqueuer (§4.3): every peer's rows are gathered from `src`
/// by one chunk-stealing job over the flattened slot space, ready to be
/// drained with `take(j)` in ring order. Returns `None` when there is
/// nothing to send.
fn enqueue_payloads(
    rec: &MetricsRecorder,
    src: &Tensor,
    rows_per_peer: &[Vec<u32>],
) -> Option<ParallelEnqueue> {
    let slots: Vec<usize> = rows_per_peer.iter().map(Vec::len).collect();
    let total: usize = slots.iter().sum();
    if total == 0 {
        return None;
    }
    let views: Vec<&[u32]> = rows_per_peer.iter().map(|r| &r[..]).collect();
    // Staging buffers come from the tensor pool: shape-stationary send
    // schedules mean next epoch's take_scratch is served by the buffers
    // the receivers recycled this epoch.
    let mut enq = ParallelEnqueue::new_with(src.cols(), &slots, ns_tensor::pool::take_scratch);
    enq.fill(src.data(), &views);
    rec.incr("net.enqueue.rows", total as u64);
    Some(enq)
}

/// Drains the worker thread's [`ns_par`] counters into its recorder: how
/// many parallel jobs its kernels issued, how many chunks they split
/// into, and how many of those chunks pool workers stole off the shared
/// cursor (`par.steal_count` — 0 under `--threads 1` or an all-inline
/// epoch).
fn export_par_stats(rec: &MetricsRecorder) {
    let ps = ns_par::take_thread_stats();
    rec.incr("compute.par_jobs", ps.jobs);
    rec.incr("compute.par_chunks", ps.chunks);
    rec.incr("compute.par_inline_jobs", ps.inline_jobs);
    rec.incr("par.steal_count", ps.stolen);
}

/// Receives from `src`, waiting at most `timeout`. Blocked time goes to
/// the `net.recv.wait_ns` histogram on every exit path. The part of the
/// wait the message spent in flight ([`Message::link_wait`]; all of it
/// when nothing arrived) is additionally attributed to the sending peer
/// as a per-peer histogram (`net.recv.wait_ns.peer<k>`) — the signal the
/// measured-cost replanner and the straggler-eviction policy read. A peer
/// that is merely late to send (heavier partition, stalled behind someone
/// else, descheduled) adds nothing to it.
fn recv_budgeted(
    ep: &Endpoint,
    src: usize,
    timeout: Duration,
    rec: &MetricsRecorder,
) -> NetResult<Message> {
    let t0 = Instant::now();
    let res = ep.recv_from_timeout(src, timeout);
    let waited_ns = t0.elapsed().as_nanos() as u64;
    rec.observe("net.recv.wait_ns", waited_ns);
    let link_ns = match &res {
        Ok(msg) => msg.link_wait(t0).as_nanos() as u64,
        // Nothing arrived: the whole wait is the peer's.
        Err(_) => waited_ns,
    };
    rec.observe(&format!("net.recv.wait_ns.peer{src}"), link_ns);
    res
}

/// `dst = src` (`add == false`) or `dst += src` (`add == true`),
/// element-wise — the one difference between the receive side of a
/// forward and a backward exchange, and between the all-gather and
/// reduce-scatter halves of the ring.
fn write_slice(dst: &mut [f32], src: &[f32], add: bool) {
    if add {
        for (d, v) in dst.iter_mut().zip(src) {
            *d += v;
        }
    } else {
        dst.copy_from_slice(src);
    }
}

/// Copies the virtual-flat range `[lo, hi)` of the concatenated gradient
/// tensors into a pooled buffer, without materializing the full flat
/// vector.
fn gather_range(grads: &[Tensor], lo: usize, hi: usize) -> Vec<f32> {
    let mut out = ns_tensor::pool::take_scratch(hi - lo);
    let mut filled = 0;
    let mut base = 0;
    for g in grads {
        let s = lo.max(base);
        let e = hi.min(base + g.len());
        if s < e {
            out[filled..filled + (e - s)].copy_from_slice(&g.data()[s - base..e - base]);
            filled += e - s;
        }
        base += g.len();
    }
    out
}

/// Writes (`add == false`) or accumulates (`add == true`) `data` into
/// the virtual-flat range starting at `lo`.
fn apply_range(grads: &mut [Tensor], lo: usize, data: &[f32], add: bool) {
    let hi = lo + data.len();
    let mut base = 0;
    for g in grads.iter_mut() {
        let glen = g.len();
        let s = lo.max(base);
        let e = hi.min(base + glen);
        if s < e {
            write_slice(&mut g.data_mut()[s - base..e - base], &data[s - lo..e - lo], add);
        }
        base += glen;
    }
}

/// Receives one gradient-sync payload from `src`; any other message kind
/// is a protocol desync.
fn recv_allreduce(
    ep: &Endpoint,
    src: usize,
    timeout: Duration,
    rec: &MetricsRecorder,
) -> NetResult<Vec<f32>> {
    let msg = recv_budgeted(ep, src, timeout, rec)?;
    let got = msg.kind.name();
    let MessageKind::AllReduce { data, .. } = msg.kind else {
        return Err(NetError::UnexpectedKind { peer: src, expected: "AllReduce", got });
    };
    Ok(data)
}

/// Ring all-reduce over the virtual-flat concatenation of the parameter
/// gradients. All workers return identical sums (deterministic chunk-wise
/// accumulation order). Every chunk is gathered from / applied to the
/// gradient tensors in place — no flat staging copy exists. Outgoing
/// chunk copies come from the pool (same lengths every epoch, so after
/// the first epoch every take is served from the free list); the peer
/// that receives one recycles it after applying, closing the loop.
fn ring_allreduce(
    ep: &Endpoint,
    timeout: Duration,
    rec: &MetricsRecorder,
    grads: &mut [Tensor],
) -> NetResult<()> {
    let m = ep.world();
    if m == 1 {
        return Ok(());
    }
    let me = ep.id();
    let right = (me + 1) % m;
    let left = (me + m - 1) % m;
    let n: usize = grads.iter().map(Tensor::len).sum();
    let bounds = |c: usize| (c * n / m, (c + 1) * n / m);
    // One ring step: ship chunk `send_c` to the right, then overwrite or
    // accumulate chunk `recv_c` with what arrives from the left.
    let step = |grads: &mut [Tensor], round: usize, send_c: usize, recv_c: usize, add: bool| {
        let (lo, hi) = bounds(send_c);
        ep.send(
            right,
            MessageKind::AllReduce { round: round as u32, data: gather_range(grads, lo, hi) },
        )?;
        let data = recv_allreduce(ep, left, timeout, rec)?;
        apply_range(grads, bounds(recv_c).0, &data, add);
        ns_tensor::pool::recycle(data);
        Ok(())
    };
    // Reduce-scatter.
    for s in 0..m - 1 {
        step(grads, s, (me + m - s) % m, (me + m - s - 1) % m, true)?;
    }
    // All-gather.
    for s in 0..m - 1 {
        step(grads, m - 1 + s, (me + 1 + m - s) % m, (me + m - s) % m, false)?;
    }
    Ok(())
}

/// Direction of a per-layer dependency exchange (§4.1). The two are one
/// protocol mirrored: the schedule a worker sends by going forward is the
/// one it receives by going backward, and forward receives overwrite rows
/// where backward receives accumulate into them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// `GetFromDepNbr`: masters push rows, mirrors assemble their input.
    Fwd,
    /// `PostToDepNbr`: mirrors push gradients, masters accumulate.
    Bwd,
}

/// What every worker thread of one [`train_epochs_run`] call shares.
#[derive(Clone, Copy)]
struct Job<'a> {
    dataset: &'a Dataset,
    model: &'a GnnModel,
    epochs: usize,
    cfg: &'a ExecConfig,
    run: &'a RunState,
    origin: Instant,
    /// [`Layer0::Tracked`]: `false` in every run.
    feature_grad: bool,
}

/// One worker's execution context: everything an epoch reads or updates.
/// [`Worker::epoch`] is the phase list; each phase method opens the
/// [`Phase`] span of the same name.
struct Worker<'a> {
    plan: &'a WorkerPlan,
    model: &'a GnnModel,
    ep: &'a Endpoint,
    run: &'a RunState,
    rec: &'a MetricsRecorder,
    feature_grad: bool,
    store: ParamStore,
    opt: Adam,
    /// Local feature matrix (owned rows + prefetched cached features —
    /// DepCache's one-time dependency retrieval, Algorithm 2 line 5). Only
    /// layer 0's first epoch reads it: released once `prefix` exists, and
    /// never gathered by a worker that inherits one.
    features: Option<Tensor>,
    /// This worker's [`Layer0Carry`] slot: empty until the first epoch's
    /// backward pass hands layer 0's prefix back, and while an epoch's
    /// tape holds it.
    prefix: &'a mut Option<LayerPrefix>,
    /// Labels, loss weights and train/val/test masks over owned rows.
    owned_labels: Vec<u32>,
    loss_weights: Vec<f32>,
    masks: [Vec<bool>; 3],
    /// Buffer-pool meters: the pool counters are process-wide, so worker 0
    /// exports the per-epoch deltas for the whole process (every worker's
    /// tensors share one pool). `alloc.steady_state` is the final epoch's
    /// fresh-buffer count — ~0 once shapes have stabilized (DESIGN.md §14).
    pool_base: ns_tensor::pool::PoolStats,
    last_fresh_delta: u64,
}

impl<'a> Worker<'a> {
    /// Runs one worker to completion. Returns the trained replica and
    /// exported optimizer state, or the worker's typed failure — and,
    /// either way, the worker's [`MetricsFrame`] (fabric traffic meters are
    /// folded in on every exit path). The endpoint is dropped on exit, so
    /// peers blocked on this worker wake with `PeerDisconnected` instead
    /// of hanging.
    fn run(
        job: Job<'_>,
        plan: &WorkerPlan,
        ep: Endpoint,
        prefix: &mut Option<LayerPrefix>,
        tx: mpsc::Sender<(usize, usize, WorkerReport)>, // (epoch, worker, report)
    ) -> (WorkerResult<(ParamStore, Option<AdamState>)>, MetricsFrame) {
        let rec = MetricsRecorder::new(ep.id(), job.origin);
        let res = {
            let mut w = Worker::new(job, plan, &ep, &rec, prefix);
            w.train(job.epochs, tx).map(|()| (w.store, Some(w.opt.export_state())))
        };
        export_net_stats(&rec, &ep.stats());
        drop(ep);
        (res, rec.finish())
    }

    fn new(
        job: Job<'a>,
        plan: &'a WorkerPlan,
        ep: &'a Endpoint,
        rec: &'a MetricsRecorder,
        prefix: &'a mut Option<LayerPrefix>,
    ) -> Self {
        let Job { dataset, model, cfg, run, feature_grad, .. } = job;
        let features = prefix.is_none().then(|| {
            rec.incr("dep.rows.cached", plan.prefetched_features() as u64);
            dataset.features.gather_rows(&plan.feature_rows)
        });
        // The pool size every parallel kernel on this worker will use.
        rec.incr("compute.threads", ns_par::threads() as u64);
        let train_weight = 1.0 / dataset.num_train().max(1) as f32;
        let owned = |mask: &Vec<bool>| plan.owned.iter().map(|&v| mask[v as usize]).collect();
        let mut opt = Adam::new(cfg.lr);
        if let Some(state) = run.opt_state.clone() {
            opt.import_state(state);
        }
        Worker {
            plan,
            model,
            ep,
            run,
            rec,
            feature_grad,
            store: run.init_params.clone().unwrap_or_else(|| model.fresh_store()),
            opt,
            features,
            prefix,
            owned_labels: plan.owned.iter().map(|&v| dataset.labels[v as usize]).collect(),
            loss_weights: plan
                .owned
                .iter()
                .map(|&v| if dataset.train_mask[v as usize] { train_weight } else { 0.0 })
                .collect(),
            masks: [&dataset.train_mask, &dataset.val_mask, &dataset.test_mask].map(owned),
            pool_base: ns_tensor::pool::stats(),
            last_fresh_delta: 0,
        }
    }

    fn recv_budget(&self) -> Duration {
        Duration::from_millis(self.run.recv_timeout_ms)
    }

    fn fail(&self, cause: FailureCause) -> WorkerFailure {
        WorkerFailure { worker: self.ep.id(), epoch: self.ep.epoch(), cause }
    }

    /// The training loop over all epochs, reporting each to the coordinator.
    fn train(
        &mut self,
        epochs: usize,
        tx: mpsc::Sender<(usize, usize, WorkerReport)>,
    ) -> WorkerResult<()> {
        for epoch in 0..epochs {
            self.begin_epoch(self.run.epoch_offset + epoch)?;
            let report = self.epoch()?;
            // The coordinator holds the receiver for the whole scope; a send
            // can only fail after a coordinator bug, and metric loss is not
            // worth crashing a worker over.
            let _ = tx.send((epoch, self.ep.id(), report));
        }
        if self.ep.id() == 0 && epochs > 0 {
            self.rec.incr("alloc.steady_state", self.last_fresh_delta);
        }
        Ok(())
    }

    /// Stamps the epoch on the endpoint and recorder, then acts out any
    /// fault injected at this worker's epoch boundary.
    fn begin_epoch(&self, abs_epoch: usize) -> WorkerResult<()> {
        let me = self.ep.id();
        self.ep.set_epoch(abs_epoch);
        self.rec.set_epoch(abs_epoch as u32);
        if self.run.fault.kill_epoch(me) == Some(abs_epoch) {
            // Injected crash: return without sending anything this epoch.
            // Dropping the endpoint disconnects every peer channel.
            return Err(self.fail(FailureCause::Killed));
        }
        if self.run.fault.hang_epoch(me) == Some(abs_epoch) {
            // Injected hang: go silent with the endpoint still open, so no
            // peer sees a disconnect. The epoch's all-reduce waits on every
            // worker, so some peer exhausts its receive budget on this one
            // and drops its endpoint; the disconnects cascade through the
            // mesh, and the drain below ends once every peer is gone. A peer
            // hung at the same epoch never drops its endpoint, so it is not
            // waited on.
            let hung = |p: usize| self.run.fault.hang_epoch(p) == Some(abs_epoch);
            for peer in (0..self.ep.world()).filter(|&p| !hung(p)) {
                while self.ep.recv_from(peer).is_ok() {}
            }
            return Err(self.fail(FailureCause::Hung));
        }
        Ok(())
    }

    /// One training epoch as its phase list: per layer
    /// `fwd_comm → fwd_compute`, then `head`, per layer (descending)
    /// `bwd_compute → bwd_comm`, then `sync_wait` and `opt_step`. The
    /// ledger's `exec.*_s` metrics, the trace spans and the simulator's
    /// task DAG (`taskgraph.rs`) follow the same list (DESIGN.md §3.5).
    /// Layer `l + 1`'s transform (`P = H·W`) ends layer `l`'s
    /// `fwd_compute`, and its adjoints open layer `l`'s `bwd_compute`,
    /// after `bwd_comm(l + 1)` has summed `dP` at the owner.
    fn epoch(&mut self) -> WorkerResult<WorkerReport> {
        let t0 = Instant::now();
        let num_layers = self.model.num_layers();
        let mut runs: Vec<LayerRun> = Vec::with_capacity(num_layers);
        for l in 0..num_layers {
            let input = match runs.last() {
                Some(below) => LayerInput::Exchanged(self.fwd_comm(l, below.output())?),
                None => self.layer0_input()?,
            };
            runs.push(self.fwd_compute(l, input));
        }
        let logits = runs.last().expect("a model has at least one layer").output();
        let (head, counts) = self.head(logits);
        let mut grads = self.store.zero_grads();
        let mut g = head.logit_grad;
        for l in (0..num_layers).rev() {
            let run_seg = runs.pop().expect("one run per layer");
            let input_grad = self.bwd_compute(l, run_seg, g, &mut grads);
            if l == 0 {
                // Feature gradients are not propagated anywhere.
                break;
            }
            g = self.bwd_comm(l, &input_grad.expect("layers above 0 track their input"))?;
        }
        self.sync_wait(&mut grads)?;
        // Divergence guard: a non-finite loss or gradient must never reach
        // the optimizer step, where it would poison the parameters of every
        // replica. The all-reduce already spread any NaN to all workers, so
        // every replica trips the guard in the same epoch and the run fails
        // as one fault (rolled back by the recovering trainer).
        if !head.loss.is_finite()
            || grads.iter().any(|g| g.data().iter().any(|v| !v.is_finite()))
        {
            self.rec.incr("guard.nan_events", 1);
            return Err(self.fail(FailureCause::Diverged));
        }
        self.opt_step(&grads);
        self.export_epoch_meters();
        Ok(WorkerReport { loss: head.loss, counts, wall_s: t0.elapsed().as_secs_f64() })
    }

    /// Layer 0's input. Features never change, so what the layer computes
    /// from them before its first parameter depends on the plan alone: the
    /// first epoch runs [`Worker::fwd_comm`] over the features, which are
    /// then released, and every later epoch (and every later chunk under
    /// the same plans) starts from the prefix that epoch's backward pass
    /// handed back. Only a [`Layer0::Tracked`] run keeps the features and
    /// repeats the exchange.
    fn layer0_input(&mut self) -> WorkerResult<LayerInput> {
        if let Some(saved) = self.prefix.take() {
            self.rec.incr("dep.rows.reused", self.plan.layers[0].input_ids.len() as u64);
            return Ok(LayerInput::Prefix(saved));
        }
        let features = self.features.take().expect("features are held until layer 0's prefix is");
        let input = self.fwd_comm(0, &features)?;
        Ok(if self.feature_grad {
            self.features = Some(features);
            LayerInput::Tracked(input)
        } else {
            LayerInput::Constant(input)
        })
    }

    /// Forward dependency exchange and input assembly for layer `l`
    /// (synchronize-compute). The local-row copies are memcpy noise next
    /// to the fabric traffic they interleave with, so they share the span.
    fn fwd_comm(&self, l: usize, act: &Tensor) -> WorkerResult<Tensor> {
        let lp = &self.plan.layers[l];
        self.rec.incr("dep.rows.local", lp.local_src.len() as u64);
        self.rec.incr("dep.rows.fetched", lp.recv_row_count() as u64);
        let _span = span!(self.rec, Phase::FwdComm, l);
        let net = |e| self.fail(FailureCause::Net(e));
        self.push(Dir::Fwd, l, act).map_err(net)?;
        // Scratch, not zeros: `plan::validate_plans` proves every input row
        // is written exactly once, by the local copy below or by `pull`.
        let mut input = Tensor::scratch(lp.input_ids.len(), act.cols());
        for &(pr, ir) in &lp.local_src {
            input.row_mut(ir as usize).copy_from_slice(act.row(pr as usize));
        }
        self.pull(Dir::Fwd, l, &mut input).map_err(net)?;
        Ok(input)
    }

    /// Layer `l`'s tape forward pass over the assembled input, or from
    /// layer 0's saved prefix on, then layer `l + 1`'s transform, if any,
    /// over the rows this worker computed.
    fn fwd_compute(&self, l: usize, input: LayerInput) -> LayerRun {
        let _span = span!(self.rec, Phase::FwdCompute, l);
        let mut run = self.model.layer(l).forward(&self.store, &self.plan.layers[l].topo, input);
        if l + 1 < self.model.num_layers() {
            run.transform_for(self.model.layer(l + 1), &self.store);
        }
        run
    }

    /// Prediction head: loss over owned rows plus train/val/test accuracy.
    fn head(&self, logits: &Tensor) -> (LossResult, [(usize, usize); 3]) {
        let _span = span!(self.rec, Phase::Head);
        let head = softmax_cross_entropy(logits, &self.owned_labels, &self.loss_weights);
        let labels = &self.owned_labels;
        let counts = [0, 1, 2].map(|k| count_correct(&head.pred, labels, &self.masks[k]));
        (head, counts)
    }

    /// Layer `l`'s tape backward pass, transform included: accumulates
    /// parameter gradients into `grads` and returns the gradient of the
    /// exchanged input rows, if the forward pass tracked them (every layer
    /// but 0). Layer 0 instead hands its constant prefix back for the next
    /// epoch.
    fn bwd_compute(
        &mut self,
        l: usize,
        run: LayerRun,
        g: Tensor,
        grads: &mut [Tensor],
    ) -> Option<Tensor> {
        let (fwd_graph_ns, fwd_nn_ns) = (run.fwd_graph_ns(), run.fwd_nn_ns());
        let back = {
            let _span = span!(self.rec, Phase::BwdCompute, l);
            run.backward_split(g, grads)
        };
        let (bwd_graph_ns, bwd_nn_ns) = (back.graph_ns, back.nn_ns);
        let split = LayerSplit { fwd_graph_ns, fwd_nn_ns, bwd_graph_ns, bwd_nn_ns };
        self.rec.add_layer_split(l, split);
        self.rec.incr("compute.bwd_pruned", back.pruned);
        self.rec.incr("compute.bwd_zero_rows", back.zero_rows);
        if l == 0 {
            *self.prefix = back.prefix;
        }
        back.input_grad
    }

    /// Backward dependency exchange for layer `l` (compute-synchronize):
    /// mirror gradients return to their masters and the locally-routed
    /// rows join them in the gradient of the rows layer `l - 1`'s run
    /// output, at the exchange's width.
    fn bwd_comm(&self, l: usize, input_grad: &Tensor) -> WorkerResult<Tensor> {
        let _span = span!(self.rec, Phase::BwdComm, l);
        let net = |e| self.fail(FailureCause::Net(e));
        self.push(Dir::Bwd, l, input_grad).map_err(net)?;
        let prev_rows = self.plan.layers[l - 1].compute.len();
        // Zeros, unlike `fwd_comm`: gradient rows accumulate into it.
        let mut g_prev = Tensor::zeros(prev_rows, input_grad.cols());
        for &(pr, ir) in &self.plan.layers[l].local_src {
            write_slice(g_prev.row_mut(pr as usize), input_grad.row(ir as usize), true);
        }
        self.pull(Dir::Bwd, l, &mut g_prev).map_err(net)?;
        Ok(g_prev)
    }

    /// Combines parameter gradients across workers.
    fn sync_wait(&self, grads: &mut [Tensor]) -> WorkerResult<()> {
        let _span = span!(self.rec, Phase::SyncWait);
        ring_allreduce(self.ep, self.recv_budget(), self.rec, grads)
            .map_err(|e| self.fail(FailureCause::Net(e)))
    }

    /// The identical optimizer step every replica applies.
    fn opt_step(&mut self, grads: &[Tensor]) {
        let _span = span!(self.rec, Phase::OptStep);
        self.opt.step(&mut self.store, grads);
    }

    /// Send half of a dependency exchange: ships `src`'s scheduled rows of
    /// layer `l` to every peer that depends on them. Every peer's buffer
    /// fills in one chunk-stealing parallel job before the flush; sends go
    /// out in ring order (`i+1, i+2, …`), staggering arrivals.
    fn push(&self, dir: Dir, l: usize, src: &Tensor) -> NetResult<()> {
        let lp = &self.plan.layers[l];
        let (rows, ids) = match dir {
            Dir::Fwd => (&lp.send_rows, &lp.send_ids),
            Dir::Bwd => (&lp.recv_rows, &lp.recv_ids),
        };
        let (layer, cols) = (l as u32, src.cols() as u32);
        let Some(mut enq) = enqueue_payloads(self.rec, src, rows) else {
            return Ok(());
        };
        let (me, m) = (self.ep.id(), self.ep.world());
        for j in (1..m).map(|k| (me + k) % m) {
            if ids[j].is_empty() {
                continue;
            }
            let (ids, data) = (ids[j].clone(), enq.take(j));
            let kind = match dir {
                Dir::Fwd => MessageKind::Rows { layer, ids, cols, data },
                Dir::Bwd => MessageKind::Grads { layer, ids, cols, data },
            };
            self.ep.send(j, kind)?;
        }
        Ok(())
    }

    /// Receive half of a dependency exchange: each payload is checked
    /// against the plan's schedule, written (forward) or accumulated
    /// (backward) into `dst`, then recycled — the buffer was pooled by the
    /// sender's enqueue path and serves next epoch's sends.
    ///
    /// Accumulation-order invariant: the caller routes local rows first,
    /// then peers fold in here in ascending id order, whatever order the
    /// sends went out in — so float sums are identical across runs and
    /// engines.
    fn pull(&self, dir: Dir, l: usize, dst: &mut Tensor) -> NetResult<()> {
        let lp = &self.plan.layers[l];
        let (rows, ids, expected) = match dir {
            Dir::Fwd => (&lp.recv_rows, &lp.recv_ids, "Rows"),
            Dir::Bwd => (&lp.send_rows, &lp.send_ids, "Grads"),
        };
        let d = dst.cols();
        for j in 0..self.ep.world() {
            if ids[j].is_empty() {
                continue;
            }
            let msg = recv_budgeted(self.ep, j, self.recv_budget(), self.rec)?;
            let got = msg.kind.name();
            let (layer, got_ids, cols, data) = match (dir, msg.kind) {
                (Dir::Fwd, MessageKind::Rows { layer, ids, cols, data })
                | (Dir::Bwd, MessageKind::Grads { layer, ids, cols, data }) => {
                    (layer, ids, cols, data)
                }
                _ => return Err(NetError::UnexpectedKind { peer: j, expected, got }),
            };
            assert_eq!(layer as usize, l, "layer mismatch");
            assert_eq!(cols as usize, d, "width mismatch");
            assert_eq!(got_ids, ids[j], "id schedule mismatch");
            for (k, &r) in rows[j].iter().enumerate() {
                write_slice(dst.row_mut(r as usize), &data[k * d..(k + 1) * d], dir == Dir::Bwd);
            }
            ns_tensor::pool::recycle(data);
        }
        Ok(())
    }

    /// End-of-epoch meters: this worker's intra-worker parallelism, and
    /// (worker 0 only) the process-wide buffer-pool deltas.
    fn export_epoch_meters(&mut self) {
        export_par_stats(self.rec);
        if self.ep.id() == 0 {
            let (now, base) = (ns_tensor::pool::stats(), self.pool_base);
            self.last_fresh_delta = now.fresh - base.fresh;
            self.rec.incr("alloc.fresh", now.fresh - base.fresh);
            self.rec.incr("alloc.fresh_bytes", now.fresh_bytes - base.fresh_bytes);
            self.rec.incr("alloc.reused", now.reused - base.reused);
            self.rec.incr("alloc.recycled", now.recycled - base.recycled);
            self.rec.incr("alloc.shed", now.shed - base.shed);
            self.rec.incr("alloc.shed_bytes", now.shed_bytes - base.shed_bytes);
            self.pool_base = now;
        }
    }
}

/// Picks the root-cause failure: earliest epoch first, injected kills and
/// hangs before the cascade errors they caused, lowest worker id as the final
/// tie-break.
fn root_failure(failures: &[WorkerFailure]) -> Option<&WorkerFailure> {
    failures.iter().min_by_key(|f| {
        (f.epoch, matches!(f.cause, FailureCause::Net(_)) as u8, f.worker)
    })
}

/// Trains `epochs` epochs of `model` on `dataset` under `plans`,
/// returning per-epoch aggregated metrics and the trained parameters
/// (worker 0's replica; all replicas are identical after the final
/// synchronized step).
pub fn train_epochs(
    dataset: &Dataset,
    model: &GnnModel,
    plans: &[WorkerPlan],
    epochs: usize,
    cfg: &ExecConfig,
) -> Result<(Vec<EpochMetrics>, ParamStore)> {
    let (metrics, store, _, _) =
        train_epochs_run(dataset, model, plans, epochs, cfg, &RunState::default())?;
    Ok((metrics, store))
}

/// [`train_epochs`] with explicit cross-chunk [`RunState`]: resume
/// parameters / optimizer state, an epoch offset, injected faults, and
/// the receive policy. Also returns the exported optimizer state so the
/// recovery loop can checkpoint it, plus the run's [`RunMetrics`] (one
/// merged frame per worker: phase spans, layer graph/NN splits, and
/// fabric traffic meters).
///
/// On failure, every worker thread has been joined before the error is
/// returned; partially-completed epoch metrics and the chunk's recorder
/// frames are discarded (the caller rolls back to its last checkpoint).
pub fn train_epochs_run(
    dataset: &Dataset,
    model: &GnnModel,
    plans: &[WorkerPlan],
    epochs: usize,
    cfg: &ExecConfig,
    run: &RunState,
) -> Result<(Vec<EpochMetrics>, ParamStore, Option<AdamState>, RunMetrics)> {
    let layer0 = Layer0::Constant(&mut Layer0Carry::default());
    run_workers(dataset, model, plans, epochs, cfg, run, layer0)
}

/// [`train_epochs_run`], with what layer 0 keeps between calls (or the
/// [`Layer0::Tracked`] test hook) exposed. `layer0`'s carry must have been
/// filled under these `plans` or be empty; it is left filled by a run that
/// finished an epoch, and by a failed one only if no worker failed while
/// its tape held the prefix.
pub(crate) fn run_workers(
    dataset: &Dataset,
    model: &GnnModel,
    plans: &[WorkerPlan],
    epochs: usize,
    cfg: &ExecConfig,
    run: &RunState,
    layer0: Layer0<'_>,
) -> Result<(Vec<EpochMetrics>, ParamStore, Option<AdamState>, RunMetrics)> {
    let m = plans.len();
    if m == 0 {
        return Err(RuntimeError::InvalidConfig("no worker plans".into()));
    }
    if model.dims()[0] != dataset.feature_dim() {
        return Err(RuntimeError::InvalidConfig(format!(
            "model input dim {} != dataset feature dim {}",
            model.dims()[0],
            dataset.feature_dim()
        )));
    }
    let endpoints = Fabric::with_faults(m, run.fault.clone()).into_endpoints();
    let (tx, rx) = mpsc::channel();
    let origin = run.origin.unwrap_or_else(Instant::now);
    let t_run = Instant::now();
    let mut untracked = Layer0Carry::default();
    let (carry, feature_grad) = match layer0 {
        Layer0::Constant(carry) => (carry, false),
        Layer0::Tracked => (&mut untracked, true),
    };
    let slots = carry.slots_for(m);

    std::thread::scope(|s| {
        let job = Job { dataset, model, epochs, cfg, run, origin, feature_grad };
        let mut handles = Vec::new();
        for ((plan, ep), slot) in plans.iter().zip(endpoints).zip(slots) {
            let tx = tx.clone();
            handles.push(s.spawn(move || Worker::run(job, plan, ep, slot, tx)));
        }
        drop(tx);
        // Aggregate metrics on the coordinating thread. The loop ends when
        // every worker has exited (each drops its sender on return, clean
        // or failed), so this cannot hang on a dead worker.
        let mut per_epoch: Vec<Vec<WorkerReport>> = (0..epochs).map(|_| Vec::new()).collect();
        while let Ok((epoch, _worker, report)) = rx.recv() {
            per_epoch[epoch].push(report);
        }
        // Join everyone and split results from failures.
        let mut results = Vec::new();
        let mut failures: Vec<WorkerFailure> = Vec::new();
        let mut run_metrics = RunMetrics::new();
        for h in handles {
            let (res, frame) = h.join().expect("worker thread panicked");
            run_metrics.absorb(frame);
            match res {
                Ok(out) => results.push(out),
                Err(f) => failures.push(f),
            }
        }
        if let Some(root) = root_failure(&failures) {
            return Err(match &root.cause {
                FailureCause::Diverged => {
                    RuntimeError::Diverged { worker: root.worker, epoch: root.epoch }
                }
                cause => RuntimeError::WorkerFailed {
                    worker: root.worker,
                    epoch: root.epoch,
                    cause: cause.clone(),
                },
            });
        }
        let metrics = per_epoch
            .into_iter()
            .map(|reports| {
                assert_eq!(reports.len(), m, "missing worker reports");
                let loss = reports.iter().map(|r| r.loss).sum();
                let acc = |k: usize| {
                    let c: usize = reports.iter().map(|r| r.counts[k].0).sum();
                    let t: usize = reports.iter().map(|r| r.counts[k].1).sum();
                    if t == 0 {
                        0.0
                    } else {
                        c as f64 / t as f64
                    }
                };
                EpochMetrics {
                    loss,
                    train_acc: acc(0),
                    val_acc: acc(1),
                    test_acc: acc(2),
                    wall_s: reports.iter().map(|r| r.wall_s).fold(0.0, f64::max),
                }
            })
            .collect();
        let (store, opt_state) = results.into_iter().next().expect("at least one worker");
        run_metrics.wall_s = t_run.elapsed().as_secs_f64();
        Ok((metrics, store, opt_state, run_metrics))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{build_plans, DepDecision};
    use ns_gnn::{GnnModel, ModelKind};
    use ns_graph::datasets::by_name;
    use ns_graph::Partitioner;
    use ns_net::fault::{Fault, MsgSel};

    fn small_dataset() -> Dataset {
        by_name("cora").unwrap().materialize(0.2, 7)
    }

    fn train_with(
        dataset: &Dataset,
        decision: &DepDecision,
        parts: usize,
        kind: ModelKind,
        epochs: usize,
    ) -> Vec<EpochMetrics> {
        let part = Partitioner::Chunk.partition(&dataset.graph, parts);
        let plans = build_plans(&dataset.graph, &part, 2, decision).unwrap();
        let model = GnnModel::two_layer(kind, dataset.feature_dim(), 16, dataset.num_classes, 3);
        train_epochs(dataset, &model, &plans, epochs, &ExecConfig::default()).unwrap().0
    }

    #[test]
    fn single_worker_training_reduces_loss() {
        let ds = small_dataset();
        let metrics = train_with(&ds, &DepDecision::CommAll, 1, ModelKind::Gcn, 12);
        assert!(metrics.last().unwrap().loss < metrics[0].loss * 0.8);
    }

    #[test]
    fn distributed_depcomm_matches_single_worker() {
        let ds = small_dataset();
        let single = train_with(&ds, &DepDecision::CommAll, 1, ModelKind::Gcn, 4);
        let multi = train_with(&ds, &DepDecision::CommAll, 3, ModelKind::Gcn, 4);
        for (a, b) in single.iter().zip(multi.iter()) {
            assert!(
                (a.loss - b.loss).abs() < 1e-3 * a.loss.abs().max(1.0),
                "loss diverged: {} vs {}",
                a.loss,
                b.loss
            );
        }
    }

    #[test]
    fn depcache_matches_depcomm_numerically() {
        let ds = small_dataset();
        let comm = train_with(&ds, &DepDecision::CommAll, 3, ModelKind::Gcn, 4);
        let cache = train_with(&ds, &DepDecision::CacheAll, 3, ModelKind::Gcn, 4);
        for (a, b) in comm.iter().zip(cache.iter()) {
            assert!(
                (a.loss - b.loss).abs() < 2e-3 * a.loss.abs().max(1.0),
                "loss diverged: {} vs {}",
                a.loss,
                b.loss
            );
        }
    }

    #[test]
    fn gcn_learns_sbm_communities() {
        let ds = small_dataset();
        let metrics = train_with(&ds, &DepDecision::CommAll, 2, ModelKind::Gcn, 40);
        let final_acc = metrics.last().unwrap().test_acc;
        assert!(final_acc > 0.6, "test acc {final_acc}");
    }

    #[test]
    fn all_models_train_distributed() {
        let ds = small_dataset();
        for kind in [ModelKind::Gcn, ModelKind::Gin, ModelKind::Gat] {
            let metrics = train_with(&ds, &DepDecision::CommAll, 2, kind, 6);
            assert!(
                metrics.last().unwrap().loss < metrics[0].loss,
                "{} did not learn",
                kind.name()
            );
        }
    }

    #[test]
    fn mismatched_feature_dim_rejected() {
        let ds = small_dataset();
        let part = Partitioner::Chunk.partition(&ds.graph, 2);
        let plans = build_plans(&ds.graph, &part, 2, &DepDecision::CommAll).unwrap();
        let model = GnnModel::two_layer(ModelKind::Gcn, 99, 16, ds.num_classes, 3);
        let err = train_epochs(&ds, &model, &plans, 1, &ExecConfig::default());
        assert!(matches!(err, Err(RuntimeError::InvalidConfig(_))));
    }

    fn plans_for(ds: &Dataset, parts: usize) -> Vec<WorkerPlan> {
        let part = Partitioner::Chunk.partition(&ds.graph, parts);
        build_plans(&ds.graph, &part, 2, &DepDecision::CommAll).unwrap()
    }

    #[test]
    fn injected_kill_fails_fast_with_all_threads_joined() {
        let ds = small_dataset();
        let plans = plans_for(&ds, 3);
        let model =
            GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, 3);
        let run = RunState { fault: FaultPlan::kill(1, 1), ..Default::default() };
        let t0 = Instant::now();
        let err = train_epochs_run(&ds, &model, &plans, 4, &ExecConfig::default(), &run)
            .unwrap_err();
        // train_epochs_run returning at all proves every thread joined
        // (the thread scope cannot exit otherwise).
        assert!(
            matches!(
                err,
                RuntimeError::WorkerFailed { worker: 1, epoch: 1, cause: FailureCause::Killed }
            ),
            "unexpected error: {err:?}"
        );
        assert!(t0.elapsed() < Duration::from_secs(30), "kill must not hang");
    }

    #[test]
    fn transient_drops_do_not_change_numerics() {
        let ds = small_dataset();
        let plans = plans_for(&ds, 3);
        let model =
            GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, 3);
        let clean =
            train_epochs(&ds, &model, &plans, 2, &ExecConfig::default()).unwrap().0;
        let faulty_plan = FaultPlan::default()
            .with_seed(11)
            .with_fault(Fault::Drop { sel: MsgSel::any(), p: 0.15 });
        let run = RunState { fault: faulty_plan, ..Default::default() };
        let (faulty, _, _, _) =
            train_epochs_run(&ds, &model, &plans, 2, &ExecConfig::default(), &run).unwrap();
        for (a, b) in clean.iter().zip(faulty.iter()) {
            // Drops only delay delivery; content and order are untouched,
            // so the trajectory is identical.
            assert!((a.loss - b.loss).abs() < 1e-12, "{} vs {}", a.loss, b.loss);
        }
    }

    #[test]
    fn corrupt_frames_do_not_change_numerics() {
        let ds = small_dataset();
        let plans = plans_for(&ds, 3);
        let model =
            GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, 3);
        let clean =
            train_epochs(&ds, &model, &plans, 2, &ExecConfig::default()).unwrap().0;
        let run = RunState {
            fault: FaultPlan::default()
                .with_seed(13)
                .with_fault(Fault::Corrupt { sel: MsgSel::any(), p: 0.25 }),
            ..Default::default()
        };
        let (faulty, _, _, rm) =
            train_epochs_run(&ds, &model, &plans, 2, &ExecConfig::default(), &run).unwrap();
        for (a, b) in clean.iter().zip(faulty.iter()) {
            // Every corrupt frame is caught by its CRC and replaced by the
            // clean retransmission, so the trajectory is identical.
            assert!((a.loss - b.loss).abs() < 1e-12, "{} vs {}", a.loss, b.loss);
        }
        let injected: u64 =
            rm.frames.values().map(|f| f.counter("net.fault.corrupts")).sum();
        let caught: u64 =
            rm.frames.values().map(|f| f.counter("integrity.crc_fail")).sum();
        let reread: u64 =
            rm.frames.values().map(|f| f.counter("integrity.reread")).sum();
        assert!(injected > 0, "seed 13 at p=0.25 must corrupt something");
        assert_eq!(caught, injected, "every injected flip must be detected");
        assert_eq!(reread, injected, "every detection must be followed by a reread");
    }

    #[test]
    fn non_finite_loss_surfaces_as_diverged() {
        let ds = small_dataset();
        let plans = plans_for(&ds, 2);
        let model =
            GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, 3);
        let mut poisoned = model.fresh_store();
        // Poison the output layer's bias: earlier layers pass through a
        // ReLU, whose `max(0.0)` would silently squash a NaN.
        let id = poisoned.iter().last().map(|(id, _, _)| id).unwrap();
        poisoned.value_mut(id).data_mut()[0] = f32::NAN;
        let run = RunState { init_params: Some(poisoned), ..Default::default() };
        let err = train_epochs_run(&ds, &model, &plans, 2, &ExecConfig::default(), &run)
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::Diverged { epoch: 0, .. }),
            "unexpected error: {err:?}"
        );
    }

    #[test]
    fn duplicates_are_suppressed_transparently() {
        let ds = small_dataset();
        let plans = plans_for(&ds, 2);
        let model =
            GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, 3);
        let clean =
            train_epochs(&ds, &model, &plans, 2, &ExecConfig::default()).unwrap().0;
        let run = RunState {
            fault: FaultPlan::default()
                .with_fault(Fault::Duplicate { sel: MsgSel::any(), p: 1.0 }),
            ..Default::default()
        };
        let (faulty, _, _, _) =
            train_epochs_run(&ds, &model, &plans, 2, &ExecConfig::default(), &run).unwrap();
        for (a, b) in clean.iter().zip(faulty.iter()) {
            assert!((a.loss - b.loss).abs() < 1e-12, "{} vs {}", a.loss, b.loss);
        }
    }

    #[test]
    fn run_metrics_cover_all_workers_and_meter_traffic() {
        let ds = small_dataset();
        let plans = plans_for(&ds, 2);
        let model =
            GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, 3);
        let (_, _, _, rm) =
            train_epochs_run(&ds, &model, &plans, 2, &ExecConfig::default(), &RunState::default())
                .unwrap();
        assert_eq!(rm.worker_ids(), vec![0, 1]);
        assert!(rm.wall_s > 0.0);
        for frame in rm.frames.values() {
            // Every phase the executor touches must have accumulated time.
            for phase in [
                Phase::FwdComm,
                Phase::FwdCompute,
                Phase::Head,
                Phase::BwdCompute,
                Phase::BwdComm,
                Phase::SyncWait,
                Phase::OptStep,
            ] {
                assert!(frame.phase_total_ns(phase) > 0, "{} empty", phase.name());
            }
            // Per-kind traffic meters must add up to the totals.
            let by_kind: u64 = ["rows", "grads", "allreduce", "control"]
                .iter()
                .map(|k| frame.counter(&format!("net.sent.bytes.{k}")))
                .sum();
            assert!(frame.counter("net.sent.bytes") > 0);
            assert_eq!(frame.counter("net.sent.bytes"), by_kind);
            // Two layers of a 2-layer model record a split each.
            assert_eq!(frame.layer_split.len(), 2);
            assert!(frame.layer_split.iter().any(|s| s.fwd_nn_ns > 0));
            assert!(!frame.spans.is_empty());
        }
    }

    #[test]
    fn resumed_run_state_matches_uninterrupted_run() {
        let ds = small_dataset();
        let plans = plans_for(&ds, 2);
        let model =
            GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, 3);
        let cfg = ExecConfig::default(); // Adam: state must carry over.
        let (full, full_store, _, _) =
            train_epochs_run(&ds, &model, &plans, 4, &cfg, &RunState::default()).unwrap();
        let (head, mid_store, mid_opt, _) =
            train_epochs_run(&ds, &model, &plans, 2, &cfg, &RunState::default()).unwrap();
        let resume = RunState {
            epoch_offset: 2,
            init_params: Some(mid_store),
            opt_state: mid_opt,
            ..Default::default()
        };
        let (tail, tail_store, _, _) =
            train_epochs_run(&ds, &model, &plans, 2, &cfg, &resume).unwrap();
        let joined: Vec<&EpochMetrics> = head.iter().chain(tail.iter()).collect();
        assert_eq!(joined.len(), full.len());
        for (a, b) in full.iter().zip(joined) {
            assert!((a.loss - b.loss).abs() < 1e-12, "{} vs {}", a.loss, b.loss);
        }
        for ((_, _, a), (_, _, b)) in full_store.iter().zip(tail_store.iter()) {
            assert_eq!(a.max_abs_diff(b), 0.0, "chunked run must be bit-identical");
        }
    }

    #[test]
    fn a_hang_is_found_by_its_peers_receive_budgets() {
        let ds = small_dataset();
        let plans = plans_for(&ds, 3);
        let model =
            GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, 3);
        let budget = Duration::from_millis(1_050);
        // One worker hung, and two workers hung at once (the lower id is
        // the root cause).
        let cases: [&[usize]; 2] = [&[1], &[1, 2]];
        for hung_workers in cases {
            let hung = hung_workers[0];
            let mut fault = FaultPlan::default();
            for &worker in hung_workers {
                fault = fault.with_fault(Fault::Hang { worker, epoch: 1 });
            }
            let run = RunState {
                fault,
                recv_timeout_ms: budget.as_millis() as u64,
                ..Default::default()
            };
            let t0 = Instant::now();
            let err = train_epochs_run(&ds, &model, &plans, 3, &ExecConfig::default(), &run)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    RuntimeError::WorkerFailed { worker, epoch: 1, cause: FailureCause::Hung }
                        if worker == hung
                ),
                "{hung_workers:?} hung: unexpected error {err:?}"
            );
            // Every thread has been joined: the peers gave up after their
            // whole budget, not before it, and the hung worker right after
            // them.
            let took = t0.elapsed();
            assert!(took >= budget, "{hung_workers:?} hung: {took:?}");
            assert!(took < Duration::from_secs(5), "{hung_workers:?} hung: {took:?}");
        }
    }

    /// Hybrid decision over two workers and two layers: cache the
    /// dependencies whose id has this `parity`, communicate the others.
    fn parity_sets(ds: &Dataset, parity: u32) -> DepDecision {
        let cached: ns_graph::fx::FxHashSet<u32> =
            (0..ds.graph.num_vertices() as u32).filter(|v| v % 2 == parity).collect();
        DepDecision::Sets(vec![vec![cached; 2]; 2])
    }

    /// Wire bytes and messages of one forward exchange of `plan`'s layer
    /// `l`, `cols` wide: one `Rows` message per peer that depends on it.
    fn rows_traffic(plan: &WorkerPlan, l: usize, cols: usize) -> (u64, u64) {
        let sends = plan.layers[l].send_ids.iter().filter(|ids| !ids.is_empty());
        let bytes = |ids: &Vec<u32>| {
            ns_net::fabric::ROWS_HEADER_BYTES + (ids.len() * (1 + cols) * 4) as u64
        };
        (sends.clone().map(bytes).sum(), sends.count() as u64)
    }

    #[test]
    fn pruning_the_feature_gradient_changes_no_live_value() {
        let ds = small_dataset();
        let part = Partitioner::Chunk.partition(&ds.graph, 2);
        const EPOCHS: usize = 2;
        for decision in [DepDecision::CacheAll, DepDecision::CommAll, parity_sets(&ds, 0)] {
            let plans = build_plans(&ds.graph, &part, 2, &decision).unwrap();
            for kind in [ModelKind::Gcn, ModelKind::Gat] {
                let what = format!("{} {}", decision.label(), kind.name());
                let model = GnnModel::two_layer(kind, ds.feature_dim(), 16, ds.num_classes, 3);
                let train = |layer0: Layer0<'_>| {
                    let (cfg, run) = (ExecConfig::default(), RunState::default());
                    run_workers(&ds, &model, &plans, EPOCHS, &cfg, &run, layer0).unwrap()
                };
                let (pruned, pruned_store, _, pruned_rm) =
                    train(Layer0::Constant(&mut Layer0Carry::default()));
                // The all-gradients run: layer 0 computes the feature
                // gradient and the executor drops it.
                let (full, full_store, _, full_rm) = train(Layer0::Tracked);
                for (a, b) in pruned.iter().zip(full.iter()) {
                    assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "{what}");
                }
                for ((_, name, a), (_, _, b)) in pruned_store.iter().zip(full_store.iter()) {
                    assert_eq!(a.data(), b.data(), "{what}: {name}");
                }
                for (w, frame) in &pruned_rm.frames {
                    let full_frame = &full_rm.frames[w];
                    // A tracked layer-0 input also has no constant prefix:
                    // that run ships its layer-0 rows in every epoch, the
                    // pruned one in the first only.
                    let (l0_bytes, _) = rows_traffic(&plans[*w], 0, ds.feature_dim());
                    assert_eq!(l0_bytes == 0, decision.label() == "DepCache", "{what}");
                    let bytes = frame.counter("net.sent.bytes");
                    assert!(bytes > 0);
                    assert_eq!(
                        full_frame.counter("net.sent.bytes") - bytes,
                        (EPOCHS as u64 - 1) * l0_bytes,
                        "{what}: worker {w}"
                    );
                    let skipped = frame.counter("compute.bwd_pruned");
                    assert!(skipped > 0, "{what}: layer 0 must prune");
                    assert_eq!(skipped % EPOCHS as u64, 0, "{what}: same count every epoch");
                    if kind == ModelKind::Gcn {
                        // Exactly the `g·Wᵀ` of layer 0's matmul; the
                        // aggregation adjoint behind it never gets a gradient.
                        assert_eq!(skipped, EPOCHS as u64, "{what}");
                    }
                    assert_eq!(full_frame.counter("compute.bwd_pruned"), 0, "{what}");
                }
            }
        }
    }

    /// Two-layer stacks of every layer kind, including the two
    /// [`GnnModel::new`] cannot spell.
    fn every_model_kind(ds: &Dataset) -> Vec<(&'static str, GnnModel)> {
        use ns_gnn::{Aggregator, GatLayer, GnnLayer, SageLayer};
        use ns_rand::StdRng;
        let (d, classes) = (ds.feature_dim(), ds.num_classes);
        let stock = |kind| GnnModel::two_layer(kind, d, 16, classes, 3);
        let gat3 = {
            let (mut s, mut r) = (ParamStore::new(), StdRng::seed_from_u64(3));
            let layers: Vec<Box<dyn GnnLayer>> = vec![
                Box::new(GatLayer::multi_head(&mut s, "layer0", d, 4, 3, true, &mut r)),
                Box::new(GatLayer::new(&mut s, "layer1", 12, classes, false, &mut r)),
            ];
            GnnModel::from_layers(ModelKind::Gat, layers, s)
        };
        let sage_max = {
            let (mut s, mut r) = (ParamStore::new(), StdRng::seed_from_u64(3));
            let max = Aggregator::Max;
            let layers: Vec<Box<dyn GnnLayer>> = vec![
                Box::new(SageLayer::new(&mut s, "layer0", d, 16, max, true, &mut r)),
                Box::new(SageLayer::new(&mut s, "layer1", 16, classes, max, false, &mut r)),
            ];
            GnnModel::from_layers(ModelKind::Sage, layers, s)
        };
        vec![
            ("GCN", stock(ModelKind::Gcn)),
            ("GIN", stock(ModelKind::Gin)),
            ("GAT x1", stock(ModelKind::Gat)),
            ("GAT x3", gat3),
            ("SAGE mean", stock(ModelKind::Sage)),
            ("SAGE max", sage_max),
        ]
    }

    #[test]
    fn layer0_prefix_is_reused_bitwise() {
        // Narrow features and a dense graph: 48 four-epoch runs stay cheap,
        // and every worker has rows to ship at both layers.
        let ds = by_name("twitter").unwrap().materialize(1e-5, 7);
        let part = Partitioner::Chunk.partition(&ds.graph, 2);
        const EPOCHS: u64 = 4;
        let decisions =
            [DepDecision::CacheAll, DepDecision::CommAll, parity_sets(&ds, 0), parity_sets(&ds, 1)];
        for (d, decision) in decisions.iter().enumerate() {
            let plans = build_plans(&ds.graph, &part, 2, decision).unwrap();
            for (name, model) in every_model_kind(&ds) {
                let what = format!("{} #{d} {name}", decision.label());
                let train = |layer0: Layer0<'_>| {
                    let (cfg, run) = (ExecConfig::default(), RunState::default());
                    run_workers(&ds, &model, &plans, EPOCHS as usize, &cfg, &run, layer0).unwrap()
                };
                let mut carry = Layer0Carry::default();
                let (reused, reused_store, _, reused_rm) = train(Layer0::Constant(&mut carry));
                assert!(carry.is_filled(), "{what}: the run leaves every worker's prefix");
                // The every-epoch reference: a tracked input has no prefix.
                let (every, every_store, _, every_rm) = train(Layer0::Tracked);
                for (a, b) in reused.iter().zip(every.iter()) {
                    assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "{what}");
                }
                for ((_, p, a), (_, _, b)) in reused_store.iter().zip(every_store.iter()) {
                    assert_eq!(a.data(), b.data(), "{what}: {p}");
                }
                for (w, frame) in &reused_rm.frames {
                    let (every_frame, plan) = (&every_rm.frames[w], &plans[*w]);
                    for kind in ["grads", "allreduce"] {
                        for unit in ["bytes", "msgs"] {
                            let key = format!("net.sent.{unit}.{kind}");
                            assert_eq!(frame.counter(&key), every_frame.counter(&key), "{what}");
                        }
                    }
                    // Layer 0's rows go to each dependent peer once, layer
                    // 1's every epoch.
                    let (l0_bytes, l0_msgs) = rows_traffic(plan, 0, model.dims()[0]);
                    let (l1_bytes, l1_msgs) = rows_traffic(plan, 1, model.dims()[1]);
                    assert_eq!(l0_msgs == 0, decision.label() == "DepCache", "{what}");
                    assert_eq!(frame.counter("net.sent.msgs.rows"), l0_msgs + EPOCHS * l1_msgs);
                    assert_eq!(frame.counter("net.sent.bytes.rows"), l0_bytes + EPOCHS * l1_bytes);
                    assert_eq!(
                        every_frame.counter("net.sent.bytes.rows"),
                        EPOCHS * (l0_bytes + l1_bytes)
                    );
                    // Every input row of every epoch is metered exactly once.
                    let moved = |f: &MetricsFrame| {
                        f.counter("dep.rows.local") + f.counter("dep.rows.fetched")
                    };
                    let l0_rows = plan.layers[0].input_ids.len() as u64;
                    assert_eq!(frame.counter("dep.rows.reused"), (EPOCHS - 1) * l0_rows, "{what}");
                    assert_eq!(moved(frame) + (EPOCHS - 1) * l0_rows, moved(every_frame), "{what}");
                    let l1_rows = plan.layers[1].input_ids.len() as u64;
                    assert_eq!(moved(every_frame), EPOCHS * (l0_rows + l1_rows), "{what}");
                    assert_eq!(every_frame.counter("dep.rows.reused"), 0);
                    let l0_exchanges = |f: &MetricsFrame| {
                        f.spans.iter().filter(|s| s.phase == Phase::FwdComm && s.layer == 0).count()
                    };
                    assert_eq!(l0_exchanges(frame), 1, "{what}");
                    assert_eq!(l0_exchanges(every_frame), EPOCHS as usize, "{what}");
                }
            }
        }
    }

    /// The prefix outlives the call that built it: a second call under the
    /// same plans moves no layer-0 row, gathers no features, and continues
    /// the first bit for bit.
    #[test]
    fn a_carried_prefix_skips_the_exchange_in_the_next_call() {
        let ds = small_dataset();
        let plans = plans_for(&ds, 2);
        let model =
            GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, 3);
        let cfg = ExecConfig::default();
        let (full, full_store, _, _) =
            train_epochs_run(&ds, &model, &plans, 4, &cfg, &RunState::default()).unwrap();
        let mut carry = Layer0Carry::default();
        let (head, mid_store, mid_opt, _) = run_workers(
            &ds,
            &model,
            &plans,
            2,
            &cfg,
            &RunState::default(),
            Layer0::Constant(&mut carry),
        )
        .unwrap();
        let resume = RunState {
            epoch_offset: 2,
            init_params: Some(mid_store),
            opt_state: mid_opt,
            ..Default::default()
        };
        let (tail, tail_store, _, tail_rm) =
            run_workers(&ds, &model, &plans, 2, &cfg, &resume, Layer0::Constant(&mut carry))
                .unwrap();
        assert!(carry.is_filled());
        for (a, b) in full.iter().zip(head.iter().chain(tail.iter())) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        }
        for ((_, _, a), (_, _, b)) in full_store.iter().zip(tail_store.iter()) {
            assert_eq!(a.data(), b.data());
        }
        for (w, frame) in &tail_rm.frames {
            let (_, l1_msgs) = rows_traffic(&plans[*w], 1, 16);
            assert_eq!(frame.counter("net.sent.msgs.rows"), 2 * l1_msgs, "worker {w}");
            assert_eq!(frame.counter("dep.rows.cached"), 0);
            assert!(frame.spans.iter().all(|s| s.phase != Phase::FwdComm || s.layer != 0));
        }
        // A carry that lost a slot is rebuilt by everyone, not by one.
        carry.slots[1] = None;
        let (again, _, _, again_rm) =
            run_workers(&ds, &model, &plans, 2, &cfg, &resume, Layer0::Constant(&mut carry))
                .unwrap();
        assert!(carry.is_filled());
        for (a, b) in tail.iter().zip(again.iter()) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        }
        for (w, frame) in &again_rm.frames {
            let (_, l0_msgs) = rows_traffic(&plans[*w], 0, ds.feature_dim());
            let (_, l1_msgs) = rows_traffic(&plans[*w], 1, 16);
            assert_eq!(frame.counter("net.sent.msgs.rows"), l0_msgs + 2 * l1_msgs, "worker {w}");
        }
    }

    #[test]
    fn ring_allreduce_sums_ragged_tensors_exactly() {
        // 23 elements over 3 workers: chunks [0,7) [7,15) [15,23). Chunk 0
        // spans the first three tensors exactly, chunk 1 straddles the
        // last two, and four of the five tensors are smaller than a chunk.
        const LENS: [usize; 5] = [3, 2, 2, 5, 11];
        const WORLD: usize = 3;
        // Small integers, so every partial sum is exact in f32 and the
        // oracle below is independent of accumulation order.
        let value = |w: usize, i: usize| ((i * 7 + w * 13) % 19) as i32 - 9;
        let reduced: Vec<Vec<Tensor>> = std::thread::scope(|s| {
            let handles: Vec<_> = Fabric::new(WORLD)
                .into_endpoints()
                .into_iter()
                .map(|ep| {
                    s.spawn(move || {
                        let mut base = 0;
                        let mut grads: Vec<Tensor> = LENS
                            .iter()
                            .map(|&len| {
                                let data =
                                    (base..base + len).map(|i| value(ep.id(), i) as f32).collect();
                                base += len;
                                Tensor::from_vec(1, len, data)
                            })
                            .collect();
                        let rec = MetricsRecorder::new(ep.id(), Instant::now());
                        let timeout = Duration::from_millis(DEFAULT_RECV_TIMEOUT_MS);
                        ring_allreduce(&ep, timeout, &rec, &mut grads).unwrap();
                        grads
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (w, grads) in reduced.iter().enumerate() {
            let flat: Vec<f32> = grads.iter().flat_map(|g| g.data().iter().copied()).collect();
            assert_eq!(flat.len(), LENS.iter().sum::<usize>());
            for (i, &got) in flat.iter().enumerate() {
                let want: i32 = (0..WORLD).map(|src| value(src, i)).sum();
                assert_eq!(got, want as f32, "worker {w}, element {i}");
            }
        }
    }
}
