//! Online inference serving: a sharded, read-only deployment of a
//! trained checkpoint answering batched k-hop queries.
//!
//! Training (the paper's subject) produces a parameter replica; this
//! module is the deployment half the ROADMAP's north star needs. A
//! [`ServeDeployment`] spins up one frontend plus `S` shard workers on
//! the same [`Fabric`] the training engines use. Each query names a seed
//! vertex; the owning shard computes the seed's exact `L`-hop
//! in-neighborhood closure (Algorithm 2's dependency retrieval, through
//! the [`Marks`] and [`LayerTopology::from_graph`] that compile training
//! plans) and runs the model forward over the closure sub-topology,
//! which yields bit-identical logits to a
//! full-graph [`ns_gnn::inference::infer`] pass for the seed rows: every
//! row the forward *consumes* has its complete in-neighborhood inside
//! the closure, and restricted adjacency preserves aggregation order.
//!
//! The serving path exercises the same dependency machinery as training:
//! * features the shard does not own are fetched from the owning peer
//!   over the fabric (`Query` fetch → layer-0 `Rows` reply) and kept,
//!   while there is room, in a per-shard fill-only [`FeatureCache`] with
//!   hit/miss metering — the cached-vs-fetched trade-off of the
//!   DepCache/DepComm engines, now on the read path;
//! * an unhealthy peer link degrades the fetch instead of failing the
//!   query: every peer sits behind a [`CircuitBreaker`] (consecutive
//!   fetch failures open it, a half-open probe after cooldown closes it
//!   again when the link heals), an open breaker skips straight to the
//!   replicated mirror behind a modeled slow-path penalty, and slow
//!   links are *hedged* — after a p99-derived hedge delay the shard
//!   starts the mirror read in parallel and takes whichever answer
//!   lands first (`serve.hedge.{issued,wins}`), bounding tail latency
//!   under flapping links;
//! * the frontend detects a dead shard by its closed link or a missed
//!   reply deadline and reroutes its outstanding queries to survivors —
//!   shard loss degrades latency, never drops queries.
//!
//! Admission is a bounded [`SubmitQueue`]: when the deployment is
//! saturated, [`SubmitQueue::try_push`] rejects with
//! [`ServeError::Saturated`] instead of blocking the caller — open-loop
//! load keeps its schedule and overload surfaces as a metered reject
//! rate, not as coordinated omission.

use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ns_gnn::{GnnModel, LayerInput, LayerTopology};
use ns_graph::fx::FxHashMap;
use ns_graph::khop::Marks;
use ns_graph::{Dataset, Partitioner, Partitioning};
use ns_metrics::{MetricsFrame, MetricsRecorder, RunMetrics};
use ns_net::fabric::{Doorbell, Endpoint, Fabric, MessageKind, NetError};
use ns_net::fault::FaultPlan;
use ns_net::policy::CircuitBreaker;
use ns_tensor::{ParamStore, Tensor};

use crate::obs::{export_breaker_stats, export_net_stats};
use crate::plan::Rows;

pub mod load;

use load::OpenLoop;

/// Control-plane scalar telling a shard the run is over.
const CTRL_SHUTDOWN: f64 = -1.0;

/// Typed serving errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The bounded admission queue is full; the query was rejected, not
    /// queued. Carries the configured capacity for the caller's error
    /// message.
    Saturated {
        /// Queue capacity at the time of rejection.
        capacity: usize,
    },
    /// The deployment is shutting down and no longer admits queries.
    Closed,
    /// The checkpoint/model/dataset triple is inconsistent (missing or
    /// shape-mismatched parameters, wrong feature width, bad shard
    /// count).
    BadDeployment(String),
    /// Every shard died before the query stream drained; the zero-drop
    /// guarantee cannot be met.
    AllShardsLost {
        /// Queries still unanswered when the last shard died.
        unanswered: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Saturated { capacity } => {
                write!(f, "serve queue saturated (capacity {capacity}); query rejected")
            }
            ServeError::Closed => write!(f, "serve deployment closed"),
            ServeError::BadDeployment(why) => write!(f, "bad deployment: {why}"),
            ServeError::AllShardsLost { unanswered } => {
                write!(f, "all shards lost with {unanswered} queries unanswered")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Serving knobs. Defaults suit the bundled datasets; `nts serve`
/// exposes each as a flag (see `docs/SERVING.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Number of shard workers (the frontend is extra). Each shard owns
    /// one graph partition.
    pub shards: usize,
    /// Partitioner assigning vertices to shards.
    pub partitioner: Partitioner,
    /// Bounded admission-queue capacity; a full queue rejects.
    pub queue_capacity: usize,
    /// Maximum queries per dispatched batch. A shard has one batch in
    /// flight at a time; the queries that arrive meanwhile ship together
    /// when it replies, so batch size follows load.
    pub batch_max: usize,
    /// Maximum queries admitted and unanswered. The frontend stops
    /// dequeuing beyond this, so sustained overload backs up into the
    /// bounded queue and surfaces as rejects.
    pub inflight_cap: usize,
    /// Per-shard feature-cache capacity, in rows. The cache fills on
    /// miss until full and then keeps what it holds; 0 disables it.
    pub cache_rows: usize,
    /// Frontend reply deadline: a shard whose batch is older than this and
    /// was outlived by a peer's reply (or has no busy peer to be outlived
    /// by) is declared dead and its queries are rerouted. A closed link is
    /// a death at once; a batch ten deadlines old kills its shard whatever
    /// its peers did, the last live shard too.
    pub reply_timeout_ms: u64,
    /// Shard-to-shard feature-fetch deadline before falling back to the
    /// replicated feature mirror.
    pub fetch_timeout_ms: u64,
    /// Modeled penalty of one mirror (cold-store) read burst, applied as
    /// real latency on the shard's critical path.
    pub slow_path_us: u64,
    /// Deterministic fault plan. `kill:w<id>@e<n>` kills the shard at
    /// endpoint `<id>` (shards are endpoints `1..=S`) when it receives a
    /// batch containing a query id `>= n`; wire faults (drop / delay /
    /// dup / corrupt) apply to serve traffic and heal through the
    /// fabric's CRC + retransmission machinery.
    pub fault: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            partitioner: Partitioner::Chunk,
            queue_capacity: 1024,
            batch_max: 32,
            inflight_cap: 256,
            cache_rows: 4096,
            reply_timeout_ms: 250,
            fetch_timeout_ms: 100,
            slow_path_us: 300,
            fault: FaultPlan::default(),
        }
    }
}

/// One admitted query ticket.
#[derive(Debug, Clone, Copy)]
pub struct QueryTicket {
    /// Dense query id (also the reroute/dedupe key).
    pub qid: u32,
    /// Seed vertex whose class is requested.
    pub seed: u32,
    /// Open-loop scheduled arrival; latency is measured from here, so a
    /// backed-up queue *increases* reported latency instead of hiding it
    /// (no coordinated omission).
    pub sched: Instant,
    /// When the ticket entered the queue.
    pub enqueued: Instant,
}

/// Outcome of one query.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Query id.
    pub qid: u32,
    /// Seed vertex.
    pub seed: u32,
    /// Predicted class.
    pub class: u32,
    /// Scheduled-arrival-to-answer latency.
    pub latency_us: u64,
}

/// A bounded MPSC admission queue whose producer side *never blocks*: a
/// full queue rejects with [`ServeError::Saturated`]. The consumer side
/// (the dispatcher) never blocks either: every push and the close ring
/// its doorbell, which it sleeps on beside its links.
pub struct SubmitQueue<T> {
    cap: usize,
    inner: Mutex<QueueInner<T>>,
    bell: Doorbell,
}

struct QueueInner<T> {
    buf: VecDeque<T>,
    closed: bool,
}

impl<T> SubmitQueue<T> {
    /// A queue admitting at most `cap` queued items (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            inner: Mutex::new(QueueInner { buf: VecDeque::new(), closed: false }),
            bell: Doorbell::default(),
        }
    }

    /// The same queue, ringing `bell` on every push and on close.
    fn ringing(self, bell: Doorbell) -> Self {
        Self { bell, ..self }
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().buf.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits `item`, or rejects immediately — this is the backpressure
    /// boundary, and it must never block the submitting thread.
    pub fn try_push(&self, item: T) -> Result<(), ServeError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(ServeError::Closed);
        }
        if inner.buf.len() >= self.cap {
            return Err(ServeError::Saturated { capacity: self.cap });
        }
        inner.buf.push_back(item);
        drop(inner);
        self.bell.ring();
        Ok(())
    }

    /// Marks the queue closed; queued items remain poppable.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.bell.ring();
    }

    /// Pops one item without waiting; `Ok(None)` means the queue is empty
    /// and open. [`ServeError::Closed`] means closed *and* drained — the
    /// consumer can stop.
    pub fn pop(&self) -> Result<Option<T>, ServeError> {
        let mut inner = self.inner.lock().unwrap();
        match inner.buf.pop_front() {
            None if inner.closed => Err(ServeError::Closed),
            item => Ok(item),
        }
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<T> {
        self.inner.lock().unwrap().buf.pop_front()
    }
}

/// Per-shard cache of fetched feature rows, with hit/miss meters. It
/// fills on miss while it has room and keeps what it holds for the run,
/// as DepCache keeps its fetched dependencies for every epoch; a full
/// cache stores nothing more. Only memory pressure drops rows
/// ([`FeatureCache::shed_to`]).
pub struct FeatureCache {
    cap: usize,
    map: FxHashMap<u32, Vec<f32>>,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Rows dropped by memory-pressure shedding, to free heap for the
    /// budgeted tensor pool.
    pub sheds: u64,
}

impl FeatureCache {
    /// A cache holding at most `cap` rows (0 disables caching).
    pub fn new(cap: usize) -> Self {
        Self { cap, map: FxHashMap::default(), hits: 0, misses: 0, sheds: 0 }
    }

    /// Rows currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks `v` up, metering the hit or miss.
    pub fn lookup(&mut self, v: u32) -> Option<&[f32]> {
        let row = self.map.get(&v);
        if row.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        row.map(Vec::as_slice)
    }

    /// Stores a fetched row while the cache has room; a full cache drops it.
    pub fn insert(&mut self, v: u32, row: Vec<f32>) {
        if self.map.len() < self.cap {
            self.map.insert(v, row);
        }
    }

    /// Drops rows, in no particular order, until at most `target` remain.
    /// The memory-pressure relief valve: cached rows are the shard's one
    /// elastic allocation, so they go first when the tensor-pool budget
    /// tightens. Returns the number of rows dropped.
    pub fn shed_to(&mut self, target: usize) -> u64 {
        let doomed: Vec<u32> = self.map.keys().skip(target).copied().collect();
        for v in &doomed {
            self.map.remove(v);
        }
        self.sheds += doomed.len() as u64;
        doomed.len() as u64
    }
}

/// Full report of one serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Every answered query (unordered).
    pub answers: Vec<Answer>,
    /// Queries rejected at the admission queue.
    pub rejected: u64,
    /// Queries the load driver attempted to submit.
    pub offered: u64,
    /// Admitted queries that never got an answer. The zero-drop
    /// guarantee makes this 0 unless every shard died.
    pub dropped: u64,
    /// Wall-clock of the run, milliseconds.
    pub wall_ms: u64,
    /// Answers per second of wall-clock.
    pub achieved_qps: f64,
    /// Shards declared dead by the frontend.
    pub shard_deaths: u64,
    /// Queries rerouted off a dead shard.
    pub reroutes: u64,
    /// Per-worker metric frames (`serve.*` series, fabric traffic).
    pub metrics: RunMetrics,
}

impl ServeReport {
    /// Nearest-rank percentile over the answer latencies, µs.
    pub fn percentile_us(&self, p: f64) -> u64 {
        let mut latencies: Vec<u64> = self.answers.iter().map(|a| a.latency_us).collect();
        latencies.sort_unstable();
        load::percentile_us(&latencies, p)
    }

    /// Aggregate cache hit ratio across shards (0 when no lookups).
    pub fn cache_hit_ratio(&self) -> f64 {
        let hits = self.metrics.total_counter("serve.cache.hits") as f64;
        let misses = self.metrics.total_counter("serve.cache.misses") as f64;
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    }
}

/// A planned, read-only serving deployment: dataset + model + trained
/// parameters + partitioning, validated up front.
pub struct ServeDeployment<'a> {
    dataset: &'a Dataset,
    model: &'a GnnModel,
    params: ParamStore,
    parts: Partitioning,
    cfg: ServeConfig,
}

impl<'a> ServeDeployment<'a> {
    /// Validates the triple and plans the shard partitioning.
    pub fn new(
        dataset: &'a Dataset,
        model: &'a GnnModel,
        params: ParamStore,
        cfg: ServeConfig,
    ) -> Result<Self, ServeError> {
        if cfg.shards == 0 {
            return Err(ServeError::BadDeployment("need at least one shard".into()));
        }
        if model.dims()[0] != dataset.feature_dim() {
            return Err(ServeError::BadDeployment(format!(
                "model input width {} != dataset feature width {}",
                model.dims()[0],
                dataset.feature_dim()
            )));
        }
        if *model.dims().last().unwrap() != dataset.num_classes {
            return Err(ServeError::BadDeployment(format!(
                "model output width {} != dataset classes {}",
                model.dims().last().unwrap(),
                dataset.num_classes
            )));
        }
        // The checkpoint must carry exactly the parameters this model
        // architecture declares, at the same shapes.
        let reference = model.fresh_store();
        for (_, name, value) in reference.iter() {
            match params.find(name) {
                None => {
                    return Err(ServeError::BadDeployment(format!(
                        "checkpoint is missing parameter {name:?}"
                    )))
                }
                Some(id) => {
                    if params.value(id).shape() != value.shape() {
                        return Err(ServeError::BadDeployment(format!(
                            "parameter {name:?} shape {:?} != model shape {:?}",
                            params.value(id).shape(),
                            value.shape()
                        )));
                    }
                }
            }
        }
        if params.len() != reference.len() {
            return Err(ServeError::BadDeployment(format!(
                "checkpoint carries {} parameters, model declares {}",
                params.len(),
                reference.len()
            )));
        }
        let parts = cfg.partitioner.partition(&dataset.graph, cfg.shards);
        Ok(Self { dataset, model, params, parts, cfg })
    }

    /// The planned partitioning (shard `s` owns partition `s`, served by
    /// fabric endpoint `s + 1`).
    pub fn partitioning(&self) -> &Partitioning {
        &self.parts
    }

    /// Drives the deployment with a seeded open-loop load: queries
    /// arrive on an exponential schedule at `load.rate_qps` regardless
    /// of completion, and a saturated queue rejects. A closed queue (every
    /// shard lost) ends the schedule: nothing offered after it could be answered.
    pub fn run_open_loop(&self, load: &OpenLoop) -> Result<ServeReport, ServeError> {
        let arrivals = load.arrivals();
        let seeds = load.seeds(self.dataset.graph.num_vertices() as u32);
        self.run_driver(move |queue, rejected| {
            let start = Instant::now();
            for (i, (offset, seed)) in arrivals.iter().zip(seeds.iter()).enumerate() {
                let sched = start + *offset;
                let now = Instant::now();
                if sched > now {
                    std::thread::sleep(sched - now);
                }
                let ticket = QueryTicket {
                    qid: i as u32,
                    seed: *seed,
                    sched,
                    enqueued: Instant::now(),
                };
                match queue.try_push(ticket) {
                    Ok(()) => {}
                    Err(ServeError::Saturated { .. }) => {
                        rejected.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => return i as u64,
                }
            }
            arrivals.len() as u64
        })
    }

    /// Answers every seed exactly once (patient submission: retries on
    /// saturation instead of rejecting). Latency is measured from
    /// submission. This is the correctness entry point — equivalence
    /// tests compare its answers against a full-graph inference pass.
    pub fn answer_all(&self, seeds: &[u32]) -> Result<ServeReport, ServeError> {
        let seeds = seeds.to_vec();
        self.run_driver(move |queue, _rejected| {
            for (i, &seed) in seeds.iter().enumerate() {
                loop {
                    let now = Instant::now();
                    let ticket =
                        QueryTicket { qid: i as u32, seed, sched: now, enqueued: now };
                    match queue.try_push(ticket) {
                        Ok(()) => break,
                        Err(ServeError::Saturated { .. }) => {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(_) => return i as u64,
                    }
                }
            }
            seeds.len() as u64
        })
    }

    /// Spins up the fabric, shards, and dispatcher, runs `driver` on its
    /// own thread, and collects the report.
    fn run_driver<F>(&self, driver: F) -> Result<ServeReport, ServeError>
    where
        F: FnOnce(&SubmitQueue<QueryTicket>, &AtomicU64) -> u64 + Send,
    {
        let fabric = Fabric::with_faults(self.cfg.shards + 1, self.cfg.fault.clone());
        let mut endpoints = fabric.into_endpoints().into_iter();
        let rejected = AtomicU64::new(0);
        let origin = Instant::now();
        let frontend_ep =
            endpoints.next().expect("the fabric has the frontend's endpoint");
        let queue = SubmitQueue::new(self.cfg.queue_capacity).ringing(frontend_ep.doorbell());
        let front = Frontend::new(self, &queue, frontend_ep, origin);
        let mut metrics = RunMetrics::new();

        let (offered, answers) = std::thread::scope(|s| {
            let shards: Vec<_> = endpoints
                .map(|ep| s.spawn(move || Shard::new(self, ep, origin).run()))
                .collect();
            let driver = s.spawn(|| {
                let offered = driver(&queue, &rejected);
                queue.close();
                offered
            });
            let (frame, answers) = front.run();
            metrics.absorb(frame);
            let offered = driver.join().expect("load driver panicked");
            for shard in shards {
                metrics.absorb(shard.join().expect("shard thread panicked"));
            }
            (offered, answers)
        });

        let answers = answers?;
        let rejected = rejected.load(Ordering::Relaxed);
        let wall_ms = origin.elapsed().as_millis().max(1) as u64;
        let dropped = offered - rejected - answers.len() as u64;
        Ok(ServeReport {
            achieved_qps: answers.len() as f64 / (wall_ms as f64 / 1000.0),
            answers,
            rejected,
            offered,
            dropped,
            wall_ms,
            shard_deaths: metrics.total_counter("serve.deaths"),
            reroutes: metrics.total_counter("serve.reroutes"),
            metrics,
        })
    }
}

/// Reply deadlines after which a silent shard is dead even when a host
/// stall could explain it, or no other shard is left to take its queries.
const SILENCE_CAP: u32 = 10;

/// The frontend (fabric endpoint 0): admission queue in, batches out,
/// replies and reroutes back in. [`Frontend::run`] is the stage list.
struct Frontend<'a> {
    cfg: &'a ServeConfig,
    parts: &'a Partitioning,
    queue: &'a SubmitQueue<QueryTicket>,
    ep: Endpoint,
    rec: MetricsRecorder,
    /// Liveness by endpoint id (slot 0, the frontend itself, stays true).
    alive: Vec<bool>,
    /// Queries admitted for each shard and not yet shipped, oldest first.
    staged: Vec<Vec<u32>>,
    /// Ship time of each shard's one batch in flight: its age is the shard's silence.
    flight: Vec<Option<Instant>>,
    /// When a shard's reply last landed. A batch shipped before it was
    /// outlived by a peer, so its delay is not a stalled host's.
    last_reply: Instant,
    /// Admitted queries not yet answered, by query id.
    pending: FxHashMap<u32, Pending>,
    answers: Vec<Answer>,
}

struct Pending {
    ticket: QueryTicket,
    /// Endpoint the query is staged at or shipped to.
    shard: usize,
    /// When it was last shipped; `None` until its first ship.
    sent_at: Option<Instant>,
}

impl<'a> Frontend<'a> {
    fn new(
        deploy: &'a ServeDeployment<'_>,
        queue: &'a SubmitQueue<QueryTicket>,
        ep: Endpoint,
        origin: Instant,
    ) -> Self {
        let world = deploy.cfg.shards + 1;
        Frontend {
            cfg: &deploy.cfg,
            parts: &deploy.parts,
            queue,
            ep,
            rec: MetricsRecorder::new(0, origin),
            alive: vec![true; world],
            staged: vec![Vec::new(); world],
            flight: vec![None; world],
            last_reply: Instant::now(),
            pending: FxHashMap::default(),
            answers: Vec::new(),
        }
    }

    /// Event loop: runs until the queue is closed+drained and every
    /// admitted query is answered, or every shard has died (what is still
    /// in `pending` then is the loss reported as `AllShardsLost`). Each
    /// round handles all it polled, then sleeps on the doorbell, which a
    /// reply, a closed link, a push and the close all ring, until the next
    /// reply deadline.
    fn run(mut self) -> (MetricsFrame, Result<Vec<Answer>, ServeError>) {
        loop {
            self.drain_replies();
            while self.reap_overdue() {}
            let drained = self.admit();
            self.dispatch();
            if !self.alive[1..].contains(&true) || drained && self.pending.is_empty() {
                return self.finish();
            }
            self.ep.wait_until(self.next_deadline());
        }
    }

    /// Matches the replies waiting on every shard's link to their queries.
    /// A reply frees its shard for the next batch; a late one from a shard
    /// already declared dead still answers what is unanswered. A closed
    /// link is a death.
    fn drain_replies(&mut self) {
        for w in 1..=self.cfg.shards {
            loop {
                let msg = match self.ep.recv_from_timeout(w, Duration::ZERO) {
                    Ok(msg) => msg,
                    Err(NetError::RecvTimeout { .. }) => break,
                    Err(_) => {
                        self.mark_dead(w);
                        break;
                    }
                };
                let MessageKind::Reply { qids, classes } = msg.kind else { continue };
                self.flight[w] = None;
                self.last_reply = Instant::now();
                for (qid, class) in qids.into_iter().zip(classes) {
                    // After a reroute a qid may be answered twice; the first counts.
                    let Some(p) = self.pending.remove(&qid) else {
                        self.rec.incr("serve.replies.stale", 1);
                        continue;
                    };
                    // One clock read, so the legs cannot outgrow the whole.
                    let now = Instant::now();
                    let latency_us = (now - p.ticket.sched).as_micros() as u64;
                    let sent_at = p.sent_at.expect("a replied query was shipped");
                    self.rec.observe("serve.latency_us", latency_us);
                    self.rec.observe("serve.dispatch_us", (now - sent_at).as_micros() as u64);
                    self.rec.incr("serve.answers", 1);
                    self.answers.push(Answer { qid, seed: p.ticket.seed, class, latency_us });
                }
            }
        }
    }

    /// Reply-deadline scan. A shard whose batch is older than
    /// `reply_timeout_ms` is dead when a live peer could take its queries,
    /// unless a stalled host may be to blame: a peer is busy too and none
    /// has replied since that batch shipped. At `SILENCE_CAP` deadlines it
    /// is dead whatever its peers did, the last live shard too, so a link
    /// that drops without closing ends the run instead of hanging it. True
    /// when it declared a death, which may change its peers' verdicts.
    fn reap_overdue(&mut self) -> bool {
        let timeout = Duration::from_millis(self.cfg.reply_timeout_ms);
        for w in 1..=self.cfg.shards {
            // `mark_dead` cleared a dead shard's.
            let Some(shipped) = self.flight[w] else { continue };
            let age = shipped.elapsed();
            let peers = || (1..=self.cfg.shards).filter(|&p| p != w && self.alive[p]);
            let busy = |p: usize| self.flight[p].is_some() || !self.staged[p].is_empty();
            let stalled = self.last_reply <= shipped && peers().any(busy);
            let timed_out = age > timeout && peers().next().is_some() && !stalled;
            if timed_out || age > timeout * SILENCE_CAP {
                self.mark_dead(w);
                return true;
            }
        }
        false
    }

    /// When [`reap_overdue`](Self::reap_overdue) could next find a batch
    /// overdue, events aside: the first reply deadline or silence cap of a
    /// batch in flight still to come.
    fn next_deadline(&self) -> Option<Instant> {
        let timeout = Duration::from_millis(self.cfg.reply_timeout_ms);
        let checks = [timeout, timeout * SILENCE_CAP];
        let due = self.flight.iter().flatten().flat_map(|&t| checks.map(|d| t + d));
        due.filter(|&at| at >= Instant::now()).min()
    }

    /// Declares shard `w` dead (once) and routes its queries, staged or
    /// in flight, again.
    fn mark_dead(&mut self, w: usize) {
        if !std::mem::replace(&mut self.alive[w], false) {
            return;
        }
        self.rec.incr("serve.deaths", 1);
        self.staged[w].clear();
        self.flight[w] = None;
        let mut orphans: Vec<u32> =
            self.pending.iter().filter(|(_, p)| p.shard == w).map(|(&q, _)| q).collect();
        orphans.sort_unstable();
        self.rec.incr("serve.reroutes", orphans.len() as u64);
        self.route(orphans);
    }

    /// Admits what is queued while fewer than `inflight_cap` queries are
    /// unanswered. True when the queue is closed and drained.
    fn admit(&mut self) -> bool {
        let mut drained = false;
        let room = self.cfg.inflight_cap.saturating_sub(self.pending.len());
        let pop = || self.queue.pop().inspect_err(|_| drained = true).ok().flatten();
        let admitted: Vec<QueryTicket> = std::iter::from_fn(pop).take(room).collect();
        if admitted.is_empty() {
            return drained;
        }
        // Depth behind the head at admission.
        self.rec.observe("serve.queue.depth", (admitted.len() - 1 + self.queue.len()) as u64);
        self.rec.incr("serve.queries", admitted.len() as u64);
        for &ticket in &admitted {
            self.pending.insert(ticket.qid, Pending { ticket, shard: 0, sent_at: None });
        }
        self.route(admitted.iter().map(|t| t.qid).collect());
        drained
    }

    /// Stages each query for its owning shard, or, when the owner is
    /// dead, for the survivor with the fewest staged queries.
    fn route(&mut self, qids: Vec<u32>) {
        let alive = &self.alive;
        for qid in qids {
            let p = self.pending.get_mut(&qid).expect("a routed query is pending");
            let owner = self.parts.owner(p.ticket.seed) + 1;
            let target = if alive[owner] {
                Some(owner)
            } else {
                (1..alive.len()).filter(|&w| alive[w]).min_by_key(|&w| self.staged[w].len())
            };
            let Some(w) = target else { return }; // run() sees no shard alive
            p.shard = w;
            self.staged[w].push(qid);
        }
    }

    /// Ships every idle live shard up to `batch_max` of its staged queries
    /// as one batch, until none is left: a failed send is a death, which
    /// stages its queries again, maybe for a shard already passed.
    fn dispatch(&mut self) {
        let ready =
            |f: &Self, w: usize| f.alive[w] && f.flight[w].is_none() && !f.staged[w].is_empty();
        while let Some(w) = (1..=self.cfg.shards).find(|&w| ready(self, w)) {
            let take = self.staged[w].len().min(self.cfg.batch_max);
            // A late reply from a dead shard may have answered a staged query.
            let qids: Vec<u32> =
                self.staged[w].drain(..take).filter(|q| self.pending.contains_key(q)).collect();
            if qids.is_empty() {
                continue;
            }
            let verts = qids.iter().map(|q| self.pending[q].ticket.seed).collect();
            if self.ep.send(w, MessageKind::Query { qids: qids.clone(), verts }).is_err() {
                self.mark_dead(w);
                continue;
            }
            let now = Instant::now();
            self.flight[w] = Some(now);
            self.rec.incr("serve.batches", 1);
            self.rec.observe("serve.batch.size", qids.len() as u64);
            for q in &qids {
                let p = self.pending.get_mut(q).expect("a shipped query is pending");
                if p.sent_at.is_none() {
                    let wait_us = (now - p.ticket.enqueued).as_micros() as u64;
                    self.rec.observe("serve.queue.wait_us", wait_us);
                }
                p.sent_at = Some(now);
            }
        }
    }

    /// Broadcasts shutdown, folds fabric stats, and closes the frame.
    /// Dropping the endpoint on return ends a shard the shutdown cannot reach.
    fn finish(self) -> (MetricsFrame, Result<Vec<Answer>, ServeError>) {
        // Nobody drains the queue from here on: a patient driver retrying
        // on a full queue must see `Closed`, not spin on `Saturated`.
        self.queue.close();
        for w in 1..=self.cfg.shards {
            let _ = self.ep.send(w, MessageKind::Control(CTRL_SHUTDOWN));
        }
        export_net_stats(&self.rec, &self.ep.stats());
        let answers = match self.pending.len() {
            0 => Ok(self.answers),
            unanswered => Err(ServeError::AllShardsLost { unanswered }),
        };
        (self.rec.finish(), answers)
    }
}

/// Per-peer link health a shard carries across fetches: circuit
/// breakers plus the observed peer-fetch latency distribution the
/// hedge delay is derived from.
struct PeerHealth {
    breakers: Vec<CircuitBreaker>,
    /// Ring of recent successful peer-fetch latencies, µs.
    fetch_lat_us: VecDeque<u64>,
}

/// Latency samples kept for the hedge-delay quantile.
const HEDGE_SAMPLES: usize = 256;
/// Samples needed before the p99 estimate replaces the cold-start
/// hedge delay.
const HEDGE_MIN_SAMPLES: usize = 16;

impl PeerHealth {
    fn new(world: usize, cfg: &ServeConfig) -> Self {
        // Cooldown = one fetch deadline: a flapped link gets re-probed
        // about once per would-be fetch, so it closes soon after healing.
        let breakers = (0..world)
            .map(|_| CircuitBreaker::new(2, Duration::from_millis(cfg.fetch_timeout_ms)))
            .collect();
        PeerHealth { breakers, fetch_lat_us: VecDeque::new() }
    }

    fn observe_fetch(&mut self, lat_us: u64) {
        if self.fetch_lat_us.len() == HEDGE_SAMPLES {
            self.fetch_lat_us.pop_front();
        }
        self.fetch_lat_us.push_back(lat_us);
    }

    /// The hedge delay, µs: 8x the observed p99 peer-fetch latency
    /// (generous headroom so healthy links essentially never lose the
    /// race), clamped to at most half the fetch deadline. Before enough
    /// samples exist, half the fetch deadline.
    fn hedge_delay_us(&self, cfg: &ServeConfig) -> u64 {
        let half_deadline = cfg.fetch_timeout_ms.saturating_mul(1000) / 2;
        if self.fetch_lat_us.len() < HEDGE_MIN_SAMPLES {
            return half_deadline.max(1);
        }
        let mut sorted: Vec<u64> = self.fetch_lat_us.iter().copied().collect();
        sorted.sort_unstable();
        let p99 = load::percentile_us(&sorted, 99.0);
        p99.saturating_mul(8).clamp(5_000.min(half_deadline.max(1)), half_deadline.max(1))
    }
}

/// One shard worker (fabric endpoint `partition + 1`): owns a partition,
/// answers inference batches from the frontend and layer-0 feature
/// fetches from peers. [`Shard::run`] is the event loop and
/// [`Shard::answer_batch`] the stage list.
struct Shard<'a> {
    deploy: &'a ServeDeployment<'a>,
    /// Kill-fault trigger: die upon receiving a batch whose max query id
    /// reaches this threshold.
    kill_at: Option<u32>,
    ep: Endpoint,
    rec: MetricsRecorder,
    cache: FeatureCache,
    health: PeerHealth,
    /// Closure and row-map scratch over the graph, reused by every batch.
    marks: Marks,
    rows: Rows,
}

impl<'a> Shard<'a> {
    fn new(deploy: &'a ServeDeployment<'a>, ep: Endpoint, origin: Instant) -> Self {
        Shard {
            deploy,
            kill_at: deploy.cfg.fault.kill_epoch(ep.id()).map(|e| e as u32),
            rec: MetricsRecorder::new(ep.id(), origin),
            cache: FeatureCache::new(deploy.cfg.cache_rows),
            health: PeerHealth::new(ep.world(), &deploy.cfg),
            marks: Marks::new(deploy.dataset.graph.num_vertices()),
            rows: Rows::new(deploy.dataset.graph.num_vertices()),
            ep,
        }
    }

    /// Event loop, until the frontend says stop or is gone, or a kill
    /// fault fires. Each round drains every link, then sleeps on the
    /// doorbell, which a batch, a peer's fetch and a closed link all ring.
    /// Dropping the endpoint on return is what peers see as `PeerDisconnected`.
    fn run(mut self) -> MetricsFrame {
        // Batches differ in rows: the exact-length pool would park each one's matrices.
        ns_tensor::pool::unpool_this_thread();
        while self.poll_frontend().is_continue() {
            self.serve_peers(None);
            self.ep.wait_until(None);
        }
        self.finish()
    }

    /// Frontend traffic, until its link is empty: inference batches or
    /// the shutdown. `Break` ends the run.
    fn poll_frontend(&mut self) -> ControlFlow<()> {
        loop {
            let msg = match self.ep.recv_from_timeout(0, Duration::ZERO) {
                Ok(msg) => msg,
                Err(NetError::RecvTimeout { .. }) => return ControlFlow::Continue(()),
                Err(_) => return ControlFlow::Break(()),
            };
            match msg.kind {
                MessageKind::Query { qids, verts } => {
                    if self.kill_at.is_some_and(|at| qids.iter().any(|&q| q >= at)) {
                        // Simulated crash: drop the batch and the endpoint.
                        self.rec.incr("serve.shard.killed", 1);
                        return ControlFlow::Break(());
                    }
                    self.answer_batch(qids, &verts)?;
                }
                MessageKind::Control(v) if v == CTRL_SHUTDOWN => {
                    return ControlFlow::Break(())
                }
                _ => {}
            }
        }
    }

    /// Peer traffic: drains every peer shard's link but `except`'s,
    /// without waiting. A gone peer asks for nothing.
    fn serve_peers(&mut self, except: Option<usize>) {
        for src in 1..self.ep.world() {
            if src != self.ep.id() && Some(src) != except {
                while let Ok(Some(_)) = self.poll_peer(src) {}
            }
        }
    }

    /// One receive from peer shard `src`, without waiting. A layer-0
    /// feature fetch is answered on the spot with a `Rows` reply, in the
    /// event loop and inside a fetch of this shard's own alike. What
    /// arrived is handed back for the fetch in flight that awaits its
    /// `Rows`; `Err` means the peer is gone.
    fn poll_peer(&mut self, src: usize) -> Result<Option<MessageKind>, NetError> {
        let kind = match self.ep.recv_from_timeout(src, Duration::ZERO) {
            Ok(msg) => msg.kind,
            Err(NetError::RecvTimeout { .. }) => return Ok(None),
            Err(e) => return Err(e),
        };
        if let MessageKind::Query { qids, verts } = &kind {
            if qids.is_empty() {
                let features = &self.deploy.dataset.features;
                let d = self.deploy.dataset.feature_dim();
                let mut data = Vec::with_capacity(verts.len() * d);
                for &v in verts {
                    data.extend_from_slice(features.row(v as usize));
                }
                self.rec.incr("serve.peer.serves", 1);
                self.rec.incr("serve.peer.rows_served", verts.len() as u64);
                let rows = MessageKind::Rows {
                    layer: 0,
                    ids: verts.clone(),
                    cols: d as u32,
                    data,
                };
                // Best-effort: the requester may have fallen back already.
                let _ = self.ep.send(src, rows);
            }
        }
        Ok(Some(kind))
    }

    /// The one exit, for a kill as for a shutdown: folds the cache,
    /// fabric and breaker meters into the frame and closes it.
    fn finish(self) -> MetricsFrame {
        self.rec.incr("serve.cache.hits", self.cache.hits);
        self.rec.incr("serve.cache.misses", self.cache.misses);
        self.rec.incr("serve.cache.shed", self.cache.sheds);
        export_net_stats(&self.rec, &self.ep.stats());
        // A killed peer's breaker is rightly open for good.
        let killed = |peer| self.ep.faults().kill_epoch(peer).is_some();
        export_breaker_stats(&self.rec, &self.ep, &self.health.breakers, killed);
        self.rec.finish()
    }

    /// Computes exact predictions for `seeds` by running the model over
    /// the seeds' `L`-hop in-closure sub-topology, and replies. Between
    /// stages it answers the peers' fetches that landed meanwhile, so a
    /// peer waits out a stage, not the batch; the three timed stages and
    /// those answers add up to `serve.shard.latency_us`.
    fn answer_batch(&mut self, qids: Vec<u32>, seeds: &[u32]) -> ControlFlow<()> {
        let t0 = Instant::now();
        let cum = self.timed("serve.shard.closure_us", |s| s.closure(seeds));
        self.serve_peers(None);
        let full = &cum[cum.len() - 1];
        let x = self.timed("serve.shard.gather_us", |s| s.gather(full));
        self.serve_peers(None);
        let classes = self.timed("serve.shard.forward_us", |s| s.forward(&cum, x, seeds));
        self.reply(qids, classes, t0)
    }

    fn timed<T>(&mut self, histogram: &str, stage: impl FnOnce(&mut Self) -> T) -> T {
        let t = Instant::now();
        let out = stage(self);
        self.rec.observe(histogram, t.elapsed().as_micros() as u64);
        out
    }

    /// Algorithm 2's dependency retrieval for the batch. `cum[h]` is the
    /// union of closure layers `0..=h`: the vertex set whose
    /// layer-`(L-h)` representations the forward computes. Cumulative
    /// union (rather than the raw closure layer) guarantees each
    /// destination's own input row is present for self terms.
    fn closure(&mut self, seeds: &[u32]) -> Vec<Vec<u32>> {
        let hops = self.deploy.model.num_layers();
        let cum = self.marks.cumulative(&self.deploy.dataset.graph, seeds, hops);
        self.rec.incr("serve.shard.closure_rows", cum[hops].len() as u64);
        cum
    }

    /// Builds the `|verts| x d` layer-0 input matrix: owned rows are
    /// read locally, foreign rows come from the feature cache, a hedged
    /// peer fetch, or (open breaker, lost hedge race, fetch deadline) the
    /// replicated feature mirror.
    fn gather(&mut self, verts: &[u32]) -> Tensor {
        let my_part = self.ep.id() - 1;
        let features = &self.deploy.dataset.features;
        // Pool scratch: every row is overwritten below.
        let mut x = Tensor::scratch(verts.len(), self.deploy.dataset.feature_dim());
        let mut wants: FxHashMap<usize, Vec<(usize, u32)>> = FxHashMap::default();
        let mut local = 0u64;
        for (i, &v) in verts.iter().enumerate() {
            let owner = self.deploy.parts.owner(v);
            if owner == my_part {
                x.row_mut(i).copy_from_slice(features.row(v as usize));
                local += 1;
            } else if let Some(row) = self.cache.lookup(v) {
                x.row_mut(i).copy_from_slice(row);
            } else {
                wants.entry(owner + 1).or_default().push((i, v));
            }
        }
        self.rec.incr("serve.rows.local", local);

        for (peer, slots) in wants {
            let want_ids: Vec<u32> = slots.iter().map(|&(_, v)| v).collect();
            let fetched = if self.health.breakers[peer].allow() {
                self.fetch_rows_hedged(peer, &want_ids)
            } else {
                // Open breaker: the link is known-bad; go to the mirror
                // without burning a fetch deadline.
                self.mirror_penalty();
                None
            };
            let rows = match fetched {
                Some(rows) => {
                    self.rec.incr("serve.rows.fetched", want_ids.len() as u64);
                    rows
                }
                None => {
                    // Owner unreachable (or the mirror won the hedge):
                    // read the replicated mirror. Its cold-store penalty
                    // was charged where the fetch gave up.
                    self.rec.incr("serve.rows.fallback", want_ids.len() as u64);
                    self.rec.incr("serve.fallback.bursts", 1);
                    want_ids.iter().map(|&v| features.row(v as usize).to_vec()).collect()
                }
            };
            for ((i, v), row) in slots.into_iter().zip(rows) {
                x.row_mut(i).copy_from_slice(&row);
                self.cache.insert(v, row);
            }
        }
        x
    }

    /// Runs the layers over the cumulative closure sets, full closure
    /// inwards, and reads each seed's class off the last output.
    fn forward(&mut self, cum: &[Vec<u32>], x: Tensor, seeds: &[u32]) -> Vec<u32> {
        let deploy = self.deploy;
        let hops = deploy.model.num_layers();
        let mut h = x;
        for lz in 0..hops {
            let (src, dst) = (&cum[hops - lz], &cum[hops - 1 - lz]);
            let topo = self.rows.over(src, |rows| {
                LayerTopology::from_graph(&deploy.dataset.graph, dst, src.len(), |u| rows.row(u))
            });
            let layer = deploy.model.layer(lz);
            h = layer.forward(&deploy.params, &topo, LayerInput::Constant(h)).into_output();
        }
        // cum[0] is the sorted, deduped seed set: one output row per seed.
        let preds = h.argmax_rows();
        self.rows.over(&cum[0], |rows| {
            seeds.iter().map(|&s| preds[rows.row(s) as usize] as u32).collect()
        })
    }

    /// Meters the batch and ships its answers. `Break` when the frontend
    /// is gone — the run is over.
    fn reply(
        &mut self,
        qids: Vec<u32>,
        classes: Vec<u32>,
        t0: Instant,
    ) -> ControlFlow<()> {
        self.rec.incr("serve.shard.queries", qids.len() as u64);
        self.rec.incr("serve.shard.batches", 1);
        self.rec.observe("serve.shard.latency_us", t0.elapsed().as_micros() as u64);
        if self.ep.send(0, MessageKind::Reply { qids, classes }).is_err() {
            return ControlFlow::Break(());
        }
        // Degrade, don't die: when the process-wide tensor pool is past
        // its pressure threshold, halve the cache rather than compete
        // with training for the budget. Misses repopulate after heal.
        if ns_tensor::pool::under_pressure() && self.cache.len() > 1 {
            self.cache.shed_to(self.cache.len() / 2);
        }
        ControlFlow::Continue(())
    }

    /// One hedged peer fetch: ships the want-list, then polls the peer's
    /// link for the `Rows` reply while *also servicing incoming fetches*,
    /// sleeping on the doorbell between rounds that heard nothing — two
    /// shards fetching from each other, or a fetch cycle across three or
    /// more, must not deadlock. After a p99-derived hedge delay with no
    /// reply, a mirror read is started in parallel and the first side to
    /// finish wins (`serve.hedge.{issued,wins}`). Returns `None` when the
    /// caller should read the mirror: the mirror won the race, the peer
    /// is unreachable, or `fetch_timeout_ms` passed.
    ///
    /// Breaker bookkeeping: a matching peer reply records a success;
    /// a hedge loss, deadline, or dead link records a failure — so a
    /// black-holed link opens the breaker after consecutive misses even
    /// though every query is still answered from the mirror.
    fn fetch_rows_hedged(&mut self, peer: usize, want: &[u32]) -> Option<Vec<Vec<f32>>> {
        let cfg = &self.deploy.cfg;
        self.rec.incr("serve.fetch.requests", 1);
        let request = MessageKind::Query { qids: Vec::new(), verts: want.to_vec() };
        if self.ep.send(peer, request).is_err() {
            return self.fetch_failed(peer);
        }
        let t0 = Instant::now();
        let fetch_timeout = Duration::from_millis(cfg.fetch_timeout_ms);
        let hedge_after = Duration::from_micros(self.health.hedge_delay_us(cfg));
        let mut mirror_ready: Option<Instant> = None;
        let d = self.deploy.dataset.feature_dim();
        loop {
            let heard = match self.poll_peer(peer) {
                Ok(Some(MessageKind::Rows { ids, data, .. })) if ids == want => {
                    if data.len() != want.len() * d {
                        return self.fetch_failed(peer);
                    }
                    self.health.breakers[peer].record_success();
                    self.health.observe_fetch(t0.elapsed().as_micros() as u64);
                    return Some(data.chunks(d).map(<[f32]>::to_vec).collect());
                }
                // Stale reply to an earlier fetch this shard already
                // abandoned — a healed flap can deliver it long after the
                // hedge won. Discard and keep waiting for the answer to
                // *this* want-list.
                Ok(Some(MessageKind::Rows { .. })) => {
                    self.rec.incr("serve.fetch.stale", 1);
                    true
                }
                Ok(other) => other.is_some(),
                // The owner is gone: no reply can come, so fail now.
                Err(_) => return self.fetch_failed(peer),
            };
            self.serve_peers(Some(peer));
            if mirror_ready.is_none() && t0.elapsed() >= hedge_after {
                // Tail-latency hedge: start the mirror read racing the
                // peer reply instead of waiting out the full deadline.
                self.rec.incr("serve.hedge.issued", 1);
                mirror_ready =
                    Some(Instant::now() + Duration::from_micros(cfg.slow_path_us));
            }
            if mirror_ready.is_some_and(|ready| Instant::now() >= ready) {
                self.rec.incr("serve.hedge.wins", 1);
                self.health.breakers[peer].record_failure();
                return None;
            }
            if t0.elapsed() >= fetch_timeout {
                self.rec.incr("serve.fetch.timeouts", 1);
                return self.fetch_failed(peer);
            }
            if !heard {
                let hedge_or_mirror = mirror_ready.unwrap_or(t0 + hedge_after);
                self.ep.wait_until(Some(hedge_or_mirror.min(t0 + fetch_timeout)));
            }
        }
    }

    /// A fetch that ends with neither rows nor a mirror read under way:
    /// the breaker hears of it and the mirror read to come is charged.
    fn fetch_failed(&mut self, peer: usize) -> Option<Vec<Vec<f32>>> {
        self.health.breakers[peer].record_failure();
        self.mirror_penalty();
        None
    }

    /// The modeled cost of one mirror (cold-store) read burst, paid as
    /// real latency on the shard's critical path.
    fn mirror_penalty(&self) {
        std::thread::sleep(Duration::from_micros(self.deploy.cfg.slow_path_us));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_gnn::inference::infer;
    use ns_gnn::{GnnModel, ModelKind};
    use ns_graph::datasets::by_name;
    use ns_graph::khop::khop_in_closure;

    #[test]
    fn submit_queue_rejects_when_full_and_never_blocks() {
        let q: SubmitQueue<u32> = SubmitQueue::new(3);
        for i in 0..3 {
            q.try_push(i).unwrap();
        }
        let t0 = Instant::now();
        let err = q.try_push(99).unwrap_err();
        assert_eq!(err, ServeError::Saturated { capacity: 3 });
        // The rejection path must be immediate — this is the guarantee
        // that a saturated deployment cannot stall the fabric thread.
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "try_push blocked for {:?}",
            t0.elapsed()
        );
        assert_eq!(q.len(), 3);
        // Draining one slot re-opens admission.
        assert_eq!(q.try_pop(), Some(0));
        q.try_push(99).unwrap();
    }

    #[test]
    fn submit_queue_close_drains_then_signals_done() {
        let q: SubmitQueue<u32> = SubmitQueue::new(8);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(ServeError::Closed));
        assert_eq!(q.pop(), Ok(Some(1)));
        assert_eq!(q.pop(), Err(ServeError::Closed));
    }

    #[test]
    fn submit_queue_pops_nothing_when_empty_and_open() {
        let q: SubmitQueue<u32> = SubmitQueue::new(8);
        assert_eq!(q.pop(), Ok(None));
    }

    #[test]
    fn submit_queue_rings_its_doorbell_on_push_and_on_close() {
        let ep = Fabric::new(1).into_endpoints().pop().unwrap();
        let q: SubmitQueue<u32> = SubmitQueue::new(8).ringing(ep.doorbell());
        let woken = || {
            let t0 = Instant::now();
            ep.wait_until(Some(t0 + Duration::from_secs(30)));
            t0.elapsed() < Duration::from_secs(10)
        };
        q.try_push(1).unwrap();
        assert!(woken(), "the push did not ring");
        q.close();
        assert!(woken(), "the close did not ring");
    }

    #[test]
    fn full_feature_cache_keeps_its_rows_and_stores_nothing_new() {
        let mut c = FeatureCache::new(2);
        assert!(c.lookup(1).is_none());
        c.insert(1, vec![1.0]);
        c.insert(2, vec![2.0]);
        assert!(c.lookup(3).is_none());
        c.insert(3, vec![3.0]); // full: dropped, nothing evicted
        assert!(c.lookup(3).is_none());
        assert_eq!(c.lookup(1).unwrap(), &[1.0]);
        assert_eq!(c.lookup(2).unwrap(), &[2.0]);
        assert_eq!((c.hits, c.misses), (2, 3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn feature_cache_zero_capacity_disables_caching() {
        let mut c = FeatureCache::new(0);
        c.insert(1, vec![1.0]);
        assert!(c.lookup(1).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn feature_cache_sheds_down_to_the_target_under_pressure() {
        let mut c = FeatureCache::new(8);
        for v in 0..8u32 {
            c.insert(v, vec![v as f32]);
        }
        assert_eq!(c.shed_to(3), 5);
        assert_eq!(c.len(), 3);
        assert_eq!(c.sheds, 5);
        // The survivors still answer with their own rows.
        let kept = (0..8u32).filter(|&v| c.lookup(v).is_some_and(|r| r == [v as f32]));
        assert_eq!(kept.count(), 3);
        // Shedding to the current size (or above) is a no-op, and the
        // room it freed takes new rows again.
        assert_eq!(c.shed_to(10), 0);
        c.insert(99, vec![99.0]);
        assert_eq!(c.lookup(99).unwrap(), &[99.0]);
    }

    fn cora_deploy() -> (Dataset, GnnModel) {
        let ds = by_name("cora").unwrap().materialize(0.15, 9);
        let model =
            GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, 4);
        (ds, model)
    }

    #[test]
    fn deployment_rejects_mismatched_params() {
        let (ds, model) = cora_deploy();
        let wrong = GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 8, ds.num_classes, 4);
        let err = ServeDeployment::new(&ds, &model, wrong.fresh_store(), ServeConfig::default())
            .err()
            .expect("shape mismatch must be rejected");
        assert!(matches!(err, ServeError::BadDeployment(_)), "got {err:?}");
    }

    #[test]
    fn deployment_rejects_zero_shards() {
        let (ds, model) = cora_deploy();
        let cfg = ServeConfig { shards: 0, ..ServeConfig::default() };
        assert!(ServeDeployment::new(&ds, &model, model.fresh_store(), cfg).is_err());
    }

    #[test]
    fn sharded_answers_match_full_graph_inference() {
        let (ds, model) = cora_deploy();
        let store = model.fresh_store();
        let reference = infer(&ds, &model, &store);
        // Seeds spread across all three partitions, with repeats.
        let n = ds.graph.num_vertices() as u32;
        let seeds: Vec<u32> = (0..96u32).map(|i| (i * 131) % n).collect();
        // 16 rows fill early in the run, so most foreign rows are then
        // fetched past a full cache.
        for cache_rows in [4096, 16, 0] {
            for spec in [None, Some("kill:w1@e40"), Some("partition:w1-w2@e0-e1")] {
                let mut fault = FaultPlan::default();
                if let Some(spec) = spec {
                    fault.push_spec(spec).unwrap();
                }
                // Patient deadlines: shards starved by the tests running
                // beside this one must neither be declared dead nor, where
                // "no fault, no mirror read" is asserted, lose a hedge race.
                let mut cfg = ServeConfig {
                    shards: 3,
                    cache_rows,
                    reply_timeout_ms: 1_000,
                    fault,
                    ..ServeConfig::default()
                };
                if spec.is_none() {
                    cfg.fetch_timeout_ms = 2_000;
                }
                let deploy = ServeDeployment::new(&ds, &model, store.clone(), cfg).unwrap();
                let report = deploy.answer_all(&seeds).unwrap();
                let run = format!("cache_rows {cache_rows}, fault {spec:?}");
                assert_eq!(report.answers.len(), seeds.len(), "{run}");
                assert_eq!(report.dropped, 0, "{run}");
                for a in &report.answers {
                    assert_eq!(
                        a.class as usize, reference.predictions[a.seed as usize],
                        "query {} seed {} diverged from full-graph inference ({run})",
                        a.qid, a.seed
                    );
                }
                // Row conservation: every closure row a shard materialized
                // came from exactly one of the four sources, and every
                // cache miss ended as a peer fetch or a mirror read.
                let count = |key: &str| report.metrics.total_counter(key);
                let (local, hits) = (count("serve.rows.local"), count("serve.cache.hits"));
                let (fetched, fallback) =
                    (count("serve.rows.fetched"), count("serve.rows.fallback"));
                assert_eq!(
                    count("serve.shard.closure_rows"),
                    local + hits + fetched + fallback,
                    "{run}"
                );
                assert_eq!(count("serve.cache.misses"), fetched + fallback, "{run}");
                if cache_rows == 16 {
                    // Every miss is stored while there is room, so more
                    // misses than three caches hold means one filled.
                    assert!(fetched + fallback > 3 * 16, "no shard filled its cache ({run})");
                }
                assert_eq!(count("serve.answers"), seeds.len() as u64, "{run}");
                assert!(count("serve.peer.rows_served") >= fetched, "{run}");
                assert!(local > 0, "{run}");
                assert!(fetched > 0, "3-way sharding must fetch foreign rows ({run})");
                if spec.is_none() {
                    assert_eq!(fallback, 0, "{run}");
                }
                // The stage histograms partition each shard's batch latency:
                // one sample per batch, and since the stages are disjoint
                // sub-intervals each floored to whole microseconds, the
                // parts can only round down further than the whole does.
                for frame in report.metrics.frames.values() {
                    let batches = frame.counter("serve.shard.batches");
                    if batches == 0 {
                        continue; // the frontend, or a shard killed before its first batch
                    }
                    let whole = &frame.histograms["serve.shard.latency_us"];
                    assert_eq!(whole.count, batches, "{run}");
                    let mut parts = 0;
                    for stage in ["closure_us", "gather_us", "forward_us"] {
                        let h = &frame.histograms[&format!("serve.shard.{stage}")];
                        assert_eq!(h.count, batches, "one {stage} sample per batch ({run})");
                        parts += h.sum;
                    }
                    assert!(parts <= whole.sum, "stages {parts} > batch {} ({run})", whole.sum);
                }
                // The frontend's legs partition each query's latency the
                // same way: the queue wait (stage included) ends where the
                // query first ships, and the dispatch leg starts at its
                // last ship.
                let front = &report.metrics.frames[&0];
                let leg = |key: &str| &front.histograms[key];
                let dispatch = leg("serve.dispatch_us");
                assert_eq!(dispatch.count, front.counter("serve.answers"), "{run}");
                let legs = leg("serve.queue.wait_us").sum + dispatch.sum;
                let whole = leg("serve.latency_us").sum;
                assert!(legs <= whole, "queue + dispatch {legs} > latency {whole} ({run})");
            }
        }
    }

    /// Runs `deploy` with a driver that pushes `seeds[i]` as query `i`
    /// `gaps[i]` after the frontend admitted query `i - 1`, so a frontend
    /// slow to start cannot find them queued together. A gap past the
    /// last seed holds the queue open that much longer.
    fn drive(deploy: &ServeDeployment<'_>, seeds: &[u32], gaps: &[Duration]) -> ServeReport {
        deploy
            .run_driver(|queue, _| {
                for (qid, &gap) in gaps.iter().enumerate() {
                    while !queue.is_empty() {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    std::thread::sleep(gap);
                    let Some(&seed) = seeds.get(qid) else { break };
                    let now = Instant::now();
                    let ticket = QueryTicket { qid: qid as u32, seed, sched: now, enqueued: now };
                    queue.try_push(ticket).unwrap();
                }
                seeds.len() as u64
            })
            .unwrap()
    }

    #[test]
    fn a_busy_shards_queries_ship_together_when_it_replies() {
        let (ds, model) = cora_deploy();
        let mut fault = FaultPlan::default();
        fault.push_spec("delay:reply:40ms@w1-w0").unwrap();
        let cfg = ServeConfig { shards: 1, fault, ..ServeConfig::default() };
        let deploy = ServeDeployment::new(&ds, &model, model.fresh_store(), cfg).unwrap();
        // q0 ships alone at once; q1..q9 land 10-18 ms later, while its
        // reply is 40 ms out, and ship as one batch when it lands.
        let mut gaps = vec![Duration::from_millis(1); 10];
        (gaps[0], gaps[1]) = (Duration::ZERO, Duration::from_millis(10));
        let report = drive(&deploy, &(0..10).collect::<Vec<u32>>(), &gaps);
        assert_eq!(report.answers.len(), 10);
        let front = &report.metrics.frames[&0];
        assert_eq!(front.counter("serve.batches"), 2);
        assert_eq!(front.histograms["serve.batch.size"].max, 9);
    }

    #[test]
    fn a_peer_fetch_that_lands_before_a_batch_is_answered_before_its_reply() {
        let (ds, model) = cora_deploy();
        let cfg = ServeConfig { shards: 2, ..ServeConfig::default() };
        let deploy = ServeDeployment::new(&ds, &model, model.fresh_store(), cfg).unwrap();
        let hops = model.num_layers();
        // A seed whose whole closure shard 1 owns: its batch fetches nothing,
        // so no fetch of its own is what reads the peer's link.
        let local = |v: u32| deploy.parts.owner(v) == 0;
        let seed = (0..ds.graph.num_vertices() as u32)
            .find(|&v| {
                let closure = khop_in_closure(&ds.graph, &[v], hops);
                closure.layers.iter().flatten().all(|&u| local(u))
            })
            .expect("some vertex's closure is local to shard 1");
        let mut eps = Fabric::new(3).into_endpoints().into_iter();
        let (front, ep, peer) = (eps.next().unwrap(), eps.next().unwrap(), eps.next().unwrap());
        let fetch = MessageKind::Query { qids: Vec::new(), verts: vec![seed] };
        peer.send(1, fetch).unwrap();
        front.send(1, MessageKind::Query { qids: vec![0], verts: vec![seed] }).unwrap();
        let mut shard = Shard::new(&deploy, ep, Instant::now());
        assert!(shard.poll_frontend().is_continue());
        let reply = front.try_recv_from(1).expect("the batch was answered");
        assert!(matches!(reply.kind, MessageKind::Reply { .. }), "{:?}", reply.kind);
        // The reply is out: the fetch queued before the batch must be too.
        let rows = peer.try_recv_from(1).expect("the fetch waited out the batch");
        assert!(matches!(rows.kind, MessageKind::Rows { .. }), "{:?}", rows.kind);
    }

    #[test]
    fn a_lone_query_does_not_wait_for_company() {
        let (ds, model) = cora_deploy();
        let deploy =
            ServeDeployment::new(&ds, &model, model.fresh_store(), ServeConfig::default())
                .unwrap();
        // Seeds alternate between the two shards, so each has 20 ms to
        // answer one query before its next.
        let n = ds.graph.num_vertices() as u32;
        let seeds: Vec<u32> = (0..30).map(|i| if i % 2 == 0 { i } else { n - i }).collect();
        // The 31st gap holds the queue open: a timed batcher ships early on close.
        let report = drive(&deploy, &seeds, &[Duration::from_millis(10); 31]);
        let wait = &report.metrics.frames[&0].histograms["serve.queue.wait_us"];
        assert_eq!(wait.count, 30);
        // A fixed 400 µs window would hold every one of these queries that
        // long. The bucketed median reads under 400 only when at least half
        // the waits do (below 256 µs, or all of them below 400), leaving a
        // debug build beside the rest of this suite room for scheduling.
        let median = wait.percentile(0.5);
        assert!(median < 400, "median queue wait {median} µs (mean {})", wait.mean());
    }

    #[test]
    fn an_idle_frontend_is_woken_by_a_push() {
        let (ds, model) = cora_deploy();
        // Nothing is in flight while it sleeps, and no reply deadline is
        // near: only the push's ring can wake the frontend before the close.
        let cfg = ServeConfig { shards: 1, reply_timeout_ms: 60_000, ..ServeConfig::default() };
        let deploy = ServeDeployment::new(&ds, &model, model.fresh_store(), cfg).unwrap();
        let hold_open = Duration::from_millis(3_000);
        let report = deploy
            .run_driver(|queue, _| {
                std::thread::sleep(Duration::from_millis(50));
                let now = Instant::now();
                queue.try_push(QueryTicket { qid: 0, seed: 0, sched: now, enqueued: now }).unwrap();
                std::thread::sleep(hold_open);
                1
            })
            .unwrap();
        assert_eq!(report.answers.len(), 1);
        let latency = Duration::from_micros(report.answers[0].latency_us);
        assert!(latency < hold_open / 2, "answered only at the close: {latency:?}");
    }

    #[test]
    fn a_closed_queue_ends_the_open_loop_schedule() {
        let (ds, model) = cora_deploy();
        let mut fault = FaultPlan::default();
        fault.push_spec("kill:w1@e0").unwrap();
        let cfg = ServeConfig { shards: 1, fault, ..ServeConfig::default() };
        let deploy = ServeDeployment::new(&ds, &model, model.fresh_store(), cfg).unwrap();
        // A 10 s schedule; the only shard dies on the first batch.
        let load = OpenLoop { queries: 1_000, rate_qps: 100.0, seed: 3, zipf_s: 0.0 };
        let t0 = Instant::now();
        let err = deploy.run_open_loop(&load).unwrap_err();
        assert!(matches!(err, ServeError::AllShardsLost { unanswered } if unanswered > 0));
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(3), "waited out the schedule: {took:?}");
    }

    #[test]
    fn a_killed_shards_closed_link_reroutes_its_batch_at_once() {
        let (ds, model) = cora_deploy();
        let mut fault = FaultPlan::default();
        fault.push_spec("kill:w2@e40").unwrap();
        // A deadline no run here outlasts: only the closed link can tell.
        let cfg =
            ServeConfig { shards: 2, reply_timeout_ms: 60_000, fault, ..ServeConfig::default() };
        let deploy = ServeDeployment::new(&ds, &model, model.fresh_store(), cfg).unwrap();
        let n = ds.graph.num_vertices() as u32;
        let seeds: Vec<u32> = (0..160u32).map(|i| (i * 137) % n).collect();
        let report = deploy.answer_all(&seeds).unwrap();
        assert_eq!(report.shard_deaths, 1);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.answers.len(), seeds.len());
        let slowest = report.answers.iter().map(|a| a.latency_us).max().unwrap();
        assert!(slowest < 60_000_000, "the killing batch waited out the deadline: {slowest} µs");
    }

    #[test]
    fn a_slow_only_shard_is_waited_for() {
        let (ds, model) = cora_deploy();
        let mut fault = FaultPlan::default();
        fault.push_spec("delay:reply:300ms@w1-w0").unwrap();
        let cfg = ServeConfig { shards: 1, reply_timeout_ms: 100, fault, ..ServeConfig::default() };
        let deploy = ServeDeployment::new(&ds, &model, model.fresh_store(), cfg).unwrap();
        let seeds: Vec<u32> = (0..6).collect();
        let report = deploy.answer_all(&seeds).unwrap();
        assert_eq!(report.answers.len(), seeds.len());
        assert_eq!(report.shard_deaths, 0, "a slow last shard is waited for");
    }

    #[test]
    fn a_silent_shard_is_declared_dead_once_its_peer_answers() {
        let (ds, model) = cora_deploy();
        let store = model.fresh_store();
        let reference = infer(&ds, &model, &store);
        let mut fault = FaultPlan::default();
        fault.push_spec("delay:reply:2000ms@w1-w0").unwrap();
        let cfg =
            ServeConfig { shards: 2, reply_timeout_ms: 100, fault, ..ServeConfig::default() };
        let deploy = ServeDeployment::new(&ds, &model, store, cfg).unwrap();
        // Four seeds per shard at once, then one more for w2 after w1's
        // replies have landed, so the run is still open to hear them.
        let (parts, n) = (deploy.partitioning(), ds.graph.num_vertices() as u32);
        let owned_by = |part| (0..n).filter(move |&v| parts.owner(v) == part);
        let seeds: Vec<u32> = owned_by(0).take(4).chain(owned_by(1).take(5)).collect();
        let mut gaps = vec![Duration::ZERO; 9];
        gaps[8] = Duration::from_millis(2_500);
        let report = drive(&deploy, &seeds, &gaps);
        assert_eq!(report.shard_deaths, 1);
        assert_eq!(report.answers.len(), seeds.len());
        for a in &report.answers {
            assert_eq!(a.class as usize, reference.predictions[a.seed as usize], "query {}", a.qid);
        }
        let stale = report.metrics.total_counter("serve.replies.stale");
        assert!(stale > 0, "w1's late replies must be heard and counted stale");
    }

    #[test]
    fn a_lone_shard_cut_off_from_the_frontend_is_lost_not_waited_on() {
        let (ds, model) = cora_deploy();
        let mut fault = FaultPlan::default();
        // Serving never leaves epoch 0: the link drops both ways all run.
        fault.push_spec("partition:w0-w1@e0-e1").unwrap();
        let cfg = ServeConfig { shards: 1, reply_timeout_ms: 50, fault, ..ServeConfig::default() };
        let deploy = ServeDeployment::new(&ds, &model, model.fresh_store(), cfg).unwrap();
        let err = deploy.answer_all(&(0..8).collect::<Vec<u32>>()).unwrap_err();
        assert!(matches!(err, ServeError::AllShardsLost { unanswered } if unanswered > 0));
    }

    #[test]
    fn a_cut_off_shard_with_an_idle_peer_is_timed_out() {
        let (ds, model) = cora_deploy();
        let store = model.fresh_store();
        let reference = infer(&ds, &model, &store);
        let mut fault = FaultPlan::default();
        fault.push_spec("partition:w0-w1@e0-e1").unwrap();
        let cfg =
            ServeConfig { shards: 2, reply_timeout_ms: 100, fault, ..ServeConfig::default() };
        let deploy = ServeDeployment::new(&ds, &model, store, cfg).unwrap();
        // Every seed is w1's, so w2 has nothing to reply with: no peer can
        // outlive w1's batch, and only the plain deadline finds it.
        let (parts, n) = (deploy.partitioning(), ds.graph.num_vertices() as u32);
        let seeds: Vec<u32> = (0..n).filter(|&v| parts.owner(v) == 0).take(24).collect();
        let report = deploy.answer_all(&seeds).unwrap();
        assert_eq!(report.shard_deaths, 1);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.answers.len(), seeds.len());
        for a in &report.answers {
            assert_eq!(a.class as usize, reference.predictions[a.seed as usize], "query {}", a.qid);
        }
    }

    #[test]
    fn open_loop_meters_latency_and_never_loses_queries() {
        let (ds, model) = cora_deploy();
        let store = model.fresh_store();
        let deploy =
            ServeDeployment::new(&ds, &model, store, ServeConfig::default()).unwrap();
        let load = OpenLoop { queries: 200, rate_qps: 2000.0, seed: 7, zipf_s: 0.9 };
        let report = deploy.run_open_loop(&load).unwrap();
        assert_eq!(report.offered, 200);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.answers.len() as u64 + report.rejected, 200);
        assert!(report.percentile_us(50.0) > 0);
        assert!(report.percentile_us(99.9) >= report.percentile_us(50.0));
        assert!(report.metrics.total_counter("serve.batches") > 0);
    }

    #[test]
    fn saturated_deployment_rejects_instead_of_blocking() {
        let (ds, model) = cora_deploy();
        let store = model.fresh_store();
        // A tiny queue + tiny inflight cap at a high offered rate must
        // produce rejects while every admitted query still completes.
        let cfg = ServeConfig {
            queue_capacity: 4,
            inflight_cap: 2,
            batch_max: 2,
            ..ServeConfig::default()
        };
        let deploy = ServeDeployment::new(&ds, &model, store, cfg).unwrap();
        let load = OpenLoop { queries: 400, rate_qps: 50_000.0, seed: 3, zipf_s: 0.9 };
        let report = deploy.run_open_loop(&load).unwrap();
        assert!(report.rejected > 0, "overload must surface as rejects");
        assert_eq!(report.dropped, 0, "admitted queries must all complete");
        assert_eq!(report.answers.len() as u64 + report.rejected, 400);
    }

    #[test]
    fn killed_shard_degrades_latency_but_drops_nothing() {
        let (ds, model) = cora_deploy();
        let store = model.fresh_store();
        let mut fault = FaultPlan::default();
        // Shard at endpoint 2 dies when it sees query id >= 40.
        fault.push_spec("kill:w2@e40").unwrap();
        // A patient deadline: the survivor answers the rerouted queries as
        // one batch, which the tests running beside this one can starve
        // past 150 ms, and a live shard must not be declared dead.
        let cfg = ServeConfig {
            shards: 2,
            reply_timeout_ms: 1_000,
            fault,
            ..ServeConfig::default()
        };
        let deploy = ServeDeployment::new(&ds, &model, store, cfg).unwrap();
        let n = ds.graph.num_vertices() as u32;
        let seeds: Vec<u32> = (0..160u32).map(|i| (i * 137) % n).collect();
        let report = deploy.answer_all(&seeds).unwrap();
        assert_eq!(report.dropped, 0, "shard loss must not drop queries");
        assert_eq!(report.answers.len(), seeds.len());
        assert_eq!(report.shard_deaths, 1);
        assert!(report.reroutes > 0, "orphaned queries must be rerouted");
        // Post-death queries owned by the dead shard still answer, via
        // the survivor's mirror fallback.
        assert!(report.metrics.total_counter("serve.rows.fallback") > 0);
    }

    #[test]
    fn a_failed_send_to_a_dead_shard_is_reported_as_a_reroute() {
        let (ds, model) = cora_deploy();
        let mut fault = FaultPlan::default();
        fault.push_spec("kill:w2@e40").unwrap();
        // The reply deadline outlasts the load, so the frontend learns of
        // the death from a failed send, not from a missed deadline.
        let cfg = ServeConfig {
            shards: 2,
            reply_timeout_ms: 10_000,
            fault,
            ..ServeConfig::default()
        };
        let deploy = ServeDeployment::new(&ds, &model, model.fresh_store(), cfg).unwrap();
        let load = OpenLoop { queries: 400, rate_qps: 2_000.0, seed: 3, zipf_s: 0.0 };
        let report = deploy.run_open_loop(&load).unwrap();
        assert_eq!(report.dropped, 0);
        assert_eq!(report.shard_deaths, 1);
        assert!(report.reroutes > 0, "queries bound for the dead shard must reroute");
        assert_eq!(report.reroutes, report.metrics.total_counter("serve.reroutes"));
    }

    #[test]
    fn losing_every_shard_is_an_error_not_a_hang() {
        let (ds, model) = cora_deploy();
        let mut fault = FaultPlan::default();
        fault.push_spec("kill:w1@e0").unwrap();
        // More seeds than the queue holds: once the only shard is gone the
        // patient driver must be turned away, not left retrying forever.
        let cfg = ServeConfig { shards: 1, queue_capacity: 4, fault, ..ServeConfig::default() };
        let deploy = ServeDeployment::new(&ds, &model, model.fresh_store(), cfg).unwrap();
        let seeds: Vec<u32> = (0..64).collect();
        let err = deploy.answer_all(&seeds).unwrap_err();
        assert!(matches!(err, ServeError::AllShardsLost { unanswered } if unanswered > 0));
    }

    #[test]
    fn flapped_link_hedges_to_mirror_and_drops_nothing() {
        let (ds, model) = cora_deploy();
        let store = model.fresh_store();
        let reference = infer(&ds, &model, &store);
        let mut fault = FaultPlan::default();
        // The w1-w2 link flaps slowly, starting down: the 200ms down
        // windows dwarf the 100ms fetch deadline, so fetches caught in
        // one are answered by the hedged mirror read long before the
        // held peer reply finally arrives. Cache off so every batch
        // pays a real fetch.
        fault.push_spec("flap:w1-w2:400ms:0.5").unwrap();
        let cfg = ServeConfig { shards: 2, cache_rows: 0, fault, ..ServeConfig::default() };
        let deploy = ServeDeployment::new(&ds, &model, store, cfg).unwrap();
        let n = ds.graph.num_vertices() as u32;
        let seeds: Vec<u32> = (0..160u32).map(|i| (i * 137) % n).collect();
        let report = deploy.answer_all(&seeds).unwrap();
        assert_eq!(report.dropped, 0, "flapping link must not drop queries");
        assert_eq!(report.answers.len(), seeds.len());
        for a in &report.answers {
            assert_eq!(
                a.class as usize, reference.predictions[a.seed as usize],
                "query {} seed {} diverged under a flapping link",
                a.qid, a.seed
            );
        }
        assert!(
            report.metrics.total_counter("serve.hedge.issued") > 0,
            "down-window fetches must issue hedges"
        );
        assert!(
            report.metrics.total_counter("serve.hedge.wins") > 0,
            "the mirror must win hedges against a held link"
        );
        // Hedge wins are mirror answers: metered as fallback, never lost.
        assert!(report.metrics.total_counter("serve.rows.fallback") > 0);
    }

    #[test]
    fn partitioned_peer_opens_breaker_and_serves_from_mirror() {
        let (ds, model) = cora_deploy();
        let store = model.fresh_store();
        let reference = infer(&ds, &model, &store);
        let mut fault = FaultPlan::default();
        // Serving never advances the fabric epoch past 0, so this window
        // black-holes the w1-w2 link for the entire run.
        fault.push_spec("partition:w1-w2@e0-e1").unwrap();
        let cfg = ServeConfig { shards: 2, cache_rows: 0, fault, ..ServeConfig::default() };
        let deploy = ServeDeployment::new(&ds, &model, store, cfg).unwrap();
        let n = ds.graph.num_vertices() as u32;
        let seeds: Vec<u32> = (0..160u32).map(|i| (i * 137) % n).collect();
        let report = deploy.answer_all(&seeds).unwrap();
        assert_eq!(report.dropped, 0, "partition must not drop queries");
        assert_eq!(report.answers.len(), seeds.len());
        for a in &report.answers {
            assert_eq!(
                a.class as usize, reference.predictions[a.seed as usize],
                "query {} seed {} diverged under a partitioned link",
                a.qid, a.seed
            );
        }
        // Consecutive black-holed fetches latch the breaker; everything
        // after comes from the mirror.
        assert!(report.metrics.total_counter("net.breaker.opens") >= 1);
        assert!(report.metrics.total_counter("serve.rows.fallback") > 0);
        assert_eq!(
            report.metrics.total_counter("serve.rows.fetched"),
            0,
            "a severed link cannot complete a peer fetch"
        );
        // The breaker is *correctly* open against a still-severed link —
        // the stuck-open meter must stay silent.
        assert_eq!(report.metrics.total_counter("net.breaker.stuck_open"), 0);
    }
}
