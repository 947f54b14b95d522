//! Online inference serving: a sharded, read-only deployment of a
//! trained checkpoint answering batched k-hop queries.
//!
//! Training (the paper's subject) produces a parameter replica; this
//! module is the deployment half the ROADMAP's north star needs. A
//! [`ServeDeployment`] spins up one frontend plus `S` shard workers on
//! the same [`Fabric`] the training engines use. Each query names a seed
//! vertex; the owning shard computes the seed's exact `L`-hop
//! in-neighborhood closure (Algorithm 2's dependency retrieval, reused
//! verbatim via [`khop_in_closure`]) and runs the model forward over the
//! closure sub-topology, which yields bit-identical logits to a
//! full-graph [`ns_gnn::inference::infer`] pass for the seed rows: every
//! row the forward *consumes* has its complete in-neighborhood inside
//! the closure, and restricted adjacency preserves aggregation order.
//!
//! The serving path exercises the same dependency machinery as training:
//! * features the shard does not own are fetched from the owning peer
//!   over the fabric (`Query` fetch → layer-0 `Rows` reply) and kept in
//!   a per-shard LRU [`FeatureCache`] with hit/miss/eviction metering —
//!   the cached-vs-fetched trade-off of the DepCache/DepComm engines,
//!   now on the read path;
//! * an unhealthy peer link degrades the fetch instead of failing the
//!   query: every peer sits behind a [`CircuitBreaker`] (consecutive
//!   fetch failures open it, a half-open probe after cooldown closes it
//!   again when the link heals), an open breaker skips straight to the
//!   replicated mirror behind a modeled slow-path penalty, and slow
//!   links are *hedged* — after a p99-derived hedge delay the shard
//!   starts the mirror read in parallel and takes whichever answer
//!   lands first (`serve.hedge.{issued,wins}`), bounding tail latency
//!   under flapping links;
//! * the frontend detects a dead shard by reply deadline and reroutes
//!   its outstanding queries to survivors — shard loss degrades latency,
//!   never drops queries.
//!
//! Admission is a bounded [`SubmitQueue`]: when the deployment is
//! saturated, [`SubmitQueue::try_push`] rejects with
//! [`ServeError::Saturated`] instead of blocking the caller — open-loop
//! load keeps its schedule and overload surfaces as a metered reject
//! rate, not as coordinated omission.

use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use ns_gnn::{GnnModel, LayerInput, LayerTopology};
use ns_graph::fx::FxHashMap;
use ns_graph::khop::khop_in_closure;
use ns_graph::{Dataset, Partitioner, Partitioning};
use ns_metrics::{MetricsFrame, MetricsRecorder, RunMetrics};
use ns_net::fabric::{Endpoint, Fabric, MessageKind};
use ns_net::fault::FaultPlan;
use ns_net::policy::{Budget, CircuitBreaker};
use ns_tensor::{ParamStore, Tensor};

use crate::obs::{export_breaker_stats, export_net_stats};

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
    /// Maximum queries per dispatched batch.
    pub batch_max: usize,
    /// Adaptive batch window: after the first query of a batch is
    /// dequeued, the dispatcher keeps accreting queries for at most this
    /// long before shipping the batch.
    pub batch_window_us: u64,
    /// Maximum queries outstanding at the shards. The dispatcher stops
    /// dequeuing beyond this, so sustained overload backs up into the
    /// bounded queue and surfaces as rejects.
    pub inflight_cap: usize,
    /// Per-shard LRU feature-cache capacity, in rows.
    pub cache_rows: usize,
    /// Frontend reply deadline: a shard with a batch older than this is
    /// declared dead and its outstanding queries are rerouted.
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
            batch_window_us: 400,
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
/// (the dispatcher) blocks with a deadline.
pub struct SubmitQueue<T> {
    cap: usize,
    inner: Mutex<QueueInner<T>>,
    cv: Condvar,
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
            cv: Condvar::new(),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
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
        self.cv.notify_one();
        Ok(())
    }

    /// Marks the queue closed; queued items remain poppable.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    /// Pops one item, waiting until `deadline`; `Ok(None)` means nothing
    /// arrived in time. [`ServeError::Closed`] means closed *and* drained —
    /// the consumer can stop.
    pub fn pop_deadline(&self, deadline: Instant) -> Result<Option<T>, ServeError> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(item) = inner.buf.pop_front() {
                return Ok(Some(item));
            }
            if inner.closed {
                return Err(ServeError::Closed);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let (guard, _) = self.cv.wait_timeout(inner, deadline - now).unwrap();
            inner = guard;
        }
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<T> {
        self.inner.lock().unwrap().buf.pop_front()
    }
}

/// Per-shard LRU cache of fetched feature rows, with hit/miss/eviction
/// meters. Lazy LRU: every touch appends `(vertex, tick)` to a recency
/// queue; eviction pops stale entries until it finds one whose tick
/// matches the live map.
pub struct FeatureCache {
    cap: usize,
    map: FxHashMap<u32, (Vec<f32>, u64)>,
    recency: VecDeque<(u32, u64)>,
    tick: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Rows evicted to stay within capacity.
    pub evictions: u64,
    /// Rows dropped by memory-pressure shedding (distinct from capacity
    /// evictions: these free heap for the budgeted tensor pool).
    pub sheds: u64,
}

impl FeatureCache {
    /// A cache holding at most `cap` rows (0 disables caching).
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            map: FxHashMap::default(),
            recency: VecDeque::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            sheds: 0,
        }
    }

    /// Rows currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks `v` up, metering the hit or miss and refreshing recency.
    pub fn lookup(&mut self, v: u32) -> Option<&[f32]> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(&v) {
            Some((_, t)) => {
                *t = tick;
                self.recency.push_back((v, tick));
                self.hits += 1;
                Some(&self.map[&v].0)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a fetched row, evicting the least-recently-used row(s) if
    /// at capacity.
    pub fn insert(&mut self, v: u32, row: Vec<f32>) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        if !self.map.contains_key(&v) {
            while self.map.len() >= self.cap && self.pop_lru() {
                self.evictions += 1;
            }
        }
        self.recency.push_back((v, self.tick));
        self.map.insert(v, (row, self.tick));
    }

    /// Drops least-recently-used rows until at most `target` remain.
    /// The memory-pressure relief valve: cached rows are the shard's one
    /// elastic allocation, so they go first when the tensor-pool budget
    /// tightens. Returns the number of rows dropped.
    pub fn shed_to(&mut self, target: usize) -> u64 {
        let mut dropped = 0u64;
        while self.map.len() > target && self.pop_lru() {
            dropped += 1;
        }
        self.sheds += dropped;
        dropped
    }

    /// Drops the least-recently-used row: pops the recency queue until an
    /// entry whose tick matches the live map. False when nothing is cached.
    fn pop_lru(&mut self) -> bool {
        while let Some((old, t)) = self.recency.pop_front() {
            if self.map.get(&old).is_some_and(|(_, lt)| *lt == t) {
                self.map.remove(&old);
                return true;
            }
        }
        // Recency queue exhausted (all entries stale): drop an arbitrary
        // row to make progress.
        let any = self.map.keys().next().copied();
        any.is_some_and(|k| self.map.remove(&k).is_some())
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
    /// Sorted answer latencies, µs.
    pub latencies_us: Vec<u64>,
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
        load::percentile_us(&self.latencies_us, p)
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
    /// of completion, and a saturated queue rejects.
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
                if queue.try_push(ticket).is_err() {
                    rejected.fetch_add(1, Ordering::Relaxed);
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
        let queue = SubmitQueue::new(self.cfg.queue_capacity);
        let rejected = AtomicU64::new(0);
        let origin = Instant::now();
        let frontend_ep =
            endpoints.next().expect("the fabric has the frontend's endpoint");
        let mut front = Frontend::new(self, &queue, frontend_ep, origin);
        let mut metrics = RunMetrics::new();

        let offered = std::thread::scope(|s| {
            let shards: Vec<_> = endpoints
                .map(|ep| s.spawn(move || Shard::new(self, ep, origin).run()))
                .collect();
            let driver = s.spawn(|| {
                let offered = driver(&queue, &rejected);
                queue.close();
                offered
            });
            metrics.absorb(front.run());
            let offered = driver.join().expect("load driver panicked");
            for shard in shards {
                metrics.absorb(shard.join().expect("shard thread panicked"));
            }
            offered
        });

        if !front.pending.is_empty() {
            return Err(ServeError::AllShardsLost { unanswered: front.pending.len() });
        }
        let Frontend { answers, deaths, reroutes, .. } = front;
        let rejected = rejected.load(Ordering::Relaxed);
        let mut latencies: Vec<u64> = answers.iter().map(|a| a.latency_us).collect();
        latencies.sort_unstable();
        let wall_ms = origin.elapsed().as_millis().max(1) as u64;
        let dropped = offered - rejected - answers.len() as u64;
        Ok(ServeReport {
            achieved_qps: answers.len() as f64 / (wall_ms as f64 / 1000.0),
            latencies_us: latencies,
            answers,
            rejected,
            offered,
            dropped,
            wall_ms,
            shard_deaths: deaths,
            reroutes,
            metrics,
        })
    }
}

/// How long an event loop with nothing to do sleeps before polling again.
const IDLE: Duration = Duration::from_micros(50);

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
    /// Last time each shard was heard from; a shard is only declared
    /// dead when it has an overdue batch AND has gone silent — a busy
    /// shard making progress on other batches is not dead.
    last_heard: Vec<Instant>,
    /// Admitted queries not yet answered, by query id.
    pending: FxHashMap<u32, Pending>,
    answers: Vec<Answer>,
    deaths: u64,
    reroutes: u64,
}

struct Pending {
    seed: u32,
    sched: Instant,
    /// Endpoint the query was last shipped to (0 until first routed).
    shard: usize,
    sent_at: Instant,
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
            last_heard: vec![Instant::now(); world],
            pending: FxHashMap::default(),
            answers: Vec::new(),
            deaths: 0,
            reroutes: 0,
        }
    }

    /// Event loop: runs until the queue is closed+drained and every
    /// admitted query is answered, or every shard has died (what is still
    /// in `pending` then is the loss the caller reports).
    fn run(&mut self) -> MetricsFrame {
        loop {
            self.drain_replies();
            self.reap_overdue();
            if !self.alive[1..].contains(&true) {
                return self.finish();
            }
            let drained = self.admit_batch();
            if drained && self.pending.is_empty() {
                return self.finish();
            }
        }
    }

    /// Matches the replies waiting on live shards' links to their queries.
    fn drain_replies(&mut self) {
        for w in 1..=self.cfg.shards {
            if !self.alive[w] {
                continue;
            }
            while let Some(msg) = self.ep.try_recv_from(w) {
                self.last_heard[w] = Instant::now();
                let MessageKind::Reply { qids, classes } = msg.kind else { continue };
                for (qid, class) in qids.into_iter().zip(classes) {
                    // A reroute may produce two replies for one qid; only
                    // the first one counts.
                    let Some(p) = self.pending.remove(&qid) else {
                        self.rec.incr("serve.replies.stale", 1);
                        continue;
                    };
                    let latency_us =
                        p.sched.elapsed().as_micros().min(u64::MAX as u128) as u64;
                    self.rec.observe("serve.latency_us", latency_us);
                    self.rec.incr("serve.answers", 1);
                    self.answers.push(Answer { qid, seed: p.seed, class, latency_us });
                }
            }
        }
    }

    /// Reply-deadline scan: declares shards with overdue batches dead
    /// and reroutes the queries outstanding at dead shards.
    fn reap_overdue(&mut self) {
        let now = Instant::now();
        let timeout = Duration::from_millis(self.cfg.reply_timeout_ms);
        for w in 1..=self.cfg.shards {
            let overdue = self.alive[w]
                && now.duration_since(self.last_heard[w]) > timeout
                && self
                    .pending
                    .values()
                    .any(|p| p.shard == w && now - p.sent_at > timeout);
            if overdue {
                self.mark_dead(w);
            }
        }
        let orphaned: Vec<(u32, u32)> = self
            .pending
            .iter()
            .filter(|(_, p)| !self.alive[p.shard])
            .map(|(&qid, p)| (qid, p.seed))
            .collect();
        if !orphaned.is_empty() {
            self.reroutes += orphaned.len() as u64;
            self.rec.incr("serve.reroutes", orphaned.len() as u64);
            self.route(orphaned);
        }
    }

    fn mark_dead(&mut self, w: usize) {
        if std::mem::replace(&mut self.alive[w], false) {
            self.deaths += 1;
            self.rec.incr("serve.deaths", 1);
        }
    }

    /// Admits one batch when under the inflight cap: the first query
    /// opens the adaptive window, the window accretes up to `batch_max`,
    /// the batch is routed. True when the queue is closed and drained.
    fn admit_batch(&mut self) -> bool {
        self.rec.observe("serve.queue.depth", self.queue.len() as u64);
        if self.pending.len() >= self.cfg.inflight_cap {
            std::thread::sleep(IDLE);
            return false;
        }
        let patience = Instant::now() + Duration::from_millis(1);
        let first = match self.queue.pop_deadline(patience) {
            Ok(Some(first)) => first,
            Ok(None) => return false,
            Err(_) => {
                // Closed and drained: just await outstanding replies
                // without spinning the lock.
                if !self.pending.is_empty() {
                    std::thread::sleep(IDLE);
                }
                return true;
            }
        };
        let mut batch = vec![first];
        let window_end = Instant::now() + Duration::from_micros(self.cfg.batch_window_us);
        while batch.len() < self.cfg.batch_max && Instant::now() < window_end {
            match self.queue.try_pop() {
                Some(t) => batch.push(t),
                None => std::thread::sleep(Duration::from_micros(20)),
            }
        }
        self.rec.incr("serve.queries", batch.len() as u64);
        self.rec.incr("serve.batches", 1);
        self.rec.observe("serve.batch.size", batch.len() as u64);
        let now = Instant::now();
        for t in &batch {
            self.rec
                .observe("serve.queue.wait_us", (now - t.enqueued).as_micros() as u64);
            let p = Pending { seed: t.seed, sched: t.sched, shard: 0, sent_at: now };
            self.pending.insert(t.qid, p);
        }
        self.route(batch.iter().map(|t| (t.qid, t.seed)).collect());
        false
    }

    /// Groups `(qid, seed)` pairs by owning shard (falling back to the
    /// least-loaded survivor when the owner is dead) and ships them.
    /// Send failures mark the target dead and re-enter routing.
    fn route(&mut self, mut todo: Vec<(u32, u32)>) {
        let shards = self.cfg.shards;
        while !todo.is_empty() {
            let mut by_shard: FxHashMap<usize, Vec<(u32, u32)>> = FxHashMap::default();
            let mut load_of = vec![0usize; shards + 1];
            for p in self.pending.values() {
                load_of[p.shard] += 1;
            }
            for pair in todo.drain(..) {
                let owner = self.parts.owner(pair.1) + 1;
                let target = if self.alive[owner] {
                    owner
                } else {
                    let survivor = (1..=shards)
                        .filter(|&w| self.alive[w])
                        .min_by_key(|&w| load_of[w]);
                    let Some(w) = survivor else { return }; // run() sees no shard alive
                    w
                };
                load_of[target] += 1;
                by_shard.entry(target).or_default().push(pair);
            }
            let now = Instant::now();
            for (w, batch) in by_shard {
                for (qid, _) in &batch {
                    if let Some(p) = self.pending.get_mut(qid) {
                        p.shard = w;
                        p.sent_at = now;
                    }
                }
                let (qids, verts) = batch.iter().copied().unzip();
                if self.ep.send(w, MessageKind::Query { qids, verts }).is_err() {
                    // Shard already gone: mark it and re-route these.
                    self.mark_dead(w);
                    self.rec.incr("serve.reroutes", batch.len() as u64);
                    todo.extend(batch);
                }
            }
        }
    }

    /// Broadcasts shutdown, folds fabric stats, and closes the frame.
    fn finish(&self) -> MetricsFrame {
        // Nobody drains the queue from here on: a patient driver retrying
        // on a full queue must see `Closed`, not spin on `Saturated`.
        self.queue.close();
        for w in 1..=self.cfg.shards {
            let _ = self.ep.send(w, MessageKind::Control(CTRL_SHUTDOWN));
        }
        export_net_stats(&self.rec, &self.ep.stats());
        self.rec.finish()
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
}

impl<'a> Shard<'a> {
    fn new(deploy: &'a ServeDeployment<'a>, ep: Endpoint, origin: Instant) -> Self {
        Shard {
            deploy,
            kill_at: deploy.cfg.fault.kill_epoch(ep.id()).map(|e| e as u32),
            rec: MetricsRecorder::new(ep.id(), origin),
            cache: FeatureCache::new(deploy.cfg.cache_rows),
            health: PeerHealth::new(ep.world(), &deploy.cfg),
            ep,
        }
    }

    /// Event loop, until the frontend says stop or a kill fault fires.
    /// Dropping the endpoint on return is what peers see as
    /// `PeerDisconnected`.
    fn run(mut self) -> MetricsFrame {
        while let ControlFlow::Continue(batched) = self.poll_frontend() {
            let served = self.serve_peers(None);
            if !batched && !served {
                std::thread::sleep(IDLE);
            }
        }
        self.finish()
    }

    /// Frontend traffic: one inference batch or the shutdown. `Break`
    /// ends the run; `Continue` says whether a message was handled.
    fn poll_frontend(&mut self) -> ControlFlow<(), bool> {
        let Some(msg) = self.ep.try_recv_from(0) else {
            return ControlFlow::Continue(false);
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
        ControlFlow::Continue(true)
    }

    /// Peer traffic: polls every peer shard but `except` once. True when
    /// anything arrived.
    fn serve_peers(&mut self, except: Option<usize>) -> bool {
        let mut worked = false;
        for src in 1..self.ep.world() {
            if src != self.ep.id() && Some(src) != except {
                worked |= self.poll_peer(src).is_some();
            }
        }
        worked
    }

    /// One non-blocking receive from peer shard `src`. A layer-0 feature
    /// fetch is answered on the spot with a `Rows` reply, in the event
    /// loop and inside a fetch of this shard's own alike. What arrived is
    /// handed back for the fetch in flight that awaits its `Rows`.
    fn poll_peer(&mut self, src: usize) -> Option<MessageKind> {
        let kind = self.ep.try_recv_from(src)?.kind;
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
        Some(kind)
    }

    /// The one exit, for a kill as for a shutdown: folds the cache,
    /// fabric and breaker meters into the frame and closes it.
    fn finish(self) -> MetricsFrame {
        self.rec.incr("serve.cache.hits", self.cache.hits);
        self.rec.incr("serve.cache.misses", self.cache.misses);
        self.rec.incr("serve.cache.evictions", self.cache.evictions);
        self.rec.incr("serve.cache.shed", self.cache.sheds);
        export_net_stats(&self.rec, &self.ep.stats());
        // A killed peer's breaker is rightly open for good.
        let killed = |peer| self.ep.faults().kill_epoch(peer).is_some();
        export_breaker_stats(&self.rec, &self.ep, &self.health.breakers, killed);
        self.rec.finish()
    }

    /// Computes exact predictions for `seeds` by running the model over
    /// the seeds' `L`-hop in-closure sub-topology, and replies. The three
    /// timed stages add up to `serve.shard.latency_us`.
    fn answer_batch(&mut self, qids: Vec<u32>, seeds: &[u32]) -> ControlFlow<()> {
        let t0 = Instant::now();
        let cum = self.timed("serve.shard.closure_us", |s| s.closure(seeds));
        let full = cum.last().expect("the closure has at least the seed layer");
        let x = self.timed("serve.shard.gather_us", |s| s.gather(full));
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
        let closure = khop_in_closure(&self.deploy.dataset.graph, seeds, hops);
        let mut cum: Vec<Vec<u32>> = Vec::with_capacity(hops + 1);
        cum.push(closure.layers[0].clone());
        for h in 1..=hops {
            let mut u = cum[h - 1].clone();
            u.extend_from_slice(&closure.layers[h]);
            u.sort_unstable();
            u.dedup();
            cum.push(u);
        }
        self.rec.incr("serve.shard.closure_rows", cum[hops].len() as u64);
        cum
    }

    /// Builds the `|verts| x d` layer-0 input matrix: owned rows are
    /// read locally, foreign rows come from the LRU cache, a hedged
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
    fn forward(&self, cum: &[Vec<u32>], x: Tensor, seeds: &[u32]) -> Vec<u32> {
        let model = self.deploy.model;
        let graph = &self.deploy.dataset.graph;
        let hops = model.num_layers();
        let mut h = x;
        for lz in 0..hops {
            let src_set = &cum[hops - lz];
            let dst_set = &cum[hops - 1 - lz];
            let row_of = |v: u32| -> u32 {
                src_set.binary_search(&v).expect("closure invariant: source present")
                    as u32
            };
            let lists: Vec<Vec<(u32, f32)>> = dst_set
                .iter()
                .map(|&v| {
                    graph
                        .in_neighbors(v)
                        .iter()
                        .zip(graph.in_weights(v))
                        .map(|(&u, &w)| (row_of(u), w))
                        .collect()
                })
                .collect();
            let dst_in_rows: Vec<u32> = dst_set.iter().map(|&v| row_of(v)).collect();
            let topo = LayerTopology::from_adjacency(src_set.len(), &lists, dst_in_rows);
            let run = model.layer(lz).forward(
                &self.deploy.params,
                &topo,
                LayerInput::Constant(h),
            );
            h = run.output().clone();
        }
        // cum[0] is the sorted, deduped seed set; map each query seed to
        // its row.
        let preds = h.argmax_rows();
        seeds
            .iter()
            .map(|s| preds[cum[0].binary_search(s).expect("seed row present")] as u32)
            .collect()
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

    /// One hedged peer fetch: ships the want-list, then polls for the
    /// `Rows` reply while *also servicing incoming fetches* — two
    /// shards fetching from each other, or a fetch cycle across three or
    /// more, must not deadlock. After a p99-derived hedge delay with no
    /// reply, a mirror read is started in parallel and the first side to
    /// finish wins (`serve.hedge.{issued,wins}`). Returns `None` when the
    /// caller should read the mirror: the mirror won the race, the peer
    /// is unreachable, or the fetch budget ran out.
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
        let budget = Budget::from_ms(cfg.fetch_timeout_ms);
        let hedge_after = Duration::from_micros(self.health.hedge_delay_us(cfg));
        let mut mirror_ready: Option<Instant> = None;
        let d = self.deploy.dataset.feature_dim();
        loop {
            match self.poll_peer(peer) {
                Some(MessageKind::Rows { ids, data, .. }) if ids == want => {
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
                Some(MessageKind::Rows { .. }) => self.rec.incr("serve.fetch.stale", 1),
                _ => {}
            }
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
            if budget.exhausted() {
                self.rec.incr("serve.fetch.timeouts", 1);
                self.rec.incr("net.deadline.exhausted", 1);
                return self.fetch_failed(peer);
            }
            std::thread::sleep(Duration::from_micros(20));
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
        let deadline = Instant::now() + Duration::from_millis(10);
        assert_eq!(q.pop_deadline(deadline), Ok(Some(1)));
        assert_eq!(q.pop_deadline(deadline), Err(ServeError::Closed));
    }

    #[test]
    fn submit_queue_pop_times_out_when_empty_and_open() {
        let q: SubmitQueue<u32> = SubmitQueue::new(8);
        let deadline = Instant::now() + Duration::from_millis(5);
        assert_eq!(q.pop_deadline(deadline), Ok(None));
    }

    #[test]
    fn feature_cache_meters_hits_misses_and_evicts_lru() {
        let mut c = FeatureCache::new(2);
        assert!(c.lookup(1).is_none());
        c.insert(1, vec![1.0]);
        c.insert(2, vec![2.0]);
        assert_eq!(c.lookup(1).unwrap(), &[1.0]); // 1 is now most recent
        c.insert(3, vec![3.0]); // evicts 2, the least recent
        assert!(c.lookup(2).is_none());
        assert_eq!(c.lookup(1).unwrap(), &[1.0]);
        assert_eq!(c.lookup(3).unwrap(), &[3.0]);
        assert_eq!(c.evictions, 1);
        assert_eq!(c.hits, 3);
        assert_eq!(c.misses, 2);
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
    fn feature_cache_sheds_lru_rows_under_pressure() {
        let mut c = FeatureCache::new(8);
        for v in 0..8u32 {
            c.insert(v, vec![v as f32]);
        }
        assert_eq!(c.lookup(0).unwrap(), &[0.0]); // 0 becomes most recent
        let dropped = c.shed_to(4);
        assert_eq!(dropped, 4);
        assert_eq!(c.len(), 4);
        assert_eq!(c.sheds, 4);
        // The refreshed row survived; the stalest ones went first.
        assert!(c.lookup(0).is_some());
        assert!(c.lookup(1).is_none());
        // Shedding to the current size (or above) is a no-op.
        assert_eq!(c.shed_to(10), 0);
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
        for cache_rows in [4096, 0] {
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
            }
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
        let cfg = ServeConfig {
            shards: 2,
            reply_timeout_ms: 150,
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
