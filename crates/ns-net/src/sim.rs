//! Discrete-event simulation of one training epoch on a modeled cluster.
//!
//! Engines emit a [`TaskGraph`] describing the epoch: compute tasks
//! weighted in FLOPs, point-to-point transfers weighted in bytes, and
//! dependency edges encoding the execution schedule (ring order, per-chunk
//! pipelining or layer barriers). [`simulate`] replays the graph against a
//! [`ClusterSpec`] and returns the makespan plus per-resource busy
//! timelines, which the benchmarks turn into per-epoch runtimes and the
//! GPU/CPU/network utilization traces of the paper's Fig. 13.
//!
//! Resource model per worker node:
//!
//! * `Device` — executes compute tasks one at a time
//!   (`flops / gflops + launch_overhead`).
//! * `NicOut` — serializes egress: each send occupies it for
//!   `enqueue_time + bytes / bandwidth`, where the enqueue time depends on
//!   the graph's enqueue discipline ([`TaskGraph::locked_enqueue`]).
//! * `NicIn` — serializes ingress: `bytes / bandwidth`, inflated by the
//!   incast penalty when other messages are already queued (the congestion
//!   the ring schedule exists to avoid).
//!
//! Transfers traverse `NicOut → (wire latency) → NicIn`; a task completes
//! when its ingress finishes (store-and-forward).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::cluster::ClusterSpec;

/// Handle to a task in a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

/// The work a task performs.
#[derive(Debug, Clone)]
pub enum TaskKind {
    /// `flops` of device compute on `worker`.
    Compute {
        /// Executing worker.
        worker: usize,
        /// Task weight in floating-point operations.
        flops: u64,
        /// Whether the kernel is sparse (memory-bandwidth-bound gather/
        /// aggregate) or dense (matmul-style); they run at very different
        /// sustained rates.
        sparse: bool,
    },
    /// A message of `bytes` from `src` to `dst`.
    Send {
        /// Sending worker.
        src: usize,
        /// Receiving worker.
        dst: usize,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Zero-cost synchronization point (used to encode layer barriers
    /// without quadratic edge counts).
    Barrier,
}

#[derive(Debug, Clone)]
struct Task {
    kind: TaskKind,
    deps: Vec<TaskId>,
}

/// A DAG of compute/transfer tasks for one epoch (or any schedulable
/// unit).
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    /// Every send enqueues through a mutex-protected queue instead of the
    /// lock-free buffer of §4.3 (the default), at the slower host-side
    /// rate.
    pub locked_enqueue: bool,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    fn push(&mut self, kind: TaskKind, deps: Vec<TaskId>) -> TaskId {
        for d in &deps {
            assert!(d.0 < self.tasks.len(), "dependency on unknown task");
        }
        self.tasks.push(Task { kind, deps });
        TaskId(self.tasks.len() - 1)
    }

    /// Adds a dense compute task (matmul-style kernels).
    pub fn compute(&mut self, worker: usize, flops: u64, deps: Vec<TaskId>) -> TaskId {
        self.push(TaskKind::Compute { worker, flops, sparse: false }, deps)
    }

    /// Adds a sparse compute task (gather/aggregate kernels).
    pub fn compute_sparse(&mut self, worker: usize, flops: u64, deps: Vec<TaskId>) -> TaskId {
        self.push(TaskKind::Compute { worker, flops, sparse: true }, deps)
    }

    /// Adds a transfer task.
    pub fn send(&mut self, src: usize, dst: usize, bytes: u64, deps: Vec<TaskId>) -> TaskId {
        self.push(TaskKind::Send { src, dst, bytes }, deps)
    }

    /// Adds a zero-cost barrier depending on `deps`.
    pub fn barrier(&mut self, deps: Vec<TaskId>) -> TaskId {
        self.push(TaskKind::Barrier, deps)
    }

    /// Total bytes transferred.
    pub fn total_bytes(&self) -> u64 {
        self.tasks
            .iter()
            .map(|t| match t.kind {
                TaskKind::Send { bytes, .. } => bytes,
                _ => 0,
            })
            .sum()
    }

    /// Total compute FLOPs.
    pub fn total_flops(&self) -> u64 {
        self.tasks
            .iter()
            .map(|t| match t.kind {
                TaskKind::Compute { flops, .. } => flops,
                _ => 0,
            })
            .sum()
    }
}

/// Per-worker resources tracked by the simulator, declared in the order of
/// a [`SimReport::busy`] entry's slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResourceKind {
    /// The accelerator.
    Device,
    /// Egress NIC (includes host-side enqueue work).
    NicOut,
    /// Ingress NIC.
    NicIn,
}

impl ResourceKind {
    /// Every kind, in slot order.
    pub const ALL: [ResourceKind; 3] = [Self::Device, Self::NicOut, Self::NicIn];

    /// The name of the kind's track in the trace sink.
    pub fn name(self) -> &'static str {
        match self {
            Self::Device => "device",
            Self::NicOut => "nic_out",
            Self::NicIn => "nic_in",
        }
    }
}

/// Simulation output.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Time at which the last task finishes.
    pub makespan: f64,
    /// Finish time per task.
    pub finish: Vec<f64>,
    /// Busy intervals `(start, end)` per worker per resource:
    /// `busy[worker][kind as usize]`.
    pub busy: Vec<[Vec<(f64, f64)>; 3]>,
}

impl SimReport {
    /// Fraction of `[0, end)` each bucket of width `bucket` spends busy on
    /// `(worker, kind)`; the utilization time-series of Fig. 13.
    pub fn utilization(
        &self,
        worker: usize,
        kind: ResourceKind,
        bucket: f64,
        end: f64,
    ) -> Vec<f64> {
        let buckets = (end / bucket).ceil() as usize;
        let mut out = vec![0.0; buckets.max(1)];
        for &(s, e) in &self.busy[worker][kind as usize] {
            // Walk bucket indices, not times: `(b + 1) * bucket / bucket`
            // can round back down to `b`, and a loop that recomputes the
            // bucket from `t` then never leaves it.
            let (mut t, mut b) = (s, (s / bucket) as usize);
            while t < e && b < out.len() {
                let bucket_end = (b as f64 + 1.0) * bucket;
                out[b] += (e.min(bucket_end) - t).max(0.0) / bucket;
                t = t.max(bucket_end);
                b += 1;
            }
        }
        out
    }

    /// Total busy seconds of `kind` summed over all workers.
    pub fn total_busy(&self, kind: ResourceKind) -> f64 {
        self.busy
            .iter()
            .map(|w| w[kind as usize].iter().map(|(s, e)| e - s).sum::<f64>())
            .sum()
    }

    /// Mean utilization of `kind` over `[0, makespan)` across workers.
    pub fn mean_utilization(&self, kind: ResourceKind) -> f64 {
        if self.makespan <= 0.0 || self.busy.is_empty() {
            return 0.0;
        }
        self.total_busy(kind) / (self.makespan * self.busy.len() as f64)
    }
}

/// Wrapper giving `f64` a total order for the event heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Time(f64);
impl Eq for Time {}
impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The heap orders `(time, seq, Event)` and `seq` is unique, so the derived
/// order of `Event` (which the tuple needs) never decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// All dependencies of the task finished; route it to its resource.
    Ready(TaskId),
    /// `(worker, kind)` finished its current job, a stage of the task.
    Done(usize, ResourceKind, TaskId),
    /// A message finished its wire latency and arrives at dst's ingress.
    Arrive(TaskId),
}

/// One resource: when its current job started (`None` while idle), the
/// FIFO of waiting `(task, service seconds)` jobs, and its busy intervals.
#[derive(Debug, Default)]
struct Resource {
    started: Option<f64>,
    queue: VecDeque<(TaskId, f64)>,
    intervals: Vec<(f64, f64)>,
}

/// The event loop's state.
struct Sim {
    incast_penalty: f64,
    heap: BinaryHeap<Reverse<(Time, u64, Event)>>,
    seq: u64,
    remaining: Vec<usize>,
    dependents: Vec<Vec<TaskId>>,
    finish: Vec<f64>,
    completed: usize,
    resources: Vec<[Resource; 3]>,
}

impl Sim {
    fn schedule(&mut self, at: f64, ev: Event) {
        self.heap.push(Reverse((Time(at), self.seq, ev)));
        self.seq += 1;
    }

    /// Queues `task` on `(worker, kind)` and starts it if the resource is
    /// idle. An ingress transfer is inflated by the incast penalty once per
    /// message already there.
    fn offer(&mut self, now: f64, worker: usize, kind: ResourceKind, task: TaskId, service: f64) {
        let res = &mut self.resources[worker][kind as usize];
        let idle = res.started.is_none();
        let occupancy = res.queue.len() + usize::from(!idle);
        let service = match kind {
            ResourceKind::NicIn => service * (1.0 + self.incast_penalty * occupancy as f64),
            _ => service,
        };
        res.queue.push_back((task, service));
        if idle {
            self.start(now, worker, kind);
        }
    }

    /// Starts the next queued job, if any, on the idle `(worker, kind)`.
    fn start(&mut self, now: f64, worker: usize, kind: ResourceKind) {
        let res = &mut self.resources[worker][kind as usize];
        if let Some((task, service)) = res.queue.pop_front() {
            res.started = Some(now);
            self.schedule(now + service, Event::Done(worker, kind, task));
        }
    }

    /// Records the finished job's busy interval and starts the next one.
    fn release(&mut self, now: f64, worker: usize, kind: ResourceKind) {
        let res = &mut self.resources[worker][kind as usize];
        if let Some(started) = res.started.take() {
            res.intervals.push((started, now));
        }
        self.start(now, worker, kind);
    }

    /// Finishes `task` and readies every dependent whose last dependency
    /// it was.
    fn complete(&mut self, now: f64, task: TaskId) {
        self.finish[task.0] = now;
        self.completed += 1;
        for dep in std::mem::take(&mut self.dependents[task.0]) {
            self.remaining[dep.0] -= 1;
            if self.remaining[dep.0] == 0 {
                self.schedule(now, Event::Ready(dep));
            }
        }
    }
}

/// Runs the event simulation.
///
/// # Panics
/// Panics if the task graph references workers outside
/// `0..spec.workers`, or contains a dependency cycle (tasks then never
/// become ready; detected at the end).
pub fn simulate(graph: &TaskGraph, spec: &ClusterSpec) -> SimReport {
    let n = graph.tasks.len();
    let mut dependents = vec![Vec::new(); n];
    for (i, t) in graph.tasks.iter().enumerate() {
        for d in &t.deps {
            dependents[d.0].push(TaskId(i));
        }
        let in_range = match t.kind {
            TaskKind::Compute { worker, .. } => worker < spec.workers,
            TaskKind::Send { src, dst, .. } => src < spec.workers && dst < spec.workers,
            TaskKind::Barrier => true,
        };
        assert!(in_range, "worker out of range");
    }
    let enqueue_bps = if graph.locked_enqueue {
        spec.net.enqueue_locked_bps
    } else {
        spec.net.enqueue_lockfree_bps
    };
    let mut sim = Sim {
        incast_penalty: spec.net.incast_penalty,
        heap: BinaryHeap::new(),
        seq: 0,
        remaining: graph.tasks.iter().map(|t| t.deps.len()).collect(),
        dependents,
        finish: vec![f64::NAN; n],
        completed: 0,
        resources: (0..spec.workers).map(|_| Default::default()).collect(),
    };
    for (i, t) in graph.tasks.iter().enumerate() {
        if t.deps.is_empty() {
            sim.schedule(0.0, Event::Ready(TaskId(i)));
        }
    }

    while let Some(Reverse((Time(now), _, ev))) = sim.heap.pop() {
        match ev {
            Event::Ready(task) => match graph.tasks[task.0].kind {
                TaskKind::Compute { worker, flops, sparse } => {
                    let service = if sparse {
                        spec.sparse_compute_seconds(flops)
                    } else {
                        spec.compute_seconds(flops)
                    } + spec.device.launch_overhead_s;
                    sim.offer(now, worker, ResourceKind::Device, task, service);
                }
                TaskKind::Send { src, bytes, .. } => {
                    let service = bytes as f64 / enqueue_bps + spec.wire_seconds(bytes);
                    sim.offer(now, src, ResourceKind::NicOut, task, service);
                }
                TaskKind::Barrier => sim.complete(now, task),
            },
            Event::Done(worker, kind, task) => {
                sim.release(now, worker, kind);
                if kind == ResourceKind::NicOut {
                    // Egress done: the message departs and arrives after
                    // the wire latency.
                    sim.schedule(now + spec.net.latency_s, Event::Arrive(task));
                } else {
                    sim.complete(now, task);
                }
            }
            Event::Arrive(task) => {
                let TaskKind::Send { dst, bytes, .. } = graph.tasks[task.0].kind else {
                    unreachable!("arrival of non-send task");
                };
                sim.offer(now, dst, ResourceKind::NicIn, task, spec.wire_seconds(bytes));
            }
        }
    }

    assert_eq!(
        sim.completed, n,
        "simulation deadlock: {} of {} tasks completed (cycle in task graph?)",
        sim.completed, n
    );
    SimReport {
        makespan: sim.finish.iter().cloned().fold(0.0, f64::max),
        finish: sim.finish,
        busy: sim.resources.into_iter().map(|r| r.map(|res| res.intervals)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        // Simple round numbers: 1 GFLOP/s device, no launch overhead,
        // 8 Gbps = 1 GB/s wire, no latency, no incast.
        let mut s = ClusterSpec::aliyun_ecs(4);
        s.device.dense_gflops = 1.0;
        s.device.sparse_gflops = 1.0;
        s.device.launch_overhead_s = 0.0;
        s.net.bandwidth_gbps = 8.0;
        s.net.latency_s = 0.0;
        s.net.incast_penalty = 0.0;
        s.net.enqueue_lockfree_bps = f64::INFINITY;
        s.net.enqueue_locked_bps = f64::INFINITY;
        s
    }

    #[test]
    fn empty_graph_is_instant() {
        let g = TaskGraph::new();
        let r = simulate(&g, &spec());
        assert_eq!(r.makespan, 0.0);
    }

    #[test]
    fn single_compute_duration() {
        let mut g = TaskGraph::new();
        g.compute(0, 2_000_000_000, vec![]);
        let r = simulate(&g, &spec());
        assert!((r.makespan - 2.0).abs() < 1e-9);
        assert!((r.total_busy(ResourceKind::Device) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn chain_serializes_and_parallel_overlaps() {
        let mut g = TaskGraph::new();
        let a = g.compute(0, 1_000_000_000, vec![]);
        g.compute(0, 1_000_000_000, vec![a]);
        let r = simulate(&g, &spec());
        assert!((r.makespan - 2.0).abs() < 1e-9);

        let mut g2 = TaskGraph::new();
        g2.compute(0, 1_000_000_000, vec![]);
        g2.compute(1, 1_000_000_000, vec![]);
        let r2 = simulate(&g2, &spec());
        assert!((r2.makespan - 1.0).abs() < 1e-9);
    }

    #[test]
    fn same_device_serializes_even_without_deps() {
        let mut g = TaskGraph::new();
        g.compute(0, 1_000_000_000, vec![]);
        g.compute(0, 1_000_000_000, vec![]);
        let r = simulate(&g, &spec());
        assert!((r.makespan - 2.0).abs() < 1e-9);
    }

    #[test]
    fn send_traverses_out_wire_in() {
        let mut g = TaskGraph::new();
        // 1 GB at 1 GB/s: 1 s egress + 1 s ingress (store-and-forward).
        g.send(0, 1, 1_000_000_000, vec![]);
        let r = simulate(&g, &spec());
        assert!((r.makespan - 2.0).abs() < 1e-6, "makespan {}", r.makespan);
        let ingress = r.utilization(1, ResourceKind::NicIn, 1.0, 2.0);
        assert!((ingress[1] - 1.0).abs() < 1e-6 && ingress[0] == 0.0, "{ingress:?}");
    }

    #[test]
    fn latency_adds_once_per_message() {
        let mut s = spec();
        s.net.latency_s = 0.5;
        let mut g = TaskGraph::new();
        g.send(0, 1, 1_000_000_000, vec![]);
        let r = simulate(&g, &s);
        assert!((r.makespan - 2.5).abs() < 1e-6);
    }

    #[test]
    fn incast_inflates_concurrent_arrivals() {
        let mut s = spec();
        s.net.incast_penalty = 0.5;
        // Three senders to worker 0 simultaneously.
        let mut g = TaskGraph::new();
        for src in 1..4 {
            g.send(src, 0, 1_000_000_000, vec![]);
        }
        let burst = simulate(&g, &s).makespan;

        // Same burst on a penalty-free network: 1 s shared egress (three
        // different senders in parallel) + 3 x 1 s serialized ingress.
        let mut s2 = s.clone();
        s2.net.incast_penalty = 0.0;
        let clean = simulate(&g, &s2).makespan;
        assert!((clean - 4.0).abs() < 1e-6, "clean {clean}");
        // With penalty 0.5: second message queued behind one (x1.5) and
        // third behind two (x2.0) => 1 + 1 + 1.5 + 2 = 5.5 s.
        assert!((burst - 5.5).abs() < 1e-6, "burst {burst}");
    }

    #[test]
    fn locked_enqueue_is_slower() {
        let mut s = spec();
        s.net.enqueue_lockfree_bps = 10e9;
        s.net.enqueue_locked_bps = 1e9;
        let mut g = TaskGraph::new();
        g.send(0, 1, 1_000_000_000, vec![]);
        let fast = simulate(&g, &s).makespan;
        g.locked_enqueue = true;
        let slow = simulate(&g, &s).makespan;
        assert!(slow > fast + 0.5, "slow {slow} fast {fast}");
    }

    #[test]
    fn barrier_orders_phases() {
        let mut g = TaskGraph::new();
        let sends: Vec<_> = (1..4).map(|s| g.send(s, 0, 1_000_000, vec![])).collect();
        let bar = g.barrier(sends);
        g.compute(0, 1_000_000_000, vec![bar]);
        let r = simulate(&g, &spec());
        // Compute starts only after all sends complete.
        let send_finish = r.finish[..3].iter().cloned().fold(0.0, f64::max);
        assert!(r.finish[4] >= send_finish + 1.0 - 1e-9);
    }

    #[test]
    fn overlap_beats_barrier_for_chunked_pipeline() {
        // 4 chunks arriving at worker 0, each followed by compute on it.
        let chunk_bytes = 500_000_000; // 0.5 s wire each
        let chunk_flops = 500_000_000; // 0.5 s compute each
        let mut pipelined = TaskGraph::new();
        for src in 1..4 {
            let s = pipelined.send(src, 0, chunk_bytes, vec![]);
            pipelined.compute(0, chunk_flops, vec![s]);
        }
        let mut barriered = TaskGraph::new();
        let sends: Vec<_> =
            (1..4).map(|src| barriered.send(src, 0, chunk_bytes, vec![])).collect();
        let bar = barriered.barrier(sends);
        for _ in 1..4 {
            barriered.compute(0, chunk_flops, vec![bar]);
        }
        let p = simulate(&pipelined, &spec()).makespan;
        let b = simulate(&barriered, &spec()).makespan;
        assert!(p < b, "pipelined {p} should beat barriered {b}");
    }

    #[test]
    fn utilization_buckets_sum_to_busy_time() {
        let mut g = TaskGraph::new();
        g.compute(0, 3_000_000_000, vec![]);
        let r = simulate(&g, &spec());
        let u = r.utilization(0, ResourceKind::Device, 1.0, 4.0);
        let total: f64 = u.iter().sum::<f64>() * 1.0;
        assert!((total - 3.0).abs() < 1e-6);
        assert!((r.mean_utilization(ResourceKind::Device) - 3.0 / (3.0 * 4.0)).abs() < 1e-9);
    }

    /// A bucket edge that divides back into its own bucket
    /// (`11 * w / w == 10.999…` for this width) used to spin forever; it is
    /// what hung `fig13` under the in-tree generator's makespans.
    #[test]
    fn utilization_terminates_when_a_bucket_edge_rounds_down() {
        let makespan = 0.06864336754504867;
        let bucket = makespan / 20.0;
        assert_eq!(((11.0 * bucket) / bucket) as usize, 10, "the rounding this test is about");
        let r = SimReport {
            makespan,
            finish: vec![makespan],
            busy: vec![[vec![(0.0, makespan)], vec![], vec![]]],
        };
        let u = r.utilization(0, ResourceKind::Device, bucket, makespan);
        assert!(u.len() >= 20);
        assert!(u[..20].iter().all(|&x| (x - 1.0).abs() < 1e-9), "{u:?}");
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn cycle_detection_panics() {
        // Construct a cycle by hand: task 1 depends on task 2 is not
        // expressible through the builder (deps must exist), so emulate a
        // deadlock with a dependency on a task that can never run: a task
        // depending on itself via two barriers is also impossible —
        // instead build a graph whose dependency is never satisfied by
        // tampering: a barrier depending on a task that is its own
        // dependent cannot be built, so we assert builder safety instead.
        let mut g = TaskGraph::new();
        let a = g.barrier(vec![]);
        let mut g2 = g.clone();
        let _ = a;
        // Force an inconsistent graph through clone surgery: drop tasks but
        // keep a dependent around.
        g2.tasks[0].deps.push(TaskId(0)); // self-dependency => never ready
        simulate(&g2, &spec());
    }
}
