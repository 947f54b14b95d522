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
//!   whether the lock-free message buffer is enabled.
//! * `NicIn` — serializes ingress: `bytes / bandwidth`, inflated by the
//!   incast penalty when other messages are already queued (the congestion
//!   the ring schedule exists to avoid).
//!
//! Transfers traverse `NicOut → (wire latency) → NicIn`; a task completes
//! when its ingress finishes (store-and-forward).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::cluster::{ClusterSpec, ExecOptions};

/// Handle to a task in a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// Per-worker resources tracked by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// The accelerator.
    Device,
    /// Egress NIC (includes host-side enqueue work).
    NicOut,
    /// Ingress NIC.
    NicIn,
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
    /// Ingress completion events per worker: `(time, bytes)`.
    pub bytes_in: Vec<Vec<(f64, u64)>>,
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
        let idx = kind_index(kind);
        let buckets = (end / bucket).ceil() as usize;
        let mut out = vec![0.0; buckets.max(1)];
        for &(s, e) in &self.busy[worker][idx] {
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
        let idx = kind_index(kind);
        self.busy
            .iter()
            .map(|w| w[idx].iter().map(|(s, e)| e - s).sum::<f64>())
            .sum()
    }

    /// Mean utilization of `kind` over `[0, makespan)` across workers.
    pub fn mean_utilization(&self, kind: ResourceKind) -> f64 {
        if self.makespan <= 0.0 || self.busy.is_empty() {
            return 0.0;
        }
        self.total_busy(kind) / (self.makespan * self.busy.len() as f64)
    }

    /// Total bytes received cluster-wide.
    pub fn total_bytes_in(&self) -> u64 {
        self.bytes_in
            .iter()
            .map(|w| w.iter().map(|&(_, b)| b).sum::<u64>())
            .sum()
    }
}

fn kind_index(kind: ResourceKind) -> usize {
    match kind {
        ResourceKind::Device => 0,
        ResourceKind::NicOut => 1,
        ResourceKind::NicIn => 2,
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

#[derive(Debug, Clone, Copy)]
enum Event {
    /// All dependencies of the task finished; route it to its resource.
    Ready(TaskId),
    /// The job occupying `(worker, kind)` finished its current stage.
    Done(usize, usize, TaskId),
    /// A message finished its wire latency and arrives at dst's ingress.
    Arrive(TaskId),
}

#[derive(Debug, Clone, Copy)]
struct Job {
    task: TaskId,
    service: f64,
}

#[derive(Debug, Default)]
struct Resource {
    busy_with: Option<Job>,
    queue: VecDeque<Job>,
    intervals: Vec<(f64, f64)>,
    started_at: f64,
}

/// Runs the event simulation.
///
/// # Panics
/// Panics if the task graph references workers outside
/// `0..spec.workers`, or contains a dependency cycle (tasks then never
/// become ready; detected at the end).
pub fn simulate(graph: &TaskGraph, spec: &ClusterSpec, opts: &ExecOptions) -> SimReport {
    let w = spec.workers;
    let enqueue_bps = if opts.lock_free {
        spec.net.enqueue_lockfree_bps
    } else {
        spec.net.enqueue_locked_bps
    };

    let n = graph.tasks.len();
    let mut remaining: Vec<usize> = graph.tasks.iter().map(|t| t.deps.len()).collect();
    let mut ready_time: Vec<f64> = vec![0.0; n];
    let mut dependents: Vec<Vec<TaskId>> = vec![Vec::new(); n];
    for (i, t) in graph.tasks.iter().enumerate() {
        for d in &t.deps {
            dependents[d.0].push(TaskId(i));
        }
        match t.kind {
            TaskKind::Compute { worker, .. } => assert!(worker < w, "worker out of range"),
            TaskKind::Send { src, dst, .. } => {
                assert!(src < w && dst < w, "worker out of range");
            }
            TaskKind::Barrier => {}
        }
    }

    let mut finish = vec![f64::NAN; n];
    let mut resources: Vec<[Resource; 3]> = (0..w)
        .map(|_| [Resource::default(), Resource::default(), Resource::default()])
        .collect();
    let mut bytes_in: Vec<Vec<(f64, u64)>> = vec![Vec::new(); w];

    let mut heap: BinaryHeap<Reverse<(Time, u64, usize)>> = BinaryHeap::new();
    let mut events: Vec<Event> = Vec::new();
    let mut seq = 0u64;
    let push = |heap: &mut BinaryHeap<Reverse<(Time, u64, usize)>>,
                    events: &mut Vec<Event>,
                    seq: &mut u64,
                    t: f64,
                    ev: Event| {
        events.push(ev);
        heap.push(Reverse((Time(t), *seq, events.len() - 1)));
        *seq += 1;
    };

    for (i, t) in graph.tasks.iter().enumerate() {
        if t.deps.is_empty() {
            push(&mut heap, &mut events, &mut seq, 0.0, Event::Ready(TaskId(i)));
        }
    }

    // Starts `job` on `(worker, kind)` if idle, else queues it. For NicIn,
    // applies the incast penalty based on current occupancy.
    #[allow(clippy::too_many_arguments)] // event-loop plumbing, called twice
    fn offer(
        resources: &mut [[Resource; 3]],
        heap: &mut BinaryHeap<Reverse<(Time, u64, usize)>>,
        events: &mut Vec<Event>,
        seq: &mut u64,
        now: f64,
        worker: usize,
        kind: usize,
        mut job: Job,
        incast_penalty: f64,
    ) {
        let res = &mut resources[worker][kind];
        if kind == 2 {
            let occupancy =
                res.queue.len() + if res.busy_with.is_some() { 1 } else { 0 };
            job.service *= 1.0 + incast_penalty * occupancy as f64;
        }
        if res.busy_with.is_none() {
            res.busy_with = Some(job);
            res.started_at = now;
            events.push(Event::Done(worker, kind, job.task));
            heap.push(Reverse((Time(now + job.service), *seq, events.len() - 1)));
            *seq += 1;
        } else {
            res.queue.push_back(job);
        }
    }

    let mut completed = 0usize;
    while let Some(Reverse((Time(now), _, ev_idx))) = heap.pop() {
        match events[ev_idx] {
            Event::Ready(tid) => match graph.tasks[tid.0].kind {
                TaskKind::Compute { worker, flops, sparse } => {
                    let service = if sparse {
                        spec.sparse_compute_seconds(flops)
                    } else {
                        spec.compute_seconds(flops)
                    } + spec.device.launch_overhead_s;
                    offer(
                        &mut resources,
                        &mut heap,
                        &mut events,
                        &mut seq,
                        now,
                        worker,
                        0,
                        Job { task: tid, service },
                        0.0,
                    );
                }
                TaskKind::Send { src, bytes, .. } => {
                    let service = bytes as f64 / enqueue_bps + spec.wire_seconds(bytes);
                    offer(
                        &mut resources,
                        &mut heap,
                        &mut events,
                        &mut seq,
                        now,
                        src,
                        1,
                        Job { task: tid, service },
                        0.0,
                    );
                }
                TaskKind::Barrier => {
                    finish[tid.0] = now;
                    completed += 1;
                    for &dep in &dependents[tid.0] {
                        remaining[dep.0] -= 1;
                        ready_time[dep.0] = ready_time[dep.0].max(now);
                        if remaining[dep.0] == 0 {
                            push(
                                &mut heap,
                                &mut events,
                                &mut seq,
                                ready_time[dep.0],
                                Event::Ready(dep),
                            );
                        }
                    }
                }
            },
            Event::Done(worker, kind, tid) => {
                // Record the busy interval and start the next queued job.
                {
                    let res = &mut resources[worker][kind];
                    res.intervals.push((res.started_at, now));
                    res.busy_with = None;
                    if let Some(next) = res.queue.pop_front() {
                        res.busy_with = Some(next);
                        res.started_at = now;
                        events.push(Event::Done(worker, kind, next.task));
                        heap.push(Reverse((
                            Time(now + next.service),
                            seq,
                            events.len() - 1,
                        )));
                        seq += 1;
                    }
                }
                let task_complete = match (kind, &graph.tasks[tid.0].kind) {
                    // Egress done: message departs, arrives after latency.
                    (1, TaskKind::Send { .. }) => {
                        push(
                            &mut heap,
                            &mut events,
                            &mut seq,
                            now + spec.net.latency_s,
                            Event::Arrive(tid),
                        );
                        false
                    }
                    (2, TaskKind::Send { dst, bytes, .. }) => {
                        bytes_in[*dst].push((now, *bytes));
                        true
                    }
                    (0, TaskKind::Compute { .. }) => true,
                    _ => unreachable!("resource/task mismatch"),
                };
                if task_complete {
                    finish[tid.0] = now;
                    completed += 1;
                    for &dep in &dependents[tid.0] {
                        remaining[dep.0] -= 1;
                        ready_time[dep.0] = ready_time[dep.0].max(now);
                        if remaining[dep.0] == 0 {
                            push(
                                &mut heap,
                                &mut events,
                                &mut seq,
                                ready_time[dep.0],
                                Event::Ready(dep),
                            );
                        }
                    }
                }
            }
            Event::Arrive(tid) => {
                if let TaskKind::Send { dst, bytes, .. } = graph.tasks[tid.0].kind {
                    let service = spec.wire_seconds(bytes);
                    offer(
                        &mut resources,
                        &mut heap,
                        &mut events,
                        &mut seq,
                        now,
                        dst,
                        2,
                        Job { task: tid, service },
                        spec.net.incast_penalty,
                    );
                } else {
                    unreachable!("arrival of non-send task");
                }
            }
        }
    }

    assert_eq!(
        completed, n,
        "simulation deadlock: {} of {} tasks completed (cycle in task graph?)",
        completed, n
    );

    let makespan = finish.iter().cloned().fold(0.0, f64::max);
    SimReport {
        makespan,
        finish,
        busy: resources
            .into_iter()
            .map(|r| {
                let [a, b, c] = r;
                [a.intervals, b.intervals, c.intervals]
            })
            .collect(),
        bytes_in,
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
        let r = simulate(&g, &spec(), &ExecOptions::all());
        assert_eq!(r.makespan, 0.0);
    }

    #[test]
    fn single_compute_duration() {
        let mut g = TaskGraph::new();
        g.compute(0, 2_000_000_000, vec![]);
        let r = simulate(&g, &spec(), &ExecOptions::all());
        assert!((r.makespan - 2.0).abs() < 1e-9);
        assert!((r.total_busy(ResourceKind::Device) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn chain_serializes_and_parallel_overlaps() {
        let mut g = TaskGraph::new();
        let a = g.compute(0, 1_000_000_000, vec![]);
        g.compute(0, 1_000_000_000, vec![a]);
        let r = simulate(&g, &spec(), &ExecOptions::all());
        assert!((r.makespan - 2.0).abs() < 1e-9);

        let mut g2 = TaskGraph::new();
        g2.compute(0, 1_000_000_000, vec![]);
        g2.compute(1, 1_000_000_000, vec![]);
        let r2 = simulate(&g2, &spec(), &ExecOptions::all());
        assert!((r2.makespan - 1.0).abs() < 1e-9);
    }

    #[test]
    fn same_device_serializes_even_without_deps() {
        let mut g = TaskGraph::new();
        g.compute(0, 1_000_000_000, vec![]);
        g.compute(0, 1_000_000_000, vec![]);
        let r = simulate(&g, &spec(), &ExecOptions::all());
        assert!((r.makespan - 2.0).abs() < 1e-9);
    }

    #[test]
    fn send_traverses_out_wire_in() {
        let mut g = TaskGraph::new();
        // 1 GB at 1 GB/s: 1 s egress + 1 s ingress (store-and-forward).
        g.send(0, 1, 1_000_000_000, vec![]);
        let r = simulate(&g, &spec(), &ExecOptions::all());
        assert!((r.makespan - 2.0).abs() < 1e-6, "makespan {}", r.makespan);
        assert_eq!(r.total_bytes_in(), 1_000_000_000);
    }

    #[test]
    fn latency_adds_once_per_message() {
        let mut s = spec();
        s.net.latency_s = 0.5;
        let mut g = TaskGraph::new();
        g.send(0, 1, 1_000_000_000, vec![]);
        let r = simulate(&g, &s, &ExecOptions::all());
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
        let burst = simulate(&g, &s, &ExecOptions::all()).makespan;

        // Same burst on a penalty-free network: 1 s shared egress (three
        // different senders in parallel) + 3 x 1 s serialized ingress.
        let mut s2 = s.clone();
        s2.net.incast_penalty = 0.0;
        let clean = simulate(&g, &s2, &ExecOptions::all()).makespan;
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
        let fast = simulate(&g, &s, &ExecOptions::all()).makespan;
        let slow = simulate(&g, &s, &ExecOptions { lock_free: false, ..ExecOptions::all() })
            .makespan;
        assert!(slow > fast + 0.5, "slow {slow} fast {fast}");
    }

    #[test]
    fn barrier_orders_phases() {
        let mut g = TaskGraph::new();
        let sends: Vec<_> = (1..4).map(|s| g.send(s, 0, 1_000_000, vec![])).collect();
        let bar = g.barrier(sends);
        g.compute(0, 1_000_000_000, vec![bar]);
        let r = simulate(&g, &spec(), &ExecOptions::all());
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
        let p = simulate(&pipelined, &spec(), &ExecOptions::all()).makespan;
        let b = simulate(&barriered, &spec(), &ExecOptions::all()).makespan;
        assert!(p < b, "pipelined {p} should beat barriered {b}");
    }

    #[test]
    fn utilization_buckets_sum_to_busy_time() {
        let mut g = TaskGraph::new();
        g.compute(0, 3_000_000_000, vec![]);
        let r = simulate(&g, &spec(), &ExecOptions::all());
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
            bytes_in: vec![vec![]],
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
        simulate(&g2, &spec(), &ExecOptions::all());
    }
}
