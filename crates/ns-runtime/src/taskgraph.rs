//! Compiles a dependency plan into the per-epoch task DAG the cluster
//! simulator schedules.
//!
//! The DAG encodes the execution schedule of §4.3:
//!
//! * **source-chunked communication** — each layer's sends carry exactly
//!   the rows the receiver's dependency plan demands, one message per
//!   (sender, receiver) pair (or, in ROC-like mode, the sender's whole
//!   partition block);
//! * **ring scheduling** — worker `i` emits its chunk sends in the order
//!   `i+1, i+2, …` so no two senders target one receiver in the same slot
//!   (disabled: everyone sends toward worker 0 first, causing ingress
//!   incast);
//! * **communication/computation overlap** — the compute work of each
//!   received chunk depends only on *that* chunk's transfer, so DepCache
//!   chunks ('R' slots in Fig. 8) and already-arrived chunks execute while
//!   later chunks are in flight (disabled: a barrier separates each
//!   layer's communication from all of its computation);
//! * **lock-free enqueue** — disabled, the graph records a locked enqueue
//!   ([`TaskGraph::locked_enqueue`]) and the simulator prices every send's
//!   host-side work at the slower rate;
//! * **ring all-reduce** of parameter gradients, `2(m-1)` rounds of
//!   `bytes/m` messages (or a parameter server's push and pull).

use ns_net::sim::TaskId;
use ns_net::{SyncMode, TaskGraph};

use crate::cost::LayerFlops;
use crate::plan::WorkerPlan;
use crate::trainer::TrainerConfig;

fn row_bytes(dim: usize) -> u64 {
    (4 * dim + 4) as u64
}

/// FLOPs of `n` units at `per_unit` each; at least 1, so every task costs
/// a kernel launch.
fn work(n: usize, per_unit: f64) -> u64 {
    ((n as f64 * per_unit) as u64).max(1)
}

/// Per-(worker, layer) classification of edges by the origin of their
/// source row: `counts[0]` = locally available rows, `counts[j + 1]` =
/// rows received from peer `j`.
fn edge_origin_counts(plan: &WorkerPlan, lz: usize, m: usize) -> Vec<usize> {
    let lp = &plan.layers[lz];
    let mut origin = vec![0u16; lp.input_ids.len()];
    for (j, rows) in lp.recv_rows.iter().enumerate() {
        for &r in rows {
            origin[r as usize] = (j + 1) as u16;
        }
    }
    let mut counts = vec![0; m + 1];
    for &s in lp.topo.edge_src.iter() {
        counts[origin[s as usize] as usize] += 1;
    }
    counts
}

/// Builds the full task DAG for one training epoch: the schedule
/// `cfg.opts`, `cfg.sync` and `cfg.broadcast_full_partition` describe,
/// with the enqueue discipline recorded in the graph.
///
/// `dims` are the model's layer widths; `flops[lz]` the probed per-unit
/// FLOP factors; `param_bytes` the size of one parameter-gradient
/// all-reduce payload.
pub fn build_epoch_task_graph(
    plans: &[WorkerPlan],
    dims: &[usize],
    flops: &[LayerFlops],
    param_bytes: u64,
    cfg: &TrainerConfig,
) -> TaskGraph {
    let m = plans.len();
    let num_layers = plans[0].layers.len();
    let mut g = TaskGraph::new();
    g.locked_enqueue = !cfg.opts.lock_free;
    // Worker i's peers in send order: the ring's i+1, i+2, …, or ascending,
    // so every worker targets worker 0 first.
    let order: Vec<Vec<usize>> = (0..m)
        .map(|i| {
            if cfg.opts.ring {
                (1..m).map(|k| (i + k) % m).collect()
            } else {
                (0..m).filter(|&j| j != i).collect()
            }
        })
        .collect();
    // counts[lz][i]: worker i's layer-lz edges by origin.
    let counts: Vec<Vec<Vec<usize>>> = (0..num_layers)
        .map(|lz| plans.iter().map(|p| edge_origin_counts(p, lz, m)).collect())
        .collect();
    // Rows a worker sends peer `j`: its chunk of `per_peer`, or, ROC-like,
    // its whole `block` whenever anything at all moves this layer ("the ROC
    // worker does not differentiate the output messages with various
    // destinations and sends the whole messages block to all workers",
    // §5.3).
    let rows_to = |per_peer: &[Vec<u32>], j: usize, block: usize| {
        if !cfg.broadcast_full_partition {
            per_peer[j].len()
        } else if per_peer.iter().all(Vec::is_empty) {
            0
        } else {
            block
        }
    };

    // done[i]: the task producing worker i's current layer output.
    let mut done: Vec<Vec<TaskId>> = vec![Vec::new(); m];
    for lz in 0..num_layers {
        let f = &flops[lz];
        // 1. Sends (master -> mirror row sync).
        let mut sent = vec![vec![None::<TaskId>; m]; m];
        for i in 0..m {
            let lp = &plans[i].layers[lz];
            for &j in &order[i] {
                let rows = rows_to(&lp.send_ids, j, plans[i].owned.len());
                if rows > 0 {
                    let bytes = rows as u64 * row_bytes(dims[lz]);
                    sent[i][j] = Some(g.send(i, j, bytes, done[i].clone()));
                }
            }
        }

        // 2. Per-chunk compute, then the vertex function.
        let mut next = Vec::with_capacity(m);
        for i in 0..m {
            let c = &counts[lz][i];
            // Without overlap, one barrier after all of this worker's
            // incoming transfers gates every chunk.
            let barrier = (!cfg.opts.overlap).then(|| {
                let incoming = (0..m).filter_map(|j| sent[j][i]);
                g.barrier(incoming.chain(done[i].iter().copied()).collect())
            });
            let gate = |own: Vec<TaskId>| barrier.map_or(own, |b| vec![b]);
            let mut chunks = Vec::new();
            // Local chunk (DepCache rows and own-partition rows).
            if c[0] > 0 {
                chunks.push(g.compute_sparse(i, work(c[0], f.edge_fwd), gate(done[i].clone())));
            }
            // One chunk per sending peer.
            for j in (0..m).filter(|&j| c[j + 1] > 0) {
                let deps = gate(sent[j][i].into_iter().collect());
                chunks.push(g.compute_sparse(i, work(c[j + 1], f.edge_fwd), deps));
            }
            let vertex_fwd = work(plans[i].layers[lz].compute.len(), f.vertex_fwd);
            next.push(vec![g.compute(i, vertex_fwd, chunks)]);
        }
        done = next;
    }

    // Prediction head (loss forward + gradient seed).
    let mut seed: Vec<TaskId> = (0..m)
        .map(|i| {
            let f = plans[i].owned.len() as u64 * dims[num_layers] as u64 * 8;
            g.compute(i, f.max(1), done[i].clone())
        })
        .collect();

    // Backward sweep (compute-synchronize).
    for lz in (0..num_layers).rev() {
        let f = &flops[lz];
        // seed_deps[i]: worker i's local edge-backward and every mirror
        // gradient it receives; the next (lower) layer's seed waits on them.
        let mut seed_deps: Vec<Vec<TaskId>> = vec![Vec::new(); m];
        for i in 0..m {
            let lp = &plans[i].layers[lz];
            let c = &counts[lz][i];
            let vertex = g.compute(i, work(lp.compute.len(), f.vertex_bwd), vec![seed[i]]);
            let local = if c[0] > 0 {
                g.compute_sparse(i, work(c[0], f.edge_bwd), vec![vertex])
            } else {
                vertex
            };
            seed_deps[i].push(local);
            // Gradients of received rows return to their masters
            // (PostToDepNbr); feature gradients (lz == 0) are unused.
            if lz == 0 {
                continue;
            }
            for &j in &order[i] {
                let rows = rows_to(&lp.recv_ids, j, lp.input_ids.len());
                if rows > 0 {
                    let chunk = g.compute_sparse(i, work(c[j + 1].max(1), f.edge_bwd), vec![vertex]);
                    seed_deps[j].push(g.send(i, j, rows as u64 * row_bytes(dims[lz]), vec![chunk]));
                }
            }
        }
        seed = seed_deps.into_iter().map(|deps| g.barrier(deps)).collect();
    }

    // Gradient synchronization + optimizer step.
    let mut prev = g.barrier(seed);
    if m > 1 {
        match cfg.sync {
            SyncMode::AllReduce => {
                // Ring: 2(m-1) rounds of bytes/m chunks, no hotspot.
                let chunk_bytes = (param_bytes / m as u64).max(1);
                for _round in 0..2 * (m - 1) {
                    let sends: Vec<TaskId> = (0..m)
                        .map(|i| g.send(i, (i + 1) % m, chunk_bytes, vec![prev]))
                        .collect();
                    prev = g.barrier(sends);
                }
            }
            SyncMode::ParameterServer => {
                // Push phase: everyone funnels full gradients into the
                // server (worker 0) — incast by construction.
                let pushes: Vec<TaskId> = (1..m)
                    .map(|i| g.send(i, 0, param_bytes.max(1), vec![prev]))
                    .collect();
                let reduced = g.barrier(pushes);
                let apply = g.compute(0, param_bytes.max(1), vec![reduced]);
                // Pull phase: the server broadcasts the reduced gradients.
                let pulls: Vec<TaskId> = (1..m)
                    .map(|j| g.send(0, j, param_bytes.max(1), vec![apply]))
                    .collect();
                prev = g.barrier(pulls);
            }
        }
    }
    for i in 0..m {
        g.compute(i, param_bytes.max(1), vec![prev]);
    }

    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::probe;
    use crate::plan::{build_plans, DepDecision};
    use crate::EngineKind;
    use ns_gnn::{GnnModel, ModelKind};
    use ns_graph::generate::rmat;
    use ns_graph::{CsrGraph, Partitioner};
    use ns_net::sim::simulate;
    use ns_net::{ClusterSpec, ExecOptions};

    struct Fixture {
        plans_cache: Vec<WorkerPlan>,
        plans_comm: Vec<WorkerPlan>,
        dims: Vec<usize>,
        flops: Vec<LayerFlops>,
        param_bytes: u64,
        cfg: TrainerConfig,
    }

    impl Fixture {
        fn graph(&self, plans: &[WorkerPlan], cfg: &TrainerConfig) -> TaskGraph {
            build_epoch_task_graph(plans, &self.dims, &self.flops, self.param_bytes, cfg)
        }

        fn epoch_s(&self, plans: &[WorkerPlan], cfg: &TrainerConfig) -> f64 {
            simulate(&self.graph(plans, cfg), &cfg.cluster).makespan
        }

        fn with_opts(&self, opts: ExecOptions) -> TrainerConfig {
            TrainerConfig { opts, ..self.cfg.clone() }
        }
    }

    fn fixture() -> Fixture {
        let edges = rmat(1000, 8000, (0.55, 0.2, 0.2), 31);
        let g = CsrGraph::from_edges(1000, &edges, true);
        let p = Partitioner::Chunk.partition(&g, 4);
        let cluster = ClusterSpec::aliyun_ecs(4);
        let model = GnnModel::two_layer(ModelKind::Gcn, 64, 32, 8, 1);
        let costs = probe(&model, &cluster);
        Fixture {
            plans_cache: build_plans(&g, &p, 2, &DepDecision::CacheAll).unwrap(),
            plans_comm: build_plans(&g, &p, 2, &DepDecision::CommAll).unwrap(),
            dims: model.dims().to_vec(),
            flops: costs.flops.clone(),
            param_bytes: model.gradient_bytes(),
            cfg: TrainerConfig::new(EngineKind::DepComm, cluster),
        }
    }

    #[test]
    fn depcache_graph_moves_only_allreduce_bytes() {
        let f = fixture();
        let tg = f.graph(&f.plans_cache, &f.cfg);
        let allreduce = 2 * 3 * 4 * (f.param_bytes / 4).max(1);
        assert_eq!(tg.total_bytes(), allreduce);
    }

    #[test]
    fn depcomm_graph_moves_dependency_bytes() {
        let f = fixture();
        let tg = f.graph(&f.plans_comm, &f.cfg);
        let tg_cache = f.graph(&f.plans_cache, &f.cfg);
        assert!(tg.total_bytes() > tg_cache.total_bytes());
        // But DepCache burns more FLOPs (replicas).
        assert!(tg_cache.total_flops() > tg.total_flops());
    }

    #[test]
    fn simulated_epochs_complete_for_both_engines() {
        let f = fixture();
        for plans in [&f.plans_cache, &f.plans_comm] {
            assert!(f.epoch_s(plans, &f.cfg) > 0.0);
        }
    }

    #[test]
    fn overlap_speeds_up_depcomm() {
        let f = fixture();
        let mk = |overlap| f.epoch_s(&f.plans_comm, &f.with_opts(ExecOptions { overlap, ..ExecOptions::all() }));
        let with = mk(true);
        let without = mk(false);
        assert!(with < without, "overlap {with} should beat barrier {without}");
    }

    #[test]
    fn ring_order_beats_naive_order_under_incast() {
        let f = fixture();
        let mk = |ring| f.epoch_s(&f.plans_comm, &f.with_opts(ExecOptions { ring, ..ExecOptions::all() }));
        let ring = mk(true);
        let naive = mk(false);
        assert!(ring <= naive, "ring {ring} vs naive {naive}");
    }

    #[test]
    fn broadcast_mode_moves_more_bytes() {
        let f = fixture();
        let chunked = f.graph(&f.plans_comm, &f.cfg);
        let cfg = TrainerConfig { broadcast_full_partition: true, ..f.cfg.clone() };
        let broadcast = f.graph(&f.plans_comm, &cfg);
        assert!(broadcast.total_bytes() > chunked.total_bytes());
    }

    #[test]
    fn parameter_server_sync_is_slower_than_ring_at_scale() {
        let f = fixture();
        // Bandwidth regime (large model): ring's per-round chunks spread
        // across all NICs; PS funnels everything through the server. (For
        // tiny latency-bound payloads PS can win — fewer rounds.)
        let f = Fixture { param_bytes: f.param_bytes * 1000, ..f };
        let ps_cfg = TrainerConfig { sync: SyncMode::ParameterServer, ..f.cfg.clone() };
        // Total bytes match (2(m-1)·B both ways), but PS serializes all
        // of it through the server's NIC.
        let (ring, ps) = (f.graph(&f.plans_cache, &f.cfg), f.graph(&f.plans_cache, &ps_cfg));
        assert_eq!(ps.total_bytes(), ring.total_bytes());
        let tr = f.epoch_s(&f.plans_cache, &f.cfg);
        let tp = f.epoch_s(&f.plans_cache, &ps_cfg);
        assert!(tp > tr, "ps {tp} should exceed ring {tr}");
    }

    #[test]
    fn lockfree_option_reduces_simulated_time_for_comm_heavy_graph() {
        let f = fixture();
        let locked = f.with_opts(ExecOptions { lock_free: false, ..ExecOptions::all() });
        assert!(f.graph(&f.plans_comm, &locked).locked_enqueue);
        let fast = f.epoch_s(&f.plans_comm, &f.cfg);
        let slow = f.epoch_s(&f.plans_comm, &locked);
        assert!(slow >= fast);
    }
}
