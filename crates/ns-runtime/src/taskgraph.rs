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
//! * **ring all-reduce** of parameter gradients, `2(m-1)` rounds of
//!   `bytes/m` messages.

use ns_net::sim::TaskId;
use ns_net::{ExecOptions, SyncMode, TaskGraph};

use crate::cost::LayerFlops;
use crate::plan::WorkerPlan;

/// Task-graph construction options.
#[derive(Debug, Clone)]
pub struct TgConfig {
    /// Ring / lock-free / overlap toggles (lock-free only affects the
    /// simulator's cost table, but is carried here for completeness).
    pub opts: ExecOptions,
    /// ROC-like communication: each worker ships its *entire* partition's
    /// representations to every peer instead of the per-receiver chunks
    /// ("the ROC worker does not differentiate the output messages with
    /// various destinations and sends the whole messages block to all
    /// workers", §5.3).
    pub broadcast_full_partition: bool,
    /// Gradient synchronization pattern.
    pub sync: SyncMode,
}

impl Default for TgConfig {
    fn default() -> Self {
        Self {
            opts: ExecOptions::all(),
            broadcast_full_partition: false,
            sync: SyncMode::AllReduce,
        }
    }
}

fn row_bytes(dim: usize) -> u64 {
    (4 * dim + 4) as u64
}

/// Per-(worker, layer) classification of edges by the origin of their
/// source row: `counts[0]` = locally available rows, `counts[j + 1]` =
/// rows received from peer `j`.
fn edge_origin_counts(plan: &WorkerPlan, lz: usize, m: usize) -> Vec<u64> {
    let lp = &plan.layers[lz];
    let mut origin = vec![0u16; lp.input_ids.len()];
    for (j, rows) in lp.recv_rows.iter().enumerate() {
        for &r in rows {
            origin[r as usize] = (j + 1) as u16;
        }
    }
    let mut counts = vec![0u64; m + 1];
    for &s in lp.topo.edge_src.iter() {
        counts[origin[s as usize] as usize] += 1;
    }
    counts
}

/// Builds the full task DAG for one training epoch.
///
/// `dims` are the model's layer widths; `flops[lz]` the probed per-unit
/// FLOP factors; `param_bytes` the size of one parameter-gradient
/// all-reduce payload.
pub fn build_epoch_task_graph(
    plans: &[WorkerPlan],
    dims: &[usize],
    flops: &[LayerFlops],
    param_bytes: u64,
    cfg: &TgConfig,
) -> TaskGraph {
    let m = plans.len();
    let num_layers = plans[0].layers.len();
    let mut g = TaskGraph::new();

    // fwd_done[i] = task producing worker i's current layer output.
    let mut layer_done: Vec<Option<TaskId>> = vec![None; m];
    // Keep per-layer send tasks so receivers can depend on them.
    let mut fwd_outputs: Vec<Option<TaskId>> = vec![None; m];

    for lz in 0..num_layers {
        let d_in = dims[lz];
        // 1. Sends (master -> mirror row sync), in ring or naive order.
        let mut send_task = vec![vec![None::<TaskId>; m]; m];
        for i in 0..m {
            let deps = layer_done[i].map(|t| vec![t]).unwrap_or_default();
            let order: Vec<usize> = if cfg.opts.ring {
                (1..m).map(|k| (i + k) % m).collect()
            } else {
                (0..m).filter(|&j| j != i).collect()
            };
            for j in order {
                let bytes = if cfg.broadcast_full_partition {
                    // Whole-block transfer whenever anything at all moves
                    // this layer.
                    if plans[i].layers[lz].send_ids.iter().all(Vec::is_empty) {
                        continue;
                    }
                    plans[i].owned.len() as u64 * row_bytes(d_in)
                } else {
                    let rows = plans[i].layers[lz].send_ids[j].len();
                    if rows == 0 {
                        continue;
                    }
                    rows as u64 * row_bytes(d_in)
                };
                send_task[i][j] = Some(g.send(i, j, bytes, deps.clone()));
            }
        }

        // 2. Per-chunk compute, then the vertex function.
        for i in 0..m {
            let lp = &plans[i].layers[lz];
            let counts = edge_origin_counts(&plans[i], lz, m);
            let base_dep = layer_done[i].map(|t| vec![t]).unwrap_or_default();

            // Without overlap: one barrier after all of this worker's
            // incoming transfers; every chunk waits for it.
            let comm_barrier = if cfg.opts.overlap {
                None
            } else {
                let incoming: Vec<TaskId> = (0..m)
                    .filter_map(|j| send_task[j][i])
                    .chain(base_dep.iter().copied())
                    .collect();
                Some(g.barrier(incoming))
            };

            let mut chunks = Vec::new();
            // Local chunk (DepCache rows and own-partition rows).
            if counts[0] > 0 {
                let deps = match comm_barrier {
                    Some(b) => vec![b],
                    None => base_dep.clone(),
                };
                let f = (counts[0] as f64 * flops[lz].edge_fwd) as u64;
                chunks.push(g.compute_sparse(i, f.max(1), deps));
            }
            // One chunk per sending peer.
            for j in 0..m {
                if counts[j + 1] == 0 {
                    continue;
                }
                let deps = match comm_barrier {
                    Some(b) => vec![b],
                    None => send_task[j][i].map(|t| vec![t]).unwrap_or_default(),
                };
                let f = (counts[j + 1] as f64 * flops[lz].edge_fwd) as u64;
                chunks.push(g.compute_sparse(i, f.max(1), deps));
            }
            let vf = (lp.compute.len() as f64 * flops[lz].vertex_fwd) as u64;
            let vertex = g.compute(i, vf.max(1), chunks);
            fwd_outputs[i] = Some(vertex);
        }
        layer_done.copy_from_slice(&fwd_outputs);
    }

    // Prediction head (loss forward + gradient seed).
    let mut bwd_seed: Vec<TaskId> = (0..m)
        .map(|i| {
            let owned = plans[i].owned.len() as u64;
            let f = owned * (dims[num_layers] as u64) * 8;
            g.compute(i, f.max(1), vec![layer_done[i].unwrap()])
        })
        .collect();

    // Backward sweep (compute-synchronize).
    for lz in (0..num_layers).rev() {
        let d_in = dims[lz];
        let mut grad_send = vec![vec![None::<TaskId>; m]; m];
        let mut local_chunk: Vec<Option<TaskId>> = vec![None; m];
        for i in 0..m {
            let lp = &plans[i].layers[lz];
            let counts = edge_origin_counts(&plans[i], lz, m);
            let vb = (lp.compute.len() as f64 * flops[lz].vertex_bwd) as u64;
            let vertex = g.compute(i, vb.max(1), vec![bwd_seed[i]]);
            if counts[0] > 0 {
                let f = (counts[0] as f64 * flops[lz].edge_bwd) as u64;
                local_chunk[i] = Some(g.compute_sparse(i, f.max(1), vec![vertex]));
            } else {
                local_chunk[i] = Some(vertex);
            }
            if lz > 0 {
                // Gradients of received rows return to their masters
                // (PostToDepNbr); feature gradients (lz == 0) are unused.
                let order: Vec<usize> = if cfg.opts.ring {
                    (1..m).map(|k| (i + k) % m).collect()
                } else {
                    (0..m).filter(|&j| j != i).collect()
                };
                for j in order {
                    let rows = if cfg.broadcast_full_partition {
                        if lp.recv_ids.iter().all(Vec::is_empty) {
                            continue;
                        }
                        lp.input_ids.len()
                    } else {
                        lp.recv_ids[j].len()
                    };
                    if rows == 0 {
                        continue;
                    }
                    let f = (counts[j + 1].max(1) as f64 * flops[lz].edge_bwd) as u64;
                    let chunk = g.compute_sparse(i, f.max(1), vec![vertex]);
                    let bytes = rows as u64 * row_bytes(d_in);
                    grad_send[i][j] = Some(g.send(i, j, bytes, vec![chunk]));
                }
            }
        }
        // Next (lower) layer's seed: local edge-backward plus every
        // incoming mirror gradient.
        for i in 0..m {
            let mut deps: Vec<TaskId> = vec![local_chunk[i].unwrap()];
            for j in 0..m {
                if let Some(t) = grad_send[j][i] {
                    deps.push(t);
                }
            }
            bwd_seed[i] = g.barrier(deps);
        }
    }

    // Gradient synchronization + optimizer step.
    let entry = g.barrier(bwd_seed.clone());
    let mut prev = entry;
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
    use ns_gnn::{GnnModel, ModelKind};
    use ns_graph::generate::rmat;
    use ns_graph::{CsrGraph, Partitioner};
    use ns_net::sim::simulate;
    use ns_net::ClusterSpec;

    struct Fixture {
        plans_cache: Vec<WorkerPlan>,
        plans_comm: Vec<WorkerPlan>,
        dims: Vec<usize>,
        flops: Vec<LayerFlops>,
        param_bytes: u64,
        cluster: ClusterSpec,
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
            cluster,
        }
    }

    #[test]
    fn depcache_graph_moves_only_allreduce_bytes() {
        let f = fixture();
        let tg = build_epoch_task_graph(
            &f.plans_cache,
            &f.dims,
            &f.flops,
            f.param_bytes,
            &TgConfig::default(),
        );
        let allreduce = 2 * 3 * 4 * (f.param_bytes / 4).max(1);
        assert_eq!(tg.total_bytes(), allreduce);
    }

    #[test]
    fn depcomm_graph_moves_dependency_bytes() {
        let f = fixture();
        let tg = build_epoch_task_graph(
            &f.plans_comm,
            &f.dims,
            &f.flops,
            f.param_bytes,
            &TgConfig::default(),
        );
        let tg_cache = build_epoch_task_graph(
            &f.plans_cache,
            &f.dims,
            &f.flops,
            f.param_bytes,
            &TgConfig::default(),
        );
        assert!(tg.total_bytes() > tg_cache.total_bytes());
        // But DepCache burns more FLOPs (replicas).
        assert!(tg_cache.total_flops() > tg.total_flops());
    }

    #[test]
    fn simulated_epochs_complete_for_both_engines() {
        let f = fixture();
        for plans in [&f.plans_cache, &f.plans_comm] {
            let tg = build_epoch_task_graph(
                plans,
                &f.dims,
                &f.flops,
                f.param_bytes,
                &TgConfig::default(),
            );
            let rep = simulate(&tg, &f.cluster, &ExecOptions::all());
            assert!(rep.makespan > 0.0);
        }
    }

    #[test]
    fn overlap_speeds_up_depcomm() {
        let f = fixture();
        let mk = |overlap: bool| {
            let cfg = TgConfig {
                opts: ExecOptions { overlap, ..ExecOptions::all() },
                ..TgConfig::default()
            };
            let tg = build_epoch_task_graph(
                &f.plans_comm,
                &f.dims,
                &f.flops,
                f.param_bytes,
                &cfg,
            );
            simulate(&tg, &f.cluster, &ExecOptions::all()).makespan
        };
        let with = mk(true);
        let without = mk(false);
        assert!(
            with < without,
            "overlap {with} should beat barrier {without}"
        );
    }

    #[test]
    fn ring_order_beats_naive_order_under_incast() {
        let f = fixture();
        let mk = |ring: bool| {
            let opts = ExecOptions { ring, ..ExecOptions::all() };
            let tg = build_epoch_task_graph(
                &f.plans_comm,
                &f.dims,
                &f.flops,
                f.param_bytes,
                &TgConfig { opts, ..TgConfig::default() },
            );
            simulate(&tg, &f.cluster, &opts).makespan
        };
        let ring = mk(true);
        let naive = mk(false);
        assert!(ring <= naive, "ring {ring} vs naive {naive}");
    }

    #[test]
    fn broadcast_mode_moves_more_bytes() {
        let f = fixture();
        let chunked = build_epoch_task_graph(
            &f.plans_comm,
            &f.dims,
            &f.flops,
            f.param_bytes,
            &TgConfig::default(),
        );
        let broadcast = build_epoch_task_graph(
            &f.plans_comm,
            &f.dims,
            &f.flops,
            f.param_bytes,
            &TgConfig { broadcast_full_partition: true, ..TgConfig::default() },
        );
        assert!(broadcast.total_bytes() > chunked.total_bytes());
    }

    #[test]
    fn parameter_server_sync_is_slower_than_ring_at_scale() {
        let f = fixture();
        // Bandwidth regime (large model): ring's per-round chunks spread
        // across all NICs; PS funnels everything through the server. (For
        // tiny latency-bound payloads PS can win — fewer rounds.)
        let big_model_bytes = f.param_bytes * 1000;
        let ring = build_epoch_task_graph(
            &f.plans_cache,
            &f.dims,
            &f.flops,
            big_model_bytes,
            &TgConfig::default(),
        );
        let ps = build_epoch_task_graph(
            &f.plans_cache,
            &f.dims,
            &f.flops,
            big_model_bytes,
            &TgConfig { sync: SyncMode::ParameterServer, ..TgConfig::default() },
        );
        // Total bytes match (2(m-1)·B both ways), but PS serializes all
        // of it through the server's NIC.
        assert_eq!(ps.total_bytes(), ring.total_bytes());
        let tr = simulate(&ring, &f.cluster, &ExecOptions::all()).makespan;
        let tp = simulate(&ps, &f.cluster, &ExecOptions::all()).makespan;
        assert!(tp > tr, "ps {tp} should exceed ring {tr}");
    }

    #[test]
    fn lockfree_option_reduces_simulated_time_for_comm_heavy_graph() {
        let f = fixture();
        let tg = build_epoch_task_graph(
            &f.plans_comm,
            &f.dims,
            &f.flops,
            f.param_bytes,
            &TgConfig::default(),
        );
        let fast = simulate(&tg, &f.cluster, &ExecOptions::all()).makespan;
        let slow = simulate(
            &tg,
            &f.cluster,
            &ExecOptions { lock_free: false, ..ExecOptions::all() },
        )
        .makespan;
        assert!(slow >= fast);
    }
}
