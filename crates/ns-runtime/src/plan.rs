//! Dependency plans: the compiled form of a DepCache / DepComm / Hybrid
//! decision.
//!
//! All three engines differ only in *where each remote dependency's data
//! comes from*. A [`DepDecision`] answers, for every worker, layer, and
//! remote dependent neighbor: cache it (compute its representation locally
//! from a replicated subtree — Algorithm 2's treatment) or communicate it
//! (fetch from its master each epoch — Algorithm 3's treatment). The plan
//! builder compiles a decision into per-worker [`WorkerPlan`]s: per-layer
//! compute sets, local edge topologies in row coordinates, and
//! fully-resolved send/receive schedules. One engine-agnostic executor
//! then runs any plan.
//!
//! Layer indexing: `lz` is 0-based; layer `lz` consumes representations
//! `h^{(lz)}` (with `h^{(0)}` = input features) and produces `h^{(lz+1)}`.
//! The paper's layer `l` is `lz + 1`.

use ns_gnn::LayerTopology;
use ns_graph::fx::FxHashSet;
use ns_graph::khop::Marks;
use ns_graph::{CsrGraph, Partitioning};

use crate::error::{Result, RuntimeError};

/// Which remote dependencies to cache.
#[derive(Debug, Clone)]
pub enum DepDecision {
    /// Cache every remote dependency at every layer — DepCache
    /// (Algorithm 2).
    CacheAll,
    /// Communicate every remote dependency — DepComm (Algorithm 3).
    CommAll,
    /// Per-worker, per-layer cached sets — Hybrid (Algorithm 4 output).
    /// `sets[worker][lz]` holds the cached remote dependencies among the
    /// inputs of layer `lz`.
    Sets(Vec<Vec<FxHashSet<u32>>>),
}

impl DepDecision {
    /// Whether remote dependency `u` of worker `w`'s layer `lz` inputs is
    /// cached.
    pub fn is_cached(&self, worker: usize, lz: usize, u: u32) -> bool {
        match self {
            DepDecision::CacheAll => true,
            DepDecision::CommAll => false,
            DepDecision::Sets(sets) => sets[worker][lz].contains(&u),
        }
    }

    /// Engine label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            DepDecision::CacheAll => "DepCache",
            DepDecision::CommAll => "DepComm",
            DepDecision::Sets(_) => "Hybrid",
        }
    }
}

/// One layer of a worker's plan.
#[derive(Debug, Clone)]
pub struct LayerPlan {
    /// Global ids whose layer output this worker computes, sorted. The
    /// top layer's compute set is exactly the owned partition; lower
    /// layers may additionally contain cached replicas.
    pub compute: Vec<u32>,
    /// Global ids of the layer-input rows, sorted (sources of `compute`'s
    /// in-edges plus `compute` itself).
    pub input_ids: Vec<u32>,
    /// Local edge structure in row coordinates.
    pub topo: LayerTopology,
    /// Rows copied from local previous-layer storage:
    /// `(row_in_prev_storage, row_in_input)`.
    pub local_src: Vec<(u32, u32)>,
    /// Per peer: global ids received from that peer this layer
    /// (sorted; `GetFromDepNbr` in DepComm mode).
    pub recv_ids: Vec<Vec<u32>>,
    /// Rows in the input matrix for each received id (parallel to
    /// `recv_ids`).
    pub recv_rows: Vec<Vec<u32>>,
    /// Per peer: global ids this worker must send to that peer this layer
    /// (all owned by this worker).
    pub send_ids: Vec<Vec<u32>>,
    /// Rows in this worker's previous-layer storage for each sent id.
    pub send_rows: Vec<Vec<u32>>,
}

impl LayerPlan {
    /// Total rows received this layer.
    pub fn recv_row_count(&self) -> usize {
        self.recv_ids.iter().map(Vec::len).sum()
    }
}

/// A complete per-worker execution plan.
#[derive(Debug, Clone)]
pub struct WorkerPlan {
    /// This worker's id.
    pub worker: usize,
    /// Owned partition (masters), sorted.
    pub owned: Vec<u32>,
    /// Global ids present in the local feature matrix (owned plus
    /// prefetched features of cached dependencies), sorted.
    pub feature_rows: Vec<u32>,
    /// Per-layer plans, `model.num_layers()` long.
    pub layers: Vec<LayerPlan>,
}

impl WorkerPlan {
    /// Replica compute slots: vertices computed at some layer that are not
    /// owned — the redundant computation DepCache pays for.
    pub fn replica_slots(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.compute.len() - self.owned.len())
            .sum()
    }

    /// Features prefetched beyond the owned partition.
    pub fn prefetched_features(&self) -> usize {
        self.feature_rows.len() - self.owned.len()
    }

    /// Rows the plan communicates in the forward direction, all layers —
    /// per epoch for the layers above 0, once for layer 0 (its input is
    /// the feature matrix, which the executor fetches once per plan).
    pub fn forward_comm_rows(&self) -> usize {
        self.layers.iter().map(LayerPlan::recv_row_count).sum()
    }
}

/// Dense id → row map over one id list at a time; `NO_ROW` marks every id
/// outside it.
pub(crate) struct Rows(Vec<u32>);

const NO_ROW: u32 = u32::MAX;

impl Rows {
    /// A map over the ids `0..num_vertices`, all unmapped.
    pub(crate) fn new(num_vertices: usize) -> Self {
        Rows(vec![NO_ROW; num_vertices])
    }

    /// Runs `f` with `ids[r]` mapped to row `r`, then unmaps them.
    pub(crate) fn over<R>(&mut self, ids: &[u32], f: impl FnOnce(&Self) -> R) -> R {
        for (r, &id) in ids.iter().enumerate() {
            self.0[id as usize] = r as u32;
        }
        let out = f(self);
        for &id in ids {
            self.0[id as usize] = NO_ROW;
        }
        out
    }

    /// Row of `id` (panics if absent — plan invariant).
    pub(crate) fn row(&self, id: u32) -> u32 {
        let r = self.0[id as usize];
        assert!(r != NO_ROW, "id {id} missing from row index");
        r
    }
}

/// Builds per-worker plans for `num_layers` GNN layers under `decision`.
///
/// The construction walks layers top-down: the top layer computes exactly
/// the owned partition; classifying each layer's remote input
/// dependencies as cached adds them to the next-lower layer's compute set
/// (replicating their dependency chain layer by layer, down to prefetched
/// features), while communicated dependencies become per-peer receive
/// schedules. Send schedules are then derived by transposing the receive
/// schedules.
///
/// Every id set is a walk over dense per-vertex scratch (one stamp array,
/// one id → row array, reused across workers and layers), so compilation
/// is linear in the edges the plans hold plus `|V|` per worker and layer.
/// A layer whose compute set and inputs equal the layer above's shares
/// its topology (every layer under DepComm).
pub fn build_plans(
    graph: &CsrGraph,
    part: &Partitioning,
    num_layers: usize,
    decision: &DepDecision,
) -> Result<Vec<WorkerPlan>> {
    let m = part.num_parts();
    if num_layers == 0 {
        return Err(RuntimeError::InvalidConfig("zero GNN layers".into()));
    }
    if part.num_vertices() != graph.num_vertices() {
        return Err(RuntimeError::InvalidConfig(
            "partitioning does not match graph".into(),
        ));
    }
    let mut marks = Marks::new(graph.num_vertices());
    let mut rows = Rows::new(graph.num_vertices());

    let mut plans: Vec<WorkerPlan> = (0..m)
        .map(|i| {
            let owned = part.part_vertices(i);
            let mut compute = owned.clone();
            let mut layers: Vec<LayerPlan> = Vec::with_capacity(num_layers);
            for lz in (0..num_layers).rev() {
                let input_ids = marks.in_closure(graph, &compute);
                // Masters and cached inputs, in input order, are the previous-
                // layer storage: the next-lower compute set or the features.
                let mut local = Vec::new();
                let mut recv_ids = vec![Vec::new(); m];
                let mut recv_rows = vec![Vec::new(); m];
                for (r, &u) in input_ids.iter().enumerate() {
                    let owner = part.owner(u);
                    if owner == i || decision.is_cached(i, lz, u) {
                        local.push(u);
                    } else {
                        recv_ids[owner].push(u);
                        recv_rows[owner].push(r as u32);
                    }
                }
                let n_src = input_ids.len();
                let (topo, local_src) = rows.over(&input_ids, |rows| {
                    let topo = match layers.last() {
                        Some(above) if above.compute == compute && above.input_ids == input_ids => {
                            above.topo.clone()
                        }
                        _ => LayerTopology::from_graph(graph, &compute, n_src, |u| rows.row(u)),
                    };
                    let local_src = local.iter().enumerate().map(|(p, &u)| (p as u32, rows.row(u)));
                    (topo, local_src.collect())
                });
                layers.push(LayerPlan {
                    compute: std::mem::replace(&mut compute, local),
                    input_ids,
                    topo,
                    local_src,
                    recv_ids,
                    recv_rows,
                    send_ids: Vec::new(),
                    send_rows: Vec::new(),
                });
            }
            layers.reverse();
            WorkerPlan { worker: i, owned, feature_rows: compute, layers }
        })
        .collect();

    // Send schedules transpose the receive schedules:
    // send_ids[sender][lz][receiver] = recv_ids[receiver][lz][sender].
    for i in 0..m {
        for lz in 0..num_layers {
            let send_ids: Vec<Vec<u32>> =
                plans.iter().map(|p| p.layers[lz].recv_ids[i].clone()).collect();
            let prev = if lz == 0 { &plans[i].feature_rows } else { &plans[i].layers[lz - 1].compute };
            let send_rows = rows.over(prev, |rows| {
                send_ids.iter().map(|ids| ids.iter().map(|&id| rows.row(id)).collect()).collect()
            });
            let lp = &mut plans[i].layers[lz];
            (lp.send_ids, lp.send_rows) = (send_ids, send_rows);
        }
    }

    validate_plans(graph, part, &plans)?;
    Ok(plans)
}

/// Checks the structural invariants every plan must satisfy. Called by
/// [`build_plans`]; exposed for property tests.
pub fn validate_plans(
    graph: &CsrGraph,
    part: &Partitioning,
    plans: &[WorkerPlan],
) -> Result<()> {
    let m = plans.len();
    let err = |msg: String| Err(RuntimeError::InvalidConfig(msg));
    for plan in plans {
        let num_layers = plan.layers.len();
        // Top layer computes exactly the owned partition.
        if plan.layers[num_layers - 1].compute != plan.owned {
            return err(format!("worker {}: top compute != owned", plan.worker));
        }
        for (lz, lp) in plan.layers.iter().enumerate() {
            // A topology shared with the layer below was validated there.
            if lz == 0 || !lp.topo.shares_storage(&plan.layers[lz - 1].topo) {
                lp.topo
                    .validate()
                    .map_err(|e| RuntimeError::InvalidConfig(format!("topology: {e}")))?;
            }
            // Owned vertices are computed at every layer.
            for &v in &plan.owned {
                if lp.compute.binary_search(&v).is_err() {
                    return err(format!(
                        "worker {}: owned {v} missing from layer {lz} compute",
                        plan.worker
                    ));
                }
            }
            // Every input row is covered exactly once (local xor received).
            let mut covered = vec![0u8; lp.input_ids.len()];
            for &(_, r) in &lp.local_src {
                covered[r as usize] += 1;
            }
            for rows in &lp.recv_rows {
                for &r in rows {
                    covered[r as usize] += 1;
                }
            }
            if covered.iter().any(|&c| c != 1) {
                return err(format!(
                    "worker {}, layer {lz}: input rows not covered exactly once",
                    plan.worker
                ));
            }
            // Received ids are owned by the peer they come from.
            for (j, ids) in lp.recv_ids.iter().enumerate() {
                for &id in ids {
                    if part.owner(id) != j {
                        return err(format!("recv id {id} not owned by peer {j}"));
                    }
                }
            }
            // Edge coverage: each computed vertex sees all its in-edges.
            let offsets = &lp.topo.dst_offsets;
            for (d, &v) in lp.compute.iter().enumerate() {
                let deg = offsets[d + 1] - offsets[d];
                if deg != graph.in_degree(v) {
                    return err(format!(
                        "worker {}, layer {lz}: vertex {v} has {deg} of {} in-edges",
                        plan.worker,
                        graph.in_degree(v)
                    ));
                }
            }
        }
    }
    // Send/recv symmetry across workers.
    for i in 0..m {
        for lz in 0..plans[i].layers.len() {
            for j in 0..m {
                if plans[i].layers[lz].send_ids[j] != plans[j].layers[lz].recv_ids[i] {
                    return err(format!(
                        "send/recv mismatch between {i} and {j} at layer {lz}"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use ns_graph::fx::FxHashMap;
    use ns_graph::generate::rmat;
    use ns_graph::Partitioner;
    use ns_rand::{check_cases, StdRng};

    /// Index of `id` in a sorted slice (panics if absent).
    fn row_of(sorted: &[u32], id: u32) -> u32 {
        sorted
            .binary_search(&id)
            .unwrap_or_else(|_| panic!("id {id} missing from row index")) as u32
    }

    /// The hash-set builder `build_plans` replaced, kept as its reference:
    /// per-edge `FxHashMap` lookups, binary-searched rows, per-destination
    /// adjacency lists copied through `LayerTopology::from_adjacency`.
    fn reference_build_plans(
        graph: &CsrGraph,
        part: &Partitioning,
        num_layers: usize,
        decision: &DepDecision,
    ) -> Result<Vec<WorkerPlan>> {
        let m = part.num_parts();
        if num_layers == 0 {
            return Err(RuntimeError::InvalidConfig("zero GNN layers".into()));
        }
        if part.num_vertices() != graph.num_vertices() {
            return Err(RuntimeError::InvalidConfig(
                "partitioning does not match graph".into(),
            ));
        }

        struct Draft {
            owned: Vec<u32>,
            owned_set: FxHashSet<u32>,
            compute: Vec<Vec<u32>>,        // per layer, sorted
            input_ids: Vec<Vec<u32>>,      // per layer, sorted
            recv_ids: Vec<Vec<Vec<u32>>>,  // per layer, per peer
            feature_rows: Vec<u32>,        // sorted
        }

        let mut drafts: Vec<Draft> = (0..m)
            .map(|i| {
                let owned = part.part_vertices(i);
                let owned_set: FxHashSet<u32> = owned.iter().copied().collect();
                Draft {
                    owned,
                    owned_set,
                    compute: vec![Vec::new(); num_layers],
                    input_ids: vec![Vec::new(); num_layers],
                    recv_ids: vec![vec![Vec::new(); m]; num_layers],
                    feature_rows: Vec::new(),
                }
            })
            .collect();

        for (i, d) in drafts.iter_mut().enumerate() {
            d.compute[num_layers - 1] = d.owned.clone();
            // Features needed locally (owned + cached feature deps).
            let mut feature_local: FxHashSet<u32> = d.owned_set.clone();
            for lz in (0..num_layers).rev() {
                // Additions to the lower layer's compute set from caching.
                let mut lower: FxHashSet<u32> =
                    if lz > 0 { d.compute[lz - 1].iter().copied().collect() } else { FxHashSet::default() };
                if lz > 0 {
                    lower.extend(d.owned.iter().copied());
                }
                let mut inputs: FxHashSet<u32> = d.compute[lz].iter().copied().collect();
                for &v in &d.compute[lz] {
                    for &u in graph.in_neighbors(v) {
                        inputs.insert(u);
                    }
                }
                let mut input_ids: Vec<u32> = inputs.into_iter().collect();
                input_ids.sort_unstable();
                for &u in &input_ids {
                    if d.owned_set.contains(&u) {
                        continue; // masters are always locally available
                    }
                    if decision.is_cached(i, lz, u) {
                        if lz == 0 {
                            feature_local.insert(u);
                        } else {
                            lower.insert(u);
                        }
                    } else {
                        d.recv_ids[lz][part.owner(u)].push(u);
                    }
                }
                if lz > 0 {
                    let mut lower: Vec<u32> = lower.into_iter().collect();
                    lower.sort_unstable();
                    d.compute[lz - 1] = lower;
                }
                for peer in &mut d.recv_ids[lz] {
                    peer.sort_unstable();
                }
                d.input_ids[lz] = input_ids;
            }
            let mut feats: Vec<u32> = feature_local.into_iter().collect();
            feats.sort_unstable();
            d.feature_rows = feats;
        }

        // Transpose receive schedules into send schedules.
        // send_ids[sender][lz][receiver] = recv_ids of receiver from sender.
        let mut send_ids: Vec<Vec<Vec<Vec<u32>>>> =
            (0..m).map(|_| vec![vec![Vec::new(); m]; num_layers]).collect();
        for (recv_worker, d) in drafts.iter().enumerate() {
            for lz in 0..num_layers {
                for (sender, ids) in d.recv_ids[lz].iter().enumerate() {
                    if !ids.is_empty() {
                        send_ids[sender][lz][recv_worker] = ids.clone();
                    }
                }
            }
        }

        // Assemble final plans with all row indices resolved.
        let mut plans = Vec::with_capacity(m);
        for (i, d) in drafts.iter().enumerate() {
            let mut layers = Vec::with_capacity(num_layers);
            for lz in 0..num_layers {
                let input_ids = &d.input_ids[lz];
                let prev_ids: &[u32] = if lz == 0 { &d.feature_rows } else { &d.compute[lz - 1] };
                let recv_set: FxHashSet<u32> =
                    d.recv_ids[lz].iter().flatten().copied().collect();

                // Topology in row coordinates.
                let pos: FxHashMap<u32, u32> = input_ids
                    .iter()
                    .enumerate()
                    .map(|(r, &id)| (id, r as u32))
                    .collect();
                let mut adjacency: Vec<Vec<(u32, f32)>> = Vec::with_capacity(d.compute[lz].len());
                let mut dst_in_rows = Vec::with_capacity(d.compute[lz].len());
                for &v in &d.compute[lz] {
                    let list: Vec<(u32, f32)> = graph
                        .in_neighbors(v)
                        .iter()
                        .zip(graph.in_weights(v).iter())
                        .map(|(&u, &w)| (pos[&u], w))
                        .collect();
                    adjacency.push(list);
                    dst_in_rows.push(pos[&v]);
                }
                let topo = LayerTopology::from_adjacency(input_ids.len(), &adjacency, dst_in_rows);

                let local_src: Vec<(u32, u32)> = input_ids
                    .iter()
                    .enumerate()
                    .filter(|(_, id)| !recv_set.contains(id))
                    .map(|(r, &id)| (row_of(prev_ids, id), r as u32))
                    .collect();

                let recv_rows: Vec<Vec<u32>> = d.recv_ids[lz]
                    .iter()
                    .map(|ids| ids.iter().map(|&id| pos[&id]).collect())
                    .collect();
                let send: Vec<Vec<u32>> = send_ids[i][lz].clone();
                let send_rows: Vec<Vec<u32>> = send
                    .iter()
                    .map(|ids| ids.iter().map(|&id| row_of(prev_ids, id)).collect())
                    .collect();

                layers.push(LayerPlan {
                    compute: d.compute[lz].clone(),
                    input_ids: input_ids.clone(),
                    topo,
                    local_src,
                    recv_ids: d.recv_ids[lz].clone(),
                    recv_rows,
                    send_ids: send,
                    send_rows,
                });
            }
            plans.push(WorkerPlan {
                worker: i,
                owned: d.owned.clone(),
                feature_rows: d.feature_rows.clone(),
                layers,
            });
        }

        validate_plans(graph, part, &plans)?;
        Ok(plans)
    }

    fn setup(n: usize, m_edges: usize, parts: usize) -> (CsrGraph, Partitioning) {
        let edges = rmat(n, m_edges, (0.5, 0.2, 0.2), 17);
        let g = CsrGraph::from_edges(n, &edges, true);
        let p = Partitioner::Chunk.partition(&g, parts);
        (g, p)
    }

    #[test]
    fn depcomm_plan_has_no_replicas() {
        let (g, p) = setup(500, 3000, 4);
        let plans = build_plans(&g, &p, 2, &DepDecision::CommAll).unwrap();
        for plan in &plans {
            assert_eq!(plan.replica_slots(), 0);
            assert_eq!(plan.prefetched_features(), 0);
            // Must communicate something on a cut graph.
        }
        let total_recv: usize = plans.iter().map(|p| p.forward_comm_rows()).sum();
        assert!(total_recv > 0);
    }

    #[test]
    fn depcache_plan_has_no_communication() {
        let (g, p) = setup(500, 3000, 4);
        let plans = build_plans(&g, &p, 2, &DepDecision::CacheAll).unwrap();
        for plan in &plans {
            assert_eq!(plan.forward_comm_rows(), 0);
            // Layer-0 compute set is the 1-hop closure of the partition,
            // so replicas must exist on a cut graph.
        }
        let replicas: usize = plans.iter().map(|p| p.replica_slots()).sum();
        assert!(replicas > 0);
    }

    #[test]
    fn depcache_matches_khop_closure() {
        let (g, p) = setup(300, 1500, 3);
        let plans = build_plans(&g, &p, 2, &DepDecision::CacheAll).unwrap();
        for plan in &plans {
            let closure = ns_graph::khop::khop_in_closure(&g, &plan.owned, 2);
            // Layer 0 computes h^1 for owned ∪ 1-hop in-neighbors = layers[1] ∪ seeds.
            let mut expect: Vec<u32> = closure.layers[1]
                .iter()
                .chain(closure.layers[0].iter())
                .copied()
                .collect();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(plan.layers[0].compute, expect);
            // Feature rows cover the full 2-hop closure.
            let mut all = closure.layers.concat();
            all.sort_unstable();
            all.dedup();
            assert_eq!(plan.feature_rows, all);
        }
    }

    #[test]
    fn hybrid_sets_split_between_cache_and_comm() {
        let (g, p) = setup(400, 2400, 4);
        // Cache even-id deps, communicate odd ones.
        let mut sets: Vec<Vec<FxHashSet<u32>>> = vec![vec![FxHashSet::default(); 2]; 4];
        for i in 0..4 {
            for lz in 0..2 {
                for v in (0..400u32).filter(|v| v % 2 == 0) {
                    sets[i][lz].insert(v);
                }
            }
        }
        let plans = build_plans(&g, &p, 2, &DepDecision::Sets(sets)).unwrap();
        let replicas: usize = plans.iter().map(|p| p.replica_slots()).sum();
        let comm: usize = plans.iter().map(|p| p.forward_comm_rows()).sum();
        assert!(replicas > 0, "even deps should be cached");
        assert!(comm > 0, "odd deps should be communicated");
        // Every received id is odd (even ones were cached).
        for plan in &plans {
            for lp in &plan.layers {
                for ids in &lp.recv_ids {
                    assert!(ids.iter().all(|id| id % 2 == 1));
                }
            }
        }
    }

    #[test]
    fn single_worker_plan_is_fully_local() {
        let (g, p) = setup(200, 1000, 1);
        for d in [DepDecision::CacheAll, DepDecision::CommAll] {
            let plans = build_plans(&g, &p, 2, &d).unwrap();
            assert_eq!(plans.len(), 1);
            assert_eq!(plans[0].forward_comm_rows(), 0);
            assert_eq!(plans[0].replica_slots(), 0);
        }
    }

    #[test]
    fn three_layer_depcache_grows_closure() {
        let (g, p) = setup(400, 2400, 4);
        let plans2 = build_plans(&g, &p, 2, &DepDecision::CacheAll).unwrap();
        let plans3 = build_plans(&g, &p, 3, &DepDecision::CacheAll).unwrap();
        let r2: usize = plans2.iter().map(|p| p.replica_slots()).sum();
        let r3: usize = plans3.iter().map(|p| p.replica_slots()).sum();
        assert!(r3 > r2, "deeper model must replicate more ({r3} vs {r2})");
    }

    #[test]
    fn zero_layers_rejected() {
        let (g, p) = setup(100, 500, 2);
        assert!(build_plans(&g, &p, 0, &DepDecision::CommAll).is_err());
    }

    #[test]
    fn row_lookup_panics_on_missing() {
        let mut rows = Rows::new(6);
        assert_eq!(rows.over(&[1, 3, 5], |r| r.row(5)), 2);
        assert_eq!(rows.0, vec![NO_ROW; 6], "`over` unmaps what it mapped");
        let r = std::panic::catch_unwind(move || rows.over(&[1, 3, 5], |r| r.row(4)));
        assert!(r.is_err());
    }

    /// Every field of two plan sets is equal; edge weights by bits.
    fn assert_same_plans(got: &[WorkerPlan], want: &[WorkerPlan]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert_eq!((g.worker, &g.owned, &g.feature_rows), (w.worker, &w.owned, &w.feature_rows));
            assert_eq!(g.layers.len(), w.layers.len());
            for (lz, (a, b)) in g.layers.iter().zip(&w.layers).enumerate() {
                let at = format!("worker {}, layer {lz}", g.worker);
                assert_eq!((&a.compute, &a.input_ids, &a.local_src), (&b.compute, &b.input_ids, &b.local_src), "{at}");
                assert_eq!((&a.recv_ids, &a.recv_rows), (&b.recv_ids, &b.recv_rows), "{at}");
                assert_eq!((&a.send_ids, &a.send_rows), (&b.send_ids, &b.send_rows), "{at}");
                let (s, t) = (&a.topo, &b.topo);
                assert_eq!((s.n_src, s.n_dst), (t.n_src, t.n_dst), "{at}");
                assert_eq!((&*s.edge_src, &*s.edge_dst), (&*t.edge_src, &*t.edge_dst), "{at}");
                assert_eq!((&*s.dst_offsets, &*s.dst_in_rows), (&*t.dst_offsets, &*t.dst_in_rows), "{at}");
                let bits = |ws: &[f32]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&s.edge_weight), bits(&t.edge_weight), "{at}");
            }
        }
    }

    /// Per worker and layer, each vertex cached with probability `p`.
    fn random_sets(rng: &mut StdRng, n: usize, parts: usize, layers: usize) -> DepDecision {
        let p = rng.random::<f64>();
        let mut set = |_| (0..n as u32).filter(|_| rng.random_bool(p)).collect::<FxHashSet<u32>>();
        DepDecision::Sets((0..parts).map(|_| (0..layers).map(&mut set).collect()).collect())
    }

    /// The dense builder compiles exactly the plans the hash-set reference
    /// does: 1-3 layers, 2-4 workers, contiguous and non-contiguous
    /// partitions, DepCache, DepComm and random hybrid splits.
    #[test]
    fn plans_equal_the_hash_set_reference() {
        check_cases(0..24, |rng| {
            let n = rng.random_range(40usize..300);
            let edges = rmat(n, n * rng.random_range(2usize..8), (0.5, 0.2, 0.2), rng.random_range(0u64..1000));
            let g = CsrGraph::from_edges(n, &edges, true);
            let (parts, layers) = (rng.random_range(2usize..5), rng.random_range(1usize..4));
            for partitioner in [Partitioner::Chunk, Partitioner::MetisLike] {
                let part = partitioner.partition(&g, parts);
                let sets = random_sets(rng, n, parts, layers);
                for d in [DepDecision::CacheAll, DepDecision::CommAll, sets] {
                    let got = build_plans(&g, &part, layers, &d).unwrap();
                    let want = reference_build_plans(&g, &part, layers, &d).unwrap();
                    assert_same_plans(&got, &want);
                }
            }
        });
    }

    #[test]
    fn depcomm_layers_share_one_topology_and_depcache_layers_do_not() {
        let (g, p) = setup(500, 3000, 4);
        for plan in build_plans(&g, &p, 3, &DepDecision::CommAll).unwrap() {
            for lp in &plan.layers[1..] {
                assert!(Arc::ptr_eq(&lp.topo.edge_src, &plan.layers[0].topo.edge_src));
                assert!(lp.topo.shares_storage(&plan.layers[0].topo));
            }
        }
        for plan in build_plans(&g, &p, 3, &DepDecision::CacheAll).unwrap() {
            for pair in plan.layers.windows(2) {
                assert!(!Arc::ptr_eq(&pair[0].topo.edge_src, &pair[1].topo.edge_src));
            }
        }
    }

    /// A bad topology shared by every layer still fails validation.
    #[test]
    fn validation_still_checks_a_shared_topology() {
        let (g, p) = setup(300, 1500, 3);
        let mut plans = build_plans(&g, &p, 2, &DepDecision::CommAll).unwrap();
        let mut bad = plans[1].layers[0].topo.clone();
        bad.dst_in_rows = bad.dst_in_rows.iter().map(|_| bad.n_src as u32).collect();
        for lp in &mut plans[1].layers {
            lp.topo = bad.clone();
        }
        assert!(validate_plans(&g, &p, &plans).is_err());
    }
}
