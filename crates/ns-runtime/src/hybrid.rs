//! Hybrid dependency partitioning — Algorithm 4.
//!
//! For every worker and layer, the remote dependency set `D_i^l` is split
//! into a cached subset `R_i^l` and a communicated subset `C_i^l` by a
//! greedy pass: dependencies are examined in ascending order of their
//! redundant-computation cost `t_r^l(u)` (Eq. 1, measured over the
//! dependency subtree rooted at `u`, excluding vertices the worker owns
//! or has already replicated — the running `V_rep` set realizes the
//! paper's μ overlap trim), and cached whenever `t_r^l(u) < t_c^l(u)`
//! (Eq. 2), subject to the device-memory budget `S` (Eq. 3). Layers are
//! processed bottom-up (l = 1..L) exactly as in the paper, so feature-
//! level dependencies — whose redundant-compute cost is zero — are cached
//! first and discount the subtrees of higher layers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use ns_graph::fx::FxHashSet;
use ns_graph::khop::khop_in_closure;
use ns_graph::{CsrGraph, Partitioning};

use crate::cost::CostFactors;
use crate::error::{Result, RuntimeError};
use crate::plan::DepDecision;

/// Hybrid-engine configuration.
#[derive(Debug, Clone, Default)]
pub struct HybridConfig {
    /// Memory budget `S` per worker; defaults to the modeled device
    /// memory.
    pub memory_budget_bytes: Option<u64>,
    /// Fig. 11's manual knob: force this fraction of each layer's
    /// dependencies (the most cache-efficient ones first) to be cached,
    /// bypassing the cost comparison. `Some(0.0)` ≈ DepComm,
    /// `Some(1.0)` ≈ DepCache. Exceeding memory is an error in this mode
    /// (the paper's "caching all dependencies can even result in an
    /// out-of-memory error").
    pub ratio_override: Option<f64>,
    /// Measured per-owner communication multipliers, indexed by the
    /// worker that *owns* a dependency: fetching `u` costs
    /// `T_c * peer_comm_mult[owner(u)]`. The measured-cost replanner
    /// derives these from per-peer receive-wait counters, so a straggling
    /// peer's dependencies become expensive to communicate and shift
    /// toward caching. `None` (the default) means all ones.
    pub peer_comm_mult: Option<Vec<f64>>,
}

/// Outcome statistics of the dependency partitioning.
#[derive(Debug, Clone)]
pub struct HybridInfo {
    /// Cached dependencies per layer, summed over workers.
    pub cached_per_layer: Vec<usize>,
    /// Communicated dependencies per layer, summed over workers.
    pub comm_per_layer: Vec<usize>,
    /// Subtree vertices/edges visited while measuring costs — the
    /// preprocessing work (Table 3), convertible to seconds at a nominal
    /// CPU rate.
    pub preprocessing_ops: u64,
    /// Wall-clock seconds the partitioning took on this machine.
    pub wall_s: f64,
    /// Whether any worker hit the memory budget and stopped caching early.
    pub budget_exhausted: bool,
}

impl HybridInfo {
    /// Total cached dependencies.
    pub fn total_cached(&self) -> usize {
        self.cached_per_layer.iter().sum()
    }

    /// Total communicated dependencies.
    pub fn total_comm(&self) -> usize {
        self.comm_per_layer.iter().sum()
    }

    /// Fraction of dependencies cached.
    pub fn cached_fraction(&self) -> f64 {
        let total = self.total_cached() + self.total_comm();
        if total == 0 {
            0.0
        } else {
            self.total_cached() as f64 / total as f64
        }
    }

    /// Preprocessing time modeled at `ops_per_second` (a nominal CPU
    /// traversal rate; the partitioning is simple pointer chasing).
    pub fn preprocessing_seconds(&self, ops_per_second: f64) -> f64 {
        self.preprocessing_ops as f64 / ops_per_second
    }
}

/// f64 with a total order, for the priority queue.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Of64(f64);
impl Eq for Of64 {}
impl PartialOrd for Of64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Of64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

struct WorkerState<'a> {
    graph: &'a CsrGraph,
    owned: Vec<bool>,
    /// `rep[k][v]`: `v`'s level-`k` representation (`k = 0` => features)
    /// is locally materialized — the paper's `V_rep`, layered.
    rep: Vec<Vec<bool>>,
    /// `seen[v] == stamp`: the current `measure` call has reached `v`.
    seen: Vec<u32>,
    stamp: u32,
    dims: &'a [usize],
    costs: &'a CostFactors,
    ops: u64,
}

impl<'a> WorkerState<'a> {
    fn new(graph: &'a CsrGraph, owned: &[u32], dims: &'a [usize], costs: &'a CostFactors) -> Self {
        let n = graph.num_vertices();
        let mut is_owned = vec![false; n];
        owned.iter().for_each(|&v| is_owned[v as usize] = true);
        let rep = vec![vec![false; n]; dims.len() - 1];
        WorkerState { graph, owned: is_owned, rep, seen: vec![0; n], stamp: 0, dims, costs, ops: 0 }
    }

    /// Measures `t_r^{lz+1}(u)`: the redundant-compute seconds of caching
    /// dependency `u` of layer `lz`'s inputs (u's `h^{(lz)}` computed
    /// locally), excluding already-available vertices.
    fn measure(&mut self, u: u32, lz: usize) -> f64 {
        // Features (Eq. 1's sum is empty) and available vertices cost nothing.
        if lz == 0 || self.owned[u as usize] || self.rep[lz][u as usize] {
            return 0.0;
        }
        self.stamp = self.stamp.checked_add(1).unwrap_or_else(|| {
            self.seen.fill(0); // wrapped: forget every earlier call
            1
        });
        let mut cost = 0.0f64;
        let mut frontier = vec![u];
        let mut level = lz; // h^{level} being produced
        while level >= 1 && !frontier.is_empty() {
            let mut next = Vec::new();
            for &w in &frontier {
                // Vertex compute of h^{level}_w runs layer index level-1.
                cost += self.costs.t_v[level - 1];
                self.ops += 1;
                for &x in self.graph.in_neighbors(w) {
                    cost += self.costs.t_e[level - 1];
                    self.ops += 1;
                    let xi = x as usize;
                    let unseen = level > 1 && !self.owned[xi] && !self.rep[level - 1][xi];
                    if unseen && self.seen[xi] != self.stamp {
                        self.seen[xi] = self.stamp;
                        next.push(x);
                    }
                }
            }
            frontier = next;
            level -= 1;
        }
        cost
    }

    /// Commits the caching of `u` at layer `lz`: adds its subtree to the
    /// replica sets and returns `(added_bytes, added: Vec<(level, v)>)`
    /// for potential rollback.
    fn cache(&mut self, u: u32, lz: usize) -> (u64, Vec<(usize, u32)>) {
        let mut bytes = 0u64;
        let mut added = Vec::new();
        let mut add = |rep: &mut Vec<Vec<bool>>, level: usize, v: u32, dims: &[usize]| -> u64 {
            if std::mem::replace(&mut rep[level][v as usize], true) {
                return 0;
            }
            added.push((level, v));
            dims[level] as u64 * 4 + 8
        };
        if !self.owned[u as usize] {
            bytes += add(&mut self.rep, lz, u, self.dims);
        }
        let mut frontier = vec![u];
        let mut level = lz;
        while level >= 1 && !frontier.is_empty() {
            let mut next = Vec::new();
            for &w in &frontier {
                for &x in self.graph.in_neighbors(w) {
                    bytes += 8; // replayed edge structure
                    if self.owned[x as usize] {
                        continue;
                    }
                    let lower = level - 1;
                    let b = add(&mut self.rep, lower, x, self.dims);
                    if b > 0 {
                        bytes += b;
                        if lower >= 1 {
                            next.push(x);
                        }
                    }
                }
            }
            frontier = next;
            level -= 1;
        }
        (bytes, added)
    }

    fn rollback(&mut self, added: &[(usize, u32)]) {
        for &(level, v) in added {
            self.rep[level][v as usize] = false;
        }
    }
}

/// Worker `worker`'s remote dependencies `D_i^l`, per 0-based layer `lz`,
/// sorted: the inputs of layer `lz` under full caching (`V_i^{lz}`, the
/// owned set's closure layer `L - lz`) that the worker does not own.
pub(crate) fn remote_deps(
    graph: &CsrGraph,
    part: &Partitioning,
    worker: usize,
    num_layers: usize,
) -> Vec<Vec<u32>> {
    let mut deps = khop_in_closure(graph, &part.part_vertices(worker), num_layers).layers;
    deps.iter_mut().for_each(|layer| layer.retain(|&u| part.owner(u) != worker));
    deps.reverse();
    deps.pop(); // the seeds: all owned
    deps
}

/// Runs Algorithm 4 for every worker and returns the dependency decision
/// plus statistics.
///
/// `scale` is the dataset's materialization scale: the memory budget is
/// enforced on the working set *projected to full scale* (see
/// [`crate::memory`]).
#[allow(clippy::too_many_arguments)]
pub fn partition_dependencies(
    graph: &CsrGraph,
    part: &Partitioning,
    dims: &[usize],
    costs: &CostFactors,
    scale: f64,
    device_mem_bytes: u64,
    cfg: &HybridConfig,
) -> Result<(DepDecision, HybridInfo)> {
    let start = Instant::now();
    let m = part.num_parts();
    let num_layers = dims.len() - 1;
    let budget = cfg.memory_budget_bytes.unwrap_or(device_mem_bytes);

    // Per-owner communication multiplier (measured feedback): fetching a
    // dependency from a slow peer costs proportionally more.
    let peer_mult = |u: u32| -> f64 {
        cfg.peer_comm_mult
            .as_ref()
            .map_or(1.0, |mults| mults.get(part.owner(u)).copied().unwrap_or(1.0))
    };

    let mut sets: Vec<Vec<FxHashSet<u32>>> = vec![vec![FxHashSet::default(); num_layers]; m];
    let mut cached_per_layer = vec![0usize; num_layers];
    let mut comm_per_layer = vec![0usize; num_layers];
    let mut total_ops = 0u64;
    let mut budget_exhausted = false;

    let sum_dims: u64 = dims.iter().map(|&d| d as u64).sum();

    for i in 0..m {
        let owned_vec = part.part_vertices(i);
        // Baseline working set (owned activations and edges), projected.
        let owned_edges: usize = owned_vec.iter().map(|&v| graph.in_degree(v)).sum();
        let base_bytes = owned_vec.len() as u64 * sum_dims * 8 + owned_edges as u64 * 16;
        let mut cache_bytes = 0u64;

        let remote = remote_deps(graph, part, i, num_layers);
        let mut state = WorkerState::new(graph, &owned_vec, dims, costs);

        'layers: for lz in 0..num_layers {
            let deps = &remote[lz];
            let t_c = costs.t_c[lz];

            if let Some(ratio) = cfg.ratio_override {
                // Fig. 11 mode: cache the cheapest `ratio` fraction.
                let mut measured: Vec<(f64, u32)> =
                    deps.iter().map(|&u| (state.measure(u, lz), u)).collect();
                measured.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let take = (ratio * deps.len() as f64).round() as usize;
                for &(_, u) in measured.iter().take(take) {
                    let (bytes, _) = state.cache(u, lz);
                    cache_bytes += bytes;
                    sets[i][lz].insert(u);
                    cached_per_layer[lz] += 1;
                    let projected = ((base_bytes + cache_bytes) as f64 / scale) as u64;
                    if projected > budget {
                        return Err(RuntimeError::DeviceOom {
                            what: format!("Hybrid(ratio={ratio})"),
                            needed_bytes: projected,
                            limit_bytes: budget,
                        });
                    }
                }
                comm_per_layer[lz] += deps.len() - take.min(deps.len());
                continue;
            }

            // Algorithm 4 proper: greedy by ascending t_r with lazy
            // re-measurement.
            let mut queue: BinaryHeap<Reverse<(Of64, u32)>> = deps
                .iter()
                .map(|&u| Reverse((Of64(state.measure(u, lz)), u)))
                .collect();
            while let Some(Reverse((_, u))) = queue.pop() {
                let t_r = state.measure(u, lz); // re-measure excluding V_rep
                if t_r < t_c * peer_mult(u) {
                    let (bytes, added) = state.cache(u, lz);
                    let projected =
                        ((base_bytes + cache_bytes + bytes) as f64 / scale) as u64;
                    if projected > budget {
                        // Exclude u and stop caching (Alg. 4 lines 14-15).
                        state.rollback(&added);
                        comm_per_layer[lz] += 1 + queue.len();
                        budget_exhausted = true;
                        // Everything this worker has not decided yet is
                        // communicated (Alg. 4 returns immediately).
                        for rest in lz + 1..num_layers {
                            comm_per_layer[rest] += remote[rest].len();
                        }
                        break 'layers;
                    }
                    cache_bytes += bytes;
                    sets[i][lz].insert(u);
                    cached_per_layer[lz] += 1;
                } else {
                    comm_per_layer[lz] += 1;
                }
            }
        }
        total_ops += state.ops;
    }

    let info = HybridInfo {
        cached_per_layer,
        comm_per_layer,
        preprocessing_ops: total_ops,
        wall_s: start.elapsed().as_secs_f64(),
        budget_exhausted,
    };
    Ok((DepDecision::Sets(sets), info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::probe;
    use ns_gnn::{GnnModel, ModelKind};
    use ns_graph::generate::rmat;
    use ns_graph::Partitioner;
    use ns_net::ClusterSpec;

    fn setup() -> (CsrGraph, Partitioning, GnnModel, CostFactors, ClusterSpec) {
        let edges = rmat(800, 6000, (0.55, 0.2, 0.2), 23);
        let g = CsrGraph::from_edges(800, &edges, true);
        let p = Partitioner::Chunk.partition(&g, 4);
        let cluster = ClusterSpec::aliyun_ecs(4);
        let model = GnnModel::two_layer(ModelKind::Gcn, 64, 32, 8, 1);
        let costs = probe(&model, &cluster);
        (g, p, model, costs, cluster)
    }

    #[test]
    fn auto_mode_produces_disjoint_cover() {
        let (g, p, model, costs, cluster) = setup();
        let (decision, info) = partition_dependencies(
            &g,
            &p,
            model.dims(),
            &costs,
            1.0,
            cluster.device.mem_bytes,
            &HybridConfig::default(),
        )
        .unwrap();
        // Every dependency is either cached or communicated, never both.
        let DepDecision::Sets(sets) = &decision else { panic!() };
        for i in 0..4 {
            for lz in 0..2 {
                let owned: FxHashSet<u32> = p.part_vertices(i).into_iter().collect();
                for u in &sets[i][lz] {
                    assert!(!owned.contains(u), "cached an owned vertex");
                }
            }
        }
        let total = info.total_cached() + info.total_comm();
        assert!(total > 0);
        assert!(info.preprocessing_ops > 0);
    }

    #[test]
    fn layer0_feature_deps_are_always_cached() {
        // t_r = 0 at layer 0, so with ample memory everything is cached.
        let (g, p, model, costs, cluster) = setup();
        let (_, info) = partition_dependencies(
            &g,
            &p,
            model.dims(),
            &costs,
            1.0,
            cluster.device.mem_bytes,
            &HybridConfig::default(),
        )
        .unwrap();
        assert_eq!(info.comm_per_layer[0], 0, "layer-0 deps must all cache");
    }

    #[test]
    fn slow_network_caches_more_than_fast_network() {
        let (g, p, model, _, _) = setup();
        let ecs = ClusterSpec::aliyun_ecs(4);
        let ibv = ClusterSpec::ibv(4);
        let costs_slow = probe(&model, &ecs);
        let costs_fast = probe(&model, &ibv);
        let (_, slow) = partition_dependencies(
            &g, &p, model.dims(), &costs_slow, 1.0, ecs.device.mem_bytes,
            &HybridConfig::default(),
        )
        .unwrap();
        let (_, fast) = partition_dependencies(
            &g, &p, model.dims(), &costs_fast, 1.0, ibv.device.mem_bytes,
            &HybridConfig::default(),
        )
        .unwrap();
        assert!(
            slow.cached_fraction() >= fast.cached_fraction(),
            "slow {} vs fast {}",
            slow.cached_fraction(),
            fast.cached_fraction()
        );
    }

    #[test]
    fn ratio_override_hits_requested_fraction() {
        let (g, p, model, costs, cluster) = setup();
        for ratio in [0.0, 0.5, 1.0] {
            let (_, info) = partition_dependencies(
                &g,
                &p,
                model.dims(),
                &costs,
                1.0,
                cluster.device.mem_bytes,
                &HybridConfig { ratio_override: Some(ratio), ..Default::default() },
            )
            .unwrap();
            let f = info.cached_fraction();
            assert!(
                (f - ratio).abs() < 0.05,
                "requested {ratio}, got {f}"
            );
        }
    }

    #[test]
    fn tight_budget_stops_caching() {
        let (g, p, model, costs, _) = setup();
        let (_, info) = partition_dependencies(
            &g,
            &p,
            model.dims(),
            &costs,
            1.0,
            u64::MAX,
            &HybridConfig { memory_budget_bytes: Some(1), ..Default::default() },
        )
        .unwrap();
        assert!(info.budget_exhausted);
        assert_eq!(info.total_cached(), 0, "no cache fits a 1-byte budget");
    }

    #[test]
    fn ratio_mode_ooms_on_tiny_budget() {
        let (g, p, model, costs, _) = setup();
        let err = partition_dependencies(
            &g,
            &p,
            model.dims(),
            &costs,
            1.0,
            u64::MAX,
            &HybridConfig {
                memory_budget_bytes: Some(1),
                ratio_override: Some(1.0),
                ..Default::default()
            },
        );
        assert!(matches!(err, Err(RuntimeError::DeviceOom { .. })));
    }

    #[test]
    fn slow_owner_multiplier_shifts_its_deps_toward_caching() {
        let (g, p, model, costs, cluster) = setup();
        let count_cached_from = |decision: &DepDecision, owner: usize| -> usize {
            let DepDecision::Sets(sets) = decision else { panic!() };
            sets.iter()
                .flatten()
                .flat_map(|s| s.iter())
                .filter(|&&u| p.owner(u) == owner)
                .count()
        };
        let (base, _) = partition_dependencies(
            &g, &p, model.dims(), &costs, 1.0, cluster.device.mem_bytes,
            &HybridConfig::default(),
        )
        .unwrap();
        let mut mults = vec![1.0; 4];
        mults[2] = 50.0;
        let (slow, _) = partition_dependencies(
            &g, &p, model.dims(), &costs, 1.0, cluster.device.mem_bytes,
            &HybridConfig { peer_comm_mult: Some(mults), ..Default::default() },
        )
        .unwrap();
        assert!(
            count_cached_from(&slow, 2) >= count_cached_from(&base, 2),
            "a slow owner's deps must not become less cached"
        );
        // Sanity: the all-ones multiplier is a no-op.
        let (ones, _) = partition_dependencies(
            &g, &p, model.dims(), &costs, 1.0, cluster.device.mem_bytes,
            &HybridConfig { peer_comm_mult: Some(vec![1.0; 4]), ..Default::default() },
        )
        .unwrap();
        for owner in 0..4 {
            assert_eq!(count_cached_from(&ones, owner), count_cached_from(&base, owner));
        }
    }

    #[test]
    fn measure_is_zero_for_already_replicated() {
        let (g, p, _, costs, _) = setup();
        let owned_vec = p.part_vertices(0);
        let mut state = WorkerState::new(&g, &owned_vec, &[64, 32, 8], &costs);
        // Pick some remote vertex.
        let u = (0..800u32).find(|&v| !state.owned[v as usize]).unwrap();
        let before = state.measure(u, 1);
        assert!(before > 0.0);
        state.cache(u, 1);
        assert_eq!(state.measure(u, 1), 0.0);
    }
}
