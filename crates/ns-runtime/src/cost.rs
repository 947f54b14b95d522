//! Cost-factor probing (Algorithm 4, line 1).
//!
//! The hybrid partitioner needs per-layer estimates of
//!
//! * `T_v` — seconds to compute one vertex's representation,
//! * `T_e` — seconds to process one in-edge, and
//! * `T_c` — seconds to communicate one dependency's representation
//!   (forward fetch + backward gradient return),
//!
//! for the concrete model and cluster at hand. The paper probes these "by
//! executing a test training on a small graph"; we do the same: each
//! layer runs forward + backward on two small synthetic topologies that
//! differ only in edge count, and the measured FLOP totals are solved for
//! the per-edge and per-vertex components, which the device model then
//! converts to seconds.

use ns_rand::StdRng;

use ns_gnn::{GnnModel, LayerInput, LayerTopology};
use ns_net::ClusterSpec;
use ns_tensor::Tensor;

/// Per-layer FLOP decomposition, forward and backward separated (the
/// simulator schedules the two phases differently).
#[derive(Debug, Clone, Copy)]
pub struct LayerFlops {
    /// Forward FLOPs per edge.
    pub edge_fwd: f64,
    /// Forward FLOPs per computed vertex.
    pub vertex_fwd: f64,
    /// Backward FLOPs per edge.
    pub edge_bwd: f64,
    /// Backward FLOPs per computed vertex.
    pub vertex_bwd: f64,
}

impl LayerFlops {
    /// Combined forward+backward FLOPs per edge.
    pub fn edge_total(&self) -> f64 {
        self.edge_fwd + self.edge_bwd
    }

    /// Combined forward+backward FLOPs per vertex.
    pub fn vertex_total(&self) -> f64 {
        self.vertex_fwd + self.vertex_bwd
    }
}

/// Probed cost factors for one (model, cluster) pair.
#[derive(Debug, Clone)]
pub struct CostFactors {
    /// Per-layer FLOP decomposition (index = layer `lz`).
    pub flops: Vec<LayerFlops>,
    /// `T_v[lz]`: seconds of redundant compute to produce one replica
    /// vertex's `h^{(lz+1)}` (forward + backward).
    pub t_v: Vec<f64>,
    /// `T_e[lz]`: seconds of redundant compute to replay one in-edge at
    /// layer `lz` (forward + backward).
    pub t_e: Vec<f64>,
    /// `T_c[lz]`: seconds to communicate one layer-`lz` dependency row
    /// (representation out + gradient back).
    pub t_c: Vec<f64>,
}

impl CostFactors {
    /// FLOPs one owned vertex costs per epoch, all layers, forward and
    /// backward: `Σ_l vertex_total`.
    pub fn vertex_flops(&self) -> f64 {
        self.flops.iter().map(LayerFlops::vertex_total).sum()
    }

    /// FLOPs one in-edge costs per epoch, all layers, forward and
    /// backward: `Σ_l edge_total`. Positive: every layer aggregates.
    pub fn edge_flops(&self) -> f64 {
        self.flops.iter().map(LayerFlops::edge_total).sum()
    }

    /// What a vertex costs the executor in units of an in-edge: the
    /// chunk partitioner's vertex weight for runs that execute
    /// ([`VertexWeight::ModelFlops`](crate::trainer::VertexWeight)). A
    /// ratio of FLOP counts, so a pure function of the model — 60.1 for
    /// 52→32→16 GCN, 396.3 for 512→256→16 — and the same on every
    /// cluster and thread count.
    pub fn vertex_weight(&self) -> f64 {
        self.vertex_flops() / self.edge_flops()
    }

    /// A copy with every per-layer communication cost `T_c` multiplied by
    /// `factor`. The measured-cost replanner uses this to fold the
    /// observed global comm slowdown (mean receive wait drift relative to
    /// the run's first chunk) back into the Algorithm-4 inputs; compute
    /// factors are left untouched because they are probed, not drifting.
    pub fn with_comm_scale(&self, factor: f64) -> CostFactors {
        CostFactors {
            t_c: self.t_c.iter().map(|t| t * factor).collect(),
            ..self.clone()
        }
    }

    /// A copy with every per-layer compute cost (`T_v` and `T_e`)
    /// multiplied by `factor`; communication costs are untouched. The
    /// thread-aware calibration uses `1 / parallel_speedup(threads)` so
    /// Algorithm 4 weighs redundant computation at the throughput the
    /// intra-worker pool actually delivers.
    pub fn with_compute_scale(&self, factor: f64) -> CostFactors {
        CostFactors {
            t_v: self.t_v.iter().map(|t| t * factor).collect(),
            t_e: self.t_e.iter().map(|t| t * factor).collect(),
            ..self.clone()
        }
    }
}

/// Fraction of per-vertex/per-edge compute the intra-worker pool can run
/// in parallel. Fixed (not measured) so that dependency plans remain a
/// pure function of `(model, cluster, threads)` — a wall-clock-calibrated
/// value would make Hybrid plans nondeterministic across runs.
const PARALLEL_FRACTION: f64 = 0.9;

/// Deterministic Amdahl's-law speedup of the compute kernels at `threads`
/// intra-worker threads: `1 / ((1 - p) + p / threads)` with `p = 0.9`.
/// `threads <= 1` yields exactly `1.0`.
pub fn parallel_speedup(threads: usize) -> f64 {
    let t = threads.max(1) as f64;
    1.0 / ((1.0 - PARALLEL_FRACTION) + PARALLEL_FRACTION / t)
}

/// [`probe`], then folds the `threads`-thread compute speedup into `T_v`
/// and `T_e` (Algorithm 4's compute term). `T_c` is unaffected: the
/// fabric does not get faster because the worker has more cores.
pub fn probe_threaded(model: &GnnModel, cluster: &ClusterSpec, threads: usize) -> CostFactors {
    probe(model, cluster).with_compute_scale(1.0 / parallel_speedup(threads))
}

fn probe_topology(n_src: usize, n_dst: usize, edges: usize, seed: u64) -> LayerTopology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adj: Vec<Vec<(u32, f32)>> = vec![Vec::new(); n_dst];
    // Guarantee each destination at least one edge, then spread the rest.
    for list in &mut adj {
        list.push((rng.random_range(0..n_src) as u32, 1.0));
    }
    for _ in n_dst..edges {
        let d = rng.random_range(0..n_dst);
        adj[d].push((rng.random_range(0..n_src) as u32, 1.0));
    }
    let dst_in_rows = (0..n_dst as u32).collect();
    LayerTopology::from_adjacency(n_src, &adj, dst_in_rows)
}

/// Measures a layer's total forward/backward FLOPs on a given topology.
fn measure_layer(model: &GnnModel, lz: usize, topo: &LayerTopology, seed: u64) -> (u64, u64) {
    let layer = model.layer(lz);
    let store = model.fresh_store();
    let mut rng = StdRng::seed_from_u64(seed);
    let h = Tensor::from_vec(
        topo.n_src,
        layer.in_dim(),
        (0..topo.n_src * layer.in_dim()).map(|_| rng.random::<f32>() - 0.5).collect(),
    );
    // The probe prices a full layer: input gradient included, as every
    // layer but the first pays it.
    let run = layer.forward(&store, topo, LayerInput::Tracked(h));
    let fwd = run.forward_flops();
    let seed_grad = Tensor::full(topo.n_dst, layer.out_dim(), 1.0);
    let mut grads = store.zero_grads();
    let (_, bwd) = run.backward(seed_grad, &mut grads);
    (fwd, bwd)
}

/// Probes all layers of `model` against `cluster`.
pub fn probe(model: &GnnModel, cluster: &ClusterSpec) -> CostFactors {
    let n_src = 96;
    let n_dst = 48;
    let e1 = 96;
    let e2 = 480;
    let topo1 = probe_topology(n_src, n_dst, e1, 11);
    let topo2 = probe_topology(n_src, n_dst, e2, 12);
    // The probe topologies keep n_src/n_dst fixed, so the FLOP difference
    // isolates the per-edge component. n_src rows also contribute
    // row-proportional work in some layers (GAT's Wh, the H·W of a GCN
    // layer that transforms before it aggregates); attribute it to the
    // vertex component scaled by n_dst for a conservative estimate.
    let mut flops = Vec::with_capacity(model.num_layers());
    let mut t_v = Vec::with_capacity(model.num_layers());
    let mut t_e = Vec::with_capacity(model.num_layers());
    let mut t_c = Vec::with_capacity(model.num_layers());
    let dense = cluster.device.dense_gflops * 1e9;
    let sparse = cluster.device.sparse_gflops * 1e9;
    for lz in 0..model.num_layers() {
        let (f1, b1) = measure_layer(model, lz, &topo1, 21);
        let (f2, b2) = measure_layer(model, lz, &topo2, 22);
        let de = (e2 - e1) as f64;
        let edge_fwd = ((f2 as f64 - f1 as f64) / de).max(0.0);
        let edge_bwd = ((b2 as f64 - b1 as f64) / de).max(0.0);
        let vertex_fwd = ((f1 as f64 - edge_fwd * e1 as f64) / n_dst as f64).max(1.0);
        let vertex_bwd = ((b1 as f64 - edge_bwd * e1 as f64) / n_dst as f64).max(1.0);
        let lf = LayerFlops { edge_fwd, vertex_fwd, edge_bwd, vertex_bwd };
        // Vertex functions are dense matmuls; edge work (gather /
        // aggregate / per-edge functions) is sparse and bandwidth-bound.
        t_v.push(lf.vertex_total() / dense);
        t_e.push(lf.edge_total() / sparse);
        // One dependency row: forward representation (d_in floats + id)
        // plus the backward gradient of the same width.
        let row_bytes = (4 * model.layer(lz).in_dim() + 4) as f64;
        t_c.push(2.0 * row_bytes / cluster.bandwidth_bps());
        flops.push(lf);
    }
    CostFactors { flops, t_v, t_e, t_c }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_gnn::ModelKind;

    fn factors(kind: ModelKind) -> CostFactors {
        let model = GnnModel::two_layer(kind, 32, 16, 4, 5);
        probe(&model, &ClusterSpec::aliyun_ecs(4))
    }

    #[test]
    fn probe_produces_positive_factors() {
        for kind in [ModelKind::Gcn, ModelKind::Gin, ModelKind::Gat] {
            let f = factors(kind);
            assert_eq!(f.t_v.len(), 2);
            for lz in 0..2 {
                assert!(f.t_v[lz] > 0.0, "{:?} t_v", kind.name());
                assert!(f.t_e[lz] > 0.0, "{:?} t_e", kind.name());
                assert!(f.t_c[lz] > 0.0, "{:?} t_c", kind.name());
            }
        }
    }

    #[test]
    fn gcn_vertex_cost_dominates_edge_cost() {
        // GCN's vertex function is a dense matmul; its edge function is a
        // weighted copy. Per-unit vertex cost must dwarf edge cost.
        let f = factors(ModelKind::Gcn);
        assert!(f.flops[0].vertex_fwd > 10.0 * f.flops[0].edge_fwd);
    }

    #[test]
    fn wider_layer_costs_more() {
        let narrow = GnnModel::two_layer(ModelKind::Gcn, 32, 8, 4, 5);
        let wide = GnnModel::two_layer(ModelKind::Gcn, 32, 64, 4, 5);
        let c = ClusterSpec::aliyun_ecs(4);
        let fn_ = probe(&narrow, &c);
        let fw = probe(&wide, &c);
        assert!(fw.t_v[0] > fn_.t_v[0]);
        // Layer-1 input dim (hidden) is wider, so its comm cost is higher.
        assert!(fw.t_c[1] > fn_.t_c[1]);
    }

    #[test]
    fn faster_network_lowers_t_c_only() {
        let model = GnnModel::two_layer(ModelKind::Gcn, 32, 16, 4, 5);
        let ecs = probe(&model, &ClusterSpec::aliyun_ecs(4));
        let ibv = probe(&model, &ClusterSpec::ibv(4));
        assert!(ibv.t_c[1] < ecs.t_c[1] / 10.0);
        // Compute factors scale with device speed instead.
        assert!(ibv.t_v[0] < ecs.t_v[0]);
    }

    #[test]
    fn comm_scale_touches_only_t_c() {
        let f = factors(ModelKind::Gcn);
        let scaled = f.with_comm_scale(3.0);
        for lz in 0..2 {
            assert!((scaled.t_c[lz] - 3.0 * f.t_c[lz]).abs() < 1e-18);
            assert_eq!(scaled.t_v[lz], f.t_v[lz]);
            assert_eq!(scaled.t_e[lz], f.t_e[lz]);
        }
    }

    #[test]
    fn parallel_speedup_is_monotone_and_bounded() {
        assert_eq!(parallel_speedup(0), 1.0);
        assert_eq!(parallel_speedup(1), 1.0);
        let mut prev = 1.0;
        for t in 2..=16 {
            let s = parallel_speedup(t);
            assert!(s > prev, "speedup must grow with threads");
            assert!(s < t as f64, "super-linear speedup is impossible");
            prev = s;
        }
        // Amdahl ceiling: 1 / (1 - p) = 10x for p = 0.9.
        assert!(parallel_speedup(1_000_000) < 10.0);
    }

    #[test]
    fn compute_scale_touches_only_t_v_and_t_e() {
        let f = factors(ModelKind::Gcn);
        let scaled = f.with_compute_scale(0.25);
        for lz in 0..2 {
            assert!((scaled.t_v[lz] - 0.25 * f.t_v[lz]).abs() < 1e-18);
            assert!((scaled.t_e[lz] - 0.25 * f.t_e[lz]).abs() < 1e-18);
            assert_eq!(scaled.t_c[lz], f.t_c[lz]);
        }
    }

    #[test]
    fn threaded_probe_cheapens_compute_deterministically() {
        let model = GnnModel::two_layer(ModelKind::Gcn, 32, 16, 4, 5);
        let c = ClusterSpec::aliyun_ecs(4);
        let t1 = probe_threaded(&model, &c, 1);
        let t4 = probe_threaded(&model, &c, 4);
        let t4b = probe_threaded(&model, &c, 4);
        for lz in 0..2 {
            assert!(t4.t_v[lz] < t1.t_v[lz]);
            assert!(t4.t_e[lz] < t1.t_e[lz]);
            assert_eq!(t4.t_c[lz], t1.t_c[lz], "comm term must not change");
            // Same inputs -> bit-equal factors (plans stay deterministic).
            assert_eq!(t4.t_v[lz], t4b.t_v[lz]);
        }
    }

    #[test]
    fn gat_edge_cost_exceeds_gcn_edge_cost_at_equal_widths() {
        // GAT's parameterized edge function (attention logits + softmax +
        // weighting) must cost more per edge than GCN's weighted copy when
        // both operate at the same width.
        let c = ClusterSpec::aliyun_ecs(4);
        let gat = probe(&GnnModel::two_layer(ModelKind::Gat, 32, 32, 4, 5), &c);
        let gcn = probe(&GnnModel::two_layer(ModelKind::Gcn, 32, 32, 4, 5), &c);
        assert!(
            gat.flops[0].edge_total() > gcn.flops[0].edge_total(),
            "gat {} vs gcn {}",
            gat.flops[0].edge_total(),
            gcn.flops[0].edge_total()
        );
    }
}
