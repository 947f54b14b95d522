//! Layer stacks with the paper's model configurations.
//!
//! All three evaluation models (GCN, GIN, GAT) are 2-layer in the paper
//! (§5.1); the stack here is depth-generic. The parameter store returned
//! by [`GnnModel::fresh_store`] is what each worker replicates — layers
//! themselves are immutable and shared.

use ns_rand::StdRng;

use ns_tensor::nn::ParamStore;

use crate::layers::{GatLayer, GcnLayer, GinLayer, GnnLayer, SageLayer};
use crate::ops::Aggregator;

/// Which GNN architecture to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Graph Convolutional Network.
    Gcn,
    /// Graph Isomorphism Network.
    Gin,
    /// Graph Attention Network.
    Gat,
    /// GraphSAGE (mean aggregator).
    Sage,
}

impl ModelKind {
    /// Name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Gcn => "GCN",
            ModelKind::Gin => "GIN",
            ModelKind::Gat => "GAT",
            ModelKind::Sage => "GraphSAGE",
        }
    }
}

/// An immutable stack of GNN layers plus the initial parameter values.
pub struct GnnModel {
    kind: ModelKind,
    layers: Vec<Box<dyn GnnLayer>>,
    init_store: ParamStore,
    dims: Vec<usize>,
}

impl GnnModel {
    /// Builds a model with layer widths `dims = [in, hidden..., classes]`
    /// (so `dims.len() - 1` layers). The final layer has no activation —
    /// its output feeds the softmax prediction head. All randomness flows
    /// from `seed`.
    pub fn new(kind: ModelKind, dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least one layer");
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers: Vec<Box<dyn GnnLayer>> = Vec::with_capacity(dims.len() - 1);
        for (l, w) in dims.windows(2).enumerate() {
            let act = l + 2 < dims.len();
            let prefix = format!("layer{l}");
            let layer: Box<dyn GnnLayer> = match kind {
                ModelKind::Gcn => {
                    // Layer 0's aggregate is a constant prefix, computed once
                    // per plan; above it, a narrowing layer aggregates `H·W`.
                    let layer = GcnLayer::new(&mut store, &prefix, w[0], w[1], act, &mut rng);
                    Box::new(layer.transform_first(l > 0 && w[1] < w[0]))
                }
                ModelKind::Gin => {
                    Box::new(GinLayer::new(&mut store, &prefix, w[0], w[1], act, &mut rng))
                }
                ModelKind::Gat => {
                    Box::new(GatLayer::new(&mut store, &prefix, w[0], w[1], act, &mut rng))
                }
                ModelKind::Sage => Box::new(SageLayer::new(
                    &mut store, &prefix, w[0], w[1], Aggregator::Mean, act, &mut rng,
                )),
            };
            layers.push(layer);
        }
        Self::from_layers(kind, layers, store)
    }

    /// A model over a hand-built layer stack — what [`GnnModel::new`] has
    /// no spelling for (multi-head GAT, GraphSAGE-max). `init_store` is the
    /// store the layers registered their parameters in; `kind` only labels
    /// reports.
    pub fn from_layers(
        kind: ModelKind,
        layers: Vec<Box<dyn GnnLayer>>,
        init_store: ParamStore,
    ) -> Self {
        assert!(!layers.is_empty(), "need at least one layer");
        let mut dims = vec![layers[0].in_dim()];
        for layer in &layers {
            assert_eq!(layer.in_dim(), dims[dims.len() - 1], "layer widths must chain");
            dims.push(layer.out_dim());
        }
        Self { kind, layers, init_store, dims }
    }

    /// Convenience: a 2-layer model `in → hidden → classes`.
    pub fn two_layer(
        kind: ModelKind,
        in_dim: usize,
        hidden: usize,
        classes: usize,
        seed: u64,
    ) -> Self {
        Self::new(kind, &[in_dim, hidden, classes], seed)
    }

    /// The architecture.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Number of layers (`L`).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Layer `l` (0-based; the paper's layer `l+1`).
    pub fn layer(&self, l: usize) -> &dyn GnnLayer {
        self.layers[l].as_ref()
    }

    /// Layer widths `[in, hidden..., classes]`.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// A fresh replica of the initial parameters (identical on every
    /// call — workers start in sync and stay in sync via all-reduce).
    pub fn fresh_store(&self) -> ParamStore {
        self.init_store.clone()
    }

    /// Bytes a full parameter-gradient all-reduce moves per worker.
    pub fn gradient_bytes(&self) -> u64 {
        self.init_store.payload_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::LayerInput;
    use crate::topology::LayerTopology;
    use ns_tensor::Tensor;

    #[test]
    fn two_layer_shapes() {
        for kind in [ModelKind::Gcn, ModelKind::Gin, ModelKind::Gat, ModelKind::Sage] {
            let m = GnnModel::two_layer(kind, 8, 4, 3, 1);
            assert_eq!(m.num_layers(), 2);
            assert_eq!(m.layer(0).in_dim(), 8);
            assert_eq!(m.layer(0).out_dim(), 4);
            assert_eq!(m.layer(1).in_dim(), 4);
            assert_eq!(m.layer(1).out_dim(), 3);
            assert!(m.gradient_bytes() > 0, "{}", kind.name());
        }
    }

    #[test]
    fn fresh_stores_are_identical() {
        let m = GnnModel::two_layer(ModelKind::Gcn, 4, 4, 2, 7);
        let s1 = m.fresh_store();
        let s2 = m.fresh_store();
        for ((_, _, v1), (_, _, v2)) in s1.iter().zip(s2.iter()) {
            assert_eq!(v1.data(), v2.data());
        }
    }

    #[test]
    fn same_seed_same_model() {
        let a = GnnModel::two_layer(ModelKind::Gat, 4, 4, 2, 7);
        let b = GnnModel::two_layer(ModelKind::Gat, 4, 4, 2, 7);
        let sa = a.fresh_store();
        let sb = b.fresh_store();
        for ((_, _, v1), (_, _, v2)) in sa.iter().zip(sb.iter()) {
            assert_eq!(v1.data(), v2.data());
        }
    }

    /// Forward FLOPs of a GCN layer over `n` vertices and `e` edges:
    /// `(graph, nn)`, where the graph part is the weighted aggregate,
    /// `2·e` per column it moves.
    fn gcn_flops(n: u64, e: u64, d: (u64, u64), transform_first: bool, relu: bool) -> (u64, u64) {
        let width = if transform_first { d.1 } else { d.0 };
        (2 * e * width, 2 * n * d.0 * d.1 + n * d.1 * (1 + relu as u64))
    }

    #[test]
    fn narrowing_gcn_layers_above_the_first_aggregate_their_output_width() {
        let adj: Vec<Vec<(u32, f32)>> =
            (0..5u32).map(|d| (0..=d).map(|s| (s, 1.0 / (d + 1) as f32)).collect()).collect();
        let topo = LayerTopology::from_adjacency(5, &adj, (0..5).collect());
        let (n, e) = (5, topo.num_edges() as u64);
        assert_eq!(e, 15);
        let m = GnnModel::new(ModelKind::Gcn, &[12, 8, 3], 1);
        let store = m.fresh_store();

        // Layer 0 aggregates its 12 input columns, once: a run from the
        // prefix its backward pass hands back records only the NN ops.
        let (graph0, nn0) = gcn_flops(n, e, (12, 8), false, true);
        let x = LayerInput::Constant(Tensor::full(5, 12, 0.5));
        let run0 = m.layer(0).forward(&store, &topo, x);
        assert_eq!(run0.forward_flops(), graph0 + nn0);
        let h1 = run0.output().clone();
        let back = run0.backward_split(Tensor::full(5, 8, 1.0), &mut store.zero_grads());
        let saved = back.prefix.expect("a constant run hands its prefix back");
        let again = m.layer(0).forward(&store, &topo, LayerInput::Prefix(saved));
        assert_eq!(again.forward_flops(), nn0);
        assert_eq!(again.output().data(), h1.data());
        assert_eq!(m.layer(0).edge_flops_estimate(), 2 * 12);

        // Layer 1 (8 -> 3) transforms first and aggregates 3 columns.
        let (graph1, nn1) = gcn_flops(n, e, (8, 3), true, false);
        assert_eq!(graph1, 2 * e * 3);
        let run1 = m.layer(1).forward(&store, &topo, LayerInput::Tracked(h1));
        assert_eq!(run1.forward_flops(), graph1 + nn1);
        assert_eq!(m.layer(1).edge_flops_estimate(), 2 * 3);

        // A layer that does not narrow keeps aggregating first.
        let m = GnnModel::new(ModelKind::Gcn, &[4, 8, 8, 3], 1);
        let store = m.fresh_store();
        let mut h = Tensor::full(5, 4, 0.5);
        let orders = [((4, 8), false), ((8, 8), false), ((8, 3), true)];
        for (l, (d, tf)) in orders.into_iter().enumerate() {
            let (graph, nn) = gcn_flops(n, e, d, tf, l < 2);
            let run = m.layer(l).forward(&store, &topo, LayerInput::Constant(h));
            assert_eq!(run.forward_flops(), graph + nn, "layer {l}");
            assert_eq!(m.layer(l).edge_flops_estimate(), 2 * if tf { d.1 } else { d.0 });
            h = run.into_output();
        }
    }

    #[test]
    fn deep_stack_builds_and_runs() {
        let m = GnnModel::new(ModelKind::Gcn, &[3, 5, 4, 2], 3);
        assert_eq!(m.num_layers(), 3);
        let topo = LayerTopology::from_adjacency(
            2,
            &[vec![(0, 1.0)], vec![(0, 0.5), (1, 0.5)]],
            vec![0, 1],
        );
        let store = m.fresh_store();
        let mut h = Tensor::full(2, 3, 1.0);
        for l in 0..m.num_layers() {
            let run = m.layer(l).forward(&store, &topo, LayerInput::Constant(h));
            h = run.output().clone();
        }
        assert_eq!(h.shape(), (2, 2));
    }
}
