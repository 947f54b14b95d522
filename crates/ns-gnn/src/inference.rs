//! Full-graph inference: run a trained model over an entire dataset on
//! one machine (no sampling, no distribution) to obtain logits,
//! predictions, and split accuracies.
//!
//! This is the deployment half of the system: training produces a
//! parameter store (every worker holds an identical replica), and
//! inference consumes it. Also used to evaluate sampled-training
//! baselines at full-neighborhood fidelity, as DistDGL-style systems do
//! for their reported accuracies.

use crate::layers::LayerInput;
use crate::loss::accuracy;
use crate::model::GnnModel;
use crate::topology::LayerTopology;
use ns_graph::Dataset;
use ns_tensor::{ParamStore, Tensor};

/// Inference results over a whole dataset.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// `|V| x classes` logits.
    pub logits: Tensor,
    /// Argmax class per vertex.
    pub predictions: Vec<usize>,
    /// Accuracy over the training split.
    pub train_acc: f64,
    /// Accuracy over the validation split.
    pub val_acc: f64,
    /// Accuracy over the test split.
    pub test_acc: f64,
}

/// Builds the single-machine full-graph topology of a dataset (every
/// vertex is both source and destination; self rows are identity).
pub fn full_graph_topology(dataset: &Dataset) -> LayerTopology {
    let n = dataset.graph.num_vertices();
    let all: Vec<u32> = (0..n as u32).collect();
    LayerTopology::from_graph(&dataset.graph, &all, n, |v| v)
}

/// Runs the model forward over the full graph with the given parameters.
pub fn infer(dataset: &Dataset, model: &GnnModel, store: &ParamStore) -> InferenceResult {
    assert_eq!(
        model.dims()[0],
        dataset.feature_dim(),
        "model input width must match dataset features"
    );
    let topo = full_graph_topology(dataset);
    let mut h = dataset.features.clone();
    for lz in 0..model.num_layers() {
        h = model.layer(lz).forward(store, &topo, LayerInput::Constant(h)).into_output();
    }
    let predictions = h.argmax_rows();
    let acc = |mask: &[bool]| {
        let (c, t) = accuracy(&h, &dataset.labels, mask);
        if t == 0 {
            0.0
        } else {
            c as f64 / t as f64
        }
    };
    InferenceResult {
        train_acc: acc(&dataset.train_mask),
        val_acc: acc(&dataset.val_mask),
        test_acc: acc(&dataset.test_mask),
        predictions,
        logits: h,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use ns_graph::datasets::by_name;

    fn setup() -> (Dataset, GnnModel) {
        let ds = by_name("cora").unwrap().materialize(0.15, 9);
        let model =
            GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, 4);
        (ds, model)
    }

    #[test]
    fn shapes_and_determinism() {
        let (ds, model) = setup();
        let store = model.fresh_store();
        let a = infer(&ds, &model, &store);
        let b = infer(&ds, &model, &store);
        assert_eq!(a.logits.shape(), (ds.graph.num_vertices(), ds.num_classes));
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(a.logits.data(), b.logits.data());
    }

    #[test]
    fn untrained_model_is_near_chance() {
        let (ds, model) = setup();
        let r = infer(&ds, &model, &model.fresh_store());
        // 7 classes: untrained accuracy should be nowhere near learned.
        assert!(r.test_acc < 0.6, "untrained acc {}", r.test_acc);
    }

    /// The adjacency-list builder `full_graph_topology` replaced, kept as
    /// its reference: per-vertex `(source, weight)` lists copied through
    /// `LayerTopology::from_adjacency`.
    fn reference_full_graph_topology(dataset: &Dataset) -> LayerTopology {
        let n = dataset.graph.num_vertices();
        let mut lists: Vec<Vec<(u32, f32)>> = Vec::with_capacity(n);
        for v in 0..n as u32 {
            lists.push(
                dataset
                    .graph
                    .in_neighbors(v)
                    .iter()
                    .zip(dataset.graph.in_weights(v))
                    .map(|(&u, &w)| (u, w))
                    .collect(),
            );
        }
        let self_rows = (0..n as u32).collect();
        LayerTopology::from_adjacency(n, &lists, self_rows)
    }

    /// Every field equals the reference's, edge weights by bits, on a
    /// dataset with self-loops and on a graph without them.
    #[test]
    fn full_graph_topology_equals_the_adjacency_reference() {
        let (mut ds, _) = setup();
        let bare = ns_graph::generate::rmat(300, 1500, (0.5, 0.2, 0.2), 3);
        let bare: Vec<_> = bare.into_iter().filter(|&(u, v)| u != v).collect();
        for graph in [ds.graph.clone(), ns_graph::CsrGraph::from_edges(300, &bare, false)] {
            ds.graph = graph;
            let (got, want) = (full_graph_topology(&ds), reference_full_graph_topology(&ds));
            assert_eq!((got.n_src, got.n_dst), (want.n_src, want.n_dst));
            assert_eq!((&*got.edge_src, &*got.edge_dst), (&*want.edge_src, &*want.edge_dst));
            assert_eq!((&*got.dst_offsets, &*got.dst_in_rows), (&*want.dst_offsets, &*want.dst_in_rows));
            let bits = |ws: &[f32]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.edge_weight), bits(&want.edge_weight));
        }
    }

    #[test]
    fn full_graph_topology_is_valid_and_complete() {
        let (ds, _) = setup();
        let topo = full_graph_topology(&ds);
        assert_eq!(topo.validate(), Ok(()));
        assert_eq!(topo.num_edges(), ds.graph.num_edges());
        assert_eq!(topo.n_dst, ds.graph.num_vertices());
    }

    #[test]
    #[should_panic(expected = "input width")]
    fn dimension_mismatch_rejected() {
        let (ds, _) = setup();
        let wrong = GnnModel::two_layer(ModelKind::Gcn, 5, 4, ds.num_classes, 1);
        infer(&ds, &wrong, &wrong.fresh_store());
    }
}
