//! The named graph operators of NeutronStar's execution flow (Fig. 6).
//!
//! Forward: `GetFromDepNbr → ScatterToEdge → EdgeForward → GatherByDst →
//! VertexForward`. Backward: `VertexBackward → ScatterBackToEdge →
//! EdgeBackward → GatherBySrc → PostToDepNbr`.
//!
//! `GetFromDepNbr`/`PostToDepNbr` are dependency-management operators and
//! live in the runtime (they are where DepCache / DepComm / Hybrid
//! differ). The four structure ops in between are defined here as thin,
//! named wrappers over tape primitives; their adjoints (recorded by the
//! tape) *are* the backward duals — `ScatterToEdge`'s adjoint gathers by
//! source (`GatherBySrc`), and `GatherByDst`'s adjoint scatters back to
//! edges (`ScatterBackToEdge`) — which is how the paper gets cross-layer
//! autograd from per-layer autograd segments.

use std::sync::Arc;

use ns_tensor::{Tape, Var};

use crate::topology::LayerTopology;

/// `ScatterToEdge`: expands vertex rows onto edges by source, producing
/// the `e x d` matrix of source representations per edge.
pub fn scatter_to_edge_src(tape: &mut Tape, h: Var, topo: &LayerTopology) -> Var {
    tape.gather_rows(h, Arc::clone(&topo.edge_src))
}

/// Commutative/associative neighborhood aggregators supported by
/// `GatherByDst` (the paper names "min, max, sum"; mean and the
/// statically-weighted sum are the forms the evaluation models use).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregator {
    /// Plain sum (GIN).
    Sum,
    /// Sum weighted by the topology's static edge weights (GCN symmetric
    /// normalization).
    WeightedSum,
    /// Mean over in-edges (GraphSAGE-mean).
    Mean,
    /// Element-wise max over in-edges (GraphSAGE-pool style).
    Max,
}

/// Fused `EdgeForward` (copy / weighted copy) + `GatherByDst` for models
/// whose edge function does not need materialized per-edge tensors:
/// computes each destination's aggregated neighborhood directly (SpMM /
/// segmented max).
pub fn aggregate_neighbors_with(
    tape: &mut Tape,
    h: Var,
    topo: &LayerTopology,
    agg: Aggregator,
) -> Var {
    let edge_src = Arc::clone(&topo.edge_src);
    let dst_offsets = Arc::clone(&topo.dst_offsets);
    match agg {
        Aggregator::Sum => tape.weighted_aggregate(h, edge_src, dst_offsets, None),
        Aggregator::WeightedSum => tape.weighted_aggregate(
            h,
            edge_src,
            dst_offsets,
            Some(Arc::clone(&topo.edge_weight)),
        ),
        Aggregator::Mean => {
            let mut weights = vec![0.0f32; topo.num_edges()];
            for d in 0..topo.n_dst {
                let (s, e) = (topo.dst_offsets[d], topo.dst_offsets[d + 1]);
                let inv = if e > s { 1.0 / (e - s) as f32 } else { 0.0 };
                for w in &mut weights[s..e] {
                    *w = inv;
                }
            }
            tape.weighted_aggregate(h, edge_src, dst_offsets, Some(weights.into()))
        }
        Aggregator::Max => tape.max_aggregate(h, edge_src, dst_offsets),
    }
}

/// Back-compat helper: weighted (GCN) or plain (GIN) sum.
pub fn aggregate_neighbors(
    tape: &mut Tape,
    h: Var,
    topo: &LayerTopology,
    weighted: bool,
) -> Var {
    let agg = if weighted { Aggregator::WeightedSum } else { Aggregator::Sum };
    aggregate_neighbors_with(tape, h, topo, agg)
}

/// `GatherByDst`: sum-aggregates edge messages into destination rows.
/// (Sum is the commutative/associative aggregator the paper's examples
/// use; min/max variants would slot in the same way.)
pub fn gather_by_dst(tape: &mut Tape, msgs: Var, topo: &LayerTopology) -> Var {
    tape.scatter_add_rows(msgs, Arc::clone(&topo.edge_dst), topo.n_dst)
}

/// Gathers each destination's own previous-layer representation
/// (self-information used by GIN's combiner).
pub fn gather_dst_self(tape: &mut Tape, h: Var, topo: &LayerTopology) -> Var {
    tape.gather_rows(h, Arc::clone(&topo.dst_in_rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_tensor::Tensor;

    fn topo() -> LayerTopology {
        LayerTopology::from_adjacency(
            3,
            &[vec![(0, 1.0), (1, 1.0)], vec![(1, 1.0), (2, 1.0)]],
            vec![0, 2],
        )
    }

    #[test]
    fn scatter_then_gather_is_neighborhood_sum() {
        let t = topo();
        let mut tape = Tape::new();
        let h = tape.leaf(Tensor::from_vec(3, 2, vec![1., 10., 2., 20., 3., 30.]));
        let e = scatter_to_edge_src(&mut tape, h, &t);
        let agg = gather_by_dst(&mut tape, e, &t);
        // dst0 = h0 + h1 = [3, 30]; dst1 = h1 + h2 = [5, 50].
        assert_eq!(tape.value(agg).data(), &[3., 30., 5., 50.]);
    }

    #[test]
    fn adjoint_of_scatter_is_gather_by_src() {
        let t = topo();
        let mut tape = Tape::new();
        let h = tape.leaf(Tensor::from_vec(3, 1, vec![1., 2., 3.]));
        let e = scatter_to_edge_src(&mut tape, h, &t);
        // Seed per-edge gradients 1..4; source 1 appears on edges 1 and 2.
        tape.backward_from(e, Tensor::from_vec(4, 1, vec![1., 2., 3., 4.]));
        assert_eq!(tape.grad(h).unwrap().data(), &[1., 5., 4.]);
    }

    #[test]
    fn adjoint_of_gather_by_dst_scatters_back_to_edges() {
        let t = topo();
        let mut tape = Tape::new();
        let m = tape.leaf(Tensor::from_vec(4, 1, vec![1., 2., 3., 4.]));
        let agg = gather_by_dst(&mut tape, m, &t);
        tape.backward_from(agg, Tensor::from_vec(2, 1, vec![10., 20.]));
        // Each edge receives its destination's gradient.
        assert_eq!(tape.grad(m).unwrap().data(), &[10., 10., 20., 20.]);
    }

    #[test]
    fn dst_self_gather_reads_destination_rows() {
        let t = topo();
        let mut tape = Tape::new();
        let h = tape.leaf(Tensor::from_vec(3, 1, vec![5., 6., 7.]));
        // dst0 self-row = 0 (value 5), dst1 self-row = 2 (value 7).
        let s = gather_dst_self(&mut tape, h, &t);
        assert_eq!(tape.value(s).data(), &[5., 7.]);
    }
}
