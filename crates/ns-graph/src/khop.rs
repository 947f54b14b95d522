//! K-hop in-neighborhood closures: the BFS dependency retrieval of
//! Algorithm 2 (DepCache needs `V_i`'s 1..L-hop in-neighbors cached
//! locally). The per-neighbor subtree walk behind the hybrid cost model's
//! Eq. 1 lives with its only user, `ns_runtime::hybrid`.

use crate::csr::{CsrGraph, VertexId};
use crate::fx::FxHashSet;

/// Per-layer vertex sets of the k-hop closure.
///
/// `layers[0]` is the seed set itself (the vertices whose layer-`L`
/// representations the worker must produce); `layers[h]` is the set of
/// vertices whose layer-`L-h` representations are needed, i.e. the union of
/// in-neighbors of `layers[h-1]` (paper notation: `V_i^{L-h}`). Sets
/// overlap across layers exactly as the paper's do.
#[derive(Debug, Clone)]
pub struct KhopClosure {
    /// `layers[h]` = vertices needed at depth `h`, sorted ascending.
    pub layers: Vec<Vec<VertexId>>,
}

impl KhopClosure {
    /// Union of all layers, sorted and deduplicated.
    pub fn all_vertices(&self) -> Vec<VertexId> {
        let mut all: Vec<VertexId> = self.layers.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Number of (vertex, layer) replica slots, the quantity that drives
    /// redundant computation.
    pub fn replica_slots(&self) -> usize {
        self.layers.iter().skip(1).map(Vec::len).sum()
    }
}

/// Computes the `hops`-hop in-neighborhood closure of `seeds`.
pub fn khop_in_closure(graph: &CsrGraph, seeds: &[VertexId], hops: usize) -> KhopClosure {
    let mut layers = Vec::with_capacity(hops + 1);
    let mut frontier: Vec<VertexId> = {
        let mut s = seeds.to_vec();
        s.sort_unstable();
        s.dedup();
        s
    };
    layers.push(frontier.clone());
    for _ in 0..hops {
        let mut next = FxHashSet::default();
        for &v in &frontier {
            for &u in graph.in_neighbors(v) {
                next.insert(u);
            }
        }
        let mut next: Vec<VertexId> = next.into_iter().collect();
        next.sort_unstable();
        layers.push(next.clone());
        frontier = next;
    }
    KhopClosure { layers }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chain 0 -> 1 -> 2 -> 3 plus 4 -> 2.
    fn chain() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (4, 2)], false)
    }

    #[test]
    fn closure_layers_follow_in_edges() {
        let g = chain();
        let c = khop_in_closure(&g, &[3], 2);
        assert_eq!(c.layers[0], vec![3]);
        assert_eq!(c.layers[1], vec![2]);
        assert_eq!(c.layers[2], vec![1, 4]);
        assert_eq!(c.all_vertices(), vec![1, 2, 3, 4]);
        assert_eq!(c.replica_slots(), 3);
    }

    #[test]
    fn closure_dedups_seeds_and_overlap() {
        let g = chain();
        let c = khop_in_closure(&g, &[3, 3, 2], 1);
        assert_eq!(c.layers[0], vec![2, 3]);
        // In-neighbors of {2, 3}: {1, 4} ∪ {2} = {1, 2, 4}.
        assert_eq!(c.layers[1], vec![1, 2, 4]);
    }

    #[test]
    fn zero_hops_is_identity() {
        let g = chain();
        let c = khop_in_closure(&g, &[0, 2], 0);
        assert_eq!(c.layers.len(), 1);
        assert_eq!(c.layers[0], vec![0, 2]);
        assert_eq!(c.replica_slots(), 0);
    }
}
