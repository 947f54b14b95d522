//! K-hop in-neighborhood closures and dependency-subtree measurement.
//!
//! These routines implement the BFS dependency retrieval of Algorithm 2
//! (DepCache needs `V_i`'s 1..L-hop in-neighbors cached locally) and the
//! per-neighbor subtree accounting behind the hybrid cost model's Eq. 1
//! (the redundant-computation cost of caching a dependent neighbor `u` is
//! the size of the dependency subtree rooted at `u`, excluding vertices
//! and edges the worker already owns or has already replicated).

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

/// Size of the dependency subtree rooted at `u` for an `l`-layer
/// computation: the number of vertices and edges at each depth
/// `1..=depth`, excluding `owned` vertices (the worker's own partition,
/// which never causes redundant work) and `already_cached` vertices
/// (`V_rep` in Algorithm 4 — dependencies previously replicated by an
/// earlier caching decision, whose cost must not be double counted).
///
/// Returns `(vertices_per_depth, edges_per_depth)` with index 0 = depth 1
/// (the in-neighbors of `u` themselves).
pub fn dependency_subtree(
    graph: &CsrGraph,
    u: VertexId,
    depth: usize,
    owned: &dyn Fn(VertexId) -> bool,
    already_cached: &FxHashSet<VertexId>,
) -> (Vec<usize>, Vec<usize>) {
    let mut verts = Vec::with_capacity(depth);
    let mut edges = Vec::with_capacity(depth);
    let mut frontier = vec![u];
    let mut seen: FxHashSet<VertexId> = FxHashSet::default();
    for _ in 0..depth {
        let mut next = Vec::new();
        let mut v_count = 0usize;
        let mut e_count = 0usize;
        for &v in &frontier {
            // Edges into a vertex we must compute are replayed regardless
            // of where the sources live; vertex work is only counted for
            // sources we would have to compute redundantly.
            for &src in graph.in_neighbors(v) {
                e_count += 1;
                if owned(src) || already_cached.contains(&src) || seen.contains(&src) {
                    continue;
                }
                seen.insert(src);
                v_count += 1;
                next.push(src);
            }
        }
        verts.push(v_count);
        edges.push(e_count);
        frontier = next;
        if frontier.is_empty() && verts.len() < depth {
            // Remaining depths contribute nothing.
            while verts.len() < depth {
                verts.push(0);
                edges.push(0);
            }
            break;
        }
    }
    (verts, edges)
}

/// Collects the distinct vertices of `u`'s dependency subtree up to
/// `depth`, excluding `owned` vertices. Used to extend `V_rep` after a
/// caching decision (Algorithm 4, line 13).
pub fn subtree_vertices(
    graph: &CsrGraph,
    u: VertexId,
    depth: usize,
    owned: &dyn Fn(VertexId) -> bool,
) -> Vec<VertexId> {
    let mut out = Vec::new();
    let mut seen: FxHashSet<VertexId> = FxHashSet::default();
    let mut frontier = vec![u];
    for _ in 0..depth {
        let mut next = Vec::new();
        for &v in &frontier {
            for &src in graph.in_neighbors(v) {
                if owned(src) || seen.contains(&src) {
                    continue;
                }
                seen.insert(src);
                next.push(src);
                out.push(src);
            }
        }
        frontier = next;
    }
    out.sort_unstable();
    out
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
    fn subtree_counts_exclude_owned() {
        let g = chain();
        let owned = |v: VertexId| v == 1; // worker owns vertex 1
        let none = FxHashSet::default();
        // Subtree of u = 2 at depth 2: depth 1 edges {1->2, 4->2} (2 edges),
        // vertices {4} (1 excluded as owned); depth 2 edges into 4: none.
        let (verts, edges) = dependency_subtree(&g, 2, 2, &owned, &none);
        assert_eq!(edges, vec![2, 0]);
        assert_eq!(verts, vec![1, 0]);
    }

    #[test]
    fn subtree_counts_exclude_already_cached() {
        let g = chain();
        let owned = |_: VertexId| false;
        let mut cached = FxHashSet::default();
        cached.insert(1u32);
        cached.insert(4u32);
        let (verts, edges) = dependency_subtree(&g, 2, 2, &owned, &cached);
        // Edges still replayed (2 at depth 1), but no new vertex compute.
        assert_eq!(edges[0], 2);
        assert_eq!(verts, vec![0, 0]);
    }

    #[test]
    fn subtree_vertices_lists_transitive_deps() {
        let g = chain();
        let owned = |_: VertexId| false;
        let vs = subtree_vertices(&g, 3, 3, &owned);
        assert_eq!(vs, vec![0, 1, 2, 4]);
        let owned1 = |v: VertexId| v == 2;
        // Owning 2 cuts the whole upstream chain.
        assert_eq!(subtree_vertices(&g, 3, 3, &owned1), Vec::<u32>::new());
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
