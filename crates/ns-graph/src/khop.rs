//! K-hop in-neighborhood closures: the dependency retrieval of
//! Algorithm 2 (`GetFromDepNbr`: a vertex set plus the in-neighbors its
//! layer reads). [`Marks`] is the one place that forms an in-neighborhood;
//! plan compilation, serving batches, Algorithm 4's dependency sets and
//! the replication statistic all go through it. The per-neighbor subtree
//! walk behind the hybrid cost model's Eq. 1 lives with its only user,
//! `ns_runtime::hybrid`.

use crate::csr::{CsrGraph, VertexId};

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

/// Computes the `hops`-hop in-neighborhood closure of `seeds`.
pub fn khop_in_closure(graph: &CsrGraph, seeds: &[VertexId], hops: usize) -> KhopClosure {
    let mut marks = Marks::new(graph.num_vertices());
    let mut layers = vec![marks.set(graph, seeds, &[])];
    for h in 0..hops {
        let next = marks.set(graph, &[], &layers[h]);
        layers.push(next);
    }
    KhopClosure { layers }
}

/// Scratch for forming vertex sets over one graph: one stamp per vertex.
/// A set is formed by stamping every id of its walk with a fresh `cur`
/// and reading the stamp array off in one scan, so starting a new set
/// clears nothing and every set comes out sorted and deduplicated. A set
/// costs its walk plus an `O(|V|)` scan.
pub struct Marks {
    stamp: Vec<u32>,
    cur: u32,
}

impl Marks {
    /// Scratch for a graph of `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Marks { stamp: vec![0; num_vertices], cur: 0 }
    }

    /// `seeds ∪ N(seeds)`: the seeds together with all their in-neighbors.
    pub fn in_closure(&mut self, graph: &CsrGraph, seeds: &[VertexId]) -> Vec<VertexId> {
        self.set(graph, seeds, seeds)
    }

    /// `c[0..=hops]`, where `c[0]` is the seed set and
    /// `c[h] = c[h-1] ∪ N(c[h-1])`: the vertices within `h` hops, which is
    /// [`khop_in_closure`]'s layers `0..=h` united.
    pub fn cumulative(
        &mut self,
        graph: &CsrGraph,
        seeds: &[VertexId],
        hops: usize,
    ) -> Vec<Vec<VertexId>> {
        let mut c = vec![self.set(graph, seeds, &[])];
        for h in 0..hops {
            let next = self.in_closure(graph, &c[h]);
            c.push(next);
        }
        c
    }

    /// `ids ∪ N(of)`: the raw `N(of)` alone when `ids` is empty.
    fn set(&mut self, graph: &CsrGraph, ids: &[VertexId], of: &[VertexId]) -> Vec<VertexId> {
        self.cur = self.cur.checked_add(1).unwrap_or_else(|| {
            self.stamp.fill(0); // wrapped: forget every earlier set
            1
        });
        let (stamp, cur) = (&mut self.stamp, self.cur);
        let walk = ids.iter().chain(of.iter().flat_map(|&v| graph.in_neighbors(v)));
        walk.for_each(|&v| stamp[v as usize] = cur);
        (0..stamp.len() as VertexId).filter(|&v| stamp[v as usize] == cur).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fx::FxHashSet;
    use crate::generate::rmat;
    use ns_rand::check_cases;

    /// The hash-set closure `khop_in_closure` replaced, kept as its
    /// reference: every in-edge's source into a fresh `FxHashSet` per hop,
    /// then sorted.
    fn reference_khop(graph: &CsrGraph, seeds: &[VertexId], hops: usize) -> Vec<Vec<VertexId>> {
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
        layers
    }

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
        let cum = Marks::new(5).cumulative(&g, &[3], 2);
        assert_eq!(cum, vec![vec![3], vec![2, 3], vec![1, 2, 3, 4]]);
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
    }

    /// The stamp closure gives the reference's layers, on a graph without
    /// self-loops and on the same graph with them, for seed sets small and
    /// large against |V| and one `Marks` reused across them; the
    /// cumulative sets are those layers' running unions.
    #[test]
    fn layers_equal_the_hash_set_reference() {
        check_cases(0..32, |rng| {
            let n = rng.random_range(20usize..400);
            let mut edges = rmat(n, n * rng.random_range(1usize..6), (0.5, 0.2, 0.2), rng.random_range(0u64..1000));
            edges.retain(|&(u, v)| u != v);
            for self_loops in [false, true] {
                let g = CsrGraph::from_edges(n, &edges, self_loops);
                let mut marks = Marks::new(n);
                for k in [1, 2, n / 4, n] {
                    let seeds: Vec<VertexId> = (0..k).map(|_| rng.random_range(0..n as VertexId)).collect();
                    let hops = rng.random_range(0usize..4);
                    let want = reference_khop(&g, &seeds, hops);
                    assert_eq!(khop_in_closure(&g, &seeds, hops).layers, want);
                    let cum = marks.cumulative(&g, &seeds, hops);
                    for (h, c) in cum.iter().enumerate() {
                        let mut union = want[..=h].concat();
                        union.sort_unstable();
                        union.dedup();
                        assert_eq!(*c, union, "hops {h}");
                    }
                }
            }
        });
    }

    #[test]
    fn a_wrapped_stamp_forgets_earlier_sets() {
        let g = chain();
        let mut marks = Marks::new(5);
        marks.in_closure(&g, &[3]);
        marks.cur = u32::MAX;
        assert_eq!(marks.in_closure(&g, &[2]), vec![1, 2, 4]);
        assert_eq!(marks.in_closure(&g, &[3]), vec![2, 3]);
    }
}
