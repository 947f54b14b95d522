//! Compressed sparse graph storage.
//!
//! The graph is stored twice: CSC (grouped by destination — the in-edges a
//! vertex aggregates over during forward propagation) and CSR (grouped by
//! source — the out-edges along which gradients scatter during backward
//! propagation). NeutronStar organizes each worker's edges the same way
//! (§4.3).

/// Vertex identifier. `u32` bounds graphs at ~4.3 B vertices, far beyond
/// anything this reproduction materializes, and halves index memory.
pub type VertexId = u32;

/// An immutable directed graph in CSC + CSR form.
///
/// Edges are deduplicated and sorted; within a destination's in-edge list,
/// sources ascend (and vice versa for out-edges), which makes every
/// aggregation order deterministic — a property the engine-equivalence
/// tests rely on.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    n: usize,
    // CSC: in-edges grouped by destination.
    in_offsets: Vec<usize>,
    in_srcs: Vec<VertexId>,
    // CSR: out-edges grouped by source.
    out_offsets: Vec<usize>,
    out_dsts: Vec<VertexId>,
    // Symmetric GCN normalization weight per in-edge (parallel to in_srcs).
    in_weights: Vec<f32>,
}

impl CsrGraph {
    /// Builds a graph from a directed edge list. Duplicate edges are
    /// dropped. When `self_loops` is set, a `(v, v)` edge is added for
    /// every vertex (the usual GCN Â = A + I construction), which also
    /// guarantees every vertex has at least one in-edge.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)], self_loops: bool) -> Self {
        let mut list: Vec<(VertexId, VertexId)> = edges
            .iter()
            .copied()
            .filter(|&(u, v)| (u as usize) < n && (v as usize) < n && (self_loops || u != v))
            .collect();
        if self_loops {
            list.extend((0..n as VertexId).map(|v| (v, v)));
        }
        // Sort by (dst, src) for CSC; dedup.
        list.sort_unstable_by_key(|&(u, v)| (v, u));
        list.dedup();

        let m = list.len();
        let mut in_offsets = vec![0usize; n + 1];
        let mut in_srcs = Vec::with_capacity(m);
        for &(u, v) in &list {
            in_offsets[v as usize + 1] += 1;
            in_srcs.push(u);
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }

        // CSR via counting sort by source.
        let mut out_offsets = vec![0usize; n + 1];
        for &(u, _) in &list {
            out_offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut cursor = out_offsets.clone();
        let mut out_dsts = vec![0 as VertexId; m];
        for &(u, v) in &list {
            out_dsts[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
        }
        // Sorting by (dst, src) then stably bucketing by src leaves each
        // out-list sorted by dst already.

        // GCN symmetric normalization using in-degrees (self-loop counted
        // when present): w(u,v) = 1/sqrt(deg(u) * deg(v)).
        let deg = |v: usize| -> f32 {
            let d = in_offsets[v + 1] - in_offsets[v];
            (d.max(1)) as f32
        };
        let mut in_weights = Vec::with_capacity(m);
        for v in 0..n {
            for idx in in_offsets[v]..in_offsets[v + 1] {
                let u = in_srcs[idx] as usize;
                in_weights.push(1.0 / (deg(u) * deg(v)).sqrt());
            }
        }

        Self { n, in_offsets, in_srcs, out_offsets, out_dsts, in_weights }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of (deduplicated) directed edges, including any self-loops.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.in_srcs.len()
    }

    /// Average in-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.num_edges() as f64 / self.n as f64
    }

    /// Sources of `v`'s in-edges, ascending.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.in_srcs[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// GCN weights parallel to [`Self::in_neighbors`].
    #[inline]
    pub fn in_weights(&self, v: VertexId) -> &[f32] {
        let v = v as usize;
        &self.in_weights[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// Destinations of `v`'s out-edges, ascending.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.out_dsts[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.in_offsets[v + 1] - self.in_offsets[v]
    }

    /// The CSC offset array (length `n + 1`).
    pub fn in_offsets(&self) -> &[usize] {
        &self.in_offsets
    }

    /// All in-edge sources, grouped by destination.
    pub fn in_srcs(&self) -> &[VertexId] {
        &self.in_srcs
    }

    /// Iterates over all edges as `(src, dst, weight)` in (dst, src) order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, f32)> + '_ {
        (0..self.n as VertexId).flat_map(move |v| {
            self.in_neighbors(v)
                .iter()
                .zip(self.in_weights(v).iter())
                .map(move |(&u, &w)| (u, v, w))
        })
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], false)
    }

    #[test]
    fn basic_topology() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_neighbors(0), &[] as &[u32]);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_degree(3), 2);
        assert!(g.out_neighbors(3).is_empty());
        assert_eq!(g.avg_degree(), 1.0);
    }

    #[test]
    fn self_loops_add_one_edge_per_vertex() {
        let g = CsrGraph::from_edges(3, &[(0, 1)], true);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.in_neighbors(1), &[0, 1]);
        assert_eq!(g.in_neighbors(2), &[2]);
    }

    #[test]
    fn duplicate_and_out_of_range_edges_dropped() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (0, 1), (5, 1), (1, 9)], false);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn csc_and_csr_agree() {
        let g = diamond();
        let mut from_csc: Vec<(u32, u32)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        let mut from_csr: Vec<(u32, u32)> = (0..4u32)
            .flat_map(|u| g.out_neighbors(u).iter().map(move |&v| (u, v)))
            .collect();
        from_csc.sort_unstable();
        from_csr.sort_unstable();
        assert_eq!(from_csc, from_csr);
    }

    #[test]
    fn gcn_weights_are_symmetric_normalized() {
        let g = CsrGraph::from_edges(3, &[(0, 2), (1, 2)], true);
        // deg(2) = 3 (two in + self), deg(0) = 1 (self), so w(0,2) = 1/sqrt(3).
        let w = g.in_weights(2);
        let nbrs = g.in_neighbors(2);
        let idx0 = nbrs.iter().position(|&u| u == 0).unwrap();
        assert!((w[idx0] - 1.0 / 3.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn neighbor_lists_are_sorted() {
        let g = CsrGraph::from_edges(5, &[(4, 0), (2, 0), (3, 0), (1, 0)], false);
        assert_eq!(g.in_neighbors(0), &[1, 2, 3, 4]);
    }

}
