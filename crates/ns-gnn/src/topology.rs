//! The per-layer local edge structure a worker computes over.
//!
//! Engines (crate `ns-runtime`) decide *where* each dependency's data
//! comes from — locally owned, locally cached replica, or received from a
//! remote master. By the time a layer runs, all required source rows sit
//! in one input matrix `h` (`n_src x d_in`), and the [`LayerTopology`]
//! describes the edges in local row coordinates. This is exactly the
//! paper's `GetFromDepNbr` postcondition: after it, "the GNN propagation
//! of each layer runs like in a single machine".

use std::iter;
use std::sync::Arc;

use ns_graph::CsrGraph;

/// Local edge structure for one layer's computation on one worker.
///
/// Invariants (validated by [`LayerTopology::validate`]):
/// * `edge_src[e] < n_src`, `edge_dst[e] < n_dst` for every edge;
/// * edges are grouped by destination: `edge_dst` is non-decreasing and
///   `dst_offsets[d]..dst_offsets[d+1]` are exactly the edges of
///   destination `d` (CSC order — forward aggregation and GAT's
///   per-destination softmax depend on it);
/// * `dst_in_rows[d] < n_src` maps each destination to its *own*
///   previous-layer row in the input matrix (self-information for GIN's
///   `(1+ε)h + agg` and GAT's attention destination term).
#[derive(Debug, Clone)]
pub struct LayerTopology {
    /// Number of rows in the layer-input matrix.
    pub n_src: usize,
    /// Number of output vertices (rows in the layer-output matrix).
    pub n_dst: usize,
    /// Per-edge source row, grouped by destination.
    pub edge_src: Arc<[u32]>,
    /// Per-edge destination row, non-decreasing.
    pub edge_dst: Arc<[u32]>,
    /// CSC offsets: `n_dst + 1` entries into the edge arrays.
    pub dst_offsets: Arc<[usize]>,
    /// Per-edge static weight (GCN symmetric normalization).
    pub edge_weight: Arc<[f32]>,
    /// Input-matrix row holding each destination's own representation.
    pub dst_in_rows: Arc<[u32]>,
}

impl LayerTopology {
    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edge_src.len()
    }

    /// Whether `other` is this topology's storage, shared through `Arc`
    /// clones (so one [`Self::validate`] covers both).
    pub fn shares_storage(&self, other: &Self) -> bool {
        (self.n_src, self.n_dst) == (other.n_src, other.n_dst)
            && Arc::ptr_eq(&self.edge_src, &other.edge_src)
            && Arc::ptr_eq(&self.edge_dst, &other.edge_dst)
            && Arc::ptr_eq(&self.dst_offsets, &other.dst_offsets)
            && Arc::ptr_eq(&self.edge_weight, &other.edge_weight)
            && Arc::ptr_eq(&self.dst_in_rows, &other.dst_in_rows)
    }

    /// Checks all structural invariants; returns a description of the
    /// first violation.
    pub fn validate(&self) -> Result<(), String> {
        let e = self.num_edges();
        if self.edge_dst.len() != e || self.edge_weight.len() != e {
            return Err("edge array length mismatch".into());
        }
        if self.dst_offsets.len() != self.n_dst + 1 {
            return Err("dst_offsets length must be n_dst + 1".into());
        }
        if self.dst_offsets[0] != 0 || *self.dst_offsets.last().unwrap() != e {
            return Err("dst_offsets must span all edges".into());
        }
        if self.dst_in_rows.len() != self.n_dst {
            return Err("dst_in_rows length must be n_dst".into());
        }
        for d in 0..self.n_dst {
            if self.dst_offsets[d] > self.dst_offsets[d + 1] {
                return Err(format!("dst_offsets not monotone at {d}"));
            }
            for i in self.dst_offsets[d]..self.dst_offsets[d + 1] {
                if self.edge_dst[i] as usize != d {
                    return Err(format!("edge {i} not grouped under destination {d}"));
                }
            }
            if self.dst_in_rows[d] as usize >= self.n_src {
                return Err(format!("dst_in_rows[{d}] out of range"));
            }
        }
        if self.edge_src.iter().any(|&s| s as usize >= self.n_src) {
            return Err("edge_src out of range".into());
        }
        Ok(())
    }

    /// The in-edges of `compute` in `graph`, destination `d` being
    /// `compute[d]`, with `row` mapping ids (edge sources, each destination's
    /// own id) to the layer's `n_src` input rows. One CSC pass writes the
    /// shared storage; `row` is generic so that it inlines into the caller.
    pub fn from_graph(
        graph: &CsrGraph,
        compute: &[u32],
        n_src: usize,
        row: impl Fn(u32) -> u32,
    ) -> Self {
        let n_dst = compute.len();
        let e = compute.iter().map(|&v| graph.in_degree(v)).sum();
        let (mut edge_src, mut edge_dst, mut edge_weight) = (fresh(e), fresh(e), fresh(e));
        let (mut dst_offsets, mut dst_in_rows) = (fresh(n_dst + 1), fresh(n_dst));
        let (src, dst, weight) = (unique(&mut edge_src), unique(&mut edge_dst), unique(&mut edge_weight));
        let (offsets, own) = (unique(&mut dst_offsets), unique(&mut dst_in_rows));
        let mut k = 0;
        for (d, &v) in compute.iter().enumerate() {
            let nbrs = graph.in_neighbors(v);
            let end = k + nbrs.len();
            for (s, &u) in src[k..end].iter_mut().zip(nbrs) {
                *s = row(u);
            }
            dst[k..end].fill(d as u32);
            weight[k..end].copy_from_slice(graph.in_weights(v));
            offsets[d + 1] = end;
            own[d] = row(v);
            k = end;
        }
        Self { n_src, n_dst, edge_src, edge_dst, dst_offsets, edge_weight, dst_in_rows }
    }

    /// Builds a topology from per-destination adjacency lists given in
    /// destination order: `in_edges[d]` lists `(src_row, weight)` pairs
    /// for destination `d`. `dst_in_rows[d]` is each destination's own
    /// input row. For adjacency no graph induces: sampled blocks, the cost
    /// probe's random layers, tests.
    pub fn from_adjacency(
        n_src: usize,
        in_edges: &[Vec<(u32, f32)>],
        dst_in_rows: Vec<u32>,
    ) -> Self {
        let n_dst = in_edges.len();
        assert_eq!(dst_in_rows.len(), n_dst);
        let e: usize = in_edges.iter().map(Vec::len).sum();
        let mut edge_src = Vec::with_capacity(e);
        let mut edge_dst = Vec::with_capacity(e);
        let mut edge_weight = Vec::with_capacity(e);
        let mut dst_offsets = Vec::with_capacity(n_dst + 1);
        dst_offsets.push(0usize);
        for (d, list) in in_edges.iter().enumerate() {
            for &(s, w) in list {
                edge_src.push(s);
                edge_dst.push(d as u32);
                edge_weight.push(w);
            }
            dst_offsets.push(edge_src.len());
        }
        let topo = Self {
            n_src,
            n_dst,
            edge_src: edge_src.into(),
            edge_dst: edge_dst.into(),
            dst_offsets: dst_offsets.into(),
            edge_weight: edge_weight.into(),
            dst_in_rows: dst_in_rows.into(),
        };
        debug_assert_eq!(topo.validate(), Ok(()));
        topo
    }
}

/// `n` default values in fresh `Arc` storage, to be filled through [`unique`].
fn fresh<T: Copy + Default>(n: usize) -> Arc<[T]> {
    iter::repeat_n(T::default(), n).collect()
}

fn unique<T>(a: &mut Arc<[T]>) -> &mut [T] {
    Arc::get_mut(a).expect("a fresh Arc has no other owner")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LayerTopology {
        // 3 sources; 2 destinations. dst0 <- {0, 1}; dst1 <- {1, 2}.
        LayerTopology::from_adjacency(
            3,
            &[vec![(0, 0.5), (1, 0.5)], vec![(1, 1.0), (2, 1.0)]],
            vec![0, 2],
        )
    }

    #[test]
    fn from_adjacency_builds_valid_csc() {
        let t = sample();
        assert_eq!(t.num_edges(), 4);
        assert_eq!(&*t.edge_src, &[0, 1, 1, 2]);
        assert_eq!(&*t.edge_dst, &[0, 0, 1, 1]);
        assert_eq!(&*t.dst_offsets, &[0, 2, 4]);
        assert_eq!(t.validate(), Ok(()));
    }

    #[test]
    fn validate_catches_bad_offsets() {
        let mut t = sample();
        t.dst_offsets = vec![0usize, 3, 4].into();
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_catches_out_of_range_src() {
        let mut t = sample();
        t.edge_src = vec![0u32, 9, 1, 2].into();
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_dst_in_rows() {
        let mut t = sample();
        t.dst_in_rows = vec![0u32, 99].into();
        assert!(t.validate().is_err());
    }

    #[test]
    fn empty_destination_is_fine() {
        let t = LayerTopology::from_adjacency(2, &[vec![], vec![(0, 1.0)]], vec![0, 1]);
        assert_eq!(t.validate(), Ok(()));
        assert_eq!(t.num_edges(), 1);
    }
}
