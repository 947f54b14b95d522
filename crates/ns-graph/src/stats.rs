//! K-hop replication under a partitioning: the diagnostic that explains
//! *why* a graph lands on one side of the DepCache/DepComm trade-off
//! (the depth ablation reports it).

use crate::csr::CsrGraph;
use crate::khop::Marks;
use crate::partition::Partitioning;

/// Per-partition replication statistics for a k-hop workload — the
/// quantity DepCache's redundant computation scales with.
#[derive(Debug, Clone)]
pub struct ReplicationStats {
    /// For each partition: distinct vertices in its k-hop closure.
    pub closure_sizes: Vec<usize>,
    /// For each partition: owned vertices.
    pub owned_sizes: Vec<usize>,
    /// Mean replication factor: Σ closure / |V| (1.0 = no replication).
    pub replication_factor: f64,
}

/// Measures k-hop closure replication under a partitioning.
pub fn replication_stats(
    graph: &CsrGraph,
    part: &Partitioning,
    hops: usize,
) -> ReplicationStats {
    let mut closure_sizes = Vec::with_capacity(part.num_parts());
    let mut owned_sizes = Vec::with_capacity(part.num_parts());
    let mut marks = Marks::new(graph.num_vertices());
    for p in 0..part.num_parts() {
        let owned = part.part_vertices(p);
        let closure = marks.cumulative(graph, &owned, hops);
        closure_sizes.push(closure[hops].len());
        owned_sizes.push(owned.len());
    }
    let total: usize = closure_sizes.iter().sum();
    ReplicationStats {
        replication_factor: total as f64 / graph.num_vertices().max(1) as f64,
        closure_sizes,
        owned_sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{erdos_renyi, rmat};
    use crate::partition::Partitioner;

    fn power_law() -> CsrGraph {
        CsrGraph::from_edges(1000, &rmat(1000, 8000, (0.57, 0.19, 0.19), 7), true)
    }

    fn flat() -> CsrGraph {
        CsrGraph::from_edges(1000, &erdos_renyi(1000, 8000, 7), true)
    }

    #[test]
    fn replication_grows_with_hops() {
        let g = power_law();
        let part = Partitioner::Chunk.partition(&g, 4);
        let r1 = replication_stats(&g, &part, 1);
        let r2 = replication_stats(&g, &part, 2);
        assert!(r2.replication_factor >= r1.replication_factor);
        assert!(r1.replication_factor >= 1.0);
        for (c, o) in r1.closure_sizes.iter().zip(r1.owned_sizes.iter()) {
            assert!(c >= o);
        }
    }

    #[test]
    fn single_partition_has_no_replication() {
        let g = flat();
        let part = Partitioner::Chunk.partition(&g, 1);
        let r = replication_stats(&g, &part, 2);
        assert!((r.replication_factor - 1.0).abs() < 1e-9);
    }
}
