//! Dataset registry mirroring the paper's Table 2.
//!
//! Each [`DatasetSpec`] records the published statistics of one evaluation
//! graph — |V|, |E|, feature dimension, number of labels, and the hidden
//! dimension the paper pairs with it — together with the synthetic
//! generator that stands in for the unavailable raw data. Materializing at
//! `scale` shrinks |V| and |E| proportionally, preserving the average
//! degree that drives the DepCache/DepComm trade-off.

use ns_rand::StdRng;

use crate::csr::CsrGraph;
use crate::generate::{random_features, random_labels, rmat, sbm, SbmParams};
use ns_tensor::Tensor;

/// Which synthetic generator stands in for a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeneratorKind {
    /// R-MAT power-law graph with random features/labels (runtime-focused
    /// experiments; the paper uses random features for these graphs too).
    Rmat,
    /// Stochastic block model with learnable community labels (accuracy
    /// experiments and the citation networks).
    Sbm,
}

/// Static description of one evaluation dataset (paper Table 2).
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name as used in the paper.
    pub name: &'static str,
    /// Published vertex count.
    pub vertices: usize,
    /// Published edge count.
    pub edges: usize,
    /// Input feature dimension (`ftr. dim`).
    pub feature_dim: usize,
    /// Number of label classes (`#L`).
    pub num_classes: usize,
    /// Hidden layer dimension the paper pairs with this graph.
    pub hidden_dim: usize,
    /// Stand-in generator.
    pub generator: GeneratorKind,
}

impl DatasetSpec {
    /// Average degree |E| / |V| of the published graph.
    pub fn avg_degree(&self) -> f64 {
        self.edges as f64 / self.vertices as f64
    }

    /// Materializes a scaled instance: `|V'| = max(64, |V| * scale)` and
    /// `|E'| = |E| * scale`, keeping the average degree. `seed` controls
    /// all randomness (graph, features, labels, splits).
    pub fn materialize(&self, scale: f64, seed: u64) -> Dataset {
        assert!(scale > 0.0, "scale must be positive");
        let n = ((self.vertices as f64 * scale) as usize).max(64);
        let m = ((self.edges as f64 * scale) as usize).max(2 * n);
        match self.generator {
            GeneratorKind::Rmat => {
                let edges = rmat(n, m, (0.57, 0.19, 0.19), seed);
                let graph = CsrGraph::from_edges(n, &edges, true);
                let features = random_features(n, self.feature_dim, seed ^ 0xfeed);
                let labels = random_labels(n, self.num_classes, seed ^ 0x1abe1);
                Dataset::assemble(self, graph, features, labels, seed, scale)
            }
            GeneratorKind::Sbm => {
                let out = sbm(
                    &SbmParams {
                        n,
                        m,
                        communities: self.num_classes,
                        intra_fraction: 0.9,
                        feature_dim: self.feature_dim,
                        feature_noise: 1.0,
                    },
                    seed,
                );
                let graph = CsrGraph::from_edges(n, &out.edges, true);
                Dataset::assemble(self, graph, out.features, out.labels, seed, scale)
            }
        }
    }
}

/// A materialized dataset: graph, features, labels, and train/val/test
/// masks.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name.
    pub name: String,
    /// The graph (with self-loops and GCN normalization).
    pub graph: CsrGraph,
    /// `|V| x feature_dim` input features.
    pub features: Tensor,
    /// Ground-truth label per vertex.
    pub labels: Vec<u32>,
    /// Number of label classes.
    pub num_classes: usize,
    /// Hidden dimension the paper pairs with this dataset.
    pub hidden_dim: usize,
    /// Training-set membership per vertex.
    pub train_mask: Vec<bool>,
    /// Validation-set membership per vertex.
    pub val_mask: Vec<bool>,
    /// Test-set membership per vertex.
    pub test_mask: Vec<bool>,
    /// The scale factor this instance was materialized at, relative to the
    /// published graph (1.0 = full size). Memory accounting uses it to
    /// project device-memory behaviour at the paper's scale.
    pub scale: f64,
}

impl Dataset {
    fn assemble(
        spec: &DatasetSpec,
        graph: CsrGraph,
        features: Tensor,
        labels: Vec<u32>,
        seed: u64,
        scale: f64,
    ) -> Dataset {
        let n = graph.num_vertices();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5711);
        let mut train_mask = vec![false; n];
        let mut val_mask = vec![false; n];
        let mut test_mask = vec![false; n];
        for v in 0..n {
            let r: f64 = rng.random();
            if r < 0.6 {
                train_mask[v] = true;
            } else if r < 0.8 {
                val_mask[v] = true;
            } else {
                test_mask[v] = true;
            }
        }
        Dataset {
            name: spec.name.to_string(),
            graph,
            features,
            labels,
            num_classes: spec.num_classes,
            hidden_dim: spec.hidden_dim,
            train_mask,
            val_mask,
            test_mask,
            scale,
        }
    }

    /// Input feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Number of training vertices.
    pub fn num_train(&self) -> usize {
        self.train_mask.iter().filter(|&&b| b).count()
    }
}

/// The registry of all Table 2 datasets.
pub fn registry() -> Vec<DatasetSpec> {
    use GeneratorKind::*;
    vec![
        DatasetSpec { name: "google", vertices: 870_000, edges: 5_100_000, feature_dim: 512, num_classes: 16, hidden_dim: 256, generator: Rmat },
        DatasetSpec { name: "pokec", vertices: 1_600_000, edges: 30_000_000, feature_dim: 512, num_classes: 16, hidden_dim: 256, generator: Rmat },
        DatasetSpec { name: "livejournal", vertices: 4_800_000, edges: 68_000_000, feature_dim: 320, num_classes: 16, hidden_dim: 160, generator: Rmat },
        DatasetSpec { name: "reddit", vertices: 230_000, edges: 114_000_000, feature_dim: 602, num_classes: 41, hidden_dim: 256, generator: Sbm },
        DatasetSpec { name: "orkut", vertices: 3_100_000, edges: 117_000_000, feature_dim: 320, num_classes: 20, hidden_dim: 160, generator: Rmat },
        DatasetSpec { name: "wikilink", vertices: 12_000_000, edges: 378_000_000, feature_dim: 256, num_classes: 16, hidden_dim: 128, generator: Rmat },
        DatasetSpec { name: "twitter", vertices: 42_000_000, edges: 1_500_000_000, feature_dim: 52, num_classes: 16, hidden_dim: 32, generator: Rmat },
        DatasetSpec { name: "cora", vertices: 2_700, edges: 5_400, feature_dim: 1433, num_classes: 7, hidden_dim: 128, generator: Sbm },
        DatasetSpec { name: "citeseer", vertices: 3_300, edges: 4_700, feature_dim: 3307, num_classes: 6, hidden_dim: 128, generator: Sbm },
        DatasetSpec { name: "pubmed", vertices: 20_000, edges: 44_000, feature_dim: 500, num_classes: 3, hidden_dim: 128, generator: Sbm },
    ]
}

/// Looks a spec up by its paper name.
pub fn by_name(name: &str) -> Option<DatasetSpec> {
    registry().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table2() {
        let specs = registry();
        assert_eq!(specs.len(), 10);
        let reddit = by_name("reddit").unwrap();
        assert_eq!(reddit.feature_dim, 602);
        assert_eq!(reddit.num_classes, 41);
        assert!((reddit.avg_degree() - 495.6).abs() < 1.0);
        assert!(by_name("unknown").is_none());
    }

    #[test]
    fn materialize_preserves_avg_degree_shape() {
        let spec = by_name("google").unwrap();
        let ds = spec.materialize(0.01, 42);
        let n = ds.graph.num_vertices();
        assert!((8_000..10_000).contains(&n), "n = {n}");
        // avg degree (incl. self loop, some dup-dropping) near 5.86 + 1.
        let d = ds.graph.avg_degree();
        assert!((4.0..9.0).contains(&d), "avg degree {d}");
        assert_eq!(ds.feature_dim(), 512);
        assert_eq!(ds.labels.len(), n);
    }

    #[test]
    fn materialize_is_deterministic() {
        let spec = by_name("cora").unwrap();
        let a = spec.materialize(1.0, 3);
        let b = spec.materialize(1.0, 3);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.features.data(), b.features.data());
        assert_eq!(a.train_mask, b.train_mask);
    }

    #[test]
    fn masks_partition_vertices() {
        let ds = by_name("pubmed").unwrap().materialize(0.2, 9);
        for v in 0..ds.graph.num_vertices() {
            let count = [&ds.train_mask, &ds.val_mask, &ds.test_mask]
                .iter()
                .filter(|m| m[v])
                .count();
            assert_eq!(count, 1, "vertex {v} in {count} splits");
        }
        let frac = ds.num_train() as f64 / ds.graph.num_vertices() as f64;
        assert!((0.5..0.7).contains(&frac));
    }

    #[test]
    fn minimum_size_floor_applies() {
        let ds = by_name("cora").unwrap().materialize(0.0001, 1);
        assert!(ds.graph.num_vertices() >= 64);
    }
}
