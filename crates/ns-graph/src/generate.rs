//! Synthetic graph generators.
//!
//! The paper evaluates on public web/social graphs (Google, Pokec,
//! LiveJournal, Reddit, Orkut, Wiki-link, Twitter) and small citation
//! networks. Those exact datasets are not available offline, so the
//! dataset registry materializes scaled R-MAT / SBM instances with matched
//! vertex counts, average degrees and feature dimensions — the properties
//! that drive the DepCache/DepComm trade-off the paper studies.

use ns_rand::StdRng;
use ns_tensor::Tensor;

use crate::csr::VertexId;

/// R-MAT recursive-matrix generator (Chakrabarti et al.), the standard
/// synthetic stand-in for power-law web/social graphs.
///
/// Generates `m` distinct directed edges over `n` vertices using quadrant
/// probabilities `(a, b, c, d)`; Graph500 defaults are `(0.57, 0.19, 0.19,
/// 0.05)`. Self-loops are permitted (the CSC builder drops them unless
/// self-loops are requested there).
pub fn rmat(
    n: usize,
    m: usize,
    (a, b, c): (f64, f64, f64),
    seed: u64,
) -> Vec<(VertexId, VertexId)> {
    assert!(n > 0, "rmat: empty vertex set");
    assert!(a + b + c <= 1.0 + 1e-9, "rmat: probabilities exceed 1");
    let mut rng = StdRng::seed_from_u64(seed);
    let levels = (usize::BITS - (n - 1).leading_zeros().max(1)) as usize;
    let size = 1usize << levels;
    let mut edges = Vec::with_capacity(m);
    let mut attempts = 0usize;
    let max_attempts = m.saturating_mul(64).max(1024);
    while edges.len() < m && attempts < max_attempts {
        attempts += 1;
        let (mut x0, mut x1) = (0usize, size);
        let (mut y0, mut y1) = (0usize, size);
        for _ in 0..levels {
            let r: f64 = rng.random();
            let (dx, dy) = if r < a {
                (0, 0)
            } else if r < a + b {
                (1, 0)
            } else if r < a + b + c {
                (0, 1)
            } else {
                (1, 1)
            };
            let mx = (x0 + x1) / 2;
            let my = (y0 + y1) / 2;
            if dx == 0 {
                x1 = mx;
            } else {
                x0 = mx;
            }
            if dy == 0 {
                y1 = my;
            } else {
                y0 = my;
            }
        }
        let (u, v) = (x0, y0);
        if u < n && v < n {
            edges.push((u as VertexId, v as VertexId));
        }
    }
    edges
}

/// Erdős–Rényi G(n, m): `m` uniform random directed edges.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    assert!(n > 0, "erdos_renyi: empty vertex set");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| {
            (
                rng.random_range(0..n) as VertexId,
                rng.random_range(0..n) as VertexId,
            )
        })
        .collect()
}

/// Output of the stochastic block model: a labeled, featured graph on
/// which a GNN can genuinely learn (labels = community, features = noisy
/// community indicator), used for the accuracy experiments (Fig. 14).
pub struct SbmOutput {
    /// Directed edge list (both directions of each undirected pair).
    pub edges: Vec<(VertexId, VertexId)>,
    /// Community (= ground-truth label) per vertex.
    pub labels: Vec<u32>,
    /// `n x feature_dim` feature matrix.
    pub features: Tensor,
}

/// Parameters for [`sbm`].
pub struct SbmParams {
    /// Number of vertices.
    pub n: usize,
    /// Target number of directed edges.
    pub m: usize,
    /// Number of communities (= classes).
    pub communities: usize,
    /// Fraction of edges that stay within a community (homophily). `0.9`
    /// gives an easily learnable task, like the citation/Reddit graphs.
    pub intra_fraction: f64,
    /// Feature dimensionality.
    pub feature_dim: usize,
    /// Std-dev of Gaussian feature noise added to the community indicator.
    pub feature_noise: f32,
}

/// Planted-partition generator. Community sizes are equal (±1).
pub fn sbm(params: &SbmParams, seed: u64) -> SbmOutput {
    let SbmParams { n, m, communities, intra_fraction, feature_dim, feature_noise } = *params;
    assert!(communities >= 1 && communities <= n, "sbm: bad community count");
    assert!(feature_dim >= 1, "sbm: need at least one feature");
    let mut rng = StdRng::seed_from_u64(seed);

    let labels: Vec<u32> = (0..n).map(|v| (v % communities) as u32).collect();
    // Vertices of each community, so intra edges can be sampled directly.
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); communities];
    for (v, &c) in labels.iter().enumerate() {
        members[c as usize].push(v as VertexId);
    }

    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.random_range(0..n);
        let v = if rng.random::<f64>() < intra_fraction {
            let com = &members[labels[u] as usize];
            com[rng.random_range(0..com.len())] as usize
        } else {
            rng.random_range(0..n)
        };
        if u == v {
            continue;
        }
        edges.push((u as VertexId, v as VertexId));
        if edges.len() < m {
            edges.push((v as VertexId, u as VertexId));
        }
    }

    // Features: community indicator (tiled across feature_dim) plus noise.
    let mut data = vec![0.0f32; n * feature_dim];
    for v in 0..n {
        let c = labels[v] as usize;
        for f in 0..feature_dim {
            let signal = if f % communities == c { 1.0 } else { 0.0 };
            let noise: f32 = {
                // Box-Muller; two uniforms -> one normal sample.
                let u1: f32 = rng.random::<f32>().max(1e-7);
                let u2: f32 = rng.random();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            };
            data[v * feature_dim + f] = signal + feature_noise * noise;
        }
    }

    SbmOutput {
        edges,
        labels,
        features: Tensor::from_vec(n, feature_dim, data),
    }
}

/// Uniform random features in `[-0.5, 0.5)` for graphs without natural
/// features, matching the paper's "randomly generated features".
pub fn random_features(n: usize, dim: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..n * dim).map(|_| rng.random::<f32>() - 0.5).collect();
    Tensor::from_vec(n, dim, data)
}

/// Uniform random labels for graphs whose accuracy is not under study.
pub fn random_labels(n: usize, classes: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random_range(0..classes) as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;

    #[test]
    fn rmat_produces_requested_edges_and_is_seeded() {
        let e1 = rmat(1000, 5000, (0.57, 0.19, 0.19), 42);
        let e2 = rmat(1000, 5000, (0.57, 0.19, 0.19), 42);
        assert_eq!(e1.len(), 5000);
        assert_eq!(e1, e2);
        assert!(e1.iter().all(|&(u, v)| (u as usize) < 1000 && (v as usize) < 1000));
    }

    /// The generator fingerprint `crates/benchmark/expected.json` records
    /// next to its seed-42 losses: the benchmark trusts those losses only
    /// on a build whose first seed-42 feature has these bits.
    #[test]
    fn first_seed_42_feature_is_the_recorded_fingerprint() {
        assert_eq!(random_features(1, 1, 42).data()[0].to_bits(), 1_050_733_722);
    }

    #[test]
    fn rmat_is_skewed() {
        let edges = rmat(1 << 10, 20_000, (0.57, 0.19, 0.19), 7);
        let g = CsrGraph::from_edges(1 << 10, &edges, false);
        let max_deg = (0..1u32 << 10).map(|v| g.in_degree(v)).max().unwrap();
        let avg = g.avg_degree();
        // Power-law: the hub degree dwarfs the average.
        assert!(
            (max_deg as f64) > 8.0 * avg,
            "max {max_deg} vs avg {avg} not skewed"
        );
    }

    #[test]
    fn erdos_renyi_is_flat() {
        let edges = erdos_renyi(1 << 10, 20_000, 7);
        let g = CsrGraph::from_edges(1 << 10, &edges, false);
        let max_deg = (0..1u32 << 10).map(|v| g.in_degree(v)).max().unwrap();
        let avg = g.avg_degree();
        assert!((max_deg as f64) < 4.0 * avg, "ER should not be skewed");
    }

    #[test]
    fn sbm_shapes_and_homophily() {
        let params = SbmParams {
            n: 600,
            m: 6000,
            communities: 3,
            intra_fraction: 0.9,
            feature_dim: 12,
            feature_noise: 0.1,
        };
        let out = sbm(&params, 1);
        assert_eq!(out.labels.len(), 600);
        assert_eq!(out.features.shape(), (600, 12));
        assert!(out.edges.len() >= 6000);
        let intra = out
            .edges
            .iter()
            .filter(|&&(u, v)| out.labels[u as usize] == out.labels[v as usize])
            .count();
        let frac = intra as f64 / out.edges.len() as f64;
        assert!(frac > 0.75, "intra fraction {frac} too low");
    }

    #[test]
    fn sbm_features_carry_community_signal() {
        let params = SbmParams {
            n: 90,
            m: 500,
            communities: 3,
            intra_fraction: 0.9,
            feature_dim: 9,
            feature_noise: 0.05,
        };
        let out = sbm(&params, 3);
        // Mean activation on community-aligned feature slots should beat
        // the off-slots decisively at low noise.
        let mut aligned = 0.0f32;
        let mut off = 0.0f32;
        let (mut na, mut no) = (0, 0);
        for v in 0..90 {
            let c = out.labels[v] as usize;
            for f in 0..9 {
                let val = out.features.get(v, f);
                if f % 3 == c {
                    aligned += val;
                    na += 1;
                } else {
                    off += val;
                    no += 1;
                }
            }
        }
        assert!(aligned / na as f32 > 0.8);
        assert!((off / no as f32).abs() < 0.2);
    }

    #[test]
    fn random_features_and_labels_are_bounded() {
        let f = random_features(10, 4, 5);
        assert!(f.data().iter().all(|v| (-0.5..0.5).contains(v)));
        let l = random_labels(100, 7, 5);
        assert!(l.iter().all(|&c| c < 7));
        // All classes appear with 100 samples over 7 classes, w.h.p.
        let distinct: std::collections::HashSet<_> = l.iter().collect();
        assert!(distinct.len() >= 5);
    }
}
