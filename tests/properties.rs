//! Property tests over random graphs and configurations: plan
//! invariants, simulator bounds, partitioner covers, and hybrid-split
//! disjointness.
//!
//! Each property runs over `CASES` seeded cases through
//! [`ns_rand::check_cases`]: case `N` draws its inputs from
//! `StdRng::seed_from_u64(N)`, a failure prints `case seed = N`, and
//! `check_cases(N..N + 1, ..)` replays it alone. The draws cover the ranges
//! the `proptest` strategies named before this suite dropped that crate;
//! what was lost is shrinking — a failing case is reported as drawn, not
//! minimized.

use ns_gnn::{GnnModel, ModelKind};
use ns_graph::generate::{erdos_renyi, rmat};
use ns_graph::{CsrGraph, Partitioner};
use ns_net::sim::{simulate, TaskGraph};
use ns_net::ClusterSpec;
use ns_rand::{check_cases, StdRng};
use ns_runtime::cost::probe;
use ns_runtime::hybrid::{partition_dependencies, HybridConfig};
use ns_runtime::plan::{build_plans, validate_plans, DepDecision};

const CASES: u64 = 24;

/// An R-MAT or Erdős–Rényi graph (a fair coin) on 64..400 vertices with
/// 2..10 edges per vertex.
fn arb_graph(rng: &mut StdRng) -> CsrGraph {
    let n = rng.random_range(64usize..400);
    let m = n * rng.random_range(2usize..10);
    let seed = rng.random_range(0u64..1000);
    let edges = if rng.random::<bool>() {
        rmat(n, m, (0.57, 0.19, 0.19), seed)
    } else {
        erdos_renyi(n, m, seed)
    };
    CsrGraph::from_edges(n, &edges, true)
}

/// Partitioners always produce an exact cover of the vertex set.
#[test]
fn partitioners_cover_exactly() {
    check_cases(0..CASES, |rng| {
        let g = arb_graph(rng);
        let parts = rng.random_range(1usize..8);
        for p in [Partitioner::Chunk, Partitioner::MetisLike, Partitioner::Fennel] {
            let part = p.partition(&g, parts);
            assert_eq!(part.part_sizes().iter().sum::<usize>(), g.num_vertices());
            let mut all: Vec<u32> = (0..parts).flat_map(|i| part.part_vertices(i)).collect();
            all.sort_unstable();
            assert_eq!(all.len(), g.num_vertices());
            assert!(all.windows(2).all(|w| w[0] < w[1]), "no duplicates");
        }
    });
}

/// Every dependency decision compiles into a structurally valid plan
/// (validated invariants: exact input-row cover, send/recv symmetry,
/// full edge coverage, owned-everywhere).
#[test]
fn plans_are_valid_for_all_decisions() {
    check_cases(0..CASES, |rng| {
        let g = arb_graph(rng);
        let (parts, layers) = (rng.random_range(1usize..6), rng.random_range(1usize..4));
        let part = Partitioner::Chunk.partition(&g, parts);
        for d in [DepDecision::CacheAll, DepDecision::CommAll] {
            let plans = build_plans(&g, &part, layers, &d).unwrap();
            assert!(validate_plans(&g, &part, &plans).is_ok());
        }
    });
}

/// Hybrid's dependency split is a disjoint cover: every remote dep of
/// every layer is either cached or communicated, never both, and the
/// resulting plan is valid.
#[test]
fn hybrid_split_is_disjoint_cover() {
    check_cases(0..CASES, |rng| {
        let g = arb_graph(rng);
        let parts = rng.random_range(2usize..6);
        let part = Partitioner::Chunk.partition(&g, parts);
        let cluster = ClusterSpec::aliyun_ecs(parts);
        let model = GnnModel::two_layer(ModelKind::Gcn, 16, 8, 4, 1);
        let costs = probe(&model, &cluster);
        let (decision, info) = partition_dependencies(
            &g, &part, model.dims(), &costs, 1.0,
            cluster.device.mem_bytes, &HybridConfig::default(),
        ).unwrap();
        // Counted totals must equal the closure dependency counts.
        let plans = build_plans(&g, &part, 2, &decision).unwrap();
        assert!(validate_plans(&g, &part, &plans).is_ok());
        assert!(info.total_cached() + info.total_comm() > 0 || part.edge_cut(&g) == 0);
    });
}

/// Simulator sanity: makespan is at least the longest single task and
/// at most the fully serialized sum of all work.
#[test]
fn simulator_bounds() {
    check_cases(0..CASES, |rng| {
        let (n_tasks, workers) = (rng.random_range(1usize..40), rng.random_range(1usize..6));
        let spec = ClusterSpec::aliyun_ecs(workers);
        let mut g = TaskGraph::new();
        let mut prev = None;
        let mut max_single = 0.0f64;
        let mut serial_sum = 0.0f64;
        for _ in 0..n_tasks {
            let kind: u8 = rng.random_range(0..3);
            let chain: bool = rng.random();
            let deps = if chain { prev.into_iter().collect() } else { vec![] };
            let t = match kind {
                0 => {
                    let flops = rng.random_range(1_000_000u64..500_000_000);
                    let d = spec.compute_seconds(flops) + spec.device.launch_overhead_s;
                    max_single = max_single.max(d);
                    serial_sum += d;
                    g.compute(rng.random_range(0..workers), flops, deps)
                }
                1 => {
                    let flops = rng.random_range(1_000_000u64..100_000_000);
                    let d = spec.sparse_compute_seconds(flops) + spec.device.launch_overhead_s;
                    max_single = max_single.max(d);
                    serial_sum += d;
                    g.compute_sparse(rng.random_range(0..workers), flops, deps)
                }
                _ => {
                    let bytes = rng.random_range(1_000u64..5_000_000);
                    let src = rng.random_range(0..workers);
                    let dst = rng.random_range(0..workers);
                    // Egress + ingress + latency + enqueue; allow incast
                    // inflation in the upper bound.
                    let d = 2.0 * spec.wire_seconds(bytes) * (1.0 + spec.net.incast_penalty * n_tasks as f64)
                        + spec.net.latency_s
                        + bytes as f64 / spec.net.enqueue_lockfree_bps;
                    max_single = max_single.max(
                        2.0 * spec.wire_seconds(bytes) + spec.net.latency_s,
                    );
                    serial_sum += d;
                    g.send(src, dst, bytes, deps)
                }
            };
            prev = Some(t);
        }
        let report = simulate(&g, &spec);
        assert!(report.makespan >= max_single * 0.999,
            "makespan {} below longest task {}", report.makespan, max_single);
        assert!(report.makespan <= serial_sum * 1.001 + 1e-9,
            "makespan {} above serial sum {}", report.makespan, serial_sum);
    });
}

/// DepCache plans never receive anything; DepComm plans never
/// replicate anything — for arbitrary graphs and worker counts.
#[test]
fn engine_plan_extremes() {
    check_cases(0..CASES, |rng| {
        let g = arb_graph(rng);
        let (parts, layers) = (rng.random_range(1usize..6), rng.random_range(1usize..3));
        let part = Partitioner::Chunk.partition(&g, parts);
        let cache = build_plans(&g, &part, layers, &DepDecision::CacheAll).unwrap();
        for p in &cache {
            assert_eq!(p.forward_comm_rows(), 0);
        }
        let comm = build_plans(&g, &part, layers, &DepDecision::CommAll).unwrap();
        for p in &comm {
            assert_eq!(p.replica_slots(), 0);
            assert_eq!(p.prefetched_features(), 0);
        }
    });
}
