//! DistDGL-like sampled mini-batch training (DepCache + sampling).
//!
//! DistDGL reduces DepCache's redundant computation by *sampling* a
//! bounded set of dependencies per target vertex — the paper configures a
//! (10, 25) fan-out — and training on mini-batches. The consequences the
//! paper measures all follow from the mechanism reproduced here:
//!
//! * every batch must fetch its sampled block's features from the
//!   distributed store, so bandwidth use is the highest of all systems
//!   and never amortizes across epochs (Fig. 13c);
//! * the fetch→train loop is serialized, so GPU utilization is the lowest
//!   of all systems (Fig. 13a);
//! * aggregation sees only a sampled subset of neighbors, so the accuracy
//!   ceiling sits below full-graph training (Fig. 14).
//!
//! Training is numerically real: sampled blocks run through the same
//! `ns-gnn` layers, and the reported accuracies come from actual learned
//! parameters.

use ns_gnn::inference::infer;
use ns_gnn::loss::{accuracy, softmax_cross_entropy};
use ns_gnn::{GnnModel, LayerInput, LayerTopology};
use ns_graph::fx::{FxHashMap, FxHashSet};
use ns_graph::Dataset;
use ns_net::ClusterSpec;
use ns_rand::StdRng;
use ns_tensor::{Adam, Optimizer};

/// Host-side cost of drawing one sampled edge from the distributed graph
/// store (hash lookups, RPC serialization, batching) — the sampler work
/// that bounds DistDGL's pipeline in the paper's analysis (§5.4: "bounded
/// by the I/O throughput of the storage").
pub const SAMPLE_SECONDS_PER_EDGE: f64 = 1.0e-6;

/// Configuration of the DistDGL-like trainer.
#[derive(Debug, Clone)]
pub struct DistDglConfig {
    /// Neighbor fan-outs `(first hop, second hop)`; the paper uses
    /// `(10, 25)`.
    pub fanouts: (usize, usize),
    /// Mini-batch size (target vertices per step).
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// RNG seed for sampling and shuffling.
    pub seed: u64,
}

impl Default for DistDglConfig {
    fn default() -> Self {
        Self { fanouts: (10, 25), batch_size: 256, lr: 0.01, seed: 17 }
    }
}

/// Per-epoch numeric results.
#[derive(Debug, Clone)]
pub struct DistDglEpoch {
    /// Mean training loss over the epoch's batches.
    pub loss: f64,
    /// Training accuracy (on sampled blocks' targets).
    pub train_acc: f64,
    /// Full-graph validation accuracy is not evaluated per epoch by
    /// DistDGL-style trainers; we report test accuracy on the targets'
    /// final predictions from a full (unsampled) inference pass.
    pub test_acc: f64,
}

/// Everything the DistDGL-like run produces.
#[derive(Debug, Clone)]
pub struct DistDglReport {
    /// Per-epoch numerics.
    pub epochs: Vec<DistDglEpoch>,
    /// Modeled seconds per epoch on the target cluster.
    pub epoch_seconds: f64,
    /// Seconds per epoch spent sampling + fetching (the bottleneck).
    pub fetch_seconds: f64,
    /// Seconds per epoch of device compute.
    pub compute_seconds: f64,
    /// Bytes fetched per epoch (features + sampling RPCs + per-batch
    /// gradient synchronization).
    pub bytes_per_epoch: u64,
    /// Mean device utilization implied by the serialized pipeline.
    pub device_utilization: f64,
}

struct SampledBlock {
    topos: Vec<LayerTopology>,
    input_ids: Vec<u32>, // feature rows for layer 0 input
    targets: Vec<u32>,
    layer1_compute: Vec<u32>,
}

/// The DistDGL-like trainer.
pub struct DistDglLike<'a> {
    dataset: &'a Dataset,
    model: &'a GnnModel,
    cluster: ClusterSpec,
    cfg: DistDglConfig,
}

impl<'a> DistDglLike<'a> {
    /// Creates a trainer (2-layer models only, matching the paper's
    /// (10, 25) two-hop sampling).
    pub fn new(
        dataset: &'a Dataset,
        model: &'a GnnModel,
        cluster: ClusterSpec,
        cfg: DistDglConfig,
    ) -> Self {
        assert_eq!(model.num_layers(), 2, "fan-out sampling is two-hop");
        Self { dataset, model, cluster, cfg }
    }

    fn sample_neighbors(&self, v: u32, fanout: usize, rng: &mut StdRng) -> Vec<u32> {
        let nbrs = self.dataset.graph.in_neighbors(v);
        if nbrs.len() <= fanout {
            return nbrs.to_vec();
        }
        // Floyd's algorithm for a uniform sample without replacement.
        let mut chosen = FxHashSet::default();
        for i in nbrs.len() - fanout..nbrs.len() {
            let j = rng.random_range(0..=i);
            if !chosen.insert(nbrs[j]) {
                chosen.insert(nbrs[i]);
            }
        }
        let mut out: Vec<u32> = chosen.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Builds the two-layer sampled block (MFG) for a batch of targets.
    fn sample_block(&self, targets: &[u32], rng: &mut StdRng) -> SampledBlock {
        let (f1, f2) = self.cfg.fanouts;
        // Hop 1: sampled in-neighbors of each target.
        let mut hop1: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        let mut layer1_set: FxHashSet<u32> = targets.iter().copied().collect();
        for &t in targets {
            let s = self.sample_neighbors(t, f1, rng);
            layer1_set.extend(s.iter().copied());
            hop1.insert(t, s);
        }
        let mut layer1_compute: Vec<u32> = layer1_set.into_iter().collect();
        layer1_compute.sort_unstable();
        // Hop 2: sampled in-neighbors of every layer-1 vertex.
        let mut hop2: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        let mut input_set: FxHashSet<u32> = layer1_compute.iter().copied().collect();
        for &v in &layer1_compute {
            let s = self.sample_neighbors(v, f2, rng);
            input_set.extend(s.iter().copied());
            hop2.insert(v, s);
        }
        let mut input_ids: Vec<u32> = input_set.into_iter().collect();
        input_ids.sort_unstable();

        let build = |compute: &[u32], inputs: &[u32], adj: &FxHashMap<u32, Vec<u32>>| {
            let pos: FxHashMap<u32, u32> =
                inputs.iter().enumerate().map(|(r, &id)| (id, r as u32)).collect();
            let mut lists: Vec<Vec<(u32, f32)>> = Vec::with_capacity(compute.len());
            let mut dst_in_rows = Vec::with_capacity(compute.len());
            for &v in compute {
                let nbrs = &adj[&v];
                // Mean-style weight over the *sampled* neighborhood plus
                // the self edge (sampling renormalization).
                let w = 1.0 / (nbrs.len().max(1)) as f32;
                let list: Vec<(u32, f32)> = nbrs.iter().map(|&u| (pos[&u], w)).collect();
                lists.push(list);
                dst_in_rows.push(pos[&v]);
            }
            LayerTopology::from_adjacency(inputs.len(), &lists, dst_in_rows)
        };
        let topo0 = build(&layer1_compute, &input_ids, &hop2);
        let topo1 = build(targets, &layer1_compute, &hop1);
        SampledBlock {
            topos: vec![topo0, topo1],
            input_ids,
            targets: targets.to_vec(),
            layer1_compute,
        }
    }

    /// Runs `epochs` epochs and returns the report.
    pub fn train(&self, epochs: usize) -> DistDglReport {
        let ds = self.dataset;
        let m = self.cluster.workers.max(1);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut store = self.model.fresh_store();
        let mut opt = Adam::new(self.cfg.lr);

        let train_ids: Vec<u32> = (0..ds.graph.num_vertices() as u32)
            .filter(|&v| ds.train_mask[v as usize])
            .collect();
        let feature_dim = ds.feature_dim();
        let mut epochs_out = Vec::with_capacity(epochs);

        // Cost accounting (identical every epoch; accumulate on the first).
        let mut fetch_bytes = 0u64;
        let mut sampled_edges = 0u64;
        let mut edge_flops = 0u64;
        let mut vertex_flops = 0u64;
        let mut batches_per_epoch = 0u64;

        for epoch in 0..epochs {
            let mut order = train_ids.clone();
            rng.shuffle(&mut order);
            let mut loss_sum = 0.0f64;
            let mut correct = 0usize;
            let mut seen = 0usize;
            for batch in order.chunks(self.cfg.batch_size) {
                let mut targets = batch.to_vec();
                targets.sort_unstable();
                let block = self.sample_block(&targets, &mut rng);
                if epoch == 0 {
                    batches_per_epoch += 1;
                    sampled_edges +=
                        (block.topos[0].num_edges() + block.topos[1].num_edges()) as u64;
                    // Remote feature rows: uniformly distributed vertices,
                    // (m-1)/m of the block is remote.
                    let rows = block.input_ids.len() as u64;
                    let remote = rows * (m as u64 - 1) / m as u64;
                    fetch_bytes += remote * (4 * feature_dim as u64 + 4);
                    // Sampling RPC traffic: neighbor lists of two hops.
                    let sampled_edges = (block.topos[0].num_edges()
                        + block.topos[1].num_edges())
                        as u64;
                    fetch_bytes += sampled_edges * 8;
                }

                // Forward.
                let input = ds.features.gather_rows(&block.input_ids);
                let run0 = self.model.layer(0).forward(
                    &store,
                    &block.topos[0],
                    LayerInput::Constant(input),
                );
                let h1 = LayerInput::Tracked(run0.output().clone());
                let run1 = self.model.layer(1).forward(&store, &block.topos[1], h1);
                let logits = run1.output().clone();

                let labels: Vec<u32> =
                    block.targets.iter().map(|&v| ds.labels[v as usize]).collect();
                let weights = vec![1.0 / block.targets.len() as f32; block.targets.len()];
                let head = softmax_cross_entropy(&logits, &labels, &weights);
                loss_sum += head.loss;
                let mask = vec![true; block.targets.len()];
                let (c, t) = accuracy(&logits, &labels, &mask);
                correct += c;
                seen += t;

                // Backward + per-batch gradient sync.
                let mut grads = store.zero_grads();
                let (g1, _) = run1.backward(head.logit_grad, &mut grads);
                let g1 = g1.expect("layer 1 tracks its input");
                run0.backward(g1, &mut grads);
                opt.step(&mut store, &grads);
                if epoch == 0 {
                    let (e, v) = run_flops_estimate(&block, self.model);
                    edge_flops += e;
                    vertex_flops += v;
                    // Ring all-reduce: each worker moves 2(m-1)/m of the
                    // gradient bytes.
                    fetch_bytes += 2 * (m as u64 - 1) * self.model.gradient_bytes() / m as u64;
                }
            }
            // Full-graph inference for the reported accuracy (cheap at our
            // scales; DistDGL itself evaluates on sampled blocks, which
            // under-estimates accuracy).
            let test_acc = infer(ds, self.model, &store).test_acc;
            epochs_out.push(DistDglEpoch {
                loss: loss_sum / (train_ids.len().max(1) as f64 / self.cfg.batch_size as f64),
                train_acc: if seen == 0 { 0.0 } else { correct as f64 / seen as f64 },
                test_acc,
            });
        }

        // Timing model: batches are spread across m workers; within a
        // worker the sample/fetch -> compute -> sync loop is serialized
        // (DistDGL's sampler is the bottleneck the paper observes).
        let steps = batches_per_epoch.div_ceil(m as u64) as f64;
        let per_batch_fetch = fetch_bytes as f64 / batches_per_epoch.max(1) as f64
            / self.cluster.bandwidth_bps()
            + sampled_edges as f64 * SAMPLE_SECONDS_PER_EDGE
                / batches_per_epoch.max(1) as f64
            + 4.0 * self.cluster.net.latency_s; // two sampling hops + reply
        let per_batch_compute = (edge_flops as f64
            / (self.cluster.device.sparse_gflops * 1e9)
            + vertex_flops as f64 / (self.cluster.device.dense_gflops * 1e9))
            / batches_per_epoch.max(1) as f64;
        let epoch_seconds = steps * (per_batch_fetch + per_batch_compute);
        DistDglReport {
            epochs: epochs_out,
            epoch_seconds,
            fetch_seconds: steps * per_batch_fetch,
            compute_seconds: steps * per_batch_compute,
            bytes_per_epoch: fetch_bytes,
            device_utilization: if epoch_seconds > 0.0 {
                (steps * per_batch_compute) / epoch_seconds
            } else {
                0.0
            },
        }
    }
}

/// Returns `(edge_flops, vertex_flops)` of one batch, forward + backward
/// (~3x the forward cost).
fn run_flops_estimate(block: &SampledBlock, model: &GnnModel) -> (u64, u64) {
    let l0 = model.layer(0);
    let l1 = model.layer(1);
    let e = block.topos[0].num_edges() as u64 * l0.edge_flops_estimate()
        + block.topos[1].num_edges() as u64 * l1.edge_flops_estimate();
    let v = block.layer1_compute.len() as u64 * l0.vertex_flops_estimate()
        + block.targets.len() as u64 * l1.vertex_flops_estimate();
    (3 * e, 3 * v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_gnn::ModelKind;
    use ns_graph::datasets::by_name;

    fn setup() -> (Dataset, GnnModel) {
        let ds = by_name("cora").unwrap().materialize(0.15, 5);
        let model =
            GnnModel::two_layer(ModelKind::Gcn, ds.feature_dim(), 16, ds.num_classes, 3);
        (ds, model)
    }

    #[test]
    fn sampling_respects_fanout() {
        let (ds, model) = setup();
        let t = DistDglLike::new(&ds, &model, ClusterSpec::aliyun_ecs(4), DistDglConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        for v in 0..ds.graph.num_vertices() as u32 {
            let s = t.sample_neighbors(v, 5, &mut rng);
            assert!(s.len() <= 5.min(ds.graph.in_degree(v)).max(5));
            assert!(s.len() <= ds.graph.in_degree(v));
            for u in &s {
                assert!(ds.graph.in_neighbors(v).contains(u));
            }
        }
    }

    #[test]
    fn training_learns_and_meters() {
        let (ds, model) = setup();
        let t = DistDglLike::new(
            &ds,
            &model,
            ClusterSpec::aliyun_ecs(4),
            DistDglConfig { batch_size: 64, ..Default::default() },
        );
        let report = t.train(10);
        assert_eq!(report.epochs.len(), 10);
        assert!(report.epochs[9].loss < report.epochs[0].loss);
        assert!(report.epochs[9].test_acc > 0.4, "acc {}", report.epochs[9].test_acc);
        assert!(report.bytes_per_epoch > 0);
        assert!(report.epoch_seconds > 0.0);
        // The serialized sampler keeps utilization low.
        assert!(report.device_utilization < 0.9);
    }

    #[test]
    fn fetch_dominates_on_slow_networks() {
        let (ds, model) = setup();
        let t = DistDglLike::new(
            &ds,
            &model,
            ClusterSpec::aliyun_ecs(4),
            DistDglConfig { batch_size: 64, ..Default::default() },
        );
        let r = t.train(1);
        assert!(
            r.fetch_seconds > r.compute_seconds,
            "fetch {} vs compute {}",
            r.fetch_seconds,
            r.compute_seconds
        );
    }
}
