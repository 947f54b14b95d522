//! Hardware models and cluster presets.
//!
//! These parameter blocks replace the physical testbeds of the paper: a
//! 16-node Aliyun ECS cluster (one NVIDIA T4 per node, 6 Gbps Ethernet)
//! and an 8-node private cluster (one V100 per node, 100 Gb/s EDR
//! InfiniBand). All figures of merit used by the simulator are ordinary
//! published specs.

/// Accelerator model: throughput and memory.
///
/// GNN workloads mix two very different kernel classes: dense matmuls
/// (the parameterized vertex/edge functions), which run near the device's
/// arithmetic peak, and sparse gather/aggregate kernels, which are
/// memory-bandwidth-bound and sustain orders of magnitude fewer FLOP/s.
/// Modeling them with one rate erases the redundant-computation cost that
/// the whole DepCache/DepComm trade-off hinges on, so the model carries
/// both.
#[derive(Debug, Clone)]
pub struct DeviceModel {
    /// Sustained throughput of dense (matmul-style) kernels, GFLOP/s.
    pub dense_gflops: f64,
    /// Sustained throughput of sparse (gather/scatter/aggregate) kernels,
    /// GFLOP/s — roughly `memory_bandwidth / bytes_per_flop` with random
    /// access.
    pub sparse_gflops: f64,
    /// Device memory in bytes; exceeding it is an OOM (the paper's
    /// DepCache and ROC runs OOM on several graphs).
    pub mem_bytes: u64,
    /// Fixed per-kernel launch overhead in seconds.
    pub launch_overhead_s: f64,
}

/// Network interface model.
#[derive(Debug, Clone)]
pub struct NetModel {
    /// Per-NIC bandwidth in Gbit/s (applies independently to egress and
    /// ingress).
    pub bandwidth_gbps: f64,
    /// One-way message latency in seconds.
    pub latency_s: f64,
    /// Incast penalty: fractional slowdown of an ingress transfer per
    /// message already queued at the receiving NIC when it arrives. Models
    /// TCP-incast style congestion on Ethernet fabrics; near zero on
    /// InfiniBand. The ring schedule avoids this by construction.
    pub incast_penalty: f64,
    /// Host-side message enqueue throughput when worker threads serialize
    /// through a mutex-protected queue, bytes/s (the paper's baseline).
    pub enqueue_locked_bps: f64,
    /// Host-side enqueue throughput with the lock-free position-indexed
    /// buffer of §4.3, bytes/s.
    pub enqueue_lockfree_bps: f64,
}

/// A homogeneous cluster: `workers` nodes, one device and one NIC each.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Human-readable name used in reports.
    pub name: String,
    /// Number of worker nodes.
    pub workers: usize,
    /// Per-node accelerator.
    pub device: DeviceModel,
    /// Per-node NIC.
    pub net: NetModel,
}

impl ClusterSpec {
    /// The paper's primary testbed: Aliyun ECS `ecs.gn6i` nodes — NVIDIA
    /// T4 (8.1 TFLOPS fp32 peak, 16 GB), 6 Gbps VPC Ethernet.
    pub fn aliyun_ecs(workers: usize) -> Self {
        Self {
            name: format!("aliyun-ecs-{workers}"),
            workers,
            device: DeviceModel {
                // Dense: ~35% of the T4's 8.1 TFLOPS fp32 peak.
                dense_gflops: 2_800.0,
                // Sparse: 320 GB/s GDDR6 with random gathers sustains
                // single-digit effective GFLOP/s on GNN aggregation.
                sparse_gflops: 6.0,
                mem_bytes: 16 * (1 << 30),
                launch_overhead_s: 10e-6,
            },
            net: NetModel {
                bandwidth_gbps: 6.0,
                latency_s: 50e-6,
                incast_penalty: 0.08,
                enqueue_locked_bps: 5.0e9,
                enqueue_lockfree_bps: 50.0e9,
            },
        }
    }

    /// The paper's secondary testbed: V100 (15.7 TFLOPS fp32 peak, 16 GB)
    /// over 100 Gb/s EDR InfiniBand.
    pub fn ibv(workers: usize) -> Self {
        Self {
            name: format!("ibv-{workers}"),
            workers,
            device: DeviceModel {
                dense_gflops: 5_500.0,
                // 900 GB/s HBM2 buys ~3x the T4's effective sparse rate.
                sparse_gflops: 20.0,
                mem_bytes: 16 * (1 << 30),
                launch_overhead_s: 8e-6,
            },
            net: NetModel {
                bandwidth_gbps: 100.0,
                latency_s: 2e-6,
                incast_penalty: 0.01,
                enqueue_locked_bps: 5.0e9,
                enqueue_lockfree_bps: 50.0e9,
            },
        }
    }

    /// A CPU-only single node (for the shared-memory comparisons of
    /// Table 4): no accelerator speedup, no network.
    pub fn cpu_single() -> Self {
        Self {
            name: "cpu-single".to_string(),
            workers: 1,
            device: DeviceModel {
                dense_gflops: 150.0,
                sparse_gflops: 4.0,
                mem_bytes: 62 * (1 << 30),
                launch_overhead_s: 0.0,
            },
            net: NetModel {
                bandwidth_gbps: 100.0,
                latency_s: 0.0,
                incast_penalty: 0.0,
                enqueue_locked_bps: 5.0e9,
                enqueue_lockfree_bps: 50.0e9,
            },
        }
    }

    /// A fresh, fully-active membership view over this cluster's workers
    /// (the elastic trainer's starting point).
    pub fn membership(&self) -> crate::membership::MembershipView {
        crate::membership::MembershipView::new(self.workers)
    }

    /// Ingress/egress bandwidth in bytes per second.
    pub fn bandwidth_bps(&self) -> f64 {
        self.net.bandwidth_gbps * 1e9 / 8.0
    }

    /// Seconds to execute `flops` of dense (matmul-style) work on one
    /// device (excluding launch overhead).
    pub fn compute_seconds(&self, flops: u64) -> f64 {
        flops as f64 / (self.device.dense_gflops * 1e9)
    }

    /// Seconds to execute `flops` of sparse (gather/aggregate) work on
    /// one device (excluding launch overhead).
    pub fn sparse_compute_seconds(&self, flops: u64) -> f64 {
        flops as f64 / (self.device.sparse_gflops * 1e9)
    }

    /// Seconds to push `bytes` through one NIC direction (excluding
    /// latency and queueing).
    pub fn wire_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bandwidth_bps()
    }
}

/// The three system-level optimizations the paper ablates in Fig. 9, as
/// toggles shared by the engines (task-graph construction) and the
/// simulator (cost selection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Ring-based communication scheduling (§4.3, Fig. 8): worker `i`
    /// sends its `j`-th output chunk to worker `(i + j + 1) % m`,
    /// staggering arrivals so no two workers target one receiver at once.
    pub ring: bool,
    /// Lock-free parallel message enqueuing (§4.3): writers place rows at
    /// precomputed offsets instead of serializing through a mutex.
    pub lock_free: bool,
    /// Communication/computation overlapping (§4.3): per-chunk pipelining
    /// instead of a layer-wide barrier between transfer and compute.
    pub overlap: bool,
}

impl ExecOptions {
    /// All optimizations enabled — the full NeutronStar configuration.
    pub fn all() -> Self {
        Self { ring: true, lock_free: true, overlap: true }
    }

    /// All optimizations disabled — the "raw" engines of Fig. 9.
    pub fn none() -> Self {
        Self { ring: false, lock_free: false, overlap: false }
    }
}

/// How parameter gradients are combined across workers each epoch, as
/// the simulated epoch models it. The paper uses all-reduce and notes it
/// "is orthogonal to and can be replaced by the Parameter-Server model";
/// the PS pattern funnels all gradient traffic through one node, which
/// the simulator penalizes with ingress contention at scale. The executor
/// always runs the ring all-reduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Ring all-reduce: `2(m-1)` rounds of `bytes/m` chunks.
    AllReduce,
    /// Parameter server at worker 0: workers push full gradients, the
    /// server reduces and broadcasts the sum back.
    ParameterServer,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_relative_strengths() {
        let ecs = ClusterSpec::aliyun_ecs(16);
        let ibv = ClusterSpec::ibv(8);
        assert_eq!(ecs.workers, 16);
        assert!(ibv.net.bandwidth_gbps > 10.0 * ecs.net.bandwidth_gbps);
        assert!(ibv.device.dense_gflops > ecs.device.dense_gflops);
        assert!(ibv.device.sparse_gflops > ecs.device.sparse_gflops);
        assert!(ibv.net.incast_penalty < ecs.net.incast_penalty);
    }

    #[test]
    fn unit_conversions() {
        let ecs = ClusterSpec::aliyun_ecs(4);
        // 6 Gbps = 750 MB/s.
        assert!((ecs.bandwidth_bps() - 7.5e8).abs() < 1.0);
        assert!((ecs.wire_seconds(750_000_000) - 1.0).abs() < 1e-9);
        let t = ecs.compute_seconds(2_800_000_000_000);
        assert!((t - 1.0).abs() < 1e-9);
        let ts = ecs.sparse_compute_seconds(6_000_000_000);
        assert!((ts - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exec_option_presets() {
        let all = ExecOptions::all();
        assert!(all.ring && all.lock_free && all.overlap);
        let none = ExecOptions::none();
        assert!(!none.ring && !none.lock_free && !none.overlap);
    }
}
