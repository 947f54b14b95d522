//! Cluster fabric and discrete-event cluster simulation.
//!
//! The NeutronStar reproduction runs its distributed training for real —
//! one OS thread per worker, tensors moving over [`fabric`] channels — but
//! the *time* an epoch would take on a target cluster (Aliyun ECS with T4
//! GPUs over 6 Gbps Ethernet, or the paper's 100 Gbps InfiniBand V100
//! cluster) is obtained by replaying the epoch's task DAG through the
//! [`sim`] event simulator. The engines in `ns-runtime` emit one
//! [`sim::TaskGraph`] per epoch: compute tasks weighted in FLOPs and
//! messages weighted in bytes, with dependency edges that encode the
//! paper's ring scheduling and communication/computation overlap.
//!
//! Module map:
//!
//! * [`cluster`] — device/NIC models and named cluster presets.
//! * [`sim`] — the task graph and the event-driven scheduler; produces
//!   makespan plus per-resource busy timelines (the utilization traces of
//!   the paper's Fig. 13).
//! * [`fabric`] — real `std::sync::mpsc` channel mesh carrying tensor rows,
//!   gradient chunks, and all-reduce payloads between worker threads.
//! * [`buffer`] — the lock-free position-indexed message enqueuer of §4.3:
//!   every row's final offset is fixed before any thread writes.
//! * [`wire`] — checksummed frame format (magic, kind, length, CRC32)
//!   wrapping every fabric payload; receivers verify before decode.
//! * [`fault`] — deterministic, seeded fault injection (drops, delays,
//!   duplicates, corruption, stragglers, worker kills) that the fabric
//!   acts out, and the one-line spec grammar that names each fault.
//! * [`membership`] — the coordinator's cluster membership view and the
//!   byte cost of the worker rejoin handshake used by the elastic trainer.
//! * [`policy`] — the per-peer circuit breaker a serving shard runs its
//!   peer fetches behind.

pub mod buffer;
pub mod cluster;
pub mod fabric;
pub mod fault;
pub mod membership;
pub mod policy;
pub mod sim;
pub mod wire;

pub use buffer::ParallelEnqueue;
pub use cluster::{ClusterSpec, DeviceModel, ExecOptions, NetModel, SyncMode};
pub use fabric::{Doorbell, Endpoint, Fabric, Message, MessageKind, NetError, NetStats, KIND_NAMES};
pub use fault::{Fault, FaultPlan, KindSel, Link, MsgSel, SendFate, Window};
pub use membership::{MemberState, MembershipEvent, MembershipEventKind, MembershipView};
pub use policy::{BreakerState, BreakerStats, CircuitBreaker};
pub use sim::{SimReport, TaskGraph, TaskId};
pub use wire::{crc32, FrameError, FRAME_HEADER_BYTES};
