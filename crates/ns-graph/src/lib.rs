//! Graph storage and workload generation for the NeutronStar reproduction.
//!
//! This crate provides every graph-side substrate the paper's system needs:
//!
//! * [`CsrGraph`] — a compressed sparse graph held in both CSC (in-edges,
//!   driving forward aggregation) and CSR (out-edges, driving backward
//!   scatter) form, with pre-computed GCN normalization weights. This is
//!   the layout NeutronStar describes in §4.3 ("CSC for forward
//!   computation and CSR for backward computation").
//! * [`generate`] — synthetic generators: R-MAT (power-law web/social
//!   graphs), Erdős–Rényi, and a stochastic block model whose labels are
//!   learnable from features (for the accuracy experiments).
//! * [`datasets`] — a registry mirroring the paper's Table 2. Each
//!   [`DatasetSpec`] materializes a scaled synthetic
//!   instance with matched average degree, feature dimension, label count,
//!   and hidden size.
//! * [`fx`] — the deterministic Fx hasher behind the vertex-id sets and
//!   maps that still hash (`FxHashSet`, `FxHashMap`).
//! * [`partition`] — chunk-based (the paper's default), metis-like greedy
//!   edge-cut, and Fennel streaming partitioners (§5.7 / Fig. 15).
//! * [`khop`] — k-hop in-neighborhood closures (`V_i^l` of Algorithm 2)
//!   and [`khop::Marks`], the reusable stamp array behind every
//!   in-neighborhood the workspace forms: plan inputs, serving batches,
//!   Algorithm 4's dependency sets.
//! * [`stats`] — k-hop replication under a partitioning (the depth
//!   ablation's diagnostic), over the cumulative closure sets.

pub mod csr;
pub mod datasets;
pub mod fx;
pub mod generate;
pub mod khop;
pub mod partition;
pub mod stats;

pub use csr::{CsrGraph, VertexId};
pub use datasets::{Dataset, DatasetSpec};
pub use partition::{Partitioner, Partitioning};
