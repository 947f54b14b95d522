//! GNN models in NeutronStar's decoupled execution flow.
//!
//! NeutronStar's central software idea (§4.1) is to decouple each GNN
//! layer into *graph operations* (`ScatterToEdge`, `GatherByDst` and their
//! backward duals — structure-dependent, framework-owned) and *NN
//! operations* (`EdgeForward`, `VertexForward` — parameterized, delegated
//! to an autograd library). This crate implements that flow on top of
//! `ns-tensor`:
//!
//! * [`ops`] — the named graph operators of Fig. 6, as tape ops whose
//!   adjoints realize `ScatterBackToEdge` / `GatherBySrc` automatically.
//! * [`topology`] — [`LayerTopology`], the local
//!   edge structure a worker assembles for one layer (whatever mixture of
//!   owned, cached, and communicated vertices the engine decided on).
//! * [`layers`] — GCN, GIN, and GAT layers. Each `forward` records one
//!   tape segment and returns a [`LayerRun`] whose
//!   `backward` accepts the output gradient (arriving from the next layer
//!   or from remote mirrors) and yields the input gradient — the
//!   per-layer *synchronize-compute / compute-synchronize* contract of
//!   §4.1 — when the caller asked for one ([`LayerInput`]). A layer is an
//!   optional per-row transform, which a distributed caller runs where the
//!   rows were computed ([`LayerRun::transform_for`]), a parameter-free
//!   prefix and a body; over constant rows the prefix is handed back
//!   ([`LayerPrefix`]) for the next `forward` to start from.
//! * [`model`] — layer stacks with the paper's 2-layer defaults.
//! * [`loss`] — softmax cross-entropy prediction head and accuracy.

pub mod inference;
pub mod layers;
pub mod loss;
pub mod model;
pub mod ops;
pub mod topology;

pub use layers::{
    GatLayer, GcnLayer, GinLayer, GnnLayer, LayerBackward, LayerInput, LayerPrefix, LayerRun,
    SageLayer,
};
pub use ops::Aggregator;
pub use model::{GnnModel, ModelKind};
pub use topology::LayerTopology;
