//! Dense 2-D `f32` tensors with tape-based reverse-mode automatic
//! differentiation.
//!
//! This crate plays the role that PyTorch's autograd library plays in the
//! original NeutronStar system: it provides the *in-worker* neural-network
//! operators (`EdgeForward`, `VertexForward`, the prediction head) together
//! with automatic gradient computation for them. The distributed framework
//! (crate `ns-runtime`) chains per-layer tape segments across workers
//! exactly as NeutronStar chains per-layer PyTorch autograd graphs through
//! its `GetFromDepNbr`/`PostToDepNbr` dependency-management operators.
//!
//! Design points:
//!
//! * Tensors are strictly two-dimensional (`rows x cols`, row-major). GNN
//!   training only ever manipulates vertex/edge feature matrices, weight
//!   matrices, and scalars (`1 x 1`), so higher ranks would be dead weight.
//! * The [`Tape`] is an append-only arena. Every operator
//!   records the information needed for its adjoint; `backward_from` seeds
//!   an arbitrary node with an upstream gradient, which is what a layered
//!   distributed system needs (the seed for layer `l` arrives from layer
//!   `l+1`, possibly over the network).
//! * Every operator reports its FLOP cost on [`Tape::flops`] so the
//!   cluster simulator in `ns-net` can replay an epoch on a modeled device.

pub mod checkpoint;
pub mod nn;
pub mod optim;
pub mod pool;
pub mod tape;
pub mod tensor;

pub use nn::{Init, Linear, Mlp, ParamStore};
pub use optim::{Adam, AdamState, Optimizer, Sgd};
pub use tape::{Tape, Var};
pub use tensor::Tensor;

/// Error type for tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two tensors had incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Operation name for diagnostics.
        op: &'static str,
        /// Shape of the left-hand operand.
        lhs: (usize, usize),
        /// Shape of the right-hand operand.
        rhs: (usize, usize),
    },
    /// An index was out of bounds for the tensor it addresses.
    IndexOutOfBounds {
        /// Operation name for diagnostics.
        op: &'static str,
        /// The offending index.
        index: usize,
        /// The bound that was violated.
        bound: usize,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs {}x{}, rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::IndexOutOfBounds { op, index, bound } => {
                write!(f, "index {index} out of bounds {bound} in {op}")
            }
        }
    }
}

impl std::error::Error for TensorError {}
