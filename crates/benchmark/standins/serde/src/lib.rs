//! Stand-in for `serde`: the marker traits plus the (empty) derives.

/// Marker for serializable types.
pub trait Serialize {}

/// Marker for deserializable types.
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
