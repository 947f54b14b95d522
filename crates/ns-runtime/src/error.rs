//! Runtime error type.

use ns_net::NetError;

/// Why a worker failed mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// The worker crashed (a [`FaultPlan`](ns_net::FaultPlan) kill, or any
    /// early thread exit that dropped its endpoint).
    Killed,
    /// A fabric operation failed: the peer disconnected, missed the
    /// receive deadline, or broke protocol.
    Net(NetError),
    /// The divergence guard tripped: the worker observed a non-finite
    /// loss or gradient before the optimizer step.
    Diverged,
    /// The worker went silent with its endpoint open (an injected
    /// hang) and returned once its peers had exhausted their receive
    /// budgets on it and disconnected.
    Hung,
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::Killed => write!(f, "worker crashed"),
            FailureCause::Net(e) => write!(f, "{e}"),
            FailureCause::Diverged => write!(f, "non-finite loss or gradient"),
            FailureCause::Hung => write!(f, "worker hung until its peers' receive budgets ran out"),
        }
    }
}

/// Errors surfaced by planning or training.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The projected per-worker device working set exceeds device memory
    /// at the dataset's full (paper) scale. This is the condition under
    /// which the paper reports "OOM" cells for DepCache / ROC / PyG.
    DeviceOom {
        /// Engine or system that overflowed.
        what: String,
        /// Projected bytes needed on the worst worker.
        needed_bytes: u64,
        /// Device capacity.
        limit_bytes: u64,
    },
    /// Inconsistent configuration (e.g. zero workers, dims mismatch).
    InvalidConfig(String),
    /// A worker died or wedged mid-training. All surviving worker threads
    /// have been drained and joined before this is returned; with recovery
    /// enabled the trainer catches it, rolls back to the last checkpoint,
    /// and resumes on the survivors.
    WorkerFailed {
        /// The failed (or first-failed) worker.
        worker: usize,
        /// Epoch the failure occurred in, counted from the start of the
        /// run.
        epoch: usize,
        /// Root cause.
        cause: FailureCause,
    },
    /// A checkpoint could not be restored during recovery.
    CheckpointCorrupt(String),
    /// The durable checkpoint store failed to persist a generation (disk
    /// full, permission, rename failure). Training state is unaffected —
    /// the in-memory checkpoint is still valid — but durability is not.
    StoreIo(String),
    /// Training diverged: a non-finite loss or gradient norm was detected
    /// by the divergence guard. With recovery enabled the trainer treats
    /// this like a fault and rolls back to the last good checkpoint.
    Diverged {
        /// The worker that observed the non-finite value.
        worker: usize,
        /// Epoch (from the start of the run) where divergence appeared.
        epoch: usize,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::DeviceOom { what, needed_bytes, limit_bytes } => write!(
                f,
                "{what}: out of device memory ({:.2} GiB needed, {:.2} GiB available)",
                *needed_bytes as f64 / (1u64 << 30) as f64,
                *limit_bytes as f64 / (1u64 << 30) as f64,
            ),
            RuntimeError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            RuntimeError::WorkerFailed { worker, epoch, cause } => {
                write!(f, "worker {worker} failed at epoch {epoch}: {cause}")
            }
            RuntimeError::CheckpointCorrupt(msg) => {
                write!(f, "checkpoint restore failed: {msg}")
            }
            RuntimeError::StoreIo(msg) => {
                write!(f, "checkpoint store write failed: {msg}")
            }
            RuntimeError::Diverged { worker, epoch } => write!(
                f,
                "worker {worker}: non-finite loss or gradient at epoch {epoch} \
                 (training diverged)"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, RuntimeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_gib() {
        let e = RuntimeError::DeviceOom {
            what: "DepCache".into(),
            needed_bytes: 32 * (1 << 30),
            limit_bytes: 16 * (1 << 30),
        };
        let s = e.to_string();
        assert!(s.contains("32.00 GiB"), "{s}");
        assert!(s.contains("16.00 GiB"), "{s}");
    }

    #[test]
    fn failure_displays_name_the_culprit() {
        let e = RuntimeError::WorkerFailed {
            worker: 2,
            epoch: 3,
            cause: FailureCause::Net(NetError::PeerDisconnected { peer: 1 }),
        };
        let s = e.to_string();
        assert!(s.contains("worker 2"), "{s}");
        assert!(s.contains("epoch 3"), "{s}");
        assert!(s.contains("peer 1 disconnected"), "{s}");
    }
}
