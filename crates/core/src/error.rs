//! Error type for the BEAGLE-RS API.
//!
//! The C BEAGLE API signals errors through negative return codes
//! (`BEAGLE_ERROR_OUT_OF_RANGE`, …); this is the idiomatic Rust rendering.
//!
//! # Taxonomy
//!
//! The variants fall into four families:
//!
//! * **Argument errors** — [`BeagleError::OutOfRange`],
//!   [`BeagleError::DimensionMismatch`], [`BeagleError::InvalidConfiguration`].
//!   The call itself was malformed; retrying it unchanged can never help.
//! * **Capability errors** — [`BeagleError::NoImplementationFound`],
//!   [`BeagleError::Unsupported`]. The registry/implementation cannot do what
//!   was asked. Creation-time fallback chains (`manager`) may route around
//!   them by picking a different implementation, but the *call* is not
//!   retryable.
//! * **Runtime faults** — [`BeagleError::NumericalFailure`] (handled by
//!   numerical rescue, not retry), [`BeagleError::Device`] (transient ones
//!   are retried in place, permanent ones evict the device),
//!   [`BeagleError::ResourceExhausted`] (retryable: memory pressure can
//!   clear), [`BeagleError::Timeout`] (a watchdog cancelled a launch that
//!   exceeded its deadline budget — *evictable but never retryable*:
//!   re-issuing work to a wedged device only burns more of the deadline),
//!   and [`BeagleError::ChildCreationFailed`] (a multi-device creation
//!   failure attributable to one device slot).
//! * **Durability errors** — [`BeagleError::CheckpointCorrupt`] (a snapshot
//!   failed validation: bad magic/version, truncation, or content-hash
//!   mismatch — it must be reported, never silently replayed) and
//!   [`BeagleError::CheckpointIo`] (the filesystem failed while reading or
//!   writing a snapshot).
//!
//! [`BeagleError::fault`] is the one classifier every recovery layer
//! consults. It names the resource fault behind an error — transient,
//! timeout or permanent — or answers `None` when the call or its data is at
//! fault and the resource is healthy. Ranked creation, resource
//! benchmarking, the instance pool and the partitioned instance score
//! health only on a fault, a partitioned instance retries only a transient
//! fault and evicts a child only on a fault, and the pool evicts a worker
//! only on a timeout or permanent fault.

use std::fmt;

use crate::health::Outcome;

/// What went wrong on a hardware device (classification mirrors the failure
/// modes of real accelerator runtimes: launch errors, allocation errors, and
/// whole-device loss, plus silent data corruption detected after the fact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceErrorKind {
    /// A kernel launch (or enqueued command) failed.
    LaunchFailed,
    /// A device-memory allocation or host↔device copy failed.
    AllocationFailed,
    /// The device itself is gone (hung, reset, or removed from the bus).
    DeviceLost,
    /// Device results were detected to be corrupted (bad DMA, flaky VRAM).
    MemoryCorruption,
}

impl fmt::Display for DeviceErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DeviceErrorKind::LaunchFailed => "kernel launch failed",
            DeviceErrorKind::AllocationFailed => "device allocation failed",
            DeviceErrorKind::DeviceLost => "device lost",
            DeviceErrorKind::MemoryCorruption => "device memory corruption",
        })
    }
}

/// Errors returned by API calls and instance creation.
#[derive(Debug, Clone, PartialEq)]
pub enum BeagleError {
    /// An index was outside its buffer/table range.
    OutOfRange {
        /// Which kind of index was out of range (e.g. "partials buffer").
        what: &'static str,
        /// The offending index.
        index: usize,
        /// Number of valid entries.
        limit: usize,
    },
    /// A slice argument had the wrong length.
    DimensionMismatch {
        /// What was being set (e.g. "tip partials").
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Received length.
        got: usize,
    },
    /// Instance configuration itself is invalid (zero patterns, etc.).
    InvalidConfiguration(String),
    /// No registered implementation satisfies the requirement flags.
    NoImplementationFound,
    /// The selected implementation does not support the requested feature.
    /// Carries enough context (including the implementation name where
    /// known) to be actionable from a rescue/failover audit log.
    Unsupported(String),
    /// A floating-point failure surfaced (NaN likelihood without scaling, …).
    NumericalFailure(String),
    /// A hardware device misbehaved. `transient` distinguishes failures
    /// worth retrying in place (a dropped launch) from ones that require
    /// evicting the device (a lost device, persistent corruption).
    Device {
        /// Failure classification.
        kind: DeviceErrorKind,
        /// Whether retrying the same call on the same device may succeed.
        transient: bool,
        /// Name of the device that failed.
        device: String,
    },
    /// A finite resource (device memory, worker slots) ran out.
    ResourceExhausted {
        /// Which resource was exhausted.
        what: String,
    },
    /// A launch (or other device call) exceeded its deadline budget and was
    /// cancelled by the watchdog. Not retryable — re-issuing work to a
    /// wedged device only burns more of the remaining budget — but
    /// evictable: the failover layer treats it like a permanent fault.
    Timeout {
        /// What was cancelled (site and device).
        what: String,
    },
    /// A durable checkpoint failed validation on restore: missing or
    /// garbled header, unsupported version, truncation, or content-hash
    /// mismatch. The snapshot must not be replayed.
    CheckpointCorrupt(String),
    /// The filesystem failed while reading or writing a checkpoint.
    CheckpointIo(String),
    /// Creating one child of a multi-device instance failed; reports which
    /// device slot and flag selection was responsible.
    ChildCreationFailed {
        /// Index of the child in the device list passed to creation.
        child: usize,
        /// Human-readable description of the (preference, requirement) pair.
        device: String,
        /// The underlying failure.
        source: Box<BeagleError>,
    },
}

impl BeagleError {
    /// The resource fault behind this error, or `None` when the call or its
    /// data is at fault (argument, capability, numerical and checkpoint
    /// errors) and the resource that ran it is healthy.
    ///
    /// A [`Self::Timeout`] is a fault but never [`Outcome::Transient`]: the
    /// device is wedged, and retrying in place would spend the rest of the
    /// deadline budget on a launch that already failed to finish.
    pub fn fault(&self) -> Option<Outcome> {
        match self {
            BeagleError::Device {
                transient: true, ..
            }
            | BeagleError::ResourceExhausted { .. } => Some(Outcome::Transient),
            BeagleError::Device { .. } => Some(Outcome::Permanent),
            BeagleError::Timeout { .. } => Some(Outcome::Timeout),
            BeagleError::ChildCreationFailed { source, .. } => source.fault(),
            _ => None,
        }
    }

    /// Whether retrying the failed call, unchanged, has a chance of
    /// succeeding: the error is a transient fault ([`Self::fault`]).
    pub fn is_retryable(&self) -> bool {
        self.fault() == Some(Outcome::Transient)
    }
}

impl fmt::Display for BeagleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BeagleError::OutOfRange { what, index, limit } => {
                write!(f, "{what} index {index} out of range (limit {limit})")
            }
            BeagleError::DimensionMismatch {
                what,
                expected,
                got,
            } => {
                write!(f, "{what} has length {got}, expected {expected}")
            }
            BeagleError::InvalidConfiguration(msg) => write!(f, "invalid configuration: {msg}"),
            BeagleError::NoImplementationFound => {
                write!(f, "no implementation satisfies the resource requirements")
            }
            BeagleError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            BeagleError::NumericalFailure(msg) => write!(f, "numerical failure: {msg}"),
            BeagleError::Device {
                kind,
                transient,
                device,
            } => {
                let class = if *transient { "transient" } else { "permanent" };
                write!(f, "{class} device error on {device}: {kind}")
            }
            BeagleError::ResourceExhausted { what } => {
                write!(f, "resource exhausted: {what}")
            }
            BeagleError::Timeout { what } => {
                write!(f, "deadline exceeded: {what}")
            }
            BeagleError::CheckpointCorrupt(msg) => {
                write!(f, "corrupt checkpoint: {msg}")
            }
            BeagleError::CheckpointIo(msg) => {
                write!(f, "checkpoint i/o error: {msg}")
            }
            BeagleError::ChildCreationFailed {
                child,
                device,
                source,
            } => {
                write!(f, "creating child {child} ({device}) failed: {source}")
            }
        }
    }
}

impl std::error::Error for BeagleError {}

/// Convenience alias used across all BEAGLE-RS crates.
pub type Result<T> = std::result::Result<T, BeagleError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = BeagleError::OutOfRange {
            what: "partials buffer",
            index: 9,
            limit: 4,
        };
        assert!(e.to_string().contains("partials buffer index 9"));
        let e = BeagleError::DimensionMismatch {
            what: "weights",
            expected: 10,
            got: 3,
        };
        assert!(e.to_string().contains("length 3, expected 10"));
        let e = BeagleError::Device {
            kind: DeviceErrorKind::DeviceLost,
            transient: false,
            device: "Quadro P5000".into(),
        };
        assert!(e
            .to_string()
            .contains("permanent device error on Quadro P5000"));
        let e = BeagleError::ChildCreationFailed {
            child: 2,
            device: "prefs NONE / reqs FRAMEWORK_CUDA".into(),
            source: Box::new(BeagleError::NoImplementationFound),
        };
        assert!(e.to_string().contains("child 2"));
        assert!(e.to_string().contains("FRAMEWORK_CUDA"));
    }

    #[test]
    fn retryability_classification() {
        let transient = BeagleError::Device {
            kind: DeviceErrorKind::LaunchFailed,
            transient: true,
            device: "gpu".into(),
        };
        assert!(transient.is_retryable());
        let permanent = BeagleError::Device {
            kind: DeviceErrorKind::DeviceLost,
            transient: false,
            device: "gpu".into(),
        };
        assert!(!permanent.is_retryable());
        assert!(BeagleError::ResourceExhausted {
            what: "device memory".into()
        }
        .is_retryable());
        assert!(!BeagleError::NoImplementationFound.is_retryable());
        assert!(!BeagleError::NumericalFailure("NaN".into()).is_retryable());
        // A timeout means the device is wedged: never retried in place
        // (the failover layer evicts instead).
        assert!(!BeagleError::Timeout {
            what: "kernel launch on gpu".into()
        }
        .is_retryable());
        assert!(!BeagleError::CheckpointCorrupt("hash mismatch".into()).is_retryable());
        assert!(!BeagleError::CheckpointIo("read failed".into()).is_retryable());
    }

    #[test]
    fn fault_classification() {
        let device = |transient| BeagleError::Device {
            kind: DeviceErrorKind::LaunchFailed,
            transient,
            device: "gpu".into(),
        };
        assert_eq!(device(true).fault(), Some(Outcome::Transient));
        assert_eq!(device(false).fault(), Some(Outcome::Permanent));
        assert_eq!(
            BeagleError::ResourceExhausted {
                what: "vram".into()
            }
            .fault(),
            Some(Outcome::Transient)
        );
        assert_eq!(
            BeagleError::Timeout {
                what: "launch".into()
            }
            .fault(),
            Some(Outcome::Timeout)
        );
        let child = |source| BeagleError::ChildCreationFailed {
            child: 0,
            device: "gpu".into(),
            source: Box::new(source),
        };
        assert_eq!(child(device(false)).fault(), Some(Outcome::Permanent));
        assert_eq!(child(BeagleError::NoImplementationFound).fault(), None);
        for healthy in [
            BeagleError::OutOfRange {
                what: "tip",
                index: 9,
                limit: 4,
            },
            BeagleError::DimensionMismatch {
                what: "frequencies",
                expected: 4,
                got: 2,
            },
            BeagleError::InvalidConfiguration("zero patterns".into()),
            BeagleError::NoImplementationFound,
            BeagleError::Unsupported("codon on SSE".into()),
            BeagleError::NumericalFailure("NaN".into()),
            BeagleError::CheckpointCorrupt("hash".into()),
            BeagleError::CheckpointIo("read".into()),
        ] {
            assert_eq!(healthy.fault(), None, "{healthy}");
        }
    }

    #[test]
    fn timeout_and_checkpoint_display() {
        let e = BeagleError::Timeout {
            what: "kernel launch on Quadro".into(),
        };
        assert!(e.to_string().contains("deadline exceeded"));
        let e = BeagleError::CheckpointCorrupt("hash mismatch at line 40".into());
        assert!(e.to_string().contains("corrupt checkpoint"));
        let e = BeagleError::CheckpointIo("permission denied".into());
        assert!(e.to_string().contains("checkpoint i/o"));
    }
}
