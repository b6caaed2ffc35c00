//! # beagle-core
//!
//! The core of BEAGLE-RS: a uniform application programming interface for
//! high-performance calculation of phylogenetic likelihoods, plus the
//! implementation-management layer that routes API calls to whichever
//! back-end (serial CPU, vectorized CPU, threaded CPU, simulated
//! CUDA / OpenCL accelerator) best matches the client's requirements.
//!
//! Mirrors the architecture of the BEAGLE library (Ayres et al. 2012; Ayres &
//! Cummings, ICPP 2017): the API deliberately has **no tree data structure**
//! — clients drive flexibly indexed partials/matrix/scale buffers with flat
//! operation lists, which keeps data transfer minimal and lets each back-end
//! parallelize as it sees fit.
//!
//! * [`api`] — the [`api::BeagleInstance`] trait and instance configuration
//! * [`balance`] — adaptive load balancing: EWMA throughput + repartitioning
//! * [`ops`] — partial-likelihood operation descriptors + the level planner
//! * [`memo`] — epoch-based incremental computation (operation memoization
//!   and the derived-matrix store)
//! * [`flags`] — capability/preference/requirement bitmask
//! * [`buffers`] — the shared buffer arena CPU back-ends build on
//! * [`manager`] — plugin registry and implementation selection
//! * [`resource`] — hardware resource descriptions
//! * [`real`] — the `f32`/`f64` precision abstraction

// Likelihood kernels and small numeric routines are written with explicit
// index loops on purpose: the loop structure mirrors the work-item/work-group
// decomposition the paper describes, and that clarity outweighs iterator style.
#![allow(clippy::needless_range_loop)]

pub mod api;
pub mod balance;
pub mod buffers;
pub mod checkpoint;
pub mod deadline;
pub mod error;
pub mod flags;
pub mod health;
pub mod journal;
pub mod manager;
pub mod memo;
pub mod multi;
pub mod obs;
pub mod ops;
pub mod pool;
pub mod real;
pub mod resource;
pub mod spec;
pub mod wire;

pub use api::{BeagleInstance, BufferId, InstanceConfig, InstanceDetails, QueueStats, ScalingMode};
pub use balance::{BalancerConfig, LoadBalancer, PATTERN_STRIDE};
pub use checkpoint::Checkpoint;
pub use deadline::Deadline;
pub use error::{BeagleError, DeviceErrorKind, Result};
pub use flags::Flags;
pub use health::{BreakerConfig, BreakerState, HealthRegistry, Outcome, ResourceId};
pub use journal::{JournaledInstance, StateJournal};
pub use manager::{ImplementationFactory, ImplementationManager, ResourceBenchmark};
pub use memo::{MemoInstance, MemoStats};
pub use multi::{ChildSelection, PartitionedInstance, RetryPolicy};
pub use obs::{Event, EventKind, InstanceStats, KernelClass, KernelCounter, Recorder};
pub use ops::Operation;
pub use pool::{
    InstancePool, Lane, LatencyHistogram, ManagerSupervisor, NullSupervisor, Pool, PoolBuilder,
    PoolError, PoolHandle, PoolStats, SessionOutcome, SessionRequest, Ticket, WorkerSupervisor,
    WorkerUtilization,
};
pub use real::Real;
pub use resource::ResourceDescription;
pub use spec::InstanceSpec;
pub use wire::{BusyReason, Frame, FrameType, WireError};

/// Sentinel state value meaning "missing data / gap" in compact tip storage.
/// Kernels treat it as partial likelihood 1 for every state.
pub const GAP_STATE: u32 = u32::MAX;
