//! [`InstanceSpec`]: the builder-style front door for instance creation.
//!
//! Every in-tree client creates instances through a spec:
//!
//! ```
//! use beagle_core::{Flags, InstanceSpec, ImplementationManager};
//! # let manager = ImplementationManager::new();
//! let result = InstanceSpec::for_tree(16, 1000, 4, 4)
//!     .prefer(Flags::PROCESSOR_GPU)
//!     .require(Flags::PRECISION_DOUBLE)
//!     .with_stats()
//!     .instantiate(&manager);
//! # assert!(result.is_err()); // no factories registered in this doctest
//! ```
//!
//! The spec funnels into [`ImplementationManager::create_from_spec`], the
//! single place where the wrapper stack (memo, journaling layer) is
//! assembled — so named creation and ranked creation get byte-identical
//! wrapping. The older `create_instance` / `create_instance_by_name` entry
//! points survive as thin wrappers over the same path.
//!
//! # Knob precedence
//!
//! Every runtime knob has a typed builder method here, and most also have an
//! environment variable so deployments can retune a compiled binary. The
//! rule is uniform — **environment variable > typed builder value >
//! built-in default** — and this table is the one place it is documented:
//!
//! | knob | typed form | environment override |
//! |---|---|---|
//! | scalar kernel pin | [`InstanceSpec::force_scalar`] ([`Flags::KERNEL_SCALAR`]) | `BEAGLE_FORCE_SCALAR` (`0` releases, anything else pins) |
//! | load-balancer tuning | [`InstanceSpec::with_balancer`] | `BEAGLE_REBALANCE_{ALPHA,SKEW,MIN_BATCHES,STRIDE,DISABLE}` (per-field) |
//!
//! An environment override applies only while the variable is *set*; an
//! unset variable always defers to the typed value. Unparseable or
//! out-of-range environment values fall back to the typed/default value
//! rather than erroring (tuning must never panic a long run).
//!
//! Incremental memoization ([`InstanceSpec::incremental`]) has no
//! environment variable: the memo layer is the only incremental mechanism,
//! and an instance leaves it out only through its own spec
//! (`BeagleInstance::set_incremental` switches its skipping at run time).

use crate::api::{BeagleInstance, InstanceConfig};
use crate::balance::BalancerConfig;
use crate::deadline::Deadline;
use crate::error::Result;
use crate::flags::Flags;
use crate::manager::ImplementationManager;
use crate::multi::RetryPolicy;

/// A declarative description of the instance a client wants: problem
/// sizing, capability preferences/requirements, optionally a specific
/// implementation by name, and which wrapper layers to apply.
#[derive(Clone, Debug)]
pub struct InstanceSpec {
    /// Problem sizing (buffer counts, states, patterns, categories).
    pub config: InstanceConfig,
    /// Soft preferences: used to rank eligible implementations.
    pub preferences: Flags,
    /// Hard requirements: implementations missing any of these are skipped.
    pub requirements: Flags,
    /// Pin creation to this exact implementation name instead of ranking.
    pub implementation: Option<String>,
    /// Rescue numerically failed unscaled integrations in the journaling
    /// layer ([`crate::journal::JournaledInstance`]) (default: true).
    pub rescue: bool,
    /// Per-launch watchdog budget; `None` leaves back-ends on the driver
    /// default ([`Deadline::DRIVER_DEFAULT`]).
    pub deadline: Option<Deadline>,
    /// Transient-fault retry policy for failover layers created from this
    /// spec; `None` uses [`RetryPolicy::default`].
    pub retry: Option<RetryPolicy>,
    /// Let [`BeagleInstance::checkpoint`] snapshot the instance through its
    /// journaling layer ([`crate::journal::JournaledInstance`]) (default:
    /// false).
    pub checkpoint: bool,
    /// Split the problem across up to this many benchmark-ranked resources
    /// as an adaptively balanced [`crate::multi::PartitionedInstance`]
    /// (see [`Self::instantiate_partitioned`]); `None` creates a single
    /// instance.
    pub auto_partition: Option<usize>,
    /// Install the epoch-based incremental memoization layer
    /// ([`crate::memo::MemoInstance`])? `None` (the default) and
    /// `Some(true)` install it; `Some(false)` never installs it. It is the
    /// only incremental mechanism, so an instance without it recomputes
    /// every call.
    pub incremental: Option<bool>,
    /// Typed base configuration for the adaptive load balancer used by
    /// partitioned instances created from this spec; `None` uses
    /// [`BalancerConfig::default`]. `BEAGLE_REBALANCE_*` environment
    /// variables are applied on top either way (see the module docs).
    pub balancer: Option<BalancerConfig>,
}

impl InstanceSpec {
    /// Spec from an explicit [`InstanceConfig`].
    pub fn with_config(config: InstanceConfig) -> Self {
        Self {
            config,
            preferences: Flags::NONE,
            requirements: Flags::NONE,
            implementation: None,
            rescue: true,
            deadline: None,
            retry: None,
            checkpoint: false,
            auto_partition: None,
            incremental: None,
            balancer: None,
        }
    }

    /// Spec sized for a standard tree-shaped client:
    /// [`InstanceConfig::for_tree`] with one buffer per node.
    pub fn for_tree(tips: usize, patterns: usize, states: usize, categories: usize) -> Self {
        Self::with_config(InstanceConfig::for_tree(tips, patterns, states, categories))
    }

    /// Add soft preference flags (OR'd with any already set).
    pub fn prefer(mut self, flags: Flags) -> Self {
        self.preferences |= flags;
        self
    }

    /// Add hard requirement flags (OR'd with any already set).
    pub fn require(mut self, flags: Flags) -> Self {
        self.requirements |= flags;
        self
    }

    /// Pin creation to the implementation with this exact name.
    pub fn named(mut self, implementation: impl Into<String>) -> Self {
        self.implementation = Some(implementation.into());
        self
    }

    /// Enable per-kernel statistics and the event journal for this
    /// instance (shorthand for preferring [`Flags::INSTANCE_STATS`]).
    pub fn with_stats(self) -> Self {
        self.prefer(Flags::INSTANCE_STATS)
    }

    /// Prefer [`Flags::COMPUTATION_ASYNCH`], which the manager accepts and
    /// runs eager. It stays only because the stack benchmark calls it, and
    /// goes with that benchmark's next change (ROADMAP item 3).
    pub fn queued(self) -> Self {
        self.prefer(Flags::COMPUTATION_ASYNCH)
    }

    /// Skip automatic numerical rescue (and, unless checkpointed, the
    /// journaling layer that does it). Escape hatch for
    /// harnesses that need raw back-end semantics (e.g. tests asserting
    /// that an unscaled underflow surfaces as a `NumericalFailure`).
    pub fn without_rescue(mut self) -> Self {
        self.rescue = false;
        self
    }

    /// Give every launch this watchdog budget: a launch that stalls past it
    /// is cancelled and reported as [`crate::BeagleError::Timeout`].
    pub fn with_deadline(mut self, budget: std::time::Duration) -> Self {
        self.deadline = Some(Deadline::new(budget));
        self
    }

    /// Use this transient-fault retry policy (max retries, initial backoff,
    /// jitter) in failover layers created from the spec, instead of
    /// [`RetryPolicy::default`].
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Make the instance's journaling layer answer
    /// [`BeagleInstance::checkpoint`] with durable snapshots.
    pub fn checkpointed(mut self) -> Self {
        self.checkpoint = true;
        self
    }

    /// Explicitly enable or disable the incremental memoization layer for
    /// this instance (on by default). Partitioned instances
    /// propagate the choice to every child, including children rebuilt
    /// after an eviction or rebalance.
    pub fn incremental(mut self, enabled: bool) -> Self {
        self.incremental = Some(enabled);
        self
    }

    /// Pin instances created from this spec to the scalar kernel path
    /// (shorthand for preferring [`Flags::KERNEL_SCALAR`]). The typed form
    /// of `BEAGLE_FORCE_SCALAR`, which still overrides when set — see the
    /// module docs for the precedence table.
    pub fn force_scalar(self) -> Self {
        self.prefer(Flags::KERNEL_SCALAR)
    }

    /// Use this balancer configuration as the typed base for partitioned
    /// instances created from the spec. `BEAGLE_REBALANCE_*` environment
    /// variables are still applied on top
    /// ([`BalancerConfig::overridden_by_env`]).
    pub fn with_balancer(mut self, config: BalancerConfig) -> Self {
        self.balancer = Some(config);
        self
    }

    /// Split the problem across up to `max_devices` resources, ranked and
    /// weighted by [`ImplementationManager::benchmark_resources`], with
    /// adaptive rebalancing enabled (see
    /// [`ImplementationManager::create_instance_auto_partitioned`]).
    pub fn auto_partitioned(mut self, max_devices: usize) -> Self {
        self.auto_partition = Some(max_devices);
        self
    }

    /// Create the instance on `manager` (see
    /// [`ImplementationManager::create_from_spec`]).
    pub fn instantiate(&self, manager: &ImplementationManager) -> Result<Box<dyn BeagleInstance>> {
        manager.create_from_spec(self)
    }

    /// Create the auto-partitioned multi-resource instance this spec
    /// describes (uses [`Self::auto_partitioned`]'s device count, default
    /// 2). Needs the `Arc` so the partitioned instance can retain the
    /// manager for failover rebuilds and rebalance migrations.
    pub fn instantiate_partitioned(
        &self,
        manager: &std::sync::Arc<ImplementationManager>,
    ) -> Result<crate::multi::PartitionedInstance> {
        manager.create_instance_auto_partitioned(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_flags() {
        let spec = InstanceSpec::for_tree(4, 100, 4, 1)
            .prefer(Flags::PROCESSOR_GPU)
            .prefer(Flags::PRECISION_SINGLE)
            .require(Flags::FRAMEWORK_OPENCL)
            .with_stats()
            .queued();
        assert!(spec
            .preferences
            .contains(Flags::PROCESSOR_GPU | Flags::PRECISION_SINGLE));
        assert!(spec.preferences.contains(Flags::INSTANCE_STATS));
        assert!(spec.preferences.contains(Flags::COMPUTATION_ASYNCH));
        assert_eq!(spec.requirements, Flags::FRAMEWORK_OPENCL);
        assert!(spec.rescue);
        assert!(spec.implementation.is_none());
    }

    #[test]
    fn named_and_without_rescue() {
        let spec = InstanceSpec::for_tree(4, 100, 4, 1)
            .named("CPU-serial")
            .without_rescue();
        assert_eq!(spec.implementation.as_deref(), Some("CPU-serial"));
        assert!(!spec.rescue);
    }

    #[test]
    fn robustness_knobs() {
        use std::time::Duration;
        let spec = InstanceSpec::for_tree(4, 100, 4, 1)
            .with_deadline(Duration::from_millis(50))
            .with_retry_policy(RetryPolicy {
                max_retries: 5,
                base_delay: Duration::from_micros(100),
                jitter: false,
            })
            .checkpointed();
        assert_eq!(spec.deadline.unwrap().budget(), Duration::from_millis(50));
        assert_eq!(spec.retry.unwrap().max_retries, 5);
        assert!(spec.checkpoint);

        let plain = InstanceSpec::for_tree(4, 100, 4, 1);
        assert!(plain.deadline.is_none() && plain.retry.is_none() && !plain.checkpoint);
    }

    #[test]
    fn incremental_knob() {
        assert!(InstanceSpec::for_tree(4, 100, 4, 1).incremental.is_none());
        let on = InstanceSpec::for_tree(4, 100, 4, 1).incremental(true);
        assert_eq!(on.incremental, Some(true));
        let off = InstanceSpec::for_tree(4, 100, 4, 1).incremental(false);
        assert_eq!(off.incremental, Some(false));
    }
}
