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
//! wrapping. `create_instance_by_name` survives as a thin wrapper over the
//! same path.
//!
//! Every setting is a typed builder method here; the library reads no
//! environment variables. Incremental memoization
//! ([`InstanceSpec::incremental`]) is on unless a spec turns it off, and
//! `BeagleInstance::set_incremental` switches its skipping at run time.

use crate::api::{BeagleInstance, InstanceConfig};
use crate::balance::BalancerConfig;
use crate::deadline::Deadline;
use crate::error::{BeagleError, Result};
use crate::flags::Flags;
use crate::manager::{ImplementationManager, ResourceBenchmark};
use crate::multi::{ChildSelection, PartitionedInstance};

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
            checkpoint: false,
            auto_partition: None,
            incremental: None,
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
    /// (shorthand for preferring [`Flags::KERNEL_SCALAR`]).
    pub fn force_scalar(self) -> Self {
        self.prefer(Flags::KERNEL_SCALAR)
    }

    /// Split the problem across up to `max_devices` resources, ranked and
    /// weighted by [`ImplementationManager::benchmark_resources`], with
    /// adaptive rebalancing enabled (see [`Self::instantiate_partitioned`]).
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
    /// describes: benchmark every registered factory, take the fastest
    /// [`Self::auto_partitioned`] (default 2) measured entries, and build one
    /// [`PartitionedInstance`] with a child pinned to each winner and
    /// pattern ranges seeded proportional to measured throughput. Adaptive
    /// rebalancing ([`crate::balance`]) is enabled, so the seed split keeps
    /// tracking the throughput each resource actually delivers at full
    /// problem size.
    ///
    /// Needs the `Arc`: the partitioned instance retains the manager to
    /// rebuild children on eviction and rebalance.
    pub fn instantiate_partitioned(
        &self,
        manager: &std::sync::Arc<ImplementationManager>,
    ) -> Result<PartitionedInstance> {
        let max_devices = self
            .auto_partition
            .unwrap_or(2)
            .max(1)
            .min(self.config.pattern_count);
        let measured: Vec<ResourceBenchmark> = manager
            .benchmark_resources(&self.config, self.requirements)
            .into_iter()
            .filter(|e| e.error.is_none())
            .take(max_devices)
            .collect();
        if measured.is_empty() {
            return Err(BeagleError::NoImplementationFound);
        }
        let selections: Vec<ChildSelection> = measured
            .iter()
            .map(|e| ChildSelection::named(&e.implementation, self.preferences, self.requirements))
            .collect();
        // Throughput-proportional seed weights; a zero measurement (degenerate
        // clock resolution) falls back to an equal share rather than erroring.
        let weights: Vec<f64> = measured
            .iter()
            .map(|e| {
                if e.throughput_gflops > 0.0 {
                    e.throughput_gflops
                } else {
                    1.0
                }
            })
            .collect();
        let mut inst = PartitionedInstance::create(manager, self, &selections, &weights)?;
        inst.enable_balancing(BalancerConfig::default());
        Ok(inst)
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
            .checkpointed();
        assert_eq!(spec.deadline.unwrap().budget(), Duration::from_millis(50));
        assert!(spec.checkpoint);

        let plain = InstanceSpec::for_tree(4, 100, 4, 1);
        assert!(plain.deadline.is_none() && !plain.checkpoint);
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
