//! # BEAGLE-RS
//!
//! A from-scratch Rust reproduction of the BEAGLE high-performance library
//! for statistical phylogenetics, as extended with heterogeneous hardware
//! support in Ayres & Cummings, *ICPP Workshops 2017*
//! (DOI 10.1109/ICPPW.2017.17).
//!
//! The library accelerates the computational bottleneck of maximum-
//! likelihood and Bayesian phylogenetic inference — Felsenstein's
//! partial-likelihoods recursion — behind a uniform API with many
//! interchangeable back-ends:
//!
//! * **CPU**: serial, vectorized ("SSE"), and three generations of
//!   C++-threads-style models (futures / thread-create / thread-pool);
//! * **Accelerators**: one shared kernel code base instantiated for both a
//!   (simulated) CUDA framework and a (simulated) OpenCL framework, with
//!   hardware-specific GPU and x86 kernel variants.
//!
//! ```
//! use beagle::prelude::*;
//!
//! // A tiny nucleotide problem: simulate data on a random tree...
//! let mut rng = rand_seeded(42);
//! let tree = Tree::random(6, 0.1, &mut rng);
//! let model = beagle::phylo::models::nucleotide::hky85(2.0, &[0.3, 0.2, 0.25, 0.25]);
//! let rates = SiteRates::discrete_gamma(0.5, 4);
//! let alignment = beagle::phylo::simulate::simulate_alignment(&tree, &model, &rates, 100, &mut rng);
//! let patterns = SitePatterns::compress(&alignment);
//!
//! // ...and evaluate its likelihood on the best available implementation.
//! // `InstanceSpec` is the front door for instance creation: a builder
//! // over (config, preferences, requirements, named implementation).
//! let manager = beagle::full_manager();
//! let config = InstanceConfig::for_tree(6, patterns.pattern_count(), 4, 4);
//! let mut instance = InstanceSpec::with_config(config)
//!     .prefer(Flags::PROCESSOR_CPU)
//!     .with_stats() // opt into kernel timers/counters + the event journal
//!     .instantiate(&manager)
//!     .unwrap();
//! let problem = beagle::harness::Problem { tree, model, rates, patterns };
//! problem.load(instance.as_mut());
//! let lnl = problem.evaluate(instance.as_mut(), false);
//! assert!(lnl.is_finite() && lnl < 0.0);
//! // Per-kernel-class statistics were recorded along the way.
//! if let Some(stats) = instance.statistics() {
//!     assert!(stats.total_calls() > 0);
//! }
//! ```
//!
//! Crate map (see `DESIGN.md` at the repository root):
//! * [`core`] — the BEAGLE API, buffers, flags, implementation manager
//! * [`cpu`] — CPU implementations and the thread pool
//! * [`accel`] — the CUDA/OpenCL accelerator model and device simulator
//! * [`phylo`] — trees, models, alignments, pattern compression, the oracle
//! * [`harness`] — `genomictest`-style problem generation and benchmarking
//! * [`mcmc`] — the MrBayes-lite MC³ application
//! * [`server`] — likelihood-as-a-service: the WIRE-v2 socket server
//!   (`beagle-serve`) and blocking client
//! * [`optimize`] — Newton–Raphson ML branch-length optimization on the
//!   derivative API (the GARLI/PhyML client pattern)

pub mod optimize;

pub use beagle_accel as accel;
pub use beagle_core as core;
pub use beagle_cpu as cpu;
pub use beagle_mcmc as mcmc;
pub use beagle_phylo as phylo;
pub use beagle_server as server;
pub use genomictest as harness;

pub use genomictest::{full_manager, full_manager_with_faults};

/// The convenient single import for applications.
pub mod prelude {
    pub use beagle_core::{
        BeagleInstance, BufferId, Flags, ImplementationManager, InstanceConfig, InstanceSpec,
        InstanceStats, Operation, ScalingMode,
    };
    pub use beagle_phylo::{Alignment, Alphabet, ReversibleModel, SitePatterns, SiteRates, Tree};

    /// A small-state seeded RNG for reproducible examples.
    pub fn rand_seeded(seed: u64) -> rand::rngs::SmallRng {
        use rand::SeedableRng;
        rand::rngs::SmallRng::seed_from_u64(seed)
    }
}
