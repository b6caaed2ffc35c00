//! Implementation factories ("plugins") for the CPU back-ends.
//!
//! One factory per implementation the paper benchmarks:
//! `CPU-serial`, `CPU-SSE`, `CPU-futures`, `CPU-threadcreate`,
//! `CPU-threadpool`. All share [`CpuInstance`]; the factory decides the
//! threading model, vectorization, thread count, and precision (from the
//! client's preference/requirement flags).

use std::sync::Arc;

use beagle_core::api::{BeagleInstance, InstanceConfig, InstanceDetails};
use beagle_core::error::Result;
use beagle_core::flags::Flags;
use beagle_core::manager::{ImplementationFactory, ImplementationManager};
use beagle_core::resource::ResourceDescription;

use crate::instance::{CpuInstance, Threading};
use crate::pool::ThreadPool;

/// Which threading model a factory builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadingModel {
    /// Original single-threaded implementation.
    Serial,
    /// One async task per independent tree operation.
    Futures,
    /// Threads created/joined per call.
    ThreadCreate,
    /// Persistent worker pool.
    ThreadPool,
}

/// Factory for CPU instances.
pub struct CpuFactory {
    model: ThreadingModel,
    vectorized: bool,
    threads: usize,
    /// Shared pool for `ThreadPool` instances (lazily created).
    pool: parking_lot::Mutex<Option<Arc<ThreadPool>>>,
}

impl CpuFactory {
    /// Build a factory with an explicit thread count (thread-create and
    /// thread-pool models; ignored by serial/futures).
    pub fn with_threads(model: ThreadingModel, vectorized: bool, threads: usize) -> Self {
        Self {
            model,
            vectorized,
            threads: threads.max(1),
            pool: parking_lot::Mutex::new(None),
        }
    }

    /// Build a factory using all available hardware threads.
    pub fn new(model: ThreadingModel, vectorized: bool) -> Self {
        Self::with_threads(model, vectorized, host_threads())
    }

    fn precision_is_single(prefs: Flags, reqs: Flags) -> bool {
        reqs.contains(Flags::PRECISION_SINGLE)
            || (prefs.contains(Flags::PRECISION_SINGLE) && !reqs.contains(Flags::PRECISION_DOUBLE))
    }

    fn threading_flag(&self) -> Flags {
        match self.model {
            ThreadingModel::Serial => Flags::THREADING_NONE,
            ThreadingModel::Futures => Flags::THREADING_FUTURES,
            ThreadingModel::ThreadCreate => Flags::THREADING_THREAD_CREATE,
            ThreadingModel::ThreadPool => Flags::THREADING_THREAD_POOL,
        }
    }

    fn make_threading(&self) -> Threading {
        match self.model {
            ThreadingModel::Serial => Threading::Serial,
            ThreadingModel::Futures => Threading::Futures,
            ThreadingModel::ThreadCreate => Threading::ThreadCreate {
                threads: self.threads,
            },
            ThreadingModel::ThreadPool => {
                let mut guard = self.pool.lock();
                let pool = guard
                    .get_or_insert_with(|| Arc::new(ThreadPool::new(self.threads)))
                    .clone();
                Threading::ThreadPool { pool }
            }
        }
    }
}

/// Number of hardware threads on this host.
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl ImplementationFactory for CpuFactory {
    fn name(&self) -> &str {
        match (self.model, self.vectorized) {
            (ThreadingModel::Serial, false) => "CPU-serial",
            (ThreadingModel::Serial, true) => "CPU-SSE",
            (ThreadingModel::Futures, false) => "CPU-futures",
            (ThreadingModel::Futures, true) => "CPU-futures-SSE",
            (ThreadingModel::ThreadCreate, false) => "CPU-threadcreate",
            (ThreadingModel::ThreadCreate, true) => "CPU-threadcreate-SSE",
            (ThreadingModel::ThreadPool, false) => "CPU-threadpool",
            (ThreadingModel::ThreadPool, true) => "CPU-threadpool-SSE",
        }
    }

    fn supported_flags(&self) -> Flags {
        let vec_flag = if self.vectorized {
            Flags::VECTOR_SSE
        } else {
            Flags::VECTOR_NONE
        };
        Flags::PROCESSOR_CPU
            | Flags::FRAMEWORK_CPU
            | Flags::PRECISION_SINGLE
            | Flags::PRECISION_DOUBLE
            | Flags::SCALING_MANUAL
            | vec_flag
            | self.threading_flag()
    }

    fn resource(&self) -> ResourceDescription {
        ResourceDescription::host_cpu(self.threads)
    }

    fn priority(&self) -> i32 {
        // Within CPU implementations: thread-pool is the best default
        // (Table III); SSE beats plain at equal threading.
        let base = match self.model {
            ThreadingModel::ThreadPool => 30,
            ThreadingModel::ThreadCreate => 20,
            ThreadingModel::Futures => 10,
            ThreadingModel::Serial => 0,
        };
        base + i32::from(self.vectorized)
    }

    fn supports_config(&self, config: &InstanceConfig) -> bool {
        // The vectorized kernels handle arbitrary state counts: nucleotide
        // models take the 4-state specializations, everything else the
        // cache-blocked wide-state tiles (see `crate::simd`).
        config.validate().is_ok()
    }

    fn create(
        &self,
        config: &InstanceConfig,
        prefs: Flags,
        reqs: Flags,
    ) -> Result<Box<dyn BeagleInstance>> {
        let single = Self::precision_is_single(prefs, reqs);
        // The typed scalar pin (InstanceSpec::force_scalar).
        let typed_scalar = (prefs | reqs).contains(Flags::KERNEL_SCALAR);
        let kind = crate::simd::select_kind_with(self.vectorized, typed_scalar);
        // Report only the precision actually in use.
        let mut flags = Flags(
            self.supported_flags().0 & !(Flags::PRECISION_SINGLE.0 | Flags::PRECISION_DOUBLE.0),
        );
        flags |= if single {
            Flags::PRECISION_SINGLE
        } else {
            Flags::PRECISION_DOUBLE
        };
        // Report the kernel path the instance will actually resolve to:
        // vectorized instances on an AVX2+FMA host (without a scalar
        // override) run the intrinsic kernels.
        if kind == crate::simd::DispatchKind::Avx2 {
            flags |= Flags::VECTOR_AVX2;
        }
        let details = InstanceDetails {
            implementation_name: self.name().to_string(),
            resource_name: self.resource().name,
            flags,
            thread_count: match self.model {
                ThreadingModel::Serial | ThreadingModel::Futures => 1,
                _ => self.threads,
            },
        };
        let stats = prefs.contains(Flags::INSTANCE_STATS);
        if single {
            let mut inst = CpuInstance::<f32>::with_dispatch_kind(
                *config,
                self.make_threading(),
                kind,
                details,
            )?;
            if stats {
                inst.enable_statistics();
            }
            Ok(Box::new(inst))
        } else {
            let mut inst = CpuInstance::<f64>::with_dispatch_kind(
                *config,
                self.make_threading(),
                kind,
                details,
            )?;
            if stats {
                inst.enable_statistics();
            }
            Ok(Box::new(inst))
        }
    }
}

/// Register the full CPU implementation family on a manager.
pub fn register_cpu_factories(manager: &mut ImplementationManager) {
    manager.register(Box::new(CpuFactory::new(ThreadingModel::Serial, false)));
    manager.register(Box::new(CpuFactory::new(ThreadingModel::Serial, true)));
    manager.register(Box::new(CpuFactory::new(ThreadingModel::Futures, false)));
    manager.register(Box::new(CpuFactory::new(
        ThreadingModel::ThreadCreate,
        false,
    )));
    manager.register(Box::new(CpuFactory::new(ThreadingModel::ThreadPool, false)));
    manager.register(Box::new(CpuFactory::new(ThreadingModel::ThreadPool, true)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use beagle_core::InstanceSpec;

    fn cfg() -> InstanceConfig {
        InstanceConfig::for_tree(4, 100, 4, 2)
    }

    #[test]
    fn manager_picks_threadpool_by_default() {
        let mut m = ImplementationManager::new();
        register_cpu_factories(&mut m);
        let inst = InstanceSpec::with_config(cfg()).instantiate(&m).unwrap();
        assert!(inst
            .details()
            .implementation_name
            .starts_with("CPU-threadpool"));
    }

    #[test]
    fn requirement_selects_serial() {
        let mut m = ImplementationManager::new();
        register_cpu_factories(&mut m);
        let inst = InstanceSpec::with_config(cfg())
            .require(Flags::THREADING_NONE)
            .instantiate(&m)
            .unwrap();
        assert!(inst.details().implementation_name.contains("CPU-"));
        assert!(inst.details().flags.contains(Flags::THREADING_NONE));
    }

    #[test]
    fn single_precision_honored() {
        let mut m = ImplementationManager::new();
        register_cpu_factories(&mut m);
        let inst = InstanceSpec::with_config(cfg())
            .prefer(Flags::PRECISION_SINGLE)
            .instantiate(&m)
            .unwrap();
        assert!(inst.details().flags.contains(Flags::PRECISION_SINGLE));
    }

    #[test]
    fn stats_preference_enables_statistics() {
        let mut m = ImplementationManager::new();
        register_cpu_factories(&mut m);
        let inst = InstanceSpec::with_config(cfg())
            .with_stats()
            .instantiate(&m)
            .unwrap();
        // Under the core crate's `obs-disabled` feature recording is
        // compiled out entirely; mirror whatever the build supports.
        let obs_compiled_in = beagle_core::Recorder::new(true).is_enabled();
        assert_eq!(
            inst.statistics().is_some(),
            obs_compiled_in,
            "INSTANCE_STATS preference must enable the recorder when obs is compiled in"
        );
        let plain = InstanceSpec::with_config(cfg()).instantiate(&m).unwrap();
        assert!(plain.statistics().is_none(), "stats are strictly opt-in");
    }

    #[test]
    fn vectorized_factory_accepts_codon() {
        let f = CpuFactory::new(ThreadingModel::Serial, true);
        let mut c = cfg();
        c.state_count = 61;
        assert!(f.supports_config(&c), "wide-state tiles cover codon models");
        let plain = CpuFactory::new(ThreadingModel::Serial, false);
        assert!(plain.supports_config(&c));
    }
}
