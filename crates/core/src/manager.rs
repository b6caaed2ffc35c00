//! Implementation management: the plugin registry and resource selection.
//!
//! BEAGLE's implementation-management layer "loads the available
//! implementations, makes them available to the client program, and passes
//! API commands to the selected implementation". In BEAGLE-RS the same role
//! is played by [`ImplementationManager`]: back-end crates register
//! [`ImplementationFactory`] plugins; [`InstanceSpec::instantiate`] filters
//! them by the client's *requirement* flags and ranks the survivors by how many
//! *preference* flags they satisfy (ties broken by registration priority,
//! mirroring BEAGLE's resource ordering).

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{BeagleInstance, BufferId, InstanceConfig, ScalingMode};
use crate::error::{BeagleError, Result};
use crate::flags::Flags;
use crate::health::{BreakerConfig, HealthRegistry, Outcome};
use crate::journal::{JournaledInstance, StateJournal};
use crate::memo;
use crate::ops::Operation;
use crate::resource::ResourceDescription;
use crate::spec::InstanceSpec;

/// The flag bits that are manager-level features, not back-end
/// capabilities: stripped before factory filtering and scoring (see
/// [`ImplementationManager::create_from_spec`]).
const MANAGER_BITS: Flags = Flags(
    Flags::COMPUTATION_SYNCH.0
        | Flags::COMPUTATION_ASYNCH.0
        | Flags::INSTANCE_STATS.0
        | Flags::KERNEL_SCALAR.0,
);

/// A plugin that can construct instances on one resource.
pub trait ImplementationFactory: Send + Sync {
    /// Implementation name (e.g. `"CPU-threadpool"`, `"OpenCL-GPU"`).
    fn name(&self) -> &str;

    /// Capability flags instances from this factory can honour.
    fn supported_flags(&self) -> Flags;

    /// The hardware resource this factory runs on.
    fn resource(&self) -> ResourceDescription;

    /// Priority among factories with equal preference scores; higher wins.
    /// (BEAGLE orders GPUs before CPUs by default.)
    fn priority(&self) -> i32 {
        0
    }

    /// Whether a given configuration is supported (e.g. a nucleotide-only
    /// vectorized kernel refuses 61 states).
    fn supports_config(&self, config: &InstanceConfig) -> bool {
        config.validate().is_ok()
    }

    /// Build an instance.
    fn create(
        &self,
        config: &InstanceConfig,
        preference_flags: Flags,
        requirement_flags: Flags,
    ) -> Result<Box<dyn BeagleInstance>>;
}

/// The registry of available implementations.
#[derive(Default)]
pub struct ImplementationManager {
    factories: Vec<Box<dyn ImplementationFactory>>,
    /// Per-resource health scores and circuit breakers, fed by creation
    /// outcomes here and by runtime outcomes from
    /// [`crate::multi::PartitionedInstance`]. Behind an `Arc` so failover
    /// wrappers holding the manager share one registry.
    health: Arc<HealthRegistry>,
}

impl ImplementationManager {
    /// An empty manager; back-end crates add their factories via
    /// [`Self::register`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-resource health registry (see [`crate::health`]). Ranked
    /// creation skips implementations whose breaker is open, and
    /// [`Self::benchmark_resources`] doubles as the half-open re-probe.
    pub fn health(&self) -> &HealthRegistry {
        &self.health
    }

    /// Replace the breaker tuning (threshold, window, cooldown) for every
    /// resource tracked by this manager.
    pub fn set_breaker_config(&self, config: BreakerConfig) {
        self.health.set_config(config);
    }

    /// Register a factory (a "plugin" in BEAGLE's terms).
    pub fn register(&mut self, factory: Box<dyn ImplementationFactory>) {
        self.factories.push(factory);
    }

    /// Number of registered factories.
    pub fn factory_count(&self) -> usize {
        self.factories.len()
    }

    /// The resource list, one entry per registered factory.
    pub fn resource_list(&self) -> Vec<ResourceDescription> {
        self.factories.iter().map(|f| f.resource()).collect()
    }

    /// Names of all registered implementations.
    pub fn implementation_names(&self) -> Vec<String> {
        self.factories
            .iter()
            .map(|f| f.name().to_string())
            .collect()
    }

    /// Create an instance from an [`InstanceSpec`] — the single creation
    /// path every public entry point funnels into, so the wrapper stack is
    /// assembled in exactly one place.
    ///
    /// Selection (when no implementation name is pinned): a factory is
    /// *eligible* if its supported flags contain every requirement bit and
    /// it supports the configuration. Among eligible factories, the one
    /// satisfying the most preference bits wins; ties go to the higher
    /// `priority()`. If the winner fails to *create* (device allocation
    /// failure, dead accelerator), the next-ranked eligible factory is
    /// tried, walking the chain accelerator → thread-pool → vectorized →
    /// serial until one succeeds — so a flaky GPU degrades to a working CPU
    /// instance rather than an error. The last creation error surfaces only
    /// when every eligible factory fails.
    ///
    /// Four flag bits are manager-level features, not back-end
    /// capabilities, and are stripped before factory filtering and scoring:
    ///
    /// * [`Flags::COMPUTATION_SYNCH`] and [`Flags::COMPUTATION_ASYNCH`] are
    ///   accepted and change nothing: every instance runs eager;
    /// * [`Flags::INSTANCE_STATS`] is forwarded to the factory as a
    ///   preference so the back-end enables its kernel recorder (see
    ///   [`crate::obs`]); it never affects ranking;
    /// * [`Flags::KERNEL_SCALAR`] is likewise forwarded so the back-end
    ///   pins its scalar kernel table (`InstanceSpec::force_scalar`).
    ///
    /// When `spec.rescue` (the default) or `spec.checkpoint` is set, the
    /// result is wrapped in a [`JournaledInstance`], outermost, so snapshots
    /// see exactly the client's calls.
    /// Named and ranked creation therefore get byte-identical wrapping.
    /// Unless `spec.incremental == Some(false)`, the raw back-end is first
    /// wrapped in the [`crate::memo::MemoInstance`] incremental layer,
    /// innermost so every other wrapper's traffic flows through it. It is
    /// the only incremental mechanism: clients send full refreshes and memo
    /// skips what the back-end already holds.
    pub fn create_from_spec(&self, spec: &InstanceSpec) -> Result<Box<dyn BeagleInstance>> {
        let inst = self.create_unjournaled(spec)?;
        let mut inst: Box<dyn BeagleInstance> = if spec.rescue || spec.checkpoint {
            Box::new(JournaledInstance::with_journal(
                inst,
                spec,
                StateJournal::new(),
            ))
        } else {
            inst
        };
        if spec.deadline.is_some() {
            inst.set_deadline(spec.deadline);
        }
        Ok(inst)
    }

    /// The stack [`Self::create_from_spec`] builds below the journaling
    /// layer: the selected back-end with its memo layer.
    /// Checkpoint restore replays a snapshot's journal into it before
    /// wrapping it with that journal.
    pub(crate) fn create_unjournaled(
        &self,
        spec: &InstanceSpec,
    ) -> Result<Box<dyn BeagleInstance>> {
        spec.config.validate()?;
        let combined = spec.preferences | spec.requirements;
        let stats = combined.contains(Flags::INSTANCE_STATS);
        let preference_flags = spec.preferences.without(MANAGER_BITS);
        let requirement_flags = spec.requirements.without(MANAGER_BITS);
        // Factories see the stats and scalar-pin bits in their preferences
        // (how they know to switch their recorder on / pin the scalar
        // kernel table), but ranking ignores them: no factory advertises
        // either as a capability.
        let mut factory_prefs = preference_flags;
        if stats {
            factory_prefs |= Flags::INSTANCE_STATS;
        }
        if combined.contains(Flags::KERNEL_SCALAR) {
            factory_prefs |= Flags::KERNEL_SCALAR;
        }

        let raw = match &spec.implementation {
            Some(name) => {
                let factory = self
                    .factories
                    .iter()
                    .find(|f| f.name() == name)
                    .ok_or(BeagleError::NoImplementationFound)?;
                if !factory.supports_config(&spec.config) {
                    return Err(BeagleError::Unsupported(format!(
                        "configuration for implementation {name}"
                    )));
                }
                factory.create(&spec.config, factory_prefs, requirement_flags)?
            }
            None => {
                let mut eligible: Vec<(&dyn ImplementationFactory, u32)> = self
                    .factories
                    .iter()
                    .filter(|f| f.supported_flags().contains(requirement_flags))
                    .filter(|f| f.supports_config(&spec.config))
                    .map(|f| {
                        let score = (f.supported_flags() & preference_flags).bit_count();
                        (f.as_ref(), score)
                    })
                    .collect();
                // Best first: preference score, then registration priority.
                // The sort is stable, so equal (score, priority) keeps
                // registration order.
                eligible
                    .sort_by(|(fa, sa), (fb, sb)| (sb, fb.priority()).cmp(&(sa, fa.priority())));
                // Circuit breakers: skip quarantined implementations — but
                // fail open. If every eligible factory is quarantined,
                // health is ignored entirely; a degraded instance beats no
                // instance.
                let any_healthy = eligible
                    .iter()
                    .any(|(f, _)| self.health.available(f.name()));
                let mut created = None;
                let mut last_err = BeagleError::NoImplementationFound;
                for (factory, _) in eligible {
                    if any_healthy && !self.health.available(factory.name()) {
                        continue;
                    }
                    match factory.create(&spec.config, factory_prefs, requirement_flags) {
                        Ok(inst) => {
                            self.health.record(factory.name(), Outcome::Success);
                            created = Some(inst);
                            break;
                        }
                        Err(e) => {
                            self.note_fault(factory.name(), &e);
                            last_err = e;
                        }
                    }
                }
                match created {
                    Some(inst) => inst,
                    None => return Err(last_err),
                }
            }
        };

        // The memoization layer sits directly above the raw back-end —
        // below the journaling wrapper — so rescue re-runs and journal
        // replays pass through it with their real call shapes. When disabled
        // it is not installed at all, so `InstanceSpec::incremental(false)`
        // reproduces baseline timings exactly, not just baseline bits.
        Ok(if spec.incremental.unwrap_or(true) {
            Box::new(memo::MemoInstance::new(raw))
        } else {
            raw
        })
    }

    /// Create an instance of the implementation with exactly this name
    /// (names are unique per registry). Used by the benchmark harness to pin
    /// a specific implementation regardless of flag-based ranking.
    ///
    /// Thin wrapper over [`Self::create_from_spec`]: named creation gets
    /// the *same* wrapper stack as ranked creation, including the
    /// journaling layer that does numerical rescue. (Historically this path skipped rescue;
    /// harnesses that need raw back-end semantics should build an
    /// [`InstanceSpec`] with `without_rescue()`.)
    pub fn create_instance_by_name(
        &self,
        name: &str,
        config: &InstanceConfig,
        preference_flags: Flags,
    ) -> Result<Box<dyn BeagleInstance>> {
        self.create_from_spec(
            &InstanceSpec::with_config(*config)
                .prefer(preference_flags)
                .named(name),
        )
    }

    /// Measure every registered factory on a short calibrated
    /// partials+root workload and return the results ranked fastest-first
    /// (mirrors BEAGLE's `benchmarkResourceList`).
    ///
    /// Every registered factory appears in the output: factories that are
    /// ineligible (requirements, configuration) or whose creation/workload
    /// fails carry an `error` and sort after all measured entries. Ranking
    /// uses modeled device time when the back-end simulates one (so
    /// simulated-GPU entries are bit-identical run to run) and wall time
    /// otherwise. The workload is sized down from `config` (≤ 8 tips,
    /// ≤ 256 patterns, same states/categories) with a fixed repetition
    /// count, deterministic tip states, and closed-form Jukes–Cantor
    /// transition matrices — no eigen machinery, so every back-end can run
    /// it.
    pub fn benchmark_resources(
        &self,
        config: &InstanceConfig,
        requirement_flags: Flags,
    ) -> Vec<ResourceBenchmark> {
        let requirement_flags = requirement_flags.without(MANAGER_BITS);
        let bench_config = benchmark_config(config);
        let mut results: Vec<ResourceBenchmark> = self
            .factories
            .iter()
            .map(|factory| {
                let mut entry = ResourceBenchmark {
                    implementation: factory.name().to_string(),
                    resource: factory.resource().name,
                    flags: factory.supported_flags(),
                    wall: Duration::ZERO,
                    modeled: None,
                    throughput_gflops: 0.0,
                    error: None,
                };
                if !factory.supported_flags().contains(requirement_flags) {
                    entry.error = Some("does not satisfy requirement flags".to_string());
                    return entry;
                }
                if !factory.supports_config(config) || !factory.supports_config(&bench_config) {
                    entry.error = Some("does not support this configuration".to_string());
                    return entry;
                }
                // Quarantined resources are not measured. Once the breaker's
                // cooldown expires (half-open), `available` readmits the
                // factory here and the workload below *is* the re-probe:
                // its outcome closes or re-opens the breaker.
                if !self.health.available(factory.name()) {
                    entry.error =
                        Some("quarantined by circuit breaker (cooldown pending)".to_string());
                    return entry;
                }
                match factory.create(&bench_config, Flags::NONE, requirement_flags) {
                    Ok(mut inst) => match run_benchmark_workload(inst.as_mut(), &bench_config) {
                        Ok((wall, modeled, flops)) => {
                            self.health.record(factory.name(), Outcome::Success);
                            entry.wall = wall;
                            entry.modeled = modeled;
                            let secs = modeled.unwrap_or(wall).as_secs_f64();
                            if secs > 0.0 {
                                entry.throughput_gflops = flops / secs / 1e9;
                            }
                        }
                        Err(e) => {
                            self.note_fault(factory.name(), &e);
                            entry.error = Some(e.to_string());
                        }
                    },
                    Err(e) => {
                        self.note_fault(factory.name(), &e);
                        entry.error = Some(e.to_string());
                    }
                }
                entry
            })
            .collect();
        // Fastest measured entries first; failures last (stable, so they
        // keep registration order).
        results.sort_by(|a, b| match (&a.error, &b.error) {
            (None, Some(_)) => std::cmp::Ordering::Less,
            (Some(_), None) => std::cmp::Ordering::Greater,
            (Some(_), Some(_)) => std::cmp::Ordering::Equal,
            (None, None) => a.elapsed().cmp(&b.elapsed()),
        });
        results
    }

    /// Score a failure of `resource` in the health registry when it is a
    /// resource fault ([`BeagleError::fault`]); an error the call or its
    /// data caused leaves the resource's health alone.
    fn note_fault(&self, resource: &str, e: &BeagleError) {
        if let Some(outcome) = e.fault() {
            self.health.record(resource, outcome);
        }
    }
}

/// One row of [`ImplementationManager::benchmark_resources`]'s ranking.
#[derive(Clone, Debug)]
pub struct ResourceBenchmark {
    /// Implementation name (pass to `InstanceSpec::named` to pin it).
    pub implementation: String,
    /// Hardware resource the implementation runs on.
    pub resource: String,
    /// The factory's capability flags.
    pub flags: Flags,
    /// Host wall time for the calibrated workload.
    pub wall: Duration,
    /// Modeled device time, for back-ends that simulate one.
    pub modeled: Option<Duration>,
    /// Workload throughput in GFLOPS, computed from [`Self::elapsed`].
    pub throughput_gflops: f64,
    /// Why this factory could not be measured (ineligible, creation or
    /// workload failure). Measured entries have `None`.
    pub error: Option<String>,
}

impl ResourceBenchmark {
    /// The time used for ranking: modeled device time when available,
    /// otherwise host wall time.
    pub fn elapsed(&self) -> Duration {
        self.modeled.unwrap_or(self.wall)
    }

    /// One JSON object (hand-rolled; the environment has no serde).
    pub fn to_json(&self) -> String {
        let modeled = match self.modeled {
            Some(d) => format!("{}", d.as_nanos()),
            None => "null".to_string(),
        };
        let error = match &self.error {
            Some(e) => format!("\"{}\"", e.replace('\\', "\\\\").replace('"', "\\\"")),
            None => "null".to_string(),
        };
        format!(
            "{{\"implementation\":\"{}\",\"resource\":\"{}\",\"wall_nanos\":{},\"modeled_nanos\":{},\"throughput_gflops\":{:.4},\"error\":{}}}",
            self.implementation.replace('"', "\\\""),
            self.resource.replace('"', "\\\""),
            self.wall.as_nanos(),
            modeled,
            error,
            self.throughput_gflops,
        )
    }
}

/// Repetitions of the calibrated workload. Fixed (not wall-calibrated) so
/// modeled device times are bit-identical across runs — the determinism the
/// ranking and its tests rely on.
const BENCHMARK_REPS: usize = 3;

/// Shrink `config` to benchmark proportions: ≤ 8 tips, ≤ 256 patterns,
/// same state and category dimensions (those dominate kernel shape).
fn benchmark_config(config: &InstanceConfig) -> InstanceConfig {
    InstanceConfig::for_tree(
        config.tip_count.min(8),
        config.pattern_count.min(256),
        config.state_count,
        config.category_count,
    )
}

/// Closed-form Jukes–Cantor transition matrix for `s` states at branch
/// length `t`, replicated across `categories` (rates are uniform in the
/// workload): `P_ii = 1/s + (1-1/s)·e^{-st/(s-1)}`, `P_ij = 1/s·(1-e^{-st/(s-1)})`.
/// No eigen-decomposition needed, so every back-end can run the workload.
fn jukes_cantor_matrix(s: usize, categories: usize, t: f64) -> Vec<f64> {
    let sf = s as f64;
    let e = (-sf * t / (sf - 1.0)).exp();
    let p_same = 1.0 / sf + (1.0 - 1.0 / sf) * e;
    let p_diff = (1.0 - e) / sf;
    let mut one = vec![p_diff; s * s];
    for i in 0..s {
        one[i * s + i] = p_same;
    }
    let mut m = Vec::with_capacity(categories * s * s);
    for _ in 0..categories {
        m.extend_from_slice(&one);
    }
    m
}

/// Run the calibrated partials+root workload: a chain of internal-node
/// updates over deterministic tip states, integrated at the last
/// destination. Returns `(wall, modeled, flops)` for the timed section.
fn run_benchmark_workload(
    inst: &mut dyn BeagleInstance,
    config: &InstanceConfig,
) -> Result<(Duration, Option<Duration>, f64)> {
    let s = config.state_count;
    let tips = config.tip_count;
    let internal = config.partials_buffer_count - tips;
    if internal == 0 {
        return Err(BeagleError::Unsupported(
            "benchmark workload needs at least one internal partials buffer".into(),
        ));
    }
    inst.set_state_frequencies(0, &vec![1.0 / s as f64; s])?;
    inst.set_category_weights(
        0,
        &vec![1.0 / config.category_count as f64; config.category_count],
    )?;
    inst.set_category_rates(&vec![1.0; config.category_count])?;
    inst.set_pattern_weights(&vec![1.0; config.pattern_count])?;
    for tip in 0..tips {
        let states: Vec<u32> = (0..config.pattern_count)
            .map(|p| ((p + tip) % s) as u32)
            .collect();
        inst.set_tip_states(tip, &states)?;
    }
    let n_matrices = config.matrix_buffer_count.min(2 * tips - 2).max(1);
    for m in 0..n_matrices {
        let t = 0.05 + 0.01 * (m % 7) as f64;
        inst.set_transition_matrix(m, &jukes_cantor_matrix(s, config.category_count, t))?;
    }
    // A caterpillar traversal: each internal node combines the previous
    // destination with a fresh tip, so every update depends on the last —
    // the worst case for batching, the common case for real trees.
    let ops: Vec<Operation> = (0..internal)
        .map(|i| {
            let dest = tips + i;
            let child1 = if i == 0 { 0 } else { dest - 1 };
            let child2 = 1 + (i % (tips - 1));
            Operation::new(
                dest,
                child1,
                dest % n_matrices,
                child2,
                (dest + 1) % n_matrices,
            )
        })
        .collect();
    let root = BufferId(tips + internal - 1);

    // Warm-up rep (first-touch allocation, pool spin-up), then the timed
    // section against a reset device clock.
    inst.update_partials(&ops)?;
    inst.integrate_root(root, BufferId(0), BufferId(0), ScalingMode::None)?;
    inst.reset_simulated_time();
    let t0 = Instant::now();
    let mut lnl = 0.0;
    for _ in 0..BENCHMARK_REPS {
        inst.update_partials(&ops)?;
        lnl = inst.integrate_root(root, BufferId(0), BufferId(0), ScalingMode::None)?;
    }
    let wall = t0.elapsed();
    let modeled = inst.simulated_time();
    if !lnl.is_finite() {
        return Err(BeagleError::NumericalFailure(format!(
            "benchmark workload produced non-finite log-likelihood {lnl}"
        )));
    }
    // ~4 flops per state² cell per category per pattern per operation
    // (two child propagations, multiply-accumulate each).
    let flops = (BENCHMARK_REPS * internal) as f64
        * 4.0
        * (s * s) as f64
        * (config.category_count * config.pattern_count) as f64;
    Ok((wall, modeled, flops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::InstanceDetails;
    use crate::ops::Operation;

    /// A do-nothing instance for manager tests.
    struct NullInstance {
        details: InstanceDetails,
        config: InstanceConfig,
    }

    impl BeagleInstance for NullInstance {
        fn details(&self) -> &InstanceDetails {
            &self.details
        }
        fn config(&self) -> &InstanceConfig {
            &self.config
        }
        fn set_tip_states(&mut self, _: usize, _: &[u32]) -> Result<()> {
            Ok(())
        }
        fn set_tip_partials(&mut self, _: usize, _: &[f64]) -> Result<()> {
            Ok(())
        }
        fn set_partials(&mut self, _: usize, _: &[f64]) -> Result<()> {
            Ok(())
        }
        fn get_partials(&self, _: usize) -> Result<Vec<f64>> {
            Ok(vec![])
        }
        fn set_pattern_weights(&mut self, _: &[f64]) -> Result<()> {
            Ok(())
        }
        fn set_state_frequencies(&mut self, _: usize, _: &[f64]) -> Result<()> {
            Ok(())
        }
        fn set_category_rates(&mut self, _: &[f64]) -> Result<()> {
            Ok(())
        }
        fn set_category_weights(&mut self, _: usize, _: &[f64]) -> Result<()> {
            Ok(())
        }
        fn set_eigen_decomposition(
            &mut self,
            _: usize,
            _: &[f64],
            _: &[f64],
            _: &[f64],
        ) -> Result<()> {
            Ok(())
        }
        fn update_transition_matrices(&mut self, _: usize, _: &[usize], _: &[f64]) -> Result<()> {
            Ok(())
        }
        fn set_transition_matrix(&mut self, _: usize, _: &[f64]) -> Result<()> {
            Ok(())
        }
        fn get_transition_matrix(&self, _: usize) -> Result<Vec<f64>> {
            Ok(vec![])
        }
        fn update_partials(&mut self, _: &[Operation]) -> Result<()> {
            Ok(())
        }
        fn reset_scale_factors(&mut self, _: usize) -> Result<()> {
            Ok(())
        }
        fn accumulate_scale_factors(&mut self, _: &[usize], _: usize) -> Result<()> {
            Ok(())
        }
        fn integrate_root(
            &mut self,
            _: BufferId,
            _: BufferId,
            _: BufferId,
            _: ScalingMode,
        ) -> Result<f64> {
            Ok(0.0)
        }
        fn integrate_edge(
            &mut self,
            _: BufferId,
            _: BufferId,
            _: BufferId,
            _: BufferId,
            _: BufferId,
            _: ScalingMode,
        ) -> Result<f64> {
            Ok(0.0)
        }
        fn get_site_log_likelihoods(&self) -> Result<Vec<f64>> {
            Ok(vec![])
        }
    }

    struct NullFactory {
        name: &'static str,
        flags: Flags,
        priority: i32,
    }

    impl ImplementationFactory for NullFactory {
        fn name(&self) -> &str {
            self.name
        }
        fn supported_flags(&self) -> Flags {
            self.flags
        }
        fn resource(&self) -> ResourceDescription {
            ResourceDescription::host_cpu(1)
        }
        fn priority(&self) -> i32 {
            self.priority
        }
        fn create(
            &self,
            config: &InstanceConfig,
            _prefs: Flags,
            _reqs: Flags,
        ) -> Result<Box<dyn BeagleInstance>> {
            Ok(Box::new(NullInstance {
                details: InstanceDetails {
                    implementation_name: self.name.into(),
                    resource_name: "null".into(),
                    flags: self.flags,
                    thread_count: 1,
                },
                config: *config,
            }))
        }
    }

    fn cfg() -> InstanceConfig {
        InstanceConfig::for_tree(4, 100, 4, 1)
    }

    fn create(
        m: &ImplementationManager,
        preferences: Flags,
        requirements: Flags,
    ) -> Result<Box<dyn BeagleInstance>> {
        InstanceSpec::with_config(cfg())
            .prefer(preferences)
            .require(requirements)
            .instantiate(m)
    }

    #[test]
    fn requirements_filter() {
        let mut m = ImplementationManager::new();
        m.register(Box::new(NullFactory {
            name: "cpu",
            flags: Flags::PROCESSOR_CPU | Flags::PRECISION_DOUBLE,
            priority: 0,
        }));
        let inst = create(&m, Flags::NONE, Flags::PROCESSOR_CPU).unwrap();
        assert_eq!(inst.details().implementation_name, "cpu");
        let err = create(&m, Flags::NONE, Flags::PROCESSOR_GPU);
        assert!(matches!(err, Err(BeagleError::NoImplementationFound)));
    }

    #[test]
    fn preferences_rank() {
        let mut m = ImplementationManager::new();
        m.register(Box::new(NullFactory {
            name: "plain",
            flags: Flags::PROCESSOR_CPU,
            priority: 5,
        }));
        m.register(Box::new(NullFactory {
            name: "vectorized",
            flags: Flags::PROCESSOR_CPU | Flags::VECTOR_SSE,
            priority: 0,
        }));
        // Preferring SSE should beat the higher-priority plain factory.
        let inst = create(&m, Flags::VECTOR_SSE, Flags::NONE).unwrap();
        assert_eq!(inst.details().implementation_name, "vectorized");
        // No preference: priority decides.
        let inst = create(&m, Flags::NONE, Flags::NONE).unwrap();
        assert_eq!(inst.details().implementation_name, "plain");
    }

    /// A factory whose creation always fails, as a dead device's would.
    struct BrokenFactory {
        priority: i32,
    }

    impl ImplementationFactory for BrokenFactory {
        fn name(&self) -> &str {
            "broken-accelerator"
        }
        fn supported_flags(&self) -> Flags {
            Flags::PROCESSOR_CPU | Flags::PROCESSOR_GPU
        }
        fn resource(&self) -> ResourceDescription {
            ResourceDescription::host_cpu(1)
        }
        fn priority(&self) -> i32 {
            self.priority
        }
        fn create(
            &self,
            _: &InstanceConfig,
            _: Flags,
            _: Flags,
        ) -> Result<Box<dyn BeagleInstance>> {
            Err(BeagleError::Device {
                kind: crate::error::DeviceErrorKind::DeviceLost,
                transient: false,
                device: "broken".into(),
            })
        }
    }

    #[test]
    fn creation_failure_falls_back_to_next_factory() {
        let mut m = ImplementationManager::new();
        m.register(Box::new(NullFactory {
            name: "cpu-serial",
            flags: Flags::PROCESSOR_CPU,
            priority: 0,
        }));
        // Ranked first (higher priority), but creation always fails.
        m.register(Box::new(BrokenFactory { priority: 100 }));
        let inst = create(&m, Flags::NONE, Flags::NONE).unwrap();
        assert_eq!(inst.details().implementation_name, "cpu-serial");
    }

    #[test]
    fn all_failures_surface_last_error() {
        let mut m = ImplementationManager::new();
        m.register(Box::new(BrokenFactory { priority: 0 }));
        let err = create(&m, Flags::NONE, Flags::NONE).err();
        assert!(matches!(err, Some(BeagleError::Device { .. })), "{err:?}");
    }

    #[test]
    fn asynch_is_accepted_and_selects_like_synch() {
        let mut m = ImplementationManager::new();
        // No factory advertises a computation-mode bit, and the ranking
        // between these two must not depend on one.
        m.register(Box::new(NullFactory {
            name: "plain",
            flags: Flags::PROCESSOR_CPU,
            priority: 5,
        }));
        m.register(Box::new(NullFactory {
            name: "vectorized",
            flags: Flags::PROCESSOR_CPU | Flags::VECTOR_SSE,
            priority: 0,
        }));
        for prefs in [Flags::NONE, Flags::VECTOR_SSE] {
            let eager = create(&m, prefs | Flags::COMPUTATION_SYNCH, Flags::NONE).unwrap();
            let expected = eager.details().implementation_name.clone();
            let asynch = [
                create(&m, prefs | Flags::COMPUTATION_ASYNCH, Flags::NONE),
                create(&m, prefs, Flags::COMPUTATION_ASYNCH),
                m.create_instance_by_name(&expected, &cfg(), prefs | Flags::COMPUTATION_ASYNCH),
            ];
            for inst in asynch {
                let inst = inst.unwrap();
                assert_eq!(inst.details().implementation_name, expected);
                assert!(inst.queue_stats().is_none(), "{expected}: no queue");
                assert!(
                    !inst
                        .details()
                        .flags
                        .intersects(Flags::COMPUTATION_SYNCH | Flags::COMPUTATION_ASYNCH),
                    "{expected}: details carry a mode bit"
                );
            }
        }
    }

    #[test]
    fn empty_manager_errors() {
        let m = ImplementationManager::new();
        assert!(matches!(
            create(&m, Flags::NONE, Flags::NONE),
            Err(BeagleError::NoImplementationFound)
        ));
    }

    #[test]
    fn named_and_ranked_creation_get_identical_wrapping() {
        let mut m = ImplementationManager::new();
        m.register(Box::new(NullFactory {
            name: "cpu",
            flags: Flags::PROCESSOR_CPU,
            priority: 0,
        }));
        // Layers above the back-end: the journaling layer and memo.
        fn depth(inst: &dyn BeagleInstance) -> usize {
            inst.wrapped().map_or(0, |inner| 1 + depth(inner))
        }
        // By-name creation funnels through create_from_spec, so it gets the
        // journaling layer exactly like ranked creation.
        let ranked = InstanceSpec::with_config(cfg()).instantiate(&m).unwrap();
        let named = InstanceSpec::with_config(cfg())
            .named("cpu")
            .instantiate(&m)
            .unwrap();
        assert_eq!(depth(ranked.as_ref()), 2);
        assert_eq!(depth(named.as_ref()), 2);
        // Raw semantics remain reachable via the escape hatch.
        let raw = InstanceSpec::with_config(cfg())
            .named("cpu")
            .without_rescue()
            .instantiate(&m)
            .unwrap();
        assert_eq!(depth(raw.as_ref()), 1);
    }

    #[test]
    fn spec_unknown_name_errors() {
        let mut m = ImplementationManager::new();
        m.register(Box::new(NullFactory {
            name: "cpu",
            flags: Flags::PROCESSOR_CPU,
            priority: 0,
        }));
        let err = InstanceSpec::with_config(cfg())
            .named("no-such")
            .instantiate(&m);
        assert!(matches!(err, Err(BeagleError::NoImplementationFound)));
    }

    #[test]
    fn stats_flag_does_not_affect_selection() {
        let mut m = ImplementationManager::new();
        m.register(Box::new(NullFactory {
            name: "cpu",
            flags: Flags::PROCESSOR_CPU,
            priority: 0,
        }));
        // INSTANCE_STATS as a *requirement* must not filter every factory
        // out (no factory advertises it; the manager handles it).
        let inst = create(&m, Flags::NONE, Flags::INSTANCE_STATS);
        assert!(inst.is_ok());
    }

    #[test]
    fn benchmark_covers_every_registered_factory() {
        let mut m = ImplementationManager::new();
        m.register(Box::new(NullFactory {
            name: "a",
            flags: Flags::PROCESSOR_CPU,
            priority: 0,
        }));
        m.register(Box::new(NullFactory {
            name: "b",
            flags: Flags::PROCESSOR_GPU,
            priority: 0,
        }));
        m.register(Box::new(BrokenFactory { priority: 0 }));
        let ranking = m.benchmark_resources(&cfg(), Flags::NONE);
        assert_eq!(ranking.len(), 3, "every registered factory appears");
        let failed: Vec<_> = ranking.iter().filter(|r| r.error.is_some()).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].implementation, "broken-accelerator");
        // Failures sort last.
        assert!(ranking.last().unwrap().error.is_some());
        // Requirement filtering is reported, not silently dropped.
        let gpu_only = m.benchmark_resources(&cfg(), Flags::PROCESSOR_GPU);
        assert_eq!(gpu_only.len(), 3);
        assert!(gpu_only.iter().any(|r| r.implementation == "a"
            && r.error.as_deref() == Some("does not satisfy requirement flags")));
    }
}
