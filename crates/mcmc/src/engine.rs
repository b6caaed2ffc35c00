//! Likelihood engines: the pluggable likelihood providers MrBayes-lite runs
//! on, mirroring the paper's Fig. 6 comparison between MrBayes' built-in
//! (native SSE) likelihood code and BEAGLE-backed computation.

use std::time::{Duration, Instant};

use beagle_core::real::weighted_lnl_sum;
use beagle_core::{
    BeagleInstance, BufferId, Deadline, InstanceStats, Lane, Operation, ScalingMode, SessionRequest,
};
use beagle_cpu::{kernels, vector};
use beagle_phylo::{ReversibleModel, SitePatterns, SiteRates, Tree};
use beagle_server::{Client, ClientError, Endpoint};

/// A provider of tree log-likelihoods, with its own time accounting:
/// wall-clock for real CPU execution, simulated device time for the
/// simulated GPUs (see DESIGN.md §1).
pub trait LikelihoodEngine: Send {
    /// Engine display name for reports.
    fn name(&self) -> String;

    /// Log-likelihood of `tree` under `model` for this engine's data.
    fn log_likelihood(&mut self, tree: &Tree, model: &ReversibleModel) -> f64;

    /// Cumulative likelihood-computation time since creation.
    fn elapsed(&self) -> Duration;

    /// Per-kernel-class statistics from the underlying instance, when the
    /// engine is BEAGLE-backed and the instance was created with
    /// `INSTANCE_STATS` (see `beagle_core::obs`). `None` otherwise.
    fn kernel_statistics(&self) -> Option<InstanceStats> {
        None
    }
}

/// An engine backed by any BEAGLE-RS instance. Every evaluation sends the
/// whole model, every transition matrix and the whole operation schedule;
/// the instance's memo layer (`beagle_core::memo`) skips what is unchanged.
pub struct BeagleEngine {
    instance: Box<dyn BeagleInstance>,
    patterns: SitePatterns,
    rates: SiteRates,
    scaled: bool,
    tips_loaded: bool,
    wall: Duration,
    label: String,
}

impl BeagleEngine {
    /// Wrap an instance. `scaled` enables per-operation rescaling (required
    /// for single precision on large trees). Incremental work comes from
    /// the instance's memo layer: a managed instance carries it unless its
    /// spec says `incremental(false)`, and a bare factory instance needs
    /// [`beagle_core::MemoInstance::new`] around it, or it recomputes every
    /// call.
    pub fn new(
        instance: Box<dyn BeagleInstance>,
        patterns: SitePatterns,
        rates: SiteRates,
        scaled: bool,
    ) -> Self {
        let label = instance.details().implementation_name.clone();
        Self {
            instance,
            patterns,
            rates,
            scaled,
            tips_loaded: false,
            wall: Duration::ZERO,
            label,
        }
    }

    /// Memoization counters from the underlying instance, when the memo
    /// layer is installed.
    pub fn memo_stats(&self) -> Option<beagle_core::MemoStats> {
        self.instance.memo_stats()
    }
}

impl LikelihoodEngine for BeagleEngine {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn log_likelihood(&mut self, tree: &Tree, model: &ReversibleModel) -> f64 {
        let start = Instant::now();
        let inst = self.instance.as_mut();
        if !self.tips_loaded {
            for tip in 0..tree.taxon_count() {
                inst.set_tip_states(tip, &self.patterns.tip_states(tip))
                    .expect("tips");
            }
            inst.set_pattern_weights(self.patterns.weights())
                .expect("pattern weights");
            inst.set_category_rates(&self.rates.rates).expect("rates");
            inst.set_category_weights(0, &self.rates.weights)
                .expect("weights");
            self.tips_loaded = true;
        }
        let eig = model.eigen();
        inst.set_eigen_decomposition(
            0,
            eig.vectors.as_slice(),
            eig.inverse_vectors.as_slice(),
            &eig.values,
        )
        .expect("eigen");
        inst.set_state_frequencies(0, model.frequencies())
            .expect("freqs");
        let (idx, len): (Vec<usize>, Vec<f64>) = tree.branch_assignments().into_iter().unzip();
        inst.update_transition_matrices(0, &idx, &len)
            .expect("matrices");
        let ops = schedule_operations(tree, self.scaled);
        inst.update_partials(&ops).expect("partials");

        let scaling = if self.scaled {
            let c = inst.config().scale_buffer_count - 1;
            inst.reset_scale_factors(c).expect("reset scale");
            let bufs: Vec<usize> = ops.iter().map(|op| op.destination).collect();
            inst.accumulate_scale_factors(&bufs, c).expect("accumulate");
            ScalingMode::cumulative(c)
        } else {
            ScalingMode::None
        };
        let lnl = inst
            .integrate_root(BufferId(tree.root()), BufferId(0), BufferId(0), scaling)
            .expect("root lnL");
        self.wall += start.elapsed();
        lnl
    }

    fn elapsed(&self) -> Duration {
        // Simulated devices report modeled time; everything else wall time.
        self.instance.simulated_time().unwrap_or(self.wall)
    }

    fn kernel_statistics(&self) -> Option<InstanceStats> {
        self.instance.statistics()
    }
}

/// The operations that compute every internal node of `tree` in post-order,
/// each writing the scale buffer of its own node when `scaled`.
fn schedule_operations(tree: &Tree, scaled: bool) -> Vec<Operation> {
    tree.operation_schedule()
        .iter()
        .map(|e| {
            let op = Operation::new(e.destination, e.child1, e.matrix1, e.child2, e.matrix2);
            if scaled {
                op.with_scaling(e.destination)
            } else {
                op
            }
        })
        .collect()
}

/// An engine backed by a remote likelihood service (`beagle-server`): each
/// evaluation ships a self-contained [`SessionRequest`] over the wire and
/// blocks for the result. The WIRE-v2 protocol carries every `f64` as a
/// raw bit pattern, so a remote evaluation is bit-identical to running the
/// same session on a local pool of the same implementation — which is what
/// lets [`crate::mc3::run_mc3_remote`] reproduce a local cold trace
/// exactly.
///
/// Sessions are stateless by design (that is what makes server-side
/// requeue-after-eviction safe), so every request carries the whole model,
/// every matrix and the whole schedule, as [`BeagleEngine`] sends them; the
/// memo layer of the serving worker's instance skips what it already holds.
/// Only the client side is cached: the data fields (tip states, pattern
/// weights, rates) are gathered once at [`Self::connect`], and each
/// evaluation rewrites the model and tree fields of the same request in
/// place.
pub struct RemoteEngine {
    client: Client,
    session: SessionRequest,
    lane: Lane,
    /// Transient `Busy` answers tolerated per evaluation before panicking.
    busy_retries: u32,
    wall: Duration,
}

impl RemoteEngine {
    /// Connect to a service. `scaled` must match what the data demands,
    /// exactly as for [`BeagleEngine::new`].
    pub fn connect(
        endpoint: Endpoint,
        patterns: SitePatterns,
        rates: SiteRates,
        scaled: bool,
    ) -> Result<Self, ClientError> {
        Ok(Self {
            client: Client::connect(endpoint)?,
            session: SessionRequest {
                tip_states: (0..patterns.taxon_count())
                    .map(|t| patterns.tip_states(t))
                    .collect(),
                pattern_weights: patterns.weights().to_vec(),
                category_rates: rates.rates,
                category_weights: rates.weights,
                frequencies: Vec::new(),
                eigen: None,
                matrices: Vec::new(),
                operations: Vec::new(),
                root: BufferId(0),
                scaled,
                deadline: None,
            },
            lane: Lane::Interactive,
            busy_retries: 64,
            wall: Duration::ZERO,
        })
    }

    /// Scheduling lane for the server-side pool (default
    /// [`Lane::Interactive`]: chains block on every evaluation, so queue
    /// latency matters more than fairness).
    pub fn lane(mut self, lane: Lane) -> Self {
        self.lane = lane;
        self
    }

    /// Attach a per-request deadline, propagated into the server pool's
    /// watchdog for each evaluation.
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.session.deadline = Some(deadline);
        self
    }

    /// Point the cached session at `tree` under `model`.
    fn refresh_session(&mut self, tree: &Tree, model: &ReversibleModel) {
        debug_assert_eq!(tree.taxon_count(), self.session.tip_states.len());
        let eig = model.eigen();
        let s = &mut self.session;
        s.frequencies = model.frequencies().to_vec();
        s.eigen = Some((
            eig.vectors.as_slice().to_vec(),
            eig.inverse_vectors.as_slice().to_vec(),
            eig.values.clone(),
        ));
        s.matrices = tree.branch_assignments();
        s.operations = schedule_operations(tree, s.scaled);
        s.root = BufferId(tree.root());
    }
}

impl LikelihoodEngine for RemoteEngine {
    fn name(&self) -> String {
        format!("remote({})", self.client.endpoint())
    }

    fn log_likelihood(&mut self, tree: &Tree, model: &ReversibleModel) -> f64 {
        let start = Instant::now();
        self.refresh_session(tree, model);
        let lnl = self
            .client
            .evaluate_patiently(&self.session, self.lane, self.busy_retries)
            .expect("remote evaluation");
        self.wall += start.elapsed();
        lnl
    }

    fn elapsed(&self) -> Duration {
        // Wall time including wire round trips; the server's modeled device
        // time is visible through its stats snapshot instead.
        self.wall
    }
}

/// MrBayes' built-in likelihood path: a lean, serial pruning engine with
/// vectorized 4-state kernels ("MrBayes uses SSE vectorization in
/// single-precision floating point format", §VIII-C). It does not go
/// through the BEAGLE API at all — this is the Fig. 6 baseline.
pub struct NativeEngine<T: beagle_core::Real> {
    patterns: SitePatterns,
    rates: SiteRates,
    /// Flat partials arena, `[node][cat*pattern*state]`.
    partials: Vec<Vec<T>>,
    /// Per-node transition matrices, `[cat][s][s]`.
    matrices: Vec<Vec<T>>,
    /// Per-pattern log scale accumulators.
    scale: Vec<T>,
    wall: Duration,
}

impl<T: beagle_core::Real> NativeEngine<T> {
    /// Allocate for a fixed data set and tree size.
    pub fn new(taxa: usize, patterns: SitePatterns, rates: SiteRates, states: usize) -> Self {
        let nodes = 2 * taxa - 1;
        let len = rates.category_count() * patterns.pattern_count() * states;
        let mlen = rates.category_count() * states * states;
        Self {
            partials: vec![vec![T::ZERO; len]; nodes],
            matrices: vec![vec![T::ZERO; mlen]; nodes],
            scale: vec![T::ZERO; patterns.pattern_count()],
            patterns,
            rates,
            wall: Duration::ZERO,
        }
    }
}

impl<T: beagle_core::Real> LikelihoodEngine for NativeEngine<T> {
    fn name(&self) -> String {
        format!(
            "native-SSE ({} precision)",
            if std::mem::size_of::<T>() == 4 {
                "single"
            } else {
                "double"
            }
        )
    }

    fn log_likelihood(&mut self, tree: &Tree, model: &ReversibleModel) -> f64 {
        let start = Instant::now();
        let s = model.state_count();
        let n_pat = self.patterns.pattern_count();
        let n_cat = self.rates.category_count();

        // Transition matrices (double-precision eigen math, narrowed).
        for (node, t) in tree.branch_assignments() {
            for (c, &rate) in self.rates.rates.iter().enumerate() {
                let p = model.transition_matrix(rate * t);
                let block = &mut self.matrices[node][c * s * s..(c + 1) * s * s];
                for (dst, &src) in block.iter_mut().zip(p.as_slice()) {
                    *dst = T::from_f64(src.max(0.0));
                }
            }
        }

        // Tip partials from states.
        for tip in 0..tree.taxon_count() {
            let states = self.patterns.tip_states(tip);
            let buf = &mut self.partials[tip];
            buf.iter_mut().for_each(|x| *x = T::ZERO);
            for c in 0..n_cat {
                for (p, &st) in states.iter().enumerate() {
                    let base = (c * n_pat + p) * s;
                    if st == beagle_core::GAP_STATE {
                        buf[base..base + s].fill(T::ONE);
                    } else {
                        buf[base + st as usize] = T::ONE;
                    }
                }
            }
        }

        // Post-order pruning with per-node rescaling (MrBayes rescales
        // unconditionally in its native path).
        self.scale.iter_mut().for_each(|x| *x = T::ZERO);
        for entry in tree.operation_schedule() {
            let [c1, c2, dest] = distinct_three(
                &mut self.partials,
                entry.child1,
                entry.child2,
                entry.destination,
            );
            let m1 = &self.matrices[entry.matrix1];
            let m2 = &self.matrices[entry.matrix2];
            for c in 0..n_cat {
                let r = (c * n_pat) * s..((c + 1) * n_pat) * s;
                let m1c = &m1[c * s * s..(c + 1) * s * s];
                let m2c = &m2[c * s * s..(c + 1) * s * s];
                if s == 4 {
                    vector::partials_partials_4(
                        &mut dest[r.clone()],
                        &c1[r.clone()],
                        &c2[r],
                        m1c,
                        m2c,
                        4,
                    );
                } else {
                    kernels::partials_partials(
                        &mut dest[r.clone()],
                        &c1[r.clone()],
                        &c2[r],
                        m1c,
                        m2c,
                        s,
                        s,
                    );
                }
            }
            // Rescale this node's partials.
            let mut blocks: Vec<&mut [T]> = dest.chunks_exact_mut(n_pat * s).collect();
            let mut node_scale = vec![T::ZERO; n_pat];
            kernels::rescale_patterns(&mut blocks, &mut node_scale, s);
            for (acc, x) in self.scale.iter_mut().zip(&node_scale) {
                *acc += *x;
            }
        }

        // Root integration.
        let freqs: Vec<T> = model
            .frequencies()
            .iter()
            .map(|&x| T::from_f64(x))
            .collect();
        let catw: Vec<T> = self.rates.weights.iter().map(|&x| T::from_f64(x)).collect();
        let pw: Vec<T> = self
            .patterns
            .weights()
            .iter()
            .map(|&x| T::from_f64(x))
            .collect();
        let mut site = vec![T::ZERO; n_pat];
        kernels::integrate_root(
            &mut site,
            &self.partials[tree.root()],
            &freqs,
            &catw,
            Some(&self.scale),
            s,
            s,
            n_pat,
            0,
        );
        let total = weighted_lnl_sum(0.0, &site, pw);
        self.wall += start.elapsed();
        total
    }

    fn elapsed(&self) -> Duration {
        self.wall
    }
}

/// Borrow three distinct arena entries, the last mutably-for-writing.
/// Returns `[child1, child2, destination]`.
fn distinct_three<T>(arena: &mut [Vec<T>], a: usize, b: usize, dst: usize) -> [&mut Vec<T>; 3] {
    assert!(
        a != dst && b != dst,
        "destination must differ from children"
    );
    // SAFETY: indices a, b, dst are distinct from dst (asserted); a may
    // equal b only if the tree were malformed — also assert.
    assert_ne!(a, b, "children must be distinct nodes");
    unsafe {
        let ptr = arena.as_mut_ptr();
        [&mut *ptr.add(a), &mut *ptr.add(b), &mut *ptr.add(dst)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beagle_phylo::likelihood::log_likelihood;
    use beagle_phylo::models::nucleotide::hky85;
    use beagle_phylo::simulate::simulate_alignment;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn case() -> (Tree, ReversibleModel, SiteRates, SitePatterns) {
        let mut rng = SmallRng::seed_from_u64(77);
        let tree = Tree::random(10, 0.15, &mut rng);
        let model = hky85(2.0, &[0.3, 0.2, 0.25, 0.25]);
        let rates = SiteRates::discrete_gamma(0.5, 4);
        let aln = simulate_alignment(&tree, &model, &rates, 300, &mut rng);
        (tree, model, rates, SitePatterns::compress(&aln))
    }

    #[test]
    fn native_double_matches_oracle() {
        let (tree, model, rates, patterns) = case();
        let oracle = log_likelihood(&tree, &model, &rates, &patterns);
        let mut engine = NativeEngine::<f64>::new(10, patterns, rates, 4);
        let lnl = engine.log_likelihood(&tree, &model);
        assert!((lnl - oracle).abs() < 1e-8, "{lnl} vs {oracle}");
        assert!(engine.elapsed() > Duration::ZERO);
    }

    #[test]
    fn native_single_close_to_oracle() {
        let (tree, model, rates, patterns) = case();
        let oracle = log_likelihood(&tree, &model, &rates, &patterns);
        let mut engine = NativeEngine::<f32>::new(10, patterns, rates, 4);
        let lnl = engine.log_likelihood(&tree, &model);
        assert!(((lnl - oracle) / oracle).abs() < 1e-4, "{lnl} vs {oracle}");
    }

    #[test]
    fn beagle_engine_matches_native() {
        let (tree, model, rates, patterns) = case();
        let config = beagle_core::InstanceConfig::for_tree(10, patterns.pattern_count(), 4, 4);
        let mut manager = beagle_core::ImplementationManager::new();
        beagle_cpu::register_cpu_factories(&mut manager);
        let inst = beagle_core::InstanceSpec::with_config(config)
            .with_stats()
            .instantiate(&manager)
            .unwrap();
        let mut be = BeagleEngine::new(inst, patterns.clone(), rates.clone(), true);
        let mut ne = NativeEngine::<f64>::new(10, patterns, rates, 4);
        let a = be.log_likelihood(&tree, &model);
        let b = ne.log_likelihood(&tree, &model);
        assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        // With INSTANCE_STATS requested, the engine surfaces per-kernel
        // counters (unless obs is compiled out).
        if beagle_core::Recorder::new(true).is_enabled() {
            let stats = be.kernel_statistics().expect("stats-enabled instance");
            assert!(stats.total_calls() > 0, "kernel calls must be counted");
        }
    }

    /// Shares one [`BeagleEngine`] with the test, so its memo counters can
    /// be read after [`crate::mc3::run_mc3`] has used it as a chain engine.
    struct Shared(std::sync::Arc<std::sync::Mutex<BeagleEngine>>);

    impl LikelihoodEngine for Shared {
        fn name(&self) -> String {
            self.0.lock().unwrap().name()
        }
        fn log_likelihood(&mut self, tree: &Tree, model: &ReversibleModel) -> f64 {
            self.0.lock().unwrap().log_likelihood(tree, model)
        }
        fn elapsed(&self) -> Duration {
            self.0.lock().unwrap().elapsed()
        }
    }

    #[test]
    fn memo_mc3_is_bit_identical_to_full_refresh() {
        use crate::chain::ModelParams;
        use crate::mc3::{run_mc3, Mc3Config};
        use std::sync::{Arc, Mutex};

        let (start, _, rates, patterns) = case();
        let config = beagle_core::InstanceConfig::for_tree(10, patterns.pattern_count(), 4, 4);
        let mut manager = beagle_core::ImplementationManager::new();
        beagle_cpu::register_cpu_factories(&mut manager);
        let mc3 = Mc3Config {
            chains: 2,
            generations: 200,
            swap_interval: 10,
            sample_interval: 10,
            heating: 0.2,
            seed: 23,
        };
        let params = ModelParams::Nucleotide { kappa: 2.0 };
        let run = |incremental: bool| {
            let engines: Vec<Arc<Mutex<BeagleEngine>>> = (0..mc3.chains)
                .map(|_| {
                    let inst = beagle_core::InstanceSpec::with_config(config)
                        .named("CPU-serial")
                        .incremental(incremental)
                        .instantiate(&manager)
                        .unwrap();
                    let engine = BeagleEngine::new(inst, patterns.clone(), rates.clone(), true);
                    Arc::new(Mutex::new(engine))
                })
                .collect();
            let mut boxed: Vec<Box<dyn LikelihoodEngine>> = engines
                .iter()
                .map(|e| Box::new(Shared(e.clone())) as Box<dyn LikelihoodEngine>)
                .collect();
            let result = run_mc3(&mc3, &start, params, &mut boxed);
            let memo: Vec<Option<beagle_core::MemoStats>> = engines
                .iter()
                .map(|e| e.lock().unwrap().memo_stats())
                .collect();
            (result, memo)
        };
        let (memo_run, memo_stats) = run(true);
        let (full_run, full_stats) = run(false);

        // Every kind of move was proposed, so the memo layer met branch,
        // NNI and parameter changes.
        for stats in &memo_run.chain_stats {
            assert!(stats.branch_length.proposed > 0, "{stats:?}");
            assert!(stats.topology.proposed > 0, "{stats:?}");
            assert!(stats.parameter.proposed > 0, "{stats:?}");
        }
        assert_eq!(
            memo_run.posterior.len(),
            mc3.generations / mc3.sample_interval
        );
        assert_eq!(memo_run.posterior.len(), full_run.posterior.len());
        for (a, b) in memo_run
            .posterior
            .samples()
            .iter()
            .zip(full_run.posterior.samples())
        {
            let g = a.generation;
            assert_eq!(g, b.generation);
            assert_eq!(
                a.log_likelihood.to_bits(),
                b.log_likelihood.to_bits(),
                "generation {g}: {} vs {}",
                a.log_likelihood,
                b.log_likelihood
            );
            assert_eq!(a.tree.root(), b.tree.root(), "generation {g}");
            assert_eq!(
                a.tree.operation_schedule(),
                b.tree.operation_schedule(),
                "generation {g}: topology"
            );
            let bits = |t: &Tree| -> Vec<(usize, u64)> {
                t.branch_assignments()
                    .into_iter()
                    .map(|(n, len)| (n, len.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&a.tree), bits(&b.tree), "generation {g}: lengths");
        }
        let trace_bits = |r: &crate::mc3::Mc3Result| -> Vec<u64> {
            r.cold_trace.iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(trace_bits(&memo_run), trace_bits(&full_run));

        // The full-refresh engines carry no memo; the memo engines pruned
        // work on every path: skipped operations, skipped matrices, and
        // matrices served from the store.
        assert!(full_stats.iter().all(Option::is_none));
        for stats in memo_stats {
            let stats = stats.expect("memo installed");
            assert!(stats.ops_skipped > 0, "{stats:?}");
            assert!(stats.matrices_skipped > 0, "{stats:?}");
            assert!(stats.matrices_reused > 0, "{stats:?}");
        }
    }

    #[test]
    fn engine_is_reusable_across_tree_changes() {
        let (mut tree, model, rates, patterns) = case();
        let mut engine = NativeEngine::<f64>::new(10, patterns.clone(), rates.clone(), 4);
        let l1 = engine.log_likelihood(&tree, &model);
        // Change a branch length; likelihood must change and stay finite.
        tree.node_mut(0).branch_length *= 3.0;
        let l2 = engine.log_likelihood(&tree, &model);
        assert!(l1.is_finite() && l2.is_finite() && (l1 - l2).abs() > 1e-9);
        // And match a fresh oracle evaluation.
        let oracle = log_likelihood(&tree, &model, &rates, &patterns);
        assert!((l2 - oracle).abs() < 1e-8);
    }
}
