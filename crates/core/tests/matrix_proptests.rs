//! Property tests for derived transition matrices: under ANY interleaving
//! of eigen updates, rate updates, matrix requests, and read-backs, the
//! memo layer and its matrix store over a back-end must return exactly the
//! bits the plain back-end returns — i.e. stale reuse is unreachable — and
//! the memo's matrix counters account for every request.

use beagle_core::api::{BeagleInstance, BufferId, InstanceConfig, InstanceDetails, ScalingMode};
use beagle_core::buffers::InstanceBuffers;
use beagle_core::error::Result;
use beagle_core::memo::MemoInstance;
use beagle_core::ops::Operation;
use beagle_core::Flags;
use proptest::prelude::*;

/// A back-end exposing the transition-matrix machinery of the shared buffer
/// arena (the exact code the CPU and simulated-accelerator back-ends
/// delegate to); everything unrelated to matrices is inert.
struct MatrixInstance {
    bufs: InstanceBuffers<f64>,
    details: InstanceDetails,
}

impl MatrixInstance {
    fn new() -> Self {
        let mut config = InstanceConfig::for_tree(4, 8, 4, 2);
        config.eigen_buffer_count = 2;
        Self {
            bufs: InstanceBuffers::new(config).unwrap(),
            details: InstanceDetails {
                implementation_name: "matrix-only".into(),
                resource_name: "host".into(),
                flags: Flags::NONE,
                thread_count: 1,
            },
        }
    }
}

impl BeagleInstance for MatrixInstance {
    fn details(&self) -> &InstanceDetails {
        &self.details
    }
    fn config(&self) -> &InstanceConfig {
        &self.bufs.config
    }
    fn set_tip_states(&mut self, tip: usize, states: &[u32]) -> Result<()> {
        self.bufs.set_tip_states(tip, states)
    }
    fn set_tip_partials(&mut self, tip: usize, partials: &[f64]) -> Result<()> {
        self.bufs.set_tip_partials(tip, partials)
    }
    fn set_partials(&mut self, buffer: usize, partials: &[f64]) -> Result<()> {
        self.bufs.set_partials(buffer, partials)
    }
    fn get_partials(&self, buffer: usize) -> Result<Vec<f64>> {
        self.bufs.get_partials(buffer)
    }
    fn set_pattern_weights(&mut self, weights: &[f64]) -> Result<()> {
        self.bufs.set_pattern_weights(weights)
    }
    fn set_state_frequencies(&mut self, index: usize, frequencies: &[f64]) -> Result<()> {
        self.bufs.set_state_frequencies(index, frequencies)
    }
    fn set_category_rates(&mut self, rates: &[f64]) -> Result<()> {
        self.bufs.set_category_rates(rates)
    }
    fn set_category_weights(&mut self, index: usize, weights: &[f64]) -> Result<()> {
        self.bufs.set_category_weights(index, weights)
    }
    fn set_eigen_decomposition(
        &mut self,
        index: usize,
        vectors: &[f64],
        inverse_vectors: &[f64],
        values: &[f64],
    ) -> Result<()> {
        self.bufs
            .set_eigen_decomposition(index, vectors, inverse_vectors, values)
    }
    fn update_transition_matrices(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        self.bufs
            .update_transition_matrices(eigen_index, matrix_indices, branch_lengths)
    }
    fn set_transition_matrix(&mut self, index: usize, matrix: &[f64]) -> Result<()> {
        self.bufs.set_transition_matrix(index, matrix)
    }
    fn get_transition_matrix(&self, index: usize) -> Result<Vec<f64>> {
        self.bufs.get_transition_matrix(index)
    }
    fn update_partials(&mut self, _: &[Operation]) -> Result<()> {
        Ok(())
    }
    fn reset_scale_factors(&mut self, cumulative: usize) -> Result<()> {
        self.bufs.reset_scale_factors(cumulative)
    }
    fn accumulate_scale_factors(&mut self, indices: &[usize], cumulative: usize) -> Result<()> {
        self.bufs.accumulate_scale_factors(indices, cumulative)
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

/// One step of a random model-update / matrix-request interleaving.
#[derive(Clone, Debug)]
enum Action {
    /// Install eigen system `variant` at eigen buffer `index`.
    SetEigen { index: usize, variant: usize },
    /// Install rates variant `variant`.
    SetRates { variant: usize },
    /// Derive matrices for branch lengths drawn from a small pool (so
    /// repeats — and therefore cache hits — actually happen).
    UpdateMatrices {
        targets: Vec<(usize, usize)>,
        eigen: usize,
    },
    /// Read matrix `index` back.
    Read { index: usize },
}

/// A pool of distinct, valid-enough eigen systems: symmetric-model-like
/// decompositions where variant `v` only shifts the eigenvalues, so every
/// variant produces different matrices.
fn eigen_data(variant: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut vectors = vec![0.0; 16];
    let mut inverse = vec![0.0; 16];
    for i in 0..4 {
        vectors[i * 4 + i] = 1.0;
        inverse[i * 4 + i] = 1.0;
    }
    let shift = 0.25 * variant as f64;
    let values = vec![0.0, -1.0 - shift, -2.0 - shift, -3.0 - shift];
    (vectors, inverse, values)
}

fn rates_data(variant: usize) -> Vec<f64> {
    match variant {
        0 => vec![1.0, 1.0],
        1 => vec![0.5, 1.5],
        _ => vec![0.25, 1.75],
    }
}

/// Branch lengths drawn from a small pool to maximize repeats.
const LENGTH_POOL: [f64; 4] = [0.05, 0.1, 0.2, 0.4];

/// Decode one random word into an [`Action`]. The vendored proptest
/// stand-in has no mapping combinators, so interleavings are generated as
/// `Vec<u64>` and decoded here; every word maps to a valid action.
fn decode(raw: u64) -> Action {
    let mut x = raw / 4;
    match raw % 4 {
        0 => {
            let index = (x % 2) as usize;
            let variant = (x / 2 % 3) as usize;
            Action::SetEigen { index, variant }
        }
        1 => Action::SetRates {
            variant: (x % 3) as usize,
        },
        2 => {
            let count = 1 + (x % 3) as usize;
            x /= 3;
            let eigen = (x % 2) as usize;
            x /= 2;
            let mut targets = Vec::with_capacity(count);
            for _ in 0..count {
                let matrix = 1 + (x % 6) as usize;
                x /= 6;
                let length = (x % LENGTH_POOL.len() as u64) as usize;
                x /= LENGTH_POOL.len() as u64;
                targets.push((matrix, length));
            }
            Action::UpdateMatrices { targets, eigen }
        }
        _ => Action::Read {
            index: 1 + (x % 6) as usize,
        },
    }
}

fn apply(inst: &mut dyn BeagleInstance, action: &Action) -> Option<Vec<u64>> {
    match action {
        Action::SetEigen { index, variant } => {
            let (v, vi, val) = eigen_data(*variant);
            inst.set_eigen_decomposition(*index, &v, &vi, &val).unwrap();
            None
        }
        Action::SetRates { variant } => {
            inst.set_category_rates(&rates_data(*variant)).unwrap();
            None
        }
        Action::UpdateMatrices { targets, eigen } => {
            let indices: Vec<usize> = targets.iter().map(|&(m, _)| m).collect();
            let lengths: Vec<f64> = targets.iter().map(|&(_, l)| LENGTH_POOL[l]).collect();
            inst.update_transition_matrices(*eigen, &indices, &lengths)
                .unwrap();
            None
        }
        Action::Read { index } => {
            let m = inst.get_transition_matrix(*index).unwrap_or_default();
            Some(m.iter().map(|v| v.to_bits()).collect())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The core safety property of the matrix store: any interleaving of
    /// set_eigen / rate updates / matrix requests / reads produces
    /// bit-identical matrices with and without memo.
    #[test]
    fn cached_matrices_equal_uncached_under_any_interleaving(
        raw in proptest::collection::vec(0u64..u64::MAX, 1..24),
    ) {
        let actions: Vec<Action> = raw.iter().map(|&r| decode(r)).collect();
        // Both sides start with the same model so matrices are derivable
        // even if the random interleaving never sets eigen 1 or the rates.
        let prelude = [
            Action::SetEigen { index: 0, variant: 0 },
            Action::SetEigen { index: 1, variant: 1 },
            Action::SetRates { variant: 0 },
        ];
        let mut plain: Box<dyn BeagleInstance> = Box::new(MatrixInstance::new());
        let mut memo = MemoInstance::new(Box::new(MatrixInstance::new()));
        for action in prelude.iter().chain(&actions) {
            let a = apply(plain.as_mut(), action);
            let b = apply(&mut memo, action);
            prop_assert_eq!(a, b, "mid-run read diverged at {:?}", action);
        }
        // Final sweep: every matrix buffer must agree bit-for-bit.
        for index in 1..7 {
            let a = plain.get_transition_matrix(index).unwrap_or_default();
            let b = memo.get_transition_matrix(index).unwrap_or_default();
            let ab: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(ab, bb, "matrix {} diverged", index);
        }
    }

    /// Counter sanity under random interleavings: every requested matrix
    /// is either skipped (its destination held it), reused from the store,
    /// or computed. A call with unique targets is split that way; a call
    /// naming a target twice is computed whole.
    #[test]
    fn stats_are_consistent_under_any_interleaving(
        raw in proptest::collection::vec(0u64..u64::MAX, 1..24),
    ) {
        let actions: Vec<Action> = raw.iter().map(|&r| decode(r)).collect();
        let mut memo = MemoInstance::new(Box::new(MatrixInstance::new()));
        let prelude = [
            Action::SetEigen { index: 0, variant: 0 },
            Action::SetEigen { index: 1, variant: 1 },
            Action::SetRates { variant: 0 },
        ];
        let (mut requested, mut repeated) = (0u64, 0u64);
        for action in prelude.iter().chain(&actions) {
            if let Action::UpdateMatrices { targets, .. } = action {
                let mut seen = std::collections::HashSet::new();
                if targets.iter().all(|&(m, _)| seen.insert(m)) {
                    requested += targets.len() as u64;
                } else {
                    repeated += targets.len() as u64;
                }
            }
            apply(&mut memo, action);
        }
        let s = memo.memo_stats().unwrap();
        prop_assert_eq!(
            s.matrices_skipped + s.matrices_reused + s.matrices_computed,
            requested + repeated
        );
        prop_assert!(s.matrices_computed >= repeated);
    }
}
