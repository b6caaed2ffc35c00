//! The correctness gate: results must agree with the pruning oracle, and
//! replays of one trajectory must agree bit for bit.

use beagle_mcmc::Sample;
use beagle_phylo::likelihood::log_likelihood;

use crate::workload::Inputs;

/// Largest relative error accepted against the oracle.
pub const REL_TOL: f64 = 1e-9;

/// `Ok` when `lnl` is finite and within [`REL_TOL`] of `oracle`.
fn agrees(lnl: f64, oracle: f64) -> Result<(), String> {
    let rel = ((lnl - oracle) / oracle).abs();
    if lnl.is_finite() && rel <= REL_TOL {
        Ok(())
    } else {
        Err(format!(
            "lnL {lnl} vs oracle {oracle}: relative error {rel:e} > {REL_TOL:e}"
        ))
    }
}

/// Recompute a cold-chain posterior sample's log-likelihood with
/// `beagle_phylo::likelihood::log_likelihood` on its own tree and model.
pub fn sample_matches_oracle(sample: &Sample, inputs: &Inputs) -> Result<(), String> {
    let oracle = log_likelihood(
        &sample.tree,
        &sample.params.build(),
        &inputs.problem.rates,
        &inputs.problem.patterns,
    );
    agrees(sample.log_likelihood, oracle)
        .map_err(|e| format!("generation {} sample: {e}", sample.generation))
}

/// Whether two traces are identical bit for bit.
pub fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Scale, Workload};

    #[test]
    fn gate_rejects_a_perturbed_log_likelihood() {
        let inputs = Inputs::generate(Workload::McmcNuc, 5, Scale::Tiny);
        let oracle = log_likelihood(
            &inputs.problem.tree,
            &inputs.params.build(),
            &inputs.problem.rates,
            &inputs.problem.patterns,
        );
        let mut sample = Sample {
            generation: 10,
            tree: inputs.problem.tree.clone(),
            params: inputs.params,
            log_likelihood: oracle,
        };
        assert!(sample_matches_oracle(&sample, &inputs).is_ok());
        sample.log_likelihood = oracle * (1.0 + 1e-8);
        assert!(sample_matches_oracle(&sample, &inputs).is_err());
        sample.log_likelihood = f64::NAN;
        assert!(sample_matches_oracle(&sample, &inputs).is_err());
    }

    #[test]
    fn traces_compare_bitwise() {
        assert!(bit_identical(&[1.0, -2.5], &[1.0, -2.5]));
        assert!(!bit_identical(&[0.0], &[-0.0]));
        assert!(!bit_identical(&[1.0], &[1.0, 1.0]));
    }
}
