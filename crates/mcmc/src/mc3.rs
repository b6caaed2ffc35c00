//! Metropolis-coupled MCMC (MC³): multiple chains at different temperatures
//! with periodic state swaps, run concurrently — "MrBayes uses MPI to
//! concurrently compute separate Markov chain Monte Carlo chains across
//! processors" (§VIII-C); here the ranks are threads, each owning its own
//! likelihood engine (its own BEAGLE instance), which is exactly how
//! MrBayes+BEAGLE deploys.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use beagle_phylo::Tree;

use crate::chain::{log_posterior, ChainStats, MarkovChain, ModelParams};
use crate::engine::LikelihoodEngine;

/// MC³ run configuration.
#[derive(Clone, Copy, Debug)]
pub struct Mc3Config {
    /// Number of coupled chains (MrBayes default 4).
    pub chains: usize,
    /// Total generations per chain.
    pub generations: usize,
    /// Generations between swap attempts.
    pub swap_interval: usize,
    /// Generations between cold-chain posterior samples (0 = don't sample).
    pub sample_interval: usize,
    /// Heating increment λ: chain `i` runs at β = 1/(1 + λ·i).
    pub heating: f64,
    /// Master RNG seed.
    pub seed: u64,
}

impl Default for Mc3Config {
    fn default() -> Self {
        Self {
            chains: 4,
            generations: 1000,
            swap_interval: 10,
            sample_interval: 10,
            heating: 0.1,
            seed: 1,
        }
    }
}

/// Outcome of an MC³ run.
pub struct Mc3Result {
    /// Cold-chain log-likelihood trace (one sample per swap round).
    pub cold_trace: Vec<f64>,
    /// Final cold-chain log-likelihood.
    pub final_log_likelihood: f64,
    /// Per-chain proposal statistics.
    pub chain_stats: Vec<ChainStats>,
    /// Swap attempts / acceptances.
    pub swaps_attempted: usize,
    /// Accepted swaps.
    pub swaps_accepted: usize,
    /// Total likelihood-engine time summed over chains (simulated time for
    /// simulated devices, wall time otherwise).
    pub likelihood_time: Duration,
    /// Wall-clock duration of the whole run.
    pub wall_time: Duration,
    /// Cold-chain posterior samples (taken every `sample_interval`
    /// generations, aligned to swap rounds).
    pub posterior: crate::posterior::Posterior,
}

/// Run MC³: `engines[i]` provides the likelihood for chain `i`.
///
/// Chains advance concurrently between swap points (scoped threads, one per
/// chain/engine — the "MPI rank" analogue).
pub fn run_mc3(
    config: &Mc3Config,
    starting_tree: &Tree,
    params: ModelParams,
    engines: &mut [Box<dyn LikelihoodEngine>],
) -> Mc3Result {
    assert_eq!(engines.len(), config.chains, "one engine per chain");
    assert!(config.chains >= 1);
    let wall_start = Instant::now();
    let mut master_rng = SmallRng::seed_from_u64(config.seed);

    // Initialize chains.
    let mut chains: Vec<MarkovChain> = engines
        .iter_mut()
        .enumerate()
        .map(|(i, engine)| {
            let beta = 1.0 / (1.0 + config.heating * i as f64);
            MarkovChain::new(
                starting_tree.clone(),
                params,
                beta,
                config.seed.wrapping_add(1000 + i as u64),
                engine.as_mut(),
            )
        })
        .collect();

    let mut cold_trace = Vec::new();
    let mut posterior = crate::posterior::Posterior::new();
    let mut swaps_attempted = 0;
    let mut swaps_accepted = 0;
    let rounds = config.generations / config.swap_interval.max(1);

    for round in 0..rounds {
        // Advance every chain concurrently for one swap interval.
        std::thread::scope(|scope| {
            for (chain, engine) in chains.iter_mut().zip(engines.iter_mut()) {
                scope.spawn(move || chain.advance(config.swap_interval, engine.as_mut()));
            }
        });

        // Attempt one swap between a random adjacent pair (MrBayes swaps
        // random pairs; adjacent-temperature swaps mix best).
        if config.chains >= 2 {
            let i = master_rng.random_range(0..config.chains - 1);
            let j = i + 1;
            let (pi, pj) = (
                log_posterior(&chains[i].state),
                log_posterior(&chains[j].state),
            );
            let (bi, bj) = (chains[i].beta, chains[j].beta);
            let log_ratio = (bi - bj) * (pj - pi);
            swaps_attempted += 1;
            if log_ratio >= 0.0 || master_rng.random_range(0.0..1.0) < log_ratio.exp() {
                // Swap the *states*, keep temperatures in place.
                let tmp = chains[i].state.clone();
                chains[i].state = chains[j].state.clone();
                chains[j].state = tmp;
                swaps_accepted += 1;
            }
        }
        cold_trace.push(chains[0].state.log_likelihood);

        // Cold-chain posterior sampling, aligned to swap rounds.
        let generation = (round + 1) * config.swap_interval;
        if config.sample_interval > 0 && generation.is_multiple_of(config.sample_interval) {
            posterior.record(crate::posterior::Sample {
                generation,
                tree: chains[0].state.tree.clone(),
                params: chains[0].state.params,
                log_likelihood: chains[0].state.log_likelihood,
            });
        }
    }

    Mc3Result {
        final_log_likelihood: chains[0].state.log_likelihood,
        cold_trace,
        chain_stats: chains.iter().map(|c| c.stats).collect(),
        swaps_attempted,
        swaps_accepted,
        likelihood_time: engines.iter().map(|e| e.elapsed()).sum(),
        wall_time: wall_start.elapsed(),
        posterior,
    }
}

/// Run MC³ against a remote likelihood service: one blocking client
/// connection per chain (the "MPI rank" analogue, over sockets), all
/// multiplexed server-side onto the service's instance pool.
///
/// Delegates to [`run_mc3`] with [`crate::engine::RemoteEngine`]s, so the
/// master RNG and every chain RNG are consumed in exactly the same order as
/// a local run — and since WIRE-v2 round trips are bit-exact, the cold
/// trace is bit-identical to [`run_mc3`] on local engines of the same
/// implementation with the same seed.
pub fn run_mc3_remote(
    config: &Mc3Config,
    starting_tree: &Tree,
    params: ModelParams,
    endpoint: &beagle_server::Endpoint,
    patterns: &beagle_phylo::SitePatterns,
    rates: &beagle_phylo::SiteRates,
    scaled: bool,
) -> Result<Mc3Result, beagle_server::ClientError> {
    let mut engines: Vec<Box<dyn LikelihoodEngine>> = Vec::with_capacity(config.chains);
    for _ in 0..config.chains {
        engines.push(Box::new(crate::engine::RemoteEngine::connect(
            endpoint.clone(),
            patterns.clone(),
            rates.clone(),
            scaled,
        )?));
    }
    Ok(run_mc3(config, starting_tree, params, &mut engines))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NativeEngine;
    use beagle_phylo::simulate::simulate_alignment;
    use beagle_phylo::{SitePatterns, SiteRates};

    fn engines(
        n: usize,
        taxa: usize,
        patterns: &SitePatterns,
        rates: &SiteRates,
    ) -> Vec<Box<dyn LikelihoodEngine>> {
        (0..n)
            .map(|_| {
                Box::new(NativeEngine::<f64>::new(
                    taxa,
                    patterns.clone(),
                    rates.clone(),
                    4,
                )) as Box<dyn LikelihoodEngine>
            })
            .collect()
    }

    #[test]
    fn mc3_runs_and_improves_from_perturbed_start() {
        let mut rng = SmallRng::seed_from_u64(21);
        let true_tree = Tree::random(8, 0.1, &mut rng);
        let model = ModelParams::Nucleotide { kappa: 3.0 }.build();
        let rates = SiteRates::constant();
        let aln = simulate_alignment(&true_tree, &model, &rates, 400, &mut rng);
        let patterns = SitePatterns::compress(&aln);

        // Start from a random tree (not the truth).
        let start = Tree::random(8, 0.1, &mut rng);
        let config = Mc3Config {
            chains: 4,
            generations: 400,
            swap_interval: 10,
            sample_interval: 10,
            heating: 0.1,
            seed: 3,
        };
        let mut eng = engines(4, 8, &patterns, &rates);
        let result = run_mc3(
            &config,
            &start,
            ModelParams::Nucleotide { kappa: 2.0 },
            &mut eng,
        );

        assert_eq!(result.cold_trace.len(), 40);
        assert!(result.swaps_attempted > 0);
        assert!(result.final_log_likelihood.is_finite());
        // The sampler should improve on the starting likelihood.
        let first = result.cold_trace[0];
        assert!(
            result.final_log_likelihood >= first,
            "final {} vs first {}",
            result.final_log_likelihood,
            first
        );
        assert!(result.likelihood_time > Duration::ZERO);
    }

    #[test]
    fn single_chain_works() {
        let mut rng = SmallRng::seed_from_u64(22);
        let tree = Tree::random(5, 0.1, &mut rng);
        let model = ModelParams::Nucleotide { kappa: 2.0 }.build();
        let rates = SiteRates::constant();
        let aln = simulate_alignment(&tree, &model, &rates, 100, &mut rng);
        let patterns = SitePatterns::compress(&aln);
        let config = Mc3Config {
            chains: 1,
            generations: 50,
            swap_interval: 5,
            sample_interval: 5,
            heating: 0.1,
            seed: 4,
        };
        let mut eng = engines(1, 5, &patterns, &rates);
        let result = run_mc3(
            &config,
            &tree,
            ModelParams::Nucleotide { kappa: 2.0 },
            &mut eng,
        );
        assert_eq!(
            result.swaps_attempted, 0,
            "no swap partner for a single chain"
        );
        assert!(result.final_log_likelihood.is_finite());
    }

    #[test]
    fn posterior_collected_at_sample_interval() {
        let mut rng = SmallRng::seed_from_u64(31);
        let tree = Tree::random(6, 0.1, &mut rng);
        let model = ModelParams::Nucleotide { kappa: 2.0 }.build();
        let rates = SiteRates::constant();
        let aln = simulate_alignment(&tree, &model, &rates, 150, &mut rng);
        let patterns = SitePatterns::compress(&aln);
        let config = Mc3Config {
            chains: 2,
            generations: 100,
            swap_interval: 10,
            sample_interval: 20,
            heating: 0.1,
            seed: 5,
        };
        let mut eng = engines(2, 6, &patterns, &rates);
        let result = run_mc3(
            &config,
            &tree,
            ModelParams::Nucleotide { kappa: 2.0 },
            &mut eng,
        );
        // Samples at generations 20, 40, 60, 80, 100.
        assert_eq!(result.posterior.len(), 5);
        let gens: Vec<usize> = result
            .posterior
            .samples()
            .iter()
            .map(|s| s.generation)
            .collect();
        assert_eq!(gens, vec![20, 40, 60, 80, 100]);
        // Summaries are well-formed.
        let k = result.posterior.kappa_summary();
        assert!(k.mean > 0.0 && k.lower95 <= k.mean && k.mean <= k.upper95);
        assert!(!result.posterior.clade_supports().is_empty());
        // sample_interval = 0 disables collection.
        let config2 = Mc3Config {
            sample_interval: 0,
            ..config
        };
        let mut eng = engines(2, 6, &patterns, &rates);
        let r2 = run_mc3(
            &config2,
            &tree,
            ModelParams::Nucleotide { kappa: 2.0 },
            &mut eng,
        );
        assert!(r2.posterior.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = SmallRng::seed_from_u64(23);
        let tree = Tree::random(6, 0.1, &mut rng);
        let model = ModelParams::Nucleotide { kappa: 2.0 }.build();
        let rates = SiteRates::constant();
        let aln = simulate_alignment(&tree, &model, &rates, 150, &mut rng);
        let patterns = SitePatterns::compress(&aln);
        let config = Mc3Config {
            chains: 2,
            generations: 100,
            swap_interval: 10,
            sample_interval: 10,
            heating: 0.15,
            seed: 9,
        };
        let run = || {
            let mut eng = engines(2, 6, &patterns, &rates);
            run_mc3(
                &config,
                &tree,
                ModelParams::Nucleotide { kappa: 2.0 },
                &mut eng,
            )
            .cold_trace
        };
        assert_eq!(run(), run(), "same seed, same trajectory");
    }
}
