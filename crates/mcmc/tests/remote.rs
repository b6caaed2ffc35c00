//! Differential test: MC³ over the likelihood service must reproduce a
//! local run **bit-for-bit**. `run_mc3_remote` consumes the master and
//! chain RNGs exactly as `run_mc3` does, and WIRE-v2 round trips are
//! bit-exact, so the cold-chain trace and every swap decision must be
//! identical whether the likelihoods come from in-process engines or from
//! a loopback server multiplexing the same implementation.

use beagle_core::{InstanceConfig, InstanceSpec};
use beagle_mcmc::{
    run_mc3, run_mc3_remote, BeagleEngine, LikelihoodEngine, Mc3Config, ModelParams,
};
use beagle_phylo::simulate::simulate_alignment;
use beagle_phylo::{SitePatterns, SiteRates, Tree};
use beagle_server::ServerBuilder;
use genomictest::full_manager;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn remote_mc3_cold_trace_is_bit_identical_to_local() {
    let taxa = 6;
    let mut rng = SmallRng::seed_from_u64(41);
    let true_tree = Tree::random(taxa, 0.1, &mut rng);
    let model = ModelParams::Nucleotide { kappa: 3.0 }.build();
    let rates = SiteRates::constant();
    let aln = simulate_alignment(&true_tree, &model, &rates, 150, &mut rng);
    let patterns = SitePatterns::compress(&aln);
    let start = Tree::random(taxa, 0.1, &mut rng);
    let params = ModelParams::Nucleotide { kappa: 2.0 };
    let config = Mc3Config {
        chains: 2,
        generations: 60,
        swap_interval: 10,
        sample_interval: 10,
        heating: 0.1,
        seed: 17,
    };
    let manager = full_manager();
    let spec = InstanceSpec::with_config(InstanceConfig::for_tree(
        taxa,
        patterns.pattern_count(),
        4,
        rates.category_count(),
    ));

    // Local reference: one pinned CPU-serial BeagleEngine per chain.
    let mut local_engines: Vec<Box<dyn LikelihoodEngine>> = (0..config.chains)
        .map(|_| {
            let inst = spec
                .clone()
                .named("CPU-serial")
                .instantiate(&manager)
                .expect("local instance");
            Box::new(BeagleEngine::new(
                inst,
                patterns.clone(),
                rates.clone(),
                true,
            )) as Box<dyn LikelihoodEngine>
        })
        .collect();
    let local = run_mc3(&config, &start, params, &mut local_engines);

    // Remote run: a loopback server pinned to the same implementation.
    let server = ServerBuilder::from_spec(spec)
        .workers(2)
        .pin(["CPU-serial"])
        .tcp("127.0.0.1:0")
        .serve(&manager)
        .expect("server starts");
    let endpoint = beagle_server::Endpoint::Tcp(server.tcp_addr().expect("tcp").to_string());
    let remote = run_mc3_remote(&config, &start, params, &endpoint, &patterns, &rates, true)
        .expect("remote MC3 run");
    assert!(server.drain(None), "idle server must drain fully");

    let local_bits: Vec<u64> = local.cold_trace.iter().map(|x| x.to_bits()).collect();
    let remote_bits: Vec<u64> = remote.cold_trace.iter().map(|x| x.to_bits()).collect();
    assert_eq!(
        remote_bits, local_bits,
        "remote cold trace must be bit-identical to the local run"
    );
    assert_eq!(
        remote.final_log_likelihood.to_bits(),
        local.final_log_likelihood.to_bits()
    );
    assert_eq!(remote.swaps_attempted, local.swaps_attempted);
    assert_eq!(
        remote.swaps_accepted, local.swaps_accepted,
        "identical likelihoods and RNG streams must yield identical swaps"
    );
}
