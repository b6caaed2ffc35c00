//! Multi-device likelihood computation — the paper's future-work feature.
//!
//! Splits one large nucleotide problem across a simulated GPU and the host
//! CPU from within a *single* logical instance ([`PartitionedInstance`]),
//! with the pattern split weighted by a quick per-device calibration run —
//! "computation dynamically load balanced across multiple devices… the
//! library would select the best implementation for each data subset and
//! hardware pair" (paper, Conclusion).
//!
//! Run: `cargo run --release --example multi_device`

use beagle::core::multi::{ChildSelection, PartitionedInstance};
use beagle::harness::{benchmark, full_manager, ModelKind, Problem, Scenario};
use beagle::prelude::*;

fn main() {
    let scenario = Scenario {
        model: ModelKind::Nucleotide,
        taxa: 12,
        patterns: 20_000,
        categories: 4,
        seed: 31,
    };
    let problem = Problem::generate(&scenario);
    let manager = full_manager();
    println!(
        "problem: 12 taxa, {} unique patterns, 4 categories\n",
        problem.patterns.pattern_count()
    );

    // Calibrate: measure each candidate device on a small probe problem.
    let probe = Problem::generate(&Scenario {
        patterns: 2_000,
        ..scenario
    });
    let devices = [
        (
            "GPU (simulated, via OpenCL)",
            Flags::NONE,
            Flags::FRAMEWORK_OPENCL | Flags::PROCESSOR_GPU,
        ),
        (
            "host CPU (thread pool)",
            Flags::NONE,
            Flags::THREADING_THREAD_POOL,
        ),
    ];
    let mut weights = Vec::new();
    for (label, prefs, reqs) in devices {
        let mut inst = InstanceSpec::with_config(probe.config())
            .prefer(prefs)
            .require(reqs)
            .instantiate(&manager)
            .unwrap();
        let report = benchmark(&probe, inst.as_mut(), 2);
        println!(
            "calibration: {label:<28} {:>9.2} GFLOPS ({})",
            report.gflops,
            if report.simulated {
                "modeled"
            } else {
                "measured"
            }
        );
        weights.push(report.gflops);
    }

    // Build the partitioned instance with throughput-proportional ranges.
    let selections: Vec<ChildSelection> = devices
        .iter()
        .map(|&(_, p, r)| ChildSelection::from_flags(p, r))
        .collect();
    let spec = InstanceSpec::with_config(problem.config());
    let mut multi = PartitionedInstance::create(&manager, &spec, &selections, &weights).unwrap();
    println!(
        "\nlogical instance: {}",
        multi.details().implementation_name
    );
    for i in 0..multi.device_count() {
        let (p0, p1) = multi.range(i);
        println!(
            "  device {i}: patterns {p0:>6}..{p1:<6} ({:.1}% of the problem)",
            (p1 - p0) as f64 / problem.patterns.pattern_count() as f64 * 100.0
        );
    }

    // Evaluate and verify against a single-device run and the oracle.
    problem.load(&mut multi);
    let lnl = problem.evaluate(&mut multi, false);
    let oracle = problem.oracle();
    println!("\npartitioned log-likelihood = {lnl:.4}");
    println!("oracle                     = {oracle:.4}");
    assert!((lnl - oracle).abs() < 1e-6);
    println!("OK: multi-device result matches the reference");
}
