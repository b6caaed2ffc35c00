//! `benchmark_resources` determinism.
//!
//! Wall-clock times differ run to run, so the assertions target what the
//! design guarantees is stable: full factory coverage, modeled device
//! times (bit-identical under the roofline model), and eligibility errors.

use beagle::core::Flags;
use beagle::harness::{full_manager, ModelKind, Problem, Scenario};

#[test]
fn benchmark_resources_is_deterministic_where_it_promises_to_be() {
    let p = Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 8,
        patterns: 500,
        categories: 4,
        seed: 7,
    });
    let manager = full_manager();
    let a = manager.benchmark_resources(&p.config(), Flags::NONE);
    let b = manager.benchmark_resources(&p.config(), Flags::NONE);

    // Every registered factory appears exactly once, in both passes.
    assert_eq!(a.len(), manager.factory_count());
    assert_eq!(b.len(), a.len());
    let mut names_a: Vec<&str> = a.iter().map(|e| e.implementation.as_str()).collect();
    let mut names_b: Vec<&str> = b.iter().map(|e| e.implementation.as_str()).collect();
    names_a.sort_unstable();
    names_b.sort_unstable();
    assert_eq!(names_a, names_b);
    names_a.dedup();
    assert_eq!(names_a.len(), a.len(), "duplicate factory in ranking");
    for expected in [
        "CPU-serial",
        "CPU-SSE",
        "CUDA (NVIDIA Quadro P5000 (simulated))",
        "OpenCL-GPU (AMD Radeon R9 Nano (simulated))",
        "OpenCL-x86",
    ] {
        assert!(
            names_a.contains(&expected),
            "ranking is missing {expected}: {names_a:?}"
        );
    }

    // Modeled device times come from the roofline model, not the host
    // clock: bit-identical across passes, present exactly for simulated
    // GPUs, and ranked ahead of errored entries.
    for ea in &a {
        let eb = b
            .iter()
            .find(|e| e.implementation == ea.implementation)
            .expect("same factory set");
        assert_eq!(
            ea.modeled, eb.modeled,
            "{}: modeled time not deterministic",
            ea.implementation
        );
        assert_eq!(
            ea.error, eb.error,
            "{}: eligibility not deterministic",
            ea.implementation
        );
        let simulated = ea.implementation.contains("simulated");
        if ea.error.is_none() {
            assert_eq!(
                ea.modeled.is_some(),
                simulated,
                "{}: modeled time iff simulated device",
                ea.implementation
            );
            assert!(ea.throughput_gflops > 0.0, "{}", ea.implementation);
        }
    }
    let first_error = a.iter().position(|e| e.error.is_some()).unwrap_or(a.len());
    assert!(
        a[first_error..].iter().all(|e| e.error.is_some()),
        "errored entries must sort after measured ones"
    );
}
