//! No partials kernel relies on a zeroed destination. A reused destination
//! buffer is handed to the kernels with its old contents, so every kernel
//! must assign every live lane. Here each operation's destination is filled
//! with NaN through `set_partials` before a scaled `update_partials`; on
//! every CPU and accelerator implementation, in both precisions, for
//! nucleotide and codon models, the result must be bit-identical to a fresh
//! instance's, whose destinations start out freshly allocated.

use beagle::harness::{full_manager, ModelKind, Problem, Scenario};
use beagle::prelude::*;

/// Log-likelihood, site log-likelihoods and every destination's partials,
/// as bit patterns.
fn scaled_run(problem: &Problem, inst: &mut dyn BeagleInstance, poison: bool) -> Vec<u64> {
    problem.load(inst);
    let ops = problem.operations(true);
    if poison {
        let nan = vec![f64::NAN; problem.config().partials_len()];
        for op in &ops {
            inst.set_partials(op.destination, &nan).unwrap();
        }
    }
    let mut bits = vec![problem.evaluate(inst, true).to_bits()];
    bits.extend(
        inst.get_site_log_likelihoods()
            .unwrap()
            .iter()
            .map(|x| x.to_bits()),
    );
    for op in &ops {
        bits.extend(
            inst.get_partials(op.destination)
                .unwrap()
                .iter()
                .map(|x| x.to_bits()),
        );
    }
    bits
}

#[test]
fn nan_poisoned_destinations_change_no_bits() {
    let manager = full_manager();
    let mut tested = 0;
    for (model, patterns) in [(ModelKind::Nucleotide, 120), (ModelKind::Codon, 24)] {
        let problem = Problem::generate(&Scenario {
            model,
            taxa: 6,
            patterns,
            categories: 4,
            seed: 11,
        });
        for name in manager.implementation_names() {
            for precision in [Flags::PRECISION_DOUBLE, Flags::PRECISION_SINGLE] {
                let create =
                    || manager.create_instance_by_name(&name, &problem.config(), precision);
                let (Ok(mut fresh), Ok(mut poisoned)) = (create(), create()) else {
                    continue; // e.g. a factory without this state count
                };
                let expect = scaled_run(&problem, fresh.as_mut(), false);
                let got = scaled_run(&problem, poisoned.as_mut(), true);
                assert!(
                    got == expect,
                    "{name} {model:?} {precision:?}: NaN-poisoned destinations changed the result"
                );
                tested += 1;
            }
        }
    }
    assert!(
        tested >= 40,
        "expected most implementations to run, got {tested}"
    );
}
