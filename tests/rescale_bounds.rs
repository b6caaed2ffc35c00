//! The rescale rule and the CPU instance's rescale bounds.
//!
//! A scaled operation rescales a pattern only when its maximum lies outside
//! the window `[2^-W, 2^(W+1))`, and the CPU instance skips the whole check
//! when per-buffer bounds prove no pattern would leave it. The bounds decide
//! only whether the check runs, never what it computes, so bits must not
//! depend on whether they were known. Near the window's lower edge the
//! rescaled path must still recover an `f64` underflow exactly, and a
//! parent of two unscaled children must stay normal.

use beagle::harness::{full_manager, ModelKind, Problem, Scenario};
use beagle::prelude::*;
use rand::Rng;

/// The CPU implementations, grouped by kernel table: all four threading
/// models on the scalar table, and the serial and pool models on the
/// vectorized one. Bits agree within a group.
const CPU_GROUPS: [&[&str]; 2] = [
    &[
        "CPU-serial",
        "CPU-futures",
        "CPU-threadcreate",
        "CPU-threadpool",
    ],
    &["CPU-SSE", "CPU-threadpool-SSE"],
];

/// A 12-taxon problem (600 patterns, so the pattern-parallel models
/// split the work) whose branch lengths are redrawn log-uniformly from
/// `[1e-8, 10]`: matrices from near-identity to stationary.
fn extreme_problem(seed: u64) -> Problem {
    let mut p = Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 12,
        patterns: 600,
        categories: 4,
        seed,
    });
    let mut rng = rand_seeded(seed ^ 0xB0_B0);
    for node in 0..p.tree.node_count() {
        if node != p.tree.root() {
            p.tree.node_mut(node).branch_length = 10f64.powf(rng.random_range(-8.0..1.0));
        }
    }
    p
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The bits a scaled traversal left: every internal node's partials, then
/// the log-likelihood.
fn scaled_bits(p: &Problem, inst: &mut dyn BeagleInstance) -> Vec<Vec<u64>> {
    let ops = p.operations(true);
    let lnl = finish(p, inst, &ops);
    let mut out: Vec<Vec<u64>> = ops
        .iter()
        .map(|op| bits(&inst.get_partials(op.destination).unwrap()))
        .collect();
    out.push(vec![lnl.to_bits()]);
    out
}

/// Accumulate every operation's scale buffer and integrate the root.
fn finish(p: &Problem, inst: &mut dyn BeagleInstance, ops: &[Operation]) -> f64 {
    let c = inst.config().scale_buffer_count - 1;
    inst.reset_scale_factors(c).unwrap();
    let scales: Vec<usize> = ops.iter().map(|o| o.destination).collect();
    inst.accumulate_scale_factors(&scales, c).unwrap();
    inst.integrate_root(
        BufferId(p.tree.root()),
        BufferId(0),
        BufferId(0),
        ScalingMode::cumulative(c),
    )
    .unwrap()
}

fn instance(p: &Problem, name: &str, precision: Flags, queued: bool) -> Box<dyn BeagleInstance> {
    let mut spec = InstanceSpec::with_config(p.config())
        .named(name)
        .prefer(precision)
        .require(precision)
        .with_stats();
    if queued {
        spec = spec.queued();
    }
    spec.instantiate(&full_manager())
        .unwrap_or_else(|e| panic!("{name} {precision:?}: {e:?}"))
}

/// Random trees with branch lengths from 1e-8 to 10, both precisions, all
/// four threading models, eager and queued: a traversal whose operations
/// each run right after a child was re-uploaded (so the child's bounds,
/// and its parent's, are unknown and every such check runs) leaves the same
/// partials and log-likelihood, bit for bit, as a traversal with the bounds
/// known, where some checks are skipped. Every model and mode on one
/// kernel table leaves the same partials and log-likelihood.
#[test]
fn bound_knowledge_never_changes_bits() {
    for seed in [3, 4] {
        let p = extreme_problem(seed);
        let taxa = p.tree.taxon_count();
        for (precision, group) in [Flags::PRECISION_DOUBLE, Flags::PRECISION_SINGLE]
            .into_iter()
            .flat_map(|precision| CPU_GROUPS.map(|group| (precision, group)))
        {
            let mut first: Option<(String, Vec<Vec<u64>>)> = None;
            for name in group.iter().copied() {
                for queued in [false, true] {
                    let what = format!("seed {seed} {precision:?} {name} queued={queued}");
                    let mut known = instance(&p, name, precision, queued);
                    p.load(known.as_mut());
                    known.update_partials(&p.operations(true)).unwrap();
                    let expect = scaled_bits(&p, known.as_mut());
                    let stats = known.statistics().unwrap();
                    assert!(stats.rescale_checks_skipped > 0, "{what}: nothing skipped");

                    let mut forgetful = instance(&p, name, precision, queued);
                    p.load(forgetful.as_mut());
                    let ops = p.operations(true);
                    for op in &ops {
                        for child in [op.child1, op.child2] {
                            if child >= taxa {
                                let v = forgetful.get_partials(child).unwrap();
                                forgetful.set_partials(child, &v).unwrap();
                            }
                        }
                        forgetful.update_partials(&[*op]).unwrap();
                    }
                    let got = scaled_bits(&p, forgetful.as_mut());
                    let forgot = forgetful.statistics().unwrap();
                    assert!(
                        forgot.rescale_checks_run > stats.rescale_checks_run,
                        "{what}: re-uploads must force checks"
                    );
                    assert_eq!(got, expect, "{what}: bounds changed bits");
                    match &first {
                        None => first = Some((what, expect)),
                        Some((first_what, bits)) => {
                            assert!(&expect == bits, "{what} vs {first_what}")
                        }
                    }
                }
            }
        }
    }
}

/// An MCMC-like chain of branch-length changes on a checkpointed stack:
/// restoring a snapshot taken mid-chain into a fresh manager (whose CPU
/// instance rebuilds its bounds by replay) continues with the same
/// log-likelihoods, bit for bit, as the uninterrupted chain.
#[test]
fn checkpoint_restore_mid_chain_matches_uninterrupted_run() {
    let mut p = extreme_problem(5);
    for precision in [Flags::PRECISION_DOUBLE, Flags::PRECISION_SINGLE] {
        let mut inst = InstanceSpec::with_config(p.config())
            .named("CPU-threadpool-SSE")
            .prefer(precision)
            .require(precision)
            .checkpointed()
            .instantiate(&full_manager())
            .unwrap();
        p.load(inst.as_mut());
        let ops = p.operations(true);
        let mut rng = rand_seeded(11);
        let mut restored: Option<Box<dyn BeagleInstance>> = None;
        for step in 0..8 {
            // Change two branches and recompute their matrices.
            let mut changed = Vec::new();
            for _ in 0..2 {
                let node = rng.random_range(0..p.tree.node_count());
                if node != p.tree.root() {
                    p.tree.node_mut(node).branch_length = 10f64.powf(rng.random_range(-8.0..1.0));
                    changed.push((node, p.tree.node(node).branch_length));
                }
            }
            let (idx, len): (Vec<usize>, Vec<f64>) = changed.into_iter().unzip();
            let mut lnls = Vec::new();
            for target in std::iter::once(&mut inst).chain(restored.as_mut()) {
                target.update_transition_matrices(0, &idx, &len).unwrap();
                target.update_partials(&ops).unwrap();
                lnls.push(finish(&p, target.as_mut(), &ops).to_bits());
            }
            assert!(
                lnls.windows(2).all(|w| w[0] == w[1]),
                "step {step} {precision:?}"
            );
            if step == 3 {
                let snapshot = inst.checkpoint().expect("checkpointed stack snapshots");
                restored = Some(Box::new(snapshot.restore(&full_manager()).unwrap()));
            }
        }
        assert!(restored.is_some());
    }
}

/// `f64` underflow through the checked path: tips uploaded as partials of
/// magnitude `2^-480` make every cherry's pattern maxima fall below the
/// window (a product near `2^-960`), so an unscaled traversal underflows
/// to `-∞` while the scaled one rescales and matches the pruning oracle
/// shifted by `taxa · ln 2^-480` per site, within a relative 1e-9 (the
/// shift makes the log-likelihood about -2e6, whose ulp is 4.7e-10).
#[test]
fn f64_underflow_is_recovered_by_checked_rescaling() {
    let mut p = Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 16,
        patterns: 200,
        categories: 4,
        seed: 21,
    });
    p.tree = Tree::ladder(16, 0.1);
    let taxa = p.tree.taxon_count();
    let s = p.model.state_count();
    let tiny = 2f64.powi(-480);
    let weight: f64 = p.patterns.weights().iter().sum();
    let expect = p.oracle() + taxa as f64 * weight * tiny.ln();
    for name in ["CPU-SSE", "CPU-serial", "CPU-threadpool-SSE"] {
        let mut inst = InstanceSpec::with_config(p.config())
            .named(name)
            .prefer(Flags::PRECISION_DOUBLE)
            .require(Flags::PRECISION_DOUBLE)
            .with_stats()
            .without_rescue()
            .instantiate(&full_manager())
            .unwrap();
        p.load(inst.as_mut());
        for tip in 0..taxa {
            let mut partials = vec![0.0; p.patterns.pattern_count() * s];
            for (q, &state) in partials
                .chunks_exact_mut(s)
                .zip(&p.patterns.tip_states(tip))
            {
                match q.get_mut(state as usize) {
                    Some(x) => *x = tiny,
                    None => q.fill(tiny),
                }
            }
            inst.set_tip_partials(tip, &partials).unwrap();
        }
        inst.update_partials(&p.operations(false)).unwrap();
        let unscaled = inst.integrate_root(
            BufferId(p.tree.root()),
            BufferId(0),
            BufferId(0),
            ScalingMode::None,
        );
        assert!(
            unscaled.map_or(true, |l| !l.is_finite()),
            "{name}: the unscaled traversal must underflow"
        );
        let ops = p.operations(true);
        inst.update_partials(&ops).unwrap();
        let lnl = finish(&p, inst.as_mut(), &ops);
        assert!(
            (lnl - expect).abs() <= 1e-9 * expect.abs(),
            "{name}: {lnl} vs {expect}"
        );
        let stats = inst.statistics().unwrap();
        assert!(stats.patterns_rescaled > 0, "{name}: nothing rescaled");
    }
}

/// A scale buffer that held factors from a check keeps none once a later
/// check on the same destination is skipped: after a traversal whose tips
/// were tiny partials (every cherry rescaled), reloading the tip states
/// and evaluating again gives the bits of a fresh instance.
#[test]
fn a_skipped_check_leaves_no_stale_factors() {
    let p = Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 8,
        patterns: 300,
        categories: 4,
        seed: 9,
    });
    let s = p.model.state_count();
    let ops = p.operations(true);
    for name in ["CPU-SSE", "CPU-threadpool-SSE"] {
        let mut fresh = instance(&p, name, Flags::PRECISION_DOUBLE, false);
        p.load(fresh.as_mut());
        fresh.update_partials(&ops).unwrap();
        let expect = finish(&p, fresh.as_mut(), &ops);

        let mut reused = instance(&p, name, Flags::PRECISION_DOUBLE, false);
        p.load(reused.as_mut());
        for tip in 0..p.tree.taxon_count() {
            let mut partials = vec![0.0; p.patterns.pattern_count() * s];
            for (q, &state) in partials
                .chunks_exact_mut(s)
                .zip(&p.patterns.tip_states(tip))
            {
                match q.get_mut(state as usize) {
                    Some(x) => *x = 2f64.powi(-480),
                    None => q.fill(2f64.powi(-480)),
                }
            }
            reused.set_tip_partials(tip, &partials).unwrap();
        }
        reused.update_partials(&ops).unwrap();
        finish(&p, reused.as_mut(), &ops);
        let before = reused.statistics().unwrap();
        assert!(
            before.patterns_rescaled > 0,
            "{name}: the tiny tips rescale"
        );
        p.load(reused.as_mut());
        reused.update_partials(&ops).unwrap();
        let lnl = finish(&p, reused.as_mut(), &ops);
        let after = reused.statistics().unwrap();
        assert!(
            after.rescale_checks_skipped > before.rescale_checks_skipped,
            "{name}: the second traversal skips checks"
        );
        assert_eq!(lnl.to_bits(), expect.to_bits(), "{name}: {lnl} vs {expect}");
    }
}

/// The headroom of each window: two children whose every entry sits just
/// above `2^-W` are left unscaled, and with a matrix whose every entry is
/// the smallest the headroom argument admits, `2^-((B - 2W)/2)` for the
/// smallest normal `2^-B`, their parent's entries `(s · m · 2^-W)²` stay
/// normal; its own check then moves them into `[1, 2)` exactly.
#[test]
fn a_parent_of_unscaled_children_stays_normal() {
    let s = 4;
    let config = InstanceConfig {
        tip_count: 2,
        partials_buffer_count: 3,
        matrix_buffer_count: 1,
        scale_buffer_count: 1,
        ..InstanceConfig::for_tree(2, 8, s, 2)
    };
    for (precision, w, b) in [
        (Flags::PRECISION_DOUBLE, 255, 1022),
        (Flags::PRECISION_SINGLE, 31, 126),
    ] {
        let mut inst = InstanceSpec::with_config(config)
            .named("CPU-SSE")
            .prefer(precision)
            .require(precision)
            .without_rescue()
            .instantiate(&full_manager())
            .unwrap();
        let child = 2f64.powi(-w) * (1.0 + 2f64.powi(-10));
        let m = 2f64.powi(-(b - 2 * w) / 2);
        for tip in 0..2 {
            inst.set_tip_partials(tip, &vec![child; 8 * s]).unwrap();
        }
        inst.set_transition_matrix(0, &vec![m; 2 * s * s]).unwrap();
        inst.update_partials(&[Operation::new(2, 0, 0, 1, 0)])
            .unwrap();
        let unscaled = inst.get_partials(2).unwrap();
        let smallest_normal = 2f64.powi(-b);
        assert!(
            unscaled.iter().all(|&x| x >= smallest_normal),
            "{precision:?}: {:e}",
            unscaled[0]
        );
        inst.update_partials(&[Operation::new(2, 0, 0, 1, 0).with_scaling(0)])
            .unwrap();
        let scaled = inst.get_partials(2).unwrap();
        let e = (unscaled[0] / scaled[0]).log2();
        assert!(
            scaled.iter().all(|&x| (1.0..2.0).contains(&x)),
            "{precision:?}"
        );
        for (a, u) in scaled.iter().zip(&unscaled) {
            assert_eq!((a * 2f64.powf(e)).to_bits(), u.to_bits(), "{precision:?}");
        }
    }
}
