//! Workspace integration: every registered implementation must produce the
//! same likelihood for the same problem — the core guarantee of BEAGLE's
//! uniform API across heterogeneous hardware. Partials and root and edge
//! log-likelihoods are the same bits on every implementation: the kernels
//! share one FMA chain per partial, one site sum, one logarithm and one
//! reduction.

use beagle::core::multi::{ChildSelection, PartitionedInstance};
use beagle::harness::{full_manager, ModelKind, Problem, Scenario};
use beagle::prelude::*;

fn all_backends_agree(model: ModelKind, patterns: usize, categories: usize, seed: u64) {
    let problem = Problem::generate(&Scenario {
        model,
        taxa: 9,
        patterns,
        categories,
        seed,
    });
    let oracle = problem.oracle();
    let manager = full_manager();
    let mut tested = 0;
    for name in manager.implementation_names() {
        for single in [false, true] {
            let precision = if single {
                Flags::PRECISION_SINGLE
            } else {
                Flags::PRECISION_DOUBLE
            };
            let Ok(mut inst) = manager.create_instance_by_name(&name, &problem.config(), precision)
            else {
                continue; // e.g. SSE factory with a codon config
            };
            problem.load(inst.as_mut());
            let lnl = problem.evaluate(inst.as_mut(), single);
            let rel = ((lnl - oracle) / oracle).abs();
            let tol = if single { 1e-4 } else { 1e-10 };
            assert!(
                rel < tol,
                "{name} single={single} {model:?}: {lnl} vs oracle {oracle} (rel {rel:e})"
            );
            tested += 1;
        }
    }
    assert!(tested >= 14, "expected most backends to run, got {tested}");
}

#[test]
fn nucleotide_all_backends() {
    all_backends_agree(ModelKind::Nucleotide, 700, 4, 1);
}

#[test]
fn amino_acid_all_backends() {
    all_backends_agree(ModelKind::AminoAcid, 300, 2, 2);
}

#[test]
fn codon_all_backends() {
    all_backends_agree(ModelKind::Codon, 150, 1, 3);
}

#[test]
fn site_log_likelihoods_agree_between_cpu_and_gpu() {
    let problem = Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 7,
        patterns: 200,
        categories: 2,
        seed: 4,
    });
    let manager = full_manager();
    let mut cpu = manager
        .create_instance_by_name("CPU-serial", &problem.config(), Flags::PRECISION_DOUBLE)
        .unwrap();
    problem.load(cpu.as_mut());
    problem.evaluate(cpu.as_mut(), false);
    let cpu_sites = cpu.get_site_log_likelihoods().unwrap();

    let mut gpu = manager
        .create_instance_by_name(
            "CUDA (NVIDIA Quadro P5000 (simulated))",
            &problem.config(),
            Flags::PRECISION_DOUBLE,
        )
        .unwrap();
    problem.load(gpu.as_mut());
    problem.evaluate(gpu.as_mut(), false);
    let gpu_sites = gpu.get_site_log_likelihoods().unwrap();

    assert_eq!(cpu_sites.len(), gpu_sites.len());
    for (a, b) in cpu_sites.iter().zip(&gpu_sites) {
        assert!((a - b).abs() < 1e-10, "{a} vs {b}");
    }
}

#[test]
fn edge_derivatives_agree_cpu_vs_gpu() {
    let problem = Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 6,
        patterns: 120,
        categories: 2,
        seed: 6,
    });
    let manager = full_manager();
    let root = problem.tree.root();
    let child = problem.tree.node(root).children[0];
    let rest = problem.tree.node(root).children[1];
    let mut results = Vec::new();
    for name in [
        "CPU-serial",
        "CUDA (NVIDIA Quadro P5000 (simulated))",
        "OpenCL-x86",
    ] {
        let mut inst = manager
            .create_instance_by_name(name, &problem.config(), Flags::PRECISION_DOUBLE)
            .unwrap();
        problem.load(inst.as_mut());
        problem.evaluate(inst.as_mut(), false);
        let t = problem.tree.node(child).branch_length;
        // Scratch derivative slots: the root's matrix slot + the rest slot.
        inst.update_transition_derivatives(0, &[child], &[root], &[rest], &[t])
            .unwrap();
        // Parent = rest-side partials is not directly available at the root
        // edge, so use a weaker but exact check: identical triples across
        // back-ends for parent = the root buffer itself.
        let trip = inst
            .integrate_edge_derivatives(
                BufferId(root),
                BufferId(child),
                BufferId(child),
                BufferId(root),
                BufferId(rest),
                BufferId(0),
                BufferId(0),
                ScalingMode::None,
            )
            .unwrap();
        results.push(trip);
    }
    for other in &results[1..] {
        assert!((results[0].0 - other.0).abs() < 1e-9);
        assert!((results[0].1 - other.1).abs() < 1e-9);
        assert!((results[0].2 - other.2).abs() < 1e-9);
    }
}

#[test]
fn partials_readback_matches_across_backends() {
    let problem = Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 5,
        patterns: 50,
        categories: 1,
        seed: 5,
    });
    let manager = full_manager();
    let root = problem.tree.root();
    let mut bufs = Vec::new();
    for name in [
        "CPU-serial",
        "OpenCL-x86",
        "OpenCL-GPU (AMD Radeon R9 Nano (simulated))",
    ] {
        let mut inst = manager
            .create_instance_by_name(name, &problem.config(), Flags::PRECISION_DOUBLE)
            .unwrap();
        problem.load(inst.as_mut());
        problem.evaluate(inst.as_mut(), false);
        bufs.push(inst.get_partials(root).unwrap());
    }
    for other in &bufs[1..] {
        for (a, b) in bufs[0].iter().zip(other) {
            assert!((a - b).abs() < 1e-10);
        }
    }
}

/// One scaled operation on two tips, where every back-end's states×states
/// kernel computes the same products, so any difference comes from
/// rescaling. On every implementation and both precisions, the rescaled
/// partials and the log scale factors are bit-identical, and they follow
/// the power-of-two definition exactly: a pattern whose maximum lies in the
/// window `[2^-W, 2^(W+1))` keeps its bits and log factor 0; any other
/// pattern's maximum lands in `[1, 2)`, its log factor is `E·ln 2`, and
/// `partials · 2^E` equals the unscaled run's partials bit for bit. The
/// matrix columns span octaves around `2^±W/2`, so pattern maxima fall on
/// both sides of both window edges.
#[test]
fn one_scaled_operation_is_bit_identical_on_every_backend() {
    const PATTERNS: usize = 300;
    const CATS: usize = 4;
    let config = InstanceConfig {
        tip_count: 2,
        partials_buffer_count: 5,
        compact_buffer_count: 2,
        state_count: 4,
        pattern_count: PATTERNS,
        eigen_buffer_count: 1,
        matrix_buffer_count: 2,
        category_count: CATS,
        scale_buffer_count: 2,
    };
    // Buffers: tips 0 and 1, unscaled destination 2, scaled destination 3,
    // all-ones root 4 (it integrates to exactly 1, so a site
    // log-likelihood read through it is the accumulated log factor).
    let (unscaled_op, scaled_op) = (
        Operation::new(2, 0, 0, 1, 1),
        Operation {
            destination: 3,
            dest_scale_write: Some(0),
            ..Operation::new(3, 0, 0, 1, 1)
        },
    );
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut draw = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % 10_000) as f64 / 10_000.0
    };
    // Column `j` of every row carries `2^e_j`, `e` = (-W/2 - 6, -W/2 + 6,
    // W/2 - 6, W/2 + 6), so a pattern's maximum is about `2^(e_a + e_b)`
    // for its tip states `a` and `b`: below, around and above the window.
    // Each category adds its own few octaves.
    let mut matrix = |w: i32| -> Vec<f64> {
        let half = w / 2;
        let octaves = [-half - 6, -half + 6, half - 6, half + 6];
        (0..CATS * 16)
            .map(|i| (0.05 + 0.9 * draw()) * 2f64.powi(octaves[i % 4] - (i / 16) as i32))
            .collect()
    };
    let tips: [Vec<u32>; 2] = [
        (0..PATTERNS)
            .map(|p| {
                if p % 11 == 0 {
                    beagle::core::GAP_STATE
                } else {
                    (p * 7 % 4) as u32
                }
            })
            .collect(),
        (0..PATTERNS).map(|p| (p * 5 / 3 % 4) as u32).collect(),
    ];

    let manager = full_manager();
    assert!(manager.implementation_names().len() >= 11);
    for precision in [Flags::PRECISION_DOUBLE, Flags::PRECISION_SINGLE] {
        let single = precision == Flags::PRECISION_SINGLE;
        let w = if single { 31 } else { 255 };
        let window = 2f64.powi(-w)..2f64.powi(w + 1);
        let matrices = [matrix(w), matrix(w)];
        // Patterns below, just inside the bottom, just inside the top, and
        // above the window.
        let mut sides = [0; 4];
        let mut first: Option<(String, Vec<u64>, Vec<u64>)> = None;
        for name in manager.implementation_names() {
            let mut inst = manager
                .create_instance_by_name(&name, &config, precision)
                .unwrap();
            for (tip, states) in tips.iter().enumerate() {
                inst.set_tip_states(tip, states).unwrap();
            }
            for (m, values) in matrices.iter().enumerate() {
                inst.set_transition_matrix(m, values).unwrap();
            }
            inst.set_partials(4, &vec![1.0; config.partials_len()])
                .unwrap();
            inst.set_state_frequencies(0, &[0.25; 4]).unwrap();
            inst.set_category_weights(0, &[0.25; CATS]).unwrap();
            inst.set_pattern_weights(&[1.0; PATTERNS]).unwrap();
            inst.update_partials(&[unscaled_op, scaled_op]).unwrap();
            let unscaled = inst.get_partials(2).unwrap();
            let scaled = inst.get_partials(3).unwrap();
            inst.reset_scale_factors(1).unwrap();
            inst.accumulate_scale_factors(&[0], 1).unwrap();
            inst.integrate_root(
                BufferId(4),
                BufferId(0),
                BufferId(0),
                ScalingMode::cumulative(1),
            )
            .unwrap();
            let log_factors = inst.get_site_log_likelihoods().unwrap();

            let what = format!("{name} single={single}");
            for (p, &log_factor) in log_factors.iter().enumerate() {
                let e = (log_factor / std::f64::consts::LN_2).round() as i32;
                let exact = f64::from(e) * std::f64::consts::LN_2;
                let exact = if single { exact as f32 as f64 } else { exact };
                assert_eq!(
                    log_factor.to_bits(),
                    exact.to_bits(),
                    "log factor {p} {what}"
                );
                let lanes = (0..CATS).flat_map(|c| (0..4).map(move |i| (c * PATTERNS + p) * 4 + i));
                let max = lanes.clone().map(|k| scaled[k]).fold(0.0, f64::max);
                let before = lanes.clone().map(|k| unscaled[k]).fold(0.0, f64::max);
                if window.contains(&before) {
                    assert_eq!(e, 0, "pattern {p} max {before:e} is inside {what}");
                    if before < 2f64.powi(16 - w) {
                        sides[1] += 1;
                    } else if before >= 2f64.powi(w - 15) {
                        sides[2] += 1;
                    }
                } else {
                    assert!((1.0..2.0).contains(&max), "pattern {p} max {max} {what}");
                    sides[if before < 1.0 { 0 } else { 3 }] += 1;
                }
                for k in lanes {
                    assert_eq!(
                        (scaled[k] * 2f64.powi(e)).to_bits(),
                        unscaled[k].to_bits(),
                        "pattern {p} lane {k} times 2^{e} {what}"
                    );
                }
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            match &first {
                None => first = Some((name, bits(&scaled), bits(&log_factors))),
                Some((first_name, partials, factors)) => {
                    assert_eq!(&bits(&scaled), partials, "partials {what} vs {first_name}");
                    assert_eq!(
                        &bits(&log_factors),
                        factors,
                        "factors {what} vs {first_name}"
                    );
                }
            }
        }
        assert!(
            sides.iter().all(|&n| n > 0),
            "single={single} sides {sides:?}"
        );
    }
}

/// Every internal partials buffer of one traversal, in operation order, as
/// bits; `None` when the implementation refuses the configuration.
fn internal_partials(
    p: &Problem,
    name: &str,
    precision: Flags,
    scaled: bool,
) -> Option<Vec<Vec<u64>>> {
    let mut inst = full_manager()
        .create_instance_by_name(name, &p.config(), precision)
        .ok()?;
    p.load(inst.as_mut());
    let ops = p.operations(scaled);
    inst.update_partials(&ops).unwrap();
    Some(
        ops.iter()
            .map(|op| {
                let v = inst.get_partials(op.destination).unwrap();
                v.iter().map(|x| x.to_bits()).collect()
            })
            .collect(),
    )
}

/// Codon and amino-acid traversals, with and without rescaling, in both
/// precisions: every implementation leaves the same internal partials, bit
/// for bit, as the scalar `CPU-serial`. The vectorized CPU kernels run the
/// scalar kernel's FMA chain per destination lane, and the simulated CUDA
/// and OpenCL devices run it in `child_sum` with FMA on (the simulated
/// tips carry no gaps; OpenCL-x86 counts only on a host with FMA). The
/// log-likelihoods built on them are bit-identical too; see
/// `root_and_edge_lnl_are_bit_identical_across_back_ends`.
#[test]
fn wide_state_partials_are_bit_identical_across_back_ends() {
    let manager = full_manager();
    for (model, patterns, categories, seed) in [
        (ModelKind::Codon, 45, 2, 11),
        (ModelKind::AminoAcid, 131, 4, 12),
    ] {
        let p = Problem::generate(&Scenario {
            model,
            taxa: 7,
            patterns,
            categories,
            seed,
        });
        for precision in [Flags::PRECISION_DOUBLE, Flags::PRECISION_SINGLE] {
            for scaled in [false, true] {
                let expect = internal_partials(&p, "CPU-serial", precision, scaled).unwrap();
                let mut compared = Vec::new();
                for name in manager.implementation_names() {
                    // OpenCL-x86 runs on the host and fuses only where the
                    // host has FMA (and no scalar override is set).
                    if name == "OpenCL-x86" && !beagle::cpu::avx2_available() {
                        continue;
                    }
                    let what = format!("{name} {model:?} {precision:?} scaled={scaled}");
                    let Some(got) = internal_partials(&p, &name, precision, scaled) else {
                        continue;
                    };
                    for (k, (g, e)) in got.iter().zip(&expect).enumerate() {
                        assert!(g == e, "operation {k}: {what} differs from CPU-serial");
                    }
                    compared.push(name);
                }
                for required in ["CPU-SSE", "CUDA", "OpenCL-GPU"] {
                    assert!(
                        compared.iter().any(|n| n.starts_with(required)),
                        "{required} not compared: {compared:?}"
                    );
                }
            }
        }
    }
}

/// Root and edge log-likelihoods (the totals and every site value) of one
/// traversal, as bits: the root, then an edge from the root to a tip and
/// one to an internal node.
fn integration_bits(p: &Problem, inst: &mut dyn BeagleInstance, scaled: bool) -> Vec<u64> {
    let root = p.tree.root();
    let mut out = vec![p.evaluate(inst, scaled).to_bits()];
    out.extend(
        inst.get_site_log_likelihoods()
            .unwrap()
            .iter()
            .map(|x| x.to_bits()),
    );
    let scaling = if scaled {
        ScalingMode::cumulative(inst.config().scale_buffer_count - 1)
    } else {
        ScalingMode::None
    };
    let internal = p.operations(false)[0].destination;
    for child in [0, internal] {
        let lnl = inst
            .integrate_edge(
                BufferId(root),
                BufferId(child),
                BufferId(child),
                BufferId(0),
                BufferId(0),
                scaling,
            )
            .unwrap();
        out.push(lnl.to_bits());
        out.extend(
            inst.get_site_log_likelihoods()
                .unwrap()
                .iter()
                .map(|x| x.to_bits()),
        );
    }
    out
}

/// Root and edge lnL bits are equal on every implementation (and a 4-way
/// partitioned instance over four different implementations), for
/// s ∈ {4, 20, 61} × f32/f64 × scaled/unscaled: every back-end forms site
/// values with the one site sum and the one `Real::ln`, and totals them
/// with the one reduction. OpenCL-x86 fuses its partials only where the
/// host has FMA, so it counts only on such a host.
#[test]
fn root_and_edge_lnl_are_bit_identical_across_back_ends() {
    let manager = full_manager();
    for (model, patterns, categories, seed) in [
        (ModelKind::Nucleotide, 203, 4, 21),
        (ModelKind::AminoAcid, 61, 3, 22),
        (ModelKind::Codon, 29, 2, 23),
    ] {
        let p = Problem::generate(&Scenario {
            model,
            taxa: 7,
            patterns,
            categories,
            seed,
        });
        for precision in [Flags::PRECISION_DOUBLE, Flags::PRECISION_SINGLE] {
            for scaled in [false, true] {
                let what = format!("{model:?} {precision:?} scaled={scaled}");
                let mut expect: Option<Vec<u64>> = None;
                let mut compared = Vec::new();
                for name in manager.implementation_names() {
                    if name == "OpenCL-x86" && !beagle::cpu::avx2_available() {
                        continue;
                    }
                    let Ok(mut inst) =
                        manager.create_instance_by_name(&name, &p.config(), precision)
                    else {
                        continue;
                    };
                    p.load(inst.as_mut());
                    let got = integration_bits(&p, inst.as_mut(), scaled);
                    match &expect {
                        None => expect = Some(got),
                        Some(e) => assert!(
                            &got == e,
                            "{name} {what}: lnL bits differ from {}",
                            compared[0]
                        ),
                    }
                    compared.push(name);
                }
                for required in ["CPU-serial", "CPU-SSE", "CUDA", "OpenCL-GPU"] {
                    assert!(
                        model == ModelKind::Codon && required == "CPU-SSE"
                            || compared.iter().any(|n| n.starts_with(required)),
                        "{required} not compared for {what}: {compared:?}"
                    );
                }
                let children: Vec<_> = compared
                    .iter()
                    .rev()
                    .cycle()
                    .take(4)
                    .map(|name| ChildSelection::named(name, Flags::NONE, precision))
                    .collect();
                let spec = InstanceSpec::with_config(p.config()).require(precision);
                let mut multi =
                    PartitionedInstance::create(&manager, &spec, &children, &[1.0, 2.0, 1.0, 3.0])
                        .unwrap();
                p.load(&mut multi);
                assert!(
                    integration_bits(&p, &mut multi, scaled) == expect.unwrap(),
                    "4-way partitioned {what}: lnL bits differ"
                );
            }
        }
    }
}
