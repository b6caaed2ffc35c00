//! Operation lists with write-after-write, write-after-read and scale-target
//! hazards. A list is a sequential program: the threaded back-ends may run
//! independent operations together only where that leaves what running the
//! list in order leaves. Every implementation, eager and queued, must leave
//! CPU-serial's partials and log-likelihood bits.

use beagle::harness::{full_manager, ModelKind, Problem, Scenario};
use beagle::prelude::*;

fn op(dest: usize, c1: usize, c2: usize) -> Operation {
    Operation::new(dest, c1, c1, c2, c2)
}

/// One hazard case: the calls to make, the buffers to read back, the root
/// to integrate, the scale buffers its cumulative scaling sums, and the
/// tips whose partials are made so small that the operations reading them
/// rescale.
struct Case {
    name: &'static str,
    calls: Vec<Vec<Operation>>,
    read: Vec<usize>,
    root: usize,
    scales: Vec<usize>,
    tiny: Vec<usize>,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            // The second write of 5 must wait for 6 to read the first (WAR)
            // and land after it (WAW); 7 reads 6 and the second 5.
            name: "waw+war",
            calls: vec![vec![op(5, 0, 1), op(6, 5, 2), op(5, 3, 4), op(7, 6, 5)]],
            read: vec![5, 6, 7],
            root: 7,
            scales: vec![],
            tiny: vec![],
        },
        Case {
            // 5 exists before the call; 6 must read it before 5 is rewritten.
            name: "war",
            calls: vec![vec![op(5, 0, 1)], vec![op(6, 5, 2), op(5, 3, 4)]],
            read: vec![5, 6],
            root: 6,
            scales: vec![],
            tiny: vec![],
        },
        Case {
            // Two operations write scale buffer 0; the second's factors
            // stay. Tiny tips make both write factors other than zero.
            name: "scale twice",
            calls: vec![vec![
                op(5, 0, 1).with_scaling(0),
                op(6, 2, 3).with_scaling(0),
                op(7, 5, 6).with_scaling(1),
            ]],
            read: vec![5, 6, 7],
            root: 7,
            scales: vec![0, 1],
            tiny: vec![0, 2],
        },
    ]
}

/// What one pass over a case leaves, as bits: every read-back buffer and
/// the root log-likelihood.
#[derive(PartialEq)]
struct Bits {
    partials: Vec<Vec<u64>>,
    lnl: u64,
}

/// Run `case` `passes` times on one instance of implementation `name`;
/// after the first pass the memo layer sees the list again over unchanged
/// inputs.
fn run(p: &Problem, name: &str, flags: Flags, case: &Case, passes: usize) -> Vec<Bits> {
    let mut inst = full_manager()
        .create_instance_by_name(name, &p.config(), flags)
        .unwrap_or_else(|e| panic!("{name} {flags:?}: {e}"));
    let nodes = inst.config().matrix_buffer_count;
    let matrices: Vec<usize> = (0..nodes).collect();
    let lengths: Vec<f64> = (0..nodes).map(|i| 0.05 + 0.02 * i as f64).collect();
    p.load(inst.as_mut());
    inst.update_transition_matrices(0, &matrices, &lengths)
        .unwrap();
    // Below the rescale window of the precision: 2^-31 in f32, 2^-255 in
    // f64.
    let tiny = if flags.contains(Flags::PRECISION_SINGLE) {
        1e-15
    } else {
        1e-90
    };
    let s = inst.config().state_count;
    for &tip in &case.tiny {
        let partials: Vec<f64> = (p.patterns.tip_states(tip).iter())
            .flat_map(|&st| (0..s).map(move |k| if k == st as usize { tiny } else { 0.0 }))
            .collect();
        inst.set_tip_partials(tip, &partials).unwrap();
    }
    (0..passes)
        .map(|_| {
            for call in &case.calls {
                inst.update_partials(call).unwrap();
            }
            let scaling = if case.scales.is_empty() {
                ScalingMode::None
            } else {
                let c = inst.config().scale_buffer_count - 1;
                inst.reset_scale_factors(c).unwrap();
                inst.accumulate_scale_factors(&case.scales, c).unwrap();
                ScalingMode::cumulative(c)
            };
            let lnl = inst
                .integrate_root(BufferId(case.root), BufferId(0), BufferId(0), scaling)
                .unwrap();
            let partials = (case.read.iter())
                .map(|&b| {
                    let v = inst.get_partials(b).unwrap();
                    v.iter().map(|x| x.to_bits()).collect()
                })
                .collect();
            Bits {
                partials,
                lnl: lnl.to_bits(),
            }
        })
        .collect()
}

/// Above the threading threshold, so every threaded model levels.
fn problem() -> Problem {
    Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 5,
        patterns: 600,
        categories: 2,
        seed: 22,
    })
}

/// Every implementation name, each with the flags of every precision and
/// queue mode. OpenCL-x86 runs on the host and fuses only where the host
/// has FMA (and no scalar override is set), so it counts only there.
fn implementations() -> Vec<(String, Flags)> {
    let names = full_manager().implementation_names();
    assert_eq!(names.len(), 11, "{names:?}");
    let mut all = Vec::new();
    for name in names {
        if name == "OpenCL-x86" && !beagle::cpu::host_fma_available() {
            continue;
        }
        for precision in [Flags::PRECISION_DOUBLE, Flags::PRECISION_SINGLE] {
            for mode in [Flags::COMPUTATION_SYNCH, Flags::COMPUTATION_ASYNCH] {
                all.push((name.clone(), precision | mode));
            }
        }
    }
    all
}

/// Every implementation, eager and queued, f64 and f32, leaves CPU-serial's
/// partials. Its lnL bits equal those of the in-order implementation on its
/// kernel table: CPU-SSE for the vectorized CPU models (whose root sum
/// associates differently in f32), CPU-serial for every other.
#[test]
fn hazard_lists_leave_serial_bits_on_every_implementation() {
    let p = problem();
    for case in cases() {
        for (name, flags) in implementations() {
            let precision = flags & (Flags::PRECISION_DOUBLE | Flags::PRECISION_SINGLE);
            let serial = &run(&p, "CPU-serial", precision, &case, 1)[0];
            let sse;
            let in_order = if name.ends_with("SSE") {
                sse = run(&p, "CPU-SSE", precision, &case, 1);
                &sse[0]
            } else {
                serial
            };
            let what = format!("{}: {name} {flags:?}", case.name);
            let got = &run(&p, &name, flags, &case, 1)[0];
            for (k, (g, e)) in got.partials.iter().zip(&serial.partials).enumerate() {
                assert!(g == e, "{what}: read-back {k} differs from CPU-serial");
            }
            assert_eq!(got.lnl, in_order.lnl, "{what}: lnL bits");
        }
    }
}

/// A second pass over a hazard list, inputs unchanged, leaves the first
/// pass's bits. The memo layer may skip an operation only when its
/// destination and scale buffer still hold what it would write, which a
/// rewrite earlier in the same list undoes.
#[test]
fn a_repeated_hazard_list_leaves_the_same_bits() {
    let p = problem();
    for case in cases() {
        for (name, flags) in implementations() {
            let passes = run(&p, &name, flags, &case, 2);
            assert!(
                passes[0] == passes[1],
                "{}: {name} {flags:?}: the second pass changed bits",
                case.name
            );
        }
    }
}
