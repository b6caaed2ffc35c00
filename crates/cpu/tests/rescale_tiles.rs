//! Tile boundaries of the scaled-operation path. A CPU instance runs a
//! scaled operation's partials and rescale tile by tile
//! (`kernels::RESCALE_TILE` patterns); a pool chunk need not start on a
//! tile boundary. At pattern counts around one and two tiles, on the
//! serial, thread-create, thread-pool and futures instances, a scaled
//! traversal must leave the same partials and scale factors, bit for bit,
//! as unscaled operations rescaled afterwards over whole blocks by
//! `kernels::rescale_patterns`. With statistics on, the in-operation
//! rescale books wall time under `KernelClass::Rescale`. The root
//! log-likelihood of such a traversal has the same bits under every
//! threading model of one kernel table, although the thread pool
//! integrates the root in pattern chunks.

use std::sync::Arc;

use beagle_core::api::{BeagleInstance, BufferId, InstanceConfig, InstanceDetails, ScalingMode};
use beagle_core::flags::Flags;
use beagle_core::obs::{KernelClass, Recorder};
use beagle_core::{Operation, GAP_STATE};
use beagle_cpu::instance::Threading;
use beagle_cpu::kernels::{self, RESCALE_TILE};
use beagle_cpu::simd::{avx2_available, DispatchKind, DispatchReal};
use beagle_cpu::{CpuInstance, ThreadPool};

const TAXA: usize = 6;
const CATEGORIES: usize = 4;

/// Balanced tree over six tips: two cherries, then their parents, so the
/// futures model runs operations of one level side by side.
fn operations() -> Vec<Operation> {
    [(6, 0, 1), (7, 2, 3), (8, 6, 4), (9, 7, 5), (10, 8, 9)]
        .into_iter()
        .map(|(dest, a, b)| Operation::new(dest, a, a, b, b).with_scaling(dest - TAXA))
        .collect()
}

fn instance<T: DispatchReal>(
    n_pat: usize,
    s: usize,
    threading: Threading,
    kind: DispatchKind,
) -> CpuInstance<T> {
    let config = InstanceConfig {
        // One extra partials buffer of ones reads scale buffers back.
        partials_buffer_count: 2 * TAXA,
        scale_buffer_count: TAXA,
        ..InstanceConfig::for_tree(TAXA, n_pat, s, CATEGORIES)
    };
    let details = InstanceDetails {
        implementation_name: "rescale-tiles".into(),
        resource_name: "host".into(),
        flags: Flags::NONE,
        thread_count: 2,
    };
    let mut inst = CpuInstance::<T>::with_dispatch_kind(config, threading, kind, details).unwrap();
    inst.set_min_patterns_for_threading(1);
    // Frequencies (1, 0, ...) and weights 1/4 integrate a buffer of ones
    // to exactly 1 on every table.
    let mut freqs = vec![0.0; s];
    freqs[0] = 1.0;
    inst.set_state_frequencies(0, &freqs).unwrap();
    inst.set_category_weights(0, &[0.25; CATEGORIES]).unwrap();
    inst.set_pattern_weights(&vec![1.0; n_pat]).unwrap();
    for mat in 0..config.matrix_buffer_count {
        let m: Vec<f64> = (0..CATEGORIES * s * s)
            .map(|i| 0.02 + ((i * 37 + mat * 11) % 91) as f64 / 300.0)
            .collect();
        inst.set_transition_matrix(mat, &m).unwrap();
    }
    // Tips 0 and 2 as states (gaps included), the rest as partials whose
    // magnitudes spread over `2^±(4W/3)` (`W` the rescale window
    // exponent), so pattern maxima fall on both sides of both window edges
    // and some patterns rescale while others keep factor 1.
    for tip in 0..TAXA {
        if tip % 2 == 0 && tip < 4 {
            let states: Vec<u32> = (0..n_pat)
                .map(|p| match (p * 7 + tip) % 11 {
                    0 => GAP_STATE,
                    k => (k % s) as u32,
                })
                .collect();
            inst.set_tip_states(tip, &states).unwrap();
        } else {
            let partials: Vec<f64> = (0..n_pat * s)
                .map(|i| {
                    let u = ((i * 31 + tip * 17) % 97 + 1) as f64 / 97.0;
                    let octave = (((i / s) * 5 + tip) % 17) as i32 - 8;
                    u * 2f64.powi(octave * T::RESCALE_WINDOW / 6)
                })
                .collect();
            inst.set_tip_partials(tip, &partials).unwrap();
        }
    }
    let ones = vec![1.0; CATEGORIES * n_pat * s];
    inst.set_partials(2 * TAXA - 1, &ones).unwrap();
    inst
}

/// Scale buffer `index` as `f64`: accumulated alone into the cumulative
/// buffer and integrated against the buffer of ones, whose site
/// likelihood is exactly 1, so each site log-likelihood is the factor.
fn scale_buffer<T: DispatchReal>(inst: &mut CpuInstance<T>, index: usize) -> Vec<f64> {
    let cumulative = TAXA - 1;
    inst.reset_scale_factors(cumulative).unwrap();
    inst.accumulate_scale_factors(&[index], cumulative).unwrap();
    inst.integrate_root(
        BufferId(2 * TAXA - 1),
        BufferId(0),
        BufferId(0),
        ScalingMode::cumulative(cumulative),
    )
    .unwrap();
    inst.get_site_log_likelihoods().unwrap()
}

/// Partials and scale factors of every operation, computed one unscaled
/// operation at a time on a serial instance with the same kernel table,
/// then rescaled over whole category blocks by `kernels::rescale_patterns`
/// and written back before the next operation reads them.
fn reference<T: DispatchReal>(
    n_pat: usize,
    s: usize,
    kind: DispatchKind,
) -> Vec<(Vec<f64>, Vec<f64>)> {
    let mut inst = instance::<T>(n_pat, s, Threading::Serial, kind);
    operations()
        .iter()
        .map(|op| {
            let unscaled = Operation {
                dest_scale_write: None,
                ..*op
            };
            inst.update_partials(&[unscaled]).unwrap();
            let mut partials: Vec<T> = inst
                .get_partials(op.destination)
                .unwrap()
                .into_iter()
                .map(T::from_f64)
                .collect();
            let mut scale = vec![T::ZERO; n_pat];
            {
                let mut blocks: Vec<&mut [T]> = partials.chunks_mut(n_pat * s).collect();
                kernels::rescale_patterns(&mut blocks, &mut scale, s);
            }
            let partials: Vec<f64> = partials.iter().map(|x| x.to_f64()).collect();
            inst.set_partials(op.destination, &partials).unwrap();
            (partials, scale.iter().map(|x| x.to_f64()).collect())
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every kernel table this host can run.
fn kinds() -> Vec<DispatchKind> {
    let mut kinds = vec![DispatchKind::Scalar, DispatchKind::Portable];
    if avx2_available() {
        kinds.push(DispatchKind::Avx2);
    }
    kinds
}

/// The four threading models, two threads where they split patterns.
fn threadings(pool: &Arc<ThreadPool>) -> [(&'static str, Threading); 4] {
    [
        ("serial", Threading::Serial),
        ("thread-create", Threading::ThreadCreate { threads: 2 }),
        ("thread-pool", Threading::ThreadPool { pool: pool.clone() }),
        ("futures", Threading::Futures),
    ]
}

fn check<T: DispatchReal>(pool: &Arc<ThreadPool>) {
    let obs = Recorder::new(true).is_enabled();
    let kinds = kinds();
    for n_pat in [
        RESCALE_TILE - 1,
        RESCALE_TILE,
        RESCALE_TILE + 1,
        2 * RESCALE_TILE + 3,
    ] {
        for s in [4, 20] {
            for kind in kinds.iter().copied() {
                let expect = reference::<T>(n_pat, s, kind);
                let factors = || expect.iter().flat_map(|(_, scale)| scale);
                assert!(
                    factors().any(|&f| f == 0.0) && factors().any(|&f| f != 0.0),
                    "some patterns rescale and some do not"
                );
                for (name, threading) in threadings(pool) {
                    let what = format!(
                        "{} n_pat={n_pat} s={s} {kind:?} {name}",
                        std::any::type_name::<T>()
                    );
                    let mut inst = instance::<T>(n_pat, s, threading, kind);
                    inst.enable_statistics();
                    let ops = operations();
                    inst.update_partials(&ops).unwrap();
                    if obs {
                        let stats = inst.statistics().unwrap();
                        let rescale = stats.counter(KernelClass::Rescale);
                        assert!(rescale.wall_nanos > 0, "rescale booked no time {what}");
                    }
                    for (op, (partials, scale)) in ops.iter().zip(&expect) {
                        let got = inst.get_partials(op.destination).unwrap();
                        assert_eq!(
                            bits(&got),
                            bits(partials),
                            "partials {} {what}",
                            op.destination
                        );
                        let index = op.dest_scale_write.unwrap();
                        let got = scale_buffer(&mut inst, index);
                        assert_eq!(bits(&got), bits(scale), "scale {index} {what}");
                    }
                }
            }
        }
    }
}

#[test]
fn tiled_rescale_matches_whole_block_rescale_at_tile_boundaries() {
    let pool = Arc::new(ThreadPool::new(2));
    check::<f64>(&pool);
    check::<f32>(&pool);
}

/// A scaled traversal over two tiles' worth of patterns, then root
/// integration with unequal pattern weights: the log-likelihood and site
/// log-likelihoods are bit-identical under all four threading models, per
/// kernel table and precision.
fn check_root_bits<T: DispatchReal>(pool: &Arc<ThreadPool>) {
    let n_pat = 2 * RESCALE_TILE + 3;
    let cumulative = TAXA - 1;
    for s in [4, 20] {
        for kind in kinds() {
            let mut first: Option<(&str, u64, Vec<u64>)> = None;
            for (name, threading) in threadings(pool) {
                let what = format!("{} s={s} {kind:?} {name}", std::any::type_name::<T>());
                let mut inst = instance::<T>(n_pat, s, threading, kind);
                let total = (s * (s + 1) / 2) as f64;
                let freqs: Vec<f64> = (1..=s).map(|i| i as f64 / total).collect();
                inst.set_state_frequencies(0, &freqs).unwrap();
                let weights: Vec<f64> = (0..n_pat).map(|p| (1 + p % 7) as f64).collect();
                inst.set_pattern_weights(&weights).unwrap();
                let ops = operations();
                inst.update_partials(&ops).unwrap();
                let scales: Vec<usize> = ops.iter().filter_map(|op| op.dest_scale_write).collect();
                inst.reset_scale_factors(cumulative).unwrap();
                inst.accumulate_scale_factors(&scales, cumulative).unwrap();
                let lnl = inst
                    .integrate_root(
                        BufferId(ops.last().unwrap().destination),
                        BufferId(0),
                        BufferId(0),
                        ScalingMode::cumulative(cumulative),
                    )
                    .unwrap();
                assert!(lnl.is_finite(), "{what}: {lnl}");
                let site = bits(&inst.get_site_log_likelihoods().unwrap());
                match &first {
                    None => first = Some((name, lnl.to_bits(), site)),
                    Some((first_name, lnl_bits, site_bits)) => {
                        assert_eq!(&site, site_bits, "site lnL {what} vs {first_name}");
                        assert_eq!(lnl.to_bits(), *lnl_bits, "lnL {what} vs {first_name}");
                    }
                }
            }
        }
    }
}

#[test]
fn root_log_likelihood_bits_do_not_depend_on_threading() {
    let pool = Arc::new(ThreadPool::new(2));
    check_root_bits::<f64>(&pool);
    check_root_bits::<f32>(&pool);
}
