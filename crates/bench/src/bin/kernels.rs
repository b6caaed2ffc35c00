//! Kernel-level microbenchmark: GFLOPS and ns/pattern for each partials
//! kernel × state count × precision × dispatch path, plus GFLOPS and
//! µs/matrix for the shared transition-matrix kernel, written as
//! `BENCH_kernels.json` (for `scripts/bench.sh`) and printed as a table.
//! Each row is the median of [`ROUNDS`] timed rounds, with the
//! interquartile range of the rounds beside it.
//!
//! Unlike the table/figure binaries this measures the kernels in isolation —
//! one category, one buffer set, no traversal (rescaling alone covers four
//! category blocks refilled from eight rotating buffer sets, see
//! `rescale_sets`; `scaled_partials` runs one whole scaled operation of
//! four categories tile by tile, as the CPU instance does when some
//! patterns leave the rescale window; `scaled_op_checked` is the same
//! operation on data inside the window, whose check rescales nothing; and
//! `scaled_op_skipped` is that operation when the instance's bounds prove
//! the check unnecessary: the partials alone) — so the number is the raw
//! arithmetic throughput of the dispatch paths ("scalar" = dense unrolled
//! loops, "portable" = 4-state mul_add specializations where applicable,
//! "avx2" = explicit AVX2+FMA intrinsics), not end-to-end application
//! speed.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use beagle_core::buffers::InstanceBuffers;
use beagle_core::real::Real;
use beagle_core::InstanceConfig;
use beagle_cpu::simd::{transpose_matrix, DispatchKind, DispatchReal};
use beagle_cpu::{avx2_available, kernels};

/// Flop estimate per pattern for partials×partials: per destination state,
/// two length-`s` dot products (2s mul+add each) plus the combining multiply.
fn pp_flops(s: usize) -> f64 {
    (s * (4 * s + 1)) as f64
}

/// states×partials: one dot product plus one column multiply per state.
fn sp_flops(s: usize) -> f64 {
    (s * (2 * s + 1)) as f64
}

/// states×states: one multiply per state.
fn ss_flops(s: usize) -> f64 {
    s as f64
}

fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// Transition-matrix exponentiation: `2·s³` flops (one multiply and one add
/// per `U⁻¹` element per output row) for each rate category.
fn matrix_flops(s: usize) -> f64 {
    2.0 * (s * s * s) as f64
}

struct Row {
    kernel: &'static str,
    states: usize,
    precision: &'static str,
    path: &'static str,
    /// At the median time.
    gflops: f64,
    /// Time per work unit: `("ns_per_pattern", ns)` for the partials-side
    /// kernels, `("us_per_matrix", µs)` for transition matrices; the
    /// median over the rounds.
    time: (&'static str, f64),
    /// Interquartile range of the rounds' times, in `time`'s unit.
    iqr: f64,
}

/// Timed rounds per row.
const ROUNDS: usize = 5;

/// One row's measurement: GFLOPS at the median round, and the median and
/// interquartile range of the rounds' time per work unit.
struct Timing {
    gflops: f64,
    median: f64,
    iqr: f64,
}

/// Time `body` (which performs `flops` floating-point ops per call) over
/// [`ROUNDS`] rounds of adaptive repetition, in ns per pattern unit.
fn measure(n_pat: usize, flops_per_call: f64, mut body: impl FnMut()) -> Timing {
    let reps = repetitions(flops_per_call);
    // Warm up caches and the branch predictor.
    for _ in 0..reps.div_ceil(10).min(50) {
        body();
    }
    let rounds = std::array::from_fn(|_| {
        let start = Instant::now();
        for _ in 0..reps {
            body();
        }
        start.elapsed()
    });
    summarize(n_pat, flops_per_call, reps, rounds)
}

/// As [`measure`], for a body that times itself and returns the time of
/// its timed part, so it can run untimed set-up before each call.
fn measure_timed(n_pat: usize, flops_per_call: f64, mut body: impl FnMut() -> Duration) -> Timing {
    let reps = repetitions(flops_per_call);
    for _ in 0..reps.div_ceil(10).min(50) {
        body();
    }
    let rounds = std::array::from_fn(|_| (0..reps).map(|_| body()).sum());
    summarize(n_pat, flops_per_call, reps, rounds)
}

/// Median and interquartile range of rounds of `reps` calls each.
fn summarize(
    n_pat: usize,
    flops_per_call: f64,
    reps: usize,
    mut rounds: [Duration; ROUNDS],
) -> Timing {
    rounds.sort();
    let per_unit = |d: Duration| d.as_secs_f64() / reps as f64 / n_pat as f64 * 1e9;
    let median = rounds[ROUNDS / 2];
    Timing {
        gflops: flops_per_call * reps as f64 / median.as_secs_f64() / 1e9,
        median: per_unit(median),
        iqr: per_unit(rounds[3 * ROUNDS / 4]) - per_unit(rounds[ROUNDS / 4]),
    }
}

/// Calls per round: a fixed flop budget per round.
fn repetitions(flops_per_call: f64) -> usize {
    let budget: f64 = if quick_mode() { 1e7 } else { 1e8 };
    ((budget / flops_per_call) as usize).clamp(3, 1_000_000)
}

/// Deterministic pseudo-random positive values (likelihood-like magnitudes).
fn fill<T: Real>(seed: u64, len: usize) -> Vec<T> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            T::from_f64(0.05 + (x % 1000) as f64 / 1100.0)
        })
        .collect()
}

/// Category blocks per timed rescale call (one scaled operation's worth).
const RESCALE_CATEGORIES: usize = 4;
/// Distinct destination sets the rescale timing rotates through.
const RESCALE_SETS: usize = 8;

/// `RESCALE_SETS` sets of `RESCALE_CATEGORIES` padded partials blocks, each
/// block drawn from its own seed, pad lanes zero as in a real buffer. Each
/// (category, pattern) is scaled by its own power of two, from 1 down to
/// `2^-2W` in 24 steps (`W` the rescale window exponent), so pattern maxima
/// spread over many octaves, about half of them below the window, as
/// deep-tree partials do.
fn rescale_sets<T: Real>(s: usize, sp: usize, n_pat: usize) -> Vec<[Vec<T>; RESCALE_CATEGORIES]> {
    (0..RESCALE_SETS)
        .map(|k| {
            std::array::from_fn(|c| {
                let mut block = fill::<T>(100 + (k * RESCALE_CATEGORIES + c) as u64, n_pat * sp);
                for (p, q) in block.chunks_exact_mut(sp).enumerate() {
                    let step = ((p * 7 + c * 3 + k) % 25) as i32;
                    let magnitude = T::from_f64(2f64.powi(-step * T::RESCALE_WINDOW / 12));
                    q[..s].iter_mut().for_each(|x| *x *= magnitude);
                    q[s..].fill(T::ZERO);
                }
                block
            })
        })
        .collect()
}

/// One operation's partials × partials kernel over `RESCALE_CATEGORIES`
/// category blocks, as the CPU instance runs it: with the table's wide
/// kernels (state counts other than 4) each category's two child matrices
/// are transposed once into `cols` (`2·RESCALE_CATEGORIES` tiles of
/// `s·sp`), and every call of the operation reads those tiles.
struct OpKernel<'a, T: DispatchReal> {
    table: &'a beagle_cpu::KernelDispatch<T>,
    m1: &'a [T],
    m2: &'a [T],
    cols: Vec<T>,
    s: usize,
    sp: usize,
}

impl<'a, T: DispatchReal> OpKernel<'a, T> {
    fn new(
        table: &'a beagle_cpu::KernelDispatch<T>,
        m1: &'a [T],
        m2: &'a [T],
        s: usize,
        sp: usize,
    ) -> Self {
        let len = if table.wide.is_some() && s != 4 {
            2 * RESCALE_CATEGORIES * s * sp
        } else {
            0
        };
        Self {
            table,
            m1,
            m2,
            cols: vec![T::ZERO; len],
            s,
            sp,
        }
    }

    /// The once-per-operation part: transpose every category's matrices
    /// (all categories share `m1`/`m2` here).
    fn prepare(&mut self) {
        let (s, sp) = (self.s, self.sp);
        for tile in self.cols.chunks_exact_mut(2 * s * sp) {
            let (t1, t2) = tile.split_at_mut(s * sp);
            transpose_matrix(self.m1, t1, s, sp);
            transpose_matrix(self.m2, t2, s, sp);
        }
    }

    /// Category `cat`'s partials over one range of patterns.
    fn run(&self, cat: usize, dest: &mut [T], c1: &[T], c2: &[T]) {
        let (s, sp) = (self.s, self.sp);
        match self.table.wide {
            Some(w) if !self.cols.is_empty() => {
                let tile = &self.cols[2 * cat * s * sp..2 * (cat + 1) * s * sp];
                let (t1, t2) = tile.split_at(s * sp);
                (w.partials_partials)(dest, c1, c2, t1, t2, s, sp);
            }
            _ => (self.table.partials_partials)(dest, c1, c2, self.m1, self.m2, s, sp),
        }
    }
}

/// One scaled partials×partials operation over `RESCALE_CATEGORIES`
/// category blocks, as the CPU instance runs it when the check runs: per
/// `RESCALE_TILE` patterns the partials of every block, then the rescale
/// of that tile while it is still in cache.
fn scaled_op<T: DispatchReal>(
    op: &mut OpKernel<'_, T>,
    blocks: &mut [Vec<T>; RESCALE_CATEGORIES],
    c1: &[Vec<T>; RESCALE_CATEGORIES],
    c2: &[Vec<T>; RESCALE_CATEGORIES],
    scale: &mut [T],
) {
    let (table, sp) = (op.table, op.sp);
    let n_pat = scale.len();
    op.prepare();
    for t0 in (0..n_pat).step_by(kernels::RESCALE_TILE) {
        let t1 = (t0 + kernels::RESCALE_TILE).min(n_pat);
        let tile = t0 * sp..t1 * sp;
        let mut blocks = blocks.each_mut().map(|b| &mut b[tile.clone()]);
        for (cat, ((dest, a), b)) in blocks.iter_mut().zip(c1).zip(c2).enumerate() {
            op.run(cat, dest, &a[tile.clone()], &b[tile.clone()]);
        }
        kernels::rescale_range(
            &mut blocks[..],
            &mut scale[t0..t1],
            sp,
            table.rescale_max,
            table.rescale_factors,
            table.rescale_apply,
            &mut [T::ZERO; RESCALE_CATEGORIES],
        );
    }
}

fn bench_precision<T: DispatchReal>(
    precision: &'static str,
    paths: &[DispatchKind],
    rows: &mut Vec<Row>,
) {
    let n_pat = if quick_mode() { 1024 } else { 4096 };
    for &s in &[4usize, 20, 61] {
        let sp = s.div_ceil(T::SIMD_LANES) * T::SIMD_LANES;
        let m1 = fill::<T>(1, s * sp);
        let m2 = fill::<T>(2, s * sp);
        let c1 = fill::<T>(3, n_pat * sp);
        let c2 = fill::<T>(4, n_pat * sp);
        let s1: Vec<u32> = (0..n_pat as u32).map(|i| i % s as u32).collect();
        let s2: Vec<u32> = (0..n_pat as u32).map(|i| (i * 7 + 3) % s as u32).collect();
        let mut dest = vec![T::ZERO; n_pat * sp];
        for &kind in paths {
            let table = T::dispatch(kind);
            let t = measure(n_pat, pp_flops(s) * n_pat as f64, || {
                (table.partials_partials)(&mut dest, &c1, &c2, &m1, &m2, s, sp);
            });
            rows.push(Row {
                kernel: "partials_partials",
                states: s,
                precision,
                path: table.path,
                gflops: t.gflops,
                time: ("ns_per_pattern", t.median),
                iqr: t.iqr,
            });
            let t = measure(n_pat, sp_flops(s) * n_pat as f64, || {
                (table.states_partials)(&mut dest, &s1, &c2, &m1, &m2, s, sp);
            });
            rows.push(Row {
                kernel: "states_partials",
                states: s,
                precision,
                path: table.path,
                gflops: t.gflops,
                time: ("ns_per_pattern", t.median),
                iqr: t.iqr,
            });
            let t = measure(n_pat, ss_flops(s) * n_pat as f64, || {
                (table.states_states)(&mut dest, &s1, &s2, &m1, &m2, s, sp);
            });
            rows.push(Row {
                kernel: "states_states",
                states: s,
                precision,
                path: table.path,
                gflops: t.gflops,
                time: ("ns_per_pattern", t.median),
                iqr: t.iqr,
            });
            // Rescaling as one scaled operation runs it: the max sweep,
            // one power-of-two factor per pattern and the apply sweep over
            // RESCALE_CATEGORIES category blocks. Before each call (untimed)
            // the working blocks are refilled from the next of RESCALE_SETS
            // unscaled sets, so every call sees fresh, unnormalized maxima
            // spread over many octaves, cache-warm as a partials kernel
            // leaves its destination; rescaling the same blocks again would
            // only ever see maxima already normalized.
            let scale_flops = (2 * sp * n_pat * RESCALE_CATEGORIES) as f64;
            let sets = rescale_sets::<T>(s, sp, n_pat);
            let mut work = sets[0].clone();
            let mut scale = vec![T::ZERO; n_pat];
            let mut next = 0;
            let t = measure_timed(n_pat, scale_flops, || {
                for (w, src) in work.iter_mut().zip(&sets[next % RESCALE_SETS]) {
                    w.copy_from_slice(src);
                }
                next += 1;
                let [a, b, c, d] = &mut work;
                let mut blocks = [&mut a[..], &mut b[..], &mut c[..], &mut d[..]];
                let start = Instant::now();
                kernels::rescale_range(
                    &mut blocks[..],
                    &mut scale,
                    sp,
                    table.rescale_max,
                    table.rescale_factors,
                    table.rescale_apply,
                    &mut [T::ZERO; RESCALE_CATEGORIES],
                );
                start.elapsed()
            });
            rows.push(Row {
                kernel: "rescale_patterns",
                states: s,
                precision,
                path: table.path,
                gflops: t.gflops,
                time: ("ns_per_pattern", t.median),
                iqr: t.iqr,
            });
            // One scaled operation as the CPU instance runs it when the
            // check runs. `scaled_partials`: children whose pattern
            // magnitudes alternate between 1 and `2^-(W/2 + 8)`, so half the
            // patterns leave the window and get rescaled. `scaled_op_checked`:
            // children inside the window, so the check rescales nothing.
            // `scaled_op_skipped`: the same operation when the bounds prove
            // the check unnecessary, the partials of every block over the
            // whole range. Every call recomputes the blocks from the
            // children, so every check sees fresh maxima.
            let children = |seed: u64, deep: bool| -> [Vec<T>; RESCALE_CATEGORIES] {
                std::array::from_fn(|c| {
                    let mut child = fill::<T>(seed + c as u64, n_pat * sp);
                    if deep {
                        let tiny = T::from_f64(2f64.powi(-T::RESCALE_WINDOW / 2 - 8));
                        for q in child.chunks_exact_mut(sp).skip(1).step_by(2) {
                            q.iter_mut().for_each(|x| *x *= tiny);
                        }
                    }
                    child
                })
            };
            let mut blocks: [Vec<T>; RESCALE_CATEGORIES] =
                std::array::from_fn(|_| vec![T::ZERO; n_pat * sp]);
            let flops =
                (pp_flops(s) * n_pat as f64 + (2 * sp * n_pat) as f64) * RESCALE_CATEGORIES as f64;
            let mut op = OpKernel::new(table, &m1, &m2, s, sp);
            for (kernel, deep) in [("scaled_partials", true), ("scaled_op_checked", false)] {
                let (cc1, cc2) = (children(200, deep), children(300, deep));
                let t = measure(n_pat, flops, || {
                    scaled_op(&mut op, &mut blocks, &cc1, &cc2, &mut scale);
                });
                rows.push(Row {
                    kernel,
                    states: s,
                    precision,
                    path: table.path,
                    gflops: t.gflops,
                    time: ("ns_per_pattern", t.median),
                    iqr: t.iqr,
                });
            }
            let (cc1, cc2) = (children(200, false), children(300, false));
            let flops = pp_flops(s) * (n_pat * RESCALE_CATEGORIES) as f64;
            let t = measure(n_pat, flops, || {
                op.prepare();
                for (cat, ((dest, a), b)) in blocks.iter_mut().zip(&cc1).zip(&cc2).enumerate() {
                    op.run(cat, dest, a, b);
                }
            });
            rows.push(Row {
                kernel: "scaled_op_skipped",
                states: s,
                precision,
                path: table.path,
                gflops: t.gflops,
                time: ("ns_per_pattern", t.median),
                iqr: t.iqr,
            });
            // Root integration over one category.
            let freqs = fill::<T>(5, sp);
            let catw = vec![T::ONE];
            let pw = vec![T::ONE; n_pat];
            let mut site = vec![T::ZERO; n_pat];
            let root_flops = ((2 * s + 2) * n_pat) as f64;
            let t = measure(n_pat, root_flops, || {
                std::hint::black_box((table.integrate_root)(
                    &mut site, &c1, &freqs, &catw, &pw, None, s, sp, n_pat, 0,
                ));
            });
            rows.push(Row {
                kernel: "integrate_root",
                states: s,
                precision,
                path: table.path,
                gflops: t.gflops,
                time: ("ns_per_pattern", t.median),
                iqr: t.iqr,
            });
        }
    }
}

/// `InstanceBuffers::update_transition_matrices`, the one matrix kernel
/// every back-end shares: 16 branch lengths × 4 rate categories from an
/// arbitrary dense eigen system, in the padded layout the CPU back-ends use.
fn bench_matrices<T: Real>(precision: &'static str, rows: &mut Vec<Row>) {
    const MATRICES: usize = 16;
    const CATEGORIES: usize = 4;
    for s in [4usize, 20, 61] {
        let config = InstanceConfig {
            matrix_buffer_count: MATRICES,
            ..InstanceConfig::for_tree(4, 1, s, CATEGORIES)
        };
        let mut bufs = InstanceBuffers::<T>::new_padded(config, T::SIMD_LANES).unwrap();
        let values: Vec<f64> = fill::<f64>(8, s).iter().map(|x| -2.0 * x).collect();
        bufs.set_eigen_decomposition(0, &fill(6, s * s), &fill(7, s * s), &values)
            .unwrap();
        bufs.set_category_rates(&[0.1, 0.6, 1.2, 2.1]).unwrap();
        let indices: Vec<usize> = (0..MATRICES).collect();
        let lengths: Vec<f64> = (0..MATRICES).map(|i| 0.01 + 0.05 * i as f64).collect();
        let flops = matrix_flops(s) * (CATEGORIES * MATRICES) as f64;
        let t = measure(MATRICES, flops, || {
            bufs.update_transition_matrices(0, &indices, &lengths)
                .unwrap();
        });
        rows.push(Row {
            kernel: "transition_matrices",
            states: s,
            precision,
            path: "row-blocked-k4",
            gflops: t.gflops,
            time: ("us_per_matrix", t.median / 1e3),
            iqr: t.iqr / 1e3,
        });
    }
}

fn main() {
    let mut paths = vec![DispatchKind::Scalar, DispatchKind::Portable];
    if avx2_available() {
        paths.push(DispatchKind::Avx2);
    } else {
        eprintln!("note: AVX2+FMA unavailable; skipping avx2 path");
    }

    let mut rows = Vec::new();
    bench_precision::<f64>("double", &paths, &mut rows);
    bench_precision::<f32>("single", &paths, &mut rows);
    bench_matrices::<f64>("double", &mut rows);
    bench_matrices::<f32>("single", &mut rows);

    println!("== kernel microbenchmarks ==");
    println!(
        "{:<19} {:>6} {:>7} {:>9} {:>10} {:>12} {:>9}  unit (median of {ROUNDS} rounds)",
        "kernel", "states", "prec", "path", "GFLOPS", "time", "IQR"
    );
    for r in &rows {
        println!(
            "{:<19} {:>6} {:>7} {:>9} {:>10.2} {:>12.2} {:>9.2}  {}",
            r.kernel, r.states, r.precision, r.path, r.gflops, r.time.1, r.iqr, r.time.0
        );
    }

    // Headline ratio from the acceptance criterion: AVX2 vs forced-scalar on
    // the s=61 double-precision partials×partials kernel.
    let find = |path: &str| {
        rows.iter()
            .find(|r| {
                r.kernel == "partials_partials"
                    && r.states == 61
                    && r.precision == "double"
                    && r.path == path
            })
            .map(|r| r.gflops)
    };
    if let (Some(avx2), Some(scalar)) = (find("avx2"), find("scalar")) {
        println!(
            "\ns=61 double pp: avx2 {avx2:.2} GFLOPS vs scalar {scalar:.2} GFLOPS ({:.2}x)",
            avx2 / scalar
        );
    }

    let mut json =
        format!("{{\n  \"benchmark\": \"kernels\",\n  \"rounds\": {ROUNDS},\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"states\": {}, \"precision\": \"{}\", \"path\": \"{}\", \"gflops\": {:.4}, \"{}\": {:.4}, \"iqr\": {:.4}}}{}",
            r.kernel,
            r.states,
            r.precision,
            r.path,
            r.gflops,
            r.time.0,
            r.time.1,
            r.iqr,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_kernels.json".into());
    std::fs::write(&out, json).expect("write BENCH_kernels.json");
    println!("\nwrote {out}");
}
