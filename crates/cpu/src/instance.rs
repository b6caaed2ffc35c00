//! The CPU instance: one type, four execution strategies.
//!
//! [`CpuInstance`] owns an [`InstanceBuffers`] arena and executes the
//! partial-likelihoods bottleneck with whichever [`Threading`] model it was
//! created with — the three iterations the paper describes in §VI (futures,
//! thread-create, thread-pool) plus the original serial model — combined
//! with the kernel table resolved once at creation by [`crate::simd`]
//! (scalar / portable / AVX2).
//!
//! The traversal hot path is allocation-free: work items are plain-data
//! [`ChunkTask`]/[`RootTask`] structs kept in a reusable [`Scratch`] arena,
//! the pattern partition is computed once at instance creation, and batches
//! go to the pool through [`ThreadPool::run_tasks`] (which allocates
//! nothing per dispatch). Buffers are padded to the SIMD lane width
//! ([`beagle_core::real::Real::SIMD_LANES`]) so the vector kernels run
//! remainder-free; the padding never escapes the public API.

use beagle_core::api::{BeagleInstance, BufferId, InstanceConfig, InstanceDetails, ScalingMode};
use beagle_core::buffers::{ChildOperand, InstanceBuffers};
use beagle_core::error::{BeagleError, Result};
use beagle_core::obs::{self, EventKind, KernelClass, Recorder};
use beagle_core::ops::{LevelPlan, Operation};
use beagle_core::real::{weighted_lnl_sum, widen_slice, Real};

use crate::bounds::RescaleBounds;
use crate::kernels::{self, EdgeChild};
use crate::pool::{partition_range, ThreadPool};
use crate::simd::{select_kind, transpose_matrix, DispatchKind, DispatchReal, KernelDispatch};

/// Patterns below this threshold run serially even under a threading model —
/// §VI-B: "to prevent small problem sizes from being slower than the previous
/// serial implementation, we set a minimum sequence length of 512 patterns
/// for threading to be used".
pub const MIN_PATTERNS_FOR_THREADING: usize = 512;

/// Execution strategy for the likelihood kernels.
pub enum Threading {
    /// Original single-threaded model.
    Serial,
    /// One asynchronous task per *tree operation*; operations that are
    /// independent in the topology run concurrently (§VI-A).
    Futures,
    /// Threads created and joined per dependency level of an
    /// `update_partials` call, splitting the pattern range evenly (§VI-B).
    ThreadCreate {
        /// Number of threads to create per call.
        threads: usize,
    },
    /// Persistent worker pool; also parallelizes root integration (§VI-C).
    /// The pool is shared (`Arc`) so many instances — e.g. one per MCMC
    /// chain — reuse the same workers instead of oversubscribing the host.
    ThreadPool {
        /// The shared pool.
        pool: std::sync::Arc<ThreadPool>,
    },
}

impl Threading {
    fn thread_count(&self) -> usize {
        match self {
            Threading::Serial | Threading::Futures => 1,
            Threading::ThreadCreate { threads } => *threads,
            Threading::ThreadPool { pool } => pool.thread_count(),
        }
    }
}

/// Raw view of a child operand inside a task (borrow-erased).
#[derive(Clone, Copy)]
enum OperandPtr<T> {
    Partials(*const T),
    States(*const u32),
}

/// One (pattern-range × all categories) unit of an `update_partials`
/// operation as plain data: raw pointers into the instance arena plus the
/// geometry needed to slice them. Tasks over disjoint pattern ranges touch
/// disjoint parts of `dest`/`scale`, so a batch of them is data-race free.
struct ChunkTask<T: Real> {
    dest: *mut T,
    /// Start of this chunk's slice of the scale buffer, or null.
    scale: *mut T,
    c1: OperandPtr<T>,
    c2: OperandPtr<T>,
    /// Category 0's child matrices; category `c`'s follow at `c·s·sp`.
    /// With `wide` they are the operation's transposed tiles in
    /// [`Scratch::cols`], which every chunk of the operation shares.
    m1: *const T,
    m2: *const T,
    /// Run the table's [`crate::simd::WideKernels`] on transposed matrices.
    wide: bool,
    /// State count, stride and category count are `u32` so that they and
    /// `timed` share two words: the timing fields add nothing to the task's
    /// size.
    s: u32,
    sp: u32,
    n_cat: u32,
    n_pat: usize,
    p0: usize,
    p1: usize,
    dispatch: &'static KernelDispatch<T>,
    /// Time the rescale sweeps (set only when the instance records stats,
    /// so the untraced path reads no clock).
    timed: bool,
    /// Nanoseconds this task spent rescaling, when `timed`.
    rescale_nanos: u64,
    /// Index of the operation's entry in [`Scratch::checks`], or
    /// [`NO_CHECK`] when its rescale check does not run.
    check: u32,
    /// This task's `n_cat` slots of [`Scratch::cat_lo`]: per category the
    /// smallest pattern maximum its check saw.
    cat_lo: *mut T,
    /// Largest entry after the check.
    hi: T,
    /// Patterns the check rescaled.
    rescaled: usize,
}

/// [`ChunkTask::check`] of a task whose rescale check does not run.
const NO_CHECK: u32 = u32::MAX;

/// One scaled operation of a batch whose rescale check runs.
struct Check {
    /// Destination partials buffer.
    dest: usize,
    /// Scale buffer written.
    scale: usize,
    /// Its inputs have bounds, so the sweep's exact bounds are kept.
    adopt: bool,
    /// Patterns rescaled, summed over the operation's tasks.
    rescaled: usize,
}

// SAFETY: the pointers reference buffers that outlive the batch (the
// instance arena, and the scratch tiles the tasks only read; the executing
// call blocks until every task finished and touches neither meanwhile) and
// distinct tasks write disjoint ranges: the tasks of one operation cover
// disjoint pattern ranges, and the operations of one level (a
// `LevelPlan` level) write distinct destinations and scale buffers, each
// taken out of the arena, and read none of them.
unsafe impl<T: Real> Send for ChunkTask<T> {}

// SAFETY: a shared `&ChunkTask` exposes no operations at all (every field is
// private to this module and only `run_chunk(&mut ...)` dereferences the
// pointers, under the exclusive `&mut self` of the executing call), so
// sharing references across threads cannot race. Required so the `Scratch`
// arena doesn't strip `Sync` from `CpuInstance`.
unsafe impl<T: Real> Sync for ChunkTask<T> {}

impl<T: Real> kernels::CategoryBlocks<T> for ChunkTask<T> {
    fn categories(&self) -> usize {
        self.n_cat as usize
    }

    fn block(&mut self, cat: usize) -> &mut [T] {
        assert!(cat < self.categories(), "category {cat} out of range");
        let (n, sp) = (self.p1 - self.p0, self.sp as usize);
        let off = (cat * self.n_pat + self.p0) * sp;
        // SAFETY: `cat < n_cat` (checked above) and `p0..p1` lies within the
        // pattern count, so this is category `cat`'s slice of the task's
        // pattern range, inside the destination buffer and disjoint from
        // every other task's.
        unsafe { std::slice::from_raw_parts_mut(self.dest.add(off), n * sp) }
    }
}

/// Execute one chunk task. An operation whose rescale check runs walks the
/// task's pattern range in tiles of [`kernels::RESCALE_TILE`] patterns:
/// the partials kernel for every category block of the tile, then
/// [`kernels::rescale_range`] over the same tile, which is still in L1
/// when the max and apply sweeps read it. Any other operation is one tile,
/// the whole range. With `timed`, `rescale_nanos` is the sum of the
/// tiles' rescale times; otherwise no clock is read.
fn run_chunk<T: DispatchReal>(t: &mut ChunkTask<T>) {
    let (d, sp) = (t.dispatch, t.sp as usize);
    let scaled = !t.scale.is_null();
    let (mut rescaled, mut hi) = (0, T::ZERO);
    let step = if scaled {
        kernels::RESCALE_TILE
    } else {
        t.p1 - t.p0
    };
    let mut rescale_nanos = 0;
    let mut q0 = t.p0;
    while q0 < t.p1 {
        let q1 = (q0 + step).min(t.p1);
        let mut tile = ChunkTask {
            p0: q0,
            p1: q1,
            ..*t
        };
        run_partials(&mut tile);
        if scaled {
            let t0 = t.timed.then(std::time::Instant::now);
            // SAFETY: `t.scale` points at pattern `p0` of the scale buffer
            // and `p0 <= q0 < q1 <= p1`, so this is the tile's slice of the
            // chunk's scale range, disjoint from other tasks'.
            let scale = unsafe { std::slice::from_raw_parts_mut(t.scale.add(q0 - t.p0), q1 - q0) };
            // SAFETY: a checked task points at its own `n_cat` slots of the
            // scratch `cat_lo`, which no other task touches.
            let cat_lo = unsafe { std::slice::from_raw_parts_mut(t.cat_lo, t.n_cat as usize) };
            let sweep = kernels::rescale_range(
                &mut tile,
                scale,
                sp,
                d.rescale_max,
                d.rescale_factors,
                d.rescale_apply,
                cat_lo,
            );
            rescaled += sweep.rescaled;
            hi = hi.max(sweep.hi);
            if let Some(t0) = t0 {
                rescale_nanos += t0.elapsed().as_nanos() as u64;
            }
        }
        q0 = q1;
    }
    t.rescale_nanos = rescale_nanos;
    t.rescaled = rescaled;
    t.hi = hi;
}

/// The partials kernel for every category block of the task's pattern
/// range.
fn run_partials<T: DispatchReal>(t: &mut ChunkTask<T>) {
    let (s, sp, n) = (t.s as usize, t.sp as usize, t.p1 - t.p0);
    let (pp, sp_kernel) = match t.dispatch.wide {
        Some(w) if t.wide => (w.partials_partials, w.states_partials),
        _ => (t.dispatch.partials_partials, t.dispatch.states_partials),
    };
    for cat in 0..t.n_cat as usize {
        let off = (cat * t.n_pat + t.p0) * sp;
        // SAFETY: `off..off + n*sp` lies inside the destination buffer and
        // no other task of the batch overlaps it (disjoint pattern ranges).
        let dest = unsafe { std::slice::from_raw_parts_mut(t.dest.add(off), n * sp) };
        let m1 = unsafe { std::slice::from_raw_parts(t.m1.add(cat * s * sp), s * sp) };
        let m2 = unsafe { std::slice::from_raw_parts(t.m2.add(cat * s * sp), s * sp) };
        match (t.c1, t.c2) {
            (OperandPtr::Partials(a), OperandPtr::Partials(b)) => {
                let a = unsafe { std::slice::from_raw_parts(a.add(off), n * sp) };
                let b = unsafe { std::slice::from_raw_parts(b.add(off), n * sp) };
                pp(dest, a, b, m1, m2, s, sp);
            }
            (OperandPtr::States(a), OperandPtr::Partials(b)) => {
                let a = unsafe { std::slice::from_raw_parts(a.add(t.p0), n) };
                let b = unsafe { std::slice::from_raw_parts(b.add(off), n * sp) };
                sp_kernel(dest, a, b, m1, m2, s, sp);
            }
            (OperandPtr::Partials(a), OperandPtr::States(b)) => {
                // Symmetric kernel with swapped matrices.
                let a = unsafe { std::slice::from_raw_parts(a.add(off), n * sp) };
                let b = unsafe { std::slice::from_raw_parts(b.add(t.p0), n) };
                sp_kernel(dest, b, a, m2, m1, s, sp);
            }
            (OperandPtr::States(a), OperandPtr::States(b)) => {
                let a = unsafe { std::slice::from_raw_parts(a.add(t.p0), n) };
                let b = unsafe { std::slice::from_raw_parts(b.add(t.p0), n) };
                (t.dispatch.states_states)(dest, a, b, m1, m2, s, sp);
            }
        }
    }
}

/// One pattern-range unit of root integration as plain data.
struct RootTask<T: Real> {
    site: *mut T,
    len: usize,
    root: *const T,
    root_len: usize,
    freqs: *const T,
    freqs_len: usize,
    catw: *const T,
    catw_len: usize,
    cscale: *const T,
    s: usize,
    sp: usize,
    n_pat: usize,
    p0: usize,
    dispatch: &'static KernelDispatch<T>,
}

// SAFETY: same protocol as ChunkTask — buffers outlive the blocking batch,
// ranges are disjoint.
unsafe impl<T: Real> Send for RootTask<T> {}

// SAFETY: as for `ChunkTask` — `&RootTask` exposes nothing; pointer access
// happens only in `run_root(&mut ...)` within an exclusive call.
unsafe impl<T: Real> Sync for RootTask<T> {}

fn run_root<T: DispatchReal>(t: &mut RootTask<T>) {
    // SAFETY: pointers/lengths were taken from live slices that outlive the
    // batch; `site` is this task's disjoint chunk.
    let site = unsafe { std::slice::from_raw_parts_mut(t.site, t.len) };
    let root = unsafe { std::slice::from_raw_parts(t.root, t.root_len) };
    let freqs = unsafe { std::slice::from_raw_parts(t.freqs, t.freqs_len) };
    let catw = unsafe { std::slice::from_raw_parts(t.catw, t.catw_len) };
    let cscale = if t.cscale.is_null() {
        None
    } else {
        Some(unsafe { std::slice::from_raw_parts(t.cscale, t.n_pat) })
    };
    (t.dispatch.integrate_root)(site, root, freqs, catw, cscale, t.s, t.sp, t.n_pat, t.p0);
}

/// Reusable per-instance work arenas: dispatching a traversal allocates
/// nothing after the first call at each size.
struct Scratch<T: Real> {
    chunk_tasks: Vec<ChunkTask<T>>,
    root_tasks: Vec<RootTask<T>>,
    /// The batch's operations whose rescale check runs.
    checks: Vec<Check>,
    /// `n_cat` slots per chunk task, for its check's per-category minima.
    cat_lo: Vec<T>,
    /// Transposed child matrices of a batch's wide-state operations (see
    /// [`Scratch::batch`]); grown, never shrunk.
    cols: Vec<T>,
    /// The level plan of a threaded `update_partials` call.
    plan: LevelPlan,
    /// A running level's destinations, scale buffers and check indices,
    /// taken out of the arena.
    outputs: Vec<Output<T>>,
}

/// A destination taken out of the arena, with the scale buffer and check
/// index [`CpuInstance::plan_rescale`] gives its operation.
type Output<T> = (Vec<T>, Option<Vec<T>>, u32);

impl<T: Real> Default for Scratch<T> {
    fn default() -> Self {
        Self {
            chunk_tasks: Vec::new(),
            root_tasks: Vec::new(),
            checks: Vec::new(),
            cat_lo: Vec::new(),
            cols: Vec::new(),
            plan: LevelPlan::default(),
            outputs: Vec::new(),
        }
    }
}

impl<T: Real> Scratch<T> {
    /// The chunk task list, cleared, and `n_ops` slots of `slot` elements
    /// each for the transposed child matrices of a batch of `n_ops`
    /// operations: both matrices of every category of one operation, laid
    /// out as in [`CpuInstance::push_chunk_tasks`]. `slot` is 0 when the
    /// batch runs the row-major kernels. The space only grows, so a warm
    /// traversal allocates nothing.
    fn batch(&mut self, n_ops: usize, slot: usize) -> (&mut Vec<ChunkTask<T>>, &mut [T]) {
        let len = n_ops * slot;
        if self.cols.len() < len {
            self.cols.resize(len, T::ZERO);
        }
        self.chunk_tasks.clear();
        (&mut self.chunk_tasks, &mut self.cols[..len])
    }

    /// Give every chunk task its own `n_cat` slots of `cat_lo`, at `+∞`.
    /// Called once the batch's tasks are all pushed, before they run.
    fn arm(&mut self, n_cat: usize) {
        self.cat_lo.clear();
        self.cat_lo
            .resize(self.chunk_tasks.len() * n_cat, T::from_f64(f64::INFINITY));
        let base = self.cat_lo.as_mut_ptr();
        for (i, t) in self.chunk_tasks.iter_mut().enumerate() {
            // SAFETY: `(i + 1) * n_cat <= cat_lo.len()`.
            t.cat_lo = unsafe { base.add(i * n_cat) };
        }
    }
}

/// A CPU-resident BEAGLE instance with precision `T`.
pub struct CpuInstance<T: DispatchReal> {
    bufs: InstanceBuffers<T>,
    threading: Threading,
    /// Kernel table resolved at creation (scalar / portable / avx2).
    dispatch: &'static KernelDispatch<T>,
    /// Minimum pattern count before any threading model engages.
    min_patterns: usize,
    /// Precomputed (start, end) pattern ranges, one per thread.
    partition: Vec<(usize, usize)>,
    scratch: Scratch<T>,
    details: InstanceDetails,
    /// Per-buffer bounds that let a scaled operation skip its rescale
    /// check (see [`crate::bounds`]).
    bounds: RescaleBounds,
    /// Kernel timers/counters + event journal; disabled unless the instance
    /// was created with [`beagle_core::Flags::INSTANCE_STATS`].
    recorder: Recorder,
}

impl<T: DispatchReal> CpuInstance<T> {
    /// Create an instance. `details` should describe the chosen strategy;
    /// factories fill it in. The kernel path resolves from `vectorized` and
    /// host capability.
    pub fn new(
        config: InstanceConfig,
        threading: Threading,
        vectorized: bool,
        details: InstanceDetails,
    ) -> Result<Self> {
        Self::with_dispatch_kind(config, threading, select_kind(vectorized), details)
    }

    /// Create an instance with an explicit kernel table — used by parity
    /// tests and benchmarks to pin the dispatch path regardless of host
    /// detection or environment.
    pub fn with_dispatch_kind(
        config: InstanceConfig,
        threading: Threading,
        kind: DispatchKind,
        details: InstanceDetails,
    ) -> Result<Self> {
        let partition = partition_range(config.pattern_count, threading.thread_count());
        Ok(Self {
            bufs: InstanceBuffers::new_padded(config, T::SIMD_LANES)?,
            threading,
            dispatch: T::dispatch(kind),
            min_patterns: MIN_PATTERNS_FOR_THREADING,
            partition,
            scratch: Scratch::default(),
            details,
            bounds: RescaleBounds::new(config.partials_buffer_count, config.category_count),
            recorder: Recorder::disabled(),
        })
    }

    /// Turn on kernel statistics and the event journal for this instance.
    /// Called by factories when the client asked for
    /// [`beagle_core::Flags::INSTANCE_STATS`].
    pub fn enable_statistics(&mut self) {
        self.recorder = Recorder::new(true);
        let path = self.dispatch.path;
        let threading = match &self.threading {
            Threading::Serial => "serial",
            Threading::Futures => "futures",
            Threading::ThreadCreate { .. } => "thread-create",
            Threading::ThreadPool { .. } => "thread-pool",
        };
        let threads = self.threading.thread_count();
        self.recorder.event(EventKind::DispatchSelected, || {
            format!("kernel_path={path} threading={threading} threads={threads}")
        });
    }

    /// True when buffer `b` holds compact tip states (and no expanded
    /// partials) — the operand classification the kernel table dispatches
    /// on, reused to attribute timing per kernel class.
    fn is_state_operand(&self, b: usize) -> bool {
        self.bufs.partials[b].is_none() && self.bufs.tip_states[b].is_some()
    }

    /// Attribute one `update_partials` call's wall time: the
    /// measured in-operation rescale time to [`KernelClass::Rescale`] (one
    /// call per scaled operation), the rest across the partials kernel
    /// classes, split by each class's share of the operation list
    /// (classified after execution, when every intermediate child has
    /// materialized partials).
    fn record_partials_call(
        &mut self,
        operations: &[Operation],
        wall: std::time::Duration,
        before: &obs::InstanceStats,
    ) {
        // `finish_batch` already booked the rescale wall time; keep it out
        // of the partials share.
        let rescale_before = before.counter(KernelClass::Rescale).wall_nanos;
        let rescale = self.rescale_wall_nanos() - rescale_before;
        let wall = wall.saturating_sub(std::time::Duration::from_nanos(rescale));
        let mut counts = [0u64; 3];
        for op in operations {
            if op.dest_scale_write.is_some() {
                self.recorder.tally(KernelClass::Rescale, 1, 0);
            }
            let idx = match (
                self.is_state_operand(op.child1),
                self.is_state_operand(op.child2),
            ) {
                (false, false) => 0,
                (true, true) => 2,
                _ => 1,
            };
            counts[idx] += 1;
        }
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return;
        }
        // Rough traffic model: destination write + two operand reads per op.
        let cfg = &self.bufs.config;
        let padded = cfg.category_count * cfg.pattern_count * self.bufs.state_stride;
        let bytes_per_op = (3 * padded * std::mem::size_of::<T>()) as u64;
        let classes = [
            KernelClass::PartialsPP,
            KernelClass::PartialsSP,
            KernelClass::PartialsSS,
        ];
        for (i, class) in classes.into_iter().enumerate() {
            if counts[i] == 0 {
                continue;
            }
            self.recorder
                .tally(class, counts[i], counts[i] * bytes_per_op);
            self.recorder
                .add_wall(class, wall.mul_f64(counts[i] as f64 / total as f64));
        }
    }

    /// The rescale checks of one call, for its `OperationEnd` event: the
    /// counters' growth since `before`.
    fn rescale_check_detail(&self, before: &obs::InstanceStats) -> String {
        let now = self.recorder.stats().unwrap_or_default();
        format!(
            "rescale_checks_skipped={} rescale_checks_run={} patterns_rescaled={}",
            now.rescale_checks_skipped - before.rescale_checks_skipped,
            now.rescale_checks_run - before.rescale_checks_run,
            now.patterns_rescaled - before.patterns_rescaled
        )
    }

    /// Wall nanoseconds booked under [`KernelClass::Rescale`] so far (0
    /// when statistics are off).
    fn rescale_wall_nanos(&self) -> u64 {
        self.recorder
            .stats()
            .map_or(0, |s| s.counter(KernelClass::Rescale).wall_nanos)
    }

    /// Decide how scaled operation `op` rescales, before its tasks are
    /// pushed. Derives the destination's bounds (every operation, scaled or
    /// not, calls this). When they prove every pattern maximum lies in the
    /// rescale window the check is skipped and the scale buffer holds
    /// zeros, exactly what the check would have written. Otherwise the
    /// operation joins the batch's checks and its scale buffer is returned
    /// for the tasks to write, with the check's index.
    fn plan_rescale(&mut self, op: &Operation) -> (Option<Vec<T>>, u32) {
        let s = self.bufs.config.state_count;
        let derived = self.bounds.derive::<T>(op, &self.bufs.matrix_bounds, s);
        let Some(si) = op.dest_scale_write else {
            return (None, NO_CHECK);
        };
        if derived.skip {
            self.bufs.clear_scale_buffer(si);
            self.recorder.rescale_checks(1, 0, 0);
            return (None, NO_CHECK);
        }
        if derived.known {
            self.bounds.begin_sweep(op.destination);
        }
        let checks = &mut self.scratch.checks;
        checks.push(Check {
            dest: op.destination,
            scale: si,
            adopt: derived.known,
            rescaled: 0,
        });
        let index = u32::try_from(checks.len() - 1).expect("checks fit in u32");
        (Some(self.bufs.take_scale_buffer(si)), index)
    }

    /// Retire a finished batch of chunk tasks in which up to `lanes` ran
    /// side by side: book its rescale wall time (the tasks' summed rescale
    /// time over the number that ran at once) under
    /// [`KernelClass::Rescale`], settle each check's bounds and zero-scale
    /// flag, then clear the batch.
    fn finish_batch(&mut self, lanes: usize) {
        let n_cat = self.bufs.config.category_count;
        let Scratch {
            chunk_tasks: tasks,
            checks,
            cat_lo,
            ..
        } = &mut self.scratch;
        let lanes = lanes.clamp(1, tasks.len().max(1)) as u64;
        let nanos = tasks.iter().map(|t| t.rescale_nanos).sum::<u64>() / lanes;
        for (i, t) in tasks.iter().enumerate() {
            let Some(check) = checks.get_mut(t.check as usize) else {
                continue;
            };
            check.rescaled += t.rescaled;
            if check.adopt {
                let lo = &cat_lo[i * n_cat..(i + 1) * n_cat];
                self.bounds.fold_sweep(check.dest, lo, t.hi);
            }
        }
        let mut patterns = 0;
        for check in checks.iter() {
            if check.adopt {
                self.bounds.end_sweep::<T>(check.dest);
            }
            self.bufs.scale_zero[check.scale] = check.rescaled == 0;
            patterns += check.rescaled as u64;
        }
        self.recorder
            .rescale_checks(0, checks.len() as u64, patterns);
        tasks.clear();
        checks.clear();
        self.recorder
            .add_wall(KernelClass::Rescale, std::time::Duration::from_nanos(nanos));
    }

    /// Override the 512-pattern threading threshold (used by tests and by
    /// the benchmark harness's ablations).
    pub fn set_min_patterns_for_threading(&mut self, min: usize) {
        self.min_patterns = min;
    }

    /// Name of the kernel path this instance resolved to
    /// ("scalar" / "portable" / "avx2").
    pub fn dispatch_path(&self) -> &'static str {
        self.dispatch.path
    }

    /// Elements of one operation's transposed child matrices: both
    /// matrices of every category when the table has wide kernels and the
    /// state count is not 4, else 0 (the row-major kernels run).
    fn cols_slot(&self) -> usize {
        let cfg = &self.bufs.config;
        if self.dispatch.wide.is_some() && cfg.state_count != 4 {
            2 * cfg.category_count * cfg.state_count * self.bufs.state_stride
        } else {
            0
        }
    }

    /// Append this operation's chunk tasks (one per range) to `tasks`.
    /// With a non-empty `cols` slot (see [`Self::cols_slot`]) and a
    /// partials child, first transpose the child matrices into it, once
    /// per category: every category's first-child tile, then every
    /// category's second-child tile. All of the operation's tasks read
    /// those tiles. The caller must run and clear `tasks` before
    /// `dest`/`scale`/`bufs`/`cols` move or mutate.
    #[allow(clippy::too_many_arguments)]
    fn push_chunk_tasks(
        tasks: &mut Vec<ChunkTask<T>>,
        cols: &mut [T],
        bufs: &InstanceBuffers<T>,
        dest: &mut [T],
        scale: Option<&mut Vec<T>>,
        op: &Operation,
        ranges: &[(usize, usize)],
        dispatch: &'static KernelDispatch<T>,
        timed: bool,
        check: u32,
    ) {
        let cfg = &bufs.config;
        let s = u32::try_from(cfg.state_count).expect("state count fits in u32");
        let sp = u32::try_from(bufs.state_stride).expect("state stride fits in u32");
        let n_cat = u32::try_from(cfg.category_count).expect("category count fits in u32");
        let operand = |child: usize| match bufs.child_operand(child) {
            ChildOperand::Partials(p) => OperandPtr::Partials(p.as_ptr()),
            ChildOperand::States(st) => OperandPtr::States(st.as_ptr()),
        };
        let c1 = operand(op.child1);
        let c2 = operand(op.child2);
        let wide =
            !cols.is_empty() && !matches!((c1, c2), (OperandPtr::States(_), OperandPtr::States(_)));
        let (m1, m2) = (
            &bufs.matrices[op.child1_matrix],
            &bufs.matrices[op.child2_matrix],
        );
        let (m1, m2) = if wide {
            let (states, stride) = (cfg.state_count, bufs.state_stride);
            let block = states * stride;
            let (t1, t2) = cols.split_at_mut(cols.len() / 2);
            for (c, (t1, t2)) in t1
                .chunks_exact_mut(block)
                .zip(t2.chunks_exact_mut(block))
                .enumerate()
            {
                transpose_matrix(&m1[c * block..], t1, states, stride);
                transpose_matrix(&m2[c * block..], t2, states, stride);
            }
            (t1.as_ptr(), t2.as_ptr())
        } else {
            (m1.as_ptr(), m2.as_ptr())
        };
        let scale_base = scale.map_or(std::ptr::null_mut(), |sc| sc.as_mut_ptr());
        for &(p0, p1) in ranges {
            tasks.push(ChunkTask {
                dest: dest.as_mut_ptr(),
                scale: if scale_base.is_null() {
                    std::ptr::null_mut()
                } else {
                    // SAFETY: p0 < pattern_count == scale buffer length.
                    unsafe { scale_base.add(p0) }
                },
                c1,
                c2,
                m1,
                m2,
                wide,
                s,
                sp,
                n_cat,
                n_pat: cfg.pattern_count,
                p0,
                p1,
                dispatch,
                timed,
                rescale_nanos: 0,
                check,
                cat_lo: std::ptr::null_mut(),
                hi: T::ZERO,
                rescaled: 0,
            });
        }
    }

    /// Run one level of operations, which the planner proved independent.
    /// Each operation's destination and scale buffer come out of the arena,
    /// so its tasks own them while every task reads the inputs. Its chunk
    /// tasks cover `self.partition` when `threaded`, else the whole pattern
    /// range. A threaded level runs on the pool or on scoped threads (one
    /// per operation for futures, one per partition range for
    /// thread-create); any other runs inline.
    fn execute_level<'a>(
        &mut self,
        level: impl Iterator<Item = &'a Operation> + Clone,
        threaded: bool,
    ) {
        let mut outputs = std::mem::take(&mut self.scratch.outputs);
        for op in level.clone() {
            let dest = self.bufs.take_destination(op.destination);
            let (scale, check) = self.plan_rescale(op);
            outputs.push((dest, scale, check));
        }
        let full = [(0, self.bufs.config.pattern_count)];
        let ranges: &[(usize, usize)] = if threaded { &self.partition } else { &full };
        let timed = self.recorder.is_enabled();
        let slot = self.cols_slot();
        let (tasks, cols) = self.scratch.batch(outputs.len(), slot);
        for (k, (op, (dest, scale, check))) in level.clone().zip(outputs.iter_mut()).enumerate() {
            Self::push_chunk_tasks(
                tasks,
                &mut cols[k * slot..(k + 1) * slot],
                &self.bufs,
                dest,
                scale.as_mut(),
                op,
                ranges,
                self.dispatch,
                timed,
                *check,
            );
        }
        self.scratch.arm(self.bufs.config.category_count);
        let tasks = &mut self.scratch.chunk_tasks;
        // How many tasks run side by side.
        let lanes = match self.threading {
            _ if !threaded => 1,
            Threading::Futures => tasks.len(),
            _ => self.partition.len(),
        };
        match &self.threading {
            Threading::ThreadPool { pool } if threaded => {
                pool.run_tasks(tasks, run_chunk::<T>);
                self.recorder
                    .tally(KernelClass::PoolDispatch, tasks.len() as u64, 0);
            }
            _ if lanes == 1 => tasks.iter_mut().for_each(run_chunk),
            // Thread-create (§VI-B) and futures (§VI-A): threads made and
            // joined per level.
            _ => std::thread::scope(|scope| {
                let per_lane = tasks.len().div_ceil(lanes);
                for lane in tasks.chunks_mut(per_lane) {
                    scope.spawn(move || lane.iter_mut().for_each(run_chunk));
                }
            }),
        }
        self.finish_batch(lanes);
        for (op, (dest, scale, _)) in level.zip(outputs.drain(..)) {
            if let (Some(si), Some(sc)) = (op.dest_scale_write, scale) {
                self.bufs.scale_buffers[si] = sc;
            }
            self.bufs.restore_destination(op.destination, dest);
        }
        self.scratch.outputs = outputs;
    }

    /// Root integration, optionally parallelized over patterns on the pool.
    fn root_log_likelihood(
        &mut self,
        root_buffer: usize,
        cw_index: usize,
        f_index: usize,
        cumulative_scale: Option<usize>,
    ) -> Result<f64> {
        let cfg = self.bufs.config;
        if root_buffer >= cfg.partials_buffer_count {
            return Err(BeagleError::OutOfRange {
                what: "partials buffer (root)",
                index: root_buffer,
                limit: cfg.partials_buffer_count,
            });
        }
        if cw_index >= self.bufs.category_weights.len() {
            return Err(BeagleError::OutOfRange {
                what: "category weights buffer",
                index: cw_index,
                limit: self.bufs.category_weights.len(),
            });
        }
        if f_index >= self.bufs.frequencies.len() {
            return Err(BeagleError::OutOfRange {
                what: "frequencies buffer",
                index: f_index,
                limit: self.bufs.frequencies.len(),
            });
        }
        if let Some(cs) = cumulative_scale {
            if cs >= self.bufs.scale_buffers.len() {
                return Err(BeagleError::OutOfRange {
                    what: "scale buffer",
                    index: cs,
                    limit: self.bufs.scale_buffers.len(),
                });
            }
        }
        let root = self.bufs.partials[root_buffer].take().ok_or_else(|| {
            BeagleError::InvalidConfiguration(format!(
                "root buffer {root_buffer} has never been computed"
            ))
        })?;
        let mut site_lnl = std::mem::take(&mut self.bufs.site_log_likelihoods);

        let s = cfg.state_count;
        let sp = self.bufs.state_stride;
        let n_pat = cfg.pattern_count;
        let freqs = &self.bufs.frequencies[f_index];
        let catw = &self.bufs.category_weights[cw_index];
        let pw = &self.bufs.pattern_weights;
        let cscale = cumulative_scale.map(|i| self.bufs.scale_buffers[i].as_slice());

        let parallel_root =
            matches!(self.threading, Threading::ThreadPool { .. }) && n_pat >= self.min_patterns;
        if parallel_root {
            let Threading::ThreadPool { pool } = &self.threading else {
                unreachable!()
            };
            let tasks = &mut self.scratch.root_tasks;
            tasks.clear();
            let site_base = site_lnl.as_mut_ptr();
            for &(p0, p1) in &self.partition {
                tasks.push(RootTask {
                    // SAFETY: p0 < n_pat == site_lnl length.
                    site: unsafe { site_base.add(p0) },
                    len: p1 - p0,
                    root: root.as_ptr(),
                    root_len: root.len(),
                    freqs: freqs.as_ptr(),
                    freqs_len: freqs.len(),
                    catw: catw.as_ptr(),
                    catw_len: catw.len(),
                    cscale: cscale.map_or(std::ptr::null(), |cs| cs.as_ptr()),
                    s,
                    sp,
                    n_pat,
                    p0,
                    dispatch: self.dispatch,
                });
            }
            pool.run_tasks(tasks, run_root::<T>);
            tasks.clear();
        } else {
            (self.dispatch.integrate_root)(
                &mut site_lnl,
                &root,
                freqs,
                catw,
                cscale,
                s,
                sp,
                n_pat,
                0,
            );
        }
        // The one reduction, left to right over the whole range, however
        // the site values were computed.
        let total = weighted_lnl_sum(0.0, &site_lnl, pw.iter().copied());

        if parallel_root {
            self.recorder
                .tally(KernelClass::PoolDispatch, self.partition.len() as u64, 0);
        }
        self.bufs.site_log_likelihoods = site_lnl;
        self.bufs.partials[root_buffer] = Some(root);
        if total.is_nan() {
            return Err(BeagleError::NumericalFailure(
                "root log-likelihood is NaN (consider enabling scaling)".into(),
            ));
        }
        Ok(total)
    }
}

impl<T: DispatchReal> BeagleInstance for CpuInstance<T> {
    fn details(&self) -> &InstanceDetails {
        &self.details
    }

    fn config(&self) -> &InstanceConfig {
        &self.bufs.config
    }

    fn set_tip_states(&mut self, tip: usize, states: &[u32]) -> Result<()> {
        self.bufs.set_tip_states(tip, states)?;
        self.bounds.set_tip(tip);
        Ok(())
    }

    fn set_tip_partials(&mut self, tip: usize, partials: &[f64]) -> Result<()> {
        self.bufs.set_tip_partials(tip, partials)?;
        self.bounds.forget(tip);
        Ok(())
    }

    fn set_partials(&mut self, buffer: usize, partials: &[f64]) -> Result<()> {
        self.bufs.set_partials(buffer, partials)?;
        self.bounds.forget(buffer);
        Ok(())
    }

    fn get_partials(&self, buffer: usize) -> Result<Vec<f64>> {
        self.bufs.get_partials(buffer)
    }

    fn set_pattern_weights(&mut self, weights: &[f64]) -> Result<()> {
        self.bufs.set_pattern_weights(weights)
    }

    fn set_state_frequencies(&mut self, index: usize, frequencies: &[f64]) -> Result<()> {
        self.bufs.set_state_frequencies(index, frequencies)
    }

    fn set_category_rates(&mut self, rates: &[f64]) -> Result<()> {
        self.bufs.set_category_rates(rates)
    }

    fn set_category_weights(&mut self, index: usize, weights: &[f64]) -> Result<()> {
        self.bufs.set_category_weights(index, weights)
    }

    fn set_eigen_decomposition(
        &mut self,
        index: usize,
        vectors: &[f64],
        inverse_vectors: &[f64],
        values: &[f64],
    ) -> Result<()> {
        self.bufs
            .set_eigen_decomposition(index, vectors, inverse_vectors, values)
    }

    fn update_transition_matrices(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        let sw = self.recorder.start();
        let r = self
            .bufs
            .update_transition_matrices(eigen_index, matrix_indices, branch_lengths);
        let bytes = (matrix_indices.len()
            * self.bufs.config.category_count
            * self.bufs.config.state_count
            * self.bufs.state_stride
            * std::mem::size_of::<T>()) as u64;
        self.recorder.finish(
            sw,
            KernelClass::TransitionMatrices,
            matrix_indices.len() as u64,
            bytes,
        );
        r
    }

    fn update_transition_derivatives(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        d1_indices: &[usize],
        d2_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        let sw = self.recorder.start();
        let r = self.bufs.update_transition_derivatives(
            eigen_index,
            matrix_indices,
            d1_indices,
            d2_indices,
            branch_lengths,
        );
        // Three matrices (P, dP/dt, d²P/dt²) per branch.
        let items = 3 * matrix_indices.len();
        let bytes = (items * self.bufs.padded_matrix_len() * std::mem::size_of::<T>()) as u64;
        self.recorder
            .finish(sw, KernelClass::TransitionMatrices, items as u64, bytes);
        r
    }

    fn integrate_edge_derivatives(
        &mut self,
        parent: BufferId,
        child: BufferId,
        matrix: BufferId,
        d1: BufferId,
        d2: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<(f64, f64, f64)> {
        let sw = self.recorder.start();
        let parent_buffer = parent.index();
        let child_buffer = child.index();
        let matrix_index = matrix.index();
        let d1_matrix = d1.index();
        let d2_matrix = d2.index();
        let category_weights_index = category_weights.index();
        let frequencies_index = frequencies.index();
        let cumulative_scale = scaling.index();
        let cfg = self.bufs.config;
        self.bufs.check_integration_indices(
            &[parent_buffer, child_buffer],
            &[matrix_index, d1_matrix, d2_matrix],
            frequencies_index,
            category_weights_index,
            cumulative_scale,
        )?;
        let parent = self.bufs.partials[parent_buffer].as_ref().ok_or_else(|| {
            BeagleError::InvalidConfiguration(format!(
                "parent buffer {parent_buffer} has never been computed"
            ))
        })?;
        let child = if let Some(p) = &self.bufs.partials[child_buffer] {
            kernels::EdgeChild::Partials(p.as_slice())
        } else if let Some(st) = &self.bufs.tip_states[child_buffer] {
            kernels::EdgeChild::States(st.as_slice())
        } else {
            return Err(BeagleError::InvalidConfiguration(format!(
                "child buffer {child_buffer} has never been written"
            )));
        };
        let cscale = cumulative_scale.map(|i| self.bufs.scale_buffers[i].as_slice());
        let (lnl, d1, d2) = kernels::integrate_edge_derivatives(
            parent,
            child,
            &self.bufs.matrices[matrix_index],
            &self.bufs.matrices[d1_matrix],
            &self.bufs.matrices[d2_matrix],
            &self.bufs.frequencies[frequencies_index],
            &self.bufs.category_weights[category_weights_index],
            &self.bufs.pattern_weights,
            cscale,
            cfg.state_count,
            self.bufs.state_stride,
            cfg.pattern_count,
        );
        self.recorder
            .finish(sw, KernelClass::EdgeIntegrate, cfg.pattern_count as u64, 0);
        if lnl.is_nan() {
            return Err(BeagleError::NumericalFailure(
                "edge derivative log-likelihood is NaN".into(),
            ));
        }
        Ok((lnl, d1, d2))
    }

    fn set_transition_matrix(&mut self, index: usize, matrix: &[f64]) -> Result<()> {
        self.bufs.set_transition_matrix(index, matrix)
    }

    fn get_transition_matrix(&self, index: usize) -> Result<Vec<f64>> {
        self.bufs.get_transition_matrix(index)
    }

    fn update_partials(&mut self, operations: &[Operation]) -> Result<()> {
        // Validate everything up front; ops later in the list may read
        // destinations produced by earlier ops in the same call.
        self.bufs.check_operations(operations)?;

        let t0 = self
            .recorder
            .stats()
            .map(|before| (std::time::Instant::now(), before));
        self.recorder.event(EventKind::OperationBegin, || {
            format!("update_partials ops={}", operations.len())
        });
        let threaded = !matches!(self.threading, Threading::Serial)
            && self.bufs.config.pattern_count >= self.min_patterns;
        if threaded {
            let mut plan = std::mem::take(&mut self.scratch.plan);
            plan.plan(operations);
            for level in plan.levels() {
                self.execute_level(level.map(|i| &operations[i]), true);
            }
            self.scratch.plan = plan;
        } else {
            for op in operations {
                self.execute_level(std::iter::once(op), false);
            }
        }
        if let Some((t0, before)) = t0 {
            self.record_partials_call(operations, t0.elapsed(), &before);
            let checks = self.rescale_check_detail(&before);
            self.recorder.event(EventKind::OperationEnd, || {
                format!("update_partials ops={} {checks}", operations.len())
            });
        }
        Ok(())
    }

    fn reset_scale_factors(&mut self, cumulative: usize) -> Result<()> {
        let sw = self.recorder.start();
        let r = self.bufs.reset_scale_factors(cumulative);
        self.recorder.finish(sw, KernelClass::Rescale, 1, 0);
        r
    }

    fn accumulate_scale_factors(
        &mut self,
        scale_indices: &[usize],
        cumulative: usize,
    ) -> Result<()> {
        let sw = self.recorder.start();
        let r = self
            .bufs
            .accumulate_scale_factors(scale_indices, cumulative);
        self.recorder
            .finish(sw, KernelClass::Rescale, scale_indices.len() as u64, 0);
        r
    }

    fn integrate_root(
        &mut self,
        root: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<f64> {
        let sw = self.recorder.start();
        let r = self.root_log_likelihood(
            root.index(),
            category_weights.index(),
            frequencies.index(),
            scaling.index(),
        );
        let patterns = self.bufs.config.pattern_count as u64;
        self.recorder
            .finish(sw, KernelClass::RootIntegrate, patterns, 0);
        r
    }

    fn integrate_edge(
        &mut self,
        parent: BufferId,
        child: BufferId,
        matrix: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<f64> {
        let sw = self.recorder.start();
        let parent_buffer = parent.index();
        let child_buffer = child.index();
        let matrix_index = matrix.index();
        let category_weights_index = category_weights.index();
        let frequencies_index = frequencies.index();
        let cumulative_scale = scaling.index();
        let cfg = self.bufs.config;
        self.bufs.check_integration_indices(
            &[parent_buffer, child_buffer],
            &[matrix_index],
            frequencies_index,
            category_weights_index,
            cumulative_scale,
        )?;
        let parent = self.bufs.partials[parent_buffer].take().ok_or_else(|| {
            BeagleError::InvalidConfiguration(format!(
                "parent buffer {parent_buffer} has never been computed"
            ))
        })?;
        // Reuse the site-likelihood buffer instead of allocating a fresh one
        // per call (allocation-free hot path).
        let mut site_lnl = std::mem::take(&mut self.bufs.site_log_likelihoods);
        let result = (|| {
            let child = if let Some(p) = &self.bufs.partials[child_buffer] {
                EdgeChild::Partials(p.as_slice())
            } else if let Some(st) = &self.bufs.tip_states[child_buffer] {
                EdgeChild::States(st.as_slice())
            } else {
                return Err(BeagleError::InvalidConfiguration(format!(
                    "child buffer {child_buffer} has never been written"
                )));
            };
            let cscale = cumulative_scale.map(|i| self.bufs.scale_buffers[i].as_slice());
            (self.dispatch.integrate_edge)(
                &mut site_lnl,
                &parent,
                child,
                &self.bufs.matrices[matrix_index],
                &self.bufs.frequencies[frequencies_index],
                &self.bufs.category_weights[category_weights_index],
                cscale,
                cfg.state_count,
                self.bufs.state_stride,
                cfg.pattern_count,
                0,
            );
            Ok(weighted_lnl_sum(
                0.0,
                &site_lnl,
                self.bufs.pattern_weights.iter().copied(),
            ))
        })();
        self.bufs.site_log_likelihoods = site_lnl;
        self.bufs.partials[parent_buffer] = Some(parent);
        self.recorder
            .finish(sw, KernelClass::EdgeIntegrate, cfg.pattern_count as u64, 0);
        let total = result?;
        if total.is_nan() {
            return Err(BeagleError::NumericalFailure(
                "edge log-likelihood is NaN (consider enabling scaling)".into(),
            ));
        }
        Ok(total)
    }

    fn get_site_log_likelihoods(&self) -> Result<Vec<f64>> {
        Ok(widen_slice(&self.bufs.site_log_likelihoods))
    }

    fn statistics(&self) -> Option<obs::InstanceStats> {
        self.recorder.stats()
    }

    fn take_journal(&mut self) -> Vec<obs::Event> {
        self.recorder.take_journal()
    }
}
