//! The traversal hot path allocates nothing: after a warm-up evaluation, a
//! scaled `update_partials` + `accumulate_scale_factors` + `integrate_root`
//! must not touch the heap, on the serial vectorized instance and on the
//! two-thread pool above the 512-pattern threading threshold, for
//! nucleotides and for codons (s = 61, whose vectorized kernels read child
//! matrices transposed into the instance's reusable scratch once per
//! operation and category).
//!
//! A counting global allocator sees every thread (pool workers included).
//! The file holds a single test so no other test's allocations land inside
//! the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use beagle_core::api::{BeagleInstance, BufferId, InstanceConfig, InstanceDetails, ScalingMode};
use beagle_core::flags::Flags;
use beagle_core::Operation;
use beagle_cpu::instance::Threading;
use beagle_cpu::{CpuInstance, ThreadPool};

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards to the system allocator unchanged; only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Relaxed) {
            BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Relaxed) {
            BYTES.fetch_add(new_size as u64, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const TAXA: usize = 8;
const PATTERNS: usize = 700;
const CATEGORIES: usize = 4;

/// A loaded `states`-state instance plus its scaled caterpillar traversal.
fn setup(threading: Threading, states: usize) -> (CpuInstance<f64>, Vec<Operation>) {
    let config = InstanceConfig::for_tree(TAXA, PATTERNS, states, CATEGORIES);
    let details = InstanceDetails {
        implementation_name: "alloc-free".into(),
        resource_name: "host".into(),
        flags: Flags::NONE,
        thread_count: 2,
    };
    let mut inst = CpuInstance::<f64>::new(config, threading, true, details).unwrap();
    inst.set_category_weights(0, &[0.25; CATEGORIES]).unwrap();
    let mut m = vec![0.0; CATEGORIES * states * states];
    for (i, x) in m.iter_mut().enumerate() {
        *x = 0.02 + ((i * 37 + 11) % 91) as f64 / 400.0;
    }
    for mat in 0..config.matrix_buffer_count {
        inst.set_transition_matrix(mat, &m).unwrap();
    }
    for tip in 0..TAXA {
        let states: Vec<u32> = (0..PATTERNS)
            .map(|p| ((p * 7 + tip * 3 + p / 5) % states) as u32)
            .collect();
        inst.set_tip_states(tip, &states).unwrap();
    }
    // Caterpillar: node TAXA joins tips 0 and 1, each later node joins the
    // previous node and the next tip.
    let mut ops = vec![Operation::new(TAXA, 0, 0, 1, 1).with_scaling(TAXA)];
    for k in 1..TAXA - 1 {
        let dest = TAXA + k;
        ops.push(Operation::new(dest, dest - 1, dest - 1, k + 1, k + 1).with_scaling(dest));
    }
    (inst, ops)
}

/// One scaled evaluation; returns the log-likelihood.
fn evaluate(inst: &mut CpuInstance<f64>, ops: &[Operation], scale_indices: &[usize]) -> f64 {
    let cumulative = inst.config().scale_buffer_count - 1;
    inst.update_partials(ops).unwrap();
    inst.reset_scale_factors(cumulative).unwrap();
    inst.accumulate_scale_factors(scale_indices, cumulative)
        .unwrap();
    inst.integrate_root(
        BufferId(ops.last().unwrap().destination),
        BufferId(0),
        BufferId(0),
        ScalingMode::cumulative(cumulative),
    )
    .unwrap()
}

/// Bytes allocated (on any thread) while evaluating once.
fn bytes_allocated(inst: &mut CpuInstance<f64>, ops: &[Operation], scale_indices: &[usize]) -> u64 {
    BYTES.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    std::hint::black_box(evaluate(inst, ops, scale_indices));
    ARMED.store(false, Relaxed);
    BYTES.load(Relaxed)
}

/// A two-thread pool whose workers have started, run a task and had time
/// to park: spawning a thread allocates (its name, thread-local and
/// parking state), and none of that belongs to the traversal.
fn started_pool() -> Arc<ThreadPool> {
    let pool = Arc::new(ThreadPool::new(2));
    // Three tasks meeting at one barrier need the caller and both workers.
    let barrier = std::sync::Barrier::new(3);
    pool.run_tasks(&mut [&barrier; 3], |b| {
        b.wait();
    });
    std::thread::sleep(std::time::Duration::from_millis(50));
    pool
}

#[test]
fn scaled_traversal_allocates_nothing_after_warm_up() {
    for (name, states) in [
        ("CPU-SSE", 4),
        ("CPU-threadpool-SSE", 4),
        ("CPU-SSE", 61),
        ("CPU-threadpool-SSE", 61),
    ] {
        let threading = match name {
            "CPU-SSE" => Threading::Serial,
            _ => Threading::ThreadPool {
                pool: started_pool(),
            },
        };
        let name = format!("{name} s={states}");
        let (mut inst, ops) = setup(threading, states);
        let scale_indices: Vec<usize> = ops.iter().map(|op| op.destination).collect();
        let warm = evaluate(&mut inst, &ops, &scale_indices);
        assert!(warm.is_finite(), "{name}: {warm}");
        for round in 0..5 {
            let bytes = bytes_allocated(&mut inst, &ops, &scale_indices);
            assert_eq!(
                bytes, 0,
                "{name}: evaluation {round} after warm-up allocated"
            );
        }
        let lnl = evaluate(&mut inst, &ops, &scale_indices);
        assert_eq!(lnl.to_bits(), warm.to_bits(), "{name}: repeat differs");
    }
}
