//! # beagle-cpu
//!
//! CPU implementations for BEAGLE-RS, covering the full evolution the ICPP
//! 2017 paper describes in §VI:
//!
//! 1. **serial** — the original single-threaded model,
//! 2. **SSE** — vectorized 4-state kernels (explicit unrolling + `mul_add`,
//!    which LLVM lowers to SSE/AVX on x86-64),
//! 3. **futures** — one asynchronous task per independent tree operation,
//! 4. **thread-create** — per-call thread spawn splitting the pattern range,
//! 5. **thread-pool** — a persistent worker pool (the paper's winner), which
//!    also parallelizes root-likelihood integration.
//!
//! All models share one instance type ([`instance::CpuInstance`]) and one
//! set of scalar kernels ([`kernels`]); the vectorized variants live in
//! [`vector`]. Register the whole family on an
//! [`beagle_core::ImplementationManager`] with
//! [`factories::register_cpu_factories`].

// Likelihood kernels and small numeric routines are written with explicit
// index loops on purpose: the loop structure mirrors the work-item/work-group
// decomposition the paper describes, and that clarity outweighs iterator style.
#![allow(clippy::needless_range_loop)]

mod bounds;
pub mod factories;
pub mod instance;
pub mod kernels;
pub mod pool;
pub mod simd;
pub mod vector;

pub use factories::{host_threads, register_cpu_factories, CpuFactory, ThreadingModel};
pub use instance::{CpuInstance, Threading, MIN_PATTERNS_FOR_THREADING};
pub use pool::ThreadPool;
pub use simd::{host_fma_available, DispatchKind, DispatchReal, KernelDispatch};
