//! The BEAGLE-RS stack benchmark as a library: the `stack` binary's command
//! line is a thin layer over [`run::end_to_end`] and [`run::traced`], which
//! the smoke test also drives at tiny sizes. See `src/main.rs` for the
//! workloads, metrics and bounds.

mod check;
mod engines;
pub mod envelope;
mod heap;
pub mod run;
mod stats;
pub mod trace;
pub mod workload;
