//! Compile-time audit of the `BeagleInstance: Send + Sync` contract.
//!
//! The instance pool (`beagle_core::pool`) moves instances between worker
//! threads and shares references to its supervision structures across them,
//! which is only sound because the trait carries `Send + Sync` as a
//! supertrait bound. This test makes the audit explicit: every in-tree
//! backend, every wrapper layer, and the pool's own public types must
//! satisfy the bounds *by construction*. A backend that regresses (say, by
//! storing an `Rc` or a `RefCell`) fails this file at compile time, long
//! before any scheduler interleaving could expose it.

use beagle_core::pool::PoolHandle;
use beagle_core::{
    BeagleInstance, InstancePool, JournaledInstance, Lane, MemoInstance, PartitionedInstance,
    PoolError, PoolStats, SessionRequest, Ticket,
};

fn assert_send_sync<T: Send + Sync + ?Sized>() {}
fn assert_send<T: Send + ?Sized>() {}

#[test]
fn backends_are_send_sync() {
    assert_send_sync::<beagle_cpu::CpuInstance<f32>>();
    assert_send_sync::<beagle_cpu::CpuInstance<f64>>();
    assert_send_sync::<beagle_accel::AccelInstance<f32, beagle_accel::CudaDialect>>();
    assert_send_sync::<beagle_accel::AccelInstance<f64, beagle_accel::CudaDialect>>();
    assert_send_sync::<beagle_accel::AccelInstance<f32, beagle_accel::OpenClDialect>>();
    assert_send_sync::<beagle_accel::AccelInstance<f64, beagle_accel::OpenClDialect>>();
}

#[test]
fn wrappers_are_send_sync() {
    assert_send_sync::<JournaledInstance>();
    assert_send_sync::<MemoInstance>();
    assert_send_sync::<PartitionedInstance>();
}

#[test]
fn trait_objects_are_send_sync() {
    assert_send_sync::<dyn BeagleInstance>();
    assert_send_sync::<Box<dyn BeagleInstance>>();
}

#[test]
fn pool_types_are_sendable() {
    // The pool itself and its handles cross thread boundaries.
    assert_send_sync::<InstancePool>();
    assert_send_sync::<PoolHandle<Box<dyn BeagleInstance>>>();
    assert_send::<Ticket<f64>>();
    assert_send_sync::<SessionRequest>();
    assert_send_sync::<PoolStats>();
    assert_send_sync::<Lane>();
    assert_send_sync::<PoolError>();
}
