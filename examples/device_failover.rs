//! Device fault injection and automatic failover, end to end.
//!
//! Three scenarios against the same 8-taxon problem:
//! 1. a permanent device loss mid-traversal — the partitioned instance
//!    evicts the dead child, repartitions, and still matches the oracle;
//! 2. a transient kernel-launch fault — retried in place, nothing evicted;
//! 3. every accelerator dead at creation — the manager's fallback chain
//!    lands on a CPU implementation.
//!
//! Run with: cargo run --release --example device_failover

use beagle::accel::{catalog, FaultDirectory, FaultKind, FaultPlan, Schedule};
use beagle::core::multi::{ChildSelection, PartitionedInstance};
use beagle::core::{Flags, InstanceSpec};
use beagle::harness::{full_manager_with_faults, ModelKind, Problem, Scenario};

fn problem() -> Problem {
    Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 8,
        patterns: 900,
        categories: 4,
        seed: 77,
    })
}

fn main() {
    let p = problem();
    let oracle = p.oracle();
    println!("problem: 8 taxa, 900 patterns, 4 rate categories; oracle lnL = {oracle:.9}");

    // 1. Permanent device loss mid-run.
    let faults = FaultDirectory::new().with_plan(
        catalog::quadro_p5000().name,
        FaultPlan::new(7).with_fault(FaultKind::DeviceLost, false, Schedule::AtCall(18)),
    );
    let manager = full_manager_with_faults(&faults);
    let devices = [
        (Flags::NONE, Flags::FRAMEWORK_CUDA),
        (Flags::NONE, Flags::FRAMEWORK_OPENCL | Flags::PROCESSOR_CPU),
        (Flags::NONE, Flags::PROCESSOR_CPU),
    ];
    let mut multi = PartitionedInstance::create(
        &manager,
        &InstanceSpec::with_config(p.config()),
        &devices.map(|(prefs, reqs)| ChildSelection::from_flags(prefs, reqs)),
        &[1.0, 1.0, 1.0],
    )
    .expect("partitioned create");
    println!(
        "\n[1] permanent DeviceLost on {} at driver call 18",
        catalog::quadro_p5000().name
    );
    println!("    children before: {}", multi.device_count());
    p.load(&mut multi);
    let lnl = p.evaluate(&mut multi, false);
    println!(
        "    children after:  {} (evictions: {}), lnL = {lnl:.9}, |Δoracle| = {:.2e}",
        multi.device_count(),
        multi.eviction_count(),
        (lnl - oracle).abs()
    );

    // 2. Transient launch fault: retried, not evicted.
    let faults = FaultDirectory::new().with_plan(
        catalog::quadro_p5000().name,
        FaultPlan::new(7).with_fault(FaultKind::KernelLaunch, true, Schedule::AtCall(18)),
    );
    let manager = full_manager_with_faults(&faults);
    let devices = [
        (Flags::NONE, Flags::FRAMEWORK_CUDA),
        (Flags::NONE, Flags::PROCESSOR_CPU),
    ];
    let mut multi = PartitionedInstance::create(
        &manager,
        &InstanceSpec::with_config(p.config()),
        &devices.map(|(prefs, reqs)| ChildSelection::from_flags(prefs, reqs)),
        &[1.0, 1.0],
    )
    .expect("partitioned create");
    p.load(&mut multi);
    let lnl = p.evaluate(&mut multi, false);
    println!("\n[2] transient KernelLaunch fault on the same device");
    println!(
        "    retries per child: {:?}, evictions: {}, lnL = {lnl:.9}, |Δoracle| = {:.2e}",
        multi.retry_counts(),
        multi.eviction_count(),
        (lnl - oracle).abs()
    );

    // 3. Every accelerator dead at creation: fallback chain finds the CPU.
    let mut faults = FaultDirectory::new();
    for spec in catalog::all() {
        faults.insert(
            spec.name,
            FaultPlan::new(1).with_fault(FaultKind::Allocation, false, Schedule::AtCall(1)),
        );
    }
    let manager = full_manager_with_faults(&faults);
    let mut inst = InstanceSpec::with_config(p.config())
        .instantiate(&manager)
        .expect("fallback chain");
    println!("\n[3] all accelerators dead at creation");
    println!(
        "    fallback landed on: {}",
        inst.details().implementation_name
    );
    let (lnl, oracle) = beagle::harness::verify(&p, inst.as_mut(), false);
    println!(
        "    lnL = {lnl:.9}, |Δoracle| = {:.2e}",
        (lnl - oracle).abs()
    );
}
