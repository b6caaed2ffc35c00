//! Time-bounded robustness soak.
//!
//! Hammers a partitioned instance with seeded fault plans — hangs, stalls,
//! device loss, transient launch failures — drawn from a deterministic
//! per-iteration PRNG, under a per-launch watchdog deadline. Every
//! iteration must finish with the oracle's log-likelihood: a hang that the
//! watchdog cancels, a timeout that evicts a child, or a retried transient
//! must never lose an operation. Every few iterations the run also takes a
//! durable checkpoint, round-trips it through disk into a fresh manager,
//! and demands a bit-identical restore. Each iteration additionally draws a
//! starting state for the incremental memo layer, then flips it mid-storm
//! and re-evaluates: toggling memoization under fire must never change a
//! bit (the memo's bookkeeping runs even while skipping is disabled).
//!
//! Run with: cargo run --release --example soak -- --seconds 20
//! Exits non-zero if any iteration diverges.

use std::time::{Duration, Instant};

use beagle::accel::{catalog, FaultDirectory, FaultKind, FaultPlan, Schedule};
use beagle::core::multi::{ChildSelection, PartitionedInstance};
use beagle::core::{BeagleInstance, Checkpoint, Flags, InstanceSpec};
use beagle::harness::{full_manager, full_manager_with_faults, ModelKind, Problem, Scenario};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Drawn {
    kind: FaultKind,
    transient: bool,
    call: u64,
    deadline: Duration,
    label: &'static str,
}

/// Draw one fault scenario. Every draw is survivable: faults only target
/// the CUDA device, and two fault-free CPU-side children always remain.
fn draw(rng: &mut u64) -> Drawn {
    let call = 15 + splitmix64(rng) % 8; // matrix kernel or a partials launch
    let deadline = if splitmix64(rng).is_multiple_of(2) {
        Duration::from_millis(10)
    } else {
        Duration::from_millis(100)
    };
    match splitmix64(rng) % 6 {
        0 => Drawn {
            kind: FaultKind::Hang,
            transient: false,
            call,
            deadline,
            label: "permanent hang",
        },
        1 => Drawn {
            kind: FaultKind::Hang,
            transient: true,
            call,
            deadline,
            label: "transient hang",
        },
        2 => Drawn {
            // Under every budget above: completes late, no fault observed.
            kind: FaultKind::Stall(Duration::from_millis(1)),
            transient: true,
            call,
            deadline,
            label: "short stall",
        },
        3 => Drawn {
            // Over every budget: the watchdog cancels it.
            kind: FaultKind::Stall(Duration::from_millis(500)),
            transient: true,
            call,
            deadline,
            label: "long stall",
        },
        4 => Drawn {
            kind: FaultKind::DeviceLost,
            transient: false,
            call,
            deadline,
            label: "device lost",
        },
        _ => Drawn {
            kind: FaultKind::KernelLaunch,
            transient: true,
            call,
            deadline,
            label: "transient launch",
        },
    }
}

fn main() {
    let mut budget = Duration::from_secs(10);
    let mut base_seed: u64 = 0xB0A7;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seconds" => {
                let v = args.next().expect("--seconds needs a value");
                budget = Duration::from_secs(v.parse().expect("--seconds takes an integer"));
            }
            "--seed" => {
                let v = args.next().expect("--seed needs a value");
                base_seed = v.parse().expect("--seed takes an integer");
            }
            other => panic!("unknown argument {other} (try --seconds N / --seed S)"),
        }
    }

    let p = Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 8,
        patterns: 300,
        categories: 4,
        seed: 77,
    });
    let oracle = p.oracle();
    let devices = [
        (Flags::NONE, Flags::FRAMEWORK_CUDA),
        (Flags::NONE, Flags::FRAMEWORK_OPENCL | Flags::PROCESSOR_CPU),
        (Flags::NONE, Flags::PROCESSOR_CPU),
    ];
    let ckpt_path = std::env::temp_dir().join(format!("beagle-soak-{}.ckpt", std::process::id()));

    let start = Instant::now();
    let mut rng = base_seed;
    let (mut iterations, mut evictions, mut retries, mut checkpoints, mut toggles) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut failures: Vec<String> = Vec::new();
    println!(
        "soak: {}s budget, base seed {base_seed:#x}, oracle lnL = {oracle:.9}",
        budget.as_secs()
    );

    while start.elapsed() < budget {
        iterations += 1;
        let d = draw(&mut rng);
        let start_incremental = splitmix64(&mut rng).is_multiple_of(2);
        let faults = FaultDirectory::new().with_plan(
            catalog::quadro_p5000().name,
            FaultPlan::new(splitmix64(&mut rng)).with_fault(
                d.kind,
                d.transient,
                Schedule::AtCall(d.call),
            ),
        );
        let manager = full_manager_with_faults(&faults);
        let spec = InstanceSpec::with_config(p.config()).with_deadline(d.deadline);
        let mut multi = match PartitionedInstance::create(
            &manager,
            &spec,
            &devices.map(|(prefs, reqs)| ChildSelection::from_flags(prefs, reqs)),
            &[1.0, 1.0, 1.0],
        ) {
            Ok(m) => m,
            Err(e) => {
                failures.push(format!(
                    "iter {iterations} ({}): creation failed: {e}",
                    d.label
                ));
                continue;
            }
        };
        multi.set_incremental(start_incremental);
        p.load(&mut multi);
        let lnl = p.evaluate(&mut multi, false);
        evictions += multi.eviction_count();
        retries += multi.retry_counts().iter().sum::<u64>();
        if (lnl - oracle).abs() >= 1e-6 {
            failures.push(format!(
                "iter {iterations} ({}, call {}, deadline {:?}): lnL {lnl} vs oracle {oracle}",
                d.label, d.call, d.deadline
            ));
        }

        // Mid-storm toggle: flip the memo layer and re-evaluate. Whether
        // the repeat is skipped (toggled on) or recomputed (toggled off),
        // the bits must not move.
        toggles += 1;
        multi.set_incremental(!start_incremental);
        p.load(&mut multi);
        let again = p.evaluate(&mut multi, false);
        if again.to_bits() != lnl.to_bits() {
            failures.push(format!(
                "iter {iterations} ({}): incremental toggle {} -> {} changed bits: \
                 {lnl} vs {again}",
                d.label, start_incremental, !start_incremental
            ));
        }

        // Periodically round-trip a durable checkpoint through disk into a
        // fresh manager and demand a bit-identical restore.
        if iterations.is_multiple_of(5) {
            checkpoints += 1;
            match multi.checkpoint() {
                Some(ckpt) => {
                    let round_trip = ckpt
                        .save(&ckpt_path)
                        .and_then(|()| Checkpoint::load(&ckpt_path))
                        .and_then(|loaded| loaded.restore(&full_manager()));
                    match round_trip {
                        Ok(mut restored) => {
                            let back = p.evaluate(&mut restored, false);
                            if (back - oracle).abs() >= 1e-6 {
                                failures.push(format!(
                                    "iter {iterations}: restored lnL {back} vs oracle {oracle}"
                                ));
                            }
                        }
                        Err(e) => {
                            failures.push(format!("iter {iterations}: checkpoint round-trip: {e}"))
                        }
                    }
                }
                None => failures.push(format!("iter {iterations}: no checkpoint produced")),
            }
        }
    }
    std::fs::remove_file(&ckpt_path).ok();

    println!(
        "soak: {iterations} iterations in {:.1}s — {evictions} evictions, {retries} retries, \
         {checkpoints} checkpoint round-trips, {toggles} incremental toggles, {} failures",
        start.elapsed().as_secs_f64(),
        failures.len()
    );
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("soak: zero lost operations");
}
