//! Instance-pool throughput and tail latency vs a single shared instance.
//!
//! Fixture: eight concurrent session streams (codon model, so modeled device
//! time dominates per-launch overhead) served two ways:
//!
//! * **mutex** — one simulated-GPU instance behind a `Mutex`, eight client
//!   threads taking turns: every evaluation serializes on the single device,
//!   so the aggregate modeled time is the *sum* of all evaluations.
//! * **pool** — a four-worker [`beagle_core::pool`] fleet of the same
//!   implementation: each worker's device serializes only its own share, and
//!   the fleet's modeled makespan is the *max* over workers. Workers take
//!   sessions from one shared FIFO, so a share is the number of sessions a
//!   worker was free to take; the line `pool scheduling:` prints them.
//!
//! The headline number in `BENCH_pool.json` is aggregate throughput
//! improvement = mutex modeled total / pool modeled makespan; the acceptance
//! bar is ≥ 3× on the 4-worker fleet. Per-ticket wall latencies (p50/p95/p99)
//! are reported for both modes but not asserted — on a 1-core CI host wall
//! time measures the scheduler, not the devices.
//!
//! Timing provenance: the headline is **modeled** device time (DESIGN.md §1),
//! which is what makes the number host-independent: it reports the
//! concurrency the fleet would achieve on real hardware, where each worker's
//! device advances its own clock.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use beagle_accel::catalog;
use beagle_core::{BufferId, InstanceSpec, Lane, PoolBuilder, SessionRequest};
use genomictest::{full_manager, ModelKind, Problem, Scenario};

const WORKERS: usize = 4;
const CLIENTS: usize = 8;

fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0")
}

fn gpu_name() -> String {
    format!("OpenCL-GPU ({})", catalog::radeon_r9_nano().name)
}

/// One self-contained session per client stream.
fn session(problem: &Problem) -> SessionRequest {
    let eig = problem.model.eigen();
    SessionRequest {
        tip_states: (0..problem.tree.taxon_count())
            .map(|t| problem.patterns.tip_states(t))
            .collect(),
        pattern_weights: problem.patterns.weights().to_vec(),
        category_rates: problem.rates.rates.clone(),
        category_weights: problem.rates.weights.clone(),
        frequencies: problem.model.frequencies().to_vec(),
        eigen: Some((
            eig.vectors.as_slice().to_vec(),
            eig.inverse_vectors.as_slice().to_vec(),
            eig.values.clone(),
        )),
        matrices: problem.tree.branch_assignments(),
        operations: problem.operations(false),
        root: BufferId(problem.tree.root()),
        scaled: false,
        deadline: None,
    }
}

fn quantile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
    sorted[idx]
}

fn latency_json(latencies: &mut [Duration]) -> String {
    latencies.sort();
    format!(
        "{{\"p50\": {}, \"p95\": {}, \"p99\": {}}}",
        quantile(latencies, 0.50).as_micros(),
        quantile(latencies, 0.95).as_micros(),
        quantile(latencies, 0.99).as_micros()
    )
}

fn main() {
    let rounds = if quick_mode() { 3 } else { 4 };
    let patterns = if quick_mode() { 400 } else { 800 };
    let problems: Vec<Problem> = (0..CLIENTS)
        .map(|i| {
            Problem::generate(&Scenario {
                model: ModelKind::Codon,
                taxa: 8,
                patterns,
                categories: 2,
                seed: 100 + i as u64,
            })
        })
        .collect();
    let sessions: Vec<SessionRequest> = problems.iter().map(session).collect();
    let manager = full_manager();
    // Memoization would collapse the repeated evaluations to zero device
    // time in both modes; disable it so the bench measures scheduling.
    let spec = InstanceSpec::with_config(problems[0].config()).incremental(false);

    // -- Baseline: one shared instance behind a mutex. --------------------
    let inst = spec
        .clone()
        .named(gpu_name())
        .instantiate(&manager)
        .expect("simulated GPU exists");
    let shared = Arc::new(Mutex::new(inst));
    let mutex_results: Vec<Mutex<Vec<f64>>> =
        (0..CLIENTS).map(|_| Mutex::new(Vec::new())).collect();
    let mutex_latencies = Mutex::new(Vec::new());
    let mutex_start = shared
        .lock()
        .unwrap()
        .simulated_time()
        .expect("simulated backend");
    std::thread::scope(|scope| {
        for (client, results) in mutex_results.iter().enumerate() {
            let shared = Arc::clone(&shared);
            let session = &sessions[client];
            let latencies = &mutex_latencies;
            scope.spawn(move || {
                for _ in 0..rounds {
                    let t0 = Instant::now();
                    let mut inst = shared.lock().unwrap();
                    let lnl = session.evaluate(inst.as_mut()).expect("mutex evaluation");
                    drop(inst);
                    latencies.lock().unwrap().push(t0.elapsed());
                    results.lock().unwrap().push(lnl);
                }
            });
        }
    });
    let mutex_modeled = shared
        .lock()
        .unwrap()
        .simulated_time()
        .expect("simulated backend")
        - mutex_start;

    // -- Pool: four workers of the same implementation. -------------------
    let pool = PoolBuilder::from_spec(spec)
        .workers(WORKERS)
        .pin([gpu_name()])
        .queue_capacity(64)
        .build(&manager)
        .expect("pool builds");
    let handle = pool.handle();
    let pool_results: Vec<Mutex<Vec<f64>>> = (0..CLIENTS).map(|_| Mutex::new(Vec::new())).collect();
    let pool_latencies = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (client, results) in pool_results.iter().enumerate() {
            let handle = handle.clone();
            let session = sessions[client].clone();
            let latencies = &pool_latencies;
            let lane = if client % 2 == 0 {
                Lane::Interactive
            } else {
                Lane::Batch
            };
            scope.spawn(move || {
                for _ in 0..rounds {
                    let t0 = Instant::now();
                    let ticket = handle
                        .submit_session(lane, session.clone())
                        .expect("pool accepts sessions");
                    let lnl = ticket
                        .wait()
                        .expect("ticket resolves")
                        .expect("pool evaluation");
                    latencies.lock().unwrap().push(t0.elapsed());
                    results.lock().unwrap().push(lnl);
                }
            });
        }
    });
    let (drained, fleet) = pool.shutdown_drain(None);
    assert!(drained, "all tickets resolved before the drain");
    // Read counters only after the drain: a ticket resolves inside the job
    // closure, slightly before the worker books the completion.
    let stats = handle.stats();
    let per_worker: Vec<Duration> = fleet
        .iter()
        .map(|w| w.simulated_time().expect("simulated backend"))
        .collect();
    let pool_makespan = per_worker.iter().max().copied().unwrap_or_default();

    // -- Correctness: every pooled result bit-matches the mutex baseline. --
    let mut correct = true;
    for client in 0..CLIENTS {
        let mutex = mutex_results[client].lock().unwrap();
        let pooled = pool_results[client].lock().unwrap();
        correct &= mutex.len() == rounds && pooled.len() == rounds;
        for (a, b) in mutex.iter().zip(pooled.iter()) {
            correct &= a.to_bits() == b.to_bits();
        }
    }

    let speedup = mutex_modeled.as_secs_f64() / pool_makespan.as_secs_f64();
    let jobs = (CLIENTS * rounds) as u64;

    println!(
        "== instance pool: {CLIENTS} session streams x {rounds} rounds on {WORKERS}x {} ==",
        gpu_name()
    );
    println!(
        "mutex modeled total:  {:>10.3} ms",
        mutex_modeled.as_secs_f64() * 1e3
    );
    println!(
        "pool modeled makespan:{:>10.3} ms  (per-worker: {:?})",
        pool_makespan.as_secs_f64() * 1e3,
        per_worker
            .iter()
            .map(|d| format!("{:.3} ms", d.as_secs_f64() * 1e3))
            .collect::<Vec<_>>()
    );
    println!("aggregate throughput: {speedup:.2}x (acceptance bar: 3x)");
    println!(
        "pool scheduling:      {} completed, max queue depth {}, jobs per worker {:?}",
        stats.completed,
        stats.max_queue_depth,
        stats.workers.iter().map(|w| w.jobs).collect::<Vec<_>>()
    );
    println!("correct:              {correct} (pooled bit-identical to mutex baseline)");

    assert_eq!(stats.completed, jobs, "every submitted session must finish");
    assert!(correct, "pooling must never change a result");
    assert!(
        speedup >= 3.0,
        "4-worker pool must beat the shared-mutex instance 3x, got {speedup:.2}x"
    );

    let mut mutex_lat = mutex_latencies.into_inner().unwrap();
    let mut pool_lat = pool_latencies.into_inner().unwrap();
    let mut json = String::from("{\n  \"benchmark\": \"pool\",\n");
    json.push_str(&format!(
        "  \"fixture\": {{\"implementation\": \"{}\", \"workers\": {WORKERS}, \"clients\": {CLIENTS}, \"rounds\": {rounds}, \"patterns\": {patterns}}},\n",
        gpu_name()
    ));
    json.push_str(&format!(
        "  \"mutex_modeled_total_ns\": {},\n",
        mutex_modeled.as_nanos()
    ));
    json.push_str(&format!(
        "  \"pool_modeled_makespan_ns\": {},\n",
        pool_makespan.as_nanos()
    ));
    json.push_str(&format!(
        "  \"pool_worker_modeled_ns\": [{}],\n",
        per_worker
            .iter()
            .map(|d| d.as_nanos().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!("  \"throughput_speedup\": {speedup:.4},\n"));
    json.push_str(&format!(
        "  \"mutex_wall_latency_us\": {},\n",
        latency_json(&mut mutex_lat)
    ));
    json.push_str(&format!(
        "  \"pool_wall_latency_us\": {},\n",
        latency_json(&mut pool_lat)
    ));
    json.push_str(&format!("  \"pool_stats\": {},\n", stats.to_json()));
    json.push_str(&format!("  \"correct\": {correct}\n"));
    json.push_str("}\n");
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pool.json".into());
    std::fs::write(&out, json).expect("write BENCH_pool.json");
    println!("\nwrote {out}");
}
