//! Likelihood-service protocol overhead vs the in-process instance pool.
//!
//! Fixture: eight concurrent session streams (codon model, same fixture as
//! `BENCH_pool.json`) served two ways by identical 4-worker fleets of the
//! simulated GPU:
//!
//! * **pool** — clients submit straight to an in-process
//!   [`beagle_core::pool`] handle (function-call dispatch, zero copies);
//! * **serve** — clients go through the full WIRE-v2 stack: encode the
//!   session, write it to a loopback TCP socket, the server decodes it,
//!   multiplexes it onto an embedded pool of the same shape, and streams the
//!   result frame back.
//!
//! The headline number in `BENCH_serve.json` is the **protocol overhead**:
//! the increase in mean per-request wall latency from interposing the wire
//! (encode + syscalls + decode + the handler thread hop), as a percentage of
//! the in-process mean. It is reported, not asserted — on a loaded CI host
//! wall time measures the scheduler — but the run hard-asserts what the
//! service contract promises: every remote result is **bit-identical** to
//! the in-process result for the same session, at least four clients ran
//! concurrently, and the server drains gracefully with nothing lost.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use beagle_accel::catalog;
use beagle_core::{BufferId, InstanceSpec, Lane, PoolBuilder, SessionRequest};
use beagle_server::{Client, Endpoint, ServerBuilder};
use genomictest::{full_manager, ModelKind, Problem, Scenario};

const WORKERS: usize = 4;
const CLIENTS: usize = 8;
// The acceptance bar requires genuinely concurrent clients.
const _: () = assert!(CLIENTS >= 4);

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

fn mean(latencies: &[Duration]) -> Duration {
    if latencies.is_empty() {
        return Duration::ZERO;
    }
    latencies.iter().sum::<Duration>() / latencies.len() as u32
}

fn lane_for(client: usize) -> Lane {
    if client.is_multiple_of(2) {
        Lane::Interactive
    } else {
        Lane::Batch
    }
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
    // time in both modes; disable it so both stacks do the same work.
    let spec = InstanceSpec::with_config(problems[0].config()).incremental(false);

    // -- Baseline: the in-process pool, function-call dispatch. ------------
    let pool = PoolBuilder::from_spec(spec.clone())
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
            scope.spawn(move || {
                for _ in 0..rounds {
                    let t0 = Instant::now();
                    let ticket = handle
                        .submit_session(lane_for(client), session.clone())
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
    let (pool_drained, _fleet) = pool.shutdown_drain(None);
    assert!(pool_drained, "in-process pool drains cleanly");

    // -- Remote: the same fleet behind the WIRE-v2 loopback server. --------
    let server = ServerBuilder::from_spec(spec)
        .workers(WORKERS)
        .pin([gpu_name()])
        .queue_capacity(64)
        .max_in_flight(4)
        .tcp("127.0.0.1:0")
        .serve(&manager)
        .expect("server starts");
    let endpoint = Endpoint::Tcp(server.tcp_addr().expect("tcp listener").to_string());
    let serve_results: Vec<Mutex<Vec<f64>>> =
        (0..CLIENTS).map(|_| Mutex::new(Vec::new())).collect();
    let serve_latencies = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (client, results) in serve_results.iter().enumerate() {
            let endpoint = endpoint.clone();
            let session = &sessions[client];
            let latencies = &serve_latencies;
            scope.spawn(move || {
                let mut conn = Client::connect(endpoint).expect("client connects");
                for _ in 0..rounds {
                    let t0 = Instant::now();
                    let lnl = conn
                        .evaluate_patiently(session, lane_for(client), 64)
                        .expect("remote evaluation");
                    latencies.lock().unwrap().push(t0.elapsed());
                    results.lock().unwrap().push(lnl);
                }
            });
        }
    });
    let server_stats = server.stats_json();
    let drained = server.drain(None);

    // -- Correctness: every remote result bit-matches the in-process run. --
    let jobs = CLIENTS * rounds;
    let mut correct = true;
    for client in 0..CLIENTS {
        let pooled = pool_results[client].lock().unwrap();
        let served = serve_results[client].lock().unwrap();
        correct &= pooled.len() == rounds && served.len() == rounds;
        for (a, b) in pooled.iter().zip(served.iter()) {
            correct &= a.to_bits() == b.to_bits();
        }
    }

    let mut pool_lat = pool_latencies.into_inner().unwrap();
    let mut serve_lat = serve_latencies.into_inner().unwrap();
    let pool_mean = mean(&pool_lat);
    let serve_mean = mean(&serve_lat);
    let overhead_pct = if pool_mean.is_zero() {
        f64::NAN
    } else {
        (serve_mean.as_secs_f64() / pool_mean.as_secs_f64() - 1.0) * 100.0
    };

    println!(
        "== likelihood service: {CLIENTS} concurrent clients x {rounds} rounds on {WORKERS}x {} ==",
        gpu_name()
    );
    println!(
        "in-process mean wall: {:>10.1} us/request",
        pool_mean.as_secs_f64() * 1e6
    );
    println!(
        "remote mean wall:     {:>10.1} us/request",
        serve_mean.as_secs_f64() * 1e6
    );
    println!("protocol overhead:    {overhead_pct:>9.1} %  (wire encode/decode + syscalls + handler hop)");
    println!("correct:              {correct} (remote bit-identical to in-process pool)");
    println!("drained:              {drained}");

    assert!(correct, "the wire must never change a result");
    assert!(drained, "the server must drain gracefully");

    let mut json = String::from("{\n  \"benchmark\": \"serve\",\n");
    json.push_str(&format!(
        "  \"fixture\": {{\"implementation\": \"{}\", \"workers\": {WORKERS}, \"clients\": {CLIENTS}, \"rounds\": {rounds}, \"patterns\": {patterns}, \"transport\": \"tcp-loopback\"}},\n",
        gpu_name()
    ));
    json.push_str(&format!("  \"jobs\": {jobs},\n"));
    json.push_str(&format!(
        "  \"inprocess_mean_wall_us\": {},\n",
        pool_mean.as_micros()
    ));
    json.push_str(&format!(
        "  \"remote_mean_wall_us\": {},\n",
        serve_mean.as_micros()
    ));
    json.push_str(&format!(
        "  \"protocol_overhead_pct\": {overhead_pct:.2},\n"
    ));
    json.push_str(&format!(
        "  \"inprocess_wall_latency_us\": {},\n",
        latency_json(&mut pool_lat)
    ));
    json.push_str(&format!(
        "  \"remote_wall_latency_us\": {},\n",
        latency_json(&mut serve_lat)
    ));
    json.push_str(&format!("  \"server_stats\": {server_stats},\n"));
    json.push_str(&format!("  \"correct\": {correct},\n"));
    json.push_str(&format!("  \"drained\": {drained}\n"));
    json.push_str("}\n");
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".into());
    std::fs::write(&out, json).expect("write BENCH_serve.json");
    println!("\nwrote {out}");
}
