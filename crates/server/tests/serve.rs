//! Loopback differential suite for the likelihood service: results served
//! over TCP and Unix-domain sockets must be **bit-identical** to the same
//! sessions evaluated in-process — across backend and precision, through a
//! mid-session worker eviction, and across a graceful drain with work in
//! flight. Plus decoder-robustness property tests: arbitrary bytes must
//! produce typed [`WireError`]s, never a panic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use beagle_accel::{catalog, FaultDirectory, FaultKind, FaultPlan, Schedule};
use beagle_core::wire::{self, BusyReason, Frame};
use beagle_core::{
    BeagleError, BreakerConfig, BufferId, Deadline, Flags, ImplementationManager, InstanceSpec,
    Lane, SessionRequest,
};
use beagle_server::{Client, ClientError, Endpoint, Server, ServerBuilder};
use genomictest::{full_manager, full_manager_with_faults, ModelKind, Problem, Scenario};

const SESSIONS: usize = 6;
const RADEON: &str = "OpenCL-GPU (AMD Radeon R9 Nano (simulated))";

fn scenario(seed: u64) -> Scenario {
    Scenario {
        model: ModelKind::Nucleotide,
        taxa: 8,
        patterns: 200,
        categories: 2,
        seed,
    }
}

/// Materialize one self-contained session from a scenario seed.
fn session_for(scenario: &Scenario) -> SessionRequest {
    let problem = Problem::generate(scenario);
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
        operations: problem.operations(true),
        root: BufferId(problem.tree.root()),
        scaled: true,
        deadline: None,
    }
}

fn session(seed: u64) -> SessionRequest {
    session_for(&scenario(seed))
}

fn base_spec() -> InstanceSpec {
    InstanceSpec::with_config(Problem::generate(&scenario(0)).config())
}

/// Serial in-process reference: all sessions through one pinned instance.
fn serial_bits(manager: &Arc<ImplementationManager>, spec: &InstanceSpec) -> Vec<u64> {
    let mut inst = spec.instantiate(manager).expect("serial pinned instance");
    (0..SESSIONS as u64)
        .map(|seed| {
            session(seed)
                .evaluate(inst.as_mut())
                .expect("serial evaluation")
                .to_bits()
        })
        .collect()
}

/// Remote run over an endpoint: same sessions through a connected client.
fn remote_bits(endpoint: Endpoint) -> Vec<u64> {
    let mut client = Client::connect(endpoint).expect("client connects");
    (0..SESSIONS as u64)
        .map(|seed| {
            let lane = if seed % 2 == 0 {
                Lane::Interactive
            } else {
                Lane::Batch
            };
            client
                .evaluate_patiently(&session(seed), lane, 16)
                .expect("remote evaluation")
                .to_bits()
        })
        .collect()
}

fn tcp_endpoint(server: &Server) -> Endpoint {
    Endpoint::Tcp(server.tcp_addr().expect("tcp listener").to_string())
}

/// Extract an integer field from hand-rolled stats JSON (first occurrence).
fn json_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat).unwrap_or_else(|| panic!("{key} in {json}"));
    json[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("numeric {key} in {json}"))
}

#[test]
fn tcp_remote_matches_serial_across_backends_and_precisions() {
    let manager = full_manager();
    let cases: &[(&str, Flags, bool)] = &[
        ("CPU-serial", Flags::PRECISION_DOUBLE, false),
        ("CPU-serial", Flags::PRECISION_SINGLE, false),
        ("CPU-SSE", Flags::PRECISION_DOUBLE, true),
        (RADEON, Flags::PRECISION_DOUBLE, false),
        (RADEON, Flags::PRECISION_SINGLE, true),
    ];
    for &(name, precision, queued) in cases {
        let mut spec = base_spec().named(name).require(precision);
        if queued {
            spec = spec.queued();
        }
        let serial = serial_bits(&manager, &spec);
        let unpinned = {
            let mut s = spec.clone();
            s.implementation = None;
            s
        };
        let server = ServerBuilder::from_spec(unpinned)
            .workers(2)
            .pin([name])
            .tcp("127.0.0.1:0")
            .serve(&manager)
            .expect("server starts");
        let remote = remote_bits(tcp_endpoint(&server));
        assert!(server.drain(None), "idle server must drain fully");
        assert_eq!(
            remote, serial,
            "remote vs serial mismatch for {name} (precision {precision:?}, queued={queued})"
        );
    }
}

#[cfg(unix)]
#[test]
fn unix_socket_remote_matches_serial() {
    let manager = full_manager();
    let spec = base_spec().named("CPU-serial");
    let serial = serial_bits(&manager, &spec);
    let path = std::env::temp_dir().join(format!("beagle-serve-unix-{}.sock", std::process::id()));
    let unpinned = {
        let mut s = spec.clone();
        s.implementation = None;
        s
    };
    let server = ServerBuilder::from_spec(unpinned)
        .workers(2)
        .pin(["CPU-serial"])
        .unix(&path)
        .serve(&manager)
        .expect("server starts");
    let remote = remote_bits(Endpoint::Unix(path.clone()));
    assert!(server.drain(None));
    assert_eq!(remote, serial, "unix-socket transport must be bit-exact");
    assert!(!path.exists(), "drain must remove the socket file");
}

#[test]
fn remote_sessions_survive_mid_session_worker_eviction_bit_identically() {
    // The Radeon worker's device dies permanently partway through the run:
    // the session on it is requeued server-side onto another worker, and
    // every client still receives the bit-exact result — eviction is
    // invisible through the wire. Breakers stay open for the whole test, so
    // the final `available` check cannot race the cooldown.
    let reference = serial_bits(&full_manager(), &base_spec().named("CPU-serial"));
    let faults = FaultDirectory::new().with_plan(
        catalog::radeon_r9_nano().name,
        FaultPlan::new(7).with_fault(FaultKind::DeviceLost, false, Schedule::AtCall(40)),
    );
    let manager = full_manager_with_faults(&faults);
    manager.set_breaker_config(BreakerConfig {
        cooldown: Duration::from_secs(3600),
        ..BreakerConfig::default()
    });
    let server = ServerBuilder::from_spec(base_spec())
        .workers(2)
        .pin([RADEON, "CPU-serial"])
        .tcp("127.0.0.1:0")
        .serve(&manager)
        .expect("server starts");
    let endpoint = tcp_endpoint(&server);

    // Two concurrent client streams keep both workers busy so the Radeon
    // device certainly reaches its 40th call mid-session.
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let endpoint = endpoint.clone();
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect(endpoint).expect("client connects");
                for seed in 0..SESSIONS as u64 {
                    let lnl = client
                        .evaluate_patiently(&session(seed), Lane::Interactive, 16)
                        .expect("remote evaluation survives eviction");
                    assert_eq!(
                        lnl.to_bits(),
                        reference[seed as usize],
                        "eviction must not change result for seed {seed}"
                    );
                }
            });
        }
    });

    let mut client = Client::connect(endpoint).expect("stats client");
    let stats = client.stats().expect("stats snapshot");
    assert!(
        json_u64(&stats, "evictions") >= 1,
        "the dead device must evict its worker: {stats}"
    );
    assert!(
        json_u64(&stats, "requeued") >= 1,
        "the interrupted session must requeue: {stats}"
    );
    assert!(
        !manager.health().available(RADEON),
        "the dead implementation's breaker must be open"
    );
    assert!(server.drain(None));
}

#[test]
fn drain_with_work_in_flight_answers_every_accepted_session() {
    // Four clients submit heavy sessions to a single worker; a fifth client
    // asks for a drain while they are queued/running. Every accepted
    // session must still be answered (no lost in-flight work), and the
    // server must refuse new work afterwards.
    let heavy = Scenario {
        model: ModelKind::Codon,
        taxa: 6,
        patterns: 300,
        categories: 2,
        seed: 5,
    };
    let manager = full_manager();
    let spec = InstanceSpec::with_config(Problem::generate(&heavy).config());
    let mut reference = spec
        .clone()
        .named("CPU-serial")
        .instantiate(&manager)
        .expect("reference instance");
    let expected = session_for(&heavy)
        .evaluate(reference.as_mut())
        .expect("reference evaluation")
        .to_bits();

    let unpinned = spec;
    let server = ServerBuilder::from_spec(unpinned)
        .workers(1)
        .pin(["CPU-serial"])
        .queue_capacity(16)
        .tcp("127.0.0.1:0")
        .serve(&manager)
        .expect("server starts");
    let endpoint = tcp_endpoint(&server);

    let request = session_for(&heavy);
    let answered = AtomicUsize::new(0);
    let refused = AtomicUsize::new(0);
    let drained_flag = Mutex::new(None);
    // All four clients connect and hold at the barrier with their session
    // already built, so the submissions are in flight well before the
    // admin's drain 50 ms later.
    let barrier = Barrier::new(5);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let endpoint = endpoint.clone();
            let (answered, refused, barrier) = (&answered, &refused, &barrier);
            let request = request.clone();
            scope.spawn(move || {
                let mut client = Client::connect(endpoint).expect("client connects");
                barrier.wait();
                match client.evaluate(&request, Lane::Batch) {
                    Ok(lnl) => {
                        assert_eq!(lnl.to_bits(), expected, "drained result must be bit-exact");
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                    // Submitted after the drain began.
                    Err(ClientError::Busy(BusyReason::Draining)) | Err(ClientError::Io(_)) => {
                        refused.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => panic!("unexpected client error during drain: {e}"),
                }
            });
        }
        let endpoint = endpoint.clone();
        let (drained_flag, barrier) = (&drained_flag, &barrier);
        scope.spawn(move || {
            let mut admin = Client::connect(endpoint).expect("admin connects");
            barrier.wait();
            // Give the workers time to accept some sessions first.
            std::thread::sleep(Duration::from_millis(50));
            *drained_flag.lock().unwrap() = Some(admin.drain().expect("drain ack"));
        });
    });

    assert!(
        drained_flag.lock().unwrap().expect("drain ran"),
        "an undeadlined drain answers everything"
    );
    assert!(
        answered.load(Ordering::Relaxed) >= 1,
        "at least one session must have been in flight and answered"
    );

    // New work after the drain is refused (the acceptor drops fresh
    // connections, so the client surfaces a transport error or Draining).
    match Client::connect(endpoint).and_then(|mut c| c.evaluate(&session(0), Lane::Interactive)) {
        Err(ClientError::Io(_)) | Err(ClientError::Busy(BusyReason::Draining)) => {}
        Ok(_) => panic!("a drained server must not evaluate new sessions"),
        Err(e) => panic!("unexpected post-drain error: {e}"),
    }

    // Owner-side drain after a remote drain reports the same result and
    // closes the listeners; nothing was lost.
    assert!(server.drain(None));
}

#[test]
fn zero_client_cap_bounces_submissions_with_typed_busy() {
    let manager = full_manager();
    let server = ServerBuilder::from_spec(base_spec())
        .workers(1)
        .pin(["CPU-serial"])
        .max_in_flight(0)
        .tcp("127.0.0.1:0")
        .serve(&manager)
        .expect("server starts");
    let mut client = Client::connect(tcp_endpoint(&server)).expect("client connects");
    match client.evaluate(&session(0), Lane::Interactive) {
        Err(ClientError::Busy(BusyReason::ClientCap)) => {}
        other => panic!("expected Busy(ClientCap), got {other:?}"),
    }
    // Admin frames are not subject to the admission cap; the rejection is
    // visible in the snapshot.
    let stats = client.stats().expect("stats");
    assert!(json_u64(&stats, "busy_client_cap") >= 1, "{stats}");
    assert!(server.drain(None));
}

#[test]
fn pool_full_bounces_are_typed_and_audited_in_stats() {
    // One worker, queue depth 1, six simultaneous heavy submissions: at
    // least one must bounce with Busy(PoolFull), and the pool's own
    // `rejected` counter must record it — auditable via StatsSnapshot
    // end to end.
    let heavy = Scenario {
        model: ModelKind::Codon,
        taxa: 6,
        patterns: 300,
        categories: 2,
        seed: 9,
    };
    let manager = full_manager();
    let spec = InstanceSpec::with_config(Problem::generate(&heavy).config());
    let mut reference = spec
        .clone()
        .named("CPU-serial")
        .instantiate(&manager)
        .expect("reference instance");
    let expected = session_for(&heavy)
        .evaluate(reference.as_mut())
        .expect("reference evaluation")
        .to_bits();

    let server = ServerBuilder::from_spec(spec)
        .workers(1)
        .pin(["CPU-serial"])
        .queue_capacity(1)
        .tcp("127.0.0.1:0")
        .serve(&manager)
        .expect("server starts");
    let endpoint = tcp_endpoint(&server);

    let bounced = AtomicUsize::new(0);
    let served = AtomicUsize::new(0);
    let barrier = Barrier::new(6);
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let endpoint = endpoint.clone();
            let (bounced, served, barrier) = (&bounced, &served, &barrier);
            let heavy = &heavy;
            scope.spawn(move || {
                let mut client = Client::connect(endpoint).expect("client connects");
                let request = session_for(heavy);
                barrier.wait();
                match client.evaluate(&request, Lane::Batch) {
                    Ok(lnl) => {
                        assert_eq!(lnl.to_bits(), expected);
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(ClientError::Busy(BusyReason::PoolFull)) => {
                        bounced.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            });
        }
    });
    assert!(
        served.load(Ordering::Relaxed) >= 1,
        "someone must have been served"
    );
    assert!(
        bounced.load(Ordering::Relaxed) >= 1,
        "a depth-1 queue cannot absorb six simultaneous sessions"
    );
    let mut client = Client::connect(endpoint).expect("stats client");
    let stats = client.stats().expect("stats");
    assert!(
        json_u64(&stats, "rejected") as usize >= bounced.load(Ordering::Relaxed),
        "pool rejected counter must audit the bounces: {stats}"
    );
    assert!(
        json_u64(&stats, "busy_pool_full") as usize >= bounced.load(Ordering::Relaxed),
        "{stats}"
    );
    assert!(server.drain(None));
}

#[test]
fn per_request_deadline_propagates_to_the_remote_watchdog() {
    // The Radeon device stalls 300 ms on every call — far under the 2 s
    // driver-default watchdog, so WITHOUT a per-request deadline nothing
    // would ever time out. With a 50 ms deadline riding the wire, any
    // session placed on the stalled device is cancelled at the deadline,
    // its worker evicted, and the session requeued onto the healthy CPU
    // worker — so every client still gets the bit-exact answer.
    let reference = serial_bits(&full_manager(), &base_spec().named("CPU-serial"));
    let faults = FaultDirectory::new().with_plan(
        catalog::radeon_r9_nano().name,
        FaultPlan::new(11).with_fault(
            FaultKind::Stall(Duration::from_millis(300)),
            false,
            Schedule::EveryN(1),
        ),
    );
    let manager = full_manager_with_faults(&faults);
    let server = ServerBuilder::from_spec(base_spec())
        .workers(2)
        .pin([RADEON, "CPU-serial"])
        .tcp("127.0.0.1:0")
        .serve(&manager)
        .expect("server starts");
    let endpoint = tcp_endpoint(&server);

    std::thread::scope(|scope| {
        for _ in 0..2 {
            let endpoint = endpoint.clone();
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect(endpoint).expect("client connects");
                for seed in 0..4u64 {
                    let mut request = session(seed);
                    request.deadline = Some(Deadline::new(Duration::from_millis(50)));
                    let lnl = client
                        .evaluate_patiently(&request, Lane::Interactive, 16)
                        .expect("deadline-rescued evaluation");
                    assert_eq!(lnl.to_bits(), reference[seed as usize], "seed {seed}");
                }
            });
        }
    });

    let mut client = Client::connect(endpoint).expect("stats client");
    let stats = client.stats().expect("stats");
    assert!(
        json_u64(&stats, "evictions") >= 1,
        "the wire deadline must have cancelled the stalled device: {stats}"
    );
    assert!(server.drain(None));
}

#[test]
fn malformed_session_yields_typed_remote_error_and_connection_survives() {
    let manager = full_manager();
    let server = ServerBuilder::from_spec(base_spec())
        .workers(1)
        .pin(["CPU-serial"])
        .tcp("127.0.0.1:0")
        .serve(&manager)
        .expect("server starts");
    let mut client = Client::connect(tcp_endpoint(&server)).expect("client connects");

    let mut bad = session(0);
    bad.frequencies.truncate(2); // 4-state model, 2 frequencies
    match client.evaluate(&bad, Lane::Interactive) {
        Err(ClientError::Remote(e)) => {
            // The same typed BeagleError an in-process evaluation returns.
            let mut inst = base_spec()
                .named("CPU-serial")
                .instantiate(&manager)
                .expect("local instance");
            let local = bad.evaluate(inst.as_mut()).expect_err("locally invalid");
            assert_eq!(
                format!("{e}"),
                format!("{local}"),
                "remote error must mirror the local one"
            );
        }
        other => panic!("expected Remote error, got {other:?}"),
    }
    // A typed evaluation failure must not poison the connection.
    let good = client
        .evaluate(&session(0), Lane::Interactive)
        .expect("connection still usable");
    assert!(good.is_finite());
    assert!(server.drain(None));
}

#[test]
fn out_of_range_tip_state_fails_remotely_exactly_as_in_process() {
    let manager = full_manager();
    let server = ServerBuilder::from_spec(base_spec())
        .workers(1)
        .pin(["CPU-serial"])
        .tcp("127.0.0.1:0")
        .serve(&manager)
        .expect("server starts");
    let mut client = Client::connect(tcp_endpoint(&server)).expect("client connects");

    // State 300 on a 4-state instance: the tip cannot narrow to one byte,
    // so it travels in the four-byte form and must still reach the worker.
    let mut bad = session(0);
    bad.tip_states[2][7] = 300;
    let mut inst = base_spec()
        .named("CPU-serial")
        .instantiate(&manager)
        .expect("local instance");
    let local = bad
        .evaluate(inst.as_mut())
        .expect_err("locally out of range");
    assert!(
        matches!(
            local,
            BeagleError::OutOfRange {
                index: 300,
                limit: 4,
                ..
            }
        ),
        "{local:?}"
    );
    match client.evaluate(&bad, Lane::Interactive) {
        Err(ClientError::Remote(remote)) => assert_eq!(remote, local),
        other => panic!("expected Remote(OutOfRange), got {other:?}"),
    }
    assert!(server.drain(None));
}

// ---------------------------------------------------------------------------
// Decoder robustness: WIRE-v2 must answer garbage with typed errors.
// ---------------------------------------------------------------------------

mod decoder_robustness {
    use super::*;
    use proptest::prelude::*;

    fn valid_submit_bytes() -> Vec<u8> {
        wire::encode_frame(
            99,
            &Frame::Submit {
                lane: Lane::Batch,
                session: Box::new(session(3)),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary bytes never panic the decoder.
        #[test]
        fn arbitrary_bytes_never_panic(raw in proptest::collection::vec(0u64..u64::MAX, 0..64)) {
            let bytes: Vec<u8> = raw.iter().flat_map(|x| x.to_le_bytes()).collect();
            let _ = wire::decode_frame(&bytes);
        }

        /// A single corrupted byte in a valid frame either still decodes
        /// (the flip hit a don't-care bit of a payload float) or fails with
        /// a typed error — never a panic, never an allocation bomb.
        #[test]
        fn corrupted_valid_frames_fail_typed(pos_seed in 0u64..u64::MAX, xor in 1u8..=255u8) {
            let mut bytes = valid_submit_bytes();
            let pos = (pos_seed % bytes.len() as u64) as usize;
            bytes[pos] ^= xor;
            let _ = wire::decode_frame(&bytes);
        }

        /// Every truncation of a valid frame fails with a typed error.
        #[test]
        fn truncations_fail_typed(cut_seed in 0u64..u64::MAX) {
            let bytes = valid_submit_bytes();
            let cut = (cut_seed % bytes.len() as u64) as usize;
            prop_assert!(wire::decode_frame(&bytes[..cut]).is_err());
        }
    }
}
