//! Likelihood as a service: the WIRE-v2 socket server and blocking client.
//!
//! Starts an in-process `beagle-serve`-style server on an ephemeral loopback
//! TCP port (a 2-worker instance pool behind the wire), connects a client,
//! round-trips a self-contained `SessionRequest`, and shows the service
//! contract: the remote log-likelihood is **bit-identical** to evaluating
//! the same session on a local instance, the server's stats snapshot
//! accounts for every request, and a graceful drain answers in-flight work
//! before stopping. See DESIGN.md §13.
//!
//! Run: `cargo run --release --example likelihood_service`

use beagle::core::{Lane, SessionRequest};
use beagle::prelude::*;
use beagle::server::{Client, Endpoint, ServerBuilder};

fn main() {
    // 1. A small nucleotide problem, same fixture style as `quickstart`.
    let mut rng = rand_seeded(7);
    let tree = Tree::random(8, 0.1, &mut rng);
    let model = beagle::phylo::models::nucleotide::hky85(3.0, &[0.3, 0.2, 0.25, 0.25]);
    let rates = SiteRates::discrete_gamma(0.5, 4);
    let alignment =
        beagle::phylo::simulate::simulate_alignment(&tree, &model, &rates, 300, &mut rng);
    let patterns = SitePatterns::compress(&alignment);

    // 2. A self-contained session: *all* inputs travel with the request, so
    //    any pool worker — local or behind a socket — can serve it.
    let eig = model.eigen();
    let session = SessionRequest {
        tip_states: (0..tree.taxon_count())
            .map(|t| patterns.tip_states(t))
            .collect(),
        pattern_weights: patterns.weights().to_vec(),
        category_rates: rates.rates.clone(),
        category_weights: rates.weights.clone(),
        frequencies: model.frequencies().to_vec(),
        eigen: Some((
            eig.vectors.as_slice().to_vec(),
            eig.inverse_vectors.as_slice().to_vec(),
            eig.values.clone(),
        )),
        matrices: tree.branch_assignments(),
        operations: tree
            .operation_schedule()
            .iter()
            .map(|e| Operation::new(e.destination, e.child1, e.matrix1, e.child2, e.matrix2))
            .collect(),
        root: BufferId(tree.root()),
        scaled: false,
        deadline: None,
    };

    // 3. Serve: a 2-worker pool of the best CPU implementation behind a
    //    loopback TCP listener on an ephemeral port.
    let manager = beagle::full_manager();
    let spec = InstanceSpec::for_tree(
        tree.taxon_count(),
        patterns.pattern_count(),
        model.state_count(),
        rates.category_count(),
    )
    .prefer(Flags::PROCESSOR_CPU);
    let server = ServerBuilder::from_spec(spec.clone())
        .workers(2)
        .max_in_flight(4)
        .tcp("127.0.0.1:0")
        .serve(&manager)
        .expect("server starts");
    let addr = server.tcp_addr().expect("tcp listener");
    println!("serving on tcp://{addr}");

    // 4. Client round trip. `evaluate_patiently` waits out Busy rejections
    //    (per-client cap, pool full) with backoff; transport errors
    //    reconnect and re-send — evaluation is pure, so that is safe.
    let mut client = Client::connect(Endpoint::Tcp(addr.to_string())).expect("client connects");
    let remote = client
        .evaluate_patiently(&session, Lane::Interactive, 16)
        .expect("remote evaluation");
    println!("remote log-likelihood = {remote:.6}");

    // 5. The contract: bit-identical to a local instance, not merely close.
    //    WIRE-v2 moves every f64 as its exact bit pattern.
    let mut local = spec.instantiate(&manager).expect("local instance");
    let reference = session.evaluate(local.as_mut()).expect("local evaluation");
    println!("local  log-likelihood = {reference:.6}");
    assert_eq!(
        remote.to_bits(),
        reference.to_bits(),
        "the wire must never change a result"
    );

    // 6. Admin frames: the stats snapshot (server counters, pool scheduler
    //    stats including audited rejections, breaker states)...
    let stats = client.stats().expect("stats frame");
    println!("stats: {stats}");

    // 7. ...and a graceful drain: in-flight work is answered, new work gets
    //    Busy{Draining}, listeners wake and exit.
    assert!(server.drain(None), "idle server drains fully");
    println!("OK: remote result bit-identical to local; server drained");
}
