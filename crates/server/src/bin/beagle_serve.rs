//! `beagle-serve` — the BEAGLE-RS likelihood service daemon.
//!
//! Serves the full implementation registry (CPU + simulated accelerators)
//! over TCP and/or a Unix-domain socket, sized for one instance
//! configuration given on the command line. With `--self-test N` it
//! additionally runs N loopback client sessions, checks them bit-for-bit
//! against an in-process evaluation (every worker is then pinned to that
//! instance's implementation), prints the stats snapshot, drains,
//! and exits — which is what `scripts/tier1.sh` uses as the server smoke
//! test.
//!
//! ```text
//! beagle-serve [--tcp ADDR] [--unix PATH] [--workers N] [--queue N]
//!              [--max-in-flight N] [--taxa N] [--patterns N]
//!              [--categories N] [--model nucleotide|codon] [--seed S]
//!              [--self-test N]
//! ```
//!
//! With no endpoint flags it listens on `127.0.0.1:7311`.

use std::process::ExitCode;

use beagle_core::{BufferId, InstanceSpec, Lane, SessionRequest};
use beagle_server::{Client, Endpoint, ServerBuilder};
use genomictest::{full_manager, ModelKind, Problem, Scenario};

struct Args {
    tcp: Option<String>,
    unix: Option<String>,
    workers: usize,
    queue: Option<usize>,
    max_in_flight: usize,
    taxa: usize,
    patterns: usize,
    categories: usize,
    model: ModelKind,
    seed: u64,
    self_test: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tcp: None,
        unix: None,
        workers: 2,
        queue: None,
        max_in_flight: 4,
        taxa: 8,
        patterns: 200,
        categories: 2,
        model: ModelKind::Nucleotide,
        seed: 7,
        self_test: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{what} needs a value"));
        match flag.as_str() {
            "--tcp" => args.tcp = Some(value("--tcp")?),
            "--unix" => args.unix = Some(value("--unix")?),
            "--workers" => args.workers = parse(&value("--workers")?)?,
            "--queue" => args.queue = Some(parse(&value("--queue")?)?),
            "--max-in-flight" => args.max_in_flight = parse(&value("--max-in-flight")?)?,
            "--taxa" => args.taxa = parse(&value("--taxa")?)?,
            "--patterns" => args.patterns = parse(&value("--patterns")?)?,
            "--categories" => args.categories = parse(&value("--categories")?)?,
            "--model" => {
                args.model = match value("--model")?.as_str() {
                    "nucleotide" => ModelKind::Nucleotide,
                    "codon" => ModelKind::Codon,
                    other => return Err(format!("unknown model {other:?}")),
                }
            }
            "--seed" => args.seed = parse(&value("--seed")?)?,
            "--self-test" => args.self_test = Some(parse(&value("--self-test")?)?),
            "--help" | "-h" => {
                println!(
                    "beagle-serve [--tcp ADDR] [--unix PATH] [--workers N] [--queue N]\n\
                     \x20            [--max-in-flight N] [--taxa N] [--patterns N]\n\
                     \x20            [--categories N] [--model nucleotide|codon] [--seed S]\n\
                     \x20            [--self-test N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.tcp.is_none() && args.unix.is_none() {
        args.tcp = Some(if args.self_test.is_some() {
            "127.0.0.1:0".into()
        } else {
            "127.0.0.1:7311".into()
        });
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

/// Materialize one self-contained session from a scenario seed (the same
/// fixture idiom the differential tests use).
fn session(scenario: &Scenario) -> SessionRequest {
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

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("beagle-serve: {msg} (try --help)");
            return ExitCode::FAILURE;
        }
    };

    let scenario = Scenario {
        model: args.model,
        taxa: args.taxa,
        patterns: args.patterns,
        categories: args.categories,
        seed: args.seed,
    };
    let spec = InstanceSpec::with_config(Problem::generate(&scenario).config());
    let manager = full_manager();

    // The self-test compares every remote answer bit for bit with an
    // in-process instance. Only one implementation promises that: different
    // implementations agree to a few ulps (the AVX2 root sum associates
    // differently from the scalar one). So the workers are pinned to the
    // reference's implementation.
    let mut reference = args.self_test.map(|_| {
        spec.instantiate(&manager)
            .expect("in-process reference instance")
    });
    let mut builder = ServerBuilder::from_spec(spec.clone())
        .workers(args.workers)
        .max_in_flight(args.max_in_flight);
    if let Some(reference) = &reference {
        builder = builder.pin([reference.details().implementation_name.clone()]);
    }
    if let Some(queue) = args.queue {
        builder = builder.queue_capacity(queue);
    }
    if let Some(addr) = &args.tcp {
        builder = builder.tcp(addr.clone());
    }
    if let Some(path) = &args.unix {
        builder = builder.unix(path.clone());
    }
    let server = match builder.serve(&manager) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("beagle-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(addr) = server.tcp_addr() {
        println!("listening on tcp://{addr}");
    }
    if let Some(path) = server.unix_path() {
        println!("listening on unix://{}", path.display());
    }

    let (Some(rounds), Some(reference)) = (args.self_test, reference.as_mut()) else {
        // Daemon mode: the acceptor threads do all the work; park forever.
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    };

    // -- Self-test: loopback round trips vs in-process evaluation. --------
    let endpoint = Endpoint::Tcp(
        server
            .tcp_addr()
            .expect("self-test listens on TCP")
            .to_string(),
    );
    let mut client = match Client::connect(endpoint) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("beagle-serve: self-test connect failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut mismatches = 0usize;
    for round in 0..rounds {
        let scenario = Scenario {
            seed: args.seed + round as u64,
            ..scenario
        };
        let request = session(&scenario);
        let local = request
            .evaluate(reference.as_mut())
            .expect("in-process evaluation");
        match client.evaluate_patiently(&request, Lane::Interactive, 8) {
            Ok(remote) if remote.to_bits() == local.to_bits() => {
                println!("self-test {round}: lnL {remote:.6} (bit-exact)");
            }
            Ok(remote) => {
                eprintln!("self-test {round}: MISMATCH local {local:e} remote {remote:e}");
                mismatches += 1;
            }
            Err(e) => {
                eprintln!("self-test {round}: FAILED {e}");
                mismatches += 1;
            }
        }
    }
    match client.stats() {
        Ok(stats) => println!("stats: {stats}"),
        Err(e) => eprintln!("stats failed: {e}"),
    }
    let drained = server.drain(None);
    println!("drained: {drained}");
    if mismatches == 0 && drained {
        println!("self-test passed: {rounds} remote sessions bit-identical");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
