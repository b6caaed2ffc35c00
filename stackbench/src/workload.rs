//! The four workloads: their inputs, their stacks, and the wrapper rungs the
//! traced run climbs.

use std::path::PathBuf;
use std::sync::Arc;

use beagle_core::{
    ImplementationManager, InstancePool, InstanceSpec, MemoStats, PoolBuilder, PoolStats,
};
use beagle_mcmc::{BeagleEngine, LikelihoodEngine, ModelParams, RemoteEngine};
use beagle_phylo::simulate::simulate_patterns;
use beagle_phylo::{SiteRates, Tree};
use beagle_server::{Endpoint, Server, ServerBuilder};
use genomictest::{ModelKind, Problem};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::engines::{Checkpointing, ResendEngine, SessionEngine, SessionTarget};
use crate::trace::{lock, new_log, ChainLog, Log, TimedEngine, TimedInstance};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// MC³ on the default engine stack, 64 taxa of nucleotides.
    McmcNuc,
    /// MC³ through a stateless re-sending client, codon model, checkpointed.
    ResendCodon,
    /// MC³ through the likelihood service over TCP loopback.
    ServeNuc,
    /// One MC³ chain on the CPU thread pool, 16 taxa, many patterns.
    WideNuc,
}

/// MC³ chains of every workload, each one client thread or connection.
///
/// One: `run_mc3` advances its chains in parallel threads that meet every
/// swap interval, so with more chains than the host has idle vCPUs each
/// meeting waits for whichever chain the hypervisor descheduled last, and a
/// chain's CPU time can no longer be told apart from the others'. With one
/// chain, one evaluation is in flight at a time and the process CPU clock
/// around it is that evaluation's cost.
pub const CHAINS: usize = 1;

/// Problem and run sizes of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Substitution model family.
    pub model: ModelKind,
    /// Taxa.
    pub taxa: usize,
    /// Unique site patterns.
    pub patterns: usize,
    /// Rate categories.
    pub categories: usize,
    /// Generations per chain in one MC³ segment of the timed window.
    pub segment_generations: usize,
    /// Generations per chain each rung replays in the traced run.
    pub trace_generations: usize,
    /// Evaluations per chain between checkpoint saves (checkpoint rung).
    pub checkpoint_every: usize,
}

/// Full size for measurement, or tiny for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// A few taxa and generations: exercises every path in seconds.
    Tiny,
}

/// One rung of a workload's wrapper ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// The bare back-end: no memo, no rescue.
    Raw,
    /// The bare single-threaded `CPU-SSE` back-end, under `wide-nuc`'s
    /// thread-pool rung.
    RawSse,
    /// + incremental memoization.
    Memo,
    /// + operation queue (deferred execution, eigen cache).
    Queue,
    /// + numerical rescue.
    Rescue,
    /// + journaling checkpoint layer with periodic saves.
    Checkpoint,
    /// `SessionRequest::evaluate` on one default-stack instance per chain.
    SessionDirect,
    /// Sessions through an in-process instance pool.
    Pool,
    /// Sessions through the service over a Unix socket.
    ServeUnix,
    /// Sessions through the service over TCP loopback.
    ServeTcp,
}

impl Rung {
    /// Name used in spans and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Raw => "raw",
            Rung::RawSse => "raw-sse",
            Rung::Memo => "memo",
            Rung::Queue => "queue",
            Rung::Rescue => "rescue",
            Rung::Checkpoint => "checkpoint",
            Rung::SessionDirect => "session-direct",
            Rung::Pool => "pool",
            Rung::ServeUnix => "serve-unix",
            Rung::ServeTcp => "serve-tcp",
        }
    }
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::McmcNuc,
        Workload::ResendCodon,
        Workload::ServeNuc,
        Workload::WideNuc,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::McmcNuc => "mcmc-nuc",
            Workload::ResendCodon => "resend-codon",
            Workload::ServeNuc => "serve-nuc",
            Workload::WideNuc => "wide-nuc",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sizes at `scale`.
    pub fn shape(self, scale: Scale) -> Shape {
        let tiny = scale == Scale::Tiny;
        let nuc = |taxa, patterns, segment, trace| Shape {
            model: ModelKind::Nucleotide,
            taxa,
            patterns,
            categories: 4,
            segment_generations: segment,
            trace_generations: trace,
            checkpoint_every: 0,
        };
        match (self, tiny) {
            (Workload::ResendCodon, _) => Shape {
                model: ModelKind::Codon,
                taxa: if tiny { 8 } else { 16 },
                patterns: if tiny { 16 } else { 400 },
                categories: 1,
                segment_generations: if tiny { 20 } else { 200 },
                trace_generations: if tiny { 20 } else { 300 },
                checkpoint_every: if tiny { 10 } else { 250 },
            },
            (Workload::McmcNuc, false) => nuc(64, 1500, 400, 1200),
            (Workload::ServeNuc, false) => nuc(64, 1500, 200, 600),
            (Workload::WideNuc, false) => nuc(16, 20_000, 50, 150),
            (_, true) => nuc(8, 64, 20, 20),
        }
    }

    /// The implementation every instance of the workload is pinned to.
    pub fn implementation(self) -> &'static str {
        match self {
            Workload::WideNuc => "CPU-threadpool-SSE",
            _ => "CPU-SSE",
        }
    }

    /// The traced ladder, bottom first; the last rung is the end-to-end
    /// stack.
    pub fn ladder(self) -> &'static [Rung] {
        match self {
            Workload::McmcNuc => &[Rung::Raw, Rung::Memo, Rung::Rescue],
            Workload::ResendCodon => &[
                Rung::Raw,
                Rung::Memo,
                Rung::Queue,
                Rung::Rescue,
                Rung::Checkpoint,
            ],
            Workload::ServeNuc => &[
                Rung::SessionDirect,
                Rung::Pool,
                Rung::ServeUnix,
                Rung::ServeTcp,
            ],
            Workload::WideNuc => &[Rung::RawSse, Rung::Raw, Rung::Memo, Rung::Rescue],
        }
    }

    /// The end-to-end stack.
    pub fn top(self) -> Rung {
        *self.ladder().last().expect("ladders are non-empty")
    }

    /// Workloads sharing a data key get identical inputs for a seed:
    /// `serve-nuc` replays `mcmc-nuc`'s problem and MC³ seed.
    fn data_key(self) -> &'static str {
        match self {
            Workload::ServeNuc => Workload::McmcNuc.name(),
            w => w.name(),
        }
    }

    /// The implementation `rung` runs on.
    pub fn implementation_of(self, rung: Rung) -> &'static str {
        if rung == Rung::RawSse {
            "CPU-SSE"
        } else {
            self.implementation()
        }
    }

    /// The instance spec of `rung` for this workload's problem.
    pub fn spec(self, rung: Rung, problem: &Problem, stats: bool) -> InstanceSpec {
        let name = self.implementation_of(rung);
        let queued = self == Workload::ResendCodon;
        let (memo, queue, rescue, checkpoint) = match rung {
            Rung::Raw | Rung::RawSse => (false, false, false, false),
            Rung::Memo => (true, false, false, false),
            Rung::Queue => (true, true, false, false),
            Rung::Rescue => (true, queued, true, false),
            Rung::Checkpoint => (true, true, true, true),
            // The default stack: memo + rescue.
            Rung::SessionDirect | Rung::Pool | Rung::ServeUnix | Rung::ServeTcp => {
                (true, false, true, false)
            }
        };
        let mut spec = InstanceSpec::with_config(problem.config())
            .named(name)
            .incremental(memo);
        if queue {
            spec = spec.queued();
        }
        if !rescue {
            spec = spec.without_rescue();
        }
        if checkpoint {
            spec = spec.checkpointed();
        }
        if stats {
            spec = spec.with_stats();
        }
        spec
    }
}

/// Everything a run feeds the library, generated from the seed and the
/// workload's data key. The generating tree is fixed per data key while the
/// data and MC³ seeds follow the seed: how much work an evaluation does
/// depends on the topology (the depth of the path from a changed branch to
/// the root) and, through the acceptance rate of each move, on how sharply
/// the branch lengths shape the posterior, and neither may change from seed
/// to seed.
pub struct Inputs {
    /// Simulated data, its generating tree and model. Chains start at the
    /// generating tree and parameters, so every segment samples a chain near
    /// stationarity, as most of a long run does, instead of a burn-in whose
    /// cost depends on how far a random start lies from the posterior.
    pub problem: Problem,
    /// Starting substitution parameters (the generating ones).
    pub params: ModelParams,
    /// Master MC³ seed of the first segment.
    pub mc3_seed: u64,
}

impl Inputs {
    /// Generate the inputs of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Self {
        let shape = workload.shape(scale);
        let base = mix(seed, workload.data_key());
        let mut rng = SmallRng::seed_from_u64(base);
        let tree_seed = mix(0, workload.data_key());
        let tree = Tree::random(shape.taxa, 0.1, &mut SmallRng::seed_from_u64(tree_seed));
        let model = shape.model.build();
        let rates = if shape.categories > 1 {
            SiteRates::discrete_gamma(0.5, shape.categories)
        } else {
            SiteRates::constant()
        };
        let patterns = simulate_patterns(&tree, &model, &rates, shape.patterns, &mut rng);
        let problem = Problem {
            tree,
            model,
            rates,
            patterns,
        };
        let params = match shape.model {
            ModelKind::Codon => ModelParams::Codon {
                kappa: 2.0,
                omega: 0.5,
            },
            _ => ModelParams::Nucleotide { kappa: 2.0 },
        };
        Self {
            problem,
            params,
            mc3_seed: base.wrapping_add(0x004d_4333),
        }
    }
}

/// Seed for `key`'s inputs: FNV-1a over the key, folded with the seed and
/// finished with splitmix64 so nearby seeds give unrelated streams.
fn mix(seed: u64, key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut z = h ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A manager with the CPU implementations registered; every workload runs
/// on real CPU back-ends only.
pub fn cpu_manager() -> Arc<ImplementationManager> {
    let mut manager = ImplementationManager::new();
    beagle_cpu::register_cpu_factories(&mut manager);
    Arc::new(manager)
}

/// Pool workers and server workers for the service rungs: one per chain, so
/// which worker's memo state a session meets does not depend on which idle
/// worker woke first.
const SERVICE_WORKERS: usize = CHAINS;
/// Per-connection admission cap of the service rungs.
const MAX_IN_FLIGHT: usize = 2;

enum Service {
    InProcess,
    Pool(InstancePool),
    Server(Server),
}

/// What the service layer reported after the window.
#[derive(Clone, Debug, Default)]
pub struct ServiceReport {
    /// Pool scheduler counters (pool rung).
    pub pool: Option<PoolStats>,
    /// Memo counters merged over the pool's worker fleet (pool rung).
    pub fleet_memo: Option<MemoStats>,
    /// Busy refusals plus lost sessions (server rungs).
    pub refusals: u64,
}

/// A deployed stack: one engine per chain, each with its log, plus the
/// service behind them.
pub struct Deployment {
    /// One engine per chain, each wrapped in a [`TimedEngine`].
    pub engines: Vec<Box<dyn LikelihoodEngine>>,
    logs: Vec<Log>,
    service: Service,
}

/// Where and at what size a run happens.
#[derive(Clone, Debug)]
pub struct Bench {
    /// Problem and run sizes.
    pub scale: Scale,
    /// Scratch directory for checkpoints, sockets and spans, inside the
    /// working directory.
    pub dir: PathBuf,
}

impl Bench {
    /// Checkpoint file of chain `chain`.
    pub fn checkpoint(&self, chain: usize) -> PathBuf {
        self.dir
            .join(format!("ckpt-{}-{chain}.ckpt", std::process::id()))
    }

    /// Unix socket of the serve-unix rung.
    pub fn socket(&self) -> PathBuf {
        self.dir.join(format!("serve-{}.sock", std::process::id()))
    }

    /// Remove this process's checkpoint files and socket.
    pub fn clean(&self) {
        for chain in 0..CHAINS {
            let _ = std::fs::remove_file(self.checkpoint(chain));
        }
        let _ = std::fs::remove_file(self.socket());
    }
}

/// Build `rung` of `workload` on `manager`. With `traced`, instances are
/// wrapped in [`TimedInstance`] and created with statistics on.
/// `expected_evals` sizes the logs.
pub fn deploy(
    workload: Workload,
    rung: Rung,
    inputs: &Inputs,
    manager: &Arc<ImplementationManager>,
    traced: bool,
    bench: &Bench,
    expected_evals: usize,
) -> Result<Deployment, String> {
    let shape = workload.shape(bench.scale);
    let problem = &inputs.problem;
    let spec = workload.spec(rung, problem, traced);
    // A traced evaluation makes about one instance call per taxon (tip
    // uploads of a session) plus a dozen others.
    let calls = if traced {
        expected_evals * (shape.taxa + 12)
    } else {
        0
    };
    let logs: Vec<Log> = (0..CHAINS)
        .map(|_| new_log(expected_evals, calls))
        .collect();
    let patterns = || problem.patterns.clone();
    let rates = || problem.rates.clone();

    let mut service = Service::InProcess;
    let mut engines: Vec<Box<dyn LikelihoodEngine>> = Vec::with_capacity(CHAINS);
    match rung {
        Rung::Pool => {
            let pool = PoolBuilder::from_spec(spec.clone())
                .workers(SERVICE_WORKERS)
                .pin([workload.implementation()])
                .build(manager)
                .map_err(|e| e.to_string())?;
            for _ in 0..CHAINS {
                engines.push(Box::new(SessionEngine::new(
                    SessionTarget::Pool(pool.handle()),
                    patterns(),
                    rates(),
                )));
            }
            service = Service::Pool(pool);
        }
        Rung::ServeUnix | Rung::ServeTcp => {
            let builder = ServerBuilder::from_spec(spec.clone())
                .workers(SERVICE_WORKERS)
                .pin([workload.implementation()])
                .max_in_flight(MAX_IN_FLIGHT);
            let builder = if rung == Rung::ServeTcp {
                builder.tcp("127.0.0.1:0")
            } else {
                builder.unix(bench.socket())
            };
            let server = builder.serve(manager).map_err(|e| e.to_string())?;
            let endpoint = match server.tcp_addr() {
                Some(addr) => Endpoint::Tcp(addr.to_string()),
                None => Endpoint::Unix(bench.socket()),
            };
            service = Service::Server(server);
            for _ in 0..CHAINS {
                let engine = RemoteEngine::connect(endpoint.clone(), patterns(), rates(), true)
                    .map_err(|e| e.to_string())?;
                engines.push(Box::new(engine));
            }
        }
        _ => {
            for (chain, log) in logs.iter().enumerate() {
                let mut inst = spec.instantiate(manager).map_err(|e| e.to_string())?;
                if traced {
                    inst = TimedInstance::wrap(inst, log.clone());
                }
                let engine: Box<dyn LikelihoodEngine> = if rung == Rung::SessionDirect {
                    Box::new(SessionEngine::new(
                        SessionTarget::Direct(inst),
                        patterns(),
                        rates(),
                    ))
                } else if workload == Workload::ResendCodon {
                    let checkpointing = (rung == Rung::Checkpoint).then(|| Checkpointing {
                        every: shape.checkpoint_every,
                        path: bench.checkpoint(chain),
                    });
                    Box::new(ResendEngine::new(inst, patterns(), rates(), checkpointing))
                } else {
                    Box::new(BeagleEngine::new(inst, patterns(), rates(), true))
                };
                engines.push(engine);
            }
        }
    }
    let engines = engines
        .into_iter()
        .zip(&logs)
        .map(|(engine, log)| TimedEngine::wrap(engine, log.clone()))
        .collect();
    Ok(Deployment {
        engines,
        logs,
        service,
    })
}

impl Deployment {
    /// Each chain's first (cold) evaluation at the start state: uploads tip
    /// data and fills every buffer. Part of set-up.
    pub fn cold_start(&mut self, inputs: &Inputs) {
        let model = inputs.params.build();
        for engine in &mut self.engines {
            engine.log_likelihood(&inputs.problem.tree, &model);
        }
    }

    /// Forget recorded evaluations and calls (keeps capacity).
    pub fn clear_logs(&self) {
        for log in &self.logs {
            let mut log = lock(log);
            log.evals.clear();
            log.calls.clear();
        }
    }

    /// Evaluations recorded so far, over all chains.
    pub fn evaluations(&self) -> usize {
        self.logs.iter().map(|l| lock(l).evals.len()).sum()
    }

    /// Tear down: drop the engines (closing client connections and reading
    /// final layer counters into the logs), then drain the service. Stats
    /// are read only here, after the timed window. Returns the service's
    /// report and each chain's log.
    pub fn finish(self) -> (ServiceReport, Vec<ChainLog>) {
        let Deployment {
            engines,
            logs,
            service,
        } = self;
        drop(engines);
        let logs = logs.iter().map(|l| std::mem::take(&mut *lock(l))).collect();
        let report = match service {
            Service::InProcess => ServiceReport::default(),
            Service::Pool(pool) => {
                // `Pool::stats` reads the scheduler's shared counters
                // directly; it submits nothing, so the ratios need no
                // correction for the probe.
                let stats = pool.stats();
                let (_, fleet) = pool.shutdown_drain(None);
                let fleet_memo = fleet
                    .iter()
                    .filter_map(|w| w.memo_stats())
                    .reduce(|mut a, b| {
                        a.merge(&b);
                        a
                    });
                ServiceReport {
                    pool: Some(stats),
                    fleet_memo,
                    refusals: 0,
                }
            }
            Service::Server(server) => {
                // `stats_json` pushes a probe job through the server's own
                // pool, where it queues behind real sessions and is counted
                // as one more submitted job. So it is called only now, after
                // the window, and only the server's own counters are read
                // from it: the pool section includes the probe's job, and
                // pool ratios are taken from the pool rung instead.
                let json = server.stats_json();
                let refusals = ["busy_client_cap", "busy_pool_full", "busy_draining", "lost"]
                    .iter()
                    .map(|key| json_u64(&json, key))
                    .sum();
                server.drain(None);
                ServiceReport {
                    refusals,
                    ..ServiceReport::default()
                }
            }
        };
        (report, logs)
    }
}

/// The unsigned integer value of the first `"key":` in `json`, or 0.
fn json_u64(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    json.find(&needle)
        .map(|i| &json[i + needle.len()..])
        .and_then(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_share_the_tree_but_not_the_data() {
        let a = Inputs::generate(Workload::WideNuc, 1, Scale::Tiny);
        let b = Inputs::generate(Workload::WideNuc, 2, Scale::Tiny);
        let shape = |i: &Inputs| {
            i.problem
                .tree
                .operation_schedule()
                .iter()
                .map(|e| (e.destination, e.child1, e.child2))
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(&a), shape(&b));
        assert_eq!(
            a.problem.tree.branch_assignments(),
            b.problem.tree.branch_assignments()
        );
        assert_ne!(a.problem.patterns.weights(), b.problem.patterns.weights());
        assert_ne!(a.mc3_seed, b.mc3_seed);
    }

    #[test]
    fn serve_replays_mcmc_inputs() {
        let a = Inputs::generate(Workload::McmcNuc, 3, Scale::Tiny);
        let b = Inputs::generate(Workload::ServeNuc, 3, Scale::Tiny);
        assert_eq!(a.mc3_seed, b.mc3_seed);
        assert_eq!(a.problem.patterns.weights(), b.problem.patterns.weights());
        let c = Inputs::generate(Workload::McmcNuc, 4, Scale::Tiny);
        assert_ne!(a.mc3_seed, c.mc3_seed, "the seed changes the inputs");
    }

    #[test]
    fn server_counters_parse() {
        let json = "{\"server\":{\"lost\":3,\"busy_pool_full\":12},\"pool\":{}}";
        assert_eq!(json_u64(json, "lost"), 3);
        assert_eq!(json_u64(json, "busy_pool_full"), 12);
        assert_eq!(json_u64(json, "absent"), 0);
    }
}
