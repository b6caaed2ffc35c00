//! The two kinds of run: the untraced end-to-end measurement and the traced
//! ladder that attributes its cost to layers.

use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use beagle_core::wire::{decode_frame, encode_frame, Frame};
use beagle_core::{InstanceStats, KernelClass, Lane, MemoStats};
use beagle_mcmc::{run_mc3, LikelihoodEngine, Mc3Config, Mc3Result, Sample};

use crate::check;
use crate::engines::{session_request, ResendEngine};
use crate::envelope::Envelope;
use crate::heap;
use crate::stats::{
    iqr_over_median, median, nearest_rank, ratio, tail, window_rates, without_gaps,
};
use crate::trace::{cpu_ns, now_ns, ChainLog, Eval};
use crate::workload::{
    cpu_manager, deploy, Bench, Deployment, Inputs, Rung, Scale, ServiceReport, Workload, CHAINS,
};

/// End-to-end metrics: (name, unit, better).
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("evals_per_cpu_s", "1/s", "higher"),
    ("eval_cpu_p50_us", "us", "lower"),
    ("eval_cpu_p99_us", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_heap_mb", "MB", "lower"),
];

/// Per-layer metrics of the traced run: (name, unit, better). A layer that
/// is not on a workload's ladder reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 34] = [
    ("mc3.likelihood_share", "ratio", "higher"),
    ("engine.fast_path_frac", "ratio", "higher"),
    ("engine.ops_per_eval", "count", "lower"),
    ("engine.matrices_per_eval", "count", "lower"),
    ("engine.self_us_per_eval", "us", "lower"),
    ("memo.ops_skip_frac", "ratio", "higher"),
    ("memo.matrices_skip_frac", "ratio", "higher"),
    ("memo.delta_us_per_eval", "us", "lower"),
    ("queue.delta_us_per_eval", "us", "lower"),
    ("queue.eigen_cache_hit_frac", "ratio", "higher"),
    ("queue.ops_submitted_frac", "ratio", "lower"),
    ("rescue.delta_us_per_eval", "us", "lower"),
    ("checkpoint.delta_us_per_eval", "us", "lower"),
    ("checkpoint.save_ms_p50", "ms", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("kernel.share", "ratio", "higher"),
    ("kernel.partials_us_per_eval", "us", "lower"),
    ("kernel.matrices_us_per_eval", "us", "lower"),
    ("kernel.rescale_us_per_eval", "us", "lower"),
    ("kernel.integrate_us_per_eval", "us", "lower"),
    ("kernel.partials_gflops", "GFLOP/s", "higher"),
    ("kernel.partials_gbps", "GB/s", "higher"),
    ("threadpool.speedup", "x", "higher"),
    ("threadpool.dispatches_per_eval", "count", "lower"),
    ("pool.delta_us_per_eval", "us", "lower"),
    ("pool.stolen_frac", "ratio", "lower"),
    ("pool.worker_busy_frac", "ratio", "higher"),
    ("wire.request_bytes", "bytes", "lower"),
    ("wire.encode_us", "us", "lower"),
    ("wire.decode_us", "us", "lower"),
    ("server.delta_us_per_eval", "us", "lower"),
    ("server.tcp_delta_us_per_eval", "us", "lower"),
    ("proc.cpu_us_per_eval", "us", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// Equal-count windows the timed run is split into for `evals_per_cpu_s`.
const WINDOWS: usize = 10;
/// Evaluation log capacity of the set-ups repeated in the window: they make
/// only the cold evaluation.
const SETUP_LOG_CAPACITY: usize = 16;
/// Timed `checkpoint()` + `save()` calls in the traced checkpoint probe.
const PROBE_SAVES: usize = 7;
/// Posterior samples turned into wire sessions for the wire probe.
const WIRE_SESSIONS: usize = 16;
/// Timed encode/decode repetitions per wire session.
const WIRE_REPS: usize = 5;

/// How long and where to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Minimum measured wall time of the end-to-end window: the `stack`
    /// binary's required `--seconds`, which a harness sets from
    /// `BENCHMARK.json`'s `run_seconds`.
    pub seconds: f64,
    /// Sizes and scratch directory.
    pub bench: Bench,
    /// Where the traced run writes its spans.
    pub spans: PathBuf,
}

impl Options {
    /// Unmeasured running before the window.
    fn warm_up_seconds(&self) -> f64 {
        self.seconds / 10.0
    }

    /// Latency samples the window must hold: 1,000 puts 10 beyond p99.
    fn min_samples(&self) -> usize {
        match self.bench.scale {
            Scale::Full => 1000,
            Scale::Tiny => 10,
        }
    }

    /// Hard stop for the window, whatever the sample count.
    fn max_seconds(&self) -> f64 {
        3.0 * self.seconds
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Evaluations attempted.
    pub attempted: u64,
    /// Failed evaluations, refusals and lost sessions.
    pub failed: u64,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Extra `name value unit` lines for readers (sample counts, spreads).
    pub details: Vec<(String, f64, &'static str)>,
    /// Correctness failures, empty when `correct`.
    pub problems: Vec<String>,
    /// Provenance and host.
    pub envelope: Envelope,
}

impl Outcome {
    /// The metric named `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    finite(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// JSON has no NaN or infinity; a non-finite value cannot be reported.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn mc3_config(generations: usize, seed: u64) -> Mc3Config {
    Mc3Config {
        chains: CHAINS,
        generations,
        swap_interval: 10,
        sample_interval: 10,
        heating: 0.1,
        seed,
    }
}

/// One set-up of a workload's end-to-end stack, through its cold evaluation.
struct SetUp {
    deployment: Deployment,
    /// Process CPU time it took, in s.
    cpu_s: f64,
    /// Wall time it took, in s.
    wall_s: f64,
}

fn set_up(
    workload: Workload,
    inputs: &Inputs,
    options: &Options,
    capacity: usize,
) -> Result<SetUp, String> {
    let cpu_start = cpu_ns();
    let start = Instant::now();
    let manager = cpu_manager();
    let mut deployment = deploy(
        workload,
        workload.top(),
        inputs,
        &manager,
        false,
        &options.bench,
        capacity,
    )?;
    deployment.cold_start(inputs);
    Ok(SetUp {
        deployment,
        cpu_s: cpu_ns().saturating_sub(cpu_start) as f64 / 1e9,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

fn sorted_by(evals: &[Eval], f: impl Fn(&Eval) -> u64) -> Vec<u64> {
    let mut v: Vec<u64> = evals.iter().map(f).collect();
    v.sort_unstable();
    v
}

/// Set up `workload`'s end-to-end stack and run MC³ segments against it for
/// at least `options.seconds` and [`Options::min_samples`] evaluations.
///
/// The host's speed drifts over seconds, so set-up samples taken back to
/// back all meet the same host. Instead, between two segments of the window
/// the run sets up another copy of the stack and tears it down again;
/// `setup_s` is the median over these and the first set-up, and the time
/// they take is left out of the throughput windows.
pub fn end_to_end(workload: Workload, seed: u64, options: &Options) -> Result<Outcome, String> {
    let scale = options.bench.scale;
    let shape = workload.shape(scale);
    let inputs = Inputs::generate(workload, seed, scale);
    let capacity = match scale {
        Scale::Full => 1 << 16,
        Scale::Tiny => 1 << 10,
    };

    let first = set_up(workload, &inputs, options, capacity)?;
    let mut setup_s = vec![first.cpu_s];
    let mut setup_wall_s = vec![first.wall_s];
    let mut deployment = first.deployment;
    // CPU and wall intervals of the set-ups repeated in the window.
    let mut cpu_gaps = Vec::new();
    let mut wall_gaps = Vec::new();

    // Segment `k` of the run uses MC³ seed `mc3_seed + k`; segments before
    // `t0` warm caches and the host up and are not measured.
    let mut last: Option<Mc3Result> = None;
    let mut panics = 0u64;
    let mut segments = 0u64;
    let mut warm_up_segments = 0;
    let warm_up = now_ns();
    let mut t0 = None;
    let mut cpu0 = cpu_ns();
    loop {
        let config = mc3_config(
            shape.segment_generations,
            inputs.mc3_seed.wrapping_add(segments),
        );
        let engines = &mut deployment.engines;
        match catch_unwind(AssertUnwindSafe(|| {
            run_mc3(&config, &inputs.problem.tree, inputs.params, engines)
        })) {
            Ok(result) => last = Some(result),
            Err(_) => {
                panics += 1;
                break;
            }
        }
        segments += 1;
        let now = now_ns();
        let Some(start) = t0 else {
            if (now - warm_up) as f64 / 1e9 >= options.warm_up_seconds() {
                heap::stop();
                deployment.clear_logs();
                warm_up_segments = segments;
                cpu0 = cpu_ns();
                t0 = Some(now_ns());
            }
            continue;
        };
        let elapsed = (now - start) as f64 / 1e9;
        let enough =
            elapsed >= options.seconds && deployment.evaluations() >= options.min_samples();
        if enough || elapsed >= options.max_seconds() {
            break;
        }
        let (cpu_from, wall_from) = (cpu_ns(), now_ns());
        let probe = set_up(workload, &inputs, options, SETUP_LOG_CAPACITY)?;
        probe.deployment.finish();
        setup_s.push(probe.cpu_s);
        setup_wall_s.push(probe.wall_s);
        cpu_gaps.push((cpu_from, cpu_ns()));
        wall_gaps.push((wall_from, now_ns()));
    }
    let t0 = t0.unwrap_or(warm_up);
    let t_end = now_ns();
    let (report, logs) = deployment.finish();
    options.bench.clean();

    let evals: Vec<Eval> = logs.iter().flat_map(|l| l.evals.iter().copied()).collect();
    let n = evals.len();
    let us = |ns: &[u64]| -> Vec<f64> { ns.iter().map(|&t| t as f64 / 1e3).collect() };
    let cpu_us = us(&sorted_by(&evals, Eval::cpu_ns));
    let wall_us = us(&sorted_by(&evals, Eval::ns));
    let cpu_ends = sorted_by(&evals, |e| without_gaps(e.cpu_end, &cpu_gaps));
    let wall_ends = sorted_by(&evals, |e| without_gaps(e.end, &wall_gaps));
    let cpu_rates = window_rates(cpu0, &cpu_ends, WINDOWS);
    let wall_rates = window_rates(t0, &wall_ends, WINDOWS);

    let mut problems = Vec::new();
    if panics > 0 {
        problems.push("an evaluation panicked".to_string());
    }
    problems.extend(refused(&report));
    match last.as_ref().and_then(|r| r.posterior.samples().last()) {
        Some(sample) => {
            if let Err(e) = check::sample_matches_oracle(sample, &inputs) {
                problems.push(e);
            }
        }
        None => problems.push("no posterior sample to check".into()),
    }

    // The gated metrics are read off the process CPU clock, so that time the
    // hypervisor gives the vCPUs to other tenants does not count; wall-clock
    // equivalents are printed beside them.
    let at = |sorted: &[f64], p| nearest_rank(sorted, p).map_or(0.0, |q| q.value);
    let metrics = vec![
        metric(0, median(&cpu_rates)),
        metric(1, at(&cpu_us, 50.0)),
        metric(2, at(&cpu_us, 99.0)),
        metric(3, median(&setup_s)),
        metric(4, heap::peak_mb()),
    ];
    let mut details = vec![
        detail("eval_samples", n as f64, "count"),
        detail(
            "eval_p99_beyond",
            nearest_rank(&cpu_us, 99.0).map_or(0.0, |q| q.beyond as f64),
            "count",
        ),
        detail(
            "evals_per_cpu_s_window_iqr",
            iqr_over_median(&cpu_rates),
            "ratio",
        ),
        detail("evals_per_s", median(&wall_rates), "1/s"),
        detail(
            "evals_per_s_whole_run",
            ratio(
                n as f64,
                (without_gaps(t_end, &wall_gaps) - t0) as f64 / 1e9,
            ),
            "1/s",
        ),
        detail(
            "evals_per_s_window_iqr",
            iqr_over_median(&wall_rates),
            "ratio",
        ),
        detail("eval_p50_us", at(&wall_us, 50.0), "us"),
        detail("eval_p99_us", at(&wall_us, 99.0), "us"),
        detail("setup_s_iqr", iqr_over_median(&setup_s), "ratio"),
        detail("setup_wall_s", median(&setup_wall_s), "s"),
        detail("segments", (segments - warm_up_segments) as f64, "count"),
        detail("refusals", report.refusals as f64, "count"),
        detail("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    if let Some((p, q)) = tail(&cpu_us) {
        details.push((format!("eval_cpu_tail_p{p}_us"), q.value, "us"));
    }

    let envelope = Envelope::capture(
        vec![workload.implementation().to_string()],
        seed,
        sizes(workload, scale, false),
        iqr_over_median(&cpu_rates),
        false,
    );
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: n as u64 + panics,
        failed: panics + report.refusals,
        metrics,
        details,
        problems,
        envelope,
    })
}

/// Every workload is sized so that no request is refused or lost: each
/// chain has one request in flight against a per-connection cap of two. A
/// refusal the client retried still leaves a correct result, so without
/// this check a regression in admission control would show in no metric.
fn refused(report: &ServiceReport) -> Option<String> {
    (report.refusals > 0)
        .then(|| format!("the service refused or lost {} requests", report.refusals))
}

fn metric(index: usize, value: f64) -> Metric {
    Metric {
        name: END_TO_END[index].0,
        value,
        unit: END_TO_END[index].1,
    }
}

fn detail(name: &str, value: f64, unit: &'static str) -> (String, f64, &'static str) {
    (name.to_string(), value, unit)
}

fn sizes(workload: Workload, scale: Scale, traced: bool) -> String {
    let s = workload.shape(scale);
    let run = if traced {
        format!("{} generations per rung", s.trace_generations)
    } else {
        format!("segments of {} generations", s.segment_generations)
    };
    format!(
        "{} taxa x {} {:?} patterns x {} categories, {CHAINS} chains, {run}",
        s.taxa, s.patterns, s.model, s.categories
    )
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One replay of a workload's trajectory prefix on one rung.
struct RungRun {
    rung: Rung,
    start: u64,
    end: u64,
    cpu_ns: u64,
    cold_trace: Vec<f64>,
    samples: Vec<Sample>,
    logs: Vec<ChainLog>,
    report: ServiceReport,
}

impl RungRun {
    fn evals(&self) -> usize {
        self.logs.iter().map(|l| l.evals.len()).sum()
    }

    fn eval_ns(&self) -> u64 {
        self.logs.iter().flat_map(|l| &l.evals).map(Eval::ns).sum()
    }

    /// Mean evaluation latency in µs.
    fn mean_us(&self) -> f64 {
        ratio(self.eval_ns() as f64, self.evals() as f64) / 1e3
    }
}

/// Replay the first `generations` of `stack`'s trajectory for `inputs`.
fn replay(
    stack: Workload,
    rung: Rung,
    inputs: &Inputs,
    generations: usize,
    traced: bool,
    options: &Options,
) -> Result<RungRun, String> {
    let manager = cpu_manager();
    let capacity = generations + 16;
    let mut deployment = deploy(
        stack,
        rung,
        inputs,
        &manager,
        traced,
        &options.bench,
        capacity,
    )?;
    // No separate cold start: the replay's first evaluations are the cold
    // ones, so spans and the instances' cumulative counters cover exactly
    // the same work.
    let config = mc3_config(generations, inputs.mc3_seed);
    let cpu0 = cpu_ns();
    let start = now_ns();
    let engines = &mut deployment.engines;
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_mc3(&config, &inputs.problem.tree, inputs.params, engines)
    }));
    let end = now_ns();
    let cpu = cpu_ns().saturating_sub(cpu0);
    let (report, logs) = deployment.finish();
    let result = result.map_err(|_| format!("{} rung panicked", rung.name()))?;
    Ok(RungRun {
        rung,
        start,
        end,
        cpu_ns: cpu,
        cold_trace: result.cold_trace,
        samples: result.posterior.samples().to_vec(),
        logs,
        report,
    })
}

/// Replay the first generations of `workload` once per rung of its ladder
/// with bench-side tracing, once more untraced on the top rung, and derive
/// the per-layer metrics; spans go to `options.spans`.
pub fn traced(workload: Workload, seed: u64, options: &Options) -> Result<Outcome, String> {
    let scale = options.bench.scale;
    let shape = workload.shape(scale);
    let inputs = Inputs::generate(workload, seed, scale);
    let generations = shape.trace_generations;

    let mut rungs = Vec::new();
    for &rung in workload.ladder() {
        rungs.push(replay(workload, rung, &inputs, generations, true, options)?);
    }
    let untraced = replay(
        workload,
        workload.top(),
        &inputs,
        generations,
        false,
        options,
    )?;
    // run_mc3_remote's guarantee: the service reproduces the in-process
    // cold trace of the same implementation exactly.
    let in_process = if workload == Workload::ServeNuc {
        Some(replay(
            Workload::McmcNuc,
            Workload::McmcNuc.top(),
            &inputs,
            generations,
            false,
            options,
        )?)
    } else {
        None
    };
    let saves = if workload == Workload::ResendCodon {
        checkpoint_probe(&inputs, options)?
    } else {
        Vec::new()
    };
    options.bench.clean();

    // Replays on the top rung's implementation must reproduce its cold
    // trace bit for bit. `CPU-SSE` and `CPU-threadpool-SSE` sum the root
    // log-likelihood in a different order (it differs in the last bits), so
    // a rung on another implementation follows its own trajectory and is
    // held to the oracle instead.
    let mut problems: Vec<String> = [&untraced]
        .into_iter()
        .chain(&rungs)
        .filter_map(|run| refused(&run.report).map(|e| format!("{}: {e}", run.rung.name())))
        .collect();
    for run in rungs.iter().chain(in_process.as_ref()) {
        let same_implementation = workload.implementation_of(run.rung) == workload.implementation();
        if same_implementation && !check::bit_identical(&run.cold_trace, &untraced.cold_trace) {
            problems.push(format!(
                "cold trace of {} differs from the untraced {}",
                run.rung.name(),
                workload.top().name()
            ));
        }
        match run.samples.last() {
            Some(sample) => {
                if let Err(e) = check::sample_matches_oracle(sample, &inputs) {
                    problems.push(format!("{}: {e}", run.rung.name()));
                }
            }
            None => problems.push(format!("{}: no posterior sample to check", run.rung.name())),
        }
    }

    let values = layer_metrics(workload, &inputs, &rungs, &untraced, &saves)?;
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric {
            name,
            value: values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .expect("every per-layer metric is computed"),
            unit,
        })
        .collect();
    let mut details: Vec<(String, f64, &'static str)> = rungs
        .iter()
        .map(|r| {
            (
                format!("rung.{}.mean_eval_us", r.rung.name()),
                r.mean_us(),
                "us",
            )
        })
        .collect();
    details.push(detail("untraced.mean_eval_us", untraced.mean_us(), "us"));
    details.push(detail("trace_generations", generations as f64, "count"));

    let mut implementations = vec![workload.implementation().to_string()];
    if workload == Workload::WideNuc {
        implementations.push("CPU-SSE".into());
    }
    let envelope = Envelope::capture(
        implementations,
        seed,
        sizes(workload, scale, true),
        0.0,
        true,
    );
    write_spans(&options.spans, workload, &rungs, &envelope)
        .map_err(|e| format!("write spans to {}: {e}", options.spans.display()))?;

    let runs = || rungs.iter().chain([&untraced]).chain(in_process.as_ref());
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: runs().map(|r| r.evals() as u64).sum(),
        failed: runs().map(|r| r.report.refusals).sum(),
        metrics,
        details,
        problems,
        envelope,
    })
}

/// Time `checkpoint()` + `save()` on a freshly evaluated top-rung
/// `resend-codon` instance. Its journal holds one evaluation's state, which
/// is what it holds at any point of a run: the journal keeps only the
/// latest write to each buffer.
fn checkpoint_probe(inputs: &Inputs, options: &Options) -> Result<Vec<(u64, u64)>, String> {
    let manager = cpu_manager();
    let instance = Workload::ResendCodon
        .spec(Rung::Checkpoint, &inputs.problem, false)
        .instantiate(&manager)
        .map_err(|e| e.to_string())?;
    let mut engine = ResendEngine::new(
        instance,
        inputs.problem.patterns.clone(),
        inputs.problem.rates.clone(),
        None,
    );
    engine.log_likelihood(&inputs.problem.tree, &inputs.params.build());
    let path = options.bench.checkpoint(0);
    Ok((0..PROBE_SAVES)
        .map(|_| engine.save_checkpoint(&path))
        .collect())
}

/// Per-evaluation shape of a rung, from its instance calls.
#[derive(Default)]
struct CallTotals {
    evals: usize,
    fast: usize,
    ops: u64,
    matrices: u64,
    self_ns: u64,
    instance_ns: u64,
}

fn call_totals(run: &RungRun, full_schedule: u64) -> CallTotals {
    let mut t = CallTotals::default();
    for log in &run.logs {
        let mut ops = vec![0u64; log.evals.len()];
        let mut matrices = vec![0u64; log.evals.len()];
        let mut child_ns = vec![0u64; log.evals.len()];
        for call in &log.calls {
            let Some(slot) = child_ns.get_mut(call.eval) else {
                continue;
            };
            *slot += call.ns();
            match call.name {
                "update_partials" => ops[call.eval] += call.items,
                "update_transition_matrices" => matrices[call.eval] += call.items,
                _ => {}
            }
        }
        for (i, eval) in log.evals.iter().enumerate() {
            t.evals += 1;
            t.fast += usize::from(ops[i] < full_schedule);
            t.ops += ops[i];
            t.matrices += matrices[i];
            t.self_ns += eval.ns().saturating_sub(child_ns[i]);
            t.instance_ns += child_ns[i];
        }
    }
    t
}

fn merged_kernels(run: &RungRun) -> InstanceStats {
    let mut stats = InstanceStats::default();
    for log in &run.logs {
        if let Some(k) = &log.layers.kernels {
            stats.merge(k);
        }
    }
    stats
}

fn merged_memo(run: &RungRun) -> Option<MemoStats> {
    run.logs
        .iter()
        .filter_map(|l| l.layers.memo)
        .reduce(|mut a, b| {
            a.merge(&b);
            a
        })
}

/// The per-layer values by name.
fn layer_metrics(
    workload: Workload,
    inputs: &Inputs,
    rungs: &[RungRun],
    untraced: &RungRun,
    saves: &[(u64, u64)],
) -> Result<Vec<(&'static str, f64)>, String> {
    let by = |rung: Rung| rungs.iter().find(|r| r.rung == rung);
    // Mean evaluation latency of `rung` minus that of the rung below it;
    // `rungs` is in ladder order.
    let below = |rung: Rung| match rungs.iter().position(|r| r.rung == rung) {
        Some(i) if i > 0 => rungs[i].mean_us() - rungs[i - 1].mean_us(),
        _ => 0.0,
    };
    let top = rungs.last().expect("ladders are non-empty");
    // The engine and kernel layers are read on the highest rung whose
    // instances the bench wraps: the service rungs' instances live inside
    // the pool and the server.
    let probe = by(Rung::SessionDirect).unwrap_or(top);

    let problem = &inputs.problem;
    let taxa = problem.tree.taxon_count() as u64;
    let calls = call_totals(probe, taxa - 1);
    let n = calls.evals as f64;
    let per_eval_us = |ns: f64| ratio(ns, n) / 1e3;

    let kernels = merged_kernels(probe);
    let wall = |classes: &[KernelClass]| -> f64 {
        classes
            .iter()
            .map(|&c| kernels.counter(c).wall_nanos as f64)
            .sum()
    };
    const PARTIALS: [KernelClass; 3] = [
        KernelClass::PartialsPP,
        KernelClass::PartialsSP,
        KernelClass::PartialsSS,
    ];
    let partials_ns = wall(&PARTIALS);
    let matrices_ns = wall(&[KernelClass::TransitionMatrices]);
    let rescale_ns = wall(&[KernelClass::Rescale]);
    let integrate_ns = wall(&[KernelClass::RootIntegrate, KernelClass::EdgeIntegrate]);
    let kernel_ns = partials_ns + matrices_ns + rescale_ns + integrate_ns;
    let partial_ops: u64 = PARTIALS.iter().map(|&c| kernels.counter(c).items).sum();
    let partial_bytes: u64 = PARTIALS.iter().map(|&c| kernels.counter(c).bytes).sum();
    let s = problem.model.state_count() as f64;
    let flops_per_op = problem.rates.category_count() as f64
        * problem.patterns.pattern_count() as f64
        * s
        * (4.0 * s + 2.0);

    let memo = if workload == Workload::ServeNuc {
        by(Rung::Pool).and_then(|r| r.report.fleet_memo)
    } else {
        merged_memo(top)
    }
    .unwrap_or_default();
    let (mut hits, mut misses, mut enqueued, mut submitted) = (0u64, 0u64, 0u64, 0u64);
    for q in top.logs.iter().filter_map(|l| l.layers.queue) {
        hits += q.eigen_cache_hits;
        misses += q.eigen_cache_misses;
        enqueued += q.ops_enqueued;
        submitted += q.ops_submitted;
    }

    let save_ms: Vec<f64> = saves.iter().map(|&(ns, _)| ns as f64 / 1e6).collect();
    let save_bytes = saves.last().map_or(0.0, |&(_, b)| b as f64);

    let (stolen_frac, busy_frac) = by(Rung::Pool)
        .and_then(|r| r.report.pool.as_ref().map(|p| (r, p)))
        .map_or((0.0, 0.0), |(r, p)| {
            let busy: f64 = p.workers.iter().map(|w| w.busy.as_nanos() as f64).sum();
            let span = (r.end - r.start) as f64 * p.workers.len() as f64;
            (
                ratio(p.stolen as f64, p.completed as f64),
                ratio(busy, span),
            )
        });
    let wire = if workload == Workload::ServeNuc {
        wire_probe(&probe.samples, inputs)?
    } else {
        [0.0; 3]
    };
    let speedup = match (by(Rung::RawSse), by(Rung::Raw)) {
        (Some(sse), Some(pool)) => ratio(sse.mean_us(), pool.mean_us()),
        _ => 0.0,
    };

    Ok(vec![
        (
            "mc3.likelihood_share",
            ratio(
                top.eval_ns() as f64,
                top.logs.len() as f64 * (top.end - top.start) as f64,
            ),
        ),
        ("engine.fast_path_frac", ratio(calls.fast as f64, n)),
        ("engine.ops_per_eval", ratio(calls.ops as f64, n)),
        ("engine.matrices_per_eval", ratio(calls.matrices as f64, n)),
        ("engine.self_us_per_eval", per_eval_us(calls.self_ns as f64)),
        (
            "memo.ops_skip_frac",
            ratio(
                memo.ops_skipped as f64,
                (memo.ops_skipped + memo.ops_executed) as f64,
            ),
        ),
        (
            "memo.matrices_skip_frac",
            ratio(
                memo.matrices_skipped as f64,
                (memo.matrices_skipped + memo.matrices_computed) as f64,
            ),
        ),
        ("memo.delta_us_per_eval", below(Rung::Memo)),
        ("queue.delta_us_per_eval", below(Rung::Queue)),
        (
            "queue.eigen_cache_hit_frac",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        (
            "queue.ops_submitted_frac",
            ratio(submitted as f64, enqueued as f64),
        ),
        ("rescue.delta_us_per_eval", below(Rung::Rescue)),
        ("checkpoint.delta_us_per_eval", below(Rung::Checkpoint)),
        ("checkpoint.save_ms_p50", median(&save_ms)),
        ("checkpoint.bytes", save_bytes),
        ("kernel.share", ratio(kernel_ns, calls.instance_ns as f64)),
        ("kernel.partials_us_per_eval", per_eval_us(partials_ns)),
        ("kernel.matrices_us_per_eval", per_eval_us(matrices_ns)),
        ("kernel.rescale_us_per_eval", per_eval_us(rescale_ns)),
        ("kernel.integrate_us_per_eval", per_eval_us(integrate_ns)),
        (
            "kernel.partials_gflops",
            ratio(partial_ops as f64 * flops_per_op, partials_ns),
        ),
        (
            "kernel.partials_gbps",
            ratio(partial_bytes as f64, partials_ns),
        ),
        ("threadpool.speedup", speedup),
        (
            "threadpool.dispatches_per_eval",
            ratio(kernels.counter(KernelClass::PoolDispatch).calls as f64, n),
        ),
        ("pool.delta_us_per_eval", below(Rung::Pool)),
        ("pool.stolen_frac", stolen_frac),
        ("pool.worker_busy_frac", busy_frac),
        ("wire.request_bytes", wire[0]),
        ("wire.encode_us", wire[1]),
        ("wire.decode_us", wire[2]),
        ("server.delta_us_per_eval", below(Rung::ServeUnix)),
        ("server.tcp_delta_us_per_eval", below(Rung::ServeTcp)),
        (
            "proc.cpu_us_per_eval",
            ratio(untraced.cpu_ns as f64, untraced.evals() as f64) / 1e3,
        ),
        (
            "trace.overhead_pct",
            100.0 * ratio(top.mean_us() - untraced.mean_us(), untraced.mean_us()),
        ),
    ])
}

/// Encode and decode the workload's own sessions (built from cold-chain
/// posterior samples) as WIRE-v1 `Submit` frames: [mean bytes, median
/// encode µs, median decode µs].
fn wire_probe(samples: &[Sample], inputs: &Inputs) -> Result<[f64; 3], String> {
    let mut bytes = Vec::new();
    let mut encode_us = Vec::new();
    let mut decode_us = Vec::new();
    for (sid, sample) in samples.iter().rev().take(WIRE_SESSIONS).enumerate() {
        let session = session_request(
            &sample.tree,
            &sample.params.build(),
            &inputs.problem.patterns,
            &inputs.problem.rates,
        );
        let frame = Frame::Submit {
            lane: Lane::Interactive,
            session: Box::new(session),
        };
        for _ in 0..WIRE_REPS {
            let start = now_ns();
            let encoded = std::hint::black_box(encode_frame(sid as u64, &frame));
            let mid = now_ns();
            let decoded = decode_frame(&encoded);
            let end = now_ns();
            let (_, back, used) = decoded.map_err(|e| format!("wire decode: {e}"))?;
            if used != encoded.len() || !matches!(back, Frame::Submit { .. }) {
                return Err("wire round trip changed the frame".into());
            }
            encode_us.push((mid - start) as f64 / 1e3);
            decode_us.push((end - mid) as f64 / 1e3);
            bytes.push(encoded.len() as f64);
        }
    }
    let mean_bytes = ratio(bytes.iter().sum(), bytes.len() as f64);
    Ok([mean_bytes, median(&encode_us), median(&decode_us)])
}

/// Write every rung's spans as JSON lines: one root span per rung replay,
/// one span per evaluation (its trace id is `chain.evaluation`), one per
/// instance call under its evaluation. The envelope is the first line.
fn write_spans(
    path: &Path,
    workload: Workload,
    rungs: &[RungRun],
    envelope: &Envelope,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"envelope\":{}}}", envelope.to_json())?;
    let w = workload.name();
    let mut id = 0u64;
    for run in rungs {
        let rung = run.rung.name();
        id += 1;
        let root = id;
        writeln!(
            out,
            "{{\"workload\":\"{w}\",\"rung\":\"{rung}\",\"trace\":\"run\",\"span\":{root},\"parent\":null,\"name\":\"mc3.run\",\"start_ns\":{},\"end_ns\":{}}}",
            run.start, run.end
        )?;
        for (chain, log) in run.logs.iter().enumerate() {
            let first_eval = id + 1;
            for (e, eval) in log.evals.iter().enumerate() {
                id += 1;
                writeln!(
                    out,
                    "{{\"workload\":\"{w}\",\"rung\":\"{rung}\",\"trace\":\"{chain}.{e}\",\"span\":{id},\"parent\":{root},\"name\":\"engine.log_likelihood\",\"start_ns\":{},\"end_ns\":{}}}",
                    eval.start, eval.end
                )?;
            }
            for call in &log.calls {
                id += 1;
                let parent = if call.eval < log.evals.len() {
                    first_eval + call.eval as u64
                } else {
                    root
                };
                writeln!(
                    out,
                    "{{\"workload\":\"{w}\",\"rung\":\"{rung}\",\"trace\":\"{chain}.{}\",\"span\":{id},\"parent\":{parent},\"name\":\"instance.{}\",\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                    call.eval, call.name, call.start, call.end, call.items
                )?;
            }
        }
    }
    out.flush()
}
