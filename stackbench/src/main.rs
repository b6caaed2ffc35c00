//! `stack`: end-to-end and per-layer benchmark of the BEAGLE-RS stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path stackbench/Cargo.toml --bin stack -- \
//!     --workload NAME --seconds S [--seed N] [--trace 0|1] [--spans FILE]
//! ```
//!
//! `BENCHMARK.json` gives the command without its arguments; a harness
//! appends `--workload`, `--seed`, `--trace` and `--seconds` set to the
//! file's `run_seconds`. `--seconds` has no default, so a run never
//! measures for a length other than the one asked for.
//!
//! With `--trace 0` (the default) it sets the workload's end-to-end stack
//! up and runs MC³ against it, untraced: a warm-up of a tenth of
//! `--seconds`, then a window of at least `--seconds` and 1,000
//! evaluations, in MC³ segments. Between two segments of the window it sets
//! up a second copy of the stack and tears it down, so that set-up is
//! sampled across the run; that time is left out of the throughput. Every
//! workload runs one MC³ chain, so one evaluation is in flight at a time.
//! With `--trace 1` it replays the first generations of the
//! same trajectory once per rung of the workload's wrapper ladder, with
//! bench-side spans, and reports per-layer metrics; spans are written as
//! JSON lines to `--spans` (default `stackbench-out/spans-NAME.jsonl`).
//! Every metric is printed as a `workload metric value unit` line; the last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Inputs (simulated data, MC³ seeds) come from
//! `--seed` (default 1) and the workload name; the generating tree is fixed
//! per workload so that every seed asks for the same amount of tree work,
//! and chains start at the generating tree, near stationarity. The
//! library receives only the generated inputs. The process exits 2 when
//! `BEAGLE_INCREMENTAL_DISABLE`, `BEAGLE_FORCE_SCALAR` or any
//! `BEAGLE_REBALANCE_*` variable is set, since each silently changes the
//! stack under measurement, and 1 when a correctness check fails.
//!
//! Every number is *measured* (wall or CPU clock on real CPU back-ends); no
//! workload uses a simulated device.
//!
//! # Workloads
//!
//! All use f64, scaled partials and a pinned CPU implementation. Load is
//! closed-loop: the chain waits for its evaluation before proposing again.
//!
//! * `mcmc-nuc` — MC³ (`run_mc3` + `BeagleEngine`), 64 taxa × 1,500
//!   nucleotide patterns × 4 Γ categories (HKY), `CPU-SSE`, default stack
//!   (memo + rescue). The paper's application (Fig. 6). Branch moves (50%)
//!   take the engine dirty path; NNI (40%) and parameter moves (10%) force
//!   full refreshes that memo prunes. Queue, checkpoint, pool and wire are
//!   bypassed.
//! * `resend-codon` — the same sampler driven by a stateless client that
//!   re-sends the model, every matrix and every operation on each
//!   evaluation; 16 taxa × 400 codon (61-state) patterns, `CPU-SSE` queued +
//!   checkpointed + memo + rescue, `checkpoint()` + `save()` every 250
//!   evaluations. Compute-bound codon kernels; memo signatures and the eigen
//!   cache are the only things avoiding redundant work; the only workload
//!   that writes. Engine dirty path bypassed.
//! * `serve-nuc` — MC³ through the likelihood service: a blocking client
//!   connection over TCP loopback to an in-process server with one `CPU-SSE`
//!   worker and `max_in_flight` 2; `mcmc-nuc`'s inputs and seed. Each
//!   request is a self-contained ~400 KB session, so wire, server hop, pool
//!   scheduling and memo on the pooled worker dominate. Engine dirty path
//!   bypassed.
//! * `wide-nuc` — `CPU-threadpool-SSE` (2 threads), 16 taxa ×
//!   20,000 patterns × 4 categories: the many-pattern shape (Fig. 6
//!   nucleotide, Table III threading). Kernels and the thread pool do
//!   nearly all the work, so a wrapper-layer change should not move it. The
//!   partials working set (~38 MB) fits in a large L3; this is not a DRAM
//!   bandwidth measurement.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! | metric | unit | better | bound | definition |
//! |---|---|---|---|---|
//! | `evals_per_cpu_s` | 1/s | higher | see `BENCHMARK.json` | evaluations (MC³ generations; requests on `serve-nuc`) per second of process CPU time: median rate of 10 equal-count windows of the timed run |
//! | `eval_cpu_p50_us` | us | lower | ″ | exact nearest-rank median CPU time of one `log_likelihood` call, summed over every thread it ran on (client, server, pool worker on `serve-nuc`; chain and thread pool on `wide-nuc`) |
//! | `eval_cpu_p99_us` | us | lower | ″ | nearest-rank p99 of the same samples; ≥ 1,000 samples put ≥ 10 beyond it |
//! | `setup_s` | s | lower | ″ | median process CPU time of the first set-up and of one more between each two segments of the window: manager, instances/pool/server, client connect, tip upload, the chain's cold evaluation; input generation excluded |
//! | `peak_heap_mb` | MB | lower | ″ | most bytes held at once through the global allocator, set-up included |
//!
//! Times are process CPU time (`CLOCK_PROCESS_CPUTIME_ID`), not wall time.
//! The benchmark shares its host's cores with other tenants, which take the
//! vCPUs away for stretches of seconds to minutes; a KVM guest with
//! paravirt steal accounting (`CONFIG_PARAVIRT_TIME_ACCOUNTING`) books that
//! as steal time and leaves it out of the CPU clock, so a run that meets it
//! does not read slower. (On a 2-vCPU guest, runs that met 5–13% steal
//! spread 35–46% in wall-clock p99 on `serve-nuc` and `wide-nuc` and 9–11%
//! in CPU time.) With one chain one evaluation is in flight at a
//! time, so the CPU time spent during it is its own cost. The wall-clock
//! equivalents are printed beside the metrics as `evals_per_s`,
//! `eval_p50_us`, `eval_p99_us` and `setup_wall_s`, and `VmHWM` as
//! `peak_rss_mb`; they are not gated on: wall time moves with steal, and
//! `VmHWM` counts allocator arena slack that varies from run to run
//! (`src/heap.rs`).
//!
//! Failed evaluations, Busy refusals and lost sessions are counted in the
//! result's `failed`, and any of them makes the run incorrect: no workload
//! should meet one, so a failure-fraction metric would read 0 on every good
//! run.
//!
//! # Per-layer metrics (`--trace 1`) and the end-to-end metric each should move
//!
//! Rungs, bottom first (each is built only through public `InstanceSpec`,
//! `PoolBuilder` and `ServerBuilder` flags; the last is the end-to-end
//! stack): `mcmc-nuc` raw → memo → rescue; `resend-codon` raw → memo →
//! queue → rescue → checkpoint; `wide-nuc` raw `CPU-SSE` → raw
//! `CPU-threadpool-SSE` → memo → rescue; `serve-nuc` session-direct → pool
//! → serve-unix → serve-tcp. A `<layer>.delta_us_per_eval` is the mean
//! evaluation latency of a rung minus that of the rung below (negative: the
//! layer saves time). A metric whose layer is not on a workload's ladder
//! reads 0 there.
//!
//! | metric | layer | should move |
//! |---|---|---|
//! | `mc3.likelihood_share` | `mcmc::mc3` | `evals_per_cpu_s`, all workloads |
//! | `engine.fast_path_frac`, `engine.ops_per_eval`, `engine.matrices_per_eval` | `mcmc::engine` | `evals_per_cpu_s`, `eval_cpu_p50_us` on `mcmc-nuc`, `wide-nuc` |
//! | `engine.self_us_per_eval` | `mcmc::engine` | `eval_cpu_p50_us` on `mcmc-nuc` |
//! | `memo.ops_skip_frac`, `memo.matrices_skip_frac`, `memo.delta_us_per_eval` | `core::memo` | `evals_per_cpu_s` on `resend-codon`, `mcmc-nuc`, `serve-nuc` |
//! | `queue.delta_us_per_eval`, `queue.eigen_cache_hit_frac`, `queue.ops_submitted_frac` | `core::queue` | `evals_per_cpu_s` on `resend-codon` |
//! | `rescue.delta_us_per_eval` | `core::rescue` | `eval_cpu_p50_us` on `mcmc-nuc` |
//! | `checkpoint.delta_us_per_eval`, `checkpoint.save_ms_p50`, `checkpoint.bytes` | `core::checkpoint` | `evals_per_cpu_s`, `eval_cpu_p99_us` on `resend-codon` |
//! | `kernel.share`, `kernel.{partials,matrices,rescale,integrate}_us_per_eval` | `cpu` kernels | `evals_per_cpu_s` on `wide-nuc`, `resend-codon` |
//! | `kernel.partials_gflops`, `kernel.partials_gbps` (computed) | `cpu` kernels | `evals_per_cpu_s` on `resend-codon` (flops), `wide-nuc` (bytes) |
//! | `threadpool.speedup`, `threadpool.dispatches_per_eval` | `cpu::pool` | `evals_per_cpu_s` on `wide-nuc` |
//! | `pool.delta_us_per_eval`, `pool.stolen_frac`, `pool.worker_busy_frac` | `core::pool` | `eval_cpu_p50_us` on `serve-nuc` |
//! | `wire.request_bytes`, `wire.encode_us`, `wire.decode_us` | `core::wire` | `eval_cpu_p50_us` on `serve-nuc` |
//! | `server.delta_us_per_eval`, `server.tcp_delta_us_per_eval` | `server` | `eval_cpu_p50_us`, `eval_cpu_p99_us` on `serve-nuc` |
//! | `proc.cpu_us_per_eval` | process | `evals_per_cpu_s`, all workloads |
//! | `trace.overhead_pct` | bench | none; traced top rung vs untraced replay |
//!
//! Engine and kernel metrics are read on the highest rung whose instances
//! the bench wraps (`session-direct` on `serve-nuc`); memo counters on
//! `serve-nuc` come from the pool rung's workers. Kernel time comes from the
//! instances' `statistics()` (stats are on in every traced rung); flops and
//! bytes are computed from the executed operations, not counted by
//! hardware. `threadpool.dispatches_per_eval` counts `PoolDispatch`
//! batches: the class records no wall time of its own.

use std::path::PathBuf;
use std::process::ExitCode;

use beagle_stackbench::envelope::forbidden_env;
use beagle_stackbench::run::{self, Options};
use beagle_stackbench::trace::now_ns;
use beagle_stackbench::workload::{Bench, Scale, Workload};

/// Scratch directory (checkpoints, sockets, spans), relative to the
/// working directory.
const OUT_DIR: &str = "stackbench-out";

const USAGE: &str = "usage: stack --workload mcmc-nuc|resend-codon|serve-nuc|wide-nuc \
                     --seconds S [--seed N] [--trace 0|1] [--spans FILE]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = None;
    let mut trace = false;
    let mut spans = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds must be a positive number")?,
                );
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        spans,
    })
}

fn main() -> ExitCode {
    now_ns();
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("stack: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let forbidden = forbidden_env();
    if !forbidden.is_empty() {
        eprintln!(
            "stack: refusing to run with {} set: it changes the stack under measurement",
            forbidden.join(", ")
        );
        return ExitCode::from(2);
    }
    let dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("stack: create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let name = args.workload.name();
    let options = Options {
        seconds: args.seconds,
        spans: args
            .spans
            .unwrap_or_else(|| dir.join(format!("spans-{name}.jsonl"))),
        bench: Bench {
            scale: Scale::Full,
            dir,
        },
    };
    let outcome = if args.trace {
        run::traced(args.workload, args.seed, &options)
    } else {
        run::end_to_end(args.workload, args.seed, &options)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("stack: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    for (detail, value, unit) in &outcome.details {
        println!("{name} {detail} {value} {unit}");
    }
    for problem in &outcome.problems {
        eprintln!("stack: {name}: correctness: {problem}");
    }
    if args.trace {
        println!("{name} spans {}", options.spans.display());
    }
    println!("envelope {}", outcome.envelope.to_json());
    println!("{}", outcome.result_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
