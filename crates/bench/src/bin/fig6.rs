//! Figure 6 — application-level MrBayes speedups.
//!
//! Runs the same MC³ analysis (4 Metropolis-coupled chains) under different
//! likelihood providers and reports total likelihood-computation time
//! relative to the MrBayes-MPI double-precision baseline (the paper's
//! reference). Two datasets, as in §VIII-C:
//!
//! * nucleotide: 16 taxa (paper: 306,780 unique patterns; default here is
//!   scaled down — use `--paper` for the full size);
//! * codon: 15 taxa (paper: 6,080 unique codon patterns).
//!
//! Every BEAGLE instance runs under the memo layer (`beagle_core::memo`),
//! which skips the work a proposal leaves unchanged; the native engines
//! recompute everything, as MrBayes' own likelihood code does.
//!
//! Timing provenance: native/threaded/OpenCL-x86 engines are measured wall
//! time; the OpenCL-GPU engine reports modeled device time (DESIGN.md §1).
//! A second table gives modeled dual-Xeon speedups for the CPU rows, since
//! this host cannot exhibit 56-thread scaling.

use beagle_accel::{catalog, OpenClGpuFactory, OpenClX86Factory, PerfModel};
use beagle_bench::cpu_model::CpuModel;
use beagle_bench::{paper_mode, quick_mode};
use beagle_core::manager::ImplementationFactory;
use beagle_core::{Flags, MemoInstance};
use beagle_cpu::{CpuFactory, ThreadingModel};
use beagle_mcmc::{run_mc3, BeagleEngine, LikelihoodEngine, Mc3Config, ModelParams, NativeEngine};
use beagle_phylo::Tree;
use genomictest::{ModelKind, Problem, Scenario};
use rand::rngs::SmallRng;
use rand::SeedableRng;

struct EngineSpec {
    label: &'static str,
    kind: EngineKind,
    single: bool,
}

enum EngineKind {
    Native,
    ThreadPool,
    OpenClX86,
    OpenClGpuS9170,
}

fn make_engines(
    spec: &EngineSpec,
    problem: &Problem,
    chains: usize,
) -> Vec<Box<dyn LikelihoodEngine>> {
    // The raw factory instance under memo, as on a managed instance.
    let beagle = |factory: &dyn ImplementationFactory, precision| -> Box<dyn LikelihoodEngine> {
        let inst = factory
            .create(&problem.config(), precision, Flags::NONE)
            .unwrap();
        Box::new(BeagleEngine::new(
            Box::new(MemoInstance::new(inst)),
            problem.patterns.clone(),
            problem.rates.clone(),
            true,
        ))
    };
    (0..chains)
        .map(|_| -> Box<dyn LikelihoodEngine> {
            let precision = if spec.single {
                Flags::PRECISION_SINGLE
            } else {
                Flags::PRECISION_DOUBLE
            };
            match spec.kind {
                EngineKind::Native => {
                    if spec.single {
                        Box::new(NativeEngine::<f32>::new(
                            problem.tree.taxon_count(),
                            problem.patterns.clone(),
                            problem.rates.clone(),
                            problem.model.state_count(),
                        ))
                    } else {
                        Box::new(NativeEngine::<f64>::new(
                            problem.tree.taxon_count(),
                            problem.patterns.clone(),
                            problem.rates.clone(),
                            problem.model.state_count(),
                        ))
                    }
                }
                EngineKind::ThreadPool => beagle(
                    &CpuFactory::new(ThreadingModel::ThreadPool, false),
                    precision,
                ),
                EngineKind::OpenClX86 => beagle(&OpenClX86Factory::new(), precision),
                EngineKind::OpenClGpuS9170 => {
                    beagle(&OpenClGpuFactory::new(catalog::firepro_s9170()), precision)
                }
            }
        })
        .collect()
}

fn run_dataset(name: &str, model: ModelKind, taxa: usize, patterns: usize, generations: usize) {
    println!("-- {name}: {taxa} taxa, {patterns} unique patterns, {generations} generations, 4 chains --");
    let problem = Problem::generate(&Scenario {
        model,
        taxa,
        patterns,
        categories: if matches!(model, ModelKind::Nucleotide) {
            4
        } else {
            1
        },
        seed: 800,
    });
    let params = match model {
        ModelKind::Codon => ModelParams::Codon {
            kappa: 2.0,
            omega: 0.5,
        },
        _ => ModelParams::Nucleotide { kappa: 2.0 },
    };
    let mut rng = SmallRng::seed_from_u64(801);
    let start_tree = Tree::random(taxa, 0.1, &mut rng);
    let config = Mc3Config {
        chains: 4,
        generations,
        swap_interval: 5,
        sample_interval: 5,
        heating: 0.1,
        seed: 802,
    };

    let specs = [
        EngineSpec {
            label: "MrBayes-MPI (native, double)",
            kind: EngineKind::Native,
            single: false,
        },
        EngineSpec {
            label: "MrBayes-SSE (native, single)",
            kind: EngineKind::Native,
            single: true,
        },
        EngineSpec {
            label: "C++ threads, double",
            kind: EngineKind::ThreadPool,
            single: false,
        },
        EngineSpec {
            label: "C++ threads, single",
            kind: EngineKind::ThreadPool,
            single: true,
        },
        EngineSpec {
            label: "OpenCL-x86, double",
            kind: EngineKind::OpenClX86,
            single: false,
        },
        EngineSpec {
            label: "OpenCL-x86, single",
            kind: EngineKind::OpenClX86,
            single: true,
        },
        EngineSpec {
            label: "OpenCL-GPU S9170, double",
            kind: EngineKind::OpenClGpuS9170,
            single: false,
        },
        EngineSpec {
            label: "OpenCL-GPU S9170, single",
            kind: EngineKind::OpenClGpuS9170,
            single: true,
        },
    ];

    let mut baseline = None;
    println!(
        "{:<30} {:>12} {:>10} {:>18} timing",
        "engine", "lik. time s", "speedup", "final lnL"
    );
    for spec in &specs {
        let mut engines = make_engines(spec, &problem, config.chains);
        let result = run_mc3(&config, &start_tree, params, &mut engines);
        let secs = result.likelihood_time.as_secs_f64();
        if baseline.is_none() {
            baseline = Some(secs);
        }
        let simulated = matches!(spec.kind, EngineKind::OpenClGpuS9170);
        println!(
            "{:<30} {:>12.3} {:>10.2} {:>18.3} {}",
            spec.label,
            secs,
            baseline.unwrap() / secs,
            result.final_log_likelihood,
            if simulated { "simulated" } else { "measured" }
        );
    }

    // Modeled dual-Xeon speedups (shape reference for the CPU rows).
    let states = model.state_count();
    let cats = if matches!(model, ModelKind::Nucleotide) {
        4
    } else {
        1
    };
    let xeon = CpuModel::dual_xeon_e5_2680v4();
    // Native double: serial rate at half the single-precision rate.
    let native_double = xeon.serial_gflops(taxa, patterns, states, cats) * 0.5;
    let native_single = xeon.serial_gflops(taxa, patterns, states, cats);
    let pool_single = xeon.pool_gflops(56, taxa, patterns, states, cats);
    let pool_double = pool_single * 0.5;
    let x86_single = pool_single * 1.12;
    let x86_double = pool_double * 1.12;
    // GPU: roofline rate for the partials kernel dominates the application.
    let gpu = PerfModel::new(catalog::firepro_s9170());
    let plan = beagle_accel::grid::plan_gpu(&catalog::firepro_s9170(), states, 4);
    let gpu_rate = |double: bool| {
        let elem = if double { 8 } else { 4 };
        let cost = gpu.partials_cost(
            states,
            plan.padded_patterns(patterns),
            cats,
            plan.group_count(patterns),
            elem,
        );
        let t = gpu.kernel_time(&cost, states, double, true, 18.0);
        cost.flops / t.as_secs_f64() / 1e9
    };
    println!("\n   modeled dual-Xeon speedups vs native double:");
    println!(
        "   native-SSE single {:.1}x | C++ threads {:.1}x (single) {:.1}x (double) | \
         OpenCL-x86 {:.1}x / {:.1}x | S9170 {:.1}x / {:.1}x",
        native_single / native_double,
        pool_single / native_double,
        pool_double / native_double,
        x86_single / native_double,
        x86_double / native_double,
        gpu_rate(false) / native_double,
        gpu_rate(true) / native_double,
    );
}

fn main() {
    println!("== Figure 6: MrBayes-lite application speedups vs MrBayes-MPI (double) ==\n");
    let (nuc_patterns, nuc_gens, codon_patterns, codon_gens) = if paper_mode() {
        (306_780, 10, 6_080, 10)
    } else if quick_mode() {
        // Codon stays above the 512-pattern threading threshold so the
        // thread-pool path is actually exercised.
        (2_000, 10, 600, 6)
    } else {
        (10_000, 20, 1_500, 10)
    };
    run_dataset(
        "nucleotide (RNA-Seq-like)",
        ModelKind::Nucleotide,
        16,
        nuc_patterns,
        nuc_gens,
    );
    println!();
    run_dataset(
        "codon (arthropod-like)",
        ModelKind::Codon,
        15,
        codon_patterns,
        codon_gens,
    );

    println!("\n-- paper reference (Fig. 6, dual Xeon E5-2680v4 + FirePro S9170) --");
    println!("nucleotide: OpenCL-GPU 7.6x over fastest single-precision MrBayes;");
    println!("codon:      OpenCL-GPU 13.8x over fastest single-precision MrBayes;");
    println!("            C++ threads codon-model speedup 39x vs MrBayes-MPI-SSE (abstract);");
    println!("            OpenCL-x86 has a significant advantage for codon inference.");
}
