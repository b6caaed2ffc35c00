//! Smoke test of the stack benchmark: every workload end to end and every
//! traced ladder at a tiny size (8 taxa, 64 nucleotide or 16 codon
//! patterns, 20 generations), through the same library entry points the
//! `stack` binary uses. It checks that every metric `BENCHMARK.json` names
//! is emitted with a finite value and that the correctness gate passed, so
//! `cargo test` catches a broken benchmark without a full-size run.

use std::path::PathBuf;

use beagle_stackbench::run::{end_to_end, traced, Options, END_TO_END, PER_LAYER};
use beagle_stackbench::workload::{Bench, Scale, Workload};

/// The `name`s listed in the `section` array of the repository's
/// `BENCHMARK.json` (a flat array of objects, so the first `]` closes it).
fn benchmark_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[body.find('[').expect("array")..body.find(']').expect("array end")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = &rest[rest.find('"').expect("name value") + 1..];
            value[..value.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn options(tag: &str) -> Options {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("stack-smoke-{tag}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    Options {
        seconds: 0.01,
        spans: dir.join("spans.jsonl"),
        bench: Bench {
            scale: Scale::Tiny,
            dir,
        },
    }
}

#[test]
fn benchmark_json_matches_what_the_binary_emits() {
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(benchmark_names("workloads"), workloads);
    let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(benchmark_names("end_to_end"), end_to_end);
    let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(benchmark_names("per_layer"), per_layer);
}

#[test]
fn every_workload_runs_end_to_end() {
    for workload in Workload::ALL {
        let outcome = end_to_end(workload, 1, &options(&format!("e2e-{}", workload.name())))
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert!(
            outcome.correct,
            "{}: {:?}",
            workload.name(),
            outcome.problems
        );
        assert_eq!(outcome.failed, 0, "{}", workload.name());
        assert!(outcome.attempted > 0);
        for name in benchmark_names("end_to_end") {
            let value = outcome
                .metric(&name)
                .unwrap_or_else(|| panic!("{}: {name} missing", workload.name()));
            assert!(
                value.is_finite() && value > 0.0,
                "{}: {name} = {value}",
                workload.name()
            );
        }
        let json = outcome.result_json();
        assert!(
            json.starts_with("{\"correct\":true,\"attempted\":"),
            "{json}"
        );
    }
}

#[test]
fn every_ladder_runs_traced() {
    for workload in Workload::ALL {
        let options = options(&format!("trace-{}", workload.name()));
        let outcome =
            traced(workload, 1, &options).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert!(
            outcome.correct,
            "{}: {:?}",
            workload.name(),
            outcome.problems
        );
        for name in benchmark_names("per_layer") {
            let value = outcome
                .metric(&name)
                .unwrap_or_else(|| panic!("{}: {name} missing", workload.name()));
            assert!(value.is_finite(), "{}: {name} = {value}", workload.name());
        }
        let spans = std::fs::read_to_string(&options.spans).expect("spans written");
        assert!(spans.starts_with("{\"envelope\":"));
        assert!(spans.lines().count() > 1 + workload.ladder().len());
    }
}
