//! The run envelope: what a reader needs to reproduce a number, and the
//! guard against environment knobs that silently change the stack.

use std::path::Path;

/// Environment variables that change the measured stack without changing
/// the command line: the memo kill switch, the scalar-kernel pin, and the
/// load-balancer tuning family (see `beagle_core::spec`).
const FORBIDDEN_EXACT: [&str; 2] = ["BEAGLE_INCREMENTAL_DISABLE", "BEAGLE_FORCE_SCALAR"];
const FORBIDDEN_PREFIX: &str = "BEAGLE_REBALANCE_";

/// Names of the set environment variables that would change the stack
/// being measured, sorted.
pub fn forbidden_env() -> Vec<String> {
    let mut found: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| FORBIDDEN_EXACT.contains(&k.as_str()) || k.starts_with(FORBIDDEN_PREFIX))
        .collect();
    found.sort();
    found
}

/// Provenance and host description attached to every result.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Always `measured`: every number is wall or CPU time on this host.
    pub provenance: &'static str,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model name, or `unknown`.
    pub cpu_model: String,
    /// AVX2 detected at run time.
    pub avx2: bool,
    /// AVX-512F detected at run time.
    pub avx512f: bool,
    /// Implementations the workload's stacks are pinned to.
    pub implementations: Vec<String>,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// Input seed.
    pub seed: u64,
    /// Problem and run sizes, human readable.
    pub sizes: String,
    /// Interquartile range over median of the throughput windows.
    pub window_iqr: f64,
    /// Whether this was the traced run.
    pub traced: bool,
}

impl Envelope {
    /// Describe this host and run.
    pub fn capture(
        implementations: Vec<String>,
        seed: u64,
        sizes: String,
        window_iqr: f64,
        traced: bool,
    ) -> Self {
        let (avx2, avx512f) = simd_features();
        Self {
            provenance: "measured",
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            avx2,
            avx512f,
            implementations,
            git_rev: git_rev(Path::new(".")),
            seed,
            sizes,
            window_iqr,
            traced,
        }
    }

    /// One-line JSON object.
    pub fn to_json(&self) -> String {
        let impls: Vec<String> = self
            .implementations
            .iter()
            .map(|s| format!("\"{}\"", escape(s)))
            .collect();
        format!(
            "{{\"provenance\":\"{}\",\"nproc\":{},\"cpu_model\":\"{}\",\"avx2\":{},\"avx512f\":{},\
             \"implementations\":[{}],\"git_rev\":\"{}\",\"seed\":{},\"sizes\":\"{}\",\
             \"window_iqr\":{},\"traced\":{}}}",
            self.provenance,
            self.nproc,
            escape(&self.cpu_model),
            self.avx2,
            self.avx512f,
            impls.join(","),
            escape(&self.git_rev),
            self.seed,
            escape(&self.sizes),
            self.window_iqr,
            self.traced
        )
    }
}

/// Minimal JSON string escaping for the envelope's free-text fields.
fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

#[cfg(target_arch = "x86_64")]
fn simd_features() -> (bool, bool) {
    (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f"),
    )
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_features() -> (bool, bool) {
    (false, false)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit `HEAD` names in `root/.git`, read directly from the
/// repository files (loose ref, then packed refs) so that no process is
/// spawned and nothing outside the checkout is read; `unknown` when the
/// checkout is not a git repository.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.split_once(' ')
                    .filter(|(_, name)| *name == reference)
                    .map(|(rev, _)| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_is_one_line_of_json() {
        let env = Envelope::capture(vec!["CPU-SSE".into()], 7, "4 \"taxa\"".into(), 0.01, false);
        let json = env.to_json();
        assert!(!json.contains('\n'));
        assert!(json.contains("\"provenance\":\"measured\""));
        assert!(json.contains("\"sizes\":\"4 \\\"taxa\\\"\""));
    }

    #[test]
    fn git_rev_outside_a_repository_is_unknown() {
        assert_eq!(git_rev(Path::new("no/such/checkout")), "unknown");
    }
}
