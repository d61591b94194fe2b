//! # hydra-perfbench
//!
//! The performance ledger of the hydra workspace: one command that runs
//! one of four workloads from a seed, checks every answer against exact
//! answers it computes itself, and prints the end-to-end metrics (tracing
//! off) or the per-layer metrics (tracing on) as one JSON line. See
//! `README.md` beside this crate for the workloads, metrics and
//! predictions.

#![warn(missing_docs)]

pub mod cells;
pub mod gen;
pub mod methods;
pub mod probes;
pub mod trace;
pub mod truth;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The `k` of every query, as in the paper's protocol (100-NN), except
/// where a workload states otherwise.
pub const K: usize = 100;

/// How large a run's inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes stated in the README (what the ledger reports).
    Full,
    /// A small version of the same workload: used by traced runs to
    /// measure layers their own workload does not exercise, and by the
    /// self-check test.
    Probe,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Scratch directory for snapshots (inside the checkout).
    pub workdir: PathBuf,
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted (queries, plus insert batches on ingest-mix).
    pub attempted: u64,
    /// Operations that failed (errors or malformed answers).
    pub failed: u64,
    /// Report lines naming every cell with failures or guarantee
    /// breaches.
    pub violations: Vec<String>,
    /// The exact counters of the traced deterministic pass.
    pub counters: Option<Counters>,
    /// Digest of the generated inputs.
    pub input_digest: u64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
}

/// Deterministic counters of one traced pass: summed `QueryStats`, summed
/// `StoreCounters` deltas, and the accuracy figures. Two traced runs at
/// one seed must produce identical values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Per method: queries and the summed `QueryStats` counters.
    pub query_stats: BTreeMap<String, [u64; 9]>,
    /// Summed `StoreCounters` deltas (in `StoreCounters::counters()` order).
    pub store: [u64; 7],
    /// MAP of the pass.
    pub map: f64,
    /// failed_frac of the pass.
    pub failed_frac: f64,
}

/// Nearest-rank percentile of `sorted` (ascending).
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Latency samples every run collects at least, so p99 has at least ten
/// samples beyond it.
pub const MIN_SAMPLES: usize = 1000;

/// Peak heap of the process in MiB, from the tracking allocator.
pub fn peak_mem_mb() -> f64 {
    hydra_obs::heap_peak_bytes() as f64 / (1024.0 * 1024.0)
}

/// Every workload's name.
pub const WORKLOADS: [&str; 4] = ["mem-zoo", "disk-ooc", "serve-closed", "ingest-mix"];

/// Runs one workload.
///
/// # Errors
/// A message when the workload name is unknown or the program cannot be
/// set up (a build, save, load or boot failed). Query failures never
/// abort a run; they are counted.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.workdir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.workdir.display()))?;
    let out = match workload {
        "mem-zoo" => workloads::mem_zoo::run(cfg),
        "disk-ooc" => workloads::disk_ooc::run(cfg),
        "serve-closed" => workloads::serve_closed::run(cfg),
        "ingest-mix" => workloads::ingest_mix::run(cfg),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    };
    std::fs::remove_dir_all(&cfg.workdir).ok();
    out
}

/// Runs the traced version of `workload` and completes its per-layer
/// metrics: the layer probes (kernels, summaries, page transfer) always
/// run; per-layer metrics of layers this workload does not exercise come
/// from the other workloads run at [`Scale::Probe`].
///
/// # Errors
/// As [`run`].
pub fn run_traced_ledger(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = run(workload, cfg)?;
    out.metrics
        .extend(probes::run_all(cfg.seed, &cfg.workdir.join("probes"))?);
    std::fs::remove_dir_all(&cfg.workdir).ok();
    for other in WORKLOADS.iter().filter(|w| **w != workload) {
        let missing = probes::PER_LAYER
            .iter()
            .any(|(name, _)| !out.metrics.contains_key(*name));
        if !missing {
            break;
        }
        let probe_cfg = RunConfig {
            scale: Scale::Probe,
            seconds: 0.0,
            workdir: cfg.workdir.with_extension(format!("probe-{other}")),
            ..cfg.clone()
        };
        let probe = run(other, &probe_cfg)?;
        for (name, value) in probe.metrics {
            out.metrics.entry(name).or_insert(value);
        }
    }
    out.metrics
        .retain(|name, _| probes::PER_LAYER.iter().any(|(n, _)| n == name));
    Ok(out)
}
