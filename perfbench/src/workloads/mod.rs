//! The four workloads, and the timed/traced phases the in-process ones
//! share.

pub mod disk_ooc;
pub mod ingest_mix;
pub mod mem_zoo;
pub mod serve_closed;

use std::collections::BTreeMap;
use std::time::Instant;

use hydra::Dataset;

use crate::cells::{latency_ms, Cell, Observed};
use crate::gen::{self, Family};
use crate::trace::Tracer;
use crate::truth::{exact_batch, Accounting, Exact};
use crate::{median, peak_mem_mb, Outcome, RunConfig, K};

/// One dataset with its queries and their exact answers.
pub(crate) struct Input {
    /// Report name.
    pub name: &'static str,
    /// The series.
    pub data: Dataset,
    /// The queries.
    pub queries: Dataset,
    /// Exact k = 100 answers of the queries.
    pub truth: Vec<Exact>,
}

/// Generates each `(name, family, length)` set with `n` series and `nq`
/// queries from `seed`, with exact answers.
pub(crate) fn inputs(
    seed: u64,
    n: usize,
    nq: usize,
    sets: &[(&'static str, Family, usize)],
) -> Vec<Input> {
    sets.iter()
        .enumerate()
        .map(|(i, &(name, family, len))| {
            let data = gen::generate(family, n, len, seed.wrapping_add(i as u64 * 1000));
            let queries = gen::noisy_queries(&data, nq, seed.wrapping_add(i as u64 * 1000 + 1));
            let jobs: Vec<(usize, &[f32])> = queries.iter().map(|q| (n, q)).collect();
            let truth = exact_batch(&data, &jobs, K);
            Input {
                name,
                data,
                queries,
                truth,
            }
        })
        .collect()
}

/// Set-up facts every workload reports next to its query metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupFacts {
    /// Median set-up wall time, s.
    pub setup_s: f64,
    /// Σ `memory_footprint()` of the workload's indexes, MiB.
    pub index_mb: f64,
}

/// Set-up repetitions of an untraced full-scale run.
pub const SETUP_REPS: usize = 3;

/// How many times `cfg`'s run sets up: `full` for an untraced full-scale
/// run, once for the traced run and the probe scale.
pub fn setup_reps(cfg: &RunConfig, full: usize) -> usize {
    if cfg.scale == crate::Scale::Full && !cfg.trace {
        full
    } else {
        1
    }
}

/// Round `r`: pass `r` of every cell. Returns the round's queries per
/// second of call time.
fn round(cells: &[Cell<'_>], r: usize, obs: &mut Observed, tracer: &mut Tracer) -> f64 {
    let (q0, ns0) = (obs.queries, obs.call_ns);
    for cell in cells {
        obs.pass(cell, r, tracer);
    }
    (obs.queries - q0) as f64 / ((obs.call_ns - ns0) as f64 / 1e9).max(1e-9)
}

/// The untraced timed phase, split into one slice after each set-up so it
/// samples the whole run rather than one stretch of it. Each slice runs
/// whole rounds for its share of `--seconds`; the last one also runs until
/// the run holds [`crate::MIN_SAMPLES`] latencies. The reported qps is the
/// median over slices. When every slice holds at least
/// [`crate::MIN_SAMPLES`] latencies — so each slice's p99 has at least ten
/// samples beyond it — the reported percentiles are medians of the
/// slices' percentiles; otherwise they pool every slice's latencies.
#[derive(Debug, Default)]
pub struct Slices {
    qps: Vec<f64>,
    latencies_ns: Vec<Vec<u64>>,
    /// Rounds run so far (successive rounds take the next queries).
    pub rounds: usize,
}

impl Slices {
    /// Records one slice: its queries per second and its latencies.
    pub fn push(&mut self, qps: f64, latencies_ns: &[u64]) {
        self.qps.push(qps);
        self.latencies_ns.push(latencies_ns.to_vec());
    }

    /// Whether slice `rep` of `reps`, started at `start` with `samples`
    /// latencies so far in the run, is done.
    pub fn done(
        &self,
        start: Instant,
        seconds: f64,
        rep: usize,
        reps: usize,
        samples: usize,
    ) -> bool {
        start.elapsed().as_secs_f64() >= seconds / reps as f64
            && (rep + 1 < reps || samples >= crate::MIN_SAMPLES)
    }

    /// Runs slice `rep` of `reps` over `cells`.
    pub fn run_cells(
        &mut self,
        cells: &[Cell<'_>],
        seconds: f64,
        rep: usize,
        reps: usize,
        obs: &mut Observed,
    ) {
        let mut tracer = Tracer::new(false);
        let (l0, q0, ns0) = (obs.latencies_ns.len(), obs.queries, obs.call_ns);
        let start = Instant::now();
        loop {
            round(cells, self.rounds, obs, &mut tracer);
            self.rounds += 1;
            if self.done(start, seconds, rep, reps, obs.latencies_ns.len()) {
                break;
            }
        }
        let qps = (obs.queries - q0) as f64 / ((obs.call_ns - ns0) as f64 / 1e9);
        self.push(qps, &obs.latencies_ns[l0..]);
    }

    /// Latency samples over all slices.
    pub fn samples(&self) -> usize {
        self.latencies_ns.iter().map(Vec::len).sum()
    }

    /// p50 and p99 in ms (see the type's docs).
    fn percentiles(&self) -> (f64, f64) {
        if self
            .latencies_ns
            .iter()
            .all(|l| l.len() >= crate::MIN_SAMPLES)
        {
            let per_slice: Vec<(f64, f64)> =
                self.latencies_ns.iter().map(|l| latency_ms(l)).collect();
            let p50: Vec<f64> = per_slice.iter().map(|p| p.0).collect();
            let p99: Vec<f64> = per_slice.iter().map(|p| p.1).collect();
            (median(&p50), median(&p99))
        } else {
            latency_ms(&self.latencies_ns.concat())
        }
    }

    /// The end-to-end metrics of the run.
    pub fn metrics(&self, acct: &Accounting, facts: SetupFacts) -> BTreeMap<String, f64> {
        eprintln!(
            "slices: {} ({} rounds, {} latency samples), qps per slice {:.1?}",
            self.qps.len(),
            self.rounds,
            self.samples(),
            self.qps
        );
        let (p50, p99) = self.percentiles();
        e2e(median(&self.qps), p50, p99, acct, facts)
    }
}

/// The traced pass over `cells` and the tracing-overhead phase.
pub fn traced_cells(
    cfg: &RunConfig,
    cells: &[Cell<'_>],
    obs: &mut Observed,
) -> BTreeMap<String, f64> {
    let mut tracer = Tracer::new(true);
    round(cells, 0, obs, &mut tracer);
    let mut metrics = obs.layer_metrics(&tracer);
    write_spans(cfg, &tracer);
    if cfg.seconds > 0.0 {
        // Each untraced/traced pair answers the same pass.
        let mut calls = 0;
        let overhead = overhead(cfg.seconds, |traced| {
            let mut t = Tracer::new(traced);
            calls += 1;
            round(cells, 1 + (calls - 1) / 2, obs, &mut t)
        });
        metrics.insert("obs.trace_overhead_frac".into(), overhead);
    }
    metrics
}

/// A run's outcome from its accounting, metrics and (traced) counters.
pub fn outcome(
    obs: &Observed,
    metrics: BTreeMap<String, f64>,
    digest: u64,
    samples: usize,
    traced: bool,
) -> Outcome {
    let total = obs.acct.total();
    Outcome {
        metrics,
        attempted: total.attempted,
        failed: total.failed,
        violations: obs.acct.violation_lines(),
        counters: traced.then(|| obs.counters()),
        input_digest: digest,
        samples,
    }
}

/// The end-to-end metric map.
pub fn e2e(
    qps: f64,
    p50: f64,
    p99: f64,
    acct: &Accounting,
    facts: SetupFacts,
) -> BTreeMap<String, f64> {
    [
        ("qps", qps),
        ("latency_p50_ms", p50),
        ("latency_p99_ms", p99),
        ("map", acct.map()),
        ("ok_frac", 1.0 - acct.failed_frac()),
        ("setup_s", facts.setup_s),
        ("peak_mem_mb", peak_mem_mb()),
        ("index_mb", facts.index_mb),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Tracing overhead: untraced and traced rounds alternate for `seconds`;
/// the result is the untraced median qps over the traced one, minus 1.
pub fn overhead(seconds: f64, mut round: impl FnMut(bool) -> f64) -> f64 {
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        plain.push(round(false));
        traced.push(round(true));
    }
    median(&plain) / median(&traced) - 1.0
}

/// Writes the traced pass's spans next to the run's other outputs.
pub fn write_spans(cfg: &RunConfig, tracer: &Tracer) {
    if cfg.scale != crate::Scale::Full {
        return;
    }
    let dir = std::path::Path::new(".perfbench_out");
    let name = cfg
        .workdir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("spans-{name}.csv"));
        if let Err(e) = tracer.write_csv(&path) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            eprintln!("spans: {} written to {}", tracer.len(), path.display());
        }
    }
}
