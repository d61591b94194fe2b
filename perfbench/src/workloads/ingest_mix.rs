//! `ingest-mix`: DSTree, iSAX2+, VA+file, SRS and HNSW start from a
//! resident build over the first half of `rand256` (8000×256). The rest
//! arrives through `insert_batch` chunks of 250 series; after each chunk
//! comes a fixed `search_batch` of 8 queries, checked against the exact
//! answer over the prefix present at that moment.
//!
//! Writes beside reads: insert paths, store append and VA+file
//! requantization, which the read-only workloads never touch. Every round
//! starts from the half-built indexes, reloaded from their snapshots.

use std::time::Instant;

use hydra::{AnnIndex, PageCodec, SearchParams};

use std::collections::BTreeMap;

use super::{setup_reps, write_spans, Input, SetupFacts, Slices, SETUP_REPS};
use crate::cells::{Cell, Observed};
use crate::gen::{self, Family};
use crate::methods::{self, Method};
use crate::trace::Tracer;
use crate::truth::{exact_batch, mode_label, Exact};
use crate::{median, Outcome, RunConfig, Scale, K};

/// Series per `insert_batch` call.
pub const CHUNK: usize = 250;
/// Queries per `search_batch` after each chunk.
pub const QUERIES: usize = 8;

/// Each method with the mode its query batches use: the exact and ε = 0
/// cells check deterministic guarantees on a growing collection.
fn plan() -> Vec<(Method, SearchParams)> {
    vec![
        (Method::DsTree, SearchParams::exact(K)),
        (Method::Isax, SearchParams::delta_epsilon(K, 0.9, 1.0)),
        (Method::VaFile, SearchParams::exact(K)),
        (Method::Srs, SearchParams::epsilon(K, 0.0)),
        (Method::Hnsw, SearchParams::ng(K, Method::Hnsw.ng_nprobe())),
    ]
}

/// What one round saw beyond its query cells.
#[derive(Default)]
struct Round {
    insert_failed: u64,
    insert_batches: u64,
    footprint: usize,
}

/// One round: every method reloaded from its half-built snapshot, then
/// chunk by chunk: insert, query.
fn round(
    dir: &std::path::Path,
    input: &Input,
    half: &hydra::Dataset,
    truth: &[Vec<Exact>],
    obs: &mut Observed,
    tracer: &mut Tracer,
) -> Result<Round, String> {
    let registry = methods::registry(true, None, PageCodec::F32);
    let n = input.data.len();
    let mut r = Round::default();
    for (method, params) in plan() {
        let path = dir.join(format!("{}-{}.snap", input.name, method.key()));
        let mut index: Box<dyn AnnIndex> = registry
            .load_any(&path, half)
            .map_err(|e| format!("cannot load {}: {e}", path.display()))?;
        let label = tracer.label(method.key());
        let mut at = half.len();
        let mut checkpoint = 0;
        while at < n {
            let hi = (at + CHUNK).min(n);
            let batch: Vec<&[f32]> = (at..hi).map(|i| input.data.series(i)).collect();
            let (res, _) = tracer.time("ingest", label, 0, batch.len() as u64, || {
                index.insert_batch(&batch)
            });
            r.insert_batches += 1;
            if res.is_err() {
                r.insert_failed += 1;
            }
            at = hi;
            let cell = Cell {
                name: format!(
                    "ingest-mix/{}/{}/{}",
                    input.name,
                    index.name(),
                    mode_label(&params)
                ),
                method,
                index: index.as_ref(),
                params,
                data: &input.data,
                n: at,
                queries: (0..QUERIES)
                    .map(|j| {
                        let q = checkpoint * QUERIES + j;
                        (input.queries.series(q), &truth[checkpoint][j])
                    })
                    .collect(),
                per_pass: QUERIES,
                batch: QUERIES,
            };
            obs.pass(&cell, 0, tracer);
            checkpoint += 1;
        }
        r.footprint += index.memory_footprint();
    }
    Ok(r)
}

/// Runs the workload.
///
/// # Errors
/// A build, save or load failure.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let n = match cfg.scale {
        Scale::Full => 8000,
        Scale::Probe => 1500,
    };
    let checkpoints: Vec<usize> = (n / 2 + CHUNK..n + CHUNK)
        .step_by(CHUNK)
        .map(|c| c.min(n))
        .collect();
    // Each checkpoint has queries of its own; their truth is over the
    // prefix present at that checkpoint.
    let data = gen::generate(Family::RandomWalk, n, 256, cfg.seed);
    let queries = gen::noisy_queries(&data, QUERIES * checkpoints.len(), cfg.seed + 1);
    let input = Input {
        name: "rand256",
        data,
        queries,
        truth: Vec::new(),
    };
    let half = gen::prefix(&input.data, n / 2);
    let jobs: Vec<(usize, &[f32])> = checkpoints
        .iter()
        .enumerate()
        .flat_map(|(c, &at)| (0..QUERIES).map(move |j| (at, c * QUERIES + j)))
        .map(|(at, q)| (at, input.queries.series(q)))
        .collect();
    let truth: Vec<Vec<Exact>> = exact_batch(&input.data, &jobs, K)
        .chunks(QUERIES)
        .map(|c| c.to_vec())
        .collect();
    let digest = gen::digest(&input.data) ^ gen::digest(&input.queries);
    let cfg_build = methods::configs(true, None, PageCodec::F32);
    let reps = setup_reps(cfg, SETUP_REPS);
    let mut setup_s = Vec::new();
    let mut slices = Slices::default();
    let mut obs = Observed::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut out = Outcome {
        input_digest: digest,
        ..Outcome::default()
    };
    for rep in 0..reps {
        let dir = cfg.workdir.join(format!("rep{rep}"));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let t = Instant::now();
        for (method, _) in plan() {
            let path = dir.join(format!("{}-{}.snap", input.name, method.key()));
            methods::build(method, &half, &cfg_build, Some(&path))?;
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if cfg.trace {
            out.metrics = traced(cfg, &dir, &input, &half, &truth, &mut obs, &mut rounds)?;
            out.counters = Some(obs.counters());
            continue;
        }
        let mut tracer = Tracer::new(false);
        let (l0, q0, ns0) = (obs.latencies_ns.len(), obs.queries, obs.call_ns);
        let start = Instant::now();
        loop {
            rounds.push(round(&dir, &input, &half, &truth, &mut obs, &mut tracer)?);
            slices.rounds += 1;
            if slices.done(start, cfg.seconds, rep, reps, obs.latencies_ns.len()) {
                break;
            }
        }
        let qps = (obs.queries - q0) as f64 / ((obs.call_ns - ns0) as f64 / 1e9);
        slices.push(qps, &obs.latencies_ns[l0..]);
    }
    if !cfg.trace {
        let facts = SetupFacts {
            setup_s: median(&setup_s),
            index_mb: rounds[0].footprint as f64 / 1048576.0,
        };
        out.metrics = slices.metrics(&obs.acct, facts);
        out.samples = slices.samples();
    }
    let total = obs.acct.total();
    let batches: u64 = rounds.iter().map(|r| r.insert_batches).sum();
    let insert_failed: u64 = rounds.iter().map(|r| r.insert_failed).sum();
    out.attempted = total.attempted + batches;
    out.failed = total.failed + insert_failed;
    if let Some(ok) = out.metrics.get_mut("ok_frac") {
        *ok = 1.0
            - (total.failed + total.breaches + insert_failed) as f64 / out.attempted.max(1) as f64;
    }
    out.violations = obs.acct.violation_lines();
    if insert_failed > 0 {
        out.violations.push(format!(
            "ingest-mix: {insert_failed} of {batches} insert batches failed"
        ));
    }
    Ok(out)
}

/// The traced run: one traced round (the deterministic pass), the
/// per-method insert cost from its spans, and the tracing overhead.
fn traced(
    cfg: &RunConfig,
    dir: &std::path::Path,
    input: &Input,
    half: &hydra::Dataset,
    truth: &[Vec<Exact>],
    obs: &mut Observed,
    rounds: &mut Vec<Round>,
) -> Result<BTreeMap<String, f64>, String> {
    let mut tracer = Tracer::new(true);
    rounds.push(round(dir, input, half, truth, obs, &mut tracer)?);
    let mut metrics = obs.layer_metrics(&tracer);
    for ((layer, method), agg) in tracer.aggregate() {
        if layer == "ingest" {
            metrics.insert(
                format!("ingest.insert_us_per_series.{method}"),
                agg.self_ns as f64 / agg.items.max(1) as f64 / 1e3,
            );
        }
    }
    write_spans(cfg, &tracer);
    if cfg.seconds > 0.0 {
        let mut failure = None;
        let overhead = super::overhead(cfg.seconds, |traced| {
            let mut t = Tracer::new(traced);
            let (q0, ns0) = (obs.queries, obs.call_ns);
            match round(dir, input, half, truth, obs, &mut t) {
                Ok(r) => rounds.push(r),
                Err(e) => failure = Some(e),
            }
            (obs.queries - q0) as f64 / ((obs.call_ns - ns0).max(1) as f64 / 1e9)
        });
        if let Some(e) = failure {
            return Err(e);
        }
        metrics.insert("obs.trace_overhead_frac".into(), overhead);
    }
    Ok(metrics)
}
