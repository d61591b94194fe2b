//! `mem-zoo`: all eight methods built resident over `rand256` (8000×256
//! random walks) and `deep-like` (8000×96 embeddings), each queried one
//! `search` at a time (k = 100) under every mode it advertises.
//!
//! CPU-bound: kernels, summaries and traversal do almost all the work; the
//! storage layer is all pool hits; serving and persistence are absent.

use hydra::{AnnIndex, SearchMode, SearchParams};

use std::collections::BTreeMap;
use std::time::Instant;

use super::{inputs, outcome, setup_reps, traced_cells, Input, SetupFacts, Slices};
use crate::cells::{Cell, Observed};
use crate::gen::{self, Family};
use crate::methods::{self, Method};
use crate::truth::mode_label;
use crate::{median, Outcome, RunConfig, Scale, K};

/// Queries per (index, mode) cell, fixed so that no cell takes most of a
/// round: exact and ε cells scan far more than δ-ε and ng ones.
fn cell_queries(method: Method, params: &SearchParams) -> usize {
    match (method, params.mode) {
        (Method::Qalsh, _) => 6,
        (_, SearchMode::Exact) | (_, SearchMode::Epsilon { .. }) => 8,
        (_, SearchMode::DeltaEpsilon { .. }) => 12,
        (_, SearchMode::Ng { .. }) => 24,
    }
}

/// Set-up repetitions of an untraced run: one zoo build takes ~15 s on a
/// 2-core box, so mem-zoo sets up twice where the others set up three
/// times, to keep a run near half a minute.
const SETUP_REPS: usize = 2;

/// Runs the workload.
///
/// # Errors
/// A build failure.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let (n, nq) = match cfg.scale {
        Scale::Full => (8000, 100),
        Scale::Probe => (1000, 12),
    };
    let inputs = inputs(
        cfg.seed,
        n,
        nq,
        &[
            ("rand256", Family::RandomWalk, 256),
            ("deep-like", Family::DeepLike, 96),
        ],
    );
    let digest = inputs
        .iter()
        .fold(0, |h, i| h ^ gen::digest(&i.data) ^ gen::digest(&i.queries));
    let configs = methods::configs(true, None, hydra::PageCodec::F32);
    let reps = setup_reps(cfg, SETUP_REPS);
    let mut setup_s = Vec::new();
    let mut slices = Slices::default();
    let mut obs = Observed::default();
    let mut metrics = BTreeMap::new();
    let mut index_mb = 0.0;
    for rep in 0..reps {
        let t = Instant::now();
        let zoo = inputs
            .iter()
            .enumerate()
            .flat_map(|(d, input)| methods::ALL.iter().map(move |&m| (d, m, &input.data)))
            .map(|(d, m, data)| methods::build(m, data, &configs, None).map(|ix| (d, m, ix)))
            .collect::<Result<Vec<_>, String>>()?;
        setup_s.push(t.elapsed().as_secs_f64());
        let cells = cells(&zoo, &inputs, n);
        if cfg.trace {
            metrics = traced_cells(cfg, &cells, &mut obs);
        } else {
            slices.run_cells(&cells, cfg.seconds, rep, reps, &mut obs);
        }
        index_mb = zoo
            .iter()
            .map(|(_, _, ix)| ix.memory_footprint())
            .sum::<usize>() as f64
            / 1048576.0;
    }
    if !cfg.trace {
        metrics = slices.metrics(
            &obs.acct,
            SetupFacts {
                setup_s: median(&setup_s),
                index_mb,
            },
        );
    }
    Ok(outcome(&obs, metrics, digest, slices.samples(), cfg.trace))
}

/// One cell per (index, advertised mode); successive passes of a cell take
/// successive queries of its dataset's pool.
fn cells<'a>(
    zoo: &'a [(usize, Method, Box<dyn AnnIndex>)],
    inputs: &'a [Input],
    n: usize,
) -> Vec<Cell<'a>> {
    let mut cells = Vec::new();
    let mut offset = 0usize;
    for (d, method, index) in zoo {
        let input = &inputs[*d];
        let nq = input.queries.len();
        for params in methods::modes(*method, &index.capabilities(), K) {
            let count = cell_queries(*method, &params).min(nq);
            let queries = (0..nq)
                .map(|i| {
                    let q = (offset + i) % nq;
                    (input.queries.series(q), &input.truth[q])
                })
                .collect();
            offset += count;
            cells.push(Cell {
                name: format!(
                    "mem-zoo/{}/{}/{}",
                    input.name,
                    index.name(),
                    mode_label(&params)
                ),
                method: *method,
                index: index.as_ref(),
                params,
                data: &input.data,
                n,
                queries,
                per_pass: count,
                batch: 1,
            });
        }
    }
    cells
}
