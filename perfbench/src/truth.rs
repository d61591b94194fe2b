//! Exact answers computed by the benchmark itself, and the checks every
//! answer of the program goes through.
//!
//! An answer *fails as an operation* when the call returned an error, the
//! wrong number of neighbours, an out-of-range or repeated id, or
//! neighbours out of distance order. An answer *breaches its guarantee*
//! when the index advertised the requested mode in `capabilities()` and
//! the mode is deterministic — exact, or within (1+ε) under ε — and a
//! returned neighbour's true distance exceeds the bound. δ-ε and ng
//! answers carry no deterministic bound; their quality shows in MAP.

use std::collections::{BTreeMap, HashSet};

use hydra::{Capabilities, Dataset, Neighbor, SearchMode, SearchParams};

/// Relative slack on distance comparisons: the program accumulates in f32,
/// the benchmark in f64.
const REL_TOL: f64 = 1e-4;
const ABS_TOL: f64 = 1e-4;

/// The exact k nearest neighbours of one query.
#[derive(Debug, Clone)]
pub struct Exact {
    /// Ids, nearest first.
    pub ids: Vec<usize>,
    /// True distances, ascending.
    pub dists: Vec<f64>,
}

/// Euclidean distance accumulated in f64.
pub fn dist(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// Exact k-NN of `query` over the first `n` series of `data` by linear scan.
pub fn exact_knn(data: &Dataset, n: usize, query: &[f32], k: usize) -> Exact {
    let mut all: Vec<(f64, usize)> = (0..n).map(|i| (dist(query, data.series(i)), i)).collect();
    let k = k.min(n);
    all.select_nth_unstable_by(k.saturating_sub(1), |a, b| {
        a.partial_cmp(b).expect("finite")
    });
    all.truncate(k);
    all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Exact {
        ids: all.iter().map(|p| p.1).collect(),
        dists: all.iter().map(|p| p.0).collect(),
    }
}

/// Exact answers for many `(prefix length, query)` pairs, scanned on two
/// threads (ground truth is not part of any timed phase).
pub fn exact_batch(data: &Dataset, jobs: &[(usize, &[f32])], k: usize) -> Vec<Exact> {
    let half = jobs.len().div_ceil(2).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .chunks(half)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(n, q)| exact_knn(data, n, q, k))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("ground-truth thread panicked"))
            .collect()
    })
}

/// The deterministic bound an index owes a query under `params`, if any.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Guarantee {
    /// No deterministic bound (ng, δ-ε, or a mode the index does not
    /// advertise — the call then has to fail with an error).
    None,
    /// Every returned distance within `(1 + epsilon)` of the true one of
    /// the same rank; `epsilon = 0` is exact.
    Within(f64),
}

/// What `caps` promises for `params`.
pub fn guarantee(caps: &Capabilities, params: &SearchParams) -> Guarantee {
    if !caps.supports(&params.mode) {
        return Guarantee::None;
    }
    match params.mode {
        SearchMode::Exact => Guarantee::Within(0.0),
        SearchMode::Epsilon { epsilon } => Guarantee::Within(f64::from(epsilon)),
        _ => Guarantee::None,
    }
}

/// The outcome of checking one answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// A well-formed answer within its guarantee, with its average
    /// precision.
    Ok(f64),
    /// A well-formed answer that breaks its deterministic guarantee; the
    /// worst ratio of returned to true distance, and its average
    /// precision.
    Breach(f64, f64),
    /// The operation failed.
    Failed,
}

/// The paper's average precision of one answer against the exact one.
pub fn average_precision(found: &[Neighbor], truth: &Exact) -> f64 {
    let k = truth.ids.len();
    if k == 0 {
        return 1.0;
    }
    let ids: HashSet<usize> = truth.ids.iter().copied().collect();
    let mut hits = 0usize;
    let mut ap = 0.0;
    for (r, n) in found.iter().take(k).enumerate() {
        if ids.contains(&n.index) {
            hits += 1;
            ap += hits as f64 / (r + 1) as f64;
        }
    }
    ap / k as f64
}

/// Checks one answer for `query` over the first `n` series of `data`.
pub fn check(
    answer: Result<&[Neighbor], ()>,
    k: usize,
    data: &Dataset,
    n: usize,
    query: &[f32],
    truth: &Exact,
    bound: Guarantee,
) -> Verdict {
    let Ok(found) = answer else {
        return Verdict::Failed;
    };
    if found.len() != k.min(n) {
        return Verdict::Failed;
    }
    let mut seen = HashSet::with_capacity(found.len());
    if found
        .iter()
        .any(|nb| nb.index >= n || !seen.insert(nb.index) || !nb.distance.is_finite())
        || found.windows(2).any(|w| w[0].distance > w[1].distance)
    {
        return Verdict::Failed;
    }
    let ap = average_precision(found, truth);
    let Guarantee::Within(eps) = bound else {
        return Verdict::Ok(ap);
    };
    let mut true_dists: Vec<f64> = found
        .iter()
        .map(|nb| dist(query, data.series(nb.index)))
        .collect();
    true_dists.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut worst = 1.0f64;
    let mut breached = false;
    for (got, want) in true_dists.iter().zip(&truth.dists) {
        let limit = want * (1.0 + eps) * (1.0 + REL_TOL) + ABS_TOL;
        if *got > limit {
            breached = true;
        }
        if *want > 0.0 {
            worst = worst.max(got / want);
        }
    }
    if breached {
        Verdict::Breach(worst, ap)
    } else {
        Verdict::Ok(ap)
    }
}

/// Per-cell tallies of one (dataset, index, mode) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Queries attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Well-formed answers that broke their deterministic guarantee.
    pub breaches: u64,
    /// Worst returned/true distance ratio among the breaches.
    pub worst_ratio: f64,
    /// Sum of average precision (failed operations count 0).
    pub ap_sum: f64,
}

/// Guarantee and failure accounting of a whole run. Never aborts: every
/// outcome is counted and the run goes on.
#[derive(Debug, Clone, Default)]
pub struct Accounting {
    /// Tallies per cell name (`workload/dataset/index/mode`).
    pub cells: BTreeMap<String, Tally>,
}

impl Accounting {
    /// Records one verdict against `cell`.
    pub fn record(&mut self, cell: &str, verdict: Verdict) {
        let t = self.cells.entry(cell.to_string()).or_default();
        t.attempted += 1;
        match verdict {
            Verdict::Ok(ap) => t.ap_sum += ap,
            Verdict::Breach(ratio, ap) => {
                t.breaches += 1;
                t.worst_ratio = t.worst_ratio.max(ratio);
                t.ap_sum += ap;
            }
            Verdict::Failed => t.failed += 1,
        }
    }

    /// Sum over all cells.
    pub fn total(&self) -> Tally {
        let mut all = Tally::default();
        for t in self.cells.values() {
            all.attempted += t.attempted;
            all.failed += t.failed;
            all.breaches += t.breaches;
            all.worst_ratio = all.worst_ratio.max(t.worst_ratio);
            all.ap_sum += t.ap_sum;
        }
        all
    }

    /// Mean average precision over every attempted query.
    pub fn map(&self) -> f64 {
        let t = self.total();
        t.ap_sum / t.attempted.max(1) as f64
    }

    /// (failed operations + guarantee breaches) / attempted.
    pub fn failed_frac(&self) -> f64 {
        let t = self.total();
        (t.failed + t.breaches) as f64 / t.attempted.max(1) as f64
    }

    /// One line per cell with failures or breaches, for the report.
    pub fn violation_lines(&self) -> Vec<String> {
        self.cells
            .iter()
            .filter(|(_, t)| t.failed + t.breaches > 0)
            .map(|(cell, t)| {
                format!(
                    "{cell}: {} failed, {} breached of {} (worst distance ratio {:.3})",
                    t.failed, t.breaches, t.attempted, t.worst_ratio
                )
            })
            .collect()
    }
}

/// A short label for a search mode (`exact`, `eps=1`, `de=0.9/1`, `ng=16`).
pub fn mode_label(params: &SearchParams) -> String {
    match params.mode {
        SearchMode::Exact => "exact".into(),
        SearchMode::Epsilon { epsilon } => format!("eps={epsilon}"),
        SearchMode::DeltaEpsilon { epsilon, delta } => format!("de={delta}/{epsilon}"),
        SearchMode::Ng { nprobe } => format!("ng={nprobe}"),
    }
}
