//! Running cells of in-process queries and accumulating what they show.
//!
//! A cell is one (dataset, index, mode) with a list of queries. Pass `r`
//! answers the `per_pass` queries that follow those of pass `r - 1`
//! (wrapping around the list), either one `search` call per query or
//! fixed-size `search_batch` calls, checks each answer, and adds
//! latencies, cost counters and guarantee accounting to an [`Observed`].
//! Pass 0 is the same for every run of a seed.

use std::collections::BTreeMap;

use hydra::core::StoreCounters;
use hydra::{AnnIndex, Dataset, QueryStats, SearchParams, SearchResult};

use crate::methods::Method;
use crate::trace::Tracer;
use crate::truth::{check, guarantee, Accounting, Exact};
use crate::Counters;

/// One cell.
pub struct Cell<'a> {
    /// `workload/dataset/index/mode`.
    pub name: String,
    /// The method behind `index`.
    pub method: Method,
    /// The index.
    pub index: &'a dyn AnnIndex,
    /// Search settings.
    pub params: SearchParams,
    /// The data the index holds (for the checks).
    pub data: &'a Dataset,
    /// How many leading series of `data` the index holds.
    pub n: usize,
    /// Queries with their exact answers, in the order passes take them.
    pub queries: Vec<(&'a [f32], &'a Exact)>,
    /// Queries answered per pass.
    pub per_pass: usize,
    /// 1: one `search` per query; more: `search_batch` of this size.
    pub batch: usize,
}

/// Summed `QueryStats` of one method.
#[derive(Debug, Clone, Copy, Default)]
pub struct MethodSums {
    /// Queries answered.
    pub queries: u64,
    /// Σ k over answered queries.
    pub k: u64,
    /// Σ `QueryStats` counters, in `QueryStats::counters()` order.
    pub stats: [u64; 8],
}

/// Everything passes of cells showed.
#[derive(Debug, Default)]
pub struct Observed {
    /// One latency per query, ns (a batched query gets its batch's time).
    pub latencies_ns: Vec<u64>,
    /// Queries answered.
    pub queries: u64,
    /// Time spent inside the calls that carried them, ns.
    pub call_ns: u64,
    /// Guarantee and failure accounting.
    pub acct: Accounting,
    /// Per method.
    pub methods: BTreeMap<Method, MethodSums>,
    /// Σ `StoreCounters` deltas across cells.
    pub store: StoreCounters,
}

fn delta(after: StoreCounters, before: StoreCounters) -> StoreCounters {
    StoreCounters {
        random_ios: after.random_ios - before.random_ios,
        sequential_ios: after.sequential_ios - before.sequential_ios,
        bytes_read: after.bytes_read - before.bytes_read,
        pool_hits: after.pool_hits - before.pool_hits,
        pool_misses: after.pool_misses - before.pool_misses,
        pool_evictions: after.pool_evictions - before.pool_evictions,
        compressed_bytes_read: after.compressed_bytes_read - before.compressed_bytes_read,
    }
}

impl Observed {
    /// Answers the queries of pass `round` of `cell`.
    pub fn pass(&mut self, cell: &Cell<'_>, round: usize, tracer: &mut Tracer) {
        let label = tracer.label(cell.method.key());
        let cell_label = tracer.label(&cell.name);
        let bound = guarantee(&cell.index.capabilities(), &cell.params);
        let before = cell.index.store_counters().unwrap_or_default();
        tracer.open(cell_label);
        let len = cell.queries.len();
        let queries: Vec<(&[f32], &Exact)> = (0..cell.per_pass)
            .map(|i| cell.queries[(round * cell.per_pass + i) % len])
            .collect();
        for chunk in queries.chunks(cell.batch.max(1)) {
            let qs: Vec<&[f32]> = chunk.iter().map(|(q, _)| *q).collect();
            let (results, took) = if cell.batch <= 1 {
                tracer.time("index", label, 0, 1, || {
                    vec![cell.index.search(qs[0], &cell.params)]
                })
            } else {
                tracer.time("index", label, 0, qs.len() as u64, || {
                    cell.index.search_batch(&qs, &cell.params)
                })
            };
            let ns = took.as_nanos() as u64;
            self.call_ns += ns;
            for ((query, truth), result) in chunk.iter().zip(&results) {
                self.latencies_ns.push(ns);
                self.queries += 1;
                self.observe(cell, query, truth, result, bound);
            }
        }
        tracer.close();
        let after = cell.index.store_counters().unwrap_or_default();
        self.store.merge(&delta(after, before));
    }

    fn observe(
        &mut self,
        cell: &Cell<'_>,
        query: &[f32],
        truth: &Exact,
        result: &hydra::Result<SearchResult>,
        bound: crate::truth::Guarantee,
    ) {
        let k = cell.params.k;
        let answer = result
            .as_ref()
            .map(|r| r.neighbors.as_slice())
            .map_err(|_| ());
        let verdict = check(answer, k, cell.data, cell.n, query, truth, bound);
        self.acct.record(&cell.name, verdict);
        let sums = self.methods.entry(cell.method).or_default();
        sums.queries += 1;
        sums.k += k as u64;
        if let Ok(r) = result {
            add_stats(&mut sums.stats, &r.stats);
        }
    }

    /// The deterministic counters of this pass.
    pub fn counters(&self) -> Counters {
        let query_stats = self
            .methods
            .iter()
            .map(|(m, s)| {
                let mut row = [0u64; 9];
                row[0] = s.queries;
                row[1..].copy_from_slice(&s.stats);
                (m.key().to_string(), row)
            })
            .collect();
        let mut store = [0u64; 7];
        for (slot, (_, v)) in store.iter_mut().zip(self.store.counters()) {
            *slot = v;
        }
        Counters {
            query_stats,
            store,
            map: self.acct.map(),
            failed_frac: self.acct.failed_frac(),
        }
    }

    /// Per-layer metrics derivable from this pass's counters and spans:
    /// kernel/summary work per query, storage counters per query, and the
    /// per-method index metrics of the methods it ran.
    pub fn layer_metrics(&self, tracer: &Tracer) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        let q = self.queries.max(1) as f64;
        let total = self.methods.values().fold([0u64; 8], |mut acc, s| {
            for (a, b) in acc.iter_mut().zip(s.stats) {
                *a += b;
            }
            acc
        });
        m.insert("core.dist_per_query".into(), total[0] as f64 / q);
        m.insert("summarize.lb_per_query".into(), total[1] as f64 / q);
        let s = &self.store;
        let attempts = s.pool_hits + s.pool_misses;
        m.insert(
            "storage.pool_hit_ratio".into(),
            if attempts == 0 {
                1.0
            } else {
                s.pool_hits as f64 / attempts as f64
            },
        );
        m.insert("storage.misses_per_query".into(), s.pool_misses as f64 / q);
        m.insert(
            "storage.evictions_per_query".into(),
            s.pool_evictions as f64 / q,
        );
        m.insert("storage.bytes_per_query".into(), s.bytes_read as f64 / q);
        m.insert(
            "storage.coded_bytes_per_query".into(),
            s.compressed_bytes_read as f64 / q,
        );
        let spans = tracer.aggregate();
        for (method, sums) in &self.methods {
            let key = method.key();
            let mq = sums.queries.max(1) as f64;
            if let Some(agg) = spans.get(&("index", key.to_string())) {
                m.insert(
                    format!("index.{key}.search_self_us"),
                    agg.self_ns as f64 / agg.items.max(1) as f64 / 1e3,
                );
            }
            m.insert(
                format!("index.{key}.leaves_per_query"),
                sums.stats[2] as f64 / mq,
            );
            m.insert(
                format!("index.{key}.scanned_per_query"),
                sums.stats[4] as f64 / mq,
            );
            m.insert(
                format!("index.{key}.refine_yield"),
                sums.k as f64 / sums.stats[0].max(1) as f64,
            );
        }
        m
    }
}

/// Adds `stats` into a `QueryStats::counters()`-ordered array.
pub fn add_stats(into: &mut [u64; 8], stats: &QueryStats) {
    for (slot, (_, v)) in into.iter_mut().zip(stats.counters()) {
        *slot += v;
    }
}

/// p50 and p99 in ms of `latencies_ns`.
pub fn latency_ms(latencies_ns: &[u64]) -> (f64, f64) {
    let mut v = latencies_ns.to_vec();
    v.sort_unstable();
    (
        crate::percentile(&v, 50.0) / 1e6,
        crate::percentile(&v, 99.0) / 1e6,
    )
}
