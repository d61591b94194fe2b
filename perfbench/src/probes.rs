//! The metric tables, and the layer probes every traced run makes:
//! distance kernels (`hydra-core`), summaries (`hydra-summarize`) and page
//! transfer through `SeriesStore` (`hydra-storage`).
//!
//! Each probe times many calls and reports the median of several
//! repetitions, in ns per call. Probe inputs are generated from the run's
//! seed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use hydra::core::{
    euclidean, euclidean_early_abandon_f16, euclidean_early_abandon_u8, f16_bits_from_f32,
};
use hydra::persist::backing::attach_dataset_order_store;
use hydra::storage::SeriesStore;
use hydra::summarize::sax::{normal_breakpoints, sax_word};
use hydra::summarize::{paa, DftSummarizer, ProductQuantizer, SaxParams};
use hydra::{FileIoMode, PageCodec, QueryStats, StorageConfig, StoreBacking};

use crate::gen::{self, Family};
use crate::median;

/// End-to-end metrics and units (reported with tracing off).
pub const END_TO_END: &[(&str, &str)] = &[
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("map", "ratio"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_mem_mb", "MiB"),
    ("index_mb", "MiB"),
];

/// Per-layer metrics and units (reported by the traced run).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.euclid_ns.d96", "ns"),
    ("core.euclid_ns.d256", "ns"),
    ("core.euclid_ea_u8_ns.d256", "ns"),
    ("core.euclid_ea_f16_ns.d256", "ns"),
    ("core.dist_per_query", "count"),
    ("summarize.paa_ns.d256", "ns"),
    ("summarize.sax_word_ns.d256", "ns"),
    ("summarize.dft_ns.d256", "ns"),
    ("summarize.pq_tables_ns.d96", "ns"),
    ("summarize.lb_per_query", "count"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.misses_per_query", "count"),
    ("storage.evictions_per_query", "count"),
    ("storage.bytes_per_query", "bytes"),
    ("storage.coded_bytes_per_query", "bytes"),
    ("storage.read_ns.resident.f32.hit", "ns"),
    ("storage.read_ns.resident.f32.miss", "ns"),
    ("storage.read_ns.resident.u8.hit", "ns"),
    ("storage.read_ns.resident.u8.miss", "ns"),
    ("storage.read_ns.resident.f16.hit", "ns"),
    ("storage.read_ns.resident.f16.miss", "ns"),
    ("storage.read_ns.pread.f32.hit", "ns"),
    ("storage.read_ns.pread.f32.miss", "ns"),
    ("storage.read_ns.pread.u8.hit", "ns"),
    ("storage.read_ns.pread.u8.miss", "ns"),
    ("storage.read_ns.pread.f16.hit", "ns"),
    ("storage.read_ns.pread.f16.miss", "ns"),
    ("storage.read_ns.mmap.f32.hit", "ns"),
    ("storage.read_ns.mmap.f32.miss", "ns"),
    ("storage.read_ns.mmap.u8.hit", "ns"),
    ("storage.read_ns.mmap.u8.miss", "ns"),
    ("storage.read_ns.mmap.f16.hit", "ns"),
    ("storage.read_ns.mmap.f16.miss", "ns"),
    ("index.dstree.search_self_us", "us"),
    ("index.dstree.leaves_per_query", "count"),
    ("index.dstree.scanned_per_query", "count"),
    ("index.dstree.refine_yield", "ratio"),
    ("index.isax2.search_self_us", "us"),
    ("index.isax2.leaves_per_query", "count"),
    ("index.isax2.scanned_per_query", "count"),
    ("index.isax2.refine_yield", "ratio"),
    ("index.vafile.search_self_us", "us"),
    ("index.vafile.leaves_per_query", "count"),
    ("index.vafile.scanned_per_query", "count"),
    ("index.vafile.refine_yield", "ratio"),
    ("index.srs.search_self_us", "us"),
    ("index.srs.leaves_per_query", "count"),
    ("index.srs.scanned_per_query", "count"),
    ("index.srs.refine_yield", "ratio"),
    ("index.qalsh.search_self_us", "us"),
    ("index.qalsh.leaves_per_query", "count"),
    ("index.qalsh.scanned_per_query", "count"),
    ("index.qalsh.refine_yield", "ratio"),
    ("index.imi.search_self_us", "us"),
    ("index.imi.leaves_per_query", "count"),
    ("index.imi.scanned_per_query", "count"),
    ("index.imi.refine_yield", "ratio"),
    ("index.hnsw.search_self_us", "us"),
    ("index.hnsw.leaves_per_query", "count"),
    ("index.hnsw.scanned_per_query", "count"),
    ("index.hnsw.refine_yield", "ratio"),
    ("index.flann.search_self_us", "us"),
    ("index.flann.leaves_per_query", "count"),
    ("index.flann.scanned_per_query", "count"),
    ("index.flann.refine_yield", "ratio"),
    ("eval.batch_gain.dstree", "ratio"),
    ("eval.batch_gain.isax2", "ratio"),
    ("eval.batch_gain.vafile", "ratio"),
    ("eval.batch_gain.srs", "ratio"),
    ("eval.parallel_speedup_2t", "ratio"),
    ("persist.load_s", "s"),
    ("persist.attach_s", "s"),
    ("serve.queue_wait_us", "us"),
    ("serve.search_us", "us"),
    ("serve.write_us", "us"),
    ("serve.batch_occupancy", "count"),
    ("serve.batch_calls_per_query", "ratio"),
    ("serve.wire_us", "us"),
    ("ingest.insert_us_per_series.dstree", "us"),
    ("ingest.insert_us_per_series.isax2", "us"),
    ("ingest.insert_us_per_series.vafile", "us"),
    ("ingest.insert_us_per_series.srs", "us"),
    ("ingest.insert_us_per_series.hnsw", "us"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// Repetitions of every probe; the median is reported.
const REPS: usize = 5;

/// ns per call of `f`, median over [`REPS`] repetitions of `calls` calls.
fn time_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..calls {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&reps)
}

/// u8 codes of `v` with its min and scale (the page codec's scheme).
fn u8_codes(v: &[f32]) -> (Vec<u8>, f32, f32) {
    let (lo, hi) = v
        .iter()
        .fold((f32::MAX, f32::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let scale = ((hi - lo) / 255.0).max(f32::MIN_POSITIVE);
    let codes = v
        .iter()
        .map(|&x| ((x - lo) / scale).round().clamp(0.0, 255.0) as u8)
        .collect();
    (codes, lo, scale)
}

/// Runs every layer probe.
///
/// # Errors
/// A message when the page-transfer probe cannot create its files.
pub fn run_all(seed: u64, dir: &Path) -> Result<BTreeMap<String, f64>, String> {
    let mut m = kernels(seed);
    m.extend(page_transfer(seed, dir)?);
    Ok(m)
}

fn kernels(seed: u64) -> BTreeMap<String, f64> {
    const CALLS: usize = 20_000;
    let walks = gen::generate(Family::RandomWalk, 64, 256, seed ^ 0xC0DE);
    let deep = gen::generate(Family::DeepLike, 2048, 96, seed ^ 0xC0DF);
    let w = |i: usize| walks.series(i % 64);
    let d = |i: usize| deep.series(i % 64);
    let u8s: Vec<(Vec<u8>, f32, f32)> = walks.iter().map(u8_codes).collect();
    let f16s: Vec<Vec<u16>> = walks
        .iter()
        .map(|s| s.iter().map(|&x| f16_bits_from_f32(x)).collect())
        .collect();
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put(
        "core.euclid_ns.d96",
        time_ns(CALLS, |i| {
            black_box(euclidean(black_box(d(i)), black_box(d(i * 7 + 1))));
        }),
    );
    put(
        "core.euclid_ns.d256",
        time_ns(CALLS, |i| {
            black_box(euclidean(black_box(w(i)), black_box(w(i * 7 + 1))));
        }),
    );
    put(
        "core.euclid_ea_u8_ns.d256",
        time_ns(CALLS, |i| {
            let (codes, min, scale) = &u8s[(i * 7 + 1) % 64];
            black_box(euclidean_early_abandon_u8(
                black_box(w(i)),
                codes,
                *min,
                *scale,
                f32::INFINITY,
            ));
        }),
    );
    put(
        "core.euclid_ea_f16_ns.d256",
        time_ns(CALLS, |i| {
            black_box(euclidean_early_abandon_f16(
                black_box(w(i)),
                &f16s[(i * 7 + 1) % 64],
                f32::INFINITY,
            ));
        }),
    );
    let sax = SaxParams::default();
    let breakpoints = normal_breakpoints(sax.max_cardinality());
    let dft = DftSummarizer::new(256, 8);
    put(
        "summarize.paa_ns.d256",
        time_ns(CALLS, |i| {
            black_box(paa(black_box(w(i)), 16));
        }),
    );
    put(
        "summarize.sax_word_ns.d256",
        time_ns(CALLS, |i| {
            black_box(sax_word(black_box(w(i)), &sax, &breakpoints));
        }),
    );
    put(
        "summarize.dft_ns.d256",
        time_ns(CALLS / 4, |i| {
            black_box(dft.transform(black_box(w(i))));
        }),
    );
    let training: Vec<&[f32]> = deep.iter().collect();
    let pq = ProductQuantizer::train(&training, 8, 64, 4, seed);
    put(
        "summarize.pq_tables_ns.d96",
        time_ns(CALLS / 10, |i| {
            black_box(pq.distance_table(black_box(d(i))));
        }),
    );
    m
}

/// Times `SeriesStore::read` (f32 pages) and the coded-page fetch of
/// `SeriesStore::refine` under a zero bound (u8/f16 pages: the coded page
/// transfer and one pruned probe, no exact read), on pool hits and on
/// misses, for a resident store and file-backed `pread`/`mmap` stores.
fn page_transfer(seed: u64, dir: &Path) -> Result<BTreeMap<String, f64>, String> {
    const RECORDS: usize = 4096;
    const POOL_PAGES: usize = 8;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let data = gen::generate(Family::RandomWalk, RECORDS, 256, seed ^ 0x9A6E);
    let snap = dir.join("probe.data.snap");
    hydra::persist::dataset::save_dataset(&data, &snap)
        .map_err(|e| format!("cannot save the probe dataset: {e}"))?;
    let per_page = StorageConfig::on_disk().page_bytes / (256 * 4);
    let pages = RECORDS / per_page;
    let query = data.series(1).to_vec();
    let mut m = BTreeMap::new();
    for (backing_name, io) in [
        ("resident", None),
        ("pread", Some(FileIoMode::Pread)),
        ("mmap", Some(FileIoMode::Mmap)),
    ] {
        for codec in [PageCodec::F32, PageCodec::U8, PageCodec::F16] {
            let storage = StorageConfig::on_disk()
                .with_pool_pages(POOL_PAGES)
                .with_page_codec(codec)
                .with_io_mode(io.unwrap_or_default());
            let backing = match io {
                None => StoreBacking::Resident,
                Some(_) => StoreBacking::FileBacked {
                    dataset_snapshot: Some(&snap),
                },
            };
            let store =
                attach_dataset_order_store(&dir.join("probe.snap"), &data, storage, backing)
                    .map_err(|e| format!("cannot attach the probe store: {e}"))?;
            let hit = read_ns(&store, &query, codec, 20_000, |i| i % per_page);
            let miss = read_ns(&store, &query, codec, 2_000, |i| {
                (i % pages) * per_page + i % per_page
            });
            let name = format!("storage.read_ns.{backing_name}.{}", codec.name());
            m.insert(format!("{name}.hit"), hit);
            m.insert(format!("{name}.miss"), miss);
        }
    }
    Ok(m)
}

fn read_ns(
    store: &SeriesStore,
    query: &[f32],
    codec: PageCodec,
    calls: usize,
    record: impl Fn(usize) -> usize,
) -> f64 {
    let mut stats = QueryStats::new();
    let mut read = |i: usize| {
        let r = record(i);
        if codec == PageCodec::F32 {
            black_box(store.read(r, &mut stats)[0]);
        } else {
            black_box(store.refine(r, query, 0.0, &mut stats));
        }
    };
    read(0);
    time_ns(calls, &mut read)
}
