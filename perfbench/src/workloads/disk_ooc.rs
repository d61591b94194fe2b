//! `disk-ooc`: DSTree, iSAX2+, VA+file and SRS over `rand256` (8000×256)
//! and `sift-like` (8000×128), saved, then loaded file-backed (`pread`)
//! twice — once with f32 pages, once with u8 pages — behind a buffer pool
//! of a quarter of each dataset's pages. Queries go through `search_batch`
//! calls of 8 across exact, ε, δ-ε and ng, one batch per cell per round.
//!
//! The working set is larger than the program's own cache, so pool
//! misses, page transfer, decode and the batch pin/prefetch path dominate.

use std::path::Path;
use std::time::Instant;

use hydra::{AnnIndex, Dataset, PageCodec, SearchParams, StorageConfig, StoreBacking};

use std::collections::BTreeMap;

use super::{inputs, outcome, setup_reps, traced_cells, Input, SetupFacts, Slices, SETUP_REPS};
use crate::cells::{Cell, Observed};
use crate::gen::{self, Family};
use crate::methods::{self, Method};
use crate::truth::mode_label;
use crate::{median, Outcome, RunConfig, Scale, K};

/// Queries per `search_batch` call.
pub const BATCH: usize = 8;

const METHODS: [Method; 4] = [Method::DsTree, Method::Isax, Method::VaFile, Method::Srs];
const CODECS: [PageCodec; 2] = [PageCodec::F32, PageCodec::U8];

/// Pages of one dataset under the default 64 KiB page.
fn pages(data: &Dataset) -> usize {
    let per_page = (StorageConfig::on_disk().page_bytes / (data.series_len() * 4)).max(1);
    data.len().div_ceil(per_page)
}

/// The buffer pool of a dataset's indexes: a quarter of its pages.
pub fn pool_pages(data: &Dataset) -> usize {
    (pages(data) / 4).max(1)
}

fn snap(dir: &Path, input: &str, method: Method) -> std::path::PathBuf {
    dir.join(format!("{input}-{}.snap", method.key()))
}

struct Loaded {
    input: usize,
    method: Method,
    codec: PageCodec,
    index: Box<dyn AnnIndex>,
}

/// Builds and saves every index, then loads each file-backed under both
/// codecs. Returns the loaded indexes and the load (attach) seconds.
fn setup(dir: &Path, inputs: &[Input]) -> Result<(Vec<Loaded>, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let build_cfg = methods::configs(false, None, PageCodec::F32);
    for input in inputs {
        let data_snap = dir.join(format!("{}.data.snap", input.name));
        hydra::persist::dataset::save_dataset(&input.data, &data_snap)
            .map_err(|e| format!("cannot save {}: {e}", data_snap.display()))?;
        for method in METHODS {
            methods::build(
                method,
                &input.data,
                &build_cfg,
                Some(&snap(dir, input.name, method)),
            )?;
        }
    }
    let mut loaded = Vec::new();
    let t = Instant::now();
    for (i, input) in inputs.iter().enumerate() {
        let data_snap = dir.join(format!("{}.data.snap", input.name));
        for codec in CODECS {
            let registry = methods::registry(false, Some(pool_pages(&input.data)), codec);
            for method in METHODS {
                let path = snap(dir, input.name, method);
                let index = registry
                    .load_any_backed(
                        &path,
                        &input.data,
                        StoreBacking::FileBacked {
                            dataset_snapshot: Some(&data_snap),
                        },
                    )
                    .map_err(|e| format!("cannot load {}: {e}", path.display()))?;
                loaded.push(Loaded {
                    input: i,
                    method,
                    codec,
                    index,
                });
            }
        }
    }
    Ok((loaded, t.elapsed().as_secs_f64()))
}

/// Runs the workload.
///
/// # Errors
/// A build, save or load failure.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let (n, nq) = match cfg.scale {
        Scale::Full => (8000, 100),
        Scale::Probe => (1500, 16),
    };
    let inputs = inputs(
        cfg.seed,
        n,
        nq,
        &[
            ("rand256", Family::RandomWalk, 256),
            ("sift-like", Family::SiftLike, 128),
        ],
    );
    for input in &inputs {
        eprintln!(
            "disk-ooc: {} holds {} pages ({} MiB), pool {} pages",
            input.name,
            pages(&input.data),
            input.data.payload_bytes() / 1048576,
            pool_pages(&input.data)
        );
    }
    let digest = inputs
        .iter()
        .fold(0, |h, i| h ^ gen::digest(&i.data) ^ gen::digest(&i.queries));
    let reps = setup_reps(cfg, SETUP_REPS);
    let (mut setup_s, mut attach_s) = (Vec::new(), Vec::new());
    let mut slices = Slices::default();
    let mut obs = Observed::default();
    let mut metrics = BTreeMap::new();
    let mut index_mb = 0.0;
    for rep in 0..reps {
        let dir = cfg.workdir.join(format!("rep{rep}"));
        let t = Instant::now();
        let (loaded, attach) = setup(&dir, &inputs)?;
        setup_s.push(t.elapsed().as_secs_f64());
        attach_s.push(attach);
        index_mb = loaded
            .iter()
            .map(|l| l.index.memory_footprint())
            .sum::<usize>() as f64
            / 1048576.0;
        let cells = cells(&loaded, &inputs, n);
        if cfg.trace {
            metrics = traced_cells(cfg, &cells, &mut obs);
            metrics.insert("persist.attach_s".into(), attach);
            metrics.insert("persist.load_s".into(), resident_loads(&dir, &inputs)?);
            metrics.extend(eval_metrics(&loaded, &inputs[0]));
        } else {
            slices.run_cells(&cells, cfg.seconds, rep, reps, &mut obs);
        }
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

/// One cell per (index, codec, advertised mode), one batch per pass;
/// successive passes take successive queries of the dataset's pool.
fn cells<'a>(loaded: &'a [Loaded], inputs: &'a [Input], n: usize) -> Vec<Cell<'a>> {
    let mut cells = Vec::new();
    let mut offset = 0usize;
    for l in loaded {
        let input = &inputs[l.input];
        let nq = input.queries.len();
        for params in methods::modes(l.method, &l.index.capabilities(), K) {
            let queries = (0..nq)
                .map(|i| {
                    let q = (offset + i) % nq;
                    (input.queries.series(q), &input.truth[q])
                })
                .collect();
            offset += BATCH;
            cells.push(Cell {
                name: format!(
                    "disk-ooc/{}/{}/{}/{}",
                    input.name,
                    l.index.name(),
                    l.codec.name(),
                    mode_label(&params)
                ),
                method: l.method,
                index: l.index.as_ref(),
                params,
                data: &input.data,
                n,
                queries,
                per_pass: BATCH,
                batch: BATCH,
            });
        }
    }
    cells
}

/// `eval.*`: batch gain of each f32 index over `input`, and the parallel
/// runner's 2-thread speed-up on its DSTree.
fn eval_metrics(loaded: &[Loaded], input: &Input) -> BTreeMap<String, f64> {
    let f32_here: Vec<&Loaded> = loaded
        .iter()
        .filter(|l| l.input == 0 && l.codec == PageCodec::F32)
        .collect();
    let queries: Vec<&[f32]> = input.queries.iter().take(32).collect();
    let params = SearchParams::delta_epsilon(K, 0.9, 1.0);
    let mut m: BTreeMap<String, f64> = f32_here
        .iter()
        .map(|l| {
            (
                format!("eval.batch_gain.{}", l.method.key()),
                batch_gain(l.index.as_ref(), &queries, &params),
            )
        })
        .collect();
    let dstree = f32_here
        .iter()
        .find(|l| l.method == Method::DsTree)
        .expect("DSTree is loaded");
    m.insert(
        "eval.parallel_speedup_2t".into(),
        parallel_speedup(dstree.index.as_ref(), input, &params),
    );
    m
}

/// Seconds to load every snapshot of `dir` resident.
fn resident_loads(dir: &Path, inputs: &[Input]) -> Result<f64, String> {
    let registry = methods::registry(false, None, PageCodec::F32);
    let t = Instant::now();
    for input in inputs {
        for method in METHODS {
            let path = snap(dir, input.name, method);
            let index = registry
                .load_any_backed(&path, &input.data, StoreBacking::Resident)
                .map_err(|e| format!("cannot load {}: {e}", path.display()))?;
            std::hint::black_box(index.num_series());
        }
    }
    Ok(t.elapsed().as_secs_f64())
}

/// Per-query time under `search` over per-query time under `search_batch`
/// of [`BATCH`], median of alternating repetitions.
fn batch_gain(index: &dyn AnnIndex, queries: &[&[f32]], params: &SearchParams) -> f64 {
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        for q in queries {
            std::hint::black_box(index.search(q, params).ok());
        }
        let single = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for chunk in queries.chunks(BATCH) {
            std::hint::black_box(index.search_batch(chunk, params));
        }
        ratios.push(single / t.elapsed().as_secs_f64());
    }
    median(&ratios)
}

/// `run_workload_parallel` at 1 thread over 2 threads, median of
/// alternating repetitions.
fn parallel_speedup(index: &dyn AnnIndex, input: &Input, params: &SearchParams) -> f64 {
    let count = input.queries.len().min(32);
    let queries = gen::prefix(&input.queries, count);
    let workload = hydra::data::QueryWorkload {
        noise_levels: vec![0.0; count],
        queries,
    };
    let truth = hydra::data::GroundTruth {
        answers: input.truth[..count]
            .iter()
            .map(|e| {
                e.ids
                    .iter()
                    .zip(&e.dists)
                    .map(|(&i, &d)| hydra::Neighbor::new(i, d as f32))
                    .collect()
            })
            .collect(),
        k: K,
    };
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let one =
            hydra::eval::run_workload_parallel(index, &workload, &truth, params, 1).total_seconds;
        let two =
            hydra::eval::run_workload_parallel(index, &workload, &truth, params, 2).total_seconds;
        ratios.push(one / two);
    }
    median(&ratios)
}
