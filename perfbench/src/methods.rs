//! The zoo, built and persisted only through public APIs.

use std::path::Path;

use hydra::persist::LoaderRegistry;
use hydra::prelude::*;
use hydra::{AnnIndex, Capabilities, PersistentIndex, StandardConfigs};

/// Build seed of every index: fixed, so only the inputs vary with `--seed`.
pub const BUILD_SEED: u64 = 5;

/// The eight methods of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Method {
    /// DSTree (`hydra-dstree`).
    DsTree,
    /// iSAX2+ (`hydra-isax`).
    Isax,
    /// VA+file (`hydra-vafile`).
    VaFile,
    /// SRS (`hydra-lsh`).
    Srs,
    /// QALSH (`hydra-lsh`).
    Qalsh,
    /// IMI (`hydra-imi`).
    Imi,
    /// HNSW (`hydra-hnsw`).
    Hnsw,
    /// FLANN (`hydra-flann`).
    Flann,
}

/// All eight, in report order.
pub const ALL: [Method; 8] = [
    Method::DsTree,
    Method::Isax,
    Method::VaFile,
    Method::Srs,
    Method::Qalsh,
    Method::Imi,
    Method::Hnsw,
    Method::Flann,
];

impl Method {
    /// The key used in metric names.
    pub fn key(self) -> &'static str {
        match self {
            Method::DsTree => "dstree",
            Method::Isax => "isax2",
            Method::VaFile => "vafile",
            Method::Srs => "srs",
            Method::Qalsh => "qalsh",
            Method::Imi => "imi",
            Method::Hnsw => "hnsw",
            Method::Flann => "flann",
        }
    }

    /// The ng effort knob that still returns `k = 100` neighbours: leaves
    /// for the trees, refined series for VA+file, candidates for the LSH
    /// methods, inverted lists for IMI, the beam for HNSW, checks for FLANN.
    pub fn ng_nprobe(self) -> usize {
        match self {
            Method::DsTree => 8,
            Method::Isax | Method::VaFile | Method::Srs | Method::Qalsh | Method::Flann => 256,
            Method::Imi => 64,
            Method::Hnsw => 128,
        }
    }
}

/// The search settings of every guarantee class `caps` advertises, at `k`.
pub fn modes(method: Method, caps: &Capabilities, k: usize) -> Vec<SearchParams> {
    let mut out = Vec::new();
    if caps.exact {
        out.push(SearchParams::exact(k));
    }
    if caps.epsilon_approximate {
        // ε = 0 is the tightest bound the mode can promise (it degenerates
        // to exact); ε = 1 is the paper's typical approximate setting.
        out.push(SearchParams::epsilon(k, 0.0));
        out.push(SearchParams::epsilon(k, 1.0));
    }
    if caps.delta_epsilon_approximate {
        out.push(SearchParams::delta_epsilon(k, 0.9, 1.0));
    }
    if caps.ng_approximate {
        out.push(SearchParams::ng(k, method.ng_nprobe()));
    }
    out
}

/// The standard configurations (`hydra::standard_configs_io`) with the
/// given pool and page codec.
pub fn configs(
    in_memory: bool,
    pool_pages: Option<usize>,
    codec: hydra::PageCodec,
) -> StandardConfigs {
    hydra::standard_configs_io(
        in_memory,
        BUILD_SEED,
        pool_pages,
        codec,
        hydra::FileIoMode::Pread,
    )
}

/// The loader registry matching [`configs`].
pub fn registry(
    in_memory: bool,
    pool_pages: Option<usize>,
    codec: hydra::PageCodec,
) -> LoaderRegistry {
    hydra::standard_registry_io(
        in_memory,
        BUILD_SEED,
        pool_pages,
        codec,
        hydra::FileIoMode::Pread,
    )
}

fn finish<T>(built: hydra::Result<T>, save: Option<&Path>) -> Result<Box<dyn AnnIndex>, String>
where
    T: AnnIndex + PersistentIndex + 'static,
{
    let index = built.map_err(|e| format!("{} build failed: {e}", T::KIND))?;
    if let Some(path) = save {
        index
            .save(path)
            .map_err(|e| format!("cannot save {} to {}: {e}", T::KIND, path.display()))?;
    }
    Ok(Box::new(index))
}

/// Builds `method` over `data` and, with `save`, snapshots it there.
///
/// # Errors
/// The build or save error, as text.
pub fn build(
    method: Method,
    data: &Dataset,
    cfg: &StandardConfigs,
    save: Option<&Path>,
) -> Result<Box<dyn AnnIndex>, String> {
    match method {
        Method::DsTree => finish(DsTree::build(data, cfg.dstree), save),
        Method::Isax => finish(Isax2Plus::build(data, cfg.isax), save),
        Method::VaFile => finish(VaPlusFile::build(data, cfg.vafile), save),
        Method::Srs => finish(Srs::build(data, cfg.srs), save),
        Method::Qalsh => finish(Qalsh::build(data, cfg.qalsh), save),
        Method::Imi => finish(InvertedMultiIndex::build(data, cfg.imi), save),
        Method::Hnsw => finish(Hnsw::build(data, cfg.hnsw), save),
        Method::Flann => finish(Flann::build(data, cfg.flann), save),
    }
}
