//! Seeded input generation.
//!
//! Series come from `hydra-data`'s seeded generators (the families the
//! paper's figures use); queries are drawn by the benchmark itself. Every
//! input is a pure function of the run's seed.

use hydra::Dataset;

/// SplitMix64: small, fast and good enough for synthetic data.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize % n.max(1)
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f32 {
        let u1 = self.uniform().max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }
}

/// The dataset families of the paper's evaluation that the benchmark uses,
/// generated by `hydra-data`'s seeded generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Random walks (the paper's synthetic `Rand`).
    RandomWalk,
    /// SIFT-like image descriptors.
    SiftLike,
    /// Deep1B-like embeddings.
    DeepLike,
}

/// Generates `n` series of length `len` of `family` from `seed`.
pub fn generate(family: Family, n: usize, len: usize, seed: u64) -> Dataset {
    match family {
        Family::RandomWalk => hydra::data::random_walk(n, len, seed),
        Family::SiftLike => hydra::data::sift_like(n, len, seed),
        Family::DeepLike => hydra::data::deep_like(n, len, seed),
    }
}

/// Queries drawn like the paper's workloads: stored series perturbed by
/// Gaussian noise, at noise levels cycling through 5%, 10% and 25% of the
/// series' standard deviation, so easy and hard queries mix.
pub fn noisy_queries(data: &Dataset, count: usize, seed: u64) -> Dataset {
    const LEVELS: [f32; 3] = [0.05, 0.1, 0.25];
    let mut rng = Rng::new(seed, 0x51);
    let len = data.series_len();
    let mut out = Dataset::with_capacity(len, count).expect("positive length");
    let mut buf = vec![0.0f32; len];
    for q in 0..count {
        let src = data.series(rng.below(data.len()));
        let n = len as f32;
        let mean = src.iter().sum::<f32>() / n;
        let std = (src.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n).sqrt();
        let level = LEVELS[q % LEVELS.len()] * std;
        for (b, &v) in buf.iter_mut().zip(src) {
            *b = v + level * rng.normal();
        }
        out.push(&buf).expect("fixed length");
    }
    out
}

/// The first `n` series of `data` as a dataset of their own.
pub fn prefix(data: &Dataset, n: usize) -> Dataset {
    let len = data.series_len();
    Dataset::from_flat(len, data.as_flat()[..n * len].to_vec()).expect("prefix of a valid dataset")
}

/// A content digest of a dataset (FNV-1a over the bit patterns), used by
/// the self-check to show that another seed changes the inputs.
pub fn digest(data: &Dataset) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in data.as_flat() {
        h ^= u64::from(v.to_bits());
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
