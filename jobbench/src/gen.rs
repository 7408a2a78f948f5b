//! Seeded input generation. The program under test only ever sees what these
//! functions produce; the same `--seed` yields the same inputs.

use mathcloud_exact::{hilbert, Matrix, Rational};
use mathcloud_telemetry::rng::{splitmix64, XorShift64};

/// Length of every file output on `memo_files`.
pub const BLOB_BYTES: usize = 64 * 1024;
/// Distinct inputs in the `memo_files` hot set.
pub const HOT_KEYS: u64 = 32;
/// Zipf exponent of the draw over the hot set.
pub const ZIPF_S: f64 = 1.1;
/// Share of `memo_files` submissions carrying a fresh input (a memo miss
/// that executes and stores a new blob). The rest draw from the hot set,
/// which warm-up has already executed, so they are memo hits. Kept well
/// below 10 %: at 10 % the slower misses (plus the hot keys the retention
/// cap evicts) sat exactly at p90, and p90 jumped between the two groups.
const FRESH_SHARE: f64 = 0.05;

/// The per-worker input stream of one workload: deterministic in
/// `(seed, worker)`, independent across workers.
#[derive(Clone, Debug)]
pub struct Stream {
    rng: XorShift64,
    salt: u64,
    worker: u64,
    seq: u64,
}

impl Stream {
    pub fn new(seed: u64, workload: &str, worker: usize) -> Stream {
        let tag = workload
            .bytes()
            .fold(0u64, |h, b| splitmix64(h ^ u64::from(b)));
        let base = splitmix64(seed ^ tag);
        Stream {
            rng: XorShift64::new(base ^ splitmix64(worker as u64 + 1)),
            salt: base & 0xffff,
            worker: worker as u64,
            seq: 0,
        }
    }

    /// A random integer for the no-op service, small enough that `2n`
    /// cannot overflow.
    pub fn any_n(&mut self) -> i64 {
        self.seq += 1;
        self.rng.below(1 << 40) as i64
    }

    /// An integer never produced before by any worker of this stream's
    /// seed: salt, worker and sequence number occupy disjoint bits.
    pub fn unique_n(&mut self) -> i64 {
        let n = (self.salt << 32) | (self.worker << 28) | (self.seq & 0x0fff_ffff);
        self.seq += 1;
        n as i64
    }

    /// A `memo_files` key: with probability [`FRESH_SHARE`] a unique key
    /// above the hot range, otherwise a Zipf draw over the hot set.
    pub fn memo_key(&mut self, zipf: &Zipf) -> (u64, bool) {
        if self.rng.chance(FRESH_SHARE) {
            (HOT_KEYS + self.unique_n() as u64, true)
        } else {
            self.seq += 1;
            (zipf.sample(&mut self.rng), false)
        }
    }

    /// An index into a pool of `len` precomputed inputs.
    pub fn pick(&mut self, len: usize) -> usize {
        self.seq += 1;
        self.rng.index(len)
    }
}

/// Inverse-CDF Zipf sampler over ranks `0..n`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut XorShift64) -> u64 {
        let u = rng.unit_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64
    }
}

/// The 64 KiB file content the `memo_files` service returns for `key`.
pub fn blob(seed: u64, key: u64) -> Vec<u8> {
    let mut rng = XorShift64::new(splitmix64(seed) ^ key);
    let mut out = Vec::with_capacity(BLOB_BYTES);
    while out.len() < BLOB_BYTES {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out
}

/// Hilbert matrix of order `n` plus a seeded positive integer diagonal
/// (1..=9): symmetric positive definite, hence invertible, with the
/// Hilbert entries' rational structure intact.
pub fn schur_matrix(seed: u64, index: usize, n: usize) -> Matrix {
    let mut rng = XorShift64::new(splitmix64(seed ^ 0x5c4u64) ^ index as u64);
    let diagonal: Vec<i64> = (0..n).map(|_| rng.range_i64(1, 9)).collect();
    let h = hilbert(n);
    let d = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            Rational::from_ratio(diagonal[i], 1)
        } else {
            Rational::zero()
        }
    });
    &h + &d
}
