//! Seeded query inputs: uniform pairs, Zipf-ranked hot pairs, and a
//! Poisson arrival schedule.

use psh_graph::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded generator from a workload seed and a stream label, so each
/// consumer (connection, checker, delta writer) has its own stream.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A uniform pair of distinct vertices of `0..n`.
pub fn uniform_pair(rng: &mut StdRng, n: usize) -> (VertexId, VertexId) {
    loop {
        let s = rng.random_range(0..n as u32);
        let t = rng.random_range(0..n as u32);
        if s != t {
            return (s, t);
        }
    }
}

/// Zipf(`theta`)-ranked draws over a fixed pool of distinct pairs: rank
/// `r` (0-based) is drawn with weight `1/(r+1)^theta`. Repeated draws of
/// the hot ranks are what an answer cache can serve.
pub struct ZipfPairs {
    pool: Vec<(VertexId, VertexId)>,
    cum: Vec<f64>,
}

impl ZipfPairs {
    /// A pool of `size` distinct uniform pairs over `0..n`, seeded.
    pub fn new(n: usize, size: usize, theta: f64, seed: u64) -> ZipfPairs {
        let mut rng = rng(seed, 0x21FF);
        let mut seen = std::collections::HashSet::with_capacity(size);
        let mut pool = Vec::with_capacity(size);
        while pool.len() < size {
            let p = uniform_pair(&mut rng, n);
            if seen.insert(p) {
                pool.push(p);
            }
        }
        let mut total = 0.0;
        let cum = (0..size)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(theta);
                total
            })
            .collect();
        ZipfPairs { pool, cum }
    }

    /// One draw.
    pub fn draw(&self, rng: &mut StdRng) -> (VertexId, VertexId) {
        let u = rng.random::<f64>() * self.cum[self.cum.len() - 1];
        let rank = self
            .cum
            .partition_point(|&c| c <= u)
            .min(self.pool.len() - 1);
        self.pool[rank]
    }
}

/// Poisson arrival times (seconds from the start) at `rate` per second
/// over `[0, window_s)`.
pub fn poisson_schedule(rng: &mut StdRng, rate: f64, window_s: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        // 1 - u is in (0, 1], so the logarithm is finite
        t += -(1.0 - rng.random::<f64>()).ln() / rate;
        if t >= window_s {
            return out;
        }
        out.push(t);
    }
}
