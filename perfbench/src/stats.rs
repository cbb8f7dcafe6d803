//! Small order statistics and the per-query accounting every serving
//! workload reports through.

/// Median (mean of the two middle values for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Nearest-rank percentile, the definition `ServiceStats` uses.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    psh_core::service::percentile(xs, p)
}

/// Client-side accounting of answered queries.
///
/// The unit is the *query*, never the round trip: a trip carrying a
/// `k`-pair batch answers `k` queries, and each of them waited the whole
/// trip, so it adds `k` to the answered count and `k` latency samples.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryLog {
    /// Queries answered.
    pub answered: u64,
    /// One latency sample per answered query, in milliseconds.
    pub latencies_ms: Vec<f64>,
}

impl QueryLog {
    /// Record one round trip that answered `k` queries in `trip_ms`.
    pub fn record_trip(&mut self, k: usize, trip_ms: f64) {
        self.answered += k as u64;
        self.latencies_ms.extend(std::iter::repeat_n(trip_ms, k));
    }

    /// Fold another connection's log into this one.
    pub fn merge(&mut self, other: QueryLog) {
        self.answered += other.answered;
        self.latencies_ms.extend(other.latencies_ms);
    }

    /// Answered queries per second over a window of `window_s` seconds.
    pub fn qps(&self, window_s: f64) -> f64 {
        if window_s > 0.0 {
            self.answered as f64 / window_s
        } else {
            0.0
        }
    }

    /// Median per-query latency in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        percentile(&self.latencies_ms, 50.0)
    }

    /// 99th-percentile per-query latency in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        percentile(&self.latencies_ms, 99.0)
    }
}
