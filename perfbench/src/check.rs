//! Correctness checks shared by the workloads, all run outside the timed
//! window.

use psh_graph::traversal::dijkstra::dijkstra_pair;
use psh_graph::{CsrGraph, INF};
use rand::rngs::StdRng;
use rand::Rng;

/// Stretch bound of the oracle: `(1+ε)` with the default `ε = 0.25`.
pub const ORACLE_STRETCH: f64 = 1.25;
/// Composed stretch bound of a sharded oracle (see `psh_core::shard`).
pub const SHARD_STRETCH: f64 = 3.0;

/// Whether `answer` lies in `[exact, c · exact]` (both infinite when the
/// pair is disconnected).
pub fn sandwiched(exact: u64, answer: f64, c: f64) -> bool {
    if exact == INF {
        return answer.is_infinite();
    }
    let exact = exact as f64;
    answer >= exact && answer <= c * exact
}

/// Stretch of `answer` against the exact distance (1 for a zero-length
/// or disconnected pair).
pub fn stretch(exact: u64, answer: f64) -> f64 {
    if exact == INF || exact == 0 {
        1.0
    } else {
        answer / exact as f64
    }
}

/// Largest `dist_H(u, v) / w(u, v)` over `samples` random edges of `g`,
/// where `h` is a subgraph of `g` (the spanner). By §2.2 the max edge
/// stretch is the spanner's stretch.
pub fn sampled_edge_stretch(g: &CsrGraph, h: &CsrGraph, samples: usize, rng: &mut StdRng) -> f64 {
    (0..samples)
        .map(|_| {
            let e = g.edge(rng.random_range(0..g.m() as u32));
            let d = dijkstra_pair(h, e.u, e.v);
            if d == INF {
                f64::INFINITY
            } else {
                d as f64 / e.w as f64
            }
        })
        .fold(0.0, f64::max)
}
