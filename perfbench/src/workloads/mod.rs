//! The three workloads and what they share: argument plumbing, repeated
//! set-up, the metric name lists, the closed client loop, the oracle probe,
//! and the served-answer check.

pub mod build_grid;
pub mod serve_grid;
pub mod serve_mixed;
pub mod shard_layer;

use crate::check::{sandwiched, stretch};
use crate::cpu;
use crate::report::Outcome;
use crate::stats::{mean, median, QueryLog};
use crate::trace;
use crate::traced_oracle::{pair_key, TracedOracle};
use psh_core::oracle::QueryResult;
use psh_core::service::ServiceStats;
use psh_core::DistanceOracle;
use psh_exec::ExecutionPolicy;
use psh_graph::traversal::bellman_ford::hop_limited_pair;
use psh_graph::traversal::dijkstra::dijkstra_pair;
use psh_graph::{CsrGraph, VertexId};
use psh_net::ServerStats;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The execution policy of every timed build and service.
///
/// Sequential: one thread does the measured work and the other CPU
/// (`nproc` = 2) is left to the client threads, the net layer and the
/// rest of the machine. A two-thread pool on two CPUs measured how busy
/// the machine was as much as the program. The traced runs compare
/// against [`PARALLEL`] (`exec.*`).
///
/// Every builder runs with its default seed, as a deployment would;
/// `--seed` picks the inputs (weights, random graphs, query pairs, arrival
/// schedules, graph deltas), so runs on different seeds build different
/// artifacts only where their inputs differ.
pub const POLICY: ExecutionPolicy = ExecutionPolicy::Sequential;

/// The pooled policy the `exec.*` speed-ups compare [`POLICY`] with.
pub const PARALLEL: ExecutionPolicy = ExecutionPolicy::Parallel { threads: 2 };

/// Set-up repetitions in an untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["build-grid", "serve-grid", "serve-mixed"];

/// End-to-end metrics (`--trace 0`): every workload reports all of them.
/// Times are CPU time ([`crate::cpu`]); one operation is a build iteration
/// on build-grid and a query on the serving workloads.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("correct_frac", "fraction"),
    ("cpu_per_op_ms", "ms"),
    ("cpu_p50_ms", "ms"),
    ("cpu_p90_ms", "ms"),
    ("peak_bytes", "bytes"),
    ("snapshot_bytes", "bytes"),
];

/// Per-layer metrics (`--trace 1`): every workload reports all of them;
/// a layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("wall.throughput", "op/s"),
    ("wall.p50_ms", "ms"),
    ("wall.p99_ms", "ms"),
    ("cluster.s", "s"),
    ("cluster.work", "ops"),
    ("cluster.depth", "rounds"),
    ("spanner.u_s", "s"),
    ("spanner.w_s", "s"),
    ("spanner.work", "ops"),
    ("spanner.depth", "rounds"),
    ("spanner.edges_u", "edges"),
    ("spanner.edges_w", "edges"),
    ("hopset.s", "s"),
    ("hopset.work", "ops"),
    ("hopset.depth", "rounds"),
    ("hopset.edges", "edges"),
    ("exec.build_speedup", "ratio"),
    ("exec.batch_speedup", "ratio"),
    ("oracle.build_s", "s"),
    ("oracle.query_ms", "ms"),
    ("oracle.work", "ops"),
    ("oracle.rounds", "rounds"),
    ("oracle.hop_budget", "rounds"),
    ("oracle.rounds_no_hopset", "rounds"),
    ("oracle.stretch_max", "ratio"),
    ("oracle.exact_frac", "fraction"),
    ("oracle.vs_dijkstra", "ratio"),
    ("service.latency_ms", "ms"),
    ("service.batch_ms", "ms"),
    ("service.batch_size", "queries"),
    ("service.wait_ms", "ms"),
    ("service.cache_hit_rate", "fraction"),
    ("service.stats_call_ms", "ms"),
    ("net.overhead_ms", "ms"),
    ("net.frames_in", "count"),
    ("net.frames_out", "count"),
    ("net.queries_rejected", "count"),
    ("net.conns_rejected", "count"),
    ("client.request_ms", "ms"),
    ("snapshot.save_s", "s"),
    ("snapshot.open_s", "s"),
    ("snapshot.first_query_ms", "ms"),
    ("snapshot.append_ms", "ms"),
    ("snapshot.reload_poll_s", "s"),
    ("snapshot.reload_s", "s"),
    ("shard.boundary", "vertices"),
    ("shard.legs", "queries"),
    ("shard.leg_ms", "ms"),
    ("shard.query_ms", "ms"),
    ("shard.mono_query_ms", "ms"),
    ("shard.stretch_max", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
    ("loadgen.late_frac", "fraction"),
    ("loadgen.offered_rate", "1/s"),
];

/// Command-line settings of one run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// Values a workload measured, by metric name.
pub type Values = HashMap<&'static str, f64>;

/// Run one workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut vals = Values::new();
    match args.workload.as_str() {
        "build-grid" => build_grid::run(args, &mut out, &mut vals)?,
        "serve-grid" => serve_grid::run(args, &mut out, &mut vals)?,
        "serve-mixed" => serve_mixed::run(args, &mut out, &mut vals)?,
        other => return Err(format!("unknown workload '{other}'")),
    }
    let names: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in names {
        match vals.get(name) {
            Some(&v) => out.metric(name, unit, v),
            None if args.trace => out.metric(name, unit, 0.0),
            None => {
                return Err(format!(
                    "{}: end-to-end metric {name} not measured",
                    args.workload
                ))
            }
        }
    }
    Ok(out)
}

/// Seconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Run the set-up `reps` times (each one from scratch, the previous state
/// dropped first) and keep the last; returns it with the median process
/// CPU seconds a set-up took.
pub fn repeated_setup<S>(
    reps: usize,
    mut f: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let (s, dt) = cpu::timed(&mut f);
        kept = Some(s?);
        times.push(dt);
    }
    Ok((kept.expect("at least one repetition"), median(&times)))
}

/// Set-up repetitions for this run (one in a traced run, which reports no
/// `setup_s`).
pub fn setup_reps(args: &Args) -> usize {
    if args.trace {
        1
    } else {
        SETUP_REPS
    }
}

/// Where runs write their files: `$CARGO_TARGET_DIR/perfbench` (else
/// `target/perfbench`), inside the checkout the benchmark runs from.
fn out_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("perfbench")
}

/// A scratch directory for this run's files, removed when the run ends.
pub fn scratch_dir(args: &Args) -> Result<PathBuf, String> {
    let dir = out_root().join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The file the traced run's spans are written to.
pub fn trace_path(args: &Args) -> PathBuf {
    out_root().join(format!("{}-seed{}.spans.tsv", args.workload, args.seed))
}

/// One answer a client received, with the service epochs that were live
/// between its send and its reply.
#[derive(Clone, Copy, Debug)]
pub struct Served {
    /// Source.
    pub s: VertexId,
    /// Target.
    pub t: VertexId,
    /// Bit pattern of the distance received.
    pub bits: u64,
    /// Service epoch just before the send.
    pub epoch_lo: u64,
    /// Service epoch just after the reply.
    pub epoch_hi: u64,
}

/// How a closed loop asks one query on one connection: the answer with
/// the service epochs read just before and just after it.
pub type Ask<'a, C> =
    dyn Fn(&mut C, VertexId, VertexId) -> Result<(QueryResult, u64, u64), String> + Sync + 'a;

/// A closed loop on each of `conns` (one thread each) for `seconds`: each
/// thread draws pairs from its own stream, seeded by `(seed, connection)`,
/// and sends the next query when the last one returns. Each query is one
/// `client.query` span and one latency sample. Returns the outcome, the
/// log, every answer, and the window's length in seconds.
pub fn closed_loop<C: Send>(
    conns: Vec<C>,
    seconds: f64,
    seed: u64,
    pair_of: &(dyn Fn(&mut rand::rngs::StdRng) -> (VertexId, VertexId) + Sync),
    ask: &Ask<'_, C>,
) -> (Outcome, QueryLog, Vec<Served>, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<(Outcome, QueryLog, Vec<Served>)> = std::thread::scope(|sc| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, mut c)| {
                sc.spawn(move || {
                    let mut rng = crate::load::rng(seed, 100 + i as u64);
                    let (mut out, mut log, mut served) =
                        (Outcome::default(), QueryLog::default(), Vec::new());
                    while Instant::now() < deadline {
                        let (s, t) = pair_of(&mut rng);
                        let t0 = Instant::now();
                        let reply =
                            trace::in_span("client.query", 0, pair_key(s, t), || ask(&mut c, s, t));
                        let dt = t0.elapsed().as_secs_f64() * 1e3;
                        out.attempted += 1;
                        match reply {
                            Ok((r, epoch_lo, epoch_hi)) => {
                                log.record_trip(1, dt);
                                let bits = r.distance.to_bits();
                                served.push(Served {
                                    s,
                                    t,
                                    bits,
                                    epoch_lo,
                                    epoch_hi,
                                });
                            }
                            Err(e) => out.fail(format!("query ({s}, {t}) failed: {e}")),
                        }
                    }
                    (out, log, served)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let window = start.elapsed().as_secs_f64();
    let (mut out, mut log, mut served) = (Outcome::default(), QueryLog::default(), Vec::new());
    for (o, l, s) in results {
        merge_outcome(&mut out, o);
        log.merge(l);
        served.extend(s);
    }
    (out, log, served, window)
}

/// Fold `other`'s counts and problems into `out`.
pub fn merge_outcome(out: &mut Outcome, other: Outcome) {
    out.attempted += other.attempted;
    out.failed += other.failed;
    out.problems.extend(other.problems);
}

/// Check every served answer against the in-process answer of an epoch
/// that was live while it was in flight: the bits the epoch's wrapper
/// logged, or, for a pair it never computed, the wrapped oracle's answer
/// recomputed now. `wrappers[e]` serves epoch `e`.
pub fn check_served(served: &[Served], wrappers: &[Arc<TracedOracle>], out: &mut Outcome) {
    for a in served {
        let ok = (a.epoch_lo..=a.epoch_hi).any(|e| {
            wrappers.get(e as usize).is_some_and(|w| {
                let want = w
                    .logged(a.s, a.t)
                    .unwrap_or_else(|| w.inner().query(a.s, a.t).0.distance.to_bits());
                want == a.bits
            })
        });
        out.check(ok, || {
            format!(
                "served d({}, {}) = {} matches no in-process answer of epochs {}..={}",
                a.s,
                a.t,
                f64::from_bits(a.bits),
                a.epoch_lo,
                a.epoch_hi
            )
        });
    }
    for (e, w) in wrappers.iter().enumerate() {
        out.check(w.conflicts() == 0, || {
            format!("epoch {e}: a pair was answered twice with different bits")
        });
    }
}

/// The oracle's own quantities on a sample of pairs, each answer checked
/// against `reference` (an independently built in-process oracle: bitwise
/// equal) and Dijkstra (`exact ≤ d ≤ c·exact`). Fills the `oracle.*`
/// metrics when `vals` is given; `budget` is the served oracle's hop
/// budget (`None` for the weighted path, which has one per band). Returns
/// the largest stretch seen.
#[allow(clippy::too_many_arguments)]
pub fn oracle_probe(
    served: &dyn DistanceOracle,
    reference: &dyn DistanceOracle,
    budget: Option<usize>,
    g: &CsrGraph,
    pairs: &[(VertexId, VertexId)],
    c: f64,
    out: &mut Outcome,
    vals: Option<&mut Values>,
) -> f64 {
    let (mut work, mut rounds, mut rounds_plain) = (Vec::new(), Vec::new(), Vec::new());
    let (mut q_ms, mut dij_ms) = (Vec::new(), Vec::new());
    let (mut stretch_max, mut exact_hits) = (1.0f64, 0usize);
    for &(s, t) in pairs {
        let ((r, cost), dq) = timed(|| served.query(s, t));
        let (exact, dd) = timed(|| dijkstra_pair(g, s, t));
        let (want, _) = reference.query(s, t);
        out.check(r.distance.to_bits() == want.distance.to_bits(), || {
            format!(
                "d({s}, {t}) = {} differs from the reference build's {}",
                r.distance, want.distance
            )
        });
        out.check(sandwiched(exact, r.distance, c), || {
            format!(
                "d({s}, {t}) = {} outside [{exact}, {c}·{exact}]",
                r.distance
            )
        });
        work.push(cost.work as f64);
        rounds.push(cost.depth as f64);
        q_ms.push(dq * 1e3);
        dij_ms.push(dd * 1e3);
        stretch_max = stretch_max.max(stretch(exact, r.distance));
        exact_hits += usize::from(r.distance == exact as f64);
        if vals.is_some() {
            // plain hop-limited Bellman–Ford with the same budget (the
            // fixpoint when the oracle has no single budget)
            let h = budget.unwrap_or(g.n());
            let (_, _, plain) = hop_limited_pair(g, None, s, t, h);
            rounds_plain.push(plain.depth as f64);
        }
    }
    if let Some(vals) = vals {
        vals.insert("oracle.work", median(&work));
        vals.insert("oracle.rounds", median(&rounds));
        vals.insert("oracle.hop_budget", budget.unwrap_or(0) as f64);
        vals.insert("oracle.rounds_no_hopset", median(&rounds_plain));
        vals.insert("oracle.stretch_max", stretch_max);
        vals.insert(
            "oracle.exact_frac",
            exact_hits as f64 / pairs.len().max(1) as f64,
        );
        vals.insert(
            "oracle.vs_dijkstra",
            median(&q_ms) / median(&dij_ms).max(1e-9),
        );
    }
    stretch_max
}

/// Per-layer values derived from the span set of a traced window.
pub fn span_metrics(spans: &[trace::Span], vals: &mut Values) {
    let summary = trace::summarize(spans);
    let med_self = |name: &str| summary.get(name).map_or(0.0, |s| median(&s.self_ms));
    let med_dur = |name: &str| summary.get(name).map_or(0.0, |s| median(&s.dur_ms));
    vals.insert("oracle.query_ms", med_self("oracle.query"));
    vals.insert("service.batch_ms", med_dur("service.batch"));
    let batch_mean = summary
        .get("service.batch")
        .map_or(0.0, |s| mean(&s.dur_ms));
    vals.insert("service.batch_mean_ms", batch_mean);
    vals.insert("client.request_ms", med_dur("client.query"));
    let client_mean = summary.get("client.query").map_or(0.0, |s| mean(&s.dur_ms));
    vals.insert("client.request_mean_ms", client_mean);
    vals.insert("trace.spans", spans.len() as f64);
}

/// `service.*` values of a traced window. Call after [`span_metrics`],
/// whose mean batch time the wait is derived from: the mean time a
/// computed (not cached) query spends admitted but not in a running batch.
pub fn service_metrics(s: &ServiceStats, vals: &mut Values) {
    let batch = vals.get("service.batch_mean_ms").copied().unwrap_or(0.0);
    let computed = s.served - s.cache_hits;
    // cache hits are logged with latency 0 and never wait for a batch
    let missed: Vec<f64> = s
        .latencies_ms
        .iter()
        .copied()
        .filter(|&l| l > 0.0)
        .collect();
    vals.insert("service.latency_ms", median(&s.latencies_ms));
    vals.insert("service.wait_ms", mean(&missed) - batch);
    vals.insert(
        "service.batch_size",
        computed as f64 / s.batches.max(1) as f64,
    );
    vals.insert(
        "service.cache_hit_rate",
        s.cache_hits as f64 / s.served.max(1) as f64,
    );
}

/// `net.*` values of a traced window: the mean client round trip (send to
/// reply, from the `client.query` spans) beyond the mean service latency,
/// and the server's counters. Call after [`span_metrics`].
pub fn net_metrics(s: &ServiceStats, net: &ServerStats, vals: &mut Values) {
    let client = vals.get("client.request_mean_ms").copied().unwrap_or(0.0);
    vals.insert("net.overhead_ms", client - mean(&s.latencies_ms));
    vals.insert("net.frames_in", net.frames_in as f64);
    vals.insert("net.frames_out", net.frames_out as f64);
    vals.insert("net.queries_rejected", net.queries_rejected as f64);
    vals.insert("net.conns_rejected", net.conns_rejected as f64);
}

/// `snapshot.*` durations from the spans around the snapshot calls.
pub fn snapshot_metrics(spans: &[trace::Span], vals: &mut Values) {
    let summary = trace::summarize(spans);
    let med = |name: &str| summary.get(name).map_or(0.0, |s| median(&s.dur_ms));
    vals.insert("snapshot.save_s", med("snapshot.save") / 1e3);
    vals.insert("snapshot.open_s", med("snapshot.open") / 1e3);
    vals.insert("snapshot.first_query_ms", med("snapshot.first_query"));
}
