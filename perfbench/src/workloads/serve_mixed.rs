//! `serve-mixed`: reads beside writes on a weighted random graph.
//!
//! Set-up builds the weighted oracle of a connected random graph
//! (n = 5,000, m ≈ 15k, log-uniform weights with ratio 64), saves it as
//! the v2 base of a journal, and serves it from an in-process `NetServer`
//! with the answer cache on and a `JournalReloader` reload hook. Seeded
//! Poisson arrivals at a fixed offered rate are split over two
//! connections; queries are Zipf(0.9)-ranked draws from a pool of pairs.
//! At fixed points connection 2 appends a small seeded `GraphDelta` to the
//! journal and sends `OP_RELOAD`, and once a second it sends `OP_STATS`.

use super::{
    check_served, merge_outcome, net_metrics, oracle_probe, repeated_setup, scratch_dir,
    service_metrics, setup_reps, span_metrics, timed, trace_path, Args, Served, Values, POLICY,
};
use crate::alloc;
use crate::check::ORACLE_STRETCH;
use crate::cpu;
use crate::load::{self, ZipfPairs};
use crate::report::Outcome;
use crate::stats::{median, percentile, QueryLog};
use crate::trace;
use crate::traced_oracle::{pair_key, TracedOracle};
use psh_core::service::{CacheConfig, OracleService, ServiceConfig};
use psh_core::snapshot::journal::{append_journal, journal_path, JournalReloader};
use psh_core::snapshot::v2::save_oracle_v2;
use psh_core::snapshot::OracleMeta;
use psh_core::{DistanceOracle, HopsetParams, OracleBuilder};
use psh_graph::{generators, CsrGraph, GraphDelta};
use psh_net::client::NetClient;
use psh_net::{NetServer, ServerConfig};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const N: usize = 5_000;
/// Edges beyond the spanning tree: m = N - 1 + EXTRA.
const EXTRA: usize = 10_000;
const WEIGHT_RATIO: f64 = 64.0;
const ZIPF_THETA: f64 = 0.9;
/// Distinct pairs the Zipf ranks index.
const POOL: usize = 4096;
/// The fixed offered rate, queries per second over both connections: at
/// least 1,500 answers per 30 s window, with the single batch leader busy
/// a small share of the time (a miss costs about 8 ms). A closed loop
/// would only replay cached pairs, so it cannot calibrate the rate.
pub const OFFERED_RATE: f64 = 50.0;
/// Journal appends + `OP_RELOAD`s per measured window, evenly spaced.
const RELOADS: usize = 8;
/// Edge insertions per appended delta.
const DELTA_EDGES: usize = 4;
/// A request sent this long after its scheduled time counts as late.
const LATE: Duration = Duration::from_millis(1);
/// How long before a scheduled send the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_millis(1);
const PROBE_PAIRS: usize = 16;

/// Epoch `e`'s wrapper is `wrappers[e]`.
type Wrappers = Arc<Mutex<Vec<Arc<TracedOracle>>>>;

struct Stack {
    g: CsrGraph,
    base: PathBuf,
    dir: PathBuf,
    server: NetServer,
    wrappers: Wrappers,
    poll_s: Arc<Mutex<Vec<f64>>>,
    build_s: f64,
    snapshot_bytes: f64,
}

fn generate(seed: u64) -> CsrGraph {
    let mut rng = load::rng(seed, 1);
    let base = generators::connected_random(N, EXTRA, &mut rng);
    generators::with_log_uniform_weights(&base, WEIGHT_RATIO, &mut rng)
}

fn build(g: &CsrGraph) -> Result<psh_core::Run<psh_core::ApproxShortestPaths>, String> {
    OracleBuilder::new()
        .execution(POLICY)
        .build(g)
        .map_err(|e| format!("oracle build: {e}"))
}

fn stand_up(args: &Args) -> Result<Stack, String> {
    let g = generate(args.seed);
    let (run, build_s) = cpu::timed(|| trace::in_span("build.oracle", 0, 0, || build(&g)));
    let run = run?;
    let dir = scratch_dir(args)?;
    let base = dir.join("oracle.v2");
    let _ = std::fs::remove_file(journal_path(&base));
    let meta = OracleMeta::of_run(&run, HopsetParams::default());
    trace::in_span("snapshot.save", 0, 0, || {
        save_oracle_v2(&base, &run.artifact, &meta)
    })
    .map_err(|e| format!("save snapshot: {e}"))?;
    let snapshot_bytes = std::fs::metadata(&base).map_err(|e| e.to_string())?.len() as f64;

    let first = Arc::new(TracedOracle::new(Arc::new(run.artifact)));
    let wrappers: Wrappers = Arc::new(Mutex::new(vec![first.clone()]));
    let service = Arc::new(OracleService::from_arc(
        first,
        ServiceConfig {
            policy: POLICY,
            max_batch: 256,
            cache: Some(CacheConfig::default()),
        },
    ));
    let server = NetServer::bind("127.0.0.1:0", service.clone(), ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let poll_s = Arc::new(Mutex::new(Vec::new()));
    let mut reloader = JournalReloader::new(&base, g.clone(), meta);
    let (hook_wrappers, hook_polls) = (wrappers.clone(), poll_s.clone());
    server.set_reload_hook(Box::new(move || {
        let (polled, dt) =
            timed(|| trace::in_span("reload.poll", 0, 0, || reloader.poll(&service)));
        hook_polls.lock().expect("poisoned by a panic").push(dt);
        let Some(mut report) = polled.map_err(|e| e.to_string())? else {
            return Ok(None);
        };
        // the poll swapped in the bare rebuilt oracle; swap it again behind
        // a wrapper so the new epoch is traced and logged like the first
        let wrapped = Arc::new(TracedOracle::new(service.oracle()));
        let mut ws = hook_wrappers.lock().expect("poisoned by a panic");
        ws.push(wrapped.clone()); // the bare epoch answers like its wrapper
        report.epoch = service.swap_oracle(wrapped.clone());
        ws.push(wrapped);
        Ok(Some(report))
    }));
    // warm-up: a query and a no-op reload over the wire
    let mut c = NetClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    c.query(1, 2).map_err(|e| format!("warm-up query: {e}"))?;
    c.reload().map_err(|e| format!("warm-up reload: {e}"))?;
    Ok(Stack {
        g,
        base,
        dir,
        server,
        wrappers,
        poll_s,
        build_s,
        snapshot_bytes,
    })
}

/// `count` seeded deltas of `DELTA_EDGES` new edges each, applied in
/// order on top of `g`; returns them with the graph after each.
fn deltas(
    g: &CsrGraph,
    count: usize,
    rng: &mut StdRng,
) -> Result<Vec<(GraphDelta, CsrGraph)>, String> {
    let mut present: HashSet<(u32, u32)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
    let mut cur = g.clone();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let mut d = GraphDelta::new(g.n());
        while d.len() < DELTA_EDGES {
            let (u, v) = load::uniform_pair(rng, g.n());
            if present.insert((u.min(v), u.max(v))) {
                let w = rng.random_range(1..=WEIGHT_RATIO as u64);
                d.insert(u, v, w).map_err(|e| format!("delta: {e}"))?;
            }
        }
        cur = cur
            .apply_delta(&d)
            .map_err(|e| format!("apply delta: {e}"))?;
        out.push((d, cur.clone()));
    }
    Ok(out)
}

/// One connection's timetable.
#[derive(Default)]
struct Plan {
    /// Scheduled query times (seconds from the start) with their pairs.
    queries: Vec<(f64, (u32, u32))>,
    /// Scheduled admin operations: a reload (index into the deltas) or a
    /// stats call.
    admin: Vec<(f64, Option<usize>)>,
}

/// What one connection measured.
#[derive(Default)]
struct ConnResult {
    out: Outcome,
    log: QueryLog,
    served: Vec<Served>,
    late: u64,
    reload_s: Vec<f64>,
    append_ms: Vec<f64>,
    stats_ms: Vec<f64>,
}

struct Ctx<'a> {
    journal: PathBuf,
    deltas: &'a [(GraphDelta, CsrGraph)],
    service: &'a OracleService,
    start: Instant,
}

/// Run one connection's timetable: each operation is sent at its
/// scheduled time, or as soon as the previous one returns if that is
/// later.
fn drive(client: &mut NetClient, plan: &Plan, ctx: &Ctx) -> ConnResult {
    let mut r = ConnResult::default();
    let (mut qi, mut ai) = (0, 0);
    let at = |t: f64| ctx.start + Duration::from_secs_f64(t);
    loop {
        let next_admin = plan.admin.get(ai).map_or(f64::INFINITY, |a| a.0);
        let next_query = plan.queries.get(qi).map_or(f64::INFINITY, |q| q.0);
        if next_admin.is_infinite() && next_query.is_infinite() {
            return r;
        }
        if next_admin <= next_query {
            wait_until(at(next_admin));
            match plan.admin[ai].1 {
                Some(k) => reload(client, ctx, k, &mut r),
                None => {
                    let t0 = Instant::now();
                    let reply = trace::in_span("client.stats", 0, 0, || client.server_stats());
                    r.stats_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    r.out
                        .check(reply.is_ok(), || format!("stats call failed: {reply:?}"));
                }
            }
            ai += 1;
            continue;
        }
        let (t, (s, tt)) = plan.queries[qi];
        let due = at(t);
        wait_until(due);
        let lo = ctx.service.epoch();
        let sent = Instant::now();
        if sent.duration_since(due) > LATE {
            r.late += 1;
        }
        let reply = trace::in_span("client.query", 0, pair_key(s, tt), || client.query(s, tt));
        r.out.attempted += 1;
        match reply {
            Ok(a) => {
                // from the scheduled send, so a stall also charges the
                // requests queued behind it
                r.log.record_trip(1, due.elapsed().as_secs_f64() * 1e3);
                r.served.push(Served {
                    s,
                    t: tt,
                    bits: a.distance.to_bits(),
                    epoch_lo: lo,
                    epoch_hi: ctx.service.epoch(),
                });
            }
            Err(e) => r.out.fail(format!("query ({s}, {tt}) failed: {e}")),
        }
        qi += 1;
    }
}

/// Block until `due`: sleep to within [`SPIN`] of it, then spin, so the
/// send time does not carry the scheduler's wake-up delay.
fn wait_until(due: Instant) {
    if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(wait);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Append delta `k` to the journal and ask the server to reload; the
/// reply must report the swap and the mutated edge count.
fn reload(client: &mut NetClient, ctx: &Ctx, k: usize, r: &mut ConnResult) {
    let (delta, after) = &ctx.deltas[k];
    let t0 = Instant::now();
    let appended = trace::in_span("snapshot.append", 0, k as u64, || {
        append_journal(&ctx.journal, delta)
    });
    r.append_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    r.out.attempted += 1;
    if let Err(e) = appended {
        r.out.fail(format!("journal append {k} failed: {e}"));
        return;
    }
    let reply = trace::in_span("client.reload", 0, k as u64, || client.reload());
    r.reload_s.push(t0.elapsed().as_secs_f64());
    match reply {
        Ok(s) if s.swapped && s.m == after.m() as u64 => {}
        other => r.out.fail(format!(
            "reload {k}: {other:?}, want a swap to m = {}",
            after.m()
        )),
    }
}

/// One measured window: both connections' results, its length in
/// seconds, the process CPU milliseconds per answered query, and the
/// deltas it appended (each with the graph after it).
type Measured = (ConnResult, f64, f64, Vec<(GraphDelta, CsrGraph)>);

fn measure(stack: &Stack, args: &Args, window: f64, phase: u64) -> Result<Measured, String> {
    let service = stack.server.service();
    let g_now = current_graph(stack)?;
    let mut rng = load::rng(args.seed, 10 + phase);
    let deltas = deltas(&g_now, RELOADS, &mut rng)?;
    let pool = ZipfPairs::new(N, POOL, ZIPF_THETA, args.seed);
    let mut plans = [Plan::default(), Plan::default()];
    for t in load::poisson_schedule(&mut rng, OFFERED_RATE, window) {
        let conn = usize::from(rng.random::<bool>());
        plans[conn].queries.push((t, pool.draw(&mut rng)));
    }
    let admin = &mut plans[1].admin;
    admin.extend((0..RELOADS).map(|k| (window * (k + 1) as f64 / (RELOADS + 1) as f64, Some(k))));
    admin.extend((1..window as usize + 1).map(|s| (s as f64 - 0.5, None)));
    admin.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut clients = Vec::new();
    for _ in 0..2 {
        clients.push(
            NetClient::connect(stack.server.local_addr()).map_err(|e| format!("connect: {e}"))?,
        );
    }
    let cpu0 = cpu::process_s();
    let ctx = Ctx {
        journal: journal_path(&stack.base),
        deltas: &deltas,
        service,
        start: Instant::now(),
    };
    let conns: Vec<ConnResult> = std::thread::scope(|sc| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&plans)
            .map(|(mut c, plan)| {
                let ctx = &ctx;
                sc.spawn(move || drive(&mut c, plan, ctx))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let secs = ctx.start.elapsed().as_secs_f64();
    let r = merged(conns);
    let per_op = (cpu::process_s() - cpu0) * 1e3 / r.log.answered.max(1) as f64;
    Ok((r, secs, per_op, deltas))
}

/// The graph the service answers for now: the base plus every delta
/// the journal holds.
fn current_graph(stack: &Stack) -> Result<CsrGraph, String> {
    match psh_core::snapshot::journal::load_journal(journal_path(&stack.base)) {
        Ok((_, ds)) => {
            psh_core::snapshot::journal::apply_deltas(&stack.g, &ds).map_err(|e| e.to_string())
        }
        Err(_) => Ok(stack.g.clone()),
    }
}

/// Both connections' results as one.
fn merged(conns: Vec<ConnResult>) -> ConnResult {
    let mut all = ConnResult::default();
    for c in conns {
        merge_outcome(&mut all.out, c.out);
        all.log.merge(c.log);
        all.served.extend(c.served);
        all.late += c.late;
        all.reload_s.extend(c.reload_s);
        all.append_ms.extend(c.append_ms);
        all.stats_ms.extend(c.stats_ms);
    }
    all
}

/// The `serve-mixed` workload.
pub fn run(args: &Args, out: &mut Outcome, vals: &mut Values) -> Result<(), String> {
    let mut build_times = Vec::new();
    trace::set_enabled(args.trace);
    let (stack, setup_s) = repeated_setup(setup_reps(args), || {
        let st = stand_up(args)?;
        build_times.push(st.build_s);
        Ok(st)
    })?;
    trace::set_enabled(false);
    vals.insert("oracle.build_s", median(&build_times));
    let service = Arc::clone(stack.server.service());

    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut plain_per_op = None;
    if args.trace {
        let (plain, secs, per_op, _) = measure(&stack, args, window, 0)?;
        merge_outcome(out, plain.out);
        check_served(
            &plain.served,
            &stack.wrappers.lock().expect("poisoned by a panic"),
            out,
        );
        vals.insert("wall.throughput", plain.log.qps(secs));
        vals.insert("wall.p50_ms", plain.log.p50_ms());
        vals.insert("wall.p99_ms", plain.log.p99_ms());
        plain_per_op = Some(per_op);
        trace::set_enabled(true);
    }
    service.reset_stats();
    alloc::reset_peak();
    // drop the set-up's and the untraced window's samples
    for w in stack.wrappers.lock().expect("poisoned by a panic").iter() {
        w.take_cpu_ms();
    }
    let (mut r, secs, per_op, deltas) = measure(&stack, args, window, 1)?;
    let peak = alloc::peak_bytes() as f64;
    let sstats = service.stats();
    merge_outcome(out, std::mem::take(&mut r.out));
    let wrappers = stack.wrappers.lock().expect("poisoned by a panic").clone();
    // computed (not cached) queries only; a wrapper sits in the list once
    // per epoch it served, so each is drained once
    let query_cpu_ms: Vec<f64> = wrappers.iter().flat_map(|w| w.take_cpu_ms()).collect();
    check_served(&r.served, &wrappers, out);

    // the final epoch against a fresh build of the final graph
    let final_graph = &deltas.last().expect("at least one reload").1;
    let fresh = build(final_graph)?;
    let last = wrappers.last().expect("epoch 0");
    let pool = ZipfPairs::new(N, POOL, ZIPF_THETA, args.seed);
    let mut rng = load::rng(args.seed, 3);
    let pairs: Vec<_> = (0..PROBE_PAIRS).map(|_| pool.draw(&mut rng)).collect();
    let probe_vals = if args.trace { Some(&mut *vals) } else { None };
    oracle_probe(
        &**last.inner(),
        &fresh.artifact,
        None,
        final_graph,
        &pairs,
        ORACLE_STRETCH,
        out,
        probe_vals,
    );
    eprintln!(
        "perfbench: serve-mixed answered {} queries in {:.2} s (wall p50 {:.3} ms, p99 {:.3} ms; \
         {} late, {} reloads, epoch {})",
        r.log.answered,
        secs,
        r.log.p50_ms(),
        r.log.p99_ms(),
        r.late,
        r.reload_s.len(),
        service.epoch()
    );

    if let Some(plain) = plain_per_op {
        trace::set_enabled(false);
        let spans = trace::take();
        span_metrics(&spans, vals);
        service_metrics(&sstats, vals);
        net_metrics(&sstats, &stack.server.stats(), vals);
        vals.insert("trace.overhead", per_op / plain - 1.0);
        vals.insert("service.stats_call_ms", median(&r.stats_ms));
        vals.insert("snapshot.append_ms", median(&r.append_ms));
        vals.insert("snapshot.reload_s", median(&r.reload_s));
        vals.insert(
            "snapshot.reload_poll_s",
            median(&stack.poll_s.lock().expect("poisoned by a panic")),
        );
        super::snapshot_metrics(&spans, vals);
        vals.insert("hopset.edges", last.descriptor().hopset_edges as f64);
        vals.insert(
            "loadgen.late_frac",
            r.late as f64 / r.log.answered.max(1) as f64,
        );
        vals.insert("loadgen.offered_rate", OFFERED_RATE);
        trace::write_tsv(&trace_path(args), &spans).map_err(|e| format!("write spans: {e}"))?;
    } else {
        vals.insert("setup_s", setup_s);
        vals.insert("cpu_per_op_ms", per_op);
        vals.insert("cpu_p50_ms", percentile(&query_cpu_ms, 50.0));
        vals.insert("cpu_p90_ms", percentile(&query_cpu_ms, 90.0));
        vals.insert("peak_bytes", peak);
        vals.insert("snapshot_bytes", stack.snapshot_bytes);
    }
    let dir = stack.dir.clone();
    drop(stack);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    vals.insert("correct_frac", out.correct_frac());
    Ok(())
}
