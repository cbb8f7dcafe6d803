//! `serve-grid`: wire queries on a 150×150 king-move grid served from an
//! mmap-opened v2 snapshot.
//!
//! Set-up builds the unweighted oracle, saves it as v2, opens it by mmap,
//! and serves it from an in-process `NetServer` on loopback (cache off).
//! Two `NetClient` connections then send uniform single-pair queries in a
//! closed loop. The traced run also probes the shard layer
//! ([`super::shard_layer`]). Per-query CPU time comes from the wrapper the
//! service is built over; CPU per query from the process clock over the
//! whole window, client and server together.

use super::{
    check_served, closed_loop, net_metrics, oracle_probe, repeated_setup, scratch_dir,
    service_metrics, setup_reps, snapshot_metrics, span_metrics, timed, trace_path, Args, Values,
    PARALLEL, POLICY,
};
use crate::alloc;
use crate::check::ORACLE_STRETCH;
use crate::cpu;
use crate::load;
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace;
use crate::traced_oracle::TracedOracle;
use psh_core::service::{OracleService, ServiceConfig};
use psh_core::snapshot::v2::{load_oracle_v2, save_oracle_v2};
use psh_core::snapshot::OracleMeta;
use psh_core::{ApproxShortestPaths, HopsetParams, OracleBuilder};
use psh_exec::ExecutionPolicy;
use psh_graph::{generators, CsrGraph, LoadMode};
use psh_net::client::NetClient;
use psh_net::{NetServer, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;

const SIDE: usize = 150;
/// Connections driving the closed loop.
const CLIENTS: usize = 2;
/// Pairs checked against Dijkstra and the in-process build.
const PROBE_PAIRS: usize = 16;

/// A live serving stack.
struct Stack {
    g: CsrGraph,
    /// The in-process build the snapshot was written from.
    built: ApproxShortestPaths,
    /// The mmap-opened snapshot being served.
    mapped: Arc<ApproxShortestPaths>,
    wrapper: Arc<TracedOracle>,
    server: NetServer,
    dir: PathBuf,
    build_s: f64,
    snapshot_bytes: f64,
}

fn stand_up(args: &Args) -> Result<Stack, String> {
    let g = generators::grid2d(SIDE, SIDE);
    let (run, build_s) = cpu::timed(|| {
        trace::in_span("build.oracle", 0, 0, || {
            OracleBuilder::new().execution(POLICY).build(&g)
        })
    });
    let run = run.map_err(|e| format!("oracle build: {e}"))?;
    let dir = scratch_dir(args)?;
    let path = dir.join("oracle.v2");
    let meta = OracleMeta::of_run(&run, HopsetParams::default());
    trace::in_span("snapshot.save", 0, 0, || {
        save_oracle_v2(&path, &run.artifact, &meta)
    })
    .map_err(|e| format!("save snapshot: {e}"))?;
    let snapshot_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64;
    let (mapped, _) = trace::in_span("snapshot.open", 0, 0, || {
        load_oracle_v2(&path, LoadMode::Mmap)
    })
    .map_err(|e| format!("open snapshot: {e}"))?;
    trace::in_span("snapshot.first_query", 0, 0, || {
        mapped.query(0, (g.n() - 1) as u32)
    });
    let mapped = Arc::new(mapped);
    let wrapper = Arc::new(TracedOracle::new(mapped.clone()));
    let service = OracleService::from_arc(
        wrapper.clone(),
        ServiceConfig {
            policy: POLICY,
            max_batch: 256,
            cache: None,
        },
    );
    let server = NetServer::bind("127.0.0.1:0", Arc::new(service), ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    // warm-up: one query over the wire on a fresh connection
    NetClient::connect(server.local_addr())
        .and_then(|mut c| c.query(1, 2))
        .map_err(|e| format!("warm-up query: {e}"))?;
    Ok(Stack {
        g,
        built: run.artifact,
        mapped,
        wrapper,
        server,
        dir,
        build_s,
        snapshot_bytes,
    })
}

/// The `serve-grid` workload.
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
    let n = stack.g.n();
    let pair_of = |rng: &mut rand::rngs::StdRng| load::uniform_pair(rng, n);
    let addr = stack.server.local_addr();
    let connect = || -> Result<Vec<NetClient>, String> {
        (0..CLIENTS)
            .map(|_| NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}")))
            .collect()
    };
    let ask = |c: &mut NetClient, s, t| {
        let lo = service.epoch();
        let r = c.query(s, t).map_err(|e| e.to_string())?;
        Ok((r, lo, service.epoch()))
    };

    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // CPU milliseconds per answered query over a closed-loop window
    let per_op = |cpu_s: f64, answered: u64| cpu_s * 1e3 / answered.max(1) as f64;
    let plain = if args.trace {
        let c0 = cpu::process_s();
        let (o, log, served, secs) = closed_loop(connect()?, window, args.seed, &pair_of, &ask);
        let plain_per_op = per_op(cpu::process_s() - c0, log.answered);
        super::merge_outcome(out, o);
        check_served(&served, std::slice::from_ref(&stack.wrapper), out);
        vals.insert("wall.throughput", log.qps(secs));
        vals.insert("wall.p50_ms", log.p50_ms());
        vals.insert("wall.p99_ms", log.p99_ms());
        trace::set_enabled(true);
        Some(plain_per_op)
    } else {
        None
    };
    service.reset_stats();
    alloc::reset_peak();
    // drop the set-up's and the untraced window's samples
    stack.wrapper.take_cpu_ms();
    let c0 = cpu::process_s();
    let (o, log, served, secs) = closed_loop(connect()?, window, args.seed ^ 1, &pair_of, &ask);
    let window_per_op = per_op(cpu::process_s() - c0, log.answered);
    let query_cpu_ms = stack.wrapper.take_cpu_ms();
    let peak = alloc::peak_bytes() as f64;
    super::merge_outcome(out, o);
    let sstats = service.stats();

    let mut rng = load::rng(args.seed, 3);
    let pairs: Vec<_> = (0..PROBE_PAIRS)
        .map(|_| load::uniform_pair(&mut rng, n))
        .collect();
    if let Some(plain_per_op) = plain {
        vals.insert("trace.overhead", window_per_op / plain_per_op - 1.0);
        oracle_probe(
            &*stack.mapped,
            &stack.built,
            stack.mapped.hop_budget(),
            &stack.g,
            &pairs,
            ORACLE_STRETCH,
            out,
            Some(vals),
        );
        // one coalesced batch of the probe pairs, on one thread vs on the pool
        let batch = |p| timed(|| stack.mapped.query_batch(&pairs, p));
        let ((seq, _), seq_s) = batch(ExecutionPolicy::Sequential);
        let ((par, _), par_s) = batch(PARALLEL);
        out.check(seq == par, || {
            "query_batch answers differ across policies".into()
        });
        vals.insert("exec.batch_speedup", seq_s / par_s);
        vals.insert("hopset.edges", stack.mapped.hopset_size() as f64);
        super::shard_layer::probe(args.seed, out, vals)?;
        trace::set_enabled(false);
        let spans = trace::take();
        span_metrics(&spans, vals);
        service_metrics(&sstats, vals);
        net_metrics(&sstats, &stack.server.stats(), vals);
        snapshot_metrics(&spans, vals);
        trace::write_tsv(&trace_path(args), &spans).map_err(|e| format!("write spans: {e}"))?;
    } else {
        oracle_probe(
            &*stack.mapped,
            &stack.built,
            stack.mapped.hop_budget(),
            &stack.g,
            &pairs,
            ORACLE_STRETCH,
            out,
            None,
        );
        vals.insert("setup_s", setup_s);
        vals.insert("cpu_per_op_ms", window_per_op);
        vals.insert("cpu_p50_ms", percentile(&query_cpu_ms, 50.0));
        vals.insert("cpu_p90_ms", percentile(&query_cpu_ms, 90.0));
        vals.insert("peak_bytes", peak);
        vals.insert("snapshot_bytes", stack.snapshot_bytes);
    }
    check_served(&served, std::slice::from_ref(&stack.wrapper), out);
    out.check(sstats.served >= log.answered, || {
        format!(
            "service served {} queries, clients received {}",
            sstats.served, log.answered
        )
    });
    eprintln!(
        "perfbench: serve-grid answered {} queries in {secs:.2} s (wall p50 {:.3} ms, p99 {:.3} ms)",
        log.answered,
        log.p50_ms(),
        log.p99_ms()
    );
    let dir = stack.dir.clone();
    drop(stack);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    vals.insert("correct_frac", out.correct_frac());
    Ok(())
}
