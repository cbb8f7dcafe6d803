//! `build-grid`: repeated preprocessing of a 250×250 king-move grid.
//!
//! Each timed iteration builds the unweighted 4-spanner of the unit-weight
//! grid, the weighted 4-spanner of its log-uniform reweighting (ratio 64),
//! and the weighted oracle, all under [`POLICY`]. No queries are timed.
//! Each build is timed by the process CPU clock and, for the per-layer
//! report, by the wall clock.

use super::{repeated_setup, setup_reps, timed, trace_path, Args, Values, PARALLEL, POLICY};
use crate::alloc;
use crate::check::sampled_edge_stretch;
use crate::cpu;
use crate::load;
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace;
use psh_cluster::ClusterBuilder;
use psh_core::snapshot::v2::{load_oracle_v2, save_oracle_v2};
use psh_core::snapshot::OracleMeta;
use psh_core::spanner::unweighted::beta_for;
use psh_core::{
    ApproxShortestPaths, HopsetBuilder, HopsetParams, OracleBuilder, Run, Spanner, SpannerBuilder,
};
use psh_graph::{generators, CsrGraph, LoadMode};
use std::time::Instant;

const SIDE: usize = 250;
const WEIGHT_RATIO: f64 = 64.0;
/// Spanner stretch parameter `k`.
const K: f64 = 4.0;
/// Band exponent of the weighted oracle (the `OracleBuilder` default).
const ETA: f64 = 0.5;

struct Inputs {
    unit: CsrGraph,
    weighted: CsrGraph,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let unit = generators::grid2d(SIDE, SIDE);
        let weighted =
            generators::with_log_uniform_weights(&unit, WEIGHT_RATIO, &mut load::rng(seed, 1));
        Inputs { unit, weighted }
    }
}

/// One iteration's artifacts.
struct Built {
    spanner_u: Run<Spanner>,
    spanner_w: Run<Spanner>,
    oracle: Run<ApproxShortestPaths>,
}

/// One iteration's timings (CPU seconds unless named `wall`) and peak
/// heap.
struct IterStats {
    spanner_u_s: f64,
    spanner_w_s: f64,
    oracle_s: f64,
    total_s: f64,
    oracle_wall_s: f64,
    total_wall_s: f64,
    peak: f64,
}

fn iteration(inp: &Inputs) -> Result<(Built, IterStats), String> {
    alloc::reset_peak();
    let t0 = Instant::now();
    let c0 = cpu::process_s();
    let (spanner_u, spanner_u_s) = cpu::timed(|| {
        trace::in_span("build.spanner_u", 0, 0, || {
            SpannerBuilder::unweighted(K)
                .execution(POLICY)
                .build(&inp.unit)
        })
    });
    let (spanner_w, spanner_w_s) = cpu::timed(|| {
        trace::in_span("build.spanner_w", 0, 0, || {
            SpannerBuilder::weighted(K)
                .execution(POLICY)
                .build(&inp.weighted)
        })
    });
    let w0 = Instant::now();
    let (oracle, oracle_s) = cpu::timed(|| {
        trace::in_span("build.oracle", 0, 0, || {
            OracleBuilder::new().execution(POLICY).build(&inp.weighted)
        })
    });
    let oracle_wall_s = w0.elapsed().as_secs_f64();
    let total_s = cpu::process_s() - c0;
    let total_wall_s = t0.elapsed().as_secs_f64();
    let built = Built {
        spanner_u: spanner_u.map_err(|e| format!("unweighted spanner: {e}"))?,
        spanner_w: spanner_w.map_err(|e| format!("weighted spanner: {e}"))?,
        oracle: oracle.map_err(|e| format!("oracle build: {e}"))?,
    };
    let stats = IterStats {
        spanner_u_s,
        spanner_w_s,
        oracle_s,
        total_s,
        oracle_wall_s,
        total_wall_s,
        peak: alloc::peak_bytes() as f64,
    };
    Ok((built, stats))
}

/// What [`measure`] returns: the last iteration's artifacts, every
/// iteration's figures, and the window's wall and process CPU seconds.
type Measured = (Built, Vec<IterStats>, f64, f64);

/// Iterate for `seconds` of wall time (at least two iterations). Every
/// iteration must rebuild artifacts of the same size (same seed, same
/// bytes).
fn measure(inp: &Inputs, seconds: f64, out: &mut Outcome) -> Result<Measured, String> {
    let start = Instant::now();
    let cpu0 = cpu::process_s();
    let mut iters = Vec::new();
    let mut last: Option<Built> = None;
    let mut sizes = None;
    while iters.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        // free the previous artifacts first: the peak covers one iteration
        drop(last.take());
        out.attempted += 3;
        let (built, st) = iteration(inp)?;
        let got = (
            built.spanner_u.artifact.size(),
            built.spanner_w.artifact.size(),
            built.oracle.artifact.hopset_size(),
        );
        let want = *sizes.get_or_insert(got);
        out.check(got == want, || {
            format!(
                "iteration {} built sizes {got:?}, the first built {want:?}",
                iters.len()
            )
        });
        iters.push(st);
        last = Some(built);
    }
    Ok((
        last.expect("two iterations"),
        iters,
        start.elapsed().as_secs_f64(),
        cpu::process_s() - cpu0,
    ))
}

/// Outside the timed window: subgraph and sampled-stretch checks on the
/// spanners, and the snapshot round trip of the oracle (the reopened copy
/// must have the built n, m and hopset size). No oracle query is checked
/// here: one weighted query at this n takes seconds, and the serving
/// workloads check answers. Returns the snapshot size in bytes.
fn verify(args: &Args, inp: &Inputs, built: &Built, out: &mut Outcome) -> Result<f64, String> {
    let (su, sw) = (&built.spanner_u.artifact, &built.spanner_w.artifact);
    out.check(su.is_subgraph_of(&inp.unit), || {
        "unweighted spanner is not a subgraph".into()
    });
    out.check(sw.is_subgraph_of(&inp.weighted), || {
        "weighted spanner is not a subgraph".into()
    });
    let mut rng = load::rng(args.seed, 2);
    let stretch_u = sampled_edge_stretch(&inp.unit, &su.as_graph(), 64, &mut rng);
    out.check(stretch_u <= 8.0 * K + 2.0, || {
        format!("unweighted spanner edge stretch {stretch_u} > 8k+2")
    });
    let stretch_w = sampled_edge_stretch(&inp.weighted, &sw.as_graph(), 64, &mut rng);
    out.check(stretch_w <= 16.0 * K + 4.0, || {
        format!("weighted spanner edge stretch {stretch_w} > 16k+4")
    });

    let oracle = &built.oracle;
    let dir = super::scratch_dir(args)?;
    let path = dir.join("oracle.v2");
    let meta = OracleMeta::of_run(oracle, HopsetParams::default());
    trace::in_span("snapshot.save", 0, 0, || {
        save_oracle_v2(&path, &oracle.artifact, &meta)
    })
    .map_err(|e| format!("save snapshot: {e}"))?;
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64;
    let (mapped, _) = trace::in_span("snapshot.open", 0, 0, || {
        load_oracle_v2(&path, LoadMode::Mmap)
    })
    .map_err(|e| format!("open snapshot: {e}"))?;
    let shape = |o: &ApproxShortestPaths| (o.graph().n(), o.graph().m(), o.hopset_size());
    out.check(shape(&mapped) == shape(&oracle.artifact), || {
        format!(
            "reopened snapshot has (n, m, hopset) {:?}, built {:?}",
            shape(&mapped),
            shape(&oracle.artifact)
        )
    });
    drop(mapped);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok(bytes)
}

/// The `build-grid` workload.
pub fn run(args: &Args, out: &mut Outcome, vals: &mut Values) -> Result<(), String> {
    let (inp, setup_s) = repeated_setup(setup_reps(args), || {
        let inp = Inputs::generate(args.seed);
        // spin up the psh-exec pool before anything is timed
        OracleBuilder::new()
            .execution(POLICY)
            .build(&generators::grid2d(40, 40))
            .map_err(|e| format!("warm-up build: {e}"))?;
        Ok(inp)
    })?;

    if !args.trace {
        let (built, iters, window, window_cpu) = measure(&inp, args.seconds, out)?;
        let totals_ms = col(&iters, |i| i.total_s * 1e3);
        let walls_ms = col(&iters, |i| i.total_wall_s * 1e3);
        eprintln!(
            "perfbench: build-grid ran {} iterations in {window:.2} s (wall p50 {:.3} ms)",
            iters.len(),
            percentile(&walls_ms, 50.0)
        );
        vals.insert("setup_s", setup_s);
        vals.insert("cpu_per_op_ms", window_cpu * 1e3 / iters.len() as f64);
        vals.insert("cpu_p50_ms", percentile(&totals_ms, 50.0));
        vals.insert("cpu_p90_ms", percentile(&totals_ms, 90.0));
        vals.insert("peak_bytes", median(&col(&iters, |i| i.peak)));
        let bytes = verify(args, &inp, &built, out)?;
        vals.insert("snapshot_bytes", bytes);
        vals.insert("correct_frac", out.correct_frac());
        return Ok(());
    }

    // traced run: half the window untraced, half traced, then the layer
    // probes (also traced) and the checks
    let (_, plain, plain_window, _) = measure(&inp, args.seconds / 2.0, out)?;
    let plain_wall_ms = col(&plain, |i| i.total_wall_s * 1e3);
    vals.insert("wall.throughput", plain.len() as f64 / plain_window);
    vals.insert("wall.p50_ms", percentile(&plain_wall_ms, 50.0));
    vals.insert("wall.p99_ms", percentile(&plain_wall_ms, 99.0));
    trace::set_enabled(true);
    let (built, iters, _, _) = measure(&inp, args.seconds / 2.0, out)?;
    let p50 = |it: &[IterStats]| median(&col(it, |i| i.total_s));
    vals.insert("trace.overhead", p50(&iters) / p50(&plain) - 1.0);
    vals.insert("oracle.build_s", median(&col(&iters, |i| i.oracle_s)));
    vals.insert("spanner.u_s", median(&col(&iters, |i| i.spanner_u_s)));
    vals.insert("spanner.w_s", median(&col(&iters, |i| i.spanner_w_s)));
    let spanner_cost = built.spanner_u.cost.then(built.spanner_w.cost);
    vals.insert("spanner.work", spanner_cost.work as f64);
    vals.insert("spanner.depth", spanner_cost.depth as f64);
    vals.insert("spanner.edges_u", built.spanner_u.artifact.size() as f64);
    vals.insert("spanner.edges_w", built.spanner_w.artifact.size() as f64);

    // the clustering the unweighted spanner starts from, on its own
    let (cluster, cluster_s) = cpu::timed(|| {
        trace::in_span("build.cluster", 0, 0, || {
            ClusterBuilder::new(beta_for(inp.unit.n(), K))
                .execution(POLICY)
                .build(&inp.unit)
        })
    });
    let cluster = cluster.map_err(|e| format!("clustering: {e}"))?;
    vals.insert("cluster.s", cluster_s);
    vals.insert("cluster.work", cluster.cost.work as f64);
    vals.insert("cluster.depth", cluster.cost.depth as f64);
    drop(cluster);

    // the oracle's hopsets, on their own
    let (hopset, hopset_s) = cpu::timed(|| {
        trace::in_span("build.hopset", 0, 0, || {
            HopsetBuilder::weighted(ETA)
                .execution(POLICY)
                .build(&inp.weighted)
        })
    });
    let hopset = hopset.map_err(|e| format!("hopset build: {e}"))?;
    out.check(
        hopset.artifact.size() == built.oracle.artifact.hopset_size(),
        || "the standalone hopset build differs in size from the oracle's".into(),
    );
    vals.insert("hopset.s", hopset_s);
    vals.insert("hopset.work", hopset.cost.work as f64);
    vals.insert("hopset.depth", hopset.cost.depth as f64);
    vals.insert("hopset.edges", hopset.artifact.size() as f64);
    drop(hopset);

    // the same oracle build on the two-thread pool
    let (par, par_s) = timed(|| {
        trace::in_span("build.oracle_par", 0, 0, || {
            OracleBuilder::new()
                .execution(PARALLEL)
                .build(&inp.weighted)
        })
    });
    let par = par.map_err(|e| format!("parallel oracle build: {e}"))?;
    out.check(par.cost == built.oracle.cost, || {
        "sequential and parallel oracle builds report different costs".into()
    });
    drop(par);
    vals.insert(
        "exec.build_speedup",
        median(&col(&iters, |i| i.oracle_wall_s)) / par_s,
    );

    verify(args, &inp, &built, out)?;
    trace::set_enabled(false);
    let spans = trace::take();
    super::snapshot_metrics(&spans, vals);
    vals.insert("trace.spans", spans.len() as f64);
    trace::write_tsv(&trace_path(args), &spans).map_err(|e| format!("write spans: {e}"))?;
    Ok(())
}

fn col(iters: &[IterStats], f: impl Fn(&IterStats) -> f64) -> Vec<f64> {
    iters.iter().map(f).collect()
}
