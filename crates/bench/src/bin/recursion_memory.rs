//! E18 — deep-recursion memory: arena-backed views vs per-cluster
//! materialization in the Algorithm 4 recursion.
//!
//! Builds the same seeded hopset twice on an `n ≥ 100k` workload — once
//! with `SplitStrategy::Materialize` (the legacy path: a fresh `CsrGraph`
//! per cluster per level) and once with `SplitStrategy::Arena` (borrowed
//! `CsrView`s over reused per-level scratch arenas) — under both
//! `ExecutionPolicy::Sequential` and `Parallel`, and reports wall-clock
//! and **peak allocated bytes** measured by a counting global allocator.
//!
//! Exits non-zero if
//!
//! * any strategy/policy combination produces a different artifact or
//!   Cost than the sequential materializing reference (the tentpole's
//!   byte-identity contract), or
//! * the arena path fails to allocate strictly fewer peak bytes than the
//!   materializing path on the sequential run (the whole point of the
//!   refactor; the sequential pair is compared because parallel peaks
//!   depend on scheduling overlap).
//!
//! Usage: `cargo run --release -p psh-bench --bin recursion_memory \
//!             [--n N] [--threads K] [--json PATH]`

use psh_bench::alloc::{live_bytes, peak_above, reset_peak, CountingAlloc};
use psh_bench::json::parse_flag;
use psh_bench::table::{fmt_f, fmt_u, Table};
use psh_bench::Report;
use psh_core::hopset::unweighted::build_hopset_with_strategy_on;
use psh_core::hopset::SplitStrategy;
use psh_core::{Hopset, HopsetParams};
use psh_exec::{ExecutionPolicy, Executor};
use psh_graph::generators;
use psh_pram::Cost;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Measured {
    hopset: Hopset,
    cost: Cost,
    wall_s: f64,
    peak_bytes: usize,
}

fn run(
    g: &psh_graph::CsrGraph,
    params: &HopsetParams,
    beta0: f64,
    policy: ExecutionPolicy,
    strategy: SplitStrategy,
) -> Measured {
    // Warm the executor pool outside the measured window so thread-stack
    // and pool bookkeeping allocations don't pollute the comparison. Each
    // build owns its split scratch and frees it on return, so no run
    // inherits another's arenas.
    let exec = Executor::new(policy);
    exec.par_map(&[0u32; 64], 1, |&x| x);
    let base = live_bytes();
    reset_peak();
    let start = Instant::now();
    let (hopset, cost) = build_hopset_with_strategy_on(
        &exec,
        g,
        params,
        beta0,
        strategy,
        &mut StdRng::seed_from_u64(7),
    );
    let wall_s = start.elapsed().as_secs_f64();
    let peak_bytes = peak_above(base);
    Measured {
        hopset,
        cost,
        wall_s,
        peak_bytes,
    }
}

fn main() {
    let n: usize = parse_flag("--n")
        .and_then(|s| s.parse().ok())
        .unwrap_or(120_000);
    // Parallel-leg width: --threads wins; otherwise PSH_THREADS (the CI
    // matrix variable, floored at 2 so the leg stays parallel); else 4.
    let threads: usize = parse_flag("--threads")
        .and_then(|s| s.parse().ok())
        .or_else(|| {
            std::env::var("PSH_THREADS")
                .ok()
                .and_then(|s| s.parse().ok())
                .map(|t: usize| t.max(2))
        })
        .unwrap_or(4);
    let mut report = Report::from_args("recursion_memory");

    // Deep-recursion workload: sparse connected random graph. Small
    // gamma1 keeps the base case tiny so the recursion actually goes deep.
    let mut rng = StdRng::seed_from_u64(20150625);
    let g = generators::connected_random(n, 2 * n, &mut rng);
    let params = HopsetParams {
        epsilon: 0.5,
        delta: 1.5,
        gamma1: 0.2,
        gamma2: 0.75,
        k_conf: 1.0,
    };
    let beta0 = params.beta0(g.n());

    println!(
        "# recursion_memory — Algorithm 4 split strategies on n={} m={} (β₀={beta0:.2e})\n",
        g.n(),
        g.m()
    );

    let combos = [
        ("seq", ExecutionPolicy::Sequential),
        ("par", ExecutionPolicy::Parallel { threads }),
    ];
    let mut t = Table::new([
        "policy",
        "strategy",
        "wall-clock (s)",
        "peak bytes",
        "peak vs legacy",
        "identical",
    ]);
    let mut failures = 0usize;
    let mut seq_peaks = (0usize, 0usize); // (legacy, arena)
    let mut reference: Option<(Hopset, Cost)> = None;

    for (pname, policy) in combos {
        let legacy = run(&g, &params, beta0, policy, SplitStrategy::Materialize);
        let arena = run(&g, &params, beta0, policy, SplitStrategy::Arena);
        let reference = reference.get_or_insert_with(|| (legacy.hopset.clone(), legacy.cost));
        if pname == "seq" {
            seq_peaks = (legacy.peak_bytes, arena.peak_bytes);
        }
        for (sname, m) in [("materialize", &legacy), ("arena", &arena)] {
            let identical = m.hopset == reference.0 && m.cost == reference.1;
            if !identical {
                failures += 1;
            }
            t.row([
                pname.to_string(),
                sname.to_string(),
                fmt_f(m.wall_s),
                fmt_u(m.peak_bytes as u64),
                format!(
                    "{:.2}x",
                    m.peak_bytes as f64 / legacy.peak_bytes.max(1) as f64
                ),
                if identical { "yes" } else { "MISMATCH" }.to_string(),
            ]);
            report
                .meta(&format!("wall_s_{pname}_{sname}"), m.wall_s)
                .meta(&format!("peak_bytes_{pname}_{sname}"), m.peak_bytes as u64);
        }
    }
    t.print();

    let (legacy_peak, arena_peak) = seq_peaks;
    println!(
        "\nhopset: {} edges | sequential peak: arena {} vs materialize {} ({:.1}% saved)",
        reference.as_ref().map_or(0, |(h, _)| h.size()),
        fmt_u(arena_peak as u64),
        fmt_u(legacy_peak as u64),
        100.0 * (1.0 - arena_peak as f64 / legacy_peak.max(1) as f64),
    );

    if failures > 0 {
        eprintln!("recursion_memory: {failures} strategy/policy combination(s) diverged");
    }
    if arena_peak >= legacy_peak {
        eprintln!(
            "recursion_memory: arena path peak {arena_peak} B is not strictly below the \
             materializing path's {legacy_peak} B"
        );
        failures += 1;
    }

    report
        .meta("n", g.n())
        .meta("m", g.m())
        .meta("threads", threads as u64)
        .meta(
            "hopset_edges",
            reference.as_ref().map_or(0, |(h, _)| h.size()) as u64,
        )
        .meta("failures", failures as u64);
    report.push_table("recursion_memory", &t);
    report.finish();

    if failures > 0 {
        std::process::exit(1);
    }
}
