//! E18 — deep-recursion memory of the Algorithm 4 recursion.
//!
//! Builds the same seeded hopset on an `n ≥ 100k` workload under
//! `ExecutionPolicy::Sequential` and `Parallel`, each recursion level
//! splitting its piece into borrowed `CsrView`s over reused per-level
//! scratch arenas, and reports wall-clock and **peak allocated bytes**
//! measured by a counting global allocator.
//!
//! Exits non-zero if the parallel build produces a different artifact or
//! Cost than the sequential one (the policy byte-identity contract).
//!
//! Usage: `cargo run --release -p psh-bench --bin recursion_memory \
//!             [--n N] [--threads K] [--json PATH]`

use psh_bench::alloc::{live_bytes, peak_above, reset_peak, CountingAlloc};
use psh_bench::json::parse_flag;
use psh_bench::table::{fmt_f, fmt_u, Table};
use psh_bench::Report;
use psh_core::hopset::unweighted::build_hopset_with_beta0_on;
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
) -> Measured {
    // Warm the executor pool outside the measured window so thread-stack
    // and pool bookkeeping allocations don't pollute the measurement. Each
    // build owns its split scratch and frees it on return, so no run
    // inherits another's arenas.
    let exec = Executor::new(policy);
    exec.par_map(&[0u32; 64], 1, |&x| x);
    let base = live_bytes();
    reset_peak();
    let start = Instant::now();
    let (hopset, cost) =
        build_hopset_with_beta0_on(&exec, g, params, beta0, &mut StdRng::seed_from_u64(7));
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
        "# recursion_memory — Algorithm 4 arena recursion on n={} m={} (β₀={beta0:.2e})\n",
        g.n(),
        g.m()
    );

    let mut t = Table::new(["policy", "wall-clock (s)", "peak bytes", "identical"]);
    let seq = run(&g, &params, beta0, ExecutionPolicy::Sequential);
    let par = run(&g, &params, beta0, ExecutionPolicy::Parallel { threads });
    let identical = par.hopset == seq.hopset && par.cost == seq.cost;
    for (pname, m) in [("seq", &seq), ("par", &par)] {
        let verdict = if pname == "seq" {
            "reference"
        } else if identical {
            "yes"
        } else {
            "MISMATCH"
        };
        t.row([
            pname.to_string(),
            fmt_f(m.wall_s),
            fmt_u(m.peak_bytes as u64),
            verdict.to_string(),
        ]);
        report
            .meta(&format!("wall_s_{pname}"), m.wall_s)
            .meta(&format!("peak_bytes_{pname}"), m.peak_bytes as u64);
    }
    t.print();
    println!("\nhopset: {} edges | {}", seq.hopset.size(), seq.cost);

    let failures = usize::from(!identical);
    if failures > 0 {
        eprintln!(
            "recursion_memory: the Parallel{{{threads}}} build diverged from the sequential one"
        );
    }

    report
        .meta("n", g.n())
        .meta("m", g.m())
        .meta("threads", threads as u64)
        .meta("hopset_edges", seq.hopset.size() as u64)
        .meta("failures", failures as u64);
    report.push_table("recursion_memory", &t);
    report.finish();

    if failures > 0 {
        std::process::exit(1);
    }
}
