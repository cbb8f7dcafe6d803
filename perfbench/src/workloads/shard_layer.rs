//! The shard layer, probed from the traced `serve-grid` run.
//!
//! A stitched query runs one oracle query per boundary vertex of each
//! endpoint's shard, so its cost explodes with n. The probe therefore
//! uses its own small input: `ShardedOracleBuilder::new(4)` (no candidate
//! cap) over a 12×12 king-move grid. Its answers on a seeded sample are
//! checked bitwise against an independent build and against Dijkstra with
//! the 3× composed bound.

use super::{oracle_probe, timed, Values, POLICY};
use crate::check::SHARD_STRETCH;
use crate::load;
use crate::report::Outcome;
use crate::stats::median;
use crate::trace;
use crate::traced_oracle::pair_key;
use psh_core::{OracleBuilder, ShardedOracle, ShardedOracleBuilder};
use psh_graph::generators;

const SIDE: usize = 12;
const SHARDS: usize = 4;
const PROBE_PAIRS: usize = 16;

/// Fill the `shard.*` metrics: boundary size, boundary legs per query,
/// the time of one leg, of one stitched query and of the same pair on a
/// monolithic oracle, and the largest stretch seen.
pub fn probe(seed: u64, out: &mut Outcome, vals: &mut Values) -> Result<(), String> {
    let g = generators::grid2d(SIDE, SIDE);
    let build = || -> Result<ShardedOracle, String> {
        let run = ShardedOracleBuilder::new(SHARDS)
            .execution(POLICY)
            .build(&g)
            .map_err(|e| format!("sharded build: {e}"))?;
        Ok(run.artifact)
    };
    let sharded = trace::in_span("build.sharded", 0, 0, build)?;
    let reference = build()?;
    let mono = OracleBuilder::new()
        .execution(POLICY)
        .build(&g)
        .map_err(|e| format!("monolithic build: {e}"))?
        .artifact;
    let mut rng = load::rng(seed, 4);
    let pairs: Vec<_> = (0..PROBE_PAIRS)
        .map(|_| load::uniform_pair(&mut rng, g.n()))
        .collect();
    let stretch_max = oracle_probe(
        &sharded,
        &reference,
        None,
        &g,
        &pairs,
        SHARD_STRETCH,
        out,
        None,
    );

    let plan = sharded.plan();
    let (mut legs, mut leg_ms, mut query_ms, mut mono_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &(s, t) in &pairs {
        let mut count = 0;
        for v in [s, t] {
            let shard = plan.shard_of(v) as usize;
            let oracle = sharded.shard(shard);
            for &b in plan.boundary(shard) {
                let (_, dt) = timed(|| {
                    trace::in_span("shard.leg", 0, pair_key(v, b), || {
                        oracle.query(plan.local_id(v), plan.local_id(b))
                    })
                });
                leg_ms.push(dt * 1e3);
                count += 1;
            }
        }
        legs.push(count as f64);
        let (_, dt) =
            timed(|| trace::in_span("shard.query", 0, pair_key(s, t), || sharded.query(s, t)));
        query_ms.push(dt * 1e3);
        let (_, dt) = timed(|| mono.query(s, t));
        mono_ms.push(dt * 1e3);
    }
    vals.insert("shard.boundary", plan.boundary_global().len() as f64);
    vals.insert("shard.legs", median(&legs));
    vals.insert("shard.leg_ms", median(&leg_ms));
    vals.insert("shard.query_ms", median(&query_ms));
    vals.insert("shard.mono_query_ms", median(&mono_ms));
    vals.insert("shard.stretch_max", stretch_max);
    Ok(())
}
