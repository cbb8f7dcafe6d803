//! The tentpole contract of the delta-compressed adjacency: algorithms
//! driven by a [`CompressedCsr`] (or its borrowed [`CompressedView`])
//! produce **byte-identical artifacts and Costs** to the same
//! algorithms driven by the plain [`CsrGraph`], across seeds and both
//! execution policies.
//!
//! Three layers are pinned down:
//!
//! 1. the substrate — every traversal engine (BFS, Dial, Δ-stepping,
//!    Dijkstra, hop-limited Bellman–Ford) is indistinguishable between
//!    the plain and compressed representations of the same graph;
//! 2. the frontier engine — Dial and Δ-stepping reproduce fixed-seed
//!    `(dist, parent, Cost)` digests on both representations, recorded
//!    while a `BTreeMap` bucket queue still existed to race the calendar
//!    queue against (every queue and representation agreed);
//! 3. the clustering layer — `ClusterBuilder` on a compressed view
//!    equals `ClusterBuilder` on the plain graph, artifact and cost.

use proptest::prelude::*;
use psh::graph::traversal::bellman_ford::hop_limited_sssp;
use psh::graph::traversal::bfs::parallel_bfs_with;
use psh::graph::traversal::delta_stepping::delta_stepping_with;
use psh::graph::traversal::dial::{dial_sssp_bounded_with, dial_sssp_with};
use psh::graph::traversal::dijkstra::dijkstra;
use psh::graph::traversal::SsspResult;
use psh::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn policies() -> [ExecutionPolicy; 2] {
    [
        ExecutionPolicy::Sequential,
        ExecutionPolicy::Parallel { threads: 4 },
    ]
}

fn weighted_instance(seed: u64, n: usize) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = generators::connected_random(n, 2 * n + n / 4, &mut rng);
    generators::with_uniform_weights(&base, 1, 23, &mut rng)
}

#[test]
fn traversals_agree_between_plain_and_compressed() {
    for seed in 0..6u64 {
        let g = weighted_instance(seed, 150);
        let c = CompressedCsr::from_view(&g);
        let view = c.as_view();
        for policy in policies() {
            let exec = Executor::new(policy);
            assert_eq!(
                parallel_bfs_with(&exec, &g, 0),
                parallel_bfs_with(&exec, &view, 0),
                "bfs seed {seed} {policy}"
            );
            assert_eq!(
                dial_sssp_with(&exec, &g, 0),
                dial_sssp_with(&exec, &view, 0),
                "dial seed {seed} {policy}"
            );
            assert_eq!(
                dial_sssp_bounded_with(&exec, &g, &[(3, 2), (9, 0)], 40),
                dial_sssp_bounded_with(&exec, &view, &[(3, 2), (9, 0)], 40),
                "bounded dial seed {seed} {policy}"
            );
            assert_eq!(
                delta_stepping_with(&exec, &g, 0, 5),
                delta_stepping_with(&exec, &view, 0, 5),
                "delta seed {seed} {policy}"
            );
        }
        // the owned compressed form routes through the same decoder
        assert_eq!(dijkstra(&g, 0), dijkstra(&c, 0), "dijkstra seed {seed}");
        assert_eq!(
            hop_limited_sssp(&g, None, &[0, 7], 6),
            hop_limited_sssp(&view, None, &[0, 7], 6),
            "hop-limited seed {seed}"
        );
    }
}

/// FNV-1a 64 over a search's distances, parents and Cost, each word
/// little-endian.
fn sssp_digest((r, cost): (SsspResult, Cost)) -> u64 {
    let parents = r.parent.iter().map(|&p| p as u64);
    let words = r.dist.iter().copied().chain(parents);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for byte in words
        .chain([cost.work, cost.depth])
        .flat_map(u64::to_le_bytes)
    {
        digest = (digest ^ byte as u64).wrapping_mul(0x100_0000_01b3);
    }
    digest
}

#[test]
fn dial_and_delta_match_golden_digests_on_both_representations() {
    for (seed, dial_golden, delta_golden) in [
        (1u64, 0x8b4c_b9b7_69db_c6bau64, 0x5f34_bd2d_e0ca_b083u64),
        (17, 0xd674_e62b_e5e0_ab05, 0xf542_f99d_6b68_a36d),
        (20150625, 0x7b81_eb6e_3411_52af, 0xcea6_15f5_9777_4a0d),
    ] {
        let g = weighted_instance(seed, 200);
        let c = CompressedCsr::from_view(&g);
        let view = c.as_view();
        for policy in policies() {
            let exec = Executor::new(policy);
            assert_eq!(
                sssp_digest(dial_sssp_bounded_with(&exec, &g, &[(0, 0)], INF)),
                dial_golden,
                "dial plain seed {seed} {policy}"
            );
            assert_eq!(
                sssp_digest(dial_sssp_bounded_with(&exec, &view, &[(0, 0)], INF)),
                dial_golden,
                "dial compressed seed {seed} {policy}"
            );
            assert_eq!(
                sssp_digest(delta_stepping_with(&exec, &g, 0, 4)),
                delta_golden,
                "delta plain seed {seed} {policy}"
            );
            assert_eq!(
                sssp_digest(delta_stepping_with(&exec, &view, 0, 4)),
                delta_golden,
                "delta compressed seed {seed} {policy}"
            );
        }
    }
}

#[test]
fn clustering_a_compressed_view_equals_clustering_the_plain_graph() {
    for seed in 0..4u64 {
        let g = weighted_instance(seed, 120);
        let c = CompressedCsr::from_view(&g);
        let view = c.as_view();
        for policy in policies() {
            let on_comp = ClusterBuilder::new(0.4)
                .seed(Seed(seed))
                .execution(policy)
                .build(&view)
                .unwrap();
            let on_plain = ClusterBuilder::new(0.4)
                .seed(Seed(seed))
                .execution(policy)
                .build(&g)
                .unwrap();
            assert_eq!(on_comp.artifact, on_plain.artifact, "seed {seed} {policy}");
            assert_eq!(on_comp.cost, on_plain.cost, "seed {seed} {policy}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary-graph sweep: multigraph/self-loop inputs collapse to a
    /// canonical CSR, and its compressed twin traverses identically
    /// under both policies.
    #[test]
    fn prop_compressed_traversal_equals_plain(
        raw in proptest::collection::vec((0u32..60, 0u32..60, 1u64..30), 20..260),
        seed in 0u64..1000)
    {
        let g = CsrGraph::from_edges(60, raw.iter().map(|&(u, v, w)| Edge::new(u, v, w)));
        let c = CompressedCsr::from_view(&g);
        let view = c.as_view();
        let src = (seed % 60) as u32;
        for policy in policies() {
            let exec = Executor::new(policy);
            prop_assert_eq!(
                dial_sssp_with(&exec, &g, src),
                dial_sssp_with(&exec, &view, src),
                "dial {}", policy
            );
            prop_assert_eq!(
                delta_stepping_with(&exec, &g, src, 3),
                delta_stepping_with(&exec, &view, src, 3),
                "delta {}", policy
            );
        }
    }
}
