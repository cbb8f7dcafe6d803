//! The tentpole contract of the GraphView refactor: algorithms driven by
//! arena-backed [`CsrView`]s produce **byte-identical artifacts and
//! Costs** to the same algorithms driven by materialized [`CsrGraph`]s,
//! across seeds and both execution policies.
//!
//! Three layers are pinned down:
//!
//! 1. the substrate — an arena child and its materialized twin are
//!    indistinguishable through every traversal engine (BFS, Dial,
//!    Δ-stepping, Dijkstra);
//! 2. the clustering race — `ClusterBuilder` on a view equals
//!    `ClusterBuilder` on the materialized child, artifact and cost;
//! 3. the hopset recursion — the arena-backed recursion reproduces
//!    fixed-seed `(Hopset, Cost)` digests recorded while a materialising
//!    split still existed to compare against (the two agreed), under
//!    `Sequential` and `Parallel` policies alike, and the default builder
//!    path lands on the same bytes.

use proptest::prelude::*;
use psh::core::hopset::unweighted::build_hopset_with_beta0_on;
use psh::graph::subgraph::split_by_labels;
use psh::graph::traversal::bfs::parallel_bfs_with;
use psh::graph::traversal::delta_stepping::delta_stepping_with;
use psh::graph::traversal::dial::dial_sssp_with;
use psh::graph::traversal::dijkstra::dijkstra;
use psh::graph::view::SplitArena;
use psh::graph::GraphView;
use psh::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn policies() -> [ExecutionPolicy; 2] {
    [
        ExecutionPolicy::Sequential,
        ExecutionPolicy::Parallel { threads: 4 },
    ]
}

/// Random weighted graph + a dense labeling from an actual clustering
/// (the labelings the recursion feeds to the split).
fn clustered_instance(seed: u64) -> (CsrGraph, Vec<u32>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = generators::connected_random(120, 260, &mut rng);
    let g = generators::with_uniform_weights(&base, 1, 9, &mut rng);
    let c = ClusterBuilder::new(0.3)
        .seed(Seed(seed ^ 0xABCD))
        .build(&g)
        .unwrap()
        .artifact;
    let k = c.num_clusters;
    (g, c.cluster_id, k)
}

#[test]
fn traversals_agree_on_views_and_materialized_children() {
    for seed in 0..6u64 {
        let (g, labels, k) = clustered_instance(seed);
        let mut arena = SplitArena::new();
        arena.split(&g, &labels, k);
        let (subs, _) = split_by_labels(&g, &labels, k);
        for policy in policies() {
            let exec = Executor::new(policy);
            for (cid, sub) in subs.iter().enumerate() {
                if sub.n() == 0 {
                    continue;
                }
                let view = arena.view(cid);
                assert_eq!(
                    parallel_bfs_with(&exec, &view, 0),
                    parallel_bfs_with(&exec, &sub.graph, 0),
                    "bfs seed {seed} cluster {cid} {policy}"
                );
                assert_eq!(
                    dial_sssp_with(&exec, &view, 0),
                    dial_sssp_with(&exec, &sub.graph, 0),
                    "dial seed {seed} cluster {cid} {policy}"
                );
                assert_eq!(
                    delta_stepping_with(&exec, &view, 0, 3),
                    delta_stepping_with(&exec, &sub.graph, 0, 3),
                    "delta seed {seed} cluster {cid} {policy}"
                );
                assert_eq!(
                    dijkstra(&view, 0),
                    dijkstra(&sub.graph, 0),
                    "dijkstra seed {seed} cluster {cid}"
                );
            }
        }
    }
}

#[test]
fn clustering_a_view_equals_clustering_the_materialized_child() {
    for seed in 0..6u64 {
        let (g, labels, k) = clustered_instance(seed);
        let mut arena = SplitArena::new();
        arena.split(&g, &labels, k);
        let (subs, _) = split_by_labels(&g, &labels, k);
        for policy in policies() {
            for (cid, sub) in subs.iter().enumerate() {
                let view = arena.view(cid);
                let on_view = ClusterBuilder::new(0.5)
                    .seed(Seed(seed))
                    .execution(policy)
                    .build(&view)
                    .unwrap();
                let on_graph = ClusterBuilder::new(0.5)
                    .seed(Seed(seed))
                    .execution(policy)
                    .build(&sub.graph)
                    .unwrap();
                assert_eq!(
                    on_view.artifact, on_graph.artifact,
                    "seed {seed} cluster {cid} {policy}"
                );
                assert_eq!(on_view.cost, on_graph.cost, "seed {seed} cluster {cid}");
                on_view.artifact.validate(&view).unwrap();
            }
        }
    }
}

/// Shared fixed-seed hopset instance for the policy matrix.
fn hopset_instance(seed: u64, n: usize) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::connected_random(n, 2 * n, &mut rng)
}

fn hopset_params() -> HopsetParams {
    HopsetParams {
        epsilon: 0.5,
        delta: 1.5,
        gamma1: 0.25,
        gamma2: 0.75,
        k_conf: 1.0,
    }
}

/// FNV-1a 64 over every field of a build's `(Hopset, Cost)`, each word
/// little-endian: the header counts and Cost, then the edges in order.
fn hopset_digest(h: &Hopset, cost: Cost) -> u64 {
    let header = [
        h.n as u64,
        h.edges.len() as u64,
        h.star_count as u64,
        h.clique_count as u64,
        h.levels as u64,
        cost.work,
        cost.depth,
    ];
    let edges = h.edges.iter().flat_map(|e| [e.u as u64, e.v as u64, e.w]);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for byte in header.into_iter().chain(edges).flat_map(u64::to_le_bytes) {
        digest = (digest ^ byte as u64).wrapping_mul(0x100_0000_01b3);
    }
    digest
}

#[test]
fn hopset_policy_matrix_matches_golden_digests() {
    let params = hopset_params();
    for (seed, golden) in [
        (0u64, 0xcdae_13b1_3c22_05e2u64),
        (9, 0x6836_f798_001d_9daa),
        (20150625, 0xc01b_84c9_5f67_b75d),
    ] {
        let g = hopset_instance(seed, 600);
        let beta0 = params.beta0(g.n());
        for policy in policies() {
            let (h, cost) = build_hopset_with_beta0_on(
                &Executor::new(policy),
                &g,
                &params,
                beta0,
                &mut StdRng::seed_from_u64(seed),
            );
            assert_eq!(hopset_digest(&h, cost), golden, "seed {seed} {policy}");
        }
        // the public builder must land on the same bytes
        let (built, built_cost) = HopsetBuilder::unweighted()
            .params(params)
            .build_with_rng(&g, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        assert_eq!(
            hopset_digest(&built.into_single(), built_cost),
            golden,
            "builder seed {seed}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary-seed sweep: the arena recursion builds the same hopset
    /// and Cost under both execution policies.
    #[test]
    fn prop_hopset_arena_seq_equals_par(seed in 0u64..5000) {
        let g = hopset_instance(seed, 300);
        let params = hopset_params();
        let beta0 = params.beta0(g.n());
        let build = |policy| {
            build_hopset_with_beta0_on(
                &Executor::new(policy),
                &g,
                &params,
                beta0,
                &mut StdRng::seed_from_u64(seed),
            )
        };
        let [seq, par] = policies().map(build);
        prop_assert_eq!(seq, par);
    }

    /// Views carved from arbitrary labelings cluster identically to their
    /// materialized twins (weighted graphs, both policies).
    #[test]
    fn prop_view_clustering_equals_materialized(
        raw in proptest::collection::vec((0u32..50, 0u32..50, 1u64..12), 30..220),
        labels in proptest::collection::vec(0u32..4, 50),
        seed in 0u64..1000)
    {
        let g = CsrGraph::from_edges(50, raw.iter().map(|&(u, v, w)| Edge::new(u, v, w)));
        let mut arena = SplitArena::new();
        arena.split(&g, &labels, 4);
        let (subs, _) = split_by_labels(&g, &labels, 4);
        for policy in policies() {
            for (cid, sub) in subs.iter().enumerate() {
                let view = arena.view(cid);
                prop_assert_eq!(view.n(), sub.n());
                let a = ClusterBuilder::new(0.4)
                    .seed(Seed(seed))
                    .execution(policy)
                    .build(&view)
                    .unwrap();
                let b = ClusterBuilder::new(0.4)
                    .seed(Seed(seed))
                    .execution(policy)
                    .build(&sub.graph)
                    .unwrap();
                prop_assert_eq!(&a.artifact, &b.artifact, "cluster {} {}", cid, policy);
                prop_assert_eq!(a.cost, b.cost);
            }
        }
    }
}
