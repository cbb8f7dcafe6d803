//! Hop-limited Bellman–Ford over a graph plus an optional hopset.
//!
//! This computes `dist^h_{E ∪ E'}(s, ·)` — the *h-hop distance* of
//! Definition 2.4 — and is the query engine Klein–Subramanian \[KS97\] attach
//! to a hopset: once a `(ε, h, m')`-hopset exists, a `(1+ε)`-approximate
//! shortest path needs only `h` rounds of parallel edge relaxation, giving
//! the `O(m/ε)` work, `O(h)`-ish depth query of Theorem 1.2.
//!
//! Frontier-based: only vertices whose distance improved in round `r-1`
//! relax their edges in round `r`, so work on easy instances is far below
//! the worst-case `h·m`. The frontier carries each vertex's distance as
//! of the start of the round (Jacobi rounds), so after round `r` every
//! distance is exactly the `r`-hop one. Candidates are claimed in place:
//! a candidate lowers `dist[v]` when it beats it, and `v` joins the next
//! frontier on its first improvement of the round (a per-vertex round
//! mark), so the next frontier is exactly the set of vertices that
//! improved. One query runs on one thread; batches of queries are what
//! run in parallel.
//!
//! A pair query ([`hop_limited_pair`]) also prunes against the target.
//! Weights are at least 1, so a frontier vertex or a candidate whose
//! distance is already at or above `dist[t]` can never lead to a shorter
//! path to `t`, and it is skipped. The pruned run still returns the exact
//! h-hop `dist[t]` and the same settle round as the full search, also
//! when the hop budget binds.
//!
//! Cost accounting (both entry points): work is `n` for initialisation,
//! plus the adjacency entries scanned from frontier vertices that were not
//! pruned, plus one per push onto a next frontier; depth is one for
//! initialisation plus one per round run, until the frontier empties or
//! the budget `h` is spent. Without a target nothing is pruned, so
//! [`hop_limited_sssp`] reports the full search's cost.

use crate::csr::{Edge, VertexId, Weight, INF};
use crate::prefetch::{lookahead, prefetch_pays, prefetch_read};
use crate::view::GraphView;
use psh_pram::Cost;
use std::cell::Cell;

/// A set of auxiliary (hopset) edges in CSR form over the same vertex ids
/// as the base graph. Undirected: both directions are stored. Offsets are
/// `u32` (2m' adjacency slots fit the u32 edge-id space by the same bound
/// the canonical edge list obeys), so the borrowed form ([`ExtraView`])
/// can alias a mapped snapshot slab directly.
#[derive(Clone, Debug, Default)]
pub struct ExtraEdges {
    offsets: Vec<u32>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
    m: usize,
}

impl ExtraEdges {
    /// Build from an undirected edge list over vertices `0..n`.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        assert!(
            edges.len() as u64 * 2 <= u32::MAX as u64,
            "extra-edge slots exceed the u32 offset space"
        );
        let mut offsets = vec![0u32; n + 1];
        for e in edges {
            offsets[e.u as usize + 1] += 1;
            offsets[e.v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let acc = offsets[n] as usize;
        let mut cursor = offsets.clone();
        let mut targets = vec![0; acc];
        let mut weights = vec![0; acc];
        for e in edges {
            targets[cursor[e.u as usize] as usize] = e.v;
            weights[cursor[e.u as usize] as usize] = e.w;
            cursor[e.u as usize] += 1;
            targets[cursor[e.v as usize] as usize] = e.u;
            weights[cursor[e.v as usize] as usize] = e.w;
            cursor[e.v as usize] += 1;
        }
        ExtraEdges {
            offsets,
            targets,
            weights,
            m: edges.len(),
        }
    }

    /// Number of undirected extra edges.
    pub fn len(&self) -> usize {
        self.m
    }

    /// True if there are no extra edges.
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// Iterate `(neighbor, weight)` of `v` among the extra edges.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.view().neighbors(v)
    }

    /// Borrow as the slice-backed form the query cores run on.
    #[inline]
    pub fn view(&self) -> ExtraView<'_> {
        ExtraView {
            offsets: &self.offsets,
            targets: &self.targets,
            weights: &self.weights,
        }
    }
}

/// Borrowed extra-edge adjacency: three slices in the layout
/// [`ExtraEdges::from_edges`] produces — owned storage and mapped v2
/// snapshot slabs both hand out this form, so the hop-limited cores
/// below run identically on either. `Copy`, like [`crate::CsrView`].
#[derive(Clone, Copy, Debug)]
pub struct ExtraView<'a> {
    offsets: &'a [u32],
    targets: &'a [VertexId],
    weights: &'a [Weight],
}

impl<'a> ExtraView<'a> {
    /// Assemble a view from raw parts (mapped snapshot slabs). `offsets`
    /// needs one entry per vertex plus a trailing total; the adjacency
    /// slices hold both directions of every extra edge.
    pub fn from_raw(offsets: &'a [u32], targets: &'a [VertexId], weights: &'a [Weight]) -> Self {
        assert!(!offsets.is_empty(), "offsets needs a trailing total");
        debug_assert_eq!(*offsets.last().unwrap() as usize, targets.len());
        debug_assert_eq!(targets.len(), weights.len());
        ExtraView {
            offsets,
            targets,
            weights,
        }
    }

    /// Iterate `(neighbor, weight)` of `v` among the extra edges.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + 'a {
        let range = self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize;
        self.targets[range.clone()]
            .iter()
            .copied()
            .zip(self.weights[range].iter().copied())
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }
}

/// Result of a hop-limited query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HopQuery {
    /// `dist[v] = dist^h_{E ∪ E'}(sources, v)`.
    pub dist: Vec<Weight>,
    /// Rounds actually executed (≤ the requested `h`; fewer if the
    /// relaxation reached a fixpoint early).
    pub rounds_run: usize,
    /// For each vertex, the round in which its final distance was set
    /// (0 for sources, `u32::MAX` if unreachable). `hops_settled[t]` is the
    /// number of hops a shortest ≤h-hop path to `t` uses.
    pub hops_settled: Vec<u32>,
}

/// Compute h-hop-limited distances from `sources` over `g` plus `extra`.
pub fn hop_limited_sssp<G: GraphView>(
    g: &G,
    extra: Option<&ExtraEdges>,
    sources: &[VertexId],
    h: usize,
) -> (HopQuery, Cost) {
    hop_limited_sssp_on(g, extra.map(ExtraEdges::view), sources, h)
}

/// [`hop_limited_sssp`] on borrowed extra-edge slices — the core both
/// the owned and the mapped (v2 snapshot) oracle reprs run, so their
/// relaxation sequences — and therefore answers and costs — are
/// identical by construction.
pub fn hop_limited_sssp_on<G: GraphView>(
    g: &G,
    extra: Option<ExtraView<'_>>,
    sources: &[VertexId],
    h: usize,
) -> (HopQuery, Cost) {
    let run = relax_rounds(g, extra, sources, None, h);
    (
        HopQuery {
            dist: run.dist,
            rounds_run: run.rounds,
            hops_settled: run.hops,
        },
        run.cost,
    )
}

/// h-hop-limited `s`–`t` distance. Returns the distance (or [`INF`]) and
/// the number of hops after which `t`'s distance last improved.
pub fn hop_limited_pair<G: GraphView>(
    g: &G,
    extra: Option<&ExtraEdges>,
    s: VertexId,
    t: VertexId,
    h: usize,
) -> (Weight, u32, Cost) {
    hop_limited_pair_on(g, extra.map(ExtraEdges::view), s, t, h)
}

/// [`hop_limited_pair`] on borrowed extra-edge slices (see
/// [`hop_limited_sssp_on`]). Target-pruned: the answer and the settle
/// round are exactly [`hop_limited_sssp_on`]'s `dist[t]` and
/// `hops_settled[t]`, but the work stops growing once nothing left can
/// beat `t`'s current distance (see the module doc for the accounting).
pub fn hop_limited_pair_on<G: GraphView>(
    g: &G,
    extra: Option<ExtraView<'_>>,
    s: VertexId,
    t: VertexId,
    h: usize,
) -> (Weight, u32, Cost) {
    let run = relax_rounds(g, extra, &[s], Some(t), h);
    (run.dist[t as usize], run.hops[t as usize], run.cost)
}

/// What one run of [`relax_rounds`] leaves behind.
struct Relaxed {
    dist: Vec<Weight>,
    /// Round of each vertex's last improvement; doubles as the round
    /// mark that pushes a vertex onto the next frontier only once.
    hops: Vec<u32>,
    rounds: usize,
    cost: Cost,
}

/// Per-round relaxation state: candidate distances are claimed in place
/// (a per-target minimum with no gather or sort), and a vertex joins the
/// next frontier on its first improvement of the round.
struct Round<'a> {
    dist: &'a [Cell<Weight>],
    hops: &'a mut [u32],
    next: &'a mut Vec<VertexId>,
    round: u32,
    target: Option<VertexId>,
    /// The target's current distance ([`INF`] without a target): no
    /// candidate at or above it can lead to a shorter path to the target.
    bound: Weight,
}

impl Round<'_> {
    #[inline(always)]
    fn offer(&mut self, v: VertexId, nd: Weight) {
        let slot = &self.dist[v as usize];
        if nd < self.bound && nd < slot.get() {
            slot.set(nd);
            if self.hops[v as usize] != self.round {
                self.hops[v as usize] = self.round;
                self.next.push(v);
            }
            if self.target == Some(v) {
                self.bound = nd;
            }
        }
    }
}

/// The hop-limited core behind both entry points: Jacobi rounds from
/// `sources`, each frontier vertex relaxing from the distance it had when
/// the round began, so after round `r` every distance is the `r`-hop one.
/// With a `target`, frontier vertices and candidates at or above the
/// target's current distance are skipped.
fn relax_rounds<G: GraphView>(
    g: &G,
    extra: Option<ExtraView<'_>>,
    sources: &[VertexId],
    target: Option<VertexId>,
    h: usize,
) -> Relaxed {
    let n = g.n();
    let mut dist = vec![INF; n];
    let mut hops = vec![u32::MAX; n];
    let mut starts: Vec<VertexId> = sources.to_vec();
    starts.sort_unstable();
    starts.dedup();
    for &s in &starts {
        dist[s as usize] = 0;
        hops[s as usize] = 0;
    }
    let mut frontier: Vec<(VertexId, Weight)> = starts.iter().map(|&s| (s, 0)).collect();
    let mut next = Vec::new();
    let mut cost = Cost::flat(n as u64);
    let mut rounds = 0usize;
    let cells = Cell::from_mut(dist.as_mut_slice()).as_slice_of_cells();
    let mut st = Round {
        dist: cells,
        hops: &mut hops,
        next: &mut next,
        round: 0,
        target,
        bound: target.map_or(INF, |t| cells[t as usize].get()),
    };
    while !frontier.is_empty() && rounds < h {
        rounds += 1;
        st.round = rounds as u32;
        let mut scanned = 0u64;
        for &(u, du) in &frontier {
            if du >= st.bound {
                continue;
            }
            scanned += (g.degree(u) + extra.map_or(0, |e| e.degree(u))) as u64;
            // the dist[v] probe is the random read in this loop; once
            // dist outgrows L2 ([`prefetch_pays`]), hint it a few
            // candidates ahead. The two arms spell out the same loop body
            // rather than sharing it through a closure, so each stays
            // independently inlinable.
            if prefetch_pays(n) {
                let hint = |&(v, _): &(VertexId, Weight)| prefetch_read(cells, v as usize);
                for (v, w) in lookahead(g.neighbors(u), hint) {
                    st.offer(v, du.saturating_add(w));
                }
                if let Some(e) = extra {
                    for (v, w) in lookahead(e.neighbors(u), hint) {
                        st.offer(v, du.saturating_add(w));
                    }
                }
            } else {
                for (v, w) in g.neighbors(u) {
                    st.offer(v, du.saturating_add(w));
                }
                if let Some(e) = extra {
                    for (v, w) in e.neighbors(u) {
                        st.offer(v, du.saturating_add(w));
                    }
                }
            }
        }
        cost = cost.then(Cost::flat(scanned + st.next.len() as u64));
        frontier.clear();
        frontier.extend(st.next.drain(..).map(|v| (v, cells[v as usize].get())));
    }
    Relaxed {
        dist,
        hops,
        rounds,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;
    use crate::generators;
    use crate::traversal::dijkstra::dijkstra;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn unlimited_hops_match_dijkstra() {
        let mut rng = StdRng::seed_from_u64(20);
        let base = generators::connected_random(80, 120, &mut rng);
        let g = generators::with_uniform_weights(&base, 1, 9, &mut rng);
        let (q, _) = hop_limited_sssp(&g, None, &[0], g.n());
        assert_eq!(q.dist, dijkstra(&g, 0).dist);
    }

    #[test]
    fn hop_limit_binds_on_a_path() {
        let g = generators::path(10);
        let (q, _) = hop_limited_sssp(&g, None, &[0], 4);
        assert_eq!(q.dist[4], 4);
        assert_eq!(q.dist[5], INF);
        assert_eq!(q.rounds_run, 4);
    }

    #[test]
    fn hopset_edge_cuts_hops() {
        // path 0..=9 plus a shortcut 0-9 of the exact path weight
        let g = generators::path(10);
        let extra = ExtraEdges::from_edges(10, &[Edge::new(0, 9, 9)]);
        let (d_no, hops_no, _) = hop_limited_pair(&g, None, 0, 9, 10);
        assert_eq!((d_no, hops_no), (9, 9));
        let (d_yes, hops_yes, _) = hop_limited_pair(&g, Some(&extra), 0, 9, 10);
        assert_eq!(d_yes, 9, "shortcut must not change the distance");
        assert_eq!(hops_yes, 1, "shortcut should settle t in one hop");
    }

    #[test]
    fn early_fixpoint_stops_rounds() {
        let g = generators::star(50);
        let (q, _) = hop_limited_sssp(&g, None, &[0], 1000);
        assert_eq!(q.rounds_run, 2, "star reaches a fixpoint in two rounds");
        assert!(q.dist.iter().all(|&d| d <= 2));
    }

    #[test]
    fn hops_settled_is_monotone_in_distance_layers() {
        let g = generators::path(6);
        let (q, _) = hop_limited_sssp(&g, None, &[0], 10);
        assert_eq!(q.hops_settled, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn extra_edges_accessors() {
        let e = ExtraEdges::from_edges(4, &[Edge::new(0, 2, 5), Edge::new(1, 3, 7)]);
        assert_eq!(e.len(), 2);
        assert!(!e.is_empty());
        assert_eq!(e.neighbors(0).collect::<Vec<_>>(), vec![(2, 5)]);
        assert_eq!(e.neighbors(2).collect::<Vec<_>>(), vec![(0, 5)]);
        assert!(ExtraEdges::from_edges(3, &[]).is_empty());
    }

    /// FNV-1a over everything `hop_limited_sssp` returns: distances,
    /// settle rounds, rounds run, and the `Cost`.
    fn sssp_digest(q: &HopQuery, cost: Cost) -> u64 {
        let words = q
            .dist
            .iter()
            .copied()
            .chain(q.hops_settled.iter().map(|&h| h as u64))
            .chain([q.rounds_run as u64, cost.work, cost.depth]);
        words.fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
            w.to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
    }

    /// Fixed-seed `(HopQuery, Cost)` digests recorded from the
    /// sort-and-dedup relaxation this module used to run. The in-place
    /// core must reproduce them exactly: same distances, same settle
    /// rounds, same rounds run, same work and depth.
    #[test]
    fn sssp_golden_digests() {
        let mut rng = StdRng::seed_from_u64(41);
        let random = {
            let base = generators::connected_random(300, 600, &mut rng);
            generators::with_uniform_weights(&base, 1, 9, &mut rng)
        };
        let extra_edges: Vec<Edge> = (0..40)
            .map(|i| {
                let u = (i * 37 % 300) as u32;
                let v = ((i * 101 + 13) % 300) as u32;
                Edge::new(u.min(v), u.max(v) + u32::from(u == v), 1 + (i as u64 % 7))
            })
            .collect();
        let extra = ExtraEdges::from_edges(300, &extra_edges);
        let path = generators::path(64);
        let grid = generators::grid(20, 20);
        let cases: [(&str, (HopQuery, Cost), u64); 7] = [
            (
                "path",
                hop_limited_sssp(&path, None, &[0], 64),
                0x26284c0b028e9ed9,
            ),
            (
                "path h=9",
                hop_limited_sssp(&path, None, &[5], 9),
                0xbc05c99185983613,
            ),
            (
                "grid",
                hop_limited_sssp(&grid, None, &[0, 399], 400),
                0xdff08a72047b6739,
            ),
            (
                "grid h=6",
                hop_limited_sssp(&grid, None, &[210], 6),
                0x39ee7ca231f07ed2,
            ),
            (
                "random",
                hop_limited_sssp(&random, None, &[3], 300),
                0x14ddbff4ff6eb6f5,
            ),
            (
                "random+extra",
                hop_limited_sssp(&random, Some(&extra), &[3], 300),
                0xe91049f78de3b26c,
            ),
            (
                "random+extra h=3",
                hop_limited_sssp(&random, Some(&extra), &[7, 7, 150], 3),
                0x3b85139b5956e00b,
            ),
        ];
        for (name, (q, cost), want) in cases {
            assert_eq!(
                sssp_digest(&q, cost),
                want,
                "{name}: (HopQuery, Cost) drifted"
            );
        }
    }

    /// The same pin at n = 65,536, where the core takes its prefetching
    /// arm ([`prefetch_pays`]).
    #[test]
    fn sssp_golden_digests_prefetch_arm() {
        let mut rng = StdRng::seed_from_u64(43);
        let grid = generators::grid(256, 256);
        assert!(prefetch_pays(grid.n()));
        let weighted = generators::with_uniform_weights(&grid, 1, 9, &mut rng);
        let extra_edges: Vec<Edge> = (0..500u32)
            .map(|i| Edge::new(i * 97 % 32768, 32768 + i * 61 % 32768, 3 + (i as u64 % 11)))
            .collect();
        let extra = ExtraEdges::from_edges(grid.n(), &extra_edges);
        let cases: [(&str, (HopQuery, Cost), u64); 3] = [
            (
                "grid",
                hop_limited_sssp(&grid, None, &[0], 65536),
                0xb3fd40c17d06c9b4,
            ),
            (
                "weighted+extra h=40",
                hop_limited_sssp(&weighted, Some(&extra), &[300, 40000], 40),
                0x502e01a317c12f12,
            ),
            (
                "weighted+extra",
                hop_limited_sssp(&weighted, Some(&extra), &[300], 65536),
                0xe9c5fc34623d7611,
            ),
        ];
        for (name, (q, cost), want) in cases {
            assert_eq!(
                sssp_digest(&q, cost),
                want,
                "{name}: (HopQuery, Cost) drifted"
            );
        }
    }

    proptest! {
        /// h-hop distances are monotone nonincreasing in h and never
        /// undershoot the true distance.
        #[test]
        fn prop_hop_distance_sandwich(seed in 0u64..150, h in 1usize..12) {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = generators::connected_random(40, 70, &mut rng);
            let g = generators::with_uniform_weights(&base, 1, 5, &mut rng);
            let exact = dijkstra(&g, 0);
            let (qh, _) = hop_limited_sssp(&g, None, &[0], h);
            let (qh1, _) = hop_limited_sssp(&g, None, &[0], h + 1);
            for v in 0..g.n() {
                prop_assert!(qh.dist[v] >= qh1.dist[v], "more hops can only help");
                prop_assert!(qh.dist[v] >= exact.dist[v], "h-hop dist lower-bounded by true dist");
            }
        }

        /// With h >= n-1 the hop limit never binds.
        #[test]
        fn prop_full_hops_exact(seed in 0u64..100) {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = generators::connected_random(30, 60, &mut rng);
            let g = generators::with_uniform_weights(&base, 1, 8, &mut rng);
            let (q, _) = hop_limited_sssp(&g, None, &[7], g.n());
            prop_assert_eq!(q.dist, dijkstra(&g, 7).dist);
        }

        /// The target-pruned pair query answers exactly what the full
        /// search does: `(dist[t], hops_settled[t])`, for every hop budget
        /// from binding (h = 1) to none (h = n), with and without extra
        /// edges, for `s == t`, and for a `t` no path reaches (vertex 40
        /// is isolated).
        #[test]
        fn prop_pair_equals_full_sssp(
            seed in 0u64..10_000,
            h in 1usize..42,
            s in 0u32..41,
            t in 0u32..41,
            extras in 0usize..12) {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = generators::connected_random(40, 50, &mut rng);
            let weighted = generators::with_uniform_weights(&base, 1, 9, &mut rng);
            let g = CsrGraph::from_edges(41, weighted.edges().iter().copied());
            let extra_edges: Vec<Edge> = (0..extras)
                .map(|_| {
                    let u = rng.random_range(0..39u32);
                    let v = rng.random_range(u + 1..40u32);
                    Edge::new(u, v, rng.random_range(1..20u64))
                })
                .collect();
            let extra = ExtraEdges::from_edges(41, &extra_edges);
            for extra in [None, Some(&extra)] {
                let (q, _) = hop_limited_sssp(&g, extra, &[s], h);
                for t in [t, s, 40] {
                    let (d, hops, _) = hop_limited_pair(&g, extra, s, t, h);
                    prop_assert_eq!(
                        (d, hops),
                        (q.dist[t as usize], q.hops_settled[t as usize]),
                        "s={} t={} h={}", s, t, h
                    );
                }
            }
        }
    }
}
