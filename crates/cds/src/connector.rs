//! Centralized reference implementation of Algorithm 1 (finding
//! connectors).
//!
//! Mirrors the distributed election exactly (the protocol in
//! [`crate::protocol`] is tested to produce identical output):
//!
//! * **Stage 1** — for every unordered dominator pair `{u, v}` sharing a
//!   dominatee, each common dominatee is a candidate; a candidate wins
//!   when it has the smallest identifier among itself and its *adjacent*
//!   candidates (so up to two non-adjacent winners per pair, as the paper
//!   notes). A winner `w` contributes the path `u — w — v`.
//! * **Stage 2** — for every dominatee `w` with dominator `u` and a
//!   2-hop-away dominator `v` (learned from a neighboring dominatee of
//!   `v`), `w` is a candidate for the ordered pair `(u, v)`; local-minimum
//!   winners contribute the edge `u — w`.
//! * **Stage 3** — dominatees of `v` adjacent to a stage-2 winner for
//!   `(u, v)` are candidates; local-minimum winners `x` contribute the
//!   edges `x — v` and `x — w` to the smallest adjacent stage-2 winner.
//!
//! Together the stages link every dominator pair at hop distance two or
//! three, which suffices for backbone connectivity.
//!
//! # Layout
//!
//! Node ids arrive in random order, so at scale every lookup keyed by a
//! node misses the cache. The election therefore runs as passes over
//! flat arrays rather than over node- or pair-keyed maps:
//!
//! * **Flat indexes.** The dominators of each node, the dominatees of
//!   each dominator (ascending) and the 2-hop dominators of each
//!   dominatee (deduplicated by a stamp array) are `u32` rows stored
//!   back to back (`FlatRows`), built once per call.
//! * **Per-dominator candidate lists.** Dominators are visited along a
//!   Z-order curve over their positions, so consecutive visits touch
//!   overlapping neighbourhoods. The pairs of one dominator `u` (`{u, v}`
//!   with `v > u` in stage 1, `(u, v)` in stage 2) are collected as
//!   `(v, w)` pairs into one reused buffer, sorted, and walked by
//!   `chunk_by`; within a pair `w` ascends, exactly as in a pair-keyed
//!   map. Each pair's election is independent of the others, so the
//!   visiting order cannot change the result.
//! * **Local minima.** A candidate wins when no adjacent candidate is
//!   smaller: the candidate's sorted neighbour list is merged with the
//!   sorted earlier candidates, linear in both.
//! * **Stage 3 by merge.** For a stage-2 pair `(u, v)`, each winner's
//!   sorted neighbours are merged with `v`'s sorted dominatees. The
//!   merges yield the stage-3 candidates and, because winners ascend,
//!   each candidate's smallest adjacent winner.
//! * **One sort at the end.** Connectors and edges are pushed as found
//!   and sorted and deduplicated once.

use std::cmp::Ordering;

use geospan_graph::collections::VecSet;
use geospan_graph::{Graph, Point};

use crate::Clustering;

/// Output of connector election.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectorResult {
    /// Elected connectors (dominatees), ascending.
    pub connectors: Vec<usize>,
    /// Backbone edges contributed by the elections, `(a, b)` unordered.
    pub edges: Vec<(usize, usize)>,
}

/// Runs the three election stages. See the module documentation.
pub fn find_connectors(g: &Graph, clustering: &Clustering) -> ConnectorResult {
    find_connectors_impl(g, clustering, None, None)
}

/// Runs the election stages only for dominator pairs touching `dominators`
/// (i.e. pairs `{u, v}` with `u` or `v` in the set).
///
/// This is the localized-repair entry point: when a link break or node
/// death perturbs a bounded neighborhood, only the elections involving
/// the affected dominators can change, so only those are re-run. The
/// result composes with the retained elections of the untouched region.
pub fn find_connectors_for_pairs(
    g: &Graph,
    clustering: &Clustering,
    dominators: &VecSet,
) -> ConnectorResult {
    find_connectors_impl(g, clustering, Some(dominators), None)
}

/// Runs the election stages for dominator pairs touching `include` but
/// *not* touching `exclude` — i.e. pairs `{u, v}` with an endpoint in
/// `include` and neither endpoint in `exclude`.
///
/// Local repair uses this to *rescue* elections when it subtracts a
/// perturbed region's old elections: an edge can be contributed by
/// several pairs at once, so after removing every election touching the
/// re-run scope, the elections of *neighboring* pairs (which may share
/// edges with the subtracted ones but are themselves unperturbed) are
/// recomputed on the old topology and added back.
pub fn find_connectors_for_pairs_excluding(
    g: &Graph,
    clustering: &Clustering,
    include: &VecSet,
    exclude: &VecSet,
) -> ConnectorResult {
    find_connectors_impl(g, clustering, Some(include), Some(exclude))
}

/// Node-id rows stored back to back: row `i` is
/// `values[offsets[i]..offsets[i + 1]]`.
struct FlatRows {
    offsets: Vec<u32>,
    values: Vec<u32>,
}

impl FlatRows {
    fn with_capacity(rows: usize, values: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        FlatRows {
            offsets,
            values: Vec::with_capacity(values),
        }
    }

    /// Closes the row being filled at the end of `values`.
    fn end_row(&mut self) {
        let end = u32::try_from(self.values.len()).expect("index rows hold under 2^32 ids");
        self.offsets.push(end);
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.values[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// The common elements of an ascending neighbour list `a` and an
/// ascending `u32` id list `b`, in ascending order.
struct SortedMerge<'a> {
    a: &'a [usize],
    b: &'a [u32],
}

impl Iterator for SortedMerge<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while let (Some(&x), Some(&y)) = (self.a.first(), self.b.first()) {
            match x.cmp(&(y as usize)) {
                Ordering::Less => self.a = &self.a[1..],
                Ordering::Greater => self.b = &self.b[1..],
                Ordering::Equal => {
                    self.a = &self.a[1..];
                    self.b = &self.b[1..];
                    return Some(y);
                }
            }
        }
        None
    }
}

/// Calls `win(i)` for each local-minimum candidate `cands[i]` of one
/// ascending candidate list: those with no adjacent smaller candidate,
/// found by merging the candidate's neighbours with the earlier ones.
fn local_minima(g: &Graph, cands: &[u32], mut win: impl FnMut(usize)) {
    for (i, &w) in cands.iter().enumerate() {
        let mut adjacent = SortedMerge {
            a: g.neighbors(w as usize),
            b: &cands[..i],
        };
        if adjacent.next().is_none() {
            win(i);
        }
    }
}

/// `nodes` sorted along a Z-order curve over their positions, so that
/// consecutive nodes are near each other and share neighbourhoods.
fn spatial_order(g: &Graph, nodes: impl Iterator<Item = usize>) -> Vec<usize> {
    let pts = g.points();
    let (mut lo, mut hi) = (
        Point::new(f64::MAX, f64::MAX),
        Point::new(f64::MIN, f64::MIN),
    );
    for p in pts {
        lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
        hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
    }
    // A 16-bit grid coordinate with its bits spread to the even
    // positions (a degenerate extent maps to 0).
    let spread = |v: f64, lo: f64, hi: f64| {
        let mut x = ((v - lo) / (hi - lo) * 65_535.0) as u32;
        x = (x | (x << 8)) & 0x00ff_00ff;
        x = (x | (x << 4)) & 0x0f0f_0f0f;
        x = (x | (x << 2)) & 0x3333_3333;
        (x | (x << 1)) & 0x5555_5555
    };
    let mut keyed: Vec<(u32, usize)> = nodes
        .map(|u| {
            let p = pts[u];
            (spread(p.x, lo.x, hi.x) | spread(p.y, lo.y, hi.y) << 1, u)
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, u)| u).collect()
}

/// The unordered edge `{a, b}` as `(min, max)`.
fn edge(a: usize, b: u32) -> (usize, usize) {
    let b = b as usize;
    (a.min(b), a.max(b))
}

fn find_connectors_impl(
    g: &Graph,
    clustering: &Clustering,
    restrict: Option<&VecSet>,
    exclude: Option<&VecSet>,
) -> ConnectorResult {
    let n = g.node_count();
    // Ids are stored as `u32`, and `u32::MAX` is the stamp sentinel.
    assert!(
        n < u32::MAX as usize,
        "connector election takes under 2^32 - 1 nodes"
    );
    let touches = |set: Option<&VecSet>, d: usize| set.is_some_and(|set| set.contains(d));

    // Dominators per node; dominators themselves get empty rows.
    let total: usize = clustering.dominators_of.iter().map(Vec::len).sum();
    let mut doms = FlatRows::with_capacity(n, total);
    for (w, ds) in clustering.dominators_of.iter().enumerate() {
        if !clustering.is_dominator[w] {
            doms.values.extend(ds.iter().map(|&d| d as u32));
        }
        doms.end_row();
    }

    // Dominatees per dominator, ascending (a counting sort of `doms`).
    let mut dominatees = FlatRows {
        offsets: vec![0; n + 1],
        values: vec![0; doms.values.len()],
    };
    for &v in &doms.values {
        dominatees.offsets[v as usize + 1] += 1;
    }
    for v in 0..n {
        dominatees.offsets[v + 1] += dominatees.offsets[v];
    }
    let mut cursor = dominatees.offsets[..n].to_vec();
    for w in 0..n {
        for &v in doms.row(w) {
            dominatees.values[cursor[v as usize] as usize] = w as u32;
            cursor[v as usize] += 1;
        }
    }

    // 2-hop dominators per dominatee: v such that some neighboring
    // dominatee is dominated by v, and v is not already adjacent.
    let mut two_hop = FlatRows::with_capacity(n, 2 * doms.values.len());
    // `seen[v] == w` marks v as already adjacent to, or listed for, w.
    let mut seen: Vec<u32> = vec![u32::MAX; n];
    for w in 0..n {
        let own = doms.row(w);
        for &v in own {
            seen[v as usize] = w as u32;
        }
        if !own.is_empty() {
            for &x in g.neighbors(w) {
                for &v in doms.row(x) {
                    if seen[v as usize] != w as u32 {
                        seen[v as usize] = w as u32;
                        two_hop.values.push(v);
                    }
                }
            }
        }
        two_hop.end_row();
    }

    let mut connectors: Vec<usize> = Vec::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();

    // Reused per-dominator buffers: `(v, w)` candidates, one pair's
    // candidate ids, its stage-2 winners, and stage-3 `(x, w)` matches.
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut cands: Vec<u32> = Vec::new();
    let mut winners: Vec<u32> = Vec::new();
    let mut matches: Vec<(u32, u32)> = Vec::new();

    for u in spatial_order(g, (0..n).filter(|&u| !dominatees.row(u).is_empty())) {
        let mine = dominatees.row(u);
        if touches(exclude, u) {
            continue;
        }
        let u_in = restrict.is_none() || touches(restrict, u);
        let in_scope = |v: usize| (u_in || touches(restrict, v)) && !touches(exclude, v);

        // Stage 1: common dominatees of the unordered pair {u, v}, v > u.
        pairs.clear();
        for &w in mine {
            for &v in doms.row(w as usize) {
                if v as usize > u && in_scope(v as usize) {
                    pairs.push((v, w));
                }
            }
        }
        pairs.sort_unstable();
        for pair in pairs.chunk_by(|a, b| a.0 == b.0) {
            let v = pair[0].0 as usize;
            cands.clear();
            cands.extend(pair.iter().map(|&(_, w)| w));
            local_minima(g, &cands, |i| {
                connectors.push(cands[i] as usize);
                edges.push(edge(u, cands[i]));
                edges.push(edge(v, cands[i]));
            });
        }

        // Stage 2: dominatee w of u proposing toward a 2-hop dominator v.
        pairs.clear();
        for &w in mine {
            for &v in two_hop.row(w as usize) {
                if in_scope(v as usize) {
                    pairs.push((v, w));
                }
            }
        }
        pairs.sort_unstable();
        for pair in pairs.chunk_by(|a, b| a.0 == b.0) {
            let v = pair[0].0 as usize;
            cands.clear();
            cands.extend(pair.iter().map(|&(_, w)| w));
            winners.clear();
            local_minima(g, &cands, |i| {
                connectors.push(cands[i] as usize);
                edges.push(edge(u, cands[i]));
                winners.push(cands[i]);
            });

            // Stage 3: dominatees of v adjacent to a stage-2 winner for
            // (u, v). Winners ascend, so after sorting by (x, w) the
            // first match of each x names its smallest adjacent winner.
            matches.clear();
            for &w in &winners {
                let common = SortedMerge {
                    a: g.neighbors(w as usize),
                    b: dominatees.row(v),
                };
                matches.extend(common.map(|x| (x, w)));
            }
            matches.sort_unstable();
            matches.dedup_by_key(|&mut (x, _)| x);
            cands.clear();
            cands.extend(matches.iter().map(|&(x, _)| x));
            local_minima(g, &cands, |i| {
                let (x, w) = matches[i];
                connectors.push(x as usize);
                edges.push(edge(v, x));
                edges.push(edge(w as usize, x));
            });
        }
    }

    connectors.sort_unstable();
    connectors.dedup();
    edges.sort_unstable();
    edges.dedup();
    ConnectorResult { connectors, edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cluster, ClusterRank};
    use geospan_graph::gen::connected_unit_disk;
    use geospan_graph::paths::bfs_hops;
    use geospan_graph::Point;
    use std::collections::BTreeSet;

    #[test]
    fn two_hop_pair_gets_connected() {
        // Dominators 0 and 2 share dominatee 1.
        let g = Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
            ],
            [(0, 1), (1, 2)],
        );
        let c = cluster(&g, &ClusterRank::LowestId);
        assert_eq!(c.dominators, vec![0, 2]);
        let r = find_connectors(&g, &c);
        assert_eq!(r.connectors, vec![1]);
        assert_eq!(r.edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn three_hop_pair_gets_connected() {
        // Path 0-1-2-3: dominators 0, 3 (2 is dominated by 3 ... check).
        let g = Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(3.0, 0.0),
            ],
            [(0, 1), (1, 2), (2, 3)],
        );
        let c = cluster(&g, &ClusterRank::LowestId);
        assert_eq!(c.dominators, vec![0, 2]);
        // Pair (0, 2) is 2 hops: stage 1 connects via 1. Node 3 is a plain
        // dominatee of 2.
        let r = find_connectors(&g, &c);
        assert!(r.connectors.contains(&1));
        assert!(r.edges.contains(&(0, 1)) && r.edges.contains(&(1, 2)));
    }

    #[test]
    fn chain_of_five_uses_stage_two_and_three() {
        // Path 0..=4 with unit spacing: dominators 0, 2, 4? cluster:
        // 0 dominator -> 1 dominatee; 2 dominator -> 3 dominatee;
        // 4 dominator. Pairs (0,2) and (2,4) are 2 hops apart.
        // Make a 3-hop dominator pair instead: 0-1-2-3 chain with
        // dominators 0 and 3. Force ranks so 3 is a dominator.
        let g = Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(3.0, 0.0),
            ],
            [(0, 1), (1, 2), (2, 3)],
        );
        let c = cluster(&g, &ClusterRank::Weight(vec![10, 0, 0, 10]));
        assert_eq!(c.dominators, vec![0, 3]);
        let r = find_connectors(&g, &c);
        // Both intermediates become connectors, and the path is complete.
        assert_eq!(r.connectors, vec![1, 2]);
        assert!(r.edges.contains(&(0, 1)));
        assert!(r.edges.contains(&(1, 2)));
        assert!(r.edges.contains(&(2, 3)));
    }

    #[test]
    fn backbone_connects_all_dominators() {
        for seed in 0..8 {
            let (_pts, g, _s) = connected_unit_disk(70, 150.0, 45.0, seed * 3 + 1);
            let c = cluster(&g, &ClusterRank::LowestId);
            let r = find_connectors(&g, &c);
            let backbone = Graph::with_edges(g.points().to_vec(), r.edges.iter().copied());
            if c.dominators.len() <= 1 {
                continue;
            }
            let d0 = c.dominators[0];
            let hops = bfs_hops(&backbone, d0);
            for &d in &c.dominators {
                assert!(hops[d].is_some(), "seed {seed}: dominator {d} unreachable");
            }
            for &cn in &r.connectors {
                assert!(
                    hops[cn].is_some(),
                    "seed {seed}: connector {cn} unreachable"
                );
            }
        }
    }

    #[test]
    fn restricted_election_composes() {
        for seed in 0..4 {
            let (_pts, g, _s) = connected_unit_disk(60, 150.0, 45.0, seed * 19 + 3);
            let c = cluster(&g, &ClusterRank::LowestId);
            let full = find_connectors(&g, &c);
            // Restricting to every dominator reproduces the full election.
            let all: VecSet = c.dominators.iter().copied().collect();
            assert_eq!(find_connectors_for_pairs(&g, &c, &all), full);
            // The empty restriction elects nothing.
            let none = find_connectors_for_pairs(&g, &c, &VecSet::new());
            assert!(none.connectors.is_empty() && none.edges.is_empty());
            // A single-dominator restriction yields a subset of the full
            // election (its pairs' winners are unchanged by locality).
            let one: VecSet = [c.dominators[0]].into_iter().collect();
            let partial = find_connectors_for_pairs(&g, &c, &one);
            for e in &partial.edges {
                assert!(full.edges.contains(e), "seed {seed}: extra edge {e:?}");
            }
            for w in &partial.connectors {
                assert!(full.connectors.contains(w), "seed {seed}");
            }
        }
    }

    #[test]
    fn include_and_exclude_partition_the_election() {
        // Elections are per-pair and pairs partition into touching-S vs
        // not-touching-S, so running the two halves separately and
        // uniting them reproduces the full election exactly. This is
        // the property the repair splice relies on.
        for seed in 0..4 {
            let (_pts, g, _s) = connected_unit_disk(60, 150.0, 45.0, seed * 11 + 5);
            let c = cluster(&g, &ClusterRank::LowestId);
            let full = find_connectors(&g, &c);
            let all: VecSet = c.dominators.iter().copied().collect();
            let s: VecSet = c.dominators.iter().step_by(3).copied().collect();
            let touching = find_connectors_for_pairs(&g, &c, &s);
            let rest = find_connectors_for_pairs_excluding(&g, &c, &all, &s);
            let mut edges: BTreeSet<(usize, usize)> = touching.edges.iter().copied().collect();
            edges.extend(rest.edges.iter().copied());
            assert_eq!(
                edges.into_iter().collect::<Vec<_>>(),
                full.edges,
                "seed {seed}: edge union mismatch"
            );
            let mut conns: BTreeSet<usize> = touching.connectors.iter().copied().collect();
            conns.extend(rest.connectors.iter().copied());
            assert_eq!(
                conns.into_iter().collect::<Vec<_>>(),
                full.connectors,
                "seed {seed}: connector union mismatch"
            );
            // Excluding everything elects nothing.
            let none = find_connectors_for_pairs_excluding(&g, &c, &all, &all);
            assert!(none.connectors.is_empty() && none.edges.is_empty());
        }
    }

    #[test]
    fn connector_count_is_linear_in_dominators() {
        for seed in 0..5 {
            let (_pts, g, _s) = connected_unit_disk(90, 150.0, 40.0, seed * 7 + 3);
            let c = cluster(&g, &ClusterRank::LowestId);
            let r = find_connectors(&g, &c);
            // Paper: at most a constant factor (their crude bound is 25x
            // per pair; empirically far lower).
            assert!(
                r.connectors.len() <= 25 * c.dominators.len().max(1),
                "seed {seed}: {} connectors for {} dominators",
                r.connectors.len(),
                c.dominators.len()
            );
        }
    }
}
