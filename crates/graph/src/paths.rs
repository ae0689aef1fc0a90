//! Shortest paths: BFS for hop counts, Dijkstra for Euclidean lengths.
//!
//! The paper's spanner definitions compare, for every node pair, the
//! shortest *hop* path and the shortest *length* path in a topology
//! against the same quantities in the full unit disk graph. These are the
//! single-source primitives behind those comparisons.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

use geospan_geometry::Point;

use crate::Graph;

/// Hop distance from `src` to every node (`None` for unreachable nodes).
///
/// # Panics
/// Panics if `src` is out of bounds.
///
/// # Example
/// ```
/// use geospan_graph::{Graph, Point};
/// use geospan_graph::paths::bfs_hops;
/// let mut g = Graph::new(vec![Point::new(0.0, 0.0); 0]);
/// # let mut g = Graph::with_edges(
/// #   vec![Point::new(0.,0.), Point::new(1.,0.), Point::new(2.,0.)],
/// #   [(0,1),(1,2)]);
/// let d = bfs_hops(&g, 0);
/// assert_eq!(d, vec![Some(0), Some(1), Some(2)]);
/// ```
pub fn bfs_hops(g: &Graph, src: usize) -> Vec<Option<u32>> {
    bfs_hops_over(g.node_count(), src, |u| g.neighbors(u))
}

/// A node id as an adjacency slice stores it: `usize` in a [`Graph`],
/// `u32` in a [`crate::CsrGraph`].
pub(crate) trait NodeId: Copy {
    /// The id as an index.
    fn index(self) -> usize;
}

impl NodeId for usize {
    #[inline]
    fn index(self) -> usize {
        self
    }
}

impl NodeId for u32 {
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// The one BFS behind [`bfs_hops`] and [`crate::CsrGraph::bfs_hops`]:
/// hop distances from `src` over `n` nodes whose sorted neighbor slices
/// `neighbors` returns.
///
/// # Panics
/// Panics if `src >= n`.
pub(crate) fn bfs_hops_over<'g, I: NodeId + 'g>(
    n: usize,
    src: usize,
    neighbors: impl Fn(usize) -> &'g [I],
) -> Vec<Option<u32>> {
    assert!(src < n, "source {src} out of bounds for {n} nodes");
    let mut dist = vec![None; n];
    dist[src] = Some(0);
    let mut q = VecDeque::with_capacity(n);
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[u].expect("queued nodes have distances");
        for &v in neighbors(u) {
            let v = v.index();
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                q.push_back(v);
            }
        }
    }
    dist
}

/// Max-heap entry ordered by *smallest* distance first.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the nearest node.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Euclidean-length distance from `src` to every node (`None` for
/// unreachable nodes). Edge weights are the embedded edge lengths.
///
/// # Panics
/// Panics if `src` is out of bounds.
pub fn dijkstra_lengths(g: &Graph, src: usize) -> Vec<Option<f64>> {
    dijkstra_lengths_over(g.points(), src, |u| g.neighbors(u))
}

/// The one Dijkstra behind [`dijkstra_lengths`] and
/// [`crate::CsrGraph::dijkstra_lengths`]: Euclidean distances from `src`
/// over the nodes at `points`, whose sorted neighbor slices `neighbors`
/// returns.
///
/// # Panics
/// Panics if `src` is out of bounds.
pub(crate) fn dijkstra_lengths_over<'g, I: NodeId + 'g>(
    points: &[Point],
    src: usize,
    neighbors: impl Fn(usize) -> &'g [I],
) -> Vec<Option<f64>> {
    let n = points.len();
    assert!(src < n, "source {src} out of bounds for {n} nodes");
    let mut dist: Vec<Option<f64>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::with_capacity(n);
    dist[src] = Some(0.0);
    heap.push(HeapEntry {
        dist: 0.0,
        node: src,
    });
    while let Some(HeapEntry { dist: du, node: u }) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        for &v in neighbors(u) {
            let v = v.index();
            if done[v] {
                continue;
            }
            let cand = du + points[u].distance(points[v]);
            if dist[v].is_none_or(|dv| cand < dv) {
                dist[v] = Some(cand);
                heap.push(HeapEntry {
                    dist: cand,
                    node: v,
                });
            }
        }
    }
    dist
}

/// A shortest hop path from `src` to `dst` as a node sequence (inclusive
/// of both endpoints), or `None` when unreachable.
///
/// # Panics
/// Panics if either endpoint is out of bounds.
pub fn shortest_hop_path(g: &Graph, src: usize, dst: usize) -> Option<Vec<usize>> {
    let n = g.node_count();
    assert!(src < n && dst < n, "endpoints out of bounds");
    if src == dst {
        return Some(vec![src]);
    }
    let mut parent = vec![usize::MAX; n];
    let mut seen = vec![false; n];
    seen[src] = true;
    let mut q = VecDeque::new();
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        for &v in g.neighbors(u) {
            if !seen[v] {
                seen[v] = true;
                parent[v] = u;
                if v == dst {
                    let mut path = vec![dst];
                    let mut cur = dst;
                    while cur != src {
                        cur = parent[cur];
                        path.push(cur);
                    }
                    path.reverse();
                    return Some(path);
                }
                q.push_back(v);
            }
        }
    }
    None
}

/// A shortest Euclidean-length path from `src` to `dst` as a node
/// sequence, or `None` when unreachable.
///
/// # Panics
/// Panics if either endpoint is out of bounds.
pub fn shortest_length_path(g: &Graph, src: usize, dst: usize) -> Option<Vec<usize>> {
    let n = g.node_count();
    assert!(src < n && dst < n, "endpoints out of bounds");
    if src == dst {
        return Some(vec![src]);
    }
    let mut dist: Vec<Option<f64>> = vec![None; n];
    let mut parent = vec![usize::MAX; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[src] = Some(0.0);
    heap.push(HeapEntry {
        dist: 0.0,
        node: src,
    });
    while let Some(HeapEntry { dist: du, node: u }) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        if u == dst {
            break;
        }
        for &v in g.neighbors(u) {
            if done[v] {
                continue;
            }
            let cand = du + g.edge_length(u, v);
            if dist[v].is_none_or(|dv| cand < dv) {
                dist[v] = Some(cand);
                parent[v] = u;
                heap.push(HeapEntry {
                    dist: cand,
                    node: v,
                });
            }
        }
    }
    dist[dst]?;
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = parent[cur];
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

/// Total Euclidean length of a node path.
///
/// # Panics
/// Panics if any node is out of bounds.
pub fn path_length(g: &Graph, path: &[usize]) -> f64 {
    path.windows(2).map(|w| g.edge_length(w[0], w[1])).sum()
}

/// Exact goal-directed length searches from one source to one target,
/// with scratch reused across searches.
///
/// This is A* on the key `g + |vd|`, where `g` is accumulated exactly as
/// [`dijkstra_lengths`] accumulates it (`g(u) + points[u].distance(points[v])`)
/// and `|vd|` is `points[v].distance(points[d])`. Dijkstra's float
/// distances are the least fixpoint `D(v) = min_u fl(D(u) + |uv|)`: the
/// smallest left-to-right float sum over any path, since `fl(x + w)` is
/// monotone in `x` and never below it for `w ≥ 0`. A* returns `D(d)` bit
/// for bit because
///
/// * every `g` it records is such a sum, so `g(v) ≥ D(v)` throughout;
/// * a node whose `g` drops is pushed again and re-expanded, so each node
///   on a Dijkstra tree path to `d` is eventually expanded at `g = D`;
/// * it stops only when the smallest key exceeds `limit(best)`, which is
///   above the key of every such node.
///
/// The last point is where rounding enters. Take `v` on a tree path of
/// `m ≤ n − 1` remaining edges with computed lengths `ŵ_j`, and write
/// `u = 2⁻⁵³`. `distance` rounds each coordinate difference, each
/// square, their sum and the square root, so it is within a factor
/// `(1 ± u)³ ⊂ 1 ± 4u` of the true length, and by the triangle
/// inequality `|vd| ≤ (1 + 9u) Σ ŵ_j`. Each of the `m` float additions
/// that build `D(d)` from `D(v)` loses at most a factor `1 − u`, and the
/// key's own sum gains at most `1 + u`, so
/// `key(v) ≤ (1 + 1.01 (n + 10) u) D(d)` for every `n < 10¹³`. When a
/// squared difference underflows into the subnormal range, each
/// `distance` is also off by at most `2⁻⁵³⁷` absolutely, and the `m + 1`
/// of them add at most `n · 2⁻⁵³⁶`. Hence
///
/// `limit(best) = best + (best · (n + 16) · ε + n · 2⁻⁵³⁶)`, with `ε = 2u`
///
/// bounds every such key with about 2× room for the rounding of `limit`
/// itself. The margin is a correctness bound, not a tuning knob: at the
/// paper's scales it is about `10⁻¹³` relative, and only exact or
/// near-exact ties fall inside it. A `|vd|` that overflows to infinity
/// is replaced by the trivial lower bound 0.
///
/// `dist` and `to_goal` are valid for a node only where `stamp` holds
/// the current `epoch`, so a search costs no `O(n)` clear.
#[derive(Debug)]
struct LengthSearch {
    stamp: Vec<u32>,
    epoch: u32,
    /// Best length from the source found so far (`g`).
    dist: Vec<f64>,
    /// `|vd|`, computed once per node and search (`h`).
    to_goal: Vec<f64>,
    heap: BinaryHeap<HeapEntry>,
    /// Searches run and nodes expanded by them, for the mean cost of one.
    searches: u64,
    expanded: u64,
}

/// `2⁻⁵³⁶`: twice the absolute error of one [`Point::distance`] whose
/// squared differences underflow (see [`LengthSearch`]).
const UNDERFLOW_SLACK: f64 = f64::from_bits((1023 - 536) << 52);

impl LengthSearch {
    fn new(n: usize) -> Self {
        LengthSearch {
            stamp: vec![0; n],
            epoch: 0,
            dist: vec![0.0; n],
            to_goal: vec![0.0; n],
            heap: BinaryHeap::new(),
            searches: 0,
            expanded: 0,
        }
    }

    /// Whether one [`dijkstra_lengths`] row, which settles all `n`
    /// nodes, is expected to cost no more than `queries` searches, at
    /// the mean number of nodes the searches so far expanded. Without a
    /// search to go by, searches are preferred.
    fn prefers_row(&self, queries: usize) -> bool {
        let n = self.stamp.len() as u128;
        self.searches > 0
            && queries as u128 * u128::from(self.expanded) >= n * u128::from(self.searches)
    }

    /// Starts a search: invalidates every node's `dist` and `to_goal`.
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// The length [`dijkstra_lengths`]`(g, src)[dst]` returns, bit for
    /// bit, found by a search aimed at `dst`.
    fn length(&mut self, g: &Graph, src: usize, dst: usize) -> Option<f64> {
        if src == dst {
            return Some(0.0);
        }
        self.next_epoch();
        self.searches += 1;
        let points = g.points();
        let n = points.len();
        let goal = points[dst];
        let margin = (n + 16) as f64 * f64::EPSILON;
        let slack = n as f64 * UNDERFLOW_SLACK;
        let mut limit = f64::INFINITY;
        let to_goal = |v: usize| {
            let h = points[v].distance(goal);
            if h.is_finite() {
                h
            } else {
                0.0
            }
        };
        self.stamp[src] = self.epoch;
        self.dist[src] = 0.0;
        self.to_goal[src] = to_goal(src);
        self.heap.push(HeapEntry {
            dist: self.to_goal[src],
            node: src,
        });
        while let Some(HeapEntry { dist: key, node: u }) = self.heap.pop() {
            if key > limit {
                break;
            }
            let du = self.dist[u];
            if key != du + self.to_goal[u] {
                continue; // `dist[u]` dropped since this entry was pushed
            }
            self.expanded += 1;
            for &v in g.neighbors(u) {
                let cand = du + points[u].distance(points[v]);
                if self.stamp[v] != self.epoch {
                    self.stamp[v] = self.epoch;
                    self.to_goal[v] = to_goal(v);
                } else if cand >= self.dist[v] {
                    continue;
                }
                self.dist[v] = cand;
                if v == dst {
                    // The target is never expanded: no path through it
                    // leads back to it any shorter.
                    limit = cand + (cand * margin + slack);
                    continue;
                }
                let key = cand + self.to_goal[v];
                if key <= limit {
                    self.heap.push(HeapEntry { dist: key, node: v });
                }
            }
        }
        self.heap.clear();
        (self.stamp[dst] == self.epoch).then(|| self.dist[dst])
    }
}

/// A lazy shortest-path oracle over one graph.
///
/// Per-source BFS hop rows are computed on first use and cached, so
/// measuring many packets against the same few sources — the traffic
/// engine's per-packet stretch accounting — costs one BFS per distinct
/// source instead of one per query.
///
/// Lengths come from the same exact goal-directed search as
/// [`pair_distances`]: an A* per query, aimed at the target, equal bit
/// for bit to [`dijkstra_lengths`] (the exactness argument and its
/// stopping margin, `best · (n + 16) · ε` plus an underflow term, are
/// documented on the search in the source). A pair the hop row finds
/// unreachable is answered `None` without a length search. The oracle
/// does not see its queries in advance, so it applies the cost rule of
/// [`pair_distances`] online: once a source's length queries times the
/// mean number of nodes a search expanded reach `n`, that source's
/// [`dijkstra_lengths`] row is computed and cached, and answers the rest.
///
/// # Example
/// ```
/// use geospan_graph::{Graph, Point};
/// use geospan_graph::paths::DistanceOracle;
/// let g = Graph::with_edges(
///     vec![Point::new(0.,0.), Point::new(1.,0.), Point::new(2.,0.)],
///     [(0,1),(1,2)]);
/// let mut oracle = DistanceOracle::new(&g);
/// assert_eq!(oracle.hops(0, 2), Some(2));
/// assert!((oracle.length(0, 2).unwrap() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct DistanceOracle<'a> {
    g: &'a Graph,
    hops: Vec<Option<Vec<Option<u32>>>>,
    lengths: Vec<Option<Vec<Option<f64>>>>,
    /// Length queries per source that have no cached row.
    queries: Vec<usize>,
    search: LengthSearch,
}

impl<'a> DistanceOracle<'a> {
    /// An oracle over `g` with no rows computed yet.
    pub fn new(g: &'a Graph) -> Self {
        let n = g.node_count();
        DistanceOracle {
            g,
            hops: vec![None; n],
            lengths: vec![None; n],
            queries: vec![0; n],
            search: LengthSearch::new(n),
        }
    }

    /// Hop distance from `src` to `dst` (`None` when unreachable).
    ///
    /// # Panics
    /// Panics if either endpoint is out of bounds.
    pub fn hops(&mut self, src: usize, dst: usize) -> Option<u32> {
        self.hops[src].get_or_insert_with(|| bfs_hops(self.g, src))[dst]
    }

    /// Euclidean shortest-path length from `src` to `dst` (`None` when
    /// unreachable), bit-identical to [`dijkstra_lengths`].
    ///
    /// # Panics
    /// Panics if either endpoint is out of bounds.
    pub fn length(&mut self, src: usize, dst: usize) -> Option<f64> {
        self.hops(src, dst)?;
        if let Some(row) = &self.lengths[src] {
            return row[dst];
        }
        self.queries[src] += 1;
        if self.search.prefers_row(self.queries[src]) {
            return self.lengths[src].insert(dijkstra_lengths(self.g, src))[dst];
        }
        self.search.length(self.g, src, dst)
    }
}

/// Hop and length distances of a batch of `(src, dst)` pairs, answered
/// in input order.
///
/// Returns exactly what [`DistanceOracle::hops`] and
/// [`DistanceOracle::length`] would, and what [`bfs_hops`] and
/// [`dijkstra_lengths`] rows would: hops from one BFS row per distinct
/// source, lengths bit-identical to Dijkstra's. The sources are visited
/// in ascending order and every row is dropped once its pairs are
/// answered, so memory is `O(n + pairs)` rather than the oracle's
/// `O(n · sources)`.
///
/// A length comes from one of two exact computations, chosen per source
/// by cost alone:
///
/// * an A* search aimed at the target, on the key `g + |vd|`. In a unit
///   disk graph `|vd|` is a consistent lower bound on the remaining
///   length, so the search expands only a thin ellipse around the
///   segment. It re-expands a node whose `g` drops and stops only once
///   the smallest key exceeds the best length found by a relative
///   margin of `(n + 16) · ε` (plus `n · 2⁻⁵³⁶` for underflowing
///   distances). That margin bounds the rounding of `distance` and of
///   the sums along any path, so the result is Dijkstra's to the bit;
///   the derivation is on the search in the source.
/// * one [`dijkstra_lengths`] row, which settles every node.
///
/// With `k` pairs at a source and `s̄` the mean number of nodes the
/// searches of this batch expanded so far, the source gets a row when
/// `k · s̄ ≥ n` and `k` searches otherwise; the first source always
/// searches. Pairs the BFS row finds unreachable get `None` without a
/// length search.
///
/// # Panics
/// Panics if an endpoint is out of bounds.
///
/// # Example
/// ```
/// use geospan_graph::{Graph, Point};
/// use geospan_graph::paths::pair_distances;
/// let g = Graph::with_edges(
///     vec![Point::new(0.,0.), Point::new(1.,0.), Point::new(2.,0.)],
///     [(0,1),(1,2)]);
/// assert_eq!(pair_distances(&g, &[(2, 0), (0, 1)]), vec![(Some(2), Some(2.0)), (Some(1), Some(1.0))]);
/// ```
pub fn pair_distances(g: &Graph, pairs: &[(usize, usize)]) -> Vec<(Option<u32>, Option<f64>)> {
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.sort_by_key(|&i| pairs[i].0);
    let mut out = vec![(None, None); pairs.len()];
    let mut search = LengthSearch::new(g.node_count());
    for group in order.chunk_by(|&a, &b| pairs[a].0 == pairs[b].0) {
        let src = pairs[group[0]].0;
        let hops = bfs_hops(g, src);
        let row = search
            .prefers_row(group.len())
            .then(|| dijkstra_lengths(g, src));
        for &i in group {
            let dst = pairs[i].1;
            let length = match (hops[dst], &row) {
                (None, _) => None,
                (Some(_), Some(row)) => row[dst],
                (Some(_), None) => search.length(g, src, dst),
            };
            out[i] = (hops[dst], length);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use geospan_geometry::Point;

    /// A 5-node graph: a straight chain 0-1-2-3 plus a long chord 0-4-3.
    fn diamond() -> Graph {
        Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(3.0, 0.0),
                Point::new(1.5, 4.0),
            ],
            [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)],
        )
    }

    #[test]
    fn bfs_hop_counts() {
        let g = diamond();
        let d = bfs_hops(&g, 0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(2), Some(1)]);
    }

    #[test]
    fn bfs_unreachable() {
        let mut g = diamond();
        g.remove_edge(0, 4);
        g.remove_edge(4, 3);
        let d = bfs_hops(&g, 0);
        assert_eq!(d[4], None);
        assert_eq!(d[3], Some(3));
    }

    #[test]
    fn dijkstra_prefers_short_detour() {
        let g = diamond();
        let d = dijkstra_lengths(&g, 0);
        // Straight chain is length 3; the chord through node 4 is ~8.5.
        assert!((d[3].unwrap() - 3.0).abs() < 1e-12);
        assert_eq!(d[0], Some(0.0));
    }

    #[test]
    fn hop_path_differs_from_length_path() {
        let g = diamond();
        // Fewest hops: 0-4-3 (2 hops). Shortest length: 0-1-2-3 (3 units).
        let hop = shortest_hop_path(&g, 0, 3).unwrap();
        assert_eq!(hop.len(), 3);
        let len = shortest_length_path(&g, 0, 3).unwrap();
        assert_eq!(len, vec![0, 1, 2, 3]);
        assert!((path_length(&g, &len) - 3.0).abs() < 1e-12);
        assert!(path_length(&g, &hop) > 8.0);
    }

    #[test]
    fn paths_to_self_and_unreachable() {
        let mut g = diamond();
        assert_eq!(shortest_hop_path(&g, 2, 2), Some(vec![2]));
        assert_eq!(shortest_length_path(&g, 2, 2), Some(vec![2]));
        g.remove_edge(0, 1);
        g.remove_edge(0, 4);
        assert_eq!(shortest_hop_path(&g, 0, 3), None);
        assert_eq!(shortest_length_path(&g, 0, 3), None);
    }

    #[test]
    fn oracle_matches_single_source_runs() {
        let g = diamond();
        let mut oracle = DistanceOracle::new(&g);
        for src in 0..g.node_count() {
            let hops = bfs_hops(&g, src);
            let lens = dijkstra_lengths(&g, src);
            for dst in 0..g.node_count() {
                assert_eq!(oracle.hops(src, dst), hops[dst]);
                assert_eq!(oracle.length(src, dst), lens[dst]);
                // Cached second query agrees.
                assert_eq!(oracle.hops(src, dst), hops[dst]);
            }
        }
    }

    /// Four points a hair off the segment from node 0 to node 4, which
    /// is also an edge. The chain is one ulp shorter than the chord, yet
    /// the search only finds it by popping keys that exceed the chord's
    /// length, within the stopping margin.
    #[test]
    fn search_pops_within_the_margin() {
        let g = Graph::with_edges(
            vec![
                Point::new(32.98129196946951, 2.3404751818280833),
                Point::new(42.63889045032106, 2.3404752350147002),
                Point::new(59.736012286232324, 2.340475117470329),
                Point::new(67.00613131071931, 2.34047511187868),
                Point::new(196.04224065533938, 2.3404751818280833),
            ],
            [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
        );
        let chord = g.edge_length(0, 4);
        let want = dijkstra_lengths(&g, 0)[4].unwrap();
        assert!(want < chord);
        let got = LengthSearch::new(5).length(&g, 0, 4).unwrap();
        assert_eq!(got.to_bits(), want.to_bits());
    }

    /// Finite edges of about `10¹⁵⁴` whose endpoints' distances to the
    /// target overflow: an infinite `|vd|` would tie every key at
    /// infinity, let the longer route via node 2 reach the target first,
    /// and cut off the straight route via node 4.
    #[test]
    fn search_survives_overflowing_distances_to_the_target() {
        let e = 1e154;
        let g = Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(3.0 * e, 0.0),
                Point::new(0.9 * e, 0.5 * e),
                Point::new(2.1 * e, 0.5 * e),
                Point::new(e, 0.0),
                Point::new(2.0 * e, 0.0),
            ],
            [(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 1)],
        );
        assert!(g.points()[2].distance(g.points()[1]).is_infinite());
        let want = dijkstra_lengths(&g, 0)[1];
        assert_eq!(want, Some(3.0 * e));
        assert_eq!(LengthSearch::new(6).length(&g, 0, 1), want);
    }

    #[test]
    fn search_scratch_survives_epoch_wraparound() {
        let g = diamond();
        let mut search = LengthSearch::new(g.node_count());
        search.epoch = u32::MAX - 1;
        for _ in 0..3 {
            for src in 0..g.node_count() {
                for (dst, &want) in dijkstra_lengths(&g, src).iter().enumerate() {
                    assert_eq!(search.length(&g, src, dst), want);
                }
            }
        }
        assert!(search.epoch < 100);
    }

    #[test]
    fn dijkstra_agrees_with_bfs_on_unit_edges() {
        // All edges the same length: hop counts and lengths coincide.
        let g = Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(3.0, 0.0),
            ],
            [(0, 1), (1, 2), (2, 3)],
        );
        let hops = bfs_hops(&g, 0);
        let lens = dijkstra_lengths(&g, 0);
        for v in 0..4 {
            assert!((lens[v].unwrap() - hops[v].unwrap() as f64).abs() < 1e-12);
        }
    }
}
