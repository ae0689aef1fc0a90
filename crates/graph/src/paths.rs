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
#[derive(PartialEq)]
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

/// A lazy shortest-path oracle over one graph.
///
/// Per-source BFS hop rows and Dijkstra length rows are computed on
/// first use and cached, so measuring many packets against the same few
/// sources — the traffic engine's per-packet stretch accounting — costs
/// one single-source run per distinct source instead of one per query.
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
}

impl<'a> DistanceOracle<'a> {
    /// An oracle over `g` with no rows computed yet.
    pub fn new(g: &'a Graph) -> Self {
        let n = g.node_count();
        DistanceOracle {
            g,
            hops: vec![None; n],
            lengths: vec![None; n],
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
    /// unreachable).
    ///
    /// # Panics
    /// Panics if either endpoint is out of bounds.
    pub fn length(&mut self, src: usize, dst: usize) -> Option<f64> {
        self.lengths[src].get_or_insert_with(|| dijkstra_lengths(self.g, src))[dst]
    }
}

/// Hop and length distances of a batch of `(src, dst)` pairs, answered
/// in input order.
///
/// Returns exactly what [`DistanceOracle::hops`] and
/// [`DistanceOracle::length`] would: one [`bfs_hops`] and one
/// [`dijkstra_lengths`] row per distinct source. The sources are visited
/// in ascending order and each row is dropped once its pairs are
/// answered, so memory is `O(n + pairs)` rather than the oracle's
/// `O(n · sources)`.
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
    for group in order.chunk_by(|&a, &b| pairs[a].0 == pairs[b].0) {
        let src = pairs[group[0]].0;
        let hops = bfs_hops(g, src);
        let lengths = dijkstra_lengths(g, src);
        for &i in group {
            let dst = pairs[i].1;
            out[i] = (hops[dst], lengths[dst]);
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
