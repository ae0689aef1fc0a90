//! Frozen CSR (compressed sparse row) adjacency for the query phase.
//!
//! Construction mutates a [`Graph`] (`Vec<Vec<usize>>` behind
//! `add_edge`/`remove_edge`); the measurement phase — stretch factors,
//! diameters, crossing counts — only *reads* the adjacency, over and
//! over, from every source node. [`Graph::freeze`] compacts the
//! adjacency into two flat arrays (`offsets`, `targets`) with `u32` node
//! ids: one allocation each, half the bytes per directed edge, and
//! cache-line-friendly sequential neighbor scans.
//!
//! The freeze/thaw lifecycle is one-way per phase: build on `Graph`,
//! [`Graph::freeze`] for queries, [`CsrGraph::thaw`] back to a mutable
//! `Graph` only when a topology change forces a rebuild. Neighbor order
//! is preserved exactly (ascending), so any traversal is bit-identical
//! on either representation.

use geospan_geometry::Point;

use crate::paths::{bfs_hops_over, dijkstra_lengths_over};
use crate::Graph;

/// A read-only graph in CSR layout: `neighbors(v)` is the slice
/// `targets[offsets[v]..offsets[v+1]]`, ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    points: Vec<Point>,
    offsets: Vec<u32>,
    targets: Vec<u32>,
    edge_count: usize,
}

impl Graph {
    /// Freezes this graph into a [`CsrGraph`] for the read-mostly query
    /// phase. Neighbor order (ascending) is preserved exactly.
    ///
    /// # Panics
    /// Panics if the graph has ≥ 2³² nodes or directed edges — beyond
    /// the `u32` id space the arena layout is built on.
    pub fn freeze(&self) -> CsrGraph {
        let n = self.node_count();
        let m2 = 2 * self.edge_count();
        assert!(
            n < u32::MAX as usize && m2 <= u32::MAX as usize,
            "graph exceeds the u32 id space ({n} nodes, {m2} directed edges)"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(m2);
        offsets.push(0u32);
        for v in 0..n {
            targets.extend(self.neighbors(v).iter().map(|&w| w as u32));
            offsets.push(targets.len() as u32);
        }
        CsrGraph {
            points: self.points().to_vec(),
            offsets,
            targets,
            edge_count: self.edge_count(),
        }
    }
}

impl CsrGraph {
    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.points.len()
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The node positions, indexable by node id.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Position of node `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn position(&self, v: usize) -> Point {
        self.points[v]
    }

    /// Sorted (ascending) neighbor ids of node `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// True when the undirected edge `{u, v}` is present.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Euclidean length of the edge (or non-edge) `{u, v}`.
    ///
    /// # Panics
    /// Panics on out-of-bounds endpoints.
    #[inline]
    pub fn edge_length(&self, u: usize, v: usize) -> f64 {
        self.points[u].distance(self.points[v])
    }

    /// All edges as `(u, v)` pairs with `u < v`, in sorted order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.node_count()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| u < v as usize)
                .map(move |&v| (u, v as usize))
        })
    }

    /// Thaws back into a mutable [`Graph`] (exact inverse of
    /// [`Graph::freeze`]).
    pub fn thaw(&self) -> Graph {
        let edges: Vec<(usize, usize)> = self.edges().collect();
        Graph::from_sorted_edges(self.points.clone(), edges)
    }

    /// Hop distance from `src` to every node (`None` for unreachable
    /// nodes): the search of [`crate::paths::bfs_hops`] over the CSR
    /// adjacency.
    ///
    /// # Panics
    /// Panics if `src` is out of bounds.
    pub fn bfs_hops(&self, src: usize) -> Vec<Option<u32>> {
        bfs_hops_over(self.node_count(), src, |u| self.neighbors(u))
    }

    /// Euclidean-length distance from `src` to every node (`None` for
    /// unreachable nodes): the search of
    /// [`crate::paths::dijkstra_lengths`] over the CSR adjacency.
    ///
    /// # Panics
    /// Panics if `src` is out of bounds.
    pub fn dijkstra_lengths(&self, src: usize) -> Vec<Option<f64>> {
        dijkstra_lengths_over(&self.points, src, |u| self.neighbors(u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{uniform_points, UnitDiskBuilder};
    use crate::paths::{bfs_hops, dijkstra_lengths};

    #[test]
    fn freeze_preserves_structure() {
        let pts = uniform_points(120, 150.0, 5);
        let g = UnitDiskBuilder::new(40.0).build(&pts);
        let c = g.freeze();
        assert_eq!(c.node_count(), g.node_count());
        assert_eq!(c.edge_count(), g.edge_count());
        for v in 0..g.node_count() {
            assert_eq!(c.degree(v), g.degree(v));
            let nbrs: Vec<usize> = c.neighbors(v).iter().map(|&w| w as usize).collect();
            assert_eq!(nbrs, g.neighbors(v));
        }
        let ge: Vec<_> = g.edges().collect();
        let ce: Vec<_> = c.edges().collect();
        assert_eq!(ge, ce);
    }

    #[test]
    fn thaw_round_trips() {
        let pts = uniform_points(80, 120.0, 9);
        let g = UnitDiskBuilder::new(35.0).build(&pts);
        assert_eq!(g.freeze().thaw(), g);
    }

    #[test]
    fn csr_searches_match_graph_searches() {
        let pts = uniform_points(100, 160.0, 3);
        let g = UnitDiskBuilder::new(45.0).build(&pts);
        let c = g.freeze();
        for src in [0, 17, 99] {
            assert_eq!(c.bfs_hops(src), bfs_hops(&g, src));
            assert_eq!(c.dijkstra_lengths(src), dijkstra_lengths(&g, src));
        }
    }

    #[test]
    fn has_edge_and_lengths() {
        let g = Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(3.0, 4.0),
                Point::new(9.0, 9.0),
            ],
            [(0, 1)],
        );
        let c = g.freeze();
        assert!(c.has_edge(0, 1) && c.has_edge(1, 0));
        assert!(!c.has_edge(0, 2));
        assert_eq!(c.edge_length(0, 1), 5.0);
    }

    #[test]
    fn empty_graph_freezes() {
        let c = Graph::new(vec![]).freeze();
        assert_eq!(c.node_count(), 0);
        assert_eq!(c.edges().count(), 0);
    }
}
