//! The embedded-graph representation shared by all topologies.

use geospan_geometry::Point;

/// An undirected graph embedded in the plane.
///
/// Nodes are identified by their index into the position slice; all
/// topologies derived from one deployment share the same vertex set (and
/// hence the same indices), differing only in their edge sets. This makes
/// comparisons — stretch factors, degree statistics — direct.
///
/// The adjacency is one compressed sparse row (CSR) layout: node `v`'s
/// neighbors are `targets[offsets[v]..offsets[v + 1]]`, ascending, so
/// [`Graph::neighbors`] is a slice of one flat array,
/// [`Graph::has_edge`] is `O(log degree)` and iteration order is
/// deterministic. Graphs are built in bulk with [`Graph::with_edges`], a
/// counting sort in `O(n + m)` plus a sort of each row. The single edits
/// [`Graph::add_edge`] and [`Graph::remove_edge`] shift the arrays in
/// `O(n + m)`; they serve tests and the few single-node updates of
/// backbone maintenance, never a bulk build. No method changes the node
/// set, so a graph's positions are fixed once it is built.
///
/// # Example
/// ```
/// use geospan_graph::{Graph, Point};
///
/// let mut g = Graph::with_edges(
///     vec![
///         Point::new(0.0, 0.0),
///         Point::new(1.0, 0.0),
///         Point::new(0.0, 1.0),
///     ],
///     [(2, 1), (0, 1), (1, 0)],
/// );
/// assert_eq!(g.edge_count(), 2);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(0, 2));
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// g.remove_edge(1, 2);
/// assert_eq!(g.neighbors(1), &[0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    points: Vec<Point>,
    /// Row boundaries, `n + 1` entries from `0` to `targets.len()`.
    offsets: Vec<usize>,
    /// Every row's neighbors, ascending within a row; each undirected
    /// edge appears once in each of its two rows.
    targets: Vec<usize>,
}

impl Graph {
    /// Creates an edgeless graph on the given node positions.
    pub fn new(points: Vec<Point>) -> Self {
        let n = points.len();
        Graph {
            points,
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Creates a graph with the given positions and edges.
    ///
    /// The edges may arrive in any order and orientation; duplicates are
    /// ignored. A counting sort places every edge in both of its rows,
    /// then each row is sorted and deduplicated in place: `O(n + m)` plus
    /// the row sorts, which are linear on rows that arrive ascending.
    ///
    /// # Panics
    /// Panics on out-of-bounds endpoints or self-loops.
    pub fn with_edges(points: Vec<Point>, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let n = points.len();
        let edges: Vec<(usize, usize)> = edges
            .into_iter()
            .inspect(|&(u, v)| check_endpoints(n, u, v))
            .collect();
        let mut offsets = vec![0; n + 1];
        for &(u, v) in &edges {
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0; offsets[n]];
        for (u, v) in edges {
            targets[cursor[u]] = v;
            cursor[u] += 1;
            targets[cursor[v]] = u;
            cursor[v] += 1;
        }
        // Sort each row and compact away duplicates. The write position
        // never passes the read position, so no unread entry is lost.
        let mut len = 0;
        for v in 0..n {
            let (start, end) = (offsets[v], offsets[v + 1]);
            offsets[v] = len;
            targets[start..end].sort_unstable();
            for i in start..end {
                let w = targets[i];
                if len == offsets[v] || targets[len - 1] != w {
                    targets[len] = w;
                    len += 1;
                }
            }
        }
        offsets[n] = len;
        targets.truncate(len);
        targets.shrink_to_fit();
        Graph {
            points,
            offsets,
            targets,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.points.len()
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// The node positions, indexable by node id.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The CSR arrays `(offsets, targets)`: node `v`'s sorted neighbors
    /// are `targets[offsets[v]..offsets[v + 1]]`.
    #[inline]
    pub fn csr(&self) -> (&[usize], &[usize]) {
        (&self.offsets, &self.targets)
    }

    /// Position of node `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn position(&self, v: usize) -> Point {
        self.points[v]
    }

    /// Sorted neighbor list of node `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// True when the undirected edge `{u, v}` is present.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Inserts the undirected edge `{u, v}`; returns `false` if it was
    /// already present. Shifts the arrays: `O(n + m)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds endpoints or when `u == v`.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        check_endpoints(self.node_count(), u, v);
        let (lo, hi) = (u.min(v), u.max(v));
        let Err(at_hi) = self.neighbors(hi).binary_search(&lo) else {
            return false;
        };
        let at_lo = self
            .neighbors(lo)
            .binary_search(&hi)
            .expect_err("adjacency is symmetric: lo does not list hi when hi does not list lo");
        // The later row first, so the earlier row's slot stays valid.
        self.targets.insert(self.offsets[hi] + at_hi, lo);
        self.targets.insert(self.offsets[lo] + at_lo, hi);
        self.shift_rows(lo, hi, 1);
        true
    }

    /// Removes the undirected edge `{u, v}`; returns `false` if it was
    /// absent. Shifts the arrays: `O(n + m)`.
    ///
    /// # Panics
    /// Panics on out-of-bounds endpoints.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        let n = self.node_count();
        assert!(
            u < n && v < n,
            "edge ({u}, {v}) out of bounds for {n} nodes"
        );
        let (lo, hi) = (u.min(v), u.max(v));
        let Ok(at_hi) = self.neighbors(hi).binary_search(&lo) else {
            return false;
        };
        let at_lo = self
            .neighbors(lo)
            .binary_search(&hi)
            .expect("adjacency lists mirror each other");
        self.targets.remove(self.offsets[hi] + at_hi);
        self.targets.remove(self.offsets[lo] + at_lo);
        self.shift_rows(lo, hi, -1);
        true
    }

    /// Moves the row boundaries after one slot was inserted (`delta = 1`)
    /// or removed (`delta = -1`) in each of rows `lo < hi`.
    fn shift_rows(&mut self, lo: usize, hi: usize, delta: isize) {
        for o in &mut self.offsets[lo + 1..=hi] {
            *o = o.wrapping_add_signed(delta);
        }
        for o in &mut self.offsets[hi + 1..] {
            *o = o.wrapping_add_signed(2 * delta);
        }
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
                .filter(move |&&v| u < v)
                .map(move |&v| (u, v))
        })
    }

    /// The subgraph keeping only edges whose two endpoints satisfy `keep`.
    ///
    /// The vertex set (and so the node indices) is unchanged.
    pub fn filter_edges(&self, mut keep: impl FnMut(usize, usize) -> bool) -> Graph {
        Graph::with_edges(
            self.points.clone(),
            self.edges().filter(|&(u, v)| keep(u, v)),
        )
    }

    /// True when every node is reachable from every other.
    ///
    /// The empty graph and the single-node graph are connected.
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in self.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// Connected-component label of every node: two nodes share a label
    /// iff they are connected. Labels are `0..k`, numbered in order of
    /// each component's smallest member. `O(n + m)`.
    pub fn component_labels(&self) -> Vec<usize> {
        let n = self.node_count();
        let mut label = vec![usize::MAX; n];
        let mut next = 0;
        let mut stack = Vec::new();
        for s in 0..n {
            if label[s] != usize::MAX {
                continue;
            }
            label[s] = next;
            stack.push(s);
            while let Some(u) = stack.pop() {
                for &v in self.neighbors(u) {
                    if label[v] == usize::MAX {
                        label[v] = next;
                        stack.push(v);
                    }
                }
            }
            next += 1;
        }
        label
    }

    /// Connected components as sorted lists of node indices, largest
    /// first (ties broken by smallest member).
    pub fn components(&self) -> Vec<Vec<usize>> {
        let labels = self.component_labels();
        let count = labels.iter().max().map_or(0, |&l| l + 1);
        let mut comps: Vec<Vec<usize>> = vec![Vec::new(); count];
        for (v, &l) in labels.iter().enumerate() {
            comps[l].push(v);
        }
        comps.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
        comps
    }
}

/// Panics unless `{u, v}` is a link between two of `n` nodes.
fn check_endpoints(n: usize, u: usize, v: usize) {
    assert!(u != v, "self-loop {u} is not a wireless link");
    assert!(
        u < n && v < n,
        "edge ({u}, {v}) out of bounds for {n} nodes"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Graph {
        Graph::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ])
    }

    #[test]
    fn add_and_remove_edges() {
        let mut g = square();
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0)); // duplicate, either orientation
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(1, 0));
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        square().add_edge(2, 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_rejected() {
        square().add_edge(0, 9);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn remove_edge_out_of_bounds_rejected() {
        square().remove_edge(0, 99);
    }

    #[test]
    fn neighbors_stay_sorted() {
        let mut g = square();
        g.add_edge(2, 3);
        g.add_edge(2, 0);
        g.add_edge(2, 1);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.degree(2), 3);
    }

    #[test]
    fn edges_iterator_is_sorted_and_unique() {
        let mut g = square();
        g.add_edge(3, 1);
        g.add_edge(0, 2);
        g.add_edge(0, 1);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3)]);
    }

    #[test]
    fn connectivity_and_components() {
        let mut g = square();
        assert!(!g.is_connected());
        assert_eq!(g.components().len(), 4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let comps = g.components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1]); // tie broken by smallest member
        g.add_edge(0, 3);
        g.remove_edge(2, 3);
        assert_eq!(g.component_labels(), vec![0, 0, 1, 0]);
        g.add_edge(1, 2);
        assert!(g.is_connected());
        assert_eq!(g.components().len(), 1);
    }

    #[test]
    fn trivial_graphs_are_connected() {
        assert!(Graph::new(vec![]).is_connected());
        assert!(Graph::new(vec![Point::ORIGIN]).is_connected());
    }

    #[test]
    fn filter_keeps_the_vertex_set() {
        let mut g = square();
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let sub = g.filter_edges(|u, v| u != 0 && v != 0);
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(sub.node_count(), 4);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn with_edges_rejects_self_loops() {
        Graph::with_edges(vec![Point::ORIGIN, Point::new(1.0, 0.0)], [(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn with_edges_rejects_out_of_bounds() {
        Graph::with_edges(vec![Point::ORIGIN], [(0, 3)]);
    }

    #[test]
    fn lengths() {
        let mut g = square();
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        assert_eq!(g.edge_length(0, 1), 1.0);
        assert_eq!(g.edge_length(0, 2), 2f64.sqrt());
    }
}
