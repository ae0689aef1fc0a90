//! The Gabriel graph.

use geospan_geometry::gabriel_test;
use geospan_graph::Graph;
use rayon::prelude::*;

use crate::rng::common_neighbors;

/// The Gabriel graph of the unit disk graph.
///
/// An UDG edge `uv` survives exactly when the open disk with diameter `uv`
/// contains no other node. Any node in that disk is a common UDG neighbor
/// of `u` and `v`, so only common neighbors must be examined and the
/// construction is 1-localized. The emptiness test is **exact** (see
/// [`gabriel_test`]), so planarity holds even on adversarial inputs.
///
/// Properties: planar, `RNG ⊆ GG`, contains the minimum spanning tree, but
/// length stretch factor Θ(√n) (Bose et al.) — good enough for guaranteed-
/// delivery face routing (GPSR uses it), not good enough for short routes.
///
/// # Example
/// ```
/// use geospan_graph::{Graph, Point};
/// use geospan_topology::gabriel;
/// // w inside the diametral disk of (u, v) kills the edge uv.
/// let udg = Graph::with_edges(
///     vec![Point::new(0.,0.), Point::new(2.,0.), Point::new(1.0, 0.3)],
///     [(0,1),(0,2),(1,2)]);
/// let gg = gabriel(&udg);
/// assert!(!gg.has_edge(0, 1));
/// assert!(gg.has_edge(0, 2) && gg.has_edge(1, 2));
/// ```
pub fn gabriel(udg: &Graph) -> Graph {
    Graph::with_edges(udg.points().to_vec(), gabriel_edges(udg))
}

/// The Gabriel edges of `udg`, `(u, v)` with `u < v`, sorted.
pub(crate) fn gabriel_edges(udg: &Graph) -> Vec<(usize, usize)> {
    // Each edge's emptiness test is independent, so the edges are tested
    // in parallel; the keep-mask preserves the sorted edge order, keeping
    // the result identical to the serial filter.
    let edges: Vec<(usize, usize)> = udg.edges().collect();
    let keep: Vec<bool> = edges
        .par_iter()
        .map(|&(u, v)| {
            let pu = udg.position(u);
            let pv = udg.position(v);
            !common_neighbors(udg, u, v).any(|w| gabriel_test(pu, pv, udg.position(w)))
        })
        .collect();
    edges
        .into_iter()
        .zip(keep)
        .filter_map(|(e, k)| k.then_some(e))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relative_neighborhood;
    use geospan_graph::gen::{uniform_points, UnitDiskBuilder};
    use geospan_graph::planarity::is_plane_embedding;
    use geospan_graph::Point;

    #[test]
    fn boundary_point_blocks_edge() {
        // w exactly on the diametral circle blocks the edge (closed-disk
        // convention; see `gabriel_test`), so degenerate cocircular
        // deployments can never produce two crossing Gabriel edges.
        let udg = Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(1.0, 1.0),
            ],
            [(0, 1), (0, 2), (1, 2)],
        );
        let gg = gabriel(&udg);
        assert!(!gg.has_edge(0, 1));
        // Connectivity survives through the blocking node.
        assert!(gg.has_edge(0, 2) && gg.has_edge(1, 2));
    }

    #[test]
    fn rng_is_subgraph_of_gabriel() {
        for seed in 0..5 {
            let pts = uniform_points(70, 100.0, seed + 10);
            let udg = UnitDiskBuilder::new(35.0).build(&pts);
            let gg = gabriel(&udg);
            let rng = relative_neighborhood(&udg);
            for (u, v) in rng.edges() {
                assert!(gg.has_edge(u, v), "RNG edge ({u},{v}) missing from GG");
            }
        }
    }

    #[test]
    fn gabriel_preserves_connectivity_and_planarity() {
        for seed in 0..5 {
            let pts = uniform_points(70, 100.0, seed + 20);
            let udg = UnitDiskBuilder::new(35.0).build(&pts);
            let gg = gabriel(&udg);
            assert_eq!(udg.is_connected(), gg.is_connected(), "seed {}", seed);
            assert!(is_plane_embedding(&gg), "seed {}", seed);
        }
    }
}
