//! Proximity topologies for wireless ad hoc networks.
//!
//! Every structure here is a subgraph of the unit disk graph over the same
//! vertex set, computable from 1-hop (or k-hop) neighborhood information
//! only — the property that makes them usable as *localized* topology
//! control in the sense of Wang & Li (ICDCS 2002):
//!
//! * [`relative_neighborhood`] — the RNG (Toussaint); planar, sparse, but
//!   length stretch Θ(n),
//! * [`gabriel`] — the Gabriel graph; planar, length stretch Θ(√n),
//! * [`unit_delaunay`] — the unit-disk restriction `UDel = Del ∩ UDG` of
//!   the global Delaunay triangulation (not locally computable; the
//!   quality yardstick),
//! * [`ldel`] — the **1-localized Delaunay graph** `LDel¹` and its
//!   planarization `PLDel` (Li, Calinescu & Wan), the planar spanner the
//!   paper erects on top of the CDS backbone,
//! * [`restricted_delaunay`] — Gao et al.'s Restricted Delaunay Graph,
//!   the construction the paper positions itself against,
//! * [`distributed`] / [`distributed2`] — Algorithms 2 & 3 of the paper
//!   (and the 2-hop `LDel²` variant) as real message-passing protocols
//!   over [`geospan_sim`], with measured communication costs.
//!
//! # Example
//!
//! ```
//! use geospan_graph::gen::connected_unit_disk;
//! use geospan_graph::planarity::is_plane_embedding;
//! use geospan_topology::{gabriel, ldel, relative_neighborhood};
//!
//! let (_pts, udg, _seed) = connected_unit_disk(60, 200.0, 60.0, 1);
//! let rng = relative_neighborhood(&udg);
//! let gg = gabriel(&udg);
//! let pldel = ldel::planarized(&udg);
//! // RNG ⊆ GG ⊆ PLDel ⊆ UDG, and all three are planar.
//! assert!(rng.edges().all(|(u, v)| gg.has_edge(u, v)));
//! assert!(gg.edges().all(|(u, v)| pldel.graph.has_edge(u, v)));
//! assert!(is_plane_embedding(&pldel.graph));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributed;
pub mod distributed2;
mod gabriel;
pub mod ldel;
pub mod rdg;
mod rng;

pub use gabriel::gabriel;
pub use rdg::restricted_delaunay;
pub use rng::relative_neighborhood;

use geospan_geometry::Triangulation;
use geospan_graph::Graph;

/// The unit Delaunay graph `UDel = Del(V) ∩ UDG`: Delaunay edges no longer
/// than the transmission radius.
///
/// # Panics
/// Panics if two nodes share a position.
pub fn unit_delaunay(udg: &Graph) -> Graph {
    let tri = Triangulation::build(udg.points()).expect("distinct node positions");
    Graph::with_edges(
        udg.points().to_vec(),
        tri.edges()
            .iter()
            .copied()
            .filter(|&(u, v)| udg.has_edge(u, v)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use geospan_graph::gen::{uniform_points, UnitDiskBuilder};

    #[test]
    fn udel_is_subgraph_of_both() {
        let pts = uniform_points(80, 100.0, 5);
        let udg = UnitDiskBuilder::new(30.0).build(&pts);
        let del = Triangulation::build(&pts).unwrap();
        let udel = unit_delaunay(&udg);
        for (u, v) in udel.edges() {
            assert!(del.contains_edge(u, v));
            assert!(udg.has_edge(u, v));
        }
        // Every short Delaunay edge is in UDel.
        for &(u, v) in del.edges() {
            if udg.has_edge(u, v) {
                assert!(udel.has_edge(u, v));
            }
        }
    }

    #[test]
    fn delaunay_of_triangle() {
        let g = UnitDiskBuilder::new(10.0).build(&[
            geospan_graph::Point::new(0.0, 0.0),
            geospan_graph::Point::new(1.0, 0.0),
            geospan_graph::Point::new(0.0, 1.0),
        ]);
        assert_eq!(unit_delaunay(&g).edge_count(), 3);
    }
}
