//! # geospan
//!
//! A production-quality reproduction of *"Geometric Spanners for Wireless
//! Ad Hoc Networks"* (Yu Wang, Xiang-Yang Li; ICDCS 2002): planar,
//! bounded-degree, hop- and length-spanner backbones for unit-disk-graph
//! wireless networks, built by localized distributed algorithms in which
//! every node sends only a constant number of messages.
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`geometry`] — robust predicates and Delaunay triangulations,
//! * [`graph`] — unit disk graphs, shortest paths, stretch factors,
//! * [`sim`] — the deterministic message-passing simulator,
//! * [`topology`] — RNG / Gabriel / localized-Delaunay baselines,
//! * [`cds`] — clustering and connector election (the CDS backbone),
//! * [`core`] — the full `LDel(ICDS)` pipeline and routing,
//! * [`traffic`] — the discrete-event packet traffic engine.
//!
//! # Quickstart
//!
//! ```
//! use geospan::core::{BackboneBuilder, BackboneConfig};
//! use geospan::graph::gen::{uniform_points, UnitDiskBuilder};
//! use geospan::graph::planarity::is_plane_embedding;
//!
//! let pts = uniform_points(60, 200.0, 7);
//! let udg = UnitDiskBuilder::new(60.0).build(&pts);
//! if udg.is_connected() {
//!     let backbone = BackboneBuilder::new(BackboneConfig::new(60.0))
//!         .build(&udg)
//!         .expect("a valid UDG always yields a backbone");
//!     assert!(is_plane_embedding(backbone.ldel_icds()));
//! }
//! ```

pub use geospan_cds as cds;
pub use geospan_core as core;
pub use geospan_geometry as geometry;
pub use geospan_graph as graph;
pub use geospan_sim as sim;
pub use geospan_topology as topology;
pub use geospan_traffic as traffic;
