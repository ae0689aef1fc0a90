//! Geometric graph substrate for the geospan project.
//!
//! The wireless network model of Wang & Li (ICDCS 2002) is the **unit disk
//! graph**: nodes are points in the plane with a common transmission
//! radius, and two nodes are linked exactly when their distance is at most
//! that radius. Every topology the paper studies (RNG, Gabriel, localized
//! Delaunay, CDS backbones, …) is a subgraph of the UDG over the *same*
//! vertex set; this crate provides that shared representation plus the
//! measurement machinery the paper's evaluation section uses:
//!
//! * [`Graph`] — an embedded graph: point positions + one CSR adjacency,
//! * [`gen`] — workload generators (uniform, perturbed grid, clustered)
//!   and the unit-disk edge builder with grid-bucket neighbor search,
//! * [`paths`] — BFS hop distances and Dijkstra length distances,
//! * [`stretch`] — hop and length stretch factors of a subgraph relative
//!   to the full UDG (the paper's "spanning ratios"),
//! * [`planarity`] — exact "do any two edges cross?" checking,
//! * [`stats`] — degree and edge-count summaries,
//! * [`svg`] — simple SVG rendering for topology galleries (Figures 6–7).
//!
//! # Example
//!
//! ```
//! use geospan_graph::gen::{uniform_points, UnitDiskBuilder};
//! use geospan_graph::stats::degree_stats;
//!
//! let pts = uniform_points(80, 200.0, 42);
//! let udg = UnitDiskBuilder::new(60.0).build(&pts);
//! let stats = degree_stats(&udg);
//! assert!(stats.max as f64 >= stats.avg);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collections;
pub mod gen;
mod graph;
pub mod paths;
pub mod planarity;
pub mod power;
pub mod stats;
pub mod stretch;
pub mod svg;

pub use geospan_geometry::Point;
pub use graph::Graph;
