//! The geospan core: planar bounded-degree spanner backbones for wireless
//! ad hoc networks.
//!
//! This crate assembles the full pipeline of Wang & Li (ICDCS 2002):
//!
//! 1. cluster the unit disk graph into dominators and dominatees
//!    (maximal independent set election),
//! 2. elect connectors to join all 2- and 3-hop dominator pairs —
//!    dominators + connectors form the **CDS backbone**,
//! 3. planarize the induced backbone graph `ICDS` with the localized
//!    Delaunay triangulation, yielding **`LDel(ICDS)`** — a planar graph
//!    with constant maximum degree that is a spanner of the UDG for both
//!    hops and Euclidean length (after re-attaching the dominatee edges,
//!    `LDel(ICDS')`).
//!
//! [`BackboneBuilder`] runs the pipeline either with centralized
//! reference algorithms or as real message-passing protocols with
//! measured communication costs; [`routing`] provides the geographic
//! routing algorithms (greedy, GPSR-style greedy+perimeter, and
//! dominating-set-based backbone routing) the backbone exists to serve.
//!
//! # Example
//!
//! ```
//! use geospan_core::{BackboneBuilder, BackboneConfig};
//! use geospan_graph::gen::connected_unit_disk;
//! use geospan_graph::planarity::is_plane_embedding;
//!
//! let (_pts, udg, _seed) = connected_unit_disk(60, 200.0, 60.0, 7);
//! let backbone = BackboneBuilder::new(BackboneConfig::new(60.0))
//!     .build(&udg)
//!     .unwrap();
//! assert!(is_plane_embedding(backbone.ldel_icds()));
//! assert!(backbone.ldel_icds_prime().is_connected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backbone;
pub mod maintenance;
pub mod routing;
mod verify;

pub use backbone::{Backbone, BackboneBuilder, BackboneConfig, BackboneError, BackboneStats};
pub use geospan_cds::{ClusterRank, Role};
pub use verify::{guarantees_hold, verify, PropertyReport};
