//! Computational-geometry substrate for the geospan project.
//!
//! This crate provides everything the spanner constructions of
//! Wang & Li (ICDCS 2002) need from planar geometry:
//!
//! * [`Point`] — a 2-D point with the usual vector operations,
//! * robust geometric predicates ([`orient2d`], [`incircle`],
//!   [`gabriel_test`], …) that are **exact**: a fast floating-point filter
//!   with a proven error bound, falling back to arbitrary-length
//!   floating-point *expansions* (Shewchuk-style) when the filter is
//!   inconclusive,
//! * segment intersection tests, convex hulls,
//! * a [`Triangulation`] type implementing the Delaunay triangulation via
//!   incremental Bowyer–Watson insertion with ghost triangles, and
//!   [`delaunay_star`], the Delaunay triangles around one point alone.
//!
//! The exactness of the predicates is what makes the planarity guarantees
//! of the localized Delaunay graph hold in practice and not just in the
//! real-RAM model of the paper.
//!
//! # Example
//!
//! ```
//! use geospan_geometry::{Point, Triangulation};
//!
//! # fn main() -> Result<(), geospan_geometry::TriangulationError> {
//! let pts = vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(1.0, 0.0),
//!     Point::new(0.5, 1.0),
//!     Point::new(0.5, 0.3),
//! ];
//! let tri = Triangulation::build(&pts)?;
//! assert_eq!(tri.triangles().len(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expansion;
mod grid;
mod hull;
mod point;
mod predicates;
mod segment;
mod star;
mod triangulation;

pub use grid::UniformGrid;
pub use hull::convex_hull;
pub use point::Point;
pub use predicates::{
    gabriel_test, in_circumcircle, incircle, orient2d, CirclePosition, Orientation,
};
pub use segment::{segments_cross, segments_properly_cross, SegmentIntersection};
pub use star::{delaunay_star, Tie};
pub use triangulation::{delaunay_triangles, Triangle, Triangulation, TriangulationError};

/// Pseudo-angle of the vector `(dx, dy)`: a monotone surrogate for
/// `atan2(dy, dx)` that maps the full turn to `[0, 4)` without
/// trigonometry.
///
/// Two vectors compare the same under pseudo-angle as under true angle,
/// which is all that angular sweeps and planar-embedding sorts need.
///
/// # Example
/// ```
/// use geospan_geometry::pseudo_angle;
/// assert!(pseudo_angle(1.0, 0.0) < pseudo_angle(0.0, 1.0));
/// assert!(pseudo_angle(0.0, 1.0) < pseudo_angle(-1.0, 0.0));
/// assert!(pseudo_angle(-1.0, 0.0) < pseudo_angle(0.0, -1.0));
/// ```
pub fn pseudo_angle(dx: f64, dy: f64) -> f64 {
    let ax = dx.abs();
    let ay = dy.abs();
    let s = if ax + ay == 0.0 { 0.0 } else { dy / (ax + ay) };
    // `s` is in [-1, 1]; fold the four quadrants onto [0, 4).
    if dx >= 0.0 {
        if dy >= 0.0 {
            s // quadrant I: [0, 1)
        } else {
            4.0 + s // quadrant IV: [3, 4)
        }
    } else {
        2.0 - s // quadrants II & III: [1, 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pseudo_angle_orders_like_atan2() {
        let dirs: Vec<(f64, f64)> = (0..64)
            .map(|i| {
                let a = (i as f64) * std::f64::consts::TAU / 64.0 + 0.013;
                (a.cos(), a.sin())
            })
            .collect();
        for &(x1, y1) in &dirs {
            for &(x2, y2) in &dirs {
                let t1 = y1.atan2(x1).rem_euclid(std::f64::consts::TAU);
                let t2 = y2.atan2(x2).rem_euclid(std::f64::consts::TAU);
                let p1 = pseudo_angle(x1, y1);
                let p2 = pseudo_angle(x2, y2);
                assert_eq!(t1 < t2, p1 < p2, "mismatch for {x1},{y1} vs {x2},{y2}");
            }
        }
    }

    #[test]
    fn pseudo_angle_zero_vector_is_zero() {
        assert_eq!(pseudo_angle(0.0, 0.0), 0.0);
    }
}
