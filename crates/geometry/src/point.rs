//! 2-D points and elementary vector operations.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A point (or free vector) in the Euclidean plane.
///
/// Coordinates are `f64`. All *predicates* that consume points
/// ([`crate::orient2d`], [`crate::incircle`], …) are exact regardless of
/// the coordinate values; all *measures* (distances, angles) are ordinary
/// floating-point computations.
///
/// # Example
/// ```
/// use geospan_geometry::Point;
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// The origin, `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Prefer this over [`Point::distance`] for comparisons: it avoids the
    /// square root and is monotone in the true distance.
    #[inline]
    pub fn distance_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean norm of this point interpreted as a vector.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product with `other` (both interpreted as vectors).
    #[inline]
    pub fn dot(self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// The z-component of the cross product with `other`.
    ///
    /// Positive when `other` lies counterclockwise of `self`. This is a
    /// plain floating-point evaluation; use [`crate::orient2d`] when the
    /// *sign* must be exact.
    #[inline]
    pub fn cross(self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Midpoint of the segment from `self` to `other`.
    #[inline]
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Linear interpolation: `self` at `t == 0`, `other` at `t == 1`.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Angle of the vector from `self` to `other`, in `(-π, π]`.
    #[inline]
    pub fn angle_to(self, other: Point) -> f64 {
        (other.y - self.y).atan2(other.x - self.x)
    }

    /// True when both coordinates are finite (not NaN, not infinite).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Lexicographic comparison by `(x, y)`.
    ///
    /// Useful for canonical orderings of point sets. Total over all
    /// float values (including NaN) via IEEE 754 `totalOrder`.
    #[inline]
    pub fn lex_cmp(self, other: Point) -> std::cmp::Ordering {
        self.x.total_cmp(&other.x).then(self.y.total_cmp(&other.y))
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point {
    type Output = Point;
    #[inline]
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    #[inline]
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(a - b, Point::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point::new(1.5, -0.5));
        assert_eq!(-a, Point::new(-1.0, -2.0));
    }

    #[test]
    fn distances_and_products() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance_sq(b), 25.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(b.norm(), 5.0);
        assert_eq!(b.norm_sq(), 25.0);
        assert_eq!(Point::new(1.0, 0.0).dot(Point::new(0.0, 1.0)), 0.0);
        assert_eq!(Point::new(1.0, 0.0).cross(Point::new(0.0, 1.0)), 1.0);
    }

    #[test]
    fn midpoint_and_lerp() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 4.0);
        assert_eq!(a.midpoint(b), Point::new(1.0, 2.0));
        assert_eq!(a.lerp(b, 0.25), Point::new(0.5, 1.0));
        assert_eq!(a.lerp(b, 1.0), b);
    }

    #[test]
    fn angle_to_cardinal_directions() {
        let o = Point::ORIGIN;
        assert_eq!(o.angle_to(Point::new(1.0, 0.0)), 0.0);
        assert!((o.angle_to(Point::new(0.0, 1.0)) - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
    }

    #[test]
    fn lex_cmp_total_order() {
        use std::cmp::Ordering::*;
        let a = Point::new(0.0, 1.0);
        let b = Point::new(0.0, 2.0);
        let c = Point::new(1.0, 0.0);
        assert_eq!(a.lex_cmp(b), Less);
        assert_eq!(b.lex_cmp(a), Greater);
        assert_eq!(a.lex_cmp(c), Less);
        assert_eq!(a.lex_cmp(a), Equal);
    }

    #[test]
    fn conversions() {
        let p: Point = (1.5, 2.5).into();
        assert_eq!(p, Point::new(1.5, 2.5));
        let t: (f64, f64) = p.into();
        assert_eq!(t, (1.5, 2.5));
    }

    #[test]
    fn is_finite_detects_bad_values() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }
}
