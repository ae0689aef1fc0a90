//! The Delaunay star of one point: only the Delaunay triangles incident
//! to it, without triangulating the rest of the point set.

use crate::{incircle, orient2d, CirclePosition, Orientation, Point, Triangle};

/// An exact degeneracy that [`delaunay_star`] declines to break: two
/// equally near nearest neighbours, four cocircular points, a point
/// collinear with a star edge, or a walk that does not close.
///
/// The caller falls back to a full triangulation
/// ([`crate::delaunay_triangles`]), whose insertion order then breaks the
/// tie.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tie;

/// Relative margin under which two computed squared distances may be
/// equal in exact arithmetic: each is within `4ε` of its true value
/// (`ε = 2⁻⁵³`), so a gap above `32ε` of the larger is real. The absolute
/// term covers underflow.
const NEAR_TIE: f64 = 16.0 * f64::EPSILON;

/// The Delaunay triangles of `points` incident to `points[centre]`, into
/// `out` (cleared first), counterclockwise around the centre; each is
/// `Triangle([centre, a, b])` with `a`, `b` counterclockwise.
///
/// The walk starts at the nearest neighbour, which is always a Delaunay
/// neighbour. From a star edge `centre → v` the next neighbour is the
/// point left of it whose circle through `centre` and `v` holds no other
/// left point: one linear scan with the exact [`incircle`]. Points right
/// of the edge need no test, since that circle's right cap lies inside
/// the empty circle that made `centre → v` a Delaunay edge. At a hull
/// edge the walk goes clockwise from the start instead. A point set of
/// `d + 1` points costs `O(d)` per star edge, and no triangle away from
/// the centre is ever built.
///
/// When it returns `Ok`, every star triangle's circumcircle has no other
/// point inside or on it, so the triangles are exactly those incident to
/// the centre in *every* Delaunay triangulation of `points` — in
/// particular in the one [`crate::delaunay_triangles`] builds.
///
/// Fewer than three points have no triangles.
///
/// # Errors
/// [`Tie`] on any exact degeneracy (see its docs); `out` is then
/// unspecified.
///
/// # Panics
/// Panics if `centre` is out of bounds. Points must be finite and
/// pairwise distinct (debug-asserted), as [`crate::delaunay_triangles`]
/// checks.
///
/// # Example
/// ```
/// use geospan_geometry::{delaunay_star, Point, Tie};
/// let pts = [
///     Point::new(0.0, 0.0),
///     Point::new(2.0, 0.1),
///     Point::new(0.2, 2.1),
///     Point::new(-2.2, -0.1),
///     Point::new(0.1, -2.3),
/// ];
/// let mut star = Vec::new();
/// delaunay_star(&pts, 0, &mut star).unwrap();
/// assert_eq!(star.len(), 4); // the centre is enclosed
/// // An exact square is cocircular: the star declines to pick a diagonal.
/// let square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)].map(|(x, y)| Point::new(x, y));
/// assert_eq!(delaunay_star(&square, 0, &mut star), Err(Tie));
/// ```
pub fn delaunay_star(points: &[Point], centre: usize, out: &mut Vec<Triangle>) -> Result<(), Tie> {
    debug_assert!(crate::triangulation::check_distinct_finite(points).is_ok());
    out.clear();
    let c = points[centre];
    if points.len() < 3 {
        return Ok(());
    }
    let (mut near, mut d1, mut d2) = (centre, f64::INFINITY, f64::INFINITY);
    for (i, &p) in points.iter().enumerate() {
        if i == centre {
            continue;
        }
        let d = c.distance_sq(p);
        if d < d1 {
            (near, d1, d2) = (i, d, d1);
        } else if d < d2 {
            d2 = d;
        }
    }
    if d2 - d1 <= NEAR_TIE * d2 + f64::MIN_POSITIVE {
        return Err(Tie);
    }

    // A star has at most one triangle per other point.
    let most = points.len() - 1;
    let mut v = near;
    while let Some(w) = apex(points, centre, v)? {
        out.push(Triangle([centre, v, w]));
        if w == near {
            return Ok(());
        }
        if out.len() >= most {
            return Err(Tie);
        }
        v = w;
    }
    // `centre → v` is a hull edge: the star is a fan, so it also ends at
    // a hull edge clockwise from the start.
    let ccw = out.len();
    let mut v = near;
    while let Some(w) = apex(points, v, centre)? {
        out.push(Triangle([centre, w, v]));
        if out.len() > most {
            return Err(Tie);
        }
        v = w;
    }
    out[ccw..].reverse();
    out.rotate_left(ccw);
    Ok(())
}

/// The Delaunay apex left of the Delaunay edge `a → b`: the left point
/// whose circle through `a` and `b` holds no other left point, or `None`
/// when no point lies left (a hull edge).
fn apex(points: &[Point], a: usize, b: usize) -> Result<Option<usize>, Tie> {
    let (pa, pb) = (points[a], points[b]);
    let mut best: Option<(usize, Point)> = None;
    for (i, &p) in points.iter().enumerate() {
        if i == a || i == b {
            continue;
        }
        match orient2d(pa, pb, p) {
            Orientation::Clockwise => continue,
            Orientation::Collinear => return Err(Tie),
            Orientation::CounterClockwise => {}
        }
        match best {
            None => best = Some((i, p)),
            Some((_, q)) => match incircle(pa, pb, q, p) {
                CirclePosition::Inside => best = Some((i, p)),
                CirclePosition::On => return Err(Tie),
                CirclePosition::Outside => {}
            },
        }
    }
    Ok(best.map(|(i, _)| i))
}
