//! Property-based tests for the geometry substrate.

use geospan_geometry::{
    convex_hull, delaunay_star, delaunay_triangles, gabriel_test, in_circumcircle, incircle,
    orient2d, segments_properly_cross, CirclePosition, Orientation, Point, Tie, Triangle,
    Triangulation,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A coordinate range wide enough to exercise interesting magnitudes but
/// keeping products finite.
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.0e3..1.0e3,
        -1.0..1.0,
        // Values with long mantissas to stress the exact fallback.
        (any::<i32>(), any::<u8>())
            .prop_map(|(m, e)| { (m as f64 / 65536.0) * 2f64.powi((e % 16) as i32 - 8) }),
    ]
}

fn point() -> impl Strategy<Value = Point> {
    (coord(), coord()).prop_map(|(x, y)| Point::new(x, y))
}

fn distinct_points(n: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(point(), n).prop_map(|mut v| {
        v.sort_by(|a, b| a.lex_cmp(*b));
        v.dedup();
        v
    })
}

proptest! {
    #[test]
    fn orient2d_antisymmetric(a in point(), b in point(), c in point()) {
        prop_assert_eq!(orient2d(a, b, c).sign(), -orient2d(b, a, c).sign());
        prop_assert_eq!(orient2d(a, b, c).sign(), -orient2d(a, c, b).sign());
    }

    #[test]
    fn orient2d_cyclic(a in point(), b in point(), c in point()) {
        let o = orient2d(a, b, c).sign();
        prop_assert_eq!(o, orient2d(b, c, a).sign());
        prop_assert_eq!(o, orient2d(c, a, b).sign());
    }

    #[test]
    fn orient2d_degenerate_pairs(a in point(), b in point()) {
        prop_assert_eq!(orient2d(a, a, b), Orientation::Collinear);
        prop_assert_eq!(orient2d(a, b, b), Orientation::Collinear);
        prop_assert_eq!(orient2d(a, b, a), Orientation::Collinear);
    }

    #[test]
    fn incircle_even_permutations_agree(a in point(), b in point(), c in point(), d in point()) {
        prop_assert_eq!(incircle(a, b, c, d), incircle(b, c, a, d));
        prop_assert_eq!(incircle(a, b, c, d), incircle(c, a, b, d));
    }

    #[test]
    fn incircle_odd_permutation_flips(a in point(), b in point(), c in point(), d in point()) {
        let fwd = incircle(a, b, c, d);
        let rev = incircle(a, c, b, d);
        let flipped = match fwd {
            CirclePosition::Inside => CirclePosition::Outside,
            CirclePosition::On => CirclePosition::On,
            CirclePosition::Outside => CirclePosition::Inside,
        };
        prop_assert_eq!(rev, flipped);
    }

    #[test]
    fn incircle_vertex_is_on(a in point(), b in point(), c in point()) {
        if orient2d(a, b, c) != Orientation::Collinear {
            prop_assert_eq!(in_circumcircle(a, b, c, a), CirclePosition::On);
            prop_assert_eq!(in_circumcircle(a, b, c, b), CirclePosition::On);
            prop_assert_eq!(in_circumcircle(a, b, c, c), CirclePosition::On);
        }
    }

    #[test]
    fn gabriel_disk_midpoint_inside(u in point(), v in point()) {
        if u != v {
            prop_assert!(gabriel_test(u, v, u.midpoint(v)));
            prop_assert!(!gabriel_test(u, v, u));
            prop_assert!(!gabriel_test(u, v, v));
        }
    }

    #[test]
    fn hull_contains_all_points(pts in distinct_points(40)) {
        let hull = convex_hull(&pts);
        if hull.len() >= 3 {
            // Every point is left of (or on) every CCW hull edge.
            for k in 0..hull.len() {
                let a = pts[hull[k]];
                let b = pts[hull[(k + 1) % hull.len()]];
                for &p in &pts {
                    prop_assert_ne!(orient2d(a, b, p), Orientation::Clockwise);
                }
            }
        }
    }

    #[test]
    fn hull_vertices_are_extreme(pts in distinct_points(30)) {
        let hull = convex_hull(&pts);
        // No hull vertex is a convex combination of its neighbors:
        // consecutive triples turn strictly left.
        if hull.len() >= 3 {
            for k in 0..hull.len() {
                let a = pts[hull[k]];
                let b = pts[hull[(k + 1) % hull.len()]];
                let c = pts[hull[(k + 2) % hull.len()]];
                prop_assert_eq!(orient2d(a, b, c), Orientation::CounterClockwise);
            }
        }
    }

    #[test]
    fn delaunay_invariants(pts in distinct_points(25)) {
        let tri = Triangulation::build(&pts).unwrap();
        // Empty circumcircle property, exhaustively.
        prop_assert!(tri.is_delaunay());
        // All triangles are CCW.
        for t in tri.triangles() {
            let [a, b, c] = t.indices();
            prop_assert_eq!(orient2d(pts[a], pts[b], pts[c]), Orientation::CounterClockwise);
        }
        // Adjacency is symmetric and consistent with the edge list.
        for &(u, v) in tri.edges() {
            prop_assert!(tri.neighbors(u).contains(&v));
            prop_assert!(tri.neighbors(v).contains(&u));
            prop_assert!(tri.contains_edge(u, v));
            prop_assert!(tri.contains_edge(v, u));
        }
    }

    #[test]
    fn delaunay_euler_formula(pts in distinct_points(30)) {
        let tri = Triangulation::build(&pts).unwrap();
        let n = pts.len();
        let h = tri.hull().len();
        if !tri.triangles().is_empty() {
            prop_assert_eq!(tri.triangles().len(), 2 * n - h - 2);
            prop_assert_eq!(tri.edges().len(), 3 * n - h - 3);
        }
    }

    #[test]
    fn delaunay_is_planar(pts in distinct_points(15)) {
        let tri = Triangulation::build(&pts).unwrap();
        let edges = tri.edges();
        for (i, &(a, b)) in edges.iter().enumerate() {
            for &(c, d) in &edges[i + 1..] {
                if a == c || a == d || b == c || b == d {
                    continue;
                }
                prop_assert!(
                    !segments_properly_cross(pts[a], pts[b], pts[c], pts[d]),
                    "edges ({a},{b}) and ({c},{d}) cross"
                );
            }
        }
    }

    #[test]
    fn segment_cross_is_symmetric(a in point(), b in point(), c in point(), d in point()) {
        use geospan_geometry::segments_cross;
        let r = segments_cross(a, b, c, d);
        // Order of the two segments does not matter...
        prop_assert_eq!(r, segments_cross(c, d, a, b));
        // ...nor does the orientation of either segment.
        prop_assert_eq!(r, segments_cross(b, a, c, d));
        prop_assert_eq!(r, segments_cross(a, b, d, c));
        prop_assert_eq!(r, segments_cross(b, a, d, c));
    }

    #[test]
    fn proper_crossing_matches_orientation_criterion(
        a in point(), b in point(), c in point(), d in point()
    ) {
        // For segments in general position, a proper crossing is exactly
        // "each segment's endpoints straddle the other's line".
        use geospan_geometry::segments_properly_cross;
        let os = [
            orient2d(a, b, c),
            orient2d(a, b, d),
            orient2d(c, d, a),
            orient2d(c, d, b),
        ];
        if os.iter().all(|&o| o != Orientation::Collinear) {
            let straddle = os[0] != os[1] && os[2] != os[3];
            prop_assert_eq!(segments_properly_cross(a, b, c, d), straddle);
        }
    }

    #[test]
    fn gabriel_blocking_is_symmetric(u in point(), v in point(), p in point()) {
        prop_assert_eq!(gabriel_test(u, v, p), gabriel_test(v, u, p));
    }

    #[test]
    fn delaunay_connects_everything(pts in distinct_points(20)) {
        // The Delaunay triangulation of >= 2 points is connected.
        let tri = Triangulation::build(&pts).unwrap();
        let n = pts.len();
        if n >= 2 {
            let mut seen = vec![false; n];
            let mut stack = vec![0usize];
            seen[0] = true;
            while let Some(u) = stack.pop() {
                for &v in tri.neighbors(u) {
                    if !seen[v] {
                        seen[v] = true;
                        stack.push(v);
                    }
                }
            }
            prop_assert!(seen.into_iter().all(|s| s), "triangulation disconnected");
        }
    }
}

/// Neighbourhood-shaped inputs for the star tests, drawn from `seed`:
/// uniform, Gaussian clusters (clamped to the square, so some points sit
/// on its sides), a jittered grid, or a tiny set of a centre and 2–4
/// others. Bit-identical repeats are dropped.
fn star_input(shape: u8, seed: u64) -> Vec<Point> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let uniform = |rng: &mut ChaCha8Rng| {
        Point::new(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0))
    };
    let pts: Vec<Point> = match shape % 4 {
        0 => (0..rng.random_range(3..40))
            .map(|_| uniform(&mut rng))
            .collect(),
        1 => {
            let centres: Vec<Point> = (0..rng.random_range(1..4))
                .map(|_| uniform(&mut rng))
                .collect();
            (0..rng.random_range(3..40))
                .map(|i| {
                    let c = centres[i % centres.len()];
                    let r = 6.0 * (-2.0 * rng.random_range(f64::MIN_POSITIVE..1.0).ln()).sqrt();
                    let a = rng.random_range(0.0..std::f64::consts::TAU);
                    Point::new(
                        (c.x + r * a.cos()).clamp(0.0, 100.0),
                        (c.y + r * a.sin()).clamp(0.0, 100.0),
                    )
                })
                .collect()
        }
        2 => {
            let (nx, ny) = (rng.random_range(2..7), rng.random_range(2..7));
            let jitter: f64 = rng.random_range(0.5..4.0);
            let mut pts = Vec::new();
            for i in 0..nx {
                for j in 0..ny {
                    let dx = rng.random_range(-jitter..jitter);
                    let dy = rng.random_range(-jitter..jitter);
                    pts.push(Point::new(i as f64 * 10.0 + dx, j as f64 * 10.0 + dy));
                }
            }
            pts
        }
        _ => (0..rng.random_range(3..6))
            .map(|_| uniform(&mut rng))
            .collect(),
    };
    let mut distinct: Vec<Point> = Vec::with_capacity(pts.len());
    for p in pts {
        if !distinct
            .iter()
            .any(|q| (q.x.to_bits(), q.y.to_bits()) == (p.x.to_bits(), p.y.to_bits()))
        {
            distinct.push(p);
        }
    }
    distinct
}

/// Ascending index triples, sorted.
fn keys<'a>(tris: impl IntoIterator<Item = &'a Triangle>) -> Vec<[usize; 3]> {
    let mut k: Vec<[usize; 3]> = tris.into_iter().map(Triangle::indices).collect();
    k.iter_mut().for_each(|t| t.sort_unstable());
    k.sort_unstable();
    k
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn delaunay_star_is_bowyer_watsons_incident_triangles(shape in 0u8..4, seed in any::<u64>()) {
        let pts = star_input(shape, seed);
        let all = delaunay_triangles(&pts).unwrap();
        let mut star = Vec::new();
        let mut walked = 0;
        for c in 0..pts.len() {
            if delaunay_star(&pts, c, &mut star) == Err(Tie) {
                continue;
            }
            walked += 1;
            prop_assert_eq!(keys(&star), keys(all.iter().filter(|t| t.contains(c))), "centre {}", c);
            // Counterclockwise around the centre, each triangle sharing
            // its second side with the next one's first.
            for (i, t) in star.iter().enumerate() {
                let [o, a, b] = t.indices();
                prop_assert_eq!(o, c);
                prop_assert_eq!(orient2d(pts[o], pts[a], pts[b]), Orientation::CounterClockwise);
                if let Some(next) = star.get(i + 1) {
                    prop_assert_eq!(next.indices()[1], b);
                }
            }
        }
        // Clamped clusters may put every point of a tiny set on one side;
        // the other shapes are in general position.
        prop_assert!(walked > 0 || shape % 4 == 1, "every centre tied");
    }
}

#[test]
fn delaunay_star_ties_on_an_exact_grid() {
    // Every point has two or four equally near neighbours, and every
    // unit square is cocircular.
    let pts: Vec<Point> = (0..5)
        .flat_map(|i| (0..5).map(move |j| Point::new(f64::from(i), f64::from(j))))
        .collect();
    let mut star = Vec::new();
    for c in 0..pts.len() {
        assert_eq!(delaunay_star(&pts, c, &mut star), Err(Tie), "centre {c}");
    }
}

#[test]
fn delaunay_star_ties_on_a_collinear_chain() {
    // Distinct gaps, so the nearest neighbour is unique: the tie is the
    // collinearity itself, where Bowyer–Watson has no triangles at all.
    let pts: Vec<Point> = (0..8)
        .map(|i| {
            let t = f64::from(i * i);
            Point::new(3.0 * t, 2.0 * t - 1.0)
        })
        .collect();
    let mut star = Vec::new();
    for c in 0..pts.len() {
        assert_eq!(delaunay_star(&pts, c, &mut star), Err(Tie), "centre {c}");
    }
    assert!(delaunay_triangles(&pts).unwrap().is_empty());
}
