//! Power-aware path metrics.
//!
//! In the paper's power-attenuation model, transmitting over distance `d`
//! costs `d^β` with `2 <= β <= 5` depending on the environment (§I). A
//! subgraph is a *power spanner* when, for every pair, the minimum-energy
//! path in the subgraph costs at most a constant times the minimum-energy
//! path in the UDG. Because `x^β` is convex, many short hops beat one
//! long hop, so power spanners reward exactly the kind of subdivision the
//! backbone performs; the paper cites the power stretch factor of
//! Li-Wan-Wang-Frieder as the third yardstick next to length and hops.

use crate::paths::dijkstra;
use crate::stretch::StretchOptions;
use crate::Graph;

/// Minimum transmission energy from `src` to every node, with per-link
/// cost `length^beta` (`None` for unreachable nodes): the Dijkstra of
/// [`dijkstra_lengths`](crate::paths::dijkstra_lengths) on those costs.
///
/// # Panics
/// Panics if `src` is out of bounds or `beta` is not in `[1, 10]`
/// (values outside the physical range usually indicate swapped
/// arguments).
pub fn dijkstra_power(g: &Graph, src: usize, beta: f64) -> Vec<Option<f64>> {
    assert!(
        (1.0..=10.0).contains(&beta),
        "implausible path-loss exponent {beta}"
    );
    dijkstra(g, src, |u, v, _| g.edge_length(u, v).powf(beta))
}

/// Average and maximum power stretch of `sub` relative to `base`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerStretchReport {
    /// Mean power stretch over measured pairs.
    pub power_avg: f64,
    /// Maximum power stretch over measured pairs.
    pub power_max: f64,
    /// Number of measured pairs.
    pub pairs: usize,
    /// Pairs connected in the base graph but not in the subgraph.
    pub disconnected_pairs: usize,
}

/// Computes the power stretch factor of `sub` relative to `base` with
/// path-loss exponent `beta`.
///
/// Pair selection follows the same rules as
/// [`stretch_factors`](crate::stretch::stretch_factors) (the
/// `min_euclidean_separation` option applies).
///
/// # Panics
/// Panics if the graphs have different node counts or `beta` is outside
/// `[1, 10]`.
pub fn power_stretch(
    base: &Graph,
    sub: &Graph,
    beta: f64,
    opts: StretchOptions,
) -> PowerStretchReport {
    assert_eq!(
        base.node_count(),
        sub.node_count(),
        "power stretch requires a shared vertex set"
    );
    let n = base.node_count();
    let mut report = PowerStretchReport::default();
    let mut sum = 0.0;
    for u in 0..n {
        let b = dijkstra_power(base, u, beta);
        let s = dijkstra_power(sub, u, beta);
        for v in u + 1..n {
            let Some(bp) = b[v] else { continue };
            let Some(sp) = s[v] else {
                report.disconnected_pairs += 1;
                continue;
            };
            if base.position(u).distance(base.position(v)) <= opts.min_euclidean_separation {
                continue;
            }
            // bp == 0 only when u and v coincide, which distinct
            // deployments exclude.
            let ratio = sp / bp;
            sum += ratio;
            report.pairs += 1;
            if ratio > report.power_max {
                report.power_max = ratio;
            }
        }
    }
    if report.pairs > 0 {
        report.power_avg = sum / report.pairs as f64;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use geospan_geometry::Point;

    /// Chain 0-1-2 plus the direct long link 0-2.
    fn triangle_chain() -> Graph {
        Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
            ],
            [(0, 1), (1, 2), (0, 2)],
        )
    }

    #[test]
    fn power_prefers_many_short_hops() {
        let g = triangle_chain();
        // beta = 2: two hops of length 1 cost 2; the direct hop costs 4.
        let d = dijkstra_power(&g, 0, 2.0);
        assert_eq!(d[2], Some(2.0));
        // beta = 1 degenerates to length: direct hop wins.
        let d = dijkstra_power(&g, 0, 1.0);
        assert_eq!(d[2], Some(2.0)); // both routes cost 2; equal
    }

    #[test]
    fn removing_long_links_can_even_help() {
        let g = triangle_chain();
        let sub = g.filter_edges(|u, v| !(u == 0 && v == 2));
        let r = power_stretch(&g, &sub, 2.0, StretchOptions::default());
        // The subgraph still achieves the optimal power for every pair.
        assert_eq!(r.disconnected_pairs, 0);
        assert_eq!(r.power_max, 1.0);
        assert_eq!(r.pairs, 3);
    }

    #[test]
    fn stretch_detects_worse_paths() {
        // Square without a diagonal: the diagonal pair pays the detour.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        let base = Graph::with_edges(pts.clone(), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let sub = Graph::with_edges(pts, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let r = power_stretch(&base, &sub, 2.0, StretchOptions::default());
        // Optimal 0-2 power: diagonal (sqrt 2)^2 = 2; detour: 1 + 1 = 2.
        // Equal! Convexity makes the square detour free at beta = 2.
        assert!((r.power_max - 1.0).abs() < 1e-12);
        // At beta = 1 (length), the detour costs 2 vs sqrt(2).
        let r = power_stretch(&base, &sub, 1.0, StretchOptions::default());
        assert!(r.power_max > 1.2);
    }

    #[test]
    fn disconnection_counted() {
        let g = triangle_chain();
        let sub = g.filter_edges(|u, _| u != 0);
        let r = power_stretch(&g, &sub, 2.0, StretchOptions::default());
        assert_eq!(r.disconnected_pairs, 2);
        assert_eq!(r.pairs, 1);
    }

    #[test]
    fn separation_filter_applies() {
        let g = triangle_chain();
        let r = power_stretch(
            &g,
            &g,
            2.0,
            StretchOptions {
                min_euclidean_separation: 1.5,
            },
        );
        assert_eq!(r.pairs, 1); // only the pair (0, 2) is far enough
        assert_eq!(r.power_max, 1.0);
    }

    #[test]
    #[should_panic(expected = "implausible")]
    fn silly_beta_rejected() {
        let g = triangle_chain();
        let _ = dijkstra_power(&g, 0, 42.0);
    }
}
