//! Hop and length stretch factors ("spanning ratios").
//!
//! A subgraph `H ⊆ G` is a *length spanner* when for all node pairs the
//! shortest-path length in `H` is at most a constant times the one in `G`,
//! and a *hop spanner* when the same holds for hop counts. The paper's
//! Table I and Figures 9/11 report the average and maximum of these ratios
//! over node pairs; this module computes them.

use rayon::prelude::*;

use crate::paths::{bfs_hops, dijkstra_lengths};
use crate::Graph;

/// Options controlling which node pairs enter the stretch statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchOptions {
    /// Only count pairs whose *Euclidean* separation exceeds this value.
    ///
    /// The paper measures the length stretch of the CDS-family graphs only
    /// for pairs more than one transmission radius apart ("we are only
    /// interested in nodes u and v with |uv| > 1"), because a backbone
    /// detour between two nearly-coincident dominatees has unbounded
    /// length ratio while remaining a perfectly good route. `0.0` means
    /// all pairs.
    pub min_euclidean_separation: f64,
}

impl Default for StretchOptions {
    fn default() -> Self {
        StretchOptions {
            min_euclidean_separation: 0.0,
        }
    }
}

/// Average and maximum stretch factors of a subgraph relative to a base
/// graph.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StretchReport {
    /// Mean length stretch over measured pairs.
    pub length_avg: f64,
    /// Maximum length stretch over measured pairs.
    pub length_max: f64,
    /// Mean hop stretch over measured pairs.
    pub hop_avg: f64,
    /// Maximum hop stretch over measured pairs.
    pub hop_max: f64,
    /// Number of pairs entering the length statistics.
    pub length_pairs: usize,
    /// Number of pairs entering the hop statistics.
    pub hop_pairs: usize,
    /// Pairs connected in the base graph but not in the subgraph. A true
    /// spanner has zero.
    pub disconnected_pairs: usize,
}

/// Computes hop and length stretch factors of `sub` relative to `base`.
///
/// Both graphs must share the vertex set (same node count and positions).
/// Pairs unreachable in `base` are skipped; pairs reachable in `base` but
/// not in `sub` are counted in
/// [`disconnected_pairs`](StretchReport::disconnected_pairs) and excluded
/// from the ratios.
///
/// Runs one BFS ([`bfs_hops`]) and one Dijkstra ([`dijkstra_lengths`])
/// per node and graph: `O(n · m log n)`, each search scanning the
/// graph's flat CSR rows. Sources are processed in parallel; the
/// per-source partial statistics are folded serially in source order, so
/// the report is bit-identical for every thread count, including
/// `RAYON_NUM_THREADS=1`.
///
/// The serial fold is the only way to write it: the rayon stand-in
/// offers `map` and an input-ordered `collect`,
///
/// ```
/// use rayon::prelude::*;
/// let v = vec![0.1_f64, 0.2, 0.3];
/// let squares: Vec<f64> = v.par_iter().map(|x| x * x).collect();
/// let total: f64 = squares.iter().sum(); // serial, in index order
/// assert!(total > 0.0);
/// ```
///
/// but no `sum`, `fold` or `reduce`, so a float reduction whose order
/// would follow the scheduler does not compile:
///
/// ```compile_fail
/// use rayon::prelude::*;
/// let v = vec![0.1_f64, 0.2, 0.3];
/// let total: f64 = v.par_iter().map(|x| x * x).sum();
/// ```
///
/// # Panics
/// Panics if the graphs have different node counts.
///
/// # Example
/// ```
/// use geospan_graph::{Graph, Point};
/// use geospan_graph::stretch::{stretch_factors, StretchOptions};
///
/// let pts = vec![Point::new(0.,0.), Point::new(1.,0.), Point::new(1.,1.)];
/// let base = Graph::with_edges(pts.clone(), [(0,1),(1,2),(0,2)]);
/// let sub = Graph::with_edges(pts, [(0,1),(1,2)]); // drop the diagonal
/// let r = stretch_factors(&base, &sub, StretchOptions::default());
/// assert_eq!(r.disconnected_pairs, 0);
/// assert!(r.length_max > 1.0 && r.length_max < 1.5);
/// assert_eq!(r.hop_max, 2.0);
/// ```
pub fn stretch_factors(base: &Graph, sub: &Graph, opts: StretchOptions) -> StretchReport {
    assert_eq!(
        base.node_count(),
        sub.node_count(),
        "stretch factors require a shared vertex set"
    );
    let n = base.node_count();

    /// The statistics contributed by one source node's pairs `(u, v>u)`.
    #[derive(Default)]
    struct SourcePartial {
        length_sum: f64,
        length_max: f64,
        length_pairs: usize,
        hop_sum: f64,
        hop_max: f64,
        hop_pairs: usize,
        disconnected_pairs: usize,
    }

    let partials: Vec<SourcePartial> = (0..n)
        .into_par_iter()
        .map(|u| {
            let base_len = dijkstra_lengths(base, u);
            let base_hop = bfs_hops(base, u);
            let sub_len = dijkstra_lengths(sub, u);
            let sub_hop = bfs_hops(sub, u);
            let mut p = SourcePartial::default();
            for v in u + 1..n {
                let Some(bl) = base_len[v] else { continue };
                let bh = base_hop[v].expect("hop- and length-reachability agree");
                let (Some(sl), Some(sh)) = (sub_len[v], sub_hop[v]) else {
                    p.disconnected_pairs += 1;
                    continue;
                };
                // Hop stretch: all base-connected pairs.
                let hs = sh as f64 / bh as f64;
                p.hop_sum += hs;
                p.hop_pairs += 1;
                if hs > p.hop_max {
                    p.hop_max = hs;
                }
                // Length stretch: optionally restricted to separated pairs.
                if base.position(u).distance(base.position(v)) > opts.min_euclidean_separation {
                    let ls = sl / bl;
                    p.length_sum += ls;
                    p.length_pairs += 1;
                    if ls > p.length_max {
                        p.length_max = ls;
                    }
                }
            }
            p
        })
        .collect();

    // Serial fold in source order: deterministic regardless of thread count.
    let mut report = StretchReport::default();
    let mut length_sum = 0.0;
    let mut hop_sum = 0.0;
    for p in partials {
        length_sum += p.length_sum;
        hop_sum += p.hop_sum;
        report.length_pairs += p.length_pairs;
        report.hop_pairs += p.hop_pairs;
        report.disconnected_pairs += p.disconnected_pairs;
        report.length_max = report.length_max.max(p.length_max);
        report.hop_max = report.hop_max.max(p.hop_max);
    }
    if report.length_pairs > 0 {
        report.length_avg = length_sum / report.length_pairs as f64;
    }
    if report.hop_pairs > 0 {
        report.hop_avg = hop_sum / report.hop_pairs as f64;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use geospan_geometry::Point;

    fn chain_and_shortcut() -> (Graph, Graph) {
        // Base: square with both diagonals; sub: the square only.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        let base = Graph::with_edges(
            pts.clone(),
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)],
        );
        let sub = Graph::with_edges(pts, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        (base, sub)
    }

    #[test]
    fn identical_graphs_have_unit_stretch() {
        let (base, _) = chain_and_shortcut();
        let r = stretch_factors(&base, &base, StretchOptions::default());
        assert_eq!(r.length_avg, 1.0);
        assert_eq!(r.length_max, 1.0);
        assert_eq!(r.hop_avg, 1.0);
        assert_eq!(r.hop_max, 1.0);
        assert_eq!(r.disconnected_pairs, 0);
    }

    #[test]
    fn square_without_diagonals() {
        let (base, sub) = chain_and_shortcut();
        let r = stretch_factors(&base, &sub, StretchOptions::default());
        // Diagonal pairs: length 2 instead of sqrt(2); hops 2 instead of 1.
        assert!((r.length_max - 2.0 / 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(r.hop_max, 2.0);
        assert_eq!(r.length_pairs, 6);
        assert_eq!(r.disconnected_pairs, 0);
    }

    #[test]
    fn disconnected_pairs_counted() {
        let (base, mut sub) = chain_and_shortcut();
        sub.remove_edge(0, 1);
        sub.remove_edge(3, 0);
        let r = stretch_factors(&base, &sub, StretchOptions::default());
        // Node 0 is isolated in sub: pairs (0,1), (0,2), (0,3) lost.
        assert_eq!(r.disconnected_pairs, 3);
        assert_eq!(r.hop_pairs, 3);
    }

    #[test]
    fn separation_filter_drops_close_pairs() {
        let (base, sub) = chain_and_shortcut();
        let r = stretch_factors(
            &base,
            &sub,
            StretchOptions {
                min_euclidean_separation: 1.2,
            },
        );
        // Only the two diagonal pairs are farther than 1.2 apart.
        assert_eq!(r.length_pairs, 2);
        // Hop statistics are unaffected by the separation filter.
        assert_eq!(r.hop_pairs, 6);
    }

    #[test]
    #[should_panic(expected = "shared vertex set")]
    fn mismatched_vertex_sets_rejected() {
        let (base, _) = chain_and_shortcut();
        let other = Graph::new(vec![Point::ORIGIN]);
        let _ = stretch_factors(&base, &other, StretchOptions::default());
    }
}
