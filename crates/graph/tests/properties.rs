//! Property-based tests for the graph substrate.

use geospan_graph::gen::{gaussian_clusters, uniform_points, UnitDiskBuilder};
use geospan_graph::paths::{
    bfs_hops, dijkstra_lengths, pair_distances, path_length, shortest_length_path, DistanceOracle,
};
use geospan_graph::stats::degree_stats;
use geospan_graph::stretch::{stretch_factors, StretchOptions};
use geospan_graph::{Graph, Point};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn deployment() -> impl Strategy<Value = (Vec<Point>, f64)> {
    (5usize..60, 20.0f64..80.0, any::<u64>())
        .prop_map(|(n, radius, seed)| (uniform_points(n, 100.0, seed), radius))
}

/// A `w × h` integer lattice scaled by `scale`, with an edge between
/// every two points whose integer offset has squared length at most
/// `reach_sq`. Equal-length paths abound and differ only in rounding;
/// the tiny scale makes every squared difference underflow.
fn lattice() -> impl Strategy<Value = Graph> {
    (1usize..9, 1usize..9, 0usize..4, 0usize..5).prop_map(|(w, h, reach, scale)| {
        let reach_sq = [1, 2, 4, 5][reach];
        let scale = [1.0, 0.1, 3.0, 1e-160, 1e150][scale];
        let at = |i: usize| ((i % w) as i64, (i / w) as i64);
        let points = (0..w * h)
            .map(|i| {
                let (x, y) = at(i);
                Point::new(x as f64 * scale, y as f64 * scale)
            })
            .collect();
        let mut edges = Vec::new();
        for u in 0..w * h {
            for v in u + 1..w * h {
                let ((ux, uy), (vx, vy)) = (at(u), at(v));
                if (ux - vx).pow(2) + (uy - vy).pow(2) <= reach_sq {
                    edges.push((u, v));
                }
            }
        }
        Graph::with_edges(points, edges)
    })
}

/// A chain of 4 or 5 points a hair off the segment between its ends,
/// plus that segment as a chord, scaled by 1 or by `1e-160` (where every
/// squared difference underflows). The chain and the chord differ in
/// float length by an ulp or so; in some draws a search that stopped as
/// soon as its smallest key passed the best length found would return
/// the chord's length, one ulp above the chain's.
fn near_collinear_chain() -> impl Strategy<Value = Graph> {
    (
        0.0f64..1.0,
        1.0f64..2.0,
        0.0f64..1.0,
        prop::collection::vec((0.0f64..1.0, -1e-9f64..1e-9), 2..4),
        any::<bool>(),
    )
        .prop_map(|(a, b, y, inner, tiny)| {
            let scale = if tiny { 1e-160 } else { 1.0 };
            let mut xs: Vec<(f64, f64)> = inner
                .iter()
                .map(|&(t, dy)| (a + t * (b - a), y + dy))
                .collect();
            xs.sort_by(|p, q| p.0.total_cmp(&q.0));
            let points: Vec<Point> = std::iter::once((a, y))
                .chain(xs)
                .chain(std::iter::once((b, y)))
                .map(|(x, y)| Point::new(x * scale, y * scale))
                .collect();
            let n = points.len();
            let edges = (0..n - 1).map(|i| (i, i + 1)).chain([(0, n - 1)]);
            Graph::with_edges(points, edges)
        })
}

/// Every ordered pair of `g`, `src == dst` included, has the hop count
/// of its [`bfs_hops`] row and, to the bit, the length of its
/// [`dijkstra_lengths`] row, both from a one-pair [`pair_distances`]
/// batch (whose only source always takes the goal-directed search) and
/// from one [`DistanceOracle`] asked source by source (which switches a
/// source to a Dijkstra row once searches would cost more).
fn assert_lengths_exact(g: &Graph) -> Result<(), TestCaseError> {
    let n = g.node_count();
    let mut oracle = DistanceOracle::new(g);
    for src in 0..n {
        let hops = bfs_hops(g, src);
        let row = dijkstra_lengths(g, src);
        for dst in 0..n {
            let want = row[dst].map(f64::to_bits);
            let (h, len) = pair_distances(g, &[(src, dst)])[0];
            prop_assert_eq!(h, hops[dst]);
            prop_assert_eq!(len.map(f64::to_bits), want, "search {} -> {}", src, dst);
            prop_assert_eq!(oracle.hops(src, dst), hops[dst]);
            let len = oracle.length(src, dst);
            prop_assert_eq!(len.map(f64::to_bits), want, "oracle {} -> {}", src, dst);
        }
    }
    Ok(())
}

/// `pair_distances(g, pairs)` against raw [`bfs_hops`] and
/// [`dijkstra_lengths`] rows, lengths to the bit.
fn assert_batch_exact(g: &Graph, pairs: &[(usize, usize)]) -> Result<(), TestCaseError> {
    let batched = pair_distances(g, pairs);
    prop_assert_eq!(batched.len(), pairs.len());
    let mut rows = vec![None; g.node_count()];
    for (&(s, d), &(hops, len)) in pairs.iter().zip(&batched) {
        let (hop_row, len_row) =
            rows[s].get_or_insert_with(|| (bfs_hops(g, s), dijkstra_lengths(g, s)));
        prop_assert_eq!(hops, hop_row[d]);
        prop_assert_eq!(
            len.map(f64::to_bits),
            len_row[d].map(f64::to_bits),
            "{} -> {}",
            s,
            d
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn udg_edges_respect_radius((pts, radius) in deployment()) {
        let g = UnitDiskBuilder::new(radius).build(&pts);
        for (u, v) in g.edges() {
            prop_assert!(g.edge_length(u, v) <= radius);
        }
        // Completeness: no missing edge.
        for u in 0..pts.len() {
            for v in u + 1..pts.len() {
                if pts[u].distance(pts[v]) <= radius {
                    prop_assert!(g.has_edge(u, v));
                }
            }
        }
    }

    #[test]
    fn degree_sum_is_twice_edges((pts, radius) in deployment()) {
        let g = UnitDiskBuilder::new(radius).build(&pts);
        let sum: usize = (0..g.node_count()).map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, 2 * g.edge_count());
        let stats = degree_stats(&g);
        prop_assert!(stats.avg <= stats.max as f64 + 1e-12);
    }

    #[test]
    fn bfs_satisfies_triangle_property((pts, radius) in deployment()) {
        let g = UnitDiskBuilder::new(radius).build(&pts);
        let d = bfs_hops(&g, 0);
        // Adjacent nodes differ by at most one hop level.
        for (u, v) in g.edges() {
            if let (Some(du), Some(dv)) = (d[u], d[v]) {
                prop_assert!(du.abs_diff(dv) <= 1);
            }
        }
    }

    #[test]
    fn dijkstra_lower_bounded_by_euclidean((pts, radius) in deployment()) {
        let g = UnitDiskBuilder::new(radius).build(&pts);
        let d = dijkstra_lengths(&g, 0);
        for (v, dist) in d.iter().enumerate() {
            if let Some(len) = dist {
                prop_assert!(*len + 1e-9 >= pts[0].distance(pts[v]));
            }
        }
    }

    #[test]
    fn shortest_length_path_matches_dijkstra((pts, radius) in deployment()) {
        let g = UnitDiskBuilder::new(radius).build(&pts);
        let d = dijkstra_lengths(&g, 0);
        #[allow(clippy::needless_range_loop)]
        for v in 1..g.node_count() {
            match (d[v], shortest_length_path(&g, 0, v)) {
                (Some(len), Some(path)) => {
                    prop_assert!((path_length(&g, &path) - len).abs() < 1e-9);
                    prop_assert_eq!(path[0], 0);
                    prop_assert_eq!(*path.last().unwrap(), v);
                    // Each step is an actual edge.
                    for w in path.windows(2) {
                        prop_assert!(g.has_edge(w[0], w[1]));
                    }
                }
                (None, None) => {}
                (a, b) => prop_assert!(false, "reachability mismatch: {:?} vs {:?}", a, b.map(|p| p.len())),
            }
        }
    }

    #[test]
    fn stretch_of_self_is_one((pts, radius) in deployment()) {
        let g = UnitDiskBuilder::new(radius).build(&pts);
        let r = stretch_factors(&g, &g, StretchOptions::default());
        prop_assert_eq!(r.disconnected_pairs, 0);
        if r.hop_pairs > 0 {
            prop_assert!((r.hop_avg - 1.0).abs() < 1e-12);
            prop_assert!((r.hop_max - 1.0).abs() < 1e-12);
            prop_assert!((r.length_max - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn subgraph_stretch_at_least_one((pts, radius) in deployment()) {
        let g = UnitDiskBuilder::new(radius).build(&pts);
        // Drop every third edge.
        let mut k = 0usize;
        let sub = g.filter_edges(|_, _| {
            k += 1;
            !k.is_multiple_of(3)
        });
        let r = stretch_factors(&g, &sub, StretchOptions::default());
        if r.hop_pairs > 0 {
            prop_assert!(r.hop_avg + 1e-12 >= 1.0);
            prop_assert!(r.length_avg + 1e-12 >= 1.0);
            prop_assert!(r.hop_max + 1e-12 >= r.hop_avg);
            prop_assert!(r.length_max + 1e-12 >= r.length_avg);
        }
    }

    #[test]
    fn components_partition_vertices((pts, radius) in deployment()) {
        let g = UnitDiskBuilder::new(radius).build(&pts);
        let comps = g.components();
        let total: usize = comps.iter().map(Vec::len).sum();
        prop_assert_eq!(total, g.node_count());
        prop_assert_eq!(comps.len() == 1, g.is_connected());
        // Components are sorted by size descending.
        for w in comps.windows(2) {
            prop_assert!(w[0].len() >= w[1].len());
        }
        // Labels agree with the component lists.
        let labels = g.component_labels();
        for comp in &comps {
            prop_assert!(comp.iter().all(|&v| labels[v] == labels[comp[0]]));
        }
    }

    /// Three batches per graph: random pairs; one pair per source, which
    /// searches answer unless a search expands about `n` nodes; and every
    /// pair of every source, where each source after the first search
    /// gets a Dijkstra row.
    #[test]
    fn pair_distances_match_single_source_rows_bit_for_bit(
        (pts, radius) in deployment(),
        raw in prop::collection::vec((any::<usize>(), any::<usize>()), 0..200),
        shift in any::<usize>(),
    ) {
        let g = UnitDiskBuilder::new(radius).build(&pts);
        let n = g.node_count();
        let pairs: Vec<(usize, usize)> = raw.iter().map(|&(s, d)| (s % n, d % n)).collect();
        assert_batch_exact(&g, &pairs)?;
        let one_each: Vec<(usize, usize)> = (0..n).map(|s| (s, (s + shift) % n)).collect();
        assert_batch_exact(&g, &one_each)?;
        let all: Vec<(usize, usize)> = (0..n).flat_map(|s| (0..n).map(move |d| (s, d))).collect();
        assert_batch_exact(&g, &all)?;
    }

    #[test]
    fn length_search_is_exact_on_random_udgs((pts, radius) in deployment()) {
        assert_lengths_exact(&UnitDiskBuilder::new(radius).build(&pts))?;
    }

    #[test]
    fn length_search_is_exact_on_clustered_udgs(
        n in 5usize..60,
        k in 1usize..4,
        radius in 10.0f64..60.0,
        seed in any::<u64>(),
    ) {
        let pts = gaussian_clusters(n, 100.0, k, 8.0, seed);
        assert_lengths_exact(&UnitDiskBuilder::new(radius).build(&pts))?;
    }

    #[test]
    fn length_search_is_exact_on_exact_lattices(g in lattice()) {
        assert_lengths_exact(&g)?;
    }

    /// Two deployments 100 apart, further than any radius here, each
    /// split further when the radius is small.
    #[test]
    fn length_search_is_exact_on_disconnected_graphs(
        n in 5usize..60,
        radius in 5.0f64..60.0,
        seed in any::<u64>(),
    ) {
        let mut pts = uniform_points(n, 100.0, seed);
        for p in &mut pts[n / 2..] {
            p.x += 200.0;
        }
        let g = UnitDiskBuilder::new(radius).build(&pts);
        prop_assert!(!g.is_connected());
        assert_lengths_exact(&g)?;
    }

    /// Repeated points give zero-length edges and zero-length pairs.
    #[test]
    fn length_search_is_exact_with_coincident_points(
        (mut pts, radius) in deployment(),
        copies in 1usize..20,
    ) {
        let k = copies.min(pts.len());
        pts.extend_from_within(..k);
        pts.push(pts[0]);
        assert_lengths_exact(&UnitDiskBuilder::new(radius).build(&pts))?;
    }

    #[test]
    fn graph_edit_roundtrip(edges in prop::collection::vec((0usize..20, 0usize..20), 0..60)) {
        let pts = uniform_points(20, 50.0, 99);
        let mut g = Graph::new(pts);
        let mut reference = std::collections::HashSet::new();
        for (u, v) in edges {
            if u != v {
                let added = g.add_edge(u, v);
                let fresh = reference.insert((u.min(v), u.max(v)));
                prop_assert_eq!(added, fresh);
            }
        }
        prop_assert_eq!(g.edge_count(), reference.len());
        for &(u, v) in &reference {
            prop_assert!(g.has_edge(u, v));
            prop_assert!(g.remove_edge(v, u));
        }
        prop_assert_eq!(g.edge_count(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 256 Table I deployments (radius 60, side `200 * sqrt(n / 100)`)
    /// of up to 2 000 nodes, each batch mixing sources with one pair
    /// (searches) and sources with a pair to every node (Dijkstra rows),
    /// lengths exact to the bit (bench-smoke CI job, release mode).
    #[test]
    #[ignore = "long sweep; run with --release -- --ignored"]
    fn pair_distances_table1_sweep(
        n in 100usize..2001,
        seed in any::<u64>(),
        raw in prop::collection::vec((any::<usize>(), any::<usize>()), 1..300),
        full in prop::collection::vec(any::<usize>(), 1..4),
    ) {
        let side = 200.0 * (n as f64 / 100.0).sqrt();
        let g = UnitDiskBuilder::new(60.0).build(&uniform_points(n, side, seed));
        let mut pairs: Vec<(usize, usize)> = raw.iter().map(|&(s, d)| (s % n, d % n)).collect();
        for s in full {
            pairs.extend((0..n).map(|d| (s % n, d)));
        }
        assert_batch_exact(&g, &pairs)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// Both terms of the search's stopping margin are needed here: with
    /// the relative one removed a few of the unit-scale draws come out
    /// one ulp long, with the underflow one removed many tiny ones do.
    #[test]
    fn length_search_is_exact_on_near_collinear_chains(g in near_collinear_chain()) {
        let n = g.node_count();
        let want = dijkstra_lengths(&g, 0)[n - 1].map(f64::to_bits);
        let got = pair_distances(&g, &[(0, n - 1)])[0].1.map(f64::to_bits);
        prop_assert_eq!(got, want);
    }
}
