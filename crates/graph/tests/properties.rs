//! Property-based tests for the graph substrate.

use geospan_graph::gen::{uniform_points, UnitDiskBuilder};
use geospan_graph::paths::{
    bfs_hops, dijkstra_lengths, pair_distances, path_length, shortest_length_path, DistanceOracle,
};
use geospan_graph::stats::degree_stats;
use geospan_graph::stretch::{stretch_factors, StretchOptions};
use geospan_graph::Graph;
use proptest::prelude::*;

fn deployment() -> impl Strategy<Value = (Vec<geospan_graph::Point>, f64)> {
    (5usize..60, 20.0f64..80.0, any::<u64>())
        .prop_map(|(n, radius, seed)| (uniform_points(n, 100.0, seed), radius))
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

    #[test]
    fn pair_distances_match_the_oracle_bit_for_bit(
        (pts, radius) in deployment(),
        raw in prop::collection::vec((any::<usize>(), any::<usize>()), 0..200),
    ) {
        let g = UnitDiskBuilder::new(radius).build(&pts);
        let n = g.node_count();
        let pairs: Vec<(usize, usize)> = raw.iter().map(|&(s, d)| (s % n, d % n)).collect();
        let batched = pair_distances(&g, &pairs);
        let mut oracle = DistanceOracle::new(&g);
        prop_assert_eq!(batched.len(), pairs.len());
        for (&(s, d), &(hops, len)) in pairs.iter().zip(&batched) {
            prop_assert_eq!(hops, oracle.hops(s, d));
            prop_assert_eq!(len.map(f64::to_bits), oracle.length(s, d).map(f64::to_bits));
        }
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
