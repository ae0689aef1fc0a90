//! Property-based tests for the graph substrate.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

use geospan_graph::gen::{connected_unit_disk, gaussian_clusters, uniform_points, UnitDiskBuilder};
use geospan_graph::paths::{bfs_hops, dijkstra_lengths, pair_distances, DistanceOracle};
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
fn lattice_graph(w: usize, h: usize, reach_sq: i64, scale: f64) -> Graph {
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
}

/// Squared reaches of [`lattice_graph`]: 4, 8, 12 and 20 neighbours.
const REACH_SQ: [i64; 4] = [1, 2, 4, 5];

/// [`lattice_graph`]s of up to 8 × 8 points at five scales.
fn lattice() -> impl Strategy<Value = Graph> {
    (1usize..9, 1usize..9, 0usize..4, 0usize..5).prop_map(|(w, h, reach, scale)| {
        let scale = [1.0, 0.1, 3.0, 1e-160, 1e150][scale];
        lattice_graph(w, h, REACH_SQ[reach], scale)
    })
}

/// Unit disk graphs of 65 to 299 nodes, more than one 64-source pass of
/// [`pair_distances`]: uniform, cut into three strips 400 apart (further
/// than any radius here, so several components), or with the last
/// quarter of the points repeating the first (coincident nodes).
fn multi_batch_udg() -> impl Strategy<Value = Graph> {
    (65usize..300, 20.0f64..60.0, 0usize..3, any::<u64>()).prop_map(|(n, radius, shape, seed)| {
        let mut pts = uniform_points(n, 150.0, seed);
        match shape {
            1 => {
                for (i, p) in pts.iter_mut().enumerate() {
                    p.x += 400.0 * (i % 3) as f64;
                }
            }
            2 => {
                for i in 0..n / 4 {
                    pts[n - 1 - i] = pts[i];
                }
            }
            _ => {}
        }
        UnitDiskBuilder::new(radius).build(&pts)
    })
}

/// SplitMix64: the seeded draws of [`assert_sources_exact`].
fn split_mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (split_mix(state) % (i as u64 + 1)) as usize);
    }
}

/// Pairs from exactly `k` distinct sources of `g`, in a seeded shuffle:
/// each source with itself, with a random destination twice, and with
/// one more, checked by [`assert_batch_exact`].
fn assert_sources_exact(g: &Graph, k: usize, seed: u64) -> Result<(), TestCaseError> {
    let n = g.node_count();
    let mut state = seed;
    let mut nodes: Vec<usize> = (0..n).collect();
    shuffle(&mut nodes, &mut state);
    let mut pairs = Vec::new();
    for &s in &nodes[..k] {
        let d = (split_mix(&mut state) % n as u64) as usize;
        let e = (split_mix(&mut state) % n as u64) as usize;
        pairs.extend([(s, s), (s, d), (s, e), (s, d)]);
    }
    shuffle(&mut pairs, &mut state);
    assert_batch_exact(g, &pairs)
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

/// Graphs of 2 to 11 nodes with random edges, whose coordinates mix
/// unit-scale values, multiples of `10¹⁵⁴` (whose squared differences
/// overflow, so edge lengths are infinite) and, unless `finite`,
/// infinities and NaNs of both signs: edge lengths of `+∞` and NaN, and
/// sums that are NaN.
fn hostile_graph(finite: bool) -> impl Strategy<Value = Graph> {
    let kinds = if finite { 0usize..5 } else { 0usize..9 };
    let coordinate = move || {
        (kinds.clone(), -3.0f64..3.0).prop_map(|(kind, x)| match kind {
            0..=2 => x,
            3 | 4 => x * 1e154,
            5 => f64::INFINITY,
            6 => f64::NEG_INFINITY,
            7 => f64::NAN,
            _ => -f64::NAN,
        })
    };
    (2usize..12).prop_flat_map(move |n| {
        (
            prop::collection::vec((coordinate(), coordinate()), n),
            prop::collection::vec((0..n, 0..n), 0..3 * n),
        )
            .prop_map(|(coordinates, edges)| {
                let points = coordinates.into_iter().map(|(x, y)| Point::new(x, y));
                let edges = edges.into_iter().filter(|&(u, v)| u != v);
                Graph::with_edges(points.collect(), edges)
            })
    })
}

/// Dijkstra as defined, the oracle of the rows [`dijkstra_lengths`]
/// computes: `Option<f64>` distances, a settled set, and a heap that
/// pops the least distance under [`f64::total_cmp`] first, ties by the
/// least node.
fn reference_row(g: &Graph, src: usize) -> Vec<Option<f64>> {
    #[derive(PartialEq)]
    struct Entry(f64, usize);
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    let points = g.points();
    let mut dist = vec![None; g.node_count()];
    let mut done = vec![false; g.node_count()];
    let mut heap = BinaryHeap::from([Entry(0.0, src)]);
    dist[src] = Some(0.0);
    while let Some(Entry(du, u)) = heap.pop() {
        if std::mem::replace(&mut done[u], true) {
            continue;
        }
        for &v in g.neighbors(u).iter().filter(|&&v| !done[v]) {
            let cand = du + points[u].distance(points[v]);
            if dist[v].is_none_or(|dv| cand < dv) {
                dist[v] = Some(cand);
                heap.push(Entry(cand, v));
            }
        }
    }
    dist
}

/// Every source's [`dijkstra_lengths`] row equals its [`reference_row`]
/// to the bit.
fn assert_rows_match_reference(g: &Graph) -> Result<(), TestCaseError> {
    for src in 0..g.node_count() {
        let bits = |row: Vec<Option<f64>>| -> Vec<Option<u64>> {
            row.into_iter().map(|d| d.map(f64::to_bits)).collect()
        };
        let (got, want) = (dijkstra_lengths(g, src), reference_row(g, src));
        prop_assert_eq!(bits(got), bits(want), "source {}", src);
    }
    Ok(())
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

/// `pair_distances(g, pairs)`, and one [`DistanceOracle`] asked the
/// pairs in their order, against raw [`bfs_hops`] and
/// [`dijkstra_lengths`] rows, lengths to the bit.
fn assert_batch_exact(g: &Graph, pairs: &[(usize, usize)]) -> Result<(), TestCaseError> {
    let batched = pair_distances(g, pairs);
    prop_assert_eq!(batched.len(), pairs.len());
    let mut oracle = DistanceOracle::new(g);
    let mut rows = vec![None; g.node_count()];
    for (&(s, d), &(hops, len)) in pairs.iter().zip(&batched) {
        let (hop_row, len_row) =
            rows[s].get_or_insert_with(|| (bfs_hops(g, s), dijkstra_lengths(g, s)));
        let want = len_row[d].map(f64::to_bits);
        prop_assert_eq!(hops, hop_row[d], "hops {} -> {}", s, d);
        prop_assert_eq!(len.map(f64::to_bits), want, "length {} -> {}", s, d);
        prop_assert_eq!(oracle.hops(s, d), hop_row[d], "oracle hops {} -> {}", s, d);
        let len = oracle.length(s, d).map(f64::to_bits);
        prop_assert_eq!(len, want, "oracle length {} -> {}", s, d);
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

    /// Table I density (radius 60, side `200 * sqrt(n / 100)`).
    #[test]
    fn dijkstra_rows_match_the_reference_on_table1_deployments(
        n in 2usize..200,
        seed in any::<u64>(),
    ) {
        let side = 200.0 * (n as f64 / 100.0).sqrt();
        assert_rows_match_reference(&UnitDiskBuilder::new(60.0).build(&uniform_points(n, side, seed)))?;
    }

    #[test]
    fn dijkstra_rows_match_the_reference_on_near_collinear_chains(g in near_collinear_chain()) {
        assert_rows_match_reference(&g)?;
    }

    #[test]
    fn dijkstra_rows_match_the_reference_on_hostile_coordinates(g in hostile_graph(false)) {
        assert_rows_match_reference(&g)?;
    }

    /// The searches' precondition is finite coordinates. Within it, at
    /// the `10¹⁵⁴` scale where edge lengths overflow to `+∞`, a one-pair
    /// [`pair_distances`] batch (always a search) answers every pair with
    /// its [`reference_row`] length, to the bit.
    #[test]
    fn pair_distances_match_the_reference_on_finite_hostile_coordinates(
        g in hostile_graph(true),
    ) {
        let n = g.node_count();
        for src in 0..n {
            let row = reference_row(&g, src);
            for (dst, want) in row.into_iter().enumerate() {
                let (_, len) = pair_distances(&g, &[(src, dst)])[0];
                prop_assert_eq!(len.map(f64::to_bits), want.map(f64::to_bits), "{} -> {}", src, dst);
            }
        }
    }

    /// `with_edges` accepts any order, orientation and multiplicity, and
    /// its rows are the sorted, deduplicated neighbor sets.
    #[test]
    fn with_edges_rows_match_sorted_dedup_reference(
        n in 1usize..30,
        raw in prop::collection::vec((0usize..30, 0usize..30, any::<bool>()), 0..120),
    ) {
        let edges: Vec<(usize, usize)> = raw
            .into_iter()
            .map(|(u, v, flip)| (u % n, v % n, flip))
            .filter(|&(u, v, _)| u != v)
            .map(|(u, v, flip)| if flip { (v, u) } else { (u, v) })
            .collect();
        let g = Graph::with_edges(uniform_points(n, 50.0, 7), edges.iter().copied());
        let mut rows: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for &(u, v) in &edges {
            rows[u].insert(v);
            rows[v].insert(u);
        }
        assert_csr_invariants(&g)?;
        for (v, row) in rows.iter().enumerate() {
            prop_assert_eq!(g.neighbors(v), row.iter().copied().collect::<Vec<_>>());
        }
    }

    /// Single edits keep the CSR layout valid after every step, agree
    /// with a reference edge set, and end where one bulk build of the
    /// surviving edges does.
    #[test]
    fn edits_keep_csr_invariants(
        ops in prop::collection::vec((any::<bool>(), 0usize..24, 0usize..24), 0..80),
    ) {
        let pts = uniform_points(24, 50.0, 99);
        let mut g = Graph::new(pts.clone());
        let mut reference: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (add, u, v) in ops {
            if add && u != v {
                let fresh = reference.insert((u.min(v), u.max(v)));
                prop_assert_eq!(g.add_edge(u, v), fresh);
            } else if !add {
                let present = reference.remove(&(u.min(v), u.max(v)));
                prop_assert_eq!(g.remove_edge(u, v), present);
            }
            assert_csr_invariants(&g)?;
            prop_assert_eq!(g.edge_count(), reference.len());
        }
        prop_assert_eq!(g, Graph::with_edges(pts, reference));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exactly one and two full 64-source passes, two and a partial
    /// one, and every node as a source (a partial last pass unless `n`
    /// is a multiple of 64).
    #[test]
    fn pair_distances_cross_batch_boundaries(
        g in multi_batch_udg(),
        partial in 1usize..64,
        seed in any::<u64>(),
    ) {
        let n = g.node_count();
        for k in [64, 128, 128 + partial, n] {
            if k <= n {
                assert_sources_exact(&g, k, seed)?;
            }
        }
    }

    /// The same on 72- to 289-node lattices, at the scales where squared
    /// differences underflow (1e-160) and where they approach overflow
    /// (1e150).
    #[test]
    fn pair_distances_cross_batch_boundaries_on_lattices(
        w in 9usize..18,
        h in 8usize..18,
        reach in 0usize..4,
        seed in any::<u64>(),
    ) {
        for scale in [1e-160, 1e150] {
            let g = lattice_graph(w, h, REACH_SQ[reach], scale);
            let n = g.node_count();
            for k in [64, 128, n] {
                if k <= n {
                    assert_sources_exact(&g, k, seed)?;
                }
            }
        }
    }
}

/// Offsets run monotonically from 0 to the slot count, every row is
/// strictly ascending and mirrored, and the edge count is half the slots.
fn assert_csr_invariants(g: &Graph) -> Result<(), TestCaseError> {
    let (offsets, targets) = g.csr();
    prop_assert_eq!(offsets.len(), g.node_count() + 1);
    prop_assert_eq!(offsets[0], 0);
    prop_assert_eq!(offsets[g.node_count()], targets.len());
    prop_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
    prop_assert_eq!(g.edge_count() * 2, targets.len());
    for u in 0..g.node_count() {
        prop_assert!(g.neighbors(u).windows(2).all(|w| w[0] < w[1]));
        for &v in g.neighbors(u) {
            prop_assert!(v != u && g.has_edge(v, u));
        }
    }
    Ok(())
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

/// `pair_distances` at the shapes of the two traffic benchmarks,
/// `traffic_steady` (n = 2 000, 16 000 pairs: searches) and
/// `traffic_saturated` (n = 1 000, 110 000 pairs: mostly Dijkstra
/// rows), on connected Table I deployments for seeds 1 and 7919, with
/// uniform pairs of distinct nodes. Every length equals the
/// [`reference_row`]'s to the bit (bench-smoke CI job, release mode).
#[test]
#[ignore = "benchmark scale; run with --release -- --ignored"]
fn pair_distances_at_the_traffic_benchmark_shapes() {
    for (n, count) in [(2_000, 16_000), (1_000, 110_000)] {
        for seed in [1, 7919] {
            let side = 200.0 * (n as f64 / 100.0).sqrt();
            let (_, g, _) = connected_unit_disk(n, side, 60.0, seed);
            let mut state = seed;
            let mut draw = |m: usize| (split_mix(&mut state) % m as u64) as usize;
            let pairs: Vec<(usize, usize)> = (0..count)
                .map(|_| {
                    let s = draw(n);
                    (s, (s + 1 + draw(n - 1)) % n)
                })
                .collect();
            let got = pair_distances(&g, &pairs);
            let mut order: Vec<usize> = (0..count).collect();
            order.sort_by_key(|&i| pairs[i].0);
            for group in order.chunk_by(|&a, &b| pairs[a].0 == pairs[b].0) {
                let s = pairs[group[0]].0;
                let row = reference_row(&g, s);
                for &i in group {
                    let d = pairs[i].1;
                    assert_eq!(
                        got[i].1.map(f64::to_bits),
                        row[d].map(f64::to_bits),
                        "n = {n}, seed {seed}: {s} -> {d}"
                    );
                }
            }
        }
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
