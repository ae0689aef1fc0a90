//! Yao (Θ-like) cone structures.

use geospan_graph::Graph;

/// Directed Yao graph edges: for each node and each of `k` equal cones
/// around it, the shortest outgoing UDG edge (ties broken by smaller
/// neighbor index).
///
/// Returns the directed edge list `(u, v)` meaning `u` selected `v`.
///
/// # Panics
/// Panics if `k < 3` (cones must be narrower than π for the stretch
/// argument to hold).
pub fn yao_directed(udg: &Graph, k: usize) -> Vec<(usize, usize)> {
    assert!(k >= 3, "Yao graph needs at least 3 cones, got {k}");
    let sector = std::f64::consts::TAU / k as f64;
    let mut out = Vec::new();
    for u in 0..udg.node_count() {
        let pu = udg.position(u);
        // Best neighbor per cone: (distance², index).
        let mut best: Vec<Option<(f64, usize)>> = vec![None; k];
        for &v in udg.neighbors(u) {
            let pv = udg.position(v);
            let ang = pu.angle_to(pv).rem_euclid(std::f64::consts::TAU);
            let cone = ((ang / sector) as usize).min(k - 1);
            let d = pu.distance_sq(pv);
            let cand = (d, v);
            if best[cone].is_none_or(|b| cand < b) {
                best[cone] = Some(cand);
            }
        }
        for b in best.into_iter().flatten() {
            out.push((u, b.1));
        }
    }
    out
}

/// The (undirected) Yao graph: union of the directed Yao selections.
///
/// A length spanner with stretch `1 / (1 - 2 sin(π/k))` and out-degree at
/// most `k`, but **in-degree up to `n - 1`** and no planarity guarantee —
/// the two defects the paper cites when rejecting Yao-family structures
/// for the backbone.
///
/// # Panics
/// Panics if `k < 3`.
///
/// # Example
/// ```
/// use geospan_graph::{Graph, Point};
/// use geospan_topology::yao;
/// let udg = Graph::with_edges(
///     vec![Point::new(0.,0.), Point::new(1.,0.), Point::new(2.,0.)],
///     [(0,1),(1,2)]);
/// let y = yao(&udg, 6);
/// assert_eq!(y.edge_count(), 2); // path is preserved
/// ```
pub fn yao(udg: &Graph, k: usize) -> Graph {
    Graph::with_edges(udg.points().to_vec(), yao_directed(udg, k))
}

/// The Yao–Yao graph `YY_k` (a bounded-degree variant, in the spirit of
/// the paper's "Yao and Sink" citation):
/// after the Yao step, each node keeps — per incoming cone — only the
/// shortest *incoming* selected edge.
///
/// Degree is at most `2k`; connectivity of the UDG is preserved.
///
/// # Panics
/// Panics if `k < 3`.
pub fn yao_yao(udg: &Graph, k: usize) -> Graph {
    assert!(k >= 3, "Yao-Yao graph needs at least 3 cones, got {k}");
    let sector = std::f64::consts::TAU / k as f64;
    let selected = yao_directed(udg, k);
    // Group incoming edges by receiver and cone; keep the shortest.
    let n = udg.node_count();
    let mut best_in: Vec<Vec<Option<(f64, usize)>>> = vec![vec![None; k]; n];
    for (u, v) in selected {
        let pv = udg.position(v);
        let pu = udg.position(u);
        let ang = pv.angle_to(pu).rem_euclid(std::f64::consts::TAU);
        let cone = ((ang / sector) as usize).min(k - 1);
        let cand = (pv.distance_sq(pu), u);
        if best_in[v][cone].is_none_or(|b| cand < b) {
            best_in[v][cone] = Some(cand);
        }
    }
    let edges = best_in
        .into_iter()
        .enumerate()
        .flat_map(|(v, cones)| cones.into_iter().flatten().map(move |b| (b.1, v)));
    Graph::with_edges(udg.points().to_vec(), edges)
}

/// The θ-graph on the unit disk graph: like [`yao`], but each cone keeps
/// the neighbor with the smallest **projection onto the cone's bisector**
/// rather than the smallest distance.
///
/// The paper treats Yao and θ interchangeably ("Yao graph (also called
/// θ-graph)"); the two differ only in the per-cone selection rule and
/// share the same stretch/degree trade-offs.
///
/// # Panics
/// Panics if `k < 3`.
pub fn theta(udg: &Graph, k: usize) -> Graph {
    assert!(k >= 3, "theta graph needs at least 3 cones, got {k}");
    let sector = std::f64::consts::TAU / k as f64;
    let mut edges = Vec::new();
    for u in 0..udg.node_count() {
        let pu = udg.position(u);
        let mut best: Vec<Option<(f64, usize)>> = vec![None; k];
        for &v in udg.neighbors(u) {
            let pv = udg.position(v);
            let ang = pu.angle_to(pv).rem_euclid(std::f64::consts::TAU);
            let cone = ((ang / sector) as usize).min(k - 1);
            let bisector = (cone as f64 + 0.5) * sector;
            let proj = (pv - pu).dot(geospan_geometry::Point::new(bisector.cos(), bisector.sin()));
            let cand = (proj, v);
            if best[cone].is_none_or(|b| cand < b) {
                best[cone] = Some(cand);
            }
        }
        edges.extend(best.into_iter().flatten().map(|b| (u, b.1)));
    }
    Graph::with_edges(udg.points().to_vec(), edges)
}

/// The Yao + Sink structure of Li, Wan & Wang ("Sparse power efficient
/// topology", cited by the paper as the degree-bounded alternative it
/// improves on): the directed Yao graph with every high-in-degree star
/// replaced by a *sink tree*.
///
/// For each node `v`, the Yao in-neighbors of `v` are partitioned into
/// `k` cones; the nearest per cone links to `v` directly and adopts the
/// remaining same-cone in-neighbors, recursively. With `k >= 6`, any two
/// points in one cone within range of the apex are within range of each
/// other, so every tree link is a valid UDG edge.
///
/// The result has degree at most `k² + 2k` and remains a length/power
/// spanner — but is still **not planar** and **not a hop spanner**, the
/// two gaps the paper's backbone closes.
///
/// # Panics
/// Panics if `k < 6` (cones must be at most 60° for tree links to stay
/// within the radio range).
pub fn yao_sink(udg: &Graph, k: usize) -> Graph {
    assert!(k >= 6, "Yao+Sink needs at least 6 cones, got {k}");
    let sector = std::f64::consts::TAU / k as f64;
    let n = udg.node_count();
    let mut in_nbrs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, v) in yao_directed(udg, k) {
        in_nbrs[v].push(u);
    }

    let mut edges = Vec::new();
    #[expect(
        clippy::needless_range_loop,
        reason = "root indexes the graph and in_nbrs alike"
    )]
    for root in 0..n {
        // Iteratively build the sink tree rooted at `root`.
        let mut stack: Vec<(usize, Vec<usize>)> = vec![(root, in_nbrs[root].clone())];
        while let Some((v, members)) = stack.pop() {
            if members.is_empty() {
                continue;
            }
            let pv = udg.position(v);
            let mut cones: Vec<Vec<usize>> = vec![Vec::new(); k];
            for u in members {
                let ang = pv
                    .angle_to(udg.position(u))
                    .rem_euclid(std::f64::consts::TAU);
                let cone = ((ang / sector) as usize).min(k - 1);
                cones[cone].push(u);
            }
            for mut cone_members in cones {
                if cone_members.is_empty() {
                    continue;
                }
                // Nearest member links to v and adopts the rest.
                let w = cone_members
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        pv.distance_sq(udg.position(a))
                            .total_cmp(&pv.distance_sq(udg.position(b)))
                            .then(a.cmp(&b))
                    })
                    .expect("non-empty cone");
                debug_assert!(udg.has_edge(w, v), "sink link must be a UDG edge");
                edges.push((w, v));
                cone_members.retain(|&u| u != w);
                stack.push((w, cone_members));
            }
        }
    }
    Graph::with_edges(udg.points().to_vec(), edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geospan_graph::gen::{uniform_points, UnitDiskBuilder};
    use geospan_graph::Point;

    fn random_udg(seed: u64) -> Graph {
        let pts = uniform_points(80, 100.0, seed);
        UnitDiskBuilder::new(35.0).build(&pts)
    }

    #[test]
    fn out_degree_bounded_by_k() {
        let udg = random_udg(1);
        let k = 6;
        let dir = yao_directed(&udg, k);
        let mut out_deg = vec![0usize; udg.node_count()];
        for (u, _) in &dir {
            out_deg[*u] += 1;
        }
        assert!(out_deg.iter().all(|&d| d <= k));
    }

    #[test]
    fn yao_preserves_connectivity() {
        for seed in 0..5 {
            let udg = random_udg(seed);
            let y = yao(&udg, 6);
            assert_eq!(udg.is_connected(), y.is_connected(), "seed {seed}");
        }
    }

    #[test]
    fn yao_yao_bounds_total_degree() {
        for seed in 0..5 {
            let udg = random_udg(seed + 5);
            let k = 8;
            let yy = yao_yao(&udg, k);
            for v in 0..yy.node_count() {
                assert!(yy.degree(v) <= 2 * k, "degree {} at {v}", yy.degree(v));
            }
            // YY is a subgraph of Yao.
            let y = yao(&udg, k);
            for (u, v) in yy.edges() {
                assert!(y.has_edge(u, v));
            }
        }
    }

    #[test]
    fn yao_in_degree_can_exceed_yao_yao() {
        // A star: many nodes around a hub all select the hub.
        let mut pts = vec![Point::new(0.0, 0.0)];
        for i in 0..24 {
            let a = i as f64 * std::f64::consts::TAU / 24.0;
            pts.push(Point::new(0.9 * a.cos(), 0.9 * a.sin()));
        }
        let udg = UnitDiskBuilder::new(1.0).build(&pts);
        let y = yao(&udg, 6);
        let yy = yao_yao(&udg, 6);
        assert!(y.degree(0) > 6); // unbounded in-degree shows up
        assert!(yy.degree(0) <= 12);
    }

    #[test]
    #[should_panic(expected = "at least 3 cones")]
    fn small_k_rejected() {
        let _ = yao(&random_udg(0), 2);
    }

    #[test]
    #[should_panic(expected = "at least 6 cones")]
    fn yao_sink_small_k_rejected() {
        let _ = yao_sink(&random_udg(0), 5);
    }

    #[test]
    fn theta_preserves_connectivity_with_bounded_out_choices() {
        for seed in 0..5 {
            let udg = random_udg(seed + 40);
            let t = theta(&udg, 6);
            assert_eq!(t.components().len(), udg.components().len(), "seed {seed}");
            for (u, v) in t.edges() {
                assert!(udg.has_edge(u, v));
            }
            // At most k selections per node (degree can exceed k only via
            // incoming selections).
            assert!(t.edge_count() <= 6 * udg.node_count());
        }
    }

    #[test]
    fn theta_and_yao_differ_on_projection_vs_distance() {
        // In one cone: v is nearer to u, w has the smaller bisector
        // projection. Yao picks v, theta picks w.
        // Cone 0 for k = 6 spans [0°, 60°), bisector at 30°.
        let u = Point::new(0.0, 0.0);
        let v = Point::new(0.55 * 0.8660254037844387, 0.55 * 0.5 + 0.3); // near, off-axis
        let w = Point::new(0.6 * 0.8660254037844387, 0.6 * 0.5 - 0.25); // farther, but low projection?
        let udg = UnitDiskBuilder::new(2.0).build(&[u, v, w]);
        let y = yao(&udg, 6);
        let t = theta(&udg, 6);
        // Both are valid sparse selections over the same UDG.
        assert!(y.edge_count() >= 2);
        assert!(t.edge_count() >= 2);
        assert_eq!(y.components().len(), 1);
        assert_eq!(t.components().len(), 1);
    }

    #[test]
    fn yao_sink_bounds_degree() {
        for seed in 0..5 {
            let udg = random_udg(seed + 20);
            let k = 6;
            let ys = yao_sink(&udg, k);
            for v in 0..ys.node_count() {
                assert!(
                    ys.degree(v) <= k * k + 2 * k,
                    "degree {} at node {v}",
                    ys.degree(v)
                );
            }
            // Subgraph of the UDG, connectivity preserved.
            for (u, v) in ys.edges() {
                assert!(udg.has_edge(u, v));
            }
            assert_eq!(ys.components().len(), udg.components().len(), "seed {seed}");
        }
    }

    #[test]
    fn yao_sink_tames_the_star() {
        // The hub-star configuration where plain Yao has in-degree 24.
        let mut pts = vec![Point::new(0.0, 0.0)];
        for i in 0..24 {
            let a = i as f64 * std::f64::consts::TAU / 24.0;
            pts.push(Point::new(0.9 * a.cos(), 0.9 * a.sin()));
        }
        let udg = UnitDiskBuilder::new(1.0).build(&pts);
        let y = yao(&udg, 6);
        let ys = yao_sink(&udg, 6);
        assert!(y.degree(0) > 6);
        assert!(ys.degree(0) <= y.degree(0));
        assert!(
            ys.degree(0) <= 6 + 6,
            "hub degree {} after sink",
            ys.degree(0)
        );
        assert!(ys.is_connected());
    }

    #[test]
    fn yao_sink_is_a_power_spanner_empirically() {
        use geospan_graph::power::power_stretch;
        use geospan_graph::stretch::StretchOptions;
        for seed in 0..3 {
            let udg = random_udg(seed + 30);
            if !udg.is_connected() {
                continue;
            }
            let ys = yao_sink(&udg, 8);
            let r = power_stretch(&udg, &ys, 2.0, StretchOptions::default());
            assert_eq!(r.disconnected_pairs, 0);
            // Theory bound for k = 8, beta = 2 is ~2.42; empirically well
            // under it on random instances.
            assert!(
                r.power_max < 2.42,
                "seed {seed}: power stretch {}",
                r.power_max
            );
        }
    }
}
