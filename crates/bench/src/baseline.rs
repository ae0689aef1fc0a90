//! Frozen copy of the seed construction pipeline, kept as the reference
//! that `tests/pipeline_equivalence.rs` compares the live pipeline
//! against.
//!
//! The library crates build `LDel¹`/`PLDel` through the parallel,
//! grid-indexed, arena-backed pipeline. To prove that pipeline produces
//! *identical* output, this module preserves the seed algorithms exactly
//! as they shipped: the Bowyer–Watson core with per-insert hash maps and
//! full triangulation assembly, the serial per-node `LDel¹` loop over
//! `HashSet` membership, the `O(k²)` x-sweep planarization, and the
//! `O(m²)` pairwise crossing count. Nothing here should be "improved";
//! it is a test oracle, not production code.

#[expect(
    clippy::disallowed_types,
    reason = "frozen seed replica, kept verbatim for pipeline_equivalence"
)]
use std::collections::{HashMap, HashSet};

use geospan_geometry::{
    gabriel_test, in_circumcircle, incircle, orient2d, CirclePosition, Orientation, Point,
    SegmentIntersection,
};
use geospan_graph::Graph;
use geospan_topology::ldel::LocalDelaunay;

/// The seed's proper-crossing test: it classifies the full intersection
/// rather than taking the live predicate's short-circuit.
fn segments_properly_cross(a: Point, b: Point, c: Point, d: Point) -> bool {
    geospan_geometry::segments_cross(a, b, c, d) == SegmentIntersection::Proper
}

/// The seed's (unplanarized) `LDel¹`: serial per-node local
/// triangulations and `HashSet`-based three-way membership.
#[expect(
    clippy::disallowed_types,
    reason = "frozen seed replica, kept verbatim for pipeline_equivalence"
)]
pub fn seed_ldel1(g: &Graph) -> LocalDelaunay {
    let n = g.node_count();
    let mut local_tris: Vec<HashSet<[usize; 3]>> = vec![HashSet::new(); n];
    #[expect(
        clippy::needless_range_loop,
        reason = "frozen seed replica, kept verbatim for pipeline_equivalence"
    )]
    for u in 0..n {
        if g.degree(u) < 2 {
            continue;
        }
        let mut ids: Vec<usize> = Vec::with_capacity(g.degree(u) + 1);
        ids.push(u);
        ids.extend_from_slice(g.neighbors(u));
        let pts: Vec<_> = ids.iter().map(|&i| g.position(i)).collect();
        let tri = tri::SeedTriangulation::build(&pts).expect("distinct node positions");
        for t in &tri.triangles {
            let mut key = [ids[t[0]], ids[t[1]], ids[t[2]]];
            key.sort_unstable();
            local_tris[u].insert(key);
        }
    }

    let mut accepted: HashSet<[usize; 3]> = HashSet::new();
    for u in 0..n {
        for &key in &local_tris[u] {
            let [a, b, c] = key;
            if u != a {
                continue; // consider each triple once, at its least vertex
            }
            if !(g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c)) {
                continue;
            }
            if local_tris[b].contains(&key) && local_tris[c].contains(&key) {
                accepted.insert(key);
            }
        }
    }

    let gabriel_edges = seed_gabriel_edge_list(g);
    let mut triangles: Vec<[usize; 3]> = accepted.into_iter().collect();
    triangles.sort_unstable();
    LocalDelaunay {
        graph: graph_of(g, &gabriel_edges, &triangles),
        triangles,
        gabriel_edges,
    }
}

/// The seed's planarization: x-sorted bounding-box sweep over triangle
/// pairs, quadratic within each x-overlap run.
pub fn seed_planarize(g: &Graph, raw: LocalDelaunay) -> LocalDelaunay {
    let tris = &raw.triangles;
    let m = tris.len();
    let mut removed = vec![false; m];

    let mut order: Vec<usize> = (0..m).collect();
    let bbox: Vec<(f64, f64)> = tris
        .iter()
        .map(|t| {
            let xs = t.iter().map(|&v| g.position(v).x);
            (
                xs.clone().fold(f64::INFINITY, f64::min),
                xs.fold(f64::NEG_INFINITY, f64::max),
            )
        })
        .collect();
    #[expect(
        clippy::disallowed_methods,
        reason = "frozen seed replica: bounding boxes of finite points are finite, and total_cmp could reorder -0.0 and 0.0"
    )]
    order.sort_by(|&i, &j| bbox[i].0.partial_cmp(&bbox[j].0).expect("finite coords"));

    for (oi, &i) in order.iter().enumerate() {
        for &j in order[oi + 1..].iter() {
            if bbox[j].0 > bbox[i].1 {
                break;
            }
            if triangles_cross(g, tris[i], tris[j]) {
                if circum_contains_any(g, tris[i], tris[j]) {
                    removed[i] = true;
                }
                if circum_contains_any(g, tris[j], tris[i]) {
                    removed[j] = true;
                }
            }
        }
    }

    let triangles: Vec<[usize; 3]> = tris
        .iter()
        .zip(&removed)
        .filter(|(_, &r)| !r)
        .map(|(&t, _)| t)
        .collect();
    LocalDelaunay {
        graph: graph_of(g, &raw.gabriel_edges, &triangles),
        triangles,
        gabriel_edges: raw.gabriel_edges,
    }
}

/// The graph on `g`'s vertices of the Gabriel edges plus every triangle
/// side.
fn graph_of(g: &Graph, gabriel_edges: &[(usize, usize)], triangles: &[[usize; 3]]) -> Graph {
    let sides = triangles
        .iter()
        .flat_map(|&[a, b, c]| [(a, b), (b, c), (a, c)]);
    Graph::with_edges(
        g.points().to_vec(),
        gabriel_edges.iter().copied().chain(sides),
    )
}

/// The seed's `O(m²)` pairwise crossing count (every edge pair reaches
/// the exact predicate).
pub fn seed_crossing_count(g: &Graph) -> usize {
    let edges: Vec<(usize, usize)> = g.edges().collect();
    let mut count = 0;
    for (i, &(u1, v1)) in edges.iter().enumerate() {
        for &(u2, v2) in &edges[i + 1..] {
            if u1 == u2 || u1 == v2 || v1 == u2 || v1 == v2 {
                continue;
            }
            if segments_properly_cross(
                g.position(u1),
                g.position(v1),
                g.position(u2),
                g.position(v2),
            ) {
                count += 1;
            }
        }
    }
    count
}

/// All Gabriel edges of a distance-closed graph, `(u, v)` with `u < v`
/// (the seed's serial filter).
fn seed_gabriel_edge_list(g: &Graph) -> Vec<(usize, usize)> {
    g.edges()
        .filter(|&(u, v)| {
            let pu = g.position(u);
            let pv = g.position(v);
            !common_neighbors(g, u, v).any(|w| gabriel_test(pu, pv, g.position(w)))
        })
        .collect()
}

/// Common neighbors of `u` and `v` by merging the sorted adjacency lists
/// (local re-implementation; the topology crate keeps its own private).
fn common_neighbors(g: &Graph, u: usize, v: usize) -> impl Iterator<Item = usize> + '_ {
    let a = g.neighbors(u);
    let b = g.neighbors(v);
    let mut i = 0;
    let mut j = 0;
    std::iter::from_fn(move || {
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let x = a[i];
                    i += 1;
                    j += 1;
                    return Some(x);
                }
            }
        }
        None
    })
}

/// Do two triangles properly cross (some edge of one crosses some edge of
/// the other)?
fn triangles_cross(g: &Graph, t1: [usize; 3], t2: [usize; 3]) -> bool {
    const E: [(usize, usize); 3] = [(0, 1), (1, 2), (0, 2)];
    for &(i, j) in &E {
        for &(p, q) in &E {
            if segments_properly_cross(
                g.position(t1[i]),
                g.position(t1[j]),
                g.position(t2[p]),
                g.position(t2[q]),
            ) {
                return true;
            }
        }
    }
    false
}

/// Is any vertex of `other` inside or on the circumcircle of `t`?
fn circum_contains_any(g: &Graph, t: [usize; 3], other: [usize; 3]) -> bool {
    other.iter().any(|&x| {
        !t.contains(&x)
            && in_circumcircle(
                g.position(t[0]),
                g.position(t[1]),
                g.position(t[2]),
                g.position(x),
            ) != CirclePosition::Outside
    })
}

/// The seed's Bowyer–Watson implementation, verbatim: hash-map duplicate
/// scan, per-insert `HashMap` cavity bookkeeping, and the full
/// triangulation assembly (edge set, adjacency, hull walk) even though
/// only the triangles are consumed — that was the cost profile of
/// `Triangulation::build` when the baseline was recorded.
mod tri {
    use super::*;

    const GHOST: usize = usize::MAX;
    const NO_TRI: usize = usize::MAX;

    #[derive(Debug, Clone, Copy)]
    struct Tri {
        v: [usize; 3],
        n: [usize; 3],
        alive: bool,
    }

    /// The assembled seed triangulation. All fields are built (to match
    /// the seed's cost) even though callers only read `triangles`.
    #[expect(
        dead_code,
        reason = "every field is built to match the seed's cost; callers read only `triangles`"
    )]
    pub struct SeedTriangulation {
        pub triangles: Vec<[usize; 3]>,
        pub edges: Vec<(usize, usize)>,
        pub adjacency: Vec<Vec<usize>>,
        pub hull: Vec<usize>,
        #[expect(
            clippy::disallowed_types,
            reason = "frozen seed replica, kept verbatim for pipeline_equivalence"
        )]
        pub tri_keys: HashSet<[usize; 3]>,
    }

    impl SeedTriangulation {
        pub fn build(points: &[Point]) -> Result<Self, String> {
            #[expect(
                clippy::disallowed_types,
                reason = "frozen seed replica, kept verbatim for pipeline_equivalence"
            )]
            let mut seen: HashMap<(u64, u64), usize> = HashMap::with_capacity(points.len());
            for (i, p) in points.iter().enumerate() {
                if !p.is_finite() {
                    return Err(format!("non-finite point at {i}"));
                }
                if seen.insert((p.x.to_bits(), p.y.to_bits()), i).is_some() {
                    return Err(format!("duplicate point at {i}"));
                }
            }
            let core = Core::run(points);
            Ok(core.finish(points))
        }
    }

    struct Core {
        pts: Vec<Point>,
        tris: Vec<Tri>,
        last: usize,
        collinear_chain: Option<Vec<usize>>,
    }

    impl Core {
        fn run(points: &[Point]) -> Core {
            let n = points.len();
            let mut core = Core {
                pts: points.to_vec(),
                tris: Vec::new(),
                last: NO_TRI,
                collinear_chain: None,
            };
            if n < 3 {
                core.collinear_chain = Some(Self::chain_order(points));
                return core;
            }
            let mut apex = None;
            for k in 2..n {
                if orient2d(points[0], points[1], points[k]) != Orientation::Collinear {
                    apex = Some(k);
                    break;
                }
            }
            let Some(apex) = apex else {
                core.collinear_chain = Some(Self::chain_order(points));
                return core;
            };
            core.init_triangle(0, 1, apex);
            for i in 2..n {
                if i == apex {
                    continue;
                }
                core.insert(i);
            }
            core
        }

        fn chain_order(points: &[Point]) -> Vec<usize> {
            let mut idx: Vec<usize> = (0..points.len()).collect();
            idx.sort_by(|&i, &j| points[i].lex_cmp(points[j]));
            idx
        }

        fn init_triangle(&mut self, i: usize, j: usize, k: usize) {
            let (a, b, c) = match orient2d(self.pts[i], self.pts[j], self.pts[k]) {
                Orientation::CounterClockwise => (i, j, k),
                Orientation::Clockwise => (i, k, j),
                #[expect(
                    clippy::unreachable,
                    reason = "frozen seed replica; the seed triangle is chosen non-collinear"
                )]
                Orientation::Collinear => unreachable!("seed triangle is non-degenerate"),
            };
            self.tris.push(Tri {
                v: [a, b, c],
                n: [2, 3, 1],
                alive: true,
            });
            self.tris.push(Tri {
                v: [b, a, GHOST],
                n: [3, 2, 0],
                alive: true,
            });
            self.tris.push(Tri {
                v: [c, b, GHOST],
                n: [1, 3, 0],
                alive: true,
            });
            self.tris.push(Tri {
                v: [a, c, GHOST],
                n: [2, 1, 0],
                alive: true,
            });
            self.last = 0;
        }

        fn in_conflict(&self, t: usize, p: Point) -> bool {
            let tri = &self.tris[t];
            if let Some(k) = tri.v.iter().position(|&v| v == GHOST) {
                let u = tri.v[(k + 1) % 3];
                let w = tri.v[(k + 2) % 3];
                match orient2d(self.pts[u], self.pts[w], p) {
                    Orientation::CounterClockwise => true,
                    Orientation::Clockwise => false,
                    Orientation::Collinear => strictly_between(self.pts[u], self.pts[w], p),
                }
            } else {
                let [a, b, c] = tri.v;
                incircle(self.pts[a], self.pts[b], self.pts[c], p) == CirclePosition::Inside
            }
        }

        fn locate(&self, p: Point) -> usize {
            let mut t = self.last;
            if t == NO_TRI || !self.tris[t].alive {
                t = self
                    .tris
                    .iter()
                    .position(|t| t.alive)
                    .expect("no alive triangle");
            }
            if let Some(k) = self.tris[t].v.iter().position(|&v| v == GHOST) {
                t = self.tris[t].n[k];
            }
            let limit = 4 * self.tris.len() + 16;
            let mut steps = 0;
            'walk: while steps < limit {
                steps += 1;
                let tri = &self.tris[t];
                if tri.v.contains(&GHOST) {
                    let mut g = t;
                    for _ in 0..self.tris.len() + 1 {
                        if self.in_conflict(g, p) {
                            return g;
                        }
                        #[expect(
                            clippy::unwrap_used,
                            reason = "frozen seed replica; a ghost triangle holds the ghost vertex"
                        )]
                        let k = self.tris[g].v.iter().position(|&v| v == GHOST).unwrap();
                        g = self.tris[g].n[(k + 1) % 3];
                    }
                    break 'walk;
                }
                for i in 0..3 {
                    let u = tri.v[(i + 1) % 3];
                    let w = tri.v[(i + 2) % 3];
                    if orient2d(self.pts[u], self.pts[w], p) == Orientation::Clockwise {
                        t = tri.n[i];
                        continue 'walk;
                    }
                }
                return t;
            }
            (0..self.tris.len())
                .find(|&t| self.tris[t].alive && self.in_conflict(t, p))
                .expect("insertion point conflicts with no triangle")
        }

        fn insert(&mut self, pi: usize) {
            let p = self.pts[pi];
            let seed = self.locate(p);

            let mut cavity = vec![seed];
            #[expect(
                clippy::disallowed_types,
                reason = "frozen seed replica, kept verbatim for pipeline_equivalence"
            )]
            let mut in_cavity: HashMap<usize, bool> = HashMap::new();
            in_cavity.insert(seed, true);
            let mut stack = vec![seed];
            while let Some(t) = stack.pop() {
                for i in 0..3 {
                    let nb = self.tris[t].n[i];
                    if nb == NO_TRI || in_cavity.contains_key(&nb) {
                        continue;
                    }
                    let c = self.in_conflict(nb, p);
                    in_cavity.insert(nb, c);
                    if c {
                        cavity.push(nb);
                        stack.push(nb);
                    }
                }
            }

            struct BoundaryEdge {
                u: usize,
                w: usize,
                outside: usize,
            }
            let mut boundary = Vec::with_capacity(cavity.len() + 2);
            for &t in &cavity {
                for i in 0..3 {
                    let nb = self.tris[t].n[i];
                    let nb_in = nb != NO_TRI && *in_cavity.get(&nb).unwrap_or(&false);
                    if !nb_in {
                        boundary.push(BoundaryEdge {
                            u: self.tris[t].v[(i + 1) % 3],
                            w: self.tris[t].v[(i + 2) % 3],
                            outside: nb,
                        });
                    }
                }
            }

            for &t in &cavity {
                self.tris[t].alive = false;
            }
            let base = self.tris.len();
            #[expect(
                clippy::disallowed_types,
                reason = "frozen seed replica, kept verbatim for pipeline_equivalence"
            )]
            let mut by_u: HashMap<usize, usize> = HashMap::with_capacity(boundary.len());
            #[expect(
                clippy::disallowed_types,
                reason = "frozen seed replica, kept verbatim for pipeline_equivalence"
            )]
            let mut by_w: HashMap<usize, usize> = HashMap::with_capacity(boundary.len());
            for (off, e) in boundary.iter().enumerate() {
                let idx = base + off;
                self.tris.push(Tri {
                    v: [pi, e.u, e.w],
                    n: [e.outside, NO_TRI, NO_TRI],
                    alive: true,
                });
                by_u.insert(e.u, idx);
                by_w.insert(e.w, idx);
                if e.outside != NO_TRI {
                    let out = &mut self.tris[e.outside];
                    for j in 0..3 {
                        let a = out.v[(j + 1) % 3];
                        let b = out.v[(j + 2) % 3];
                        if (a == e.u && b == e.w) || (a == e.w && b == e.u) {
                            out.n[j] = idx;
                            break;
                        }
                    }
                }
            }
            for (off, e) in boundary.iter().enumerate() {
                let idx = base + off;
                self.tris[idx].n[1] = by_u[&e.w];
                self.tris[idx].n[2] = by_w[&e.u];
            }
            self.last = base;
        }

        fn finish(self, points: &[Point]) -> SeedTriangulation {
            let n = points.len();
            let mut triangles = Vec::new();
            #[expect(
                clippy::disallowed_types,
                reason = "frozen seed replica, kept verbatim for pipeline_equivalence"
            )]
            let mut edge_set: HashSet<(usize, usize)> = HashSet::new();
            #[expect(
                clippy::disallowed_types,
                reason = "frozen seed replica, kept verbatim for pipeline_equivalence"
            )]
            let mut tri_keys = HashSet::new();
            let mut hull = Vec::new();

            if let Some(chain) = &self.collinear_chain {
                for w in chain.windows(2) {
                    edge_set.insert(ordered(w[0], w[1]));
                }
            } else {
                for t in self.tris.iter().filter(|t| t.alive) {
                    if t.v.contains(&GHOST) {
                        continue;
                    }
                    triangles.push(t.v);
                    let mut k = t.v;
                    k.sort_unstable();
                    tri_keys.insert(k);
                    edge_set.insert(ordered(t.v[0], t.v[1]));
                    edge_set.insert(ordered(t.v[1], t.v[2]));
                    edge_set.insert(ordered(t.v[2], t.v[0]));
                }
                if let Some(start) = self
                    .tris
                    .iter()
                    .position(|t| t.alive && t.v.contains(&GHOST))
                {
                    let mut g = start;
                    loop {
                        #[expect(
                            clippy::unwrap_used,
                            reason = "frozen seed replica; a ghost triangle holds the ghost vertex"
                        )]
                        let k = self.tris[g].v.iter().position(|&v| v == GHOST).unwrap();
                        hull.push(self.tris[g].v[(k + 2) % 3]);
                        g = self.tris[g].n[(k + 1) % 3];
                        if g == start {
                            break;
                        }
                    }
                    hull.reverse();
                    if let Some(k) = hull
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &v)| v)
                        .map(|(k, _)| k)
                    {
                        hull.rotate_left(k);
                    }
                }
            }

            let mut edges: Vec<(usize, usize)> = edge_set.into_iter().collect();
            edges.sort_unstable();
            let mut adjacency = vec![Vec::new(); n];
            for &(u, v) in &edges {
                adjacency[u].push(v);
                adjacency[v].push(u);
            }
            for a in &mut adjacency {
                a.sort_unstable();
            }
            SeedTriangulation {
                triangles,
                edges,
                adjacency,
                hull,
                tri_keys,
            }
        }
    }

    #[inline]
    fn ordered(u: usize, v: usize) -> (usize, usize) {
        if u < v {
            (u, v)
        } else {
            (v, u)
        }
    }

    fn strictly_between(a: Point, b: Point, p: Point) -> bool {
        if p == a || p == b {
            return false;
        }
        p.x >= a.x.min(b.x) && p.x <= a.x.max(b.x) && p.y >= a.y.min(b.y) && p.y <= a.y.max(b.y)
    }
}
