//! The localized Delaunay graph `LDel¹` and its planarization `PLDel`.
//!
//! Following Li, Calinescu & Wan (INFOCOM 2002), which the paper builds
//! on:
//!
//! * a triangle `△uvw` with all three edges in the unit disk graph is a
//!   **1-localized Delaunay triangle** when its circumcircle contains no
//!   vertex of `N₁(u) ∪ N₁(v) ∪ N₁(w)`; equivalently (in general
//!   position), when `△uvw` appears in all three local Delaunay
//!   triangulations `Del(N₁(u))`, `Del(N₁(v))`, `Del(N₁(w))`. [`ldel1`]
//!   computes only each node's *Delaunay star* — the triangles of its own
//!   local triangulation incident to it, walked neighbour by neighbour in
//!   angular order ([`geospan_geometry::delaunay_star`]) — and accepts a
//!   triangle when all three corners' stars hold it;
//! * an UDG edge `uv` is a **Gabriel edge** when the closed disk with
//!   diameter `uv` holds no other vertex. A star edge `uv` is Gabriel
//!   exactly when neither apex of its adjacent star triangles lies in
//!   that disk: any other blocker would lie strictly inside the empty
//!   circumcircle of the triangle on its side. So the stars give the
//!   Gabriel edges too, each decided once by its smaller endpoint;
//! * `LDel¹` consists of all Gabriel edges plus all edges of 1-localized
//!   Delaunay triangles. It has thickness 2 (at most two planar layers);
//!   [`planarized`] removes the crossings — Algorithm 3 of the paper —
//!   producing the planar spanner `PLDel` with length stretch at most
//!   `4√3/9 · π ≈ 2.42` times that of the Delaunay triangulation.
//!
//! **Triangles that share a corner never cross.** [`ldel1`] accepts a
//! triangle only when every corner's star holds it, and each node's star
//! comes from one plane triangulation of its neighbourhood: the unique
//! Delaunay one, or Bowyer–Watson's when the node ties. So two accepted
//! triangles that share a vertex `v` are both triangles of `v`'s
//! triangulation, and no edge of one properly crosses an edge of the
//! other. The planarizer therefore runs its exact crossing test only on
//! pairs with disjoint vertex sets. The definitional oracle
//! [`ldel_k`]`(g, 1)` does not keep this invariant: its non-strict
//! circumcircle test accepts the triangles of both diagonals of an
//! exact square, so its output is not valid input to [`planarize`].
//!
//! **One rule set, three constructions.** Each node's star and Gabriel
//! verdicts (`star_step`) and the crossing-removal rule
//! (`crossing_removals`) are implemented once, here. [`ldel1`] and
//! [`planarized`] run them over the whole graph; the message-passing node
//! of [`crate::distributed::run_ldel_with`] runs the same two functions
//! on what it heard. That node accepts a triangle only from its own star,
//! on every radio, so its crossing removal may skip shared-vertex pairs
//! too. The `LDel²` node of [`crate::distributed2::run_ldel2_with`] runs
//! the same star step and votes only for triangles of its star, which is
//! what keeps its output plane on cocircular input.
//!
//! These functions operate on any *distance-closed* embedded graph: a
//! graph that contains **every** edge between its participating nodes
//! whose length is within the transmission radius (the UDG itself, or the
//! UDG induced on the backbone nodes — `ICDS`). Under that assumption all
//! witnesses to the Gabriel/Delaunay conditions are common neighbors, and
//! the construction is genuinely 1-localized.

use geospan_geometry::{
    delaunay_star, delaunay_triangles, gabriel_test, in_circumcircle, segments_properly_cross,
    CirclePosition, Point, Triangle, UniformGrid,
};
use geospan_graph::Graph;
use rayon::prelude::*;

/// The output of a localized-Delaunay construction: the graph plus the
/// certifying structure (triangles and Gabriel edges).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalDelaunay {
    /// The resulting topology (same vertex set as the input graph).
    pub graph: Graph,
    /// Accepted 1-localized Delaunay triangles, as ascending index
    /// triples, sorted.
    pub triangles: Vec<[usize; 3]>,
    /// Gabriel edges, `(u, v)` with `u < v`, sorted.
    pub gabriel_edges: Vec<(usize, usize)>,
}

/// Computes the (unplanarized) 1-localized Delaunay graph `LDel¹`.
///
/// `g` must be distance-closed (see the module docs); node positions must
/// be distinct.
///
/// # Panics
/// Panics if two participating nodes share a position.
///
/// # Example
/// ```
/// use geospan_graph::gen::{uniform_points, UnitDiskBuilder};
/// use geospan_topology::ldel::ldel1;
/// let pts = uniform_points(50, 100.0, 3);
/// let udg = UnitDiskBuilder::new(40.0).build(&pts);
/// let ld = ldel1(&udg);
/// // LDel¹ is a subgraph of the UDG.
/// assert!(ld.graph.edges().all(|(u, v)| udg.has_edge(u, v)));
/// ```
pub fn ldel1(g: &Graph) -> LocalDelaunay {
    let (triangles, gabriel_edges) = ldel1_parts(g);
    let graph = assemble_graph(g, &triangles, &gabriel_edges);
    LocalDelaunay {
        graph,
        triangles,
        gabriel_edges,
    }
}

/// The accepted `LDel¹` triangles (ascending triples, sorted) and Gabriel
/// edges of `g`, without assembling the result graph — [`planarized`]
/// discards triangles before ever needing one.
fn ldel1_parts(g: &Graph) -> (Vec<[usize; 3]>, Vec<(usize, usize)>) {
    let n = g.node_count();
    assert_distinct_positions(g);

    // Per node u, the triangles of Del(N1(u) ∪ {u}) *incident to u* — its
    // Delaunay star — as sorted global index triples. A triangle △abc is
    // a 1-localized Delaunay triangle exactly when all three vertices
    // emit it: membership of the key [a,b,c] in node x's local
    // triangulation is always witnessed by a triangle incident to x (the
    // key contains x), and mutual emission implies every side is a graph
    // edge (b, c ∈ N1(a) whenever a emits). So the three-way membership +
    // edge test of the definition reduces to "global multiplicity == 3",
    // computed by one sort over ~6 emitted keys per node.
    //
    // The star and the node's Gabriel verdicts come from `star_step`,
    // the one local rule the message-passing node runs too.
    //
    // Each node's star is independent — the paper's `O(d log d)`-work-
    // per-node locality — so the node range is split into one contiguous
    // chunk per worker (deterministic regardless of thread count), each
    // worker reusing one id/point/triangle buffer set across its nodes.
    // Each Gabriel edge is decided once, by its smaller endpoint, so
    // chunks emit them already sorted.
    let workers = rayon::current_num_threads().max(1);
    let chunk = n.div_ceil(workers).max(1);
    let starts: Vec<usize> = (0..n.div_ceil(chunk)).map(|w| w * chunk).collect();
    // Per-chunk output: packed triangle keys + Gabriel edges.
    type ChunkEmission = (Vec<u128>, Vec<(usize, usize)>);
    let emitted: Vec<ChunkEmission> = starts
        .into_par_iter()
        .map(|lo| {
            let hi = (lo + chunk).min(n);
            let mut ids: Vec<usize> = Vec::new();
            let mut pts: Vec<Point> = Vec::new();
            let mut tris: Vec<Triangle> = Vec::new();
            let mut verdicts: Vec<bool> = Vec::new();
            let mut out: Vec<u128> = Vec::new();
            let mut gabriel: Vec<(usize, usize)> = Vec::new();
            for u in lo..hi {
                let nbrs = g.neighbors(u);
                // A neighbourless node has no triangle and no Gabriel
                // edge (the dominatees of an ICDS, about half its nodes).
                if nbrs.is_empty() {
                    continue;
                }
                ids.clear();
                ids.push(u);
                ids.extend_from_slice(nbrs);
                pts.clear();
                pts.extend(ids.iter().map(|&i| g.position(i)));
                // Positions are distinct: checked once above.
                star_step(&pts, 0, true, &mut tris, &mut verdicts);
                gabriel.extend(
                    nbrs.iter()
                        .zip(&verdicts[1..])
                        .filter(|&(&v, &keep)| v > u && keep)
                        .map(|(&v, _)| (u, v)),
                );
                for t in &tris {
                    let [a, b, c] = t.indices();
                    let mut key = [ids[a], ids[b], ids[c]];
                    key.sort_unstable();
                    out.push(pack_key(key));
                }
            }
            (out, gabriel)
        })
        .collect();
    let mut keys: Vec<u128> = Vec::new();
    let mut gabriel: Vec<(usize, usize)> = Vec::new();
    for (k, e) in emitted {
        keys.extend_from_slice(&k);
        gabriel.extend_from_slice(&e);
    }
    keys.sort_unstable();
    debug_assert!(gabriel.is_sorted());

    // Accept keys emitted by all three vertices (each vertex emits a
    // given key at most once, so runs have length ≤ 3). `keys` is
    // sorted, and the packing is order-preserving, so the accepted list
    // comes out sorted.
    let mut triangles: Vec<[usize; 3]> = Vec::new();
    let mut i = 0;
    while i < keys.len() {
        let mut j = i + 1;
        while j < keys.len() && keys[j] == keys[i] {
            j += 1;
        }
        if j - i == 3 {
            triangles.push(unpack_key(keys[i]));
        }
        i = j;
    }
    debug_assert!(triangles.is_sorted());

    (triangles, gabriel)
}

/// One node's local step of Algorithm 2, the rule [`ldel1`] and the
/// message-passing node ([`crate::distributed::run_ldel_with`]) both run:
/// the node's Delaunay star and the Gabriel verdicts on its own edges.
///
/// `pts` is the node's closed neighbourhood, the node itself at `centre`;
/// the caller's point order breaks Bowyer–Watson's ties. On return `tris`
/// holds the triangles of the node's local triangulation incident on it,
/// in local indices, and `gabriel[i]` tells whether the edge from the
/// node to `pts[i]` is a Gabriel edge (`gabriel[centre]` is false).
/// `distinct` says that the positions are finite and pairwise distinct,
/// the star walk's input contract; without it the node goes straight to
/// the fallback.
///
/// The star is walked directly ([`delaunay_star`]), never triangulating
/// the rest of the neighbourhood, and its apexes decide the Gabriel
/// edges: a star edge `ca` is Gabriel iff neither adjacent apex lies in
/// its closed diametral disk, since any other blocker would lie strictly
/// inside the empty circumcircle of the star triangle on its side, and
/// every Gabriel edge is a Delaunay edge. On an exact tie, or with fewer
/// than three points, the triangles come from Bowyer–Watson (none on
/// duplicate or collinear positions), so every cocircular tie-break is
/// Bowyer–Watson's and the output is the same either way; each edge is
/// then tested against every other neighbour. On a distance-closed graph
/// those are all the possible blockers: a point in the closed diametral
/// disk of a radius-bounded edge is within the radius of both ends.
pub(crate) fn star_step(
    pts: &[Point],
    centre: usize,
    distinct: bool,
    tris: &mut Vec<Triangle>,
    gabriel: &mut Vec<bool>,
) {
    let pc = pts[centre];
    gabriel.clear();
    if distinct && pts.len() >= 3 && delaunay_star(pts, centre, tris).is_ok() {
        gabriel.resize(pts.len(), false);
        for t in tris.iter() {
            let [_, a, b] = t.indices();
            gabriel[a] = true;
            gabriel[b] = true;
        }
        for t in tris.iter() {
            let [_, a, b] = t.indices();
            if gabriel[a] && gabriel_test(pc, pts[a], pts[b]) {
                gabriel[a] = false;
            }
            if gabriel[b] && gabriel_test(pc, pts[b], pts[a]) {
                gabriel[b] = false;
            }
        }
    } else {
        *tris = delaunay_triangles(pts).unwrap_or_default();
        tris.retain(|t| t.contains(centre));
        gabriel.extend(pts.iter().enumerate().map(|(i, &p)| {
            i != centre
                && !pts
                    .iter()
                    .enumerate()
                    .any(|(j, &w)| j != i && j != centre && gabriel_test(pc, p, w))
        }));
    }
}

/// Packs an ascending index triple into one integer whose natural order
/// matches the lexicographic triple order, so the global acceptance sort
/// compares single `u128`s instead of `[usize; 3]`s element by element.
/// Node ids are bounded by the `u32` arena id space.
#[inline]
fn pack_key([a, b, c]: [usize; 3]) -> u128 {
    debug_assert!(c <= u32::MAX as usize);
    ((a as u128) << 64) | ((b as u128) << 32) | (c as u128)
}

/// Inverse of [`pack_key`].
#[inline]
fn unpack_key(k: u128) -> [usize; 3] {
    [
        (k >> 64) as usize,
        ((k >> 32) & 0xFFFF_FFFF) as usize,
        (k & 0xFFFF_FFFF) as usize,
    ]
}

/// Builds the result graph from triangle sides plus Gabriel edges in one
/// bulk pass.
pub(crate) fn assemble_graph(
    g: &Graph,
    triangles: &[[usize; 3]],
    gabriel_edges: &[(usize, usize)],
) -> Graph {
    let mut edges: Vec<(usize, usize)> =
        Vec::with_capacity(gabriel_edges.len() + 3 * triangles.len());
    edges.extend_from_slice(gabriel_edges);
    for &[a, b, c] in triangles {
        edges.push((a, b));
        edges.push((b, c));
        edges.push((a, c));
    }
    Graph::with_edges(g.points().to_vec(), edges)
}

/// Panics unless all node positions are pairwise distinct (the local
/// triangulations assume it; checking once globally is `O(n log n)`
/// instead of `O(deg²)` per node).
fn assert_distinct_positions(g: &Graph) {
    let mut bits: Vec<(u64, u64)> = g
        .points()
        .iter()
        .map(|p| {
            assert!(p.is_finite(), "node positions must be finite");
            (p.x.to_bits(), p.y.to_bits())
        })
        .collect();
    bits.sort_unstable();
    assert!(
        bits.windows(2).all(|w| w[0] != w[1]),
        "distinct node positions required"
    );
}

/// The planarized localized Delaunay graph `PLDel` (Algorithm 3 of the
/// paper, centralized reference implementation).
///
/// Starting from [`ldel1`], a triangle is discarded when it properly
/// crosses another accepted triangle **and** its circumcircle contains a
/// vertex of that other triangle; the Gabriel edges and the edges of the
/// surviving triangles form a plane graph. Only pairs of triangles with
/// disjoint vertex sets can cross (see the module docs), so only those
/// get the exact test.
///
/// # Panics
/// Panics if two participating nodes share a position.
pub fn planarized(g: &Graph) -> LocalDelaunay {
    let (triangles, gabriel_edges) = ldel1_parts(g);
    planarize_parts(g, triangles, gabriel_edges, None)
}

/// Planarizes an already-computed `LDel¹` (useful when the caller needs
/// both the raw and the planar structure).
///
/// `raw` must come from [`ldel1`] or
/// [`crate::distributed::run_ldel_with`]: the planarizer skips every
/// pair of triangles that share a vertex, which is exact only when any
/// two such triangles lie in one plane triangulation, as the stars of
/// those constructions guarantee (module docs). The output of
/// [`ldel_k`]`(g, 1)` on cocircular input breaks that precondition.
/// When no triangle goes, `raw` comes back as it was given.
pub fn planarize(g: &Graph, raw: LocalDelaunay) -> LocalDelaunay {
    planarize_parts(g, raw.triangles, raw.gabriel_edges, Some(raw.graph))
}

/// Whether two ascending index triples have a vertex in common.
#[inline]
fn share_vertex(a: [usize; 3], b: [usize; 3]) -> bool {
    a.iter().any(|v| b.contains(v))
}

/// Algorithm 3's removal rule for one pair of accepted `LDel¹` triangles
/// `s` and `t` (ascending ids, with their positions): whether each must
/// go. A triangle goes when the other properly crosses it and has a
/// vertex inside or on its circumcircle. The planarizer's sweep and the
/// message-passing node's local removal both apply it.
///
/// Two triangles that share a vertex lie in that vertex's one plane
/// triangulation and cannot cross (module docs). They are about 94 % of
/// the box-overlapping pairs at Table I density, so the exact test runs
/// only on pairs with disjoint vertex sets; `invariant-checks` runs it on
/// the skipped pairs too and panics on a crossing.
pub(crate) fn crossing_removals(
    s: [usize; 3],
    sp: &[Point; 3],
    t: [usize; 3],
    tp: &[Point; 3],
) -> (bool, bool) {
    if share_vertex(s, t) {
        #[cfg(feature = "invariant-checks")]
        assert!(
            !triangles_cross(sp, tp),
            "LDel¹ triangles {s:?} and {t:?} share a vertex yet cross"
        );
        return (false, false);
    }
    if !triangles_cross(sp, tp) {
        return (false, false);
    }
    (circum_contains_any(sp, tp), circum_contains_any(tp, sp))
}

/// Removes the crossed triangles of `tris`, keeping `graph`, the
/// caller's graph of the input if it has one, when none goes.
fn planarize_parts(
    g: &Graph,
    mut tris: Vec<[usize; 3]>,
    gabriel_edges: Vec<(usize, usize)>,
    graph: Option<Graph>,
) -> LocalDelaunay {
    let m = tris.len();

    // Vertex positions fetched once per triangle: the pair sweep below
    // revisits each triangle many times.
    let tpts: Vec<[Point; 3]> = tris.iter().map(|t| t.map(|v| g.position(v))).collect();

    // Every LDel¹ triangle has sides within the transmission radius, so a
    // uniform grid over the triangle bounding boxes (cell ≈ that radius,
    // derived from the largest box) yields each potentially-crossing pair
    // exactly once, in near-linear total time.
    let boxes: Vec<(Point, Point)> = tpts
        .iter()
        .map(|&[p0, p1, p2]| {
            (
                Point::new(p0.x.min(p1.x).min(p2.x), p0.y.min(p1.y).min(p2.y)),
                Point::new(p0.x.max(p1.x).max(p2.x), p0.y.max(p1.y).max(p2.y)),
            )
        })
        .collect();

    // Stream the candidate pairs straight into the removal flags: the
    // removal condition is a monotone OR over pairs, so visit order
    // cannot affect the outcome, and skipping the geometry once both
    // flags are set (or when the boxes don't even intersect — a proper
    // crossing implies overlapping bounding boxes) is output-preserving.
    // Streaming keeps the planarize sweep allocation-free per pair where
    // materializing + sorting the pair list dominated the old running
    // time at scale.
    let mut removed = vec![false; m];
    UniformGrid::from_boxes(&boxes, None).for_each_candidate_pair(|i, j| {
        if removed[i] && removed[j] {
            return;
        }
        let (ilo, ihi) = boxes[i];
        let (jlo, jhi) = boxes[j];
        if ilo.x > jhi.x || jlo.x > ihi.x || ilo.y > jhi.y || jlo.y > ihi.y {
            return;
        }
        let (ri, rj) = crossing_removals(tris[i], &tpts[i], tris[j], &tpts[j]);
        removed[i] |= ri;
        removed[j] |= rj;
    });

    let graph = graph.filter(|_| !removed.contains(&true));
    let mut kept = removed.into_iter().map(|r| !r);
    tris.retain(|_| kept.next().unwrap_or(true));
    let graph = graph.unwrap_or_else(|| assemble_graph(g, &tris, &gabriel_edges));
    #[cfg(feature = "invariant-checks")]
    assert!(
        geospan_graph::planarity::is_plane_embedding(&graph),
        "PLDel output is not a plane embedding"
    );
    LocalDelaunay {
        graph,
        triangles: tris,
        gabriel_edges,
    }
}

/// The `k`-localized Delaunay graph by direct definition: Gabriel edges
/// plus triangles with mutually adjacent vertices whose circumcircle is
/// empty of `N_k(u) ∪ N_k(v) ∪ N_k(w)`.
///
/// This is the reference oracle for tests (`LDel^k` is planar for
/// `k >= 2` in general position); it enumerates all UDG triangles and
/// costs `O(n · Δ³)` — use [`ldel1`]/[`planarized`] for real workloads.
/// Its circumcircle test is non-strict, so on cocircular input it keeps
/// both diagonals' triangles at every `k`: at `k = 2` the points (5,0),
/// (4,3), (3,4), (0,5) at radius 4.5 give the crossing pair
/// `[[0,1,2],[1,2,3]]`, of which [`crate::distributed2::run_ldel2_with`]
/// keeps `[0,1,2]`. The two agree in general position only.
///
/// # Panics
/// Panics if `k == 0`.
pub fn ldel_k(g: &Graph, k: usize) -> LocalDelaunay {
    assert!(k >= 1, "LDel^k needs k >= 1");
    let n = g.node_count();
    // k-hop neighborhoods.
    let hoods: Vec<Vec<usize>> = (0..n).map(|u| k_hop_neighborhood(g, u, k)).collect();

    let mut triangles = Vec::new();
    for u in 0..n {
        let nu = g.neighbors(u);
        for (i, &v) in nu.iter().enumerate() {
            if v < u {
                continue;
            }
            for &w in &nu[i + 1..] {
                if w < u || !g.has_edge(v, w) {
                    continue;
                }
                // Union of the three k-neighborhoods.
                let mut witnesses: Vec<usize> = hoods[u]
                    .iter()
                    .chain(&hoods[v])
                    .chain(&hoods[w])
                    .copied()
                    .collect();
                witnesses.sort_unstable();
                witnesses.dedup();
                let (pu, pv, pw) = (g.position(u), g.position(v), g.position(w));
                let empty = witnesses.iter().all(|&x| {
                    x == u
                        || x == v
                        || x == w
                        || in_circumcircle(pu, pv, pw, g.position(x)) != CirclePosition::Inside
                });
                if empty {
                    triangles.push([u, v, w]);
                }
            }
        }
    }
    triangles.sort_unstable();

    let gabriel_edges = crate::gabriel::gabriel_edges(g);
    let graph = assemble_graph(g, &triangles, &gabriel_edges);
    LocalDelaunay {
        graph,
        triangles,
        gabriel_edges,
    }
}

/// Do two triangles, given by their vertex positions, properly cross
/// (some edge of one crosses some edge of the other)?
fn triangles_cross(t1: &[Point; 3], t2: &[Point; 3]) -> bool {
    const E: [(usize, usize); 3] = [(0, 1), (1, 2), (0, 2)];
    E.iter().any(|&(i, j)| {
        let (a, b) = (t1[i], t1[j]);
        E.iter().any(|&(p, q)| {
            let (c, d) = (t2[p], t2[q]);
            // A proper crossing is a common point of both closed
            // segments, so disjoint boxes cannot cross.
            a.x.max(b.x) >= c.x.min(d.x)
                && c.x.max(d.x) >= a.x.min(b.x)
                && a.y.max(b.y) >= c.y.min(d.y)
                && c.y.max(d.y) >= a.y.min(b.y)
                && segments_properly_cross(a, b, c, d)
        })
    })
}

/// Six nodes a, b, w, c, d, z on a UDG of radius 1, the one instance in
/// the tests where planarization removes a triangle: `LDel¹` is
/// `[[0,1,2],[0,2,5],[3,4,5]]`, `PLDel` `[[0,2,5],[3,4,5]]`. The flat
/// triangle abw has a huge circumcircle holding d, which is two hops from
/// a, b and w, so all three stars accept it. Its edge ab properly crosses
/// edge cd of the triangle cdz, with which it shares no vertex.
#[cfg(test)]
pub(crate) fn crossed_flat_triangle() -> Graph {
    let pts = [
        (0.0, 0.0),
        (1.0, 0.0),
        (0.01, 0.001),
        (0.5, 0.05),
        (0.5, -0.9),
        (0.35, 0.04),
    ]
    .map(|(x, y)| Point::new(x, y));
    geospan_graph::gen::UnitDiskBuilder::new(1.0).build(&pts)
}

/// The 12 points of the integer lattice on the circle of radius 5
/// about the origin: exactly cocircular, with antipodal pairs
/// collinear with the centre.
#[cfg(test)]
fn lattice_circle() -> Vec<Point> {
    [(5, 0), (4, 3), (3, 4)]
        .into_iter()
        .flat_map(|(x, y)| [(x, y), (-y, x), (-x, -y), (y, -x)])
        .map(|(x, y)| Point::new(f64::from(x), f64::from(y)))
        .collect()
}

/// Deployments where the stars tie or nearly tie, plus uniform ones at
/// Table I density, each with its radius.
#[cfg(test)]
pub(crate) fn tie_prone_udg() -> impl proptest::strategy::Strategy<Value = (Graph, f64)> {
    use geospan_graph::gen::{perturbed_grid, uniform_points, UnitDiskBuilder};
    use proptest::prelude::*;
    let udg = |pts: &[Point], r: f64| (UnitDiskBuilder::new(r).build(pts), r);
    prop_oneof![
        // Exact grid: every square cocircular, every row collinear.
        (2usize..9, 2usize..9, 10.0f64..31.0)
            .prop_map(move |(nx, ny, r)| udg(&perturbed_grid(nx, ny, 10.0, 0.0, 0), r)),
        // One collinear chain, or two parallel ones: rectangles and
        // isosceles trapezoids are cocircular.
        (2usize..16, 0usize..16, 0usize..3, 1usize..4, 10.0f64..45.0).prop_map(
            move |(k, l, shift, rise, r)| {
                let pts: Vec<Point> = (0..k)
                    .map(|i| Point::new(10.0 * i as f64, 0.0))
                    .chain((0..l).map(|i| {
                        Point::new(10.0 * i as f64 + 5.0 * shift as f64, 10.0 * rise as f64)
                    }))
                    .collect();
                udg(&pts, r)
            }
        ),
        // A subset of the lattice circle plus its centre: the
        // centre's star has collinear antipodes, and with a radius
        // below 5 the circle nodes see only cocircular neighbours.
        (any::<u64>(), 3.0f64..11.0).prop_map(move |(mask, r)| {
            let circle = lattice_circle();
            let pts: Vec<Point> = std::iter::once(Point::new(0.0, 0.0))
                .chain(
                    circle
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| mask >> i & 1 == 1 || i < 3)
                        .map(|(_, &p)| p),
                )
                .collect();
            udg(&pts, r)
        }),
        // Jittered grid: near-ties.
        (
            2usize..9,
            2usize..9,
            0.001f64..2.0,
            10.0f64..31.0,
            any::<u64>()
        )
            .prop_map(move |(nx, ny, jitter, r, seed)| {
                udg(&perturbed_grid(nx, ny, 10.0, jitter, seed), r)
            }),
        // Uniform at Table I density (100 nodes per 200 × 200, radius 60).
        (8usize..300, any::<u64>()).prop_map(move |(n, seed)| {
            let side = 200.0 * (n as f64 / 100.0).sqrt();
            udg(&uniform_points(n, side, seed), 60.0)
        }),
    ]
}

/// The pairs of `triangles` that share a vertex and yet properly cross,
/// by the full crossing test: empty whenever the triangles satisfy the
/// planarizer's precondition (module docs).
#[cfg(test)]
pub(crate) fn crossing_pairs_sharing_a_vertex(
    g: &Graph,
    triangles: &[[usize; 3]],
) -> Vec<([usize; 3], [usize; 3])> {
    let pts = |t: [usize; 3]| t.map(|v| g.position(v));
    let mut out = Vec::new();
    for (i, &s) in triangles.iter().enumerate() {
        for &t in &triangles[i + 1..] {
            if share_vertex(s, t) && triangles_cross(&pts(s), &pts(t)) {
                out.push((s, t));
            }
        }
    }
    out
}

/// Is any of the points `other` inside or on the circumcircle of the
/// triangle `t`?
///
/// Boundary points count as contained so that exactly-cocircular crossing
/// pairs (possible on degenerate deployments such as perfect grids)
/// remove each other and the planarity guarantee survives ties.
fn circum_contains_any(t: &[Point; 3], other: &[Point; 3]) -> bool {
    let [a, b, c] = *t;
    other
        .iter()
        .any(|&p| in_circumcircle(a, b, c, p) != CirclePosition::Outside)
}

/// Nodes within `k` hops of `u`, including `u`.
fn k_hop_neighborhood(g: &Graph, u: usize, k: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.node_count()];
    dist[u] = 0;
    let mut frontier = vec![u];
    let mut all = vec![u];
    for d in 1..=k {
        let mut next = Vec::new();
        for &x in &frontier {
            for &y in g.neighbors(x) {
                if dist[y] == usize::MAX {
                    dist[y] = d;
                    next.push(y);
                    all.push(y);
                }
            }
        }
        frontier = next;
    }
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gabriel, unit_delaunay};
    use geospan_graph::gen::{connected_unit_disk, uniform_points, UnitDiskBuilder};
    use geospan_graph::planarity::{crossing_count, is_plane_embedding};
    use geospan_graph::stretch::{stretch_factors, StretchOptions};
    use proptest::prelude::*;

    fn udg(seed: u64) -> Graph {
        let pts = uniform_points(70, 100.0, seed);
        UnitDiskBuilder::new(35.0).build(&pts)
    }

    #[test]
    fn gabriel_subset_of_ldel1() {
        for seed in 0..4 {
            let g = udg(seed);
            let gg = gabriel(&g);
            let ld = ldel1(&g);
            for (u, v) in gg.edges() {
                assert!(ld.graph.has_edge(u, v), "seed {seed}: GG edge ({u},{v})");
            }
        }
    }

    #[test]
    fn ldel1_subgraph_of_udg() {
        for seed in 0..4 {
            let g = udg(seed + 4);
            let ld = ldel1(&g);
            for (u, v) in ld.graph.edges() {
                assert!(g.has_edge(u, v));
            }
            // And each accepted triangle has all edges in the result.
            for &[a, b, c] in &ld.triangles {
                assert!(ld.graph.has_edge(a, b));
                assert!(ld.graph.has_edge(b, c));
                assert!(ld.graph.has_edge(a, c));
            }
        }
    }

    #[test]
    fn planarized_is_plane_and_connected() {
        for seed in 0..6 {
            let (_pts, g, _s) = connected_unit_disk(60, 100.0, 35.0, seed * 100);
            let pl = planarized(&g);
            assert!(
                is_plane_embedding(&pl.graph),
                "seed {seed}: {} crossings",
                crossing_count(&pl.graph)
            );
            assert!(pl.graph.is_connected(), "seed {seed}");
        }
    }

    #[test]
    fn planarized_contains_unit_delaunay() {
        // PLDel ⊇ UDel is the key containment behind the spanner proof.
        for seed in 0..4 {
            let (_pts, g, _s) = connected_unit_disk(50, 100.0, 35.0, seed * 7 + 1);
            let udel = unit_delaunay(&g);
            let pl = planarized(&g);
            for (u, v) in udel.edges() {
                assert!(
                    pl.graph.has_edge(u, v),
                    "seed {seed}: UDel edge ({u},{v}) missing from PLDel"
                );
            }
        }
    }

    #[test]
    fn planarized_length_stretch_is_small() {
        let (_pts, g, _s) = connected_unit_disk(80, 100.0, 30.0, 12);
        let pl = planarized(&g);
        let r = stretch_factors(&g, &pl.graph, StretchOptions::default());
        assert_eq!(r.disconnected_pairs, 0);
        // Theory: <= 2.42 relative to UDel; empirically well under 2.5
        // relative to the UDG itself on random instances.
        assert!(r.length_max < 2.5, "length stretch {}", r.length_max);
    }

    #[test]
    fn ldel2_is_planar_without_planarization() {
        // LDel^k is planar for k >= 2 (Li-Calinescu-Wan theorem).
        for seed in 0..3 {
            let (_pts, g, _s) = connected_unit_disk(40, 100.0, 35.0, seed * 13 + 5);
            let ld2 = ldel_k(&g, 2);
            assert!(is_plane_embedding(&ld2.graph), "seed {seed}");
        }
    }

    #[test]
    fn ldel1_by_definition_matches_local_triangulation_route() {
        // The membership-based fast path equals the direct definition.
        for seed in 0..3 {
            let (_pts, g, _s) = connected_unit_disk(35, 100.0, 40.0, seed * 31 + 2);
            let fast = ldel1(&g);
            let slow = ldel_k(&g, 1);
            assert_eq!(fast.triangles, slow.triangles, "seed {seed}");
            assert_eq!(fast.gabriel_edges, slow.gabriel_edges);
            let fe: Vec<_> = fast.graph.edges().collect();
            let se: Vec<_> = slow.graph.edges().collect();
            assert_eq!(fe, se, "seed {seed}");
        }
    }

    #[test]
    fn planarization_only_removes_triangles() {
        let g = udg(9);
        let raw = ldel1(&g);
        let pl = planarize(&g, raw.clone());
        assert!(pl.triangles.len() <= raw.triangles.len());
        for t in &pl.triangles {
            assert!(raw.triangles.contains(t));
        }
        assert_eq!(pl.gabriel_edges, raw.gabriel_edges);
        // No triangle goes here, so the given structure comes back.
        assert_eq!(planarize(&g, raw.clone()), raw);
    }

    #[test]
    fn planarize_removes_a_triangle_crossed_by_a_disjoint_one() {
        let g = crossed_flat_triangle();
        let raw = ldel1(&g);
        assert_eq!(raw.triangles, [[0, 1, 2], [0, 2, 5], [3, 4, 5]]);
        assert!(!is_plane_embedding(&raw.graph));
        let pl = planarized(&g);
        assert_eq!(pl.triangles, [[0, 2, 5], [3, 4, 5]]);
        assert!(is_plane_embedding(&pl.graph));
        assert_eq!(planarize(&g, raw), pl);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn ldel1_triangles_sharing_a_vertex_never_cross((g, _radius) in tie_prone_udg()) {
            // The planarizer skips these pairs; the full test must agree.
            let ld = ldel1(&g);
            let crossing = crossing_pairs_sharing_a_vertex(&g, &ld.triangles);
            prop_assert!(crossing.is_empty(), "{crossing:?}");
            prop_assert!(is_plane_embedding(&planarize(&g, ld).graph));
        }
    }

    #[test]
    fn ldel_k_on_a_square_breaks_the_planarizer_precondition() {
        // The definitional oracle's non-strict circumcircle test accepts
        // the triangles of both diagonals of an exact square, at k = 1 and
        // at k = 2; `ldel1` and the `LDel²` protocol accept only triangles
        // of each corner's one triangulation.
        let square =
            [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)].map(|(x, y)| Point::new(x, y));
        let g = UnitDiskBuilder::new(1.5).build(&square);
        for k in [1, 2] {
            let oracle = ldel_k(&g, k).triangles;
            assert_eq!(oracle.len(), 4, "k = {k}");
            assert!(
                !crossing_pairs_sharing_a_vertex(&g, &oracle).is_empty(),
                "k = {k}"
            );
        }
        assert!(crossing_pairs_sharing_a_vertex(&g, &ldel1(&g).triangles).is_empty());
        let (ldel2, _stats) = crate::distributed2::run_ldel2(&g, 1.5).unwrap();
        assert_eq!(ldel2.triangles.len(), 2);
        assert!(crossing_pairs_sharing_a_vertex(&g, &ldel2.triangles).is_empty());
    }

    #[test]
    fn degenerate_inputs() {
        // Two nodes: a single Gabriel edge, no triangles.
        let g = UnitDiskBuilder::new(2.0).build(&[
            geospan_graph::Point::new(0.0, 0.0),
            geospan_graph::Point::new(1.0, 0.0),
        ]);
        let ld = planarized(&g);
        assert_eq!(ld.graph.edge_count(), 1);
        assert!(ld.triangles.is_empty());
        // Empty graph.
        let g = Graph::new(vec![]);
        let ld = planarized(&g);
        assert_eq!(ld.graph.edge_count(), 0);
    }
}
