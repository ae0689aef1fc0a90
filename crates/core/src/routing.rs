//! Geographic routing over the constructed topologies.
//!
//! The backbone exists to serve localized routing: every algorithm here
//! makes forwarding decisions using only the current node's neighbors and
//! the destination's position, exactly the regime of GPSR (Karp & Kung)
//! and the routing schemes the paper cites.
//!
//! * [`greedy_route`] — pure greedy geographic forwarding: always move to
//!   the neighbor closest to the destination; fails at local minima
//!   ("voids").
//! * [`gpsr_route`] — greedy with perimeter (right-hand rule) recovery on
//!   a **planar** graph: the GPSR/GFG scheme. On a connected plane
//!   embedding the perimeter mode escapes every void.
//! * [`backbone_route`] — the paper's dominating-set-based routing: hop
//!   to a dominator, traverse the planar backbone `LDel(ICDS)` with GPSR,
//!   hop to the destination.
//!
//! Every algorithm is built from a **single-hop decision**: given the
//! packet's per-session state, the node currently holding it, and the
//! destination, [`greedy_forward`], [`gpsr_forward`], and
//! [`backbone_forward`] return one [`Decision`]. The whole-route
//! functions above are thin loops over these; the discrete-event traffic
//! engine (`geospan-traffic`) drives the very same decisions one radio
//! transmission at a time, so congestion and faults interact with exactly
//! the forwarding logic measured here.

use geospan_geometry::{pseudo_angle, Point};
use geospan_graph::Graph;

use crate::Backbone;

/// Why a route ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// The destination was reached.
    Delivered,
    /// No forwarding rule applied (greedy local minimum with no recovery,
    /// or perimeter traversal exhausted the face without progress:
    /// destination unreachable).
    Stuck,
    /// The hop budget ran out.
    HopLimit,
}

/// A route taken through a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// The nodes visited, starting at the source.
    pub path: Vec<usize>,
    /// Why the route ended.
    pub outcome: RouteOutcome,
}

impl Route {
    /// True when the destination was reached.
    pub fn delivered(&self) -> bool {
        self.outcome == RouteOutcome::Delivered
    }

    /// Number of hops taken.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// Euclidean length of the route.
    ///
    /// # Panics
    /// Panics if the path refers to nodes outside `g`.
    pub fn length(&self, g: &Graph) -> f64 {
        self.path
            .windows(2)
            .map(|w| g.edge_length(w[0], w[1]))
            .sum()
    }
}

/// A single forwarding decision: what the node currently holding a packet
/// should do with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Hand the packet to this neighbor.
    Forward(usize),
    /// The packet is at its destination.
    Arrived,
    /// No forwarding rule applies from here: the destination is
    /// unreachable for this algorithm (greedy local minimum, or an
    /// exhausted perimeter walk).
    Stuck,
}

/// One greedy forwarding decision at `u` toward `dst`.
///
/// Stateless: greedy forwarding needs no per-packet session.
///
/// # Panics
/// Panics if `u` or `dst` are out of bounds.
pub fn greedy_forward(g: &Graph, u: usize, dst: usize) -> Decision {
    if u == dst {
        return Decision::Arrived;
    }
    match greedy_next(g, u, g.position(dst)) {
        Some(v) => Decision::Forward(v),
        None => Decision::Stuck,
    }
}

/// Greedy geographic forwarding: repeatedly move to the neighbor strictly
/// closest to the destination.
///
/// # Panics
/// Panics if `src` or `dst` are out of bounds.
pub fn greedy_route(g: &Graph, src: usize, dst: usize, max_hops: usize) -> Route {
    walk(src, max_hops, |u| greedy_forward(g, u, dst))
}

/// Drives a single-hop `forward` rule from `src` until it arrives,
/// gets stuck, or the path grows past `budget` hops.
fn walk(src: usize, budget: usize, mut forward: impl FnMut(usize) -> Decision) -> Route {
    let mut path = vec![src];
    let mut u = src;
    loop {
        let outcome = match forward(u) {
            Decision::Arrived => RouteOutcome::Delivered,
            _ if path.len() > budget => RouteOutcome::HopLimit,
            Decision::Forward(v) => {
                path.push(v);
                u = v;
                continue;
            }
            Decision::Stuck => RouteOutcome::Stuck,
        };
        return Route { path, outcome };
    }
}

/// The neighbor of `u` strictly closer to `dpos` than `u`, closest first
/// (ties broken by index); `None` at a local minimum.
fn greedy_next(g: &Graph, u: usize, dpos: Point) -> Option<usize> {
    let du = g.position(u).distance_sq(dpos);
    g.neighbors(u)
        .iter()
        .copied()
        .map(|v| (g.position(v).distance_sq(dpos), v))
        .filter(|&(d, _)| d < du)
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .map(|(_, v)| v)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Greedy,
    Perimeter,
}

/// Per-packet state of a GPSR forwarding session.
///
/// One value travels with each packet; [`gpsr_forward`] reads and updates
/// it at every hop. A fresh state starts in greedy mode.
#[derive(Debug, Clone)]
pub struct GpsrState {
    mode: Mode,
    /// Distance to the destination when perimeter mode was entered.
    entry_dist: f64,
    /// Current face entry point of the perimeter walk.
    face_point: Point,
    /// Node the packet arrived from (right-hand-rule reference).
    prev: usize,
    /// Directed edges walked on the current face.
    walked: std::collections::HashSet<(usize, usize)>,
}

impl GpsrState {
    /// A fresh session in greedy mode.
    pub fn new() -> Self {
        GpsrState {
            mode: Mode::Greedy,
            entry_dist: f64::INFINITY,
            face_point: Point::new(0.0, 0.0),
            prev: usize::MAX,
            walked: std::collections::HashSet::new(),
        }
    }

    /// True while the session is in greedy mode (no void encountered
    /// since the last recovery).
    pub fn is_greedy(&self) -> bool {
        self.mode == Mode::Greedy
    }
}

impl Default for GpsrState {
    fn default() -> Self {
        GpsrState::new()
    }
}

/// One GPSR forwarding decision at `u` toward `dst`: greedy while
/// progress is possible, right-hand-rule perimeter recovery otherwise.
///
/// `g` must be a **plane** embedding for the perimeter mode to be
/// meaningful. The session state must accompany the packet: pass the
/// same `state` for every hop of one packet, starting from
/// [`GpsrState::new`].
///
/// # Panics
/// Panics if `u` or `dst` are out of bounds.
pub fn gpsr_forward(g: &Graph, state: &mut GpsrState, u: usize, dst: usize) -> Decision {
    if u == dst {
        return Decision::Arrived;
    }
    let dpos = g.position(dst);
    loop {
        match state.mode {
            Mode::Greedy => {
                return match greedy_next(g, u, dpos) {
                    Some(v) => Decision::Forward(v),
                    None => {
                        if g.degree(u) == 0 {
                            return Decision::Stuck;
                        }
                        state.mode = Mode::Perimeter;
                        state.entry_dist = g.position(u).distance(dpos);
                        state.face_point = g.position(u);
                        state.walked.clear();
                        let v = first_edge_ccw(g, u, dpos);
                        state.walked.insert((u, v));
                        state.prev = u;
                        Decision::Forward(v)
                    }
                }
            }
            Mode::Perimeter => {
                if g.position(u).distance(dpos) < state.entry_dist {
                    // Closer than the void that forced recovery: resume
                    // greedy (a mode switch, not a hop).
                    state.mode = Mode::Greedy;
                    continue;
                }
                let mut v = next_ccw(g, u, state.prev);
                if v == dst {
                    return Decision::Forward(v);
                }
                // Face changes: when the chosen edge crosses the segment
                // from the face entry point to the destination at a
                // closer point **and the segment exits the current face
                // there** (the destination lies strictly left of the
                // directed edge, while the walked face lies on its
                // right), do not traverse it — bounce onto the face on
                // the far side. Crossings with the destination on the
                // right are the segment re-entering the current face and
                // must be ignored. Several exit edges can share `u`,
                // hence the loop.
                for _ in 0..=g.degree(u) {
                    if !face_exit_crossing(g, u, v, state.face_point, dpos) {
                        break;
                    }
                    let p =
                        segment_intersection(g.position(u), g.position(v), state.face_point, dpos)
                            .expect("exit test implies intersection");
                    state.face_point = p;
                    v = next_ccw(g, u, v);
                    // New face: edges may legitimately repeat.
                    state.walked.clear();
                }
                if v == dst {
                    return Decision::Forward(v);
                }
                if !state.walked.insert((u, v)) {
                    // Same directed edge twice in one perimeter session:
                    // the destination is not reachable from this face.
                    return Decision::Stuck;
                }
                state.prev = u;
                return Decision::Forward(v);
            }
        }
    }
}

/// GPSR-style routing: greedy forwarding with right-hand-rule perimeter
/// recovery.
///
/// `g` must be a **plane** embedding (no two edges properly cross) for
/// the perimeter mode to be meaningful; on the planar backbones produced
/// by this workspace, delivery succeeds whenever source and destination
/// are connected.
///
/// # Panics
/// Panics if `src` or `dst` are out of bounds.
pub fn gpsr_route(g: &Graph, src: usize, dst: usize, max_hops: usize) -> Route {
    let mut state = GpsrState::new();
    walk(src, max_hops, |u| gpsr_forward(g, &mut state, u, dst))
}

/// Pure FACE (perimeter-only) routing: the right-hand-rule walk with
/// face changes, never switching to greedy.
///
/// This is the recovery mode of GPSR run standalone — the original FACE
/// routing of Bose et al. (the paper's `[2]`). On a connected plane
/// embedding it reaches every destination, at the cost of longer routes
/// than the greedy hybrid; it serves as the correctness baseline for
/// [`gpsr_route`].
///
/// # Panics
/// Panics if `src` or `dst` are out of bounds.
pub fn face_route(g: &Graph, src: usize, dst: usize, max_hops: usize) -> Route {
    let dpos = g.position(dst);
    let mut path = vec![src];
    if src == dst {
        return Route {
            path,
            outcome: RouteOutcome::Delivered,
        };
    }
    if g.degree(src) == 0 {
        return Route {
            path,
            outcome: RouteOutcome::Stuck,
        };
    }
    let mut face_point = g.position(src);
    let mut u = src;
    let mut v = first_edge_ccw(g, src, dpos);
    // Directed edges walked on the *current* face; an edge may reappear
    // on a later face, so the set resets at every face change.
    let mut walked: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
    walked.insert((u, v));
    loop {
        path.push(v);
        if v == dst {
            return Route {
                path,
                outcome: RouteOutcome::Delivered,
            };
        }
        if path.len() > max_hops {
            return Route {
                path,
                outcome: RouteOutcome::HopLimit,
            };
        }
        let prev = std::mem::replace(&mut u, v);
        v = next_ccw(g, u, prev);
        if v != dst {
            // Bounce across exit crossings onto the face the segment
            // continues into (see gpsr_route for the rationale).
            for _ in 0..=g.degree(u) {
                if !face_exit_crossing(g, u, v, face_point, dpos) {
                    break;
                }
                let p = segment_intersection(g.position(u), g.position(v), face_point, dpos)
                    .expect("exit test implies intersection");
                face_point = p;
                v = next_ccw(g, u, v);
                walked.clear();
            }
        }
        if !walked.insert((u, v)) {
            // Completed a face loop without a closer crossing: the
            // destination is not reachable in this embedding.
            return Route {
                path,
                outcome: RouteOutcome::Stuck,
            };
        }
    }
}

/// Per-packet state of a dominating-set-based routing session: which leg
/// of the ingress → spanner → egress journey the packet is on, plus the
/// GPSR state of the spanner leg.
#[derive(Debug, Clone)]
pub struct BackboneSession {
    started: bool,
    gpsr: GpsrState,
}

impl BackboneSession {
    /// A fresh session (packet still at its source).
    pub fn new() -> Self {
        BackboneSession {
            started: false,
            gpsr: GpsrState::new(),
        }
    }
}

impl Default for BackboneSession {
    fn default() -> Self {
        BackboneSession::new()
    }
}

/// One decision of the paper's dominating-set-based routing: direct
/// delivery when source and destination are UDG neighbors; otherwise
/// enter the backbone through a dominator, traverse the planar backbone
/// `LDel(ICDS)` with GPSR toward the destination's dominator, and exit
/// to the destination.
///
/// The session must accompany the packet. The hop sequence reproduces
/// [`backbone_route`] node-for-node.
///
/// # Panics
/// Panics if `u` or `dst` are out of bounds, or if `udg` does not match
/// the backbone's vertex set.
pub fn backbone_forward(
    backbone: &Backbone,
    udg: &Graph,
    session: &mut BackboneSession,
    u: usize,
    dst: usize,
) -> Decision {
    if u == dst {
        return Decision::Arrived;
    }
    if !session.started {
        session.started = true;
        // At the source: deliver directly to a 1-hop neighbor, or step
        // onto the backbone through the source's dominator.
        if udg.has_edge(u, dst) {
            return Decision::Forward(dst);
        }
        let enter = backbone_entry(backbone, u);
        if enter != u {
            return Decision::Forward(enter);
        }
    }
    // On the backbone: GPSR over LDel(ICDS) toward the exit dominator,
    // then the final UDG hop to the destination.
    let exit = backbone_entry(backbone, dst);
    if u == exit {
        return Decision::Forward(dst);
    }
    match gpsr_forward(backbone.ldel_icds(), &mut session.gpsr, u, exit) {
        Decision::Arrived => Decision::Forward(dst),
        d => d,
    }
}

/// The paper's dominating-set-based routing: direct delivery when the
/// destination is a UDG neighbor; otherwise enter the backbone through a
/// dominator, traverse the planar backbone with GPSR, and exit through
/// the destination's dominator.
///
/// `max_hops` bounds the backbone (GPSR) leg of the route, as in the
/// original formulation; the ingress and egress hops ride on top.
///
/// # Panics
/// Panics if `src` or `dst` are out of bounds, or if `udg` does not match
/// the backbone's vertex set.
pub fn backbone_route(
    backbone: &Backbone,
    udg: &Graph,
    src: usize,
    dst: usize,
    max_hops: usize,
) -> Route {
    assert_eq!(
        udg.node_count(),
        backbone.roles().len(),
        "UDG and backbone must share the vertex set"
    );
    let mut session = BackboneSession::new();
    // The spanner leg starts after the optional ingress hop; budget the
    // GPSR leg exactly as before (ingress + egress hops are extra).
    let enter = backbone_entry(backbone, src);
    let budget = max_hops + usize::from(enter != src) + 1;
    walk(src, budget, |u| {
        backbone_forward(backbone, udg, &mut session, u, dst)
    })
}

/// A node's backbone entry point: itself when it is a dominator or
/// connector, otherwise its smallest adjacent dominator.
pub fn backbone_entry(backbone: &Backbone, v: usize) -> usize {
    if backbone.cds_graphs().is_backbone(v) {
        v
    } else {
        backbone.cds_graphs().dominators_of[v]
            .first()
            .copied()
            .expect("every dominatee has a dominator")
    }
}

/// Outcome of a dominating-set-based broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastReport {
    /// Number of radio transmissions performed (source + forwarding
    /// backbone nodes).
    pub transmissions: usize,
    /// Number of nodes that received the message (including the source).
    pub reached: usize,
}

/// Dominating-set-based broadcast: the source transmits once, and only
/// **backbone** nodes (dominators and connectors) retransmit.
///
/// Because the backbone is a connected dominating set, every node in the
/// source's component is reached while the number of transmissions is
/// proportional to the backbone size instead of `n` — the broadcast
/// application of CDS backbones the paper cites (Stojmenovic et al.).
///
/// # Panics
/// Panics if `src` is out of bounds or `udg` does not match the
/// backbone's vertex set.
pub fn backbone_broadcast(backbone: &Backbone, udg: &Graph, src: usize) -> BroadcastReport {
    assert_eq!(
        udg.node_count(),
        backbone.roles().len(),
        "UDG and backbone must share the vertex set"
    );
    let n = udg.node_count();
    let mut received = vec![false; n];
    let mut forwarded = vec![false; n];
    received[src] = true;
    let mut queue = std::collections::VecDeque::from([src]);
    let mut transmissions = 0;
    while let Some(t) = queue.pop_front() {
        if forwarded[t] {
            continue;
        }
        forwarded[t] = true;
        transmissions += 1;
        for &v in udg.neighbors(t) {
            if !received[v] {
                received[v] = true;
                if backbone.cds_graphs().is_backbone(v) {
                    queue.push_back(v);
                }
            } else if backbone.cds_graphs().is_backbone(v) && !forwarded[v] {
                // Already informed backbone neighbors still forward once;
                // they may be the only bridge to farther clusters.
                queue.push_back(v);
            }
        }
    }
    BroadcastReport {
        transmissions,
        reached: received.iter().filter(|&&r| r).count(),
    }
}

/// Cost of flooding from `src`: one transmission per node reached.
///
/// The baseline the sensor-network example compares against.
pub fn flood_transmissions(g: &Graph, src: usize) -> usize {
    let mut seen = vec![false; g.node_count()];
    seen[src] = true;
    let mut stack = vec![src];
    let mut count = 0;
    while let Some(u) = stack.pop() {
        count += 1;
        for &v in g.neighbors(u) {
            if !seen[v] {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
    count
}

/// First edge counterclockwise about `u` starting from the ray toward
/// `target`.
fn first_edge_ccw(g: &Graph, u: usize, target: Point) -> usize {
    let pu = g.position(u);
    let ref_angle = pseudo_angle(target.x - pu.x, target.y - pu.y);
    best_by_ccw_angle(g, u, ref_angle)
}

/// Next edge counterclockwise about `u` from the ray toward `prev` (the
/// right-hand rule step).
fn next_ccw(g: &Graph, u: usize, prev: usize) -> usize {
    let pu = g.position(u);
    let pp = g.position(prev);
    let ref_angle = pseudo_angle(pp.x - pu.x, pp.y - pu.y);
    best_by_ccw_angle(g, u, ref_angle)
}

/// The neighbor minimizing the positive counterclockwise pseudo-angle
/// from `ref_angle` (a neighbor exactly on the ray counts as a full
/// turn, so the walk can bounce back from degree-1 nodes).
fn best_by_ccw_angle(g: &Graph, u: usize, ref_angle: f64) -> usize {
    let pu = g.position(u);
    g.neighbors(u)
        .iter()
        .copied()
        .map(|v| {
            let pv = g.position(v);
            let a = pseudo_angle(pv.x - pu.x, pv.y - pu.y);
            let mut diff = a - ref_angle;
            if diff <= 0.0 {
                diff += 4.0;
            }
            (diff, v)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .map(|(_, v)| v)
        .expect("perimeter mode requires degree >= 1")
}

/// Does walking the face edge `u -> v` constitute leaving the current
/// face through the routing segment `face_point -> dpos`?
///
/// True when the edge intersects the segment at a point strictly closer
/// to the destination than `face_point` **and** the destination lies
/// strictly to the left of `u -> v` — the walked face is on the right of
/// its directed boundary edges, so a left-side destination means the
/// segment exits the face here (a right-side one means it re-enters and
/// the crossing must be ignored).
fn face_exit_crossing(g: &Graph, u: usize, v: usize, face_point: Point, dpos: Point) -> bool {
    use geospan_geometry::{orient2d, Orientation};
    if orient2d(g.position(u), g.position(v), dpos) != Orientation::CounterClockwise {
        return false;
    }
    match segment_intersection(g.position(u), g.position(v), face_point, dpos) {
        Some(p) => p.distance(dpos) < face_point.distance(dpos),
        None => false,
    }
}

/// Intersection point of segments `ab` and `cd`, if any (computed in
/// floating point; used only for the face-change heuristic).
fn segment_intersection(a: Point, b: Point, c: Point, d: Point) -> Option<Point> {
    let r = b - a;
    let s = d - c;
    let denom = r.cross(s);
    if denom == 0.0 {
        return None;
    }
    let t = (c - a).cross(s) / denom;
    let w = (c - a).cross(r) / denom;
    if (0.0..=1.0).contains(&t) && (0.0..=1.0).contains(&w) {
        Some(a + r * t)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackboneBuilder, BackboneConfig};
    use geospan_graph::gen::connected_unit_disk;
    use geospan_topology::gabriel;

    #[test]
    fn greedy_on_convex_layout_delivers() {
        let (_pts, udg, _s) = connected_unit_disk(50, 120.0, 50.0, 5);
        let mut delivered = 0;
        let mut total = 0;
        for s in 0..10 {
            for t in 40..50 {
                if s == t {
                    continue;
                }
                total += 1;
                if greedy_route(&udg, s, t, 200).delivered() {
                    delivered += 1;
                }
            }
        }
        // Dense UDG: greedy succeeds almost always.
        assert!(delivered * 10 >= total * 9, "{delivered}/{total}");
    }

    #[test]
    fn greedy_gets_stuck_in_voids() {
        // Greedy from 0 to 4 walks into the dead end at node 1 (which is
        // closer to the target than the detour through 2 and 3).
        use geospan_graph::Point;
        let g = Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0), // dead end, distance 1 from target
                Point::new(0.0, 1.0),
                Point::new(1.2, 1.0),
                Point::new(2.0, 0.0), // target
            ],
            [(0, 1), (0, 2), (2, 3), (3, 4)],
        );
        let r = greedy_route(&g, 0, 4, 10);
        assert_eq!(r.outcome, RouteOutcome::Stuck);
        assert_eq!(r.path, vec![0, 1]);
        // GPSR recovers around the void.
        let r = gpsr_route(&g, 0, 4, 20);
        assert!(r.delivered(), "path {:?}", r.path);
    }

    #[test]
    fn gpsr_delivers_on_planar_gabriel_graph() {
        for seed in 0..4 {
            let (_pts, udg, _s) = connected_unit_disk(60, 150.0, 40.0, seed * 19 + 1);
            let gg = gabriel(&udg);
            assert!(gg.is_connected());
            let n = gg.node_count();
            for s in (0..n).step_by(7) {
                for t in (0..n).step_by(11) {
                    let r = gpsr_route(&gg, s, t, 50 * n);
                    assert!(
                        r.delivered(),
                        "seed {seed}: {s} -> {t} failed ({:?}, path {:?})",
                        r.outcome,
                        r.path
                    );
                }
            }
        }
    }

    #[test]
    fn gpsr_route_stats_are_consistent() {
        let (_pts, udg, _s) = connected_unit_disk(40, 120.0, 45.0, 2);
        let gg = gabriel(&udg);
        let r = gpsr_route(&gg, 0, 39, 2000);
        assert!(r.delivered());
        assert_eq!(r.hops(), r.path.len() - 1);
        assert!(r.length(&gg) > 0.0);
        for w in r.path.windows(2) {
            assert!(gg.has_edge(w[0], w[1]), "route uses non-edges");
        }
    }

    #[test]
    fn backbone_route_delivers_everywhere() {
        for seed in 0..3 {
            let (_pts, udg, _s) = connected_unit_disk(60, 150.0, 45.0, seed * 23 + 4);
            let b = BackboneBuilder::new(BackboneConfig::new(45.0))
                .build(&udg)
                .unwrap();
            let n = udg.node_count();
            for s in (0..n).step_by(5) {
                for t in (0..n).step_by(9) {
                    let r = backbone_route(&b, &udg, s, t, 50 * n);
                    assert!(
                        r.delivered(),
                        "seed {seed}: {s} -> {t} failed ({:?})",
                        r.outcome
                    );
                    // The route is a real walk in ICDS' ∪ LDel(ICDS').
                    for w in r.path.windows(2) {
                        assert!(
                            b.ldel_icds_prime().has_edge(w[0], w[1]) || udg.has_edge(w[0], w[1]),
                            "seed {seed}: hop {:?} not an edge",
                            w
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unreachable_destination_reports_stuck() {
        use geospan_graph::Point;
        // Two disconnected pairs.
        let g = Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(11.0, 0.0),
            ],
            [(0, 1), (2, 3)],
        );
        let r = gpsr_route(&g, 0, 3, 100);
        assert_eq!(r.outcome, RouteOutcome::Stuck);
        let r = greedy_route(&g, 0, 3, 100);
        assert_eq!(r.outcome, RouteOutcome::Stuck);
    }

    #[test]
    fn face_route_delivers_on_planar_graphs() {
        for seed in 0..3 {
            let (_pts, udg, _s) = connected_unit_disk(50, 140.0, 40.0, seed * 83 + 2);
            let gg = gabriel(&udg);
            let n = gg.node_count();
            for s in (0..n).step_by(5) {
                for t in (1..n).step_by(7) {
                    if s == t {
                        continue;
                    }
                    let r = face_route(&gg, s, t, 200 * n);
                    assert!(r.delivered(), "seed {seed}: {s} -> {t} ({:?})", r.outcome);
                    for w in r.path.windows(2) {
                        assert!(gg.has_edge(w[0], w[1]));
                    }
                }
            }
        }
    }

    #[test]
    fn face_route_is_no_shorter_than_gpsr_on_average() {
        let (_pts, udg, _s) = connected_unit_disk(60, 140.0, 40.0, 4);
        let gg = gabriel(&udg);
        let n = gg.node_count();
        let mut face_hops = 0usize;
        let mut gpsr_hops = 0usize;
        for s in (0..n).step_by(4) {
            for t in (1..n).step_by(6) {
                if s == t {
                    continue;
                }
                face_hops += face_route(&gg, s, t, 200 * n).hops();
                gpsr_hops += gpsr_route(&gg, s, t, 200 * n).hops();
            }
        }
        assert!(
            face_hops >= gpsr_hops,
            "face {face_hops} vs gpsr {gpsr_hops}"
        );
    }

    #[test]
    fn face_route_degenerate_cases() {
        use geospan_graph::Point;
        let g = Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(9.0, 9.0),
            ],
            [(0, 1)],
        );
        assert!(face_route(&g, 0, 0, 10).delivered());
        assert_eq!(face_route(&g, 2, 0, 10).outcome, RouteOutcome::Stuck);
        assert_eq!(face_route(&g, 0, 2, 10).outcome, RouteOutcome::Stuck);
        assert!(face_route(&g, 0, 1, 10).delivered());
    }

    #[test]
    fn backbone_broadcast_reaches_everyone_cheaply() {
        for seed in 0..4 {
            let (_pts, udg, _s) = connected_unit_disk(80, 150.0, 45.0, seed * 7 + 1);
            let b = BackboneBuilder::new(BackboneConfig::new(45.0))
                .build(&udg)
                .unwrap();
            let n = udg.node_count();
            for src in [0, n / 2, n - 1] {
                let r = backbone_broadcast(&b, &udg, src);
                assert_eq!(r.reached, n, "seed {seed}, src {src}");
                // At most source + every backbone node transmits.
                assert!(
                    r.transmissions <= b.backbone_nodes().len() + 1,
                    "seed {seed}: {} transmissions",
                    r.transmissions
                );
                // Strictly cheaper than flooding on non-trivial fields.
                assert!(r.transmissions < flood_transmissions(&udg, src));
            }
        }
    }

    #[test]
    fn flood_counts_component_size() {
        use geospan_graph::Point;
        let g = Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(10.0, 0.0),
            ],
            [(0, 1), (1, 2)],
        );
        assert_eq!(flood_transmissions(&g, 0), 3);
        assert_eq!(flood_transmissions(&g, 3), 1);
    }

    #[test]
    fn forward_api_reproduces_whole_routes() {
        let (_pts, udg, _s) = connected_unit_disk(60, 150.0, 40.0, 9);
        let gg = gabriel(&udg);
        let b = BackboneBuilder::new(BackboneConfig::new(40.0))
            .build(&udg)
            .unwrap();
        let n = gg.node_count();
        let walk = |mut step: Box<dyn FnMut(usize) -> Decision + '_>, s: usize| {
            let mut path = vec![s];
            let mut u = s;
            loop {
                match step(u) {
                    Decision::Arrived => break,
                    Decision::Forward(v) => {
                        path.push(v);
                        u = v;
                    }
                    Decision::Stuck => break,
                }
                assert!(path.len() <= 100 * n, "runaway walk");
            }
            path
        };
        for (s, t) in [(0, n - 1), (3, n / 2), (n - 1, 1), (7, 7)] {
            let mut gpsr = GpsrState::new();
            let path = walk(Box::new(|u| gpsr_forward(&gg, &mut gpsr, u, t)), s);
            assert_eq!(path, gpsr_route(&gg, s, t, 100 * n).path);

            let mut session = BackboneSession::new();
            let path = walk(
                Box::new(|u| backbone_forward(&b, &udg, &mut session, u, t)),
                s,
            );
            assert_eq!(path, backbone_route(&b, &udg, s, t, 100 * n).path);

            let path = walk(Box::new(|u| greedy_forward(&udg, u, t)), s);
            assert_eq!(path, greedy_route(&udg, s, t, 100 * n).path);
        }
    }

    #[test]
    fn self_route_is_trivial() {
        let (_pts, udg, _s) = connected_unit_disk(20, 100.0, 50.0, 1);
        let b = BackboneBuilder::new(BackboneConfig::new(50.0))
            .build(&udg)
            .unwrap();
        let r = backbone_route(&b, &udg, 7, 7, 10);
        assert!(r.delivered());
        assert_eq!(r.path, vec![7]);
        assert_eq!(r.hops(), 0);
    }
}
