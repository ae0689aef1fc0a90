//! Algorithms 2 & 3 of the paper as message-passing protocols.
//!
//! [`run_ldel`] executes the *Localized Delaunay Triangulation* algorithm
//! (Algorithm 2: `proposal` / `accept` / `reject` handshakes over the
//! local Delaunay triangulations) followed by the planarization
//! (Algorithm 3: 1-hop exchange of accepted triangles, local removal of
//! crossing triangles, survivor confirmation) on the deterministic
//! simulator, and returns both the constructed structure and the measured
//! per-node message counts.
//!
//! The protocol phases are:
//!
//! | phase | paper step | messages |
//! |-------|-----------|----------|
//! | 0 | Alg. 2 step 1: announce position | `Hello` |
//! | 1 | Alg. 2 steps 2–6: propose & vote on local Delaunay triangles | `Proposal`, `Accept`, `Reject` |
//! | 2 | Alg. 3 step 1: share accepted triangles & Gabriel edges | `Triangles` |
//! | 3 | Alg. 3 steps 2–3: remove crossing triangles, announce survivors | `Survivors` |
//! | 4 | Alg. 3 step 4: keep triangles surviving at all three corners | — |
//!
//! Every node sends `O(degree)` messages in total (constant on the
//! bounded-degree backbone), which the experiments of Figures 10 and 12
//! measure.

use std::collections::{BTreeMap, BTreeSet};

use geospan_geometry::{
    delaunay_triangles, gabriel_test, in_circumcircle, segments_properly_cross, CirclePosition,
    Point,
};
use geospan_graph::collections::{VecMap, VecSet};
use geospan_graph::Graph;
use geospan_sim::{
    Context, FaultReport, MessageKind, MessageStats, Network, Protocol, QuiescenceTimeout, Radio,
};

use crate::ldel::LocalDelaunay;

/// Messages of the localized Delaunay protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum LdelMsg {
    /// A node announcing its position to its 1-hop neighbors.
    Hello {
        /// Sender position.
        pos: Point,
    },
    /// Propose forming the 1-local Delaunay triangle `{u, v, w}`
    /// (Algorithm 2 step 4). Sent by `u`.
    Proposal {
        /// Proposing node.
        u: usize,
        /// Second triangle vertex.
        v: usize,
        /// Third triangle vertex.
        w: usize,
    },
    /// Accept a proposed triangle (Algorithm 2 step 5).
    Accept {
        /// The triangle, as an ascending index triple.
        tri: [usize; 3],
    },
    /// Reject a proposed triangle (Algorithm 2 step 5).
    Reject {
        /// The triangle, as an ascending index triple.
        tri: [usize; 3],
    },
    /// Share accepted incident triangles and Gabriel edges with vertex
    /// coordinates (Algorithm 3 step 1).
    Triangles {
        /// Accepted triangles incident on the sender, with positions.
        tris: Vec<([usize; 3], [Point; 3])>,
    },
    /// Announce the triangles that survived local crossing removal
    /// (Algorithm 3 step 3).
    Survivors {
        /// Surviving triangles incident on the sender.
        tris: Vec<[usize; 3]>,
    },
}

impl MessageKind for LdelMsg {
    fn kind(&self) -> &'static str {
        match self {
            LdelMsg::Hello { .. } => "Hello",
            LdelMsg::Proposal { .. } => "Proposal",
            LdelMsg::Accept { .. } => "Accept",
            LdelMsg::Reject { .. } => "Reject",
            LdelMsg::Triangles { .. } => "Triangles",
            LdelMsg::Survivors { .. } => "Survivors",
        }
    }
}

/// Per-node state of the localized Delaunay protocol.
#[derive(Debug)]
pub struct LdelNode {
    id: usize,
    pos: Point,
    radius: f64,
    /// Inactive nodes (isolated in the communication graph — e.g.
    /// dominatees when the protocol runs over the backbone) send nothing.
    active: bool,
    /// Positions learned from `Hello` messages (1-hop knowledge only).
    /// Sorted-vec map: iteration order is ascending by neighbor id,
    /// exactly like the `BTreeMap` it replaced.
    known: VecMap<Point>,
    /// Triangles of `Del(N₁(self))` incident on this node, as ascending
    /// global triples: every later lookup asks about a triangle that
    /// contains the node.
    ///
    /// The triple-keyed containers below stay `BTree*`: their keys are
    /// `[usize; 3]` triangles (not node ids), their sizes are bounded by
    /// the local triangulation, and phase-2/3 message emission iterates
    /// them in key order — that order is load-bearing for the
    /// bit-identical message traces the tests pin. Like `local_tris`,
    /// `confirmations`, `dead` and `survivor_votes` hold only triangles
    /// incident on this node, the only ones it later reads.
    local_tris: BTreeSet<[usize; 3]>,
    /// Confirmations per triangle: which *other* vertices vouched for it
    /// (by proposing it or accepting it).
    confirmations: BTreeMap<[usize; 3], VecSet>,
    /// Triangles rejected by some vertex.
    dead: BTreeSet<[usize; 3]>,
    /// Triples this node already responded to (proposal dedup).
    responded: BTreeSet<[usize; 3]>,
    /// Gabriel edges incident on this node.
    gabriel: Vec<(usize, usize)>,
    /// Triangles accepted after Algorithm 2 (incident on this node).
    accepted: BTreeSet<[usize; 3]>,
    /// Triangles (with coordinates) known from phase-2 exchange.
    known_tris: BTreeMap<[usize; 3], [Point; 3]>,
    /// Triangles surviving the local removal at this node.
    survived: BTreeSet<[usize; 3]>,
    /// Survivor confirmations from other vertices.
    survivor_votes: BTreeMap<[usize; 3], VecSet>,
    /// Final triangles after Algorithm 3 step 4.
    final_tris: BTreeSet<[usize; 3]>,
}

impl LdelNode {
    fn new(id: usize, pos: Point, radius: f64, active: bool) -> Self {
        LdelNode {
            id,
            pos,
            radius,
            active,
            known: VecMap::new(),
            local_tris: BTreeSet::new(),
            confirmations: BTreeMap::new(),
            dead: BTreeSet::new(),
            responded: BTreeSet::new(),
            gabriel: Vec::new(),
            accepted: BTreeSet::new(),
            known_tris: BTreeMap::new(),
            survived: BTreeSet::new(),
            survivor_votes: BTreeMap::new(),
            final_tris: BTreeSet::new(),
        }
    }

    fn position_of(&self, v: usize) -> Point {
        if v == self.id {
            self.pos
        } else {
            *self.known.get(v).expect("position learned from Hello")
        }
    }

    /// Computes `Del(N₁(self))` and the incident Gabriel edges from the
    /// heard `Hello`s: the node's `O(d log d)` local computation.
    fn compute_local_structures(&mut self) {
        let mut ids: Vec<usize> = Vec::with_capacity(self.known.len() + 1);
        ids.push(self.id);
        ids.extend(self.known.keys());
        ids.sort_unstable();
        // Gabriel edges incident on self: the only possible witnesses are
        // common neighbors, and every node in the diametral disk of a
        // radius-bounded edge is a neighbor of both endpoints.
        for (v, &pv) in self.known.iter() {
            let blocked = self.known.iter().any(|(w, &pw)| {
                w != v && pw.distance(pv) <= self.radius && gabriel_test(self.pos, pv, pw)
            });
            if !blocked {
                let key = (self.id.min(v), self.id.max(v));
                self.gabriel.push(key);
            }
        }
        self.gabriel.sort_unstable();
        if ids.len() < 3 {
            return;
        }
        let pts: Vec<Point> = ids.iter().map(|&i| self.position_of(i)).collect();
        let Ok(tris) = delaunay_triangles(&pts) else {
            // Duplicate positions among neighbors: no local triangles.
            return;
        };
        for t in tris {
            let [a, b, c] = t.indices();
            let mut key = [ids[a], ids[b], ids[c]];
            if key.contains(&self.id) {
                key.sort_unstable();
                self.local_tris.insert(key);
            }
        }
    }

    /// Proposal set: local Delaunay triangles incident on `self` with all
    /// edges within the radius and an apex angle of at least π/3
    /// (Algorithm 2 step 4 — guarantees every valid triangle is proposed
    /// by at least one of its corners while keeping proposals sparse).
    fn proposals(&self) -> Vec<[usize; 3]> {
        let mut out = Vec::new();
        for &tri in &self.local_tris {
            if !self.edges_short(tri) {
                continue;
            }
            let others: Vec<usize> = tri.iter().copied().filter(|&x| x != self.id).collect();
            let pv = self.position_of(others[0]);
            let pw = self.position_of(others[1]);
            let a = (pv - self.pos).dot(pw - self.pos)
                / (pv.distance(self.pos) * pw.distance(self.pos));
            // angle >= 60°  <=>  cos(angle) <= 1/2. The small slack keeps
            // the "every triangle has a >= 60° corner" guarantee intact
            // under floating-point rounding (duplicate proposals are
            // deduplicated by the responders).
            if a <= 0.5 + 1e-9 {
                out.push(tri);
            }
        }
        out.sort_unstable();
        out
    }

    fn edges_short(&self, tri: [usize; 3]) -> bool {
        let p: Vec<Point> = tri.iter().map(|&x| self.position_of(x)).collect();
        p[0].distance(p[1]) <= self.radius
            && p[1].distance(p[2]) <= self.radius
            && p[0].distance(p[2]) <= self.radius
    }

    fn confirm(&mut self, tri: [usize; 3], from: usize) {
        self.confirmations.entry(tri).or_default().insert(from);
    }

    /// Triangle acceptance at the end of Algorithm 2: the triangle is in
    /// this node's local Delaunay triangulation, not rejected, and both
    /// other corners vouched for it.
    fn finalize_accepted(&mut self) {
        for (&tri, votes) in &self.confirmations {
            if self.dead.contains(&tri) || !self.local_tris.contains(&tri) {
                continue;
            }
            if tri
                .iter()
                .filter(|&&x| x != self.id)
                .all(|&x| votes.contains(x))
            {
                self.accepted.insert(tri);
            }
        }
    }

    /// Local crossing removal (Algorithm 3 step 2): drop an own triangle
    /// when it intersects a known triangle whose vertex lies strictly
    /// inside the own triangle's circumcircle.
    fn remove_crossing(&mut self) {
        'outer: for &tri in &self.accepted {
            let tp = self.known_tris[&tri];
            for (&other, op) in &self.known_tris {
                if other == tri {
                    continue;
                }
                if !triangles_cross_pts(&tp, op) {
                    continue;
                }
                // Boundary counts as contained, matching the centralized
                // planarizer's tie handling.
                let contains = op.iter().zip(other.iter()).any(|(&p, v)| {
                    !tri.contains(v)
                        && in_circumcircle(tp[0], tp[1], tp[2], p) != CirclePosition::Outside
                });
                if contains {
                    continue 'outer; // removed: not a survivor
                }
            }
            self.survived.insert(tri);
        }
    }

    /// Final keep rule (Algorithm 3 step 4): a triangle stays when it
    /// survived here and at both other corners.
    fn finalize_survivors(&mut self) {
        for &tri in &self.survived {
            let votes = self.survivor_votes.get(&tri);
            let ok = tri
                .iter()
                .filter(|&&x| x != self.id)
                .all(|&x| votes.is_some_and(|v| v.contains(x)));
            if ok {
                self.final_tris.insert(tri);
            }
        }
    }
}

/// Whether two triangles' edges properly cross. A proper crossing
/// implies overlapping bounding boxes, so disjoint boxes skip the 9
/// exact segment tests, as in the centralized planarizer.
fn triangles_cross_pts(a: &[Point; 3], b: &[Point; 3]) -> bool {
    const E: [(usize, usize); 3] = [(0, 1), (1, 2), (0, 2)];
    let lo = |p: &[Point; 3]| {
        Point::new(
            p[0].x.min(p[1].x).min(p[2].x),
            p[0].y.min(p[1].y).min(p[2].y),
        )
    };
    let hi = |p: &[Point; 3]| {
        Point::new(
            p[0].x.max(p[1].x).max(p[2].x),
            p[0].y.max(p[1].y).max(p[2].y),
        )
    };
    let (alo, ahi, blo, bhi) = (lo(a), hi(a), lo(b), hi(b));
    if alo.x > bhi.x || blo.x > ahi.x || alo.y > bhi.y || blo.y > ahi.y {
        return false;
    }
    E.iter().any(|&(i, j)| {
        E.iter()
            .any(|&(p, q)| segments_properly_cross(a[i], a[j], b[p], b[q]))
    })
}

impl Protocol for LdelNode {
    type Message = LdelMsg;

    fn on_phase(&mut self, ctx: &mut Context<'_, LdelMsg>, phase: usize) {
        if !self.active {
            return;
        }
        match phase {
            0 => {
                ctx.broadcast(LdelMsg::Hello { pos: self.pos });
            }
            1 => {
                self.compute_local_structures();
                for tri in self.proposals() {
                    let others: Vec<usize> =
                        tri.iter().copied().filter(|&x| x != self.id).collect();
                    // Proposing counts as vouching for the triangle.
                    ctx.broadcast(LdelMsg::Proposal {
                        u: self.id,
                        v: others[0],
                        w: others[1],
                    });
                }
            }
            2 => {
                self.finalize_accepted();
                if !self.accepted.is_empty() {
                    let tris: Vec<([usize; 3], [Point; 3])> = {
                        let mut v: Vec<_> = self
                            .accepted
                            .iter()
                            .map(|&t| {
                                (
                                    t,
                                    [
                                        self.position_of(t[0]),
                                        self.position_of(t[1]),
                                        self.position_of(t[2]),
                                    ],
                                )
                            })
                            .collect();
                        v.sort_by_key(|(t, _)| *t);
                        v
                    };
                    // Record own triangles for the removal step.
                    for (t, p) in &tris {
                        self.known_tris.insert(*t, *p);
                    }
                    ctx.broadcast(LdelMsg::Triangles { tris });
                }
            }
            3 => {
                self.remove_crossing();
                if !self.survived.is_empty() {
                    let mut tris: Vec<[usize; 3]> = self.survived.iter().copied().collect();
                    tris.sort_unstable();
                    ctx.broadcast(LdelMsg::Survivors { tris });
                }
            }
            4 => {
                self.finalize_survivors();
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, LdelMsg>, from: usize, msg: &LdelMsg) {
        match msg {
            LdelMsg::Hello { pos } => {
                self.known.insert(from, *pos);
            }
            LdelMsg::Proposal { u, v, w } => {
                let mut tri = [*u, *v, *w];
                tri.sort_unstable();
                if !tri.contains(&self.id) {
                    return;
                }
                // The proposer vouches for the triangle.
                self.confirm(tri, *u);
                if self.responded.insert(tri) {
                    if self.local_tris.contains(&tri) {
                        ctx.broadcast(LdelMsg::Accept { tri });
                        self.confirm(tri, self.id);
                    } else {
                        ctx.broadcast(LdelMsg::Reject { tri });
                        self.dead.insert(tri);
                    }
                }
            }
            LdelMsg::Accept { tri } => {
                if tri.contains(&self.id) {
                    self.confirm(*tri, from);
                }
            }
            LdelMsg::Reject { tri } => {
                if tri.contains(&self.id) {
                    self.dead.insert(*tri);
                }
            }
            LdelMsg::Triangles { tris } => {
                for (t, p) in tris {
                    self.known_tris.insert(*t, *p);
                }
            }
            LdelMsg::Survivors { tris } => {
                for t in tris.iter().filter(|t| t.contains(&self.id)) {
                    self.survivor_votes.entry(*t).or_default().insert(from);
                }
            }
        }
    }
}

/// The outcome of a distributed construction run.
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    /// The constructed structure.
    pub ldel: LocalDelaunay,
    /// Measured per-node / per-kind message counts.
    pub stats: MessageStats,
}

/// Runs Algorithms 2 & 3 on the communication graph `g` (which must be
/// distance-closed for radius `radius`) over the perfect synchronous
/// radio and assembles the resulting planar localized Delaunay graph:
/// [`run_ldel_with`] under [`Radio::default`].
///
/// # Errors
/// Returns [`QuiescenceTimeout`] if any phase fails to converge (a
/// protocol bug, not an input condition).
pub fn run_ldel(g: &Graph, radius: f64) -> Result<DistributedOutcome, QuiescenceTimeout> {
    let (outcome, _report) = run_ldel_with(g, radius, &Radio::default())?;
    Ok(outcome)
}

/// Runs Algorithms 2 & 3 over `radio`.
///
/// Like the CDS protocol, the triangulation handshake only acts on
/// stabilized facts, so asynchronous delivery (`radio.jitter`) yields
/// the synchronous result.
///
/// Under a non-zero fault plan the link-layer ack/retransmit scheme runs.
/// The handshake degrades gracefully: a corner that missed a message
/// simply withholds its vote, so affected triangles drop out instead of
/// corrupting the structure. Crashed nodes contribute nothing — their
/// partial state and any edge or triangle touching them are filtered
/// from the assembly. A zero plan's report is [`FaultReport::default`].
///
/// # Errors
/// Returns [`QuiescenceTimeout`] if a phase fails to converge within
/// [`Network::round_budget`].
///
/// # Panics
/// Panics if the jitter's `max_delay` is zero.
pub fn run_ldel_with(
    g: &Graph,
    radius: f64,
    radio: &Radio,
) -> Result<(DistributedOutcome, FaultReport), QuiescenceTimeout> {
    let mut net = network(g, radius, radio);
    net.run_phases(5, net.round_budget())?;
    let (nodes, stats, report) = net.into_outcome();
    let crashed: VecSet = report.crashed.iter().copied().collect();
    let ldel = assemble(
        g,
        nodes.iter().map(|v| (v.id, &v.gabriel[..], &v.final_tris)),
        &crashed,
    );
    Ok((DistributedOutcome { ldel, stats }, report))
}

/// One protocol node per vertex of `g` over `radio`; isolated vertices
/// stay silent.
fn network<'g>(g: &'g Graph, radius: f64, radio: &Radio) -> Network<'g, LdelNode> {
    Network::new(g, |id| {
        LdelNode::new(id, g.position(id), radius, g.degree(id) > 0)
    })
    .with_radio(radio)
}

/// Unions the per-node Gabriel edges and confirmed triangles of a
/// localized Delaunay protocol run, given as `(node, gabriel, triangles)`,
/// into one structure, excluding anything touching a crashed node.
pub(crate) fn assemble<'a>(
    g: &Graph,
    nodes: impl IntoIterator<Item = (usize, &'a [(usize, usize)], &'a BTreeSet<[usize; 3]>)>,
    crashed: &VecSet,
) -> LocalDelaunay {
    let mut graph = g.same_vertices();
    let mut gabriel: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut triangles: BTreeSet<[usize; 3]> = BTreeSet::new();
    for (id, node_gabriel, node_tris) in nodes {
        if crashed.contains(id) {
            continue;
        }
        for &(a, b) in node_gabriel {
            if !crashed.contains(a) && !crashed.contains(b) {
                gabriel.insert((a, b));
            }
        }
        for &t in node_tris {
            if t.iter().all(|&v| !crashed.contains(v)) {
                triangles.insert(t);
            }
        }
    }
    for &(u, v) in &gabriel {
        graph.add_edge(u, v);
    }
    for &[a, b, c] in &triangles {
        graph.add_edge(a, b);
        graph.add_edge(b, c);
        graph.add_edge(a, c);
    }
    let mut gabriel_edges: Vec<(usize, usize)> = gabriel.into_iter().collect();
    gabriel_edges.sort_unstable();
    let mut triangles: Vec<[usize; 3]> = triangles.into_iter().collect();
    triangles.sort_unstable();
    LocalDelaunay {
        graph,
        triangles,
        gabriel_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ldel::planarized;
    use geospan_graph::gen::connected_unit_disk;
    use geospan_graph::planarity::is_plane_embedding;
    use geospan_sim::{FaultPlan, ReliabilityConfig};

    #[test]
    fn distributed_matches_centralized() {
        for seed in 0..5 {
            let (_pts, g, _s) = connected_unit_disk(45, 100.0, 35.0, seed * 17 + 3);
            let central = planarized(&g);
            let dist = run_ldel(&g, 35.0).expect("protocol converges");
            assert_eq!(
                dist.ldel.gabriel_edges, central.gabriel_edges,
                "seed {seed}: Gabriel edges differ"
            );
            let ce: Vec<_> = central.graph.edges().collect();
            let de: Vec<_> = dist.ldel.graph.edges().collect();
            assert_eq!(de, ce, "seed {seed}: edges differ");
            assert_eq!(dist.ldel.triangles, central.triangles, "seed {seed}");
        }
    }

    #[test]
    fn distributed_result_is_planar_and_connected() {
        for seed in 0..4 {
            let (_pts, g, _s) = connected_unit_disk(60, 100.0, 30.0, seed * 23 + 7);
            let dist = run_ldel(&g, 30.0).expect("protocol converges");
            assert!(is_plane_embedding(&dist.ldel.graph), "seed {seed}");
            assert!(dist.ldel.graph.is_connected(), "seed {seed}");
        }
    }

    #[test]
    fn asynchronous_delivery_changes_nothing() {
        for seed in 0..3 {
            let (_pts, g, _s) = connected_unit_disk(40, 100.0, 35.0, seed * 41 + 9);
            let sync = run_ldel(&g, 35.0).unwrap();
            for delay_seed in 0..2 {
                let radio = Radio {
                    jitter: Some((4, delay_seed * 31 + 1)),
                    ..Radio::default()
                };
                let (jittered, _report) = run_ldel_with(&g, 35.0, &radio).unwrap();
                assert_eq!(
                    jittered.ldel.graph.edges().collect::<Vec<_>>(),
                    sync.ldel.graph.edges().collect::<Vec<_>>(),
                    "seed {seed}: async LDel diverged"
                );
                assert_eq!(jittered.ldel.triangles, sync.ldel.triangles);
                // Same transmissions, different timing.
                assert_eq!(jittered.stats.total_sent(), sync.stats.total_sent());
            }
        }
    }

    #[test]
    fn message_cost_scales_with_degree_not_n() {
        // Per-node cost stays flat as the network grows at fixed density.
        let (_p1, g1, _s) = connected_unit_disk(40, 100.0, 35.0, 1);
        let (_p2, g2, _s) = connected_unit_disk(160, 200.0, 35.0, 2);
        let d1 = run_ldel(&g1, 35.0).unwrap();
        let d2 = run_ldel(&g2, 35.0).unwrap();
        let max1 = d1.stats.max_sent();
        let max2 = d2.stats.max_sent();
        // 4x the nodes at the same density: max per-node cost should not
        // grow 4x (it is degree-driven). Allow generous slack.
        assert!(
            (max2 as f64) < 3.0 * (max1 as f64),
            "per-node cost grew with n: {max1} -> {max2}"
        );
    }

    #[test]
    fn every_node_says_hello() {
        let (_pts, g, _s) = connected_unit_disk(30, 100.0, 40.0, 11);
        let dist = run_ldel(&g, 40.0).unwrap();
        assert_eq!(dist.stats.per_kind()["Hello"], 30);
    }

    #[test]
    fn zero_fault_plan_matches_plain_ldel_exactly() {
        let (_pts, g, _s) = connected_unit_disk(40, 100.0, 35.0, 7);
        let plain = run_ldel(&g, 35.0).unwrap();
        let (faulty, report) = run_ldel_with(&g, 35.0, &Radio::default()).unwrap();
        assert_eq!(faulty.ldel.triangles, plain.ldel.triangles);
        assert_eq!(faulty.ldel.gabriel_edges, plain.ldel.gabriel_edges);
        assert_eq!(
            faulty.ldel.graph.edges().collect::<Vec<_>>(),
            plain.ldel.graph.edges().collect::<Vec<_>>()
        );
        assert_eq!(faulty.stats, plain.stats);
        assert_eq!(report, FaultReport::default());
    }

    #[test]
    fn survives_loss_with_retransmissions() {
        // With enough retries the handshake sees every message despite
        // loss, so the structure matches the fault-free run exactly.
        for seed in 0..3 {
            let (_pts, g, _s) = connected_unit_disk(35, 100.0, 35.0, seed * 23 + 5);
            let plain = run_ldel(&g, 35.0).unwrap();
            let radio = Radio {
                faults: FaultPlan::new(seed + 1).with_loss(0.15),
                reliability: ReliabilityConfig {
                    max_retries: 8,
                    ack_timeout: 2,
                },
                jitter: None,
            };
            let (faulty, report) = run_ldel_with(&g, 35.0, &radio).unwrap();
            assert!(report.dropped > 0, "seed {seed}: loss should bite");
            assert!(report.retransmissions > 0, "seed {seed}");
            // The planarized union stays a plane embedding either way.
            let planar = crate::ldel::planarize(&g, faulty.ldel.clone());
            assert!(is_plane_embedding(&planar.graph), "seed {seed}");
            assert_eq!(
                faulty.ldel.triangles, plain.ldel.triangles,
                "seed {seed}: retransmission should mask the loss"
            );
        }
    }

    #[test]
    fn nodes_store_only_incident_triangles() {
        // After every phase, over a perfect, a lossy-with-crash and a
        // jittered radio: votes, rejections and survivor confirmations
        // are kept only for triangles the node is a corner of.
        for seed in 0..3u64 {
            let (_pts, g, _s) = connected_unit_disk(45, 100.0, 35.0, seed * 17 + 3);
            let lossy = FaultPlan::new(seed).with_loss(0.1).with_crash(22, 3);
            let radios = [
                Radio::default(),
                Radio {
                    faults: lossy,
                    ..Radio::default()
                },
                Radio {
                    jitter: Some((3, seed + 1)),
                    ..Radio::default()
                },
            ];
            for radio in &radios {
                let mut net = network(&g, 35.0, radio);
                for phase in 0..5 {
                    net.run_phase(phase, net.round_budget()).unwrap();
                    for node in net.nodes() {
                        let stored = node
                            .local_tris
                            .iter()
                            .chain(node.confirmations.keys())
                            .chain(&node.dead)
                            .chain(node.survivor_votes.keys());
                        for tri in stored {
                            assert!(
                                tri.contains(&node.id),
                                "seed {seed}, phase {phase}: node {} stored {tri:?}",
                                node.id
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn crashed_node_is_excised_from_the_structure() {
        let (_pts, g, _s) = connected_unit_disk(40, 100.0, 35.0, 13);
        let victim = 17;
        let radio = Radio {
            faults: FaultPlan::new(3).with_crash(victim, 0),
            ..Radio::default()
        };
        let (faulty, report) = run_ldel_with(&g, 35.0, &radio).unwrap();
        assert_eq!(report.crashed, vec![victim]);
        for &(a, b) in &faulty.ldel.gabriel_edges {
            assert!(a != victim && b != victim);
        }
        for t in &faulty.ldel.triangles {
            assert!(!t.contains(&victim));
        }
        assert_eq!(faulty.ldel.graph.degree(victim), 0);
    }
}
