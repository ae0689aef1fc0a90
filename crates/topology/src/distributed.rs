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

use geospan_geometry::{Point, Triangle};
use geospan_graph::collections::{VecMap, VecSet};
use geospan_graph::Graph;
use geospan_sim::{
    Context, FaultReport, MessageKind, MessageStats, Network, Protocol, QuiescenceTimeout, Radio,
};

use crate::ldel::{assemble_graph, crossing_removals, star_step, LocalDelaunay};

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
    /// The node's Delaunay star: triangles of `Del(N₁(self))` incident on
    /// it, as ascending global triples, sorted. Every later lookup asks
    /// about a triangle that contains the node.
    ///
    /// The triple-keyed containers below are `BTree*`: their keys are
    /// `[usize; 3]` triangles (not node ids), their sizes are bounded by
    /// the local triangulation, and phase-2/3 message emission iterates
    /// them in key order — that order is load-bearing for the
    /// bit-identical message traces the tests pin. Like `local_tris`,
    /// `confirmations`, `dead` and `survivor_votes` hold only triangles
    /// incident on this node, the only ones it later reads.
    local_tris: Vec<[usize; 3]>,
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
            local_tris: Vec::new(),
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

    /// The two corners of `tri` other than this node, ascending.
    fn others(&self, tri: [usize; 3]) -> (usize, usize) {
        match tri.iter().position(|&x| x == self.id) {
            Some(0) => (tri[1], tri[2]),
            Some(1) => (tri[0], tri[2]),
            _ => (tri[0], tri[1]),
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
            let (v, w) = self.others(tri);
            let pv = self.position_of(v);
            let pw = self.position_of(w);
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
        out
    }

    fn edges_short(&self, tri: [usize; 3]) -> bool {
        let p = tri.map(|x| self.position_of(x));
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
            if self.dead.contains(&tri) || self.local_tris.binary_search(&tri).is_err() {
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

    /// Local crossing removal (Algorithm 3 step 2): an own triangle
    /// survives unless a known triangle properly crosses it and has a
    /// corner in or on its circumcircle, the planarizer's rule
    /// ([`crate::ldel::crossing_removals`]). A heard triangle that shares
    /// a corner with it gets no geometry: every accepted triangle lies in
    /// each of its corners' stars, so the two lie in one triangulation.
    fn remove_crossing(&mut self) {
        for &tri in &self.accepted {
            let tp = &self.known_tris[&tri];
            if !self
                .known_tris
                .iter()
                .any(|(&other, op)| crossing_removals(tri, tp, other, op).0)
            {
                self.survived.insert(tri);
            }
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

/// Node `id`'s local step over the positions it `heard`, run by both
/// LDel nodes: [`crate::ldel::star_step`] over the points in id order.
/// Returns the incident Gabriel edges, `(min, max)` and ascending, and
/// the Delaunay star as ascending global triples, sorted. Heard
/// positions come from outside the node, so it checks the star walk's
/// input contract itself.
pub(crate) fn local_step(
    id: usize,
    pos: Point,
    heard: &VecMap<Point>,
) -> (Vec<(usize, usize)>, Vec<[usize; 3]>) {
    let mut ids: Vec<usize> = heard.keys().collect();
    let mut pts: Vec<Point> = heard.values().copied().collect();
    let centre = ids.partition_point(|&v| v < id);
    ids.insert(centre, id);
    pts.insert(centre, pos);
    let (mut tris, mut keep): (Vec<Triangle>, Vec<bool>) = (Vec::new(), Vec::new());
    star_step(&pts, centre, distinct_finite(&pts), &mut tris, &mut keep);
    // Ascending, since `ids` is.
    let gabriel = ids
        .iter()
        .zip(&keep)
        .filter(|&(_, &k)| k)
        .map(|(&v, _)| (id.min(v), id.max(v)))
        .collect();
    let mut star: Vec<[usize; 3]> = tris
        .iter()
        .map(|t| {
            let mut key = t.indices().map(|i| ids[i]);
            key.sort_unstable();
            key
        })
        .collect();
    star.sort_unstable();
    (gabriel, star)
}

/// Whether every position is finite and no two are bit-identical: the
/// input contract of the star walk, which
/// [`geospan_geometry::delaunay_triangles`] checks with an error instead.
fn distinct_finite(pts: &[Point]) -> bool {
    pts.iter().enumerate().all(|(i, p)| {
        p.is_finite()
            && pts[..i]
                .iter()
                .all(|q| (p.x.to_bits(), p.y.to_bits()) != (q.x.to_bits(), q.y.to_bits()))
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
                (self.gabriel, self.local_tris) = local_step(self.id, self.pos, &self.known);
                for tri in self.proposals() {
                    let (v, w) = self.others(tri);
                    // Proposing counts as vouching for the triangle.
                    ctx.broadcast(LdelMsg::Proposal { u: self.id, v, w });
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
                    if self.local_tris.binary_search(&tri).is_ok() {
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
/// The output is plane only when that scheme gave up on no broadcast
/// ([`FaultReport::gave_up`] is 0). A node that lost a neighbour's `Hello`
/// decides its Gabriel edges without that witness, and such an edge can
/// cross a kept one: at n = 2 000, 10 % loss and 3 retries, 2 runs of 8
/// did. Check a faulty run's output with
/// [`is_plane_embedding`](geospan_graph::planarity::is_plane_embedding)
/// when `gave_up > 0`. Crashed nodes contribute nothing — their partial
/// state and any edge or triangle touching them are filtered from the
/// assembly. A zero plan's report is [`FaultReport::default`].
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
    // Set order is ascending, so both lists come out sorted.
    let gabriel_edges: Vec<(usize, usize)> = gabriel.into_iter().collect();
    let triangles: Vec<[usize; 3]> = triangles.into_iter().collect();
    LocalDelaunay {
        graph: assemble_graph(g, &triangles, &gabriel_edges),
        triangles,
        gabriel_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ldel::{crossed_flat_triangle, crossing_pairs_sharing_a_vertex, planarized};
    use geospan_graph::gen::{
        connected_unit_disk, perturbed_grid, uniform_points, UnitDiskBuilder,
    };
    use geospan_graph::planarity::is_plane_embedding;
    use geospan_sim::{FaultPlan, ReliabilityConfig};
    use proptest::prelude::*;

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
    fn local_removal_drops_a_triangle_crossed_by_a_disjoint_one() {
        // Corners a, b and w all accept the flat triangle abw, which the
        // disjoint triangle cdz crosses; each removes it locally, on every
        // schedule, exactly as the centralized planarizer does.
        let g = crossed_flat_triangle();
        let central = planarized(&g);
        assert_eq!(central.triangles, [[0, 2, 5], [3, 4, 5]]);
        assert_eq!(run_ldel(&g, 1.0).unwrap().ldel, central);
        for jitter in [(3, 5), (4, 11)] {
            let radio = Radio {
                jitter: Some(jitter),
                ..Radio::default()
            };
            let (jittered, _report) = run_ldel_with(&g, 1.0, &radio).unwrap();
            assert_eq!(jittered.ldel, central, "jitter {jitter:?}");
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn accepted_triangles_sharing_a_vertex_never_cross(
            (n, radius, seed) in (8usize..50, 25.0f64..60.0, any::<u64>()),
            grid in any::<bool>(),
        ) {
            // The centralized planarizer skips these pairs when it
            // planarizes a protocol run's output. Every node accepts only
            // triangles of its own star, on every radio. Checked on the
            // union of the accepted sets of the network `run_ldel_with`
            // runs, which holds every triangle of its output.
            let pts = if grid {
                perturbed_grid(n / 7 + 2, 7, 20.0, 0.0, seed)
            } else {
                uniform_points(n, 110.0, seed)
            };
            let g = UnitDiskBuilder::new(radius).build(&pts);
            let lossy = FaultPlan::new(seed).with_loss(0.2);
            let radios = [
                Radio::default(),
                Radio { faults: lossy.clone(), ..Radio::default() },
                Radio { faults: lossy.with_crash(n / 2, 3), ..Radio::default() },
            ];
            for radio in &radios {
                let mut net = network(&g, radius, radio);
                net.run_phases(5, net.round_budget()).expect("converges");
                let mut accepted: Vec<[usize; 3]> =
                    net.nodes().iter().flat_map(|v| v.accepted.iter().copied()).collect();
                accepted.sort_unstable();
                accepted.dedup();
                let crossing = crossing_pairs_sharing_a_vertex(&g, &accepted);
                prop_assert!(crossing.is_empty(), "{radio:?}: {crossing:?}");
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
