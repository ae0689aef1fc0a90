//! The 2-localized Delaunay graph `LDel²` as a distributed protocol.
//!
//! For `k >= 2` the `k`-localized Delaunay graph is planar **without** a
//! planarization pass (Li–Calinescu–Wan) — the price is one extra round
//! of neighborhood exchange so that every node knows its 2-hop positions.
//! The paper builds on `LDel¹` + Algorithm 3 precisely to avoid that
//! extra exchange; implementing both makes the trade measurable:
//!
//! | | `LDel¹` + planarize | `LDel²` |
//! |---|---|---|
//! | knowledge | 1-hop | 2-hop |
//! | local step | Delaunay star + Gabriel verdicts | the same |
//! | triangle test | in all three stars | in all three stars, circumcircle empty of each corner's 2-hop ring |
//! | extra phases | crossing removal (2) | neighbor-table exchange (1) |
//! | planar | after removal | immediately, ties included |
//!
//! Phases: `Hello` (positions) → `NeighborTable` (2-hop knowledge) →
//! `Proposal`/`Accept`/`Reject` → local finalization. A node proposes,
//! and accepts, only triangles of its own Delaunay star (`LDel¹`'s local
//! step) whose sides are short and whose circumcircle holds no point of
//! its 2-hop neighbourhood. So two kept triangles that share a corner lie
//! in that corner's one triangulation and cannot cross, ties included.

use std::collections::{BTreeMap, BTreeSet};

use geospan_geometry::{in_circumcircle, CirclePosition, Point};
use geospan_graph::collections::{VecMap, VecSet};
use geospan_graph::Graph;
use geospan_sim::{
    Context, FaultReport, MessageKind, MessageStats, Network, Protocol, QuiescenceTimeout, Radio,
};

use crate::distributed::{assemble, local_step};
use crate::ldel::LocalDelaunay;

/// Messages of the `LDel²` protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Ldel2Msg {
    /// Position announcement.
    Hello {
        /// Sender position.
        pos: Point,
    },
    /// The sender's 1-hop neighbor table (id + position), giving
    /// receivers their 2-hop knowledge.
    NeighborTable {
        /// `(neighbor id, neighbor position)` entries.
        entries: Vec<(usize, Point)>,
    },
    /// Propose the triangle `{u, v, w}`; sent by `u`.
    Proposal {
        /// The triangle, ascending.
        tri: [usize; 3],
    },
    /// Accept a proposed triangle.
    Accept {
        /// The triangle, ascending.
        tri: [usize; 3],
    },
    /// Reject a proposed triangle.
    Reject {
        /// The triangle, ascending.
        tri: [usize; 3],
    },
}

impl MessageKind for Ldel2Msg {
    fn kind(&self) -> &'static str {
        match self {
            Ldel2Msg::Hello { .. } => "Hello",
            Ldel2Msg::NeighborTable { .. } => "NeighborTable",
            Ldel2Msg::Proposal { .. } => "Proposal",
            Ldel2Msg::Accept { .. } => "Accept",
            Ldel2Msg::Reject { .. } => "Reject",
        }
    }
}

/// Per-node state of the `LDel²` protocol.
#[derive(Debug)]
pub struct Ldel2Node {
    id: usize,
    pos: Point,
    radius: f64,
    active: bool,
    /// 1-hop neighbors (from `Hello`), ascending by id like the
    /// `BTreeMap` it replaced.
    neighbors: VecMap<Point>,
    /// 2-hop knowledge (from `NeighborTable`), including the 1-hop ring.
    known2: VecMap<Point>,
    /// The node's Delaunay star over its 1-hop ring, as ascending
    /// triples, sorted: the only triangles it proposes or accepts.
    star: Vec<[usize; 3]>,
    /// Triple-keyed, so `BTree*` stays: phase-3 finalization iterates in
    /// triangle-key order, which the equivalence tests pin.
    confirmations: BTreeMap<[usize; 3], VecSet>,
    dead: BTreeSet<[usize; 3]>,
    responded: BTreeSet<[usize; 3]>,
    gabriel: Vec<(usize, usize)>,
    final_tris: BTreeSet<[usize; 3]>,
}

impl Ldel2Node {
    fn position_of(&self, v: usize) -> Point {
        if v == self.id {
            self.pos
        } else {
            *self.known2.get(v).expect("position learned from exchange")
        }
    }

    /// Is the circumcircle of `tri`, a triangle of this node's star,
    /// empty of its 2-hop neighborhood (the `k = 2` localized Delaunay
    /// condition)? The node itself is a corner, so no witness.
    fn locally_empty(&self, tri: [usize; 3]) -> bool {
        let [a, b, c] = tri.map(|x| self.position_of(x));
        self.known2.iter().all(|(x, &p)| {
            tri.contains(&x) || in_circumcircle(a, b, c, p) != CirclePosition::Inside
        })
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
}

impl Protocol for Ldel2Node {
    type Message = Ldel2Msg;

    fn on_phase(&mut self, ctx: &mut Context<'_, Ldel2Msg>, phase: usize) {
        if !self.active {
            return;
        }
        match phase {
            0 => ctx.broadcast(Ldel2Msg::Hello { pos: self.pos }),
            1 => {
                let entries = self.neighbors.iter().map(|(v, &p)| (v, p)).collect();
                ctx.broadcast(Ldel2Msg::NeighborTable { entries });
            }
            2 => {
                // The 1-hop star and Gabriel edges, by LDel¹'s rule. Each
                // star triangle with short sides (the two at this node
                // are) whose circumcircle is empty of the 2-hop
                // neighbourhood is proposed, in the star's order.
                (self.gabriel, self.star) = local_step(self.id, self.pos, &self.neighbors);
                for &tri in &self.star {
                    if self.edges_short(tri) && self.locally_empty(tri) {
                        self.confirmations.entry(tri).or_default().insert(self.id);
                        ctx.broadcast(Ldel2Msg::Proposal { tri });
                    }
                }
            }
            3 => {
                // Finalize: a triangle stands when all three corners
                // vouched for it (proposed or accepted), each from its
                // own star.
                for (&tri, votes) in &self.confirmations {
                    if !tri.contains(&self.id) || self.dead.contains(&tri) {
                        continue;
                    }
                    if tri.iter().all(|&x| votes.contains(x)) {
                        self.final_tris.insert(tri);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Ldel2Msg>, from: usize, msg: &Ldel2Msg) {
        match msg {
            Ldel2Msg::Hello { pos } => {
                self.neighbors.insert(from, *pos);
                self.known2.insert(from, *pos);
            }
            Ldel2Msg::NeighborTable { entries } => {
                for &(v, p) in entries {
                    if v != self.id {
                        self.known2.insert(v, p);
                    }
                }
            }
            Ldel2Msg::Proposal { tri } => {
                if !tri.contains(&self.id) {
                    return;
                }
                self.confirm(*tri, from);
                if self.responded.insert(*tri) {
                    // LDel¹'s acceptance rule: only a triangle of this
                    // node's own star, so two accepted triangles sharing a
                    // corner lie in that corner's one triangulation and
                    // cannot cross, even on cocircular input. A corner
                    // whose `Hello` was lost is in no star here: dropping
                    // a triangle is always safe, keeping one never is.
                    if self.star.binary_search(tri).is_ok()
                        && self.edges_short(*tri)
                        && self.locally_empty(*tri)
                    {
                        self.confirm(*tri, self.id);
                        ctx.broadcast(Ldel2Msg::Accept { tri: *tri });
                    } else {
                        self.dead.insert(*tri);
                        ctx.broadcast(Ldel2Msg::Reject { tri: *tri });
                    }
                }
            }
            Ldel2Msg::Accept { tri } => {
                if tri.contains(&self.id) {
                    self.confirm(*tri, from);
                }
            }
            Ldel2Msg::Reject { tri } => {
                if tri.contains(&self.id) {
                    self.dead.insert(*tri);
                }
            }
        }
    }
}

/// Runs the `LDel²` protocol on a distance-closed communication graph
/// over the perfect synchronous radio: [`run_ldel2_with`] under
/// [`Radio::default`].
///
/// # Errors
/// Returns [`QuiescenceTimeout`] if a phase fails to converge.
pub fn run_ldel2(
    g: &Graph,
    radius: f64,
) -> Result<(LocalDelaunay, MessageStats), QuiescenceTimeout> {
    let (ldel, stats, _report) = run_ldel2_with(g, radius, &Radio::default())?;
    Ok((ldel, stats))
}

/// Runs the `LDel²` protocol over `radio`.
///
/// Under a non-zero fault plan the link-layer ack/retransmit scheme runs.
/// Triangles whose corners can't be vetted (a missed `Hello` or
/// `NeighborTable`) are rejected, but Gabriel edges are still decided
/// from the `Hello`s that arrived, so the output is plane only when the
/// scheme gave up on no broadcast ([`FaultReport::gave_up`] is 0): at
/// n = 2 000, 10 % loss and 3 retries, 2 runs of 8 crossed. Check a
/// faulty run's output with
/// [`is_plane_embedding`](geospan_graph::planarity::is_plane_embedding)
/// when `gave_up > 0`. Crashed nodes and anything touching them are
/// filtered from the assembly. A zero plan's report is
/// [`FaultReport::default`].
///
/// # Errors
/// Returns [`QuiescenceTimeout`] if a phase fails to converge within
/// [`Network::round_budget`].
///
/// # Panics
/// Panics if the jitter's `max_delay` is zero, and, with the
/// `invariant-checks` feature, if the output is not plane.
pub fn run_ldel2_with(
    g: &Graph,
    radius: f64,
    radio: &Radio,
) -> Result<(LocalDelaunay, MessageStats, FaultReport), QuiescenceTimeout> {
    let mut net = Network::new(g, |id| new_node(g, id, radius)).with_radio(radio);
    net.run_phases(4, net.round_budget())?;
    let (nodes, stats, report) = net.into_outcome();
    let crashed: VecSet = report.crashed.iter().copied().collect();
    let ldel = assemble(
        g,
        nodes.iter().map(|v| (v.id, &v.gabriel[..], &v.final_tris)),
        &crashed,
    );
    #[cfg(feature = "invariant-checks")]
    assert!(
        geospan_graph::planarity::is_plane_embedding(&ldel.graph),
        "assembled LDel(2) output is not a plane embedding"
    );
    Ok((ldel, stats, report))
}

fn new_node(g: &Graph, id: usize, radius: f64) -> Ldel2Node {
    Ldel2Node {
        id,
        pos: g.position(id),
        radius,
        active: g.degree(id) > 0,
        neighbors: VecMap::new(),
        known2: VecMap::new(),
        star: Vec::new(),
        confirmations: BTreeMap::new(),
        dead: BTreeSet::new(),
        responded: BTreeSet::new(),
        gabriel: Vec::new(),
        final_tris: BTreeSet::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ldel::{crossing_pairs_sharing_a_vertex, ldel_k, tie_prone_udg};
    use geospan_graph::gen::{connected_unit_disk, UnitDiskBuilder};
    use geospan_graph::planarity::is_plane_embedding;
    use geospan_sim::{FaultPlan, ReliabilityConfig};
    use proptest::prelude::*;

    #[test]
    fn matches_centralized_ldel2() {
        // In general position: on cocircular input the oracle's
        // non-strict test keeps crossing triangles that this protocol
        // drops (`cocircular_arc_keeps_one_triangle`).
        for seed in 0..4 {
            let (_pts, g, _s) = connected_unit_disk(40, 100.0, 35.0, seed * 67 + 1);
            let central = ldel_k(&g, 2);
            let (dist, _stats) = run_ldel2(&g, 35.0).expect("protocol converges");
            assert_eq!(dist.triangles, central.triangles, "seed {seed}");
            assert_eq!(dist.gabriel_edges, central.gabriel_edges, "seed {seed}");
            assert_eq!(
                dist.graph.edges().collect::<Vec<_>>(),
                central.graph.edges().collect::<Vec<_>>(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn planar_without_removal_pass() {
        for seed in 0..4 {
            let (_pts, g, _s) = connected_unit_disk(50, 100.0, 32.0, seed * 71 + 5);
            let (dist, _stats) = run_ldel2(&g, 32.0).unwrap();
            assert!(is_plane_embedding(&dist.graph), "seed {seed}");
            assert!(dist.graph.is_connected(), "seed {seed}");
        }
    }

    #[test]
    fn zero_fault_plan_matches_plain_ldel2_exactly() {
        let (_pts, g, _s) = connected_unit_disk(40, 100.0, 35.0, 9);
        let (plain, stats) = run_ldel2(&g, 35.0).unwrap();
        let (faulty, fstats, report) = run_ldel2_with(&g, 35.0, &Radio::default()).unwrap();
        assert_eq!(faulty, plain);
        assert_eq!(fstats, stats);
        assert_eq!(report, FaultReport::default());
    }

    #[test]
    fn asynchronous_delivery_changes_nothing() {
        // Like LDel¹, the handshake acts only on stabilized facts, so
        // bounded per-message delays must yield the synchronous result.
        for seed in 0..3 {
            let (_pts, g, _s) = connected_unit_disk(45, 100.0, 35.0, seed * 53 + 4);
            let (sync, sync_stats) = run_ldel2(&g, 35.0).unwrap();
            for (max_delay, delay_seed) in [(2, 1), (4, 32), (4, 63)] {
                let radio = Radio {
                    jitter: Some((max_delay, delay_seed)),
                    ..Radio::default()
                };
                let (jittered, stats, _report) = run_ldel2_with(&g, 35.0, &radio).unwrap();
                assert_eq!(jittered.triangles, sync.triangles, "seed {seed}");
                assert_eq!(
                    jittered.graph.edges().collect::<Vec<_>>(),
                    sync.graph.edges().collect::<Vec<_>>(),
                    "seed {seed}: async LDel² diverged"
                );
                // Same transmissions, different timing.
                assert_eq!(stats.total_sent(), sync_stats.total_sent());
            }
        }
    }

    #[test]
    fn stays_planar_under_loss_and_crash() {
        for seed in 0..3 {
            let (_pts, g, _s) = connected_unit_disk(45, 100.0, 32.0, seed * 29 + 7);
            let victim = (seed as usize * 13 + 5) % 45;
            let radio = Radio {
                faults: FaultPlan::new(seed + 11)
                    .with_loss(0.15)
                    .with_crash(victim, 2),
                reliability: ReliabilityConfig {
                    max_retries: 8,
                    ack_timeout: 2,
                },
                jitter: None,
            };
            let (faulty, _stats, report) = run_ldel2_with(&g, 32.0, &radio).unwrap();
            assert!(report.dropped > 0, "seed {seed}");
            assert_eq!(report.crashed, vec![victim], "seed {seed}");
            // LDel² is planar by construction; rejecting unvettable
            // triangles and excising the crashed node must preserve that.
            assert!(is_plane_embedding(&faulty.graph), "seed {seed}");
            assert_eq!(faulty.graph.degree(victim), 0, "seed {seed}");
            for t in &faulty.triangles {
                assert!(!t.contains(&victim), "seed {seed}");
            }
        }
    }

    #[test]
    fn ldel2_is_subset_of_ldel1() {
        // More knowledge can only shrink the triangle set.
        for seed in 0..3 {
            let (_pts, g, _s) = connected_unit_disk(45, 100.0, 35.0, seed * 73 + 2);
            let one = crate::ldel::ldel1(&g);
            let (two, _stats) = run_ldel2(&g, 35.0).unwrap();
            for t in &two.triangles {
                assert!(one.triangles.contains(t), "seed {seed}: {t:?} not in LDel1");
            }
        }
    }

    /// Four lattice points on the circle of radius 5 about the origin,
    /// at radius 4.5: the long chords 0–2 and 1–3 cross, and 0–3 is out of
    /// range.
    fn cocircular_arc() -> Graph {
        let arc = [(5.0, 0.0), (4.0, 3.0), (3.0, 4.0), (0.0, 5.0)].map(|(x, y)| Point::new(x, y));
        UnitDiskBuilder::new(4.5).build(&arc)
    }

    #[test]
    fn cocircular_arc_keeps_one_triangle() {
        // Nodes 1 and 2 see all four points and keep the one diagonal 0–2
        // of their shared triangulation, so triangle 123, in node 3's star
        // only, goes.
        let g = cocircular_arc();
        assert_eq!(ldel_k(&g, 2).triangles, [[0, 1, 2], [1, 2, 3]]);
        let (ld, _stats) = run_ldel2(&g, 4.5).unwrap();
        assert_eq!(ld.triangles, [[0, 1, 2]]);
        assert!(is_plane_embedding(&ld.graph));
    }

    #[test]
    fn arc_triangles_never_cross_when_rejections_are_lost() {
        // Every vote, a proposal as much as an acceptance, is for a
        // triangle of the voter's own star. A node that proposed triangle
        // 123 from outside its star would vouch for it to node 3, and a
        // lost `Reject` would then let node 3 keep it beside 012: seeds 214
        // and 244 drop both of nodes 1 and 2's rejections. Checked on the
        // triangles the nodes keep, read off the network as the assembly
        // reads them. Without retries a lost `Hello` can also let a node
        // call an edge Gabriel that crosses a triangle (seed 10), which
        // `invariant-checks` rejects in `run_ldel2_with`.
        let g = cocircular_arc();
        for seed in 0..256 {
            let radio = Radio {
                faults: FaultPlan::new(seed).with_loss(0.2),
                reliability: ReliabilityConfig {
                    max_retries: 0,
                    ack_timeout: 2,
                },
                jitter: None,
            };
            let mut net = Network::new(&g, |id| new_node(&g, id, 4.5)).with_radio(&radio);
            net.run_phases(4, net.round_budget()).unwrap();
            let mut kept: Vec<[usize; 3]> = net
                .nodes()
                .iter()
                .flat_map(|v| v.final_tris.iter().copied())
                .collect();
            kept.sort_unstable();
            kept.dedup();
            let crossing = crossing_pairs_sharing_a_vertex(&g, &kept);
            assert!(crossing.is_empty(), "seed {seed}: {crossing:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn plane_on_tie_prone_input((g, radius) in tie_prone_udg()) {
            let (ld, _stats) = run_ldel2(&g, radius).expect("converges");
            prop_assert!(is_plane_embedding(&ld.graph));
        }
    }
}
