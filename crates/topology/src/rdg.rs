//! The Restricted Delaunay Graph of Gao, Guibas, Hershberger, Zhang & Zhu
//! (MobiHoc 2001) — the construction the paper positions itself against.
//!
//! Gao et al. call any planar supergraph of `UDel = Del(V) ∩ UDG` a
//! *restricted Delaunay graph* and build one by mutual filtering: every
//! node computes the Delaunay triangulation of its 1-hop neighborhood and
//! proposes its incident short edges; an edge survives only if **no
//! witness who can see both endpoints rejects it** (i.e. it appears in
//! the local Delaunay triangulation of every common neighbor and of both
//! endpoints).
//!
//! This is planar and contains `UDel`, so it is a length spanner like
//! `PLDel` — but, as the paper stresses, the natural distributed
//! implementation exchanges whole neighborhood triangulations (a node's
//! messages grow with the *sum of its neighbors' degrees*), whereas the
//! LDel proposal/accept handshake keeps per-node communication constant
//! on bounded-degree graphs. We implement the centralized structure for
//! the comparison experiments.

use std::collections::{BTreeMap, BTreeSet};

use geospan_graph::collections::{VecMap, VecSet};

use geospan_geometry::Triangulation;
use geospan_graph::Graph;

use crate::rng::common_neighbors;

/// The Restricted Delaunay Graph over a distance-closed graph `g` (see
/// [`crate::ldel`] for the distance-closed requirement).
///
/// # Panics
/// Panics if two participating nodes share a position.
///
/// # Example
/// ```
/// use geospan_graph::gen::connected_unit_disk;
/// use geospan_graph::planarity::is_plane_embedding;
/// use geospan_topology::{restricted_delaunay, unit_delaunay};
///
/// let (_pts, udg, _s) = connected_unit_disk(50, 120.0, 40.0, 4);
/// let rdg = restricted_delaunay(&udg);
/// assert!(is_plane_embedding(&rdg));
/// // Contains the unit Delaunay graph.
/// let udel = unit_delaunay(&udg);
/// assert!(udel.edges().all(|(u, v)| rdg.has_edge(u, v)));
/// ```
pub fn restricted_delaunay(g: &Graph) -> Graph {
    let n = g.node_count();
    // Edge sets of each node's local Delaunay triangulation, as global
    // index pairs (u < v).
    let mut local_edges: Vec<BTreeSet<(usize, usize)>> = vec![BTreeSet::new(); n];
    #[expect(
        clippy::needless_range_loop,
        reason = "u indexes the graph and local_edges alike"
    )]
    for u in 0..n {
        if g.degree(u) == 0 {
            continue;
        }
        let mut ids: Vec<usize> = Vec::with_capacity(g.degree(u) + 1);
        ids.push(u);
        ids.extend_from_slice(g.neighbors(u));
        let pts: Vec<_> = ids.iter().map(|&i| g.position(i)).collect();
        let tri = Triangulation::build(&pts).expect("distinct node positions");
        for &(a, b) in tri.edges() {
            let (x, y) = (ids[a], ids[b]);
            local_edges[u].insert((x.min(y), x.max(y)));
        }
    }

    // An edge survives when both endpoints and every common neighbor
    // agree it is locally Delaunay.
    g.filter_edges(|u, v| {
        let key = (u.min(v), u.max(v));
        local_edges[u].contains(&key)
            && local_edges[v].contains(&key)
            && common_neighbors(g, u, v).all(|w| local_edges[w].contains(&key))
    })
}

/// Messages of the distributed RDG protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum RdgMsg {
    /// Position announcement.
    Hello {
        /// Sender position.
        pos: geospan_geometry::Point,
    },
    /// "Edge `(x, y)` is in my local Delaunay triangulation."
    ///
    /// Unlike the LDel handshake, a node must publish its opinion about
    /// **every** edge of its local triangulation — including edges not
    /// incident on itself — because it may be the filtering witness for
    /// its neighbors. This is exactly why the per-node message count
    /// grows with the neighborhood size.
    Opinion {
        /// Edge endpoint (smaller index).
        x: usize,
        /// Edge endpoint (larger index).
        y: usize,
    },
}

impl geospan_sim::MessageKind for RdgMsg {
    fn kind(&self) -> &'static str {
        match self {
            RdgMsg::Hello { .. } => "Hello",
            RdgMsg::Opinion { .. } => "Opinion",
        }
    }
}

/// Per-node state of the distributed RDG construction.
#[derive(Debug)]
pub struct RdgNode {
    id: usize,
    pos: geospan_geometry::Point,
    radius: f64,
    /// Sorted-vec map: ascending-by-id iteration, exactly like the
    /// `BTreeMap` it replaced.
    known: VecMap<geospan_geometry::Point>,
    local_edges: BTreeSet<(usize, usize)>,
    /// Edge-pair-keyed, so the outer `BTreeMap` stays (D06 targets
    /// node-id keys); the per-edge voter sets are arenas.
    approvals: BTreeMap<(usize, usize), VecSet>,
    surviving: Vec<(usize, usize)>,
    /// Communication-graph degree; isolated nodes stay silent.
    degree: usize,
}

impl geospan_sim::Protocol for RdgNode {
    type Message = RdgMsg;

    fn on_phase(&mut self, ctx: &mut geospan_sim::Context<'_, RdgMsg>, phase: usize) {
        match phase {
            0 if self.active() => {
                ctx.broadcast(RdgMsg::Hello { pos: self.pos });
            }
            1 => {
                if !self.active() {
                    return;
                }
                // Local computation + one Opinion per local Delaunay edge.
                let mut ids: Vec<usize> = Vec::with_capacity(self.known.len() + 1);
                ids.push(self.id);
                ids.extend(self.known.keys());
                ids.sort_unstable();
                let pts: Vec<_> = ids
                    .iter()
                    .map(|&i| {
                        if i == self.id {
                            self.pos
                        } else {
                            *self.known.get(i).expect("position learned from Hello")
                        }
                    })
                    .collect();
                if let Ok(tri) = Triangulation::build(&pts) {
                    for &(a, b) in tri.edges() {
                        let (x, y) = (ids[a].min(ids[b]), ids[a].max(ids[b]));
                        self.local_edges.insert((x, y));
                        self.approvals.entry((x, y)).or_default().insert(self.id);
                        ctx.broadcast(RdgMsg::Opinion { x, y });
                    }
                }
            }
            2 => {
                // Decide survival of incident edges.
                for &(x, y) in &self.local_edges {
                    if x != self.id && y != self.id {
                        continue;
                    }
                    let other = if x == self.id { y } else { x };
                    let Some(&opos) = self.known.get(other) else {
                        continue;
                    };
                    let votes = &self.approvals[&(x, y)];
                    if !votes.contains(other) {
                        continue;
                    }
                    // Witnesses: my neighbors within range of the other
                    // endpoint (distance-closedness makes this the full
                    // common neighborhood).
                    let ok = self.known.iter().all(|(w, &wpos)| {
                        w == other || wpos.distance(opos) > self.radius || votes.contains(w)
                    });
                    if ok {
                        self.surviving.push((x, y));
                    }
                }
                self.surviving.sort_unstable();
            }
            _ => {}
        }
    }

    fn on_message(
        &mut self,
        _ctx: &mut geospan_sim::Context<'_, RdgMsg>,
        from: usize,
        msg: &RdgMsg,
    ) {
        match msg {
            RdgMsg::Hello { pos } => {
                self.known.insert(from, *pos);
            }
            RdgMsg::Opinion { x, y } => {
                self.approvals.entry((*x, *y)).or_default().insert(from);
            }
        }
    }
}

impl RdgNode {
    fn active(&self) -> bool {
        self.degree > 0
    }
}

/// Runs the distributed RDG construction, returning the structure and
/// the measured message statistics.
///
/// # Errors
/// Returns [`geospan_sim::QuiescenceTimeout`] if a phase fails to
/// converge.
pub fn run_rdg(
    g: &Graph,
    radius: f64,
) -> Result<(Graph, geospan_sim::MessageStats), geospan_sim::QuiescenceTimeout> {
    let mut net = geospan_sim::Network::new(g, |id| RdgNode {
        id,
        pos: g.position(id),
        radius,
        known: VecMap::new(),
        local_edges: BTreeSet::new(),
        approvals: BTreeMap::new(),
        surviving: Vec::new(),
        degree: g.degree(id),
    });
    net.run_phases(3, net.round_budget())?;
    let (nodes, stats) = net.into_parts();
    let out = Graph::with_edges(
        g.points().to_vec(),
        nodes.iter().flat_map(|node| node.surviving.iter().copied()),
    );
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gabriel, ldel, unit_delaunay};
    use geospan_graph::gen::connected_unit_disk;
    use geospan_graph::planarity::is_plane_embedding;
    use geospan_graph::stretch::{stretch_factors, StretchOptions};

    #[test]
    fn rdg_is_planar_and_contains_udel() {
        for seed in 0..5 {
            let (_pts, g, _s) = connected_unit_disk(60, 120.0, 35.0, seed * 43 + 1);
            let rdg = restricted_delaunay(&g);
            assert!(is_plane_embedding(&rdg), "seed {seed}");
            let udel = unit_delaunay(&g);
            for (u, v) in udel.edges() {
                assert!(
                    rdg.has_edge(u, v),
                    "seed {seed}: UDel edge ({u},{v}) missing"
                );
            }
            assert!(rdg.is_connected(), "seed {seed}");
        }
    }

    #[test]
    fn rdg_is_a_length_spanner() {
        let (_pts, g, _s) = connected_unit_disk(70, 120.0, 35.0, 77);
        let rdg = restricted_delaunay(&g);
        let r = stretch_factors(&g, &rdg, StretchOptions::default());
        assert_eq!(r.disconnected_pairs, 0);
        assert!(r.length_max < 2.6, "length stretch {}", r.length_max);
    }

    #[test]
    fn rdg_and_pldel_are_close_cousins() {
        // Both are planar supergraphs of UDel; they typically agree on
        // most edges, and the Gabriel graph sits inside both.
        for seed in 0..3 {
            let (_pts, g, _s) = connected_unit_disk(50, 120.0, 35.0, seed * 57 + 2);
            let rdg = restricted_delaunay(&g);
            let pl = ldel::planarized(&g);
            let gg = gabriel(&g);
            for (u, v) in gg.edges() {
                assert!(rdg.has_edge(u, v), "seed {seed}: GG ⊄ RDG");
                assert!(pl.graph.has_edge(u, v), "seed {seed}: GG ⊄ PLDel");
            }
            let rdg_edges: std::collections::HashSet<_> = rdg.edges().collect();
            let pl_edges: std::collections::HashSet<_> = pl.graph.edges().collect();
            let common = rdg_edges.intersection(&pl_edges).count();
            assert!(
                common * 10 >= rdg_edges.len().max(pl_edges.len()) * 8,
                "seed {seed}: structures unexpectedly divergent"
            );
        }
    }

    #[test]
    fn degenerate_inputs() {
        let g = Graph::new(vec![]);
        assert_eq!(restricted_delaunay(&g).edge_count(), 0);
        let g = Graph::new(vec![geospan_graph::Point::new(0.0, 0.0)]);
        assert_eq!(restricted_delaunay(&g).edge_count(), 0);
    }

    #[test]
    fn distributed_rdg_matches_centralized() {
        for seed in 0..4 {
            let (_pts, g, _s) = connected_unit_disk(45, 120.0, 35.0, seed * 61 + 3);
            let central = restricted_delaunay(&g);
            let (dist, _stats) = run_rdg(&g, 35.0).expect("protocol converges");
            assert_eq!(
                dist.edges().collect::<Vec<_>>(),
                central.edges().collect::<Vec<_>>(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn rdg_message_cost_grows_with_degree_unlike_ldel() {
        // The paper's §II criticism, measured: the RDG protocol's
        // per-node message count scales with the local Delaunay size of
        // the neighborhood, while the LDel handshake stays close to the
        // node's own incident-triangle count.
        let (_pts, g, _s) = connected_unit_disk(80, 120.0, 45.0, 5);
        let (_rdg, rdg_stats) = run_rdg(&g, 45.0).unwrap();
        let ldel_out = crate::distributed::run_ldel(&g, 45.0).unwrap();
        assert!(
            rdg_stats.max_sent() > ldel_out.stats.max_sent(),
            "RDG max {} vs LDel max {}",
            rdg_stats.max_sent(),
            ldel_out.stats.max_sent()
        );
    }
}
