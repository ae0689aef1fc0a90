//! Connected dominating set (CDS) backbones for wireless ad hoc networks.
//!
//! Implements Section III-A of Wang & Li (ICDCS 2002): a rank-based
//! maximal-independent-set **clustering** (Baker–Ephremides / Alzoubi
//! style) followed by the **connector election** of Algorithm 1, which
//! links every pair of dominators that are two or three hops apart. The
//! dominators plus the elected connectors form a connected dominating set
//! whose size is within a constant factor of the minimum, built with a
//! constant number of messages per node.
//!
//! Both a centralized reference implementation ([`build_cds`]) and the
//! real message-passing protocol ([`protocol::run_cds`]) are provided;
//! they produce identical structures (tested), and the protocol
//! additionally yields measured per-node message counts.
//!
//! The derived graphs of the paper are all assembled here:
//!
//! * `CDS` — the backbone: elected connector paths only,
//! * `CDS'` — CDS plus every dominatee–dominator edge,
//! * `ICDS` — the unit disk graph induced on the backbone nodes,
//! * `ICDS'` — ICDS plus every dominatee–dominator edge.
//!
//! # Example
//!
//! ```
//! use geospan_cds::{build_cds, ClusterRank};
//! use geospan_graph::gen::connected_unit_disk;
//!
//! let (_pts, udg, _seed) = connected_unit_disk(60, 200.0, 60.0, 1);
//! let cds = build_cds(&udg, &ClusterRank::LowestId);
//! // The backbone nodes form one connected component of the CDS graph.
//! let backbone = cds.backbone_nodes();
//! let comps = cds.cds.components();
//! assert!(backbone.iter().all(|b| comps[0].contains(b)));
//! // CDS' spans every node and stays connected.
//! assert!(cds.cds_prime.is_connected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod connector;
pub mod protocol;
mod rank;

pub use cluster::{cluster, dominators_within_hops, lemma2_bound, Clustering};
pub use connector::{
    find_connectors, find_connectors_for_pairs, find_connectors_for_pairs_excluding,
    ConnectorResult,
};
pub use rank::ClusterRank;

use geospan_graph::Graph;

/// A node's role after backbone formation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Cluster-head: member of the maximal independent set.
    Dominator,
    /// Ordinary node adjacent to at least one dominator.
    Dominatee,
    /// Dominatee elected as a gateway between dominators.
    Connector,
}

/// The complete family of backbone graphs derived from one deployment.
#[derive(Debug, Clone)]
pub struct CdsGraphs {
    /// Per-node role.
    pub roles: Vec<Role>,
    /// Dominator (cluster-head) indices, ascending.
    pub dominators: Vec<usize>,
    /// Connector (gateway) indices, ascending.
    pub connectors: Vec<usize>,
    /// For each node, its adjacent dominators (empty for dominators).
    pub dominators_of: Vec<Vec<usize>>,
    /// The backbone: dominators + connectors, linked by the elected paths.
    pub cds: Graph,
    /// `CDS` plus all dominatee–dominator edges.
    pub cds_prime: Graph,
    /// The unit disk graph induced on the backbone nodes.
    pub icds: Graph,
    /// `ICDS` plus all dominatee–dominator edges.
    pub icds_prime: Graph,
}

impl CdsGraphs {
    /// Backbone node indices (dominators and connectors), ascending.
    pub fn backbone_nodes(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .roles
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, Role::Dominator | Role::Connector))
            .map(|(i, _)| i)
            .collect();
        v.sort_unstable();
        v
    }

    /// True when `v` is a dominator or connector.
    pub fn is_backbone(&self, v: usize) -> bool {
        matches!(self.roles[v], Role::Dominator | Role::Connector)
    }
}

/// Every dominatee–dominator edge `(w, d)` of a `dominators_of` table
/// (see [`CdsGraphs::dominators_of`]).
pub fn dominatee_edges(dominators_of: &[Vec<usize>]) -> impl Iterator<Item = (usize, usize)> + '_ {
    dominators_of
        .iter()
        .enumerate()
        .flat_map(|(w, doms)| doms.iter().map(move |&d| (w, d)))
}

/// Builds the full backbone family from a unit disk graph using the
/// centralized reference algorithms (identical output to the distributed
/// protocol, without the message passing).
///
/// # Panics
/// Panics if `rank` carries per-node weights of the wrong length.
pub fn build_cds(udg: &Graph, rank: &ClusterRank) -> CdsGraphs {
    let clustering = cluster(udg, rank);
    let connectors = find_connectors(udg, &clustering);
    assemble(udg, &clustering, &connectors)
}

/// Assembles the graph family from clustering + connector results.
///
/// Public so that callers with their own clustering/election pipeline —
/// notably localized backbone *repair*, which re-elects only inside an
/// affected neighborhood — can materialize the same graph family the
/// full construction produces.
pub fn assemble(udg: &Graph, clustering: &Clustering, connectors: &ConnectorResult) -> CdsGraphs {
    let n = udg.node_count();
    let mut roles = vec![Role::Dominatee; n];
    for &d in &clustering.dominators {
        roles[d] = Role::Dominator;
    }
    for &c in &connectors.connectors {
        debug_assert_eq!(roles[c], Role::Dominatee, "connectors are dominatees");
        roles[c] = Role::Connector;
    }

    let points = udg.points();
    let cds = Graph::with_edges(points.to_vec(), connectors.edges.iter().copied());
    let cds_prime = Graph::with_edges(
        points.to_vec(),
        connectors
            .edges
            .iter()
            .copied()
            .chain(dominatee_edges(&clustering.dominators_of)),
    );
    let is_backbone = |v: usize| matches!(roles[v], Role::Dominator | Role::Connector);
    let icds = udg.filter_edges(|u, v| is_backbone(u) && is_backbone(v));
    let icds_prime = Graph::with_edges(
        points.to_vec(),
        icds.edges()
            .chain(dominatee_edges(&clustering.dominators_of)),
    );

    let mut connectors_list = connectors.connectors.clone();
    connectors_list.sort_unstable();
    CdsGraphs {
        roles,
        dominators: clustering.dominators.clone(),
        connectors: connectors_list,
        dominators_of: clustering.dominators_of.clone(),
        cds,
        cds_prime,
        icds,
        icds_prime,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geospan_graph::gen::connected_unit_disk;

    #[test]
    fn full_family_invariants() {
        for seed in 0..6 {
            let (_pts, udg, _s) = connected_unit_disk(70, 150.0, 45.0, seed * 11);
            let cds = build_cds(&udg, &ClusterRank::LowestId);

            // Domination: every non-dominator is adjacent to a dominator.
            for v in 0..udg.node_count() {
                match cds.roles[v] {
                    Role::Dominator => assert!(cds.dominators_of[v].is_empty()),
                    _ => assert!(
                        !cds.dominators_of[v].is_empty(),
                        "seed {seed}: node {v} undominated"
                    ),
                }
            }
            // Independence: no two dominators adjacent.
            for &a in &cds.dominators {
                for &b in &cds.dominators {
                    if a < b {
                        assert!(!udg.has_edge(a, b), "seed {seed}: adjacent dominators");
                    }
                }
            }
            // CDS edges live on backbone nodes only.
            for (u, v) in cds.cds.edges() {
                assert!(cds.is_backbone(u) && cds.is_backbone(v));
                assert!(udg.has_edge(u, v), "CDS edge must be a UDG link");
            }
            // The backbone is connected (as a subgraph over its nodes).
            let nodes = cds.backbone_nodes();
            if nodes.len() > 1 {
                let comps = cds.cds.components();
                let main = &comps[0];
                for &b in &nodes {
                    assert!(
                        main.contains(&b),
                        "seed {seed}: backbone disconnected at {b}"
                    );
                }
            }
            // CDS ⊆ ICDS; CDS' ⊆ ICDS'.
            for (u, v) in cds.cds.edges() {
                assert!(cds.icds.has_edge(u, v));
            }
            for (u, v) in cds.cds_prime.edges() {
                assert!(cds.icds_prime.has_edge(u, v));
            }
            // CDS' and ICDS' span all nodes and stay connected.
            assert!(cds.cds_prime.is_connected(), "seed {seed}");
            assert!(cds.icds_prime.is_connected(), "seed {seed}");
        }
    }

    #[test]
    fn lemma1_at_most_five_dominators() {
        for seed in 0..6 {
            let (_pts, udg, _s) = connected_unit_disk(80, 120.0, 40.0, seed * 5 + 2);
            let cds = build_cds(&udg, &ClusterRank::LowestId);
            for v in 0..udg.node_count() {
                assert!(
                    cds.dominators_of[v].len() <= 5,
                    "seed {seed}: node {v} has {} dominators",
                    cds.dominators_of[v].len()
                );
            }
        }
    }

    #[test]
    fn single_node_network() {
        let udg = Graph::new(vec![geospan_graph::Point::new(0.0, 0.0)]);
        let cds = build_cds(&udg, &ClusterRank::LowestId);
        assert_eq!(cds.roles, vec![Role::Dominator]);
        assert!(cds.connectors.is_empty());
        assert_eq!(cds.cds.edge_count(), 0);
    }
}
