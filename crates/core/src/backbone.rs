//! The backbone construction pipeline.

use std::fmt;

use geospan_cds::{build_cds, protocol::run_cds_with, CdsGraphs, ClusterRank, Role};
use geospan_geometry::Point;
use geospan_graph::Graph;
use geospan_sim::{
    FaultPlan, FaultReport, MessageStats, QuiescenceTimeout, Radio, ReliabilityConfig,
};
use geospan_topology::distributed::run_ldel_with;
use geospan_topology::ldel::{planarized, LocalDelaunay};

/// Configuration of the backbone pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct BackboneConfig {
    /// The transmission radius that defined the unit disk graph. Needed
    /// by the distributed triangulation protocol (nodes decide locally
    /// whether two heard positions are within range).
    pub radius: f64,
    /// The clustering election criterion.
    pub rank: ClusterRank,
    /// When true, run the real message-passing protocols and record
    /// per-node message statistics; when false, use the (identical in
    /// output, faster) centralized reference algorithms.
    pub distributed: bool,
    /// Faults injected into the distributed protocols; default
    /// [`FaultPlan::none`]. A non-zero plan implies the distributed
    /// construction (faults are a property of the radio layer, which the
    /// centralized reference has no notion of).
    pub faults: FaultPlan,
    /// Link-layer ack/retransmit parameters used when faults are active.
    pub reliability: ReliabilityConfig,
}

impl BackboneConfig {
    /// A default configuration for the given transmission radius:
    /// lowest-id clustering, centralized construction.
    ///
    /// # Panics
    /// Panics unless `radius` is positive and finite.
    pub fn new(radius: f64) -> Self {
        assert!(
            radius > 0.0 && radius.is_finite(),
            "radius must be positive"
        );
        BackboneConfig {
            radius,
            rank: ClusterRank::LowestId,
            distributed: false,
            faults: FaultPlan::none(),
            reliability: ReliabilityConfig::default(),
        }
    }

    /// Switches to the distributed (message-passing) construction.
    pub fn distributed(mut self) -> Self {
        self.distributed = true;
        self
    }

    /// Uses a different clustering rank.
    pub fn with_rank(mut self, rank: ClusterRank) -> Self {
        self.rank = rank;
        self
    }

    /// Injects a fault plan into the radio layer. A non-zero plan also
    /// switches to the distributed construction.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        if !plan.is_zero() {
            self.distributed = true;
        }
        self.faults = plan;
        self
    }

    /// Sets the link-layer ack/retransmit parameters used under faults.
    pub fn with_reliability(mut self, reliability: ReliabilityConfig) -> Self {
        self.reliability = reliability;
        self
    }
}

impl Default for BackboneConfig {
    /// Unit transmission radius, lowest-id clustering, centralized.
    fn default() -> Self {
        BackboneConfig::new(1.0)
    }
}

/// Per-stage message statistics of a distributed construction.
#[derive(Debug, Clone)]
pub struct BackboneStats {
    /// Messages of the clustering + connector protocol.
    pub cds: MessageStats,
    /// Messages of the localized Delaunay protocol over `ICDS`.
    pub ldel: MessageStats,
}

impl BackboneStats {
    /// Per-node totals across both stages, plus the one status broadcast
    /// per node that materializes `ICDS` from `CDS` (every node tells its
    /// neighbors whether it is a dominator, dominatee, or connector).
    pub fn total_per_node(&self) -> Vec<usize> {
        self.cds
            .sent_per_node()
            .iter()
            .zip(self.ldel.sent_per_node())
            .map(|(a, b)| a + b + 1)
            .collect()
    }
}

/// Error constructing a backbone.
#[derive(Debug, Clone, PartialEq)]
pub enum BackboneError {
    /// A UDG edge is longer than the configured radius: the graph was not
    /// built with this radius.
    InvalidRadius {
        /// The configured radius.
        radius: f64,
        /// The offending edge length found.
        edge_length: f64,
    },
    /// A node position is NaN or infinite, or two nodes share a
    /// position: the triangulations need distinct finite coordinates.
    InvalidInput {
        /// What is wrong, naming the offending nodes.
        reason: String,
    },
    /// A distributed phase failed to reach quiescence (protocol bug).
    Protocol(QuiescenceTimeout),
}

impl fmt::Display for BackboneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackboneError::InvalidRadius { radius, edge_length } => write!(
                f,
                "unit disk graph has an edge of length {edge_length} exceeding the configured radius {radius}"
            ),
            BackboneError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
            BackboneError::Protocol(t) => write!(f, "distributed construction failed: {t}"),
        }
    }
}

impl std::error::Error for BackboneError {}

impl From<QuiescenceTimeout> for BackboneError {
    fn from(t: QuiescenceTimeout) -> Self {
        BackboneError::Protocol(t)
    }
}

/// The complete constructed backbone: every derived graph of the paper
/// over the shared vertex set.
#[derive(Debug, Clone)]
pub struct Backbone {
    cds_graphs: CdsGraphs,
    ldel_icds: LocalDelaunay,
    ldel_icds_prime: Graph,
    stats: Option<BackboneStats>,
    fault_report: Option<FaultReport>,
}

impl Backbone {
    /// Per-node roles (dominator / connector / dominatee).
    pub fn roles(&self) -> &[Role] {
        &self.cds_graphs.roles
    }

    /// The CDS family of graphs (`CDS`, `CDS'`, `ICDS`, `ICDS'`).
    pub fn cds_graphs(&self) -> &CdsGraphs {
        &self.cds_graphs
    }

    /// The planar backbone `LDel(ICDS)`.
    pub fn ldel_icds(&self) -> &Graph {
        &self.ldel_icds.graph
    }

    /// The planar backbone with its certifying triangles and Gabriel
    /// edges.
    pub fn ldel_icds_full(&self) -> &LocalDelaunay {
        &self.ldel_icds
    }

    /// `LDel(ICDS')`: the planar backbone plus all dominatee–dominator
    /// edges — the routing topology spanning every node.
    pub fn ldel_icds_prime(&self) -> &Graph {
        &self.ldel_icds_prime
    }

    /// Message statistics, present when the backbone was built with
    /// [`BackboneConfig::distributed`].
    pub fn stats(&self) -> Option<&BackboneStats> {
        self.stats.as_ref()
    }

    /// The combined fault report of both protocol stages, present when
    /// the backbone was built under a non-zero fault plan.
    pub fn fault_report(&self) -> Option<&FaultReport> {
        self.fault_report.as_ref()
    }

    /// Assembles a backbone from an already-computed graph family — the
    /// localized-repair entry point (see
    /// [`crate::maintenance::MobileBackbone`]): repair re-elects inside an
    /// affected neighborhood, re-assembles the family, and re-derives the
    /// planar layer here.
    pub(crate) fn from_graphs(cds_graphs: CdsGraphs) -> Backbone {
        let ldel_icds = planarized(&cds_graphs.icds);
        Backbone::from_layers(cds_graphs, ldel_icds)
    }

    /// Assembles a backbone from its graph family and planar layer
    /// `LDel(ICDS)`, deriving `LDel(ICDS')` by adding every
    /// dominatee–dominator edge.
    fn from_layers(cds_graphs: CdsGraphs, ldel_icds: LocalDelaunay) -> Backbone {
        let mut ldel_icds_prime = ldel_icds.graph.clone();
        for (w, doms) in cds_graphs.dominators_of.iter().enumerate() {
            for &d in doms {
                ldel_icds_prime.add_edge(w, d);
            }
        }
        Backbone {
            cds_graphs,
            ldel_icds,
            ldel_icds_prime,
            stats: None,
            fault_report: None,
        }
    }

    /// Mutable access to the clustering and both planar layers
    /// (`LDel(ICDS)`, `LDel(ICDS')`), for tests that damage a backbone on
    /// purpose.
    #[cfg(test)]
    pub(crate) fn parts_mut(&mut self) -> (&mut CdsGraphs, &mut Graph, &mut Graph) {
        (
            &mut self.cds_graphs,
            &mut self.ldel_icds.graph,
            &mut self.ldel_icds_prime,
        )
    }

    /// Backbone node indices (dominators + connectors).
    pub fn backbone_nodes(&self) -> Vec<usize> {
        self.cds_graphs.backbone_nodes()
    }

    /// Removes a departed **dominatee** from the logical structures.
    ///
    /// Only valid for plain dominatees: they carry no routing state, so
    /// clipping their edges leaves every backbone property intact (this
    /// is the cheap half of the maintenance policy). Used by
    /// [`crate::maintenance::MobileBackbone`].
    ///
    /// # Panics
    /// Panics if `v` is a dominator or connector.
    pub(crate) fn clip_dominatee(&mut self, v: usize) {
        assert_eq!(
            self.cds_graphs.roles[v],
            Role::Dominatee,
            "only plain dominatees can be clipped"
        );
        let clip = |g: &mut Graph| {
            let nbrs: Vec<usize> = g.neighbors(v).to_vec();
            for w in nbrs {
                g.remove_edge(v, w);
            }
        };
        clip(&mut self.ldel_icds_prime);
        clip(&mut self.cds_graphs.cds_prime);
        clip(&mut self.cds_graphs.icds_prime);
        self.cds_graphs.dominators_of[v].clear();
    }

    /// Attaches a newcomer as a plain dominatee of the given (adjacent)
    /// dominators, extending every derived graph by one node — the cheap
    /// half of node arrival. Used by
    /// [`crate::maintenance::MobileBackbone`].
    ///
    /// # Panics
    /// Panics if `dominators` is empty (the newcomer would be
    /// undominated, which requires a rebuild instead).
    pub(crate) fn attach_dominatee(&mut self, position: Point, dominators: &[usize]) -> usize {
        assert!(
            !dominators.is_empty(),
            "an uncovered newcomer requires a backbone rebuild"
        );
        let v = self.cds_graphs.cds.push_node(position);
        self.cds_graphs.cds_prime.push_node(position);
        self.cds_graphs.icds.push_node(position);
        self.cds_graphs.icds_prime.push_node(position);
        self.ldel_icds.graph.push_node(position);
        self.ldel_icds_prime.push_node(position);
        self.cds_graphs.roles.push(Role::Dominatee);
        let mut doms = dominators.to_vec();
        doms.sort_unstable();
        for &d in &doms {
            self.cds_graphs.cds_prime.add_edge(v, d);
            self.cds_graphs.icds_prime.add_edge(v, d);
            self.ldel_icds_prime.add_edge(v, d);
        }
        self.cds_graphs.dominators_of.push(doms);
        v
    }

    /// Re-attaches a previously departed node `v` as a plain dominatee
    /// of the given (adjacent) dominators — the cheap half of a node
    /// re-joining under churn. The node already exists in every derived
    /// graph (isolated, parked); only its logical links are restored.
    ///
    /// The parked position embedded in the derived graphs is *not*
    /// rewritten: a plain dominatee is never a backbone node, so GPSR
    /// over `LDel(ICDS)` never reads it, and ingress/egress decisions
    /// are purely topological (`dominators_of`). Physical positions
    /// always come from the caller's unit disk graph.
    ///
    /// # Panics
    /// Panics if `dominators` is empty or if `v` is not an isolated
    /// dominatee.
    pub(crate) fn reattach_dominatee(&mut self, v: usize, dominators: &[usize]) {
        assert!(
            !dominators.is_empty(),
            "an uncovered rejoiner requires a backbone rebuild"
        );
        assert_eq!(
            self.cds_graphs.roles[v],
            Role::Dominatee,
            "only a departed dominatee can re-attach"
        );
        assert_eq!(
            self.ldel_icds_prime.degree(v),
            0,
            "re-attaching node {v} still has logical links"
        );
        let mut doms = dominators.to_vec();
        doms.sort_unstable();
        for &d in &doms {
            self.cds_graphs.cds_prime.add_edge(v, d);
            self.cds_graphs.icds_prime.add_edge(v, d);
            self.ldel_icds_prime.add_edge(v, d);
        }
        self.cds_graphs.dominators_of[v] = doms;
    }

    /// Demotes isolated nodes to plain dominatees, purging them from the
    /// dominator and connector registries.
    ///
    /// A from-scratch rebuild clusters every index, and a departed
    /// (parked, radio-silent) node is isolated in the unit disk graph —
    /// so the greedy MIS dutifully crowns it dominator of its own empty
    /// cluster, leaving a dangling rank entry with no coverage duty.
    /// Maintenance calls this after every rebuild to scrub those ghosts.
    ///
    /// # Panics
    /// Debug-panics if a node to demote still has backbone edges.
    pub(crate) fn demote_isolated(&mut self, nodes: impl IntoIterator<Item = usize>) {
        for v in nodes {
            debug_assert_eq!(
                self.ldel_icds_prime.degree(v),
                0,
                "demoting node {v} with live logical links"
            );
            self.cds_graphs.roles[v] = Role::Dominatee;
            self.cds_graphs.dominators.retain(|&d| d != v);
            self.cds_graphs.connectors.retain(|&c| c != v);
            self.cds_graphs.dominators_of[v].clear();
        }
    }
}

/// The largest coordinate magnitude the pipeline accepts, `2^250`
/// (about `1.8e75`). Below it a difference of two coordinates stays
/// under `2^251`, so squared distances stay under `2^503` and the
/// in-circle determinant — products of four differences, the
/// highest-degree formula in the pipeline — under `2^1008`, short of
/// `f64::MAX`. Past it squared pairwise distances can overflow to
/// infinity and the unit disk test admits every pair.
const MAX_COORDINATE: f64 = f64::from_bits((1023 + 250) << 52);

/// Rejects NaN, infinite or too large (beyond `±2^250`, where squared
/// distances can overflow) coordinates and coincident nodes (`-0.0` and
/// `0.0` coincide), which the triangulations cannot handle. One
/// `O(n log n)` sort.
///
/// [`BackboneBuilder::build`] and every [`crate::maintenance::MobileBackbone`]
/// operation run it first; callers that build the unit disk graph
/// themselves can run it before that build, whose in-range test
/// overflows on such input.
///
/// # Errors
/// [`BackboneError::InvalidInput`] naming the first offending node.
pub fn validate_positions(points: &[Point]) -> Result<(), BackboneError> {
    if let Some(v) = points.iter().position(|p| !p.is_finite()) {
        return Err(BackboneError::InvalidInput {
            reason: format!("node {v} has non-finite position {:?}", points[v]),
        });
    }
    let too_large = |p: &Point| p.x.abs().max(p.y.abs()) > MAX_COORDINATE;
    if let Some(v) = points.iter().position(too_large) {
        return Err(BackboneError::InvalidInput {
            reason: format!(
                "node {v} has position {:?} beyond ±{MAX_COORDINATE:e}, \
                 where squared distances can overflow",
                points[v]
            ),
        });
    }
    // Adding 0.0 maps -0.0 to 0.0, so the bit patterns compare positions.
    let key = |p: &Point| ((p.x + 0.0).to_bits(), (p.y + 0.0).to_bits());
    let mut keys: Vec<(u64, u64)> = points.iter().map(key).collect();
    keys.sort_unstable();
    let Some(dup) = keys.windows(2).find(|w| w[0] == w[1]).map(|w| w[0]) else {
        return Ok(());
    };
    let nodes: Vec<usize> = (0..points.len())
        .filter(|&v| key(&points[v]) == dup)
        .collect();
    Err(BackboneError::InvalidInput {
        reason: format!("nodes {nodes:?} share position {:?}", points[nodes[0]]),
    })
}

/// Builds [`Backbone`]s from unit disk graphs.
#[derive(Debug, Clone)]
pub struct BackboneBuilder {
    config: BackboneConfig,
}

impl BackboneBuilder {
    /// A builder with the given configuration.
    pub fn new(config: BackboneConfig) -> Self {
        BackboneBuilder { config }
    }

    /// Runs the pipeline on a unit disk graph.
    ///
    /// # Errors
    /// * [`BackboneError::InvalidInput`] when a node position is NaN,
    ///   infinite or has a coordinate beyond ±2^250 (where squared
    ///   distances can overflow), or two nodes share a position,
    /// * [`BackboneError::InvalidRadius`] when `udg` contains an edge
    ///   longer than the configured radius,
    /// * [`BackboneError::Protocol`] when a distributed phase fails to
    ///   converge (indicates a bug, not an input condition).
    pub fn build(&self, udg: &Graph) -> Result<Backbone, BackboneError> {
        validate_positions(udg.points())?;
        for (u, v) in udg.edges() {
            let len = udg.edge_length(u, v);
            if len > self.config.radius {
                return Err(BackboneError::InvalidRadius {
                    radius: self.config.radius,
                    edge_length: len,
                });
            }
        }

        if !self.config.distributed {
            return Ok(Backbone::from_graphs(build_cds(udg, &self.config.rank)));
        }

        // Both protocol stages run over the same radio, and the fault plan
        // carries over between them: a node crashing during the
        // triangulation stage is scheduled relative to the rounds the
        // clustering stage already consumed.
        let mut radio = Radio {
            faults: self.config.faults.clone(),
            reliability: self.config.reliability,
            jitter: None,
        };
        let (cds_graphs, cds_stats, mut report) = run_cds_with(udg, &self.config.rank, &radio)?;
        radio.faults = radio.faults.for_next_stage(report.rounds);
        let (ldel_out, ldel_report) = run_ldel_with(&cds_graphs.icds, self.config.radius, &radio)?;
        report.absorb(&ldel_report);

        let mut backbone = Backbone::from_layers(cds_graphs, ldel_out.ldel);
        backbone.stats = Some(BackboneStats {
            cds: cds_stats,
            ldel: ldel_out.stats,
        });
        backbone.fault_report = (!self.config.faults.is_zero()).then_some(report);
        Ok(backbone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geospan_graph::gen::connected_unit_disk;
    use geospan_graph::planarity::is_plane_embedding;
    use geospan_graph::stats::degree_stats_over;
    use geospan_graph::stretch::{stretch_factors, StretchOptions};

    fn build(seed: u64, distributed: bool) -> (Graph, Backbone) {
        let (_pts, udg, _s) = connected_unit_disk(70, 150.0, 45.0, seed);
        let mut config = BackboneConfig::new(45.0);
        if distributed {
            config = config.distributed();
        }
        let b = BackboneBuilder::new(config).build(&udg).unwrap();
        (udg, b)
    }

    #[test]
    fn planar_backbone() {
        for seed in 0..5 {
            let (_udg, b) = build(seed * 3, false);
            assert!(is_plane_embedding(b.ldel_icds()), "seed {seed}");
        }
    }

    #[test]
    fn backbone_spans_and_connects() {
        for seed in 0..5 {
            let (udg, b) = build(seed * 7 + 1, false);
            assert!(b.ldel_icds_prime().is_connected(), "seed {seed}");
            // Spanner sanity: bounded observed stretch.
            let r = stretch_factors(
                &udg,
                b.ldel_icds_prime(),
                StretchOptions {
                    min_euclidean_separation: 45.0,
                },
            );
            assert_eq!(r.disconnected_pairs, 0, "seed {seed}");
            assert!(r.length_max < 10.0, "seed {seed}: stretch {}", r.length_max);
        }
    }

    #[test]
    fn backbone_degree_is_modest() {
        for seed in 0..5 {
            let (_udg, b) = build(seed * 11 + 2, false);
            let nodes = b.backbone_nodes();
            let s = degree_stats_over(b.ldel_icds(), nodes.iter().copied());
            // The theory guarantees a (large) constant; empirically small.
            assert!(s.max <= 20, "seed {seed}: backbone max degree {}", s.max);
        }
    }

    #[test]
    fn distributed_matches_centralized_pipeline() {
        for seed in 0..3 {
            let (_udg, central) = build(seed * 13 + 3, false);
            let (_udg2, dist) = build(seed * 13 + 3, true);
            assert_eq!(central.roles(), dist.roles(), "seed {seed}");
            let ce: Vec<_> = central.ldel_icds().edges().collect();
            let de: Vec<_> = dist.ldel_icds().edges().collect();
            assert_eq!(ce, de, "seed {seed}");
            assert!(dist.stats().is_some());
            assert!(central.stats().is_none());
        }
    }

    #[test]
    fn per_node_cost_is_constant() {
        let (_udg, b) = build(42, true);
        let stats = b.stats().unwrap();
        let total = stats.total_per_node();
        let max = total.iter().copied().max().unwrap();
        assert!(max <= 150, "per-node cost {max}");
    }

    #[test]
    fn loss_with_retries_reproduces_the_fault_free_backbone() {
        // With a deep retry budget every message eventually lands, so the
        // constructed backbone is identical — only the cost changes.
        let (_pts, udg, _s) = connected_unit_disk(50, 150.0, 45.0, 21);
        let clean = BackboneBuilder::new(BackboneConfig::new(45.0).distributed())
            .build(&udg)
            .unwrap();
        let config = BackboneConfig::new(45.0)
            .with_faults(FaultPlan::new(5).with_loss(0.1))
            .with_reliability(ReliabilityConfig {
                max_retries: 8,
                ack_timeout: 2,
            });
        let faulty = BackboneBuilder::new(config).build(&udg).unwrap();
        let report = faulty.fault_report().expect("fault report present");
        assert!(report.dropped > 0);
        assert!(report.retransmissions > 0);
        assert!(report.crashed.is_empty());
        assert_eq!(faulty.roles(), clean.roles());
        assert_eq!(
            faulty.ldel_icds().edges().collect::<Vec<_>>(),
            clean.ldel_icds().edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn crash_during_construction_spans_the_survivors() {
        use geospan_graph::paths::bfs_hops;
        for seed in 0..3 {
            let (_pts, udg, _s) = connected_unit_disk(60, 150.0, 45.0, seed * 31 + 2);
            let victim = (seed as usize * 17 + 9) % 60;
            let config = BackboneConfig::new(45.0)
                .with_faults(
                    FaultPlan::new(seed + 1)
                        .with_loss(0.1)
                        .with_crash(victim, 3),
                )
                .with_reliability(ReliabilityConfig {
                    max_retries: 8,
                    ack_timeout: 2,
                });
            let b = BackboneBuilder::new(config).build(&udg).unwrap();
            let report = b.fault_report().unwrap();
            assert!(report.crashed.contains(&victim), "seed {seed}");

            // Survivors in one alive-UDG component stay mutually
            // reachable through the alive part of LDel(ICDS').
            let alive = |v: usize| !report.crashed.contains(&v);
            let alive_udg = udg.filter_edges(|u, v| alive(u) && alive(v));
            let routing = b
                .ldel_icds_prime()
                .filter_edges(|u, v| alive(u) && alive(v));
            for comp in alive_udg.components() {
                let members: Vec<usize> = comp.iter().copied().filter(|&v| alive(v)).collect();
                if members.len() < 2 {
                    continue;
                }
                let hops = bfs_hops(&routing, members[0]);
                for &v in &members {
                    assert!(
                        hops[v].is_some(),
                        "seed {seed}: survivor {v} unreachable in routing graph"
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_radius_detected() {
        let (_pts, udg, _s) = connected_unit_disk(20, 100.0, 50.0, 0);
        let err = BackboneBuilder::new(BackboneConfig::new(10.0))
            .build(&udg)
            .unwrap_err();
        assert!(matches!(err, BackboneError::InvalidRadius { .. }));
        assert!(err.to_string().contains("exceeding"));
    }

    #[test]
    fn invalid_positions_rejected() {
        let builder = BackboneBuilder::new(BackboneConfig::new(10.0));
        let bad = |pts: Vec<Point>| match builder.build(&Graph::new(pts)) {
            Err(BackboneError::InvalidInput { reason }) => reason,
            other => panic!("expected InvalidInput, got {other:?}"),
        };
        let p = |x, y| Point::new(x, y);
        assert!(bad(vec![p(0.0, 0.0), p(f64::NAN, 1.0)]).contains("node 1"));
        assert!(bad(vec![p(f64::INFINITY, 0.0)]).contains("non-finite"));
        let dup = bad(vec![p(1.0, 2.0), p(3.0, 4.0), p(1.0, 2.0)]);
        assert!(dup.contains("[0, 2]"), "{dup}");
        assert!(bad(vec![p(0.0, 5.0), p(-0.0, 5.0)]).contains("share position"));
        let huge = bad(vec![p(0.0, 0.0), p(1.0, -1e300)]);
        assert!(
            huge.contains("node 1") && huge.contains("overflow"),
            "{huge}"
        );
        assert!(bad(vec![p(2.0 * MAX_COORDINATE, 0.0)]).contains("node 0"));
        assert!(builder
            .build(&Graph::new(vec![
                p(-MAX_COORDINATE, 0.0),
                p(MAX_COORDINATE, 0.0)
            ]))
            .is_ok());
        assert!(builder
            .build(&Graph::new(vec![p(0.0, 0.0), p(0.0, 1.0)]))
            .is_ok());
    }

    #[test]
    fn config_builder_methods() {
        let c = BackboneConfig::new(2.0)
            .distributed()
            .with_rank(ClusterRank::HighestDegree);
        assert!(c.distributed);
        assert_eq!(c.rank, ClusterRank::HighestDegree);
        assert_eq!(c.radius, 2.0);
        let d = BackboneConfig::default();
        assert_eq!(d.radius, 1.0);
        assert!(d.faults.is_zero());
        let z = BackboneConfig::new(2.0).with_faults(FaultPlan::new(9));
        assert!(!z.distributed, "a zero plan keeps the centralized build");
    }
}
