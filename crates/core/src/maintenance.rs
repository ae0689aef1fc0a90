//! Backbone maintenance under node mobility and churn.
//!
//! The paper's deployment claim (§I): "our algorithms do not need to
//! update the network topology when nodes are moving as long as no link
//! used in the final network topology is broken. … although the actual
//! physical deployment is no longer a planar graph when nodes are moving,
//! the logical network topology is still a planar graph."
//!
//! [`MobileBackbone`] packages that policy: it owns the current positions
//! and backbone, accepts position updates and membership changes
//! (join/leave/rejoin), and rebuilds only when a *used* link exceeds the
//! transmission radius or the clustering itself changes shape.
//!
//! When maintenance *is* needed, a full reconstruction is the last
//! resort, not the first: damage perturbs the clustering only inside a
//! bounded neighborhood (coverage is a 1-hop property; connector
//! elections reach 3 hops), so the repair re-derives roles and re-runs
//! elections only around the damage and **splices** the results into the
//! kept structure:
//!
//! * elections whose pair touches the damaged scope are recomputed on
//!   the *old* state and subtracted edge-for-edge (they are stale);
//! * elections near a subtracted edge but outside the scope are re-run
//!   on the old state to restore any shared edge the subtraction took
//!   with it (the *rescue* pass);
//! * elections touching the scope are re-run on the *new* state and
//!   their edges added (the *fresh* pass).
//!
//! Because connector elections are per-pair and independent, the three
//! passes reproduce exactly what a from-scratch election would produce —
//! the property the churn test layer pins with [`rebuild_oracle`]
//! (incremental repair must equal a full rebuild that ranks surviving
//! dominators first). Only when the spliced structure fails the paper's
//! guarantees does the backbone get rebuilt from scratch. The verdict is
//! [`guarantees_hold`], an `O(n + m)` check plus the planarity test;
//! stretch is measured only by [`verify`](crate::verify).
//!
//! Departed nodes keep their index (identifiers stay stable for the
//! application layer) but are *parked*: moved to a reserved strip far
//! outside the field, spaced more than one radius apart so that no two
//! parked nodes ever form a ghost link, and demoted out of every role.
//!
//! [`rebuild_oracle`]: MobileBackbone::rebuild_oracle

use std::collections::BTreeSet;

use geospan_cds::{
    assemble, cluster, find_connectors, find_connectors_for_pairs,
    find_connectors_for_pairs_excluding, ClusterRank, Clustering, ConnectorResult, Role,
};
use geospan_geometry::Point;
use geospan_graph::collections::VecSet;
use geospan_graph::gen::UnitDiskBuilder;
use geospan_graph::Graph;

use crate::backbone::validate_positions;
use crate::{guarantees_hold, Backbone, BackboneBuilder, BackboneConfig, BackboneError};

/// How a maintenance operation restored the backbone invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintenanceAction {
    /// Nothing was damaged; the logical topology was kept verbatim (or
    /// extended by a constant-time attach).
    Kept,
    /// Damage was confined to a bounded region: roles and elections were
    /// re-derived only inside the listed neighborhood.
    LocalRepair {
        /// The affected nodes, ascending — the only nodes whose state
        /// the repair touched.
        touched: Vec<usize>,
    },
    /// The backbone was reconstructed from scratch.
    FullRebuild {
        /// Why the localized path was not taken (or did not suffice).
        reason: String,
    },
}

/// What a maintenance operation did to the backbone.
#[derive(Debug, Clone, PartialEq)]
pub struct MaintenanceReport {
    /// Logical links whose endpoints moved out of range.
    pub broken_links: Vec<(usize, usize)>,
    /// Whether the backbone was **fully** rebuilt (localized repair does
    /// not count).
    pub rebuilt: bool,
    /// Which path restored the invariants.
    pub action: MaintenanceAction,
}

/// Where a departed node is parked: a strip far outside any field, with
/// slots spaced more than one radius apart so no two parked nodes are
/// ever within range of each other (or of anything else).
fn park(radius: f64, v: usize) -> Point {
    Point::new(1e9 + v as f64 * (radius + 1.0), 1e9)
}

/// A backbone plus the mobility and churn policy around it.
///
/// # Example
/// ```
/// use geospan_core::maintenance::MobileBackbone;
/// use geospan_core::BackboneConfig;
/// use geospan_graph::gen::uniform_points;
///
/// let pts = uniform_points(50, 150.0, 3);
/// let mut mobile = MobileBackbone::new(pts.clone(), BackboneConfig::new(60.0)).unwrap();
/// // A no-op update never rebuilds.
/// let report = mobile.update_positions(pts).unwrap();
/// assert!(!report.rebuilt);
/// ```
#[derive(Debug, Clone)]
pub struct MobileBackbone {
    config: BackboneConfig,
    points: Vec<Point>,
    udg: Graph,
    backbone: Backbone,
    departed: BTreeSet<usize>,
    repair_enabled: bool,
    rebuilds: usize,
    local_repairs: usize,
    updates: usize,
}

impl MobileBackbone {
    /// Builds the initial backbone for `points`.
    ///
    /// # Errors
    /// Propagates [`BackboneError`] from the initial construction.
    pub fn new(points: Vec<Point>, config: BackboneConfig) -> Result<Self, BackboneError> {
        Self::with_departed(points, config, BTreeSet::new())
    }

    /// Builds a backbone where the nodes in `departed` start out powered
    /// down (parked, no links, no role) — the churn driver uses this to
    /// start a run whose joiners have pre-assigned indices.
    ///
    /// # Errors
    /// Propagates [`BackboneError`] from the initial construction.
    ///
    /// # Panics
    /// Panics if a departed index is out of bounds.
    pub fn with_departed(
        mut points: Vec<Point>,
        config: BackboneConfig,
        departed: BTreeSet<usize>,
    ) -> Result<Self, BackboneError> {
        for &d in &departed {
            assert!(d < points.len(), "departed node {d} out of bounds");
            points[d] = park(config.radius, d);
        }
        let udg = UnitDiskBuilder::new(config.radius).build(&points);
        let mut backbone = BackboneBuilder::new(config.clone()).build(&udg)?;
        backbone.demote_isolated(departed.iter().copied());
        Ok(MobileBackbone {
            config,
            points,
            udg,
            backbone,
            departed,
            repair_enabled: true,
            rebuilds: 0,
            local_repairs: 0,
            updates: 0,
        })
    }

    /// The current backbone (valid for the most recent positions).
    pub fn backbone(&self) -> &Backbone {
        &self.backbone
    }

    /// The current physical unit disk graph.
    pub fn udg(&self) -> &Graph {
        &self.udg
    }

    /// The current node positions (departed nodes sit at their parking
    /// slot).
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Indices of currently departed (powered-down) nodes.
    pub fn departed(&self) -> &BTreeSet<usize> {
        &self.departed
    }

    /// Enables or disables localized repair. When disabled, every
    /// maintenance operation that would have repaired in place performs
    /// a full rebuild instead — the baseline arm of the churn benchmark.
    pub fn set_local_repair(&mut self, enabled: bool) {
        self.repair_enabled = enabled;
    }

    /// Number of **full** rebuilds performed so far.
    pub fn rebuild_count(&self) -> usize {
        self.rebuilds
    }

    /// Number of localized repairs performed so far.
    pub fn local_repair_count(&self) -> usize {
        self.local_repairs
    }

    /// Number of maintenance operations applied so far.
    pub fn update_count(&self) -> usize {
        self.updates
    }

    /// A node powers down. A plain dominatee leaves with at most a
    /// membership re-election around its dominators; losing a backbone
    /// node triggers the localized repair.
    ///
    /// The departed node keeps its index (with no links) so that
    /// identifiers remain stable for the application layer; it can come
    /// back later via [`rejoin_node`](Self::rejoin_node).
    ///
    /// # Errors
    /// Propagates [`BackboneError`] from a rebuild.
    ///
    /// # Panics
    /// Panics if `v` is out of bounds or already departed.
    pub fn remove_node(&mut self, v: usize) -> Result<MaintenanceReport, BackboneError> {
        assert!(v < self.points.len(), "node {v} out of bounds");
        assert!(!self.departed.contains(&v), "node {v} already departed");
        self.updates += 1;
        let was_backbone = self.backbone.cds_graphs().is_backbone(v);
        let broken_links: Vec<(usize, usize)> = self
            .backbone
            .ldel_icds_prime()
            .neighbors(v)
            .iter()
            .map(|&w| (v.min(w), v.max(w)))
            .collect();
        let old_udg = std::mem::replace(&mut self.udg, Graph::new(Vec::new()));
        self.points[v] = park(self.config.radius, v);
        self.departed.insert(v);
        self.udg = UnitDiskBuilder::new(self.config.radius).build(&self.points);
        if was_backbone {
            // A dead backbone node invalidates every election its old
            // neighborhood took part in: seed the repair with all its
            // old physical neighbors, not just the logical ones.
            let seeds: BTreeSet<usize> = old_udg
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&w| w != v)
                .collect();
            let action = self.repair_or_rebuild(&old_udg, &seeds, Some(v))?;
            return Ok(MaintenanceReport {
                broken_links,
                rebuilt: matches!(action, MaintenanceAction::FullRebuild { .. }),
                action,
            });
        }
        // A departing dominatee cannot change any role (coverage is a
        // 1-hop property and it covered nobody), but it may have been a
        // losing candidate in the elections around its dominators — so
        // those elections are re-checked, and only if all of them stand
        // is the node merely clipped out.
        let old_clustering = self.current_clustering();
        let mut new_clustering = old_clustering.clone();
        new_clustering.dominators_of[v].clear();
        let scope: VecSet = old_clustering.dominators_of[v].iter().copied().collect();
        let action = self.resync_membership(
            &old_udg,
            &old_clustering,
            &new_clustering,
            &scope,
            Some(v),
            v,
            |b| b.clip_dominatee(v),
        )?;
        Ok(MaintenanceReport {
            broken_links,
            rebuilt: matches!(action, MaintenanceAction::FullRebuild { .. }),
            action,
        })
    }

    /// A node powers up at `position` and receives the next free index.
    ///
    /// If the newcomer lands within range of an existing dominator it
    /// joins as a dominatee; the elections around those dominators are
    /// re-checked (the newcomer may be a better connector candidate) and
    /// spliced in if any changed. Otherwise (it extends the coverage
    /// area, or bridges components) the backbone is rebuilt.
    ///
    /// Returns the new node's index and the maintenance report.
    ///
    /// # Errors
    /// [`BackboneError::InvalidInput`] when `position` is non-finite or
    /// coincides with another node (the backbone is left unchanged);
    /// otherwise propagates [`BackboneError`] from a rebuild.
    pub fn add_node(
        &mut self,
        position: Point,
    ) -> Result<(usize, MaintenanceReport), BackboneError> {
        let mut points = self.points.clone();
        points.push(position);
        validate_positions(&points)?;
        self.updates += 1;
        let old_udg = std::mem::replace(&mut self.udg, Graph::new(Vec::new()));
        self.points = points;
        let v = self.points.len() - 1;
        self.udg = UnitDiskBuilder::new(self.config.radius).build(&self.points);
        let mut doms: Vec<usize> = self
            .udg
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&w| self.backbone.cds_graphs().roles[w] == Role::Dominator)
            .collect();
        doms.sort_unstable();
        if doms.is_empty() {
            // The newcomer extends coverage (or bridges components): the
            // clustering itself changes, so rebuild.
            self.full_rebuild()?;
            return Ok((
                v,
                MaintenanceReport {
                    broken_links: Vec::new(),
                    rebuilt: true,
                    action: MaintenanceAction::FullRebuild {
                        reason: format!("newcomer {v} is uncovered: the clustering changes"),
                    },
                },
            ));
        }
        let old_clustering = self.current_clustering();
        let mut new_clustering = old_clustering.clone();
        new_clustering.is_dominator.push(false);
        new_clustering.dominators_of.push(doms.clone());
        let scope: VecSet = doms.iter().copied().collect();
        let action = self.resync_membership(
            &old_udg,
            &old_clustering,
            &new_clustering,
            &scope,
            None,
            v,
            |b| {
                let attached = b.attach_dominatee(position, &doms);
                debug_assert_eq!(attached, v);
            },
        )?;
        Ok((
            v,
            MaintenanceReport {
                broken_links: Vec::new(),
                rebuilt: matches!(action, MaintenanceAction::FullRebuild { .. }),
                action,
            },
        ))
    }

    /// A previously departed node powers back up at `position`, keeping
    /// its old index. Same policy as [`add_node`](Self::add_node):
    /// covered rejoiners splice in locally, uncovered ones force a
    /// rebuild.
    ///
    /// # Errors
    /// [`BackboneError::InvalidInput`] when `position` is non-finite or
    /// coincides with another node (the backbone is left unchanged);
    /// otherwise propagates [`BackboneError`] from a rebuild.
    ///
    /// # Panics
    /// Panics if `v` is not currently departed.
    pub fn rejoin_node(
        &mut self,
        v: usize,
        position: Point,
    ) -> Result<MaintenanceReport, BackboneError> {
        assert!(self.departed.contains(&v), "node {v} is not departed");
        let mut points = self.points.clone();
        points[v] = position;
        validate_positions(&points)?;
        self.updates += 1;
        let old_udg = std::mem::replace(&mut self.udg, Graph::new(Vec::new()));
        self.points = points;
        self.departed.remove(&v);
        self.udg = UnitDiskBuilder::new(self.config.radius).build(&self.points);
        let mut doms: Vec<usize> = self
            .udg
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&w| self.backbone.cds_graphs().roles[w] == Role::Dominator)
            .collect();
        doms.sort_unstable();
        if doms.is_empty() {
            self.full_rebuild()?;
            return Ok(MaintenanceReport {
                broken_links: Vec::new(),
                rebuilt: true,
                action: MaintenanceAction::FullRebuild {
                    reason: format!("rejoined node {v} is uncovered: the clustering changes"),
                },
            });
        }
        let old_clustering = self.current_clustering();
        let mut new_clustering = old_clustering.clone();
        new_clustering.dominators_of[v] = doms.clone();
        let scope: VecSet = doms.iter().copied().collect();
        let action = self.resync_membership(
            &old_udg,
            &old_clustering,
            &new_clustering,
            &scope,
            None,
            v,
            |b| b.reattach_dominatee(v, &doms),
        )?;
        Ok(MaintenanceReport {
            broken_links: Vec::new(),
            rebuilt: matches!(action, MaintenanceAction::FullRebuild { .. }),
            action,
        })
    }

    /// Applies new positions. The backbone is repaired only when a
    /// logical link broke; otherwise the logical topology is kept
    /// verbatim (the paper's maintenance policy).
    ///
    /// # Errors
    /// [`BackboneError::InvalidInput`] when a position is non-finite or
    /// two nodes coincide (the backbone is left unchanged); otherwise
    /// propagates [`BackboneError`] from a rebuild.
    ///
    /// # Panics
    /// Panics if the number of positions changes (nodes joining/leaving
    /// is a different operation from movement) or if a departed node's
    /// position changes.
    pub fn update_positions(
        &mut self,
        new_points: Vec<Point>,
    ) -> Result<MaintenanceReport, BackboneError> {
        assert_eq!(
            new_points.len(),
            self.points.len(),
            "update_positions handles movement, not membership changes"
        );
        for &d in &self.departed {
            assert_eq!(
                new_points[d], self.points[d],
                "departed node {d} cannot move"
            );
        }
        validate_positions(&new_points)?;
        self.updates += 1;
        let broken_links: Vec<(usize, usize)> = self
            .backbone
            .ldel_icds_prime()
            .edges()
            .filter(|&(u, v)| new_points[u].distance(new_points[v]) > self.config.radius)
            .collect();
        if broken_links.is_empty() {
            // No used link broke: keep the logical topology — and the
            // UDG it was built from — verbatim.
            self.points = new_points;
            return Ok(MaintenanceReport {
                broken_links,
                rebuilt: false,
                action: MaintenanceAction::Kept,
            });
        }
        let old_udg = std::mem::replace(&mut self.udg, Graph::new(Vec::new()));
        self.points = new_points;
        self.udg = UnitDiskBuilder::new(self.config.radius).build(&self.points);
        // Seed the repair with every endpoint whose physical adjacency
        // changed since the backbone was built — the old UDG is exactly
        // the state the kept elections were computed on, so the edge
        // diff captures all accumulated drift, not just this step's.
        let mut seeds: BTreeSet<usize> = BTreeSet::new();
        for (u, v) in old_udg.edges() {
            if !self.udg.has_edge(u, v) {
                seeds.insert(u);
                seeds.insert(v);
            }
        }
        for (u, v) in self.udg.edges() {
            if !old_udg.has_edge(u, v) {
                seeds.insert(u);
                seeds.insert(v);
            }
        }
        let action = self.repair_or_rebuild(&old_udg, &seeds, None)?;
        Ok(MaintenanceReport {
            broken_links,
            rebuilt: matches!(action, MaintenanceAction::FullRebuild { .. }),
            action,
        })
    }

    /// What a from-scratch rebuild **must** produce for the current node
    /// set if the incremental path is honest: the clustering ranks the
    /// given `incumbents` (dominators that survived the last event)
    /// above everyone else, ties by lowest id — exactly the order in
    /// which the repair keeps incumbent dominators and then promotes
    /// uncovered nodes ascending. With no incumbents this degenerates to
    /// the plain lowest-id construction.
    ///
    /// Departed nodes are parked and isolated; the greedy clustering
    /// would crown each its own dominator, so they are purged from the
    /// result the same way the live path demotes them.
    ///
    /// This is the oracle the churn proptest layer compares every
    /// incrementally repaired backbone against, role-for-role and
    /// edge-for-edge.
    pub fn rebuild_oracle(&self, incumbents: &[usize]) -> Backbone {
        let n = self.udg.node_count();
        let mut weights = vec![0u64; n];
        for &v in incumbents {
            if !self.departed.contains(&v) {
                weights[v] = 1;
            }
        }
        let mut clustering = cluster(&self.udg, &ClusterRank::Weight(weights));
        if !self.departed.is_empty() {
            clustering.dominators.retain(|d| !self.departed.contains(d));
            for &d in &self.departed {
                clustering.is_dominator[d] = false;
                clustering.dominators_of[d].clear();
            }
        }
        let connectors = find_connectors(&self.udg, &clustering);
        Backbone::from_graphs(assemble(&self.udg, &clustering, &connectors))
    }

    /// The clustering implied by the current backbone's roles.
    fn current_clustering(&self) -> Clustering {
        let g = self.backbone.cds_graphs();
        Clustering {
            dominators: g.dominators.clone(),
            is_dominator: g.roles.iter().map(|r| *r == Role::Dominator).collect(),
            dominators_of: g.dominators_of.clone(),
        }
    }

    /// The current backbone's election edges as a set.
    fn cds_edges(&self) -> BTreeSet<(usize, usize)> {
        self.backbone.cds_graphs().cds.edges().collect()
    }

    /// Reconstructs from scratch on the current UDG, keeping departed
    /// nodes demoted.
    fn full_rebuild(&mut self) -> Result<(), BackboneError> {
        let mut b = BackboneBuilder::new(self.config.clone()).build(&self.udg)?;
        b.demote_isolated(self.departed.iter().copied());
        self.backbone = b;
        self.rebuilds += 1;
        Ok(())
    }

    /// The membership fast path shared by dominatee leave, covered join
    /// and covered rejoin: no role changes, but the elections around the
    /// node's dominators (`scope`) are re-checked. If they all stand the
    /// cheap constant-time structural edit is applied; if any changed,
    /// the splice result is assembled and verified.
    #[allow(clippy::too_many_arguments)]
    fn resync_membership(
        &mut self,
        old_udg: &Graph,
        old_clustering: &Clustering,
        new_clustering: &Clustering,
        scope: &VecSet,
        dead: Option<usize>,
        node: usize,
        cheap: impl FnOnce(&mut Backbone),
    ) -> Result<MaintenanceAction, BackboneError> {
        if !self.repair_enabled {
            self.full_rebuild()?;
            return Ok(MaintenanceAction::FullRebuild {
                reason: "local repair disabled".into(),
            });
        }
        let old_edges = self.cds_edges();
        let is_dead = |w: usize| Some(w) == dead;
        let result = splice_elections(
            &self.udg,
            old_udg,
            &old_edges,
            old_clustering,
            new_clustering,
            scope,
            scope,
            &is_dead,
        );
        let new_edges: BTreeSet<(usize, usize)> = result.edges.iter().copied().collect();
        if new_edges == old_edges && result.connectors == self.backbone.cds_graphs().connectors {
            cheap(&mut self.backbone);
            return Ok(MaintenanceAction::Kept);
        }
        let repaired = Backbone::from_graphs(assemble(&self.udg, new_clustering, &result));
        if guarantees_hold(&repaired, &self.udg) {
            let mut touched: BTreeSet<usize> = old_edges
                .symmetric_difference(&new_edges)
                .flat_map(|&(a, b)| [a, b])
                .collect();
            touched.insert(node);
            self.backbone = repaired;
            self.local_repairs += 1;
            Ok(MaintenanceAction::LocalRepair {
                touched: touched.into_iter().collect(),
            })
        } else {
            self.full_rebuild()?;
            Ok(MaintenanceAction::FullRebuild {
                reason: "membership re-election failed verification".into(),
            })
        }
    }

    /// Attempts the localized repair around `seeds`; falls back to a full
    /// reconstruction when the repaired structure fails verification (or
    /// when localized repair is disabled).
    fn repair_or_rebuild(
        &mut self,
        old_udg: &Graph,
        seeds: &BTreeSet<usize>,
        dead: Option<usize>,
    ) -> Result<MaintenanceAction, BackboneError> {
        if self.repair_enabled {
            if let Some((backbone, touched)) = self.try_local_repair(old_udg, seeds, dead) {
                self.backbone = backbone;
                self.local_repairs += 1;
                return Ok(MaintenanceAction::LocalRepair { touched });
            }
        }
        self.full_rebuild()?;
        Ok(MaintenanceAction::FullRebuild {
            reason: if self.repair_enabled {
                "localized repair failed verification".into()
            } else {
                "local repair disabled".into()
            },
        })
    }

    /// The localized repair: re-derives roles inside the 2-hop
    /// neighborhood of `seeds` and splices the affected elections.
    ///
    /// Soundness rests on locality of the two sub-structures:
    /// * **coverage** is a 1-hop property, so a node whose coverage
    ///   changed is adjacent to a changed link — its endpoints are
    ///   seeds;
    /// * **elections** for a dominator pair only involve nodes within
    ///   one hop of the pair, so elections whose outcome could have
    ///   changed touch a dominator within the 2-hop neighborhood.
    ///
    /// Promoting an uncovered node preserves global MIS independence
    /// (uncovered means: no adjacent dominator). The one global hazard —
    /// two old dominators drifting into adjacency — and any residual
    /// damage are caught by re-verifying the paper's guarantees; `None`
    /// means the caller must rebuild.
    fn try_local_repair(
        &self,
        old_udg: &Graph,
        seeds: &BTreeSet<usize>,
        dead: Option<usize>,
    ) -> Option<(Backbone, Vec<usize>)> {
        let udg = &self.udg;
        let n = udg.node_count();
        let old = self.backbone.cds_graphs();
        if old.roles.len() != n {
            return None; // membership changed since the last build
        }
        let is_dead = |w: usize| Some(w) == dead;

        // The affected region: seeds plus their 2-hop neighborhood.
        let mut affected: BTreeSet<usize> = seeds.clone();
        for _ in 0..2 {
            for u in affected.clone() {
                affected.extend(udg.neighbors(u).iter().copied());
            }
        }
        affected.retain(|&w| !is_dead(w) && !self.departed.contains(&w));

        // Re-derive roles inside the region; everything else is kept.
        let mut is_dominator: Vec<bool> = (0..n)
            .map(|w| old.roles[w] == Role::Dominator && !is_dead(w))
            .collect();
        let mut dominators_of = old.dominators_of.clone();
        if let Some(d) = dead {
            dominators_of[d].clear();
        }
        for &w in &affected {
            if is_dominator[w] {
                continue;
            }
            dominators_of[w] = udg
                .neighbors(w)
                .iter()
                .copied()
                .filter(|&x| is_dominator[x])
                .collect();
            dominators_of[w].sort_unstable();
        }
        // Promote uncovered nodes (ascending, matching the lowest-id
        // election): no adjacent dominator means the promotion keeps the
        // dominator set independent.
        for &w in &affected {
            if is_dominator[w] || !dominators_of[w].is_empty() {
                continue;
            }
            is_dominator[w] = true;
            dominators_of[w].clear();
            for &x in udg.neighbors(w) {
                if !is_dominator[x] && affected.contains(&x) {
                    let doms = &mut dominators_of[x];
                    if let Err(i) = doms.binary_search(&w) {
                        doms.insert(i, w);
                    }
                }
            }
        }
        // Independence can only break where a node moved, i.e. inside
        // the region — anywhere it does, the clustering itself is stale
        // and the repair is off the table.
        for &d in &affected {
            if is_dominator[d] && udg.neighbors(d).iter().any(|&x| is_dominator[x]) {
                return None;
            }
        }

        let old_clustering = self.current_clustering();
        let clustering = Clustering {
            dominators: (0..n).filter(|&w| is_dominator[w]).collect(),
            is_dominator,
            dominators_of,
        };

        // Stale elections: every pair touching an old dominator in the
        // region (including the dead one — its elections died with it).
        let mut old_scope: VecSet = affected
            .iter()
            .copied()
            .filter(|&w| old_clustering.is_dominator[w])
            .collect();
        if let Some(d) = dead {
            if old_clustering.is_dominator[d] {
                old_scope.insert(d);
            }
        }
        let new_scope: VecSet = affected
            .iter()
            .copied()
            .filter(|&w| clustering.is_dominator[w])
            .collect();
        let old_edges = self.cds_edges();
        let result = splice_elections(
            udg,
            old_udg,
            &old_edges,
            &old_clustering,
            &clustering,
            &old_scope,
            &new_scope,
            &is_dead,
        );
        let repaired = Backbone::from_graphs(assemble(udg, &clustering, &result));
        if !guarantees_hold(&repaired, udg) {
            return None;
        }
        Some((repaired, affected.into_iter().collect()))
    }
}

/// Splices re-run elections into a kept edge set.
///
/// Elections are per-pair and independent, and pairs partition into
/// those touching a scope and those not (`find_connectors_for_pairs` ∪
/// `find_connectors_for_pairs_excluding` = all pairs — tested in the
/// cds crate). The splice exploits that:
///
/// 1. **subtract** — re-run, on the *old* state, every election whose
///    pair touches `old_scope`; their edges are stale, remove them.
/// 2. **rescue** — an edge can be shared between a stale election and a
///    valid out-of-scope one; re-run, on the old state, the elections of
///    dominators within one old hop of a subtracted edge (minus the
///    scope) and restore their edges.
/// 3. **filter** — drop edges with dead endpoints, edges no longer in
///    the new UDG, and dominator–dominator edges (a kept edge whose
///    endpoint got promoted belongs to a fresh election now).
/// 4. **fresh** — re-run, on the *new* state, every election touching
///    `new_scope` and add its edges.
///
/// The final connectors are exactly the non-dominator endpoints of the
/// final edges (every election winner contributes an incident edge).
#[allow(clippy::too_many_arguments)]
fn splice_elections(
    new_udg: &Graph,
    old_udg: &Graph,
    old_edges: &BTreeSet<(usize, usize)>,
    old_clustering: &Clustering,
    new_clustering: &Clustering,
    old_scope: &VecSet,
    new_scope: &VecSet,
    is_dead: &dyn Fn(usize) -> bool,
) -> ConnectorResult {
    let stale = find_connectors_for_pairs(old_udg, old_clustering, old_scope);

    let mut rescue_scope = VecSet::new();
    for &(a, b) in &stale.edges {
        for e in [a, b] {
            if old_clustering.is_dominator[e] && !old_scope.contains(e) {
                rescue_scope.insert(e);
            }
            for &d in old_udg.neighbors(e) {
                if old_clustering.is_dominator[d] && !old_scope.contains(d) {
                    rescue_scope.insert(d);
                }
            }
        }
    }
    let rescue =
        find_connectors_for_pairs_excluding(old_udg, old_clustering, &rescue_scope, old_scope);

    let fresh = find_connectors_for_pairs(new_udg, new_clustering, new_scope);

    let mut edges = old_edges.clone();
    for e in &stale.edges {
        edges.remove(e);
    }
    edges.extend(rescue.edges.iter().copied());
    edges.retain(|&(a, b)| {
        if is_dead(a) || is_dead(b) || !new_udg.has_edge(a, b) {
            return false;
        }
        !(new_clustering.is_dominator[a] && new_clustering.is_dominator[b])
    });
    edges.extend(fresh.edges.iter().copied());

    let connectors: BTreeSet<usize> = edges
        .iter()
        .flat_map(|&(a, b)| [a, b])
        .filter(|&e| !new_clustering.is_dominator[e])
        .collect();
    ConnectorResult {
        connectors: connectors.into_iter().collect(),
        edges: edges.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geospan_graph::gen::connected_unit_disk;
    use geospan_graph::planarity::is_plane_embedding;

    fn start(seed: u64) -> MobileBackbone {
        let (pts, _udg, _s) = connected_unit_disk(60, 150.0, 50.0, seed);
        MobileBackbone::new(pts, BackboneConfig::new(50.0)).unwrap()
    }

    /// Roles + election edges of two backbones must coincide.
    fn assert_same_structure(a: &Backbone, b: &Backbone, what: &str) {
        assert_eq!(a.cds_graphs().roles, b.cds_graphs().roles, "{what}: roles");
        let ea: Vec<_> = a.cds_graphs().cds.edges().collect();
        let eb: Vec<_> = b.cds_graphs().cds.edges().collect();
        assert_eq!(ea, eb, "{what}: election edges");
    }

    #[test]
    fn small_moves_keep_the_backbone() {
        let mut m = start(1);
        let before: Vec<_> = m.backbone().ldel_icds().edges().collect();
        // Nudge every node by far less than the link slack.
        let nudged: Vec<Point> = m
            .points()
            .iter()
            .enumerate()
            .map(|(i, p)| Point::new(p.x + 1e-6 * i as f64, p.y - 1e-6))
            .collect();
        let report = m.update_positions(nudged).unwrap();
        assert!(!report.rebuilt);
        assert!(report.broken_links.is_empty());
        let after: Vec<_> = m.backbone().ldel_icds().edges().collect();
        assert_eq!(before, after, "logical topology must be untouched");
        assert_eq!(m.rebuild_count(), 0);
        assert_eq!(m.update_count(), 1);
    }

    #[test]
    fn breaking_a_used_link_repairs_locally() {
        let mut m = start(2);
        // Teleport one backbone node far away: its links must break.
        let victim = m.backbone().backbone_nodes()[0];
        let mut pts = m.points().to_vec();
        pts[victim] = Point::new(pts[victim].x + 500.0, pts[victim].y);
        let report = m.update_positions(pts).unwrap();
        assert!(!report.broken_links.is_empty());
        assert!(report
            .broken_links
            .iter()
            .all(|&(u, v)| u == victim || v == victim));
        // Bounded damage heals in place — no full reconstruction.
        assert!(!report.rebuilt);
        assert!(matches!(
            report.action,
            MaintenanceAction::LocalRepair { .. }
        ));
        assert_eq!(m.rebuild_count(), 0);
        assert_eq!(m.local_repair_count(), 1);
        // The repaired backbone is valid for the new positions.
        assert!(crate::verify(m.backbone(), m.udg(), 50.0).all_ok());
        for (u, v) in m.backbone().ldel_icds_prime().edges() {
            assert!(m.points()[u].distance(m.points()[v]) <= 50.0);
        }
    }

    #[test]
    fn local_repair_touches_only_the_two_hop_neighborhood() {
        let mut m = start(2);
        let victim = m.backbone().backbone_nodes()[0];
        let old_udg = m.udg().clone();
        let mut pts = m.points().to_vec();
        pts[victim] = Point::new(pts[victim].x + 500.0, pts[victim].y);
        let report = m.update_positions(pts).unwrap();
        let MaintenanceAction::LocalRepair { touched } = &report.action else {
            panic!("expected a local repair, got {:?}", report.action);
        };
        // Recompute the allowed region: endpoints of the UDG edge diff
        // plus their 2-hop neighborhood in the post-move UDG.
        let mut allowed: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        for (u, v) in old_udg.edges() {
            if !m.udg().has_edge(u, v) {
                allowed.extend([u, v]);
            }
        }
        for (u, v) in m.udg().edges() {
            if !old_udg.has_edge(u, v) {
                allowed.extend([u, v]);
            }
        }
        for _ in 0..2 {
            for u in allowed.clone() {
                allowed.extend(m.udg().neighbors(u).iter().copied());
            }
        }
        assert!(!touched.is_empty());
        for w in touched {
            assert!(allowed.contains(w), "repair touched distant node {w}");
        }
        // Roles outside the region are untouched by construction; spot
        // check that far nodes kept their role.
        assert!(crate::verify(m.backbone(), m.udg(), 50.0).all_ok());
    }

    #[test]
    fn repair_after_move_matches_rebuild_oracle() {
        let mut m = start(2);
        let incumbents = m.backbone().cds_graphs().dominators.clone();
        let victim = m.backbone().backbone_nodes()[0];
        let mut pts = m.points().to_vec();
        pts[victim] = Point::new(pts[victim].x + 500.0, pts[victim].y);
        let report = m.update_positions(pts).unwrap();
        assert!(matches!(
            report.action,
            MaintenanceAction::LocalRepair { .. }
        ));
        let oracle = m.rebuild_oracle(&incumbents);
        assert_same_structure(m.backbone(), &oracle, "post-teleport repair");
    }

    #[test]
    fn oracle_without_incumbents_is_the_plain_rebuild() {
        let m = start(3);
        let oracle = m.rebuild_oracle(&[]);
        assert_same_structure(m.backbone(), &oracle, "fresh build");
    }

    #[test]
    fn dominatee_leaves_without_rebuild() {
        let mut m = start(5);
        // Find a plain dominatee (not a connector).
        let v = (0..m.points().len())
            .find(|&v| m.backbone().roles()[v] == crate::Role::Dominatee)
            .expect("some dominatee exists");
        let backbone_edges_before: Vec<_> = m.backbone().ldel_icds().edges().collect();
        let report = m.remove_node(v).unwrap();
        assert!(!report.rebuilt);
        assert!(!report.broken_links.is_empty()); // lost its dominator links
        assert_eq!(m.rebuild_count(), 0);
        // The backbone core is untouched; v is isolated in the prime graph.
        let backbone_edges_after: Vec<_> = m.backbone().ldel_icds().edges().collect();
        assert_eq!(backbone_edges_before, backbone_edges_after);
        assert_eq!(m.backbone().ldel_icds_prime().degree(v), 0);
        assert!(m.departed().contains(&v));
    }

    #[test]
    fn backbone_node_leaving_heals_locally() {
        let mut m = start(6);
        let v = m.backbone().backbone_nodes()[0];
        let report = m.remove_node(v).unwrap();
        // Death of a backbone node is bounded damage: the 2-hop repair
        // re-elects around the hole instead of rebuilding everything.
        assert!(!report.rebuilt);
        assert!(matches!(
            report.action,
            MaintenanceAction::LocalRepair { .. }
        ));
        assert_eq!(m.rebuild_count(), 0);
        assert_eq!(m.local_repair_count(), 1);
        assert!(is_plane_embedding(m.backbone().ldel_icds()));
        assert!(crate::verify(m.backbone(), m.udg(), 50.0).all_ok());
        // The dead node is really gone from the routing structure.
        assert_eq!(m.backbone().ldel_icds_prime().degree(v), 0);
    }

    #[test]
    fn covered_newcomer_joins_without_rebuild() {
        let mut m = start(7);
        // Drop the newcomer right next to an existing dominator.
        let d = m.backbone().cds_graphs().dominators[0];
        let pos = m.points()[d] + Point::new(0.5, 0.5);
        let before: Vec<_> = m.backbone().ldel_icds().edges().collect();
        let (v, report) = m.add_node(pos).unwrap();
        assert!(!report.rebuilt);
        assert_eq!(m.rebuild_count(), 0);
        assert_eq!(m.backbone().roles()[v], crate::Role::Dominatee);
        assert!(m.backbone().cds_graphs().dominators_of[v].contains(&d));
        assert!(m.backbone().ldel_icds_prime().has_edge(v, d));
        let after: Vec<_> = m.backbone().ldel_icds().edges().collect();
        assert_eq!(before, after, "backbone core must be untouched");
    }

    #[test]
    fn uncovered_newcomer_forces_rebuild() {
        let mut m = start(8);
        // Far corner outside everyone's radio range... but still forming
        // a connected UDG is not required for the maintenance API.
        let (_v, report) = m.add_node(Point::new(2000.0, 2000.0)).unwrap();
        assert!(report.rebuilt);
        assert!(m.rebuild_count() >= 1);
    }

    #[test]
    fn rejoin_reverses_a_dominatee_leave() {
        let mut m = start(5);
        let v = (0..m.points().len())
            .find(|&v| m.backbone().roles()[v] == crate::Role::Dominatee)
            .expect("some dominatee exists");
        let pos = m.points()[v];
        let roles_before = m.backbone().roles().to_vec();
        let prime_before: Vec<_> = m.backbone().ldel_icds_prime().edges().collect();
        m.remove_node(v).unwrap();
        let report = m.rejoin_node(v, pos).unwrap();
        assert!(!report.rebuilt);
        assert!(m.departed().is_empty());
        assert_eq!(m.backbone().roles(), &roles_before[..]);
        let prime_after: Vec<_> = m.backbone().ldel_icds_prime().edges().collect();
        assert_eq!(prime_before, prime_after, "leave + rejoin must round-trip");
        assert!(crate::verify(m.backbone(), m.udg(), 50.0).all_ok());
    }

    #[test]
    #[should_panic(expected = "not departed")]
    fn rejoining_a_live_node_is_rejected() {
        let mut m = start(5);
        let p = m.points()[0];
        let _ = m.rejoin_node(0, p);
    }

    #[test]
    #[should_panic(expected = "already departed")]
    fn removing_a_departed_node_is_rejected() {
        let mut m = start(5);
        let v = (0..m.points().len())
            .find(|&v| m.backbone().roles()[v] == crate::Role::Dominatee)
            .expect("some dominatee exists");
        m.remove_node(v).unwrap();
        let _ = m.remove_node(v);
    }

    /// Regression: a full rebuild after departures used to resurrect
    /// parked nodes as isolated one-node clusters (each its own
    /// dominator), leaving dangling rank entries in the clustering. The
    /// parked strip keeps them out of radio range and the rebuild
    /// demotes them explicitly.
    #[test]
    fn departed_nodes_never_resurface_after_a_rebuild() {
        let mut m = start(9);
        let mut gone = Vec::new();
        for _ in 0..3 {
            let v = (0..m.points().len())
                .find(|&v| {
                    m.backbone().roles()[v] == crate::Role::Dominatee && !m.departed().contains(&v)
                })
                .expect("some dominatee exists");
            m.remove_node(v).unwrap();
            gone.push(v);
        }
        // Force a full rebuild with the departures still in effect.
        let (_v, report) = m.add_node(Point::new(2000.0, 2000.0)).unwrap();
        assert!(report.rebuilt);
        for &v in &gone {
            assert_eq!(
                m.backbone().roles()[v],
                crate::Role::Dominatee,
                "departed node {v} resurfaced with a role"
            );
            assert!(!m.backbone().cds_graphs().dominators.contains(&v));
            assert!(!m.backbone().cds_graphs().connectors.contains(&v));
            assert_eq!(m.backbone().ldel_icds_prime().degree(v), 0);
            assert_eq!(m.udg().degree(v), 0, "parked node {v} has a ghost link");
        }
        // Parking slots are spaced: no two departed nodes in range.
        for &a in &gone {
            for &b in &gone {
                if a != b {
                    assert!(m.points()[a].distance(m.points()[b]) > 50.0);
                }
            }
        }
    }

    #[test]
    fn disabled_repair_always_rebuilds() {
        let mut m = start(6);
        m.set_local_repair(false);
        let v = m.backbone().backbone_nodes()[0];
        let report = m.remove_node(v).unwrap();
        assert!(report.rebuilt);
        assert_eq!(
            report.action,
            MaintenanceAction::FullRebuild {
                reason: "local repair disabled".into()
            }
        );
        assert_eq!(m.local_repair_count(), 0);
        assert_eq!(m.rebuild_count(), 1);
        assert!(crate::verify(m.backbone(), m.udg(), 50.0).all_ok());
    }

    #[test]
    #[should_panic(expected = "membership")]
    fn membership_change_rejected() {
        let mut m = start(3);
        let mut pts = m.points().to_vec();
        pts.pop();
        let _ = m.update_positions(pts);
    }

    #[test]
    fn drift_until_break_then_recover() {
        let mut m = start(4);
        let mut pts = m.points().to_vec();
        let mut saw_quiet_step = false;
        let mut saw_rebuild = false;
        for step in 0..60 {
            // Gentle drift for most steps; one teleport to force a break.
            if step == 30 {
                pts[0] = Point::new((pts[0].x + 300.0).min(149.0), 149.0);
            }
            for (i, p) in pts.iter_mut().enumerate() {
                let d = 0.02 * if (i + step) % 2 == 0 { 1.0 } else { -1.0 };
                p.x = (p.x + d).clamp(0.0, 150.0);
                p.y = (p.y - d).clamp(0.0, 150.0);
            }
            let report = m.update_positions(pts.clone()).unwrap();
            if report.action == MaintenanceAction::Kept && report.broken_links.is_empty() {
                saw_quiet_step = true;
            } else {
                saw_rebuild = true;
            }
        }
        assert!(saw_quiet_step, "expected some steps without maintenance");
        assert!(saw_rebuild, "expected the teleport to force maintenance");
        assert_eq!(m.update_count(), 60);
        // Whatever happened, the invariants hold now.
        assert!(is_plane_embedding(m.backbone().ldel_icds()));
    }
}
