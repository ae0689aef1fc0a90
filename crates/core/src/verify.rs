//! One-call verification of the paper's guarantees on a built backbone.
//!
//! Downstream users (and this workspace's own tests and examples) can
//! validate any [`Backbone`] against its unit disk graph and get a
//! structured, printable report of the five headline properties.

use std::fmt;

use geospan_graph::planarity::{crossing_count, is_plane_embedding};
use geospan_graph::stats::degree_stats_over;
use geospan_graph::stretch::{stretch_factors, StretchOptions};
use geospan_graph::Graph;

use crate::{Backbone, Role};

/// The verified properties of a backbone.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyReport {
    /// Property 1: `LDel(ICDS)` is a plane embedding.
    pub planar: bool,
    /// Number of crossing edge pairs when not planar (diagnostic).
    pub crossings: usize,
    /// Property 2: maximum degree over backbone nodes in `LDel(ICDS)`.
    pub backbone_max_degree: usize,
    /// Property 3a: maximum length stretch of `LDel(ICDS')` vs the UDG
    /// (over pairs separated by more than one radius).
    pub length_stretch_max: f64,
    /// Property 3b: maximum hop stretch of `LDel(ICDS')` vs the UDG.
    pub hop_stretch_max: f64,
    /// Property 3c: UDG-connected pairs disconnected in the backbone
    /// (zero for a spanner).
    pub disconnected_pairs: usize,
    /// Property 4: edge count of `LDel(ICDS')` (should be `O(n)`).
    pub spanning_edges: usize,
    /// Lemma 1: every dominatee has at most five adjacent dominators.
    pub lemma1_ok: bool,
    /// Dominator count.
    pub dominators: usize,
    /// Connector count.
    pub connectors: usize,
    /// Node count.
    pub nodes: usize,
}

impl PropertyReport {
    /// True when every checked guarantee holds.
    pub fn all_ok(&self) -> bool {
        self.planar && self.disconnected_pairs == 0 && self.lemma1_ok
    }
}

impl fmt::Display for PropertyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "backbone over {} nodes: {} dominators + {} connectors",
            self.nodes, self.dominators, self.connectors
        )?;
        writeln!(
            f,
            "  planar:          {} ({} crossings)",
            if self.planar { "yes" } else { "NO" },
            self.crossings
        )?;
        writeln!(f, "  max degree:      {}", self.backbone_max_degree)?;
        writeln!(
            f,
            "  stretch:         length <= {:.3}, hops <= {:.3}",
            self.length_stretch_max, self.hop_stretch_max
        )?;
        writeln!(
            f,
            "  spans all pairs: {} ({} lost)",
            if self.disconnected_pairs == 0 {
                "yes"
            } else {
                "NO"
            },
            self.disconnected_pairs
        )?;
        writeln!(f, "  spanning edges:  {}", self.spanning_edges)?;
        write!(
            f,
            "  Lemma 1 (<= 5 dominators per node): {}",
            if self.lemma1_ok { "yes" } else { "NO" }
        )
    }
}

/// Panics unless `udg` and the backbone share the vertex set.
fn assert_shared_vertex_set(backbone: &Backbone, udg: &Graph) {
    assert_eq!(
        udg.node_count(),
        backbone.roles().len(),
        "UDG and backbone must share the vertex set"
    );
}

/// Lemma 1: every node has at most five adjacent dominators.
fn lemma1_holds(backbone: &Backbone) -> bool {
    backbone
        .cds_graphs()
        .dominators_of
        .iter()
        .all(|d| d.len() <= 5)
}

/// Property 1: `LDel(ICDS)` is a plane embedding.
fn backbone_is_planar(backbone: &Backbone) -> bool {
    is_plane_embedding(backbone.ldel_icds())
}

/// UDG-connected pairs that `LDel(ICDS')` disconnects, from component
/// labels: `Σ C(|C|, 2)` over UDG components `C`, minus the same sum
/// over the groups of nodes sharing both their UDG and their backbone
/// component. `O(n log n)`.
fn disconnected_pairs(udg_labels: &[usize], backbone_labels: &[usize]) -> usize {
    fn same_key_pairs(mut keys: Vec<(usize, usize)>) -> usize {
        keys.sort_unstable();
        keys.chunk_by(|a, b| a == b)
            .map(|g| g.len() * (g.len() - 1) / 2)
            .sum()
    }
    let udg_pairs = same_key_pairs(udg_labels.iter().map(|&c| (c, 0)).collect());
    let kept_pairs = same_key_pairs(
        udg_labels
            .iter()
            .copied()
            .zip(backbone_labels.iter().copied())
            .collect(),
    );
    udg_pairs - kept_pairs
}

/// Property 3c as a yes/no in `O(n + m)`: all UDG-connected pairs stay
/// connected in `LDel(ICDS')` iff every UDG edge lies inside one
/// `LDel(ICDS')` component.
fn spans_udg_components(backbone: &Backbone, udg: &Graph) -> bool {
    let label = backbone.ldel_icds_prime().component_labels();
    udg.edges().all(|(u, v)| label[u] == label[v])
}

/// Whether the paper's guarantees hold: exactly
/// [`verify`]`(backbone, udg, r).`[`all_ok`](PropertyReport::all_ok)`()`,
/// for any `r`, without the all-pairs stretch measurement.
///
/// Checks Lemma 1 (at most five dominators per node), that
/// `LDel(ICDS')` keeps every UDG-connected pair connected (every UDG edge
/// has both endpoints in one `LDel(ICDS')` component), and that
/// `LDel(ICDS)` is a plane embedding. Costs `O(n + m)` plus the grid
/// planarity test, so it suits a verdict inside a loop — localized
/// repair accepts or rejects every candidate with it.
///
/// # Panics
/// Panics if `udg`'s node count differs from the backbone's.
///
/// # Example
/// ```
/// use geospan_core::{guarantees_hold, BackboneBuilder, BackboneConfig};
/// use geospan_graph::gen::connected_unit_disk;
///
/// let (_pts, udg, _s) = connected_unit_disk(40, 120.0, 45.0, 2);
/// let b = BackboneBuilder::new(BackboneConfig::new(45.0)).build(&udg).unwrap();
/// assert!(guarantees_hold(&b, &udg));
/// ```
pub fn guarantees_hold(backbone: &Backbone, udg: &Graph) -> bool {
    assert_shared_vertex_set(backbone, udg);
    lemma1_holds(backbone) && spans_udg_components(backbone, udg) && backbone_is_planar(backbone)
}

/// Verifies a backbone against the unit disk graph it was built from.
///
/// `radius` is used as the pair-separation threshold for the length
/// stretch, matching the paper's measurement convention.
///
/// The stretch measurement is all pairs — one BFS and one Dijkstra per
/// node on both graphs, `O(n · m log n)`. Callers that only need the
/// verdict ([`PropertyReport::all_ok`]) should call [`guarantees_hold`].
///
/// # Panics
/// Panics if `udg`'s node count differs from the backbone's.
///
/// # Example
/// ```
/// use geospan_core::{verify, BackboneBuilder, BackboneConfig};
/// use geospan_graph::gen::connected_unit_disk;
///
/// let (_pts, udg, _s) = connected_unit_disk(40, 120.0, 45.0, 2);
/// let b = BackboneBuilder::new(BackboneConfig::new(45.0)).build(&udg).unwrap();
/// let report = verify(&b, &udg, 45.0);
/// assert!(report.all_ok());
/// ```
pub fn verify(backbone: &Backbone, udg: &Graph, radius: f64) -> PropertyReport {
    assert_shared_vertex_set(backbone, udg);
    let planar = backbone_is_planar(backbone);
    let crossings = if planar {
        0
    } else {
        crossing_count(backbone.ldel_icds())
    };
    let stretch = stretch_factors(
        udg,
        backbone.ldel_icds_prime(),
        StretchOptions {
            min_euclidean_separation: radius,
        },
    );
    let disconnected_pairs = disconnected_pairs(
        &udg.component_labels(),
        &backbone.ldel_icds_prime().component_labels(),
    );
    let lemma1_ok = lemma1_holds(backbone);
    let (mut dominators, mut connectors) = (0, 0);
    for r in backbone.roles() {
        match r {
            Role::Dominator => dominators += 1,
            Role::Connector => connectors += 1,
            Role::Dominatee => {}
        }
    }
    PropertyReport {
        planar,
        crossings,
        backbone_max_degree: degree_stats_over(backbone.ldel_icds(), backbone.backbone_nodes()).max,
        length_stretch_max: stretch.length_max,
        hop_stretch_max: stretch.hop_max,
        disconnected_pairs,
        spanning_edges: backbone.ldel_icds_prime().edge_count(),
        lemma1_ok,
        dominators,
        connectors,
        nodes: udg.node_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackboneBuilder, BackboneConfig};
    use geospan_geometry::segments_properly_cross;
    use geospan_graph::gen::{connected_unit_disk, uniform_points, UnitDiskBuilder};
    use proptest::prelude::*;

    /// A backbone over `n` uniform points, connected or not.
    fn random_backbone(n: usize, side: f64, radius: f64, seed: u64) -> (Graph, Backbone) {
        let udg = UnitDiskBuilder::new(radius).build(&uniform_points(n, side, seed));
        let b = BackboneBuilder::new(BackboneConfig::new(radius))
            .build(&udg)
            .unwrap();
        (udg, b)
    }

    /// Adds to `LDel(ICDS)` an edge properly crossing one of its edges.
    fn add_crossing_edge(b: &mut Backbone) -> bool {
        let (_, ldel, _) = b.parts_mut();
        let Some((u, v)) = ldel.edges().next() else {
            return false;
        };
        let (pu, pv) = (ldel.position(u), ldel.position(v));
        let n = ldel.node_count();
        for x in 0..n {
            for y in x + 1..n {
                if segments_properly_cross(pu, pv, ldel.position(x), ldel.position(y)) {
                    ldel.add_edge(x, y);
                    return true;
                }
            }
        }
        false
    }

    /// Removes from `LDel(ICDS')` an edge whose removal splits a
    /// component.
    fn remove_bridge(b: &mut Backbone) -> bool {
        let (_, _, prime) = b.parts_mut();
        let components = |g: &Graph| g.component_labels().into_iter().max();
        let before = components(prime);
        let edges: Vec<(usize, usize)> = prime.edges().collect();
        for (u, v) in edges {
            prime.remove_edge(u, v);
            if components(prime) != before {
                return true;
            }
            prime.add_edge(u, v);
        }
        false
    }

    /// Gives node 0 a sixth dominator.
    fn add_sixth_dominator(b: &mut Backbone) -> bool {
        let (cds, _, _) = b.parts_mut();
        let n = cds.roles.len();
        let doms = &mut cds.dominators_of[0];
        for w in 1..n {
            if doms.len() == 6 {
                break;
            }
            if !doms.contains(&w) {
                doms.push(w);
            }
        }
        doms.len() == 6
    }

    /// The verdict and the pair count agree with the all-pairs
    /// measurement; returns the verdict.
    fn check_agreement(b: &Backbone, udg: &Graph, radius: f64) -> Result<bool, TestCaseError> {
        let report = verify(b, udg, radius);
        let verdict = guarantees_hold(b, udg);
        prop_assert_eq!(verdict, report.all_ok(), "{}", report);
        let all_pairs = stretch_factors(udg, b.ldel_icds_prime(), StretchOptions::default());
        prop_assert_eq!(report.disconnected_pairs, all_pairs.disconnected_pairs);
        Ok(verdict)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn guarantee_check_equals_verify_verdict(
            n in 8usize..80,
            side in 80.0f64..260.0,
            radius in 30.0f64..60.0,
            seed in any::<u64>(),
        ) {
            let (udg, b) = random_backbone(n, side, radius, seed);
            prop_assert!(check_agreement(&b, &udg, radius)?, "a built backbone fails");

            let mut crossed = b.clone();
            if add_crossing_edge(&mut crossed) {
                prop_assert!(!check_agreement(&crossed, &udg, radius)?, "crossing kept");
            }
            let mut cut = b.clone();
            if remove_bridge(&mut cut) {
                prop_assert!(!check_agreement(&cut, &udg, radius)?, "bridge kept");
            }
            let mut crowded = b.clone();
            prop_assert!(add_sixth_dominator(&mut crowded));
            prop_assert!(!check_agreement(&crowded, &udg, radius)?, "sixth dominator kept");
        }
    }

    #[test]
    fn component_pair_count_matches_all_pairs_stretch() {
        for seed in 0..12 {
            // Sparse fields split the UDG into several components.
            let (udg, mut b) = random_backbone(50, 220.0 + 10.0 * seed as f64, 40.0, seed);
            remove_bridge(&mut b);
            remove_bridge(&mut b);
            let kept = b.ldel_icds_prime();
            let all_pairs = stretch_factors(&udg, kept, StretchOptions::default());
            assert_eq!(
                disconnected_pairs(&udg.component_labels(), &kept.component_labels()),
                all_pairs.disconnected_pairs,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn healthy_backbone_verifies() {
        let (_pts, udg, _s) = connected_unit_disk(60, 150.0, 45.0, 9);
        let b = BackboneBuilder::new(BackboneConfig::new(45.0))
            .build(&udg)
            .unwrap();
        let r = verify(&b, &udg, 45.0);
        assert!(r.all_ok());
        assert_eq!(r.nodes, 60);
        assert_eq!(r.dominators + r.connectors, b.backbone_nodes().len());
        assert!(r.length_stretch_max >= 1.0);
        let text = r.to_string();
        assert!(text.contains("planar:          yes"));
        assert!(text.contains("Lemma 1"));
    }

    #[test]
    fn report_flags_problems() {
        // Hand-build a degenerate report to exercise the formatting paths.
        let r = PropertyReport {
            planar: false,
            crossings: 3,
            backbone_max_degree: 7,
            length_stretch_max: 2.0,
            hop_stretch_max: 2.0,
            disconnected_pairs: 1,
            spanning_edges: 10,
            lemma1_ok: false,
            dominators: 2,
            connectors: 1,
            nodes: 9,
        };
        assert!(!r.all_ok());
        let text = r.to_string();
        assert!(text.contains("NO (3 crossings)"));
        assert!(text.contains("(1 lost)"));
    }
}
