//! Experiment harness regenerating the evaluation of Wang & Li
//! (ICDCS 2002).
//!
//! One binary, `geospan-bench <experiment> [flags]`, runs every table
//! and figure of the paper plus the extension experiments (see
//! [`cli::EXPERIMENTS`] and `EXPERIMENTS.md` at the repository root).
//! This library holds the shared pieces: scenario configuration,
//! instance generation, the construction of the paper's ten
//! topologies, the measured statistics, and the [`Table`] every
//! artifact is written through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod churn;
pub mod cli;
pub mod extensions;
pub mod paper;
pub mod pipeline;
pub mod scale;
pub mod table;
pub mod traffic;

pub use table::Table;

use geospan_cds::build_cds;
use geospan_core::{BackboneBuilder, BackboneConfig, ClusterRank};
use geospan_graph::gen::{connected_unit_disk, UnitDiskBuilder};
use geospan_graph::stats::degree_stats;
use geospan_graph::stretch::{stretch_factors, StretchOptions, StretchReport};
use geospan_graph::{Graph, Point};
use geospan_topology::{gabriel, ldel, relative_neighborhood};
use rayon::prelude::*;

/// An experiment scenario: the deployment parameters of the paper's
/// simulations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Number of nodes.
    pub n: usize,
    /// Side of the square deployment region.
    pub side: f64,
    /// Transmission radius.
    pub radius: f64,
    /// Number of connected instances to aggregate over.
    pub trials: usize,
    /// Base RNG seed (instances use consecutive accepted seeds).
    pub seed: u64,
}

impl Scenario {
    /// The paper's Table I configuration: `n = 100` nodes in a 200 × 200
    /// square with transmission radius 60 (see DESIGN.md for the region
    /// calibration).
    pub fn table1() -> Self {
        Scenario {
            n: 100,
            side: 200.0,
            radius: 60.0,
            trials: 20,
            seed: 1,
        }
    }

    /// Generates the connected instances of this scenario.
    pub fn instances(&self) -> Vec<(Vec<Point>, Graph)> {
        let mut out = Vec::with_capacity(self.trials);
        let mut seed = self.seed;
        for _ in 0..self.trials {
            let (pts, udg, used) = connected_unit_disk(self.n, self.side, self.radius, seed);
            seed = used + 1;
            out.push((pts, udg));
        }
        out
    }
}

/// Whether a topology spans all nodes (stretch factors are meaningful)
/// or only the backbone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Spans every node: measure stretch against the UDG.
    AllNodes,
    /// Backbone only: degree/edge statistics, no stretch.
    BackboneOnly,
    /// The base graph itself.
    Base,
}

/// One named topology derived from a deployment.
pub struct NamedTopology {
    /// Row label, matching the paper's Table I.
    pub name: &'static str,
    /// The graph (shared vertex set with the UDG).
    pub graph: Graph,
    /// Stretch measurement category.
    pub span: Span,
}

/// Builds the paper's ten topologies for one deployment.
///
/// Order matches Table I: UDG, RNG, GG, LDel, CDS, CDS', ICDS, ICDS',
/// LDel(ICDS), LDel(ICDS').
///
/// # Panics
/// Panics if `udg` has an edge longer than `radius` (wrong scenario
/// pairing).
pub fn table1_topologies(udg: &Graph, radius: f64) -> Vec<NamedTopology> {
    let cds = build_cds(udg, &ClusterRank::LowestId);
    let backbone = BackboneBuilder::new(BackboneConfig::new(radius))
        .build(udg)
        .expect("centralized build cannot fail on a valid UDG");
    vec![
        NamedTopology {
            name: "UDG",
            graph: udg.clone(),
            span: Span::Base,
        },
        NamedTopology {
            name: "RNG",
            graph: relative_neighborhood(udg),
            span: Span::AllNodes,
        },
        NamedTopology {
            name: "GG",
            graph: gabriel(udg),
            span: Span::AllNodes,
        },
        NamedTopology {
            name: "LDel",
            graph: ldel::planarized(udg).graph,
            span: Span::AllNodes,
        },
        NamedTopology {
            name: "CDS",
            graph: cds.cds.clone(),
            span: Span::BackboneOnly,
        },
        NamedTopology {
            name: "CDS'",
            graph: cds.cds_prime.clone(),
            span: Span::AllNodes,
        },
        NamedTopology {
            name: "ICDS",
            graph: cds.icds.clone(),
            span: Span::BackboneOnly,
        },
        NamedTopology {
            name: "ICDS'",
            graph: cds.icds_prime.clone(),
            span: Span::AllNodes,
        },
        NamedTopology {
            name: "LDel(ICDS)",
            graph: backbone.ldel_icds().clone(),
            span: Span::BackboneOnly,
        },
        NamedTopology {
            name: "LDel(ICDS')",
            graph: backbone.ldel_icds_prime().clone(),
            span: Span::AllNodes,
        },
    ]
}

/// Table I row statistics for one topology, aggregated over instances.
#[derive(Debug, Clone, Default)]
pub struct RowStats {
    /// Row label.
    pub name: String,
    /// Mean (over instances) of the average node degree.
    pub deg_avg: f64,
    /// Maximum node degree over all instances.
    pub deg_max: usize,
    /// Mean average length stretch (`None` for backbone-only rows).
    pub len_avg: Option<f64>,
    /// Maximum length stretch.
    pub len_max: Option<f64>,
    /// Mean average hop stretch.
    pub hop_avg: Option<f64>,
    /// Maximum hop stretch.
    pub hop_max: Option<f64>,
    /// Mean edge count.
    pub edges: f64,
}

/// Measures one topology against its UDG.
///
/// For spanning topologies the length stretch is computed over node pairs
/// separated by more than one transmission radius, following the paper's
/// convention for the backbone graphs ("we are only interested in nodes
/// `u`, `v` with `|uv| > 1`"); hop stretch uses all connected pairs.
pub fn measure_stretch(udg: &Graph, g: &Graph, radius: f64) -> StretchReport {
    stretch_factors(
        udg,
        g,
        StretchOptions {
            min_euclidean_separation: radius,
        },
    )
}

/// One topology's measurements on one instance (intermediate record of
/// [`table1_rows`]).
struct TopoMeasurement {
    name: &'static str,
    deg_avg: f64,
    deg_max: usize,
    edges: f64,
    stretch: Option<StretchReport>,
}

/// Runs the full Table I measurement over a scenario.
///
/// Instances are measured in parallel (each builds its own topologies);
/// the per-instance measurements are folded serially in instance order,
/// so the aggregate is identical for every thread count.
pub fn table1_rows(scenario: &Scenario) -> Vec<RowStats> {
    let instances = scenario.instances();
    let per_instance: Vec<Vec<TopoMeasurement>> = (0..instances.len())
        .into_par_iter()
        .map(|k| {
            let (_pts, udg) = &instances[k];
            table1_topologies(udg, scenario.radius)
                .into_iter()
                .map(|topo| {
                    let d = degree_stats(&topo.graph);
                    let stretch = (topo.span == Span::AllNodes).then(|| {
                        let r = measure_stretch(udg, &topo.graph, scenario.radius);
                        assert_eq!(
                            r.disconnected_pairs, 0,
                            "instance {k}: {} disconnects pairs",
                            topo.name
                        );
                        r
                    });
                    TopoMeasurement {
                        name: topo.name,
                        deg_avg: d.avg,
                        deg_max: d.max,
                        edges: topo.graph.edge_count() as f64,
                        stretch,
                    }
                })
                .collect()
        })
        .collect();

    let mut rows: Vec<RowStats> = Vec::new();
    for inst in &per_instance {
        if rows.is_empty() {
            rows = inst
                .iter()
                .map(|m| RowStats {
                    name: m.name.to_string(),
                    ..RowStats::default()
                })
                .collect();
        }
        for (row, m) in rows.iter_mut().zip(inst) {
            row.deg_avg += m.deg_avg;
            row.deg_max = row.deg_max.max(m.deg_max);
            row.edges += m.edges;
            if let Some(r) = &m.stretch {
                *row.len_avg.get_or_insert(0.0) += r.length_avg;
                *row.hop_avg.get_or_insert(0.0) += r.hop_avg;
                let lm = row.len_max.get_or_insert(0.0);
                *lm = lm.max(r.length_max);
                let hm = row.hop_max.get_or_insert(0.0);
                *hm = hm.max(r.hop_max);
            }
        }
    }
    let t = instances.len() as f64;
    for row in &mut rows {
        row.deg_avg /= t;
        row.edges /= t;
        if let Some(v) = row.len_avg.as_mut() {
            *v /= t;
        }
        if let Some(v) = row.hop_avg.as_mut() {
            *v /= t;
        }
    }
    rows
}

/// A sweep table: the swept parameter, then one column per label.
pub fn sweep_table(param: &str, labels: impl IntoIterator<Item = String>) -> Table {
    Table::new(std::iter::once(param.to_string()).chain(labels))
}

/// One sweep row: the parameter value, then each value to 6 decimals.
pub fn sweep_row(x: f64, values: impl IntoIterator<Item = f64>) -> Vec<String> {
    std::iter::once(format!("{x}"))
        .chain(values.into_iter().map(|v| format!("{v:.6}")))
        .collect()
}

/// Splitmix-style seed mixing for per-cell workload schedules and
/// fault plans of the traffic sweeps.
pub(crate) fn mix_seed(base: u64, trial: u64, cell: u64) -> u64 {
    let mut z = base
        .wrapping_add(trial.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(cell.wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds a UDG directly (used by the Criterion benches).
pub fn udg_of(pts: &[Point], radius: f64) -> Graph {
    UnitDiskBuilder::new(radius).build(pts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario {
            n: 30,
            side: 100.0,
            radius: 40.0,
            trials: 2,
            seed: 1,
        }
    }

    #[test]
    fn scenario_instances_are_connected() {
        for (_pts, udg) in tiny().instances() {
            assert!(udg.is_connected());
            assert_eq!(udg.node_count(), 30);
        }
    }

    #[test]
    fn table1_rows_structure() {
        let rows = table1_rows(&tiny());
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].name, "UDG");
        assert_eq!(rows[9].name, "LDel(ICDS')");
        // Base and backbone-only rows have no stretch.
        assert!(rows[0].len_avg.is_none());
        assert!(rows[4].len_avg.is_none());
        // Spanning rows do.
        for i in [1, 2, 3, 5, 7, 9] {
            assert!(rows[i].len_avg.is_some(), "row {i}");
            assert!(rows[i].len_avg.unwrap() >= 1.0);
            assert!(rows[i].hop_max.unwrap() >= 1.0);
        }
        // Sparsity ordering: every derived topology has fewer edges than
        // the UDG.
        for r in &rows[1..] {
            assert!(r.edges <= rows[0].edges);
        }
    }

    #[test]
    fn measure_stretch_uses_separation_convention() {
        let (_pts, udg) = &tiny().instances()[0];
        let r = measure_stretch(udg, udg, 40.0);
        // Self-stretch is exactly 1 and only separated pairs counted.
        assert!((r.length_max - 1.0).abs() < 1e-9);
        assert!(
            r.length_pairs < r.hop_pairs,
            "separation filter must drop pairs"
        );
    }
}
