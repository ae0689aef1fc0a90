//! The traffic-load sweep: serve packet workloads over UDG, CDS', and
//! `LDel(ICDS)` across offered-load levels and measure delivery,
//! latency, stretch, and queue behavior under congestion.
//!
//! This is the evaluation regime the backbone exists for — spanner
//! bounds only matter for packets actually forwarded — run in the style
//! of localized-spanner workload studies (throughput/stretch under
//! sustained load) rather than static all-pairs tables.
//!
//! Cells (trial × load × topology) are independent and run in parallel;
//! results are folded in deterministic order, so the CSV is
//! byte-identical for every thread count.
//!
//! Three experiments live here: E16 `traffic_load`, E17
//! `traffic_reliability` and E18 `traffic_saturation`.

use geospan_core::{Backbone, BackboneBuilder, BackboneConfig, ClusterRank};
use geospan_graph::Graph;
use geospan_sim::{FaultPlan, OverloadConfig, ReliabilityConfig};
use geospan_traffic::{
    run, AdmissionPolicy, Discipline, DropCounts, Forwarding, TrafficConfig, TrafficReport,
    Workload,
};
use rayon::prelude::*;

use crate::cli::{publish, Artifacts, Flags};
use crate::{mix_seed, Scenario, Table};

/// The per-cause drop columns every traffic artifact carries, in order.
const DROP_COLUMNS: [&str; 6] = [
    "drop_stuck",
    "drop_queue",
    "drop_loss",
    "drop_crash",
    "drop_hop_limit",
    "drop_retry_shed",
];

/// The cells of [`DROP_COLUMNS`] (departures never happen in these
/// sweeps and have no column).
fn drop_cells(drops: &DropCounts) -> [String; 6] {
    [
        drops.stuck,
        drops.queue_full,
        drops.link_loss,
        drops.node_crash,
        drops.hop_limit,
        drops.retry_shed,
    ]
    .map(|d| d.to_string())
}

/// `"on"` or `"off"`.
fn on_off(b: bool) -> String {
    if b { "on" } else { "off" }.to_string()
}

/// Configuration of one traffic sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Deployment parameters (`n`, `side`, `radius`, `trials`, `seed`).
    pub scenario: Scenario,
    /// Offered loads to sweep, in expected packets per tick.
    pub loads: Vec<f64>,
    /// Ticks over which each workload offers packets.
    pub duration: u64,
    /// Per-node transmit queue capacity.
    pub queue_capacity: usize,
    /// Ticks per transmission.
    pub service_time: u64,
    /// Per-link delivery loss probability (0 for a congestion-only
    /// sweep); seeded from the scenario seed.
    pub loss: f64,
}

impl SweepConfig {
    /// The default sweep: the paper's Table I deployment served at five
    /// load levels.
    pub fn standard() -> Self {
        SweepConfig {
            scenario: Scenario {
                n: 100,
                side: 200.0,
                radius: 60.0,
                trials: 3,
                seed: 1,
            },
            loads: vec![0.05, 0.1, 0.2, 0.4, 0.8],
            duration: 2_000,
            queue_capacity: 64,
            service_time: 1,
            loss: 0.0,
        }
    }

    /// The CI smoke sweep: a small field at two load levels.
    pub fn quick() -> Self {
        SweepConfig {
            scenario: Scenario {
                n: 40,
                side: 120.0,
                radius: 45.0,
                trials: 1,
                seed: 1,
            },
            loads: vec![0.05, 0.4],
            duration: 500,
            queue_capacity: 64,
            service_time: 1,
            loss: 0.0,
        }
    }
}

/// One aggregated sweep row: a (topology, load) cell averaged over the
/// scenario's trials.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficRow {
    /// Topology served.
    pub topology: &'static str,
    /// Forwarding scheme driven over it.
    pub policy: &'static str,
    /// Offered load in packets per tick.
    pub load: f64,
    /// Total packets offered across trials.
    pub offered: usize,
    /// Total packets delivered across trials.
    pub delivered: usize,
    /// Drop totals across trials, by cause (`retry_shed` is always 0
    /// here: this sweep runs without overload control; the column keeps
    /// the drop breakdown schema uniform across traffic artifacts).
    pub drops: DropCounts,
    /// Refused admission at sources (always 0 here, same reason).
    pub refused: usize,
    /// Mean over trials of the median delivery latency.
    pub latency_p50: f64,
    /// Mean over trials of the 99th-percentile delivery latency.
    pub latency_p99: f64,
    /// Mean over trials of the mean delivery latency.
    pub latency_mean: f64,
    /// Mean over trials of the average hop stretch vs. the UDG.
    pub hop_stretch_avg: f64,
    /// Mean over trials of the average length stretch vs. the UDG.
    pub length_stretch_avg: f64,
    /// Worst queue occupancy any node reached in any trial.
    pub queue_peak_max: usize,
}

impl TrafficRow {
    /// Delivered fraction of offered packets.
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.delivered as f64 / self.offered as f64
        }
    }
}

/// The topologies a sweep serves, built once per trial.
struct TrialTopologies {
    udg: Graph,
    cds_prime: Graph,
    backbone: Backbone,
}

/// The three (topology, policy) pairs of the sweep, in row order.
const TOPOLOGIES: [(&str, &str); 3] = [
    ("UDG", "greedy"),
    ("CDS'", "gpsr"),
    ("LDel(ICDS)", "backbone"),
];

/// Runs the sweep: every (trial, load, topology) cell in parallel, then
/// a deterministic fold into one row per (topology, load).
///
/// # Panics
/// Panics if the scenario yields no trials or no loads are configured.
pub fn traffic_rows(cfg: &SweepConfig) -> Vec<TrafficRow> {
    assert!(cfg.scenario.trials > 0, "sweep needs at least one trial");
    assert!(!cfg.loads.is_empty(), "sweep needs at least one load");
    let instances = cfg.scenario.instances();
    let trials: Vec<TrialTopologies> = instances
        .into_par_iter()
        .map(|(_pts, udg)| {
            let backbone = BackboneBuilder::new(
                BackboneConfig::new(cfg.scenario.radius).with_rank(ClusterRank::LowestId),
            )
            .build(&udg)
            .expect("centralized build cannot fail on a valid UDG");
            let cds_prime = geospan_cds::build_cds(&udg, &ClusterRank::LowestId)
                .cds_prime
                .clone();
            TrialTopologies {
                udg,
                cds_prime,
                backbone,
            }
        })
        .collect();

    // One engine configuration for the whole sweep: FIFO queues, no
    // retransmit — the historical regime, kept so the artifact stays
    // byte-identical (the reliability sweep varies both knobs).
    let engine_cfg = TrafficConfig {
        queue_capacity: cfg.queue_capacity,
        service_time: cfg.service_time,
        max_hops: (50 * cfg.scenario.n) as u32,
        ticks_per_round: 1,
        record_paths: false,
        discipline: Discipline::Fifo,
        reliability: None,
        overload: None,
        admission: AdmissionPolicy::Open,
        shards: 1,
    };

    // Cell grid: trial-major, then load, then topology.
    let cells: Vec<(usize, usize, usize)> = (0..trials.len())
        .flat_map(|t| {
            (0..cfg.loads.len()).flat_map(move |l| (0..TOPOLOGIES.len()).map(move |k| (t, l, k)))
        })
        .collect();
    let reports: Vec<TrafficReport> = cells
        .par_iter()
        .map(|&(t, l, k)| {
            let topo = &trials[t];
            let arrivals = Workload::uniform(cfg.loads[l], cfg.duration).generate(
                cfg.scenario.n,
                mix_seed(cfg.scenario.seed, t as u64, l as u64),
            );
            let faults = if cfg.loss > 0.0 {
                FaultPlan::new(mix_seed(
                    cfg.scenario.seed ^ 0x5bf0_3635,
                    t as u64,
                    l as u64,
                ))
                .with_loss(cfg.loss)
            } else {
                FaultPlan::none()
            };
            let forwarding = match k {
                0 => Forwarding::Greedy(&topo.udg),
                1 => Forwarding::Gpsr(&topo.cds_prime),
                _ => Forwarding::Backbone {
                    backbone: &topo.backbone,
                    udg: &topo.udg,
                },
            };
            run(&forwarding, &topo.udg, &arrivals, &faults, &engine_cfg).report
        })
        .collect();

    // Fold trial-major cells into (topology, load) rows, trials averaged
    // in index order.
    let mut rows = Vec::with_capacity(cfg.loads.len() * TOPOLOGIES.len());
    for (l, &load) in cfg.loads.iter().enumerate() {
        for (k, &(topology, policy)) in TOPOLOGIES.iter().enumerate() {
            let mut row = TrafficRow {
                topology,
                policy,
                load,
                ..TrafficRow::default()
            };
            for t in 0..trials.len() {
                let r = &reports[(t * cfg.loads.len() + l) * TOPOLOGIES.len() + k];
                row.offered += r.offered;
                row.delivered += r.delivered;
                row.drops += r.drops;
                row.refused += r.refused;
                row.latency_p50 += r.latency_p50 as f64;
                row.latency_p99 += r.latency_p99 as f64;
                row.latency_mean += r.latency_mean;
                row.hop_stretch_avg += r.hop_stretch_avg;
                row.length_stretch_avg += r.length_stretch_avg;
                row.queue_peak_max = row.queue_peak_max.max(r.queue_peak_max);
            }
            let t = trials.len() as f64;
            row.latency_p50 /= t;
            row.latency_p99 /= t;
            row.latency_mean /= t;
            row.hop_stretch_avg /= t;
            row.length_stretch_avg /= t;
            rows.push(row);
        }
    }
    rows
}

/// The `traffic_load.csv` table (stable column order and formatting:
/// the artifact is byte-identical for a given seed).
pub fn traffic_table(rows: &[TrafficRow]) -> Table {
    let mut table = Table::new(
        [
            "topology",
            "policy",
            "load",
            "offered",
            "delivered",
            "delivery_ratio",
        ]
        .into_iter()
        .chain(DROP_COLUMNS)
        .chain([
            "refused",
            "latency_p50",
            "latency_p99",
            "latency_mean",
            "hop_stretch_avg",
            "length_stretch_avg",
            "queue_peak_max",
        ]),
    );
    for r in rows {
        let mut cells = vec![
            r.topology.to_string(),
            r.policy.to_string(),
            format!("{:.3}", r.load),
            r.offered.to_string(),
            r.delivered.to_string(),
            format!("{:.6}", r.delivery_ratio()),
        ];
        cells.extend(drop_cells(&r.drops));
        cells.extend([
            r.refused.to_string(),
            format!("{:.3}", r.latency_p50),
            format!("{:.3}", r.latency_p99),
            format!("{:.4}", r.latency_mean),
            format!("{:.4}", r.hop_stretch_avg),
            format!("{:.4}", r.length_stretch_avg),
            r.queue_peak_max.to_string(),
        ]);
        table.row(cells);
    }
    table
}

/// The smoke-test assertion: at the lowest swept load, dominating-set
/// backbone routing delivers at least 99% of offered packets.
///
/// Returns a description of the violation, if any.
pub fn check_low_load_delivery(rows: &[TrafficRow]) -> Result<(), String> {
    let low = rows.iter().map(|r| r.load).fold(f64::INFINITY, f64::min);
    let row = rows
        .iter()
        .find(|r| r.load == low && r.policy == "backbone")
        .ok_or_else(|| "no backbone row at the lowest load".to_string())?;
    if row.delivery_ratio() >= 0.99 {
        Ok(())
    } else {
        Err(format!(
            "backbone delivery at load {:.3} is {:.4} (< 0.99): {} of {} delivered",
            row.load,
            row.delivery_ratio(),
            row.delivered,
            row.offered
        ))
    }
}

/// Configuration of the reliability sweep: hotspot and bursty workloads
/// served over the backbone across queue disciplines, with and without
/// link-layer retransmit, under seeded radio loss.
#[derive(Debug, Clone)]
pub struct ReliabilitySweepConfig {
    /// Deployment parameters (`n`, `side`, `radius`, `trials`, `seed`).
    pub scenario: Scenario,
    /// Offered loads to sweep, in expected packets per tick. The lowest
    /// load anchors the recovery and delivery checks.
    pub loads: Vec<f64>,
    /// Ticks over which each workload offers packets.
    pub duration: u64,
    /// Per-node transmit queue capacity.
    pub queue_capacity: usize,
    /// Ticks per transmission.
    pub service_time: u64,
    /// Per-link delivery loss probability (the noise retransmit fights).
    pub loss: f64,
    /// Hotspot sink biases to sweep (each is one workload, sink node 0).
    pub hotspot_biases: Vec<f64>,
    /// Burst sizes to sweep (each is one workload).
    pub burst_sizes: Vec<usize>,
    /// DRR quantum (packets per flow per round-robin visit).
    pub quantum: u32,
    /// The retransmit scheme of the `retx = on` half of the sweep.
    pub reliability: ReliabilityConfig,
}

impl ReliabilitySweepConfig {
    /// The default sweep: the Table I deployment under 5% loss, two
    /// biases and two burst sizes, at a low and a saturating load.
    pub fn standard() -> Self {
        ReliabilitySweepConfig {
            scenario: Scenario {
                n: 100,
                side: 200.0,
                radius: 60.0,
                trials: 3,
                seed: 1,
            },
            loads: vec![0.05, 0.4],
            duration: 2_000,
            queue_capacity: 64,
            service_time: 1,
            loss: 0.05,
            hotspot_biases: vec![0.5, 0.9],
            burst_sizes: vec![4, 16],
            quantum: 2,
            reliability: ReliabilityConfig::default(),
        }
    }

    /// The CI smoke sweep: a small field, one bias, one burst size.
    pub fn quick() -> Self {
        ReliabilitySweepConfig {
            scenario: Scenario {
                n: 40,
                side: 120.0,
                radius: 45.0,
                trials: 1,
                seed: 1,
            },
            loads: vec![0.05, 0.4],
            duration: 500,
            queue_capacity: 64,
            service_time: 1,
            loss: 0.05,
            hotspot_biases: vec![0.8],
            burst_sizes: vec![8],
            quantum: 2,
            reliability: ReliabilityConfig::default(),
        }
    }

    /// The swept workloads in row order: hotspot biases, then bursts.
    fn workloads(&self, load: f64) -> Vec<Workload> {
        self.hotspot_biases
            .iter()
            .map(|&bias| Workload::hotspot(0, bias, load, self.duration))
            .chain(
                self.burst_sizes
                    .iter()
                    .map(|&burst| Workload::bursty(burst, load, self.duration)),
            )
            .collect()
    }

    /// The swept disciplines in row order.
    fn disciplines(&self) -> [Discipline; 3] {
        [
            Discipline::Fifo,
            Discipline::NearestFirst,
            Discipline::Drr {
                quantum: self.quantum,
            },
        ]
    }
}

/// One aggregated reliability-sweep row: a (workload, load, discipline,
/// retx) cell summed/averaged over the scenario's trials.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReliabilityRow {
    /// Workload shape ("hotspot" or "bursty").
    pub workload: &'static str,
    /// Shape parameter: sink bias for hotspot, burst size for bursty.
    pub param: f64,
    /// Queue discipline label ("fifo", "priority", "drr").
    pub discipline: &'static str,
    /// Whether link-layer retransmit was enabled.
    pub retx: bool,
    /// Offered load in packets per tick.
    pub load: f64,
    /// Total packets offered across trials.
    pub offered: usize,
    /// Total packets delivered across trials.
    pub delivered: usize,
    /// Drop totals across trials, by cause (`link_loss` counts losses
    /// after the retransmit budget, when enabled; `retry_shed` is
    /// always 0 here: this sweep runs without overload control).
    pub drops: DropCounts,
    /// Refused admission at sources (always 0 here, same reason).
    pub refused: usize,
    /// Link-layer retransmissions spent across trials.
    pub retransmissions: usize,
    /// Mean over trials of the median delivery latency.
    pub latency_p50: f64,
    /// Mean over trials of the 99th-percentile delivery latency.
    pub latency_p99: f64,
    /// Mean over trials of the mean delivery latency.
    pub latency_mean: f64,
    /// Worst queue occupancy any node reached in any trial.
    pub queue_peak_max: usize,
}

impl ReliabilityRow {
    /// Delivered fraction of offered packets.
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.delivered as f64 / self.offered as f64
        }
    }
}

/// Runs the reliability sweep: every (trial, workload, load, discipline,
/// retx) cell in parallel over the backbone forwarding scheme, then a
/// deterministic fold into one row per (workload, load, discipline,
/// retx).
///
/// The arrival schedule and fault seed of a cell depend only on (trial,
/// workload, load) — the discipline and retransmit halves of the sweep
/// see identical packets and identical loss rolls, so their rows are
/// paired comparisons, not independent samples.
///
/// # Panics
/// Panics if the scenario yields no trials, or no loads or workloads
/// are configured.
pub fn reliability_rows(cfg: &ReliabilitySweepConfig) -> Vec<ReliabilityRow> {
    assert!(cfg.scenario.trials > 0, "sweep needs at least one trial");
    assert!(!cfg.loads.is_empty(), "sweep needs at least one load");
    assert!(
        !cfg.hotspot_biases.is_empty() || !cfg.burst_sizes.is_empty(),
        "sweep needs at least one workload"
    );
    let instances = cfg.scenario.instances();
    let trials: Vec<(Graph, Backbone)> = instances
        .into_par_iter()
        .map(|(_pts, udg)| {
            let backbone = BackboneBuilder::new(
                BackboneConfig::new(cfg.scenario.radius).with_rank(ClusterRank::LowestId),
            )
            .build(&udg)
            .expect("centralized build cannot fail on a valid UDG");
            (udg, backbone)
        })
        .collect();

    let n_workloads = cfg.hotspot_biases.len() + cfg.burst_sizes.len();
    let disciplines = cfg.disciplines();
    // Cell grid: trial-major, then workload, then load, then
    // (discipline × retx).
    let variants = disciplines.len() * 2;
    let cells: Vec<(usize, usize, usize, usize)> = (0..trials.len())
        .flat_map(|t| {
            (0..n_workloads).flat_map(move |w| {
                (0..cfg.loads.len()).flat_map(move |l| (0..variants).map(move |v| (t, w, l, v)))
            })
        })
        .collect();
    let reports: Vec<TrafficReport> = cells
        .par_iter()
        .map(|&(t, w, l, v)| {
            let (udg, backbone) = &trials[t];
            let wl = cfg.workloads(cfg.loads[l])[w];
            let arrivals = wl.generate(
                cfg.scenario.n,
                mix_seed(
                    cfg.scenario.seed,
                    t as u64,
                    (w * cfg.loads.len() + l) as u64,
                ),
            );
            let faults = FaultPlan::new(mix_seed(
                cfg.scenario.seed ^ 0x7e11_ab1e,
                t as u64,
                (w * cfg.loads.len() + l) as u64,
            ))
            .with_loss(cfg.loss);
            let engine_cfg = TrafficConfig {
                queue_capacity: cfg.queue_capacity,
                service_time: cfg.service_time,
                max_hops: (50 * cfg.scenario.n) as u32,
                discipline: disciplines[v / 2],
                reliability: (v % 2 == 1).then_some(cfg.reliability),
                ..TrafficConfig::default()
            };
            let forwarding = Forwarding::Backbone { backbone, udg };
            run(&forwarding, udg, &arrivals, &faults, &engine_cfg).report
        })
        .collect();

    // Fold trial-major cells into (workload, load, discipline, retx)
    // rows, trials averaged in index order.
    let workload_meta: Vec<(&'static str, f64)> = cfg
        .workloads(1.0)
        .iter()
        .map(|wl| (wl.kind.label(), wl.kind.param()))
        .collect();
    let mut rows = Vec::with_capacity(n_workloads * cfg.loads.len() * variants);
    for (w, &(workload, param)) in workload_meta.iter().enumerate() {
        for (l, &load) in cfg.loads.iter().enumerate() {
            for (v, disc) in disciplines
                .iter()
                .enumerate()
                .flat_map(|(d, disc)| [(d * 2, disc), (d * 2 + 1, disc)])
            {
                let mut row = ReliabilityRow {
                    workload,
                    param,
                    discipline: disc.label(),
                    retx: v % 2 == 1,
                    load,
                    ..ReliabilityRow::default()
                };
                for t in 0..trials.len() {
                    let idx = ((t * n_workloads + w) * cfg.loads.len() + l) * variants + v;
                    let r = &reports[idx];
                    row.offered += r.offered;
                    row.delivered += r.delivered;
                    row.drops += r.drops;
                    row.refused += r.refused;
                    row.retransmissions += r.retransmissions;
                    row.latency_p50 += r.latency_p50 as f64;
                    row.latency_p99 += r.latency_p99 as f64;
                    row.latency_mean += r.latency_mean;
                    row.queue_peak_max = row.queue_peak_max.max(r.queue_peak_max);
                }
                let t = trials.len() as f64;
                row.latency_p50 /= t;
                row.latency_p99 /= t;
                row.latency_mean /= t;
                rows.push(row);
            }
        }
    }
    rows
}

/// The `traffic_reliability.csv` table (stable column order and
/// formatting: the artifact is byte-identical for a given seed).
pub fn reliability_table(rows: &[ReliabilityRow]) -> Table {
    let mut table = Table::new(
        [
            "workload",
            "param",
            "discipline",
            "retx",
            "load",
            "offered",
            "delivered",
            "delivery_ratio",
        ]
        .into_iter()
        .chain(DROP_COLUMNS)
        .chain([
            "refused",
            "retransmissions",
            "latency_p50",
            "latency_p99",
            "latency_mean",
            "queue_peak_max",
        ]),
    );
    for r in rows {
        let mut cells = vec![
            r.workload.to_string(),
            format!("{:.3}", r.param),
            r.discipline.to_string(),
            on_off(r.retx),
            format!("{:.3}", r.load),
            r.offered.to_string(),
            r.delivered.to_string(),
            format!("{:.6}", r.delivery_ratio()),
        ];
        cells.extend(drop_cells(&r.drops));
        cells.extend([
            r.refused.to_string(),
            r.retransmissions.to_string(),
            format!("{:.3}", r.latency_p50),
            format!("{:.3}", r.latency_p99),
            format!("{:.4}", r.latency_mean),
            r.queue_peak_max.to_string(),
        ]);
        table.row(cells);
    }
    table
}

/// The recovery assertion: at the lowest swept load, for every
/// (workload, discipline), retransmit recovers at least 90% of the
/// first-attempt link losses — `link_loss` with retx on is at most 10%
/// of the paired no-retx cell's.
///
/// Returns a description of the first violation, if any.
pub fn check_retx_recovery(rows: &[ReliabilityRow]) -> Result<(), String> {
    let low = rows.iter().map(|r| r.load).fold(f64::INFINITY, f64::min);
    for base in rows.iter().filter(|r| r.load == low && !r.retx) {
        let paired = rows
            .iter()
            .find(|r| {
                r.load == low
                    && r.retx
                    && r.workload == base.workload
                    && r.param == base.param
                    && r.discipline == base.discipline
            })
            .ok_or_else(|| format!("no retx row pairing {base:?}"))?;
        if base.drops.link_loss == 0 {
            continue;
        }
        let recovered = 1.0 - paired.drops.link_loss as f64 / base.drops.link_loss as f64;
        if recovered < 0.9 {
            return Err(format!(
                "{}/{} ({}) at load {:.3}: retransmit recovered only {:.1}% \
                 of link losses ({} -> {})",
                base.workload,
                base.param,
                base.discipline,
                low,
                100.0 * recovered,
                base.drops.link_loss,
                paired.drops.link_loss
            ));
        }
    }
    Ok(())
}

/// The delivery assertion: at the lowest swept load, every retransmit
/// row delivers at least as large a fraction as the FIFO/no-retx
/// baseline of its workload.
///
/// Returns a description of the first violation, if any.
pub fn check_retx_delivery(rows: &[ReliabilityRow]) -> Result<(), String> {
    let low = rows.iter().map(|r| r.load).fold(f64::INFINITY, f64::min);
    for r in rows.iter().filter(|r| r.load == low && r.retx) {
        let base = rows
            .iter()
            .find(|b| {
                b.load == low
                    && !b.retx
                    && b.discipline == "fifo"
                    && b.workload == r.workload
                    && b.param == r.param
            })
            .ok_or_else(|| format!("no fifo/no-retx baseline for {r:?}"))?;
        if r.delivery_ratio() < base.delivery_ratio() {
            return Err(format!(
                "{}/{} ({}, retx) delivers {:.4} < baseline {:.4} at load {:.3}",
                r.workload,
                r.param,
                r.discipline,
                r.delivery_ratio(),
                base.delivery_ratio(),
                low
            ));
        }
    }
    Ok(())
}

/// Configuration of the saturation sweep: a hotspot workload served
/// over the backbone, pushed up the load axis until every queue
/// discipline's delivery collapses — then the same cells re-run with
/// congestion-adaptive overload control (sender-queue watermarks +
/// token-bucket admission) to measure how far the 95%-delivery frontier
/// moves outward.
#[derive(Debug, Clone)]
pub struct SaturationSweepConfig {
    /// Deployment parameters (`n`, `side`, `radius`, `trials`, `seed`).
    pub scenario: Scenario,
    /// Offered loads to sweep, ascending, in expected packets per tick.
    /// The top of the range must saturate the hotspot ingress.
    pub loads: Vec<f64>,
    /// Ticks over which each workload offers packets.
    pub duration: u64,
    /// Per-node transmit queue capacity (small, so saturation shows up
    /// as `QueueFull` instead of unbounded latency).
    pub queue_capacity: usize,
    /// Ticks per transmission.
    pub service_time: u64,
    /// Per-link delivery loss probability (the retransmit layer's
    /// pressure source).
    pub loss: f64,
    /// Hotspot sink bias of the workload (sink node 0): the fraction of
    /// traffic funneled through the sink's ingress relay, which is the
    /// resource that saturates.
    pub sink_bias: f64,
    /// DRR quantum (packets per flow per round-robin visit).
    pub quantum: u32,
    /// The retransmit scheme, active in *both* halves of the sweep —
    /// overload control adapts it, it does not replace it.
    pub reliability: ReliabilityConfig,
    /// Sender-queue watermarks of the control-on half.
    pub overload: OverloadConfig,
    /// Source admission of the control-on half.
    pub admission: AdmissionPolicy,
    /// Spatial shard count of the serving engine. Any value produces
    /// byte-identical rows — the crown invariant of the sharded engine,
    /// pinned by a test sweeping this knob over the E18 config.
    pub shards: usize,
}

impl SaturationSweepConfig {
    /// The default sweep: the Table I deployment under 10% loss, loads
    /// pushed past the hotspot ingress saturation point. The sink (node
    /// 0, a lowest-ID dominator) is reached through several backbone
    /// relays, so collapse arrives well above the single-relay estimate
    /// `1/bias` — the range must extend past it by several octaves.
    pub fn standard() -> Self {
        SaturationSweepConfig {
            scenario: Scenario {
                n: 100,
                side: 200.0,
                radius: 60.0,
                trials: 3,
                seed: 1,
            },
            loads: vec![0.4, 0.8, 1.6, 3.2, 6.4, 12.8],
            duration: 2_000,
            queue_capacity: 16,
            service_time: 1,
            loss: 0.1,
            sink_bias: 0.7,
            quantum: 2,
            reliability: ReliabilityConfig::default(),
            overload: OverloadConfig::for_capacity(16),
            // Aggregate admitted ceiling n / ticks_per_token = 1.0
            // packet per tick — under the ingress saturation point, so
            // admitted traffic keeps delivering while offered load
            // grows without bound.
            admission: AdmissionPolicy::TokenBucket {
                ticks_per_token: 100,
                burst: 2,
            },
            shards: 1,
        }
    }

    /// The CI smoke sweep: a small field pushed over the same cliff.
    pub fn quick() -> Self {
        SaturationSweepConfig {
            scenario: Scenario {
                n: 40,
                side: 120.0,
                radius: 45.0,
                trials: 1,
                seed: 1,
            },
            loads: vec![0.4, 1.6, 6.4, 12.8],
            duration: 600,
            queue_capacity: 8,
            service_time: 1,
            loss: 0.1,
            sink_bias: 0.7,
            quantum: 2,
            reliability: ReliabilityConfig::default(),
            overload: OverloadConfig::for_capacity(8),
            admission: AdmissionPolicy::TokenBucket {
                ticks_per_token: 40,
                burst: 2,
            },
            shards: 1,
        }
    }

    /// The swept disciplines in row order.
    fn disciplines(&self) -> [Discipline; 3] {
        [
            Discipline::Fifo,
            Discipline::NearestFirst,
            Discipline::Drr {
                quantum: self.quantum,
            },
        ]
    }
}

/// One aggregated saturation row: a (discipline, control, load) cell
/// summed/averaged over the scenario's trials.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SaturationRow {
    /// Queue discipline label ("fifo", "priority", "drr").
    pub discipline: &'static str,
    /// Whether overload control (watermarks + admission) was on.
    pub control: bool,
    /// Offered load in packets per tick.
    pub load: f64,
    /// Total packets offered across trials.
    pub offered: usize,
    /// Refused admission at sources (0 in the control-off half).
    pub refused: usize,
    /// Total packets delivered across trials.
    pub delivered: usize,
    /// Drop totals across trials, by cause: `queue_full` is the
    /// congestion-collapse signature, `link_loss` counts losses after
    /// the retransmit budget, `retry_shed` is 0 in the control-off half.
    pub drops: DropCounts,
    /// Link-layer retransmissions spent across trials.
    pub retransmissions: usize,
    /// Mean over trials of the median delivery latency.
    pub latency_p50: f64,
    /// Mean over trials of the 99th-percentile delivery latency.
    pub latency_p99: f64,
    /// Worst queue occupancy any node reached in any trial.
    pub queue_peak_max: usize,
}

impl SaturationRow {
    /// Packets that entered the network: offered minus refusals.
    pub fn admitted(&self) -> usize {
        self.offered - self.refused
    }

    /// Delivered fraction of *admitted* packets (1.0 when nothing was
    /// admitted). This is the frontier metric: an admission gate is
    /// judged on what it let in, a watermark on what it kept flowing —
    /// in the control-off half `admitted == offered`, so the two
    /// halves' ratios are directly comparable.
    pub fn delivery_ratio(&self) -> f64 {
        if self.admitted() == 0 {
            1.0
        } else {
            self.delivered as f64 / self.admitted() as f64
        }
    }
}

/// Runs the saturation sweep: every (trial, load, discipline, control)
/// cell in parallel over backbone forwarding, then a deterministic fold
/// into one row per (discipline, control, load).
///
/// The arrival schedule and fault seed of a cell depend only on (trial,
/// load) — all disciplines and both control halves see identical
/// packets and identical loss rolls, so rows are paired comparisons.
///
/// # Panics
/// Panics if the scenario yields no trials or no loads are configured.
pub fn saturation_rows(cfg: &SaturationSweepConfig) -> Vec<SaturationRow> {
    assert!(cfg.scenario.trials > 0, "sweep needs at least one trial");
    assert!(!cfg.loads.is_empty(), "sweep needs at least one load");
    let instances = cfg.scenario.instances();
    let trials: Vec<(Graph, Backbone)> = instances
        .into_par_iter()
        .map(|(_pts, udg)| {
            let backbone = BackboneBuilder::new(
                BackboneConfig::new(cfg.scenario.radius).with_rank(ClusterRank::LowestId),
            )
            .build(&udg)
            .expect("centralized build cannot fail on a valid UDG");
            (udg, backbone)
        })
        .collect();

    let disciplines = cfg.disciplines();
    // Cell grid: trial-major, then load, then (discipline × control).
    let variants = disciplines.len() * 2;
    let cells: Vec<(usize, usize, usize)> = (0..trials.len())
        .flat_map(|t| (0..cfg.loads.len()).flat_map(move |l| (0..variants).map(move |v| (t, l, v))))
        .collect();
    let reports: Vec<TrafficReport> = cells
        .par_iter()
        .map(|&(t, l, v)| {
            let (udg, backbone) = &trials[t];
            let arrivals = Workload::hotspot(0, cfg.sink_bias, cfg.loads[l], cfg.duration)
                .generate(
                    cfg.scenario.n,
                    mix_seed(cfg.scenario.seed, t as u64, l as u64),
                );
            let faults = FaultPlan::new(mix_seed(
                cfg.scenario.seed ^ 0x5a70_ca7e,
                t as u64,
                l as u64,
            ))
            .with_loss(cfg.loss);
            let control = v % 2 == 1;
            let engine_cfg = TrafficConfig {
                queue_capacity: cfg.queue_capacity,
                service_time: cfg.service_time,
                max_hops: (50 * cfg.scenario.n) as u32,
                discipline: disciplines[v / 2],
                reliability: Some(cfg.reliability),
                overload: control.then_some(cfg.overload),
                admission: if control {
                    cfg.admission
                } else {
                    AdmissionPolicy::Open
                },
                shards: cfg.shards,
                ..TrafficConfig::default()
            };
            let forwarding = Forwarding::Backbone { backbone, udg };
            run(&forwarding, udg, &arrivals, &faults, &engine_cfg).report
        })
        .collect();

    // Fold trial-major cells into (discipline, control, load) rows,
    // trials averaged in index order.
    let mut rows = Vec::with_capacity(cfg.loads.len() * variants);
    for (d, disc) in disciplines.iter().enumerate() {
        for control in [false, true] {
            let v = d * 2 + usize::from(control);
            for (l, &load) in cfg.loads.iter().enumerate() {
                let mut row = SaturationRow {
                    discipline: disc.label(),
                    control,
                    load,
                    ..SaturationRow::default()
                };
                for t in 0..trials.len() {
                    let idx = (t * cfg.loads.len() + l) * variants + v;
                    let r = &reports[idx];
                    row.offered += r.offered;
                    row.refused += r.refused;
                    row.delivered += r.delivered;
                    row.drops += r.drops;
                    row.retransmissions += r.retransmissions;
                    row.latency_p50 += r.latency_p50 as f64;
                    row.latency_p99 += r.latency_p99 as f64;
                    row.queue_peak_max = row.queue_peak_max.max(r.queue_peak_max);
                }
                let t = trials.len() as f64;
                row.latency_p50 /= t;
                row.latency_p99 /= t;
                rows.push(row);
            }
        }
    }
    rows
}

/// The delivery threshold defining the saturation frontier.
pub const FRONTIER_THRESHOLD: f64 = 0.95;

/// The saturation frontier of one (discipline, control) curve: the
/// smallest swept load whose delivery ratio falls under
/// [`FRONTIER_THRESHOLD`], or `None` if the curve never collapses
/// within the sweep (an unbounded frontier — strictly further out than
/// any finite one).
pub fn saturation_frontier(rows: &[SaturationRow], discipline: &str, control: bool) -> Option<f64> {
    rows.iter()
        .filter(|r| r.discipline == discipline && r.control == control)
        .filter(|r| r.delivery_ratio() < FRONTIER_THRESHOLD)
        .map(|r| r.load)
        .fold(None, |acc, load| {
            Some(acc.map_or(load, |a: f64| a.min(load)))
        })
}

/// The collapse assertion: with overload control off, every discipline
/// has a cell where delivery collapses under the frontier threshold
/// *with queue-full drops present* — congestion, not noise, is what
/// broke delivery.
///
/// Returns a description of the first violation, if any.
pub fn check_saturation_collapse(rows: &[SaturationRow]) -> Result<(), String> {
    for disc in ["fifo", "priority", "drr"] {
        let collapsed = rows.iter().any(|r| {
            r.discipline == disc
                && !r.control
                && r.delivery_ratio() < FRONTIER_THRESHOLD
                && r.drops.queue_full > 0
        });
        if !collapsed {
            return Err(format!(
                "{disc} never collapsed without overload control: the sweep's \
                 load range does not reach saturation"
            ));
        }
    }
    Ok(())
}

/// The frontier-shift assertion: for every discipline, the 95%-delivery
/// frontier with overload control on sits at a strictly higher load
/// than with it off (or does not exist at all — control kept delivery
/// above the threshold through the whole sweep).
///
/// Returns a description of the first violation, if any.
pub fn check_frontier_shift(rows: &[SaturationRow]) -> Result<(), String> {
    for disc in ["fifo", "priority", "drr"] {
        let off = saturation_frontier(rows, disc, false).ok_or_else(|| {
            format!("{disc}: no control-off frontier — the sweep never saturates")
        })?;
        match saturation_frontier(rows, disc, true) {
            None => {} // never collapses: frontier pushed past the sweep
            Some(on) if on > off => {}
            Some(on) => {
                return Err(format!(
                    "{disc}: overload control did not move the frontier \
                     outward (off {off:.3}, on {on:.3})"
                ));
            }
        }
    }
    Ok(())
}

/// The `traffic_saturation.csv` table (stable column order and
/// formatting: the artifact is byte-identical for a given seed).
/// `delivery_ratio` is delivered / admitted — see
/// [`SaturationRow::delivery_ratio`].
pub fn saturation_table(rows: &[SaturationRow]) -> Table {
    let mut table = Table::new(
        [
            "discipline",
            "control",
            "load",
            "offered",
            "refused",
            "admitted",
            "delivered",
            "delivery_ratio",
        ]
        .into_iter()
        .chain(DROP_COLUMNS)
        .chain([
            "retransmissions",
            "latency_p50",
            "latency_p99",
            "queue_peak_max",
        ]),
    );
    for r in rows {
        let mut cells = vec![
            r.discipline.to_string(),
            on_off(r.control),
            format!("{:.3}", r.load),
            r.offered.to_string(),
            r.refused.to_string(),
            r.admitted().to_string(),
            r.delivered.to_string(),
            format!("{:.6}", r.delivery_ratio()),
        ];
        cells.extend(drop_cells(&r.drops));
        cells.extend([
            r.retransmissions.to_string(),
            format!("{:.3}", r.latency_p50),
            format!("{:.3}", r.latency_p99),
            r.queue_peak_max.to_string(),
        ]);
        table.row(cells);
    }
    table
}

/// E16 — packet delivery under load across backbone topologies:
/// seeded workloads over UDG (greedy), CDS' (GPSR) and `LDel(ICDS)`
/// (dominating-set backbone routing) at a range of offered loads.
/// `--check`: backbone routing delivers >= 99% at the lowest load.
pub fn traffic_load(flags: &Flags, out: &mut Artifacts) -> Result<(), String> {
    let mut cfg = if flags.quick {
        SweepConfig::quick()
    } else {
        SweepConfig::standard()
    };
    cfg.scenario = flags.scenario(cfg.scenario);
    println!(
        "Traffic under load: n={}, R={}, {} trials, {} ticks, loads {:?}\n",
        cfg.scenario.n, cfg.scenario.radius, cfg.scenario.trials, cfg.duration, cfg.loads
    );
    let rows = traffic_rows(&cfg);
    publish(out, "traffic_load.csv", &traffic_table(&rows));
    println!(
        "\nAt low load the backbone delivers nearly everything at bounded stretch; as load \
         rises, queueing on the (smaller) backbone caps throughput first — the cost side of \
         concentrating traffic on a spanner."
    );
    if flags.check {
        check_low_load_delivery(&rows)?;
        println!("check passed: backbone delivery >= 0.99 at the lowest load");
    }
    Ok(())
}

/// E17 — retransmit and queue disciplines under lossy load: hotspot and
/// bursty workloads over `LDel(ICDS)` under seeded radio loss, the three
/// disciplines with link-layer retransmit off and on. `--check`: at the
/// lowest load retransmit recovers >= 90% of first-attempt link losses
/// in every cell, and every retransmit cell delivers at least the
/// FIFO/no-retx baseline fraction.
pub fn traffic_reliability(flags: &Flags, out: &mut Artifacts) -> Result<(), String> {
    let mut cfg = if flags.quick {
        ReliabilitySweepConfig::quick()
    } else {
        ReliabilitySweepConfig::standard()
    };
    cfg.scenario = flags.scenario(cfg.scenario);
    println!(
        "Retransmit + disciplines under {:.0}% loss: n={}, R={}, {} trials, {} ticks, \
         loads {:?}, biases {:?}, bursts {:?}\n",
        100.0 * cfg.loss,
        cfg.scenario.n,
        cfg.scenario.radius,
        cfg.scenario.trials,
        cfg.duration,
        cfg.loads,
        cfg.hotspot_biases,
        cfg.burst_sizes
    );
    let rows = reliability_rows(&cfg);
    publish(out, "traffic_reliability.csv", &reliability_table(&rows));
    println!(
        "\nAt low load retransmit converts link losses into latency — deliveries go up, \
         tails stretch by the backoff. At high load retries compete with fresh packets \
         for queue slots, so reliability buys less and can cost delivery; DRR keeps the \
         hotspot from starving cross traffic where FIFO lets the sink's backlog win."
    );
    if flags.check {
        check_retx_recovery(&rows)?;
        check_retx_delivery(&rows)?;
        println!(
            "check passed: retransmit recovers >= 90% of link losses and no retransmit \
             cell delivers below the fifo/no-retx baseline at the lowest load"
        );
    }
    Ok(())
}

/// E18 — the saturation frontier, with and without overload control: a
/// hotspot workload over `LDel(ICDS)` under seeded loss, pushed past the
/// load where every discipline collapses into `QueueFull` drops, then
/// re-run with sender-queue watermarks + token-bucket admission.
/// `--check`: every discipline's control-off half collapses (admitted
/// delivery < 95% with `QueueFull` drops) and its control-on frontier
/// sits strictly higher (or beyond the sweep).
pub fn traffic_saturation(flags: &Flags, out: &mut Artifacts) -> Result<(), String> {
    let mut cfg = if flags.quick {
        SaturationSweepConfig::quick()
    } else {
        SaturationSweepConfig::standard()
    };
    cfg.scenario = flags.scenario(cfg.scenario);
    println!(
        "Saturation frontier under {:.0}% loss: n={}, R={}, {} trials, {} ticks, \
         loads {:?}, sink bias {}, queue capacity {}\n",
        100.0 * cfg.loss,
        cfg.scenario.n,
        cfg.scenario.radius,
        cfg.scenario.trials,
        cfg.duration,
        cfg.loads,
        cfg.sink_bias,
        cfg.queue_capacity
    );
    let rows = saturation_rows(&cfg);
    publish(out, "traffic_saturation.csv", &saturation_table(&rows));
    println!();
    for disc in ["fifo", "priority", "drr"] {
        let fmt =
            |f: Option<f64>| f.map_or("beyond sweep".to_string(), |load| format!("{load:.2}"));
        println!(
            "{disc:<9} 95% frontier: off at {}, on at {}",
            fmt(saturation_frontier(&rows, disc, false)),
            fmt(saturation_frontier(&rows, disc, true))
        );
    }
    println!(
        "\nWithout overload control the hotspot's ingress relays saturate: queues fill, \
         retries amplify the backlog, and delivery collapses into QueueFull drops. With \
         watermarks shedding retries and token buckets refusing excess injections at the \
         source, admitted traffic keeps delivering — refusals absorb the overload instead \
         of the queues, and the 95%-delivery frontier moves past the top of the sweep."
    );
    if flags.check {
        check_saturation_collapse(&rows)?;
        check_frontier_shift(&rows)?;
        println!(
            "check passed: every discipline collapses below 95% with QueueFull drops when \
             overload control is off, and its frontier sits strictly higher with control on"
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_has_expected_shape() {
        let cfg = SweepConfig::quick();
        let rows = traffic_rows(&cfg);
        assert_eq!(rows.len(), cfg.loads.len() * TOPOLOGIES.len());
        for r in &rows {
            assert!(r.offered > 0);
            assert_eq!(r.offered, r.delivered + r.drops.total());
        }
        check_low_load_delivery(&rows).unwrap();
        // Backbone routes detour: stretch is measured and ≥ 1.
        let backbone_low = rows.iter().find(|r| r.policy == "backbone").unwrap();
        assert!(backbone_low.hop_stretch_avg >= 1.0);
        assert!(backbone_low.length_stretch_avg >= 1.0);
    }

    #[test]
    fn csv_is_stable_and_parsable() {
        let rows = traffic_rows(&SweepConfig::quick());
        let a = traffic_table(&rows).csv();
        let b = traffic_table(&traffic_rows(&SweepConfig::quick())).csv();
        assert_eq!(a, b, "same seed must give a byte-identical artifact");
        assert_eq!(a.lines().count(), rows.len() + 1);
        assert!(a.starts_with("topology,policy,load,"));
    }

    #[test]
    fn quick_reliability_sweep_recovers_losses_and_conserves_packets() {
        let cfg = ReliabilitySweepConfig::quick();
        let rows = reliability_rows(&cfg);
        // workloads × loads × disciplines × {off, on}.
        assert_eq!(rows.len(), 2 * cfg.loads.len() * 3 * 2);
        for r in &rows {
            assert!(r.offered > 0);
            assert_eq!(r.offered, r.delivered + r.drops.total());
            // Retransmissions only happen in the retx half.
            assert_eq!(
                r.retx,
                r.retransmissions > 0 || r.retx && r.drops.link_loss == 0
            );
        }
        check_retx_recovery(&rows).unwrap();
        check_retx_delivery(&rows).unwrap();
    }

    #[test]
    fn reliability_halves_are_paired_comparisons() {
        // Same arrivals, same loss rolls on the first attempt: the retx
        // half can only move packets from drop_loss to delivered (or to
        // another cause), never see different traffic — offered counts
        // match pairwise.
        let rows = reliability_rows(&ReliabilitySweepConfig::quick());
        for base in rows.iter().filter(|r| !r.retx) {
            let paired = rows
                .iter()
                .find(|r| {
                    r.retx
                        && r.workload == base.workload
                        && r.param == base.param
                        && r.discipline == base.discipline
                        && r.load == base.load
                })
                .unwrap();
            assert_eq!(base.offered, paired.offered);
        }
    }

    #[test]
    fn quick_saturation_sweep_collapses_and_control_moves_the_frontier() {
        let cfg = SaturationSweepConfig::quick();
        let rows = saturation_rows(&cfg);
        // disciplines × {off, on} × loads.
        assert_eq!(rows.len(), 3 * 2 * cfg.loads.len());
        for r in &rows {
            assert!(r.offered > 0);
            assert_eq!(r.offered, r.delivered + r.refused + r.drops.total());
            if !r.control {
                assert_eq!(r.refused, 0, "no admission gate in the off half");
                assert_eq!(r.drops.retry_shed, 0, "no watermarks in the off half");
            }
        }
        check_saturation_collapse(&rows).unwrap();
        check_frontier_shift(&rows).unwrap();
    }

    #[test]
    fn saturation_halves_are_paired_comparisons() {
        let rows = saturation_rows(&SaturationSweepConfig::quick());
        for base in rows.iter().filter(|r| !r.control) {
            let paired = rows
                .iter()
                .find(|r| r.control && r.discipline == base.discipline && r.load == base.load)
                .unwrap();
            assert_eq!(base.offered, paired.offered, "same arrival schedule");
        }
    }

    #[test]
    fn saturation_csv_is_stable_and_parsable() {
        let rows = saturation_rows(&SaturationSweepConfig::quick());
        let a = saturation_table(&rows).csv();
        let b = saturation_table(&saturation_rows(&SaturationSweepConfig::quick())).csv();
        assert_eq!(a, b, "same seed must give a byte-identical artifact");
        assert_eq!(a.lines().count(), rows.len() + 1);
        assert!(a.starts_with("discipline,control,load,"));
    }

    #[test]
    fn e18_csv_is_byte_identical_at_every_shard_count() {
        // The crown invariant on the E18 saturation config itself:
        // shards ∈ {1, 2, 4, 8} serve every (discipline × control ×
        // load) cell of the sweep to byte-identical CSV rows.
        let reference = saturation_table(&saturation_rows(&SaturationSweepConfig::quick())).csv();
        for shards in [2, 4, 8] {
            let mut cfg = SaturationSweepConfig::quick();
            cfg.shards = shards;
            let csv = saturation_table(&saturation_rows(&cfg)).csv();
            assert_eq!(
                reference, csv,
                "shards={shards}: E18 CSV diverged from single-shard"
            );
        }
    }

    #[test]
    fn frontier_of_an_empty_curve_is_none() {
        assert_eq!(saturation_frontier(&[], "fifo", false), None);
    }

    #[test]
    fn reliability_csv_is_stable_and_parsable() {
        let rows = reliability_rows(&ReliabilitySweepConfig::quick());
        let a = reliability_table(&rows).csv();
        let b = reliability_table(&reliability_rows(&ReliabilitySweepConfig::quick())).csv();
        assert_eq!(a, b, "same seed must give a byte-identical artifact");
        assert_eq!(a.lines().count(), rows.len() + 1);
        assert!(a.starts_with("workload,param,discipline,retx,load,"));
    }
}
