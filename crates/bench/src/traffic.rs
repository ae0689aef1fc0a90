//! The traffic sweeps: serve packet workloads over UDG, CDS', and
//! `LDel(ICDS)` across offered-load levels and measure delivery,
//! latency, stretch, and queue behavior under congestion.
//!
//! This is the evaluation regime the backbone exists for — spanner
//! bounds only matter for packets actually forwarded — run in the style
//! of localized-spanner workload studies (throughput/stretch under
//! sustained load) rather than static all-pairs tables.
//!
//! Three experiments live here: E16 `traffic_load`, E17
//! `traffic_reliability` and E18 `traffic_saturation`; E21
//! (`crate::churn`) shares their skeleton. Each trial's topologies are
//! built once, every (trial, cell) pair is served in parallel by
//! `grid`, and each cell's [`Tally`] folds its trials in index order,
//! so the CSVs are byte-identical for every thread count.

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

/// The queue disciplines E17 and E18 sweep, in row order.
const DISCIPLINES: [Discipline; 3] = [
    Discipline::Fifo,
    Discipline::NearestFirst,
    Discipline::Drr { quantum: 2 },
];

/// E17's offered loads: a low one, which anchors the recovery and
/// delivery checks, and a saturating one.
const RELIABILITY_LOADS: [f64; 2] = [0.05, 0.4];
/// E17's per-link loss probability: the noise retransmit fights.
const RELIABILITY_LOSS: f64 = 0.05;
/// E18's per-link loss probability: the retransmit layer's pressure
/// source.
const SATURATION_LOSS: f64 = 0.1;
/// E18's hotspot sink bias (sink node 0): the fraction of traffic
/// funneled through the sink's ingress relay, the resource that
/// saturates.
const SINK_BIAS: f64 = 0.7;

/// One sweep cell's reports folded over the trials, in trial order:
/// counts and drops summed, latencies and stretches averaged, the queue
/// peak maxed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Packets offered.
    pub offered: usize,
    /// Packets delivered.
    pub delivered: usize,
    /// Packets refused admission at their source.
    pub refused: usize,
    /// Drops by cause.
    pub drops: DropCounts,
    /// Link-layer retransmissions spent.
    pub retransmissions: usize,
    /// Median delivery latency, averaged over trials.
    pub latency_p50: f64,
    /// 99th-percentile delivery latency, averaged over trials.
    pub latency_p99: f64,
    /// Mean delivery latency, averaged over trials.
    pub latency_mean: f64,
    /// Average hop stretch vs. the UDG, averaged over trials.
    pub hop_stretch_avg: f64,
    /// Average length stretch vs. the UDG, averaged over trials.
    pub length_stretch_avg: f64,
    /// Worst queue occupancy any node reached in any trial.
    pub queue_peak_max: usize,
}

impl Tally {
    /// Folds one cell's per-trial reports, in the order given.
    pub fn over<'a>(reports: impl IntoIterator<Item = &'a TrafficReport>) -> Tally {
        let mut tally = Tally::default();
        let mut trials = 0;
        for r in reports {
            trials += 1;
            tally.offered += r.offered;
            tally.delivered += r.delivered;
            tally.refused += r.refused;
            tally.drops += r.drops;
            tally.retransmissions += r.retransmissions;
            tally.latency_p50 += r.latency_p50 as f64;
            tally.latency_p99 += r.latency_p99 as f64;
            tally.latency_mean += r.latency_mean;
            tally.hop_stretch_avg += r.hop_stretch_avg;
            tally.length_stretch_avg += r.length_stretch_avg;
            tally.queue_peak_max = tally.queue_peak_max.max(r.queue_peak_max);
        }
        let t = trials as f64;
        tally.latency_p50 /= t;
        tally.latency_p99 /= t;
        tally.latency_mean /= t;
        tally.hop_stretch_avg /= t;
        tally.length_stretch_avg /= t;
        tally
    }

    /// Packets that entered the network: offered minus refusals.
    pub fn admitted(&self) -> usize {
        self.offered - self.refused
    }

    /// Delivered fraction of *admitted* packets (1.0 when nothing was
    /// admitted). An admission gate is judged on what it let in, a
    /// watermark on what it kept flowing; without a gate
    /// `admitted == offered`.
    pub fn delivery_ratio(&self) -> f64 {
        if self.admitted() == 0 {
            1.0
        } else {
            self.delivered as f64 / self.admitted() as f64
        }
    }
}

/// Runs `serve(t, &trials[t], c)` for every trial `t` and cell `c` in
/// parallel; the results come back trial-major, at `t * cells + c`.
pub(crate) fn grid<T: Sync, R: Send>(
    trials: &[T],
    cells: usize,
    serve: impl Fn(usize, &T, usize) -> R + Sync,
) -> Vec<R> {
    (0..trials.len() * cells)
        .into_par_iter()
        .map(|i| serve(i / cells, &trials[i / cells], i % cells))
        .collect()
}

/// Cell `c`'s results in a trial-major [`grid`], in trial order.
pub(crate) fn trials_of<R>(results: &[R], cells: usize, c: usize) -> impl Iterator<Item = &R> {
    results.iter().skip(c).step_by(cells)
}

/// The engine configuration every sweep starts from: the defaults with
/// a hop budget of 50 hops per node.
pub(crate) fn serving(n: usize) -> TrafficConfig {
    TrafficConfig {
        max_hops: (50 * n) as u32,
        ..TrafficConfig::default()
    }
}

/// The skeleton of E16–E18: builds each trial's UDG and backbone once,
/// serves every (trial, cell) pair in parallel through
/// `serve(trial, udg, backbone, cell)`, and tallies each cell over the
/// trials.
///
/// # Panics
/// Panics if the scenario yields no trials or there are no cells.
fn sweep<C: Sync>(
    scenario: &Scenario,
    cells: &[C],
    serve: impl Fn(u64, &Graph, &Backbone, &C) -> TrafficReport + Sync,
) -> Vec<Tally> {
    assert!(scenario.trials > 0, "sweep needs at least one trial");
    assert!(!cells.is_empty(), "sweep needs at least one cell");
    let trials: Vec<(Graph, Backbone)> = scenario
        .instances()
        .into_par_iter()
        .map(|(_pts, udg)| {
            let backbone = BackboneBuilder::new(
                BackboneConfig::new(scenario.radius).with_rank(ClusterRank::LowestId),
            )
            .build(&udg)
            .expect("centralized build cannot fail on a valid UDG");
            (udg, backbone)
        })
        .collect();
    let reports = grid(&trials, cells.len(), |t, (udg, backbone), c| {
        serve(t as u64, udg, backbone, &cells[c])
    });
    (0..cells.len())
        .map(|c| Tally::over(trials_of(&reports, cells.len(), c)))
        .collect()
}

/// A column of a sweep table: its header and how a tally fills it.
pub(crate) type Column = (&'static str, fn(&Tally) -> String);

/// The headers of `columns`, a list of column groups.
pub(crate) fn column_headers<'a>(
    columns: &'a [&'a [Column]],
) -> impl Iterator<Item = &'static str> + 'a {
    columns.iter().copied().flatten().map(|c| c.0)
}

/// The cells of `columns`, a list of column groups, for one tally.
pub(crate) fn column_cells<'a>(
    columns: &'a [&'a [Column]],
    tally: &'a Tally,
) -> impl Iterator<Item = String> + 'a {
    columns.iter().copied().flatten().map(move |c| (c.1)(tally))
}

pub(crate) const OFFERED: Column = ("offered", |t| t.offered.to_string());
pub(crate) const DELIVERED: Column = ("delivered", |t| t.delivered.to_string());
pub(crate) const DELIVERY_RATIO: Column =
    ("delivery_ratio", |t| format!("{:.6}", t.delivery_ratio()));
const ADMITTED: Column = ("admitted", |t| t.admitted().to_string());
const REFUSED: Column = ("refused", |t| t.refused.to_string());
const RETRANSMISSIONS: Column = ("retransmissions", |t| t.retransmissions.to_string());
const LATENCY_P50: Column = ("latency_p50", |t| format!("{:.3}", t.latency_p50));
const LATENCY_P99: Column = ("latency_p99", |t| format!("{:.3}", t.latency_p99));
const LATENCY_MEAN: Column = ("latency_mean", |t| format!("{:.4}", t.latency_mean));
const QUEUE_PEAK_MAX: Column = ("queue_peak_max", |t| t.queue_peak_max.to_string());
/// The per-cause drop columns of E16–E18, in order (departures never
/// happen there and have no column).
const DROPS: &[Column] = &[
    ("drop_stuck", |t| t.drops.stuck.to_string()),
    ("drop_queue", |t| t.drops.queue_full.to_string()),
    ("drop_loss", |t| t.drops.link_loss.to_string()),
    ("drop_crash", |t| t.drops.node_crash.to_string()),
    ("drop_hop_limit", |t| t.drops.hop_limit.to_string()),
    ("drop_retry_shed", |t| t.drops.retry_shed.to_string()),
];

/// The deployment of every default sweep: Table I's, over three trials.
pub(crate) fn standard_scenario() -> Scenario {
    Scenario {
        trials: 3,
        ..Scenario::table1()
    }
}

/// The deployment of every CI smoke sweep: a small field, one trial.
pub(crate) fn quick_scenario() -> Scenario {
    Scenario {
        n: 40,
        side: 120.0,
        radius: 45.0,
        trials: 1,
        seed: 1,
    }
}

/// `"on"` or `"off"`.
fn on_off(b: bool) -> String {
    if b { "on" } else { "off" }.to_string()
}

/// Configuration of the load sweep (E16).
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Deployment parameters (`n`, `side`, `radius`, `trials`, `seed`).
    pub scenario: Scenario,
    /// Offered loads to sweep, in expected packets per tick.
    pub loads: Vec<f64>,
    /// Ticks over which each workload offers packets.
    pub duration: u64,
}

impl SweepConfig {
    /// The default sweep: the paper's Table I deployment served at five
    /// load levels.
    pub fn standard() -> Self {
        SweepConfig {
            scenario: standard_scenario(),
            loads: vec![0.05, 0.1, 0.2, 0.4, 0.8],
            duration: 2_000,
        }
    }

    /// The CI smoke sweep: a small field at two load levels.
    pub fn quick() -> Self {
        SweepConfig {
            scenario: quick_scenario(),
            loads: vec![0.05, 0.4],
            duration: 500,
        }
    }
}

/// One load-sweep row: a (topology, load) cell over the trials.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficRow {
    /// Topology served.
    pub topology: &'static str,
    /// Forwarding scheme driven over it.
    pub policy: &'static str,
    /// Offered load in packets per tick.
    pub load: f64,
    /// The cell's measurements.
    pub tally: Tally,
}

/// The three (topology, policy) pairs of the load sweep, in row order.
const TOPOLOGIES: [(&str, &str); 3] = [
    ("UDG", "greedy"),
    ("CDS'", "gpsr"),
    ("LDel(ICDS)", "backbone"),
];

/// Runs the load sweep: one row per (load, topology), FIFO queues, no
/// retransmit, no loss.
///
/// # Panics
/// Panics if the scenario yields no trials or no loads are configured.
pub fn traffic_rows(cfg: &SweepConfig) -> Vec<TrafficRow> {
    let cells: Vec<(usize, usize)> = (0..cfg.loads.len())
        .flat_map(|l| (0..TOPOLOGIES.len()).map(move |k| (l, k)))
        .collect();
    let engine_cfg = serving(cfg.scenario.n);
    let tallies = sweep(&cfg.scenario, &cells, |t, udg, backbone, &(l, k)| {
        let arrivals = Workload::uniform(cfg.loads[l], cfg.duration)
            .generate(cfg.scenario.n, mix_seed(cfg.scenario.seed, t, l as u64));
        let forwarding = match k {
            0 => Forwarding::Greedy(udg),
            1 => Forwarding::Gpsr(&backbone.cds_graphs().cds_prime),
            _ => Forwarding::Backbone { backbone, udg },
        };
        run(&forwarding, udg, &arrivals, &FaultPlan::none(), &engine_cfg).report
    });
    cells
        .iter()
        .zip(tallies)
        .map(|(&(l, k), tally)| TrafficRow {
            topology: TOPOLOGIES[k].0,
            policy: TOPOLOGIES[k].1,
            load: cfg.loads[l],
            tally,
        })
        .collect()
}

/// The `traffic_load.csv` columns after the row key.
const LOAD_COLUMNS: &[&[Column]] = &[
    &[OFFERED, DELIVERED, DELIVERY_RATIO],
    DROPS,
    &[REFUSED, LATENCY_P50, LATENCY_P99, LATENCY_MEAN],
    &[
        ("hop_stretch_avg", |t| format!("{:.4}", t.hop_stretch_avg)),
        ("length_stretch_avg", |t| {
            format!("{:.4}", t.length_stretch_avg)
        }),
        QUEUE_PEAK_MAX,
    ],
];

/// The `traffic_load.csv` table (stable column order and formatting:
/// the artifact is byte-identical for a given seed).
pub fn traffic_table(rows: &[TrafficRow]) -> Table {
    let keys = ["topology", "policy", "load"];
    let mut table = Table::new(keys.into_iter().chain(column_headers(LOAD_COLUMNS)));
    for r in rows {
        let key = [
            r.topology.to_string(),
            r.policy.to_string(),
            format!("{:.3}", r.load),
        ];
        table.row(
            key.into_iter()
                .chain(column_cells(LOAD_COLUMNS, &r.tally))
                .collect(),
        );
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
    if row.tally.delivery_ratio() >= 0.99 {
        Ok(())
    } else {
        Err(format!(
            "backbone delivery at load {:.3} is {:.4} (< 0.99): {} of {} delivered",
            row.load,
            row.tally.delivery_ratio(),
            row.tally.delivered,
            row.tally.offered
        ))
    }
}

/// Configuration of the reliability sweep (E17): hotspot and bursty
/// workloads served over the backbone across queue disciplines, with
/// and without link-layer retransmit, under seeded radio loss.
#[derive(Debug, Clone)]
pub struct ReliabilitySweepConfig {
    /// Deployment parameters (`n`, `side`, `radius`, `trials`, `seed`).
    pub scenario: Scenario,
    /// Ticks over which each workload offers packets.
    pub duration: u64,
    /// Hotspot sink biases to sweep (each is one workload, sink node 0).
    pub hotspot_biases: Vec<f64>,
    /// Burst sizes to sweep (each is one workload).
    pub burst_sizes: Vec<usize>,
}

impl ReliabilitySweepConfig {
    /// The default sweep: the Table I deployment, two biases and two
    /// burst sizes.
    pub fn standard() -> Self {
        ReliabilitySweepConfig {
            scenario: standard_scenario(),
            duration: 2_000,
            hotspot_biases: vec![0.5, 0.9],
            burst_sizes: vec![4, 16],
        }
    }

    /// The CI smoke sweep: a small field, one bias, one burst size.
    pub fn quick() -> Self {
        ReliabilitySweepConfig {
            scenario: quick_scenario(),
            duration: 500,
            hotspot_biases: vec![0.8],
            burst_sizes: vec![8],
        }
    }
}

/// One reliability-sweep row: a (workload, load, discipline, retx) cell
/// over the trials. `link_loss` drops count losses after the retransmit
/// budget, when enabled.
#[derive(Debug, Clone, PartialEq)]
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
    /// The cell's measurements.
    pub tally: Tally,
}

/// Runs the reliability sweep over backbone forwarding: one row per
/// (workload, load, discipline, retx).
///
/// The arrival schedule and fault seed of a cell depend only on (trial,
/// workload, load) — the discipline and retransmit halves of the sweep
/// see identical packets and identical loss rolls, so their rows are
/// paired comparisons, not independent samples.
///
/// # Panics
/// Panics if the scenario yields no trials or no workloads are
/// configured.
pub fn reliability_rows(cfg: &ReliabilitySweepConfig) -> Vec<ReliabilityRow> {
    // The workloads in row order: hotspot biases, then bursts, each at
    // every load.
    let hotspots = cfg.hotspot_biases.iter().flat_map(|&bias| {
        RELIABILITY_LOADS.map(|load| Workload::hotspot(0, bias, load, cfg.duration))
    });
    let bursts = cfg.burst_sizes.iter().flat_map(|&burst| {
        RELIABILITY_LOADS.map(|load| Workload::bursty(burst, load, cfg.duration))
    });
    // (seed slot, workload, discipline, retx); the slot is the
    // workload's index, so it covers the load.
    let cells: Vec<(u64, Workload, Discipline, bool)> = (0..)
        .zip(hotspots.chain(bursts))
        .flat_map(|(slot, wl)| {
            DISCIPLINES
                .into_iter()
                .flat_map(move |d| [false, true].map(|retx| (slot, wl, d, retx)))
        })
        .collect();
    let tallies = sweep(
        &cfg.scenario,
        &cells,
        |t, udg, backbone, &(slot, wl, d, retx)| {
            let arrivals = wl.generate(cfg.scenario.n, mix_seed(cfg.scenario.seed, t, slot));
            let faults = FaultPlan::new(mix_seed(cfg.scenario.seed ^ 0x7e11_ab1e, t, slot))
                .with_loss(RELIABILITY_LOSS);
            let engine_cfg = TrafficConfig {
                discipline: d,
                reliability: retx.then(ReliabilityConfig::default),
                ..serving(cfg.scenario.n)
            };
            let forwarding = Forwarding::Backbone { backbone, udg };
            run(&forwarding, udg, &arrivals, &faults, &engine_cfg).report
        },
    );
    cells
        .iter()
        .zip(tallies)
        .map(|(&(_, wl, d, retx), tally)| ReliabilityRow {
            workload: wl.kind.label(),
            param: wl.kind.param(),
            discipline: d.label(),
            retx,
            load: wl.rate,
            tally,
        })
        .collect()
}

/// The `traffic_reliability.csv` columns after the row key.
const RELIABILITY_COLUMNS: &[&[Column]] = &[
    &[OFFERED, DELIVERED, DELIVERY_RATIO],
    DROPS,
    &[REFUSED, RETRANSMISSIONS],
    &[LATENCY_P50, LATENCY_P99, LATENCY_MEAN, QUEUE_PEAK_MAX],
];

/// The `traffic_reliability.csv` table (stable column order and
/// formatting: the artifact is byte-identical for a given seed).
pub fn reliability_table(rows: &[ReliabilityRow]) -> Table {
    let keys = ["workload", "param", "discipline", "retx", "load"];
    let mut table = Table::new(keys.into_iter().chain(column_headers(RELIABILITY_COLUMNS)));
    for r in rows {
        let key = [
            r.workload.to_string(),
            format!("{:.3}", r.param),
            r.discipline.to_string(),
            on_off(r.retx),
            format!("{:.3}", r.load),
        ];
        table.row(
            key.into_iter()
                .chain(column_cells(RELIABILITY_COLUMNS, &r.tally))
                .collect(),
        );
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
        let (lost, still_lost) = (base.tally.drops.link_loss, paired.tally.drops.link_loss);
        if lost == 0 {
            continue;
        }
        let recovered = 1.0 - still_lost as f64 / lost as f64;
        if recovered < 0.9 {
            return Err(format!(
                "{}/{} ({}) at load {:.3}: retransmit recovered only {:.1}% \
                 of link losses ({} -> {})",
                base.workload,
                base.param,
                base.discipline,
                low,
                100.0 * recovered,
                lost,
                still_lost
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
        if r.tally.delivery_ratio() < base.tally.delivery_ratio() {
            return Err(format!(
                "{}/{} ({}, retx) delivers {:.4} < baseline {:.4} at load {:.3}",
                r.workload,
                r.param,
                r.discipline,
                r.tally.delivery_ratio(),
                base.tally.delivery_ratio(),
                low
            ));
        }
    }
    Ok(())
}

/// Configuration of the saturation sweep (E18): a hotspot workload
/// served over the backbone with retransmit, pushed up the load axis
/// until every queue discipline's delivery collapses — then the same
/// cells re-run with congestion-adaptive overload control (sender-queue
/// watermarks at [`OverloadConfig::for_capacity`] + token-bucket
/// admission) to measure how far the 95%-delivery frontier moves
/// outward.
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
    /// Source admission of the control-on half.
    pub admission: AdmissionPolicy,
}

impl SaturationSweepConfig {
    /// The default sweep: the Table I deployment, loads pushed past the
    /// hotspot ingress saturation point. The sink (node 0, a lowest-ID
    /// dominator) is reached through several backbone relays, so
    /// collapse arrives well above the single-relay estimate `1/bias` —
    /// the range must extend past it by several octaves.
    pub fn standard() -> Self {
        SaturationSweepConfig {
            scenario: standard_scenario(),
            loads: vec![0.4, 0.8, 1.6, 3.2, 6.4, 12.8],
            duration: 2_000,
            queue_capacity: 16,
            // Aggregate admitted ceiling n / ticks_per_token = 1.0
            // packet per tick — under the ingress saturation point, so
            // admitted traffic keeps delivering while offered load
            // grows without bound.
            admission: AdmissionPolicy::TokenBucket {
                ticks_per_token: 100,
                burst: 2,
            },
        }
    }

    /// The CI smoke sweep: a small field pushed over the same cliff.
    pub fn quick() -> Self {
        SaturationSweepConfig {
            scenario: quick_scenario(),
            loads: vec![0.4, 1.6, 6.4, 12.8],
            duration: 600,
            queue_capacity: 8,
            admission: AdmissionPolicy::TokenBucket {
                ticks_per_token: 40,
                burst: 2,
            },
        }
    }
}

/// One saturation row: a (discipline, control, load) cell over the
/// trials. `queue_full` drops are the congestion-collapse signature;
/// refusals and `retry_shed` drops are 0 in the control-off half.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationRow {
    /// Queue discipline label ("fifo", "priority", "drr").
    pub discipline: &'static str,
    /// Whether overload control (watermarks + admission) was on.
    pub control: bool,
    /// Offered load in packets per tick.
    pub load: f64,
    /// The cell's measurements; its delivery ratio over admitted
    /// packets is the frontier metric.
    pub tally: Tally,
}

/// Runs the saturation sweep over backbone forwarding: one row per
/// (discipline, control, load).
///
/// The arrival schedule and fault seed of a cell depend only on (trial,
/// load) — all disciplines and both control halves see identical
/// packets and identical loss rolls, so rows are paired comparisons.
///
/// # Panics
/// Panics if the scenario yields no trials or no loads are configured.
pub fn saturation_rows(cfg: &SaturationSweepConfig) -> Vec<SaturationRow> {
    let cells: Vec<(Discipline, bool, usize)> = DISCIPLINES
        .into_iter()
        .flat_map(|d| {
            [false, true]
                .into_iter()
                .flat_map(move |control| (0..cfg.loads.len()).map(move |l| (d, control, l)))
        })
        .collect();
    let tallies = sweep(
        &cfg.scenario,
        &cells,
        |t, udg, backbone, &(d, control, l)| {
            let arrivals = Workload::hotspot(0, SINK_BIAS, cfg.loads[l], cfg.duration)
                .generate(cfg.scenario.n, mix_seed(cfg.scenario.seed, t, l as u64));
            let faults = FaultPlan::new(mix_seed(cfg.scenario.seed ^ 0x5a70_ca7e, t, l as u64))
                .with_loss(SATURATION_LOSS);
            let engine_cfg = TrafficConfig {
                queue_capacity: cfg.queue_capacity,
                discipline: d,
                reliability: Some(ReliabilityConfig::default()),
                overload: control.then(|| OverloadConfig::for_capacity(cfg.queue_capacity)),
                admission: if control {
                    cfg.admission
                } else {
                    AdmissionPolicy::Open
                },
                ..serving(cfg.scenario.n)
            };
            let forwarding = Forwarding::Backbone { backbone, udg };
            run(&forwarding, udg, &arrivals, &faults, &engine_cfg).report
        },
    );
    cells
        .iter()
        .zip(tallies)
        .map(|(&(d, control, l), tally)| SaturationRow {
            discipline: d.label(),
            control,
            load: cfg.loads[l],
            tally,
        })
        .collect()
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
        .filter(|r| r.tally.delivery_ratio() < FRONTIER_THRESHOLD)
        .map(|r| r.load)
        .reduce(f64::min)
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
                && r.tally.delivery_ratio() < FRONTIER_THRESHOLD
                && r.tally.drops.queue_full > 0
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

/// The `traffic_saturation.csv` columns after the row key.
const SATURATION_COLUMNS: &[&[Column]] = &[
    &[OFFERED, REFUSED, ADMITTED, DELIVERED, DELIVERY_RATIO],
    DROPS,
    &[RETRANSMISSIONS, LATENCY_P50, LATENCY_P99, QUEUE_PEAK_MAX],
];

/// The `traffic_saturation.csv` table (stable column order and
/// formatting: the artifact is byte-identical for a given seed).
/// `delivery_ratio` is delivered / admitted — see
/// [`Tally::delivery_ratio`].
pub fn saturation_table(rows: &[SaturationRow]) -> Table {
    let keys = ["discipline", "control", "load"];
    let mut table = Table::new(keys.into_iter().chain(column_headers(SATURATION_COLUMNS)));
    for r in rows {
        let key = [
            r.discipline.to_string(),
            on_off(r.control),
            format!("{:.3}", r.load),
        ];
        table.row(
            key.into_iter()
                .chain(column_cells(SATURATION_COLUMNS, &r.tally))
                .collect(),
        );
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
        100.0 * RELIABILITY_LOSS,
        cfg.scenario.n,
        cfg.scenario.radius,
        cfg.scenario.trials,
        cfg.duration,
        RELIABILITY_LOADS,
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
        100.0 * SATURATION_LOSS,
        cfg.scenario.n,
        cfg.scenario.radius,
        cfg.scenario.trials,
        cfg.duration,
        cfg.loads,
        SINK_BIAS,
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
            assert!(r.tally.offered > 0);
            assert_eq!(r.tally.offered, r.tally.delivered + r.tally.drops.total());
        }
        check_low_load_delivery(&rows).unwrap();
        // Backbone routes detour: stretch is measured and ≥ 1.
        let backbone_low = rows.iter().find(|r| r.policy == "backbone").unwrap();
        assert!(backbone_low.tally.hop_stretch_avg >= 1.0);
        assert!(backbone_low.tally.length_stretch_avg >= 1.0);
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
        assert_eq!(rows.len(), 2 * RELIABILITY_LOADS.len() * 3 * 2);
        for r in &rows {
            let t = &r.tally;
            assert!(t.offered > 0);
            assert_eq!(t.offered, t.delivered + t.drops.total());
            // Retransmissions only happen in the retx half.
            assert_eq!(
                r.retx,
                t.retransmissions > 0 || r.retx && t.drops.link_loss == 0
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
            assert_eq!(base.tally.offered, paired.tally.offered);
        }
    }

    #[test]
    fn quick_saturation_sweep_collapses_and_control_moves_the_frontier() {
        let cfg = SaturationSweepConfig::quick();
        let rows = saturation_rows(&cfg);
        // disciplines × {off, on} × loads.
        assert_eq!(rows.len(), 3 * 2 * cfg.loads.len());
        for r in &rows {
            let t = &r.tally;
            assert!(t.offered > 0);
            assert_eq!(t.offered, t.delivered + t.refused + t.drops.total());
            if !r.control {
                assert_eq!(t.refused, 0, "no admission gate in the off half");
                assert_eq!(t.drops.retry_shed, 0, "no watermarks in the off half");
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
            assert_eq!(
                base.tally.offered, paired.tally.offered,
                "same arrival schedule"
            );
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
