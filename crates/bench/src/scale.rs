//! Experiment E20 — scaling the sharded traffic engine.
//!
//! Serves one large hotspot workload (≥ 1M offered packets in the
//! standard configuration) over `LDel(ICDS)` backbone routing, once per
//! shard count, and records the throughput ledger of conservative
//! synchronization: wall clock, events per second, speedup over the
//! single-shard run, barrier rounds, boundary messages, idle
//! shard-rounds (the zero-lookahead analogue of null-message overhead),
//! spatial load imbalance, and the edge-cut fraction of the partition.
//!
//! The crown invariant is checked on the way: every shard count must
//! produce a [`TrafficOutcome`] identical to the single-shard run —
//! the shard knob trades synchronization overhead for parallelism and
//! changes nothing else.
// geospan-analyze: allow(D02, wall-clock timing is the benchmark's measurement, not an artifact input)
use std::time::Instant;

use geospan_core::{BackboneBuilder, BackboneConfig, ClusterRank};
use geospan_graph::gen::connected_unit_disk;
use geospan_sim::{FaultPlan, OverloadConfig};
use geospan_traffic::{
    Forwarding, ShardMap, ShardedEngine, TrafficConfig, TrafficOutcome, Workload,
};

use crate::cli::{Artifacts, Flags};
use crate::table::{json_object, Table};

/// Configuration of one scaling run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Number of nodes.
    pub n: usize,
    /// Side of the square deployment region.
    pub side: f64,
    /// Transmission radius.
    pub radius: f64,
    /// Base RNG seed (instance, workload, and faults derive from it).
    pub seed: u64,
    /// Offered load in expected packets per tick.
    pub rate: f64,
    /// Workload duration in ticks.
    pub duration: u64,
    /// Hotspot sink bias.
    pub sink_bias: f64,
    /// Per-transmission radio loss probability.
    pub loss: f64,
    /// Per-node transmit queue capacity.
    pub queue_capacity: usize,
    /// Service time per transmission.
    pub service_time: u64,
    /// Shard counts to sweep (must include 1, the speedup baseline).
    pub shard_counts: Vec<usize>,
    /// Timing repetitions per shard count (best-of).
    pub reps: usize,
}

impl ScaleConfig {
    /// The full-size run: 2 000 nodes at the paper's Table I density
    /// (side `200·√(n/100)`, radius 60) under a hotspot offering
    /// 550 packets/tick for 2 000 ticks — 1.1M offered packets.
    pub fn standard() -> Self {
        let n = 2_000;
        ScaleConfig {
            n,
            side: 200.0 * ((n as f64) / 100.0).sqrt(),
            radius: 60.0,
            seed: 1,
            rate: 550.0,
            duration: 2_000,
            sink_bias: 0.6,
            loss: 0.05,
            queue_capacity: 16,
            service_time: 1,
            shard_counts: vec![1, 2, 4, 8],
            reps: 1,
        }
    }

    /// The CI smoke configuration: a few hundred packets, seconds not
    /// minutes, same checks.
    pub fn quick() -> Self {
        ScaleConfig {
            n: 60,
            side: 160.0,
            radius: 50.0,
            seed: 1,
            rate: 2.0,
            duration: 300,
            sink_bias: 0.6,
            loss: 0.05,
            queue_capacity: 8,
            service_time: 1,
            shard_counts: vec![1, 2, 4],
            reps: 1,
        }
    }

    /// Expected offered packets (`rate × duration`).
    pub fn expected_offered(&self) -> f64 {
        self.rate * self.duration as f64
    }
}

/// Measurements of one shard count.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Shard count of this run.
    pub shards: usize,
    /// Worker threads the driver actually used.
    pub threads: usize,
    /// Best-of-reps wall clock in milliseconds.
    pub wall_ms: f64,
    /// Total events processed (arrivals + retries + services + merges).
    pub events: u64,
    /// Events per second at the best wall clock.
    pub events_per_sec: f64,
    /// Single-shard wall clock over this row's wall clock.
    pub speedup: f64,
    /// Barrier rounds (safe-horizon advances).
    pub rounds: u64,
    /// Forwards that crossed a shard boundary.
    pub boundary_messages: u64,
    /// Shard-rounds spent with nothing scheduled at the safe horizon —
    /// the lockstep protocol's null-message-overhead analogue.
    pub idle_shard_rounds: u64,
    /// Busiest shard's event count over the mean (1.0 = balanced).
    pub imbalance: f64,
    /// Fraction of UDG edges crossing a shard boundary.
    pub cut_fraction: f64,
    /// Whether this run's outcome is identical to the single-shard run.
    pub identical: bool,
}

/// The full scaling report: environment, workload ledger, one row per
/// shard count.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Cores the host exposes (speedup is only meaningful when > 1).
    pub cores: usize,
    /// Packets the workload offered.
    pub offered: usize,
    /// Packets delivered (identical at every shard count).
    pub delivered: usize,
    /// Edges of the deployment UDG.
    pub udg_edges: usize,
    /// One row per swept shard count.
    pub rows: Vec<ScaleRow>,
}

/// Runs the scaling sweep: one instance, one workload, one run per
/// shard count, each compared against the single-shard outcome.
///
/// # Panics
/// Panics if `shard_counts` does not include 1, if `reps == 0`, or if
/// the per-packet ledger of any run fails conservation
/// (`offered = delivered + drops + refused`).
pub fn scale_rows(cfg: &ScaleConfig) -> ScaleReport {
    assert!(cfg.reps > 0, "reps must be positive");
    assert!(
        cfg.shard_counts.contains(&1),
        "shard_counts must include the single-shard baseline"
    );

    let (_pts, udg, _used) = connected_unit_disk(cfg.n, cfg.side, cfg.radius, cfg.seed);
    let backbone =
        BackboneBuilder::new(BackboneConfig::new(cfg.radius).with_rank(ClusterRank::LowestId))
            .build(&udg)
            .expect("centralized build cannot fail on a valid UDG");
    let forwarding = Forwarding::Backbone {
        backbone: &backbone,
        udg: &udg,
    };
    let arrivals =
        Workload::hotspot(0, cfg.sink_bias, cfg.rate, cfg.duration).generate(cfg.n, cfg.seed);
    let faults = FaultPlan::new(cfg.seed ^ 0x5a70_ca7e).with_loss(cfg.loss);
    let engine_cfg = TrafficConfig {
        queue_capacity: cfg.queue_capacity,
        service_time: cfg.service_time,
        max_hops: (50 * cfg.n) as u32,
        overload: Some(OverloadConfig::for_capacity(cfg.queue_capacity)),
        ..TrafficConfig::default()
    };
    let csr = udg.freeze();

    let mut reference: Option<TrafficOutcome> = None;
    let mut rows = Vec::with_capacity(cfg.shard_counts.len());
    for &s in &cfg.shard_counts {
        let engine = ShardedEngine::new(s);
        let mut best_ms = f64::INFINITY;
        let mut last = None;
        for _ in 0..cfg.reps {
            // geospan-analyze: allow(D02, wall-clock timing is the benchmark's measurement, not an artifact input)
            let t0 = Instant::now();
            let (outcome, stats) =
                engine.run_with_stats(&forwarding, &udg, &arrivals, &faults, &engine_cfg);
            best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            last = Some((outcome, stats));
        }
        let (outcome, stats) = last.expect("reps >= 1");

        let r = &outcome.report;
        assert_eq!(
            r.offered,
            r.delivered + r.drops.total() + r.refused,
            "shards={s}: offered != delivered + drops + refused"
        );
        let identical = match &reference {
            Some(single) => *single == outcome,
            None => {
                reference = Some(outcome.clone());
                true
            }
        };

        let cut = csr.shard_cut(ShardMap::spatial(udg.points(), s).shard_of(), s.max(1));
        rows.push(ScaleRow {
            shards: stats.shards,
            threads: stats.threads,
            wall_ms: best_ms,
            events: stats.events,
            events_per_sec: stats.events as f64 / (best_ms / 1e3),
            speedup: 0.0, // filled from the baseline row below
            rounds: stats.rounds,
            boundary_messages: stats.boundary_messages,
            idle_shard_rounds: stats.idle_shard_rounds,
            imbalance: stats.imbalance(),
            cut_fraction: cut.cut_fraction(),
            identical,
        });
    }

    let base_ms = rows
        .iter()
        .find(|r| r.shards == 1)
        .expect("shard_counts contains 1")
        .wall_ms;
    for row in &mut rows {
        row.speedup = base_ms / row.wall_ms;
    }

    let reference = reference.expect("shard_counts is non-empty");
    ScaleReport {
        // geospan-analyze: allow(D07, reading the host's core count reports the environment, no threads are spawned)
        cores: std::thread::available_parallelism().map_or(1, |p| p.get()),
        offered: reference.report.offered,
        delivered: reference.report.delivered,
        udg_edges: udg.edge_count(),
        rows,
    }
}

/// Checks the crown invariant: every shard count produced an outcome
/// identical to the single-shard run.
pub fn check_identity(report: &ScaleReport) -> Result<(), String> {
    for row in &report.rows {
        if !row.identical {
            return Err(format!(
                "shards={}: outcome diverged from the single-shard run",
                row.shards
            ));
        }
    }
    Ok(())
}

/// Checks the scaling gate: some run at 4+ shards reached a ≥ 2×
/// speedup over single-shard. Only meaningful on a host with 4+ cores;
/// on smaller hosts the caller should skip this check (the measurements
/// are still recorded honestly, there is just no parallel hardware for
/// the speedup to come from).
pub fn check_speedup(report: &ScaleReport) -> Result<(), String> {
    let best = report
        .rows
        .iter()
        .filter(|r| r.shards >= 4)
        .map(|r| r.speedup)
        .fold(0.0f64, f64::max);
    if best >= 2.0 {
        Ok(())
    } else {
        Err(format!(
            "no run at 4+ shards reached a 2x speedup (best {best:.2}x on {} cores)",
            report.cores
        ))
    }
}

/// One row per shard count; the cells are valid JSON values, so the
/// same table prints on the console and fills `shard_counts`.
pub fn scale_table(report: &ScaleReport) -> Table {
    let mut table = Table::new([
        "shards",
        "threads",
        "wall_ms",
        "events",
        "events_per_sec",
        "speedup",
        "rounds",
        "boundary_messages",
        "idle_shard_rounds",
        "imbalance",
        "cut_fraction",
        "identical",
    ]);
    for r in &report.rows {
        table.row(vec![
            r.shards.to_string(),
            r.threads.to_string(),
            format!("{:.3}", r.wall_ms),
            r.events.to_string(),
            format!("{:.0}", r.events_per_sec),
            format!("{:.3}", r.speedup),
            r.rounds.to_string(),
            r.boundary_messages.to_string(),
            r.idle_shard_rounds.to_string(),
            format!("{:.4}", r.imbalance),
            format!("{:.4}", r.cut_fraction),
            r.identical.to_string(),
        ]);
    }
    table
}

/// The `BENCH_traffic_scale.json` artifact: the run's configuration and
/// ledger, then [`scale_table`]'s rows as `shard_counts`.
pub fn scale_json(cfg: &ScaleConfig, report: &ScaleReport, quick: bool) -> String {
    let fields = [
        (
            "description",
            "\"Sharded traffic engine scaling: one hotspot workload served once per shard \
             count; outcomes are bit-identical, only wall clock and synchronization overhead \
             vary\""
                .to_string(),
        ),
        ("quick", quick.to_string()),
        ("cores", report.cores.to_string()),
        ("n", cfg.n.to_string()),
        ("side", format!("{:.3}", cfg.side)),
        ("radius", format!("{:.1}", cfg.radius)),
        ("seed", cfg.seed.to_string()),
        ("rate", format!("{:.1}", cfg.rate)),
        ("duration", cfg.duration.to_string()),
        ("sink_bias", format!("{:.2}", cfg.sink_bias)),
        ("loss", format!("{:.2}", cfg.loss)),
        ("queue_capacity", cfg.queue_capacity.to_string()),
        ("reps", cfg.reps.to_string()),
        ("offered", report.offered.to_string()),
        ("delivered", report.delivered.to_string()),
        ("udg_edges", report.udg_edges.to_string()),
        ("shard_counts", scale_table(report).json_rows(2)),
    ];
    json_object(fields, 0) + "\n"
}

/// E20 — sharded traffic-engine scaling: one hotspot workload (1.1M
/// offered packets full-size) over `LDel(ICDS)` backbone routing, once
/// per shard count, written to `BENCH_traffic_scale.json`. `--check`:
/// every shard count's outcome is bit-identical to the single-shard run
/// (and, full-size, the workload offered >= 1M packets); the >= 2×
/// speedup gate applies only on hosts with 4+ cores, where there is
/// parallel hardware for a speedup to come from.
pub fn traffic_scale(flags: &Flags, out: &mut Artifacts) -> Result<(), String> {
    let mut cfg = if flags.quick {
        ScaleConfig::quick()
    } else {
        ScaleConfig::standard()
    };
    cfg.seed = flags.seed.unwrap_or(cfg.seed);
    cfg.reps = flags.reps.unwrap_or(cfg.reps);
    println!(
        "Sharded engine scaling: n={}, R={}, hotspot rate {} x {} ticks \
         (~{:.0} packets offered), loss {:.0}%, shards {:?}\n",
        cfg.n,
        cfg.radius,
        cfg.rate,
        cfg.duration,
        cfg.expected_offered(),
        100.0 * cfg.loss,
        cfg.shard_counts
    );
    let report = scale_rows(&cfg);
    print!("{}", scale_table(&report).render());
    println!(
        "\nEvery shard count replays the identical packet ledger; the partition's price is \
         the boundary-message and idle-round columns (lockstep barriers at zero lookahead), \
         its payoff the wall-clock column on multi-core hosts. Host cores: {}.",
        report.cores
    );
    out.push((
        "BENCH_traffic_scale.json".into(),
        scale_json(&cfg, &report, flags.quick),
    ));
    if flags.check {
        check_identity(&report)?;
        if !flags.quick && report.offered < 1_000_000 {
            return Err(format!(
                "full-size workload offered only {} packets (< 1M)",
                report.offered
            ));
        }
        if report.cores >= 4 {
            check_speedup(&report)?;
            println!(
                "check passed: outcomes bit-identical at every shard count, 2x speedup reached"
            );
        } else {
            println!(
                "check passed: outcomes bit-identical at every shard count \
                 (speedup gate skipped on a {}-core host)",
                report.cores
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_identical_and_conserved() {
        let cfg = ScaleConfig::quick();
        let report = scale_rows(&cfg);
        assert_eq!(report.rows.len(), cfg.shard_counts.len());
        check_identity(&report).unwrap();
        assert!(report.offered > 0);
        assert!(report.delivered > 0);
        for r in &report.rows {
            assert!(r.identical, "shards={}", r.shards);
            assert!(r.events > 0 && r.rounds > 0);
            assert!(r.wall_ms > 0.0 && r.events_per_sec > 0.0);
            assert!(r.imbalance >= 1.0 || r.events == 0, "shards={}", r.shards);
            assert!((0.0..=1.0).contains(&r.cut_fraction));
        }
        // Single shard crosses no boundaries and cuts no edges.
        let single = report.rows.iter().find(|r| r.shards == 1).unwrap();
        assert_eq!(single.boundary_messages, 0);
        assert_eq!(single.cut_fraction, 0.0);
        assert!((single.speedup - 1.0).abs() < 1e-9);
        // Sharded runs pay for the partition in boundary traffic.
        let sharded = report.rows.iter().find(|r| r.shards == 4).unwrap();
        assert!(sharded.boundary_messages > 0);
        assert!(sharded.cut_fraction > 0.0);
    }

    #[test]
    fn json_and_table_render_every_row() {
        let cfg = ScaleConfig::quick();
        let report = scale_rows(&cfg);
        let json = scale_json(&cfg, &report, true);
        assert!(json.contains("\"events_per_sec\""));
        assert!(json.contains("\"idle_shard_rounds\""));
        assert!(json.contains("\"identical\": true"));
        assert_eq!(json.matches("\"shards\":").count(), cfg.shard_counts.len());
        let table = scale_table(&report).render();
        assert_eq!(table.lines().count(), 1 + cfg.shard_counts.len());
        assert!(table.contains("speedup"));
    }

    #[test]
    fn speedup_gate_reports_honestly() {
        let mut report = ScaleReport {
            cores: 8,
            offered: 10,
            delivered: 10,
            udg_edges: 5,
            rows: vec![ScaleRow {
                shards: 4,
                threads: 4,
                wall_ms: 1.0,
                events: 10,
                events_per_sec: 1e4,
                speedup: 2.5,
                rounds: 3,
                boundary_messages: 1,
                idle_shard_rounds: 0,
                imbalance: 1.0,
                cut_fraction: 0.1,
                identical: true,
            }],
        };
        assert!(check_speedup(&report).is_ok());
        report.rows[0].speedup = 1.1;
        let err = check_speedup(&report).unwrap_err();
        assert!(err.contains("1.10x"), "{err}");
        report.rows[0].identical = false;
        assert!(check_identity(&report).is_err());
    }
}
