//! Experiment E21 — delivery through churn: incremental 2-hop repair
//! versus the full-rebuild baseline.
//!
//! Sweeps the churn intensity (membership/mobility events over a fixed
//! traffic horizon) and serves the same packet workload twice per
//! cell: once with the paper's localized repair maintaining the
//! backbone, once with a full reconstruction on every event. Both
//! arms see the identical [`ChurnPlan`], arrivals, and fault rolls,
//! so rows are paired comparisons of the *maintenance* scheme alone:
//! how far delivery dips around churn, and what the repair messages
//! cost.
//!
//! Cells (trial × churn level × arm) are independent and run in
//! parallel; results fold in deterministic order, so the CSV is
//! byte-identical for every thread count.

use geospan_sim::{ChurnMix, ChurnPlan, FaultPlan};
use geospan_traffic::{ChurnEngine, ChurnOutcome, RepairStrategy, TrafficConfig, Workload};
use rayon::prelude::*;

use crate::cli::{publish, Artifacts, Flags};
use crate::{mix_seed, Scenario, Table};

/// Configuration of the churn sweep.
#[derive(Debug, Clone)]
pub struct ChurnSweepConfig {
    /// Deployment parameters (`n`, `side`, `radius`, `trials`, `seed`).
    pub scenario: Scenario,
    /// Churn intensities to sweep: total events over the horizon.
    pub levels: Vec<usize>,
    /// Relative join/leave/move weights of the generated plans.
    pub mix: ChurnMix,
    /// Offered load in expected packets per tick.
    pub load: f64,
    /// Ticks over which the workload offers packets; churn events land
    /// in `1..=duration`.
    pub duration: u64,
    /// Per-link delivery loss probability.
    pub loss: f64,
    /// Delivery-window length in ticks for the dip measurement.
    pub window: u64,
}

impl ChurnSweepConfig {
    /// The default sweep: the Table I deployment under four churn
    /// intensities, balanced join/leave/move mix.
    pub fn standard() -> Self {
        ChurnSweepConfig {
            scenario: Scenario {
                n: 100,
                side: 200.0,
                radius: 60.0,
                trials: 3,
                seed: 1,
            },
            levels: vec![0, 30, 90, 180],
            mix: ChurnMix::balanced(),
            load: 0.2,
            duration: 1_500,
            loss: 0.0,
            window: 150,
        }
    }

    /// The CI smoke sweep: a small field at two churn levels.
    pub fn quick() -> Self {
        ChurnSweepConfig {
            scenario: Scenario {
                n: 40,
                side: 120.0,
                radius: 45.0,
                trials: 1,
                seed: 1,
            },
            levels: vec![0, 20],
            mix: ChurnMix::balanced(),
            load: 0.2,
            duration: 400,
            loss: 0.0,
            window: 100,
        }
    }
}

/// One aggregated sweep row: a (repair arm, churn level) cell summed
/// (counts) or averaged (latencies, ratios) over the trials.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnRow {
    /// Maintenance arm: `"local-repair"` or `"full-rebuild"`.
    pub arm: &'static str,
    /// Churn events scheduled over the horizon.
    pub level: usize,
    /// Join / leave / move events applied, summed over trials.
    pub joins: usize,
    /// Leave events applied.
    pub leaves: usize,
    /// Move events applied.
    pub moves: usize,
    /// Events absorbed verbatim.
    pub kept: usize,
    /// Events resolved by 2-hop localized repair.
    pub local_repairs: usize,
    /// Events that took a full rebuild.
    pub full_rebuilds: usize,
    /// Repair message cost in node-updates (the cost axis).
    pub repair_cost: u64,
    /// Ticks spent routing over a stale (kept-under-drift) topology.
    pub staleness_ticks: u64,
    /// Packets offered across trials.
    pub offered: usize,
    /// Packets delivered.
    pub delivered: usize,
    /// Packets lost to departed nodes.
    pub drop_departed: usize,
    /// All other drops (stuck, queue, loss, crash, hop limit, shed).
    pub drop_other: usize,
    /// Mean over trials of the median delivery latency.
    pub latency_p50: f64,
    /// Mean over trials of the worst delivery window's delivery ratio —
    /// the depth of the churn dip (1.0 = no dip anywhere).
    pub min_window_delivery: f64,
}

impl ChurnRow {
    /// Delivered fraction of offered packets.
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.delivered as f64 / self.offered as f64
        }
    }
}

/// The two maintenance arms, in row order.
const ARMS: [(&str, RepairStrategy); 2] = [
    ("local-repair", RepairStrategy::LocalRepair),
    ("full-rebuild", RepairStrategy::FullRebuild),
];

/// Runs the sweep: every (trial, level, arm) cell in parallel, then a
/// deterministic fold into one row per (arm, level).
///
/// # Panics
/// Panics if the scenario yields no trials or no levels are configured.
pub fn churn_rows(cfg: &ChurnSweepConfig) -> Vec<ChurnRow> {
    assert!(cfg.scenario.trials > 0, "sweep needs at least one trial");
    assert!(!cfg.levels.is_empty(), "sweep needs at least one level");
    let instances = cfg.scenario.instances();

    // Cell grid: trial-major, then level, then arm.
    let cells: Vec<(usize, usize, usize)> = (0..instances.len())
        .flat_map(|t| {
            (0..cfg.levels.len()).flat_map(move |l| (0..ARMS.len()).map(move |a| (t, l, a)))
        })
        .collect();
    let outcomes: Vec<ChurnOutcome> = cells
        .par_iter()
        .map(|&(t, l, a)| {
            let (pts, _udg) = &instances[t];
            let seed = mix_seed(cfg.scenario.seed, t as u64, l as u64);
            let plan = if cfg.levels[l] == 0 {
                ChurnPlan::none(cfg.scenario.n)
            } else {
                ChurnPlan::generate(
                    seed ^ 0x6368_7572_6e21,
                    cfg.scenario.n,
                    cfg.scenario.side,
                    cfg.levels[l],
                    cfg.duration,
                    cfg.mix,
                )
            };
            // Both arms of a cell share the plan, arrivals, and fault
            // rolls: the workload targets the whole universe, so
            // traffic to joiners-to-be and leavers is part of the
            // scenario, identically in both arms.
            let arrivals =
                Workload::uniform(cfg.load, cfg.duration).generate(plan.universe(), seed);
            let faults = FaultPlan::new(seed ^ 0x5a70_ca7e).with_loss(cfg.loss);
            let engine_cfg = TrafficConfig {
                max_hops: (50 * cfg.scenario.n) as u32,
                ..TrafficConfig::default()
            };
            ChurnEngine::new(1)
                .with_threads(1)
                .with_window(cfg.window)
                .run(
                    pts,
                    cfg.scenario.radius,
                    &plan,
                    &arrivals,
                    &faults,
                    &engine_cfg,
                    ARMS[a].1,
                )
                .expect("churn run on a generated connected instance")
        })
        .collect();

    let mut rows = Vec::with_capacity(cfg.levels.len() * ARMS.len());
    for (a, (arm, _)) in ARMS.iter().enumerate() {
        for (l, &level) in cfg.levels.iter().enumerate() {
            let mut row = ChurnRow {
                arm,
                level,
                ..ChurnRow::default()
            };
            for t in 0..instances.len() {
                let idx = (t * cfg.levels.len() + l) * ARMS.len() + a;
                let out = &outcomes[idx];
                let c = &out.churn;
                row.joins += c.joins;
                row.leaves += c.leaves;
                row.moves += c.moves;
                row.kept += c.kept;
                row.local_repairs += c.local_repairs;
                row.full_rebuilds += c.full_rebuilds;
                row.repair_cost += c.repair_cost;
                row.staleness_ticks += c.staleness_ticks;
                let r = &out.traffic.report;
                row.offered += r.offered;
                row.delivered += r.delivered;
                row.drop_departed += r.drops.node_departed;
                row.drop_other += r.drops.total() - r.drops.node_departed;
                row.latency_p50 += r.latency_p50 as f64;
                row.min_window_delivery += c
                    .windows
                    .iter()
                    .map(|w| w.delivery_ratio())
                    .fold(1.0, f64::min);
            }
            let t = instances.len() as f64;
            row.latency_p50 /= t;
            row.min_window_delivery /= t;
            rows.push(row);
        }
    }
    rows
}

/// The `traffic_churn.csv` table.
pub fn churn_table(rows: &[ChurnRow]) -> Table {
    let mut table = Table::new([
        "arm",
        "level",
        "joins",
        "leaves",
        "moves",
        "kept",
        "local_repairs",
        "full_rebuilds",
        "repair_cost",
        "staleness_ticks",
        "offered",
        "delivered",
        "delivery_ratio",
        "drop_departed",
        "drop_other",
        "latency_p50",
        "min_window_delivery",
    ]);
    for r in rows {
        table.row(vec![
            r.arm.to_string(),
            r.level.to_string(),
            r.joins.to_string(),
            r.leaves.to_string(),
            r.moves.to_string(),
            r.kept.to_string(),
            r.local_repairs.to_string(),
            r.full_rebuilds.to_string(),
            r.repair_cost.to_string(),
            r.staleness_ticks.to_string(),
            r.offered.to_string(),
            r.delivered.to_string(),
            format!("{:.6}", r.delivery_ratio()),
            r.drop_departed.to_string(),
            r.drop_other.to_string(),
            format!("{:.2}", r.latency_p50),
            format!("{:.6}", r.min_window_delivery),
        ]);
    }
    table
}

/// Acceptance check: at every non-zero churn level, localized repair
/// resolves some events in place and pays strictly less repair cost
/// than the full-rebuild baseline; the baseline rebuilds on every
/// membership event; and both arms' ledgers balance.
pub fn check_repair_advantage(rows: &[ChurnRow]) -> Result<(), String> {
    for r in rows {
        if r.offered != r.delivered + r.drop_departed + r.drop_other {
            return Err(format!(
                "{} level {}: ledger does not balance ({} offered, {} accounted)",
                r.arm,
                r.level,
                r.offered,
                r.delivered + r.drop_departed + r.drop_other
            ));
        }
    }
    for level in rows.iter().map(|r| r.level).filter(|&l| l > 0) {
        let find = |arm: &str| {
            rows.iter()
                .find(|r| r.arm == arm && r.level == level)
                .ok_or_else(|| format!("missing {arm} row at level {level}"))
        };
        let local = find("local-repair")?;
        let full = find("full-rebuild")?;
        if local.kept + local.local_repairs == 0 {
            return Err(format!(
                "level {level}: localized repair absorbed no events in place"
            ));
        }
        if local.repair_cost >= full.repair_cost {
            return Err(format!(
                "level {level}: local repair cost {} is not below the rebuild baseline's {}",
                local.repair_cost, full.repair_cost
            ));
        }
        if full.full_rebuilds < full.joins + full.leaves {
            return Err(format!(
                "level {level}: the baseline skipped a membership rebuild ({} rebuilds, {} membership events)",
                full.full_rebuilds,
                full.joins + full.leaves
            ));
        }
    }
    Ok(())
}

/// E21 — delivery through churn: seeded churn plans of increasing
/// intensity served twice over the same workload, once with localized
/// 2-hop repair and once rebuilding from scratch on every event.
/// `--check`: see [`check_repair_advantage`].
pub fn traffic_churn(flags: &Flags, out: &mut Artifacts) -> Result<(), String> {
    let mut cfg = if flags.quick {
        ChurnSweepConfig::quick()
    } else {
        ChurnSweepConfig::standard()
    };
    cfg.scenario = flags.scenario(cfg.scenario);
    println!(
        "Delivery through churn: n={}, R={}, {} trials, {} ticks, churn levels {:?}, \
         load {} pkt/tick, {}-tick delivery windows\n",
        cfg.scenario.n,
        cfg.scenario.radius,
        cfg.scenario.trials,
        cfg.duration,
        cfg.levels,
        cfg.load,
        cfg.window
    );
    let rows = churn_rows(&cfg);
    publish(out, "traffic_churn.csv", &churn_table(&rows));
    println!(
        "\nBoth arms apply the identical churn plan to the identical workload; only the \
         maintenance scheme differs. The full-rebuild baseline reconstructs the backbone \
         on every membership event, while localized repair absorbs most events with 2-hop \
         neighborhood updates — the same delivery at a fraction of the repair cost."
    );
    if flags.check {
        check_repair_advantage(&rows)?;
        println!(
            "check passed: at every churn level localized repair absorbs events in place \
             at strictly lower cost than the rebuild baseline, and all ledgers balance"
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_passes_its_own_check() {
        let rows = churn_rows(&ChurnSweepConfig::quick());
        assert_eq!(rows.len(), 4, "two arms x two levels");
        check_repair_advantage(&rows).expect("quick sweep satisfies the acceptance check");
        let csv = churn_table(&rows).csv();
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.starts_with("arm,level,"));
        // Zero churn: both arms identical, no maintenance at all.
        for r in rows.iter().filter(|r| r.level == 0) {
            assert_eq!(r.kept + r.local_repairs + r.full_rebuilds, 0);
            assert_eq!(r.repair_cost, 0);
            assert_eq!(r.drop_departed, 0);
        }
        let zero: Vec<_> = rows.iter().filter(|r| r.level == 0).collect();
        assert_eq!(zero[0].delivered, zero[1].delivered);
        // Churn bites: departures cost packets in at least one arm.
        assert!(rows.iter().any(|r| r.level > 0 && r.drop_departed > 0));
    }
}
