//! Experiment E21 — delivery through churn: incremental 2-hop repair
//! versus the full-rebuild baseline.
//!
//! Sweeps the churn intensity (membership/mobility events over a fixed
//! traffic horizon) and serves the same packet workload twice per
//! cell: once with the paper's localized repair maintaining the
//! backbone, once with a full reconstruction on every event. Both
//! arms see the identical [`ChurnPlan`] and arrivals over loss-free
//! links, so rows are paired comparisons of the *maintenance* scheme alone:
//! how far delivery dips around churn, and what the repair messages
//! cost.
//!
//! Cells (trial × arm × churn level) run in parallel through the
//! traffic sweeps' `grid` and fold through their [`Tally`], so the
//! CSV is byte-identical for every thread count.

use geospan_sim::{ChurnMix, ChurnPlan, FaultPlan};
use geospan_traffic::{ChurnEngine, RepairStrategy, Workload};

use crate::cli::{publish, Artifacts, Flags};
use crate::traffic::{
    column_cells, column_headers, grid, quick_scenario, serving, standard_scenario, trials_of,
    Column, Tally, DELIVERED, DELIVERY_RATIO, OFFERED,
};
use crate::{mix_seed, Scenario, Table};

/// Offered load in expected packets per tick.
const LOAD: f64 = 0.2;

/// Configuration of the churn sweep. Plans mix joins, leaves and moves
/// in equal proportion; links are loss-free.
#[derive(Debug, Clone)]
pub struct ChurnSweepConfig {
    /// Deployment parameters (`n`, `side`, `radius`, `trials`, `seed`).
    pub scenario: Scenario,
    /// Churn intensities to sweep: total events over the horizon.
    pub levels: Vec<usize>,
    /// Ticks over which the workload offers packets; churn events land
    /// in `1..=duration`.
    pub duration: u64,
    /// Delivery-window length in ticks for the dip measurement.
    pub window: u64,
}

impl ChurnSweepConfig {
    /// The default sweep: the Table I deployment under four churn
    /// intensities.
    pub fn standard() -> Self {
        ChurnSweepConfig {
            scenario: standard_scenario(),
            levels: vec![0, 30, 90, 180],
            duration: 1_500,
            window: 150,
        }
    }

    /// The CI smoke sweep: a small field at two churn levels.
    pub fn quick() -> Self {
        ChurnSweepConfig {
            scenario: quick_scenario(),
            levels: vec![0, 20],
            duration: 400,
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
    /// Mean over trials of the worst delivery window's delivery ratio —
    /// the depth of the churn dip (1.0 = no dip anywhere).
    pub min_window_delivery: f64,
    /// The traffic measurements.
    pub tally: Tally,
}

/// The two maintenance arms, in row order.
const ARMS: [(&str, RepairStrategy); 2] = [
    ("local-repair", RepairStrategy::LocalRepair),
    ("full-rebuild", RepairStrategy::FullRebuild),
];

/// Runs the sweep: every (trial, arm, level) cell in parallel, then a
/// deterministic fold into one row per (arm, level).
///
/// # Panics
/// Panics if the scenario yields no trials or no levels are configured.
pub fn churn_rows(cfg: &ChurnSweepConfig) -> Vec<ChurnRow> {
    assert!(cfg.scenario.trials > 0, "sweep needs at least one trial");
    assert!(!cfg.levels.is_empty(), "sweep needs at least one level");
    let instances = cfg.scenario.instances();
    let cells: Vec<(&'static str, RepairStrategy, usize)> = ARMS
        .into_iter()
        .flat_map(|(arm, strategy)| (0..cfg.levels.len()).map(move |l| (arm, strategy, l)))
        .collect();
    let outcomes = grid(&instances, cells.len(), |t, (pts, _udg), c| {
        let (_, strategy, l) = cells[c];
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
                ChurnMix::balanced(),
            )
        };
        // Both arms of a cell share the plan and arrivals: the workload
        // targets the whole universe, so traffic to joiners-to-be and
        // leavers is part of the scenario, identically in both arms.
        let arrivals = Workload::uniform(LOAD, cfg.duration).generate(plan.universe(), seed);
        ChurnEngine::new(1)
            .with_threads(1)
            .with_window(cfg.window)
            .run(
                pts,
                cfg.scenario.radius,
                &plan,
                &arrivals,
                &FaultPlan::none(),
                &serving(cfg.scenario.n),
                strategy,
            )
            .expect("churn run on a generated connected instance")
    });

    let mut rows = Vec::with_capacity(cells.len());
    for (c, &(arm, _, l)) in cells.iter().enumerate() {
        let mut row = ChurnRow {
            arm,
            level: cfg.levels[l],
            tally: Tally::over(trials_of(&outcomes, cells.len(), c).map(|o| &o.traffic.report)),
            ..ChurnRow::default()
        };
        for out in trials_of(&outcomes, cells.len(), c) {
            let ch = &out.churn;
            row.joins += ch.joins;
            row.leaves += ch.leaves;
            row.moves += ch.moves;
            row.kept += ch.kept;
            row.local_repairs += ch.local_repairs;
            row.full_rebuilds += ch.full_rebuilds;
            row.repair_cost += ch.repair_cost;
            row.staleness_ticks += ch.staleness_ticks;
            row.min_window_delivery += ch
                .windows
                .iter()
                .map(|w| w.delivery_ratio())
                .fold(1.0, f64::min);
        }
        row.min_window_delivery /= instances.len() as f64;
        rows.push(row);
    }
    rows
}

/// The `traffic_churn.csv` traffic columns, between the maintenance
/// ledger and `min_window_delivery`.
pub(crate) const TRAFFIC_COLUMNS: &[&[Column]] = &[&[
    OFFERED,
    DELIVERED,
    DELIVERY_RATIO,
    ("drop_departed", |t| t.drops.node_departed.to_string()),
    ("drop_other", |t| {
        (t.drops.total() - t.drops.node_departed).to_string()
    }),
    ("latency_p50", |t| format!("{:.2}", t.latency_p50)),
]];

/// The `traffic_churn.csv` table.
pub fn churn_table(rows: &[ChurnRow]) -> Table {
    let keys = [
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
    ];
    let mut table = Table::new(
        keys.into_iter()
            .chain(column_headers(TRAFFIC_COLUMNS))
            .chain(["min_window_delivery"]),
    );
    for r in rows {
        let key = [
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
        ];
        table.row(
            key.into_iter()
                .chain(column_cells(TRAFFIC_COLUMNS, &r.tally))
                .chain([format!("{:.6}", r.min_window_delivery)])
                .collect(),
        );
    }
    table
}

/// Acceptance check: at every non-zero churn level, localized repair
/// resolves some events in place and pays strictly less repair cost
/// than the full-rebuild baseline; the baseline rebuilds on every
/// membership event; and both arms' ledgers balance.
pub fn check_repair_advantage(rows: &[ChurnRow]) -> Result<(), String> {
    for r in rows {
        let t = &r.tally;
        let accounted = t.delivered + t.drops.total() + t.refused;
        if t.offered != accounted {
            return Err(format!(
                "{} level {}: ledger does not balance ({} offered, {accounted} accounted)",
                r.arm, r.level, t.offered
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
         load {LOAD} pkt/tick, {}-tick delivery windows\n",
        cfg.scenario.n,
        cfg.scenario.radius,
        cfg.scenario.trials,
        cfg.duration,
        cfg.levels,
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
            assert_eq!(r.tally.drops.node_departed, 0);
        }
        let zero: Vec<_> = rows.iter().filter(|r| r.level == 0).collect();
        assert_eq!(zero[0].tally.delivered, zero[1].tally.delivered);
        // Churn bites: departures cost packets in at least one arm.
        assert!(rows
            .iter()
            .any(|r| r.level > 0 && r.tally.drops.node_departed > 0));
    }
}
