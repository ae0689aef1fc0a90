//! The churn scenario driver: live membership changes interleaved with
//! packet traffic, served by incrementally maintained backbones.
//!
//! A seeded [`ChurnPlan`] timestamps join/leave/move events on the
//! engine's tick axis. The driver runs the sharded traffic engine in
//! **epochs** — the stretches between consecutive churn ticks — over a
//! frozen snapshot of the [`MobileBackbone`]'s topology, then applies
//! the events due at the boundary through the backbone's maintenance
//! path (2-hop local repair, or full rebuilds for the baseline arm)
//! while queued and in-flight packets persist across the boundary.
//!
//! # Where churn sits in the canonical tick phases
//!
//! Events stamped tick `T` take effect **before** any phase of tick
//! `T`: the epoch ending at `T` runs ticks `.. T-1` to completion
//! (through their merge phase), the topology is edited, and tick `T`'s
//! arrivals are the first to route over the repaired backbone. Inside
//! the engine, membership is the pure predicate
//! `join_tick[v] <= t < leave_tick[v]` — a function of the plan alone,
//! never of network state — so every shard answers presence questions
//! identically and churn runs stay **bit-identical at any shard and
//! thread count**, exactly like static runs.
//!
//! A departed node takes its traffic with it
//! ([`DropCause::NodeDeparted`](crate::DropCause)): queued packets
//! drain at the node's next service slot, pending retries die when the
//! backoff expires, transmissions toward it are sent into the void,
//! and packets whose *destination* left can never deliver. The packet
//! ledger `offered == delivered + drops + refused` is preserved
//! through every departure.
//!
//! The per-packet stretch baseline is the **static home-position UDG**
//! (every node at the position it first powers up at); source–
//! destination pairs the baseline does not connect are skipped. Hop
//! lengths are charged from the *evolving* positions.

use geospan_core::maintenance::{MaintenanceAction, MobileBackbone};
use geospan_core::{BackboneConfig, BackboneError};
use geospan_graph::gen::UnitDiskBuilder;
use geospan_graph::Point;
use geospan_sim::{ChurnEvent, ChurnPlan, FaultPlan};
use serde::Serialize;

use crate::engine::{aggregate, TrafficConfig, TrafficOutcome};
use crate::shard::{drive, worker_threads, RunStats, ShardMap};
use crate::tick::{ShardCore, Shared};
use crate::workload::Arrival;
use crate::{Forwarding, PacketOutcome};

/// Which maintenance arm serves a churn run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStrategy {
    /// The paper's 2-hop localized repair (full rebuild only when the
    /// repair cannot verify).
    LocalRepair,
    /// Rebuild the whole backbone on every event — the baseline the
    /// repair scheme is judged against.
    FullRebuild,
}

/// Delivery accounting for one window of the tick axis. Packets are
/// binned by **spawn** tick, so a dip in `delivered / offered` around
/// a churn event shows the cost of serving traffic injected while the
/// topology was (being) repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WindowDelivery {
    /// First tick of the window (windows tile `0..` contiguously).
    pub start: u64,
    /// Packets whose arrival was scheduled inside the window.
    pub offered: usize,
    /// Of those, packets eventually delivered (at any later tick).
    pub delivered: usize,
    /// Of those, packets eventually dropped.
    pub dropped: usize,
    /// Of those, packets refused admission at the source.
    pub refused: usize,
}

impl WindowDelivery {
    /// Delivered fraction of the window's offered packets (1.0 for an
    /// empty window).
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.delivered as f64 / self.offered as f64
        }
    }
}

/// What the maintenance layer did over one churn run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChurnReport {
    /// Join events applied.
    pub joins: usize,
    /// Leave events applied.
    pub leaves: usize,
    /// Move events applied.
    pub moves: usize,
    /// Events the backbone absorbed verbatim (constant-time structural
    /// edit, or nothing to do).
    pub kept: usize,
    /// Events resolved by 2-hop localized repair.
    pub local_repairs: usize,
    /// Events that fell back to (or, for the baseline arm, always
    /// took) a full rebuild.
    pub full_rebuilds: usize,
    /// Repair message cost in node-updates: 1 per kept event (one
    /// beacon exchange), the size of the touched neighborhood per
    /// local repair, and the whole present population per full
    /// rebuild. The churn benchmark's cost axis.
    pub repair_cost: u64,
    /// Ticks spent routing over a *stale* logical topology: between the
    /// first unrepaired kept-move (positions drifted, elections kept)
    /// and the next event that re-derives structure. Membership-only
    /// runs always report 0.
    pub staleness_ticks: u64,
    /// Delivery-through-churn, binned by spawn tick.
    pub windows: Vec<WindowDelivery>,
}

/// Everything a churn run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnOutcome {
    /// The traffic measurements (identical shape to a static run).
    pub traffic: TrafficOutcome,
    /// Execution statistics of the sharded drive.
    pub stats: RunStats,
    /// The maintenance-side ledger.
    pub churn: ChurnReport,
}

/// The churn scenario engine: shard/thread knobs as
/// [`ShardedEngine`](crate::ShardedEngine), plus the delivery-window
/// length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnEngine {
    shards: usize,
    threads: Option<usize>,
    window: u64,
}

impl ChurnEngine {
    /// An engine with `shards` spatial shards (clamped to at least 1)
    /// and 100-tick delivery windows.
    pub fn new(shards: usize) -> ChurnEngine {
        ChurnEngine {
            shards: shards.max(1),
            threads: None,
            window: 100,
        }
    }

    /// Pins the worker-thread count (`1` forces the sequential driver).
    pub fn with_threads(mut self, threads: usize) -> ChurnEngine {
        self.threads = Some(threads.max(1));
        self
    }

    /// Sets the delivery-window length in ticks (clamped to at least 1).
    pub fn with_window(mut self, window: u64) -> ChurnEngine {
        self.window = window.max(1);
        self
    }

    /// Serves `arrivals` over a backbone maintained live against
    /// `plan`'s membership events, forwarding with the paper's
    /// dominating-set routing over the current backbone snapshot.
    ///
    /// `initial` positions the `plan.initial()` nodes present at tick
    /// 0; joiners power up at the position their join event carries.
    /// Arrival endpoints may name any universe node — traffic from or
    /// to a node that is absent at the relevant tick resolves as a
    /// [`DropCause::NodeDeparted`](crate::DropCause) drop.
    ///
    /// The outcome is bit-identical at every shard and thread count.
    ///
    /// # Errors
    /// Propagates any [`BackboneError`] from the initial construction
    /// or a maintenance operation.
    ///
    /// # Panics
    /// Panics if `initial.len() != plan.initial()`, an arrival
    /// endpoint is outside the universe, or `cfg.ticks_per_round == 0`.
    #[expect(
        clippy::too_many_arguments,
        reason = "the network, the plan and the traffic schedule are independent inputs"
    )]
    pub fn run(
        &self,
        initial: &[Point],
        radius: f64,
        plan: &ChurnPlan,
        arrivals: &[Arrival],
        faults: &FaultPlan,
        cfg: &TrafficConfig,
        strategy: RepairStrategy,
    ) -> Result<ChurnOutcome, BackboneError> {
        assert_eq!(
            initial.len(),
            plan.initial(),
            "initial positions must cover exactly the plan's initial nodes"
        );
        assert!(cfg.ticks_per_round > 0, "ticks_per_round must be positive");
        // The universe at its *home* positions: initial nodes where
        // they start, joiners where they will power up. This static
        // embedding pins the shard map and the stretch baseline, so
        // neither ever depends on the churn trajectory.
        let mut home: Vec<Point> = initial.to_vec();
        for v in initial.len()..plan.universe() {
            home.push(
                plan.join_position(v)
                    .expect("every joiner's plan carries its position"),
            );
        }
        let n = home.len();
        for a in arrivals {
            assert!(a.src < n && a.dst < n, "arrival endpoints out of bounds");
        }
        let joiners = (initial.len()..n).collect();
        let mut mobile =
            MobileBackbone::with_departed(home.clone(), BackboneConfig::new(radius), joiners)?;
        mobile.set_local_repair(strategy == RepairStrategy::LocalRepair);
        let home_udg = UnitDiskBuilder::new(radius).build(&home);

        let map = ShardMap::spatial(&home, self.shards);
        let s = map.shards();
        let mut per_shard_arrivals: Vec<Vec<u32>> = vec![Vec::new(); s];
        for (i, a) in arrivals.iter().enumerate() {
            per_shard_arrivals[map.shard_of()[a.src] as usize].push(i as u32);
        }
        let threads = worker_threads(self.threads, s);

        let mut churn = ChurnReport {
            joins: 0,
            leaves: 0,
            moves: 0,
            kept: 0,
            local_repairs: 0,
            full_rebuilds: 0,
            repair_cost: 0,
            staleness_ticks: 0,
            windows: Vec::new(),
        };
        let mut stale_since: Option<u64> = None;
        let mut cores: Option<Vec<ShardCore<'_>>> = None;
        let mut boundaries = plan.ticks();
        boundaries.push(u64::MAX);
        for boundary in boundaries {
            // Freeze this epoch's topology: routing and hop geometry
            // come from the backbone as repaired so far. The borrows
            // end before the maintenance calls below mutate it.
            let fw = Forwarding::Backbone {
                backbone: mobile.backbone(),
                udg: mobile.udg(),
            };
            let shared = Shared {
                fw: &fw,
                udg: mobile.udg(),
                faults,
                cfg,
                arrivals,
                shard_of: map.shard_of(),
                local_of: map.local_of(),
                churn: Some(plan),
            };
            let epoch_cores = match cores.take() {
                Some(c) => c,
                None => per_shard_arrivals
                    .iter()
                    .enumerate()
                    .map(|(i, mine)| ShardCore::new(&shared, i as u32, mine.clone(), map.owned(i)))
                    .collect(),
            };
            cores = Some(drive(&shared, epoch_cores, threads, boundary));
            if boundary == u64::MAX {
                break;
            }
            for timed in plan.events_at(boundary) {
                let (moved, report) = match timed.event {
                    ChurnEvent::Leave { node } => {
                        churn.leaves += 1;
                        (false, mobile.remove_node(node)?)
                    }
                    ChurnEvent::Join { node, position } => {
                        churn.joins += 1;
                        (false, mobile.rejoin_node(node, position)?)
                    }
                    ChurnEvent::Move { node, to } => {
                        churn.moves += 1;
                        let mut pts = mobile.points().to_vec();
                        pts[node] = to;
                        (true, mobile.update_positions(pts)?)
                    }
                };
                match report.action {
                    MaintenanceAction::Kept => {
                        churn.kept += 1;
                        churn.repair_cost += 1;
                        // A kept *move* leaves elections computed on
                        // drifted positions: the topology is stale
                        // until something re-derives structure.
                        if moved && stale_since.is_none() {
                            stale_since = Some(boundary);
                        }
                    }
                    MaintenanceAction::LocalRepair { ref touched } => {
                        churn.local_repairs += 1;
                        churn.repair_cost += touched.len() as u64;
                        if let Some(since) = stale_since.take() {
                            churn.staleness_ticks += boundary - since;
                        }
                    }
                    MaintenanceAction::FullRebuild { .. } => {
                        churn.full_rebuilds += 1;
                        let present = plan.universe() - mobile.departed().len();
                        churn.repair_cost += present as u64;
                        if let Some(since) = stale_since.take() {
                            churn.staleness_ticks += boundary - since;
                        }
                    }
                }
            }
        }
        let cores = cores.expect("the boundary list always ends with the quiescence epoch");
        let stats = RunStats::of(&cores, threads);
        let traffic = aggregate(&home_udg, cores);
        if let Some(since) = stale_since.take() {
            // Still stale when the run quiesced: staleness extends to
            // the last processed tick.
            churn.staleness_ticks += traffic.report.duration.saturating_sub(since);
        }
        churn.windows = windows(&traffic, self.window);
        Ok(ChurnOutcome {
            traffic,
            stats,
            churn,
        })
    }
}

/// Bins the outcome's packets by spawn tick into contiguous
/// `window`-length windows.
fn windows(outcome: &TrafficOutcome, window: u64) -> Vec<WindowDelivery> {
    let last = outcome.packets.iter().map(|p| p.spawn).max();
    let Some(last) = last else {
        return Vec::new();
    };
    let count = (last / window + 1) as usize;
    let mut out: Vec<WindowDelivery> = (0..count)
        .map(|w| WindowDelivery {
            start: w as u64 * window,
            offered: 0,
            delivered: 0,
            dropped: 0,
            refused: 0,
        })
        .collect();
    for rec in &outcome.packets {
        let w = &mut out[(rec.spawn / window) as usize];
        w.offered += 1;
        match rec.outcome {
            PacketOutcome::Delivered => w.delivered += 1,
            PacketOutcome::Dropped(_) => w.dropped += 1,
            PacketOutcome::Refused => w.refused += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use geospan_graph::gen::connected_unit_disk;
    use geospan_sim::{ChurnMix, TimedChurn};

    /// A generated mid-size scenario: 30 initial nodes, balanced churn
    /// (joins, leaves, moves), uniform traffic over the whole universe.
    fn scenario() -> (Vec<Point>, f64, ChurnPlan, Vec<Arrival>) {
        let radius = 35.0;
        let (pts, _udg, _s) = connected_unit_disk(30, 100.0, radius, 11);
        let plan = ChurnPlan::generate(5, 30, 100.0, 12, 200, ChurnMix::balanced());
        let arrivals = Workload::uniform(0.4, 300).generate(plan.universe(), 7);
        (pts, radius, plan, arrivals)
    }

    /// The tentpole invariant: a churn run — topology edits interleaved
    /// with live traffic — produces the identical traffic outcome and
    /// maintenance ledger at every shard and thread count.
    #[test]
    fn churn_runs_are_bit_identical_across_shards_and_threads() {
        let (pts, radius, plan, arrivals) = scenario();
        let cfg = TrafficConfig::default();
        let reference = ChurnEngine::new(1)
            .with_threads(1)
            .run(
                &pts,
                radius,
                &plan,
                &arrivals,
                &FaultPlan::none(),
                &cfg,
                RepairStrategy::LocalRepair,
            )
            .expect("reference run");
        assert!(reference.traffic.report.delivered > 0);
        assert_eq!(
            reference.churn.joins + reference.churn.leaves + reference.churn.moves,
            plan.events().len()
        );
        for shards in [2, 4] {
            for threads in [1, 2] {
                let out = ChurnEngine::new(shards)
                    .with_threads(threads)
                    .run(
                        &pts,
                        radius,
                        &plan,
                        &arrivals,
                        &FaultPlan::none(),
                        &cfg,
                        RepairStrategy::LocalRepair,
                    )
                    .expect("sharded run");
                assert_eq!(
                    out.traffic, reference.traffic,
                    "shards={shards} threads={threads}"
                );
                assert_eq!(
                    out.churn, reference.churn,
                    "shards={shards} threads={threads}"
                );
            }
        }
    }

    /// Departures take their packets with them — and the ledger still
    /// balances. Node 3 of a 6-chain leaves at tick 4 with traffic in
    /// flight through it; later arrivals address the departed node
    /// directly.
    #[test]
    fn departures_take_queued_and_in_flight_packets() {
        let pts: Vec<Point> = (0..6).map(|i| Point::new(i as f64 * 2.0, 0.0)).collect();
        // At service_time 2, packet k pops off node 0 at t = 2(k+1) and
        // reaches node 3 at t = 2k+6: the leave at tick 12 lets the
        // head of the stream through, drains a packet queued at node 3
        // when it departs, and kills the tail on arrival.
        let plan = ChurnPlan::new(
            6,
            vec![TimedChurn {
                tick: 12,
                event: ChurnEvent::Leave { node: 3 },
            }],
        );
        // A stream 0 → 5 straddling the departure, plus two packets
        // addressed *to* the departed node after it left.
        let mut arrivals: Vec<Arrival> = (0..8)
            .map(|i| Arrival {
                time: i,
                src: 0,
                dst: 5,
            })
            .collect();
        arrivals.push(Arrival {
            time: 14,
            src: 0,
            dst: 3,
        });
        arrivals.push(Arrival {
            time: 16,
            src: 5,
            dst: 3,
        });
        let cfg = TrafficConfig {
            service_time: 2,
            ..TrafficConfig::default()
        };
        let out = ChurnEngine::new(1)
            .run(
                &pts,
                2.5,
                &plan,
                &arrivals,
                &FaultPlan::none(),
                &cfg,
                RepairStrategy::LocalRepair,
            )
            .expect("run");
        let r = &out.traffic.report;
        assert!(
            r.drops.node_departed >= 2,
            "traffic to and through node 3 dies with it ({} departed drops)",
            r.drops.node_departed
        );
        assert_eq!(
            r.offered,
            r.delivered + r.drops.total() + r.refused,
            "the packet ledger balances across the departure"
        );
        assert!(r.delivered >= 1, "pre-churn packets still deliver");
    }

    /// Satellite: churn can empty a whole spatial shard mid-run. The
    /// right half of a chain departs node by node; the surviving half
    /// keeps serving traffic, and the emptied-shard run stays identical
    /// to the single-shard run.
    #[test]
    fn churn_can_empty_a_shard_mid_run() {
        let pts: Vec<Point> = (0..8).map(|i| Point::new(i as f64 * 2.0, 0.0)).collect();
        let events = (0..4)
            .map(|k| TimedChurn {
                tick: 5 + k,
                event: ChurnEvent::Leave {
                    node: 7 - k as usize,
                },
            })
            .collect();
        let plan = ChurnPlan::new(8, events);
        // Left-half traffic before, during, and long after the right
        // half has fully departed.
        let arrivals: Vec<Arrival> = (0..20)
            .map(|i| Arrival {
                time: i,
                src: (i % 4) as usize,
                dst: ((i + 1) % 4) as usize,
            })
            .collect();
        let cfg = TrafficConfig::default();
        let reference = ChurnEngine::new(1)
            .with_threads(1)
            .run(
                &pts,
                2.5,
                &plan,
                &arrivals,
                &FaultPlan::none(),
                &cfg,
                RepairStrategy::LocalRepair,
            )
            .expect("reference");
        // The left-half stream outlives the right half's departure.
        let late_delivered = reference
            .traffic
            .packets
            .iter()
            .filter(|p| p.spawn > 8 && p.delivered())
            .count();
        assert!(late_delivered > 0, "the surviving half keeps delivering");
        for shards in [2, 4] {
            let out = ChurnEngine::new(shards)
                .with_threads(2)
                .run(
                    &pts,
                    2.5,
                    &plan,
                    &arrivals,
                    &FaultPlan::none(),
                    &cfg,
                    RepairStrategy::LocalRepair,
                )
                .expect("sharded");
            assert_eq!(out.traffic, reference.traffic, "shards={shards}");
            assert_eq!(out.churn, reference.churn, "shards={shards}");
        }
    }

    /// The baseline arm rebuilds on every membership event and pays for
    /// it: its repair message cost dominates the local-repair arm's on
    /// the same scenario.
    #[test]
    fn full_rebuild_baseline_pays_more_than_local_repair() {
        let radius = 35.0;
        let (pts, _udg, _s) = connected_unit_disk(30, 100.0, radius, 3);
        let plan = ChurnPlan::generate(9, 30, 100.0, 16, 200, ChurnMix::membership_only());
        let arrivals = Workload::uniform(0.3, 300).generate(plan.universe(), 13);
        let cfg = TrafficConfig::default();
        let run = |strategy| {
            ChurnEngine::new(1)
                .run(
                    &pts,
                    radius,
                    &plan,
                    &arrivals,
                    &FaultPlan::none(),
                    &cfg,
                    strategy,
                )
                .expect("run")
        };
        let local = run(RepairStrategy::LocalRepair);
        let baseline = run(RepairStrategy::FullRebuild);
        assert_eq!(
            baseline.churn.full_rebuilds,
            baseline.churn.joins + baseline.churn.leaves,
            "the baseline rebuilds on every membership event"
        );
        assert_eq!(baseline.churn.kept + baseline.churn.local_repairs, 0);
        assert!(
            local.churn.kept + local.churn.local_repairs > 0,
            "local repair absorbs some events in place"
        );
        assert!(
            local.churn.repair_cost < baseline.churn.repair_cost,
            "local repair is cheaper: {} vs {}",
            local.churn.repair_cost,
            baseline.churn.repair_cost
        );
        // Membership-only traces never leave the topology stale.
        assert_eq!(local.churn.staleness_ticks, 0);
        assert_eq!(baseline.churn.staleness_ticks, 0);
    }

    /// Windows tile the tick axis and partition the ledger exactly.
    #[test]
    fn windows_partition_the_ledger() {
        let (pts, radius, plan, arrivals) = scenario();
        let cfg = TrafficConfig::default();
        let out = ChurnEngine::new(2)
            .with_window(50)
            .run(
                &pts,
                radius,
                &plan,
                &arrivals,
                &FaultPlan::none(),
                &cfg,
                RepairStrategy::LocalRepair,
            )
            .expect("run");
        let w = &out.churn.windows;
        assert!(!w.is_empty());
        for pair in w.windows(2) {
            assert_eq!(pair[1].start - pair[0].start, 50);
        }
        let r = &out.traffic.report;
        assert_eq!(w.iter().map(|x| x.offered).sum::<usize>(), r.offered);
        assert_eq!(w.iter().map(|x| x.delivered).sum::<usize>(), r.delivered);
        assert_eq!(w.iter().map(|x| x.dropped).sum::<usize>(), r.drops.total());
        assert_eq!(w.iter().map(|x| x.refused).sum::<usize>(), r.refused);
        for x in w {
            assert_eq!(x.offered, x.delivered + x.dropped + x.refused);
        }
    }
}
