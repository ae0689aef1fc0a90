//! Spatially sharded execution of the traffic engine under conservative
//! synchronization.
//!
//! The field is partitioned into spatial regions ([`ShardMap`]): each
//! shard owns a set of nodes, the packets currently held by those
//! nodes, and the event sources that touch them. Shards advance in
//! *barrier rounds*: every shard votes the earliest tick it has work
//! for, the global minimum `T` becomes the round's safe horizon, every
//! shard executes its node-local phases of tick `T`, and the forwards
//! they produced are exchanged through per-`(source shard, destination
//! shard)` channels and merged in a canonical order (see `ShardCore` in
//! `tick.rs` for the phase structure and the determinism argument).
//!
//! Lockstep rounds are the degenerate — and here, necessary — form of
//! conservative synchronization: a transmission completed at tick `T`
//! is *received* at tick `T` (links add no latency beyond the sender's
//! service time), so the lookahead across any cut link is zero and no
//! shard may run ahead of another by even one tick. The round barrier
//! is exactly the null-message protocol specialized to zero lookahead;
//! the price is paid in idle shard-rounds
//! ([`RunStats::idle_shard_rounds`]) rather than null-message traffic.
//!
//! Determinism is unconditional: any shard count, any thread count,
//! any mailbox arrival order produces bit-identical
//! [`TrafficOutcome`]s, because every cross-shard effect is applied in
//! `(sender node, emission index)` order and every node-local decision
//! keys on schedule- or node-local coordinates alone.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the two-barrier round protocol above carries its own determinism proof (DESIGN.md §11)"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use geospan_graph::Graph;
use geospan_sim::FaultPlan;
use serde::Serialize;

use crate::engine::{aggregate, TrafficConfig, TrafficOutcome};
use crate::tick::{BoundaryMsg, ShardCore, Shared};
use crate::workload::Arrival;
use crate::Forwarding;

/// A spatial partition of the node set into shards.
///
/// Nodes are binned into a coarse grid over the field's bounding box,
/// ordered by `(cell, node id)`, and cut into contiguous runs of equal
/// size — so shards are spatially coherent (boundary traffic stays
/// near the cell seams) *and* balanced by node count. The map is a
/// pure function of the node positions and the shard count; which map
/// is used never affects results (only which core does the work), but
/// a deterministic one keeps the load split reproducible too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
    shard_of: Vec<u32>,
    local_of: Vec<u32>,
    owned: Vec<Vec<u32>>,
}

impl ShardMap {
    /// Partitions `points` into `shards` spatial shards (clamped to at
    /// least 1). With more shards than nodes, the surplus shards own
    /// no nodes and simply idle through every round.
    pub fn spatial(points: &[geospan_graph::Point], shards: usize) -> ShardMap {
        let shards = shards.max(1);
        let n = points.len();
        let side = (shards as f64).sqrt().ceil() as usize;
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for p in points {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let width = (max_x - min_x).max(f64::MIN_POSITIVE);
        let height = (max_y - min_y).max(f64::MIN_POSITIVE);
        let cell = |p: &geospan_graph::Point| -> usize {
            let cx = (((p.x - min_x) / width) * side as f64) as usize;
            let cy = (((p.y - min_y) / height) * side as f64) as usize;
            cy.min(side - 1) * side + cx.min(side - 1)
        };
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&v| (cell(&points[v as usize]), v));
        let mut shard_of = vec![0u32; n];
        let mut owned: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for (rank, &v) in order.iter().enumerate() {
            let s = rank * shards / n;
            shard_of[v as usize] = s as u32;
            owned[s].push(v);
        }
        let mut local_of = vec![0u32; n];
        for nodes in &mut owned {
            nodes.sort_unstable();
            for (i, &v) in nodes.iter().enumerate() {
                local_of[v as usize] = i as u32;
            }
        }
        ShardMap {
            shards,
            shard_of,
            local_of,
            owned,
        }
    }

    /// Number of shards (including empty ones).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Node id → owning shard.
    pub fn shard_of(&self) -> &[u32] {
        &self.shard_of
    }

    /// The (ascending) node ids owned by shard `s`.
    ///
    /// # Panics
    /// Panics if `s >= self.shards()`.
    pub fn owned(&self, s: usize) -> &[u32] {
        &self.owned[s]
    }

    pub(crate) fn local_of(&self) -> &[u32] {
        &self.local_of
    }
}

/// Execution statistics of one sharded run — the cost side of the
/// conservative-synchronization ledger.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RunStats {
    /// Shard count the run used.
    pub shards: usize,
    /// Worker threads the driver used (`1` means the sequential
    /// driver; results never depend on this).
    pub threads: usize,
    /// Barrier rounds executed (distinct safe-horizon ticks, counting
    /// a tick once per `service_time == 0` cascade step).
    pub rounds: u64,
    /// Total events processed across shards (arrivals + retries +
    /// service completions + merged forwards).
    pub events: u64,
    /// Forwards whose sender and receiver live on different shards.
    pub boundary_messages: u64,
    /// Shard-rounds in which a shard had nothing scheduled at the safe
    /// horizon — the overhead of advancing every shard in lockstep
    /// (the zero-lookahead analogue of null-message overhead).
    pub idle_shard_rounds: u64,
    /// Events processed per shard: `max/mean` is the load-imbalance
    /// factor of the spatial partition.
    pub events_per_shard: Vec<u64>,
}

impl RunStats {
    /// The statistics of a finished drive over `cores` (one per shard).
    pub(crate) fn of(cores: &[ShardCore<'_>], threads: usize) -> RunStats {
        RunStats {
            shards: cores.len(),
            threads,
            rounds: cores.first().map(|c| c.counters().rounds).unwrap_or(0),
            events: cores.iter().map(|c| c.counters().events).sum(),
            boundary_messages: cores.iter().map(|c| c.counters().boundary_in).sum(),
            idle_shard_rounds: cores.iter().map(|c| c.counters().idle_rounds).sum(),
            events_per_shard: cores.iter().map(|c| c.counters().events).collect(),
        }
    }

    /// Load imbalance of the spatial partition: the busiest shard's
    /// event count over the mean (1.0 = perfectly balanced; 0 when no
    /// events were processed).
    pub fn imbalance(&self) -> f64 {
        let max = self.events_per_shard.iter().copied().max().unwrap_or(0);
        if self.events == 0 {
            0.0
        } else {
            max as f64 * self.events_per_shard.len() as f64 / self.events as f64
        }
    }
}

/// The sharded traffic engine: [`crate::run`] with an explicit shard
/// count and (optionally) an explicit worker-thread count.
///
/// Results are bit-identical at every `(shards, threads)` combination;
/// the knobs only trade wall-clock time for synchronization overhead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedEngine {
    shards: usize,
    threads: Option<usize>,
}

impl ShardedEngine {
    /// An engine with `shards` spatial shards (clamped to at least 1).
    /// The worker-thread count defaults to `RAYON_NUM_THREADS` (the
    /// workspace-wide parallelism escape hatch) or, unset, the
    /// machine's available parallelism — capped at the shard count.
    pub fn new(shards: usize) -> ShardedEngine {
        ShardedEngine {
            shards: shards.max(1),
            threads: None,
        }
    }

    /// Pins the worker-thread count (clamped to at least 1; capped at
    /// the shard count at run time). `1` forces the sequential driver.
    pub fn with_threads(mut self, threads: usize) -> ShardedEngine {
        self.threads = Some(threads.max(1));
        self
    }

    /// Serves `arrivals` exactly as [`crate::run`] does and returns the
    /// identical [`TrafficOutcome`]. See [`crate::run`] for the
    /// contract and panics.
    pub fn run(
        &self,
        forwarding: &Forwarding<'_>,
        udg: &Graph,
        arrivals: &[Arrival],
        faults: &FaultPlan,
        cfg: &TrafficConfig,
    ) -> TrafficOutcome {
        self.run_with_stats(forwarding, udg, arrivals, faults, cfg)
            .0
    }

    /// [`ShardedEngine::run`], also reporting the execution statistics
    /// the scale benchmark records.
    ///
    /// # Panics
    /// Panics if an arrival endpoint is out of bounds or
    /// `cfg.ticks_per_round == 0`.
    pub fn run_with_stats(
        &self,
        forwarding: &Forwarding<'_>,
        udg: &Graph,
        arrivals: &[Arrival],
        faults: &FaultPlan,
        cfg: &TrafficConfig,
    ) -> (TrafficOutcome, RunStats) {
        assert!(cfg.ticks_per_round > 0, "ticks_per_round must be positive");
        let n = udg.node_count();
        for a in arrivals {
            assert!(a.src < n && a.dst < n, "arrival endpoints out of bounds");
        }
        let map = ShardMap::spatial(udg.points(), self.shards);
        let s = map.shards();
        let shared = Shared {
            fw: forwarding,
            udg,
            faults,
            cfg,
            arrivals,
            shard_of: map.shard_of(),
            local_of: map.local_of(),
            churn: None,
        };
        let mut per_shard_arrivals: Vec<Vec<u32>> = vec![Vec::new(); s];
        for (i, a) in arrivals.iter().enumerate() {
            per_shard_arrivals[map.shard_of()[a.src] as usize].push(i as u32);
        }
        let cores: Vec<ShardCore<'_>> = per_shard_arrivals
            .into_iter()
            .enumerate()
            .map(|(i, mine)| ShardCore::new(&shared, i as u32, mine, map.owned(i)))
            .collect();
        let threads = worker_threads(self.threads, s);
        let cores = drive(&shared, cores, threads, u64::MAX);
        let stats = RunStats::of(&cores, threads);
        (aggregate(udg, cores), stats)
    }
}

/// The worker-thread count of a drive over `shards` shards: the pinned
/// count, else the `RAYON_NUM_THREADS` escape hatch the workspace
/// already honors, else the machine's parallelism — capped at the shard
/// count. Thread count never affects results, so reading the
/// environment here is not a determinism hazard.
pub(crate) fn worker_threads(pinned: Option<usize>, shards: usize) -> usize {
    let threads = pinned.unwrap_or_else(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            })
    });
    threads.min(shards).max(1)
}

/// Drives `cores` up to `until` (exclusive): the sequential driver at
/// one thread, the threaded driver otherwise.
pub(crate) fn drive<'a>(
    ctx: &Shared<'_, '_>,
    mut cores: Vec<ShardCore<'a>>,
    threads: usize,
    until: u64,
) -> Vec<ShardCore<'a>> {
    if threads <= 1 {
        drive_sequential(ctx, &mut cores, until);
        cores
    } else {
        drive_threaded(ctx, cores, threads, until)
    }
}

/// One worker drives every shard: vote, execute the local phases,
/// exchange, merge — the same protocol as the threaded driver minus
/// the synchronization.
///
/// Runs until every shard is drained or the global safe horizon
/// reaches `until` (exclusive): ticks `>= until` are left unexecuted
/// with all engine state (queues, stores, pending retries and
/// services) intact, which is how the churn driver interleaves
/// topology changes between epochs. `u64::MAX` runs to quiescence.
fn drive_sequential(ctx: &Shared<'_, '_>, cores: &mut [ShardCore<'_>], until: u64) {
    let s = cores.len();
    // outboxes[src][dst] persists across rounds; `append` drains it.
    let mut outboxes: Vec<Vec<Vec<BoundaryMsg>>> = (0..s)
        .map(|_| (0..s).map(|_| Vec::new()).collect())
        .collect();
    loop {
        let t = cores
            .iter()
            .map(|c| c.next_time(ctx))
            .min()
            .unwrap_or(u64::MAX);
        if t >= until {
            return;
        }
        for (core, out) in cores.iter_mut().zip(outboxes.iter_mut()) {
            core.phase_local(ctx, t, out);
        }
        for (dst, core) in cores.iter_mut().enumerate() {
            let mut inbox = Vec::new();
            for out in outboxes.iter_mut() {
                inbox.append(&mut out[dst]);
            }
            core.phase_merge(ctx, t, inbox);
        }
    }
}

/// `threads` workers drive contiguous chunks of the shards through
/// barrier rounds.
///
/// Each round takes exactly two barriers: one after votes are
/// published (all workers then compute the same global minimum), one
/// after every outbox has been deposited into the mailboxes (merging
/// may then read them). A worker's first action of round `k+1` —
/// storing votes — is ordered after every other worker's reads of
/// round `k` by the second barrier, so two barriers suffice.
fn drive_threaded<'a>(
    ctx: &Shared<'_, '_>,
    cores: Vec<ShardCore<'a>>,
    threads: usize,
    until: u64,
) -> Vec<ShardCore<'a>> {
    let s = cores.len();
    let barrier = Barrier::new(threads);
    let votes: Vec<AtomicU64> = (0..s).map(|_| AtomicU64::new(u64::MAX)).collect();
    // mailboxes[dst][src]: each slot has exactly one writer (the worker
    // owning shard `src`) and one reader (the worker owning `dst`) per
    // round, on opposite sides of a barrier — the mutex only satisfies
    // the type system, it is never contended.
    let mailboxes: Vec<Vec<Mutex<Vec<BoundaryMsg>>>> = (0..s)
        .map(|_| (0..s).map(|_| Mutex::new(Vec::new())).collect())
        .collect();
    // Contiguous chunks, same split rule as the rayon stub.
    let mut chunks: Vec<Vec<ShardCore<'a>>> = Vec::with_capacity(threads);
    let mut rest = cores;
    for w in (0..threads).rev() {
        chunks.push(rest.split_off(w * s / threads));
    }
    chunks.reverse();
    let (barrier, votes, mailboxes) = (&barrier, &votes, &mailboxes);
    let finished: Vec<Vec<ShardCore<'a>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|mut mine| {
                scope.spawn(move || loop {
                    for core in &mine {
                        votes[core.id() as usize].store(core.next_time(ctx), Ordering::SeqCst);
                    }
                    barrier.wait();
                    let t = votes
                        .iter()
                        .map(|v| v.load(Ordering::SeqCst))
                        .min()
                        .unwrap_or(u64::MAX);
                    if t >= until {
                        // Every worker computed the same minimum, so all
                        // exit on the same round and the barrier stays
                        // balanced.
                        return mine;
                    }
                    for core in mine.iter_mut() {
                        let mut outbox: Vec<Vec<BoundaryMsg>> =
                            (0..s).map(|_| Vec::new()).collect();
                        core.phase_local(ctx, t, &mut outbox);
                        for (dst, msgs) in outbox.into_iter().enumerate() {
                            if !msgs.is_empty() {
                                *mailboxes[dst][core.id() as usize]
                                    .lock()
                                    .expect("mailbox writer never panics holding the lock") = msgs;
                            }
                        }
                    }
                    barrier.wait();
                    for core in mine.iter_mut() {
                        let mut inbox = Vec::new();
                        for slot in mailboxes[core.id() as usize].iter().take(s) {
                            inbox.append(
                                &mut slot
                                    .lock()
                                    .expect("mailbox reader never panics holding the lock"),
                            );
                        }
                        core.phase_merge(ctx, t, inbox);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });
    finished.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdmissionPolicy, Discipline, Workload};
    use geospan_core::{BackboneBuilder, BackboneConfig};
    use geospan_graph::gen::{uniform_points, UnitDiskBuilder};
    use geospan_graph::Point;
    use geospan_sim::ReliabilityConfig;

    fn net(n: usize, side: f64, radius: f64, seed: u64) -> Graph {
        let pts = uniform_points(n, side, seed);
        UnitDiskBuilder::new(radius).build(&pts)
    }

    #[test]
    fn spatial_map_is_balanced_and_consistent() {
        let pts = uniform_points(97, 200.0, 4);
        for shards in [1, 2, 4, 8] {
            let map = ShardMap::spatial(&pts, shards);
            assert_eq!(map.shards(), shards);
            let total: usize = (0..shards).map(|s| map.owned(s).len()).sum();
            assert_eq!(total, 97);
            for s in 0..shards {
                let nodes = map.owned(s);
                // Balanced to within one node.
                assert!(
                    nodes.len().abs_diff(97 / shards) <= 1,
                    "shard {s} owns {}",
                    nodes.len()
                );
                assert!(nodes.windows(2).all(|w| w[0] < w[1]), "owned ids ascending");
                for (i, &v) in nodes.iter().enumerate() {
                    assert_eq!(map.shard_of()[v as usize], s as u32);
                    assert_eq!(map.local_of()[v as usize], i as u32);
                }
            }
        }
    }

    #[test]
    fn more_shards_than_nodes_leaves_empty_shards() {
        let pts: Vec<Point> = (0..3).map(|i| Point::new(i as f64, 0.0)).collect();
        let map = ShardMap::spatial(&pts, 8);
        let total: usize = (0..8).map(|s| map.owned(s).len()).sum();
        assert_eq!(total, 3);
        assert!((0..8).any(|s| map.owned(s).is_empty()));
    }

    #[test]
    fn degenerate_geometry_still_partitions() {
        // All nodes at one point: the bounding box has zero extent.
        let pts: Vec<Point> = (0..10).map(|_| Point::new(5.0, 5.0)).collect();
        let map = ShardMap::spatial(&pts, 4);
        let total: usize = (0..4).map(|s| map.owned(s).len()).sum();
        assert_eq!(total, 10);
    }

    /// The crown invariant on a generic lossy, contended, retransmitting,
    /// overload-controlled, admission-paced network: every shard count
    /// and thread count produces the identical outcome struct, under
    /// greedy and under `LDel(ICDS)` backbone forwarding, with each
    /// queue discipline.
    #[test]
    fn every_shard_and_thread_count_is_bit_identical() {
        let g = net(60, 150.0, 40.0, 7);
        let arrivals = Workload::hotspot(3, 0.7, 2.0, 400).generate(60, 9);
        let plan = FaultPlan::new(21).with_loss(0.12).with_duplication(0.05);
        let backbone = BackboneBuilder::new(BackboneConfig::new(40.0))
            .build(&g)
            .expect("a valid unit disk graph builds");
        let backbone_fw = Forwarding::Backbone {
            backbone: &backbone,
            udg: &g,
        };
        for fw in [Forwarding::Greedy(&g), backbone_fw] {
            for discipline in [
                Discipline::Fifo,
                Discipline::NearestFirst,
                Discipline::Drr { quantum: 2 },
            ] {
                let label = format!("{} {}", fw.label(), discipline.label());
                let cfg = TrafficConfig {
                    queue_capacity: 8,
                    discipline,
                    reliability: Some(ReliabilityConfig::default()),
                    overload: Some(geospan_sim::OverloadConfig::for_capacity(8)),
                    admission: AdmissionPolicy::TokenBucket {
                        ticks_per_token: 4,
                        burst: 3,
                    },
                    record_paths: true,
                    ..TrafficConfig::default()
                };
                let reference = ShardedEngine::new(1)
                    .with_threads(1)
                    .run(&fw, &g, &arrivals, &plan, &cfg);
                assert!(reference.report.delivered > 0, "{label}");
                assert!(reference.report.drops.total() > 0, "{label}: losses");
                for shards in [2, 4, 8] {
                    for threads in [1, 2, 4] {
                        let out = ShardedEngine::new(shards)
                            .with_threads(threads)
                            .run(&fw, &g, &arrivals, &plan, &cfg);
                        assert_eq!(out, reference, "{label} shards={shards} threads={threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_service_time_cascades_stay_lockstep() {
        // service_time == 0 lets a packet cross several shards within
        // one tick: the safe horizon must re-open the same tick until
        // the cascade drains, on every shard count.
        let g = net(40, 120.0, 40.0, 3);
        let arrivals = Workload::uniform(1.5, 200).generate(40, 5);
        let cfg = TrafficConfig {
            service_time: 0,
            queue_capacity: 16,
            ..TrafficConfig::default()
        };
        let fw = Forwarding::Greedy(&g);
        let plan = FaultPlan::new(2).with_loss(0.1);
        let reference = ShardedEngine::new(1)
            .with_threads(1)
            .run(&fw, &g, &arrivals, &plan, &cfg);
        assert!(reference.report.delivered > 0);
        // Multi-hop deliveries in zero ticks prove intra-tick cascades.
        assert!(reference
            .packets
            .iter()
            .any(|p| p.hops > 1 && p.latency() == 0));
        for shards in [2, 4, 8] {
            let out = ShardedEngine::new(shards)
                .with_threads(2)
                .run(&fw, &g, &arrivals, &plan, &cfg);
            assert_eq!(out, reference, "shards={shards}");
        }
    }

    #[test]
    fn empty_shards_idle_through_the_run() {
        // 8 shards over a 4-node chain: at least 4 shards own nothing
        // and must neither stall the barrier protocol nor perturb the
        // result.
        let pts: Vec<Point> = (0..4).map(|i| Point::new(i as f64, 0.0)).collect();
        let g = Graph::with_edges(pts, [(0, 1), (1, 2), (2, 3)]);
        let arrivals = vec![
            Arrival {
                time: 0,
                src: 0,
                dst: 3,
            },
            Arrival {
                time: 2,
                src: 3,
                dst: 0,
            },
        ];
        let fw = Forwarding::Greedy(&g);
        let cfg = TrafficConfig::default();
        let reference = ShardedEngine::new(1).run(&fw, &g, &arrivals, &FaultPlan::none(), &cfg);
        assert_eq!(reference.report.delivered, 2);
        let (out, stats) = ShardedEngine::new(8).with_threads(2).run_with_stats(
            &fw,
            &g,
            &arrivals,
            &FaultPlan::none(),
            &cfg,
        );
        assert_eq!(out, reference);
        assert_eq!(stats.shards, 8);
        assert!(stats.idle_shard_rounds > 0, "surplus shards idle");
    }

    #[test]
    fn all_traffic_across_one_boundary() {
        // Two clusters joined by a single bridge edge; every packet
        // crosses it, so the cut carries 100% of the traffic.
        let mut pts: Vec<Point> = (0..8).map(|i| Point::new(i as f64 * 2.0, 0.0)).collect();
        pts.extend((0..8).map(|i| Point::new(100.0 + i as f64 * 2.0, 0.0)));
        let mut edges: Vec<(usize, usize)> = (1..8).map(|i| (i - 1, i)).collect();
        edges.extend((9..16).map(|i| (i - 1, i)));
        edges.push((7, 8)); // the bridge
        let g = Graph::with_edges(pts, edges);
        let arrivals: Vec<Arrival> = (0..20)
            .map(|i| Arrival {
                time: i as u64,
                src: (i % 8) as usize,
                dst: 8 + ((i * 3) % 8) as usize,
            })
            .collect();
        let fw = Forwarding::Greedy(&g);
        let cfg = TrafficConfig {
            record_paths: true,
            ..TrafficConfig::default()
        };
        let reference = ShardedEngine::new(1).run(&fw, &g, &arrivals, &FaultPlan::none(), &cfg);
        assert_eq!(reference.report.delivered, 20);
        let (out, stats) = ShardedEngine::new(2).with_threads(2).run_with_stats(
            &fw,
            &g,
            &arrivals,
            &FaultPlan::none(),
            &cfg,
        );
        assert_eq!(out, reference);
        // The spatial split puts the clusters on different shards, so
        // every packet produces at least one boundary crossing.
        assert!(
            stats.boundary_messages >= 20,
            "{} crossings",
            stats.boundary_messages
        );
    }

    #[test]
    fn crash_of_a_node_owning_in_flight_boundary_events() {
        // A packet is forwarded across the boundary into a node that
        // crashes on exactly the arrival tick, and another sits queued
        // at a node that crashes with the packet in its queue. Both
        // fates must be identical at every shard count.
        let mut pts: Vec<Point> = (0..4).map(|i| Point::new(i as f64 * 2.0, 0.0)).collect();
        pts.extend((0..4).map(|i| Point::new(100.0 + i as f64 * 2.0, 0.0)));
        let mut edges: Vec<(usize, usize)> = (1..4).map(|i| (i - 1, i)).collect();
        edges.extend((5..8).map(|i| (i - 1, i)));
        edges.push((3, 4));
        let g = Graph::with_edges(pts, edges);
        // Receiver-side node 4 crashes at round 4: packets launched at
        // t=0 reach it around then; later packets die in its queue or
        // on arrival.
        let plan = FaultPlan::new(0).with_crash(4, 4);
        let arrivals: Vec<Arrival> = (0..12)
            .map(|i| Arrival {
                time: i as u64 / 2,
                src: (i % 4) as usize,
                dst: 4 + (i % 4) as usize,
            })
            .collect();
        let fw = Forwarding::Greedy(&g);
        let cfg = TrafficConfig {
            service_time: 2,
            ..TrafficConfig::default()
        };
        let reference = ShardedEngine::new(1).run(&fw, &g, &arrivals, &plan, &cfg);
        assert!(reference.report.drops.node_crash > 0, "the crash must bite");
        for shards in [2, 4] {
            let out = ShardedEngine::new(shards)
                .with_threads(2)
                .run(&fw, &g, &arrivals, &plan, &cfg);
            assert_eq!(out, reference, "shards={shards}");
        }
    }

    #[test]
    fn stats_account_for_the_protocol() {
        let g = net(50, 140.0, 40.0, 1);
        let arrivals = Workload::uniform(1.0, 300).generate(50, 2);
        let fw = Forwarding::Greedy(&g);
        let cfg = TrafficConfig::default();
        let (one, s1) = ShardedEngine::new(1).with_threads(1).run_with_stats(
            &fw,
            &g,
            &arrivals,
            &FaultPlan::none(),
            &cfg,
        );
        let (four, s4) = ShardedEngine::new(4).with_threads(1).run_with_stats(
            &fw,
            &g,
            &arrivals,
            &FaultPlan::none(),
            &cfg,
        );
        assert_eq!(one, four);
        assert_eq!(s1.shards, 1);
        assert_eq!(s1.boundary_messages, 0, "one shard has no boundaries");
        assert_eq!(s1.events, s4.events, "same events, different owners");
        assert_eq!(s1.rounds, s4.rounds, "lockstep visits the same ticks");
        assert!(s4.boundary_messages > 0);
        assert_eq!(s4.events_per_shard.len(), 4);
        assert_eq!(s4.events_per_shard.iter().sum::<u64>(), s4.events);
        assert!(s4.imbalance() >= 1.0);
        assert!(s1.imbalance() >= 1.0 - 1e-12);
    }
}
