//! The invariant-test harness pinning the traffic engine's scheduling
//! and reliability behavior.
//!
//! Everything downstream (the reliability sweep, the determinism CSV
//! checks, the CLI) rests on three engine invariants:
//!
//! * **Conservation** — every offered packet resolves exactly once:
//!   delivered, or attributed to exactly one drop cause. Loss,
//!   duplication, retransmission, and queue competition may delay or
//!   kill packets but never duplicate or lose track of one.
//! * **Scheduling** — disciplines are work-conserving (a node with a
//!   non-empty queue always has a service slot scheduled; on a clean
//!   network with unbounded queues nothing is ever stranded), DRR never
//!   starves a destination, and the priority discipline degenerates to
//!   FIFO when every packet shares one destination.
//! * **Latency accounting** — a retransmitted packet's latency counts
//!   from its first enqueue, never from a retry.

use geospan_graph::gen::connected_unit_disk;
use geospan_graph::{Graph, Point};
use geospan_sim::{
    ChurnEvent, ChurnPlan, FaultPlan, OverloadConfig, ReliabilityConfig, TimedChurn,
};
use geospan_traffic::{
    run, AdmissionPolicy, Arrival, ChurnEngine, Discipline, DropCause, Forwarding, PacketOutcome,
    QueuedPacket, RepairStrategy, TrafficConfig, TrafficReport, Workload,
};
use proptest::prelude::*;

const DISCIPLINES: [Discipline; 3] = [
    Discipline::Fifo,
    Discipline::NearestFirst,
    Discipline::Drr { quantum: 1 },
];

fn discipline() -> impl Strategy<Value = Discipline> {
    (0usize..3).prop_map(|i| DISCIPLINES[i])
}

fn workload() -> impl Strategy<Value = Workload> {
    (0usize..3, 0.05f64..0.8).prop_map(|(kind, rate)| match kind {
        0 => Workload::uniform(rate, 300),
        1 => Workload::hotspot(0, 0.8, rate, 300),
        _ => Workload::bursty(6, rate, 300),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conservation: under any seeded fault plan with loss *and*
    /// duplication, across all disciplines × watermarks × admission,
    /// with and without retransmit,
    /// `offered == delivered + drops.total() + refused`, no packet is
    /// delivered twice, none vanishes, and the per-packet records agree
    /// with the aggregate counters.
    #[test]
    fn every_packet_resolves_exactly_once_under_loss_and_duplication(
        seed in 0u64..5_000,
        (loss, dup) in (0.0f64..0.4, 0.0f64..0.4),
        wl in workload(),
        disc in discipline(),
        (retx, watermarks, paced) in (any::<bool>(), any::<bool>(), any::<bool>()),
        capacity in 2usize..24,
    ) {
        let (_pts, udg, _s) = connected_unit_disk(24, 110.0, 45.0, seed % 60 + 1);
        let n = udg.node_count();
        let arrivals = wl.generate(n, seed);
        let faults = FaultPlan::new(seed ^ 0xfeed)
            .with_loss(loss)
            .with_duplication(dup);
        let cfg = TrafficConfig {
            queue_capacity: capacity,
            max_hops: (50 * n) as u32,
            discipline: disc,
            reliability: retx.then(ReliabilityConfig::default),
            overload: watermarks.then(|| OverloadConfig::for_capacity(capacity)),
            admission: if paced {
                AdmissionPolicy::TokenBucket { ticks_per_token: 3, burst: 4 }
            } else {
                AdmissionPolicy::Open
            },
            ..TrafficConfig::default()
        };
        let out = run(&Forwarding::Greedy(&udg), &udg, &arrivals, &faults, &cfg);

        // One record per offered packet, in schedule order.
        prop_assert_eq!(out.report.offered, arrivals.len());
        prop_assert_eq!(out.packets.len(), arrivals.len());

        // Exactly-once accounting: the aggregate equals the records.
        let delivered = out.packets.iter().filter(|p| p.delivered()).count();
        prop_assert_eq!(out.report.delivered, delivered, "duplicate or lost delivery");
        let refused = out
            .packets
            .iter()
            .filter(|p| p.outcome == PacketOutcome::Refused)
            .count();
        prop_assert_eq!(out.report.refused, refused, "refusal accounting disagrees");
        prop_assert_eq!(
            out.report.offered,
            out.report.delivered + out.report.drops.total() + out.report.refused,
            "packets vanished or double-counted: {:?}",
            out.report.drops
        );
        for cause in DropCause::ALL {
            let records = out.packets.iter().filter(|p| p.outcome == PacketOutcome::Dropped(cause));
            prop_assert_eq!(records.count(), out.report.drops.get(cause), "{:?}", cause);
        }

        // Refusals only come from the admission gate; shed retries only
        // from the watermark layer.
        if !paced {
            prop_assert_eq!(out.report.refused, 0);
        }
        if !(watermarks && retx) {
            prop_assert_eq!(out.report.drops.retry_shed, 0);
        }

        // Retransmission accounting ties out packet by packet.
        let retries: usize = out.packets.iter().map(|p| p.retries as usize).sum();
        prop_assert_eq!(out.report.retransmissions, retries);
        if !retx {
            prop_assert_eq!(out.report.retransmissions, 0);
        }
    }

    /// Work conservation: on a clean connected planar network with
    /// unbounded queues, every discipline drains every queue — no
    /// packet is ever stranded behind an idle radio, so GPSR delivery
    /// is 100% regardless of how the discipline reorders service.
    #[test]
    fn disciplines_are_work_conserving_on_clean_networks(
        seed in 0u64..5_000,
        rate in 0.1f64..1.2,
        disc in discipline(),
    ) {
        let (pts, udg, _s) = connected_unit_disk(20, 100.0, 45.0, seed % 40 + 1);
        let planar = geospan_topology::gabriel(
            &geospan_graph::gen::UnitDiskBuilder::new(45.0).build(&pts),
        );
        let n = udg.node_count();
        let arrivals = Workload::uniform(rate, 250).generate(n, seed);
        let cfg = TrafficConfig {
            queue_capacity: usize::MAX,
            max_hops: (50 * n) as u32,
            discipline: disc,
            ..TrafficConfig::default()
        };
        let out = run(
            &Forwarding::Gpsr(&planar),
            &udg,
            &arrivals,
            &FaultPlan::none(),
            &cfg,
        );
        prop_assert_eq!(
            out.report.delivered,
            out.report.offered,
            "{:?} stranded packets: {:?}",
            disc,
            out.report.drops
        );
    }

    /// DRR starvation bound at the discipline level: with F active
    /// flows and quantum q, a flow with packets left waits at most
    /// (F - 1) * q pops between two of its own services.
    #[test]
    fn drr_gap_between_services_of_a_flow_is_bounded(
        flows in 2usize..6,
        quantum in 1u32..4,
        per_flow in 1usize..8,
        order_seed in 0u64..1_000,
    ) {
        let mut q = Discipline::Drr { quantum }.new_queue();
        // Push per_flow packets for each flow in a seed-scrambled but
        // deterministic interleave.
        let mut pushes: Vec<(usize, usize)> = (0..flows)
            .flat_map(|f| (0..per_flow).map(move |i| (f, i)))
            .collect();
        let mut s = order_seed | 1;
        for i in (1..pushes.len()).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            pushes.swap(i, (s % (i as u64 + 1)) as usize);
        }
        for (seq, &(f, i)) in pushes.iter().enumerate() {
            q.push(QueuedPacket {
                id: f * 1_000 + i,
                dst: f,
                remaining: 1.0,
                enqueue_seq: seq as u64,
            });
        }
        let mut last_seen: Vec<Option<usize>> = vec![None; flows];
        let mut served: Vec<usize> = vec![0; flows];
        let total = flows * per_flow;
        for pop_idx in 0..total {
            let p = q.pop().expect("work conserving: non-empty queue pops");
            let f = p.dst;
            if let Some(prev) = last_seen[f] {
                let gap = pop_idx - prev - 1;
                prop_assert!(
                    gap <= (flows - 1) * quantum as usize,
                    "flow {f} waited {gap} pops (F={flows}, q={quantum})"
                );
            }
            last_seen[f] = Some(pop_idx);
            served[f] += 1;
        }
        prop_assert!(q.pop().is_none());
        prop_assert_eq!(served, vec![per_flow; flows], "a flow lost packets");
    }

    /// On single-destination workloads every queued packet shares one
    /// priority key and one DRR flow, so all three disciplines collapse
    /// to FIFO — outcomes are identical, byte for byte.
    #[test]
    fn priority_and_drr_equal_fifo_on_single_destination_workloads(
        seed in 0u64..5_000,
        rate in 0.1f64..0.9,
        loss in 0.0f64..0.2,
        retx in any::<bool>(),
    ) {
        let (_pts, udg, _s) = connected_unit_disk(18, 100.0, 45.0, seed % 40 + 1);
        let n = udg.node_count();
        // Bias 1.0: every packet targets node 0.
        let arrivals = Workload::hotspot(0, 1.0, rate, 250).generate(n, seed);
        let faults = FaultPlan::new(seed).with_loss(loss);
        let outcome = |disc: Discipline| {
            let cfg = TrafficConfig {
                queue_capacity: 16,
                max_hops: (50 * n) as u32,
                record_paths: true,
                discipline: disc,
                reliability: retx.then(ReliabilityConfig::default),
                ..TrafficConfig::default()
            };
            run(&Forwarding::Greedy(&udg), &udg, &arrivals, &faults, &cfg)
        };
        let fifo = outcome(Discipline::Fifo);
        prop_assert_eq!(&fifo, &outcome(Discipline::NearestFirst), "priority != fifo");
        prop_assert_eq!(&fifo, &outcome(Discipline::Drr { quantum: 1 }), "drr != fifo");
    }
}

/// Star deployment: leaves 0, 2, 3 around center 1. The flood 0 → 2 and
/// the single packet 0 → 3 compete for node 0's radio.
fn star() -> Graph {
    let pts = vec![
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(2.0, 0.0),
        Point::new(1.0, 1.0),
    ];
    Graph::with_edges(pts, [(0, 1), (1, 2), (1, 3)])
}

/// DRR serves the sparse destination within its round-robin turn even
/// while a hotspot flood occupies the same queue; FIFO makes it wait
/// behind the whole backlog. The engine-level face of the starvation
/// bound.
#[test]
fn drr_shields_a_sparse_flow_from_a_hotspot_flood() {
    let g = star();
    let mut arrivals: Vec<Arrival> = (0..40)
        .map(|_| Arrival {
            time: 0,
            src: 0,
            dst: 2,
        })
        .collect();
    // The sparse packet enqueues last, behind the whole flood.
    arrivals.push(Arrival {
        time: 0,
        src: 0,
        dst: 3,
    });
    let latency_of_sparse = |disc: Discipline| {
        let cfg = TrafficConfig {
            queue_capacity: usize::MAX,
            discipline: disc,
            ..TrafficConfig::default()
        };
        let out = run(
            &Forwarding::Greedy(&g),
            &g,
            &arrivals,
            &FaultPlan::none(),
            &cfg,
        );
        assert_eq!(out.report.delivered, out.report.offered, "{disc:?}");
        out.packets.last().unwrap().latency()
    };
    let fifo = latency_of_sparse(Discipline::Fifo);
    let drr = latency_of_sparse(Discipline::Drr { quantum: 1 });
    let prio = latency_of_sparse(Discipline::NearestFirst);
    assert!(fifo > 40, "FIFO makes the sparse packet wait out the flood");
    assert!(
        drr <= 6,
        "DRR serves the sparse flow within its turn (latency {drr})"
    );
    assert!(
        prio <= 6,
        "priority favors the closer destination (latency {prio})"
    );
}

/// Regression (latency accounting): with a forced single-loss link —
/// a partition that swallows exactly the first transmission attempt —
/// the delivered packet's latency must count from its first enqueue at
/// the source, including the retransmission backoff, not from the
/// retry.
#[test]
fn retransmitted_latency_counts_from_first_enqueue() {
    let g = {
        let pts: Vec<Point> = (0..3).map(|i| Point::new(i as f64, 0.0)).collect();
        Graph::with_edges(pts, [(0, 1), (1, 2)])
    };
    // Rounds 0..4 sever {0}: the attempt at t=1 is lost, the retry
    // lands after the heal.
    let plan = FaultPlan::new(0).with_partition(0..4, [0]);
    let cfg = TrafficConfig {
        reliability: Some(ReliabilityConfig {
            max_retries: 3,
            ack_timeout: 2,
        }),
        record_paths: true,
        ..TrafficConfig::default()
    };
    let out = run(
        &Forwarding::Greedy(&g),
        &g,
        &[Arrival {
            time: 0,
            src: 0,
            dst: 2,
        }],
        &plan,
        &cfg,
    );
    assert_eq!(out.report.delivered, 1);
    assert_eq!(out.report.retransmissions, 1, "exactly one forced loss");
    let p = &out.packets[0];
    assert_eq!(p.retries, 1);
    assert_eq!(p.path, vec![0, 1, 2]);
    // Timeline: enqueue t=0; attempt t=1 lost; backoff 2 ticks; retry
    // enqueued t=3; transmits t=4 (healed); final hop t=5. Counting
    // from the retry would claim 2 ticks — the invariant demands 5.
    assert_eq!(p.spawn, 0, "spawn is the first enqueue, never rewritten");
    assert_eq!(p.latency(), 5, "latency spans backoff waits");
}

/// The drop cause of a retry that finds its queue full is `QueueFull`:
/// retries compete with fresh traffic for slots rather than bypassing
/// them.
#[test]
fn retries_compete_for_queue_slots() {
    let g = star();
    // Node 0's queue capacity is 1. The packet to 2 loses its first
    // attempt and backs off; while it waits, fresh packets 0 -> 3 keep
    // the single slot occupied, so the retry finds it taken.
    let plan = FaultPlan::new(0).with_partition(0..1_000, [0]);
    let mut arrivals = vec![Arrival {
        time: 0,
        src: 0,
        dst: 2,
    }];
    for t in 1..40 {
        arrivals.push(Arrival {
            time: t,
            src: 0,
            dst: 3,
        });
    }
    let cfg = TrafficConfig {
        queue_capacity: 1,
        reliability: Some(ReliabilityConfig {
            max_retries: 3,
            ack_timeout: 2,
        }),
        ..TrafficConfig::default()
    };
    let out = run(&Forwarding::Greedy(&g), &g, &arrivals, &plan, &cfg);
    let first = &out.packets[0];
    assert_eq!(
        first.outcome,
        PacketOutcome::Dropped(geospan_traffic::DropCause::QueueFull),
        "the retry lost the slot race: {:?}",
        first.outcome
    );
}

/// Regression (retry accounting): a shed retry is *not* a
/// retransmission — the frame is never re-sent. On a scenario where
/// every packet loses exactly its first transmission and retries at
/// most once, each packet either retransmits (no watermarks, or queue
/// drained) or is shed, so
/// `retransmissions + retry_shed` under watermarks must equal the
/// fixed-budget run's `retransmissions` on the same seed.
#[test]
fn shed_retries_are_not_retransmissions() {
    let g = {
        let pts: Vec<Point> = (0..2).map(|i| Point::new(i as f64, 0.0)).collect();
        Graph::with_edges(pts, [(0, 1)])
    };
    // Permanently severed link, retry budget 1: every packet is
    // serviced once, hits the single retry decision, and (if retried)
    // is serviced exactly once more before dropping as LinkLoss.
    let plan = FaultPlan::new(0).with_partition(0..1_000_000, [0]);
    let arrivals: Vec<Arrival> = (0..20u64)
        .map(|i| Arrival {
            time: i / 4,
            src: 0,
            dst: 1,
        })
        .collect();
    let base = TrafficConfig {
        queue_capacity: 64,
        reliability: Some(ReliabilityConfig {
            max_retries: 1,
            ack_timeout: 1,
        }),
        ..TrafficConfig::default()
    };
    let nowm = run(&Forwarding::Greedy(&g), &g, &arrivals, &plan, &base);
    assert_eq!(nowm.report.retransmissions, arrivals.len());
    assert_eq!(nowm.report.drops.retry_shed, 0);

    let cfg = TrafficConfig {
        overload: Some(OverloadConfig {
            high_watermark: 2,
            low_watermark: 0,
            backoff_factor: 4,
        }),
        ..base
    };
    let wm = run(&Forwarding::Greedy(&g), &g, &arrivals, &plan, &cfg);
    assert!(wm.report.drops.retry_shed > 0, "the backlog shed retries");
    assert!(wm.report.retransmissions > 0, "drained tail still retried");
    assert_eq!(
        wm.report.retransmissions + wm.report.drops.retry_shed,
        nowm.report.retransmissions,
        "every shed retry must be missing from the retransmission count"
    );
    // The per-packet records agree: shed packets spent no retries.
    for p in &wm.packets {
        if p.outcome == PacketOutcome::Dropped(geospan_traffic::DropCause::RetryShed) {
            assert_eq!(p.retries, 0, "a shed packet never retransmitted");
        }
    }
}

/// Determinism contract under overload control: consecutive runs with
/// watermarks *and* admission enabled are bit-identical (the
/// cross-thread-count face of this lives in the bench determinism
/// tests, which diff whole CSV artifacts).
#[test]
fn overload_control_runs_are_bit_identical() {
    let (_pts, udg, _s) = connected_unit_disk(24, 110.0, 45.0, 9);
    let n = udg.node_count();
    let arrivals = Workload::hotspot(0, 0.7, 1.5, 250).generate(n, 13);
    let faults = FaultPlan::new(77).with_loss(0.2);
    let cfg = TrafficConfig {
        queue_capacity: 8,
        max_hops: (50 * n) as u32,
        reliability: Some(ReliabilityConfig::default()),
        overload: Some(OverloadConfig::for_capacity(8)),
        admission: AdmissionPolicy::TokenBucket {
            ticks_per_token: 60,
            burst: 1,
        },
        ..TrafficConfig::default()
    };
    let a = run(&Forwarding::Greedy(&udg), &udg, &arrivals, &faults, &cfg);
    let b = run(&Forwarding::Greedy(&udg), &udg, &arrivals, &faults, &cfg);
    assert_eq!(a, b);
    assert!(a.report.refused > 0, "admission engaged");
    assert_eq!(
        a.report.offered,
        a.report.delivered + a.report.drops.total() + a.report.refused
    );
}

/// Mobility × traffic: a workload served over a backbone whose
/// structure takes a hit. Traffic routed while a backbone node is dead
/// (routing state still pointing at it) dips; after
/// `MobileBackbone::remove_node` heals the hole with one localized
/// 2-hop repair, the same workload delivers fully again.
#[test]
fn delivery_dips_during_a_crash_and_recovers_after_local_repair() {
    use geospan_core::maintenance::{MaintenanceAction, MobileBackbone};
    use geospan_core::BackboneConfig;

    let (pts, _udg, _s) = connected_unit_disk(60, 150.0, 50.0, 6);
    let mut m = MobileBackbone::new(pts, BackboneConfig::new(50.0)).expect("backbone builds");
    let v = m.backbone().backbone_nodes()[0];
    let n = m.udg().node_count();
    // The workload never sources or sinks at the doomed node itself:
    // the dip must come from *transit* traffic through the backbone.
    let arrivals: Vec<Arrival> = Workload::uniform(0.6, 400)
        .generate(n, 21)
        .into_iter()
        .filter(|a| a.src != v && a.dst != v)
        .collect();
    let cfg = TrafficConfig {
        max_hops: (50 * n) as u32,
        ..TrafficConfig::default()
    };

    // Phase 1 — healthy backbone: everything delivers.
    let before = {
        let fw = Forwarding::Backbone {
            backbone: m.backbone(),
            udg: m.udg(),
        };
        run(&fw, m.udg(), &arrivals, &FaultPlan::none(), &cfg)
    };
    assert_eq!(
        before.report.delivered, before.report.offered,
        "healthy backbone delivers everything: {:?}",
        before.report.drops
    );

    // Phase 2 — the node dies but routing still flows over the old
    // structure: transit packets crash with it, delivery dips.
    let during = {
        let fw = Forwarding::Backbone {
            backbone: m.backbone(),
            udg: m.udg(),
        };
        let crash = FaultPlan::new(0).with_crash(v, 0);
        run(&fw, m.udg(), &arrivals, &crash, &cfg)
    };
    assert!(
        during.report.delivered < before.report.delivered,
        "no transit traffic crossed the dead backbone node {v}"
    );
    assert!(during.report.drops.node_crash > 0);

    // Phase 3 — maintenance heals around the hole with one localized
    // repair (no rebuild), and the same workload delivers fully over
    // the repaired backbone.
    let report = m.remove_node(v).expect("removal succeeds");
    assert!(
        matches!(report.action, MaintenanceAction::LocalRepair { .. }),
        "expected a localized 2-hop repair, got {:?}",
        report.action
    );
    let after = {
        let fw = Forwarding::Backbone {
            backbone: m.backbone(),
            udg: m.udg(),
        };
        run(&fw, m.udg(), &arrivals, &FaultPlan::none(), &cfg)
    };
    assert_eq!(
        after.report.delivered, after.report.offered,
        "repaired backbone delivers everything again: {:?}",
        after.report.drops
    );
}

/// A chain of `len` nodes one unit apart.
fn chain(len: usize) -> Graph {
    let pts: Vec<Point> = (0..len).map(|i| Point::new(i as f64, 0.0)).collect();
    Graph::with_edges(pts, (1..len).map(|i| (i - 1, i)))
}

/// `packets` packets from node 0 to the last node of `g`, all offered at
/// tick 0 and forwarded greedily.
fn serve(g: &Graph, packets: usize, faults: &FaultPlan, cfg: &TrafficConfig) -> TrafficReport {
    let dst = g.node_count() - 1;
    let arrivals = vec![
        Arrival {
            time: 0,
            src: 0,
            dst
        };
        packets
    ];
    run(&Forwarding::Greedy(g), g, &arrivals, faults, cfg).report
}

/// The drop ledger is complete: every cause in `DropCause::ALL` has a
/// scenario that reaches its accounting site, and the count lands in
/// that cause's bucket. The match is exhaustive, so a new cause does
/// not compile until it has a scenario here.
#[test]
fn every_drop_cause_is_reached_and_counted() {
    let (two, three) = (chain(2), chain(3));
    let unlinked = Graph::with_edges(two.points().to_vec(), []);
    let (none, crash) = (FaultPlan::none(), FaultPlan::new(0).with_crash(1, 0));
    let severed = FaultPlan::new(0).with_partition(0..1_000_000, [0]);
    let plain = TrafficConfig::default();
    let one_slot = TrafficConfig {
        queue_capacity: 1,
        ..plain
    };
    let one_hop = TrafficConfig {
        max_hops: 1,
        ..plain
    };
    // The first loss leaves two packets queued, at the high watermark.
    let shedding = TrafficConfig {
        reliability: Some(ReliabilityConfig::default()),
        overload: Some(OverloadConfig {
            high_watermark: 1,
            low_watermark: 0,
            backoff_factor: 2,
        }),
        ..plain
    };
    // Node 2 leaves at tick 1, before a packet to it is offered.
    let departure = ChurnPlan::new(
        3,
        vec![TimedChurn {
            tick: 1,
            event: ChurnEvent::Leave { node: 2 },
        }],
    );
    for cause in DropCause::ALL {
        let report = match cause {
            DropCause::Stuck => serve(&unlinked, 1, &none, &plain),
            DropCause::QueueFull => serve(&three, 3, &none, &one_slot),
            DropCause::LinkLoss => serve(&two, 1, &severed, &plain),
            DropCause::NodeCrash => serve(&three, 1, &crash, &plain),
            DropCause::HopLimit => serve(&three, 1, &none, &one_hop),
            DropCause::RetryShed => serve(&two, 3, &severed, &shedding),
            DropCause::NodeDeparted => {
                let arrivals = [Arrival {
                    time: 2,
                    src: 0,
                    dst: 2,
                }];
                let strategy = RepairStrategy::LocalRepair;
                ChurnEngine::new(1)
                    .run(
                        three.points(),
                        1.5,
                        &departure,
                        &arrivals,
                        &none,
                        &plain,
                        strategy,
                    )
                    .expect("a three-node chain keeps a backbone")
                    .traffic
                    .report
            }
        };
        let drops = report.drops;
        assert!(drops.get(cause) > 0, "{cause:?} never counted: {drops:?}");
        assert_eq!(
            report.offered,
            report.delivered + drops.total() + report.refused
        );
    }
}
