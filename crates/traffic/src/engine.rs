//! The discrete-event core: per-shard event state, per-node transmit
//! queues, and the packet lifecycle (enqueue → transmit → deliver/drop,
//! with optional per-hop retransmission).
//!
//! Since the sharded rewrite the engine executes every tick in four
//! canonical phases (arrivals → retries → service completions → merge of
//! forwarded packets), and every per-event decision — queue tie-breaks,
//! fault rolls, merge order — is keyed on schedule- or node-local
//! coordinates rather than a global event counter. That makes a tick's
//! outcome independent of how its node-local work is interleaved, which
//! is exactly what lets [`crate::shard::ShardedEngine`] split the field
//! into spatial shards and still produce bit-identical output at any
//! shard or thread count. [`run`] is the front door; it drives the same
//! [`ShardCore`] phase code through the shard driver with
//! [`TrafficConfig::shards`] shards.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use geospan_graph::paths::pair_distances;
use geospan_graph::Graph;
use geospan_sim::{ChurnPlan, FaultPlan, OverloadConfig, ReliabilityConfig};

use crate::queue::{Discipline, Pressure, PressureGauge, QueueDiscipline, QueuedPacket};
use crate::report::{DropCause, DropCounts, PacketOutcome, PacketRecord, TrafficReport};
use crate::shard::ShardedEngine;
use crate::workload::Arrival;
use crate::{Decision, Forwarding, Session};

/// Source admission control: whether a scheduled arrival is allowed to
/// enter the network at all.
///
/// Refused packets resolve as [`PacketOutcome::Refused`] and are counted
/// in [`TrafficReport::refused`], separately from drops — a refusal
/// spends no network resources, so pacing sources during overload
/// trades offered load for delivery of what *is* admitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Every scheduled arrival enters the network (the historical
    /// behavior).
    #[default]
    Open,
    /// A deterministic per-source token bucket: each source holds up to
    /// `burst` tokens, regains one every `ticks_per_token` ticks, and
    /// spends one per admitted packet. Arrivals finding an empty bucket
    /// are refused. Buckets start full, refill lazily on arrival, and
    /// use pure integer arithmetic, so admission decisions are a
    /// deterministic function of the arrival schedule alone.
    TokenBucket {
        /// Ticks per regained token (`0` is treated as `1`). A source's
        /// sustained admitted rate is `1 / ticks_per_token` packets per
        /// tick.
        ticks_per_token: u64,
        /// Bucket depth: the largest back-to-back burst a source may
        /// inject (`0` refuses everything).
        burst: u64,
    },
}

/// Engine parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficConfig {
    /// Per-node transmit queue capacity; `usize::MAX` for unbounded
    /// queues.
    pub queue_capacity: usize,
    /// Ticks a node's radio takes to transmit one packet (the service
    /// time of the transmit queue).
    pub service_time: u64,
    /// Per-packet hop budget (drops with [`DropCause::HopLimit`] when
    /// exceeded).
    pub max_hops: u32,
    /// Engine ticks per [`FaultPlan`] round: crash times and partition
    /// windows configured in rounds activate at `round * ticks_per_round`.
    pub ticks_per_round: u64,
    /// Record every packet's node path (costs memory; used by tests and
    /// diagnostics).
    pub record_paths: bool,
    /// The scheduling policy of every node's transmit queue.
    pub discipline: Discipline,
    /// Per-hop link-layer retransmission: a transmission lost to noise
    /// or an active partition is retried after a backoff
    /// ([`ReliabilityConfig::retry_delay`]) up to
    /// [`ReliabilityConfig::max_retries`] times, the retry re-entering
    /// the sender's queue in competition with fresh traffic. `None`
    /// drops on first loss (the original engine behavior).
    pub reliability: Option<ReliabilityConfig>,
    /// Congestion-adaptive overload control for the retransmit layer:
    /// sender-queue watermarks with hysteresis (see [`OverloadConfig`]
    /// and [`PressureGauge`](crate::PressureGauge)). At each retry
    /// decision the sender reads its own queue occupancy — an
    /// overloaded sender sheds the retry ([`DropCause::RetryShed`]); a
    /// congested one inflates the backoff by
    /// [`OverloadConfig::backoff_factor`]. Only meaningful with
    /// `reliability` set; `None` keeps the engine bit-identical to the
    /// fixed-budget retransmit scheme.
    pub overload: Option<OverloadConfig>,
    /// Source admission control. [`AdmissionPolicy::Open`] (the
    /// default) admits every scheduled arrival and is bit-identical to
    /// the historical engine.
    pub admission: AdmissionPolicy,
    /// Number of spatial shards [`run`] partitions the field into
    /// (clamped to at least 1). Any value produces bit-identical
    /// output — sharding is purely an execution strategy — but values
    /// above 1 let the engine run shards on separate cores. See
    /// [`crate::shard`] for the synchronization protocol.
    pub shards: usize,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            queue_capacity: 64,
            service_time: 1,
            max_hops: 10_000,
            ticks_per_round: 1,
            record_paths: false,
            discipline: Discipline::Fifo,
            reliability: None,
            overload: None,
            admission: AdmissionPolicy::Open,
            shards: 1,
        }
    }
}

/// Everything a traffic run produced: the aggregate report plus the
/// per-packet records it was computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficOutcome {
    /// Aggregate measurements.
    pub report: TrafficReport,
    /// One record per offered packet, in arrival-schedule order.
    pub packets: Vec<PacketRecord>,
}

/// The live state of one in-flight packet. Owned by exactly one shard
/// at a time: it lives in that shard's packet store while queued or
/// awaiting a retry, and travels inside a [`BoundaryMsg`] when a
/// service completion forwards it (possibly to another shard).
pub(crate) struct Packet {
    src: usize,
    dst: usize,
    spawn: u64,
    hops: u32,
    /// Total transmissions performed (hops + retransmissions): the
    /// fault-roll attempt coordinate, so every retry sees an
    /// independent loss roll. Without reliability this equals `hops`
    /// at every roll.
    tx: u32,
    /// Retransmissions already spent on the current hop.
    hop_attempt: u32,
    /// Retransmission transmissions performed over the whole lifecycle.
    retx: u32,
    length: f64,
    /// Node currently holding the packet (where a retry re-enqueues).
    holder: usize,
    next_hop: usize,
    session: Session,
    path: Vec<usize>,
}

struct NodeState {
    queue: Box<dyn QueueDiscipline>,
    busy: bool,
    peak: usize,
    /// Per-node enqueue counter: the disciplines' deterministic FIFO
    /// tie-breaker. Node-local (not global) so the sequence a queue
    /// sees is a pure function of that node's event order, which is
    /// identical at every shard count.
    enqueue_seq: u64,
    /// Watermark hysteresis state (only consulted when
    /// [`TrafficConfig::overload`] is set).
    gauge: PressureGauge,
}

/// Per-source token-bucket state for
/// [`AdmissionPolicy::TokenBucket`]: lazily refilled on arrival with
/// pure integer arithmetic.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: u64,
    /// Tick of the last accounted refill boundary (refill remainders
    /// carry forward exactly).
    refilled: u64,
}

/// A packet crossing a shard boundary (or re-entering its own shard —
/// every successful forward goes through a message, so local and remote
/// hops follow the identical code path).
///
/// Merge order is `(sender, emit)`: the forwarding node's id, then its
/// per-tick emission counter. Both are intrinsic to the transmission —
/// neither depends on which shard produced the message or how shards
/// interleaved — so sorting an inbox on this key reconstructs the same
/// canonical order at every shard count.
pub(crate) struct BoundaryMsg {
    /// Node that transmitted the packet.
    pub(crate) sender: u32,
    /// The sender's per-tick emission counter (only exceeds 0 when
    /// `service_time == 0` lets one radio complete several
    /// transmissions in a single tick).
    pub(crate) emit: u32,
    /// Packet id (arrival-schedule index).
    pub(crate) packet: u32,
    /// Node receiving the packet (the chosen next hop).
    pub(crate) receiver: u32,
    /// The packet itself: ownership moves with the message.
    pub(crate) payload: Box<Packet>,
}

/// Everything the shard cores share read-only.
pub(crate) struct Shared<'a, 'g> {
    pub(crate) fw: &'a Forwarding<'g>,
    pub(crate) udg: &'a Graph,
    pub(crate) faults: &'a FaultPlan,
    pub(crate) cfg: &'a TrafficConfig,
    pub(crate) arrivals: &'a [Arrival],
    /// Node id → owning shard.
    pub(crate) shard_of: &'a [u32],
    /// Node id → index within its owning shard's node table.
    pub(crate) local_of: &'a [u32],
    /// Membership schedule under churn (`None` for static runs). A
    /// departed node takes its queued and in-flight packets with it:
    /// see the presence checks in [`ShardCore::inject`],
    /// [`ShardCore::arrive`], [`ShardCore::retry`] and
    /// [`ShardCore::service`].
    pub(crate) churn: Option<&'a ChurnPlan>,
}

impl Shared<'_, '_> {
    /// Whether node `v` is a network member at `time` (always true for
    /// static runs). A pure function of the churn plan's timestamps —
    /// never of network state — so every shard answers identically and
    /// bit-identity across shard counts is preserved.
    pub(crate) fn present(&self, v: usize, time: u64) -> bool {
        self.churn.is_none_or(|plan| plan.present(v, time))
    }
}

/// One shard's event engine: the nodes it owns, the packets it
/// currently holds, and its arrival/retry/service event sources.
///
/// A tick executes in phases, each draining one event source to
/// exhaustion before the next starts:
///
/// 1. **Arrivals** at this tick, in schedule order — admission, then
///    injection at the source node.
/// 2. **Retries** whose backoff expires at this tick, in packet-id
///    order — the packet rejoins its holder's queue.
/// 3. **Service completions** at this tick, in `(time, node)` heap
///    order — the radio emits its head-of-line packet, rolls the
///    per-`(packet, attempt)` faults, and *defers* every successful
///    forward into an outbox message instead of applying it.
/// 4. **Merge** (after all shards finish phase 3): incoming messages,
///    sorted by `(sender, emit)`, are applied — the packet arrives at
///    its next hop and re-enters a queue or resolves.
///
/// Phases 1–3 touch only node-local state (each node's queue, gauge and
/// counters; each packet's fields), so their intra-phase order across
/// *different* nodes is immaterial — any partition of the nodes into
/// shards executes them identically. Phase 4's sort key restores one
/// global order for the only cross-node effects. Together that is the
/// bit-identity argument for [`crate::shard::ShardedEngine`].
pub(crate) struct ShardCore<'a> {
    /// This shard's id.
    pub(crate) id: u32,
    /// Arrival-schedule indices whose source this shard owns, ascending.
    my_arrivals: Vec<u32>,
    cursor: usize,
    /// Global ids of the nodes this shard owns, ascending.
    owned: &'a [u32],
    /// Pending service completions, keyed `(time, node)`. The `busy`
    /// flag keeps at most one entry per node, so keys are unique.
    services: BinaryHeap<Reverse<(u64, u32)>>,
    /// Pending retransmission backoffs, keyed `(time, packet)`. A
    /// packet has at most one retry outstanding, so keys are unique.
    retries: BinaryHeap<Reverse<(u64, u32)>>,
    /// Packet store, slot per offered packet: `Some` while this shard
    /// holds the packet, `None` while it is elsewhere (or resolved).
    /// Linear ownership doubles as the double-resolve check.
    store: Vec<Option<Box<Packet>>>,
    /// Node state, indexed by local id (position in `owned`).
    nodes: Vec<NodeState>,
    /// Token buckets by local id (empty under [`AdmissionPolicy::Open`]).
    buckets: Vec<Bucket>,
    /// Per local node `(tick, emissions)` — the phase-3 emission
    /// counter behind [`BoundaryMsg::emit`], lazily reset on tick
    /// change.
    emit: Vec<(u64, u32)>,
    /// Resolved packets as `(packet id, record)`.
    pub(crate) done: Vec<(u32, PacketRecord)>,
    pub(crate) retransmissions: usize,
    pub(crate) duplicates_suppressed: usize,
    /// Events this shard processed (arrivals + retries + services +
    /// merged messages): the load-imbalance measure.
    pub(crate) events: u64,
    /// Barrier rounds participated in (equal across shards).
    pub(crate) rounds: u64,
    /// Rounds in which this shard had nothing scheduled at the round's
    /// tick — the conservative-synchronization overhead analogue of
    /// null messages.
    pub(crate) idle_rounds: u64,
    /// Merged messages whose sender lives on a different shard.
    pub(crate) boundary_in: u64,
    pub(crate) last_time: u64,
}

impl<'a> ShardCore<'a> {
    /// `ctx` configures the core (queue disciplines, bucket depths,
    /// store size) but is *not* retained: every phase method takes the
    /// current context as a parameter, which is what lets a churn
    /// driver swap the routed topology between epochs while queues,
    /// stores and cursors persist.
    pub(crate) fn new(
        ctx: &Shared<'_, '_>,
        id: u32,
        my_arrivals: Vec<u32>,
        owned: &'a [u32],
    ) -> Self {
        let cfg = ctx.cfg;
        ShardCore {
            id,
            my_arrivals,
            cursor: 0,
            owned,
            services: BinaryHeap::new(),
            retries: BinaryHeap::new(),
            store: (0..ctx.arrivals.len()).map(|_| None).collect(),
            nodes: owned
                .iter()
                .map(|_| NodeState {
                    queue: cfg.discipline.new_queue(),
                    busy: false,
                    peak: 0,
                    enqueue_seq: 0,
                    gauge: PressureGauge::new(),
                })
                .collect(),
            buckets: match cfg.admission {
                AdmissionPolicy::Open => Vec::new(),
                // Buckets start full: an initial burst up to the depth
                // is admitted before pacing engages.
                AdmissionPolicy::TokenBucket { burst, .. } => {
                    vec![
                        Bucket {
                            tokens: burst,
                            refilled: 0,
                        };
                        owned.len()
                    ]
                }
            },
            emit: vec![(0, 0); owned.len()],
            done: Vec::new(),
            retransmissions: 0,
            duplicates_suppressed: 0,
            events: 0,
            rounds: 0,
            idle_rounds: 0,
            boundary_in: 0,
            last_time: 0,
        }
    }

    /// The earliest tick at which this shard has anything scheduled
    /// (`u64::MAX` when fully drained): its vote in the barrier round's
    /// global-minimum computation.
    pub(crate) fn next_time(&self, ctx: &Shared<'_, '_>) -> u64 {
        let mut t = u64::MAX;
        if let Some(&idx) = self.my_arrivals.get(self.cursor) {
            t = t.min(ctx.arrivals[idx as usize].time);
        }
        if let Some(&Reverse((rt, _))) = self.retries.peek() {
            t = t.min(rt);
        }
        if let Some(&Reverse((st, _))) = self.services.peek() {
            t = t.min(st);
        }
        t
    }

    /// `(global node id, queue peak)` for every owned node.
    pub(crate) fn peaks(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.owned
            .iter()
            .zip(&self.nodes)
            .map(|(&v, st)| (v as usize, st.peak))
    }

    /// Phases 1–3 of tick `t`: arrivals, retries, then service
    /// completions. Successful forwards are pushed onto
    /// `outboxes[destination shard]` instead of being applied.
    pub(crate) fn phase_local(
        &mut self,
        ctx: &Shared<'_, '_>,
        t: u64,
        outboxes: &mut [Vec<BoundaryMsg>],
    ) {
        self.rounds += 1;
        if self.next_time(ctx) != t {
            self.idle_rounds += 1;
        }
        self.last_time = t;
        while let Some(&idx) = self.my_arrivals.get(self.cursor) {
            let a = ctx.arrivals[idx as usize];
            if a.time != t {
                break;
            }
            self.cursor += 1;
            self.events += 1;
            self.inject(ctx, idx as usize, a, t);
        }
        while let Some(&Reverse((rt, p))) = self.retries.peek() {
            if rt != t {
                break;
            }
            self.retries.pop();
            self.events += 1;
            self.retry(ctx, p as usize, t);
        }
        while let Some(&Reverse((st, u))) = self.services.peek() {
            if st != t {
                break;
            }
            self.services.pop();
            self.events += 1;
            self.service(ctx, u as usize, t, outboxes);
        }
    }

    /// Phase 4 of tick `t`: apply the forwards addressed to this shard.
    /// The `(sender, emit)` sort reconstructs the canonical order
    /// whatever concatenation order the driver delivered.
    pub(crate) fn phase_merge(
        &mut self,
        ctx: &Shared<'_, '_>,
        t: u64,
        mut inbox: Vec<BoundaryMsg>,
    ) {
        inbox.sort_unstable_by_key(|m| (m.sender, m.emit));
        for msg in inbox {
            self.events += 1;
            if ctx.shard_of[msg.sender as usize] != self.id {
                self.boundary_in += 1;
            }
            let p = msg.packet as usize;
            debug_assert!(self.store[p].is_none(), "packet {p} already present");
            self.store[p] = Some(msg.payload);
            self.arrive(ctx, p, msg.receiver as usize, t);
        }
    }

    fn round(&self, ctx: &Shared<'_, '_>, time: u64) -> usize {
        (time / ctx.cfg.ticks_per_round) as usize
    }

    fn local(&self, ctx: &Shared<'_, '_>, u: usize) -> usize {
        debug_assert_eq!(ctx.shard_of[u], self.id, "node {u} not owned here");
        ctx.local_of[u] as usize
    }

    /// Phase 1: a scheduled arrival is offered to its source node.
    fn inject(&mut self, ctx: &Shared<'_, '_>, p: usize, a: Arrival, time: u64) {
        self.store[p] = Some(Box::new(Packet {
            src: a.src,
            dst: a.dst,
            spawn: a.time,
            hops: 0,
            tx: 0,
            hop_attempt: 0,
            retx: 0,
            length: 0.0,
            holder: a.src,
            next_hop: usize::MAX,
            session: ctx.fw.new_session(),
            path: Vec::new(),
        }));
        // A source that has left the network cannot originate traffic;
        // its scheduled arrivals die at the (absent) radio.
        if !ctx.present(a.src, time) {
            return self.resolve(p, PacketOutcome::Dropped(DropCause::NodeDeparted), time);
        }
        if self.admit(ctx, a.src, time) {
            self.arrive(ctx, p, a.src, time);
        } else {
            self.resolve(p, PacketOutcome::Refused, time);
        }
    }

    /// Applies the admission policy to an arrival at source `src`.
    /// Deterministic: the decision depends only on the arrival schedule
    /// (tick and per-source order), never on network state.
    fn admit(&mut self, ctx: &Shared<'_, '_>, src: usize, time: u64) -> bool {
        match ctx.cfg.admission {
            AdmissionPolicy::Open => true,
            AdmissionPolicy::TokenBucket {
                ticks_per_token,
                burst,
            } => {
                let period = ticks_per_token.max(1);
                let bucket = &mut self.buckets[ctx.local_of[src] as usize];
                let credit = (time - bucket.refilled) / period;
                if credit > 0 {
                    bucket.tokens = (bucket.tokens + credit).min(burst);
                    // Advance only by whole periods so the remainder
                    // keeps accruing toward the next token.
                    bucket.refilled += credit * period;
                }
                if bucket.tokens > 0 {
                    bucket.tokens -= 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Ends packet `p`'s lifecycle. Taking the packet out of the store
    /// enforces resolve-exactly-once structurally: a second resolve (or
    /// one on a shard that doesn't hold the packet) has no packet to
    /// take.
    fn resolve(&mut self, p: usize, outcome: PacketOutcome, time: u64) {
        let pk = *self.store[p]
            .take()
            .expect("a packet resolves exactly once, on the shard holding it");
        self.done.push((
            p as u32,
            PacketRecord {
                src: pk.src,
                dst: pk.dst,
                spawn: pk.spawn,
                finish: time,
                hops: pk.hops,
                retries: pk.retx,
                length: pk.length,
                outcome,
                path: pk.path,
            },
        ));
    }

    /// Packet `p` is now held by node `u`: decide its next hop and join
    /// `u`'s transmit queue (or end its lifecycle).
    fn arrive(&mut self, ctx: &Shared<'_, '_>, p: usize, u: usize, time: u64) {
        let record_paths = ctx.cfg.record_paths;
        let crashed = ctx.faults.crashed(u, self.round(ctx, time));
        {
            let pk = self.store[p]
                .as_mut()
                .expect("arriving packet is held here");
            if record_paths {
                pk.path.push(u);
            }
            if !crashed {
                pk.holder = u;
                pk.hop_attempt = 0;
            }
        }
        if crashed {
            return self.resolve(p, PacketOutcome::Dropped(DropCause::NodeCrash), time);
        }
        // Churn: a transmission toward a node that has since departed is
        // sent into the void, and a packet whose destination has left
        // can never be delivered — both die here, before any forwarding
        // decision consults the (possibly stale) topology.
        let dst = self.store[p].as_ref().expect("held").dst;
        if !ctx.present(u, time) || !ctx.present(dst, time) {
            return self.resolve(p, PacketOutcome::Dropped(DropCause::NodeDeparted), time);
        }
        let fw = ctx.fw;
        let decision = {
            let pk = self.store[p].as_mut().expect("held");
            fw.decide(&mut pk.session, u, dst)
        };
        match decision {
            Decision::Arrived => self.resolve(p, PacketOutcome::Delivered, time),
            Decision::Stuck => self.resolve(p, PacketOutcome::Dropped(DropCause::Stuck), time),
            Decision::Forward(v) => {
                self.store[p].as_mut().expect("held").next_hop = v;
                self.enqueue(ctx, p, u, time);
            }
        }
    }

    /// Packet `p` (next hop already chosen) joins `u`'s transmit queue,
    /// subject to the capacity check — retransmissions pass through here
    /// too, competing with fresh traffic for the same slots.
    fn enqueue(&mut self, ctx: &Shared<'_, '_>, p: usize, u: usize, time: u64) {
        let lu = self.local(ctx, u);
        if self.nodes[lu].queue.len() >= ctx.cfg.queue_capacity {
            return self.resolve(p, PacketOutcome::Dropped(DropCause::QueueFull), time);
        }
        let dst = self.store[p]
            .as_ref()
            .expect("enqueued packet is held here")
            .dst;
        let remaining = ctx.udg.position(u).distance(ctx.udg.position(dst));
        let node = &mut self.nodes[lu];
        let enqueue_seq = node.enqueue_seq;
        node.enqueue_seq += 1;
        node.queue.push(QueuedPacket {
            id: p,
            dst,
            remaining,
            enqueue_seq,
        });
        let occupancy = node.queue.len();
        #[cfg(feature = "invariant-checks")]
        assert!(
            occupancy <= ctx.cfg.queue_capacity,
            "queue at node {u} exceeds capacity: {occupancy} > {}",
            ctx.cfg.queue_capacity
        );
        node.peak = node.peak.max(occupancy);
        if !node.busy {
            node.busy = true;
            self.services
                .push(Reverse((time + ctx.cfg.service_time, u as u32)));
        }
    }

    /// Phase 2: a retransmission backoff expired — the packet rejoins
    /// its holder's queue (unless the holder died while it waited).
    fn retry(&mut self, ctx: &Shared<'_, '_>, p: usize, time: u64) {
        let u = self.store[p]
            .as_ref()
            .expect("retrying packet is held here")
            .holder;
        if ctx.faults.crashed(u, self.round(ctx, time)) {
            return self.resolve(p, PacketOutcome::Dropped(DropCause::NodeCrash), time);
        }
        if !ctx.present(u, time) {
            return self.resolve(p, PacketOutcome::Dropped(DropCause::NodeDeparted), time);
        }
        self.enqueue(ctx, p, u, time);
    }

    /// Phase 3: node `u`'s radio finished a transmission slot — emit the
    /// head-of-line packet toward its chosen next hop. A successful
    /// transmission is *deferred* into `outboxes` rather than applied;
    /// everything else here touches only `u`'s own state and the
    /// packet's own fields.
    fn service(
        &mut self,
        ctx: &Shared<'_, '_>,
        u: usize,
        time: u64,
        outboxes: &mut [Vec<BoundaryMsg>],
    ) {
        let lu = self.local(ctx, u);
        if ctx.faults.crashed(u, self.round(ctx, time)) {
            // The node died with packets queued: they die with it.
            let victims = self.nodes[lu].queue.drain();
            for qp in victims {
                self.resolve(qp.id, PacketOutcome::Dropped(DropCause::NodeCrash), time);
            }
            self.nodes[lu].busy = false;
            return;
        }
        if !ctx.present(u, time) {
            // The node departed (churn) with packets queued: they leave
            // with it — same drain as a crash, different attribution.
            let victims = self.nodes[lu].queue.drain();
            for qp in victims {
                self.resolve(qp.id, PacketOutcome::Dropped(DropCause::NodeDeparted), time);
            }
            self.nodes[lu].busy = false;
            return;
        }
        let Some(qp) = self.nodes[lu].queue.pop() else {
            self.nodes[lu].busy = false;
            return;
        };
        if self.nodes[lu].queue.is_empty() {
            self.nodes[lu].busy = false;
        } else {
            self.services
                .push(Reverse((time + ctx.cfg.service_time, u as u32)));
        }
        // Work conservation: a node with queued packets always has a
        // service slot scheduled.
        debug_assert!(self.nodes[lu].busy || self.nodes[lu].queue.is_empty());
        let p = qp.id;
        let (v, attempt) = {
            let pk = self.store[p]
                .as_mut()
                .expect("serviced packet is held here");
            let v = pk.next_hop;
            let attempt = pk.tx;
            pk.tx += 1;
            if pk.hop_attempt > 0 {
                // This transmission slot is a link-layer retransmission.
                pk.retx += 1;
                self.retransmissions += 1;
            }
            (v, attempt)
        };
        let round = self.round(ctx, time);
        if ctx.faults.severed(u, v, round) || ctx.faults.drops_packet(p as u64, attempt) {
            if let Some(rel) = ctx.cfg.reliability {
                let hop_attempt = self.store[p].as_ref().expect("held").hop_attempt;
                if hop_attempt < rel.max_retries {
                    // Overload control: before committing to a retry,
                    // the sender reads its own queue pressure.
                    let mut backoff_factor = 1;
                    if let Some(ov) = ctx.cfg.overload {
                        let occupancy = self.nodes[lu].queue.len();
                        match self.nodes[lu].gauge.observe(occupancy, &ov) {
                            Pressure::Overloaded => {
                                // Shed: the retry would only deepen the
                                // overload. Not a retransmission — the
                                // frame is never re-sent.
                                return self.resolve(
                                    p,
                                    PacketOutcome::Dropped(DropCause::RetryShed),
                                    time,
                                );
                            }
                            Pressure::Congested => backoff_factor = ov.backoff_factor,
                            Pressure::Normal => {}
                        }
                    }
                    // The sender times out waiting for the ack, backs
                    // off, and re-queues the frame for the same hop.
                    let pk = self.store[p].as_mut().expect("held");
                    pk.hop_attempt += 1;
                    let delay = rel.congested_retry_delay(
                        pk.hop_attempt,
                        ctx.cfg.service_time,
                        backoff_factor,
                    );
                    debug_assert!(delay > 0, "retry delays keep phases 1-3 ahead of merges");
                    self.retries.push(Reverse((time + delay, p as u32)));
                    return;
                }
            }
            return self.resolve(p, PacketOutcome::Dropped(DropCause::LinkLoss), time);
        }
        if ctx.faults.duplicates_packet(p as u64, attempt) {
            // The receiver sees the frame twice (stale MAC retransmit);
            // per-packet identity deduplicates, the copy is only counted.
            self.duplicates_suppressed += 1;
        }
        let over_budget = {
            let pk = self.store[p].as_mut().expect("held");
            pk.hops += 1;
            pk.hops > ctx.cfg.max_hops
        };
        if over_budget {
            return self.resolve(p, PacketOutcome::Dropped(DropCause::HopLimit), time);
        }
        let hop_len = ctx.udg.position(u).distance(ctx.udg.position(v));
        let mut payload = self.store[p].take().expect("forwarded packet is held here");
        payload.length += hop_len;
        let emission = &mut self.emit[lu];
        if emission.0 != time {
            *emission = (time, 0);
        }
        let emit = emission.1;
        emission.1 += 1;
        outboxes[ctx.shard_of[v] as usize].push(BoundaryMsg {
            sender: u as u32,
            emit,
            packet: p as u32,
            receiver: v as u32,
            payload,
        });
    }
}

/// Folds the resolved packets and node peaks of all shards into the
/// aggregate report. Records are scattered back into arrival-schedule
/// order first, so the aggregation (and its tie-breaks) never sees the
/// shard layout.
pub(crate) fn aggregate(udg: &Graph, cores: Vec<ShardCore<'_>>) -> TrafficOutcome {
    let n = udg.node_count();
    let mut peaks = vec![0usize; n];
    let mut retransmissions = 0usize;
    let mut duplicates_suppressed = 0usize;
    let mut last_time = 0u64;
    let mut slots: Vec<Option<PacketRecord>> = Vec::new();
    for core in cores {
        if slots.is_empty() {
            slots = (0..core.store.len()).map(|_| None).collect();
        }
        retransmissions += core.retransmissions;
        duplicates_suppressed += core.duplicates_suppressed;
        last_time = last_time.max(core.last_time);
        for (v, peak) in core.peaks() {
            peaks[v] = peak;
        }
        for (id, rec) in core.done {
            let slot = &mut slots[id as usize];
            debug_assert!(slot.is_none(), "packet {id} resolved on two shards");
            *slot = Some(rec);
        }
    }
    let mut records = Vec::with_capacity(slots.len());
    let mut drops = DropCounts::default();
    let mut refused = 0usize;
    let mut latencies: Vec<u64> = Vec::new();
    for slot in slots {
        let rec = slot.expect("every offered packet resolves before the engine quiesces");
        match rec.outcome {
            PacketOutcome::Delivered => {
                // Latency from first enqueue (the arrival tick), not
                // from any retransmission: backoff waits are part of
                // the packet's measured delay.
                latencies.push(rec.finish - rec.spawn);
            }
            PacketOutcome::Dropped(cause) => drops.record(cause),
            PacketOutcome::Refused => refused += 1,
        }
        records.push(rec);
    }
    // Stretch against UDG shortest paths. The baselines are computed
    // source by source without keeping rows, then folded in packet
    // order so the float sums do not depend on the batching.
    let stretched = |r: &&PacketRecord| r.outcome == PacketOutcome::Delivered && r.src != r.dst;
    let pairs: Vec<(usize, usize)> = records
        .iter()
        .filter(stretched)
        .map(|r| (r.src, r.dst))
        .collect();
    let baselines = pair_distances(udg, &pairs);
    let mut hop_stretch_sum = 0.0;
    let mut hop_stretch_max = 0.0f64;
    let mut len_stretch_sum = 0.0;
    let mut len_stretch_max = 0.0f64;
    let mut stretch_pairs = 0usize;
    for (rec, &baseline) in records.iter().filter(stretched).zip(&baselines) {
        // Under churn the stretch baseline is the *static* home-position
        // UDG; a pair the baseline does not connect (yet the evolving
        // topology delivered) has no defined stretch and is skipped.
        let (Some(best_hops), Some(best_len)) = baseline else {
            continue;
        };
        let hs = f64::from(rec.hops) / f64::from(best_hops.max(1));
        let ls = if best_len > 0.0 {
            rec.length / best_len
        } else {
            1.0
        };
        hop_stretch_sum += hs;
        hop_stretch_max = hop_stretch_max.max(hs);
        len_stretch_sum += ls;
        len_stretch_max = len_stretch_max.max(ls);
        stretch_pairs += 1;
    }
    latencies.sort_unstable();
    let percentile = |q: f64| -> u64 {
        if latencies.is_empty() {
            0
        } else {
            let rank = (q * latencies.len() as f64).ceil() as usize;
            latencies[rank.clamp(1, latencies.len()) - 1]
        }
    };
    let delivered = latencies.len();
    let peak_max = peaks.iter().copied().max().unwrap_or(0);
    let peak_sum: usize = peaks.iter().sum();
    let report = TrafficReport {
        offered: records.len(),
        delivered,
        drops,
        refused,
        retransmissions,
        duplicates_suppressed,
        latency_p50: percentile(0.5),
        latency_p99: percentile(0.99),
        latency_max: latencies.last().copied().unwrap_or(0),
        latency_mean: if delivered == 0 {
            0.0
        } else {
            latencies.iter().sum::<u64>() as f64 / delivered as f64
        },
        hop_stretch_avg: if stretch_pairs == 0 {
            0.0
        } else {
            hop_stretch_sum / stretch_pairs as f64
        },
        hop_stretch_max,
        length_stretch_avg: if stretch_pairs == 0 {
            0.0
        } else {
            len_stretch_sum / stretch_pairs as f64
        },
        length_stretch_max: len_stretch_max,
        queue_peak_max: peak_max,
        queue_peak_mean: if n == 0 {
            0.0
        } else {
            peak_sum as f64 / n as f64
        },
        duration: last_time,
    };
    debug_assert_eq!(
        report.offered,
        report.delivered + report.drops.total() + report.refused
    );
    #[cfg(feature = "invariant-checks")]
    assert_eq!(
        report.offered,
        report.delivered + report.drops.total() + report.refused,
        "packet conservation violated: offered != delivered + drops + refused"
    );
    TrafficOutcome {
        report,
        packets: records,
    }
}

/// Serves `arrivals` over the forwarding scheme and returns the measured
/// outcome.
///
/// `udg` supplies the shared node positions and the shortest-path
/// baseline for per-packet stretch; the forwarding scheme must route
/// over (sub)graphs of the same vertex set. The run is bit-reproducible:
/// the same inputs give the same [`TrafficOutcome`] on every invocation,
/// under any thread count, and — by the phase structure documented on
/// the engine's `ShardCore` — at any [`TrafficConfig::shards`] value.
///
/// # Panics
/// Panics if an arrival endpoint is out of bounds or
/// `cfg.ticks_per_round == 0`.
pub fn run(
    forwarding: &Forwarding<'_>,
    udg: &Graph,
    arrivals: &[Arrival],
    faults: &FaultPlan,
    cfg: &TrafficConfig,
) -> TrafficOutcome {
    ShardedEngine::new(cfg.shards).run(forwarding, udg, arrivals, faults, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use geospan_graph::Point;

    fn chain(len: usize) -> Graph {
        let pts: Vec<Point> = (0..len).map(|i| Point::new(i as f64, 0.0)).collect();
        let edges: Vec<(usize, usize)> = (1..len).map(|i| (i - 1, i)).collect();
        Graph::with_edges(pts, edges)
    }

    fn one_packet(src: usize, dst: usize) -> Vec<Arrival> {
        vec![Arrival { time: 0, src, dst }]
    }

    fn cfg_recording() -> TrafficConfig {
        TrafficConfig {
            record_paths: true,
            ..TrafficConfig::default()
        }
    }

    #[test]
    fn single_packet_walks_the_chain() {
        let g = chain(5);
        let out = run(
            &Forwarding::Greedy(&g),
            &g,
            &one_packet(0, 4),
            &FaultPlan::none(),
            &cfg_recording(),
        );
        assert_eq!(out.report.delivered, 1);
        assert_eq!(out.packets[0].path, vec![0, 1, 2, 3, 4]);
        assert_eq!(out.packets[0].hops, 4);
        assert_eq!(out.packets[0].retries, 0);
        // One service slot per hop at service_time 1.
        assert_eq!(out.packets[0].latency(), 4);
        assert!((out.report.hop_stretch_avg - 1.0).abs() < 1e-12);
        assert!((out.report.length_stretch_avg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contention_serializes_a_shared_radio() {
        let g = chain(3);
        // Two packets offered to node 0 at the same tick: the second
        // waits a full service slot behind the first at every hop.
        let arrivals = vec![
            Arrival {
                time: 0,
                src: 0,
                dst: 2,
            },
            Arrival {
                time: 0,
                src: 0,
                dst: 2,
            },
        ];
        let out = run(
            &Forwarding::Greedy(&g),
            &g,
            &arrivals,
            &FaultPlan::none(),
            &TrafficConfig::default(),
        );
        assert_eq!(out.report.delivered, 2);
        let (a, b) = (&out.packets[0], &out.packets[1]);
        assert_eq!(a.latency(), 2);
        assert_eq!(b.latency(), 3, "head-of-line blocking costs one slot");
        assert_eq!(out.report.queue_peak_max, 2);
    }

    #[test]
    fn full_queues_drop_excess_load() {
        let g = chain(3);
        let arrivals: Vec<Arrival> = (0..5)
            .map(|_| Arrival {
                time: 0,
                src: 0,
                dst: 2,
            })
            .collect();
        let cfg = TrafficConfig {
            queue_capacity: 1,
            ..TrafficConfig::default()
        };
        let out = run(
            &Forwarding::Greedy(&g),
            &g,
            &arrivals,
            &FaultPlan::none(),
            &cfg,
        );
        assert_eq!(out.report.delivered, 1);
        assert_eq!(out.report.drops.queue_full, 4);
        assert_eq!(out.report.queue_peak_max, 1);
    }

    #[test]
    fn crashed_nodes_kill_traffic_through_them() {
        let g = chain(4);
        let plan = FaultPlan::new(1).with_crash(1, 0);
        let out = run(
            &Forwarding::Greedy(&g),
            &g,
            &one_packet(0, 3),
            &plan,
            &TrafficConfig::default(),
        );
        assert_eq!(out.report.delivered, 0);
        assert_eq!(out.report.drops.node_crash, 1);
    }

    #[test]
    fn mid_flow_crash_drops_queued_packets() {
        let g = chain(4);
        // Node 1 dies at round 2: the packet reaches it at t=5 and the
        // crash predates it.
        let plan = FaultPlan::new(1).with_crash(1, 2);
        let cfg = TrafficConfig {
            service_time: 5,
            ..TrafficConfig::default()
        };
        let out = run(&Forwarding::Greedy(&g), &g, &one_packet(0, 3), &plan, &cfg);
        assert_eq!(out.report.delivered, 0);
        assert_eq!(out.report.drops.node_crash, 1);
    }

    #[test]
    fn partitions_sever_links_while_active() {
        let g = chain(3);
        let plan = FaultPlan::new(0).with_partition(0..1_000, [0]);
        let out = run(
            &Forwarding::Greedy(&g),
            &g,
            &one_packet(0, 2),
            &plan,
            &TrafficConfig::default(),
        );
        assert_eq!(out.report.drops.link_loss, 1);
        // After the partition heals, the same packet schedule delivers.
        let plan = FaultPlan::new(0).with_partition(0..1_000, [0]);
        let late = vec![Arrival {
            time: 2_000,
            src: 0,
            dst: 2,
        }];
        let out = run(
            &Forwarding::Greedy(&g),
            &g,
            &late,
            &plan,
            &TrafficConfig::default(),
        );
        assert_eq!(out.report.delivered, 1);
    }

    #[test]
    fn hop_budget_bounds_packet_lifetime() {
        let g = chain(10);
        let cfg = TrafficConfig {
            max_hops: 3,
            ..TrafficConfig::default()
        };
        let out = run(
            &Forwarding::Greedy(&g),
            &g,
            &one_packet(0, 9),
            &FaultPlan::none(),
            &cfg,
        );
        assert_eq!(out.report.drops.hop_limit, 1);
    }

    #[test]
    fn runs_are_reproducible() {
        let g = chain(8);
        let arrivals = Workload::bursty(4, 0.9, 300).generate(8, 11);
        let plan = FaultPlan::new(5).with_loss(0.1);
        for discipline in [
            Discipline::Fifo,
            Discipline::NearestFirst,
            Discipline::Drr { quantum: 1 },
        ] {
            for reliability in [None, Some(ReliabilityConfig::default())] {
                let cfg = TrafficConfig {
                    queue_capacity: 2,
                    discipline,
                    reliability,
                    ..TrafficConfig::default()
                };
                let a = run(&Forwarding::Greedy(&g), &g, &arrivals, &plan, &cfg);
                let b = run(&Forwarding::Greedy(&g), &g, &arrivals, &plan, &cfg);
                assert_eq!(a, b, "{discipline:?} retx={}", reliability.is_some());
                assert_eq!(
                    a.report.offered,
                    a.report.delivered + a.report.drops.total()
                );
            }
        }
    }

    #[test]
    fn retransmit_recovers_a_transient_partition() {
        let g = chain(3);
        // Link (0,1) severed for rounds 0..4: the first attempt at t=1
        // is lost; with retransmit the packet retries past the heal.
        let plan = || FaultPlan::new(0).with_partition(0..4, [0]);
        let without = run(
            &Forwarding::Greedy(&g),
            &g,
            &one_packet(0, 2),
            &plan(),
            &TrafficConfig::default(),
        );
        assert_eq!(without.report.drops.link_loss, 1);
        assert_eq!(without.report.retransmissions, 0);

        let cfg = TrafficConfig {
            reliability: Some(ReliabilityConfig {
                max_retries: 3,
                ack_timeout: 2,
            }),
            record_paths: true,
            ..TrafficConfig::default()
        };
        let with = run(
            &Forwarding::Greedy(&g),
            &g,
            &one_packet(0, 2),
            &plan(),
            &cfg,
        );
        assert_eq!(with.report.delivered, 1);
        assert!(with.report.retransmissions >= 1);
        assert_eq!(
            with.packets[0].retries as usize,
            with.report.retransmissions
        );
        assert_eq!(with.packets[0].path, vec![0, 1, 2]);
        // Latency includes the backoff waits, counted from first enqueue.
        assert!(with.packets[0].latency() > without.packets[0].latency());
    }

    #[test]
    fn retransmit_budget_is_bounded_and_attributed_to_link_loss() {
        let g = chain(2);
        // Permanently severed link: every retry fails, the budget runs
        // out, and the drop is attributed to LinkLoss.
        let plan = FaultPlan::new(0).with_partition(0..1_000_000, [0]);
        let cfg = TrafficConfig {
            reliability: Some(ReliabilityConfig {
                max_retries: 4,
                ack_timeout: 1,
            }),
            ..TrafficConfig::default()
        };
        let out = run(&Forwarding::Greedy(&g), &g, &one_packet(0, 1), &plan, &cfg);
        assert_eq!(out.report.delivered, 0);
        assert_eq!(out.report.drops.link_loss, 1);
        assert_eq!(out.report.retransmissions, 4, "exactly the retry budget");
        assert_eq!(out.packets[0].retries, 4);
    }

    #[test]
    fn duplicated_deliveries_are_suppressed_and_counted() {
        let g = chain(3);
        let plan = FaultPlan::new(9).with_duplication(1.0);
        let out = run(
            &Forwarding::Greedy(&g),
            &g,
            &one_packet(0, 2),
            &plan,
            &cfg_recording(),
        );
        // Delivered exactly once despite every hop duplicating.
        assert_eq!(out.report.delivered, 1);
        assert_eq!(out.report.duplicates_suppressed, 2, "one per hop");
        assert_eq!(out.packets[0].path, vec![0, 1, 2]);
    }

    /// A star: sources 1..=k all route to sink 0 through no relay (the
    /// sink is adjacent to everyone), so node positions put every
    /// source one hop out.
    fn flood_arrivals(sources: usize, per_source: usize) -> Vec<Arrival> {
        let mut arrivals = Vec::new();
        for t in 0..per_source {
            for s in 1..=sources {
                arrivals.push(Arrival {
                    time: t as u64,
                    src: s,
                    dst: 0,
                });
            }
        }
        arrivals
    }

    #[test]
    fn overloaded_sender_sheds_retries() {
        let g = chain(2);
        // Link permanently severed; node 0's queue stays saturated by a
        // flood, so with watermarks every retry decision sees occupancy
        // >= high and sheds.
        let plan = FaultPlan::new(0).with_partition(0..1_000_000, [0]);
        let arrivals: Vec<Arrival> = (0..30)
            .map(|i| Arrival {
                time: i / 3,
                src: 0,
                dst: 1,
            })
            .collect();
        let base = TrafficConfig {
            queue_capacity: 8,
            reliability: Some(ReliabilityConfig {
                max_retries: 4,
                ack_timeout: 1,
            }),
            ..TrafficConfig::default()
        };
        let without = run(&Forwarding::Greedy(&g), &g, &arrivals, &plan, &base);
        assert_eq!(without.report.drops.retry_shed, 0);
        assert!(without.report.retransmissions > 0);

        let cfg = TrafficConfig {
            overload: Some(OverloadConfig {
                high_watermark: 1,
                low_watermark: 0,
                backoff_factor: 4,
            }),
            ..base
        };
        let with = run(&Forwarding::Greedy(&g), &g, &arrivals, &plan, &cfg);
        assert!(with.report.drops.retry_shed > 0, "watermark shed retries");
        assert!(
            with.report.retransmissions < without.report.retransmissions,
            "shedding replaces most retransmissions ({} vs {})",
            with.report.retransmissions,
            without.report.retransmissions
        );
        assert_eq!(
            with.report.offered,
            with.report.delivered + with.report.drops.total() + with.report.refused
        );
    }

    #[test]
    fn congested_sender_inflates_backoff() {
        let g = chain(3);
        // Three packets at node 0 while link (0,1) is severed until
        // tick 35 (service_time 10, so pops land at t=10/20/30):
        //  * t=10 — pop p0, loss, occupancy 2 ≥ high 2: overloaded,
        //    p0 is shed (and the congested flag latches);
        //  * t=20 — pop p1, loss, occupancy 1: congested band, the
        //    retry backoff is inflated ×4 (40 ticks instead of 10);
        //  * t=30 — pop p2, loss, occupancy 0 ≤ low 0: normal retry.
        // After the heal both survivors deliver; p1's inflated backoff
        // shows up as strictly larger latency than the fixed-budget
        // run gives it.
        let plan = || FaultPlan::new(0).with_partition(0..35, [0]);
        let arrivals: Vec<Arrival> = (0..3)
            .map(|_| Arrival {
                time: 0,
                src: 0,
                dst: 2,
            })
            .collect();
        let base = TrafficConfig {
            service_time: 10,
            reliability: Some(ReliabilityConfig {
                max_retries: 6,
                ack_timeout: 1,
            }),
            ..TrafficConfig::default()
        };
        let without = run(&Forwarding::Greedy(&g), &g, &arrivals, &plan(), &base);
        assert_eq!(without.report.delivered, 3);
        let cfg = TrafficConfig {
            overload: Some(OverloadConfig {
                high_watermark: 2,
                low_watermark: 0,
                backoff_factor: 4,
            }),
            ..base
        };
        let with = run(&Forwarding::Greedy(&g), &g, &arrivals, &plan(), &cfg);
        assert_eq!(with.report.drops.retry_shed, 1, "p0 shed while overloaded");
        assert_eq!(with.report.delivered, 2);
        assert_eq!(with.packets[1].outcome, PacketOutcome::Delivered);
        assert!(
            with.packets[1].latency() > without.packets[1].latency(),
            "inflated backoff stretches p1's latency ({} vs {})",
            with.packets[1].latency(),
            without.packets[1].latency()
        );
    }

    #[test]
    fn token_bucket_paces_sources_deterministically() {
        let g = chain(2);
        // 10 back-to-back arrivals at tick 0, then one every 2 ticks.
        let mut arrivals: Vec<Arrival> = (0..10)
            .map(|_| Arrival {
                time: 0,
                src: 0,
                dst: 1,
            })
            .collect();
        arrivals.extend((1..=5).map(|i| Arrival {
            time: 10 * i,
            src: 0,
            dst: 1,
        }));
        let cfg = TrafficConfig {
            admission: AdmissionPolicy::TokenBucket {
                ticks_per_token: 10,
                burst: 3,
            },
            ..TrafficConfig::default()
        };
        let out = run(
            &Forwarding::Greedy(&g),
            &g,
            &arrivals,
            &FaultPlan::none(),
            &cfg,
        );
        // Burst admits 3 of the 10 simultaneous arrivals; the paced
        // tail regains exactly one token per arrival.
        assert_eq!(out.report.refused, 7);
        assert_eq!(out.report.delivered, 8);
        assert_eq!(out.report.admitted(), 8);
        assert_eq!(out.report.offered, 15);
        assert_eq!(out.report.admitted_delivery_ratio(), 1.0);
        for (i, rec) in out.packets.iter().enumerate() {
            let expect = if (3..10).contains(&i) {
                PacketOutcome::Refused
            } else {
                PacketOutcome::Delivered
            };
            assert_eq!(rec.outcome, expect, "packet {i}");
        }
        // Refusals are not drops.
        assert_eq!(out.report.drops.total(), 0);
    }

    #[test]
    fn zero_burst_refuses_everything() {
        let g = chain(2);
        let cfg = TrafficConfig {
            admission: AdmissionPolicy::TokenBucket {
                ticks_per_token: 1,
                burst: 0,
            },
            ..TrafficConfig::default()
        };
        let out = run(
            &Forwarding::Greedy(&g),
            &g,
            &one_packet(0, 1),
            &FaultPlan::none(),
            &cfg,
        );
        assert_eq!(out.report.refused, 1);
        assert_eq!(out.report.delivered, 0);
        assert_eq!(out.report.delivery_ratio(), 0.0);
        assert_eq!(out.report.admitted_delivery_ratio(), 1.0);
    }

    #[test]
    fn overload_disabled_is_bit_identical_to_fixed_budget_retransmit() {
        // `overload: None` + `admission: Open` must not perturb a
        // single event: same outcome struct, bit for bit, on a lossy
        // contended run.
        let g = chain(8);
        let arrivals = flood_arrivals(7, 40);
        let plan = FaultPlan::new(5).with_loss(0.2);
        let cfg = TrafficConfig {
            queue_capacity: 4,
            reliability: Some(ReliabilityConfig::default()),
            ..TrafficConfig::default()
        };
        let a = run(&Forwarding::Greedy(&g), &g, &arrivals, &plan, &cfg);
        let b = run(&Forwarding::Greedy(&g), &g, &arrivals, &plan, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.report.drops.retry_shed, 0);
        assert_eq!(a.report.refused, 0);
    }

    #[test]
    fn loss_decisions_replay_from_packet_and_attempt_alone() {
        // The fault-roll coordinates must be exactly (packet id,
        // transmission attempt): replaying the per-hop decisions with
        // no knowledge of the route, the queues, or the event order
        // predicts every LinkLoss drop point. This is the property
        // that makes sharded execution (and any engine reordering)
        // bit-identical.
        let g = chain(8);
        let arrivals = Workload::uniform(0.8, 400).generate(8, 3);
        let plan = FaultPlan::new(5).with_loss(0.15);
        let out = run(
            &Forwarding::Greedy(&g),
            &g,
            &arrivals,
            &plan,
            &TrafficConfig::default(),
        );
        let mut losses = 0;
        for (p, rec) in out.packets.iter().enumerate() {
            assert_eq!(rec.retries, 0, "no retries without reliability");
            if rec.outcome == PacketOutcome::Dropped(DropCause::LinkLoss) {
                // Without reliability, attempt == hops at every roll:
                // the first failing attempt is the drop hop.
                let mut hops = 0u32;
                while !plan.drops_packet(p as u64, hops) {
                    hops += 1;
                }
                assert_eq!(hops, rec.hops, "packet {p} dropped at a different hop");
                losses += 1;
            }
        }
        assert_eq!(losses, out.report.drops.link_loss);
        assert!(losses > 0, "the seed should lose something");
    }
}
