//! One shard's tick: the state a shard owns and the four phases that
//! alone may change it.
//!
//! Every field of [`ShardCore`] is private to this module, and the only
//! `&mut self` methods visible outside it are [`ShardCore::new`],
//! [`ShardCore::phase_local`] and [`ShardCore::phase_merge`]. The
//! drivers read a copy of the counters, and the aggregation takes the
//! finished core by value. The bit-identity argument on [`ShardCore`]
//! orders only the phases, so privacy is what confines mutation to
//! them; an unreached private mutating helper is dead code, which
//! `cargo clippy-lib` rejects.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use geospan_graph::Graph;
use geospan_sim::{ChurnPlan, FaultPlan};

use crate::engine::{AdmissionPolicy, TrafficConfig};
use crate::queue::{Pressure, PressureGauge, QueueDiscipline, QueuedPacket};
use crate::report::{DropCause, PacketOutcome, PacketRecord};
use crate::workload::Arrival;
use crate::{Decision, Forwarding, Session};

/// The live state of one in-flight packet. Owned by exactly one shard
/// at a time: it lives in that shard's packet store while queued or
/// awaiting a retry, and travels inside a [`BoundaryMsg`] when a
/// service completion forwards it (possibly to another shard).
struct Packet {
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
    sender: u32,
    /// The sender's per-tick emission counter (only exceeds 0 when
    /// `service_time == 0` lets one radio complete several
    /// transmissions in a single tick).
    emit: u32,
    /// Packet id (arrival-schedule index).
    packet: u32,
    /// Node receiving the packet (the chosen next hop).
    receiver: u32,
    /// The packet itself: ownership moves with the message.
    payload: Box<Packet>,
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
    fn present(&self, v: usize, time: u64) -> bool {
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
    id: u32,
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
    done: Vec<(u32, PacketRecord)>,
    counters: Counters,
}

/// A shard's ledger counters. [`ShardCore::counters`] hands out a
/// copy, so code outside the phases can read them but never move them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counters {
    /// Link-layer retransmissions performed.
    pub(crate) retransmissions: usize,
    /// Duplicate deliveries suppressed by per-packet identity.
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
    /// Tick of the last round this shard took part in.
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
            counters: Counters::default(),
        }
    }

    /// This shard's id.
    pub(crate) fn id(&self) -> u32 {
        self.id
    }

    /// A copy of the ledger counters.
    pub(crate) fn counters(&self) -> Counters {
        self.counters
    }

    /// Packets offered to the run (the store has one slot per packet,
    /// on every shard).
    pub(crate) fn offered(&self) -> usize {
        self.store.len()
    }

    /// The finished core's resolved packets, as `(packet id, record)`.
    pub(crate) fn into_records(self) -> Vec<(u32, PacketRecord)> {
        self.done
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
        self.counters.rounds += 1;
        if self.next_time(ctx) != t {
            self.counters.idle_rounds += 1;
        }
        self.counters.last_time = t;
        while let Some(&idx) = self.my_arrivals.get(self.cursor) {
            let a = ctx.arrivals[idx as usize];
            if a.time != t {
                break;
            }
            self.cursor += 1;
            self.counters.events += 1;
            self.inject(ctx, idx as usize, a, t);
        }
        while let Some(&Reverse((rt, p))) = self.retries.peek() {
            if rt != t {
                break;
            }
            self.retries.pop();
            self.counters.events += 1;
            self.retry(ctx, p as usize, t);
        }
        while let Some(&Reverse((st, u))) = self.services.peek() {
            if st != t {
                break;
            }
            self.services.pop();
            self.counters.events += 1;
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
            self.counters.events += 1;
            if ctx.shard_of[msg.sender as usize] != self.id {
                self.counters.boundary_in += 1;
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
                self.counters.retransmissions += 1;
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
            self.counters.duplicates_suppressed += 1;
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
