//! A deterministic synchronous message-passing simulator for localized
//! wireless protocols.
//!
//! The headline claim of Wang & Li (ICDCS 2002) is about *communication*:
//! every node constructs the backbone by sending only a constant number of
//! 1-hop broadcast messages. To evaluate that claim honestly, the
//! distributed constructions in this workspace run as real protocols on a
//! simulated radio network, and message counts are **measured** rather
//! than asserted.
//!
//! The model matches the paper's setting:
//!
//! * nodes communicate by local broadcast: one transmission reaches every
//!   1-hop neighbor in the unit disk graph (omni-directional antennas);
//! * execution is round-synchronous ("this protocol can be easily
//!   implemented using synchronous communications", §III-A.1): messages
//!   broadcast in round `k` are delivered in round `k+1`;
//! * protocols proceed in *phases* (clustering, connector election,
//!   triangulation, …); each phase runs to quiescence before the next
//!   begins;
//! * everything is deterministic: nodes act in index order (in a round,
//!   each receiving node handles everything it hears, in send order, before
//!   the next node runs), and broadcasts are queued in the order of the
//!   transmission they answer, so every run of a given deployment is
//!   bit-identical.
//!
//! # Example: flooding
//!
//! ```
//! use geospan_graph::{Graph, Point};
//! use geospan_sim::{Context, MessageKind, Network, Protocol};
//!
//! #[derive(Clone)]
//! struct Token(u32);
//! impl MessageKind for Token {
//!     fn kind(&self) -> &'static str { "token" }
//! }
//!
//! struct Flood { have: bool }
//! impl Protocol for Flood {
//!     type Message = Token;
//!     fn on_phase(&mut self, ctx: &mut Context<'_, Token>, phase: usize) {
//!         if phase == 0 && ctx.node() == 0 {
//!             self.have = true;
//!             ctx.broadcast(Token(7));
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<'_, Token>, _from: usize, msg: &Token) {
//!         if !self.have {
//!             self.have = true;
//!             ctx.broadcast(msg.clone());
//!         }
//!     }
//! }
//!
//! let g = Graph::with_edges(
//!     vec![Point::new(0.,0.), Point::new(1.,0.), Point::new(2.,0.)],
//!     [(0,1),(1,2)]);
//! let mut net = Network::new(&g, |_| Flood { have: false });
//! let report = net.run_phase(0, 100).unwrap();
//! assert_eq!(report.rounds, 4); // three delivery rounds + the quiet round
//! assert!(net.nodes().iter().all(|n| n.have));
//! assert_eq!(net.stats().total_sent(), 3); // every node broadcast once
//! ```

//! # Faults, reliability and jitter
//!
//! Perfect radios are a modeling choice, not a law of physics. A seeded
//! [`FaultPlan`] injects lost broadcasts, duplicated deliveries, node
//! crashes, and temporary partitions — all reproducible from one `u64`.
//! A link-layer ack/retransmit scheme ([`ReliabilityConfig`]) recovers
//! lost deliveries with a bounded number of retries; its overhead is
//! counted under the distinct `"ack"` and `"<kind>-retx"` statistics so
//! degradation is measurable. Bounded per-message delivery jitter models
//! asynchronous communication. A [`Radio`] bundles the three, and
//! [`Network::with_radio`] is the one place that decides what a protocol
//! run sees of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use geospan_graph::Graph;

mod churn;
mod fault;

pub use churn::{ChurnEvent, ChurnMix, ChurnPlan, TimedChurn};
use fault::EventKind;
pub use fault::{FaultPlan, FaultReport, OverloadConfig, Partition, ReliabilityConfig};

/// A protocol message that can report its kind for accounting.
///
/// The kind strings become rows of the per-protocol message-cost tables
/// (the paper's Figure 10/12 aggregate them).
pub trait MessageKind: Clone {
    /// A short static label, e.g. `"IamDominator"`.
    fn kind(&self) -> &'static str;
}

/// Per-node protocol state machine.
///
/// One value of the implementing type exists per network node. All
/// interaction with the network goes through the [`Context`]: a node may
/// only *broadcast* to its 1-hop neighbors, exactly like an
/// omni-directional radio.
pub trait Protocol {
    /// The message payload exchanged by this protocol.
    type Message: MessageKind;

    /// Called once at the beginning of each phase (phase `0` is the
    /// protocol start), before any message of that phase is delivered.
    fn on_phase(&mut self, ctx: &mut Context<'_, Self::Message>, phase: usize);

    /// Called for every received message.
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Message>,
        from: usize,
        msg: &Self::Message,
    );
}

/// The interface a node sees while handling an event.
#[derive(Debug)]
pub struct Context<'a, M> {
    node: usize,
    round: usize,
    outbox: &'a mut Vec<M>,
}

impl<M> Context<'_, M> {
    /// The id of the node handling the event.
    #[inline]
    pub fn node(&self) -> usize {
        self.node
    }

    /// The current round number (within the whole run).
    #[inline]
    pub fn round(&self) -> usize {
        self.round
    }

    /// Broadcasts `msg` to all 1-hop neighbors; delivery happens at the
    /// start of the next round. One call is one radio transmission and is
    /// what the message statistics count.
    #[inline]
    pub fn broadcast(&mut self, msg: M) {
        self.outbox.push(msg);
    }
}

/// Message accounting for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MessageStats {
    sent_per_node: Vec<usize>,
    per_kind: BTreeMap<String, usize>,
}

impl MessageStats {
    fn new(n: usize) -> Self {
        MessageStats {
            sent_per_node: vec![0; n],
            per_kind: BTreeMap::new(),
        }
    }

    /// Number of broadcasts performed by each node.
    pub fn sent_per_node(&self) -> &[usize] {
        &self.sent_per_node
    }

    /// Total broadcasts across all nodes.
    pub fn total_sent(&self) -> usize {
        self.sent_per_node.iter().sum()
    }

    /// The largest per-node broadcast count (the paper's "maximum
    /// communication cost of each node").
    pub fn max_sent(&self) -> usize {
        self.sent_per_node.iter().copied().max().unwrap_or(0)
    }

    /// Mean per-node broadcast count.
    pub fn avg_sent(&self) -> f64 {
        if self.sent_per_node.is_empty() {
            0.0
        } else {
            self.total_sent() as f64 / self.sent_per_node.len() as f64
        }
    }

    /// Broadcast counts grouped by [`MessageKind::kind`].
    ///
    /// Reliability-layer traffic appears under its own keys — `"ack"`
    /// for acknowledgements and `"<kind>-retx"` for retransmissions of
    /// `"<kind>"` — so protocol message tables stay comparable whether
    /// or not faults were injected.
    pub fn per_kind(&self) -> &BTreeMap<String, usize> {
        &self.per_kind
    }

    /// Total retransmissions (the sum over all `"*-retx"` kinds).
    pub fn total_retx(&self) -> usize {
        self.per_kind
            .iter()
            .filter(|(k, _)| k.ends_with("-retx"))
            .map(|(_, v)| v)
            .sum()
    }

    /// Counts one broadcast of `kind`, allocating the key only the first
    /// time the kind is seen.
    fn count(&mut self, kind: &str) {
        match self.per_kind.get_mut(kind) {
            Some(count) => *count += 1,
            None => {
                self.per_kind.insert(kind.to_string(), 1);
            }
        }
    }

    /// Merges another run's statistics into this one (same node count).
    ///
    /// # Panics
    /// Panics if the node counts differ.
    pub fn merge(&mut self, other: &MessageStats) {
        assert_eq!(
            self.sent_per_node.len(),
            other.sent_per_node.len(),
            "cannot merge stats over different node sets"
        );
        for (a, b) in self.sent_per_node.iter_mut().zip(&other.sent_per_node) {
            *a += b;
        }
        for (k, &v) in &other.per_kind {
            *self.per_kind.entry(k.clone()).or_insert(0) += v;
        }
    }
}

/// Outcome of running a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseReport {
    /// Rounds executed in this phase (including the final quiet round).
    pub rounds: usize,
    /// Messages broadcast during this phase.
    pub messages: usize,
}

/// Error: a phase failed to reach quiescence within the round budget.
///
/// Localized protocols settle in `O(1)` or `O(diameter)` rounds; hitting
/// the budget indicates a protocol bug (e.g. two nodes re-triggering each
/// other forever) — or, under fault injection, a hang worth diagnosing,
/// which is what the context fields are for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuiescenceTimeout {
    /// The phase that did not converge.
    pub phase: usize,
    /// The round budget that was exhausted.
    pub max_rounds: usize,
    /// Messages still outstanding when the budget ran out: in-flight
    /// deliveries plus unacknowledged reliable broadcasts.
    pub pending: usize,
    /// The last node that broadcast anything (`None` if nothing was
    /// ever sent).
    pub last_active: Option<usize>,
}

impl fmt::Display for QuiescenceTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "phase {} did not reach quiescence within {} rounds ({} messages pending; last active node: {})",
            self.phase,
            self.max_rounds,
            self.pending,
            match self.last_active {
                Some(v) => v.to_string(),
                None => "none".to_string(),
            }
        )
    }
}

impl std::error::Error for QuiescenceTimeout {}

/// What one radio transmission carries: either protocol data (tagged
/// with a per-sender sequence number and a retransmission attempt
/// counter) or a link-layer acknowledgement addressed to the original
/// sender.
enum Payload<M> {
    Data { seq: u64, attempt: u32, msg: M },
    Ack { to: usize, seq: u64, attempt: u32 },
}

/// A transmission in flight: delivered when `delay` reaches zero. While
/// a round's receivers run, the entries they add hold in `delay` the
/// index of the due transmission they answer instead (see
/// [`Network::deliver_data`]).
struct InFlight<M> {
    sender: usize,
    delay: usize,
    payload: Payload<M>,
}

/// A data transmission due in the current round.
struct Due<M> {
    sender: usize,
    seq: u64,
    attempt: u32,
    msg: M,
}

/// The buffers of one delivery round, reused from round to round. The
/// due transmissions themselves move into fresh vectors each round, so
/// no round holds on to the largest round's messages.
#[derive(Default)]
struct RoundBuffers {
    /// `n + 1` row starts: sender `s`'s due transmissions are
    /// `by_sender[first[s]..first[s + 1]]`.
    first: Vec<usize>,
    /// Indices of the due data transmissions, grouped by sender,
    /// ascending within a sender.
    by_sender: Vec<usize>,
    /// One bit per node: set when the node hears something this round.
    hears: Vec<u64>,
    /// The due transmissions one receiver hears, ascending.
    incoming: Vec<usize>,
}

/// A reliable broadcast awaiting acknowledgements from its neighbors.
struct Outstanding<M> {
    msg: M,
    awaiting: BTreeSet<usize>,
    attempt: u32,
    retries_left: u32,
    deadline: usize,
}

/// What the radio does to a protocol run: the faults it injects, the
/// link layer that recovers from them, and whether delivery is
/// asynchronous.
///
/// `Radio::default()` is the perfect synchronous radio the paper
/// assumes. Attach one with [`Network::with_radio`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Radio {
    /// Injected faults; a [`FaultPlan::is_zero`] plan injects nothing.
    pub faults: FaultPlan,
    /// Ack/retransmit parameters, used only under a non-zero plan.
    pub reliability: ReliabilityConfig,
    /// Asynchronous delivery as `(max_delay, seed)`: each broadcast is
    /// delayed by a deterministic pseudo-random number of rounds in
    /// `1..=max_delay`, while phases stay synchronization barriers (the
    /// paper notes its protocols also run asynchronously). `None` is
    /// synchronous.
    pub jitter: Option<(usize, u64)>,
}

/// A simulated radio network: a communication graph plus one protocol
/// state machine per node.
pub struct Network<'g, P: Protocol> {
    graph: &'g Graph,
    nodes: Vec<P>,
    stats: MessageStats,
    round: usize,
    in_flight: Vec<InFlight<P::Message>>,
    /// Jitter configuration: `(max_delay, rng_state)`. `max_delay == 1`
    /// is the synchronous model.
    jitter: (usize, u64),
    /// Injected faults; `None` behaves exactly like a zero plan.
    faults: Option<FaultPlan>,
    /// Ack/retransmit configuration; `None` disables the layer.
    reliability: Option<ReliabilityConfig>,
    /// Next broadcast sequence number, per sender.
    next_seq: Vec<u64>,
    /// Reliable broadcasts not yet fully acknowledged, by (sender, seq).
    pending: BTreeMap<(usize, u64), Outstanding<P::Message>>,
    /// Broadcasts each node has already handled, for duplicate
    /// suppression under reliability (retransmissions reuse the seq).
    seen: Vec<BTreeSet<(usize, u64)>>,
    /// The last node that broadcast anything (timeout diagnostics).
    last_active: Option<usize>,
    dropped: usize,
    duplicated: usize,
    retransmissions: usize,
    gave_up: usize,
    /// Reused buffer for the `"<kind>-retx"` statistics key.
    retx_key: String,
    round_buffers: RoundBuffers,
}

impl<'g, P: Protocol> Network<'g, P> {
    /// Creates a network over the communication graph `graph`, building
    /// each node's state with `factory(node_id)`.
    pub fn new(graph: &'g Graph, factory: impl FnMut(usize) -> P) -> Self {
        let nodes: Vec<P> = (0..graph.node_count()).map(factory).collect();
        let n = nodes.len();
        Network {
            graph,
            stats: MessageStats::new(n),
            nodes,
            round: 0,
            in_flight: Vec::new(),
            jitter: (1, 0),
            faults: None,
            reliability: None,
            next_seq: vec![0; n],
            pending: BTreeMap::new(),
            seen: vec![BTreeSet::new(); n],
            last_active: None,
            dropped: 0,
            duplicated: 0,
            retransmissions: 0,
            gave_up: 0,
            retx_key: String::new(),
            round_buffers: RoundBuffers::default(),
        }
    }

    /// Attaches a fault plan. A [`FaultPlan::is_zero`] plan leaves the
    /// run bit-identical to one without a plan — no random state is
    /// consulted unless a fault probability is actually nonzero.
    fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enables the link-layer ack/retransmit scheme: every broadcast is
    /// acknowledged by each receiving neighbor, and unacknowledged
    /// broadcasts are retransmitted (same sequence number, so receivers
    /// deduplicate) up to [`ReliabilityConfig::max_retries`] times.
    /// Overhead shows up in [`MessageStats::per_kind`] under `"ack"` and
    /// `"<kind>-retx"`.
    fn with_reliability(mut self, cfg: ReliabilityConfig) -> Self {
        self.reliability = Some(cfg);
        self
    }

    /// Switches to asynchronous delivery, as [`Radio::jitter`] describes.
    ///
    /// # Panics
    /// Panics if `max_delay == 0`.
    fn with_jitter(mut self, max_delay: usize, seed: u64) -> Self {
        assert!(max_delay >= 1, "delivery delay must be at least one round");
        self.jitter = (max_delay, seed | 1);
        self
    }

    /// Configures the network for `radio`: applies its jitter when set,
    /// and attaches its fault plan together with the ack/retransmit layer
    /// only when the plan is non-zero.
    ///
    /// A zero plan attaches nothing, so the run — structure, message
    /// statistics and timing — is bit-identical to a network that was
    /// never given a radio, and no per-delivery fault check runs.
    ///
    /// # Panics
    /// Panics if the jitter's `max_delay` is zero.
    pub fn with_radio(mut self, radio: &Radio) -> Self {
        if let Some((max_delay, seed)) = radio.jitter {
            self = self.with_jitter(max_delay, seed);
        }
        if !radio.faults.is_zero() {
            self = self
                .with_faults(radio.faults.clone())
                .with_reliability(radio.reliability);
        }
        self
    }

    /// The per-phase round budget for a localized protocol on this
    /// network: `(n + 16)` rounds, stretched by the maximum delivery
    /// delay under jitter and by the worst-case retransmit cycle
    /// `(max_retries + 2) * (ack_timeout + 1)` under reliability.
    pub fn round_budget(&self) -> usize {
        let per_hop = self
            .reliability
            .map_or(1, |r| (r.max_retries as usize + 2) * (r.ack_timeout + 1));
        (self.graph.node_count() + 16) * self.jitter.0 * per_hop
    }

    /// The communication graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The per-node protocol states (for inspection after a run).
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Message statistics accumulated so far.
    pub fn stats(&self) -> &MessageStats {
        &self.stats
    }

    /// What the injected faults did to this run so far.
    pub fn fault_report(&self) -> FaultReport {
        let crashed = self
            .faults
            .as_ref()
            .map(|p| {
                p.crashes()
                    .filter(|&(_, r)| r <= self.round)
                    .map(|(v, _)| v)
                    .collect()
            })
            .unwrap_or_default();
        FaultReport {
            dropped: self.dropped,
            duplicated: self.duplicated,
            retransmissions: self.retransmissions,
            gave_up: self.gave_up,
            crashed,
            rounds: self.round,
        }
    }

    fn is_crashed(&self, v: usize) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|p| p.crashed(v, self.round))
    }

    /// Runs one phase: calls [`Protocol::on_phase`] on every node, then
    /// delivers messages round by round until no message is in flight.
    ///
    /// # Errors
    /// Returns [`QuiescenceTimeout`] when the phase exceeds `max_rounds`.
    pub fn run_phase(
        &mut self,
        phase: usize,
        max_rounds: usize,
    ) -> Result<PhaseReport, QuiescenceTimeout> {
        let mut phase_messages = 0usize;
        let mut outbox: Vec<P::Message> = Vec::new();

        // Phase kickoff. Crashed nodes have dead radios *and* dead CPUs.
        for u in 0..self.nodes.len() {
            if self.is_crashed(u) {
                continue;
            }
            let mut ctx = Context {
                node: u,
                round: self.round,
                outbox: &mut outbox,
            };
            self.nodes[u].on_phase(&mut ctx, phase);
            phase_messages += self.record_and_enqueue(u, &mut outbox);
        }

        let mut rounds = 0usize;
        loop {
            rounds += 1;
            if rounds > max_rounds {
                return Err(QuiescenceTimeout {
                    phase,
                    max_rounds,
                    pending: self.in_flight.len() + self.pending.len(),
                    last_active: self.last_active,
                });
            }
            self.round += 1;
            if self.in_flight.is_empty() && self.pending.is_empty() {
                break;
            }
            phase_messages += self.deliver_round(&mut outbox);
            phase_messages += self.retransmit_overdue();
        }
        Ok(PhaseReport {
            rounds,
            messages: phase_messages,
        })
    }

    /// Delivers every transmission whose delay has elapsed, receiver by
    /// receiver, and returns the number of broadcasts it triggered
    /// (protocol responses plus acks).
    ///
    /// Acks are applied first, in send order; they touch only `pending`
    /// and the counters. Then each node that hears anything, in ascending
    /// id order, handles all its due data transmissions in send order,
    /// one after another, so its state is touched in one stretch. Each
    /// delivery runs the fault pipeline for its `(sender, receiver)`
    /// link (crash, partition, loss, duplication), and, under
    /// reliability, acks and suppresses duplicate handling.
    ///
    /// What the receivers broadcast is put in flight in sender-major
    /// order: by the due transmission it answers, then by receiver, then
    /// in the order it was made (ack first). That is the order a loop
    /// over transmissions and, within each, over the sender's ascending
    /// neighbor row produces, so sequence numbers, jitter draws,
    /// `pending` and the statistics come out the same as under that
    /// loop. Nodes share no state and each sees its own deliveries in
    /// send order either way, so every node runs the same sequence of
    /// handlers.
    fn deliver_round(&mut self, outbox: &mut Vec<P::Message>) -> usize {
        let (mut acks, mut due) = (Vec::new(), Vec::new());
        for InFlight {
            sender, payload, ..
        } in self.in_flight.extract_if(.., |f| {
            f.delay -= 1;
            f.delay == 0
        }) {
            match payload {
                Payload::Ack { to, seq, attempt } => acks.push((sender, to, seq, attempt)),
                Payload::Data { seq, attempt, msg } => due.push(Due {
                    sender,
                    seq,
                    attempt,
                    msg,
                }),
            }
        }
        for (acker, to, seq, attempt) in acks {
            self.deliver_ack(acker, to, seq, attempt);
        }
        let mut buf = std::mem::take(&mut self.round_buffers);
        let sent = self.deliver_data(&due, &mut buf, outbox);
        self.round_buffers = buf;
        sent
    }

    /// The data half of [`Network::deliver_round`].
    ///
    /// While the receivers run, each entry they put in flight carries in
    /// `delay` the index of the due transmission it answers. The
    /// receivers push in ascending id order, and a sender's neighbor row
    /// is ascending, so a stable sort of the new entries by that index
    /// alone puts them in sender-major order; only then are their delays
    /// drawn.
    fn deliver_data(
        &mut self,
        due: &[Due<P::Message>],
        buf: &mut RoundBuffers,
        outbox: &mut Vec<P::Message>,
    ) -> usize {
        let graph = self.graph;
        let n = self.nodes.len();
        index_by_sender(due, n, &mut buf.first, &mut buf.by_sender);
        buf.hears.resize(n.div_ceil(64), 0);
        for (sender, row) in buf.first.windows(2).enumerate() {
            if row[0] < row[1] {
                for &v in graph.neighbors(sender) {
                    buf.hears[v / 64] |= 1 << (v % 64);
                }
            }
        }

        let start = self.in_flight.len();
        for w in 0..buf.hears.len() {
            let mut bits = std::mem::take(&mut buf.hears[w]);
            while bits != 0 {
                let v = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.is_crashed(v) {
                    continue;
                }
                buf.incoming.clear();
                for &u in graph.neighbors(v) {
                    buf.incoming
                        .extend_from_slice(&buf.by_sender[buf.first[u]..buf.first[u + 1]]);
                }
                buf.incoming.sort_unstable();
                self.receive(v, due, &buf.incoming, outbox);
            }
        }

        // The sender index is spent: its buffers now hold the sort.
        sort_by_due(
            &mut self.in_flight[start..],
            due.len(),
            &mut buf.first,
            &mut buf.by_sender,
        );
        if let Some(f) = self.in_flight[start..]
            .iter()
            .rfind(|f| matches!(f.payload, Payload::Data { .. }))
        {
            self.last_active = Some(f.sender);
        }
        for k in start..self.in_flight.len() {
            self.in_flight[k].delay = self.next_delay();
        }
        self.in_flight.len() - start
    }

    /// Hands node `v` the due transmissions `incoming` (indices into
    /// `due`, ascending), each through the fault pipeline of its link,
    /// and puts what `v` broadcasts in flight tagged with the index it
    /// answers.
    fn receive(
        &mut self,
        v: usize,
        due: &[Due<P::Message>],
        incoming: &[usize],
        outbox: &mut Vec<P::Message>,
    ) {
        for &i in incoming {
            let Due {
                sender,
                seq,
                attempt,
                ref msg,
            } = due[i];
            let mut copies = 1;
            if let Some(plan) = &self.faults {
                if plan.severed(sender, v, self.round)
                    || plan.loses(EventKind::Data, sender, v, seq, attempt)
                {
                    self.dropped += 1;
                    continue;
                }
                if plan.duplicates(sender, v, seq, attempt) {
                    self.duplicated += 1;
                    copies = 2;
                }
            }
            for _ in 0..copies {
                if self.reliability.is_some() {
                    // Link-layer ack: `v` confirms it heard (seq, attempt).
                    self.stats.sent_per_node[v] += 1;
                    self.stats.count("ack");
                    self.in_flight.push(InFlight {
                        sender: v,
                        delay: i,
                        payload: Payload::Ack {
                            to: sender,
                            seq,
                            attempt,
                        },
                    });
                    if !self.seen[v].insert((sender, seq)) {
                        // Already handled this broadcast (a retransmission
                        // or an injected duplicate): ack it, don't re-run
                        // the protocol handler.
                        continue;
                    }
                }
                let mut ctx = Context {
                    node: v,
                    round: self.round,
                    outbox,
                };
                self.nodes[v].on_message(&mut ctx, sender, msg);
                for msg in outbox.drain(..) {
                    self.put_in_flight(v, msg, i);
                }
            }
        }
    }

    /// Processes an ack from `acker` addressed to `to` (acks are radio
    /// broadcasts too, so they traverse the same fault pipeline).
    fn deliver_ack(&mut self, acker: usize, to: usize, seq: u64, attempt: u32) {
        if let Some(plan) = &self.faults {
            if plan.crashed(to, self.round) {
                return;
            }
            if plan.severed(acker, to, self.round)
                || plan.loses(EventKind::Ack, acker, to, seq, attempt)
            {
                self.dropped += 1;
                return;
            }
        }
        if let Some(out) = self.pending.get_mut(&(to, seq)) {
            out.awaiting.remove(&acker);
            if out.awaiting.is_empty() {
                self.pending.remove(&(to, seq));
            }
        }
    }

    /// Retransmits every reliable broadcast whose ack deadline has
    /// passed; broadcasts that exhausted their retries (or whose sender
    /// crashed) are abandoned and counted as `gave_up`.
    fn retransmit_overdue(&mut self) -> usize {
        let Some(rel) = self.reliability else {
            return 0;
        };
        let due: Vec<(usize, u64)> = self
            .pending
            .iter()
            .filter(|(_, out)| out.deadline <= self.round)
            .map(|(&k, _)| k)
            .collect();
        let mut sent = 0usize;
        for key in due {
            let (sender, _) = key;
            let sender_crashed = self.is_crashed(sender);
            let out = self.pending.get_mut(&key).expect("due key present");
            if out.retries_left == 0 || sender_crashed {
                self.gave_up += 1;
                self.pending.remove(&key);
                continue;
            }
            out.retries_left -= 1;
            out.attempt += 1;
            out.deadline = self.round + rel.ack_timeout;
            let attempt = out.attempt;
            let msg = out.msg.clone();
            self.stats.sent_per_node[sender] += 1;
            self.retx_key.clear();
            self.retx_key.push_str(msg.kind());
            self.retx_key.push_str("-retx");
            self.stats.count(&self.retx_key);
            self.retransmissions += 1;
            self.last_active = Some(sender);
            sent += 1;
            let delay = self.next_delay();
            self.in_flight.push(InFlight {
                sender,
                delay,
                payload: Payload::Data {
                    seq: key.1,
                    attempt,
                    msg,
                },
            });
        }
        sent
    }

    /// Runs phases `0..phases`, each to quiescence.
    ///
    /// # Errors
    /// Returns [`QuiescenceTimeout`] if any phase exceeds `max_rounds`.
    pub fn run_phases(
        &mut self,
        phases: usize,
        max_rounds: usize,
    ) -> Result<Vec<PhaseReport>, QuiescenceTimeout> {
        (0..phases).map(|p| self.run_phase(p, max_rounds)).collect()
    }

    /// Consumes the network, returning node states and statistics.
    pub fn into_parts(self) -> (Vec<P>, MessageStats) {
        (self.nodes, self.stats)
    }

    /// Consumes the network, returning node states, statistics and the
    /// fault report — [`FaultReport::default`] when no fault plan is
    /// attached.
    pub fn into_outcome(self) -> (Vec<P>, MessageStats, FaultReport) {
        let report = if self.faults.is_some() {
            self.fault_report()
        } else {
            FaultReport::default()
        };
        (self.nodes, self.stats, report)
    }

    /// Enqueues everything `sender` put in `outbox`, in order, and
    /// returns how many broadcasts that was.
    fn record_and_enqueue(&mut self, sender: usize, outbox: &mut Vec<P::Message>) -> usize {
        let k = outbox.len();
        if k > 0 {
            self.last_active = Some(sender);
        }
        for msg in outbox.drain(..) {
            let delay = self.next_delay();
            self.put_in_flight(sender, msg, delay);
        }
        k
    }

    /// Counts one broadcast of `msg` by `sender`, gives it the sender's
    /// next sequence number, registers it for acks under reliability and
    /// puts it in flight with `delay`.
    fn put_in_flight(&mut self, sender: usize, msg: P::Message, delay: usize) {
        self.stats.sent_per_node[sender] += 1;
        self.stats.count(msg.kind());
        let seq = self.next_seq[sender];
        self.next_seq[sender] += 1;
        if let Some(rel) = self.reliability {
            let awaiting: BTreeSet<usize> = self.graph.neighbors(sender).iter().copied().collect();
            if !awaiting.is_empty() {
                self.pending.insert(
                    (sender, seq),
                    Outstanding {
                        msg: msg.clone(),
                        awaiting,
                        attempt: 0,
                        retries_left: rel.max_retries,
                        deadline: self.round + rel.ack_timeout,
                    },
                );
            }
        }
        self.in_flight.push(InFlight {
            sender,
            delay,
            payload: Payload::Data {
                seq,
                attempt: 0,
                msg,
            },
        });
    }

    /// Deterministic delay in `1..=max_delay` (xorshift over the jitter
    /// state; constant 1 in the synchronous model).
    fn next_delay(&mut self) -> usize {
        let (max_delay, state) = &mut self.jitter;
        if *max_delay == 1 {
            return 1;
        }
        let mut s = *state;
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        *state = s;
        1 + (s % *max_delay as u64) as usize
    }
}

/// Groups the indices of `due` by sender with a counting sort: sender
/// `s`'s transmissions are `by_sender[first[s]..first[s + 1]]`, in send
/// order, for senders `0..n`.
fn index_by_sender<M>(
    due: &[Due<M>],
    n: usize,
    first: &mut Vec<usize>,
    by_sender: &mut Vec<usize>,
) {
    first.clear();
    first.resize(n + 1, 0);
    for d in due {
        first[d.sender] += 1;
    }
    let mut end = 0;
    for f in first.iter_mut() {
        end += *f;
        *f = end;
    }
    // Filling each sender's slots from the back leaves `first[s]` at the
    // sender's start and its indices ascending.
    by_sender.resize(due.len(), 0);
    for (i, d) in due.iter().enumerate().rev() {
        first[d.sender] -= 1;
        by_sender[first[d.sender]] = i;
    }
}

/// Stably sorts `tail`, whose `delay` fields hold indices below
/// `due_count`, by that index: a counting sort gives each entry its
/// destination, and swapping every entry into place applies it with no
/// second copy of the entries.
fn sort_by_due<M>(
    tail: &mut [InFlight<M>],
    due_count: usize,
    starts: &mut Vec<usize>,
    dest: &mut Vec<usize>,
) {
    starts.clear();
    starts.resize(due_count + 1, 0);
    for f in tail.iter() {
        starts[f.delay + 1] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    dest.clear();
    dest.extend(tail.iter().map(|f| {
        let slot = &mut starts[f.delay];
        *slot += 1;
        *slot - 1
    }));
    for k in 0..tail.len() {
        while dest[k] != k {
            let d = dest[k];
            tail.swap(k, d);
            dest.swap(k, d);
        }
    }
}

impl<P: Protocol + fmt::Debug> fmt::Debug for Network<'_, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.nodes.len())
            .field("round", &self.round)
            .field("in_flight", &self.in_flight.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geospan_graph::Point;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    impl MessageKind for Msg {
        fn kind(&self) -> &'static str {
            match self {
                Msg::Ping(_) => "Ping",
                Msg::Pong(_) => "Pong",
            }
        }
    }

    fn path_graph(n: usize) -> Graph {
        let pts = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
        Graph::with_edges(pts, (0..n.saturating_sub(1)).map(|i| (i, i + 1)))
    }

    /// Forwards pings away from the origin, counting receptions.
    #[derive(Debug)]
    struct Relay {
        received: Vec<(usize, Msg)>,
        forwarded: bool,
    }

    impl Protocol for Relay {
        type Message = Msg;
        fn on_phase(&mut self, ctx: &mut Context<'_, Msg>, phase: usize) {
            if phase == 0 && ctx.node() == 0 {
                ctx.broadcast(Msg::Ping(0));
                self.forwarded = true;
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: usize, msg: &Msg) {
            self.received.push((from, msg.clone()));
            if let Msg::Ping(h) = msg {
                if !self.forwarded {
                    self.forwarded = true;
                    ctx.broadcast(Msg::Ping(h + 1));
                }
            }
        }
    }

    fn relay() -> impl FnMut(usize) -> Relay {
        |_| Relay {
            received: Vec::new(),
            forwarded: false,
        }
    }

    #[test]
    fn ping_travels_the_path() {
        let g = path_graph(5);
        let mut net = Network::new(&g, relay());
        let report = net.run_phase(0, 100).unwrap();
        assert_eq!(report.messages, 5);
        assert_eq!(report.rounds, 6); // 5 delivery rounds + quiet round
                                      // Node 4 received a ping with hop count 3 from node 3.
        assert_eq!(net.nodes()[4].received, vec![(3, Msg::Ping(3))]);
        // Everyone broadcast exactly once.
        assert_eq!(net.stats().sent_per_node(), &[1, 1, 1, 1, 1]);
        assert_eq!(net.stats().max_sent(), 1);
        assert_eq!(net.stats().avg_sent(), 1.0);
        assert_eq!(net.stats().per_kind()["Ping"], 5);
    }

    #[test]
    fn broadcast_reaches_only_neighbors() {
        let g = path_graph(4);
        let mut net = Network::new(&g, relay());
        net.run_phase(0, 100).unwrap();
        // Node 2 hears from 1 and 3, never directly from 0.
        let froms: Vec<usize> = net.nodes()[2].received.iter().map(|(f, _)| *f).collect();
        assert!(froms.contains(&1));
        assert!(!froms.contains(&0));
    }

    #[test]
    fn determinism() {
        let g = path_graph(8);
        let run = || {
            let mut net = Network::new(&g, relay());
            net.run_phase(0, 100).unwrap();
            let (nodes, stats) = net.into_parts();
            (
                nodes.into_iter().map(|n| n.received).collect::<Vec<_>>(),
                stats,
            )
        };
        assert_eq!(run(), run());
    }

    /// Two nodes that ping-pong forever: must hit the round budget.
    #[derive(Debug)]
    struct Livelock;
    impl Protocol for Livelock {
        type Message = Msg;
        fn on_phase(&mut self, ctx: &mut Context<'_, Msg>, _phase: usize) {
            if ctx.node() == 0 {
                ctx.broadcast(Msg::Ping(0));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: usize, msg: &Msg) {
            match msg {
                Msg::Ping(h) => ctx.broadcast(Msg::Pong(h + 1)),
                Msg::Pong(h) => ctx.broadcast(Msg::Ping(h + 1)),
            }
        }
    }

    #[test]
    fn quiescence_timeout_detected() {
        let g = path_graph(2);
        let mut net = Network::new(&g, |_| Livelock);
        let err = net.run_phase(0, 50).unwrap_err();
        assert_eq!(err.phase, 0);
        assert_eq!(err.max_rounds, 50);
        assert!(err.pending > 0, "livelock always has messages in flight");
        assert!(err.last_active.is_some());
        let text = err.to_string();
        assert!(text.contains("phase 0"));
        assert!(text.contains("pending"));
        assert!(text.contains("last active node"));
    }

    /// Phase-driven: phase 0 pings from node 0, phase 1 pings from the
    /// last node.
    #[derive(Debug)]
    struct Phased {
        n: usize,
        seen_phases: Vec<usize>,
    }
    impl Protocol for Phased {
        type Message = Msg;
        fn on_phase(&mut self, ctx: &mut Context<'_, Msg>, phase: usize) {
            self.seen_phases.push(phase);
            if phase == 0 && ctx.node() == 0 {
                ctx.broadcast(Msg::Ping(0));
            }
            if phase == 1 && ctx.node() == self.n - 1 {
                ctx.broadcast(Msg::Pong(0));
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: usize, _msg: &Msg) {}
    }

    #[test]
    fn phases_run_in_order() {
        let g = path_graph(3);
        let mut net = Network::new(&g, |_| Phased {
            n: 3,
            seen_phases: Vec::new(),
        });
        let reports = net.run_phases(2, 10).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].messages, 1);
        assert_eq!(reports[1].messages, 1);
        for node in net.nodes() {
            assert_eq!(node.seen_phases, vec![0, 1]);
        }
        assert_eq!(net.stats().per_kind()["Ping"], 1);
        assert_eq!(net.stats().per_kind()["Pong"], 1);
    }

    #[test]
    fn stats_merge() {
        let mut a = MessageStats::new(3);
        a.sent_per_node = vec![1, 2, 3];
        a.per_kind.insert("Ping".to_string(), 6);
        a.per_kind.insert("Ping-retx".to_string(), 2);
        let mut b = MessageStats::new(3);
        b.sent_per_node = vec![1, 0, 0];
        b.per_kind.insert("Pong".to_string(), 1);
        b.per_kind.insert("Ping-retx".to_string(), 1);
        a.merge(&b);
        assert_eq!(a.sent_per_node(), &[2, 2, 3]);
        assert_eq!(a.total_sent(), 7);
        assert_eq!(a.per_kind()["Ping"], 6);
        assert_eq!(a.per_kind()["Pong"], 1);
        assert_eq!(a.per_kind()["Ping-retx"], 3);
        assert_eq!(a.total_retx(), 3);
    }

    #[test]
    #[should_panic(expected = "different node sets")]
    fn stats_merge_mismatch() {
        let mut a = MessageStats::new(2);
        a.merge(&MessageStats::new(3));
    }

    #[test]
    fn jittered_flood_still_reaches_everyone() {
        let g = path_graph(6);
        for seed in 0..8 {
            let mut net = Network::new(&g, relay()).with_jitter(4, seed);
            let report = net.run_phase(0, 400).unwrap();
            // Same transmissions, just spread over more rounds.
            assert_eq!(report.messages, 6, "seed {seed}");
            assert!(net.nodes().iter().all(|n| n.forwarded), "seed {seed}");
            assert!(report.rounds >= 6, "jitter cannot be faster than sync");
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let g = path_graph(6);
        let run = |seed| {
            let mut net = Network::new(&g, relay()).with_jitter(3, seed);
            let r = net.run_phase(0, 400).unwrap();
            let (nodes, _stats) = net.into_parts();
            (
                r.rounds,
                nodes.into_iter().map(|n| n.received).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_delay_rejected() {
        let g = path_graph(2);
        let _ = Network::new(&g, relay()).with_jitter(0, 1);
    }

    #[test]
    fn empty_network() {
        let g = Graph::new(vec![]);
        let mut net = Network::new(&g, relay());
        let report = net.run_phase(0, 10).unwrap();
        assert_eq!(report.messages, 0);
        assert_eq!(net.stats().total_sent(), 0);
        assert_eq!(net.stats().avg_sent(), 0.0);
    }

    // ----- fault injection ---------------------------------------------

    #[test]
    fn zero_fault_plan_is_bit_identical() {
        let g = path_graph(8);
        let plain = {
            let mut net = Network::new(&g, relay());
            let report = net.run_phase(0, 100).unwrap();
            let (nodes, stats) = net.into_parts();
            (
                report,
                nodes.into_iter().map(|n| n.received).collect::<Vec<_>>(),
                stats,
            )
        };
        let faulted = {
            let mut net = Network::new(&g, relay()).with_faults(FaultPlan::none());
            let report = net.run_phase(0, 100).unwrap();
            let fr = net.fault_report();
            assert_eq!(
                (fr.dropped, fr.duplicated, fr.retransmissions, fr.gave_up),
                (0, 0, 0, 0)
            );
            assert!(fr.crashed.is_empty());
            let (nodes, stats) = net.into_parts();
            (
                report,
                nodes.into_iter().map(|n| n.received).collect::<Vec<_>>(),
                stats,
            )
        };
        assert_eq!(plain, faulted);
    }

    #[test]
    fn total_loss_silences_the_network() {
        let g = path_graph(3);
        let mut net = Network::new(&g, relay()).with_faults(FaultPlan::new(7).with_loss(1.0));
        let report = net.run_phase(0, 100).unwrap();
        assert_eq!(report.messages, 1, "only node 0's initial broadcast");
        assert!(net.nodes()[1].received.is_empty());
        assert!(net.nodes()[2].received.is_empty());
        assert_eq!(net.fault_report().dropped, 1, "one neighbor, one drop");
    }

    #[test]
    fn partial_loss_is_seeded_and_deterministic() {
        let g = path_graph(12);
        let run = |seed| {
            let mut net =
                Network::new(&g, relay()).with_faults(FaultPlan::new(seed).with_loss(0.4));
            net.run_phase(0, 200).unwrap();
            let (nodes, stats) = net.into_parts();
            (
                nodes.into_iter().map(|n| n.received).collect::<Vec<_>>(),
                stats,
            )
        };
        assert_eq!(run(3), run(3), "same seed, same casualties");
        assert_ne!(run(3), run(4), "different seed, different casualties");
    }

    #[test]
    fn crash_silences_node() {
        let g = path_graph(5);
        let mut net = Network::new(&g, relay()).with_faults(FaultPlan::new(1).with_crash(2, 0));
        net.run_phase(0, 100).unwrap();
        assert!(net.nodes()[1].forwarded, "upstream of the crash still runs");
        assert!(!net.nodes()[3].forwarded, "crash cuts the relay chain");
        assert!(!net.nodes()[4].forwarded);
        assert_eq!(net.fault_report().crashed, vec![2]);
    }

    #[test]
    fn partition_blocks_delivery() {
        let g = path_graph(2);
        let mut net =
            Network::new(&g, relay()).with_faults(FaultPlan::new(1).with_partition(0..1000, [0]));
        net.run_phase(0, 100).unwrap();
        assert!(net.nodes()[1].received.is_empty());
        assert_eq!(net.fault_report().dropped, 1);
    }

    #[test]
    fn duplication_double_delivers_without_reliability() {
        let g = path_graph(2);
        let mut net =
            Network::new(&g, relay()).with_faults(FaultPlan::new(9).with_duplication(1.0));
        net.run_phase(0, 100).unwrap();
        // Node 1 hears node 0's ping twice (but forwards only once, by
        // the protocol's own guard); node 0 hears the response twice.
        assert_eq!(net.nodes()[1].received.len(), 2);
        assert_eq!(net.nodes()[0].received.len(), 2);
        assert_eq!(net.fault_report().duplicated, 2);
    }

    /// Answers every reception while its per-phase budget lasts, logging
    /// each `(round, from, message)` it handles.
    #[derive(Debug, Default)]
    struct Chatter {
        log: Vec<(usize, usize, Msg)>,
        budget: u32,
    }

    impl Protocol for Chatter {
        type Message = Msg;
        fn on_phase(&mut self, ctx: &mut Context<'_, Msg>, _phase: usize) {
            self.budget = 3;
            if ctx.node().is_multiple_of(4) {
                ctx.broadcast(Msg::Ping(ctx.node() as u32));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: usize, msg: &Msg) {
            self.log.push((ctx.round(), from, msg.clone()));
            if self.budget > 0 {
                self.budget -= 1;
                let reply = match *msg {
                    Msg::Ping(h) => Msg::Pong(h.wrapping_mul(31) + from as u32),
                    Msg::Pong(h) => Msg::Ping(h.wrapping_mul(17) + ctx.node() as u32),
                };
                ctx.broadcast(reply);
            }
        }
    }

    /// Injected duplicates without the ack layer run the handler twice,
    /// so both copies' replies enter the queue: the order they enter it
    /// in, under synchronous and jittered delivery, is pinned by a
    /// digest of every node's log and the statistics.
    #[test]
    fn duplicated_deliveries_keep_their_order_without_reliability() {
        let n = 16;
        let pts = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
        let band = (0..n).flat_map(|i| (i + 1..n.min(i + 4)).map(move |j| (i, j)));
        let g = Graph::with_edges(pts, band);
        let mut digests = Vec::new();
        for jitter in [1, 3] {
            let mut net = Network::new(&g, |_| Chatter::default())
                .with_faults(FaultPlan::new(6).with_duplication(0.4))
                .with_jitter(jitter, 5);
            net.run_phases(2, 400).unwrap();
            let report = net.fault_report();
            assert!(report.duplicated > 0);
            let (nodes, stats) = net.into_parts();
            let mut h = 0xcbf2_9ce4_8422_2325_u64;
            let words = nodes
                .iter()
                .flat_map(|v| &v.log)
                .flat_map(|(round, from, msg)| {
                    let (tag, x) = match *msg {
                        Msg::Ping(x) => (0, x),
                        Msg::Pong(x) => (1, x),
                    };
                    [*round as u64, *from as u64, tag, u64::from(x)]
                })
                .chain(stats.sent_per_node().iter().map(|&c| c as u64))
                .chain([report.duplicated as u64]);
            for w in words {
                for b in w.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            digests.push(h);
        }
        assert_eq!(digests, [14231744995511587925, 14051423118561567384]);
    }

    #[test]
    fn reliability_dedups_duplicates() {
        let g = path_graph(2);
        let mut net = Network::new(&g, relay())
            .with_faults(FaultPlan::new(9).with_duplication(1.0))
            .with_reliability(ReliabilityConfig::default());
        net.run_phase(0, 100).unwrap();
        assert_eq!(
            net.nodes()[1].received.len(),
            1,
            "duplicates are acked but handled once"
        );
        assert!(net.stats().per_kind()["ack"] >= 2);
    }

    #[test]
    fn reliability_retransmits_through_a_transient_partition() {
        let g = path_graph(2);
        let mut net = Network::new(&g, relay())
            .with_faults(FaultPlan::new(5).with_partition(0..4, [0]))
            .with_reliability(ReliabilityConfig {
                max_retries: 5,
                ack_timeout: 2,
            });
        net.run_phase(0, 100).unwrap();
        assert_eq!(net.nodes()[1].received, vec![(0, Msg::Ping(0))]);
        let report = net.fault_report();
        assert!(report.retransmissions > 0, "heal required a retransmit");
        assert_eq!(report.gave_up, 0);
        assert!(net.stats().per_kind()["Ping-retx"] > 0);
        assert_eq!(net.stats().total_retx(), report.retransmissions);
    }

    #[test]
    fn reliability_gives_up_on_a_crashed_neighbor() {
        let g = path_graph(2);
        let mut net = Network::new(&g, relay())
            .with_faults(FaultPlan::new(2).with_crash(1, 0))
            .with_reliability(ReliabilityConfig {
                max_retries: 2,
                ack_timeout: 2,
            });
        net.run_phase(0, 100).unwrap();
        let report = net.fault_report();
        assert_eq!(report.retransmissions, 2, "bounded retries");
        assert_eq!(report.gave_up, 1);
        assert_eq!(net.stats().per_kind()["Ping-retx"], 2);
    }

    #[test]
    fn reliability_is_quiet_overhead_on_a_clean_network() {
        let g = path_graph(5);
        let mut net = Network::new(&g, relay()).with_reliability(ReliabilityConfig::default());
        net.run_phase(0, 100).unwrap();
        // Same protocol outcome as the unfaulted run...
        assert_eq!(net.nodes()[4].received, vec![(3, Msg::Ping(3))]);
        assert_eq!(net.stats().per_kind()["Ping"], 5);
        // ...plus acks, but no retransmissions and nothing abandoned.
        assert!(net.stats().per_kind()["ack"] > 0);
        assert_eq!(net.stats().total_retx(), 0);
        assert_eq!(net.fault_report().gave_up, 0);
    }

    #[test]
    fn zero_fault_radio_attaches_nothing() {
        let g = path_graph(5);
        let radio = Radio {
            reliability: ReliabilityConfig {
                max_retries: 9,
                ack_timeout: 9,
            },
            ..Radio::default()
        };
        let mut net = Network::new(&g, relay()).with_radio(&radio);
        assert!(net.faults.is_none());
        assert_eq!(net.round_budget(), 5 + 16, "no reliability attached");
        net.run_phase(0, 100).unwrap();
        let mut plain = Network::new(&g, relay());
        plain.run_phase(0, 100).unwrap();
        let (nodes, stats, report) = net.into_outcome();
        assert_eq!(nodes[4].received, plain.nodes()[4].received);
        assert_eq!(&stats, plain.stats());
        assert_eq!(report, FaultReport::default());
    }

    #[test]
    fn faulty_radio_attaches_plan_reliability_and_jitter() {
        let g = path_graph(5);
        let radio = Radio {
            faults: FaultPlan::new(4).with_crash(4, 0),
            reliability: ReliabilityConfig {
                max_retries: 2,
                ack_timeout: 3,
            },
            jitter: Some((3, 7)),
        };
        let mut net = Network::new(&g, relay()).with_radio(&radio);
        assert_eq!(net.faults.as_ref(), Some(&radio.faults));
        // (n + 16) rounds × max delay × (retries + 2)(ack timeout + 1).
        assert_eq!(net.round_budget(), 21 * 3 * 16);
        net.run_phase(0, net.round_budget()).unwrap();
        let (_nodes, stats, report) = net.into_outcome();
        assert_eq!(report.crashed, vec![4]);
        assert!(stats.per_kind()["ack"] > 0);
    }
}
