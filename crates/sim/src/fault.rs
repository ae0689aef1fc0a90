//! Deterministic fault injection for the radio simulator.
//!
//! A [`FaultPlan`] describes everything that can go wrong in a run —
//! lost broadcasts, duplicated deliveries, node crashes, temporary
//! partitions — as a pure function of a `u64` seed and the delivery
//! coordinates (sender, receiver, sequence number, attempt). Because the
//! decisions are *hash-based* rather than drawn from a mutable stream,
//! a given delivery fails or succeeds independently of unrelated events:
//! runs are bit-reproducible and failures stay bisectable when the
//! protocol around them changes.
//!
//! A plan with no faults configured ([`FaultPlan::none`], or any plan
//! where [`FaultPlan::is_zero`] holds) never consults the seed and the
//! simulator behaves exactly as the fault-free code path — zero-fault
//! runs are bit-identical to runs without a plan attached.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Where a delivery decision is being made; salts the per-event hash so
/// the loss roll of a data frame and of its ack are independent.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind {
    /// A protocol (data) broadcast reaching one neighbor.
    Data,
    /// A link-layer acknowledgement reaching the original sender.
    Ack,
    /// The duplication roll for a data delivery.
    Duplicate,
}

impl EventKind {
    fn salt(self) -> u64 {
        match self {
            EventKind::Data => 0x9066_9b3f_0aa7_d18d,
            EventKind::Ack => 0x40ca_0c52_ae99_d382,
            EventKind::Duplicate => 0xd05f_61dc_f4c9_7c2c,
        }
    }
}

/// A seeded, reproducible description of radio-level faults.
///
/// Built with the `with_*` methods; reaches a network through a
/// [`Radio`](crate::Radio) and
/// [`Network::with_radio`](crate::Network::with_radio). The default is
/// [`FaultPlan::none`].
///
/// # Example
/// ```
/// use geospan_sim::FaultPlan;
///
/// let plan = FaultPlan::new(42)
///     .with_loss(0.1)
///     .with_crash(3, 5)          // node 3 dies at round 5
///     .with_partition(2..6, [0, 1, 2]); // rounds 2..6: {0,1,2} vs rest
/// assert!(!plan.is_zero());
/// assert!(!plan.crashed(3, 4) && plan.crashed(3, 5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    loss: f64,
    duplicate: f64,
    crashes: BTreeMap<usize, usize>,
    partitions: Vec<Partition>,
}

/// A temporary split of the radio graph: while `rounds` is active, no
/// message crosses between `side` and its complement.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// Rounds (half-open) during which the partition is in force.
    pub rounds: Range<usize>,
    /// One side of the cut; everything else is the other side.
    pub side: BTreeSet<usize>,
}

impl Partition {
    /// True when this partition severs `(a, b)` at `round`.
    pub fn severs(&self, a: usize, b: usize, round: usize) -> bool {
        self.rounds.contains(&round) && (self.side.contains(&a) != self.side.contains(&b))
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// An empty plan over the given seed; add faults with the `with_*`
    /// builders.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            loss: 0.0,
            duplicate: 0.0,
            crashes: BTreeMap::new(),
            partitions: Vec::new(),
        }
    }

    /// The zero-fault plan (attached or not, behavior is identical).
    pub fn none() -> Self {
        FaultPlan::new(0)
    }

    /// Sets the per-link delivery loss probability.
    ///
    /// Each (sender → neighbor) delivery of each transmission attempt is
    /// dropped independently with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 <= p <= 1`.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0, 1]"
        );
        self.loss = p;
        self
    }

    /// Sets the per-link duplication probability: a delivery arrives
    /// twice with probability `p` (stale MAC retransmissions).
    ///
    /// # Panics
    /// Panics unless `0 <= p <= 1`.
    pub fn with_duplication(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplication probability must be in [0, 1]"
        );
        self.duplicate = p;
        self
    }

    /// Crashes `node` at `round`: from that round on it neither sends
    /// nor receives. Messages already in the air still arrive elsewhere.
    pub fn with_crash(mut self, node: usize, round: usize) -> Self {
        self.crashes.insert(node, round);
        self
    }

    /// Partitions the radio graph between `side` and its complement for
    /// the given round range.
    pub fn with_partition(
        mut self,
        rounds: Range<usize>,
        side: impl IntoIterator<Item = usize>,
    ) -> Self {
        self.partitions.push(Partition {
            rounds,
            side: side.into_iter().collect(),
        });
        self
    }

    /// True when the plan injects nothing; the simulator then skips the
    /// fault paths entirely, keeping runs bit-identical to no plan.
    pub fn is_zero(&self) -> bool {
        self.loss == 0.0
            && self.duplicate == 0.0
            && self.crashes.is_empty()
            && self.partitions.is_empty()
    }

    /// The seed the per-event decisions are derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-link loss probability.
    pub fn loss(&self) -> f64 {
        self.loss
    }

    /// The per-link duplication probability.
    pub fn duplication(&self) -> f64 {
        self.duplicate
    }

    /// The configured crashes as `(node, round)` pairs, ascending.
    pub fn crashes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.crashes.iter().map(|(&n, &r)| (n, r))
    }

    /// The configured partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// The round `node` crashes at, if any.
    fn crash_round(&self, node: usize) -> Option<usize> {
        self.crashes.get(&node).copied()
    }

    /// True when `node` is dead at `round`.
    pub fn crashed(&self, node: usize, round: usize) -> bool {
        self.crash_round(node).is_some_and(|r| round >= r)
    }

    /// True when some active partition severs `(a, b)` at `round`.
    pub fn severed(&self, a: usize, b: usize, round: usize) -> bool {
        self.partitions.iter().any(|p| p.severs(a, b, round))
    }

    /// Derives the plan for a protocol stage that starts at round zero
    /// after this plan already governed `elapsed_rounds` rounds: nodes
    /// that have already crashed stay dead from the start, nodes whose
    /// crash round lies ahead keep the remainder, and round-scoped
    /// partitions are shifted the same way. The seed is re-derived so
    /// the new stage sees fresh (but still reproducible) loss rolls.
    pub fn for_next_stage(&self, elapsed_rounds: usize) -> FaultPlan {
        let crashes = self
            .crashes
            .iter()
            .map(|(&n, &r)| (n, r.saturating_sub(elapsed_rounds)))
            .collect();
        let partitions = self
            .partitions
            .iter()
            .filter(|p| p.rounds.end > elapsed_rounds)
            .map(|p| Partition {
                rounds: p.rounds.start.saturating_sub(elapsed_rounds)
                    ..p.rounds.end.saturating_sub(elapsed_rounds),
                side: p.side.clone(),
            })
            .collect();
        FaultPlan {
            seed: splitmix(self.seed ^ 0x517c_c1b7_2722_0a95),
            loss: self.loss,
            duplicate: self.duplicate,
            crashes,
            partitions,
        }
    }

    /// True when transmission `attempt` of packet `packet` is lost to
    /// radio noise — the loss roll of the discrete-event traffic engine.
    ///
    /// Unlike the round simulator's per-delivery rolls, which are keyed
    /// on `(sender, receiver, seq, attempt)`, this roll is keyed on the
    /// packet identity and its transmission count alone — never on the
    /// link endpoints. `(packet, attempt)` is a pure function of the
    /// arrival schedule and the retry budget: it does not depend on
    /// where the packet happens to be, which queue served it first, or
    /// what order concurrent events were processed in. That makes the
    /// loss decision invariant under *any* reordering of the engine
    /// around it — sharded execution, phase restructuring, future
    /// optimistic schedulers — while keeping per-packet failures
    /// independent and bisectable. Crash and partition checks compose
    /// via [`FaultPlan::crashed`] and [`FaultPlan::severed`].
    pub fn drops_packet(&self, packet: u64, attempt: u32) -> bool {
        self.loss > 0.0 && self.packet_roll(EventKind::Data, packet, attempt) < self.loss
    }

    /// True when transmission `attempt` of packet `packet` arrives twice
    /// (a stale MAC retransmission), keyed on `(packet, attempt)` only —
    /// see [`FaultPlan::drops_packet`] for why the link endpoints are
    /// deliberately absent.
    pub fn duplicates_packet(&self, packet: u64, attempt: u32) -> bool {
        self.duplicate > 0.0
            && self.packet_roll(EventKind::Duplicate, packet, attempt) < self.duplicate
    }

    /// Stateless per-(packet, attempt) roll in `[0, 1)`: the
    /// link-endpoint-free counterpart of [`FaultPlan::roll`]. A distinct
    /// salt decorrelates it from the endpoint-keyed rolls so a plan
    /// driving both engines never reuses a decision.
    fn packet_roll(&self, kind: EventKind, packet: u64, attempt: u32) -> f64 {
        let mut h = self.seed ^ kind.salt() ^ 0x7c9a_51b0_ee26_3d14;
        h = splitmix(h ^ packet.wrapping_mul(0x1656_67b1_9e37_79f9));
        h = splitmix(h ^ u64::from(attempt));
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Stateless per-event roll in `[0, 1)`.
    pub(crate) fn roll(
        &self,
        kind: EventKind,
        sender: usize,
        receiver: usize,
        seq: u64,
        attempt: u32,
    ) -> f64 {
        let mut h = self.seed ^ kind.salt();
        h = splitmix(h ^ (sender as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        h = splitmix(h ^ (receiver as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
        h = splitmix(h ^ seq.wrapping_mul(0x1656_67b1_9e37_79f9));
        h = splitmix(h ^ u64::from(attempt));
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True when the data delivery `(sender → receiver, seq, attempt)`
    /// is lost to radio noise.
    pub(crate) fn loses(
        &self,
        kind: EventKind,
        sender: usize,
        receiver: usize,
        seq: u64,
        attempt: u32,
    ) -> bool {
        self.loss > 0.0 && self.roll(kind, sender, receiver, seq, attempt) < self.loss
    }

    /// True when the delivery arrives twice.
    pub(crate) fn duplicates(
        &self,
        sender: usize,
        receiver: usize,
        seq: u64,
        attempt: u32,
    ) -> bool {
        self.duplicate > 0.0
            && self.roll(EventKind::Duplicate, sender, receiver, seq, attempt) < self.duplicate
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Link-layer acknowledgement / retransmission configuration.
///
/// When attached via [`Network::with_radio`](crate::Network::with_radio)
/// together with a non-zero fault plan, every data broadcast is acknowledged by each receiving neighbor; the
/// sender retransmits (same sequence number, so receivers deduplicate)
/// until every neighbor acked or the retry budget is exhausted. This
/// trades extra messages — counted under `"ack"` and `"<kind>-retx"` —
/// for delivery under loss, and it *bounds* the overhead: the
/// constant-messages-per-node claim degrades by at most a factor of
/// `1 + max_retries` plus the ack traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliabilityConfig {
    /// Maximum retransmissions per data broadcast.
    pub max_retries: u32,
    /// Rounds to wait for acks before retransmitting. Must cover a
    /// round trip (2 under synchronous delivery, `2 * max_delay` under
    /// jitter).
    pub ack_timeout: usize,
}

impl ReliabilityConfig {
    /// Ticks a traffic-engine sender waits before retransmission
    /// `attempt` (1-based): one ack timeout's worth of service slots,
    /// doubling per attempt — binary exponential backoff, with the
    /// exponent capped at 6 so delays stay bounded.
    ///
    /// The round simulator keys its own retransmit clock off
    /// [`ReliabilityConfig::ack_timeout`] directly; this helper maps the
    /// same budget onto the discrete-event engine's tick clock so both
    /// layers share one configuration.
    pub fn retry_delay(&self, attempt: u32, service_time: u64) -> u64 {
        let base = (self.ack_timeout.max(1) as u64) * service_time.max(1);
        base << attempt.saturating_sub(1).min(6)
    }

    /// [`retry_delay`](Self::retry_delay) inflated multiplicatively by
    /// an [`OverloadConfig::backoff_factor`] — the backoff a *congested*
    /// sender uses so its retries spread away from a draining queue.
    /// A factor below 1 behaves as 1 (no inflation).
    pub fn congested_retry_delay(&self, attempt: u32, service_time: u64, factor: u32) -> u64 {
        self.retry_delay(attempt, service_time)
            .saturating_mul(u64::from(factor.max(1)))
    }
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            max_retries: 3,
            ack_timeout: 3,
        }
    }
}

/// Node-local overload control for the retransmit layer: sender-queue
/// watermarks with hysteresis.
///
/// Reacting only to the sender's *own* transmit-queue occupancy keeps
/// the rule strictly localized — the same design discipline as the
/// paper's topology-control protocols, where every decision reads only
/// 1- or 2-hop state. The state machine:
///
/// * occupancy ≥ `high_watermark` — **overloaded**: retries are shed
///   outright (the packet drops as `RetryShed`) instead of competing
///   with fresh traffic for the saturated queue;
/// * occupancy back under the high watermark but not yet drained to
///   `low_watermark` — **congested**: retries are still scheduled, but
///   their backoff is multiplied by `backoff_factor`, spreading retry
///   pressure away from the draining queue;
/// * occupancy ≤ `low_watermark` — **normal**: the fixed-budget
///   exponential-backoff behavior resumes unchanged.
///
/// With no overload config attached the retransmit layer is bit-identical
/// to the fixed-budget scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Occupancy at which a sender sheds retries (and enters the
    /// congested state).
    pub high_watermark: usize,
    /// Occupancy at which a congested sender returns to normal
    /// behavior (hysteresis: must drain below this, not merely below
    /// the high watermark).
    pub low_watermark: usize,
    /// Multiplicative backoff inflation applied while congested
    /// (values < 1 behave as 1).
    pub backoff_factor: u32,
}

impl OverloadConfig {
    /// Watermarks scaled to a queue capacity: shed at 3/4 full, recover
    /// at 1/4 full, quadruple backoff in between.
    pub fn for_capacity(capacity: usize) -> Self {
        OverloadConfig {
            high_watermark: (capacity * 3 / 4).max(1),
            low_watermark: capacity / 4,
            backoff_factor: 4,
        }
    }
}

impl Default for OverloadConfig {
    fn default() -> Self {
        // Matched to the traffic engine's default queue capacity of 64.
        OverloadConfig::for_capacity(64)
    }
}

/// What the faults (and the recovery machinery) did during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Deliveries suppressed by loss or partitions.
    pub dropped: usize,
    /// Extra deliveries injected by duplication.
    pub duplicated: usize,
    /// Data retransmissions performed by the reliability layer.
    pub retransmissions: usize,
    /// Broadcasts that exhausted their retries with unacked neighbors.
    pub gave_up: usize,
    /// Nodes dead by the end of the run, ascending.
    pub crashed: Vec<usize>,
    /// Total rounds executed.
    pub rounds: usize,
}

impl FaultReport {
    /// Folds another stage's report into this one (crash sets union,
    /// counters add, rounds accumulate).
    pub fn absorb(&mut self, other: &FaultReport) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.retransmissions += other.retransmissions;
        self.gave_up += other.gave_up;
        self.rounds += other.rounds;
        for &c in &other.crashed {
            if !self.crashed.contains(&c) {
                self.crashed.push(c);
            }
        }
        self.crashed.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_is_zero() {
        assert!(FaultPlan::none().is_zero());
        assert!(FaultPlan::new(123).is_zero());
        assert!(!FaultPlan::new(0).with_loss(0.01).is_zero());
        assert!(!FaultPlan::new(0).with_crash(1, 0).is_zero());
        assert!(!FaultPlan::new(0).with_duplication(0.5).is_zero());
        assert!(!FaultPlan::new(0).with_partition(0..1, [0]).is_zero());
    }

    #[test]
    fn rolls_are_deterministic_and_independent() {
        let plan = FaultPlan::new(7).with_loss(0.5);
        let a = plan.roll(EventKind::Data, 1, 2, 3, 0);
        assert_eq!(a, plan.roll(EventKind::Data, 1, 2, 3, 0));
        // Different coordinates give different rolls.
        assert_ne!(a, plan.roll(EventKind::Data, 2, 1, 3, 0));
        assert_ne!(a, plan.roll(EventKind::Data, 1, 2, 4, 0));
        assert_ne!(a, plan.roll(EventKind::Data, 1, 2, 3, 1));
        assert_ne!(a, plan.roll(EventKind::Ack, 1, 2, 3, 0));
    }

    #[test]
    fn loss_rate_roughly_respected() {
        let plan = FaultPlan::new(99).with_loss(0.2);
        let lost = (0..10_000)
            .filter(|&i| plan.loses(EventKind::Data, 0, 1, i, 0))
            .count();
        assert!((1_600..2_400).contains(&lost), "lost {lost} of 10000");
    }

    #[test]
    fn crash_and_partition_predicates() {
        let plan = FaultPlan::new(0)
            .with_crash(4, 10)
            .with_partition(5..8, [0, 1]);
        assert!(!plan.crashed(4, 9));
        assert!(plan.crashed(4, 10));
        assert!(plan.crashed(4, 11));
        assert!(!plan.crashed(3, 100));
        assert!(plan.severed(0, 2, 5));
        assert!(plan.severed(2, 1, 7));
        assert!(!plan.severed(0, 1, 6), "same side never severed");
        assert!(!plan.severed(0, 2, 8), "partition healed");
    }

    #[test]
    fn next_stage_carries_crashes_and_shifts_partitions() {
        let plan = FaultPlan::new(5)
            .with_loss(0.1)
            .with_crash(2, 3)
            .with_crash(7, 40)
            .with_partition(0..10, [1])
            .with_partition(30..50, [2]);
        let next = plan.for_next_stage(20);
        assert_eq!(next.crash_round(2), Some(0), "already dead stays dead");
        assert_eq!(next.crash_round(7), Some(20), "future crash shifted");
        assert_eq!(next.partitions().len(), 1, "elapsed partition dropped");
        assert_eq!(next.partitions()[0].rounds, 10..30);
        assert_eq!(next.loss(), 0.1);
        assert_ne!(next.seed(), plan.seed(), "stage seeds decorrelated");
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn loss_out_of_range_rejected() {
        let _ = FaultPlan::new(0).with_loss(1.5);
    }

    #[test]
    fn packet_rolls_are_deterministic_and_endpoint_free() {
        let plan = FaultPlan::new(7).with_loss(0.5).with_duplication(0.5);
        for packet in 0..50u64 {
            for attempt in 0..4u32 {
                assert_eq!(
                    plan.drops_packet(packet, attempt),
                    plan.drops_packet(packet, attempt),
                    "re-rolling the same coordinates must agree"
                );
                assert_eq!(
                    plan.duplicates_packet(packet, attempt),
                    plan.duplicates_packet(packet, attempt)
                );
            }
        }
        // Distinct packets / attempts decide independently (at 50% loss a
        // perfectly correlated pair would always match).
        let distinct = (0..200u64)
            .filter(|&p| plan.drops_packet(p, 0) != plan.drops_packet(p, 1))
            .count();
        assert!(distinct > 50, "attempts look correlated: {distinct}/200");
    }

    #[test]
    fn packet_rolls_decorrelated_from_delivery_rolls() {
        // Same numeric coordinates through the two keying schemes must not
        // reuse the same underlying roll: a plan driving both the
        // endpoint-keyed round simulator and the packet-keyed traffic
        // engine would otherwise couple their fault decisions.
        let plan = FaultPlan::new(42).with_loss(0.5);
        let agree = (0..400u64)
            .filter(|&p| plan.drops_packet(p, 0) == plan.loses(EventKind::Data, 0, 0, p, 0))
            .count();
        assert!(
            (120..280).contains(&agree),
            "schemes look coupled: agree on {agree}/400"
        );
    }

    #[test]
    fn packet_loss_rate_roughly_respected() {
        let plan = FaultPlan::new(99).with_loss(0.2);
        let lost = (0..10_000u64).filter(|&p| plan.drops_packet(p, 0)).count();
        assert!((1_600..2_400).contains(&lost), "lost {lost} of 10000");
        assert!(
            !FaultPlan::new(99).drops_packet(1, 0),
            "zero loss never drops"
        );
        assert!(!FaultPlan::new(99).duplicates_packet(1, 0));
    }

    #[test]
    fn retry_delay_backs_off_exponentially_and_caps() {
        let rel = ReliabilityConfig {
            max_retries: 10,
            ack_timeout: 3,
        };
        assert_eq!(rel.retry_delay(1, 1), 3);
        assert_eq!(rel.retry_delay(2, 1), 6);
        assert_eq!(rel.retry_delay(3, 1), 12);
        assert_eq!(rel.retry_delay(3, 2), 24, "scales with service time");
        assert_eq!(rel.retry_delay(7, 1), 3 << 6);
        assert_eq!(rel.retry_delay(40, 1), 3 << 6, "exponent capped");
        // Degenerate configs still wait at least one tick.
        let zero = ReliabilityConfig {
            max_retries: 1,
            ack_timeout: 0,
        };
        assert_eq!(zero.retry_delay(1, 0), 1);
    }

    #[test]
    fn congested_retry_delay_inflates_multiplicatively() {
        let rel = ReliabilityConfig {
            max_retries: 10,
            ack_timeout: 3,
        };
        assert_eq!(rel.congested_retry_delay(1, 1, 4), 12);
        assert_eq!(rel.congested_retry_delay(2, 1, 4), 24);
        assert_eq!(rel.congested_retry_delay(3, 2, 2), 48);
        assert_eq!(rel.congested_retry_delay(1, 1, 0), 3, "factor 0 acts as 1");
        assert_eq!(rel.congested_retry_delay(1, 1, 1), rel.retry_delay(1, 1));
    }

    #[test]
    fn overload_config_scales_watermarks_to_capacity() {
        let o = OverloadConfig::for_capacity(16);
        assert_eq!(o.high_watermark, 12);
        assert_eq!(o.low_watermark, 4);
        assert_eq!(o.backoff_factor, 4);
        assert!(o.low_watermark < o.high_watermark);
        // Tiny queues still get a sane (nonzero) high watermark.
        let tiny = OverloadConfig::for_capacity(1);
        assert_eq!(tiny.high_watermark, 1);
        assert_eq!(tiny.low_watermark, 0);
        assert_eq!(OverloadConfig::default(), OverloadConfig::for_capacity(64));
    }
}
