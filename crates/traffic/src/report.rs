//! Structured results of a traffic run.

use serde::Serialize;

/// Why a packet never reached its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DropCause {
    /// The forwarding rule had no next hop (greedy local minimum, or an
    /// exhausted perimeter walk: destination unreachable).
    Stuck,
    /// The next hop's transmit queue was full when the packet arrived.
    QueueFull,
    /// The delivery was lost to radio noise or an active partition.
    LinkLoss,
    /// The node holding (or receiving) the packet had crashed.
    NodeCrash,
    /// The per-packet hop budget ran out.
    HopLimit,
    /// A retry was shed by an overloaded sender: the transmission was
    /// lost and the sender's queue occupancy sat at or above its
    /// [`OverloadConfig::high_watermark`](geospan_sim::OverloadConfig),
    /// so instead of scheduling a retransmission the packet was dropped
    /// to protect the queue.
    RetryShed,
    /// The node holding (or receiving) the packet — or the packet's
    /// destination — had departed the network (churn), taking queued
    /// and in-flight packets with it.
    NodeDeparted,
}

impl DropCause {
    /// Every cause, in declaration order. The ledger tests loop over
    /// this list, and a unit test fails while some `DropCounts` field
    /// belongs to no cause listed here.
    pub const ALL: [DropCause; 7] = [
        DropCause::Stuck,
        DropCause::QueueFull,
        DropCause::LinkLoss,
        DropCause::NodeCrash,
        DropCause::HopLimit,
        DropCause::RetryShed,
        DropCause::NodeDeparted,
    ];
}

/// Packet drops bucketed by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DropCounts {
    /// Dropped at a forwarding dead end.
    pub stuck: usize,
    /// Dropped at a full transmit queue.
    pub queue_full: usize,
    /// Lost on the air (noise or partition).
    pub link_loss: usize,
    /// Lost to a crashed node.
    pub node_crash: usize,
    /// Exceeded the hop budget.
    pub hop_limit: usize,
    /// Retry shed by an overloaded sender (watermark overload control).
    pub retry_shed: usize,
    /// Lost to a departed node (churn).
    pub node_departed: usize,
}

// `total` and `add_assign` destructure the struct and `slot` matches
// every cause, so a new field or cause does not compile until it is
// counted; the unit tests check that every field has a cause.
impl DropCounts {
    /// Total packets dropped.
    pub fn total(&self) -> usize {
        let DropCounts {
            stuck,
            queue_full,
            link_loss,
            node_crash,
            hop_limit,
            retry_shed,
            node_departed,
        } = *self;
        stuck + queue_full + link_loss + node_crash + hop_limit + retry_shed + node_departed
    }

    /// Packets dropped for `cause`.
    pub fn get(&self, cause: DropCause) -> usize {
        let mut counts = *self;
        *counts.slot(cause)
    }

    pub(crate) fn record(&mut self, cause: DropCause) {
        *self.slot(cause) += 1;
    }

    fn slot(&mut self, cause: DropCause) -> &mut usize {
        match cause {
            DropCause::Stuck => &mut self.stuck,
            DropCause::QueueFull => &mut self.queue_full,
            DropCause::LinkLoss => &mut self.link_loss,
            DropCause::NodeCrash => &mut self.node_crash,
            DropCause::HopLimit => &mut self.hop_limit,
            DropCause::RetryShed => &mut self.retry_shed,
            DropCause::NodeDeparted => &mut self.node_departed,
        }
    }
}

/// Field-wise sum: folds per-run drop counts into a sweep total.
impl std::ops::AddAssign for DropCounts {
    fn add_assign(&mut self, rhs: Self) {
        let DropCounts {
            stuck,
            queue_full,
            link_loss,
            node_crash,
            hop_limit,
            retry_shed,
            node_departed,
        } = rhs;
        self.stuck += stuck;
        self.queue_full += queue_full;
        self.link_loss += link_loss;
        self.node_crash += node_crash;
        self.hop_limit += hop_limit;
        self.retry_shed += retry_shed;
        self.node_departed += node_departed;
    }
}

/// How one packet's lifecycle ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PacketOutcome {
    /// Reached its destination.
    Delivered,
    /// Dropped for the given cause.
    Dropped(DropCause),
    /// Refused admission at the source by an
    /// [`AdmissionPolicy`](crate::AdmissionPolicy) — the packet never
    /// entered the network, so it is counted separately from drops.
    Refused,
}

/// One packet's measured lifecycle.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PacketRecord {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Tick the packet entered the network.
    pub spawn: u64,
    /// Tick the lifecycle ended (delivery or drop).
    pub finish: u64,
    /// Successful radio transmissions the packet consumed (its hop
    /// count; retransmissions are counted separately in `retries`).
    pub hops: u32,
    /// Link-layer retransmissions spent on this packet across all hops
    /// (0 unless [`TrafficConfig::reliability`](crate::TrafficConfig)
    /// is set).
    pub retries: u32,
    /// Euclidean length of the traversed path.
    pub length: f64,
    /// How the lifecycle ended.
    pub outcome: PacketOutcome,
    /// Nodes visited, starting at the source (recorded only when
    /// [`TrafficConfig::record_paths`](crate::TrafficConfig) is set).
    pub path: Vec<usize>,
}

impl PacketRecord {
    /// True when the packet reached its destination.
    pub fn delivered(&self) -> bool {
        self.outcome == PacketOutcome::Delivered
    }

    /// End-to-end latency in ticks.
    pub fn latency(&self) -> u64 {
        self.finish - self.spawn
    }
}

/// Aggregate measurements of one traffic run.
///
/// Byte-for-byte reproducible: identical for the same topology,
/// workload schedule, fault plan, and configuration, independent of
/// thread counts or repetition (the engine is single-threaded and all
/// aggregation is in deterministic order).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrafficReport {
    /// Packets offered by the workload.
    pub offered: usize,
    /// Packets delivered to their destination.
    pub delivered: usize,
    /// Drops by cause
    /// (`offered == delivered + drops.total() + refused`).
    pub drops: DropCounts,
    /// Packets refused admission at the source by an
    /// [`AdmissionPolicy`](crate::AdmissionPolicy); they never entered
    /// the network and are not drops.
    pub refused: usize,
    /// Link-layer retransmissions performed across all packets (the
    /// `-retx` overhead of the reliability layer; 0 when retransmit is
    /// disabled).
    pub retransmissions: usize,
    /// Duplicate deliveries injected by the fault plan and suppressed by
    /// per-packet identity (each packet still resolves exactly once).
    pub duplicates_suppressed: usize,
    /// Median delivery latency in ticks (0 when nothing was delivered).
    pub latency_p50: u64,
    /// 99th-percentile delivery latency in ticks.
    pub latency_p99: u64,
    /// Worst delivery latency in ticks.
    pub latency_max: u64,
    /// Mean delivery latency in ticks.
    pub latency_mean: f64,
    /// Mean per-packet hop stretch versus the UDG shortest hop path.
    pub hop_stretch_avg: f64,
    /// Worst per-packet hop stretch.
    pub hop_stretch_max: f64,
    /// Mean per-packet Euclidean stretch versus the UDG shortest path.
    pub length_stretch_avg: f64,
    /// Worst per-packet Euclidean stretch.
    pub length_stretch_max: f64,
    /// Largest transmit-queue occupancy any node reached.
    pub queue_peak_max: usize,
    /// Mean (over nodes) of each node's peak queue occupancy.
    pub queue_peak_mean: f64,
    /// Tick of the last event processed.
    pub duration: u64,
}

impl TrafficReport {
    /// Delivered fraction of offered packets (1.0 for an empty run).
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.delivered as f64 / self.offered as f64
        }
    }

    /// Packets that actually entered the network: offered minus those
    /// refused admission at the source.
    pub fn admitted(&self) -> usize {
        self.offered - self.refused
    }

    /// Delivered fraction of *admitted* packets (1.0 when nothing was
    /// admitted). This is the delivery metric overload control is
    /// judged on: an admission gate that refuses packets it could not
    /// have delivered raises this ratio without lying about drops.
    pub fn admitted_delivery_ratio(&self) -> f64 {
        if self.admitted() == 0 {
            1.0
        } else {
            self.delivered as f64 / self.admitted() as f64
        }
    }

    /// Renders the report as an aligned human-readable block.
    pub fn format(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "offered:          {}", self.offered);
        let _ = writeln!(
            out,
            "delivered:        {} ({:.2}%)",
            self.delivered,
            100.0 * self.delivery_ratio()
        );
        if self.refused > 0 {
            let _ = writeln!(out, "refused:          {} (admission gate)", self.refused);
        }
        let _ = writeln!(
            out,
            "drops:            stuck {}, queue {}, loss {}, crash {}, hop-limit {}, retry-shed {}, departed {}",
            self.drops.stuck,
            self.drops.queue_full,
            self.drops.link_loss,
            self.drops.node_crash,
            self.drops.hop_limit,
            self.drops.retry_shed,
            self.drops.node_departed
        );
        let _ = writeln!(
            out,
            "reliability:      {} retransmissions, {} duplicates suppressed",
            self.retransmissions, self.duplicates_suppressed
        );
        let _ = writeln!(
            out,
            "latency (ticks):  p50 {}, p99 {}, max {}, mean {:.2}",
            self.latency_p50, self.latency_p99, self.latency_max, self.latency_mean
        );
        let _ = writeln!(
            out,
            "stretch:          hops avg {:.3} max {:.3}, length avg {:.3} max {:.3}",
            self.hop_stretch_avg,
            self.hop_stretch_max,
            self.length_stretch_avg,
            self.length_stretch_max
        );
        let _ = writeln!(
            out,
            "queue peaks:      max {}, mean {:.2}",
            self.queue_peak_max, self.queue_peak_mean
        );
        let _ = writeln!(out, "duration (ticks): {}", self.duration);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_counts_bucket_and_total() {
        // Cause `i` of `ALL` is recorded `i + 1` times, so each field's
        // count names the one cause that fills it.
        let mut d = DropCounts::default();
        for (i, &cause) in DropCause::ALL.iter().enumerate() {
            for _ in 0..=i {
                d.record(cause);
            }
            assert_eq!(d.get(cause), i + 1, "{cause:?}");
        }
        // A struct literal names every field, so each must be filled by
        // a listed cause: one missing from `ALL` leaves its field at 0.
        let expected = DropCounts {
            stuck: 1,
            queue_full: 2,
            link_loss: 3,
            node_crash: 4,
            hop_limit: 5,
            retry_shed: 6,
            node_departed: 7,
        };
        assert_eq!(d, expected);
        assert_eq!(d.total(), 28);
    }

    #[test]
    fn empty_run_has_unit_delivery_ratio() {
        let r = TrafficReport {
            offered: 0,
            delivered: 0,
            drops: DropCounts::default(),
            refused: 0,
            retransmissions: 0,
            duplicates_suppressed: 0,
            latency_p50: 0,
            latency_p99: 0,
            latency_max: 0,
            latency_mean: 0.0,
            hop_stretch_avg: 0.0,
            hop_stretch_max: 0.0,
            length_stretch_avg: 0.0,
            length_stretch_max: 0.0,
            queue_peak_max: 0,
            queue_peak_mean: 0.0,
            duration: 0,
        };
        assert_eq!(r.delivery_ratio(), 1.0);
        assert_eq!(r.admitted_delivery_ratio(), 1.0);
        assert!(r.format().contains("offered:          0"));
        assert!(
            !r.format().contains("refused:"),
            "refused line is omitted when the admission gate never fired"
        );
    }

    #[test]
    fn admitted_ratio_excludes_refusals() {
        let r = TrafficReport {
            offered: 10,
            delivered: 6,
            drops: DropCounts {
                link_loss: 2,
                ..DropCounts::default()
            },
            refused: 2,
            retransmissions: 0,
            duplicates_suppressed: 0,
            latency_p50: 0,
            latency_p99: 0,
            latency_max: 0,
            latency_mean: 0.0,
            hop_stretch_avg: 0.0,
            hop_stretch_max: 0.0,
            length_stretch_avg: 0.0,
            length_stretch_max: 0.0,
            queue_peak_max: 0,
            queue_peak_mean: 0.0,
            duration: 0,
        };
        assert_eq!(r.admitted(), 8);
        assert_eq!(r.delivery_ratio(), 0.6);
        assert_eq!(r.admitted_delivery_ratio(), 0.75);
        assert!(r.format().contains("refused:          2"));
    }
}
