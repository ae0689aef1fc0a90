//! The message-passing protocols under faulty and asynchronous radios at
//! n = 2 000, Table I density (side 894.4, radius 60), seeds 1 and 7919.
//!
//! The golden digests in `crates/{cds,topology}/tests/properties.rs` pin
//! the faulty runs at n < 60, where a round carries a few dozen
//! deliveries; this pins them where a round carries tens of thousands,
//! under loss, duplication and a crash with the ack/retransmit layer,
//! and under jitter. Each digest covers the structure the protocol
//! assembled, its message counts and its fault report, for the CDS run
//! and for the LDel run on its `ICDS` (on the next stage's fault plan,
//! as `BackboneBuilder` chains them).
//!
//! `#[ignore]`d (a few seconds in release); the bench-smoke CI job runs
//! it with `cargo test --release -p geospan-core --test faulty_scale --
//! --ignored`.

use geospan_cds::protocol::run_cds_with;
use geospan_cds::{CdsGraphs, ClusterRank};
use geospan_graph::gen::connected_unit_disk;
use geospan_graph::Graph;
use geospan_sim::{FaultPlan, FaultReport, MessageStats, Radio};
use geospan_topology::distributed::run_ldel_with;
use geospan_topology::ldel::LocalDelaunay;

/// 64-bit FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    const NEW: Fnv = Fnv(0xcbf2_9ce4_8422_2325);

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A run of words, then its length.
    fn words(&mut self, ws: impl IntoIterator<Item = usize>) {
        let len = ws.into_iter().inspect(|&w| self.word(w as u64)).count();
        self.word(len as u64);
    }

    fn graph(&mut self, g: &Graph) {
        self.words(g.edges().flat_map(|(a, b)| [a, b]));
    }

    /// Per-node and per-kind message counts, then the fault report.
    fn outcome(&mut self, stats: &MessageStats, r: &FaultReport) {
        self.words(stats.sent_per_node().iter().copied());
        for (kind, &count) in stats.per_kind() {
            self.words(kind.bytes().map(usize::from).chain([count]));
        }
        self.words([
            r.dropped,
            r.duplicated,
            r.retransmissions,
            r.gave_up,
            r.rounds,
        ]);
        self.words(r.crashed.iter().copied());
    }

    fn cds(&mut self, c: &CdsGraphs) {
        self.words(c.roles.iter().map(|&role| role as usize));
        self.words(c.connectors.iter().copied());
        for ds in &c.dominators_of {
            self.words(ds.iter().copied());
        }
        for g in [&c.cds, &c.cds_prime, &c.icds, &c.icds_prime] {
            self.graph(g);
        }
    }

    fn ldel(&mut self, ld: &LocalDelaunay) {
        self.graph(&ld.graph);
        self.words(ld.triangles.iter().flatten().copied());
        self.words(ld.gabriel_edges.iter().flat_map(|&(a, b)| [a, b]));
    }
}

/// 10 % loss, 10 % duplication and a crash of node `n / 2` at round 3
/// under the default ack/retransmit layer; then delays in `1..=3`.
fn radios(n: usize, seed: u64) -> [Radio; 2] {
    let faults = FaultPlan::new(seed)
        .with_loss(0.1)
        .with_duplication(0.1)
        .with_crash(n / 2, 3);
    [
        Radio {
            faults,
            ..Radio::default()
        },
        Radio {
            jitter: Some((3, seed)),
            ..Radio::default()
        },
    ]
}

#[test]
#[ignore = "n = 2 000 under reliability; run with --release -- --ignored"]
fn faulty_protocols_at_two_thousand_nodes() {
    let (n, radius) = (2_000, 60.0);
    let side = 200.0 * (n as f64 / 100.0).sqrt();
    let mut got = Vec::new();
    for seed in [1u64, 7919] {
        let (_pts, udg, _s) = connected_unit_disk(n, side, radius, seed);
        for mut radio in radios(n, seed) {
            let mut h = Fnv::NEW;
            let (cds, stats, report) =
                run_cds_with(&udg, &ClusterRank::LowestId, &radio).expect("CDS converges");
            h.cds(&cds);
            h.outcome(&stats, &report);
            radio.faults = radio.faults.for_next_stage(report.rounds);
            let (out, report) = run_ldel_with(&cds.icds, radius, &radio).expect("LDel converges");
            h.ldel(&out.ldel);
            h.outcome(&out.stats, &report);
            got.push(h.0);
        }
    }
    assert_eq!(
        got,
        [
            18379763325107547062,
            674670844825432810,
            2628734226146430071,
            2417104244264591944
        ]
    );
}
