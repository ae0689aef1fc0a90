//! The message-passing build at the benchmark's operating point: n =
//! 10⁴ at Table I density (side 2 000, radius 60), seeds 1 and 7919.
//!
//! The protocols must build exactly what the centralized reference
//! builds, and every node must send exactly the messages it sent when
//! the digests were recorded: a change to what a protocol node stores
//! may make it faster, never make it say something else. The golden
//! digests in `crates/{cds,topology}/tests/properties.rs` pin the same
//! at n ≤ 60 under three radios; this pins it at the size the
//! `build_distributed` benchmark times.
//!
//! `#[ignore]`d (about 5 s in release); the bench-smoke CI job runs it
//! with `cargo test --release -p geospan-core --test distributed_scale
//! -- --ignored`.

use geospan_core::{BackboneBuilder, BackboneConfig};
use geospan_graph::gen::connected_unit_disk;
use geospan_sim::MessageStats;

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

    /// One protocol's per-node and per-kind message counts.
    fn stats(&mut self, stats: &MessageStats) {
        self.words(stats.sent_per_node().iter().copied());
        for (kind, &count) in stats.per_kind() {
            self.words(kind.bytes().map(usize::from).chain([count]));
        }
    }
}

#[test]
#[ignore = "benchmark-scale build; run with --release -- --ignored"]
fn distributed_build_at_benchmark_scale() {
    let (n, side, radius) = (10_000, 2_000.0, 60.0);
    for (seed, expected) in [(1u64, 2315681625610270919u64), (7919, 1807603367952100139)] {
        let (_pts, udg, _s) = connected_unit_disk(n, side, radius, seed);
        let dist = BackboneBuilder::new(BackboneConfig::new(radius).distributed())
            .build(&udg)
            .expect("distributed build succeeds");
        let central = BackboneBuilder::new(BackboneConfig::new(radius))
            .build(&udg)
            .expect("centralized build succeeds");
        assert_eq!(dist.roles(), central.roles(), "seed {seed}: roles differ");
        assert!(
            dist.ldel_icds().edges().eq(central.ldel_icds().edges()),
            "seed {seed}: LDel(ICDS) edges differ"
        );
        let stats = dist.stats().expect("a distributed build reports messages");
        let mut h = Fnv::NEW;
        h.stats(&stats.cds);
        h.stats(&stats.ldel);
        assert_eq!(
            h.0,
            expected,
            "seed {seed}: {} CDS and {} LDel messages",
            stats.cds.total_sent(),
            stats.ldel.total_sent()
        );
    }
}
