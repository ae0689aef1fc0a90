//! Property tests for the CDS construction: clustering and connector
//! invariants under randomized deployments and ranks, and golden digests
//! of the protocol's and the election's outputs, recorded from the
//! pre-arena implementations (node-id-keyed BTree state, a pair-keyed
//! election), which agreed with the live ones on every digest.

use geospan_cds::{
    build_cds, cluster, find_connectors, find_connectors_for_pairs, protocol, CdsGraphs,
    ClusterRank, Role,
};
use geospan_graph::collections::VecSet;
use geospan_graph::gen::{uniform_points, UnitDiskBuilder};
use geospan_graph::paths::bfs_hops;
use geospan_graph::Graph;
use geospan_sim::{FaultPlan, FaultReport, MessageStats, Radio};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

fn deployment() -> impl Strategy<Value = Graph> {
    (8usize..60, 25.0f64..60.0, any::<u64>()).prop_map(|(n, radius, seed)| {
        let pts = uniform_points(n, 120.0, seed);
        UnitDiskBuilder::new(radius).build(&pts)
    })
}

fn rank() -> impl Strategy<Value = u8> {
    0u8..3
}

fn make_rank(kind: u8, g: &Graph, seed: u64) -> ClusterRank {
    match kind {
        0 => ClusterRank::LowestId,
        1 => ClusterRank::HighestDegree,
        _ => {
            let mut s = seed | 1;
            ClusterRank::Weight(
                (0..g.node_count())
                    .map(|_| {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        s % 1000
                    })
                    .collect(),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn clustering_is_mis(g in deployment(), kind in rank(), seed in any::<u64>()) {
        let r = make_rank(kind, &g, seed);
        let c = cluster(&g, &r);
        // Independence.
        for &a in &c.dominators {
            for &b in &c.dominators {
                if a < b {
                    prop_assert!(!g.has_edge(a, b));
                }
            }
        }
        // Domination (= maximality for an independent set).
        for v in 0..g.node_count() {
            prop_assert!(c.is_dominator[v] || !c.dominators_of[v].is_empty());
        }
        // dominators_of consistency: each listed dominator is adjacent.
        for v in 0..g.node_count() {
            for &d in &c.dominators_of[v] {
                prop_assert!(g.has_edge(v, d));
                prop_assert!(c.is_dominator[d]);
            }
        }
    }

    #[test]
    fn connectors_link_close_dominator_pairs(g in deployment()) {
        let c = cluster(&g, &ClusterRank::LowestId);
        let r = find_connectors(&g, &c);
        // Connectors are dominatees; edges are UDG links.
        for &w in &r.connectors {
            prop_assert!(!c.is_dominator[w]);
        }
        for &(a, b) in &r.edges {
            prop_assert!(g.has_edge(a, b));
        }
        // Every dominator pair at UDG hop distance <= 3 is connected in
        // the backbone.
        let backbone = Graph::with_edges(g.points().to_vec(), r.edges.iter().copied());
        for &d1 in &c.dominators {
            let udg_hops = bfs_hops(&g, d1);
            let bb_hops = bfs_hops(&backbone, d1);
            for &d2 in &c.dominators {
                if d1 == d2 {
                    continue;
                }
                if let Some(h) = udg_hops[d2] {
                    if h <= 3 {
                        prop_assert!(
                            bb_hops[d2].is_some(),
                            "dominators {d1},{d2} at {h} hops not linked"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn distributed_equals_centralized(g in deployment(), kind in rank(), seed in any::<u64>()) {
        let r = make_rank(kind, &g, seed);
        let central = build_cds(&g, &r);
        let (dist, stats) = protocol::run_cds(&g, &r).expect("protocol converges");
        prop_assert!(protocol::same_structure(&central, &dist));
        // Lemma 3: constant per-node message bound (generous constant).
        prop_assert!(stats.max_sent() <= 150, "max sent {}", stats.max_sent());
    }

    #[test]
    fn roles_are_exhaustive(g in deployment()) {
        let c = build_cds(&g, &ClusterRank::LowestId);
        let mut dominators = 0;
        for v in 0..g.node_count() {
            match c.roles[v] {
                Role::Dominator => dominators += 1,
                Role::Connector => prop_assert!(c.connectors.contains(&v)),
                Role::Dominatee => prop_assert!(!c.connectors.contains(&v)),
            }
        }
        prop_assert_eq!(dominators, c.dominators.len());
    }

    #[test]
    fn prime_graphs_preserve_component_structure(g in deployment()) {
        let c = build_cds(&g, &ClusterRank::LowestId);
        prop_assert_eq!(c.cds_prime.components().len(), g.components().len());
        prop_assert_eq!(c.icds_prime.components().len(), g.components().len());
    }
}

/// Table I deployments (100 nodes per 200 x 200 square) of up to 1 500
/// nodes, with the radius scaled up to 1.6x the paper's 60 so that
/// dominator pairs share long candidate lists.
fn dense_deployment() -> impl Strategy<Value = Graph> {
    (100usize..1_500, 60.0f64..96.0, any::<u64>()).prop_map(|(n, radius, seed)| {
        let side = 200.0 * (n as f64 / 100.0).sqrt();
        UnitDiskBuilder::new(radius).build(&uniform_points(n, side, seed))
    })
}

/// Cases `0..cases` of `s`, each drawn as the deterministic proptest
/// named `name` draws its case `k`: the digests redraw the inputs of the
/// arena-vs-BTree proptests they replace, whose names are the seeds.
fn draws<S: Strategy>(name: &'static str, cases: u64, s: S) -> impl Iterator<Item = S::Value> {
    (0..cases).map(move |k| s.generate(&mut TestRng::from_name_and_case(name, k)))
}

/// The radios the protocol digests cover: the perfect synchronous one,
/// 10 % loss plus one crash at round 3 under the default ack/retransmit
/// layer, and asynchronous delivery with delays in `1..=3`. The protocol
/// acts only on facts that can no longer change, so the jittered run
/// shares the perfect radio's pin.
fn radios(g: &Graph, case: u64) -> [Radio; 3] {
    let mut radios: [Radio; 3] = Default::default();
    let lossy = FaultPlan::new(case).with_loss(0.1);
    radios[1].faults = lossy.with_crash(g.node_count() / 2, 3);
    radios[2].jitter = Some((3, case));
    radios
}

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

    /// The connectors' count, the connectors, then the edges: the layout
    /// the 20 000-node pins were recorded in.
    fn election(&mut self, connectors: &[usize], edges: &[(usize, usize)]) {
        self.word(connectors.len() as u64);
        let edges = edges.iter().flat_map(|&(a, b)| [a, b]);
        connectors
            .iter()
            .copied()
            .chain(edges)
            .for_each(|w| self.word(w as u64));
    }

    /// One protocol run: every field [`protocol::same_structure`]
    /// compares (graphs with their vertex positions), the message counts
    /// and the fault report.
    fn run(&mut self, c: &CdsGraphs, stats: &MessageStats, r: &FaultReport) {
        self.words(c.roles.iter().map(|&role| role as usize));
        self.words(c.dominators.iter().copied());
        self.words(c.connectors.iter().copied());
        for ds in &c.dominators_of {
            self.words(ds.iter().copied());
        }
        for g in [&c.cds, &c.cds_prime, &c.icds, &c.icds_prime] {
            for v in 0..g.node_count() {
                self.word(g.position(v).x.to_bits());
                self.word(g.position(v).y.to_bits());
            }
            self.words(g.edges().flat_map(|(a, b)| [a, b]));
        }
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
}

/// The CDS protocol over the 32 deployments and ranks the arena-vs-BTree
/// proptest drew, once per radio.
#[test]
fn cds_protocol_golden_digests() {
    let mut h = [Fnv::NEW; 3];
    let inputs = (deployment(), rank(), any::<u64>());
    for (case, (g, kind, seed)) in
        draws("cds_protocol_matches_btree_oracle", 32, inputs).enumerate()
    {
        let r = make_rank(kind, &g, seed);
        for (h, radio) in h.iter_mut().zip(radios(&g, case as u64)) {
            let (cds, stats, report) = protocol::run_cds_with(&g, &r, &radio).expect("converges");
            h.run(&cds, &stats, &report);
        }
    }
    let [perfect, faulty, jittered] = h.map(|h| h.0);
    assert_eq!(
        [perfect, faulty],
        [1144112544295697673, 12947347944117363454]
    );
    assert_eq!(jittered, perfect);
}

/// Connector election over the 32 deployments and ranks the
/// arena-vs-BTree proptest drew.
#[test]
fn connector_election_golden_digest() {
    let mut h = Fnv::NEW;
    let inputs = (deployment(), rank(), any::<u64>());
    for (g, kind, seed) in draws("connector_election_matches_btree_oracle", 32, inputs) {
        let r = find_connectors(&g, &cluster(&g, &make_rank(kind, &g, seed)));
        h.election(&r.connectors, &r.edges);
    }
    assert_eq!(h.0, 5033748780918159670);
}

/// The full and the restricted election on the dense deployments the
/// proptest `name` drew; the restriction is the dominators whose bit is
/// set in the drawn mask.
fn dense_election_digest(name: &'static str, cases: u64) -> u64 {
    let mut h = Fnv::NEW;
    let inputs = (dense_deployment(), rank(), any::<u64>(), any::<u64>());
    for (g, kind, seed, mask) in draws(name, cases, inputs) {
        let c = cluster(&g, &make_rank(kind, &g, seed));
        let full = find_connectors(&g, &c);
        h.election(&full.connectors, &full.edges);
        let subset = c
            .dominators
            .iter()
            .copied()
            .filter(|&d| mask >> (d % 64) & 1 == 1);
        let restricted = find_connectors_for_pairs(&g, &c, &VecSet::from_sorted_iter(subset));
        h.election(&restricted.connectors, &restricted.edges);
    }
    h.0
}

#[test]
fn dense_connector_election_golden_digest() {
    let digest = dense_election_digest("dense_connector_election_matches_btree_oracle", 6);
    assert_eq!(digest, 4884797480857311840);
}

/// 256-case sweep of the dense election digest (bench-smoke CI job,
/// release mode).
#[test]
#[ignore = "long sweep; run with --release -- --ignored"]
fn dense_connector_election_golden_digest_sweep() {
    let digest = dense_election_digest("dense_connector_election_oracle_sweep", 256);
    assert_eq!(digest, 10684294076895321087);
}

/// The full election on a 20 000-node Table I deployment (radius 60,
/// side `200 * sqrt(n / 100)`, lowest-id ranks) matches the digest
/// recorded from the pair-keyed `BTreeMap` implementation.
#[test]
fn connector_election_golden_digest_at_20k() {
    let n = 20_000;
    let side = 200.0 * (n as f64 / 100.0).sqrt();
    for (seed, expected) in [(1u64, 6185437117061634606u64), (7919, 224954014623077913)] {
        let g = UnitDiskBuilder::new(60.0).build(&uniform_points(n, side, seed));
        let c = cluster(&g, &ClusterRank::LowestId);
        let r = find_connectors(&g, &c);
        let mut h = Fnv::NEW;
        h.election(&r.connectors, &r.edges);
        assert_eq!(
            h.0,
            expected,
            "seed {seed}: {} connectors, {} edges",
            r.connectors.len(),
            r.edges.len()
        );
    }
}
