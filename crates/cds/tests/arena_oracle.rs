//! Arena-vs-BTree oracle equivalence for the CDS construction.
//!
//! The arena refactor replaced node-id-keyed `BTreeMap`/`BTreeSet` state
//! in the CDS protocol and the centralized connector election with
//! sorted-vec containers (`VecMap`/`VecSet`), and gave the connector
//! election a per-dominator dominatee index instead of its stage-3
//! `0..n` scan. The modules under `oracle/` are verbatim pre-refactor
//! copies of `protocol.rs` and `connector.rs`; these tests pin the live
//! code against them — identical roles, backbone edges, and per-node /
//! per-kind message counts — on random deployments and ranks.
//!
//! The connector election was later flattened (flat `u32` dominator and
//! dominatee indexes, per-dominator `(v, w)` candidate buffers walked by
//! `chunk_by`, local minima and stage 3 found by merging sorted lists).
//! Its oracle tests therefore also draw dense Table I deployments of up
//! to 1 500 nodes, where candidate lists grow long and hold several
//! local minima, check the restricted entry point against the oracle's,
//! and pin the full election at n = 20 000 by a golden digest captured
//! before the rewrite. The smoke proptests run a few cases; the `#[ignore]`d sweep
//! runs 256 and is exercised in release mode by the bench-smoke CI job.

#[path = "oracle/protocol.rs"]
#[allow(dead_code)]
mod oracle_protocol;

#[path = "oracle/connector.rs"]
#[allow(dead_code)]
mod oracle_connector;

use std::collections::BTreeSet;

use geospan_cds::{
    cluster, find_connectors, find_connectors_for_pairs, protocol, ClusterRank, ConnectorResult,
};
use geospan_graph::collections::VecSet;
use geospan_graph::gen::{uniform_points, UnitDiskBuilder};
use geospan_graph::Graph;
use proptest::prelude::*;

fn deployment() -> impl Strategy<Value = Graph> {
    (8usize..60, 25.0f64..60.0, any::<u64>()).prop_map(|(n, radius, seed)| {
        let pts = uniform_points(n, 120.0, seed);
        UnitDiskBuilder::new(radius).build(&pts)
    })
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cds_protocol_matches_btree_oracle(g in deployment(), kind in rank(), seed in any::<u64>()) {
        let r = make_rank(kind, &g, seed);
        let (new, new_stats) = protocol::run_cds(&g, &r).expect("arena protocol converges");
        let (old, old_stats) = oracle_protocol::run_cds(&g, &r).expect("oracle protocol converges");
        prop_assert!(oracle_protocol::same_structure(&new, &old));
        prop_assert_eq!(new.roles, old.roles);
        prop_assert_eq!(new_stats, old_stats);
    }

    #[test]
    fn connector_election_matches_btree_oracle(g in deployment(), kind in rank(), seed in any::<u64>()) {
        let r = make_rank(kind, &g, seed);
        let c = cluster(&g, &r);
        let new = find_connectors(&g, &c);
        let old = oracle_connector::find_connectors(&g, &c);
        prop_assert_eq!(new.connectors, old.connectors);
        prop_assert_eq!(new.edges, old.edges);
    }
}

/// The full and the restricted election agree with the oracle on `g`;
/// the restriction is the dominators whose bit is set in `mask`.
fn check_dense_election(g: &Graph, kind: u8, seed: u64, mask: u64) -> Result<(), TestCaseError> {
    let r = make_rank(kind, g, seed);
    let c = cluster(g, &r);
    let new = find_connectors(g, &c);
    let old = oracle_connector::find_connectors(g, &c);
    prop_assert_eq!(&new.connectors, &old.connectors);
    prop_assert_eq!(&new.edges, &old.edges);

    let subset: Vec<usize> = c
        .dominators
        .iter()
        .copied()
        .filter(|&d| mask >> (d % 64) & 1 == 1)
        .collect();
    let live = VecSet::from_sorted_iter(subset.iter().copied());
    let oracle: BTreeSet<usize> = subset.into_iter().collect();
    let new = find_connectors_for_pairs(g, &c, &live);
    let old = oracle_connector::find_connectors_for_pairs(g, &c, &oracle);
    prop_assert_eq!(new.connectors, old.connectors);
    prop_assert_eq!(new.edges, old.edges);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn dense_connector_election_matches_btree_oracle(
        g in dense_deployment(),
        kind in rank(),
        seed in any::<u64>(),
        mask in any::<u64>(),
    ) {
        check_dense_election(&g, kind, seed, mask)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 256-case sweep of the dense oracle test (bench-smoke CI job,
    /// release mode).
    #[test]
    #[ignore = "long sweep; run with --release -- --ignored"]
    fn dense_connector_election_oracle_sweep(
        g in dense_deployment(),
        kind in rank(),
        seed in any::<u64>(),
        mask in any::<u64>(),
    ) {
        check_dense_election(&g, kind, seed, mask)?;
    }
}

/// 64-bit FNV-1a over the election's connectors and edges.
fn election_digest(r: &ConnectorResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = r
        .connectors
        .iter()
        .copied()
        .chain(r.edges.iter().flat_map(|&(a, b)| [a, b]));
    for w in std::iter::once(r.connectors.len()).chain(words) {
        for b in (w as u64).to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
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
        assert_eq!(
            election_digest(&r),
            expected,
            "seed {seed}: {} connectors, {} edges",
            r.connectors.len(),
            r.edges.len()
        );
    }
}
