//! Property tests for the proximity topologies; golden digests of the
//! distributed LDel¹ and LDel² protocols' outputs, recorded from the
//! pre-arena protocols (node-id-keyed BTree state); and golden digests
//! of the centralized `LDel¹ → PLDel` pipeline, recorded from the seed's
//! serial pipeline. Both old implementations agreed with the live ones
//! on every digest.

use geospan_graph::gen::{connected_unit_disk, perturbed_grid, uniform_points, UnitDiskBuilder};
use geospan_graph::planarity::{crossing_count, is_plane_embedding};
use geospan_graph::Graph;
use geospan_graph::Point;
use geospan_sim::{FaultPlan, FaultReport, MessageStats, Radio};
use geospan_topology::ldel::LocalDelaunay;
use geospan_topology::{
    distributed, distributed2, gabriel, ldel, relative_neighborhood, unit_delaunay,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

fn deployment() -> impl Strategy<Value = (Graph, f64)> {
    (8usize..50, 25.0f64..60.0, any::<u64>()).prop_map(|(n, radius, seed)| {
        let pts = uniform_points(n, 110.0, seed);
        (UnitDiskBuilder::new(radius).build(&pts), radius)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn containments((udg, _r) in deployment()) {
        let rng = relative_neighborhood(&udg);
        let gg = gabriel(&udg);
        let pl = ldel::planarized(&udg);
        let udel = unit_delaunay(&udg);
        for (u, v) in rng.edges() {
            prop_assert!(gg.has_edge(u, v), "RNG ⊄ GG");
        }
        for (u, v) in gg.edges() {
            prop_assert!(pl.graph.has_edge(u, v), "GG ⊄ PLDel");
        }
        for (u, v) in udel.edges() {
            prop_assert!(pl.graph.has_edge(u, v), "UDel ⊄ PLDel");
        }
        for (u, v) in pl.graph.edges() {
            prop_assert!(udg.has_edge(u, v), "PLDel ⊄ UDG");
        }
    }

    #[test]
    fn planarity_and_connectivity((udg, _r) in deployment()) {
        for g in [relative_neighborhood(&udg), gabriel(&udg), ldel::planarized(&udg).graph] {
            prop_assert!(is_plane_embedding(&g));
            prop_assert_eq!(g.components().len(), udg.components().len());
        }
    }

    #[test]
    fn sparse_edge_counts((udg, _r) in deployment()) {
        let n = udg.node_count();
        prop_assert!(relative_neighborhood(&udg).edge_count() <= 3 * n);
        prop_assert!(gabriel(&udg).edge_count() <= 3 * n);
        // Thickness 2 for raw LDel¹; planar bound for PLDel.
        prop_assert!(ldel::ldel1(&udg).graph.edge_count() <= 6 * n);
        prop_assert!(ldel::planarized(&udg).graph.edge_count() <= 3 * n);
    }

    #[test]
    fn distributed_ldel_equals_centralized((udg, r) in deployment()) {
        let central = ldel::planarized(&udg);
        let dist = distributed::run_ldel(&udg, r).expect("protocol converges");
        prop_assert_eq!(
            dist.ldel.graph.edges().collect::<Vec<_>>(),
            central.graph.edges().collect::<Vec<_>>()
        );
        prop_assert_eq!(dist.ldel.triangles, central.triangles);
        prop_assert_eq!(dist.ldel.gabriel_edges, central.gabriel_edges);
    }

    #[test]
    fn ldel1_triangles_are_mutual((udg, _r) in deployment()) {
        // Every accepted triangle's edges exist and belong to the graph;
        // every Gabriel edge is present.
        let ld = ldel::ldel1(&udg);
        for &[a, b, c] in &ld.triangles {
            prop_assert!(udg.has_edge(a, b) && udg.has_edge(b, c) && udg.has_edge(a, c));
            prop_assert!(ld.graph.has_edge(a, b) && ld.graph.has_edge(b, c) && ld.graph.has_edge(a, c));
        }
        for &(u, v) in &ld.gabriel_edges {
            prop_assert!(ld.graph.has_edge(u, v));
        }
    }
}

/// Up to 500 nodes at Table I density (100 nodes per 200 × 200 square,
/// radius 60, about 28 neighbours each).
fn table1_deployment() -> impl Strategy<Value = Graph> {
    (8usize..500, any::<u64>()).prop_map(|(n, seed)| {
        let side = 200.0 * (n as f64 / 100.0).sqrt();
        UnitDiskBuilder::new(60.0).build(&uniform_points(n, side, seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ldel1_from_stars_matches_the_definition(udg in table1_deployment()) {
        // Triangles accepted by all three corners' Delaunay stars and
        // Gabriel edges read off the stars' apexes, against the direct
        // definition over every UDG triangle and every common neighbour.
        let fast = ldel::ldel1(&udg);
        let slow = ldel::ldel_k(&udg, 1);
        prop_assert_eq!(fast.triangles, slow.triangles);
        prop_assert_eq!(fast.gabriel_edges, slow.gabriel_edges);
    }
}

/// Deployments of up to 60 nodes on a 120 × 120 square.
fn digest_deployment() -> impl Strategy<Value = (Graph, f64)> {
    (8usize..60, 25.0f64..60.0, any::<u64>()).prop_map(|(n, radius, seed)| {
        let pts = uniform_points(n, 120.0, seed);
        (UnitDiskBuilder::new(radius).build(&pts), radius)
    })
}

/// Cases `0..cases` of `s`, each drawn as the deterministic proptest
/// named `name` draws its case `k`: the digests redraw the inputs of the
/// arena-vs-BTree proptests they replace, whose names are the seeds.
fn draws<S: Strategy>(name: &'static str, cases: u64, s: S) -> impl Iterator<Item = S::Value> {
    (0..cases).map(move |k| s.generate(&mut TestRng::from_name_and_case(name, k)))
}

/// The radios each digest covers: the perfect synchronous one, 10 % loss
/// plus one crash at round 3 under the default ack/retransmit layer, and
/// asynchronous delivery with delays in `1..=3`. The protocols act only
/// on facts that can no longer change, so the jittered run shares the
/// perfect radio's pin.
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

    /// One protocol run: the structure, its vertex positions included,
    /// the message counts and the fault report.
    fn run(&mut self, ld: &LocalDelaunay, stats: &MessageStats, r: &FaultReport) {
        for v in 0..ld.graph.node_count() {
            self.word(ld.graph.position(v).x.to_bits());
            self.word(ld.graph.position(v).y.to_bits());
        }
        self.words(ld.graph.edges().flat_map(|(a, b)| [a, b]));
        self.words(ld.triangles.iter().flatten().copied());
        self.words(ld.gabriel_edges.iter().flat_map(|&(a, b)| [a, b]));
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

/// One digest per radio (see [`radios`]) of the runs of a distributed
/// construction over the 32 deployments the proptest `name` drew.
fn radio_digests(
    name: &'static str,
    run: impl Fn(&Graph, f64, &Radio) -> (LocalDelaunay, MessageStats, FaultReport),
) -> [u64; 3] {
    let mut h = [Fnv::NEW; 3];
    for (case, (udg, r)) in draws(name, 32, digest_deployment()).enumerate() {
        for (h, radio) in h.iter_mut().zip(radios(&udg, case as u64)) {
            let (ldel, stats, report) = run(&udg, r, &radio);
            h.run(&ldel, &stats, &report);
        }
    }
    h.map(|h| h.0)
}

#[test]
fn ldel1_golden_digests() {
    let [perfect, faulty, jittered] =
        radio_digests("ldel1_matches_btree_oracle", |udg, r, radio| {
            let (out, report) = distributed::run_ldel_with(udg, r, radio).expect("converges");
            (out.ldel, out.stats, report)
        });
    assert_eq!(
        [perfect, faulty],
        [2901999590911360728, 15570684884585138385]
    );
    assert_eq!(jittered, perfect);
}

#[test]
fn ldel2_golden_digests() {
    let [perfect, faulty, jittered] =
        radio_digests("ldel2_matches_btree_oracle", |udg, r, radio| {
            distributed2::run_ldel2_with(udg, r, radio).expect("converges")
        });
    assert_eq!(
        [perfect, faulty],
        [4587022266665944260, 16493780909842246299]
    );
    assert_eq!(jittered, perfect);
}

/// Largest UDG whose crossing count enters a pipeline digest.
const CROSSING_MAX_N: usize = 2_000;

/// Digest of the `LDel¹ → PLDel` pipeline on `udg`: the triangles,
/// Gabriel edges and edges of `ldel1` and then of `planarized`, then
/// `crossing_count(udg)` up to [`CROSSING_MAX_N`] nodes. Asserts on the
/// way that PLDel is a plane subgraph of `udg` with the same components.
fn pipeline_digest(udg: &Graph, label: &str) -> u64 {
    let raw = ldel::ldel1(udg);
    let pl = ldel::planarized(udg);
    for (u, v) in pl.graph.edges() {
        assert!(
            udg.has_edge(u, v),
            "{label}: PLDel edge ({u},{v}) not in UDG"
        );
    }
    assert_eq!(crossing_count(&pl.graph), 0, "{label}: PLDel is not plane");
    assert_eq!(
        pl.graph.components().len(),
        udg.components().len(),
        "{label}: PLDel broke connectivity"
    );
    let mut h = Fnv::NEW;
    for ld in [&raw, &pl] {
        h.words(ld.triangles.iter().flatten().copied());
        h.words(ld.gabriel_edges.iter().flat_map(|&(a, b)| [a, b]));
        h.words(ld.graph.edges().flat_map(|(a, b)| [a, b]));
    }
    h.words((udg.node_count() <= CROSSING_MAX_N).then(|| crossing_count(udg)));
    h.0
}

/// The connected deployment of `n` nodes at Table I density (side
/// `200·√(n/100)`, radius 60), seed 1.
fn table1_udg(n: usize) -> Graph {
    let side = 200.0 * (n as f64 / 100.0).sqrt();
    connected_unit_disk(n, side, 60.0, 1).1
}

#[test]
fn pldel_golden_digests_on_random_instances() {
    let digests: Vec<u64> = (0..5)
        .map(|seed| {
            let (_pts, udg, _s) = connected_unit_disk(80, 180.0, 55.0, seed * 17 + 1);
            pipeline_digest(&udg, &format!("random seed {seed}"))
        })
        .collect();
    assert_eq!(
        digests,
        [
            14536092394863357539,
            17087650258087036295,
            3150382245960810073,
            16588750349173860104,
            9118739055913398088,
        ]
    );
}

#[test]
fn pldel_golden_digests_on_degenerate_layouts() {
    // Exact grid (jitter 0): massive collinearity and cocircularity, so
    // the star walk ties and falls back to Bowyer–Watson.
    let grid = perturbed_grid(9, 9, 20.0, 0.0, 3);
    // Lightly jittered grid: near-degenerate circumcircles.
    let jittered = perturbed_grid(9, 9, 20.0, 0.01, 4);
    // A single line of nodes: no triangles at all.
    let line: Vec<Point> = (0..15).map(|i| Point::new(i as f64 * 10.0, 5.0)).collect();
    assert_eq!(
        [
            pipeline_digest(&UnitDiskBuilder::new(45.0).build(&grid), "exact grid"),
            pipeline_digest(
                &UnitDiskBuilder::new(45.0).build(&jittered),
                "jittered grid"
            ),
            pipeline_digest(&UnitDiskBuilder::new(25.0).build(&line), "collinear line"),
        ],
        [
            3559936337434829097,
            16432438059204614487,
            15099786230467766532,
        ]
    );
}

#[test]
fn pldel_golden_digests_at_table1_density() {
    assert_eq!(
        [200, 500].map(|n| pipeline_digest(&table1_udg(n), &format!("n = {n}"))),
        [6397842895915877809, 7046043293389901958]
    );
}

/// Run with `cargo test --release -p geospan-topology --test properties
/// -- --ignored pldel_golden_digest_at_ten_thousand_nodes`.
#[test]
#[ignore = "n = 10 000; use --release"]
fn pldel_golden_digest_at_ten_thousand_nodes() {
    assert_eq!(
        pipeline_digest(&table1_udg(10_000), "n = 10 000"),
        12121495317998090221
    );
}

/// Run with `cargo test --release -p geospan-topology --test properties
/// -- --ignored --exact ldel2_golden_digest_at_two_thousand_nodes`.
/// Pins the perfect-radio `LDel²` run at Table I density, and checks that
/// the run on an exact 40 × 40 grid, where every square is cocircular, is
/// a plane embedding.
#[test]
#[ignore = "n = 2 000 and a 40 × 40 grid; use --release"]
fn ldel2_golden_digest_at_two_thousand_nodes() {
    let udg = table1_udg(2_000);
    let (ld, stats) = distributed2::run_ldel2(&udg, 60.0).expect("converges");
    let mut h = Fnv::NEW;
    h.run(&ld, &stats, &FaultReport::default());
    assert_eq!(h.0, 14612007757792001594);

    let grid = UnitDiskBuilder::new(25.0).build(&perturbed_grid(40, 40, 10.0, 0.0, 0));
    let (ld, _stats) = distributed2::run_ldel2(&grid, 25.0).expect("converges");
    assert_eq!(crossing_count(&ld.graph), 0, "LDel² of the exact grid");
}
