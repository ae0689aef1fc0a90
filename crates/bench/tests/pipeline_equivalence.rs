//! The optimized construction pipeline must be indistinguishable from the
//! frozen seed baseline — same triangles, same Gabriel edges, same graph —
//! and bit-identical across thread counts.

use geospan_bench::baseline::{seed_crossing_count, seed_ldel1, seed_planarize};
use geospan_graph::gen::{connected_unit_disk, perturbed_grid, UnitDiskBuilder};
use geospan_graph::planarity::crossing_count;
use geospan_graph::stretch::{stretch_factors, StretchOptions};
use geospan_graph::Graph;
use geospan_topology::ldel;

/// Largest UDG whose crossings the seed's `O(m²)` count is compared at.
const SEED_CROSSING_MAX_N: usize = 2_000;

/// Asserts that the live `LDel¹ → PLDel` pipeline reproduces the seed's
/// output exactly, and that `PLDel` is a plane subgraph of `udg` with the
/// same components.
fn assert_pipeline_matches_seed(udg: &Graph, label: &str) {
    let raw_new = ldel::ldel1(udg);
    let raw_seed = seed_ldel1(udg);
    assert_eq!(raw_new.triangles, raw_seed.triangles, "{label}: triangles");
    assert_eq!(
        raw_new.gabriel_edges, raw_seed.gabriel_edges,
        "{label}: gabriel edges"
    );
    assert_eq!(
        raw_new.graph.edges().collect::<Vec<_>>(),
        raw_seed.graph.edges().collect::<Vec<_>>(),
        "{label}: LDel1 edges"
    );

    let pl_new = ldel::planarized(udg);
    let pl_seed = seed_planarize(udg, raw_seed);
    assert_eq!(pl_new, pl_seed, "{label}: PLDel");

    if udg.node_count() <= SEED_CROSSING_MAX_N {
        assert_eq!(
            crossing_count(udg),
            seed_crossing_count(udg),
            "{label}: crossing count"
        );
    }

    let pldel = &pl_new.graph;
    for (u, v) in pldel.edges() {
        assert!(
            udg.has_edge(u, v),
            "{label}: PLDel edge ({u},{v}) not in UDG"
        );
    }
    assert_eq!(crossing_count(pldel), 0, "{label}: PLDel is not plane");
    assert_eq!(
        pldel.components().len(),
        udg.components().len(),
        "{label}: PLDel broke connectivity"
    );
}

/// The seed comparison and the scale invariants at the paper's Table I
/// density (side `200·√(n/100)`, radius 60), up to n = 10 000. Run with
/// `cargo test --release -p geospan-bench --test pipeline_equivalence -- --ignored`.
#[test]
#[ignore = "n = 10 000 runs the seed's serial Bowyer–Watson; use --release"]
fn optimized_pipeline_matches_seed_at_table1_density() {
    for n in [200, 500, 10_000] {
        let side = 200.0 * (n as f64 / 100.0).sqrt();
        let (_pts, udg, _s) = connected_unit_disk(n, side, 60.0, 1);
        assert_pipeline_matches_seed(&udg, &format!("n = {n}"));
    }
}

#[test]
fn optimized_pipeline_matches_seed_on_random_instances() {
    for seed in 0..5 {
        let (_pts, udg, _s) = connected_unit_disk(80, 180.0, 55.0, seed * 17 + 1);
        assert_pipeline_matches_seed(&udg, &format!("random seed {seed}"));
    }
}

#[test]
fn optimized_pipeline_matches_seed_on_degenerate_layouts() {
    // Exact grid (jitter 0): massive collinearity and cocircularity, the
    // worst case for the exact predicates and for tie-breaking.
    let pts = perturbed_grid(9, 9, 20.0, 0.0, 3);
    let udg = UnitDiskBuilder::new(45.0).build(&pts);
    assert_pipeline_matches_seed(&udg, "exact grid");

    // Lightly jittered grid: near-degenerate circumcircles.
    let pts = perturbed_grid(9, 9, 20.0, 0.01, 4);
    let udg = UnitDiskBuilder::new(45.0).build(&pts);
    assert_pipeline_matches_seed(&udg, "jittered grid");

    // A single line of nodes: no triangles at all.
    let pts: Vec<_> = (0..15)
        .map(|i| geospan_graph::Point::new(i as f64 * 10.0, 5.0))
        .collect();
    let udg = UnitDiskBuilder::new(25.0).build(&pts);
    assert_pipeline_matches_seed(&udg, "collinear line");
}

/// Thread-count determinism. One test owns every `RAYON_NUM_THREADS`
/// mutation (tests in one binary share the process environment, so the
/// settings must not race with other tests reading it).
#[test]
fn results_are_bit_identical_across_thread_counts() {
    let (_pts, udg, _s) = connected_unit_disk(120, 220.0, 55.0, 7);
    let sub = ldel::planarized(&udg).graph.clone();

    let run = || {
        (
            ldel::ldel1(&udg),
            ldel::planarized(&udg),
            stretch_factors(&udg, &sub, StretchOptions::default()),
            crossing_count(&udg),
        )
    };

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = run();
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let four = run();
    std::env::remove_var("RAYON_NUM_THREADS");
    let auto = run();

    assert_eq!(serial.0, four.0, "ldel1: 1 vs 4 threads");
    assert_eq!(serial.1, four.1, "planarized: 1 vs 4 threads");
    assert_eq!(serial.2, four.2, "stretch: 1 vs 4 threads");
    assert_eq!(serial.3, four.3, "crossing count: 1 vs 4 threads");
    assert_eq!(serial.0, auto.0, "ldel1: 1 vs auto threads");
    assert_eq!(serial.2, auto.2, "stretch: 1 vs auto threads");

    // The same at n = 10k (bench calibration: side 200·√(n/100), radius
    // 60), where the rayon stub actually splits the id range and any
    // order-dependence in the arena-backed construction would surface.
    // Stretch is omitted: all-pairs searches don't finish at this size.
    let (_pts, big, _s) = connected_unit_disk(10_000, 2000.0, 60.0, 11);
    let run_big = || {
        (
            ldel::ldel1(&big),
            ldel::planarized(&big),
            crossing_count(&big),
        )
    };

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = run_big();
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let four = run_big();
    std::env::remove_var("RAYON_NUM_THREADS");

    assert_eq!(serial.0, four.0, "ldel1 @10k: 1 vs 4 threads");
    assert_eq!(serial.1, four.1, "planarized @10k: 1 vs 4 threads");
    assert_eq!(serial.2, four.2, "crossing count @10k: 1 vs 4 threads");
}
