//! Thread-count determinism of the construction pipeline, in a test
//! binary of its own.

use geospan_graph::gen::connected_unit_disk;
use geospan_graph::planarity::crossing_count;
use geospan_graph::stretch::{stretch_factors, StretchOptions};
use geospan_topology::ldel;

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
