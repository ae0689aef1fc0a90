//! The traffic sweep artifacts must be byte-identical for a given seed —
//! across consecutive runs and across every thread count. Cells run in
//! parallel, but the fold into rows is serial and index-ordered, so the
//! CSVs cannot depend on scheduling.

use geospan_bench::traffic::{
    reliability_rows, reliability_table, saturation_rows, saturation_table, traffic_rows,
    traffic_table, ReliabilitySweepConfig, SaturationSweepConfig, SweepConfig,
};

fn sweep_csv() -> String {
    let mut cfg = SweepConfig::quick();
    cfg.scenario.n = 30;
    cfg.scenario.side = 110.0;
    cfg.duration = 300;
    traffic_table(&traffic_rows(&cfg)).csv()
}

/// The reliability sweep exercises the hotspot/bursty workloads, all
/// three queue disciplines, and the retransmit path — the scheduling
/// surface PR 4 added on top of the load sweep.
fn reliability_sweep_csv() -> String {
    let mut cfg = ReliabilitySweepConfig::quick();
    cfg.scenario.n = 30;
    cfg.scenario.side = 110.0;
    cfg.duration = 300;
    reliability_table(&reliability_rows(&cfg)).csv()
}

/// The saturation sweep exercises the overload layer — watermark
/// retry-shedding, inflated backoff, and token-bucket admission — whose
/// decisions are all node-local and must not leak scheduling either.
fn saturation_sweep_csv() -> String {
    let mut cfg = SaturationSweepConfig::quick();
    cfg.scenario.n = 30;
    cfg.scenario.side = 110.0;
    cfg.duration = 300;
    cfg.loads = vec![0.4, 3.2];
    saturation_table(&saturation_rows(&cfg)).csv()
}

/// One test owns every `RAYON_NUM_THREADS` mutation in this binary
/// (tests share the process environment).
#[test]
fn traffic_csvs_are_bit_identical_across_thread_counts_and_runs() {
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = sweep_csv();
    let serial_again = sweep_csv();
    let rel_serial = reliability_sweep_csv();
    let rel_serial_again = reliability_sweep_csv();
    let sat_serial = saturation_sweep_csv();
    let sat_serial_again = saturation_sweep_csv();
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let four = sweep_csv();
    let rel_four = reliability_sweep_csv();
    let sat_four = saturation_sweep_csv();
    std::env::remove_var("RAYON_NUM_THREADS");
    let auto = sweep_csv();
    let rel_auto = reliability_sweep_csv();
    let sat_auto = saturation_sweep_csv();

    assert_eq!(serial, serial_again, "consecutive runs differ");
    assert_eq!(serial, four, "1 vs 4 threads");
    assert_eq!(serial, auto, "1 vs auto threads");

    assert_eq!(
        rel_serial, rel_serial_again,
        "consecutive reliability runs differ"
    );
    assert_eq!(rel_serial, rel_four, "reliability: 1 vs 4 threads");
    assert_eq!(rel_serial, rel_auto, "reliability: 1 vs auto threads");

    assert_eq!(
        sat_serial, sat_serial_again,
        "consecutive saturation runs differ"
    );
    assert_eq!(sat_serial, sat_four, "saturation: 1 vs 4 threads");
    assert_eq!(sat_serial, sat_auto, "saturation: 1 vs auto threads");
}
