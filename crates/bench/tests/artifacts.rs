//! Golden artifact digests: every experiment, run in-process at its
//! smallest operating point (`--trials 1`, or `--quick` where the
//! experiment has one; `fig7_topologies` renders one deployment
//! either way), must write exactly the artifacts the table
//! names, each with the recorded 64-bit FNV-1a digest.
//!
//! The digests were captured from the per-experiment binaries that
//! preceded the `geospan-bench <experiment>` driver, so they pin the
//! refactor — and every later change — to byte-identical output. In the
//! two `BENCH_*.json` files the lines holding wall-clock timings and
//! host facts (`*_ms`, `*speedup`, `events_per_sec`, `peak_rss_mb`,
//! `threads`, `cores`) change from run to run and are left out of the
//! digest. A deliberate change to an artifact regenerates its entry.

use geospan_bench::cli::parse;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Whether a `BENCH_*.json` key holds a timing or a host fact.
fn varies_by_run(key: &str) -> bool {
    key.ends_with("_ms")
        || key.ends_with("speedup")
        || ["events_per_sec", "peak_rss_mb", "threads", "cores"].contains(&key)
}

/// The digested form of an artifact: JSON files lose their timing and
/// host lines (one `"key": value` per line), everything else is as is.
fn canonical(name: &str, contents: &str) -> String {
    if !name.ends_with(".json") {
        return contents.to_string();
    }
    contents
        .split('\n')
        .filter(|line| {
            let key = line
                .trim_start()
                .strip_prefix('"')
                .and_then(|l| l.split_once("\":"));
            !key.is_some_and(|(k, _)| varies_by_run(k))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs `command` (an experiment and its flags) and compares every
/// artifact's digest against `golden`, sorted by file name.
fn check(command: &str, golden: &[(&str, u64)]) {
    let args: Vec<String> = command.split_whitespace().map(String::from).collect();
    let (experiment, flags) = parse(&args).expect("golden command parses");
    let mut artifacts = Vec::new();
    (experiment.run)(&flags, &mut artifacts).expect("no --check, no failure");
    let mut got: Vec<(String, u64)> = artifacts
        .iter()
        .map(|(name, contents)| (name.clone(), fnv1a(canonical(name, contents).as_bytes())))
        .collect();
    got.sort();
    let want: Vec<(String, u64)> = golden.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(
        got, want,
        "{command}: artifacts differ from the golden digests"
    );
}

macro_rules! golden {
    ($($test:ident: $command:literal => [$($file:literal = $digest:literal,)*];)*) => {
        $(
            #[test]
            fn $test() {
                check($command, &[$(($file, $digest)),*]);
            }
        )*
    };
}

golden! {
    table1: "table1 --trials 1" => [
        "table1.csv" = 0x1592618b27610ff8,
    ];
    fig7_topologies: "fig7_topologies" => [
        "fig7_cds.svg" = 0x6d3c535c37b12d2d,
        "fig7_cdsp.svg" = 0xcfdfedd90f904e85,
        "fig7_gg.svg" = 0xb1a0304ed43eb987,
        "fig7_icds.svg" = 0x6cff27f67ed50dc5,
        "fig7_icdsp.svg" = 0x022871c14493b6ce,
        "fig7_ldel.svg" = 0xcd9d9609bf4103d2,
        "fig7_ldel_icds_.svg" = 0xa4dfea715a0b6b6a,
        "fig7_ldel_icdsp_.svg" = 0x477d73b15915714d,
        "fig7_rng.svg" = 0xc92f1c71c97d284b,
        "fig7_udg.svg" = 0xb80eb19717e5df30,
    ];
    fig8_degree: "fig8_degree --trials 1" => [
        "fig8_degree_avg.csv" = 0x99e8868f1fd1a7dc,
        "fig8_degree_max.csv" = 0x07a900a4f3d81f7b,
    ];
    fig9_stretch: "fig9_stretch --trials 1" => [
        "fig9_stretch_avg.csv" = 0xe162653802944a98,
        "fig9_stretch_max.csv" = 0xadcce59006dede93,
    ];
    fig10_messages: "fig10_messages --trials 1" => [
        "fig10_comm_avg.csv" = 0xe50734e31ea3e438,
        "fig10_comm_max.csv" = 0x627de1b8b7fc359f,
    ];
    fig11_stretch_radius: "fig11_stretch_radius --trials 1" => [
        "fig11_stretch_avg.csv" = 0xcaa1e6e871d3b44c,
        "fig11_stretch_max.csv" = 0x8514b25f942ee6ba,
    ];
    fig12_radius: "fig12_radius --trials 1" => [
        "fig12_comm.csv" = 0xe363d8ca104d3cc6,
        "fig12_degree.csv" = 0x695eab11d51981cb,
    ];
    ablation_rank: "ablation_rank --trials 1" => [
        "ablation_rank.csv" = 0xf39baf5a99128ace,
    ];
    ablation_planarizer: "ablation_planarizer --trials 1" => [
        "ablation_planarizer.csv" = 0x3a54b3a709b97be8,
    ];
    power_stretch: "power_stretch --trials 1" => [
        "power_stretch.csv" = 0xdc4f2bfc61f23e42,
    ];
    routing_quality: "routing_quality --trials 1" => [
        "routing_quality.csv" = 0xf272a6440d356f46,
    ];
    robustness: "robustness --trials 1" => [
        "robustness.csv" = 0x755d3e272e488bc5,
        "robustness_faults.csv" = 0xf3ab6183c7a2e0d3,
    ];
    rdg_comparison: "rdg_comparison --trials 1" => [
        "rdg_comparison.csv" = 0x055dc472a14d7af1,
    ];
    ldel_variants: "ldel_variants --trials 1" => [
        "ldel_variants.csv" = 0xdaaa259c85b3653e,
    ];
    pipeline_speedup: "pipeline_speedup --quick" => [
        "BENCH_pipeline.json" = 0x5e44d445bbe82f76,
    ];
    traffic_load: "traffic_load --quick" => [
        "traffic_load.csv" = 0x32a64ba64ba6913c,
    ];
    traffic_reliability: "traffic_reliability --quick" => [
        "traffic_reliability.csv" = 0x73a3af5632860e00,
    ];
    traffic_saturation: "traffic_saturation --quick" => [
        "traffic_saturation.csv" = 0xe6f015cfb1734995,
    ];
    traffic_scale: "traffic_scale --quick" => [
        "BENCH_traffic_scale.json" = 0x719cb7afcc279867,
    ];
    traffic_churn: "traffic_churn --quick" => [
        "traffic_churn.csv" = 0x5160cfb911f4336c,
    ];
}
