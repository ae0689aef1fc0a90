//! End-to-end tests of the `geospan-cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_geospan-cli"))
}

fn tempdir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("geospan-cli-test-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The topology names `render` lists when it is given an unknown one.
fn valid_topologies() -> Vec<String> {
    let out = cli()
        .args(["render", "--topology", "none"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    let (_, list) = err
        .split_once("(valid topologies: ")
        .unwrap_or_else(|| panic!("no topology list in {err}"));
    let (list, _) = list.split_once(')').unwrap();
    list.split(", ").map(str::to_string).collect()
}

#[test]
fn generate_build_route_render_pipeline() {
    let dir = tempdir("pipeline");
    let nodes = dir.join("nodes.csv");

    // generate
    let out = cli()
        .args([
            "generate", "--n", "50", "--side", "150", "--radius", "50", "--seed", "7", "--out",
        ])
        .arg(&nodes)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let content = std::fs::read_to_string(&nodes).unwrap();
    assert!(content.starts_with("x,y\n"));
    assert_eq!(content.lines().count(), 51);

    // build + verify report
    let out = cli()
        .args(["build", "--nodes"])
        .arg(&nodes)
        .args(["--radius", "50"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("planar:          yes"), "{text}");
    assert!(text.contains("spans all pairs: yes"));

    // build --distributed includes message accounting
    let out = cli()
        .args(["build", "--nodes"])
        .arg(&nodes)
        .args(["--radius", "50", "--distributed"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("messages/node"), "{text}");
    assert!(text.contains("IamDominator"));

    // route
    let out = cli()
        .args(["route", "--nodes"])
        .arg(&nodes)
        .args(["--radius", "50", "--from", "0", "--to", "49"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("delivered in"), "{text}");
    assert!(text.contains("path: [0,"));

    // render every topology the unknown-name error lists, so that list
    // and what `render` draws cannot drift apart
    let svg = dir.join("topo.svg");
    for topology in valid_topologies() {
        let out = cli()
            .args(["render", "--nodes"])
            .arg(&nodes)
            .args(["--radius", "50", "--topology", &topology, "--out"])
            .arg(&svg)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{topology}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let content = std::fs::read_to_string(&svg).unwrap();
        assert!(content.starts_with("<svg"), "{topology}");
        assert!(content.contains(&format!("{topology} — ")), "{topology}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn traffic_reports_delivery_and_is_seed_deterministic() {
    let dir = tempdir("traffic");
    let base = [
        "traffic",
        "--n",
        "40",
        "--side",
        "130",
        "--radius",
        "45",
        "--rate",
        "0.2",
        "--duration",
        "400",
        "--seed",
        "11",
    ];

    let run = |out_name: &str| {
        let csv = dir.join(out_name);
        let out = cli().args(base).arg("--out").arg(&csv).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        (text, std::fs::read_to_string(&csv).unwrap())
    };

    let (text, csv_a) = run("a.csv");
    assert!(text.contains("uniform workload over `backbone`"), "{text}");
    assert!(text.contains("offered:"), "{text}");
    assert!(text.contains("delivered:"), "{text}");
    assert!(
        csv_a.starts_with("policy,workload,discipline,retx,rate,"),
        "{csv_a}"
    );
    assert_eq!(csv_a.lines().count(), 2);

    // Same seed, same bytes.
    let (_, csv_b) = run("b.csv");
    assert_eq!(
        csv_a, csv_b,
        "same seed must give a byte-identical artifact"
    );

    // A clean low-rate run over the backbone delivers everything, with
    // the default fifo/no-retransmit configuration on record.
    let row: Vec<&str> = csv_a.lines().nth(1).unwrap().split(',').collect();
    assert_eq!(row[2], "fifo", "{csv_a}");
    assert_eq!(row[3], "off", "{csv_a}");
    assert_eq!(row[7], row[8], "offered != delivered: {csv_a}");
    assert_eq!(row[15], "0", "retry-shed without watermarks: {csv_a}");
    assert_eq!(row[16], "0", "refusals without admission: {csv_a}");
    assert_eq!(row[17], "0", "retransmissions without --retries: {csv_a}");

    // Unknown policy fails cleanly.
    let out = cli()
        .args([
            "traffic", "--n", "10", "--side", "50", "--radius", "30", "--policy", "warp",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown policy"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn traffic_disciplines_and_retransmit_flags_work_end_to_end() {
    let dir = tempdir("reliability");
    let base = [
        "traffic",
        "--n",
        "40",
        "--side",
        "130",
        "--radius",
        "45",
        "--rate",
        "0.2",
        "--duration",
        "400",
        "--seed",
        "11",
        "--loss",
        "0.05",
        "--workload",
        "hotspot",
        "--bias",
        "0.8",
    ];

    let run = |out_name: &str, extra: &[&str]| {
        let csv = dir.join(out_name);
        let out = cli()
            .args(base)
            .args(extra)
            .arg("--out")
            .arg(&csv)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        (text, std::fs::read_to_string(&csv).unwrap())
    };

    // Lossy, no retransmit: losses land in drop_loss.
    let (_, plain) = run("rel_off.csv", &[]);
    let row: Vec<String> = plain
        .lines()
        .nth(1)
        .unwrap()
        .split(',')
        .map(str::to_string)
        .collect();
    let lost: usize = row[12].parse().unwrap();
    assert!(lost > 0, "5% loss over 400 ticks never rolled: {plain}");

    // Same seed with retransmit + DRR: the report names the scheme, the
    // CSV records it, and retries recover the losses.
    let (text, rel) = run(
        "rel_on.csv",
        &[
            "--discipline",
            "drr",
            "--quantum",
            "2",
            "--retries",
            "3",
            "--ack-timeout",
            "2",
        ],
    );
    assert!(text.contains("drr queue, retransmit x3"), "{text}");
    let row: Vec<String> = rel
        .lines()
        .nth(1)
        .unwrap()
        .split(',')
        .map(str::to_string)
        .collect();
    assert_eq!(row[2], "drr", "{rel}");
    assert_eq!(row[3], "on", "{rel}");
    let lost_with_retx: usize = row[12].parse().unwrap();
    let retransmissions: usize = row[17].parse().unwrap();
    assert!(retransmissions > 0, "no retries under 5% loss: {rel}");
    assert!(
        lost_with_retx < lost,
        "retransmit did not reduce link losses ({lost} -> {lost_with_retx})"
    );

    // Unknown discipline fails cleanly.
    let out = cli()
        .args(base)
        .args(["--discipline", "lifo"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown discipline"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn traffic_overload_flags_shed_retries_and_refuse_admissions() {
    let dir = tempdir("overload");
    let base = [
        "traffic",
        "--n",
        "40",
        "--side",
        "130",
        "--radius",
        "45",
        "--rate",
        "6.4",
        "--duration",
        "300",
        "--seed",
        "11",
        "--loss",
        "0.1",
        "--workload",
        "hotspot",
        "--bias",
        "0.8",
        "--capacity",
        "8",
        "--retries",
        "3",
    ];

    let run = |out_name: &str, extra: &[&str]| {
        let csv = dir.join(out_name);
        let out = cli()
            .args(base)
            .args(extra)
            .arg("--out")
            .arg(&csv)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let row: Vec<String> = std::fs::read_to_string(&csv)
            .unwrap()
            .lines()
            .nth(1)
            .unwrap()
            .split(',')
            .map(str::to_string)
            .collect();
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        (text, row)
    };
    let col = |row: &[String], i: usize| -> usize { row[i].parse().unwrap() };

    // Watermarks alone: the saturated hotspot sheds retries.
    let (text, wm) = run("wm.csv", &["--high-watermark", "6", "--low-watermark", "2"]);
    assert!(text.contains("retry-shed"), "{text}");
    assert!(
        col(&wm, 15) > 0,
        "saturated run with watermarks never shed a retry: {wm:?}"
    );
    assert_eq!(col(&wm, 16), 0, "refusals without admission: {wm:?}");

    // Watermarks + token-bucket admission: sources get refused, and the
    // ledger still balances (offered = delivered + drops + refused).
    let (_, adm) = run(
        "adm.csv",
        &[
            "--high-watermark",
            "6",
            "--low-watermark",
            "2",
            "--admit-ticks",
            "40",
            "--admit-burst",
            "2",
        ],
    );
    assert!(
        col(&adm, 16) > 0,
        "tight token bucket never refused: {adm:?}"
    );
    let drops: usize = (10..=15).map(|i| col(&adm, i)).sum();
    assert_eq!(
        col(&adm, 7),
        col(&adm, 8) + drops + col(&adm, 16),
        "offered != delivered + drops + refused: {adm:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn traffic_sharded_run_is_byte_identical_to_single_shard() {
    let dir = tempdir("shards");
    let base = [
        "traffic",
        "--n",
        "40",
        "--side",
        "130",
        "--radius",
        "45",
        "--rate",
        "3.2",
        "--duration",
        "400",
        "--seed",
        "11",
        "--loss",
        "0.08",
        "--workload",
        "hotspot",
        "--bias",
        "0.8",
        "--capacity",
        "8",
        "--retries",
        "3",
        "--high-watermark",
        "6",
        "--low-watermark",
        "2",
    ];

    let run = |out_name: &str, shards: &str| {
        let csv = dir.join(out_name);
        let out = cli()
            .args(base)
            .args(["--shards", shards])
            .arg("--out")
            .arg(&csv)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(&csv).unwrap()
    };

    let single = run("s1.csv", "1");
    let sharded = run("s4.csv", "4");
    assert_eq!(
        single, sharded,
        "--shards 4 must produce a byte-identical artifact to --shards 1"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn traffic_churn_flags_run_repair_and_stay_shard_identical() {
    let dir = tempdir("churn");
    let base = [
        "traffic",
        "--n",
        "40",
        "--side",
        "120",
        "--radius",
        "45",
        "--rate",
        "0.2",
        "--duration",
        "400",
        "--seed",
        "1",
        "--churn-rate",
        "0.05",
        "--churn-seed",
        "9",
    ];

    let run = |out_name: &str, shards: &str| {
        let csv = dir.join(out_name);
        let out = cli()
            .args(base)
            .args(["--shards", shards])
            .arg("--out")
            .arg(&csv)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            std::fs::read_to_string(&csv).unwrap(),
        )
    };

    let (text, single) = run("c1.csv", "1");
    assert!(text.contains("churn:"), "{text}");
    assert!(text.contains("local repairs"), "{text}");
    // The run applied churn and the ledger columns carry its cost.
    let header = single.lines().next().unwrap();
    assert!(header.ends_with("drop_departed,churn_rate,repair_cost,staleness_ticks"));
    let row: Vec<&str> = single.lines().nth(1).unwrap().split(',').collect();
    assert_eq!(row[25], "0.05", "{single}");
    assert_ne!(row[26], "0", "churn without repair cost: {single}");

    let (_, sharded) = run("c4.csv", "4");
    assert_eq!(
        single, sharded,
        "churn runs must stay byte-identical across shard counts"
    );

    // Churn maintenance only drives backbone routing.
    let out = cli()
        .args(base)
        .args(["--policy", "greedy"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --policy backbone"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_fails_cleanly() {
    // No command.
    let out = cli().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Unknown command.
    let out = cli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing flag value.
    let out = cli().args(["generate", "--n"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing value"));

    // Unknown flag: a typo must not be silently ignored.
    let out = cli()
        .args(["generate", "--n", "30", "--side", "100", "--radius", "40"])
        .args(["--out", "/nonexistent/n.csv", "--bogus", "3"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`generate` does not take --bogus"), "{err}");
    assert!(err.contains("usage"), "{err}");

    // A real flag on a command that never reads it.
    let out = cli()
        .args([
            "route",
            "--nodes",
            "/nonexistent/nodes.csv",
            "--radius",
            "10",
        ])
        .args(["--from", "0", "--to", "1", "--distributed"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`route` does not take --distributed"), "{err}");

    // Nonexistent nodes file.
    let out = cli()
        .args([
            "build",
            "--nodes",
            "/nonexistent/nodes.csv",
            "--radius",
            "10",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Shard counts out of range are refused before the deployment is
    // read (the nodes file does not exist), let alone an engine started.
    for shards in ["0", "1025", "100000"] {
        let out = cli()
            .args([
                "traffic",
                "--nodes",
                "/nonexistent/nodes.csv",
                "--radius",
                "10",
            ])
            .args(["--shards", shards])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "--shards {shards}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("shards must be in 1..=1024"), "{err}");
    }

    // Unknown topology, including the removed cone graphs: the error
    // lists the valid names.
    let dir = tempdir("usage");
    let nodes = dir.join("n.csv");
    std::fs::write(&nodes, "0,0\n1,0\n").unwrap();
    for topology in ["zelda", "yao"] {
        let out = cli()
            .args(["render", "--nodes"])
            .arg(&nodes)
            .args([
                "--radius",
                "5",
                "--topology",
                topology,
                "--out",
                "/tmp/x.svg",
            ])
            .output()
            .unwrap();
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown topology `{topology}`")));
        assert!(
            err.contains(
                "(valid topologies: udg, rng, gabriel, rdg, ldel, cds, ldel-icds, ldel-icds-prime)"
            ),
            "{err}"
        );
    }

    // Inverted watermarks leave no congested band to enter; equal ones
    // are legal.
    let out = cli()
        .args(["traffic", "--nodes"])
        .arg(&nodes)
        .args([
            "--radius",
            "5",
            "--high-watermark",
            "4",
            "--low-watermark",
            "9",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--low-watermark 9 is above --high-watermark 4"),
        "{err}"
    );

    // A flag whose enabling flag is absent is refused, naming both.
    for (flags, want) in [
        (
            &["--low-watermark", "2"][..],
            "--low-watermark needs --high-watermark",
        ),
        (
            &["--backoff-factor", "2"][..],
            "--backoff-factor needs --high-watermark",
        ),
        (
            &["--admit-burst", "3"][..],
            "--admit-burst needs --admit-ticks",
        ),
        (
            &["--retries", "0", "--ack-timeout", "5"][..],
            "--ack-timeout needs --retries > 0",
        ),
        (&["--quantum", "2"][..], "--quantum needs --discipline drr"),
    ] {
        let out = cli()
            .args(["traffic", "--nodes"])
            .arg(&nodes)
            .args(["--radius", "5"])
            .args(flags)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{flags:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(want), "{flags:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_csv_rejected() {
    let dir = tempdir("malformed");
    let nodes = dir.join("bad.csv");
    std::fs::write(&nodes, "0,0\nnot-a-number,3\n").unwrap();
    let out = cli()
        .args(["build", "--nodes"])
        .arg(&nodes)
        .args(["--radius", "5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad coordinate"));
    std::fs::remove_dir_all(&dir).ok();
}
