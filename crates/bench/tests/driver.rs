//! The `geospan-bench` driver end to end: bad input exits non-zero with
//! a message and the usage, never a panic; a good run writes its
//! artifacts to `--out`.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_geospan-bench"))
        .args(args)
        .output()
        .expect("spawn geospan-bench")
}

#[test]
fn bad_input_exits_nonzero_with_a_message_and_no_panic() {
    for (args, msg) in [
        (&["table2"][..], "unknown experiment `table2`"),
        (&["table1", "--fast"], "unknown flag `--fast`"),
        (&["table1", "--quick"], "table1 does not take --quick"),
        (&["table1", "--trials"], "--trials needs a value"),
        (&["table1", "--seed", "x"], "--seed: invalid value `x`"),
        (&["table1", "--trials", "0"], "--trials: invalid value `0`"),
        (
            &["traffic_load", "--reps", "2"],
            "traffic_load does not take --reps",
        ),
        (
            &["traffic_scale", "--reps", "-1"],
            "--reps: invalid value `-1`",
        ),
        (&["table1", "--out"], "--out needs a value"),
        (&[], "no experiment given"),
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(stderr.contains(msg), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: geospan-bench"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn artifacts_go_to_the_out_directory() {
    let dir = std::env::temp_dir().join(format!("geospan-bench-driver-{}", std::process::id()));
    let out = run(&[
        "traffic_load",
        "--quick",
        "--check",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(dir.join("traffic_load.csv")).unwrap();
    assert!(csv.starts_with("topology,policy,load,"));
    assert!(String::from_utf8_lossy(&out.stdout).contains("check passed"));
    std::fs::remove_dir_all(&dir).ok();
}
