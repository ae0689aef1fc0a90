//! End-to-end tests of the `geospan-analyze` binary: argument errors,
//! rule explanation, and the `--check` gate against a scratch workspace.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_geospan-analyze"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Creates a scratch workspace (`crates/pkg/src/lib.rs` holding `src`)
/// under the target directory and returns its root.
fn scratch(name: &str, src: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let pkg_src = root.join("crates/pkg/src");
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("reset scratch root");
    }
    std::fs::create_dir_all(&pkg_src).expect("create scratch tree");
    std::fs::write(pkg_src.join("lib.rs"), src).expect("write scratch source");
    root
}

#[test]
fn unknown_flags_and_retired_options_are_usage_errors() {
    for flag in [
        "--frobnicate",
        "--format",
        "--baseline",
        "--write-baseline",
        "--prune-baseline",
    ] {
        let out = run(&[flag]);
        assert_eq!(out.status.code(), Some(1), "{flag}: {out:?}");
        assert!(
            stderr(&out).contains("unknown argument"),
            "{flag}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn explain_prints_the_rationale_and_rejects_unknown_rules() {
    let out = run(&["--explain", "d08"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("D08"), "{text}");
    assert!(text.contains("DropCause"), "rationale missing: {text}");

    let out = run(&["--explain", "D99"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown rule"), "{}", stderr(&out));
}

#[test]
fn list_rules_prints_exactly_the_four_structural_rules() {
    let out = run(&["--list-rules"]);
    assert_eq!(out.status.code(), Some(0));
    let ids: Vec<String> = stdout(&out)
        .lines()
        .map(|l| l.split_whitespace().next().unwrap_or_default().to_string())
        .collect();
    assert_eq!(ids, ["D06", "D08", "D09", "D10"]);
}

#[test]
fn check_exits_2_on_findings_and_0_when_clean() {
    let root = scratch(
        "cli-check-dirty",
        "pub fn f() -> StdRng { StdRng::from_entropy() }\n",
    );
    let out = run(&["--check", "--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(stdout(&out).contains("D09"), "{}", stdout(&out));

    let root = scratch(
        "cli-check-clean",
        "pub fn f(seed: u64) -> StdRng { StdRng::seed_from_u64(seed) }\n",
    );
    let out = run(&["--check", "--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}
