//! Per-rule positive/negative fixtures for the structural lint.
//!
//! Each rule gets at least one source string it must flag and one
//! shaped-alike string it must not. The retired rules' fixtures live in
//! `crates/analyze/clippy-fixtures/`, where clippy rejects them.

use geospan_analyze::{analyze_sources, check_source, Finding};

// ---------------------------------------------------------------- D06

#[test]
fn d06_flags_node_id_keyed_btrees_in_construction_crates() {
    let src = r#"
use std::collections::{BTreeMap, BTreeSet};
pub struct NodeState {
    neighbors: BTreeSet<usize>,
    positions: BTreeMap<usize, (f64, f64)>,
}
"#;
    let findings = check_source("crates/topology/src/fixture.rs", src);
    let d06 = findings.iter().filter(|f| f.rule == "D06").count();
    assert_eq!(d06, 2, "{findings:?}");
}

#[test]
fn d06_ignores_tuple_keys_and_non_construction_crates() {
    // Pair/triple keys encode message-emission order and never match.
    let src = r#"
use std::collections::{BTreeMap, BTreeSet};
pub struct NodeState {
    edges: BTreeSet<(usize, usize)>,
    votes: BTreeMap<[usize; 3], u32>,
    winners: BTreeMap<(usize, usize), Vec<usize>>,
}
"#;
    assert!(check_source("crates/cds/src/fixture.rs", src).is_empty());

    // Node-id keys outside the construction crates are not D06's business.
    let src = r#"
use std::collections::BTreeSet;
pub struct Flows {
    active: BTreeSet<usize>,
}
"#;
    assert!(check_source("crates/traffic/src/fixture.rs", src).is_empty());
}

#[test]
fn d06_ignores_test_code() {
    let src = r#"
#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    pub struct Oracle {
        neighbors: BTreeSet<usize>,
    }
}
"#;
    assert!(check_source("crates/graph/src/fixture.rs", src).is_empty());
}

#[test]
fn violations_inside_string_literals_are_not_flagged() {
    let src = r#"
pub fn ok() -> &'static str {
    "StdRng::from_entropy() BTreeSet<usize>"
}
"#;
    assert!(check_source("crates/graph/src/fixture.rs", src).is_empty());
}

// --------------------------------------------------- cross-file helpers

/// Lints a synthetic multi-file workspace through the full pipeline
/// (D06 + D08–D10).
fn workspace(files: &[(&str, &str)]) -> Vec<Finding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    analyze_sources(&owned)
}

// ---------------------------------------------------------------- D08

/// A fully coupled two-cause ledger: every variant has a field, an
/// accounting site in the engine, and a CSV column in the bench writer.
const D08_REPORT_OK: &str = r#"
pub enum DropCause {
    Stuck,
    QueueFull,
}
pub struct DropCounts {
    pub stuck: u64,
    pub queue_full: u64,
}
impl DropCounts {
    pub fn record(&mut self, c: DropCause) {
        match c {
            DropCause::Stuck => self.stuck += 1,
            DropCause::QueueFull => self.queue_full += 1,
        }
    }
}
"#;

const D08_ENGINE_OK: &str = r#"
pub fn account(drops: &mut DropCounts, full: bool) {
    if full {
        drops.record(DropCause::QueueFull);
    } else {
        drops.record(DropCause::Stuck);
    }
}
"#;

const D08_BENCH_OK: &str = r#"
pub fn csv_row(r: &TrafficReport) -> String {
    format!("{},{}", r.drops.stuck, r.drops.queue_full)
}
"#;

fn d08_workspace(report: &str, engine: &str, bench: &str) -> Vec<Finding> {
    workspace(&[
        ("crates/traffic/src/report.rs", report),
        ("crates/traffic/src/engine.rs", engine),
        ("crates/bench/src/traffic.rs", bench),
    ])
}

#[test]
fn d08_fully_coupled_ledger_is_clean() {
    let fs = d08_workspace(D08_REPORT_OK, D08_ENGINE_OK, D08_BENCH_OK);
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn d08_flags_variant_with_no_field_accounting_column_or_match_arm() {
    // A freshly added cause with nothing wired up yet: four findings
    // (missing DropCounts field, missing engine accounting site,
    // missing bench CSV column, uncovered match arm in record()).
    let report = D08_REPORT_OK.replacen("    QueueFull,\n}", "    QueueFull,\n    LinkLoss,\n}", 1);
    let fs = d08_workspace(&report, D08_ENGINE_OK, D08_BENCH_OK);
    assert_eq!(fs.len(), 4, "{fs:?}");
    assert!(fs.iter().all(|f| f.rule == "D08"), "{fs:?}");
    assert!(
        fs.iter()
            .all(|f| f.message.contains("LinkLoss") || f.message.contains("link_loss")),
        "{fs:?}"
    );
}

#[test]
fn d08_flags_orphan_dropcounts_field() {
    let report = D08_REPORT_OK.replacen(
        "    pub queue_full: u64,\n}",
        "    pub queue_full: u64,\n    pub ghost: u64,\n}",
        1,
    );
    let fs = d08_workspace(&report, D08_ENGINE_OK, D08_BENCH_OK);
    assert_eq!(fs.len(), 1, "{fs:?}");
    assert_eq!(fs[0].rule, "D08");
    assert!(fs[0].message.contains("ghost"), "{}", fs[0].message);
    assert!(
        fs[0].message.contains("matches no DropCause variant"),
        "{}",
        fs[0].message
    );
}

#[test]
fn d08_flags_missing_bench_column_alone() {
    let bench = r#"
pub fn csv_row(r: &TrafficReport) -> String {
    format!("{}", r.drops.stuck)
}
"#;
    let fs = d08_workspace(D08_REPORT_OK, D08_ENGINE_OK, bench);
    assert_eq!(fs.len(), 1, "{fs:?}");
    assert!(
        fs[0].message.contains("drops.queue_full"),
        "{}",
        fs[0].message
    );
}

#[test]
fn d08_match_with_wildcard_arm_is_exempt_from_coverage() {
    let report = r#"
pub enum DropCause {
    Stuck,
    QueueFull,
}
pub struct DropCounts {
    pub stuck: u64,
    pub queue_full: u64,
}
impl DropCounts {
    pub fn is_congestion(c: DropCause) -> bool {
        match c {
            DropCause::QueueFull => true,
            _ => false,
        }
    }
    pub fn record(&mut self, c: DropCause) {
        match c {
            DropCause::Stuck => self.stuck += 1,
            DropCause::QueueFull => self.queue_full += 1,
        }
    }
}
"#;
    let fs = d08_workspace(report, D08_ENGINE_OK, D08_BENCH_OK);
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn d08_is_silent_without_the_anchor_file() {
    // The same enum/struct under any other path is not the ledger.
    let fs = workspace(&[("crates/sim/src/report.rs", D08_REPORT_OK)]);
    assert!(fs.is_empty(), "{fs:?}");
}

// ---------------------------------------------------------------- D09

#[test]
fn d09_flags_entropy_and_thread_local_rng_sources() {
    let src = r#"
pub fn bad() -> u32 {
    let _rng = StdRng::from_entropy();
    rand::random()
}
"#;
    let fs = workspace(&[("crates/sim/src/fixture.rs", src)]);
    let d09 = fs.iter().filter(|f| f.rule == "D09").count();
    assert_eq!(d09, 2, "{fs:?}");
}

#[test]
fn d09_flags_unproven_seed_arguments() {
    // A value with no "seed" in its name and no provable flow.
    let src = r#"
pub fn bad(count: u64) -> u64 {
    let _r = StdRng::seed_from_u64(count * 31);
    count
}
"#;
    let fs = workspace(&[("crates/sim/src/fixture.rs", src)]);
    assert_eq!(fs.len(), 1, "{fs:?}");
    assert_eq!(fs[0].rule, "D09");

    // One level of indirection, but a call site passes a non-seed.
    let src = r#"
pub fn make(x: u64) -> StdRng {
    StdRng::seed_from_u64(x)
}
pub fn caller(ticks: u64) -> StdRng {
    make(ticks)
}
"#;
    let fs = workspace(&[("crates/sim/src/fixture.rs", src)]);
    assert_eq!(fs.len(), 1, "{fs:?}");
    assert_eq!(fs[0].rule, "D09");
    assert!(fs[0].message.contains("unproven"), "{}", fs[0].message);
}

#[test]
fn d09_accepts_named_seeds_literals_and_constant_mixes() {
    let src = r#"
pub fn ok(cfg: Config) -> (StdRng, StdRng, StdRng) {
    let a = StdRng::seed_from_u64(cfg.rng_seed);
    let b = StdRng::seed_from_u64(42);
    let c = StdRng::seed_from_u64(cfg.rng_seed ^ 0x9e3779b9);
    (a, b, c)
}
"#;
    let fs = workspace(&[("crates/sim/src/fixture.rs", src)]);
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn d09_proves_seed_flow_through_one_helper_level() {
    let src = r#"
pub fn make(x: u64) -> StdRng {
    StdRng::seed_from_u64(x)
}
pub fn run(seed: u64) -> (StdRng, StdRng) {
    (make(seed), make(seed + 1))
}
"#;
    let fs = workspace(&[("crates/sim/src/fixture.rs", src)]);
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn d09_ignores_entropy_in_test_code() {
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn entropy_is_fine_in_tests() {
        let _rng = StdRng::from_entropy();
    }
}
"#;
    let fs = workspace(&[("crates/sim/src/fixture.rs", src)]);
    assert!(fs.is_empty(), "{fs:?}");
}

// ---------------------------------------------------------------- D10

#[test]
fn d10_flags_container_mutation_outside_the_phase_call_tree() {
    let src = r#"
pub struct Core {
    queue: Vec<u32>,
    done: Vec<u32>,
}
impl Core {
    pub fn phase_local(&mut self) {
        self.step();
    }
    fn step(&mut self) {
        self.queue.push(1);
    }
    fn sneaky(&mut self) {
        self.done.push(2);
    }
}
"#;
    let fs = workspace(&[("crates/traffic/src/engine.rs", src)]);
    assert_eq!(fs.len(), 1, "{fs:?}");
    assert_eq!(fs[0].rule, "D10");
    assert!(fs[0].message.contains("sneaky"), "{}", fs[0].message);
    assert!(fs[0].message.contains("done"), "{}", fs[0].message);
}

#[test]
fn d10_flags_ledger_counter_increment_outside_the_phases() {
    let src = r#"
pub struct Core {
    rounds: u64,
}
impl Core {
    pub fn phase_merge(&mut self) {
        self.rounds += 1;
    }
    fn audit(&mut self) {
        self.rounds += 1;
    }
}
"#;
    let fs = workspace(&[("crates/traffic/src/shard.rs", src)]);
    assert_eq!(fs.len(), 1, "{fs:?}");
    assert_eq!(fs[0].rule, "D10");
    assert!(
        fs[0].message.contains("ledger counter `rounds`"),
        "{}",
        fs[0].message
    );
    assert!(fs[0].message.contains("audit"), "{}", fs[0].message);
}

#[test]
fn d10_blesses_helpers_reachable_from_the_phase_fns() {
    let src = r#"
pub struct Core {
    queue: Vec<u32>,
    retries: Vec<u32>,
    events: u64,
}
impl Core {
    pub fn phase_local(&mut self) {
        self.service();
    }
    fn service(&mut self) {
        self.retry();
        self.queue.pop();
    }
    fn retry(&mut self) {
        self.retries.push(7);
        self.events += 1;
    }
}
"#;
    let fs = workspace(&[("crates/traffic/src/engine.rs", src)]);
    assert!(fs.is_empty(), "{fs:?}");
}

#[test]
fn d10_ignores_non_engine_files_locals_and_test_code() {
    // The same unblessed mutation outside the engine files is not
    // D10's business.
    let rogue = r#"
pub struct Core {
    done: Vec<u32>,
}
impl Core {
    fn sneaky(&mut self) {
        self.done.push(2);
    }
}
"#;
    let fs = workspace(&[("crates/sim/src/engine.rs", rogue)]);
    assert!(fs.is_empty(), "{fs:?}");

    // A local named like a ledger counter (no field `.` prefix) and
    // mutations inside engine test code are both fine.
    let src = r#"
pub struct Core {
    done: Vec<u32>,
}
impl Core {
    pub fn phase_local(&mut self) {}
    fn tally(&self) -> u64 {
        let mut rounds = 0;
        rounds += 1;
        rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn probe() {
        let mut c = Core { done: Vec::new() };
        c.done.push(3);
    }
}
"#;
    let fs = workspace(&[("crates/traffic/src/engine.rs", src)]);
    assert!(fs.is_empty(), "{fs:?}");
}
