//! The rule table and the one per-file rule (D06).
//!
//! D06 is a token-pattern check over the [`crate::lexer`] output, scoped
//! by the test regions the [`crate::parser`] recovers. The cross-file
//! rules (D08–D10) live in [`crate::xrules`]. The rules are deliberately
//! conservative heuristics: they know nothing about types, only about
//! names and shapes — which is exactly what the project's conventions
//! are written in terms of. Everything clippy or a type can check
//! instead lives in `clippy.toml` and `cargo clippy-lib` (DESIGN.md
//! §13); these four rules are the ones clippy cannot express. They have
//! no suppression syntax: the workspace is clean.

use crate::lexer::{Tok, TokKind};
use crate::parser::{parse, ParsedFile};

/// A single lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`D06`, `D08`, `D09` or `D10`).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// The trimmed source line the finding sits on.
    pub snippet: String,
    /// Human-readable explanation.
    pub message: String,
}

/// Rule metadata: a one-line summary for `--list-rules` and the longer
/// rationale behind `--explain <RULE>`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule id (`D06`, `D08`, `D09` or `D10`).
    pub id: &'static str,
    /// One-line summary of what the rule matches.
    pub summary: &'static str,
    /// Why the rule exists — the invariant it protects.
    pub rationale: &'static str,
}

/// The rule table, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D06",
        summary: "node-id-keyed BTreeMap<usize, _>/BTreeSet<usize> in a construction \
                  crate: the hot path uses flat arenas (VecMap/VecSet from geospan-graph) \
                  with identical ascending iteration; BTree stays only where a non-usize \
                  key (pair/triple/tuple) encodes message-emission order",
        rationale: "PR 7 moved the million-node construction path to flat index-keyed \
                    arenas; a node-id-keyed BTree reintroduces pointer-chasing and \
                    per-node allocation on exactly the structures the arena refactor \
                    flattened. VecMap/VecSet iterate in the same ascending order, so the \
                    swap is behavior-preserving.",
    },
    RuleInfo {
        id: "D08",
        summary: "DropCause ledger coupling: every variant needs a DropCounts field, an \
                  accounting site in engine.rs/shard.rs, and a drops.<field> CSV column \
                  in crates/bench/src (and no orphan DropCounts fields)",
        rationale: "The conservation ledger (offered == delivered + drops.total() + \
                    refused) is the engine's ground truth, and every PR that adds a drop \
                    cause must extend three files in lockstep. A variant missing its \
                    field, accounting site, or CSV column silently under-reports drops — \
                    the ledger still balances, so no runtime check catches it. Only a \
                    cross-file structural check can.",
    },
    RuleInfo {
        id: "D09",
        summary: "RNG seed taint: from_entropy/thread_rng/rand::random banned; \
                  seed_from_u64/from_seed arguments must be a named seed, a literal, or \
                  a fn parameter that provably receives one (one level of indirection)",
        rationale: "Bit-identical replay requires every RNG to be a pure function of \
                    configuration. An RNG seeded from OS entropy — or from a helper \
                    parameter nobody can trace back to a seed — makes a run \
                    unreproducible in a way that only shows up when someone tries to \
                    replay a failure. Seeds must be visibly named at the construction \
                    site or one hop away.",
    },
    RuleInfo {
        id: "D10",
        summary: "phase confinement: engine shared state (queues, heaps, store, ledger \
                  counters) mutated only inside phase_local/phase_merge or helpers \
                  reachable from them in engine.rs/shard.rs",
        rationale: "PR 8's shard byte-identity proof rests on the tick being exactly \
                    four canonical phases: arrivals, retries, service completions, merge. \
                    A mutation reachable from anywhere else (driver loops, aggregation, \
                    accessors) executes at a point the proof never ordered, so any shard \
                    or thread count could observe a different interleaving. The rule \
                    makes the proof's premise structural.",
    },
];

/// Crates whose construction hot path is arena-backed (rule D06). Paths
/// are workspace-relative with forward slashes; only library code under
/// `src/` is checked, so tests and benches may use any container.
const D06_CRATES: &[&str] = &[
    "crates/geometry/src/",
    "crates/graph/src/",
    "crates/topology/src/",
    "crates/cds/src/",
];

/// Runs the per-file rule (D06) over one file's source. The cross-file
/// rules (D08–D10) need the whole workspace — see
/// [`crate::analyze_sources`].
pub fn check_source(path: &str, src: &str) -> Vec<Finding> {
    check_file(&parse(path, src))
}

/// Runs the per-file rule (D06) over one parsed file.
pub fn check_file(pf: &ParsedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    rule_d06(pf, &mut findings);
    findings
}

/// D06: node-id-keyed `BTreeMap<usize, _>` / `BTreeSet<usize>` in the
/// arena-backed construction crates. Matches the literal token shapes
/// `BTreeSet < usize >` and `BTreeMap < usize ,` — the order-load-bearing
/// survivors are keyed by pairs, triples, or tuples and never match.
fn rule_d06(pf: &ParsedFile, out: &mut Vec<Finding>) {
    if !D06_CRATES.iter().any(|c| pf.path.starts_with(c)) {
        return;
    }
    let toks: &[Tok] = &pf.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || pf.in_test(t.line) {
            continue;
        }
        let (name, closer) = match t.text.as_str() {
            "BTreeSet" => ("BTreeSet<usize>", ">"),
            "BTreeMap" => ("BTreeMap<usize, _>", ","),
            _ => continue,
        };
        let keyed_by_node_id = toks.get(i + 1).map(|u| u.text.as_str()) == Some("<")
            && toks.get(i + 2).map(|u| u.text.as_str()) == Some("usize")
            && toks.get(i + 3).map(|u| u.text.as_str()) == Some(closer);
        if keyed_by_node_id {
            out.push(Finding {
                rule: "D06",
                path: pf.path.clone(),
                line: t.line,
                snippet: pf.snippet(t.line),
                message: format!(
                    "`{name}` keyed by node id in a construction crate: use VecSet/VecMap \
                     from geospan-graph (same ascending iteration, flat storage)"
                ),
            });
        }
    }
}
