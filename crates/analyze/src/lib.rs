//! `geospan-analyze` — the workspace's structural lint.
//!
//! Every artifact this reproduction ships (Table-1 rows, the figure
//! CSVs, the traffic CSVs) is contractually byte-identical across runs
//! and thread counts. Most of the conventions that protect that are
//! clippy's job: `clippy.toml` bans hash collections, wall clocks, raw
//! threads and `partial_cmp`, and `cargo clippy-lib` adds the panic and
//! unwrap restriction lints (DESIGN.md §13). This crate keeps the four
//! rules clippy cannot express, because they are about how *this*
//! workspace's files fit together — see [`rules::RULES`].
//!
//! The pass is layered: [`lexer`] (tokens) → [`parser`] (item tree: fns
//! with bodies, enums, structs, match arms, test regions) → rule passes:
//! the per-file rule D06 in [`rules`] and the cross-file coupling rules
//! D08–D10 in [`xrules`], which see the whole workspace at once.

pub mod lexer;
pub mod parser;
pub mod rules;
pub mod xrules;

use std::fs;
use std::path::{Path, PathBuf};

pub use rules::{check_source, Finding, RuleInfo, RULES};

/// Directories never scanned, at any depth.
const SKIP_DIRS: &[&str] = &[
    "target", "stubs", ".git",
    // Test/bench/example trees: the determinism contract is about
    // library and binary code.
    "tests", "benches", "examples",
];

/// Collects the workspace `.rs` files subject to the lint, relative to
/// `root`: every `crates/*/src/**` tree plus the root package `src/`.
///
/// # Errors
/// Returns an IO error message when a directory walk fails.
pub fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = read_dir_sorted(&crates_dir)?
            .into_iter()
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                walk(&src, &mut out)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk(&root_src, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut entries = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        entries.push(entry.path());
    }
    entries.sort();
    Ok(entries)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for path in read_dir_sorted(dir)? {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints a set of `(path, source)` pairs as one workspace: the
/// per-file rule plus the cross-file coupling rules (D08–D10).
/// Findings come back sorted by path, line, rule.
///
/// This is the whole pipeline behind [`analyze_workspace`], exposed so
/// tests can lint synthetic workspaces (and mutated copies of real
/// files) without touching the filesystem.
pub fn analyze_sources(files: &[(String, String)]) -> Vec<Finding> {
    let parsed: Vec<parser::ParsedFile> = files
        .iter()
        .map(|(path, src)| parser::parse(path, src))
        .collect();
    let mut findings: Vec<Finding> = parsed.iter().flat_map(rules::check_file).collect();
    findings.extend(xrules::check_workspace(&parsed));
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings
}

/// Lints the whole workspace under `root` and returns its findings,
/// sorted by path, line, rule.
///
/// # Errors
/// Returns an IO error message when a file cannot be read.
pub fn analyze_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    for file in workspace_files(root)? {
        let src = fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, src));
    }
    Ok(analyze_sources(&files))
}
