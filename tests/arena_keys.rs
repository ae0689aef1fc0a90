//! The construction crates key per-node state by arena, not by BTree.
//!
//! geometry, graph, topology and cds keep per-node sets and maps in
//! `VecSet` / `VecMap` (`geospan_graph::collections`): the same
//! ascending iteration as `BTreeSet<usize>` / `BTreeMap<usize, _>`,
//! in flat storage. A BTree stays only where a pair, triple or tuple
//! key encodes an order. Test code may use anything.

use std::path::{Path, PathBuf};

const CRATES: [&str; 4] = ["geometry", "graph", "topology", "cds"];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `(line, text)` of every node-keyed BTree in `src`, outside `//`
/// comments and `#[cfg(test)]` items.
fn node_keyed_btrees(src: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    // Inside a `#[cfg(test)]` item: its brace depth, once it opened one.
    let mut test_item: Option<Option<usize>> = None;
    for (i, line) in src.lines().enumerate() {
        let mut code = line.split("//").next().unwrap_or_default();
        if test_item.is_none() {
            if let Some(rest) = code.trim_start().strip_prefix("#[cfg(test)]") {
                test_item = Some(None);
                code = rest;
            }
        }
        if let Some(depth) = test_item.as_mut() {
            for c in code.chars() {
                match c {
                    '{' => *depth = Some(depth.unwrap_or(0) + 1),
                    '}' => *depth = depth.map(|d| d - 1),
                    _ => {}
                }
            }
            let item_ended = match *depth {
                Some(d) => d == 0,
                None => code.trim_end().ends_with(';'),
            };
            if item_ended {
                test_item = None;
            }
            continue;
        }
        let squashed: String = code.chars().filter(|c| !c.is_whitespace()).collect();
        if squashed.contains("BTreeSet<usize>") || squashed.contains("BTreeMap<usize,") {
            found.push((i + 1, line.trim().to_string()));
        }
    }
    found
}

#[test]
fn construction_crates_key_nodes_by_arena() {
    let sample = "use std::collections::BTreeMap;\n\
                  // BTreeSet<usize> in a comment\n\
                  #[cfg(test)]\n\
                  fn oracle() -> BTreeSet<usize> {\n    BTreeSet::new()\n}\n\
                  #[cfg(test)]\n\
                  use std::collections::BTreeSet;\n\
                  pub fn ranks() -> BTreeMap< usize, u32 > {\n    BTreeMap::new()\n}\n";
    assert_eq!(
        node_keyed_btrees(sample),
        [(9, "pub fn ranks() -> BTreeMap< usize, u32 > {".into())]
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for name in CRATES {
        rust_files(&root.join("crates").join(name).join("src"), &mut files);
    }
    files.sort();
    assert!(files.len() > 20, "only {} source files found", files.len());
    let mut offenders = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(file).unwrap();
        for (line, text) in node_keyed_btrees(&src) {
            let rel = file.strip_prefix(root).unwrap_or(file).display();
            offenders.push(format!("{rel}:{line}: {text}"));
        }
    }
    assert!(
        offenders.is_empty(),
        "node-keyed BTree in a construction crate; use VecSet / VecMap from \
         geospan_graph::collections:\n{}",
        offenders.join("\n")
    );
}
