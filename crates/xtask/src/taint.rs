//! Rule R5: panic reachability from decoder-tainted input.
//!
//! Taint is seeded at the functions that first touch untrusted bytes or
//! arguments — codec entry points (`decompress*`, anything containing
//! `decode`), container/stream/table readers (`read_*`, `load*`, `open*`,
//! `parse_*`, `from_*`, `unpack*`), and *every* function in the scope seeds
//! (the CLI, which consumes argv and arbitrary files, plus the autotune and
//! periodic modules the ROADMAP called out). Taint then propagates along
//! call-graph edges, callee-direction, to a fixed point. Any panicking
//! construct or unchecked input-buffer index inside a tainted function is a
//! finding, reported with the full call path from the seeding entry point.
//!
//! The analysis is an over-approximation (name-based call resolution, no
//! trait-object narrowing, macros other than the panic set are opaque);
//! deliberate invariants are suppressed at the hazard site with
//! `xtask-allow: R5 -- reason`, which keeps every exception auditable.

use crate::callgraph::{self, Graph};
use crate::items::FnItem;
use std::collections::VecDeque;

/// Function-name patterns that seed taint (prefix match).
const SEED_PREFIXES: &[&str] = &["read_", "load", "open", "parse_", "from_", "unpack"];

/// Function-name substrings that seed taint anywhere in the name
/// (`decompress_plain`, `multi_decode`, `decode_block`, …).
const SEED_SUBSTRINGS: &[&str] = &["decompress", "decode"];

/// Path prefixes where *every* function is a taint seed: these modules'
/// inputs are untrusted end to end (CLI argv/files) or were named by the
/// ROADMAP as needing whole-module coverage.
const SEED_SCOPES: &[&str] = &[
    "crates/cli/src/",
    "crates/core/src/autotune.rs",
    "crates/core/src/periodic.rs",
    "crates/store/src/",
    "crates/storage/src/",
    "crates/serve/src/",
];

/// Crates exempt from R5: the linter itself, the bench harness (dev
/// tooling that may panic on broken experiment setups by design), and the
/// loom model checker (its scheduler panics — deadlock detection, state
/// explosion caps — are its reporting mechanism, and name-based call
/// resolution would otherwise thread decode taint through `lock`).
const EXEMPT: &[&str] = &["crates/xtask/", "crates/bench/", "crates/loom/"];

/// An R5 finding, pre-suppression.
#[derive(Debug)]
pub struct TaintFinding {
    pub file: String,
    pub line: usize,
    pub message: String,
}

fn is_product(file: &str) -> bool {
    !EXEMPT.iter().any(|p| file.starts_with(p))
}

fn is_seed(file: &str, item: &FnItem) -> bool {
    if !is_product(file) {
        return false;
    }
    if SEED_SCOPES.iter().any(|p| file.starts_with(p)) {
        return true;
    }
    SEED_PREFIXES.iter().any(|p| item.name.starts_with(p))
        || SEED_SUBSTRINGS.iter().any(|s| item.name.contains(s))
}

/// Runs the reachability pass over per-file item lists and returns every
/// hazard inside a tainted function in a product crate. Deterministic:
/// multi-source BFS in node-index order, so each finding reports the
/// shortest call path (ties broken by source order).
pub fn analyze(files: &[(String, Vec<FnItem>)]) -> Vec<TaintFinding> {
    let graph: Graph = callgraph::build(files);
    let n = graph.nodes.len();

    // parent[v] = predecessor node on the BFS path (usize::MAX for seeds).
    let mut parent = vec![usize::MAX; n];
    let mut reached = vec![false; n];
    let mut queue = VecDeque::new();
    for (idx, node) in graph.nodes.iter().enumerate() {
        if is_seed(node.file, node.item) {
            reached[idx] = true;
            queue.push_back(idx);
        }
    }
    while let Some(u) = queue.pop_front() {
        for e in &graph.edges[u] {
            if !reached[e.callee] {
                reached[e.callee] = true;
                parent[e.callee] = u;
                queue.push_back(e.callee);
            }
        }
    }

    let mut findings = Vec::new();
    for (idx, node) in graph.nodes.iter().enumerate() {
        if !reached[idx] || !is_product(node.file) || node.item.hazards.is_empty() {
            continue;
        }
        // Rebuild the seed → hazard-function call path.
        let mut path = vec![idx];
        let mut v = idx;
        while parent[v] != usize::MAX {
            v = parent[v];
            path.push(v);
        }
        path.reverse();
        let chain = path
            .iter()
            .map(|&p| graph.nodes[p].item.name.as_str())
            .collect::<Vec<_>>()
            .join(" → ");
        for h in &node.item.hazards {
            findings.push(TaintFinding {
                file: node.file.to_string(),
                line: h.line,
                message: format!(
                    "{} reachable from decode-tainted input (path: {chain})",
                    h.construct
                ),
            });
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{self, Lines};

    fn items_of(src: &str) -> Vec<FnItem> {
        let lexed = lexer::strip(src);
        let active = lexer::blank_test_items(&lexed.code);
        let lines = Lines::new(&active);
        crate::items::parse_items(&active, &lines)
    }

    #[test]
    fn taint_crosses_files_and_reports_path() {
        let files = vec![
            (
                "crates/a/src/lib.rs".to_string(),
                items_of("pub fn decompress_blob(buf: &[u8]) { step(buf); }\n"),
            ),
            (
                "crates/b/src/lib.rs".to_string(),
                items_of("pub fn step(buf: &[u8]) { leaf(buf); }\npub fn leaf(buf: &[u8]) -> u8 { buf[0] }\n"),
            ),
        ];
        let f = analyze(&files);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].file, "crates/b/src/lib.rs");
        assert!(
            f[0].message.contains("path: decompress_blob → step → leaf"),
            "got: {}",
            f[0].message
        );
    }

    #[test]
    fn untainted_code_is_clean() {
        let files = vec![(
            "crates/a/src/lib.rs".to_string(),
            items_of(
                "pub fn encode_only(v: &[f32]) -> usize { v.len().checked_mul(2).unwrap() }\n",
            ),
        )];
        assert!(analyze(&files).is_empty());
    }

    #[test]
    fn exempt_crates_do_not_report() {
        let files = vec![(
            "crates/bench/src/main.rs".to_string(),
            items_of("pub fn decode_report(buf: &[u8]) -> u8 { buf[0] }\n"),
        )];
        assert!(analyze(&files).is_empty());
    }
}
