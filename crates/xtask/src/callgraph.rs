//! Cross-crate call graph over the parsed `fn` items.
//!
//! Resolution is *name-based*: a call site `helper(..)` or `x.helper(..)`
//! gets an edge to every workspace function named `helper`, in any crate.
//! That is deliberately conservative — without type information we cannot
//! tell which impl a method call lands on (no trait-object resolution), so
//! the graph over-approximates reachability and R5 errs on the side of
//! reporting. Calls into `std` or external crates resolve to nothing and
//! simply drop out. See `docs/STATIC_ANALYSIS.md` for the model's limits.

use crate::items::FnItem;
use std::collections::HashMap;

/// One graph node: a function item and the workspace-relative file that
/// declares it. Node indices are stable (files in input order, items in
/// source order), so traversals are deterministic.
pub struct Node<'a> {
    pub file: &'a str,
    pub item: &'a FnItem,
}

/// An edge, annotated with the call site's line for path reporting.
#[derive(Clone, Copy)]
pub struct Edge {
    pub callee: usize,
    pub call_line: usize,
}

pub struct Graph<'a> {
    pub nodes: Vec<Node<'a>>,
    /// `edges[n]` = calls out of node `n`, in source order.
    pub edges: Vec<Vec<Edge>>,
}

/// Builds the workspace call graph from per-file item lists.
pub fn build<'a>(files: &'a [(String, Vec<FnItem>)]) -> Graph<'a> {
    let mut nodes = Vec::new();
    for (file, items) in files {
        for item in items {
            nodes.push(Node {
                file: file.as_str(),
                item,
            });
        }
    }

    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (idx, node) in nodes.iter().enumerate() {
        by_name
            .entry(node.item.name.as_str())
            .or_default()
            .push(idx);
    }

    let mut edges = Vec::with_capacity(nodes.len());
    for node in &nodes {
        let mut out: Vec<Edge> = Vec::new();
        for call in &node.item.calls {
            if let Some(targets) = by_name.get(call.callee.as_str()) {
                for &t in targets {
                    if !out.iter().any(|e| e.callee == t) {
                        out.push(Edge {
                            callee: t,
                            call_line: call.line,
                        });
                    }
                }
            }
        }
        edges.push(out);
    }
    Graph { nodes, edges }
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
    fn resolves_calls_across_files() {
        let files = vec![
            (
                "crates/a/src/lib.rs".to_string(),
                items_of("fn entry() { helper(); }\n"),
            ),
            (
                "crates/b/src/lib.rs".to_string(),
                items_of("fn helper() {}\n"),
            ),
        ];
        let g = build(&files);
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.edges[0].len(), 1);
        assert_eq!(g.nodes[g.edges[0][0].callee].item.name, "helper");
        assert!(g.edges[1].is_empty());
    }

    #[test]
    fn name_collisions_fan_out() {
        let files = vec![(
            "crates/a/src/lib.rs".to_string(),
            items_of(
                "fn entry() { x.get(0); }\nimpl A { fn get(&self) {} }\nimpl B { fn get(&self) {} }\n",
            ),
        )];
        let g = build(&files);
        assert_eq!(g.edges[0].len(), 2);
    }
}
