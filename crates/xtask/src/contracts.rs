//! Rule R8: error-bound contract audit.
//!
//! Error-bounded compression has exactly one externally meaningful
//! guarantee: every reconstructed value satisfies `|x − x'| ≤ eb`. R8
//! audits that guarantee statically, in two halves:
//!
//! * **R8a — coverage.** Every type with an `impl Compressor for X` block
//!   must be *reachable from a bound-asserting roundtrip test*: a test file
//!   that computes an absolute error (`.abs()` or `max_abs_error`) and
//!   compares it with `<=`, and that either names `X` directly or calls a
//!   product function (resolved through the workspace call graph, e.g. the
//!   `all_compressors*` rosters) whose body constructs `X`. A codec without
//!   such a test can silently ship reconstructions that violate the bound.
//!   The same obligation extends to the chunk-store read path
//!   ([`STORE_ENTRY_POINTS`]): `pack_store` / `read_region` / `read_all`
//!   re-expose reconstructed values through a second surface, so the bound
//!   must be asserted *through the store*, not only through `decompress`.
//! * **R8b — named helpers.** Quantizer/predictor/compressor code that
//!   scales an error bound (`eb * …`, `eb / …`, `… * eb`) must do so inside
//!   a function whose name mentions `eb` (`eb_step`, `residual_eb`, …).
//!   Scattered anonymous `2.0 * eb` arithmetic is where bound-accounting
//!   bugs hide; a named helper makes each derived bound auditable and
//!   greppable.
//!
//! Like the other passes this is name-based and conservative in the
//! reporting direction: call-graph reachability over-approximates, so a
//! covered codec is never flagged, while an uncovered one always is.

use crate::callgraph;
use crate::items::FnItem;
use crate::lexer::{self, ident_at, ident_starts_at, next_nonws, prev_nonws, Lines};
use std::collections::{HashMap, HashSet};

/// Crates whose code is never audited (the analyzer itself, benches, the
/// loom model checker — test-only infrastructure, not codec code).
const EXEMPT: &[&str] = &["crates/xtask/", "crates/bench/", "crates/loom/"];

/// Files where R8b (eb-scaling must live in named helpers) applies.
const EB_SCOPE: &[&str] = &[
    "crates/quant/src/",
    "crates/predict/src/",
    "crates/core/src/compressor.rs",
    "crates/core/src/pipeline.rs",
];

/// Chunk-store entry points that re-expose decompressed values. Each must
/// be reachable from a bound-asserting roundtrip test, like a `Compressor`
/// implementor. Listed as `(defining file, fn name)`; the obligation only
/// applies when the function is actually defined in the audited file set,
/// so fixture runs without the store crate stay clean.
const STORE_ENTRY_POINTS: &[(&str, &str)] = &[
    ("crates/store/src/pack.rs", "pack_store"),
    ("crates/store/src/reader.rs", "read_region"),
    ("crates/store/src/reader.rs", "read_all"),
];

/// An R8 finding, pre-suppression.
#[derive(Debug)]
pub struct ContractFinding {
    pub file: String,
    pub line: usize,
    pub message: String,
}

/// True for integration-test files (collected as *evidence*, exempt from
/// every per-file rule).
pub fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

fn exempt(rel: &str) -> bool {
    EXEMPT.iter().any(|p| rel.starts_with(p))
}

/// Runs the R8 audit over `(rel_path, source)` pairs; test files supply the
/// coverage evidence, product files supply implementors and eb arithmetic.
pub fn analyze(files: &[(String, String)]) -> Vec<ContractFinding> {
    // Lex every file once. Product files get test items blanked; test
    // files keep them (the `#[test]` fns *are* the evidence).
    struct Ctx {
        rel: String,
        raw: String,
        active: String,
        is_test: bool,
    }
    let ctxs: Vec<Ctx> = files
        .iter()
        .filter(|(rel, _)| !exempt(rel))
        .map(|(rel, source)| {
            let lexed = lexer::strip(source);
            let is_test = is_test_path(rel);
            let active = if is_test {
                lexed.code
            } else {
                lexer::blank_test_items(&lexed.code)
            };
            Ctx {
                rel: rel.clone(),
                raw: source.clone(),
                active,
                is_test,
            }
        })
        .collect();

    let mut findings = Vec::new();

    // ---- R8a: every Compressor impl must be test-covered. ----

    // Implementors: `impl Compressor for X` in product files.
    let mut implementors: Vec<(String, String, usize)> = Vec::new(); // (name, file, line)
    for ctx in ctxs.iter().filter(|c| !c.is_test) {
        let lines = Lines::new(&ctx.active);
        for (name, off) in compressor_impls(&ctx.active) {
            implementors.push((name, ctx.rel.clone(), lines.line_of(off)));
        }
    }

    // Store entry points defined in this file set carry the same coverage
    // obligation as implementors: a bound-asserting test must reach them.
    let mut entry_points: Vec<(String, String, usize)> = Vec::new(); // (name, file, line)
    for ctx in ctxs.iter().filter(|c| !c.is_test) {
        for (path, name) in STORE_ENTRY_POINTS {
            if ctx.rel != *path {
                continue;
            }
            let lines = Lines::new(&ctx.active);
            let items = crate::items::parse_items(&ctx.active, &lines);
            if let Some(it) = items.iter().find(|it| it.has_body && it.name == *name) {
                entry_points.push((name.to_string(), ctx.rel.clone(), lines.line_of(it.start)));
            }
        }
    }

    if !implementors.is_empty() || !entry_points.is_empty() {
        // Parse items everywhere; evidence files are the bound-asserting
        // test files.
        let parsed: Vec<(String, Vec<FnItem>)> = ctxs
            .iter()
            .map(|c| {
                let lines = Lines::new(&c.active);
                (c.rel.clone(), crate::items::parse_items(&c.active, &lines))
            })
            .collect();
        let graph = callgraph::build(&parsed);
        let node_file: Vec<&str> = graph.nodes.iter().map(|n| n.file).collect();
        let active_of: HashMap<&str, &str> = ctxs
            .iter()
            .map(|c| (c.rel.as_str(), c.active.as_str()))
            .collect();

        let mut covered: HashSet<&str> = HashSet::new();
        let mut covered_entries: HashSet<&str> = HashSet::new();
        for ctx in ctxs
            .iter()
            .filter(|c| c.is_test && has_bound_assert(&c.raw))
        {
            // Direct mentions in the test file itself.
            for (name, _, _) in &implementors {
                if mentions(&ctx.raw, name) {
                    covered.insert(name.as_str());
                }
            }
            for (name, _, _) in &entry_points {
                if mentions(&ctx.raw, name) {
                    covered_entries.insert(name.as_str());
                }
            }
            // Mentions in product functions reachable from the test's fns.
            let seeds: Vec<usize> = (0..graph.nodes.len())
                .filter(|&i| node_file[i] == ctx.rel)
                .collect();
            let mut seen: HashSet<usize> = seeds.iter().copied().collect();
            let mut queue: Vec<usize> = seeds;
            while let Some(n) = queue.pop() {
                for e in &graph.edges[n] {
                    if seen.insert(e.callee) {
                        queue.push(e.callee);
                    }
                }
                if node_file[n] == ctx.rel {
                    continue; // only product bodies count as constructions
                }
                let item = graph.nodes[n].item;
                if let Some(active) = active_of.get(node_file[n]) {
                    let body = &active[item.start..item.end.min(active.len())];
                    for (name, _, _) in &implementors {
                        if !covered.contains(name.as_str()) && mentions(body, name) {
                            covered.insert(name.as_str());
                        }
                    }
                    for (name, _, _) in &entry_points {
                        if !covered_entries.contains(name.as_str()) && mentions(body, name) {
                            covered_entries.insert(name.as_str());
                        }
                    }
                }
            }
        }

        for (name, file, line) in &implementors {
            if !covered.contains(name.as_str()) {
                findings.push(ContractFinding {
                    file: file.clone(),
                    line: *line,
                    message: format!(
                        "`{name}` implements `Compressor` but no roundtrip test asserting \
                         `|x - x'| <= eb` reaches it; add it to a bound-contract test"
                    ),
                });
            }
        }
        for (name, file, line) in &entry_points {
            if !covered_entries.contains(name.as_str()) {
                findings.push(ContractFinding {
                    file: file.clone(),
                    line: *line,
                    message: format!(
                        "store entry point `{name}` re-exposes reconstructed values but no \
                         test asserting `|x - x'| <= eb` reaches it; assert the bound \
                         through the store read path"
                    ),
                });
            }
        }
    }

    // ---- R8b: eb-scaling arithmetic must live in named eb helpers. ----
    for ctx in ctxs.iter().filter(|c| !c.is_test) {
        if !EB_SCOPE.iter().any(|p| ctx.rel.starts_with(p)) {
            continue;
        }
        let lines = Lines::new(&ctx.active);
        let items = crate::items::parse_items(&ctx.active, &lines);
        for off in eb_scaling_sites(&ctx.active) {
            // Innermost enclosing fn; helpers whose name mentions eb are
            // the sanctioned home for this arithmetic.
            let encl = items
                .iter()
                .filter(|it| it.has_body && off > it.body_open && off < it.end)
                .max_by_key(|it| it.start);
            if encl.is_some_and(|it| it.name.contains("eb")) {
                continue;
            }
            findings.push(ContractFinding {
                file: ctx.rel.clone(),
                line: lines.line_of(off),
                message: "error bound scaled outside a named helper; move `eb` scaling \
                          into a fn whose name mentions `eb` (e.g. `eb_step`)"
                    .to_string(),
            });
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

/// Finds `impl Compressor for X` blocks; returns `(X, offset_of_impl)`.
fn compressor_impls(active: &str) -> Vec<(String, usize)> {
    let b = active.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        if !ident_starts_at(b, i) {
            i += 1;
            continue;
        }
        let w = ident_at(b, i);
        let start = i;
        i += w.len();
        if w != "impl" {
            continue;
        }
        // Skip generics: `impl<..> Compressor for X`.
        let mut j = i;
        if let Some((k, c)) = next_nonws(b, j) {
            if c == b'<' {
                let mut depth = 0isize;
                j = k;
                while j < b.len() {
                    match b[j] {
                        b'<' => depth += 1,
                        b'>' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                j += 1;
            }
        }
        let Some((k, c)) = next_nonws(b, j) else {
            break;
        };
        if !lexer::is_ident(c) || ident_at(b, k) != "Compressor" {
            continue;
        }
        let after_trait = k + "Compressor".len();
        let Some((f, c)) = next_nonws(b, after_trait) else {
            break;
        };
        if !lexer::is_ident(c) || ident_at(b, f) != "for" {
            continue;
        }
        // Type: last path segment before the `{` / `where`.
        let mut t = f + 3;
        let mut name = String::new();
        while t < b.len() && b[t] != b'{' {
            if ident_starts_at(b, t) {
                let seg = ident_at(b, t);
                if seg == "where" {
                    break;
                }
                name = seg.to_string();
                t += seg.len();
            } else {
                t += 1;
            }
        }
        if !name.is_empty() {
            out.push((name, start));
        }
    }
    out
}

/// True when `text` contains `name` as a whole identifier token.
fn mentions(text: &str, name: &str) -> bool {
    let b = text.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(name) {
        let i = from + pos;
        let end = i + name.len();
        let left_ok = i == 0 || !lexer::is_ident(b[i - 1]);
        let right_ok = end >= b.len() || !lexer::is_ident(b[end]);
        if left_ok && right_ok {
            return true;
        }
        from = end;
    }
    false
}

/// True when a test file computes an absolute error and compares it:
/// `.abs()`/`max_abs_error` alongside a `<=` assertion.
fn has_bound_assert(raw: &str) -> bool {
    (raw.contains(".abs()") || raw.contains("max_abs_error")) && raw.contains("<=")
}

/// Byte offsets of `eb`-named identifiers adjacent to `*` or `/`.
fn eb_scaling_sites(active: &str) -> Vec<usize> {
    let b = active.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        if !ident_starts_at(b, i) {
            i += 1;
            continue;
        }
        let w = ident_at(b, i);
        let start = i;
        i += w.len();
        if w != "eb" && !w.starts_with("eb_") {
            continue;
        }
        // `eb * x`, `eb / x`, `eb *= x`.
        let after_scaled = next_nonws(b, i).is_some_and(|(_, c)| c == b'*' || c == b'/');
        // `x * self.eb`: walk the receiver chain left, then look before it.
        let mut atom = start;
        while let Some((j, c)) = prev_nonws(b, atom) {
            if c != b'.' {
                break;
            }
            let Some((k, c2)) = prev_nonws(b, j) else {
                break;
            };
            if !lexer::is_ident(c2) {
                break;
            }
            atom = k + 1 - lexer::ident_ending_at(b, k + 1).len();
        }
        let before_scaled = prev_nonws(b, atom).is_some_and(|(j, c)| {
            // Binary `*`/`/` needs a value on its left (excludes deref).
            (c == b'*' || c == b'/')
                && prev_nonws(b, j).is_some_and(|(_, p)| {
                    p.is_ascii_alphanumeric() || p == b'_' || p == b')' || p == b']'
                })
        });
        if after_scaled || before_scaled {
            out.push(start);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(files: &[(&str, &str)]) -> Vec<(String, usize, String)> {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        analyze(&owned)
            .into_iter()
            .map(|f| (f.file, f.line, f.message))
            .collect()
    }

    const COVERED_TEST: &str = "#[test]\nfn roundtrip() {\n    let c = Covered::new();\n    let err = (a - b).abs();\n    assert!(err <= eb);\n}\n";

    #[test]
    fn uncovered_impl_is_flagged_and_covered_is_not() {
        let f = findings(&[
            (
                "crates/baselines/src/two.rs",
                "pub struct Covered;\nimpl Compressor for Covered {}\n\
                 pub struct Uncovered;\nimpl Compressor for Uncovered {}\n",
            ),
            ("tests/roundtrip.rs", COVERED_TEST),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].1, 4);
        assert!(f[0].2.contains("`Uncovered`"), "{}", f[0].2);
    }

    #[test]
    fn coverage_resolves_through_roster_functions() {
        // The test never names the codec; it calls `roster()` whose body
        // constructs it — the call-graph hop must count as coverage.
        let f = findings(&[
            (
                "crates/baselines/src/codec.rs",
                "pub struct Indirect;\nimpl Compressor for Indirect {}\n",
            ),
            (
                "crates/cliz/src/lib.rs",
                "pub fn roster() -> Vec<Box<dyn Compressor>> {\n    vec![Box::new(Indirect)]\n}\n",
            ),
            (
                "tests/roundtrip.rs",
                "#[test]\nfn all() {\n    for c in roster() {\n        let err = (a - b).abs();\n        assert!(err <= eb);\n    }\n}\n",
            ),
        ]);
        assert_eq!(f, vec![], "{f:?}");
    }

    #[test]
    fn test_without_bound_assert_is_not_evidence() {
        let f = findings(&[
            (
                "crates/baselines/src/codec.rs",
                "pub struct Weak;\nimpl Compressor for Weak {}\n",
            ),
            (
                "tests/smoke.rs",
                "#[test]\nfn smoke() {\n    let c = Weak::default();\n    assert!(c.name().len() > 0);\n}\n",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn store_entry_point_without_bound_test_is_flagged() {
        // read_region is defined but the only test is a shape smoke test —
        // no `.abs()` + `<=` evidence, so the entry point is uncovered.
        let f = findings(&[
            (
                "crates/store/src/reader.rs",
                "impl ChunkStoreReader {\n    pub fn read_region(&self) -> Grid<f32> {\n        self.decode()\n    }\n}\n",
            ),
            (
                "tests/store_smoke.rs",
                "#[test]\nfn shape() {\n    let g = reader.read_region();\n    assert_eq!(g.len(), 8);\n}\n",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].1, 2);
        assert!(f[0].2.contains("`read_region`"), "{}", f[0].2);
    }

    #[test]
    fn store_entry_point_reached_by_bound_test_is_clean() {
        let f = findings(&[
            (
                "crates/store/src/reader.rs",
                "impl ChunkStoreReader {\n    pub fn read_region(&self) -> Grid<f32> {\n        self.decode()\n    }\n}\n",
            ),
            (
                "tests/store_bound.rs",
                "#[test]\nfn bound() {\n    let g = reader.read_region();\n    assert!((a - b).abs() <= eb);\n}\n",
            ),
        ]);
        assert_eq!(f, vec![], "{f:?}");
    }

    #[test]
    fn absent_store_entry_points_impose_no_obligation() {
        // Fixture sets without the store crate must stay clean even when no
        // test mentions the entry-point names.
        let f = findings(&[(
            "crates/core/src/lib.rs",
            "pub fn helper(x: f64) -> f64 {\n    x + 1.0\n}\n",
        )]);
        assert_eq!(f, vec![], "{f:?}");
    }

    #[test]
    fn eb_scaling_outside_named_helper_is_flagged() {
        let f = findings(&[(
            "crates/quant/src/quantizer.rs",
            "impl Q {\n    fn quantize(&self) -> f64 {\n        let step = 2.0 * self.eb;\n        step\n    }\n}\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].1, 3);
        assert!(f[0].2.contains("named helper"), "{}", f[0].2);
    }

    #[test]
    fn eb_scaling_inside_named_helper_is_clean() {
        let f = findings(&[(
            "crates/quant/src/quantizer.rs",
            "impl Q {\n    fn eb_step(&self) -> f64 {\n        2.0 * self.eb\n    }\n    fn quantize(&self) -> f64 {\n        self.eb_step()\n    }\n}\n",
        )]);
        assert_eq!(f, vec![], "{f:?}");
    }

    #[test]
    fn eb_comparisons_are_not_scaling() {
        let f = findings(&[(
            "crates/quant/src/quantizer.rs",
            "fn check(eb: f64, err: f64) -> bool {\n    err <= eb && eb >= 0.0\n}\n",
        )]);
        assert_eq!(f, vec![], "{f:?}");
    }
}
