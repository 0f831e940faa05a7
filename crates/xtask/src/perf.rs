//! Rules R11–R13: hot-path performance audit.
//!
//! Unlike the safety passes (R5/R7), these rules guard *throughput*: the
//! decode/encode kernels are the reason this codebase exists, and the three
//! structural patterns below each cost an order of magnitude on real
//! climate-sized inputs.
//!
//! * **R11 — hot-loop allocation.** A heap allocation (`Vec::new`, `vec!`,
//!   `.to_vec()`, `.clone()`, `.collect()`, `format!`, `String::new`,
//!   `.to_string()`) inside a loop of a function reachable from a codec
//!   entry point. Hotness is seeded by name (`decode`, `decompress`,
//!   `encode`, `compress`, `quantize`, `reconstruct`) and propagated
//!   callee-direction over the same cross-crate call graph the R5 taint
//!   pass uses — a table-builder called once per stream from `decompress`
//!   is hot, a CLI arg formatter is not. Scope: the kernel crates
//!   (`entropy`, `lossless`, `quant`, `predict`, `grid`).
//!
//! * **R12 — bit-granular I/O.** A single-bit (or forced single-bit)
//!   `BitReader`/`BitWriter` call inside a loop in `entropy`/`lossless`
//!   source: `.read_bit(`, `.write_bit(`, `.read_bits(1)`, or
//!   `.write_bits(_, 1)`. Word-at-a-time buffering (one shift+mask per
//!   multi-bit read, whole-byte drains on write) is the required shape;
//!   a per-bit loop touches the accumulator bookkeeping once per *bit*
//!   instead of once per *code* and caps decode throughput at a few MB/s.
//!
//! * **R13 — vectorization-hostile loop.** A `for` loop in the numeric
//!   kernels (`quant`, `predict`, `grid`) that both indexes with a
//!   loop-header variable and re-tests an `Option` mask idiom per
//!   iteration (`is_some_and(`, `is_none_or(`, `.map_or(`, `is_valid(`).
//!   The per-element branch on a loop-invariant `Option` defeats
//!   autovectorization; hoist the `match mask` out of the loop and write
//!   each arm as a straight-line `zip`/`chunks_exact` scan.
//!
//! All three are heuristics over lexed code (comments/strings/test items
//! blanked), so deliberate exceptions — frozen differential-reference
//! kernels, cold setup loops — are suppressed at the site with
//! `xtask-allow: R11 -- reason`, keeping every exception auditable.

use crate::callgraph;
use crate::items::{self, FnItem};
use crate::lexer::{self, ident_at, ident_starts_at, is_ident, match_brace, next_nonws, Lines};
use std::collections::VecDeque;

/// A perf finding, pre-suppression.
#[derive(Debug)]
pub struct PerfFinding {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub message: String,
}

/// Function-name substrings that seed hotness for R11: the codec entry
/// points and the kernel stages they drive.
const HOT_SEEDS: &[&str] = &[
    "decode",
    "decompress",
    "encode",
    "compress",
    "quantize",
    "reconstruct",
];

/// Crates whose loops R11 audits: every byte of input funnels through
/// these kernels, so a per-iteration allocation is never acceptable
/// without an argued suppression.
const R11_SCOPE: &[&str] = &[
    "crates/entropy/src/",
    "crates/lossless/src/",
    "crates/quant/src/",
    "crates/predict/src/",
    "crates/grid/src/",
];

/// Allocation constructs R11 flags inside hot loops. Textual match over
/// lexed code (strings already blanked), so `"vec!"` in a message cannot
/// false-positive.
const ALLOC_PATTERNS: &[(&str, &str)] = &[
    ("Vec::new(", "`Vec::new()`"),
    ("vec!", "`vec!`"),
    (".to_vec(", "`.to_vec()`"),
    (".clone(", "`.clone()`"),
    (".collect(", "`.collect()`"),
    (".collect::", "`.collect::<..>()`"),
    ("format!", "`format!`"),
    ("String::new(", "`String::new()`"),
    (".to_string(", "`.to_string()`"),
];

/// Files whose bit I/O R12 audits.
const R12_SCOPE: &[&str] = &["crates/entropy/src/", "crates/lossless/src/"];

/// Single-bit I/O shapes R12 flags inside loops. `write_bits`/`read_bits`
/// with a literal-1 width are matched separately (argument-aware).
const BIT_PATTERNS: &[(&str, &str)] = &[
    (".read_bit(", "`.read_bit()`"),
    (".write_bit(", "`.write_bit()`"),
    (".read_bits(1)", "`.read_bits(1)`"),
];

/// Crates whose `for` loops R13 audits.
const R13_SCOPE: &[&str] = &[
    "crates/quant/src/",
    "crates/predict/src/",
    "crates/grid/src/",
];

/// Per-iteration `Option`-mask idioms R13 pairs with indexed access.
const MASK_IDIOMS: &[&str] = &["is_some_and(", "is_none_or(", ".map_or(", "is_valid("];

fn in_scope(scope: &[&str], rel_path: &str) -> bool {
    scope.iter().any(|p| rel_path.starts_with(p))
}

/// One `loop`/`while`/`for` body inside a function: keyword offset, the
/// header span (keyword end → body brace), and the body's brace span.
struct LoopSpan {
    is_for: bool,
    header_start: usize,
    open: usize,
    close: usize,
}

impl LoopSpan {
    fn contains(&self, offset: usize) -> bool {
        (self.open..=self.close).contains(&offset)
    }
}

/// Finds every loop body in `b[lo..hi]`. The body brace is the first `{`
/// at paren/bracket depth 0 after the keyword (struct literals are not
/// legal in loop headers without parens, so this is exact for valid Rust).
fn loop_spans(b: &[u8], lo: usize, hi: usize) -> Vec<LoopSpan> {
    let mut spans = Vec::new();
    let mut i = lo;
    while i < hi.min(b.len()) {
        if !ident_starts_at(b, i) {
            i += 1;
            continue;
        }
        let word = ident_at(b, i);
        let kw_end = i + word.len();
        if word != "loop" && word != "while" && word != "for" {
            i = kw_end;
            continue;
        }
        // `for<'a>` higher-ranked bounds are not loops.
        if word == "for" && next_nonws(b, kw_end).is_some_and(|(_, c)| c == b'<') {
            i = kw_end;
            continue;
        }
        let mut depth = 0isize;
        let mut j = kw_end;
        let mut open = None;
        while j < b.len() {
            match b[j] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth == 0 => {
                    open = Some(j);
                    break;
                }
                b';' if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if let Some(open) = open {
            spans.push(LoopSpan {
                is_for: word == "for",
                header_start: kw_end,
                open,
                close: match_brace(b, open),
            });
        }
        i = kw_end;
    }
    spans
}

/// Identifiers bound by a `for` header pattern: everything between `for`
/// and the depth-0 `in` keyword, minus binding keywords. Handles simple
/// (`for i in ..`), tuple (`for (i, v) in ..`), and `&`-pattern headers.
fn header_idents(b: &[u8], header_start: usize, open: usize) -> Vec<String> {
    let mut idents = Vec::new();
    let mut i = header_start;
    while i < open {
        if !ident_starts_at(b, i) {
            i += 1;
            continue;
        }
        let word = ident_at(b, i);
        i += word.len();
        match word {
            "in" => break,
            "mut" | "ref" | "_" => {}
            _ => idents.push(word.to_string()),
        }
    }
    idents
}

/// True when `hay` contains `needle` as a whole identifier.
fn contains_ident(hay: &str, needle: &str) -> bool {
    let b = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(b[at - 1]);
        let after = at + needle.len();
        let after_ok = after >= b.len() || !is_ident(b[after]);
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

/// True when the `.write_bits(` / `.read_bits(` call starting at the `(`
/// at `open` passes a literal `1` as its width (last) argument.
fn width_arg_is_one(b: &[u8], open: usize) -> bool {
    let mut depth = 0isize;
    let mut last_arg_start = open + 1;
    let mut j = open;
    while j < b.len() {
        match b[j] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => {
                depth -= 1;
                if depth == 0 {
                    let arg = std::str::from_utf8(&b[last_arg_start..j])
                        .unwrap_or("")
                        .trim();
                    return arg == "1";
                }
            }
            b',' if depth == 1 => last_arg_start = j + 1,
            _ => {}
        }
        j += 1;
    }
    false
}

/// Runs the R11–R13 pass over product files (`(rel_path, source)`).
pub fn analyze(files: &[(String, String)]) -> Vec<PerfFinding> {
    // Lex once, parse items once; the call graph needs every file so
    // hotness can cross crate boundaries (core::decompress → entropy).
    let actives: Vec<(String, String)> = files
        .iter()
        .map(|(rel, src)| {
            let lexed = lexer::strip(src);
            (rel.clone(), lexer::blank_test_items(&lexed.code))
        })
        .collect();
    let all_items: Vec<(String, Vec<FnItem>)> = actives
        .iter()
        .map(|(rel, active)| {
            let lines = Lines::new(active);
            (rel.clone(), items::parse_items(active, &lines))
        })
        .collect();

    // Hotness: multi-source BFS from codec-named functions, callee
    // direction, over the name-resolved graph.
    let graph = callgraph::build(&all_items);
    let mut hot = vec![false; graph.nodes.len()];
    let mut queue = VecDeque::new();
    for (idx, node) in graph.nodes.iter().enumerate() {
        if HOT_SEEDS.iter().any(|s| node.item.name.contains(s)) {
            hot[idx] = true;
            queue.push_back(idx);
        }
    }
    while let Some(u) = queue.pop_front() {
        for e in &graph.edges[u] {
            if !hot[e.callee] {
                hot[e.callee] = true;
                queue.push_back(e.callee);
            }
        }
    }

    let mut findings = Vec::new();
    for (idx, node) in graph.nodes.iter().enumerate() {
        if !node.item.has_body {
            continue;
        }
        let Some((_, active)) = actives.iter().find(|(rel, _)| rel == node.file) else {
            continue;
        };
        let lines = Lines::new(active);
        let b = active.as_bytes();
        let (lo, hi) = (node.item.body_open + 1, node.item.end);
        let spans = loop_spans(b, lo, hi);
        if spans.is_empty() {
            continue;
        }

        if hot[idx] && in_scope(R11_SCOPE, node.file) {
            scan_r11(active, &lines, &spans, node, &mut findings);
        }
        if in_scope(R12_SCOPE, node.file) {
            scan_r12(b, active, &lines, &spans, node, &mut findings);
        }
        if in_scope(R13_SCOPE, node.file) {
            scan_r13(b, active, &lines, &spans, node, &mut findings);
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Every occurrence of `pat` in `active` that falls inside one of `spans`.
fn occurrences_in_loops(active: &str, pat: &str, spans: &[LoopSpan]) -> Vec<usize> {
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(pos) = active[from..].find(pat) {
        let at = from + pos;
        if spans.iter().any(|s| s.contains(at)) {
            hits.push(at);
        }
        from = at + 1;
    }
    hits
}

fn scan_r11(
    active: &str,
    lines: &Lines,
    spans: &[LoopSpan],
    node: &callgraph::Node,
    findings: &mut Vec<PerfFinding>,
) {
    for (pat, label) in ALLOC_PATTERNS {
        for at in occurrences_in_loops(active, pat, spans) {
            findings.push(PerfFinding {
                rule: "R11",
                file: node.file.to_string(),
                line: lines.line_of(at),
                message: format!(
                    "{label} allocates inside a loop of `{}`, which is reachable from a \
                     codec entry point; hoist the allocation out of the loop",
                    node.item.name
                ),
            });
        }
    }
}

fn scan_r12(
    b: &[u8],
    active: &str,
    lines: &Lines,
    spans: &[LoopSpan],
    node: &callgraph::Node,
    findings: &mut Vec<PerfFinding>,
) {
    for (pat, label) in BIT_PATTERNS {
        for at in occurrences_in_loops(active, pat, spans) {
            findings.push(PerfFinding {
                rule: "R12",
                file: node.file.to_string(),
                line: lines.line_of(at),
                message: format!(
                    "{label} in a loop of `{}` processes one bit per accumulator update; \
                     batch through a word-at-a-time read/write",
                    node.item.name
                ),
            });
        }
    }
    // `.write_bits(x, 1)`: a forced single-bit write hiding behind the
    // multi-bit API.
    for at in occurrences_in_loops(active, ".write_bits(", spans) {
        let open = at + ".write_bits(".len() - 1;
        if width_arg_is_one(b, open) {
            findings.push(PerfFinding {
                rule: "R12",
                file: node.file.to_string(),
                line: lines.line_of(at),
                message: format!(
                    "`.write_bits(_, 1)` in a loop of `{}` writes one bit per call; \
                     pack the bits and write them as one word",
                    node.item.name
                ),
            });
        }
    }
}

fn scan_r13(
    b: &[u8],
    active: &str,
    lines: &Lines,
    spans: &[LoopSpan],
    node: &callgraph::Node,
    findings: &mut Vec<PerfFinding>,
) {
    for span in spans.iter().filter(|s| s.is_for) {
        let idents = header_idents(b, span.header_start, span.open);
        if idents.is_empty() {
            continue;
        }
        let body = &active[span.open..=span.close.min(active.len() - 1)];
        let idiom = MASK_IDIOMS.iter().find(|p| body.contains(*p));
        let Some(idiom) = idiom else { continue };

        // Indexed access with a header variable: `[..i..]` where `i` is
        // bound by the loop header.
        let bb = body.as_bytes();
        let mut indexed = false;
        let mut j = 0usize;
        while j < bb.len() && !indexed {
            if bb[j] == b'[' {
                let mut depth = 1isize;
                let mut k = j + 1;
                while k < bb.len() && depth > 0 {
                    match bb[k] {
                        b'[' => depth += 1,
                        b']' => depth -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                let inner = &body[j + 1..k.saturating_sub(1).max(j + 1)];
                if idents.iter().any(|id| contains_ident(inner, id)) {
                    indexed = true;
                }
                j = k;
            } else {
                j += 1;
            }
        }
        if indexed {
            findings.push(PerfFinding {
                rule: "R13",
                file: node.file.to_string(),
                line: lines.line_of(span.header_start),
                message: format!(
                    "`for` loop in `{}` mixes per-element indexing with a per-iteration \
                     mask test (`{}`); hoist the mask match out of the loop and write \
                     each arm as a zip/chunks_exact scan",
                    node.item.name,
                    idiom.trim_end_matches('(')
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<(&'static str, usize)> {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        let mut v: Vec<_> = analyze(&owned)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn r11_flags_allocation_in_hot_loop_only() {
        // `decode_block` is a hot seed; the allocation in its loop is
        // flagged, the identical one in cold `setup` is not, and the
        // hoisted allocation outside the loop passes.
        let src = "pub fn decode_block(n: usize) -> usize {\n\
                   let mut total = Vec::new();\n\
                   for i in 0..n {\n\
                   let scratch: Vec<u8> = Vec::new();\n\
                   total.push(scratch.len() + i);\n\
                   }\n\
                   total.len()\n\
                   }\n\
                   pub fn setup(n: usize) -> usize {\n\
                   let mut c = 0;\n\
                   for _ in 0..n { let v: Vec<u8> = Vec::new(); c += v.len(); }\n\
                   c\n\
                   }\n";
        assert_eq!(
            run(&[("crates/entropy/src/fixture.rs", src)]),
            vec![("R11", 4)]
        );
    }

    #[test]
    fn r11_hotness_propagates_across_crates() {
        let entry = "pub fn decompress_all(n: usize) -> usize { helper_fill(n) }\n";
        let helper = "pub fn helper_fill(n: usize) -> usize {\n\
                      let mut c = 0;\n\
                      while c < n { let s = x.to_vec(); c += s.len(); }\n\
                      c\n\
                      }\n";
        assert_eq!(
            run(&[
                ("crates/core/src/stream_fixture.rs", entry),
                ("crates/quant/src/fixture.rs", helper),
            ]),
            vec![("R11", 3)]
        );
    }

    #[test]
    fn r12_flags_single_bit_io_in_loops() {
        let src = "pub fn decode_codes(r: &mut R, n: usize) -> u32 {\n\
                   let mut acc = 0;\n\
                   for _ in 0..n {\n\
                   acc ^= r.read_bits(1);\n\
                   w.write_bits(acc, 1);\n\
                   }\n\
                   w.write_bits(acc, 13);\n\
                   acc\n\
                   }\n";
        assert_eq!(
            run(&[("crates/entropy/src/fixture.rs", src)]),
            vec![("R12", 4), ("R12", 5)]
        );
    }

    #[test]
    fn r12_word_at_a_time_io_passes() {
        let src = "pub fn decode_codes(r: &mut R, n: usize) -> u32 {\n\
                   let mut acc = 0;\n\
                   for _ in 0..n { acc ^= r.read_bits(11); }\n\
                   acc\n\
                   }\n";
        assert_eq!(run(&[("crates/entropy/src/fixture.rs", src)]), vec![]);
    }

    #[test]
    fn r13_flags_indexed_mask_test_loop() {
        let src = "pub fn apply(vals: &mut [f32], mask: Option<&[bool]>) {\n\
                   for i in 0..vals.len() {\n\
                   if mask.is_none_or(|m| m[i]) { vals[i] *= 2.0; }\n\
                   }\n\
                   }\n";
        assert_eq!(
            run(&[("crates/quant/src/fixture.rs", src)]),
            vec![("R13", 2)]
        );
    }

    #[test]
    fn r13_hoisted_mask_and_zip_forms_pass() {
        let src = "pub fn apply(vals: &mut [f32], mask: Option<&[bool]>) {\n\
                   match mask {\n\
                   None => for v in vals.iter_mut() { *v *= 2.0; },\n\
                   Some(m) => for (v, &keep) in vals.iter_mut().zip(m) {\n\
                   if keep { *v *= 2.0; }\n\
                   },\n\
                   }\n\
                   }\n";
        assert_eq!(run(&[("crates/quant/src/fixture.rs", src)]), vec![]);
    }

    #[test]
    fn r13_is_scoped_to_numeric_kernels() {
        let src = "pub fn apply(vals: &mut [f32], mask: Option<&[bool]>) {\n\
                   for i in 0..vals.len() {\n\
                   if mask.is_none_or(|m| m[i]) { vals[i] *= 2.0; }\n\
                   }\n\
                   }\n";
        assert_eq!(run(&[("crates/cli/src/fixture.rs", src)]), vec![]);
    }
}
