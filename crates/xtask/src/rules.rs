//! Lint rules for the CliZ workspace.
//!
//! Rule IDs are stable (they appear in suppressions and CI logs):
//!
//! * **R0** — malformed `xtask-allow` suppression (unknown rule id or
//!   missing ` -- reason`).
//! * **R1** — direct slice indexing of a decoder input buffer (`bytes[..]`,
//!   `buf[i]`, `data[..]`, …) in decode-facing code: corrupt or truncated
//!   input must surface as `Err`/`None`, never as a panic. The panicking
//!   calls and macros (`.unwrap()`, `.expect(..)`, `panic!`,
//!   `unreachable!`, `unimplemented!`) are clippy's: each crate R1 scans
//!   denies them at its root.
//! * **R3** — a `pub fn compress*`/`pub fn decompress*` codec entry point
//!   whose signature does not return `Result`.
//! * **R4** — quantizer encode/decode boundary (`fn quantize`,
//!   `fn recover`) lacks its `debug_assert!` error-bound invariant hook.
//! * **R5** — panic reachability: a panicking construct or unchecked
//!   input-buffer index reachable (via the cross-crate call graph) from a
//!   decode-tainted entry point. Produced by the workspace pass in
//!   [`crate::taint`], not by the per-file scan here; the rule id is
//!   registered so suppressions can name it.
//! * **R7** — length-provenance dataflow: unchecked arithmetic, slice
//!   construction, or allocation sized by a length/offset/count value that
//!   originated in a container/header parser and has not passed through a
//!   `checked_*`/cast helper or an explicit validation guard. Produced by
//!   the workspace pass in [`crate::dataflow`].
//! * **R8** — error-bound contract: every `impl Compressor` must be
//!   reachable from a roundtrip test asserting `|x − x'| ≤ eb`, and eb
//!   scaling must live in a named `eb` helper. Produced by the workspace
//!   pass in [`crate::contracts`].
//! * **R9** — lock discipline: a `MutexGuard` live across a call reaching
//!   decode/codec/IO work, double acquisition of a lock field, or a cycle
//!   in the pairwise lock-order graph. Produced by the workspace pass in
//!   [`crate::locks`].
//! * **R10** — shared-state audit: `static mut`, mismatched atomic
//!   orderings across paired load/store sites, non-atomic counters in
//!   sync-shared structs, and interior mutability escaping via `&self`
//!   returns. Produced by the workspace pass in [`crate::shared`].
//! * **R11** — heap allocation (`Vec::new`, `vec!`, `.to_vec()`,
//!   `.clone()`, `.collect()`, `format!`, …) inside a loop of a function
//!   reachable from a codec entry point, in the kernel crates. Produced by
//!   the workspace pass in [`crate::perf`].
//! * **R12** — single-bit `BitReader`/`BitWriter` call (`.read_bit(`,
//!   `.write_bit(`, `.read_bits(1)`, `.write_bits(_, 1)`) inside a loop in
//!   `entropy`/`lossless`; batch through word-at-a-time I/O. Produced by
//!   the workspace pass in [`crate::perf`].
//! * **R13** — vectorization-hostile `for` loop in the numeric kernels:
//!   per-element indexing with a loop-header variable combined with a
//!   per-iteration `Option`-mask test; hoist the mask match and write each
//!   arm as a zip/chunks_exact scan. Produced by the workspace pass in
//!   [`crate::perf`].
//! * **R14** — serializer/parser symmetry: every container format (a
//!   registry `FormatSpec`) written anywhere must be parsed somewhere, and
//!   vice versa; the writer's ordered field emissions are replayed against
//!   the parser's reads, so a width or order mismatch is a finding.
//!   Trailer magics must be both emitted and checked. Produced by the
//!   workspace pass in [`crate::format`].
//! * **R15** — version discipline: a hand-rolled parser that checks a
//!   magic must range-check a version byte (an `UnsupportedVersion` path)
//!   before decoding any count/length field; magic constants and
//!   `FormatSpec` literals may only live in the `cliz-format` registry;
//!   duplicate magic values are findings. Produced by the workspace pass
//!   in [`crate::format`].
//! * **R16** — parser error-surface coverage: every `*Error` enum variant
//!   in the format-handling crates must be constructed in product code,
//!   and variants constructed on a parse path must be asserted by at
//!   least one test and be reachable from a decode entry point. Produced
//!   by the workspace pass in [`crate::format`].
//!
//! Suppressions: `// xtask-allow: R1 -- reason` (covers its own line and
//! the next), or `// xtask-allow-fn: R1 -- reason` (covers the whole next
//! function item). The reason is mandatory.

use crate::items::{self, FnItem};
use crate::lexer::{
    self, ident_at, ident_ending_at, is_ident, match_brace, next_nonws, prev_nonws, Lines,
};

/// One finding, file-relative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    pub line: usize,
    pub message: String,
}

/// Per-file scan result.
#[derive(Debug, Default)]
pub struct FileReport {
    pub violations: Vec<Violation>,
    pub suppressed: usize,
}

pub const ALL_RULES: &[&str] = &[
    "R0", "R1", "R3", "R4", "R5", "R7", "R8", "R9", "R10", "R11", "R12", "R13", "R14", "R15", "R16",
];

/// Files/dirs (workspace-relative, `/`-separated prefixes) where R1 applies:
/// everything that parses attacker-controllable container bytes.
const R1_SCOPE: &[&str] = &[
    "crates/entropy/src/",
    "crates/quant/src/",
    "crates/lossless/src/",
    "crates/core/src/chunked.rs",
    "crates/core/src/compressor.rs",
    "crates/core/src/pipeline.rs",
    "crates/core/src/periodic.rs",
    "crates/cli/src/czfile.rs",
    "crates/store/src/",
    "crates/storage/src/",
    "crates/serve/src/",
];

/// Crates whose public codec entry points must return `Result` (R3).
const R3_SCOPE: &[&str] = &["crates/baselines/src/", "crates/core/src/"];

/// Files that must carry the R4 error-bound invariant hooks.
const R4_FILES: &[&str] = &["crates/quant/src/quantizer.rs"];

/// Identifier names treated as decoder input buffers for the R1 indexing
/// check. Heuristic by design: decode paths in this workspace consistently
/// use these names, and `xtask-allow` covers deliberate exceptions.
const INPUT_NAMES: &[&str] = &["bytes", "buf", "data", "input", "payload", "src"];

fn in_scope(scope: &[&str], rel_path: &str) -> bool {
    scope.iter().any(|p| rel_path.starts_with(p))
}

/// A parsed suppression directive.
pub struct Suppression {
    rules: Vec<&'static str>,
    /// Inclusive line range the suppression covers.
    first_line: usize,
    last_line: usize,
}

impl Suppression {
    /// True when this directive suppresses `rule` findings on `line`.
    pub fn covers(&self, rule: &str, line: usize) -> bool {
        self.rules.contains(&rule) && (self.first_line..=self.last_line).contains(&line)
    }
}

fn canonical_rule(id: &str) -> Option<&'static str> {
    ALL_RULES.iter().copied().find(|r| *r == id)
}

/// Parses `xtask-allow` comments into suppression ranges; malformed
/// directives become R0 violations.
fn collect_suppressions(
    comments: &[lexer::Comment],
    active: &str,
    lines: &Lines,
    out: &mut Vec<Violation>,
) -> Vec<Suppression> {
    let b = active.as_bytes();
    let mut sups = Vec::new();
    for c in comments {
        let (is_fn, rest) = if let Some(r) = c.text.split_once("xtask-allow-fn:") {
            (true, r.1)
        } else if let Some(r) = c.text.split_once("xtask-allow:") {
            (false, r.1)
        } else {
            continue;
        };
        let (ids, reason) = match rest.split_once("--") {
            Some((ids, reason)) => (ids, reason.trim()),
            None => ("", ""),
        };
        if reason.is_empty() {
            out.push(Violation {
                rule: "R0",
                line: c.line,
                message: "xtask-allow requires a reason: `xtask-allow: <rules> -- <why>`"
                    .to_string(),
            });
            continue;
        }
        let mut rules = Vec::new();
        let mut bad = false;
        for id in ids.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match canonical_rule(id) {
                Some(r) => rules.push(r),
                None => bad = true,
            }
        }
        if bad || rules.is_empty() {
            out.push(Violation {
                rule: "R0",
                line: c.line,
                message: format!("xtask-allow names unknown rule(s) in `{}`", ids.trim()),
            });
            continue;
        }
        if is_fn {
            // Cover the next `fn` item's whole body.
            let from = lines.offset_of_line(c.line);
            let mut i = from.min(b.len());
            let mut covered = None;
            while i < b.len() {
                if is_ident(b[i]) && (i == 0 || !is_ident(b[i - 1])) && ident_at(b, i) == "fn" {
                    let mut j = i;
                    while j < b.len() && b[j] != b'{' && b[j] != b';' {
                        j += 1;
                    }
                    if j < b.len() && b[j] == b'{' {
                        let close = match_brace(b, j);
                        covered = Some((lines.line_of(i), lines.line_of(close)));
                    }
                    break;
                }
                i += 1;
            }
            if let Some((first, last)) = covered {
                sups.push(Suppression {
                    rules,
                    first_line: c.line.min(first),
                    last_line: last,
                });
            } else {
                out.push(Violation {
                    rule: "R0",
                    line: c.line,
                    message: "xtask-allow-fn found no following function".to_string(),
                });
            }
        } else {
            // Own-line comments cover the next line; inline ones their own.
            let last = if c.own_line { c.line + 1 } else { c.line };
            sups.push(Suppression {
                rules,
                first_line: c.line,
                last_line: last,
            });
        }
    }
    sups
}

/// Full per-file analysis: the per-file rule findings plus the artifacts
/// the workspace-level passes need (suppression ranges for applying R5
/// suppressions, parsed `fn` items for the call graph).
pub struct FileAnalysis {
    pub report: FileReport,
    pub sups: Vec<Suppression>,
    pub items: Vec<FnItem>,
}

/// Scans one file. `rel_path` must be workspace-relative with `/` separators.
pub fn check_file(rel_path: &str, source: &str) -> FileReport {
    analyze_file(rel_path, source).report
}

/// Scans one file and also returns its suppressions and parsed items.
pub fn analyze_file(rel_path: &str, source: &str) -> FileAnalysis {
    let lexed = lexer::strip(source);
    let active = lexer::blank_test_items(&lexed.code);
    let lines = Lines::new(&active);
    let b = active.as_bytes();

    let mut raw: Vec<Violation> = Vec::new();
    let mut report = FileReport::default();
    let sups = collect_suppressions(&lexed.comments, &active, &lines, &mut report.violations);

    let r1 = in_scope(R1_SCOPE, rel_path);
    let r3 = in_scope(R3_SCOPE, rel_path);

    let mut i = 0usize;
    while i < b.len() {
        if !(is_ident(b[i]) && (i == 0 || !is_ident(b[i - 1]))) {
            i += 1;
            continue;
        }
        let word = ident_at(b, i);
        let start = i;
        i += word.len();
        let line = lines.line_of(start);

        // R1: direct indexing of decoder input buffers.
        if r1 && INPUT_NAMES.contains(&word) && next_nonws(b, i).is_some_and(|(_, c)| c == b'[') {
            raw.push(Violation {
                rule: "R1",
                line,
                message: format!(
                    "direct slice indexing `{word}[..]` on a decoder input; use `.get(..)`"
                ),
            });
            continue;
        }

        if r3 && word == "fn" {
            if let Some((j, _)) = next_nonws(b, i) {
                let name = ident_at(b, j);
                if (name.starts_with("compress") || name.starts_with("decompress"))
                    && is_pub_fn(b, start)
                {
                    // Signature = everything up to the body/terminator.
                    let mut k = j;
                    while k < b.len() && b[k] != b'{' && b[k] != b';' {
                        k += 1;
                    }
                    let sig = &active[j..k.min(active.len())];
                    if !sig.contains("Result") {
                        raw.push(Violation {
                            rule: "R3",
                            line,
                            message: format!(
                                "public codec entry point `{name}` must return `Result`"
                            ),
                        });
                    }
                }
            }
        }
    }

    // R4: required debug_assert hooks at the quantizer boundaries.
    if R4_FILES.contains(&rel_path) {
        for target in ["quantize", "recover"] {
            if let Some((fn_line, body)) = find_fn_body(b, &lines, target) {
                if !body.contains("debug_assert") {
                    raw.push(Violation {
                        rule: "R4",
                        line: fn_line,
                        message: format!(
                            "`fn {target}` lacks its `debug_assert!` error-bound invariant hook"
                        ),
                    });
                }
            }
        }
    }

    // Apply suppressions.
    for v in raw {
        let suppressed = sups.iter().any(|s| s.covers(v.rule, v.line));
        if suppressed {
            report.suppressed += 1;
        } else {
            report.violations.push(v);
        }
    }
    report.violations.sort_by_key(|v| (v.line, v.rule));

    let parsed = items::parse_items(&active, &lines);
    FileAnalysis {
        report,
        sups,
        items: parsed,
    }
}

/// True when the `fn` keyword at `fn_start` is part of a `pub fn` item
/// (possibly with `const`/`async`/`unsafe` qualifiers). `pub(crate)` and
/// narrower visibilities do not count as public entry points.
fn is_pub_fn(b: &[u8], fn_start: usize) -> bool {
    let mut i = fn_start;
    for _ in 0..4 {
        let Some((j, c)) = prev_nonws(b, i) else {
            return false;
        };
        if !is_ident(c) {
            return false;
        }
        let word = ident_ending_at(b, j + 1);
        match word {
            "pub" => return true,
            "const" | "async" | "unsafe" => i = j + 1 - word.len(),
            _ => return false,
        }
    }
    false
}

/// Finds `fn <name>` and returns (line, body text) of its brace block.
fn find_fn_body<'a>(b: &'a [u8], lines: &Lines, name: &str) -> Option<(usize, &'a str)> {
    let mut i = 0usize;
    while i < b.len() {
        if is_ident(b[i]) && (i == 0 || !is_ident(b[i - 1])) && ident_at(b, i) == "fn" {
            let after = i + 2;
            if let Some((j, _)) = next_nonws(b, after) {
                if ident_at(b, j) == name {
                    let mut k = j;
                    while k < b.len() && b[k] != b'{' && b[k] != b';' {
                        k += 1;
                    }
                    if k < b.len() && b[k] == b'{' {
                        let close = match_brace(b, k);
                        let body = std::str::from_utf8(&b[k..=close.min(b.len() - 1)]).ok()?;
                        return Some((lines.line_of(i), body));
                    }
                }
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    None
}
