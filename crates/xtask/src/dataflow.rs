//! Rule R7: length-provenance dataflow.
//!
//! R5 asks "can a panic be *reached* from decode input?"; R7 asks the finer
//! question "is this *value* attacker-controlled?". Length, offset, and
//! count fields parsed out of container bytes drive arithmetic, slice
//! construction, and allocations; any of those done unchecked turns a
//! corrupt header into an overflow panic (debug / `overflow-checks = true`
//! builds), a slice-bounds panic, or an OOM abort. R7 tracks the provenance
//! of such values and flags unchecked uses.
//!
//! The model (token-level, per function, flow-ordered):
//!
//! * **Sources.** A `let` binding is tainted when its initializer calls a
//!   raw length-read primitive (`u8()`, `u16()`, `u32()`, `u64()`,
//!   `len64()`, `varint()`, `<int>::from_le_bytes(..)`, `u32_le`/`u64_le`),
//!   mentions an already-tainted local or tainted struct field, or calls a
//!   *derived source* — a function in the container-parser scope whose
//!   integer-typed return value is itself computed from a tainted value
//!   (`read_header`, `len64`, …; closed to a fixed point workspace-wide, so
//!   taint crosses crate boundaries by callee name). `read_exact(&mut x)`
//!   taints `x` in place.
//! * **Propagation.** Assignments and compound assignments re-evaluate the
//!   left-hand side; `recv.push(tainted)`-style mutating calls taint the
//!   receiver; storing a tainted local in a struct-literal field or via
//!   `obj.field = tainted` taints the *field name* workspace-wide (loads of
//!   `.field` then read back as tainted).
//! * **Sanitizers.** A binding whose initializer routes through `checked_*`,
//!   a `*_checked` cast helper, `try_into`/`try_from`, `usize::from` (only
//!   accepts `u8`/`u16`/`bool`, so the result is ≤ 65535 by construction),
//!   `float_to_index`, `min(..)`, or `clamp(..)` is clean. A comparison
//!   guard (`if`/`while` condition containing the tainted name and a
//!   comparison operator) clears the named locals for the rest of the
//!   function — the "explicit validation guard" of the design rules.
//! * **Hazards.** A tainted identifier adjacent to bare `+ - * <<` (or a
//!   compound `+= -= *= <<=`), sizing an allocation
//!   (`with_capacity`/`reserve`/`resize`/`vec![v; n]`), forming a slice
//!   range inside an index expression (`buf[t..]`, `buf[..t]`), or feeding
//!   an unchecked `.product()`/`.sum()` fold.
//!
//! Like R5 the pass is an over-approximation in the *reporting* direction
//! (name-based resolution, no types) but deliberately permissive about
//! guards: any comparison mentioning the value counts as validation, since
//! the repo's hardened parsers validate immediately after reading. Findings
//! are scoped to the container/codec crates (`HAZARD_SCOPE`); bit-level
//! entropy decoders use different idioms and stay under R1/R5.

use crate::items::FnItem;
use crate::lexer::{self, ident_at, ident_starts_at, next_nonws, prev_nonws, Lines};
use std::collections::HashSet;

/// Files whose parsed values seed taint and whose integer-returning
/// functions can become derived sources.
const SOURCE_SCOPE: &[&str] = &[
    "crates/core/src/chunked.rs",
    "crates/baselines/src/header.rs",
    "crates/cli/src/czfile.rs",
    "crates/store/src/caf.rs",
    "crates/store/src/format.rs",
    "crates/storage/src/http.rs",
    "crates/serve/src/client.rs",
    "crates/serve/src/proto.rs",
];

/// Files where hazards are reported: the container parsers, the codec
/// crates consuming their headers, and the CLI wrapper format.
const HAZARD_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/baselines/src/",
    "crates/cli/src/",
    "crates/cliz/src/",
    "crates/store/src/",
    "crates/storage/src/",
    "crates/serve/src/",
];

/// Raw length-read primitives. Calls to these taint the binding they
/// initialize wherever they appear inside `HAZARD_SCOPE`. Float reads
/// (`f32()`, `f64()`) are deliberately absent: floats are not lengths and
/// cannot overflow-panic.
const PRIMITIVES: &[&str] = &[
    "u8",
    "u16",
    "u32",
    "u64",
    "len64",
    "varint",
    "u32_le",
    "u64_le",
    "from_le_bytes",
];

/// Call names whose presence in an initializer marks the bound value as
/// validated. `usize::from` is special-cased in [`has_sanitizer`].
const SANITIZERS: &[&str] = &[
    "try_into",
    "try_from",
    "float_to_index",
    "quantize_index",
    "min",
    "clamp",
];

/// Allocation calls whose size argument must not be tainted.
const ALLOC_CALLS: &[&str] = &["with_capacity", "reserve", "resize"];

/// Unchecked folds over a tainted sequence.
const FOLD_CALLS: &[&str] = &["product", "sum"];

/// Integer type names; a scope function returning one of these can become a
/// derived source. `u8`/`i8` are deliberately absent: they appear in every
/// byte-slice return type (`&[u8]`, `Vec<u8>`) where the value is a buffer,
/// not a length — and a genuine u8-valued count is bounded at 255 anyway.
const INT_TYPES: &[&str] = &[
    "usize", "u16", "u32", "u64", "u128", "isize", "i16", "i32", "i64", "i128",
];

/// An R7 finding, pre-suppression.
#[derive(Debug)]
pub struct FlowFinding {
    pub file: String,
    pub line: usize,
    pub message: String,
}

fn in_scope(scope: &[&str], rel_path: &str) -> bool {
    scope.iter().any(|p| rel_path.starts_with(p))
}

/// One file, pre-lexed once and shared by every pass below.
struct FileCtx {
    rel: String,
    active: String,
    items: Vec<FnItem>,
    is_source_scope: bool,
    in_hazard_scope: bool,
}

fn prepare(files: &[(String, String)]) -> Vec<FileCtx> {
    files
        .iter()
        .filter(|(rel, _)| in_scope(HAZARD_SCOPE, rel) || in_scope(SOURCE_SCOPE, rel))
        .map(|(rel, source)| {
            let lexed = lexer::strip(source);
            let active = lexer::blank_test_items(&lexed.code);
            let lines = Lines::new(&active);
            let items = crate::items::parse_items(&active, &lines);
            FileCtx {
                rel: rel.clone(),
                is_source_scope: in_scope(SOURCE_SCOPE, rel),
                in_hazard_scope: in_scope(HAZARD_SCOPE, rel),
                active,
                items,
            }
        })
        .collect()
}

/// Runs the R7 pass over `(rel_path, source)` pairs.
pub fn analyze(files: &[(String, String)]) -> Vec<FlowFinding> {
    let ctxs = prepare(files);

    // Fixed point: derived sources (scope functions returning tainted ints)
    // and tainted field names feed back into the per-function simulation.
    let mut sources: HashSet<String> = PRIMITIVES.iter().map(|s| s.to_string()).collect();
    let mut fields: HashSet<String> = HashSet::new();
    loop {
        let mut changed = false;
        for ctx in &ctxs {
            for item in &ctxs_items(ctx) {
                let sim = simulate(ctx, item, &sources, &fields, None);
                for f in sim.stored_fields {
                    changed |= fields.insert(f);
                }
                if ctx.is_source_scope
                    && sim.saw_taint
                    && returns_int(&ctx.active, item)
                    && !sources.contains(&item.name)
                {
                    sources.insert(item.name.clone());
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Reporting pass.
    let mut findings = Vec::new();
    for ctx in &ctxs {
        if !ctx.in_hazard_scope {
            continue;
        }
        let lines = Lines::new(&ctx.active);
        for item in &ctxs_items(ctx) {
            let mut out = Vec::new();
            simulate(ctx, item, &sources, &fields, Some((&lines, &mut out)));
            for (line, message) in out {
                findings.push(FlowFinding {
                    file: ctx.rel.clone(),
                    line,
                    message,
                });
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    findings
}

fn ctxs_items(ctx: &FileCtx) -> Vec<&FnItem> {
    ctx.items.iter().filter(|it| it.has_body).collect()
}

/// True when the signature between the `fn` name and the body mentions an
/// integer return type (after `->`).
fn returns_int(active: &str, item: &FnItem) -> bool {
    let sig = &active[item.start..item.body_open.min(active.len())];
    let Some(arrow) = sig.find("->") else {
        return false;
    };
    let ret = &sig[arrow..];
    let b = ret.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        if ident_starts_at(b, i) {
            let w = ident_at(b, i);
            if INT_TYPES.contains(&w) {
                return true;
            }
            i += w.len();
        } else {
            i += 1;
        }
    }
    false
}

/// Result of simulating one function body.
struct Simulated {
    /// Field names that received a tainted store.
    stored_fields: Vec<String>,
    /// Whether any taint existed in this body at all (derived-source test).
    saw_taint: bool,
}

/// Token classification for the hazard scan.
fn is_value_end(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b')' || c == b']'
}

/// Walks the statements of `item`'s body in source order, tracking the
/// tainted-local set. When `report` is given, hazards are appended to it.
fn simulate(
    ctx: &FileCtx,
    item: &FnItem,
    sources: &HashSet<String>,
    fields: &HashSet<String>,
    mut report: Option<(&Lines, &mut Vec<(usize, String)>)>,
) -> Simulated {
    let b = ctx.active.as_bytes();
    let (lo, hi) = (item.body_open + 1, item.end.min(b.len()));
    // Byte ranges of items nested inside this body (their own entries).
    let nested: Vec<(usize, usize)> = ctx
        .items
        .iter()
        .filter(|it| it.start > lo && it.end <= hi)
        .map(|it| (it.start, it.end))
        .collect();

    let mut tainted: HashSet<String> = HashSet::new();
    let mut stored_fields: Vec<String> = Vec::new();
    let mut saw_taint = false;

    // Statement stream: split the body on `;` and `{`/`}` at the body's
    // top-level-or-deeper brace depth, keeping parens/brackets balanced so a
    // `;` inside `for i in 0..n {}` or an array type never splits early.
    let mut stmts: Vec<(usize, usize)> = Vec::new();
    {
        let mut i = lo;
        let mut start = lo;
        let mut paren = 0isize;
        'outer: while i < hi {
            for &(ns, ne) in &nested {
                if i >= ns && i <= ne {
                    // A nested fn is its own scope; cut around it.
                    if start < ns {
                        stmts.push((start, ns));
                    }
                    i = ne + 1;
                    start = i;
                    continue 'outer;
                }
            }
            match b[i] {
                b'(' | b'[' => paren += 1,
                b')' | b']' => paren -= 1,
                b';' | b'{' | b'}' if paren <= 0 => {
                    stmts.push((start, i + 1));
                    start = i + 1;
                }
                _ => {}
            }
            i += 1;
        }
        if start < hi {
            stmts.push((start, hi));
        }
    }

    for &(s, e) in &stmts {
        let stmt = &ctx.active[s..e.min(ctx.active.len())];
        let sb = stmt.as_bytes();

        // Hazard scan against the *current* tainted set (pre-update).
        if let Some((lines, out)) = report.as_mut() {
            scan_hazards(sb, s, lines, &tainted, fields, out);
        }

        // Guard: `if` / `while` condition with a comparison sanitizes the
        // tainted locals it names.
        if let Some(cond) = guard_condition(sb) {
            if has_comparison(cond) {
                let named = idents_of(cond);
                tainted.retain(|t| !named.contains(t.as_str()));
            }
            continue;
        }

        // `let` statement.
        if let Some((pats, rhs)) = split_let(stmt) {
            let rhs_tainted = expr_tainted(rhs, &tainted, sources, fields);
            let clean = has_sanitizer(rhs);
            for p in pats {
                if rhs_tainted && !clean {
                    saw_taint = true;
                    tainted.insert(p.to_string());
                } else {
                    tainted.remove(p);
                }
            }
            continue;
        }

        // Assignment / compound assignment / field store / receiver taint.
        apply_statement_effects(
            stmt,
            &mut tainted,
            sources,
            fields,
            &mut stored_fields,
            &mut saw_taint,
        );
    }

    Simulated {
        stored_fields,
        saw_taint,
    }
}

/// If the statement starts with `if`/`while`, returns the condition text.
fn guard_condition(sb: &[u8]) -> Option<&str> {
    let (i, _) = next_nonws(sb, 0)?;
    if !ident_starts_at(sb, i) {
        return None;
    }
    let w = ident_at(sb, i);
    if w != "if" && w != "while" {
        return None;
    }
    std::str::from_utf8(&sb[i + w.len()..]).ok()
}

fn has_comparison(cond: &str) -> bool {
    let b = cond.as_bytes();
    for i in 0..b.len() {
        match b[i] {
            b'<' | b'>' => return true,
            b'=' if i + 1 < b.len() && b[i + 1] == b'=' => return true,
            b'!' if i + 1 < b.len() && b[i + 1] == b'=' => return true,
            _ => {}
        }
    }
    false
}

fn idents_of(text: &str) -> HashSet<&str> {
    let b = text.as_bytes();
    let mut out = HashSet::new();
    let mut i = 0usize;
    while i < b.len() {
        if ident_starts_at(b, i) {
            let w = ident_at(b, i);
            out.insert(w);
            i += w.len();
        } else {
            i += 1;
        }
    }
    out
}

/// Splits `let <pattern> = <rhs>` into pattern idents and the rhs text.
fn split_let(stmt: &str) -> Option<(Vec<&str>, &str)> {
    let b = stmt.as_bytes();
    let (i, _) = next_nonws(b, 0)?;
    if !ident_starts_at(b, i) || ident_at(b, i) != "let" {
        return None;
    }
    // Find the `=` that is not part of `==`/`<=`/`>=`/`!=` at depth 0.
    let mut j = i + 3;
    let mut depth = 0isize;
    let mut eq = None;
    while j < b.len() {
        match b[j] {
            b'(' | b'[' | b'<' => depth += 1,
            b')' | b']' | b'>' => depth -= 1,
            b'=' if depth <= 0 => {
                let prev_ok = j == 0 || !matches!(b[j - 1], b'=' | b'<' | b'>' | b'!');
                let next_ok = j + 1 >= b.len() || b[j + 1] != b'=';
                if prev_ok && next_ok {
                    eq = Some(j);
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    let eq = eq?;
    // Pattern idents: everything before a `:` type annotation, minus
    // binding-mode keywords.
    let pat_text = &stmt[i + 3..eq];
    let pat_text = pat_text.split(':').next().unwrap_or(pat_text);
    let pats: Vec<&str> = idents_of(pat_text)
        .into_iter()
        .filter(|w| !matches!(*w, "mut" | "ref" | "box"))
        .collect();
    if pats.is_empty() {
        return None;
    }
    Some((pats, &stmt[eq + 1..]))
}

/// True when the expression mentions a taint source: a tainted local, a
/// source call `name(..)`, or a tainted field load `.name` (not a call).
fn expr_tainted(
    expr: &str,
    tainted: &HashSet<String>,
    sources: &HashSet<String>,
    fields: &HashSet<String>,
) -> bool {
    let b = expr.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        if !ident_starts_at(b, i) {
            i += 1;
            continue;
        }
        let w = ident_at(b, i);
        let start = i;
        i += w.len();
        let next = next_nonws(b, i);
        let prev = prev_nonws(b, start);
        let is_call = next.is_some_and(|(_, c)| c == b'(');
        let is_field_load = prev.is_some_and(|(_, c)| c == b'.') && !is_call;
        if tainted.contains(w) && prev.is_none_or(|(_, c)| c != b'.') {
            return true;
        }
        if is_call && sources.contains(w) && !is_float_from(b, start) {
            return true;
        }
        if is_field_load && fields.contains(w) {
            return true;
        }
    }
    false
}

/// `f32::from_le_bytes` / `f64::from_le_bytes` read floats, not lengths.
fn is_float_from(b: &[u8], call_start: usize) -> bool {
    if ident_at(b, call_start) != "from_le_bytes" {
        return false;
    }
    // Look back across `::` for the type ident.
    let Some((j, c)) = prev_nonws(b, call_start) else {
        return false;
    };
    if c != b':' || j == 0 || b[j - 1] != b':' {
        return false;
    }
    let Some((k, _)) = prev_nonws(b, j - 1) else {
        return false;
    };
    let ty = crate::lexer::ident_ending_at(b, k + 1);
    ty == "f32" || ty == "f64"
}

/// True when the initializer routes through a recognized validation step.
fn has_sanitizer(expr: &str) -> bool {
    let b = expr.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        if !ident_starts_at(b, i) {
            i += 1;
            continue;
        }
        let w = ident_at(b, i);
        let start = i;
        i += w.len();
        if next_nonws(b, i).is_none_or(|(_, c)| c != b'(') {
            continue;
        }
        if w.starts_with("checked_") || w.ends_with("_checked") || SANITIZERS.contains(&w) {
            return true;
        }
        // `usize::from(..)`: lossless only from u8/u16/bool, so the result
        // is a safe, small length by construction.
        if w == "from" {
            if let Some((j, c)) = prev_nonws(b, start) {
                if c == b':' && j > 0 && b[j - 1] == b':' {
                    if let Some((k, _)) = prev_nonws(b, j - 1) {
                        if crate::lexer::ident_ending_at(b, k + 1) == "usize" {
                            return true;
                        }
                    }
                }
            }
        }
    }
    false
}

/// Non-`let`, non-guard statements: assignments, compound assignments,
/// struct-literal shorthand stores, receiver-mutating calls.
fn apply_statement_effects(
    stmt: &str,
    tainted: &mut HashSet<String>,
    sources: &HashSet<String>,
    fields: &HashSet<String>,
    stored_fields: &mut Vec<String>,
    saw_taint: &mut bool,
) {
    let b = stmt.as_bytes();

    // `x = rhs` / `x op= rhs` at statement start (possibly `recv.f = rhs`).
    if let Some(eq) = top_level_assign(b) {
        let (lhs, rhs) = (&stmt[..eq.0], &stmt[eq.1..]);
        let rhs_tainted = expr_tainted(rhs, tainted, sources, fields) && !has_sanitizer(rhs);
        let lhs_idents: Vec<&str> = idents_of(lhs).into_iter().collect();
        // Field store: `obj.f = rhs` — last ident preceded by `.`.
        let lb = lhs.as_bytes();
        let mut field_target = None;
        let mut k = lb.len();
        while k > 0 {
            k -= 1;
            if ident_starts_at(lb, k) {
                let w = ident_at(lb, k);
                if prev_nonws(lb, k).is_some_and(|(_, c)| c == b'.') {
                    field_target = Some(w);
                }
                break;
            }
        }
        if rhs_tainted {
            *saw_taint = true;
            if let Some(f) = field_target {
                stored_fields.push(f.to_string());
            } else if let Some(x) = lhs_idents.first() {
                tainted.insert(x.to_string());
            }
        } else if field_target.is_none() {
            for x in &lhs_idents {
                tainted.remove(*x);
            }
        }
        return;
    }

    // Receiver-mutating call: `recv.method(..tainted..)` taints `recv`.
    let mut i = 0usize;
    while i < b.len() {
        if !ident_starts_at(b, i) {
            i += 1;
            continue;
        }
        let w = ident_at(b, i);
        let start = i;
        i += w.len();
        if next_nonws(b, i).is_none_or(|(_, c)| c != b'.') {
            continue;
        }
        // `w.method(args)`: check the args for taint.
        if let Some((m, _)) = next_nonws(b, i) {
            let mb = m + 1;
            if ident_starts_at(b, mb) {
                let method = ident_at(b, mb);
                let after = mb + method.len();
                if next_nonws(b, after).is_some_and(|(_, c)| c == b'(') {
                    let args = &stmt[after..];
                    if expr_tainted(args, tainted, sources, fields) && !has_sanitizer(args) {
                        *saw_taint = true;
                        tainted.insert(w.to_string());
                    }
                }
            }
        }
        let _ = start;
    }

    // Struct-literal shorthand: `{ name, other }` where `name` is tainted
    // stores into a field of the same name.
    let mut stack: Vec<u8> = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        match b[i] {
            b'(' | b'[' | b'{' => stack.push(b[i]),
            b')' | b']' | b'}' => {
                stack.pop();
            }
            _ if ident_starts_at(b, i) => {
                let w = ident_at(b, i);
                let end = i + w.len();
                let inside_brace = stack.last() == Some(&b'{');
                let before_ok = prev_nonws(b, i).is_some_and(|(_, c)| c == b'{' || c == b',');
                let after_ok = next_nonws(b, end).is_some_and(|(_, c)| c == b',' || c == b'}');
                if inside_brace && before_ok && after_ok && tainted.contains(w) {
                    *saw_taint = true;
                    stored_fields.push(w.to_string());
                }
                i = end;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
}

/// Finds a top-level `=` (or `op=`) assignment; returns (lhs_end, rhs_start).
fn top_level_assign(b: &[u8]) -> Option<(usize, usize)> {
    // Statements starting with keywords are not assignments.
    let (i, _) = next_nonws(b, 0)?;
    if ident_starts_at(b, i) {
        let w = ident_at(b, i);
        if matches!(
            w,
            "let" | "if" | "while" | "for" | "match" | "return" | "fn" | "use" | "pub" | "loop"
        ) {
            return None;
        }
    }
    let mut depth = 0isize;
    let mut j = i;
    while j < b.len() {
        match b[j] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'=' if depth <= 0 => {
                if j + 1 < b.len() && b[j + 1] == b'=' {
                    return None; // comparison, not assignment
                }
                let prev = if j > 0 { b[j - 1] } else { b' ' };
                return match prev {
                    b'<' | b'>' | b'!' => None,
                    b'+' | b'-' | b'*' => Some((j - 1, j + 1)),
                    _ => Some((j, j + 1)),
                };
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Scans one statement for hazardous uses of currently-tainted values.
fn scan_hazards(
    sb: &[u8],
    stmt_off: usize,
    lines: &Lines,
    tainted: &HashSet<String>,
    fields: &HashSet<String>,
    out: &mut Vec<(usize, String)>,
) {
    let stmt = std::str::from_utf8(sb).unwrap_or("");
    let mut bracket_depth = 0usize; // inside `[...]` index/slice expressions
    let mut i = 0usize;
    while i < sb.len() {
        match sb[i] {
            b'[' => bracket_depth += 1,
            b']' => bracket_depth = bracket_depth.saturating_sub(1),
            _ => {}
        }
        if !ident_starts_at(sb, i) {
            i += 1;
            continue;
        }
        let w = ident_at(sb, i);
        let start = i;
        i += w.len();

        let is_field_load = prev_nonws(sb, start).is_some_and(|(_, c)| c == b'.')
            && next_nonws(sb, i).is_none_or(|(_, c)| c != b'(');
        let is_tainted = (tainted.contains(w)
            && prev_nonws(sb, start).is_none_or(|(_, c)| c != b'.'))
            || (is_field_load && fields.contains(w));
        let line = lines.line_of(stmt_off + start);

        if is_tainted {
            // Masking with a literal bounds the value: `t & 0x7F` is clean.
            let masked = next_nonws(sb, i).is_some_and(|(_, c)| c == b'&')
                || prev_nonws(sb, start)
                    .is_some_and(|(j, c)| c == b'&' && j > 0 && is_value_end(sb[j - 1]));
            if !masked {
                // Bare arithmetic adjacency.
                if let Some((j, c)) = next_nonws(sb, i) {
                    if arith_op_at(sb, j, c, true) {
                        out.push((line, arith_msg(w, c)));
                        continue;
                    }
                }
                if let Some((j, c)) = prev_nonws(sb, start) {
                    if arith_op_at(sb, j, c, false) {
                        out.push((line, arith_msg(w, c)));
                        continue;
                    }
                }
                // Slice-range construction inside an index bracket.
                if bracket_depth > 0 {
                    let next_is_range = sb.get(i..).is_some_and(|r| {
                        let (k, _) = next_nonws(r, 0).unwrap_or((0, b' '));
                        r.get(k..k + 2) == Some(b"..")
                    });
                    let prev_is_range = start >= 2 && {
                        let (j, _) = prev_nonws(sb, start).unwrap_or((0, b' '));
                        j >= 1 && &sb[j - 1..=j] == b".." || j >= 2 && &sb[j - 2..=j] == b"..="
                    };
                    if next_is_range || prev_is_range {
                        out.push((
                            line,
                            format!(
                                "slice range bounded by untrusted length `{w}`; use \
                                 `.get(..)` or validate it first"
                            ),
                        ));
                        continue;
                    }
                }
            }
        }

        // Allocation / fold calls with a tainted argument or receiver.
        if next_nonws(sb, i).is_some_and(|(_, c)| c == b'(') {
            if ALLOC_CALLS.contains(&w) {
                if let Some(arg) = call_args(stmt, i) {
                    if expr_contains_tainted_atom(arg, tainted, fields) && !has_sanitizer(arg) {
                        out.push((
                            line,
                            format!(
                                "allocation `{w}(..)` sized by an untrusted length; \
                                 validate or cap it first"
                            ),
                        ));
                    }
                }
            }
            if FOLD_CALLS.contains(&w)
                && prev_nonws(sb, start).is_some_and(|(_, c)| c == b'.')
                && expr_contains_tainted_atom(&stmt[..start], tainted, fields)
            {
                out.push((
                    line,
                    format!(
                        "unchecked `.{w}()` over untrusted lengths; use \
                         `try_fold` with `checked_mul`/`checked_add`"
                    ),
                ));
            }
        }

        // `vec![expr; len]` with a tainted len.
        if w == "vec" && next_nonws(sb, i).is_some_and(|(_, c)| c == b'!') {
            if let Some(body) = macro_body(stmt, i) {
                if let Some(semi) = body.find(';') {
                    let len_expr = &body[semi + 1..];
                    if expr_contains_tainted_atom(len_expr, tainted, fields)
                        && !has_sanitizer(len_expr)
                    {
                        out.push((
                            line,
                            "`vec![_; n]` sized by an untrusted length; validate or cap \
                             it first"
                                .to_string(),
                        ));
                    }
                }
            }
        }
    }
}

fn arith_op_at(sb: &[u8], j: usize, c: u8, after: bool) -> bool {
    match c {
        b'+' | b'-' | b'*' => {
            // Exclude `->`, `+=`-RHS side effects handled elsewhere, unary
            // and deref forms: a binary operator has a value on both sides.
            if c == b'-' && sb.get(j + 1) == Some(&b'>') {
                return false;
            }
            if sb.get(j + 1) == Some(&b'=') {
                return true; // compound assign is still bare arithmetic
            }
            if after {
                true
            } else {
                // `* t` / `- t`: binary only when something value-like
                // precedes the operator.
                prev_nonws(sb, j).is_some_and(|(_, p)| is_value_end(p))
            }
        }
        b'<' => sb.get(j + 1) == Some(&b'<') || (j > 0 && sb[j - 1] == b'<'),
        _ => false,
    }
}

fn arith_msg(name: &str, op: u8) -> String {
    let op = match op {
        b'+' => "+",
        b'-' => "-",
        b'*' => "*",
        _ => "<<",
    };
    format!(
        "unchecked `{op}` on untrusted length `{name}`; use `checked_{}` or validate it first",
        match op {
            "+" => "add",
            "-" => "sub",
            "*" => "mul",
            _ => "shl",
        }
    )
}

/// Like [`expr_tainted`] but for hazard arguments: field loads and locals
/// only (a source *call* inside an argument is the initializer case, already
/// handled by the binding rules).
fn expr_contains_tainted_atom(
    expr: &str,
    tainted: &HashSet<String>,
    fields: &HashSet<String>,
) -> bool {
    let b = expr.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        if !ident_starts_at(b, i) {
            i += 1;
            continue;
        }
        let w = ident_at(b, i);
        let start = i;
        i += w.len();
        let prev_dot = prev_nonws(b, start).is_some_and(|(_, c)| c == b'.');
        let is_call = next_nonws(b, i).is_some_and(|(_, c)| c == b'(');
        if tainted.contains(w) && !prev_dot {
            return true;
        }
        if prev_dot && !is_call && fields.contains(w) {
            return true;
        }
    }
    false
}

/// Returns the argument text of the call whose `(` follows byte `i`.
fn call_args(stmt: &str, i: usize) -> Option<&str> {
    let b = stmt.as_bytes();
    let (open, c) = next_nonws(b, i)?;
    if c != b'(' {
        return None;
    }
    let mut depth = 0isize;
    for (k, &ch) in b.iter().enumerate().skip(open) {
        match ch {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return stmt.get(open + 1..k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Returns the bracketed body of `vec![...]` whose `!` follows byte `i`.
fn macro_body(stmt: &str, i: usize) -> Option<&str> {
    let b = stmt.as_bytes();
    let (bang, c) = next_nonws(b, i)?;
    if c != b'!' {
        return None;
    }
    let (open, c) = next_nonws(b, bang + 1)?;
    if c != b'[' && c != b'(' {
        return None;
    }
    let close = if c == b'[' { b']' } else { b')' };
    let mut depth = 0isize;
    for (k, &ch) in b.iter().enumerate().skip(open) {
        if ch == c {
            depth += 1;
        } else if ch == close {
            depth -= 1;
            if depth == 0 {
                return stmt.get(open + 1..k);
            }
        }
    }
    None
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

    #[test]
    fn unchecked_arithmetic_on_parsed_length_is_flagged() {
        let f = findings(&[(
            "crates/core/src/chunked.rs",
            "fn open(r: &mut R) -> Result<usize, E> {\n    let n = r.u32()? as usize;\n    let total = n * 16 + 8;\n    Ok(total)\n}\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].1, 3);
        assert!(f[0].2.contains("checked_mul"), "{}", f[0].2);
    }

    #[test]
    fn guard_and_checked_paths_are_clean() {
        let f = findings(&[(
            "crates/core/src/chunked.rs",
            "fn open(r: &mut R) -> Result<(), E> {\n\
             \x20   let n = r.u32()? as usize;\n\
             \x20   if n > 1000 { return Err(E::Bad); }\n\
             \x20   let v = Vec::with_capacity(n);\n\
             \x20   let k = r.u64()?;\n\
             \x20   let end = base.checked_add(k).ok_or(E::Bad)?;\n\
             \x20   Ok(())\n}\n",
        )]);
        assert_eq!(f, vec![], "guarded and checked uses must not report");
    }

    #[test]
    fn allocation_and_vec_macro_sized_by_length_are_flagged() {
        let f = findings(&[(
            "crates/cli/src/czfile.rs",
            "fn load(r: &mut R) -> Result<(), E> {\n\
             \x20   let len = r.u64()?;\n\
             \x20   let buf = vec![0u8; len as usize];\n\
             \x20   let n = r.u32()?;\n\
             \x20   let v = Vec::with_capacity(n as usize);\n\
             \x20   Ok(())\n}\n",
        )]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].2.contains("vec!"), "{}", f[0].2);
        assert!(f[1].2.contains("with_capacity"), "{}", f[1].2);
    }

    #[test]
    fn usize_from_is_a_sanitizer() {
        let f = findings(&[(
            "crates/cli/src/czfile.rs",
            "fn load(r: &mut R) -> Result<(), E> {\n\
             \x20   let n = usize::from(r.u8()?);\n\
             \x20   let v = Vec::with_capacity(n);\n\
             \x20   Ok(())\n}\n",
        )]);
        assert_eq!(f, vec![]);
    }

    #[test]
    fn taint_crosses_files_through_derived_sources() {
        // `read_len` is defined in a source-scope file and returns an int
        // derived from a primitive read; calling it from another crate's
        // decoder taints the binding there.
        let f = findings(&[
            (
                "crates/core/src/chunked.rs",
                "pub fn read_len(r: &mut R) -> Result<usize, E> {\n    let v = r.u64()?;\n    Ok(v as usize)\n}\n",
            ),
            (
                "crates/baselines/src/zfp_fixture.rs",
                "pub fn decode(r: &mut R) -> Result<(), E> {\n    let n = read_len(r)?;\n    let total = n + 4;\n    Ok(())\n}\n",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, "crates/baselines/src/zfp_fixture.rs");
        assert!(f[0].2.contains("checked_add"), "{}", f[0].2);
    }

    #[test]
    fn field_stores_propagate_and_guarded_stores_do_not() {
        let f = findings(&[(
            "crates/core/src/chunked.rs",
            "struct S { count: usize, rank: usize }\n\
             fn open(r: &mut R) -> Result<S, E> {\n\
             \x20   let count = r.u32()? as usize;\n\
             \x20   let rank = r.u8()? as usize;\n\
             \x20   if rank > 6 { return Err(E::Bad); }\n\
             \x20   Ok(S { count, rank })\n}\n\
             fn use_it(s: &S) -> usize {\n\
             \x20   s.count * 8\n}\n\
             fn use_rank(s: &S) -> usize {\n\
             \x20   s.rank + 1\n}\n",
        )]);
        // `count` was stored unvalidated → the `*` downstream reports;
        // `rank` was guarded before the store → clean.
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("`count`"), "{}", f[0].2);
    }

    #[test]
    fn masked_and_float_reads_are_clean() {
        let f = findings(&[(
            "crates/baselines/src/header.rs",
            "fn varint(r: &mut R) -> Result<u64, E> {\n\
             \x20   let b = r.u8()?;\n\
             \x20   let v = u64::from(b & 0x7F) << 3;\n\
             \x20   Ok(v)\n}\n\
             fn floats(r: &mut R) -> Result<f64, E> {\n\
             \x20   let eb = f64::from_le_bytes(x);\n\
             \x20   Ok(eb * 0.5)\n}\n",
        )]);
        assert_eq!(f, vec![], "{f:?}");
    }

    #[test]
    fn out_of_scope_files_do_not_report() {
        let f = findings(&[(
            "crates/entropy/src/huffman.rs",
            "fn decode(r: &mut R) -> Result<usize, E> {\n    let n = r.u32()? as usize;\n    Ok(n * 2)\n}\n",
        )]);
        assert_eq!(f, vec![]);
    }
}
