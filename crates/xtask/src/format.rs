//! Rules R14–R16: the container-format audit.
//!
//! * **R14 — serializer/parser symmetry.** Every writer and parser of a
//!   container format is identified by its use of a registry
//!   [`FormatSpec`] constant (a `.magic(&SPEC)` emission, an
//!   `expect_magic(&SPEC)` check, a hand-rolled `SPEC.magic` byte
//!   comparison, or a call to a generic helper that does one of those).
//!   For each format the ordered field emissions of the writer are
//!   replayed against the parser's ordered reads: a width or order
//!   mismatch, a format written but never parsed, or parsed but never
//!   written, is a finding. Trailer magics (`*_TRAILER_MAGIC`) must be
//!   both emitted and checked.
//! * **R15 — version discipline.** Hand-rolled parsers that check a magic
//!   must range-check a version byte (an `UnsupportedVersion` path or a
//!   `SPEC.version` comparison) before decoding any count/length field;
//!   magic constants and `FormatSpec` literals may only live in the
//!   `cliz-format` registry; two registry entries sharing a magic value
//!   is a finding.
//! * **R16 — parser error-surface coverage.** Every variant of an
//!   `*Error` enum in the format-handling crates must be constructed
//!   somewhere in product code (no dead error surface); variants
//!   constructed on a parse path must be asserted by at least one test
//!   and be reachable from a decode entry point.
//!
//! The pass is scoped to the crates that own container formats
//! (`format`, `core`, `store`, `cli`, `lossless`, `baselines`); xtask's
//! own sources and fixtures are exempt. Like R8, the analysis sees the
//! integration-test files: they are R16 coverage evidence only.

use crate::contracts::is_test_path;
use crate::items::{self, FnItem};
use crate::lexer::{
    blank_test_items, ident_at, ident_ending_at, ident_starts_at, is_ident, match_brace,
    next_nonws, prev_nonws, strip, Lines,
};
use std::collections::{HashMap, HashSet};

/// One R14/R15/R16 finding.
#[derive(Debug)]
pub struct FormatFinding {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub message: String,
}

/// Crates whose sources are audited. The registry crate itself is scanned
/// for R16 but is exempt from R14/R15 (it *implements* the cursors the
/// other crates are paired through).
const FORMAT_SCOPE: &[&str] = &[
    "crates/format/src/",
    "crates/core/src/",
    "crates/store/src/",
    "crates/cli/src/",
    "crates/lossless/src/",
    "crates/baselines/src/",
    "crates/storage/src/",
    "crates/serve/src/",
];

fn in_scope(rel: &str) -> bool {
    FORMAT_SCOPE.iter().any(|p| rel.starts_with(p))
}

fn is_registry_path(rel: &str) -> bool {
    rel.contains("format/src")
}

fn is_exempt(rel: &str) -> bool {
    rel.starts_with("crates/xtask/") || rel.starts_with("crates/bench/")
}

/// `crates/<name>/…` → `<name>`; used for same-crate helper resolution.
fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
}

struct SrcFile {
    rel: String,
    /// Comments/strings blanked, test items blanked.
    active: String,
    /// Comments/strings blanked, test items kept (same length as `active`).
    stripped: String,
    lines: Lines,
    items: Vec<FnItem>,
}

pub fn analyze(files: &[(String, String)]) -> Vec<FormatFinding> {
    let mut product = Vec::new();
    let mut test_texts = Vec::new();
    for (rel, source) in files {
        if is_exempt(rel) {
            continue;
        }
        if is_test_path(rel) {
            test_texts.push((rel.clone(), strip(source).code));
            continue;
        }
        let stripped = strip(source).code;
        let active = blank_test_items(&stripped);
        let lines = Lines::new(&active);
        let fn_items = items::parse_items(&active, &lines);
        product.push(SrcFile {
            rel: rel.clone(),
            active,
            stripped,
            lines,
            items: fn_items,
        });
    }

    let mut findings = Vec::new();
    let reg = parse_registry(&product);
    r15_literals(&product, &reg, &mut findings);
    let class = classify(&product, &reg);
    r14(&product, &reg, &class, &mut findings);
    r15_versions(&product, &class, &mut findings);
    r16(&product, &test_texts, &class, &mut findings);
    findings
}

// ---------------------------------------------------------------------------
// Registry parsing
// ---------------------------------------------------------------------------

struct SpecDef {
    ident: String,
    value: Option<u64>,
    file: String,
    line: usize,
}

#[derive(Default)]
struct Registry {
    specs: Vec<SpecDef>,
    trailers: Vec<SpecDef>,
}

fn parse_registry(product: &[SrcFile]) -> Registry {
    let mut reg = Registry::default();
    for f in product.iter().filter(|f| is_registry_path(&f.rel)) {
        let b = f.active.as_bytes();
        let mut i = 0;
        while i < b.len() {
            if !ident_starts_at(b, i) {
                i += 1;
                continue;
            }
            let id = ident_at(b, i);
            if id == "const" {
                if let Some(def) = parse_const_decl(f, i) {
                    if def.0 == "FormatSpec" {
                        reg.specs.push(def.1);
                    } else if def.0 == "u32" && def.1.ident.contains("TRAILER") {
                        reg.trailers.push(def.1);
                    }
                }
            }
            i += id.len().max(1);
        }
    }
    reg
}

/// Parses `const NAME: TYPE = …` at `at` (the `const` keyword). Returns the
/// type ident and a [`SpecDef`] whose value is the magic literal (for
/// `FormatSpec { … magic: 0x…, … }`) or the initializer (for `u32`).
fn parse_const_decl(f: &SrcFile, at: usize) -> Option<(String, SpecDef)> {
    let b = f.active.as_bytes();
    let (j, c) = next_nonws(b, at + 5)?;
    if !is_ident(c) {
        return None;
    }
    let name = ident_at(b, j).to_string();
    let (k, colon) = next_nonws(b, j + name.len())?;
    if colon != b':' {
        return None;
    }
    let (t, tc) = next_nonws(b, k + 1)?;
    if !is_ident(tc) {
        return None;
    }
    let ty = ident_at(b, t).to_string();
    let value = if ty == "FormatSpec" {
        spec_magic_value(b, t + ty.len())
    } else {
        let eq = find_byte(b, t + ty.len(), b'=')?;
        parse_number(b, eq + 1)
    };
    Some((
        ty,
        SpecDef {
            ident: name,
            value,
            file: f.rel.clone(),
            line: f.lines.line_of(j),
        },
    ))
}

/// The `magic:` field literal inside the `FormatSpec { … }` initializer
/// starting after `from`.
fn spec_magic_value(b: &[u8], from: usize) -> Option<u64> {
    let open = find_byte(b, from, b'{')?;
    let close = match_brace(b, open);
    let mut i = open + 1;
    while i < close {
        if ident_starts_at(b, i) {
            let id = ident_at(b, i);
            if id == "magic" {
                if let Some((k, b':')) = next_nonws(b, i + id.len()) {
                    return parse_number(b, k + 1);
                }
            }
            i += id.len().max(1);
            continue;
        }
        i += 1;
    }
    None
}

fn find_byte(b: &[u8], from: usize, target: u8) -> Option<usize> {
    b.get(from..)?
        .iter()
        .position(|&c| c == target)
        .map(|p| from + p)
}

/// Parses a decimal or `0x…` integer literal (with `_` separators) at the
/// first non-whitespace position at/after `from`.
fn parse_number(b: &[u8], from: usize) -> Option<u64> {
    let (mut i, c) = next_nonws(b, from)?;
    if !c.is_ascii_digit() {
        return None;
    }
    let hex = b[i..].starts_with(b"0x") || b[i..].starts_with(b"0X");
    if hex {
        i += 2;
    }
    let radix = if hex { 16 } else { 10 };
    let mut v: u64 = 0;
    let mut any = false;
    while i < b.len() {
        let ch = b[i] as char;
        if ch == '_' {
            i += 1;
            continue;
        }
        match ch.to_digit(radix) {
            Some(d) => {
                v = v.wrapping_mul(u64::from(radix)).wrapping_add(u64::from(d));
                any = true;
                i += 1;
            }
            None => break,
        }
    }
    any.then_some(v)
}

fn match_delim(b: &[u8], open: usize, oc: u8, cc: u8) -> usize {
    let mut depth = 0isize;
    let mut i = open;
    while i < b.len() {
        if b[i] == oc {
            depth += 1;
        } else if b[i] == cc {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    b.len().saturating_sub(1)
}

fn match_paren(b: &[u8], open: usize) -> usize {
    match_delim(b, open, b'(', b')')
}

/// All offsets in `[from, to)` where the identifier token `name` starts.
fn ident_occurrences(b: &[u8], from: usize, to: usize, name: &str) -> Vec<usize> {
    let nb = name.as_bytes();
    let mut out = Vec::new();
    let mut i = from;
    while i + nb.len() <= to {
        if ident_starts_at(b, i) && b[i..].starts_with(nb) && !is_ident(b[i + nb.len()]) {
            out.push(i);
            i += nb.len();
        } else {
            i += 1;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Field-program model (R14)
// ---------------------------------------------------------------------------

/// One element of a writer's or parser's ordered field program.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    /// The magic+version prefix (a `.magic`/`expect_magic` site).
    Magic,
    /// A single fixed-width field.
    Op(&'static str),
    /// Fields emitted inside one loop body, in order.
    Group(Vec<&'static str>),
    /// A homogeneous run (loop plus adjacent same-width fields) — the
    /// star-normalized form that makes `N` and `N+1` element encodings of
    /// the same table compare equal.
    Star(&'static str),
}

#[derive(Clone, Debug)]
struct Program {
    toks: Vec<Tok>,
    /// False once extraction hit an opaque operation (`raw`, `take`,
    /// `rest`, a `match`, …): the tail of the format is not replayable and
    /// only the extracted prefix is compared.
    complete: bool,
}

impl Program {
    fn opaque() -> Program {
        Program {
            toks: vec![Tok::Magic],
            complete: false,
        }
    }
}

/// Cursor method → canonical field tag. `len64` is the checked read of a
/// `u64` length, so it pairs with a written `u64`.
const OP_TAGS: &[(&str, &str)] = &[
    (".u8(", "u8"),
    (".u16(", "u16"),
    (".u32(", "u32"),
    (".u64(", "u64"),
    (".len64(", "u64"),
    (".varint(", "varint"),
    (".f32(", "f32"),
    (".f64(", "f64"),
    (".block(", "block"),
    (".str16(", "str16"),
];

/// Cursor methods whose payload is not a fixed field sequence: extraction
/// stops and the program is marked incomplete.
const STOP_CALLS: &[&str] = &[".raw(", ".take(", ".skip(", ".rest(", ".to_le_bytes("];

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Writer,
    Reader,
}

/// A function classified as the writer or parser of one format.
struct Party {
    file: usize,
    item: usize,
    prog: Program,
    /// Classified for more than one spec (a dispatcher): pairing evidence
    /// only, no field replay.
    multi: bool,
    /// Classification came from a hand-rolled `SPEC.magic` byte
    /// comparison/emission rather than the shared cursor.
    hand: bool,
    /// Offset of the classifying evidence (anchor for R15's scan).
    at: usize,
}

#[derive(Default)]
struct Class {
    writers: HashMap<String, Vec<Party>>,
    readers: HashMap<String, Vec<Party>>,
    /// Trailer-magic evidence: (trailer ident, file, offset).
    trailer_writes: Vec<(String, usize, usize)>,
    trailer_reads: Vec<(String, usize, usize)>,
    /// Every fn with parse-side evidence (for R16's parser set).
    reader_fns: HashSet<(usize, usize)>,
}

/// Generic helpers: fns taking a `&FormatSpec` parameter that emit or check
/// the magic themselves or delegate to another helper. Registry files are
/// excluded so the cursor implementation never becomes a "helper".
struct Helpers {
    by_name: HashMap<String, Vec<(usize, usize)>>,
    kind: HashMap<(usize, usize), Kind>,
}

impl Helpers {
    fn resolve(
        &self,
        name: &str,
        caller_crate: &str,
        product: &[SrcFile],
    ) -> Option<(usize, usize)> {
        let cands = self.by_name.get(name)?;
        let same: Vec<_> = cands
            .iter()
            .filter(|(fi, _)| crate_of(&product[*fi].rel) == caller_crate)
            .collect();
        match (same.len(), cands.len()) {
            (1, _) => Some(*same[0]),
            (0, 1) => Some(cands[0]),
            _ => None,
        }
    }
}

fn sig_has_spec(f: &SrcFile, it: &FnItem) -> bool {
    it.has_body && f.active[it.start..it.body_open].contains("FormatSpec")
}

fn find_helpers(product: &[SrcFile]) -> Helpers {
    let mut kind: HashMap<(usize, usize), Kind> = HashMap::new();
    // Seed: helpers that touch the magic directly.
    for (fi, f) in product.iter().enumerate() {
        if !in_scope(&f.rel) || is_registry_path(&f.rel) {
            continue;
        }
        for (ii, it) in f.items.iter().enumerate() {
            if !sig_has_spec(f, it) {
                continue;
            }
            let body = &f.active[it.body_open..=it.end];
            if body.contains("expect_magic(") {
                kind.insert((fi, ii), Kind::Reader);
            } else if body.contains(".magic(") {
                kind.insert((fi, ii), Kind::Writer);
            }
        }
    }
    // Propagate: a spec-parameterized fn that calls a helper is a helper.
    loop {
        let mut changed = false;
        for (fi, f) in product.iter().enumerate() {
            if !in_scope(&f.rel) || is_registry_path(&f.rel) {
                continue;
            }
            for (ii, it) in f.items.iter().enumerate() {
                if kind.contains_key(&(fi, ii)) || !sig_has_spec(f, it) {
                    continue;
                }
                for call in &it.calls {
                    let hit = kind
                        .iter()
                        .find(|((hf, hi), _)| product[*hf].items[*hi].name == call.callee)
                        .map(|(_, k)| *k);
                    if let Some(k) = hit {
                        kind.insert((fi, ii), k);
                        changed = true;
                        break;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut by_name: HashMap<String, Vec<(usize, usize)>> = HashMap::new();
    for &(fi, ii) in kind.keys() {
        by_name
            .entry(product[fi].items[ii].name.clone())
            .or_default()
            .push((fi, ii));
    }
    for v in by_name.values_mut() {
        v.sort_unstable();
    }
    Helpers { by_name, kind }
}

/// Raw classification evidence found in one fn body.
struct Ev {
    kind: Kind,
    spec: String,
    /// Scan resumes here (past the anchoring call); `None` = hand-rolled.
    anchor_end: Option<usize>,
    cursor: Option<String>,
    /// Delegated helper whose program is spliced in at the anchor.
    splice: Option<(usize, usize)>,
    at: usize,
}

fn scan_evidence(
    product: &[SrcFile],
    fi: usize,
    it: &FnItem,
    spec_idents: &HashSet<&str>,
    helpers: &Helpers,
) -> Vec<Ev> {
    let f = &product[fi];
    let b = f.active.as_bytes();
    let (lo, hi) = (it.body_open, it.end);
    let mut evs = Vec::new();

    // Cursor emissions: `cur.magic(&SPEC)`.
    let mut i = lo;
    while let Some(p) = find_sub(b, i, hi, b".magic(") {
        let open = p + 6;
        let close = match_paren(b, open);
        let cursor = Some(ident_ending_at(b, p).to_string()).filter(|c| !c.is_empty());
        for s in idents_in(b, open + 1, close, spec_idents) {
            evs.push(Ev {
                kind: Kind::Writer,
                spec: s,
                anchor_end: Some(close + 1),
                cursor: cursor.clone(),
                splice: None,
                at: p,
            });
        }
        i = close + 1;
    }
    // Cursor checks: `cur.expect_magic(&SPEC)`.
    let mut i = lo;
    while let Some(p) = find_sub(b, i, hi, b"expect_magic(") {
        if !ident_starts_at(b, p) {
            i = p + 1;
            continue;
        }
        let open = p + 12;
        let close = match_paren(b, open);
        let cursor = (p > 0 && b[p - 1] == b'.')
            .then(|| ident_ending_at(b, p - 1).to_string())
            .filter(|c| !c.is_empty());
        for s in idents_in(b, open + 1, close, spec_idents) {
            evs.push(Ev {
                kind: Kind::Reader,
                spec: s,
                anchor_end: Some(close + 1),
                cursor: cursor.clone(),
                splice: None,
                at: p,
            });
        }
        i = close + 1;
    }
    // Hand-rolled `SPEC.magic` byte emission or comparison.
    for &spec in spec_idents {
        for q in ident_occurrences(b, lo, hi, spec) {
            let after = q + spec.len();
            if !b[after..].starts_with(b".magic") || b.get(after + 6) == Some(&b'(') {
                continue;
            }
            let is_cmp = prev_nonws(b, q)
                .is_some_and(|(j, c)| c == b'=' && j > 0 && (b[j - 1] == b'!' || b[j - 1] == b'='));
            evs.push(Ev {
                kind: if is_cmp { Kind::Reader } else { Kind::Writer },
                spec: spec.to_string(),
                anchor_end: None,
                cursor: None,
                splice: None,
                at: q,
            });
        }
    }
    // Delegation to a generic helper with a registry spec argument.
    for name in helpers.by_name.keys() {
        for q in ident_occurrences(b, lo, hi, name) {
            let Some((op, b'(')) = next_nonws(b, q + name.len()) else {
                continue;
            };
            let is_def = prev_nonws(b, q)
                .is_some_and(|(j, c)| is_ident(c) && ident_ending_at(b, j + 1) == "fn");
            if is_def {
                continue;
            }
            let Some(key) = helpers.resolve(name, crate_of(&f.rel), product) else {
                continue;
            };
            let close = match_paren(b, op);
            let cursor = cursor_arg(b, op + 1, close);
            for s in idents_in(b, op + 1, close, spec_idents) {
                evs.push(Ev {
                    kind: helpers.kind[&key],
                    spec: s,
                    anchor_end: Some(close + 1),
                    cursor: cursor.clone(),
                    splice: Some(key),
                    at: q,
                });
            }
        }
    }
    evs.sort_by_key(|e| e.at);
    evs
}

fn find_sub(b: &[u8], from: usize, to: usize, pat: &[u8]) -> Option<usize> {
    if to < pat.len() || from + pat.len() > to {
        return None;
    }
    (from..=to - pat.len()).find(|&i| b[i..].starts_with(pat))
}

fn idents_in(b: &[u8], from: usize, to: usize, set: &HashSet<&str>) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = from;
    while i < to {
        if ident_starts_at(b, i) {
            let id = ident_at(b, i);
            if set.contains(id) {
                out.push(id.to_string());
            }
            i += id.len().max(1);
        } else {
            i += 1;
        }
    }
    out
}

/// The `&mut X` argument of a delegating call: the cursor the caller keeps
/// using after the helper returns.
fn cursor_arg(b: &[u8], from: usize, to: usize) -> Option<String> {
    let p = find_sub(b, from, to, b"mut ")?;
    let (j, c) = next_nonws(b, p + 4)?;
    is_ident(c).then(|| ident_at(b, j).to_string())
}

fn classify(product: &[SrcFile], reg: &Registry) -> Class {
    let mut class = Class::default();
    let spec_idents: HashSet<&str> = reg.specs.iter().map(|s| s.ident.as_str()).collect();
    let helpers = find_helpers(product);
    let helper_progs = helper_programs(product, &helpers);

    for (fi, f) in product.iter().enumerate() {
        if !in_scope(&f.rel) || is_registry_path(&f.rel) {
            continue;
        }
        let b = f.active.as_bytes();
        for (ii, it) in f.items.iter().enumerate() {
            if !it.has_body {
                continue;
            }
            // Trailer-magic evidence is fn-independent.
            for t in &reg.trailers {
                for q in ident_occurrences(b, it.body_open, it.end, &t.ident) {
                    let prev = prev_nonws(b, q);
                    let is_cmp = prev.is_some_and(|(j, c)| {
                        c == b'=' && j > 0 && (b[j - 1] == b'!' || b[j - 1] == b'=')
                    });
                    if is_cmp {
                        class.trailer_reads.push((t.ident.clone(), fi, q));
                        class.reader_fns.insert((fi, ii));
                    } else if prev.is_some_and(|(_, c)| c == b'(' || c == b'&') {
                        class.trailer_writes.push((t.ident.clone(), fi, q));
                    }
                }
            }
            if sig_has_spec(f, it) && helpers.kind.contains_key(&(fi, ii)) {
                // Generic helpers are classified through their callers; they
                // still count as parse-side code for R16.
                if helpers.kind[&(fi, ii)] == Kind::Reader {
                    class.reader_fns.insert((fi, ii));
                }
                continue;
            }
            let evs = scan_evidence(product, fi, it, &spec_idents, &helpers);
            if evs.is_empty() {
                continue;
            }
            for &kind in &[Kind::Writer, Kind::Reader] {
                let mine: Vec<&Ev> = evs.iter().filter(|e| e.kind == kind).collect();
                if mine.is_empty() {
                    continue;
                }
                let mut specs: Vec<&str> = mine.iter().map(|e| e.spec.as_str()).collect();
                specs.sort_unstable();
                specs.dedup();
                let multi = specs.len() > 1;
                // Anchor on the first cursor/delegation evidence; a fn with
                // only hand-rolled evidence stays existence-only.
                let anchored = mine.iter().find(|e| e.anchor_end.is_some());
                let (prog, hand, at) = match anchored {
                    Some(e) if !multi => {
                        let (init, init_complete) = match e.splice {
                            Some(key) => {
                                let hp = &helper_progs[&key];
                                (hp.toks.clone(), hp.complete)
                            }
                            None => (vec![Tok::Magic], true),
                        };
                        let prog = extract(
                            product,
                            fi,
                            it,
                            e.anchor_end.unwrap(),
                            init,
                            init_complete,
                            e.cursor.as_deref(),
                            &helpers,
                            &helper_progs,
                        );
                        (prog, false, e.at)
                    }
                    Some(e) => (Program::opaque(), false, e.at),
                    None => (Program::opaque(), true, mine[0].at),
                };
                for s in &specs {
                    let party = Party {
                        file: fi,
                        item: ii,
                        prog: prog.clone(),
                        multi,
                        hand,
                        at,
                    };
                    match kind {
                        Kind::Writer => class
                            .writers
                            .entry((*s).to_string())
                            .or_default()
                            .push(party),
                        Kind::Reader => {
                            class.reader_fns.insert((fi, ii));
                            class
                                .readers
                                .entry((*s).to_string())
                                .or_default()
                                .push(party)
                        }
                    }
                }
            }
        }
    }
    class
}

fn helper_programs(product: &[SrcFile], helpers: &Helpers) -> HashMap<(usize, usize), Program> {
    let mut memo = HashMap::new();
    let keys: Vec<(usize, usize)> = helpers.kind.keys().copied().collect();
    for key in keys {
        compute_helper(product, helpers, key, &mut memo, 0);
    }
    memo
}

fn compute_helper(
    product: &[SrcFile],
    helpers: &Helpers,
    key: (usize, usize),
    memo: &mut HashMap<(usize, usize), Program>,
    depth: usize,
) -> Program {
    if let Some(p) = memo.get(&key) {
        return p.clone();
    }
    // Guard against recursion between helpers.
    memo.insert(key, Program::opaque());
    if depth > 4 {
        return Program::opaque();
    }
    let (fi, ii) = key;
    let f = &product[fi];
    let it = &f.items[ii];
    let b = f.active.as_bytes();
    let (lo, hi) = (it.body_open, it.end);

    // Anchor: own magic call, own expect_magic call, or first delegated
    // helper call — whichever comes first. It holds the call's start and
    // end offsets, the cursor it reads through, and the delegated helper.
    type Anchor = (usize, usize, Option<String>, Option<(usize, usize)>);
    let mut anchor: Option<Anchor> = None;
    if let Some(p) = find_sub(b, lo, hi, b".magic(") {
        let close = match_paren(b, p + 6);
        let cur = Some(ident_ending_at(b, p).to_string()).filter(|c| !c.is_empty());
        anchor = Some((p, close + 1, cur, None));
    }
    if let Some(p) = find_sub(b, lo, hi, b"expect_magic(") {
        if anchor.as_ref().is_none_or(|a| p < a.0) {
            let close = match_paren(b, p + 12);
            let cur = (p > 0 && b[p - 1] == b'.')
                .then(|| ident_ending_at(b, p - 1).to_string())
                .filter(|c| !c.is_empty());
            anchor = Some((p, close + 1, cur, None));
        }
    }
    for name in helpers.by_name.keys() {
        for q in ident_occurrences(b, lo, hi, name) {
            if anchor.as_ref().is_some_and(|a| q >= a.0) {
                continue;
            }
            let Some((op, b'(')) = next_nonws(b, q + name.len()) else {
                continue;
            };
            let Some(hkey) = helpers.resolve(name, crate_of(&f.rel), product) else {
                continue;
            };
            if hkey == key {
                continue;
            }
            let close = match_paren(b, op);
            anchor = Some((q, close + 1, cursor_arg(b, op + 1, close), Some(hkey)));
        }
    }
    let Some((_, anchor_end, cursor, splice)) = anchor else {
        return Program::opaque();
    };
    let (init, init_complete) = match splice {
        Some(hkey) => {
            let hp = compute_helper(product, helpers, hkey, memo, depth + 1);
            (hp.toks, hp.complete)
        }
        None => (vec![Tok::Magic], true),
    };
    let prog = extract_inner(
        product,
        fi,
        it,
        anchor_end,
        init,
        init_complete,
        cursor.as_deref(),
        helpers,
        memo,
        depth,
    );
    memo.insert(key, prog.clone());
    prog
}

/// Body-brace spans of outermost loops in `[from, to)`.
fn loop_spans(b: &[u8], from: usize, to: usize) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = from;
    while i < to {
        if !ident_starts_at(b, i) {
            i += 1;
            continue;
        }
        let id = ident_at(b, i);
        if id == "for" || id == "while" || id == "loop" {
            let mut j = i + id.len();
            let mut depth = 0isize;
            while j < to {
                match b[j] {
                    b'(' | b'[' => depth += 1,
                    b')' | b']' => depth -= 1,
                    b'{' if depth == 0 => break,
                    b';' if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if j < to && b[j] == b'{' {
                let close = match_brace(b, j);
                spans.push((j, close));
                i = close + 1;
                continue;
            }
        }
        i += id.len().max(1);
    }
    spans
}

#[allow(
    clippy::too_many_arguments,
    reason = "the extraction context travels as plain arguments into the recursive walk"
)]
fn extract(
    product: &[SrcFile],
    fi: usize,
    it: &FnItem,
    anchor_end: usize,
    init: Vec<Tok>,
    init_complete: bool,
    cursor: Option<&str>,
    helpers: &Helpers,
    helper_progs: &HashMap<(usize, usize), Program>,
) -> Program {
    let mut memo = helper_progs.clone();
    extract_inner(
        product,
        fi,
        it,
        anchor_end,
        init,
        init_complete,
        cursor,
        helpers,
        &mut memo,
        0,
    )
}

/// Replays the cursor operations from `anchor_end` to the end of the fn
/// body into an ordered field program.
#[allow(
    clippy::too_many_arguments,
    reason = "recursive walk: the context plus the memo and depth it threads through helper calls"
)]
fn extract_inner(
    product: &[SrcFile],
    fi: usize,
    it: &FnItem,
    anchor_end: usize,
    init: Vec<Tok>,
    init_complete: bool,
    cursor: Option<&str>,
    helpers: &Helpers,
    memo: &mut HashMap<(usize, usize), Program>,
    depth: usize,
) -> Program {
    let f = &product[fi];
    let b = f.active.as_bytes();
    let end = it.end;
    let spans = loop_spans(b, anchor_end, end);
    let mut toks = init;
    let mut complete = init_complete;
    let mut cur_span: Option<usize> = None;
    let mut i = anchor_end;
    'scan: while i < end {
        let c = b[i];
        if c == b'.' {
            for &(pat, tag) in OP_TAGS {
                if b[i..].starts_with(pat.as_bytes()) {
                    let sp = spans.iter().position(|&(o, cl)| i > o && i < cl);
                    match sp {
                        Some(s) if cur_span == Some(s) => {
                            if let Some(Tok::Group(v)) = toks.last_mut() {
                                v.push(tag);
                            }
                        }
                        Some(s) => {
                            toks.push(Tok::Group(vec![tag]));
                            cur_span = Some(s);
                        }
                        None => {
                            toks.push(Tok::Op(tag));
                            cur_span = None;
                        }
                    }
                    i += pat.len();
                    continue 'scan;
                }
            }
            if STOP_CALLS.iter().any(|p| b[i..].starts_with(p.as_bytes())) {
                complete = false;
                break;
            }
            i += 1;
            continue;
        }
        if !ident_starts_at(b, i) {
            i += 1;
            continue;
        }
        let id = ident_at(b, i);
        if id == "match" {
            complete = false;
            break;
        }
        // Mid-program delegation: splice the helper's field program.
        if helpers.by_name.contains_key(id) {
            if let Some((op, b'(')) = next_nonws(b, i + id.len()) {
                let is_def = prev_nonws(b, i)
                    .is_some_and(|(j, ch)| is_ident(ch) && ident_ending_at(b, j + 1) == "fn");
                if !is_def {
                    if let Some(key) = helpers.resolve(id, crate_of(&f.rel), product) {
                        if depth <= 4 {
                            let hp = compute_helper(product, helpers, key, memo, depth + 1);
                            toks.extend(hp.toks);
                            complete &= hp.complete;
                            i = match_paren(b, op) + 1;
                            cur_span = None;
                            continue;
                        }
                    }
                }
            }
        }
        // The cursor escaping into non-field code (moved, passed by name,
        // matched on) ends the replayable prefix.
        if let Some(cur) = cursor {
            if id == cur && !matches!(next_nonws(b, i + id.len()), Some((_, b'.'))) {
                complete = false;
                break;
            }
        }
        i += id.len().max(1);
    }
    Program { toks, complete }
}

// ---------------------------------------------------------------------------
// R14: pairing and field replay
// ---------------------------------------------------------------------------

fn star_normalize(toks: &[Tok]) -> Vec<Tok> {
    let single = |t: &Tok| match t {
        Tok::Op(x) => Some(*x),
        Tok::Group(v) if v.len() == 1 => Some(v[0]),
        _ => None,
    };
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if let Some(tag) = single(&toks[i]) {
            let mut j = i;
            let mut has_group = false;
            while j < toks.len() && single(&toks[j]) == Some(tag) {
                has_group |= matches!(toks[j], Tok::Group(_));
                j += 1;
            }
            if has_group {
                out.push(Tok::Star(tag));
                i = j;
                continue;
            }
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

fn tok_match(a: &Tok, b: &Tok) -> bool {
    a == b
        || matches!(
            (a, b),
            (Tok::Star(t), Tok::Op(u)) | (Tok::Op(u), Tok::Star(t)) if t == u
        )
}

fn desc(t: &Tok) -> String {
    match t {
        Tok::Magic => "the magic/version prefix".to_string(),
        Tok::Op(x) => format!("`{x}`"),
        Tok::Group(v) => format!("a repeated group of `{}`", v.join("`,`")),
        Tok::Star(x) => format!("a `{x}` run"),
    }
}

fn r14(product: &[SrcFile], reg: &Registry, class: &Class, out: &mut Vec<FormatFinding>) {
    let empty = Vec::new();
    for spec in &reg.specs {
        let ws = class.writers.get(&spec.ident).unwrap_or(&empty);
        let rs = class.readers.get(&spec.ident).unwrap_or(&empty);
        if ws.is_empty() && rs.is_empty() {
            continue;
        }
        if rs.is_empty() {
            for w in ws {
                let f = &product[w.file];
                out.push(FormatFinding {
                    rule: "R14",
                    file: f.rel.clone(),
                    line: f.items[w.item].line,
                    message: format!(
                        "format `{}` is serialized by `{}` but no parser in the workspace reads \
                         it (write-without-read)",
                        spec.ident, f.items[w.item].name
                    ),
                });
            }
            continue;
        }
        if ws.is_empty() {
            for r in rs {
                let f = &product[r.file];
                out.push(FormatFinding {
                    rule: "R14",
                    file: f.rel.clone(),
                    line: f.items[r.item].line,
                    message: format!(
                        "format `{}` is parsed by `{}` but no serializer in the workspace writes \
                         it (read-without-write)",
                        spec.ident, f.items[r.item].name
                    ),
                });
            }
            continue;
        }
        for w in ws.iter().filter(|p| !p.multi) {
            for r in rs.iter().filter(|p| !p.multi) {
                replay(product, &spec.ident, w, r, out);
            }
        }
    }
    // Trailer magics must be both emitted and checked.
    for t in &reg.trailers {
        let wr = class.trailer_writes.iter().find(|(n, _, _)| n == &t.ident);
        let rd = class.trailer_reads.iter().find(|(n, _, _)| n == &t.ident);
        match (wr, rd) {
            (Some((_, fi, q)), None) => out.push(FormatFinding {
                rule: "R14",
                file: product[*fi].rel.clone(),
                line: product[*fi].lines.line_of(*q),
                message: format!(
                    "trailer magic `{}` is emitted here but never checked by any parser",
                    t.ident
                ),
            }),
            (None, Some((_, fi, q))) => out.push(FormatFinding {
                rule: "R14",
                file: product[*fi].rel.clone(),
                line: product[*fi].lines.line_of(*q),
                message: format!(
                    "trailer magic `{}` is checked here but never emitted by any serializer",
                    t.ident
                ),
            }),
            _ => {}
        }
    }
}

fn replay(product: &[SrcFile], spec: &str, w: &Party, r: &Party, out: &mut Vec<FormatFinding>) {
    let wf = &product[w.file];
    let rf = &product[r.file];
    let wname = &wf.items[w.item].name;
    let rname = &rf.items[r.item].name;
    let a = star_normalize(&w.prog.toks);
    let bt = star_normalize(&r.prog.toks);
    let n = a.len().min(bt.len());
    for k in 0..n {
        if !tok_match(&a[k], &bt[k]) {
            out.push(FormatFinding {
                rule: "R14",
                file: rf.rel.clone(),
                line: rf.items[r.item].line,
                message: format!(
                    "format `{spec}`: parser `{rname}` reads {} at field {k} where serializer \
                     `{wname}` ({}) emits {}",
                    desc(&bt[k]),
                    wf.rel,
                    desc(&a[k]),
                ),
            });
            return;
        }
    }
    if w.prog.complete && r.prog.complete && a.len() != bt.len() {
        if a.len() > bt.len() {
            out.push(FormatFinding {
                rule: "R14",
                file: wf.rel.clone(),
                line: wf.items[w.item].line,
                message: format!(
                    "format `{spec}`: serializer `{wname}` emits {} trailing field(s) that \
                     parser `{rname}` ({}) never reads",
                    a.len() - n,
                    rf.rel,
                ),
            });
        } else {
            out.push(FormatFinding {
                rule: "R14",
                file: rf.rel.clone(),
                line: rf.items[r.item].line,
                message: format!(
                    "format `{spec}`: parser `{rname}` reads {} trailing field(s) that \
                     serializer `{wname}` ({}) never emits",
                    bt.len() - n,
                    wf.rel,
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// R15: version discipline
// ---------------------------------------------------------------------------

fn r15_versions(product: &[SrcFile], class: &Class, out: &mut Vec<FormatFinding>) {
    for (spec, parties) in &class.readers {
        for p in parties.iter().filter(|p| p.hand && !p.multi) {
            let f = &product[p.file];
            let it = &f.items[p.item];
            let b = f.active.as_bytes();
            let (lo, hi) = (p.at, it.end);
            // Version evidence: an UnsupportedVersion construction or a
            // `SPEC.version` comparison after the magic check.
            let mut v_off = ident_occurrences(b, lo, hi, "UnsupportedVersion")
                .first()
                .copied();
            let vpath = format!("{spec}.version");
            if let Some(q) = find_sub(b, lo, hi, vpath.as_bytes()) {
                v_off = Some(v_off.map_or(q, |v| v.min(q)));
            }
            let count_off = [
                &b"u16::from_le_bytes("[..],
                &b"u32::from_le_bytes("[..],
                &b"u64::from_le_bytes("[..],
            ]
            .iter()
            .filter_map(|pat| find_sub(b, lo, hi, pat))
            .min();
            match v_off {
                None => out.push(FormatFinding {
                    rule: "R15",
                    file: f.rel.clone(),
                    line: it.line,
                    message: format!(
                        "parser `{}` checks the `{spec}` magic but never range-checks a version \
                         byte (no UnsupportedVersion path)",
                        it.name
                    ),
                }),
                Some(v) => {
                    if let Some(c) = count_off {
                        if c < v {
                            out.push(FormatFinding {
                                rule: "R15",
                                file: f.rel.clone(),
                                line: f.lines.line_of(c),
                                message: format!(
                                    "parser `{}` decodes a count/length field before validating \
                                     the `{spec}` version byte",
                                    it.name
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
}

fn r15_literals(product: &[SrcFile], reg: &Registry, out: &mut Vec<FormatFinding>) {
    // (value, rank, ident, file rel, line) — registry entries rank first so
    // a collision blames the stray definition, not the registry.
    let mut values: Vec<(u64, u8, String, String, usize)> = Vec::new();
    for s in reg.specs.iter().chain(&reg.trailers) {
        if let Some(v) = s.value {
            values.push((v, 0, s.ident.clone(), s.file.clone(), s.line));
        }
    }
    for f in product {
        if is_registry_path(&f.rel) {
            continue;
        }
        let b = f.active.as_bytes();
        // Stray `const *MAGIC*` definitions.
        let mut i = 0;
        while i < b.len() {
            if !ident_starts_at(b, i) {
                i += 1;
                continue;
            }
            let id = ident_at(b, i);
            if id == "const" {
                if let Some((ty, def)) = parse_const_decl(f, i) {
                    if def.ident.contains("MAGIC") && ty != "FormatSpec" {
                        out.push(FormatFinding {
                            rule: "R15",
                            file: f.rel.clone(),
                            line: def.line,
                            message: format!(
                                "magic constant `{}` defined outside the cliz-format registry",
                                def.ident
                            ),
                        });
                        if let Some(v) = def.value {
                            values.push((v, 1, def.ident, f.rel.clone(), def.line));
                        }
                    }
                }
            } else if id == "FormatSpec" {
                // A `FormatSpec { … magic: 0x…, … }` literal outside the
                // registry. Skip type positions: `struct FormatSpec` and
                // `-> FormatSpec {` (where the `{` is a fn body, not a literal).
                let is_type_pos = prev_nonws(b, i).is_some_and(|(j, c)| {
                    (is_ident(c) && ident_ending_at(b, j + 1) == "struct") || c == b'>'
                });
                if !is_type_pos {
                    if let Some((_, b'{')) = next_nonws(b, i + id.len()) {
                        if let Some(v) = spec_magic_value(b, i + id.len()) {
                            let line = f.lines.line_of(i);
                            out.push(FormatFinding {
                                rule: "R15",
                                file: f.rel.clone(),
                                line,
                                message: format!(
                                    "`FormatSpec` literal (magic {v:#010x}) constructed outside \
                                     the cliz-format registry"
                                ),
                            });
                            values.push((v, 1, "<literal>".to_string(), f.rel.clone(), line));
                        }
                    }
                }
            }
            i += id.len().max(1);
        }
    }
    // Duplicate magic values across everything collected.
    values.sort_by_key(|x| (x.0, x.1, x.4));
    for win in values.windows(2) {
        if win[0].0 == win[1].0 {
            out.push(FormatFinding {
                rule: "R15",
                file: win[1].3.clone(),
                line: win[1].4,
                message: format!(
                    "duplicate magic value {:#010x}: `{}` collides with `{}` ({})",
                    win[1].0, win[1].2, win[0].2, win[0].3
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// R16: parser error-surface coverage
// ---------------------------------------------------------------------------

/// Callees too generic to follow when building the parser-fn set: chasing
/// every `new`/`clone` in the workspace would taint constructors that have
/// nothing to do with parsing.
const NOISE_CALLEES: &[&str] = &[
    "new",
    "default",
    "clone",
    "with_capacity",
    "from_vec",
    "to_vec",
    "len",
    "is_empty",
];

/// Substrings that mark a fn as a decode entry point.
const ENTRY_SEEDS: &[&str] = &["decode", "decompress", "parse", "open", "load", "read"];

fn r16(
    product: &[SrcFile],
    test_texts: &[(String, String)],
    class: &Class,
    out: &mut Vec<FormatFinding>,
) {
    // 1. Error enums defined in scope.
    struct ErrEnum {
        name: String,
        file: usize,
        variants: Vec<(String, usize)>,
    }
    let mut enums: Vec<ErrEnum> = Vec::new();
    for (fi, f) in product.iter().enumerate() {
        if !in_scope(&f.rel) {
            continue;
        }
        let b = f.active.as_bytes();
        for q in ident_occurrences(b, 0, b.len(), "enum") {
            let Some((j, c)) = next_nonws(b, q + 4) else {
                continue;
            };
            if !is_ident(c) {
                continue;
            }
            let name = ident_at(b, j).to_string();
            if !name.contains("Error") {
                continue;
            }
            let Some((open, b'{')) = next_nonws(b, j + name.len()) else {
                continue;
            };
            let close = match_brace(b, open);
            enums.push(ErrEnum {
                name,
                file: fi,
                variants: parse_variants(b, open, close, &f.lines),
            });
        }
    }
    if enums.is_empty() {
        return;
    }

    // 2. Construction sites in product code: `Enum::Variant` not used as a
    //    match pattern. Key: (enum idx, variant idx) → (file, offset).
    let mut sites: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
    for (fi, f) in product.iter().enumerate() {
        if !in_scope(&f.rel) {
            continue;
        }
        let b = f.active.as_bytes();
        for (ei, e) in enums.iter().enumerate() {
            for q in ident_occurrences(b, 0, b.len(), &e.name) {
                let after = q + e.name.len();
                if !b[after..].starts_with(b"::") {
                    continue;
                }
                let Some(vn) = b.get(after + 2).copied().filter(|&c| is_ident(c)) else {
                    continue;
                };
                let _ = vn;
                let vname = ident_at(b, after + 2);
                let Some(vi) = e.variants.iter().position(|(v, _)| v == vname) else {
                    continue;
                };
                if !is_match_pattern(b, after + 2 + vname.len()) {
                    sites.entry((ei, vi)).or_default().push((fi, q));
                }
            }
        }
    }

    // 3. Dead variants: never constructed anywhere in product code.
    for (ei, e) in enums.iter().enumerate() {
        for (vi, (vname, vline)) in e.variants.iter().enumerate() {
            if !sites.contains_key(&(ei, vi)) {
                out.push(FormatFinding {
                    rule: "R16",
                    file: product[e.file].rel.clone(),
                    line: *vline,
                    message: format!(
                        "error variant `{}::{vname}` is never constructed in product code \
                         (dead error surface)",
                        e.name
                    ),
                });
            }
        }
    }

    // 4. Parser-fn set: reader-classified fns plus everything they call
    //    (minus ubiquitous constructor names), plus `From` conversions.
    let mut name_index: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (fi, f) in product.iter().enumerate() {
        if !in_scope(&f.rel) {
            continue;
        }
        for (ii, it) in f.items.iter().enumerate() {
            name_index
                .entry(it.name.as_str())
                .or_default()
                .push((fi, ii));
        }
    }
    let bfs = |roots: Vec<(usize, usize)>, noise: &[&str]| -> HashSet<(usize, usize)> {
        let mut seen: HashSet<(usize, usize)> = roots.iter().copied().collect();
        let mut queue: Vec<(usize, usize)> = roots;
        while let Some((fi, ii)) = queue.pop() {
            for call in &product[fi].items[ii].calls {
                if noise.contains(&call.callee.as_str()) {
                    continue;
                }
                if let Some(targets) = name_index.get(call.callee.as_str()) {
                    for &t in targets {
                        if seen.insert(t) {
                            queue.push(t);
                        }
                    }
                }
            }
        }
        seen
    };
    let mut parser_fns = bfs(class.reader_fns.iter().copied().collect(), NOISE_CALLEES);
    for (fi, f) in product.iter().enumerate() {
        if !in_scope(&f.rel) {
            continue;
        }
        for (ii, it) in f.items.iter().enumerate() {
            if it.name == "from" {
                parser_fns.insert((fi, ii));
            }
        }
    }

    // 5. Entry reachability: BFS (no noise filter — permissive) from fns
    //    whose name marks them as a decode entry point.
    let entries: Vec<(usize, usize)> = product
        .iter()
        .enumerate()
        .filter(|(_, f)| in_scope(&f.rel))
        .flat_map(|(fi, f)| {
            f.items.iter().enumerate().filter_map(move |(ii, it)| {
                let lname = it.name.to_ascii_lowercase();
                ENTRY_SEEDS
                    .iter()
                    .any(|s| lname.contains(s))
                    .then_some((fi, ii))
            })
        })
        .collect();
    let reachable = bfs(entries, &[]);

    let fn_containing = |fi: usize, off: usize| -> Option<usize> {
        product[fi]
            .items
            .iter()
            .position(|it| it.has_body && off >= it.start && off <= it.end)
    };

    // 6. Parser-constructed variants need a test assertion and a decode
    //    path that can actually reach them.
    for (ei, e) in enums.iter().enumerate() {
        for (vi, (vname, vline)) in e.variants.iter().enumerate() {
            let Some(var_sites) = sites.get(&(ei, vi)) else {
                continue;
            };
            let in_parser: Vec<&(usize, usize)> = var_sites
                .iter()
                .filter(|(fi, off)| {
                    fn_containing(*fi, *off).is_some_and(|ii| parser_fns.contains(&(*fi, ii)))
                })
                .collect();
            if in_parser.is_empty() {
                continue;
            }
            let token = format!("{}::{vname}", e.name);
            let mut evidenced = test_texts.iter().any(|(_, text)| text.contains(&token));
            if !evidenced {
                // Unit-test regions of product files: present in the
                // stripped text but blanked out of the active text.
                'files: for f in product {
                    let sb = f.stripped.as_bytes();
                    let ab = f.active.as_bytes();
                    for q in ident_occurrences(sb, 0, sb.len(), &e.name) {
                        if sb[q + e.name.len()..].starts_with(b"::")
                            && ident_at(sb, q + e.name.len() + 2) == vname
                            && ab.get(q) != Some(&sb[q])
                        {
                            evidenced = true;
                            break 'files;
                        }
                    }
                }
            }
            if !evidenced {
                out.push(FormatFinding {
                    rule: "R16",
                    file: product[e.file].rel.clone(),
                    line: *vline,
                    message: format!(
                        "parser-constructed error variant `{}::{vname}` is never asserted by \
                         any test (untested corruption path)",
                        e.name
                    ),
                });
            }
            let is_reachable = in_parser.iter().any(|(fi, off)| {
                fn_containing(*fi, *off).is_some_and(|ii| {
                    reachable.contains(&(*fi, ii)) || product[*fi].items[ii].name == "from"
                })
            });
            if !is_reachable {
                out.push(FormatFinding {
                    rule: "R16",
                    file: product[e.file].rel.clone(),
                    line: *vline,
                    message: format!(
                        "error variant `{}::{vname}` is constructed only in parser code \
                         unreachable from any decode entry point",
                        e.name
                    ),
                });
            }
        }
    }
}

/// Variant names and lines of an enum body `{ … }`.
fn parse_variants(b: &[u8], open: usize, close: usize, lines: &Lines) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut i = open + 1;
    while i < close {
        let Some((j, c)) = next_nonws(b, i) else {
            break;
        };
        if j >= close {
            break;
        }
        if c == b'#' {
            // Attribute: skip `#[…]`.
            if let Some(ob) = find_byte(b, j, b'[') {
                i = match_delim(b, ob, b'[', b']') + 1;
                continue;
            }
        }
        if is_ident(c) {
            let name = ident_at(b, j).to_string();
            out.push((name.clone(), lines.line_of(j)));
            let mut k = j + name.len();
            // Skip payload/discriminant to the variant-separating comma.
            while k < close && b[k] != b',' {
                match b[k] {
                    b'(' => k = match_paren(b, k) + 1,
                    b'{' => k = match_brace(b, k) + 1,
                    b'[' => k = match_delim(b, k, b'[', b']') + 1,
                    _ => k += 1,
                }
            }
            i = k + 1;
            continue;
        }
        i = j + 1;
    }
    out
}

/// True when the `Enum::Variant` occurrence ending just before
/// `after_variant` is a match pattern (followed, past any payload, by `=>`
/// or a `|` alternation).
fn is_match_pattern(b: &[u8], after_variant: usize) -> bool {
    let mut q = after_variant;
    if let Some((p, c)) = next_nonws(b, q) {
        if c == b'(' {
            q = match_paren(b, p) + 1;
        } else if c == b'{' {
            q = match_brace(b, p) + 1;
        }
    }
    match next_nonws(b, q) {
        Some((e, b'=')) => b.get(e + 1) == Some(&b'>'),
        Some((_, b'|')) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_literals_parse() {
        assert_eq!(parse_number(b" 0x434C_495A ", 0), Some(0x434C_495A));
        assert_eq!(parse_number(b" 12_345,", 0), Some(12_345));
        assert_eq!(parse_number(b" 7u32", 0), Some(7));
        assert_eq!(parse_number(b" xyz", 0), None);
    }

    #[test]
    fn star_normalization_merges_homogeneous_runs() {
        // dims loop + adjacent u64 fields collapse into one run on both the
        // "loop then field" and "field then loop" spellings.
        let a = vec![
            Tok::Magic,
            Tok::Op("u8"),
            Tok::Group(vec!["u64"]),
            Tok::Op("u64"),
            Tok::Op("u32"),
        ];
        let b = vec![
            Tok::Magic,
            Tok::Op("u8"),
            Tok::Op("u64"),
            Tok::Group(vec!["u64"]),
            Tok::Op("u32"),
        ];
        assert_eq!(star_normalize(&a), star_normalize(&b));
        assert_eq!(
            star_normalize(&a),
            vec![Tok::Magic, Tok::Op("u8"), Tok::Star("u64"), Tok::Op("u32")]
        );
        // Heterogeneous groups survive untouched.
        let c = vec![Tok::Group(vec!["str16", "u64"])];
        assert_eq!(star_normalize(&c), c);
    }

    #[test]
    fn star_matches_plain_op() {
        assert!(tok_match(&Tok::Star("u64"), &Tok::Op("u64")));
        assert!(!tok_match(&Tok::Star("u64"), &Tok::Op("u32")));
        assert!(!tok_match(&Tok::Op("u8"), &Tok::Op("u16")));
    }

    #[test]
    fn registry_and_variant_parsing() {
        let reg_src = r#"
pub struct FormatSpec { pub name: &'static str, pub magic: u32, pub version: u8 }
pub const AAA1: FormatSpec = FormatSpec { name: "a", magic: 0x4141_4131, version: 1 };
pub const BBB1: FormatSpec = FormatSpec { name: "b", magic: 0x4242_4231, version: 2 };
pub const AAA1_TRAILER_MAGIC: u32 = 0x31414141;
"#;
        let stripped = strip(reg_src).code;
        let active = blank_test_items(&stripped);
        let lines = Lines::new(&active);
        let f = SrcFile {
            rel: "crates/format/src/lib.rs".into(),
            items: items::parse_items(&active, &lines),
            active,
            stripped,
            lines,
        };
        let reg = parse_registry(std::slice::from_ref(&f));
        assert_eq!(reg.specs.len(), 2);
        assert_eq!(reg.specs[0].ident, "AAA1");
        assert_eq!(reg.specs[0].value, Some(0x4141_4131));
        assert_eq!(reg.trailers.len(), 1);
        assert_eq!(reg.trailers[0].value, Some(0x3141_4141));

        let enum_src = "enum DemoError { BadMagic, Corrupt(&'static str), Io { code: i32 }, }";
        let s = strip(enum_src).code;
        let b = s.as_bytes();
        let open = s.find('{').unwrap();
        let lines = Lines::new(&s);
        let vars = parse_variants(b, open, match_brace(b, open), &lines);
        let names: Vec<&str> = vars.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["BadMagic", "Corrupt", "Io"]);
    }

    #[test]
    fn match_patterns_are_not_constructions() {
        let src = "match e { DemoError::BadMagic => 1, DemoError::Corrupt(_) => 2, };\nlet x = DemoError::BadMagic;";
        let b = src.as_bytes();
        // First occurrence: pattern. Last: construction.
        let first = src.find("DemoError::BadMagic").unwrap();
        let last = src.rfind("DemoError::BadMagic").unwrap();
        assert!(is_match_pattern(b, first + "DemoError::BadMagic".len()));
        assert!(!is_match_pattern(b, last + "DemoError::BadMagic".len()));
        let tup = src.find("DemoError::Corrupt").unwrap();
        assert!(is_match_pattern(b, tup + "DemoError::Corrupt".len()));
    }

    #[test]
    fn loop_spans_are_outermost() {
        let src = "fn f() { for i in 0..3 { while x { a(); } b(); } c(); }";
        let b = src.as_bytes();
        let spans = loop_spans(b, 0, b.len());
        assert_eq!(spans.len(), 1);
        let (o, c) = spans[0];
        assert!(src[o..c].contains("while"));
    }
}
