//! Rule R9: lock discipline.
//!
//! Builds a per-function lock-acquisition picture — which `Mutex`/`RwLock`
//! guards are *live* at every call site — and checks three hazards:
//!
//! 1. **Guard held across expensive work**: a live guard spanning a call
//!    that is, or transitively reaches, decode/codec/IO work (by name
//!    pattern or through the resolved call graph). Long critical sections
//!    serialize the scoped worker pools the chunked paths rely on.
//! 2. **Double acquisition**: the same lock field acquired again — directly
//!    or through a callee that may acquire it — while its guard is still
//!    live. `std::sync::Mutex` is not reentrant; this self-deadlocks.
//! 3. **Inconsistent acquisition order**: for every pair of lock fields the
//!    pass records the order they are nested in (`X` held while `Y` is
//!    taken); a cycle in that pairwise order graph is a potential
//!    cross-thread deadlock.
//!
//! Lock fields are discovered from named-struct declarations whose type
//! mentions `Mutex<`/`RwLock<`. Acquisition sites are `.lock()`, and
//! `.read()`/`.write()` on known lock fields, plus any call to the
//! workspace `lock_or_recover` helper — the single audited poison-recovery
//! idiom `cliz-store` uses. A `let`-bound acquisition (possibly behind
//! `unwrap`/`expect`/`unwrap_or_else` wrappers) is live until `drop(..)`,
//! the end of its block, or the end of the function; any other acquisition
//! is a statement-scoped temporary. Functions whose return type contains
//! `Guard` are *guard helpers*: a binding initialized from one carries the
//! helper's own acquisitions.
//!
//! Unlike R5's bare-name call graph, R9 resolves calls with receiver
//! typing: `self.m()` resolves within the enclosing `impl`, `self.field.m()`
//! through the field's declared type, `Type::f()` through the path
//! qualifier. Unresolvable calls (locals, chained expressions, std) drop
//! out, so the interprocedural side under-approximates — precision over
//! noise, same trade the R7 dataflow makes. Guard identity is by field
//! *name*: distinct elements of a `Vec<Mutex<_>>` share one identity
//! (conservative), and same-named fields of different structs merge
//! (documented limit). Deliberate long critical sections — the per-chunk
//! stampede guard that must span a decode — are suppressed at the site
//! with `xtask-allow: R9 -- reason`.

use crate::contracts::is_test_path;
use crate::items::{self, FieldDecl, FnItem, NON_CALL_KEYWORDS};
use crate::lexer::{
    self, ident_at, ident_ending_at, ident_starts_at, is_ident, next_nonws, prev_nonws, Lines,
};
use std::collections::{HashMap, HashSet};

/// Crates exempt from R9: dev tooling, and the vendored loom model checker
/// whose whole purpose is to hold guards across scheduler waits.
const EXEMPT: &[&str] = &["crates/xtask/", "crates/bench/", "crates/loom/"];

/// Callee-name patterns that mark a call as expensive (codec or IO work).
const EXPENSIVE_SUBSTRINGS: &[&str] = &["decompress", "decode", "compress", "encode"];
const EXPENSIVE_PREFIXES: &[&str] = &["read_", "write_"];
const EXPENSIVE_EXACT: &[&str] = &[
    "read",
    "write",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
    "flush",
    "sync_all",
];

/// Method names that merely adapt an acquisition result without ending the
/// guard's life: `m.lock().unwrap_or_else(PoisonError::into_inner)` still
/// binds a guard.
const GUARD_WRAPPERS: &[&str] = &[
    "unwrap",
    "expect",
    "unwrap_or_else",
    "map_err",
    "ok",
    "unwrap_or_default",
];

/// An R9 finding, pre-suppression.
#[derive(Debug)]
pub struct LockFinding {
    pub file: String,
    pub line: usize,
    pub message: String,
}

fn is_exempt(file: &str) -> bool {
    EXEMPT.iter().any(|p| file.starts_with(p))
}

fn is_expensive_name(name: &str) -> bool {
    EXPENSIVE_SUBSTRINGS.iter().any(|s| name.contains(s))
        || EXPENSIVE_PREFIXES.iter().any(|p| name.starts_with(p))
        || EXPENSIVE_EXACT.contains(&name)
}

/// Receiver shape of a call site, for typed-lite resolution.
#[derive(Debug, Clone)]
enum Recv {
    /// `self.m(..)` — resolve within the enclosing impl.
    OnSelf,
    /// `self.field.m(..)` — resolve through the field's declared type.
    Field(String),
    /// `Type::f(..)` — resolve through the path qualifier.
    Type(String),
    /// Bare `f(..)` — resolve to free functions.
    Free,
    /// Local variable or chained expression — unresolvable.
    Opaque,
}

/// How an acquisition (or guard-helper call) is bound.
#[derive(Debug, Clone)]
enum Bind {
    /// `let NAME = <acquisition>;` — guard lives until drop/block end.
    Let(String),
    /// Statement-scoped temporary (`self.lock_arena().pop()`).
    Temp,
}

/// One event in a function body, in source order.
#[derive(Debug)]
enum Ev {
    Acquire {
        field: Option<String>,
        label: String,
        line: usize,
        depth: usize,
        bind: Bind,
    },
    Call {
        name: String,
        recv: Recv,
        line: usize,
        depth: usize,
        bind: Bind,
    },
    DropOf {
        name: String,
    },
    /// `}` — `depth` is the depth after closing.
    Close {
        depth: usize,
    },
    /// `;` — ends statement-scoped temporaries.
    Stmt,
}

struct PreparedFile {
    file: String,
    active: String,
    items: Vec<FnItem>,
    fields: Vec<FieldDecl>,
}

/// A function's global index entry: file index, item index, and derived
/// facts filled in by the fixed-point passes.
struct Func {
    fidx: usize,
    name: String,
    owner: Option<String>,
    /// Return type mentions `Guard` — bindings from this call carry its
    /// direct acquisitions.
    guard_helper: bool,
    events: Vec<Ev>,
    /// Lock fields this function acquires directly.
    direct: HashSet<String>,
    /// Lock fields this function may acquire, transitively.
    may_acquire: HashSet<String>,
    /// Performs or reaches decode/codec/IO work.
    expensive: bool,
}

fn match_paren(b: &[u8], open: usize) -> usize {
    let mut depth = 0isize;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    b.len().saturating_sub(1)
}

/// True when everything from `i` to the statement end is a wrapper chain
/// (`?`, `.unwrap()`, `.unwrap_or_else(..)`, …) — the acquisition's guard
/// survives into its `let` binding.
fn wrappers_only(b: &[u8], mut i: usize, hi: usize) -> bool {
    while i <= hi && i < b.len() {
        let c = b[i];
        if (c as char).is_whitespace() || c == b'?' {
            i += 1;
            continue;
        }
        if c == b';' || c == b'}' {
            return true;
        }
        if c == b'.' {
            let Some((j, c2)) = next_nonws(b, i + 1) else {
                return false;
            };
            if !is_ident(c2) {
                return false;
            }
            let w = ident_at(b, j);
            if !GUARD_WRAPPERS.contains(&w) {
                return false;
            }
            let Some((p, c3)) = next_nonws(b, j + w.len()) else {
                return false;
            };
            if c3 != b'(' {
                return false;
            }
            i = match_paren(b, p) + 1;
            continue;
        }
        return false;
    }
    true
}

/// Scans one function body into an event stream. `alias` tracking lets a
/// later `lock.lock()` resolve when `lock` was bound from a lock field
/// (`let lock = self.locks.get(i)…`).
fn scan_events(
    active: &str,
    lines: &Lines,
    item: &FnItem,
    nested: &[(usize, usize)],
    lock_fields: &HashSet<String>,
) -> Vec<Ev> {
    let b = active.as_bytes();
    let mut evs = Vec::new();
    if !item.has_body {
        return evs;
    }
    let (lo, hi) = (item.body_open + 1, item.end);
    let mut depth = 1usize;
    let mut pending_let: Option<String> = None;
    let mut let_name_of_stmt: Option<String> = None;
    let mut stmt_lock_field: Option<String> = None;
    let mut stmt_had_acquire = false;
    let mut alias: HashMap<String, String> = HashMap::new();

    let mut i = lo;
    'outer: while i <= hi && i < b.len() {
        for &(ns, ne) in nested {
            if i >= ns && i <= ne {
                i = ne + 1;
                continue 'outer;
            }
        }
        match b[i] {
            b'{' => {
                depth += 1;
                i += 1;
                continue;
            }
            b'}' => {
                depth = depth.saturating_sub(1);
                evs.push(Ev::Close { depth });
                i += 1;
                continue;
            }
            b';' => {
                if !stmt_had_acquire {
                    if let (Some(n), Some(f)) = (&let_name_of_stmt, &stmt_lock_field) {
                        alias.insert(n.clone(), f.clone());
                    }
                }
                evs.push(Ev::Stmt);
                pending_let = None;
                let_name_of_stmt = None;
                stmt_lock_field = None;
                stmt_had_acquire = false;
                i += 1;
                continue;
            }
            _ => {}
        }
        if !ident_starts_at(b, i) {
            i += 1;
            continue;
        }
        let word = ident_at(b, i);
        let start = i;
        i += word.len();
        let line = lines.line_of(start);
        let next = next_nonws(b, i);
        let prev = prev_nonws(b, start);

        if word == "let" {
            // `let [mut] NAME =`; tuple/enum patterns record no binding.
            if let Some((k, c)) = next_nonws(b, i) {
                let mut k2 = k;
                if is_ident(c) && ident_at(b, k) == "mut" {
                    if let Some((k3, _)) = next_nonws(b, k + 3) {
                        k2 = k3;
                    }
                }
                if k2 < b.len() && is_ident(b[k2]) && !b[k2].is_ascii_digit() {
                    let name = ident_at(b, k2);
                    let after = next_nonws(b, k2 + name.len());
                    let is_pattern =
                        after.is_some_and(|(_, c)| c == b'(' || c == b'{') || name == "mut";
                    if name != "_" && !is_pattern {
                        pending_let = Some(name.to_string());
                        let_name_of_stmt = Some(name.to_string());
                    }
                }
            }
            continue;
        }

        // Mention of a lock field (`self.locks…`): candidate for aliasing.
        if lock_fields.contains(word) && prev.is_some_and(|(_, c)| c == b'.') {
            stmt_lock_field = Some(word.to_string());
        }

        // `drop(g)` ends a guard's life early.
        if word == "drop"
            && next.is_some_and(|(_, c)| c == b'(')
            && prev.is_none_or(|(_, c)| c != b'.')
        {
            if let Some((j, c2)) = next.and_then(|(p, _)| next_nonws(b, p + 1)) {
                if is_ident(c2) {
                    evs.push(Ev::DropOf {
                        name: ident_at(b, j).to_string(),
                    });
                }
            }
            continue;
        }

        let Some((open_paren, c)) = next else {
            continue;
        };
        if c != b'(' || NON_CALL_KEYWORDS.contains(&word) {
            continue;
        }
        let close_paren = match_paren(b, open_paren);
        let is_method = prev.is_some_and(|(_, c)| c == b'.');

        let recv = if is_method {
            let dot = prev.map(|(p, _)| p).unwrap_or(0);
            match prev_nonws(b, dot) {
                Some((p, c)) if is_ident(c) => {
                    let r = ident_ending_at(b, p + 1).to_string();
                    let r_start = p + 1 - r.len();
                    let self_qualified = prev_nonws(b, r_start).is_some_and(|(q, cq)| {
                        cq == b'.'
                            && prev_nonws(b, q).is_some_and(|(q2, c2)| {
                                is_ident(c2) && ident_ending_at(b, q2 + 1) == "self"
                            })
                    });
                    if r == "self" {
                        Recv::OnSelf
                    } else if self_qualified {
                        Recv::Field(r)
                    } else {
                        // A bare local; resolution uses the alias map for
                        // acquisitions and drops the edge otherwise.
                        Recv::Opaque
                    }
                }
                _ => Recv::Opaque,
            }
        } else if prev.is_some_and(|(_, c)| c == b':') {
            let colon = prev.map(|(p, _)| p).unwrap_or(0);
            if colon >= 1 && b[colon - 1] == b':' {
                match prev_nonws(b, colon - 1) {
                    Some((p, c)) if is_ident(c) => {
                        Recv::Type(ident_ending_at(b, p + 1).to_string())
                    }
                    _ => Recv::Opaque,
                }
            } else {
                Recv::Opaque
            }
        } else {
            Recv::Free
        };

        // Is this an acquisition site?
        let mut acq: Option<(Option<String>, String)> = None;
        if word == "lock_or_recover" {
            let args = &active[open_paren + 1..close_paren];
            let (mut field, mut last) = (None, None);
            let ab = args.as_bytes();
            let mut a = 0usize;
            while a < ab.len() {
                if ident_starts_at(ab, a) {
                    let w = ident_at(ab, a);
                    if lock_fields.contains(w) {
                        field = Some(w.to_string());
                    }
                    last = Some(w.to_string());
                    a += w.len();
                } else {
                    a += 1;
                }
            }
            let label = field.clone().or(last).unwrap_or_else(|| "lock".into());
            acq = Some((field, label));
        } else if is_method && (word == "lock" || word == "read" || word == "write") {
            // Receiver ident directly before the dot (may be a field,
            // an alias, or unknown).
            let recv_ident = prev
                .and_then(|(dot, _)| prev_nonws(b, dot))
                .filter(|&(_, c)| is_ident(c))
                .map(|(p, _)| ident_ending_at(b, p + 1).to_string());
            match recv_ident {
                Some(r) if r == "self" => {} // `self.lock()` is a helper call
                Some(r) => {
                    if lock_fields.contains(&r) {
                        acq = Some((Some(r.clone()), r));
                    } else if let Some(f) = alias.get(&r) {
                        acq = Some((Some(f.clone()), f.clone()));
                    } else if word == "lock" {
                        acq = Some((None, r));
                    }
                }
                None if word == "lock" => acq = Some((None, "<expr>".into())),
                None => {}
            }
        }

        let bind = if wrappers_only(b, close_paren + 1, hi) {
            match pending_let.take() {
                Some(n) => Bind::Let(n),
                None => Bind::Temp,
            }
        } else {
            // Something other than a wrapper chain follows: if this was a
            // let initializer, the binding is not the guard itself.
            pending_let = None;
            Bind::Temp
        };

        match acq {
            Some((field, label)) => {
                stmt_had_acquire = true;
                evs.push(Ev::Acquire {
                    field,
                    label,
                    line,
                    depth,
                    bind,
                });
            }
            None => evs.push(Ev::Call {
                name: word.to_string(),
                recv,
                line,
                depth,
                bind,
            }),
        }
    }
    evs
}

fn prepare(files: &[(String, String)]) -> Vec<PreparedFile> {
    let mut out = Vec::new();
    for (rel, src) in files {
        if is_exempt(rel) || is_test_path(rel) {
            continue;
        }
        let lexed = lexer::strip(src);
        let active = lexer::blank_test_items(&lexed.code);
        let (items, fields) = {
            let lines = Lines::new(&active);
            (
                items::parse_items(&active, &lines),
                items::parse_fields(&active, &lines),
            )
        };
        out.push(PreparedFile {
            file: rel.clone(),
            active,
            items,
            fields,
        });
    }
    out
}

/// A live guard during replay.
struct LiveGuard {
    field: Option<String>,
    label: String,
    name: Option<String>,
    depth: usize,
    temp: bool,
}

/// Runs the R9 pass over the workspace file set.
pub fn analyze(files: &[(String, String)]) -> Vec<LockFinding> {
    let prepared = prepare(files);

    // Global type / field facts.
    let mut lock_fields: HashSet<String> = HashSet::new();
    let mut type_names: HashSet<String> = HashSet::new();
    for pf in &prepared {
        for fd in &pf.fields {
            type_names.insert(fd.struct_name.clone());
            if fd.ty.contains("Mutex<") || fd.ty.contains("RwLock<") {
                lock_fields.insert(fd.name.clone());
            }
        }
        for it in &pf.items {
            if let Some(o) = &it.owner {
                type_names.insert(o.clone());
            }
        }
    }
    // field name → owner-type candidates (idents of its declared type that
    // name a known workspace type).
    let mut field_types: HashMap<String, HashSet<String>> = HashMap::new();
    for pf in &prepared {
        for fd in &pf.fields {
            let tb = fd.ty.as_bytes();
            let mut a = 0usize;
            while a < tb.len() {
                if ident_starts_at(tb, a) {
                    let w = ident_at(tb, a);
                    if type_names.contains(w) {
                        field_types
                            .entry(fd.name.clone())
                            .or_default()
                            .insert(w.to_string());
                    }
                    a += w.len();
                } else {
                    a += 1;
                }
            }
        }
    }

    // Flat function index with events.
    let mut funcs: Vec<Func> = Vec::new();
    for (fidx, pf) in prepared.iter().enumerate() {
        let lines = Lines::new(&pf.active);
        for it in &pf.items {
            let nested: Vec<(usize, usize)> = pf
                .items
                .iter()
                .filter(|n| n.start > it.body_open && n.end <= it.end)
                .map(|n| (n.start, n.end))
                .collect();
            let sig = &pf.active[it.start..it.body_open];
            let guard_helper = sig.find("->").is_some_and(|p| sig[p..].contains("Guard"));
            let events = scan_events(&pf.active, &lines, it, &nested, &lock_fields);
            let mut direct = HashSet::new();
            for ev in &events {
                if let Ev::Acquire { field: Some(f), .. } = ev {
                    direct.insert(f.clone());
                }
            }
            funcs.push(Func {
                fidx,
                name: it.name.clone(),
                owner: it.owner.clone(),
                guard_helper,
                events,
                may_acquire: direct.clone(),
                direct,
                expensive: is_expensive_name(&it.name),
            });
        }
    }

    let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
    for (g, f) in funcs.iter().enumerate() {
        by_name.entry(f.name.clone()).or_default().push(g);
    }

    let resolve = |recv: &Recv, name: &str, owner: Option<&str>, funcs: &[Func]| -> Vec<usize> {
        let Some(cands) = by_name.get(name) else {
            return Vec::new();
        };
        match recv {
            Recv::OnSelf => cands
                .iter()
                .copied()
                .filter(|&g| owner.is_some() && funcs[g].owner.as_deref() == owner)
                .collect(),
            Recv::Field(f) => match field_types.get(f) {
                Some(owners) => cands
                    .iter()
                    .copied()
                    .filter(|&g| funcs[g].owner.as_ref().is_some_and(|o| owners.contains(o)))
                    .collect(),
                None => Vec::new(),
            },
            Recv::Type(t) => cands
                .iter()
                .copied()
                .filter(|&g| funcs[g].owner.as_deref() == Some(t.as_str()))
                .collect(),
            Recv::Free => cands
                .iter()
                .copied()
                .filter(|&g| funcs[g].owner.is_none())
                .collect(),
            Recv::Opaque => Vec::new(),
        }
    };

    // Fixed points: may_acquire and expensive propagate caller-direction
    // over resolved edges.
    loop {
        let mut changed = false;
        for g in 0..funcs.len() {
            let owner = funcs[g].owner.clone();
            let mut gained: HashSet<String> = HashSet::new();
            let mut exp = funcs[g].expensive;
            for ev in &funcs[g].events {
                if let Ev::Call { name, recv, .. } = ev {
                    if !exp && is_expensive_name(name) {
                        exp = true;
                    }
                    for t in resolve(recv, name, owner.as_deref(), &funcs) {
                        gained.extend(funcs[t].may_acquire.iter().cloned());
                        exp = exp || funcs[t].expensive;
                    }
                }
            }
            let f = &mut funcs[g];
            for x in gained {
                changed |= f.may_acquire.insert(x);
            }
            if exp && !f.expensive {
                f.expensive = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Replay with guard liveness; collect findings and pairwise order edges.
    let mut findings: Vec<LockFinding> = Vec::new();
    let mut edges: HashMap<(String, String), (String, usize, String)> = HashMap::new();
    for g in 0..funcs.len() {
        let (fname, owner) = (funcs[g].name.clone(), funcs[g].owner.clone());
        let file = prepared[funcs[g].fidx].file.clone();
        let mut live: Vec<LiveGuard> = Vec::new();
        for ev in &funcs[g].events {
            match ev {
                Ev::Acquire {
                    field,
                    label,
                    line,
                    depth,
                    bind,
                } => {
                    for lg in &live {
                        match (&lg.field, field) {
                            (Some(a), Some(b)) if a == b => findings.push(LockFinding {
                                file: file.clone(),
                                line: *line,
                                message: format!(
                                    "lock `{b}` acquired in `{fname}` while a guard on `{b}` is still live — `std::sync::Mutex` is not reentrant; this self-deadlocks"
                                ),
                            }),
                            (Some(a), Some(b)) => {
                                edges
                                    .entry((a.clone(), b.clone()))
                                    .or_insert((file.clone(), *line, fname.clone()));
                            }
                            _ => {}
                        }
                    }
                    let (name, temp) = match bind {
                        Bind::Let(n) => (Some(n.clone()), false),
                        Bind::Temp => (None, true),
                    };
                    live.push(LiveGuard {
                        field: field.clone(),
                        label: label.clone(),
                        name,
                        depth: *depth,
                        temp,
                    });
                }
                Ev::Call {
                    name,
                    recv,
                    line,
                    depth,
                    bind,
                } => {
                    let targets = resolve(recv, name, owner.as_deref(), &funcs);
                    let mut callee_acquires: HashSet<&String> = HashSet::new();
                    let mut callee_expensive = is_expensive_name(name);
                    let mut helper_fields: Vec<String> = Vec::new();
                    for &t in &targets {
                        callee_acquires.extend(funcs[t].may_acquire.iter());
                        callee_expensive = callee_expensive || funcs[t].expensive;
                        if funcs[t].guard_helper {
                            helper_fields.extend(funcs[t].direct.iter().cloned());
                        }
                    }
                    for lg in &live {
                        if let Some(gf) = &lg.field {
                            if callee_acquires.contains(gf) {
                                findings.push(LockFinding {
                                    file: file.clone(),
                                    line: *line,
                                    message: format!(
                                        "call to `{name}(..)` in `{fname}` may re-acquire lock `{gf}` whose guard is still live — potential self-deadlock"
                                    ),
                                });
                            } else {
                                for f in &callee_acquires {
                                    edges.entry((gf.clone(), (*f).clone())).or_insert((
                                        file.clone(),
                                        *line,
                                        fname.clone(),
                                    ));
                                }
                            }
                        }
                        if callee_expensive {
                            findings.push(LockFinding {
                                file: file.clone(),
                                line: *line,
                                message: format!(
                                    "guard on `{}` held across call to `{name}(..)` in `{fname}`, which reaches decode/codec/IO work — shrink the critical section or drop the guard first",
                                    lg.label
                                ),
                            });
                        }
                    }
                    if !helper_fields.is_empty() {
                        let (gname, temp) = match bind {
                            Bind::Let(n) => (Some(n.clone()), false),
                            Bind::Temp => (None, true),
                        };
                        for f in helper_fields {
                            live.push(LiveGuard {
                                label: f.clone(),
                                field: Some(f),
                                name: gname.clone(),
                                depth: *depth,
                                temp,
                            });
                        }
                    }
                }
                Ev::DropOf { name } => live.retain(|lg| lg.name.as_deref() != Some(name)),
                Ev::Close { depth } => live.retain(|lg| lg.depth <= *depth),
                Ev::Stmt => live.retain(|lg| !lg.temp),
            }
        }
    }

    // Cycle detection over the pairwise order graph: an edge (a, b) is part
    // of a cycle iff `b` reaches `a`.
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: HashSet<&str> = HashSet::new();
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if !seen.insert(x) {
                continue;
            }
            for (a, b) in edges.keys() {
                if a == x {
                    stack.push(b);
                }
            }
        }
        false
    };
    for ((a, b), (file, line, fname)) in &edges {
        if reaches(b, a) {
            let rev = edges
                .get(&(b.clone(), a.clone()))
                .map(|(rf, rl, _)| format!(" (reverse order at {rf}:{rl})"))
                .unwrap_or_default();
            findings.push(LockFinding {
                file: file.clone(),
                line: *line,
                message: format!(
                    "inconsistent lock order in `{fname}`: `{b}` acquired while holding `{a}`, but the reverse nesting also occurs{rev} — keep one global acquisition order"
                ),
            });
        }
    }

    findings.sort_by(|x, y| (&x.file, x.line, &x.message).cmp(&(&y.file, y.line, &y.message)));
    findings.dedup_by(|x, y| x.file == y.file && x.line == y.line && x.message == y.message);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<LockFinding> {
        analyze(&[("crates/core/src/pipe.rs".to_string(), src.to_string())])
    }

    #[test]
    fn guard_across_expensive_call_is_flagged() {
        let src = "use std::sync::Mutex;\n\
            pub struct P { q: Mutex<Vec<u8>> }\n\
            impl P {\n\
                pub fn bad(&self, n: usize) -> usize {\n\
                    let g = self.q.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                    decode_block(n) + g.len()\n\
                }\n\
            }\n\
            fn decode_block(n: usize) -> usize { n }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
        assert!(f[0]
            .message
            .contains("held across call to `decode_block(..)`"));
    }

    #[test]
    fn dropped_guard_is_not_live() {
        let src = "use std::sync::Mutex;\n\
            pub struct P { q: Mutex<Vec<u8>> }\n\
            impl P {\n\
                pub fn ok(&self, n: usize) -> usize {\n\
                    let g = self.q.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                    let len = g.len();\n\
                    drop(g);\n\
                    decode_block(n) + len\n\
                }\n\
            }\n\
            fn decode_block(n: usize) -> usize { n }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn statement_temporary_guard_does_not_leak() {
        let src = "use std::sync::Mutex;\n\
            pub struct P { q: Mutex<Vec<u8>> }\n\
            impl P {\n\
                pub fn ok(&self, n: usize) -> usize {\n\
                    let len = self.q.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len();\n\
                    decode_block(n) + len\n\
                }\n\
            }\n\
            fn decode_block(n: usize) -> usize { n }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn double_acquisition_direct_and_via_callee() {
        let src = "use std::sync::Mutex;\n\
            pub struct P { q: Mutex<u8> }\n\
            impl P {\n\
                fn helper_len(&self) -> u8 {\n\
                    *self.q.lock().unwrap_or_else(std::sync::PoisonError::into_inner)\n\
                }\n\
                pub fn direct(&self) -> u8 {\n\
                    let a = self.q.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                    let b = self.q.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                    *a + *b\n\
                }\n\
                pub fn via_call(&self) -> u8 {\n\
                    let a = self.q.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                    *a + self.helper_len()\n\
                }\n\
            }\n";
        let f = run(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(
            f[0].message.contains("while a guard on `q` is still live"),
            "{}",
            f[0].message
        );
        assert!(
            f[1].message.contains("may re-acquire lock `q`"),
            "{}",
            f[1].message
        );
    }

    #[test]
    fn lock_order_cycle_detected() {
        let src = "use std::sync::Mutex;\n\
            pub struct P { a: Mutex<u8>, b: Mutex<u8> }\n\
            impl P {\n\
                pub fn fwd(&self) -> u8 {\n\
                    let x = self.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                    let y = self.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                    *x + *y\n\
                }\n\
                pub fn rev(&self) -> u8 {\n\
                    let y = self.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                    let x = self.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                    *x + *y\n\
                }\n\
            }\n";
        let f = run(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f
            .iter()
            .all(|x| x.message.contains("inconsistent lock order")));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "use std::sync::Mutex;\n\
            pub struct P { a: Mutex<u8>, b: Mutex<u8> }\n\
            impl P {\n\
                pub fn one(&self) -> u8 {\n\
                    let x = self.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                    let y = self.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                    *x + *y\n\
                }\n\
                pub fn two(&self) -> u8 {\n\
                    let x = self.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                    let y = self.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                    *x * *y\n\
                }\n\
            }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn guard_helper_binding_carries_fields() {
        let src = "use std::sync::{Mutex, MutexGuard};\n\
            pub struct C { inner: Mutex<u8> }\n\
            impl C {\n\
                fn lock(&self) -> MutexGuard<'_, u8> {\n\
                    self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)\n\
                }\n\
                pub fn bad(&self, n: usize) -> usize {\n\
                    let g = self.lock();\n\
                    decode_block(n) + *g as usize\n\
                }\n\
            }\n\
            fn decode_block(n: usize) -> usize { n }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("guard on `inner`"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn exempt_and_test_paths_skipped() {
        let src = "use std::sync::Mutex;\n\
            pub struct P { q: Mutex<u8> }\n\
            impl P {\n\
                pub fn bad(&self, n: usize) -> usize {\n\
                    let g = self.q.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                    decode_block(n) + *g as usize\n\
                }\n\
            }\n\
            fn decode_block(n: usize) -> usize { n }\n";
        for path in [
            "crates/xtask/src/x.rs",
            "crates/bench/src/y.rs",
            "crates/loom/src/z.rs",
            "tests/t.rs",
        ] {
            assert!(
                analyze(&[(path.to_string(), src.to_string())]).is_empty(),
                "{path} should be exempt"
            );
        }
    }
}
