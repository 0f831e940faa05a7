//! Rule R10: shared-state audit.
//!
//! Four checks over everything concurrency-adjacent that the lock pass
//! (R9) does not cover:
//!
//! 1. **`static mut`** — mutable global state with no synchronization.
//!    rustc accepts the bare declaration; only its uses need `unsafe`,
//!    which the workspace denies. (A manual `unsafe impl Send`/`Sync` is
//!    rejected outright by the workspace's `unsafe_code = "deny"`, so this
//!    pass does not look for it.)
//! 2. **Mismatched atomic orderings** — for each atomic *field*, the pass
//!    collects every `load`/`store`/RMW site workspace-wide with the
//!    `Ordering` it names. A field loaded with `Acquire`/`SeqCst`
//!    somewhere but stored with `Relaxed` elsewhere (or vice versa) gets a
//!    finding at each relaxed site: the acquire side expects a release
//!    counterpart it never gets. All-`Relaxed` (statistical counters, the
//!    repo policy) and all-seq-cst fields are consistent and clean.
//! 3. **Non-atomic counters in sync-shared structs** — a struct that
//!    already carries `Atomic*`/`Mutex` fields (so it is built to be
//!    shared) must not also have a bare-integer counter-named field
//!    mutated outside any of them.
//! 4. **Interior mutability escaping `&self`** — a `&self` method whose
//!    return type hands out a reference to a `Cell`/`RefCell`/
//!    `UnsafeCell`/`Mutex`/`RwLock` field lets callers bypass the owning
//!    type's locking discipline. (Returning a `MutexGuard` is fine — that
//!    *is* the discipline.)
//!
//! Findings are per-site and flow through the same suppression machinery
//! as every other rule (`xtask-allow: R10 -- reason`).

use crate::contracts::is_test_path;
use crate::items::{self, FieldDecl};
use crate::lexer::{
    self, ident_at, ident_ending_at, ident_starts_at, is_ident, next_nonws, prev_nonws, Lines,
};
use std::collections::{HashMap, HashSet};

/// Crates exempt from R10: dev tooling and the vendored loom model checker
/// (which re-implements sync primitives by design).
const EXEMPT: &[&str] = &["crates/xtask/", "crates/bench/", "crates/loom/"];

/// Atomic op method names, with whether they read, write, or both.
const ATOMIC_OPS: &[(&str, bool, bool)] = &[
    ("load", true, false),
    ("store", false, true),
    ("swap", true, true),
    ("fetch_add", true, true),
    ("fetch_sub", true, true),
    ("fetch_and", true, true),
    ("fetch_or", true, true),
    ("fetch_xor", true, true),
    ("fetch_update", true, true),
    ("compare_exchange", true, true),
    ("compare_exchange_weak", true, true),
];

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Field names that read as counters when declared as bare integers inside
/// a sync-shared struct.
const COUNTER_NAMES: &[&str] = &[
    "hits",
    "misses",
    "evictions",
    "decodes",
    "encodes",
    "tick",
    "ticks",
    "seq",
    "epoch",
];

/// Interior-mutability type markers in a returned reference.
const CELL_MARKERS: &[&str] = &["RefCell<", "Cell<", "UnsafeCell<", "Mutex<", "RwLock<"];

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// An R10 finding, pre-suppression.
#[derive(Debug)]
pub struct SharedFinding {
    pub file: String,
    pub line: usize,
    pub message: String,
}

fn is_exempt(file: &str) -> bool {
    EXEMPT.iter().any(|p| file.starts_with(p))
}

/// One atomic-op site.
struct AtomicSite {
    file: String,
    line: usize,
    field: String,
    reads: bool,
    writes: bool,
    orderings: Vec<String>,
}

fn sync_side(o: &str) -> bool {
    matches!(o, "Acquire" | "Release" | "AcqRel" | "SeqCst")
}

/// Runs the R10 pass over the workspace file set.
pub fn analyze(files: &[(String, String)]) -> Vec<SharedFinding> {
    let mut findings: Vec<SharedFinding> = Vec::new();
    let mut atomic_fields: HashSet<String> = HashSet::new();
    let mut prepared: Vec<(String, String)> = Vec::new();

    // Pass A: per-file lexing, struct-level checks, token-level checks;
    // collect atomic field names for pass B.
    for (rel, src) in files {
        if is_exempt(rel) || is_test_path(rel) {
            continue;
        }
        let lexed = lexer::strip(src);
        let active = lexer::blank_test_items(&lexed.code);
        {
            let lines = Lines::new(&active);
            let fields = items::parse_fields(&active, &lines);
            for fd in &fields {
                if fd.ty.contains("Atomic") {
                    atomic_fields.insert(fd.name.clone());
                }
            }
            check_counters(rel, &fields, &mut findings);
            check_static_mut(rel, &active, &lines, &mut findings);
            check_escapes(rel, &active, &lines, &mut findings);
        }
        prepared.push((rel.clone(), active));
    }

    // Pass B: atomic-op sites, now that the field set is complete.
    let mut sites: Vec<AtomicSite> = Vec::new();
    for (rel, active) in &prepared {
        let lines = Lines::new(active);
        collect_atomic_sites(rel, active, &lines, &atomic_fields, &mut sites);
    }
    check_ordering_consistency(&sites, &mut findings);

    findings.sort_by(|x, y| (&x.file, x.line, &x.message).cmp(&(&y.file, y.line, &y.message)));
    findings.dedup_by(|x, y| x.file == y.file && x.line == y.line && x.message == y.message);
    findings
}

/// `static mut` declarations.
fn check_static_mut(rel: &str, active: &str, lines: &Lines, findings: &mut Vec<SharedFinding>) {
    let b = active.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        if !ident_starts_at(b, i) {
            i += 1;
            continue;
        }
        let word = ident_at(b, i);
        let start = i;
        i += word.len();
        if word == "static"
            && next_nonws(b, i).is_some_and(|(j, c)| is_ident(c) && ident_at(b, j) == "mut")
        {
            findings.push(SharedFinding {
                file: rel.to_string(),
                line: lines.line_of(start),
                message:
                    "`static mut` global state — use an atomic, a `Mutex`, or `OnceLock` instead"
                        .to_string(),
            });
        }
    }
}

/// Bare-integer counter fields inside structs that carry sync fields.
fn check_counters(rel: &str, fields: &[FieldDecl], findings: &mut Vec<SharedFinding>) {
    let mut sync_structs: HashSet<&str> = HashSet::new();
    for fd in fields {
        if fd.ty.contains("Atomic") || fd.ty.contains("Mutex<") || fd.ty.contains("RwLock<") {
            sync_structs.insert(fd.struct_name.as_str());
        }
    }
    for fd in fields {
        if !sync_structs.contains(fd.struct_name.as_str()) {
            continue;
        }
        let counterish = fd.name.contains("count") || COUNTER_NAMES.contains(&fd.name.as_str());
        if counterish && INT_TYPES.contains(&fd.ty.as_str()) {
            findings.push(SharedFinding {
                file: rel.to_string(),
                line: fd.line,
                message: format!(
                    "non-atomic counter `{}: {}` in sync-shared struct `{}` — make it atomic or move it under the struct's lock",
                    fd.name, fd.ty, fd.struct_name
                ),
            });
        }
    }
}

/// `&self` methods returning references to interior-mutability fields.
fn check_escapes(rel: &str, active: &str, lines: &Lines, findings: &mut Vec<SharedFinding>) {
    let items = items::parse_items(active, &Lines::new(active));
    for it in &items {
        let sig = &active[it.start..it.body_open];
        let Some(arrow) = sig.find("->") else {
            continue;
        };
        let (params, ret) = sig.split_at(arrow);
        if !params.contains("&self") || params.contains("&mut self") {
            continue;
        }
        if ret.contains('&') && CELL_MARKERS.iter().any(|m| ret.contains(m)) {
            findings.push(SharedFinding {
                file: rel.to_string(),
                line: lines.line_of(it.start),
                message: format!(
                    "`&self` method `{}` returns a reference to an interior-mutability cell — callers bypass the owning type's synchronization; return a guard or a copy instead",
                    it.name
                ),
            });
        }
    }
}

fn collect_atomic_sites(
    rel: &str,
    active: &str,
    lines: &Lines,
    atomic_fields: &HashSet<String>,
    sites: &mut Vec<AtomicSite>,
) {
    let b = active.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        if !ident_starts_at(b, i) {
            i += 1;
            continue;
        }
        let word = ident_at(b, i);
        let start = i;
        i += word.len();
        let Some(&(_, reads, writes)) = ATOMIC_OPS.iter().find(|(n, _, _)| *n == word) else {
            continue;
        };
        let Some((open, c)) = next_nonws(b, i) else {
            continue;
        };
        if c != b'(' {
            continue;
        }
        let Some((dot, cd)) = prev_nonws(b, start) else {
            continue;
        };
        if cd != b'.' {
            continue;
        }
        let Some((p, cr)) = prev_nonws(b, dot) else {
            continue;
        };
        if !is_ident(cr) {
            continue;
        }
        let field = ident_ending_at(b, p + 1).to_string();
        if !atomic_fields.contains(&field) {
            continue;
        }
        // Orderings named inside the argument list.
        let close = {
            let mut depth = 0isize;
            let mut k = open;
            loop {
                if k >= b.len() {
                    break k;
                }
                match b[k] {
                    b'(' => depth += 1,
                    b')' => {
                        depth -= 1;
                        if depth == 0 {
                            break k;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
        };
        let args = &active[open + 1..close.min(active.len())];
        let ab = args.as_bytes();
        let mut orderings = Vec::new();
        let mut a = 0usize;
        while a < ab.len() {
            if ident_starts_at(ab, a) {
                let w = ident_at(ab, a);
                if ORDERINGS.contains(&w) {
                    orderings.push(w.to_string());
                }
                a += w.len();
            } else {
                a += 1;
            }
        }
        sites.push(AtomicSite {
            file: rel.to_string(),
            line: lines.line_of(start),
            field,
            reads,
            writes,
            orderings,
        });
    }
}

fn check_ordering_consistency(sites: &[AtomicSite], findings: &mut Vec<SharedFinding>) {
    let mut by_field: HashMap<&str, Vec<&AtomicSite>> = HashMap::new();
    for s in sites {
        by_field.entry(s.field.as_str()).or_default().push(s);
    }
    for (field, sites) in by_field {
        let sync_read = sites
            .iter()
            .find(|s| s.reads && s.orderings.iter().any(|o| sync_side(o)));
        let sync_write = sites
            .iter()
            .find(|s| s.writes && s.orderings.iter().any(|o| sync_side(o)));
        for s in &sites {
            let relaxed = s.orderings.iter().any(|o| o == "Relaxed");
            if !relaxed {
                continue;
            }
            if s.writes {
                if let Some(r) = sync_read {
                    if !std::ptr::eq(*s, *r) {
                        findings.push(SharedFinding {
                            file: s.file.clone(),
                            line: s.line,
                            message: format!(
                                "atomic `{field}` written with `Relaxed` here but loaded with `{}` at {}:{} — the acquire side expects a release store; align the orderings",
                                r.orderings.iter().find(|o| sync_side(o)).map(String::as_str).unwrap_or("Acquire"),
                                r.file,
                                r.line
                            ),
                        });
                        continue;
                    }
                }
            }
            if s.reads {
                if let Some(w) = sync_write {
                    if !std::ptr::eq(*s, *w) {
                        findings.push(SharedFinding {
                            file: s.file.clone(),
                            line: s.line,
                            message: format!(
                                "atomic `{field}` read with `Relaxed` here but stored with `{}` at {}:{} — the release store expects an acquire load; align the orderings",
                                w.orderings.iter().find(|o| sync_side(o)).map(String::as_str).unwrap_or("Release"),
                                w.file,
                                w.line
                            ),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<SharedFinding> {
        analyze(&[("crates/core/src/state.rs".to_string(), src.to_string())])
    }

    #[test]
    fn static_mut_flagged() {
        // The `unsafe impl`s are rustc's to reject (`unsafe_code = "deny"`).
        let src = "static mut HITS: u64 = 0;\n\
            pub struct W(*mut u8);\n\
            unsafe impl Send for W {}\n\
            unsafe impl Sync for W {}\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("static mut"));
    }

    #[test]
    fn mismatched_orderings_flagged_at_relaxed_site() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
            pub struct S { ready: AtomicU64 }\n\
            impl S {\n\
                pub fn publish(&self) { self.ready.store(1, Ordering::Relaxed); }\n\
                pub fn wait(&self) -> u64 { self.ready.load(Ordering::Acquire) }\n\
            }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
        assert!(
            f[0].message.contains("written with `Relaxed`"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn all_relaxed_counters_are_clean() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
            pub struct S { hits: AtomicU64 }\n\
            impl S {\n\
                pub fn hit(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }\n\
                pub fn total(&self) -> u64 { self.hits.load(Ordering::Relaxed) }\n\
            }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn bare_counter_in_sync_struct_flagged() {
        let src = "use std::sync::Mutex;\n\
            pub struct S { inner: Mutex<Vec<u8>>, hits: u64 }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("non-atomic counter `hits: u64`"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn counter_under_the_lock_is_clean() {
        // `tick` lives inside the Mutex-protected inner struct, which has
        // no sync fields of its own: that is the sanctioned layout.
        let src = "use std::sync::Mutex;\n\
            pub struct S { inner: Mutex<Inner> }\n\
            struct Inner { tick: u64 }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn escaping_refcell_flagged_guard_return_clean() {
        let src = "use std::cell::RefCell;\n\
            use std::sync::{Mutex, MutexGuard};\n\
            pub struct S { cell: RefCell<u32>, inner: Mutex<u8> }\n\
            impl S {\n\
                pub fn cell(&self) -> &RefCell<u32> { &self.cell }\n\
                pub fn lock(&self) -> MutexGuard<'_, u8> {\n\
                    self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)\n\
                }\n\
            }\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("method `cell` returns a reference"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn exempt_and_test_paths_skipped() {
        let src = "static mut X: u64 = 0;\n";
        for path in [
            "crates/xtask/src/a.rs",
            "crates/bench/src/b.rs",
            "crates/loom/src/c.rs",
            "tests/d.rs",
        ] {
            assert!(
                analyze(&[(path.to_string(), src.to_string())]).is_empty(),
                "{path} should be exempt"
            );
        }
    }
}
