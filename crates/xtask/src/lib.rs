//! `cliz-xtask`: workspace static-analysis pass.
//!
//! Run with `cargo run -p cliz-xtask -- lint`. See `docs/STATIC_ANALYSIS.md`
//! for the rule catalogue and suppression syntax. The crate has zero
//! external dependencies on purpose: it must build with a bare toolchain
//! even when the crates.io registry is unreachable.
//!
//! Two layers of analysis:
//!
//! * per-file token rules (R0, R1, R3, R4) in [`rules`], over lexed code
//!   with comments/strings/test items blanked ([`lexer`]);
//! * workspace passes over a cross-crate call graph: [`items`] parses `fn`
//!   items and call/hazard sites, [`callgraph`] links call sites to every
//!   same-named function, [`taint`] runs the R5 panic-reachability pass
//!   from decode-tainted entry points, [`dataflow`] runs the R7
//!   length-provenance pass, [`contracts`] runs the R8 error-bound
//!   contract audit (integration-test files are collected as coverage
//!   evidence for R8 but are exempt from every other rule), [`locks`] runs
//!   the R9 lock-discipline pass, [`shared`] runs the R10 shared-state
//!   audit, and [`perf`] runs the R11–R13 hot-path performance audit
//!   (hot-loop allocation, bit-granular I/O, vectorization-hostile loops).
//!
//! [`output`] renders reports as text/JSON/SARIF and implements the
//! `xtask-baseline.json` ratchet (findings may only shrink).

pub mod callgraph;
pub mod contracts;
pub mod dataflow;
pub mod format;
pub mod items;
pub mod lexer;
pub mod locks;
pub mod output;
pub mod perf;
pub mod rules;
pub mod shared;
pub mod taint;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use output::{
    baseline_from_report, baseline_to_json, describe_rule, parse_baseline, ratchet, to_json,
    to_sarif, Baseline, RatchetOutcome,
};
pub use rules::{FileReport, Violation, ALL_RULES};

/// A violation bound to the file it was found in.
#[derive(Debug, Clone)]
pub struct FileViolation {
    pub file: String,
    pub rule: &'static str,
    pub line: usize,
    pub message: String,
}

/// Aggregate result of scanning the workspace.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<FileViolation>,
    pub files_scanned: usize,
    pub suppressed: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Lints a single source string as if it lived at `rel_path`
/// (workspace-relative, `/`-separated). Per-file rules only (R0, R1, R3, R4);
/// the workspace R5 pass needs the whole file set — use [`lint_sources`].
/// Exposed for fixture tests.
pub fn lint_source(rel_path: &str, source: &str) -> FileReport {
    rules::check_file(rel_path, source)
}

/// Lints a set of sources as one workspace: per-file rules plus the
/// cross-crate R5/R7 passes and the R8 contract audit. Each entry is
/// `(rel_path, source)`. Integration-test files (`tests/…`) are coverage
/// evidence for R8 only — no per-file rules, no call-graph seeding.
pub fn lint_sources(files: &[(String, String)]) -> Report {
    let mut report = Report::default();
    let mut all_items = Vec::with_capacity(files.len());
    let mut sups_by_file = Vec::with_capacity(files.len());
    let mut product_files: Vec<(String, String)> = Vec::with_capacity(files.len());
    for (rel, source) in files {
        report.files_scanned += 1;
        if contracts::is_test_path(rel) {
            continue;
        }
        let fa = rules::analyze_file(rel, source);
        report.suppressed += fa.report.suppressed;
        for v in fa.report.violations {
            report.violations.push(FileViolation {
                file: rel.clone(),
                rule: v.rule,
                line: v.line,
                message: v.message,
            });
        }
        sups_by_file.push((rel.clone(), fa.sups));
        all_items.push((rel.clone(), fa.items));
        product_files.push((rel.clone(), source.clone()));
    }

    let push =
        |report: &mut Report, rule: &'static str, file: String, line: usize, message: String| {
            let suppressed = sups_by_file
                .iter()
                .find(|(rel, _)| *rel == file)
                .is_some_and(|(_, sups)| sups.iter().any(|s| s.covers(rule, line)));
            if suppressed {
                report.suppressed += 1;
            } else {
                report.violations.push(FileViolation {
                    file,
                    rule,
                    line,
                    message,
                });
            }
        };

    // Workspace pass: R5 panic reachability over the call graph.
    for f in taint::analyze(&all_items) {
        push(&mut report, "R5", f.file, f.line, f.message);
    }

    // Workspace pass: R7 length-provenance dataflow.
    for f in dataflow::analyze(&product_files) {
        push(&mut report, "R7", f.file, f.line, f.message);
    }

    // Workspace pass: R8 error-bound contract audit (sees the test files).
    for f in contracts::analyze(files) {
        push(&mut report, "R8", f.file, f.line, f.message);
    }

    // Workspace pass: R9 lock discipline.
    for f in locks::analyze(&product_files) {
        push(&mut report, "R9", f.file, f.line, f.message);
    }

    // Workspace pass: R10 shared-state audit.
    for f in shared::analyze(&product_files) {
        push(&mut report, "R10", f.file, f.line, f.message);
    }

    // Workspace pass: R11–R13 hot-path performance audit.
    for f in perf::analyze(&product_files) {
        push(&mut report, f.rule, f.file, f.line, f.message);
    }

    // Workspace pass: R14–R16 container-format audit (sees the test files
    // as R16 coverage evidence).
    for f in format::analyze(files) {
        push(&mut report, f.rule, f.file, f.line, f.message);
    }

    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
}

/// Scans every `crates/*/src/**/*.rs` file under `root`, plus the
/// integration-test files (`tests/*.rs`, `crates/*/tests/**/*.rs`) that
/// serve as R8 coverage evidence. Test trees of the exempt crates (xtask's
/// own fixtures, benches) are skipped: their deliberate violations must
/// never count as evidence.
pub fn lint_root(root: &Path) -> io::Result<Report> {
    let mut paths = Vec::new();
    let crates_dir = root.join("crates");
    for entry in fs::read_dir(&crates_dir)? {
        let krate = entry?.path();
        let src = krate.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut paths)?;
        }
        let is_exempt = krate
            .file_name()
            .is_some_and(|n| n == "xtask" || n == "bench");
        let tests = krate.join("tests");
        if !is_exempt && tests.is_dir() {
            collect_rs(&tests, &mut paths)?;
        }
    }
    let root_tests = root.join("tests");
    if root_tests.is_dir() {
        collect_rs(&root_tests, &mut paths)?;
    }
    paths.sort();

    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = fs::read_to_string(&path)?;
        files.push((rel, source));
    }
    Ok(lint_sources(&files))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
