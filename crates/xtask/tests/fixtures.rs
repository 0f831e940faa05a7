//! Fixture tests for the lint rules: each fixture is a small source file
//! with known violations, asserted by exact rule id and line number.
//!
//! The fixtures live under `tests/fixtures/` so neither cargo nor the
//! scanner itself (which only walks `crates/*/src/`) picks them up as real
//! code. Each is linted under a *virtual* workspace-relative path chosen to
//! put it in the scope of the rule under test.

use cliz_xtask::{
    baseline_from_report, baseline_to_json, lint_source, lint_sources, parse_baseline, ratchet,
};

/// `(rule, line)` pairs of a report, sorted.
fn hits(rel_path: &str, source: &str) -> Vec<(&'static str, usize)> {
    let mut v: Vec<_> = lint_source(rel_path, source)
        .violations
        .iter()
        .map(|v| (v.rule, v.line))
        .collect();
    v.sort();
    v
}

#[test]
fn r1_flags_decoder_input_indexing() {
    // Line 2 indexes `bytes`. The `.unwrap()` on line 4 and the `panic!` on
    // line 6 are left to the crate-level clippy deny (`unwrap_used`,
    // `panic`).
    let src = include_str!("fixtures/r1_panics.rs");
    assert_eq!(hits("crates/entropy/src/fixture.rs", src), vec![("R1", 2)]);
}

#[test]
fn r1_is_scoped_to_decode_facing_code() {
    // The same source under a non-decode path raises nothing.
    let src = include_str!("fixtures/r1_panics.rs");
    assert_eq!(hits("crates/bench/src/fixture.rs", src), vec![]);
}

#[test]
fn r3_requires_result_on_pub_codec_entry_points() {
    let src = include_str!("fixtures/r3_entry.rs");
    // Line 1: pub compress_* without Result. The Result-returning
    // decompress_block (line 6) and the private helper (line 11) pass.
    assert_eq!(
        hits("crates/baselines/src/fixture.rs", src),
        vec![("R3", 1)]
    );
}

#[test]
fn r4_requires_debug_assert_hooks_in_quantizer() {
    let missing = include_str!("fixtures/r4_missing.rs");
    assert_eq!(
        hits("crates/quant/src/quantizer.rs", missing),
        vec![("R4", 4), ("R4", 9)]
    );
    // R4 only applies to the quantizer file itself.
    assert_eq!(hits("crates/quant/src/other.rs", missing), vec![]);

    let present = include_str!("fixtures/r4_present.rs");
    assert_eq!(hits("crates/quant/src/quantizer.rs", present), vec![]);
}

#[test]
fn clean_decode_code_passes_and_test_modules_are_exempt() {
    let src = include_str!("fixtures/clean.rs");
    let report = lint_source("crates/entropy/src/fixture.rs", src);
    assert_eq!(report.violations.len(), 0, "{:?}", report.violations);
    assert_eq!(report.suppressed, 0);
}

#[test]
fn suppressions_cover_line_and_function_scopes() {
    let src = include_str!("fixtures/suppressed.rs");
    let report = lint_source("crates/entropy/src/fixture.rs", src);
    assert_eq!(report.violations.len(), 0, "{:?}", report.violations);
    // bytes[0] on line 3, and bytes[0]/bytes[1] inside first_two.
    assert_eq!(report.suppressed, 3);
}

#[test]
fn malformed_suppressions_are_r0_and_do_not_suppress() {
    let src = include_str!("fixtures/bad_suppression.rs");
    // Missing reason (line 2) and unknown rule id (line 7) are R0, and the
    // violations they failed to cover still surface (lines 3 and 8).
    assert_eq!(
        hits("crates/entropy/src/fixture.rs", src),
        vec![("R0", 2), ("R0", 7), ("R1", 3), ("R1", 8)]
    );
}

/// Assembles a two-file virtual workspace for the cross-crate R5 pass.
fn r5_workspace() -> Vec<(String, String)> {
    vec![
        (
            "crates/alpha/src/entry.rs".to_string(),
            include_str!("fixtures/r5_entry.rs").to_string(),
        ),
        (
            "crates/beta/src/helpers.rs".to_string(),
            include_str!("fixtures/r5_helpers.rs").to_string(),
        ),
    ]
}

#[test]
fn r5_pins_the_exact_cross_crate_taint_chain() {
    let report = lint_sources(&r5_workspace());
    // Exactly one finding: the `bytes[0]` in `leaf`, two hops from the
    // `decompress_blob` seed in the other crate. `untainted` (never called
    // from a seed) raises nothing despite touching a slice.
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    let v = &report.violations[0];
    assert_eq!(v.rule, "R5");
    assert_eq!(v.file, "crates/beta/src/helpers.rs");
    assert_eq!(v.line, 6);
    assert_eq!(
        v.message,
        "indexing `bytes[..]` reachable from decode-tainted input \
         (path: decompress_blob → step → leaf)"
    );
}

#[test]
fn r5_is_silent_without_a_seed_and_in_exempt_crates() {
    // Helpers alone (no decompress/read/parse entry anywhere): clean.
    let helpers_only = vec![(
        "crates/beta/src/helpers.rs".to_string(),
        include_str!("fixtures/r5_helpers.rs").to_string(),
    )];
    assert_eq!(lint_sources(&helpers_only).violations.len(), 0);

    // The same tainted pair under an exempt crate raises nothing.
    let exempt: Vec<(String, String)> = r5_workspace()
        .into_iter()
        .map(|(p, s)| {
            (
                p.replace("crates/alpha", "crates/xtask")
                    .replace("crates/beta", "crates/bench"),
                s,
            )
        })
        .collect();
    assert_eq!(lint_sources(&exempt).violations.len(), 0);
}

#[test]
fn r5_function_suppression_covers_the_hazard_and_counts() {
    let files = vec![(
        "crates/beta/src/decode.rs".to_string(),
        include_str!("fixtures/r5_suppressed.rs").to_string(),
    )];
    let report = lint_sources(&files);
    assert_eq!(report.violations.len(), 0, "{:?}", report.violations);
    assert_eq!(report.suppressed, 1);
}

/// `(rule, line)` pairs of a workspace-pass report, sorted.
fn workspace_hits(files: &[(String, String)]) -> Vec<(&'static str, usize)> {
    let mut v: Vec<_> = lint_sources(files)
        .violations
        .iter()
        .map(|v| (v.rule, v.line))
        .collect();
    v.sort();
    v
}

#[test]
fn r7_flags_unchecked_arithmetic_and_allocation_from_wire_lengths() {
    let files = vec![(
        "crates/core/src/chunked.rs".to_string(),
        include_str!("fixtures/r7_tainted.rs").to_string(),
    )];
    // Line 2 reads `n` off the wire; line 3 multiplies it bare, line 4
    // allocates from it — both before any validation.
    assert_eq!(workspace_hits(&files), vec![("R7", 3), ("R7", 4)]);
}

#[test]
fn r7_guarded_and_checked_reads_pass() {
    // Identical reads, but one fn compares `n` against a cap before using
    // it and the other goes through `checked_mul`: both clean.
    let files = vec![(
        "crates/core/src/chunked.rs".to_string(),
        include_str!("fixtures/r7_guarded.rs").to_string(),
    )];
    assert_eq!(workspace_hits(&files), vec![]);
}

#[test]
fn r8_flags_compressor_impl_without_bound_test() {
    let files = vec![(
        "crates/baselines/src/fixture.rs".to_string(),
        include_str!("fixtures/r8_impl.rs").to_string(),
    )];
    let report = lint_sources(&files);
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert_eq!(report.violations[0].rule, "R8");
    assert!(report.violations[0].message.contains("FixtureCodec"));
}

#[test]
fn r8_bound_asserting_roundtrip_test_satisfies_the_contract() {
    // Same impl, now mentioned from a test that asserts |x - x'| <= eb.
    let files = vec![
        (
            "crates/baselines/src/fixture.rs".to_string(),
            include_str!("fixtures/r8_impl.rs").to_string(),
        ),
        (
            "tests/r8_roundtrip.rs".to_string(),
            include_str!("fixtures/r8_roundtrip.rs").to_string(),
        ),
    ];
    assert_eq!(workspace_hits(&files), vec![]);
}

#[test]
fn r8_eb_scaling_must_live_in_a_named_helper() {
    let files = vec![(
        "crates/quant/src/fixture.rs".to_string(),
        include_str!("fixtures/r8_eb.rs").to_string(),
    )];
    // `2.0 * self.eb` inside `step()` (line 7) is flagged; the same
    // expression inside `eb_step()` and the comparison in `within()` pass.
    assert_eq!(workspace_hits(&files), vec![("R8", 7)]);
}

#[test]
fn ratchet_tolerates_baselined_findings_and_fails_on_growth() {
    let report = lint_sources(&r5_workspace());
    assert_eq!(report.violations.len(), 1);

    // An empty baseline (the committed state of this repo) fails the run.
    let empty = parse_baseline("{\"version\": 1, \"entries\": []}").expect("parse");
    let out = ratchet(&report, &empty);
    assert!(out.is_regression());
    assert_eq!(out.regressions.len(), 1);
    let (rule, file, current, allowed) = &out.regressions[0];
    assert_eq!((rule.as_str(), current, allowed), ("R5", &1, &0));
    assert_eq!(file, "crates/beta/src/helpers.rs");

    // A baseline written from the report tolerates exactly these findings.
    let base = baseline_from_report(&report);
    let reparsed = parse_baseline(&baseline_to_json(&base)).expect("roundtrip");
    let out = ratchet(&report, &reparsed);
    assert!(!out.is_regression());
    assert_eq!(out.known, 1);
}

#[test]
fn ratchet_only_shrinks_fixed_findings_go_stale_not_green_lit() {
    let report = lint_sources(&r5_workspace());
    let base = baseline_from_report(&report);

    // Burn the finding down (suppress it at the hazard function): the old
    // baseline entry is now stale, and the run still passes.
    let fixed: Vec<(String, String)> = r5_workspace()
        .into_iter()
        .map(|(p, s)| {
            let s = s.replace(
                "pub fn leaf",
                "// xtask-allow-fn: R5 -- fixture: burned down\npub fn leaf",
            );
            (p, s)
        })
        .collect();
    let clean = lint_sources(&fixed);
    assert_eq!(clean.violations.len(), 0, "{:?}", clean.violations);
    let out = ratchet(&clean, &base);
    assert!(!out.is_regression());
    assert_eq!(out.stale.len(), 1);
    assert_eq!(out.stale[0].2, 0, "stale entry reports current count 0");
}

#[test]
fn r9_flags_held_guards_double_acquires_and_order_cycles() {
    let files = vec![(
        "crates/transfer/src/fixture.rs".to_string(),
        include_str!("fixtures/r9_hazards.rs").to_string(),
    )];
    // line 9: guard on `state` held across `decompress_block(..)`;
    // line 14: `state` re-acquired while its guard is still live;
    // lines 21/28: `state`→`side` and `side`→`state` nestings both occur,
    // so each edge of the order cycle is flagged at its acquisition site.
    assert_eq!(
        workspace_hits(&files),
        vec![("R9", 9), ("R9", 14), ("R9", 21), ("R9", 28)]
    );
}

#[test]
fn r9_released_guards_and_canonical_order_pass() {
    let files = vec![(
        "crates/transfer/src/fixture.rs".to_string(),
        include_str!("fixtures/r9_clean.rs").to_string(),
    )];
    // Block-scoped, dropped, and statement-temporary guards all end before
    // the codec call; both nesting functions use the same lock order.
    assert_eq!(workspace_hits(&files), vec![]);
}

#[test]
fn r9_is_silent_in_exempt_crates() {
    let files = vec![(
        "crates/bench/src/fixture.rs".to_string(),
        include_str!("fixtures/r9_hazards.rs").to_string(),
    )];
    assert_eq!(workspace_hits(&files), vec![]);
}

#[test]
fn r10_flags_shared_state_hazards() {
    let files = vec![(
        "crates/transfer/src/fixture.rs".to_string(),
        include_str!("fixtures/r10_hazards.rs").to_string(),
    )];
    // line 1: `static mut`; line 4: bare `count: u64` in a sync-shared
    // struct; line 14: `Relaxed` fetch_add on `total` while line 18 loads
    // it with `Acquire`; line 21: `&self` method returning `&RefCell<..>`.
    // The manual `unsafe impl Send`/`Sync` on lines 9/10 are rustc's to
    // reject (`unsafe_code = "deny"`).
    assert_eq!(
        workspace_hits(&files),
        vec![("R10", 1), ("R10", 4), ("R10", 14), ("R10", 21)]
    );
}

#[test]
fn r10_relaxed_counters_and_locked_state_pass() {
    let files = vec![(
        "crates/transfer/src/fixture.rs".to_string(),
        include_str!("fixtures/r10_clean.rs").to_string(),
    )];
    // All-`Relaxed` statistical counters, a plain counter under the
    // `Mutex`, and a `MutexGuard`-returning accessor are the sanctioned
    // layouts.
    assert_eq!(workspace_hits(&files), vec![]);
}

#[test]
fn r11_flags_hot_loop_allocation_and_spares_cold_and_hoisted() {
    let files = vec![(
        "crates/entropy/src/fixture.rs".to_string(),
        include_str!("fixtures/r11_hot_alloc.rs").to_string(),
    )];
    // Line 8: `Vec::new()` inside `decode_rows`'s loop (hot by name). The
    // identical loop in cold `build_table` and the hoisted scratch buffer
    // in `decode_hoisted` raise nothing.
    assert_eq!(workspace_hits(&files), vec![("R11", 8)]);
}

#[test]
fn r11_is_scoped_to_kernel_crates() {
    let files = vec![(
        "crates/cli/src/fixture.rs".to_string(),
        include_str!("fixtures/r11_hot_alloc.rs").to_string(),
    )];
    assert_eq!(workspace_hits(&files), vec![]);
}

#[test]
fn r12_flags_single_bit_io_in_loops_only() {
    let files = vec![(
        "crates/entropy/src/fixture.rs".to_string(),
        include_str!("fixtures/r12_bit_io.rs").to_string(),
    )];
    // Lines 8/9: `.read_bits(1)` and `.write_bits(_, 1)` inside
    // `decode_flags`'s loop. The 11-bit reads in `decode_codes` and the
    // single-bit read *outside* a loop (line 19) pass.
    assert_eq!(workspace_hits(&files), vec![("R12", 8), ("R12", 9)]);
}

#[test]
fn r12_suppression_covers_a_frozen_reference_kernel() {
    // The differential-reference modules keep the bit-at-a-time shape on
    // purpose; an argued xtask-allow-fn suppression keeps them auditable.
    let src = include_str!("fixtures/r12_bit_io.rs").replace(
        "pub fn decode_flags",
        "// xtask-allow-fn: R12 -- fixture: frozen pre-rewrite reference\npub fn decode_flags",
    );
    let files = vec![("crates/entropy/src/fixture.rs".to_string(), src)];
    let report = lint_sources(&files);
    assert_eq!(report.violations.len(), 0, "{:?}", report.violations);
    assert_eq!(report.suppressed, 2);
}

#[test]
fn r13_flags_per_iteration_mask_test_and_spares_hoisted_form() {
    let files = vec![(
        "crates/quant/src/fixture.rs".to_string(),
        include_str!("fixtures/r13_masked_loop.rs").to_string(),
    )];
    // Line 6: `for i in ..` indexing `vals[i]`/`m[i]` under a per-element
    // `is_none_or` test. The hoisted match + zip form passes.
    assert_eq!(workspace_hits(&files), vec![("R13", 6)]);
}

#[test]
fn r13_is_scoped_to_numeric_kernel_crates() {
    let files = vec![(
        "crates/lossless/src/fixture.rs".to_string(),
        include_str!("fixtures/r13_masked_loop.rs").to_string(),
    )];
    assert_eq!(workspace_hits(&files), vec![]);
}

#[test]
fn r10_is_silent_in_exempt_crates() {
    let files = vec![(
        "crates/bench/src/fixture.rs".to_string(),
        include_str!("fixtures/r10_hazards.rs").to_string(),
    )];
    assert_eq!(workspace_hits(&files), vec![]);
}

// ---------------------------------------------------------------------------
// R14/R15/R16: format symmetry, version discipline, error-surface coverage.
// Every workspace test ships the fixture registry at the canonical path so
// the rules have specs to resolve against.
// ---------------------------------------------------------------------------

fn fmt_registry() -> (String, String) {
    (
        "crates/format/src/lib.rs".to_string(),
        include_str!("fixtures/fmt_registry.rs").to_string(),
    )
}

#[test]
fn r14_flags_width_mismatch_unpaired_writer_and_one_sided_trailer() {
    let files = vec![
        fmt_registry(),
        (
            "crates/store/src/fixture.rs".to_string(),
            include_str!("fixtures/r14_asym.rs").to_string(),
        ),
    ];
    // Line 14: `parse_aaa` reads f32 where `write_aaa` emits f64.
    // Line 26: `write_bbb` serializes BBB1 that nothing parses.
    // Line 34: the AAA1 trailer magic is emitted but never checked.
    assert_eq!(
        workspace_hits(&files),
        vec![("R14", 14), ("R14", 26), ("R14", 34)]
    );
}

#[test]
fn r14_symmetric_pairs_and_checked_trailer_pass() {
    // Same shapes, but the reader mirrors the writer field-for-field (the
    // per-dim loop pairs with the adjacent u64 via star normalization),
    // BBB1 gains a parser, and the trailer is both emitted and compared.
    let files = vec![
        fmt_registry(),
        (
            "crates/store/src/fixture.rs".to_string(),
            include_str!("fixtures/r14_sym.rs").to_string(),
        ),
    ];
    assert_eq!(workspace_hits(&files), vec![]);
}

#[test]
fn r14_suppression_silences_the_unpaired_writer() {
    let src = include_str!("fixtures/r14_asym.rs").replace(
        "pub fn write_bbb",
        "// xtask-allow-fn: R14 -- sidecar format parsed by external tooling\npub fn write_bbb",
    );
    let files = vec![
        fmt_registry(),
        ("crates/store/src/fixture.rs".to_string(), src),
    ];
    // The width mismatch stays at line 14; the trailer finding shifts to 35
    // behind the inserted comment; the write-without-read is suppressed.
    assert_eq!(workspace_hits(&files), vec![("R14", 14), ("R14", 35)]);
}

#[test]
fn r15_flags_missing_version_check_late_check_stray_const_and_duplicate() {
    let files = vec![
        fmt_registry(),
        (
            "crates/store/src/fixture.rs".to_string(),
            include_str!("fixtures/r15_version.rs").to_string(),
        ),
    ];
    // Line 3: `parse_noversion` has no UnsupportedVersion path at all.
    // Line 17: `parse_late` decodes a count before validating the version.
    // Line 35: stray MAGIC const outside the registry, which also collides
    // with AAA1's value (two findings on that line).
    // Line 38: `FormatSpec` literal constructed outside the registry.
    assert_eq!(
        workspace_hits(&files),
        vec![
            ("R15", 3),
            ("R15", 17),
            ("R15", 35),
            ("R15", 35),
            ("R15", 38)
        ]
    );
}

#[test]
fn r15_version_checked_before_counts_passes() {
    let files = vec![
        fmt_registry(),
        (
            "crates/store/src/fixture.rs".to_string(),
            include_str!("fixtures/r15_version_ok.rs").to_string(),
        ),
    ];
    assert_eq!(workspace_hits(&files), vec![]);
}

#[test]
fn r16_flags_dead_untested_and_unreachable_error_variants() {
    let files = vec![
        fmt_registry(),
        (
            "crates/store/src/fixture.rs".to_string(),
            include_str!("fixtures/r16_surface.rs").to_string(),
        ),
        (
            "crates/store/tests/fixture_cov.rs".to_string(),
            include_str!("fixtures/r16_cov_test.rs").to_string(),
        ),
    ];
    // Line 4: `Dead` is never constructed. Line 5: `Untested` is built in
    // `parse_rec` but no test asserts it. Line 6: `Orphaned` is both
    // untested and only constructed in `audit_rec`, which no decode entry
    // point reaches. Line 7 (`Covered`) is asserted by the test fixture.
    assert_eq!(
        workspace_hits(&files),
        vec![("R16", 4), ("R16", 5), ("R16", 6), ("R16", 6)]
    );
}

#[test]
fn format_rules_are_scoped_to_container_crates() {
    let files = vec![
        fmt_registry(),
        (
            "crates/entropy/src/fixture.rs".to_string(),
            include_str!("fixtures/r14_asym.rs").to_string(),
        ),
    ];
    let got = workspace_hits(&files);
    assert!(
        got.iter()
            .all(|(r, _)| *r != "R14" && *r != "R15" && *r != "R16"),
        "format rules fired out of scope: {got:?}"
    );
}
