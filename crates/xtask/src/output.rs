//! Output formats and the violation ratchet.
//!
//! `to_json`/`to_sarif` render a [`Report`](crate::Report) for CI
//! annotation (SARIF 2.1.0, minimal subset). The ratchet compares current
//! findings against a committed baseline (`xtask-baseline.json`): per
//! `(rule, file)` pair the finding count may only shrink — anything above
//! the baseline, or in a file the baseline has never seen, fails the run.
//! Everything is hand-rolled (no serde): the crate must build with a bare
//! toolchain when the registry is unreachable.

use crate::Report;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON document.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the report as a plain JSON document.
pub fn to_json(report: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            esc(v.rule),
            esc(&v.file),
            v.line,
            esc(&v.message)
        );
    }
    if !report.violations.is_empty() {
        s.push_str("\n  ");
    }
    let _ = write!(
        s,
        "],\n  \"files_scanned\": {},\n  \"suppressed\": {}\n}}\n",
        report.files_scanned, report.suppressed
    );
    s
}

/// Short per-rule descriptions, embedded in the SARIF tool metadata.
const RULE_DESCRIPTIONS: &[(&str, &str)] = &[
    ("R0", "malformed xtask-allow suppression"),
    ("R1", "direct slice indexing of a decoder input buffer in decode-facing code"),
    ("R3", "public codec entry point must return Result"),
    ("R4", "quantizer boundary lacks its debug_assert invariant hook"),
    ("R5", "panic reachable from decode-tainted input (call-graph pass)"),
    ("R7", "unchecked arithmetic/slice/allocation sized by an untrusted length (dataflow pass)"),
    ("R8", "Compressor impl lacks bound-asserting roundtrip test, or eb scaled outside a named helper"),
    ("R9", "lock-discipline hazard: guard held across expensive work, double acquisition, or lock-order cycle (workspace pass)"),
    ("R10", "shared-state hazard: static mut, mismatched atomic orderings, bare counter in a Sync type, or escaping interior mutability (workspace pass)"),
    ("R11", "heap allocation inside a loop reachable from a codec entry point (workspace pass)"),
    ("R12", "single-bit BitReader/BitWriter call in a loop; use word-at-a-time I/O (workspace pass)"),
    ("R13", "vectorization-hostile loop: per-element indexing mixed with a per-iteration mask test (workspace pass)"),
    ("R14", "serializer/parser asymmetry: format written but not read (or vice versa), field width/order mismatch, or unchecked trailer magic (workspace pass)"),
    ("R15", "version discipline: parser lacks an UnsupportedVersion range check before length fields, or a magic constant lives outside the cliz-format registry (workspace pass)"),
    ("R16", "parser error-surface gap: dead error variant, parser-constructed variant without a test assertion, or unreachable from any decode entry point (workspace pass)"),
];

/// The one-line description of a rule, for `lint --explain`.
pub fn describe_rule(rule: &str) -> Option<&'static str> {
    RULE_DESCRIPTIONS
        .iter()
        .find(|(id, _)| *id == rule)
        .map(|(_, d)| *d)
}

/// Renders the report as a minimal SARIF 2.1.0 document.
pub fn to_sarif(report: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    s.push_str("  \"version\": \"2.1.0\",\n");
    s.push_str("  \"runs\": [{\n");
    s.push_str("    \"tool\": {\"driver\": {\"name\": \"cliz-xtask\", \"rules\": [");
    for (i, (id, desc)) in RULE_DESCRIPTIONS.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n      {{\"id\": \"{id}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            esc(desc)
        );
    }
    s.push_str("\n    ]}},\n");
    s.push_str("    \"results\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n      {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \"{}\"}}, \
             \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}}}}}}}]}}",
            esc(v.rule),
            esc(&v.message),
            esc(&v.file),
            v.line
        );
    }
    if !report.violations.is_empty() {
        s.push_str("\n    ");
    }
    s.push_str("]\n  }]\n}\n");
    s
}

/// The committed baseline: per-(rule, file) finding counts that are known
/// and tolerated while they are burned down.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Keyed `(rule, file)` → allowed count, sorted by key.
    pub entries: BTreeMap<(String, String), usize>,
}

/// Builds a baseline that exactly covers the report's current findings.
pub fn baseline_from_report(report: &Report) -> Baseline {
    let mut entries: BTreeMap<(String, String), usize> = BTreeMap::new();
    for v in &report.violations {
        *entries
            .entry((v.rule.to_string(), v.file.clone()))
            .or_insert(0) += 1;
    }
    Baseline { entries }
}

/// Serializes a baseline as the committed `xtask-baseline.json` format.
pub fn baseline_to_json(b: &Baseline) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"version\": 1,\n  \"entries\": [");
    for (i, ((rule, file), count)) in b.entries.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"count\": {}}}",
            esc(rule),
            esc(file),
            count
        );
    }
    if !b.entries.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

/// Parses `xtask-baseline.json`. The grammar is the fixed schema written by
/// [`baseline_to_json`]; anything else is an error (a malformed ratchet
/// file must fail CI loudly, not silently allow regressions).
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let mut p = JsonParser::new(text);
    let mut baseline = Baseline::default();
    p.expect('{')?;
    loop {
        let key = p.string()?;
        p.expect(':')?;
        match key.as_str() {
            "version" => {
                let v = p.number()?;
                if v != 1 {
                    return Err(format!("unsupported baseline version {v}"));
                }
            }
            "entries" => {
                p.expect('[')?;
                if p.peek() == Some(']') {
                    p.expect(']')?;
                } else {
                    loop {
                        let (mut rule, mut file, mut count) = (None, None, None);
                        p.expect('{')?;
                        loop {
                            let k = p.string()?;
                            p.expect(':')?;
                            match k.as_str() {
                                "rule" => rule = Some(p.string()?),
                                "file" => file = Some(p.string()?),
                                "count" => count = Some(p.number()?),
                                other => return Err(format!("unknown entry key `{other}`")),
                            }
                            if !p.comma_or_close('}')? {
                                break;
                            }
                        }
                        let (rule, file, count) = match (rule, file, count) {
                            (Some(r), Some(f), Some(c)) => (r, f, c),
                            _ => return Err("entry missing rule/file/count".to_string()),
                        };
                        baseline.entries.insert((rule, file), count as usize);
                        if !p.comma_or_close(']')? {
                            break;
                        }
                    }
                }
            }
            other => return Err(format!("unknown baseline key `{other}`")),
        }
        if !p.comma_or_close('}')? {
            break;
        }
    }
    Ok(baseline)
}

/// Outcome of comparing a report to the committed baseline.
#[derive(Debug, Default)]
pub struct RatchetOutcome {
    /// `(rule, file, current, allowed)` for every group over its budget.
    pub regressions: Vec<(String, String, usize, usize)>,
    /// Baseline entries that are now over-provisioned (current < allowed):
    /// the baseline should be shrunk, but this does not fail the run.
    pub stale: Vec<(String, String, usize, usize)>,
    /// Findings covered by the baseline (tolerated, not failing).
    pub known: usize,
}

impl RatchetOutcome {
    pub fn is_regression(&self) -> bool {
        !self.regressions.is_empty()
    }
}

/// Applies the ratchet: per (rule, file), current count must not exceed the
/// baseline count; unknown (rule, file) pairs have a budget of zero.
pub fn ratchet(report: &Report, baseline: &Baseline) -> RatchetOutcome {
    let current = baseline_from_report(report);
    let mut out = RatchetOutcome::default();
    for (key, &count) in &current.entries {
        let allowed = baseline.entries.get(key).copied().unwrap_or(0);
        if count > allowed {
            out.regressions
                .push((key.0.clone(), key.1.clone(), count, allowed));
        } else {
            out.known += count;
            if count < allowed {
                out.stale
                    .push((key.0.clone(), key.1.clone(), count, allowed));
            }
        }
    }
    for (key, &allowed) in &baseline.entries {
        if !current.entries.contains_key(key) {
            out.stale.push((key.0.clone(), key.1.clone(), 0, allowed));
        }
    }
    out
}

/// Minimal JSON tokenizer for the baseline schema.
struct JsonParser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            b: text.as_bytes(),
            i: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.i < self.b.len() && (self.b[self.i] as char).is_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.b.get(self.i).map(|&c| c as char)
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        if self.b.get(self.i).map(|&b| b as char) == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{c}` at byte {}", self.i))
        }
    }

    /// After a value: `,` continues the container, `close` ends it.
    fn comma_or_close(&mut self, close: char) -> Result<bool, String> {
        self.skip_ws();
        match self.b.get(self.i).map(|&b| b as char) {
            Some(',') => {
                self.i += 1;
                Ok(true)
            }
            Some(c) if c == close => {
                self.i += 1;
                Ok(false)
            }
            _ => Err(format!("expected `,` or `{close}` at byte {}", self.i)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        while let Some(&c) = self.b.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self.b.get(self.i).copied().ok_or("truncated escape")?;
                    self.i += 1;
                    out.push(match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        other => return Err(format!("unsupported escape \\{}", other as char)),
                    });
                }
                c => out.push(c as char),
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i].is_ascii_digit() {
            self.i += 1;
        }
        if self.i == start {
            return Err(format!("expected number at byte {start}"));
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "bad number".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileViolation;

    fn report_with(violations: Vec<(&'static str, &str, usize)>) -> Report {
        Report {
            violations: violations
                .into_iter()
                .map(|(rule, file, line)| FileViolation {
                    file: file.to_string(),
                    rule,
                    line,
                    message: format!("{rule} finding"),
                })
                .collect(),
            files_scanned: 1,
            suppressed: 0,
        }
    }

    #[test]
    fn baseline_roundtrips_through_json() {
        let report = report_with(vec![
            ("R5", "crates/a/src/lib.rs", 3),
            ("R5", "crates/a/src/lib.rs", 9),
            ("R7", "crates/b/src/lib.rs", 1),
        ]);
        let base = baseline_from_report(&report);
        let text = baseline_to_json(&base);
        let back = parse_baseline(&text).expect("parse");
        assert_eq!(back, base);
        assert_eq!(
            back.entries
                .get(&("R5".to_string(), "crates/a/src/lib.rs".to_string())),
            Some(&2)
        );
    }

    #[test]
    fn empty_baseline_roundtrips() {
        let base = Baseline::default();
        let back = parse_baseline(&baseline_to_json(&base)).expect("parse");
        assert_eq!(back, base);
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        assert!(parse_baseline("{\"version\": 2, \"entries\": []}").is_err());
        assert!(parse_baseline("{\"entries\": [{\"rule\": \"R5\"}]}").is_err());
        assert!(parse_baseline("not json").is_err());
    }

    #[test]
    fn ratchet_flags_growth_and_tolerates_known() {
        let baseline =
            parse_baseline("{\"version\": 1, \"entries\": [{\"rule\": \"R5\", \"file\": \"crates/a/src/lib.rs\", \"count\": 1}]}")
                .expect("parse");
        // Same count: tolerated.
        let same = ratchet(
            &report_with(vec![("R5", "crates/a/src/lib.rs", 3)]),
            &baseline,
        );
        assert!(!same.is_regression());
        assert_eq!(same.known, 1);
        // Growth in a known file: regression.
        let grown = ratchet(
            &report_with(vec![
                ("R5", "crates/a/src/lib.rs", 3),
                ("R5", "crates/a/src/lib.rs", 8),
            ]),
            &baseline,
        );
        assert!(grown.is_regression());
        assert_eq!(grown.regressions[0].2, 2);
        assert_eq!(grown.regressions[0].3, 1);
        // New file not in the baseline: regression.
        let new_file = ratchet(
            &report_with(vec![("R5", "crates/z/src/lib.rs", 1)]),
            &baseline,
        );
        assert!(new_file.is_regression());
    }

    #[test]
    fn ratchet_shrink_passes_and_reports_stale() {
        let baseline =
            parse_baseline("{\"version\": 1, \"entries\": [{\"rule\": \"R5\", \"file\": \"crates/a/src/lib.rs\", \"count\": 2}]}")
                .expect("parse");
        let shrunk = ratchet(
            &report_with(vec![("R5", "crates/a/src/lib.rs", 3)]),
            &baseline,
        );
        assert!(!shrunk.is_regression());
        assert_eq!(shrunk.stale.len(), 1);
        let cleared = ratchet(&report_with(vec![]), &baseline);
        assert!(!cleared.is_regression());
        assert_eq!(cleared.stale.len(), 1);
        assert_eq!(cleared.stale[0].2, 0);
    }

    #[test]
    fn json_and_sarif_render_findings() {
        let report = report_with(vec![("R5", "crates/a/src/lib.rs", 3)]);
        let json = to_json(&report);
        assert!(json.contains("\"rule\": \"R5\""));
        assert!(json.contains("\"line\": 3"));
        let sarif = to_sarif(&report);
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"ruleId\": \"R5\""));
        assert!(sarif.contains("\"startLine\": 3"));
        assert!(sarif.contains("cliz-xtask"));
    }
}
