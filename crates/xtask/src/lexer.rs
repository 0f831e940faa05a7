//! Minimal Rust source lexer for the lint pass.
//!
//! Deliberately hand-rolled (no `syn`, no proc-macro machinery) so the
//! scanner builds with a bare toolchain even when the crates.io registry is
//! unreachable. It does not parse Rust; it only separates *code* from
//! comments and string/char literals, preserving the byte-for-byte line
//! structure so rule hits map to real line numbers, and it blanks
//! `#[cfg(test)]` / `#[test]` items so test code is exempt from the rules.

/// A comment found in the source, used for `xtask-allow` suppressions.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line of the comment's first character.
    pub line: usize,
    /// True when nothing but whitespace precedes the comment on its line
    /// (a full-line comment suppresses the *next* line, an inline comment
    /// suppresses its own line).
    pub own_line: bool,
    pub text: String,
}

/// Lexing result: `code` has every comment and literal replaced by spaces
/// (newlines kept), so byte offsets and line numbers match the original.
#[derive(Debug)]
pub struct Lexed {
    pub code: String,
    pub comments: Vec<Comment>,
}

pub(crate) fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// First non-whitespace byte at or after `i`.
pub(crate) fn next_nonws(b: &[u8], mut i: usize) -> Option<(usize, u8)> {
    while i < b.len() {
        if !(b[i] as char).is_whitespace() {
            return Some((i, b[i]));
        }
        i += 1;
    }
    None
}

/// Last non-whitespace byte strictly before `i`.
pub(crate) fn prev_nonws(b: &[u8], i: usize) -> Option<(usize, u8)> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if !(b[j] as char).is_whitespace() {
            return Some((j, b[j]));
        }
    }
    None
}

/// Reads the identifier token starting at `i` (which must be its first byte).
pub(crate) fn ident_at(b: &[u8], i: usize) -> &str {
    let mut j = i;
    while j < b.len() && is_ident(b[j]) {
        j += 1;
    }
    std::str::from_utf8(&b[i..j]).unwrap_or("")
}

/// Reads the identifier token *ending* right before `i` (exclusive).
pub(crate) fn ident_ending_at(b: &[u8], i: usize) -> &str {
    let mut j = i;
    while j > 0 && is_ident(b[j - 1]) {
        j -= 1;
    }
    std::str::from_utf8(&b[j..i]).unwrap_or("")
}

/// True when the byte at `i` starts an identifier token.
pub(crate) fn ident_starts_at(b: &[u8], i: usize) -> bool {
    is_ident(b[i]) && (i == 0 || !is_ident(b[i - 1]))
}

/// Offset of the matching `}` for the `{` at `open` (or end of input).
pub(crate) fn match_brace(b: &[u8], open: usize) -> usize {
    let mut depth = 0isize;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
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

/// Strips comments and string/char literals out of `source`.
pub fn strip(source: &str) -> Lexed {
    let b = source.as_bytes();
    let mut code: Vec<u8> = Vec::with_capacity(b.len());
    let mut comments = Vec::new();
    let mut line = 1usize;
    let mut line_has_code = false;
    let mut i = 0usize;

    // Pushes a blank in place of a source byte (newlines survive so the
    // line structure is unchanged).
    macro_rules! blank {
        ($c:expr) => {
            if $c == b'\n' {
                code.push(b'\n');
                line += 1;
                line_has_code = false;
            } else {
                code.push(b' ');
            }
        };
    }

    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let start_line = line;
            let own_line = !line_has_code;
            let mut text = String::new();
            while i < b.len() && b[i] != b'\n' {
                text.push(b[i] as char);
                code.push(b' ');
                i += 1;
            }
            comments.push(Comment {
                line: start_line,
                own_line,
                text,
            });
            continue;
        }
        // Block comment (Rust block comments nest).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let start_line = line;
            let own_line = !line_has_code;
            let mut text = String::new();
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    text.push_str("/*");
                    blank!(b[i]);
                    blank!(b[i + 1]);
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    text.push_str("*/");
                    blank!(b[i]);
                    blank!(b[i + 1]);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(b[i] as char);
                    blank!(b[i]);
                    i += 1;
                }
            }
            comments.push(Comment {
                line: start_line,
                own_line,
                text,
            });
            continue;
        }
        // Raw / byte strings: r"..", r#".."#, br".., b"..".
        let (is_raw, raw_skip) = match c {
            b'r' if !prev_ident(&code) => (true, 1usize),
            b'b' if !prev_ident(&code) && i + 1 < b.len() && (b[i + 1] == b'r') => (true, 2),
            _ => (false, 0),
        };
        if is_raw {
            let mut j = i + raw_skip;
            let mut hashes = 0usize;
            while j < b.len() && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if j < b.len() && b[j] == b'"' {
                // Consume the raw string wholesale.
                for &c in &b[i..=j] {
                    blank!(c);
                }
                i = j + 1;
                'raw: while i < b.len() {
                    if b[i] == b'"' {
                        let mut h = 0usize;
                        while h < hashes && i + 1 + h < b.len() && b[i + 1 + h] == b'#' {
                            h += 1;
                        }
                        if h == hashes {
                            for &c in &b[i..=i + hashes] {
                                blank!(c);
                            }
                            i += hashes + 1;
                            break 'raw;
                        }
                    }
                    blank!(b[i]);
                    i += 1;
                }
                continue;
            }
            // Not actually a raw string ("r" identifier etc.) — fall through.
        }
        // Ordinary (or byte) string.
        if c == b'"' || (c == b'b' && !prev_ident(&code) && i + 1 < b.len() && b[i + 1] == b'"') {
            if c == b'b' {
                blank!(b[i]);
                i += 1;
            }
            blank!(b[i]);
            i += 1;
            while i < b.len() {
                if b[i] == b'\\' && i + 1 < b.len() {
                    blank!(b[i]);
                    blank!(b[i + 1]);
                    i += 2;
                    continue;
                }
                let done = b[i] == b'"';
                blank!(b[i]);
                i += 1;
                if done {
                    break;
                }
            }
            continue;
        }
        // Char literal vs lifetime: a quote introduces a char literal when
        // it closes within a couple of characters (or starts an escape).
        if c == b'\'' {
            let is_char = if i + 1 < b.len() && b[i + 1] == b'\\' {
                true
            } else {
                // 'x' → char; 'x  (no closing quote right after) → lifetime.
                i + 2 < b.len() && b[i + 2] == b'\'' && b[i + 1] != b'\''
            };
            if is_char {
                blank!(b[i]);
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        blank!(b[i]);
                        blank!(b[i + 1]);
                        i += 2;
                        continue;
                    }
                    let done = b[i] == b'\'';
                    blank!(b[i]);
                    i += 1;
                    if done {
                        break;
                    }
                }
                continue;
            }
        }
        // Plain code byte.
        if c == b'\n' {
            code.push(b'\n');
            line += 1;
            line_has_code = false;
        } else {
            if !c.is_ascii_whitespace() {
                line_has_code = true;
            }
            code.push(c);
        }
        i += 1;
    }

    Lexed {
        code: String::from_utf8_lossy(&code).into_owned(),
        comments,
    }
}

/// True when the last emitted code byte is an identifier character (used to
/// tell `r"raw"` from an identifier ending in `r`, e.g. `var"`).
fn prev_ident(code: &[u8]) -> bool {
    code.last().copied().is_some_and(is_ident)
}

/// Line-number lookup table: `starts[k]` is the byte offset of line `k+1`.
/// Shared by every pass that maps byte offsets back to 1-based lines.
pub struct Lines {
    starts: Vec<usize>,
}

impl Lines {
    pub fn new(text: &str) -> Self {
        let mut starts = vec![0usize];
        for (i, c) in text.bytes().enumerate() {
            if c == b'\n' {
                starts.push(i + 1);
            }
        }
        Self { starts }
    }

    pub fn line_of(&self, offset: usize) -> usize {
        match self.starts.binary_search(&offset) {
            Ok(k) => k + 1,
            Err(k) => k,
        }
    }

    pub fn offset_of_line(&self, line: usize) -> usize {
        self.starts
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(usize::MAX)
    }
}

/// Blanks `#[cfg(test)]` and `#[test]` items (attribute through the end of
/// the following brace block or `;`) in already-stripped code, so rules only
/// see non-test code. Returns the filtered copy.
pub fn blank_test_items(code: &str) -> String {
    let b = code.as_bytes().to_vec();
    let mut out = b.clone();
    let mut i = 0usize;
    while i < b.len() {
        if b[i] != b'#' {
            i += 1;
            continue;
        }
        // Parse `#[ ... ]` and normalize its content.
        let mut j = i + 1;
        while j < b.len() && (b[j] as char).is_whitespace() {
            j += 1;
        }
        if j >= b.len() || b[j] != b'[' {
            i += 1;
            continue;
        }
        let mut depth = 0usize;
        let mut attr = String::new();
        while j < b.len() {
            match b[j] {
                b'[' => {
                    depth += 1;
                    attr.push('[');
                }
                b']' => {
                    depth -= 1;
                    attr.push(']');
                    if depth == 0 {
                        break;
                    }
                }
                c if !(c as char).is_whitespace() => attr.push(c as char),
                _ => {}
            }
            j += 1;
        }
        if j >= b.len() {
            break;
        }
        let attr_end = j; // index of ']'
        let is_test_attr =
            attr == "[cfg(test)]" || attr == "[test]" || attr.starts_with("[cfg(all(test"); // cfg(all(test, ...)), whitespace removed
        if !is_test_attr {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes, then blank through the item's body.
        let mut k = attr_end + 1;
        loop {
            while k < b.len() && (b[k] as char).is_whitespace() {
                k += 1;
            }
            if k < b.len() && b[k] == b'#' {
                // Another attribute: jump past its closing ']'.
                let mut d = 0usize;
                while k < b.len() {
                    match b[k] {
                        b'[' => d += 1,
                        b']' => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                k += 1;
                continue;
            }
            break;
        }
        // Find the body: first `{` at paren/bracket depth 0, or a `;`.
        let mut paren = 0isize;
        let mut end = k;
        while end < b.len() {
            match b[end] {
                b'(' | b'[' => paren += 1,
                b')' | b']' => paren -= 1,
                b'{' if paren == 0 => {
                    // Brace-match to the item's closing `}`.
                    let mut braces = 0isize;
                    while end < b.len() {
                        match b[end] {
                            b'{' => braces += 1,
                            b'}' => {
                                braces -= 1;
                                if braces == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        end += 1;
                    }
                    break;
                }
                b';' if paren == 0 => break,
                _ => {}
            }
            end += 1;
        }
        let end = end.min(b.len().saturating_sub(1));
        for (idx, slot) in out.iter_mut().enumerate().take(end + 1).skip(i) {
            if b[idx] != b'\n' {
                *slot = b' ';
            }
        }
        i = end + 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Code with literals blanked must keep its length and line structure.
    fn assert_shape_preserved(src: &str, stripped: &str) {
        assert_eq!(src.len(), stripped.len(), "byte length must be preserved");
        assert_eq!(
            src.matches('\n').count(),
            stripped.matches('\n').count(),
            "line structure must be preserved"
        );
    }

    #[test]
    fn raw_strings_are_blanked_including_quotes_and_braces() {
        let src = "let s = r#\"quote \" slash // brace { } \"#; let x = 1;\n";
        let lexed = strip(src);
        assert_shape_preserved(src, &lexed.code);
        // Nothing inside the raw string survives as code...
        assert!(!lexed.code.contains("slash"));
        assert!(!lexed.code.contains('{'));
        // ...and its `//` is not mistaken for a comment.
        assert!(lexed.comments.is_empty(), "{:?}", lexed.comments);
        assert!(lexed.code.contains("let x = 1;"));
    }

    #[test]
    fn multi_hash_raw_string_terminates_on_matching_hashes() {
        let src = "let s = r##\"ends \"# not yet\"##; let y = 2;\n";
        let lexed = strip(src);
        assert_shape_preserved(src, &lexed.code);
        assert!(!lexed.code.contains("not yet"));
        assert!(lexed.code.contains("let y = 2;"));
    }

    #[test]
    fn identifier_ending_in_r_is_not_a_raw_string() {
        let src = "let var = fair\"text\"; let z = 3;\n";
        let lexed = strip(src);
        // `fair` survives; only the quoted part is blanked.
        assert!(lexed.code.contains("fair"));
        assert!(!lexed.code.contains("text"));
        assert!(lexed.code.contains("let z = 3;"));
    }

    #[test]
    fn byte_and_raw_byte_strings_are_blanked() {
        let src = "let a = b\"bytes\"; let b2 = br#\"raw { bytes\"#; end();\n";
        let lexed = strip(src);
        assert_shape_preserved(src, &lexed.code);
        assert!(!lexed.code.contains("bytes"));
        assert!(!lexed.code.contains('{'));
        assert!(lexed.code.contains("end();"));
    }

    #[test]
    fn nested_block_comments_close_at_matching_depth() {
        let src = "/* outer /* inner */ still comment */ let alive = 1;\n";
        let lexed = strip(src);
        assert_shape_preserved(src, &lexed.code);
        assert!(!lexed.code.contains("still"));
        assert!(lexed.code.contains("let alive = 1;"));
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("inner"));
    }

    #[test]
    fn block_comment_hides_line_comment_markers() {
        // A `//` inside a block comment must not swallow the `*/`.
        let src = "/* has // inside */ let ok = 1; // trailing\n";
        let lexed = strip(src);
        assert!(lexed.code.contains("let ok = 1;"));
        assert_eq!(lexed.comments.len(), 2);
        assert!(
            !lexed.comments[1].own_line,
            "trailing comment shares its line"
        );
    }

    #[test]
    fn char_literals_with_quote_and_brace_contents_are_blanked() {
        // '"', '{', '}', and escaped '\'' must all blank cleanly — a brace
        // inside a char literal must not unbalance match_brace.
        let src = "let q = '\"'; let o = '{'; let c = '}'; let e = '\\''; f();\n";
        let lexed = strip(src);
        assert_shape_preserved(src, &lexed.code);
        assert!(!lexed.code.contains('"'));
        assert!(!lexed.code.contains('{'));
        assert!(!lexed.code.contains('}'));
        assert!(lexed.code.contains("f();"));
    }

    #[test]
    fn lifetimes_survive_as_code() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\n";
        let lexed = strip(src);
        // Lifetime quotes are code, not char literals: the signature and
        // body braces must survive intact.
        assert!(lexed.code.contains("<'a>"));
        assert!(lexed.code.contains("{ x }"));
    }

    #[test]
    fn escaped_backslash_char_does_not_derail_the_scan() {
        let src = "let s = '\\\\'; let after = '\\n'; done();\n";
        let lexed = strip(src);
        assert_shape_preserved(src, &lexed.code);
        assert!(lexed.code.contains("done();"));
    }

    #[test]
    fn test_items_with_raw_strings_blank_to_the_matching_brace() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let s = r#\"}\"#; }\n}\nfn also_live() {}\n";
        let stripped = strip(src);
        let blanked = blank_test_items(&stripped.code);
        assert!(blanked.contains("fn live()"));
        assert!(blanked.contains("fn also_live()"));
        // The raw-string `}` was blanked by strip() first, so the test
        // module blanks exactly to its real closing brace.
        assert!(!blanked.contains("fn t()"));
    }
}
