//! Lightweight `fn`-item parser on top of the lexer.
//!
//! This is deliberately *not* a Rust parser. It walks lexed code (comments,
//! strings and test items already blanked) and extracts just enough
//! structure for the call-graph passes: every `fn` item (free functions,
//! inherent/trait methods and default trait bodies alike), the call sites
//! inside each body, and the potentially-panicking constructs inside each
//! body. Nested `fn` items are parsed as their own entries and their byte
//! ranges are excluded from the enclosing body's scan, so every call and
//! hazard is attributed to exactly one function. Closures belong to the
//! function that contains them.

use crate::lexer::{
    ident_at, ident_ending_at, ident_starts_at, is_ident, match_brace, next_nonws, prev_nonws,
    Lines,
};

/// A call site inside a function body. Resolution is by bare callee name
/// (`reader.block()` and `block(..)` both record `block`); paths record only
/// the final segment (`cast::u32_le(..)` records `u32_le`).
#[derive(Debug, Clone)]
pub struct Call {
    pub callee: String,
    pub line: usize,
    pub is_method: bool,
}

/// A potentially-panicking construct inside a function body: the same
/// hazard set rule R1 checks per-file, collected here for the whole
/// workspace so the taint pass (R5) can test reachability.
#[derive(Debug, Clone)]
pub struct Hazard {
    pub line: usize,
    /// Short construct description, e.g. ``"`.unwrap()`"`` or
    /// ``"indexing `buf[..]`"``; rule messages are built from this.
    pub construct: String,
}

/// One parsed `fn` item.
#[derive(Debug)]
pub struct FnItem {
    pub name: String,
    /// Name of the type whose `impl` block encloses this item (`impl Foo`
    /// and `impl Trait for Foo` both record `Foo`); `None` for free
    /// functions. The concurrency passes use this for receiver-typed call
    /// resolution, which is far less prone to name collisions than the
    /// bare-name call graph.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Byte offset of the `fn` keyword in the lexed code.
    pub start: usize,
    /// Byte offset of the item's closing `}` (or its `;` for a bodyless
    /// trait-method declaration).
    pub end: usize,
    /// Byte offset of the body's `{` (== `end` when there is no body);
    /// calls and hazards are scanned from here so the signature itself is
    /// never mistaken for a call.
    pub body_open: usize,
    pub has_body: bool,
    pub calls: Vec<Call>,
    pub hazards: Vec<Hazard>,
}

/// Identifier names treated as decoder input buffers for the indexing
/// hazard, mirroring rule R1. Field accesses (`self.data[..]`) are exempt:
/// struct state is the owning type's invariant, not a raw input slice.
const INPUT_NAMES: &[&str] = &["bytes", "buf", "data", "input", "payload", "src"];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that can syntactically precede `(` without being a call.
pub(crate) const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "fn", "let", "in", "as", "ref", "mut",
    "move", "unsafe", "where", "impl", "pub", "use", "mod", "struct", "enum", "trait", "type",
    "const", "static", "break", "continue", "dyn", "crate", "super", "self", "Self", "async",
    "await", "box", "yield",
];

/// An `impl` block's byte range and the implemented type's name.
struct ImplBlock {
    open: usize,
    close: usize,
    owner: String,
}

/// Locates every `impl` *item* (not `impl Trait` in type position) and the
/// name of the type it implements: the last type-path head identifier seen
/// at angle-bracket depth 0 before the block brace, restarted by `for`
/// (`impl fmt::Display for ChunkCache` records `ChunkCache`) and frozen by
/// `where`.
fn parse_impls(b: &[u8]) -> Vec<ImplBlock> {
    let mut impls = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        if !ident_starts_at(b, i) {
            i += 1;
            continue;
        }
        let word = ident_at(b, i);
        let start = i;
        i += word.len();
        if word != "impl" {
            continue;
        }
        // An impl item can only follow the start of file, a block boundary,
        // a `;`, an attribute's `]`, or the `unsafe` keyword; anything else
        // (`-> impl Iterator`, `(impl Fn(..))`) is `impl Trait` in type
        // position.
        let item_position = match prev_nonws(b, start) {
            None => true,
            Some((j, c)) => {
                c == b'{'
                    || c == b'}'
                    || c == b';'
                    || c == b']'
                    || (is_ident(c) && ident_ending_at(b, j + 1) == "unsafe")
            }
        };
        if !item_position {
            continue;
        }
        let mut angle = 0isize;
        let mut head: Option<String> = None;
        let mut frozen = false;
        let mut j = i;
        while j < b.len() {
            let c = b[j];
            if ident_starts_at(b, j) {
                let w = ident_at(b, j);
                if angle == 0 {
                    if w == "for" {
                        head = None;
                    } else if w == "where" {
                        frozen = true;
                    } else if !frozen {
                        head = Some(w.to_string());
                    }
                }
                j += w.len();
                continue;
            }
            match c {
                b'<' => angle += 1,
                b'>' if j > 0 && b[j - 1] != b'-' => angle = (angle - 1).max(0),
                b'{' | b';' => break,
                _ => {}
            }
            j += 1;
        }
        if j < b.len() && b[j] == b'{' {
            if let Some(owner) = head {
                impls.push(ImplBlock {
                    open: j,
                    close: match_brace(b, j),
                    owner,
                });
            }
        }
    }
    impls
}

/// Parses every `fn` item out of lexed, test-blanked code.
pub fn parse_items(active: &str, lines: &Lines) -> Vec<FnItem> {
    let b = active.as_bytes();
    let impls = parse_impls(b);
    let mut items = Vec::new();

    // Pass 1: locate every `fn` declaration and its body span.
    let mut i = 0usize;
    while i < b.len() {
        if !ident_starts_at(b, i) {
            i += 1;
            continue;
        }
        let word = ident_at(b, i);
        let start = i;
        i += word.len();
        if word != "fn" {
            continue;
        }
        // `fn` must be followed by a name (skips `fn(..)` pointer types).
        let Some((j, c)) = next_nonws(b, i) else {
            continue;
        };
        if !is_ident(c) || c.is_ascii_digit() {
            continue;
        }
        let name = ident_at(b, j).to_string();
        // Scan to the body brace or the `;` terminator, at paren depth 0
        // (parameter lists and generics cannot contain braces).
        let mut k = j + name.len();
        let mut paren = 0isize;
        let mut body_open = None;
        while k < b.len() {
            match b[k] {
                b'(' | b'[' => paren += 1,
                b')' | b']' => paren -= 1,
                b'{' if paren == 0 => {
                    body_open = Some(k);
                    break;
                }
                b';' if paren == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let (end, body_open, has_body) = match body_open {
            Some(open) => (match_brace(b, open), open, true),
            None => {
                let e = k.min(b.len().saturating_sub(1));
                (e, e, false)
            }
        };
        let owner = impls
            .iter()
            .filter(|im| im.open < start && end <= im.close)
            .min_by_key(|im| im.close - im.open)
            .map(|im| im.owner.clone());
        items.push(FnItem {
            name,
            owner,
            line: lines.line_of(start),
            start,
            end,
            body_open,
            has_body,
            calls: Vec::new(),
            hazards: Vec::new(),
        });
        // Continue scanning *inside* the item: nested fns become their own
        // entries; pass 2 carves their ranges out of this body.
    }

    // Pass 2: collect calls and hazards per body, excluding nested items.
    for idx in 0..items.len() {
        if !items[idx].has_body {
            continue;
        }
        let (lo, hi) = (items[idx].body_open + 1, items[idx].end);
        // Ranges of items nested strictly inside this one.
        let nested: Vec<(usize, usize)> = items
            .iter()
            .filter(|it| it.start > lo && it.end <= hi)
            .map(|it| (it.start, it.end))
            .collect();
        let (calls, hazards) = scan_body(b, lines, lo, hi, &nested);
        items[idx].calls = calls;
        items[idx].hazards = hazards;
    }
    items
}

fn scan_body(
    b: &[u8],
    lines: &Lines,
    lo: usize,
    hi: usize,
    nested: &[(usize, usize)],
) -> (Vec<Call>, Vec<Hazard>) {
    let mut calls = Vec::new();
    let mut hazards = Vec::new();
    let mut i = lo;
    'outer: while i <= hi && i < b.len() {
        for &(ns, ne) in nested {
            if i >= ns && i <= ne {
                i = ne + 1;
                continue 'outer;
            }
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

        // Panicking macros, then other macros (not calls).
        if next.is_some_and(|(_, c)| c == b'!') {
            if PANIC_MACROS.contains(&word) {
                hazards.push(Hazard {
                    line,
                    construct: format!("`{word}!`"),
                });
            }
            continue;
        }
        // `.unwrap()` / `.expect(..)` hazards.
        if (word == "unwrap" || word == "expect")
            && prev.is_some_and(|(_, c)| c == b'.')
            && next.is_some_and(|(_, c)| c == b'(')
        {
            hazards.push(Hazard {
                line,
                construct: format!("`.{word}(..)`"),
            });
            continue;
        }
        // Direct indexing of a decoder input buffer (field accesses exempt).
        if INPUT_NAMES.contains(&word)
            && next.is_some_and(|(_, c)| c == b'[')
            && prev.is_none_or(|(_, c)| c != b'.')
        {
            hazards.push(Hazard {
                line,
                construct: format!("indexing `{word}[..]`"),
            });
            continue;
        }
        // Call site: identifier directly applied to an argument list.
        if next.is_some_and(|(_, c)| c == b'(') && !NON_CALL_KEYWORDS.contains(&word) {
            calls.push(Call {
                callee: word.to_string(),
                line,
                is_method: prev.is_some_and(|(_, c)| c == b'.'),
            });
        }
    }
    (calls, hazards)
}

/// A named struct field: `struct S { name: Ty }`. Tuple and unit structs
/// are skipped — the concurrency passes only care about named lock,
/// atomic, and counter fields.
#[derive(Debug)]
pub struct FieldDecl {
    pub struct_name: String,
    pub name: String,
    /// The declared type, verbatim (whitespace-trimmed).
    pub ty: String,
    pub line: usize,
}

/// Parses every named-struct field out of lexed, test-blanked code.
pub fn parse_fields(active: &str, lines: &Lines) -> Vec<FieldDecl> {
    let b = active.as_bytes();
    let mut fields = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        if !ident_starts_at(b, i) {
            i += 1;
            continue;
        }
        let word = ident_at(b, i);
        i += word.len();
        if word != "struct" {
            continue;
        }
        let Some((j, c)) = next_nonws(b, i) else {
            continue;
        };
        if !is_ident(c) || c.is_ascii_digit() {
            continue;
        }
        let struct_name = ident_at(b, j).to_string();
        // Find the field block `{`, skipping generics; `(` (tuple struct)
        // or `;` (unit struct) ends the search.
        let mut k = j + struct_name.len();
        let mut angle = 0isize;
        let mut open = None;
        while k < b.len() {
            match b[k] {
                b'<' => angle += 1,
                b'>' if b[k - 1] != b'-' => angle = (angle - 1).max(0),
                b'{' if angle == 0 => {
                    open = Some(k);
                    break;
                }
                b'(' | b';' if angle == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let Some(open) = open else { continue };
        let close = match_brace(b, open);
        // Split the body on commas at nesting depth 0; each segment is one
        // field declaration (possibly with attributes/visibility).
        let mut seg_start = open + 1;
        let mut depth = 0isize;
        let mut angle = 0isize;
        let mut m = open + 1;
        while m <= close && m < b.len() {
            let c = b[m];
            let boundary = m == close || (c == b',' && depth == 0 && angle == 0);
            if boundary {
                push_field(&mut fields, &struct_name, active, seg_start, m, lines);
                seg_start = m + 1;
            } else {
                match c {
                    b'(' | b'[' | b'{' => depth += 1,
                    b')' | b']' | b'}' => depth -= 1,
                    b'<' => angle += 1,
                    b'>' if b[m - 1] != b'-' => angle = (angle - 1).max(0),
                    _ => {}
                }
            }
            m += 1;
        }
    }
    fields
}

fn push_field(
    fields: &mut Vec<FieldDecl>,
    struct_name: &str,
    active: &str,
    seg_start: usize,
    seg_end: usize,
    lines: &Lines,
) {
    let b = active.as_bytes();
    // First `:` outside brackets that is not part of `::` separates the
    // field name from its type (skips `pub(in a::b)` path visibility).
    let mut depth = 0isize;
    let mut m = seg_start;
    while m < seg_end {
        match b[m] {
            b'(' | b'[' | b'<' => depth += 1,
            b')' | b']' => depth -= 1,
            b'>' if b[m - 1] != b'-' => depth = (depth - 1).max(0),
            b':' if depth == 0 => {
                if m + 1 < b.len() && b[m + 1] == b':' {
                    m += 2;
                    continue;
                }
                let Some((p, c)) = prev_nonws(b, m) else {
                    return;
                };
                if !is_ident(c) {
                    return;
                }
                let name = ident_ending_at(b, p + 1).to_string();
                let ty = active[m + 1..seg_end].trim().to_string();
                if name.is_empty() || ty.is_empty() {
                    return;
                }
                fields.push(FieldDecl {
                    struct_name: struct_name.to_string(),
                    name,
                    ty,
                    line: lines.line_of(m),
                });
                return;
            }
            _ => {}
        }
        m += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parse(src: &str) -> Vec<FnItem> {
        let lexed = lexer::strip(src);
        let active = lexer::blank_test_items(&lexed.code);
        let lines = Lines::new(&active);
        parse_items(&active, &lines)
    }

    #[test]
    fn finds_functions_and_calls() {
        let src = "fn outer(x: usize) -> usize {\n    helper(x) + obj.method(1)\n}\n\
                   fn helper(x: usize) -> usize { x }\n";
        let items = parse(src);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].name, "outer");
        let callees: Vec<&str> = items[0].calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(callees, vec!["helper", "method"]);
        assert!(items[0].calls[1].is_method);
        assert!(items[1].calls.is_empty());
    }

    #[test]
    fn hazards_collected_with_lines() {
        let src = "fn f(buf: &[u8]) -> u8 {\n    let a = buf[0];\n    let b = x.unwrap();\n    panic!(\"no\")\n}\n";
        let items = parse(src);
        let h: Vec<(usize, &str)> = items[0]
            .hazards
            .iter()
            .map(|h| (h.line, h.construct.as_str()))
            .collect();
        assert_eq!(
            h,
            vec![
                (2, "indexing `buf[..]`"),
                (3, "`.unwrap(..)`"),
                (4, "`panic!`")
            ]
        );
    }

    #[test]
    fn field_access_indexing_is_exempt() {
        let src = "fn f(&self) -> f32 { self.data[3] }\n";
        let items = parse(src);
        assert!(items[0].hazards.is_empty());
    }

    #[test]
    fn nested_fn_owns_its_constructs() {
        let src = "fn outer() {\n    fn inner(buf: &[u8]) -> u8 { buf[0] }\n    other();\n}\n";
        let items = parse(src);
        assert_eq!(items.len(), 2);
        let outer = items.iter().find(|i| i.name == "outer").unwrap();
        let inner = items.iter().find(|i| i.name == "inner").unwrap();
        assert!(outer.hazards.is_empty());
        assert_eq!(inner.hazards.len(), 1);
        assert_eq!(
            outer
                .calls
                .iter()
                .map(|c| c.callee.as_str())
                .collect::<Vec<_>>(),
            vec!["other"]
        );
    }

    #[test]
    fn trait_declarations_have_no_body() {
        let src = "trait T {\n    fn required(&self) -> usize;\n    fn provided(&self) -> usize { self.required() }\n}\n";
        let items = parse(src);
        assert_eq!(items.len(), 2);
        assert!(!items[0].has_body);
        assert!(items[1].has_body);
        assert_eq!(items[1].calls[0].callee, "required");
    }

    #[test]
    fn test_code_is_invisible() {
        let src =
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t(buf: &[u8]) -> u8 { buf[0] }\n}\n";
        let items = parse(src);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "prod");
    }

    #[test]
    fn impl_owner_attribution() {
        let src = "struct Cache;\nimpl Cache {\n    fn get(&self) {}\n}\n\
                   impl std::fmt::Display for Cache {\n    fn fmt(&self) {}\n}\n\
                   fn free() -> impl Iterator<Item = u8> { [0u8].into_iter() }\n";
        let items = parse(src);
        assert_eq!(items[0].name, "get");
        assert_eq!(items[0].owner.as_deref(), Some("Cache"));
        assert_eq!(items[1].name, "fmt");
        assert_eq!(items[1].owner.as_deref(), Some("Cache"));
        assert_eq!(items[2].name, "free");
        assert_eq!(items[2].owner, None);
    }

    #[test]
    fn generic_impl_and_where_clause_owner() {
        let src = "impl<T: Clone> Wrapper<T> where T: Send {\n    fn peek(&self) {}\n}\n";
        let items = parse(src);
        assert_eq!(items[0].owner.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn struct_fields_parse_names_types_lines() {
        let src = "pub struct Cache {\n    inner: Mutex<Inner>,\n    pub hits: AtomicU64,\n    map: HashMap<usize, Entry>,\n}\nstruct Unit;\nstruct Tup(u8, u8);\n";
        let lexed = lexer::strip(src);
        let lines = Lines::new(&lexed.code);
        let fields = parse_fields(&lexed.code, &lines);
        let got: Vec<(&str, &str, &str, usize)> = fields
            .iter()
            .map(|f| {
                (
                    f.struct_name.as_str(),
                    f.name.as_str(),
                    f.ty.as_str(),
                    f.line,
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                ("Cache", "inner", "Mutex<Inner>", 2),
                ("Cache", "hits", "AtomicU64", 3),
                ("Cache", "map", "HashMap<usize, Entry>", 4),
            ]
        );
    }
}
