//! A lexical source model good enough to lint this workspace.
//!
//! The analyzer deliberately avoids a real Rust parser (it must build
//! offline with zero dependencies), so each file is reduced to two
//! views by a small hand-rolled lexer:
//!
//! - [`SourceFile::code`] — the raw text with comments *and string/char
//!   literal contents* blanked to spaces (newlines kept, so offsets and
//!   line numbers survive). Token searches over this view cannot be
//!   fooled by a `"HashMap"` inside a message string or a code sample in
//!   a doc comment.
//! - [`SourceFile::code_nontest`] — `code` with every `#[cfg(test)]`-
//!   gated item additionally blanked: the lints govern shipping code,
//!   not test scaffolding (tests legitimately read env vars and build
//!   throwaway maps).
//!
//! The lexer understands line/nested-block comments, regular and raw
//! (byte) strings, char literals vs lifetimes, and escapes. That is the
//! entire Rust surface the blanking needs; anything it misparses shows
//! up immediately as a false positive on the clean tree, which the
//! self-gating test pins to zero.

/// The lexed views of one `.rs` file. See the module docs.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Raw file text.
    pub raw: String,
    /// Comments and literal contents blanked.
    pub code: String,
    /// `code` with `#[cfg(test)]` items additionally blanked.
    pub code_nontest: String,
    /// 1-indexed lines whose raw text carries a `det-lint: allow` marker.
    pub det_allow_lines: Vec<usize>,
}

impl SourceFile {
    /// Lexes `raw` into the blanked views.
    pub fn parse(rel_path: &str, raw: String) -> SourceFile {
        let code = blank_comments_and_literals(&raw);
        let code_nontest = blank_cfg_test(&code);
        let det_allow_lines = raw
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains("det-lint: allow"))
            .map(|(i, _)| i + 1)
            .collect();
        SourceFile {
            rel_path: rel_path.to_string(),
            raw,
            code,
            code_nontest,
            det_allow_lines,
        }
    }

    /// 1-indexed line of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        self.raw.as_bytes()[..offset]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            + 1
    }
}

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Blanks comments and the contents of string/char literals, preserving
/// newlines and the literal delimiters themselves.
fn blank_comments_and_literals(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0usize;

    // Blank `b`: newlines survive, everything else becomes a space.
    macro_rules! blank {
        ($b:expr) => {
            out.push(if $b == b'\n' { b'\n' } else { b' ' })
        };
    }

    while i < bytes.len() {
        let b = bytes[i];
        // Line comment (also doc comments).
        if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                blank!(bytes[i]);
                i += 1;
            }
            continue;
        }
        // Block comment, nesting tracked.
        if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let mut depth = 0usize;
            while i < bytes.len() {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    blank!(bytes[i]);
                    blank!(bytes[i + 1]);
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    blank!(bytes[i]);
                    blank!(bytes[i + 1]);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    blank!(bytes[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw (byte) string: r"..." / r#"..."# / br##"..."##.
        if b == b'r' || (b == b'b' && bytes.get(i + 1) == Some(&b'r')) {
            let r_at = if b == b'r' { i } else { i + 1 };
            // `r` must start a literal, not end an identifier like `var`.
            let ident_prefix = i > 0 && is_word(bytes[i - 1]);
            let mut j = r_at + 1;
            let mut hashes = 0usize;
            while bytes.get(j) == Some(&b'#') {
                hashes += 1;
                j += 1;
            }
            if !ident_prefix && bytes.get(j) == Some(&b'"') {
                // Keep the prefix and opening quote.
                while i <= j {
                    out.push(bytes[i]);
                    i += 1;
                }
                let closer: Vec<u8> = std::iter::once(b'"')
                    .chain((0..hashes).map(|_| b'#'))
                    .collect();
                while i < bytes.len() && !bytes[i..].starts_with(&closer) {
                    blank!(bytes[i]);
                    i += 1;
                }
                for _ in 0..closer.len().min(bytes.len() - i) {
                    out.push(bytes[i]);
                    i += 1;
                }
                continue;
            }
        }
        // Regular (byte) string.
        if b == b'"'
            || (b == b'b' && bytes.get(i + 1) == Some(&b'"') && !(i > 0 && is_word(bytes[i - 1])))
        {
            if b == b'b' {
                out.push(b);
                i += 1;
            }
            out.push(bytes[i]); // opening quote
            i += 1;
            while i < bytes.len() && bytes[i] != b'"' {
                if bytes[i] == b'\\' && i + 1 < bytes.len() {
                    blank!(bytes[i]);
                    blank!(bytes[i + 1]);
                    i += 2;
                } else {
                    blank!(bytes[i]);
                    i += 1;
                }
            }
            if i < bytes.len() {
                out.push(bytes[i]); // closing quote
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime: 'x' or '\n' is a char, 'a in `&'a T`
        // is a lifetime. A char literal closes within a few bytes.
        if b == b'\'' {
            let is_char = match bytes.get(i + 1) {
                Some(b'\\') => true,
                Some(&c) if c != b'\'' => bytes.get(i + 2) == Some(&b'\''),
                _ => false,
            };
            if is_char {
                out.push(bytes[i]);
                i += 1;
                while i < bytes.len() && bytes[i] != b'\'' {
                    if bytes[i] == b'\\' && i + 1 < bytes.len() {
                        blank!(bytes[i]);
                        blank!(bytes[i + 1]);
                        i += 2;
                    } else {
                        blank!(bytes[i]);
                        i += 1;
                    }
                }
                if i < bytes.len() {
                    out.push(bytes[i]);
                    i += 1;
                }
                continue;
            }
        }
        out.push(b);
        i += 1;
    }
    String::from_utf8(out).expect("blanking preserves UTF-8 structure")
}

/// Blanks every item gated by `#[cfg(test)]`: from the attribute to the
/// end of the following item (its matching close brace, or `;` for
/// brace-less items). Runs on the comment/literal-blanked view, so brace
/// matching cannot be confused by braces in comments or strings.
fn blank_cfg_test(code: &str) -> String {
    let mut out = code.as_bytes().to_vec();
    let mut search_from = 0usize;
    while let Some(found) = find_cfg_test(code, search_from) {
        let (attr_start, mut j) = found;
        // Skip any further attributes between the cfg and the item.
        let bytes = code.as_bytes();
        loop {
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if bytes.get(j) == Some(&b'#') {
                // Skip this attribute: `#[ ... ]` with bracket matching.
                while j < bytes.len() && bytes[j] != b'[' {
                    j += 1;
                }
                let mut depth = 0usize;
                while j < bytes.len() {
                    match bytes[j] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            } else {
                break;
            }
        }
        // Find the item's end: matching `}` of its first brace, unless a
        // `;` arrives first at depth 0 (use items, macro calls).
        let mut depth = 0usize;
        let mut end = j;
        while end < bytes.len() {
            match bytes[end] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end += 1;
                        break;
                    }
                }
                b';' if depth == 0 => {
                    end += 1;
                    break;
                }
                _ => {}
            }
            end += 1;
        }
        for slot in out.iter_mut().take(end).skip(attr_start) {
            if *slot != b'\n' {
                *slot = b' ';
            }
        }
        search_from = end;
    }
    String::from_utf8(out).expect("blanking preserves UTF-8 structure")
}

/// Finds the next `#[cfg(test)]` at or after `from` in the blanked view.
/// Returns `(start_offset, end_of_attribute_offset)`.
fn find_cfg_test(code: &str, from: usize) -> Option<(usize, usize)> {
    let bytes = code.as_bytes();
    let mut i = from;
    while let Some(pos) = code[i..].find("#[") {
        let start = i + pos;
        let mut j = start + 2;
        let mut depth = 1usize;
        let attr_body_start = j;
        while j < bytes.len() && depth > 0 {
            match bytes[j] {
                b'[' => depth += 1,
                b']' => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        let body: String = code[attr_body_start..j - 1]
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        if body == "cfg(test)" {
            return Some((start, j));
        }
        i = j;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked_but_lines_survive() {
        let src = "let a = \"HashMap\"; // HashMap\n/* HashMap */ let b = 1;\n";
        let f = SourceFile::parse("x.rs", src.to_string());
        assert!(!f.code.contains("HashMap"), "{:?}", f.code);
        assert_eq!(f.code.lines().count(), src.lines().count());
        assert!(f.code.starts_with("let a = \"       \";"), "{:?}", f.code);
    }

    #[test]
    fn raw_strings_and_chars_are_handled() {
        let src =
            "let a = r#\"no \"HashMap\" here\"#; let c = '\\n'; let l: &'static str = \"x\";\n";
        let f = SourceFile::parse("x.rs", src.to_string());
        assert!(!f.code.contains("HashMap"));
        assert!(f.code.contains("&'static str"), "{:?}", f.code);
        assert!(
            f.code.contains("r#\"") && f.code.contains("\"#;"),
            "{:?}",
            f.code
        );
        assert!(
            f.code.contains("'  '") && f.code.contains("= \" \";"),
            "{:?}",
            f.code
        );
        assert_eq!(f.code.len(), src.len());
    }

    #[test]
    fn cfg_test_items_are_blanked_in_the_nontest_view() {
        let src = "fn ship() { real(); }\n#[cfg(test)]\nmod tests {\n  fn t() { std::env::var(\"X\"); }\n}\nfn after() {}\n";
        let f = SourceFile::parse("x.rs", src.to_string());
        assert!(f.code.contains("env::var"));
        assert!(!f.code_nontest.contains("env::var"));
        assert!(f.code_nontest.contains("fn ship"));
        assert!(f.code_nontest.contains("fn after"));
    }
}
