//! Word-bounded token searches over the blanked source views (the
//! standard library has no regex engine, and the analyzer is
//! dependency-free by design).

/// Whether `b` can be part of an identifier.
pub fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte offsets of every word-bounded occurrence of `token` in `text`.
pub fn token_offsets(text: &str, token: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(token) {
        let at = from + pos;
        let before_ok = at == 0 || !is_word(bytes[at - 1]);
        let end = at + token.len();
        let after_ok = end >= bytes.len() || !is_word(bytes[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + token.len().max(1);
    }
    out
}

/// Whether `text` contains a word-bounded occurrence of `token`.
pub fn has_token(text: &str, token: &str) -> bool {
    !token_offsets(text, token).is_empty()
}

/// Byte offsets where `env::var` / `env::var_os` is called (path
/// whitespace tolerated).
pub fn env_var_reads(text: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for at in token_offsets(text, "env") {
        let mut j = at + 3;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if !text[j..].starts_with("::") {
            continue;
        }
        j += 2;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if text[j..].starts_with("var_os")
            || (text[j..].starts_with("var") && !is_word(*bytes.get(j + 3).unwrap_or(&b' ')))
        {
            out.push(at);
        }
    }
    out
}

/// The integer value of `const NAME: <ty> = <n>;` in `text`, if present.
pub fn const_value(text: &str, name: &str) -> Option<u64> {
    for at in token_offsets(text, name) {
        let rest = &text[at + name.len()..];
        // Expect `: <ty> = <digits>` with flexible whitespace; skip
        // non-definition references (no `=` before the next `;`).
        let semi = rest.find(';')?;
        let clause = &rest[..semi];
        let eq = match clause.find('=') {
            Some(e) => e,
            None => continue,
        };
        let value: String = clause[eq + 1..]
            .chars()
            .filter(|c| c.is_ascii_digit())
            .collect();
        if !value.is_empty() {
            // Definitions start with a type ascription.
            if clause.trim_start().starts_with(':') {
                return value.parse().ok();
            }
        }
    }
    None
}

/// Skips whitespace from `i`.
pub fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Reads an identifier starting at `i`, returning `(ident, next)`.
pub fn read_ident(text: &str, i: usize) -> (String, usize) {
    let bytes = text.as_bytes();
    let mut j = i;
    while j < bytes.len() && is_word(bytes[j]) {
        j += 1;
    }
    (text[i..j].to_string(), j)
}

/// Given `i` at an opening delimiter in `open`/`close` (e.g. `<`/`>`),
/// returns the offset just past its matching close.
pub fn skip_matched(bytes: &[u8], mut i: usize, open: u8, close: u8) -> usize {
    let mut depth = 0usize;
    while i < bytes.len() {
        if bytes[i] == open {
            depth += 1;
        } else if bytes[i] == close {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Collapses whitespace runs to single spaces and trims — the
/// normalization used for manifest-recorded types and hashed bodies.
pub fn normalize_ws(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_ws = true; // leading whitespace is dropped
    for c in text.chars() {
        if c.is_whitespace() {
            if !in_ws {
                out.push(' ');
                in_ws = true;
            }
        } else {
            out.push(c);
            in_ws = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// FNV-1a over `text`, rendered as fixed-width hex — the manifest's
/// body-drift fingerprint.
pub fn fnv_hex(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_word_bounded() {
        assert_eq!(
            token_offsets("HashMap DetHashMap xHashMapx", "HashMap"),
            vec![0]
        );
        assert!(has_token("use std::collections::HashSet;", "HashSet"));
        assert!(!has_token("DetHashSet", "HashSet"));
    }

    #[test]
    fn env_reads_spot_var_and_var_os() {
        assert_eq!(env_var_reads("std::env::var(\"A\")").len(), 1);
        assert_eq!(env_var_reads("std::env::var_os (\"A\")").len(), 1);
        assert_eq!(env_var_reads("std::env::temp_dir()").len(), 0);
        assert_eq!(env_var_reads("environment::variable()").len(), 0);
    }

    #[test]
    fn const_values_parse_definitions_only() {
        let text = "pub const FORMAT_VERSION: u64 = 2;\nuse x::FORMAT_VERSION;\n";
        assert_eq!(const_value(text, "FORMAT_VERSION"), Some(2));
        assert_eq!(
            const_value("let x = FORMAT_VERSION;", "FORMAT_VERSION"),
            None
        );
    }

    #[test]
    fn normalization_and_hashing_are_stable() {
        assert_eq!(normalize_ws("  a \n\t b  "), "a b");
        assert_eq!(fnv_hex("abc"), fnv_hex("abc"));
        assert_ne!(fnv_hex("abc"), fnv_hex("abd"));
    }
}
