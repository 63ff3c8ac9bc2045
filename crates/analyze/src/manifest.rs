//! Wire-schema fingerprinting: the `WIRE_MANIFEST.txt` check.
//!
//! Two wire formats persist beyond one process: checkpoint images
//! (`FORMAT_VERSION`, `crates/engine/src/checkpoint.rs`) and server
//! frames (`PROTOCOL_VERSION`, `crates/server/src/wire.rs`). Both are
//! built from `StateCodec`/`DeltaCodec` encodings, so *any* codec impl
//! or codec-carrying struct in the workspace is wire surface: reorder
//! two fields and every previously written checkpoint decodes to
//! garbage — silently, because the compiler sees nothing wrong.
//!
//! This pass makes the surface explicit. It extracts, for every type
//! with a codec impl:
//!
//! - the declared fields (name, type, order) of the type, when its
//!   definition lives in the scanned sources — field drift is the
//!   highest-signal break and is reported field-by-field;
//! - a normalized hash of each codec impl body — encoding-logic drift
//!   that leaves the struct alone (e.g. swapping two `encode` calls) is
//!   caught too, just with a coarser "body changed" message;
//!
//! plus the `RunHeader`/`encode_image` checkpoint image layout and the
//! visited log's records (`admit_visited`/`admit_exact`), the server
//! `Frame` enum, and the two version constants. The canonical rendering
//! of all that is checked in as `WIRE_MANIFEST.txt`; any difference from
//! the checked-in manifest fails the build, with the hint depending on
//! whether the governing version constant was already bumped (then:
//! regenerate with `--bless`) or not (then: bump it first — or bless
//! directly if the change is provably compatible with old bytes).
//! Blessing is always the explicit act that acknowledges a wire change.

use std::collections::BTreeMap;

use crate::scan;
use crate::source::SourceFile;
use crate::{Finding, ANALYSIS_WIRE};

/// Which version constant governs a type's compatibility story.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionDomain {
    /// Checkpoint images: `FORMAT_VERSION` in `checkpoint.rs`.
    Format,
    /// Server frames: `PROTOCOL_VERSION` in `wire.rs`.
    Protocol,
}

impl VersionDomain {
    fn label(self) -> &'static str {
        match self {
            VersionDomain::Format => "FORMAT_VERSION",
            VersionDomain::Protocol => "PROTOCOL_VERSION",
        }
    }
}

/// One manifest entry: a type with at least one codec impl (or one of
/// the explicitly tracked layouts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// File the entry is keyed to (the type's definition file when
    /// known, else the impl's file), workspace-relative.
    pub file: String,
    /// The impl target, normalized (`Vec<T>`, `(A, B)`, `$ty`, …).
    pub type_name: String,
    /// `field name: Type` lines in declaration order; empty when the
    /// definition is not in the scanned sources (builtins, generics).
    pub fields: Vec<String>,
    /// `impl <Trait> hash=<hex>` lines, sorted.
    pub impls: Vec<String>,
    /// Governing version constant.
    pub domain: VersionDomain,
}

/// The computed wire model: every entry plus the version constants.
#[derive(Debug)]
pub struct WireModel {
    /// `(file, type)` → entry.
    pub entries: BTreeMap<(String, String), Entry>,
    /// Current `FORMAT_VERSION`.
    pub format_version: u64,
    /// Current `PROTOCOL_VERSION`.
    pub protocol_version: u64,
}

/// Path (workspace-relative) of the checked-in manifest.
pub const MANIFEST_PATH: &str = "WIRE_MANIFEST.txt";
const CHECKPOINT_RS: &str = "crates/engine/src/checkpoint.rs";
const WIRE_RS: &str = "crates/server/src/wire.rs";

/// Extracts the wire model from the scanned sources.
pub fn extract(files: &[SourceFile]) -> Result<WireModel, Finding> {
    let version = |path: &str, name: &str| -> Result<u64, Finding> {
        files
            .iter()
            .find(|f| f.rel_path == path)
            .and_then(|f| scan::const_value(&f.code, name))
            .ok_or_else(|| Finding {
                analysis: ANALYSIS_WIRE,
                file: path.to_string(),
                line: 1,
                message: format!(
                    "cannot locate `const {name}` — the manifest check is anchored to it"
                ),
            })
    };
    let format_version = version(CHECKPOINT_RS, "FORMAT_VERSION")?;
    let protocol_version = version(WIRE_RS, "PROTOCOL_VERSION")?;

    let mut entries: BTreeMap<(String, String), Entry> = BTreeMap::new();
    for file in files {
        for (trait_name, target, body) in codec_impls(&file.code_nontest) {
            let base = base_type_name(&target);
            // Where is the target type defined? Search the whole crate
            // (codec impls often live in a sibling `codec.rs` module).
            let crate_prefix = crate_prefix(&file.rel_path);
            let def = files
                .iter()
                .filter(|f| f.rel_path.starts_with(&crate_prefix))
                .find_map(|f| {
                    type_fields(&f.code_nontest, &base).map(|fields| (f.rel_path.clone(), fields))
                });
            let (def_file, fields) = match def {
                Some((path, fields)) => (path, fields),
                None => (file.rel_path.clone(), Vec::new()),
            };
            let domain = if def_file == WIRE_RS || file.rel_path == WIRE_RS {
                VersionDomain::Protocol
            } else {
                VersionDomain::Format
            };
            let entry = entries
                .entry((def_file.clone(), target.clone()))
                .or_insert_with(|| Entry {
                    file: def_file,
                    type_name: target.clone(),
                    fields,
                    impls: Vec::new(),
                    domain,
                });
            entry.impls.push(format!(
                "impl {trait_name} hash={}",
                scan::fnv_hex(&scan::normalize_ws(&body))
            ));
            entry.impls.sort();
            entry.impls.dedup();
        }
    }

    // Explicitly tracked layouts that no codec impl covers.
    for (path, type_name, domain) in [
        (CHECKPOINT_RS, "RunHeader", VersionDomain::Format),
        (WIRE_RS, "Frame", VersionDomain::Protocol),
    ] {
        if let Some(f) = files.iter().find(|f| f.rel_path == path) {
            if let Some(fields) = type_fields(&f.code_nontest, type_name) {
                let entry = entries
                    .entry((path.to_string(), type_name.to_string()))
                    .or_insert_with(|| Entry {
                        file: path.to_string(),
                        type_name: type_name.to_string(),
                        fields: fields.clone(),
                        impls: Vec::new(),
                        domain,
                    });
                entry.fields = fields;
            }
        }
    }
    // The checkpoint layouts themselves: everything `encode_image`
    // writes, and the visited-log records the two `admit_*` functions
    // write, fingerprinted as body hashes.
    if let Some(f) = files.iter().find(|f| f.rel_path == CHECKPOINT_RS) {
        for name in ["encode_image", "admit_visited", "admit_exact"] {
            if let Some(body) = fn_body(&f.code_nontest, name) {
                entries
                    .entry((CHECKPOINT_RS.to_string(), name.to_string()))
                    .or_insert_with(|| Entry {
                        file: CHECKPOINT_RS.to_string(),
                        type_name: name.to_string(),
                        fields: Vec::new(),
                        impls: Vec::new(),
                        domain: VersionDomain::Format,
                    })
                    .impls = vec![format!(
                    "impl fn hash={}",
                    scan::fnv_hex(&scan::normalize_ws(&body))
                )];
            }
        }
    }

    Ok(WireModel {
        entries,
        format_version,
        protocol_version,
    })
}

/// Renders the model to the canonical manifest text.
pub fn render(model: &WireModel) -> String {
    let mut out = String::new();
    out.push_str("# WIRE_MANIFEST — the workspace's persisted wire surface, one section per\n");
    out.push_str("# codec-bearing type. Regenerate with `cargo run -p slx-analyze -- --bless`\n");
    out.push_str(
        "# after auditing compatibility (see EXPERIMENTS.md, \"Wire-schema manifest\").\n",
    );
    out.push_str("# Do not edit by hand.\n\n");
    out.push_str(&format!("format_version = {}\n", model.format_version));
    out.push_str(&format!("protocol_version = {}\n", model.protocol_version));
    for entry in model.entries.values() {
        out.push('\n');
        out.push_str(&format!(
            "[type {} :: {} ({})]\n",
            entry.file,
            entry.type_name,
            entry.domain.label()
        ));
        for imp in &entry.impls {
            out.push_str(imp);
            out.push('\n');
        }
        for field in &entry.fields {
            out.push_str(&format!("field {field}\n"));
        }
    }
    out
}

/// Compares the computed model against the checked-in manifest text,
/// returning one finding per drifted type (empty = clean).
pub fn check(model: &WireModel, stored: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let stored_model = parse_manifest(stored);

    let hint = |domain: VersionDomain| -> String {
        let (stored_v, current_v, where_) = match domain {
            VersionDomain::Format => (
                stored_model.format_version,
                model.format_version,
                CHECKPOINT_RS,
            ),
            VersionDomain::Protocol => (
                stored_model.protocol_version,
                model.protocol_version,
                WIRE_RS,
            ),
        };
        if stored_v == current_v {
            format!(
                "wire drift without a {} bump: bump it in {} (old persisted bytes become \
                 incompatible) and regenerate with `cargo run -p slx-analyze -- --bless`, or \
                 bless directly if the encoded bytes are provably unchanged",
                domain.label(),
                where_
            )
        } else {
            format!(
                "{} was bumped ({} -> {}); acknowledge the new layout with \
                 `cargo run -p slx-analyze -- --bless`",
                domain.label(),
                stored_v,
                current_v
            )
        }
    };

    for (key, entry) in &model.entries {
        match stored_model.entries.get(key) {
            None => findings.push(Finding {
                analysis: ANALYSIS_WIRE,
                file: entry.file.clone(),
                line: 1,
                message: format!(
                    "type `{}` carries a codec impl but is not in {MANIFEST_PATH}; {}",
                    entry.type_name,
                    hint(entry.domain)
                ),
            }),
            Some(old) => {
                for msg in diff_entry(old, entry) {
                    findings.push(Finding {
                        analysis: ANALYSIS_WIRE,
                        file: entry.file.clone(),
                        line: 1,
                        message: format!(
                            "type `{}`: {}; {}",
                            entry.type_name,
                            msg,
                            hint(entry.domain)
                        ),
                    });
                }
            }
        }
    }
    for (key, old) in &stored_model.entries {
        if !model.entries.contains_key(key) {
            findings.push(Finding {
                analysis: ANALYSIS_WIRE,
                file: old.file.clone(),
                line: 1,
                message: format!(
                    "type `{}` is in {MANIFEST_PATH} but no longer carries a codec impl; {}",
                    old.type_name,
                    hint(old.domain)
                ),
            });
        }
    }
    // Version constants recorded in the manifest must match the code
    // even when no entry drifted (a bare bump still needs a bless, so
    // the manifest always names the versions actually in force).
    if (stored_model.format_version != model.format_version
        || stored_model.protocol_version != model.protocol_version)
        && findings.is_empty()
    {
        findings.push(Finding {
            analysis: ANALYSIS_WIRE,
            file: MANIFEST_PATH.to_string(),
            line: 1,
            message: format!(
                "version constants changed (format {} -> {}, protocol {} -> {}) — \
                 regenerate with `cargo run -p slx-analyze -- --bless`",
                stored_model.format_version,
                model.format_version,
                stored_model.protocol_version,
                model.protocol_version
            ),
        });
    }
    findings
}

/// Field/impl differences between the stored and current entry, each
/// naming the offending field.
fn diff_entry(old: &Entry, new: &Entry) -> Vec<String> {
    let mut out = Vec::new();
    for f in &new.fields {
        if !old.fields.contains(f) {
            out.push(format!("field `{f}` added or changed"));
        }
    }
    for f in &old.fields {
        if !new.fields.contains(f) {
            out.push(format!("field `{f}` removed or changed"));
        }
    }
    if out.is_empty() && old.fields != new.fields {
        // Same field set, different order.
        let moved = old
            .fields
            .iter()
            .zip(&new.fields)
            .find(|(a, b)| a != b)
            .map(|(a, _)| a.clone())
            .unwrap_or_default();
        out.push(format!("fields reordered (first moved: `{moved}`)"));
    }
    if old.impls != new.impls {
        out.push("codec impl body changed".to_string());
    }
    out
}

/// Parses a stored manifest back into a model (tolerant: unknown lines
/// are ignored, so comment edits never break the check).
fn parse_manifest(text: &str) -> WireModel {
    let mut entries = BTreeMap::new();
    let mut format_version = 0u64;
    let mut protocol_version = 0u64;
    let mut current: Option<Entry> = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(v) = line.strip_prefix("format_version = ") {
            format_version = v.parse().unwrap_or(0);
        } else if let Some(v) = line.strip_prefix("protocol_version = ") {
            protocol_version = v.parse().unwrap_or(0);
        } else if let Some(head) = line
            .strip_prefix("[type ")
            .and_then(|l| l.strip_suffix(']'))
        {
            if let Some(entry) = current.take() {
                entries.insert((entry.file.clone(), entry.type_name.clone()), entry);
            }
            // `<file> :: <type> (<DOMAIN>)`
            let (file, rest) = head.split_once(" :: ").unwrap_or((head, ""));
            let (type_name, domain) = match rest.rsplit_once(" (") {
                Some((t, d)) if d.starts_with("PROTOCOL") => (t, VersionDomain::Protocol),
                Some((t, _)) => (t, VersionDomain::Format),
                None => (rest, VersionDomain::Format),
            };
            current = Some(Entry {
                file: file.to_string(),
                type_name: type_name.to_string(),
                fields: Vec::new(),
                impls: Vec::new(),
                domain,
            });
        } else if let Some(field) = line.strip_prefix("field ") {
            if let Some(entry) = current.as_mut() {
                entry.fields.push(field.to_string());
            }
        } else if line.starts_with("impl ") {
            if let Some(entry) = current.as_mut() {
                entry.impls.push(line.to_string());
            }
        }
    }
    if let Some(entry) = current.take() {
        entries.insert((entry.file.clone(), entry.type_name.clone()), entry);
    }
    WireModel {
        entries,
        format_version,
        protocol_version,
    }
}

/// Every `impl <path::>StateCodec|DeltaCodec for <Target> { body }` in
/// `code`, as `(trait, normalized target, body)`.
fn codec_impls(code: &str) -> Vec<(String, String, String)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for at in scan::token_offsets(code, "impl") {
        let mut i = at + 4;
        i = scan::skip_ws(bytes, i);
        if bytes.get(i) == Some(&b'<') {
            i = scan::skip_matched(bytes, i, b'<', b'>');
            i = scan::skip_ws(bytes, i);
        }
        // Trait path: segments up to `for`; the last segment is the name.
        let path_start = i;
        let mut last_segment = String::new();
        loop {
            let (ident, next) = scan::read_ident(code, i);
            if ident.is_empty() {
                break;
            }
            last_segment = ident;
            i = scan::skip_ws(bytes, next);
            if bytes.get(i) == Some(&b'<') {
                i = scan::skip_matched(bytes, i, b'<', b'>');
                i = scan::skip_ws(bytes, i);
            }
            if code[i..].starts_with("::") {
                i = scan::skip_ws(bytes, i + 2);
            } else {
                break;
            }
        }
        if i == path_start || (last_segment != "StateCodec" && last_segment != "DeltaCodec") {
            continue;
        }
        let (kw, next) = scan::read_ident(code, scan::skip_ws(bytes, i));
        if kw != "for" {
            continue;
        }
        // Target: everything up to the impl's `{` or a `where` clause.
        let target_start = scan::skip_ws(bytes, next);
        let mut j = target_start;
        let mut depth_angle = 0i32;
        while j < bytes.len() {
            match bytes[j] {
                b'<' => depth_angle += 1,
                b'>' => depth_angle -= 1,
                b'{' if depth_angle <= 0 => break,
                _ => {}
            }
            if depth_angle <= 0
                && code[j..].starts_with("where")
                && !scan::is_word(bytes[j.saturating_sub(1)])
            {
                break;
            }
            j += 1;
        }
        let target = scan::normalize_ws(&code[target_start..j]);
        if target.is_empty() {
            continue;
        }
        // Body: the matched braces from the first `{` at/after `j`.
        let body_open = match code[j..].find('{') {
            Some(p) => j + p,
            None => continue,
        };
        let body_end = scan::skip_matched(bytes, body_open, b'{', b'}');
        out.push((last_segment, target, code[body_open..body_end].to_string()));
    }
    out
}

/// `base_type_name("Vec<T>")` → `Vec`; tuples and `$ty` stay verbatim.
fn base_type_name(target: &str) -> String {
    let t = target.trim_start_matches('&').trim();
    match t.find(['<', ' ']) {
        Some(cut) if !t.starts_with('(') => t[..cut].to_string(),
        _ => t.to_string(),
    }
}

/// The declared fields (named struct), elements (tuple struct), or
/// variants (enum) of type `name` in `code`, normalized, in declaration
/// order. `None` when `name` is not defined here.
fn type_fields(code: &str, name: &str) -> Option<Vec<String>> {
    if name.is_empty() || !name.as_bytes()[0].is_ascii_uppercase() {
        return None;
    }
    let bytes = code.as_bytes();
    for kw in ["struct", "enum"] {
        for at in scan::token_offsets(code, kw) {
            let i = scan::skip_ws(bytes, at + kw.len());
            let (ident, mut j) = scan::read_ident(code, i);
            if ident != name {
                continue;
            }
            j = scan::skip_ws(bytes, j);
            if bytes.get(j) == Some(&b'<') {
                j = scan::skip_matched(bytes, j, b'<', b'>');
                j = scan::skip_ws(bytes, j);
            }
            return Some(match bytes.get(j) {
                Some(&b'{') => {
                    let end = scan::skip_matched(bytes, j, b'{', b'}');
                    let body = &code[j + 1..end - 1];
                    if kw == "enum" {
                        split_top_level(body)
                            .into_iter()
                            .map(|v| scan::normalize_ws(&v))
                            .filter(|v| !v.is_empty())
                            .collect()
                    } else {
                        split_top_level(body)
                            .into_iter()
                            .map(|f| scan::normalize_ws(&strip_field_prefix(&f)))
                            .filter(|f| !f.is_empty())
                            .collect()
                    }
                }
                Some(&b'(') => {
                    let end = scan::skip_matched(bytes, j, b'(', b')');
                    let body = &code[j + 1..end - 1];
                    split_top_level(body)
                        .into_iter()
                        .enumerate()
                        .map(|(idx, t)| {
                            format!("{idx}: {}", scan::normalize_ws(&strip_field_prefix(&t)))
                        })
                        .filter(|f| !f.ends_with(": "))
                        .collect()
                }
                _ => Vec::new(), // unit struct
            });
        }
    }
    None
}

/// Splits on commas at bracket depth 0 (`<>`, `()`, `{}`, `[]` aware).
fn split_top_level(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut current = String::new();
    for c in body.chars() {
        match c {
            '<' | '(' | '{' | '[' => depth += 1,
            '>' | ')' | '}' | ']' => depth -= 1,
            ',' if depth == 0 => {
                out.push(std::mem::take(&mut current));
                continue;
            }
            _ => {}
        }
        current.push(c);
    }
    if !current.trim().is_empty() {
        out.push(current);
    }
    out
}

/// Drops attributes and visibility from one field declaration.
fn strip_field_prefix(field: &str) -> String {
    let mut s = field.trim();
    while s.starts_with("#[") {
        let end = scan::skip_matched(s.as_bytes(), s.find('[').unwrap_or(0), b'[', b']');
        s = s[end..].trim_start();
    }
    if let Some(rest) = s.strip_prefix("pub") {
        // Word boundary: `pub a` and `pub(crate) a` qualify, `pubkey: T`
        // does not.
        if let Some(stripped) = rest.trim_start().strip_prefix('(') {
            let close = stripped.find(')').map_or(0, |p| p + 1);
            s = stripped[close..].trim_start();
        } else if rest.starts_with(char::is_whitespace) {
            s = rest.trim_start();
        }
    }
    s.to_string()
}

/// The body of `fn <name>` in `code`, braces included.
fn fn_body(code: &str, name: &str) -> Option<String> {
    let bytes = code.as_bytes();
    for at in scan::token_offsets(code, name) {
        // Must be a definition: preceded by `fn`.
        let before = code[..at].trim_end();
        if !before.ends_with("fn") {
            continue;
        }
        let open = at + code[at..].find('{')?;
        let end = scan::skip_matched(bytes, open, b'{', b'}');
        return Some(code[open..end].to_string());
    }
    None
}

/// The `crates/<name>/` prefix of a workspace-relative path (or `src/`
/// for the root package).
fn crate_prefix(rel_path: &str) -> String {
    let parts: Vec<&str> = rel_path.split('/').collect();
    if parts.first() == Some(&"crates") && parts.len() > 2 {
        format!("crates/{}/", parts[1])
    } else {
        "src/".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path, src.to_string())
    }

    const CKPT: &str = "pub const FORMAT_VERSION: u64 = 1;\npub struct RunHeader { pub a: u32 }\nfn encode_image() { body(); }\n";
    const WIRE: &str = "pub const PROTOCOL_VERSION: u8 = 1;\npub enum Frame { A, B(u32) }\npub struct Req { pub id: String }\nimpl StateCodec for Req { fn encode(&self) {} }\n";

    fn fixture(extra: &str) -> Vec<SourceFile> {
        vec![
            file("crates/engine/src/checkpoint.rs", CKPT),
            file("crates/server/src/wire.rs", WIRE),
            file(
                "crates/engine/src/codec.rs",
                &format!("pub struct Foo {{ pub a: u32, pub b: u64 }}\nimpl StateCodec for Foo {{ fn encode(&self) {{}} }}\n{extra}"),
            ),
        ]
    }

    #[test]
    fn extraction_finds_fields_impls_and_versions() {
        let model = extract(&fixture("")).unwrap();
        assert_eq!(model.format_version, 1);
        assert_eq!(model.protocol_version, 1);
        let foo = &model.entries[&("crates/engine/src/codec.rs".to_string(), "Foo".to_string())];
        assert_eq!(foo.fields, vec!["a: u32", "b: u64"]);
        assert_eq!(foo.impls.len(), 1);
        let req = &model.entries[&("crates/server/src/wire.rs".to_string(), "Req".to_string())];
        assert_eq!(req.domain, VersionDomain::Protocol);
        let frame = &model.entries[&("crates/server/src/wire.rs".to_string(), "Frame".to_string())];
        assert_eq!(frame.fields, vec!["A", "B(u32)"]);
        assert!(model.entries.contains_key(&(
            "crates/engine/src/checkpoint.rs".to_string(),
            "encode_image".to_string()
        )));
    }

    #[test]
    fn clean_roundtrip_then_field_drift_names_type_and_field() {
        let model = extract(&fixture("")).unwrap();
        let stored = render(&model);
        assert!(
            check(&model, &stored).is_empty(),
            "bless then check must be clean"
        );

        // Mutate: add a field to Foo without bumping FORMAT_VERSION.
        let mut files = fixture("");
        files[2] = file(
            "crates/engine/src/codec.rs",
            "pub struct Foo { pub a: u32, pub extra: bool, pub b: u64 }\nimpl StateCodec for Foo { fn encode(&self) {} }\n",
        );
        let drifted = extract(&files).unwrap();
        let findings = check(&drifted, &stored);
        assert!(!findings.is_empty());
        let msg = &findings[0].message;
        assert!(msg.contains("Foo"), "{msg}");
        assert!(msg.contains("extra: bool"), "{msg}");
        assert!(msg.contains("bump it"), "{msg}");
    }

    #[test]
    fn bumped_version_changes_the_hint_but_still_requires_bless() {
        let model = extract(&fixture("")).unwrap();
        let stored = render(&model);
        let mut files = fixture("");
        files[0] = file(
            "crates/engine/src/checkpoint.rs",
            &CKPT.replace("= 1", "= 2"),
        );
        files[2] = file(
            "crates/engine/src/codec.rs",
            "pub struct Foo { pub a: u32, pub b: u64, pub extra: bool }\nimpl StateCodec for Foo { fn encode(&self) {} }\n",
        );
        let drifted = extract(&files).unwrap();
        let findings = check(&drifted, &stored);
        assert!(!findings.is_empty());
        assert!(
            findings[0].message.contains("--bless"),
            "{}",
            findings[0].message
        );
        assert!(
            findings[0].message.contains("1 -> 2"),
            "{}",
            findings[0].message
        );
        // And blessing the new state makes it clean.
        assert!(check(&drifted, &render(&drifted)).is_empty());
    }

    #[test]
    fn reorder_and_impl_body_drift_are_reported() {
        let model = extract(&fixture("")).unwrap();
        let stored = render(&model);
        let mut files = fixture("");
        files[2] = file(
            "crates/engine/src/codec.rs",
            "pub struct Foo { pub b: u64, pub a: u32 }\nimpl StateCodec for Foo { fn encode(&self) {} }\n",
        );
        let findings = check(&extract(&files).unwrap(), &stored);
        assert!(
            findings.iter().any(|f| f.message.contains("reordered")),
            "{findings:?}"
        );

        let mut files = fixture("");
        files[2] = file(
            "crates/engine/src/codec.rs",
            "pub struct Foo { pub a: u32, pub b: u64 }\nimpl StateCodec for Foo { fn encode(&self) { changed(); } }\n",
        );
        let findings = check(&extract(&files).unwrap(), &stored);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("impl body changed")),
            "{findings:?}"
        );
    }

    #[test]
    fn generic_and_macro_targets_become_builtin_entries() {
        let files = fixture(
            "impl<T: StateCodec> StateCodec for Vec<T> { fn encode(&self) {} }\nmacro_rules! m { ($ty:ty) => { impl StateCodec for $ty { fn encode(&self) {} } } }\n",
        );
        let model = extract(&files).unwrap();
        let vec_entry = &model.entries[&(
            "crates/engine/src/codec.rs".to_string(),
            "Vec<T>".to_string(),
        )];
        assert!(vec_entry.fields.is_empty());
        assert!(
            model.entries.keys().any(|(_, t)| t == "$ty"),
            "macro impl target tracked: {:?}",
            model.entries.keys()
        );
    }
}
