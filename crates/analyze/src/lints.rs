//! Determinism lints: the checks that keep nondeterminism sources out of
//! verdict-producing code.
//!
//! Four rules, each with an explicitly sanctioned home:
//!
//! 1. **No default-hasher containers** (`HashMap`/`HashSet`/
//!    `DefaultHasher`/`RandomState`) outside `crates/engine/src/detmap.rs`
//!    — std's per-process hash seed makes iteration order a run-to-run
//!    coin flip, and one forgotten sort between such a container and a
//!    digest/merge/encode breaks verdict determinism silently. Use
//!    [`DetHashMap`]/[`DetHashSet`] (fixed seed) or a `BTreeMap`. A line
//!    provably order-insensitive (membership-only memo) may carry a
//!    `det-lint: allow (<reason>)` comment.
//! 2. **No ambient wall-clock** (`Instant`/`SystemTime`) outside
//!    `crates/engine/src/stats.rs` (the sanctioned [`Stopwatch`]).
//! 3. **No ambient env reads** (`env::var`/`env::var_os`) outside
//!    `crates/engine/src/knobs.rs` — every knob goes through the typed
//!    registry accessors, which also own the PR 7 hard-error contract.
//! 4. **Knob literals agree with the registry**: every `SLX_*` string
//!    literal in shipping code names a registered knob, every registered
//!    knob is referenced by code outside the registry (the statics are
//!    named after their variables, so this is an identifier search), and
//!    the EXPERIMENTS.md knob table lists exactly the registry.
//!
//! Test code (`tests/`, benches, `#[cfg(test)]` items) is exempt from
//! all four: tests legitimately pin env vars and build throwaway maps.

use crate::scan;
use crate::source::SourceFile;
use crate::{Finding, ANALYSIS_DET, ANALYSIS_KNOBS};

const DETMAP_RS: &str = "crates/engine/src/detmap.rs";
const STATS_RS: &str = "crates/engine/src/stats.rs";
const KNOBS_RS: &str = "crates/engine/src/knobs.rs";

/// Rule 1: default-hasher containers.
pub fn default_hasher(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if file.rel_path == DETMAP_RS {
            continue;
        }
        for token in ["HashMap", "HashSet", "DefaultHasher", "RandomState"] {
            for at in scan::token_offsets(&file.code_nontest, token) {
                let line = file.line_of(at);
                if file.det_allow_lines.contains(&line) {
                    continue;
                }
                findings.push(Finding {
                    analysis: ANALYSIS_DET,
                    file: file.rel_path.clone(),
                    line,
                    message: format!(
                        "default-hasher `{token}` in shipping code: iteration order is \
                         seeded per process. Use DetHashMap/DetHashSet (crates/engine/src/detmap.rs) \
                         or a BTree container, or mark a provably order-insensitive use with \
                         `det-lint: allow (<reason>)`"
                    ),
                });
            }
        }
    }
    findings
}

/// Rule 2: ambient wall-clock reads.
pub fn wall_clock(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if file.rel_path == STATS_RS {
            continue;
        }
        for token in ["Instant", "SystemTime"] {
            for at in scan::token_offsets(&file.code_nontest, token) {
                findings.push(Finding {
                    analysis: ANALYSIS_DET,
                    file: file.rel_path.clone(),
                    line: file.line_of(at),
                    message: format!(
                        "`{token}` outside the sanctioned clock: route timing through \
                         slx_engine::Stopwatch (crates/engine/src/stats.rs) so wall-clock \
                         can only feed reporting statistics"
                    ),
                });
            }
        }
    }
    findings
}

/// Rule 3: ambient env reads.
pub fn env_reads(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if file.rel_path == KNOBS_RS {
            continue;
        }
        for at in scan::env_var_reads(&file.code_nontest) {
            findings.push(Finding {
                analysis: ANALYSIS_DET,
                file: file.rel_path.clone(),
                line: file.line_of(at),
                message: "direct `env::var` read: every knob goes through the typed registry \
                          accessors in crates/engine/src/knobs.rs (which also own the \
                          hard-error parse contract)"
                    .to_string(),
            });
        }
    }
    findings
}

/// Rule 4: `SLX_*` literals ↔ registry ↔ docs agreement.
///
/// `registry` is the knob-name set parsed from `knobs.rs`; `docs` is the
/// raw EXPERIMENTS.md text (or `None` when the docs file is absent, as
/// in reduced fixture trees).
pub fn knob_agreement(
    files: &[SourceFile],
    registry: &[String],
    docs: Option<&str>,
) -> Vec<Finding> {
    let mut findings = Vec::new();

    // (a) Every SLX_* literal in shipping code names a registered knob.
    for file in files {
        if file.rel_path == KNOBS_RS {
            continue;
        }
        for lit in &file.strings {
            if !file.literal_in_nontest(lit.offset) {
                continue;
            }
            for (_, name) in scan::slx_tokens(&lit.text) {
                if !registry.iter().any(|r| r == &name) {
                    findings.push(Finding {
                        analysis: ANALYSIS_KNOBS,
                        file: file.rel_path.clone(),
                        line: lit.line,
                        message: format!(
                            "string literal names `{name}`, which is not in the knob registry \
                             (crates/engine/src/knobs.rs) — register it (name, kind, default, doc) \
                             and read it through the typed accessors"
                        ),
                    });
                }
            }
        }
    }

    // (b) Every registered knob is referenced outside the registry (the
    // statics are named after their variables, so dead registry entries
    // show up as an unreferenced identifier).
    for name in registry {
        let referenced = files
            .iter()
            .filter(|f| f.rel_path != KNOBS_RS)
            .any(|f| scan::has_token(&f.code_nontest, name));
        if !referenced {
            findings.push(Finding {
                analysis: ANALYSIS_KNOBS,
                file: KNOBS_RS.to_string(),
                line: 1,
                message: format!(
                    "registered knob `{name}` is never referenced outside the registry — \
                     dead entry, or a call site still parsing the variable by hand"
                ),
            });
        }
    }

    // (c) The docs table lists exactly the registry.
    if let Some(docs) = docs {
        let table_names: Vec<String> = docs
            .lines()
            .filter(|l| l.trim_start().starts_with('|'))
            .flat_map(|l| scan::slx_tokens(l).into_iter().map(|(_, n)| n))
            .collect();
        for name in registry {
            if !table_names.iter().any(|t| t == name) {
                findings.push(Finding {
                    analysis: ANALYSIS_KNOBS,
                    file: "EXPERIMENTS.md".to_string(),
                    line: 1,
                    message: format!("knob `{name}` is registered but missing from the EXPERIMENTS.md knob table"),
                });
            }
        }
        for name in &table_names {
            if !registry.iter().any(|r| r == name) {
                findings.push(Finding {
                    analysis: ANALYSIS_KNOBS,
                    file: "EXPERIMENTS.md".to_string(),
                    line: 1,
                    message: format!(
                        "EXPERIMENTS.md knob table lists `{name}`, which is not in the registry"
                    ),
                });
            }
        }
    }
    findings
}

/// Parses the knob-name registry out of `knobs.rs`: every `name:
/// "SLX_…"` field in shipping code.
pub fn parse_registry(files: &[SourceFile]) -> Vec<String> {
    let Some(knobs) = files.iter().find(|f| f.rel_path == KNOBS_RS) else {
        return Vec::new();
    };
    let mut names = Vec::new();
    for lit in &knobs.strings {
        if !knobs.literal_in_nontest(lit.offset) {
            continue;
        }
        // A registry entry's name literal is exactly one SLX_ token.
        let tokens = scan::slx_tokens(&lit.text);
        if tokens.len() == 1 && tokens[0].1 == lit.text {
            // Must be a `name:` field, not e.g. a doc string: look back
            // past whitespace for `name:`.
            let before = knobs.code[..lit.offset].trim_end();
            if before.ends_with("name:") {
                names.push(lit.text.clone());
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path, src.to_string())
    }

    #[test]
    fn hasher_lint_flags_shipping_code_only() {
        let files = vec![
            file("crates/x/src/a.rs", "use std::collections::HashMap;\n"),
            file(
                "crates/x/src/b.rs",
                "#[cfg(test)]\nmod t { use std::collections::HashMap; }\n",
            ),
            file(
                "crates/x/src/c.rs",
                "let m = HashSet::new(); // det-lint: allow (membership only)\n",
            ),
            file(DETMAP_RS, "pub type DetHashMap<K,V> = HashMap<K,V,Det>;\n"),
        ];
        let findings = default_hasher(&files);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].file, "crates/x/src/a.rs");
    }

    #[test]
    fn clock_and_env_lints_respect_sanctioned_homes() {
        let files = vec![
            file(
                "crates/x/src/a.rs",
                "let t = Instant::now(); std::env::var(\"X\");\n",
            ),
            file(STATS_RS, "struct Stopwatch { start: std::time::Instant }\n"),
            file(KNOBS_RS, "std::env::var_os(name);\n"),
        ];
        assert_eq!(wall_clock(&files).len(), 1);
        assert_eq!(env_reads(&files).len(), 1);
    }

    #[test]
    fn knob_agreement_checks_all_three_ways() {
        let knobs_src = "pub static SLX_A: Knob = Knob { name: \"SLX_A\", };\npub static SLX_B: Knob = Knob { name: \"SLX_B\", };\n";
        let files = vec![
            file(KNOBS_RS, knobs_src),
            file(
                "crates/x/src/a.rs",
                "knobs::SLX_A.usize_value(); let s = \"SLX_ROGUE\";\n",
            ),
        ];
        let registry = parse_registry(&files);
        assert_eq!(registry, vec!["SLX_A".to_string(), "SLX_B".to_string()]);
        let docs = "| `SLX_A` | x |\n| `SLX_C` | y |\n";
        let findings = knob_agreement(&files, &registry, Some(docs));
        let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("SLX_ROGUE")), "{msgs:?}");
        assert!(
            msgs.iter()
                .any(|m| m.contains("SLX_B") && m.contains("never referenced")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("SLX_B") && m.contains("missing from")),
            "{msgs:?}"
        );
        assert!(msgs.iter().any(|m| m.contains("SLX_C")), "{msgs:?}");
    }
}
