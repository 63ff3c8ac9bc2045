//! Determinism lints: the checks that keep nondeterminism sources out of
//! verdict-producing code.
//!
//! Three rules; the first two have an explicitly sanctioned home:
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
//! 3. **No env reads** (`env::var`/`env::var_os`) anywhere — a run is
//!    configured by its builder and a binary by its arguments, so the
//!    environment is never a second way to set a value.
//!
//! Test code (`tests/`, benches, `#[cfg(test)]` items) is exempt from
//! all three: tests legitimately pin env vars and build throwaway maps.

use crate::scan;
use crate::source::SourceFile;
use crate::{Finding, ANALYSIS_DET};

const DETMAP_RS: &str = "crates/engine/src/detmap.rs";
const STATS_RS: &str = "crates/engine/src/stats.rs";

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

/// Rule 3: env reads.
pub fn env_reads(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        for at in scan::env_var_reads(&file.code_nontest) {
            findings.push(Finding {
                analysis: ANALYSIS_DET,
                file: file.rel_path.clone(),
                line: file.line_of(at),
                message: "`env::var` read in shipping code: configure a run through its \
                          builder and a binary through its arguments"
                    .to_string(),
            });
        }
    }
    findings
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
    fn clock_lint_respects_its_home_and_env_lint_has_none() {
        let files = vec![
            file(
                "crates/x/src/a.rs",
                "let t = Instant::now(); std::env::var(\"X\");\n",
            ),
            file(STATS_RS, "struct Stopwatch { start: std::time::Instant }\n"),
            file("crates/x/src/bin/b.rs", "std::env::var_os(name);\n"),
        ];
        assert_eq!(wall_clock(&files).len(), 1);
        assert_eq!(env_reads(&files).len(), 2, "no file is sanctioned");
    }
}
