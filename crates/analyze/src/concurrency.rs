//! Concurrency hygiene: a best-effort audit of lock usage.
//!
//! The workspace keeps blocking primitives deliberately rare — the
//! kernel's parallelism is scoped-thread fork/join with deterministic
//! merges, and only two files own `Mutex`/`Condvar` state (the BFS
//! level window in `checker.rs`, the server's job queue and shared
//! writers in `server.rs`). This pass pins that rarity and the local
//! rules those two files follow:
//!
//! 1. **Audited allowlist** — a lock primitive appearing in any other
//!    file fails the build until the file is reviewed and added here (or
//!    the locking is replaced with message passing, usually the better
//!    fix).
//! 2. **Poisoning is handled deliberately** — every `.lock()` is
//!    followed by `.expect(` with a message (a poisoned lock means a
//!    worker panicked; unwrapping silently would just re-panic with no
//!    context at a confusing site).
//! 3. **Condvar waits sit in guard loops** — a bare un-looped
//!    `wait`/`wait_timeout` is a spurious-wakeup bug by construction.
//! 4. **No fsync-class I/O under a lock** — a function that both takes a
//!    lock and calls `sync_all`/`sync_data`/`commit_bytes` serializes
//!    every worker behind disk latency (frame *writes* under the shared
//!    writer mutex are fine and intended; durability barriers are not).
//!
//! Textual heuristics, deliberately: the point is to make the next
//! `Mutex` show up in review, not to model the borrow checker. The
//! ThreadSanitizer CI job (best-effort, nightly-gated) is the dynamic
//! complement to this static pass.

use crate::scan;
use crate::source::SourceFile;
use crate::{Finding, ANALYSIS_CONC};

/// Files reviewed for rules 2–4; lock primitives anywhere else are
/// findings by rule 1.
const AUDITED: &[&str] = &[
    "crates/engine/src/checker.rs",
    "crates/server/src/server.rs",
];

/// Runs the audit.
pub fn audit(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        let code = &file.code_nontest;
        let has_primitive = ["Mutex", "Condvar", "RwLock"]
            .iter()
            .any(|t| scan::has_token(code, t));
        if !has_primitive {
            continue;
        }
        if !AUDITED.contains(&file.rel_path.as_str()) {
            let at = ["Mutex", "Condvar", "RwLock"]
                .iter()
                .find_map(|t| scan::token_offsets(code, t).first().copied())
                .unwrap_or(0);
            findings.push(Finding {
                analysis: ANALYSIS_CONC,
                file: file.rel_path.clone(),
                line: file.line_of(at),
                message: "lock primitive outside the audited files: review the locking \
                          discipline (poisoning, wait loops, I/O under locks) and add the \
                          file to the audit allowlist in crates/analyze/src/concurrency.rs, \
                          or prefer fork/join + message passing"
                    .to_string(),
            });
            continue;
        }
        findings.extend(check_lock_poisoning(file));
        findings.extend(check_wait_loops(file));
        findings.extend(check_sync_under_lock(file));
    }
    findings
}

/// Rule 2: `.lock()` must be followed by `.expect(`.
fn check_lock_poisoning(file: &SourceFile) -> Vec<Finding> {
    let code = &file.code_nontest;
    let mut findings = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(".lock()") {
        let at = from + pos;
        from = at + 7;
        let rest: String = code[at + 7..]
            .chars()
            .filter(|c| !c.is_whitespace())
            .take(12)
            .collect();
        if !rest.starts_with(".expect(") {
            findings.push(Finding {
                analysis: ANALYSIS_CONC,
                file: file.rel_path.clone(),
                line: file.line_of(at),
                message: "`.lock()` without `.expect(…)`: handle poisoning deliberately with \
                          a message naming what a poisoned lock implies here"
                    .to_string(),
            });
        }
    }
    findings
}

/// Rule 3: condvar waits inside `loop`/`while` guards.
fn check_wait_loops(file: &SourceFile) -> Vec<Finding> {
    let code = &file.code_nontest;
    let mut findings = Vec::new();
    for needle in [".wait(", ".wait_timeout("] {
        let mut from = 0usize;
        while let Some(pos) = code[from..].find(needle) {
            let at = from + pos;
            from = at + needle.len();
            // Look back to the enclosing `fn` for a guard loop keyword.
            let fn_start = code[..at].rfind("fn ").unwrap_or(0);
            let window = &code[fn_start..at];
            if !(scan::has_token(window, "loop") || scan::has_token(window, "while")) {
                findings.push(Finding {
                    analysis: ANALYSIS_CONC,
                    file: file.rel_path.clone(),
                    line: file.line_of(at),
                    message: format!(
                        "`{needle}…` with no enclosing guard loop in this function: condvar \
                         wakeups are allowed to be spurious, re-check the predicate in a loop"
                    ),
                });
            }
        }
    }
    findings
}

/// Rule 4: no durability barrier in a function that also locks.
fn check_sync_under_lock(file: &SourceFile) -> Vec<Finding> {
    let code = &file.code_nontest;
    let mut findings = Vec::new();
    for (start, end) in function_spans(code) {
        let body = &code[start..end];
        if !body.contains(".lock()") {
            continue;
        }
        for sync in ["sync_all", "sync_data", "commit_bytes"] {
            if let Some(pos) = scan::token_offsets(body, sync).first() {
                findings.push(Finding {
                    analysis: ANALYSIS_CONC,
                    file: file.rel_path.clone(),
                    line: file.line_of(start + pos),
                    message: format!(
                        "`{sync}` in a function that also takes a lock: a durability barrier \
                         under a mutex serializes every worker behind disk latency — commit \
                         outside the critical section"
                    ),
                });
            }
        }
    }
    findings
}

/// `(body_start, body_end)` spans of every `fn` in the blanked view.
fn function_spans(code: &str) -> Vec<(usize, usize)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for at in scan::token_offsets(code, "fn") {
        let Some(open_rel) = code[at..].find('{') else {
            continue;
        };
        // Stop at fn declarations in traits (a `;` before the `{`).
        if code[at..at + open_rel].contains(';') {
            continue;
        }
        let open = at + open_rel;
        let end = scan::skip_matched(bytes, open, b'{', b'}');
        out.push((open, end));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path, src.to_string())
    }

    #[test]
    fn unaudited_lock_files_are_flagged() {
        let files = vec![file("crates/x/src/a.rs", "use std::sync::Mutex;\n")];
        let findings = audit(&files);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("audit allowlist"));
    }

    #[test]
    fn audited_files_obey_the_local_rules() {
        let good = "use std::sync::{Mutex, Condvar};\nfn pop(&self) { loop { let g = self.jobs.lock().expect(\"q\"); let g = self.ready.wait_timeout(g, d).expect(\"q\"); } }\n";
        assert!(audit(&[file(AUDITED[1], good)]).is_empty());

        let unwrap = "use std::sync::Mutex;\nfn f(&self) { let g = self.m.lock().unwrap(); }\n";
        let findings = audit(&[file(AUDITED[1], unwrap)]);
        assert!(
            findings.iter().any(|f| f.message.contains("poisoning")),
            "{findings:?}"
        );

        let bare_wait =
            "use std::sync::Condvar;\nfn f(&self) { let g = self.cv.wait(g).expect(\"x\"); }\n";
        let findings = audit(&[file(AUDITED[1], bare_wait)]);
        assert!(
            findings.iter().any(|f| f.message.contains("spurious")),
            "{findings:?}"
        );

        let sync = "use std::sync::Mutex;\nfn f(&self) { let g = self.m.lock().expect(\"x\"); file.sync_all(); }\n";
        let findings = audit(&[file(AUDITED[1], sync)]);
        assert!(
            findings.iter().any(|f| f.message.contains("durability")),
            "{findings:?}"
        );
    }
}
