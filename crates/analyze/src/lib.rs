//! `slx-analyze` — repo-aware static analysis, run as a tier-1 CI gate.
//!
//! The compiler verifies memory safety and types; this crate verifies
//! the *repo-level* invariants every PR so far has relied on prose and
//! discipline to keep:
//!
//! - **Wire-schema drift** ([`manifest`]): the persisted encodings
//!   (checkpoint images, server frames, every `StateCodec`/`DeltaCodec`
//!   impl) are fingerprinted into a checked-in `WIRE_MANIFEST.txt`; any
//!   drift fails the build naming the type and field, with the fix
//!   depending on whether `FORMAT_VERSION`/`PROTOCOL_VERSION` was
//!   bumped. Regeneration (`--bless`) is the explicit acknowledgment.
//! - **Determinism lints** ([`lints`]): no default-hasher containers or
//!   ambient clocks outside their sanctioned modules, and no env reads
//!   at all.
//! - **Concurrency hygiene** ([`concurrency`]): lock primitives only in
//!   audited files, poisoning handled, condvar waits looped, no
//!   durability barriers under locks.
//!
//! Everything is hand-rolled on a lexical source model ([`source`]) —
//! the crate builds offline with zero dependencies, which is what lets
//! CI treat it as a required gate rather than a best-effort extra.
//!
//! Scope: non-test code under `crates/*/src/` and `src/`. Integration
//! tests, benches, and `#[cfg(test)]` items are exempt (tests pin env
//! vars and build throwaway maps on purpose), as is this crate itself
//! (its lint patterns would otherwise flag themselves).

use std::path::{Path, PathBuf};

pub mod concurrency;
pub mod lints;
pub mod manifest;
pub mod scan;
pub mod source;

use source::SourceFile;

/// Analysis labels, used as finding prefixes and in CI output.
pub const ANALYSIS_WIRE: &str = "wire-schema";
/// Determinism lints (hashers, clocks, env reads).
pub const ANALYSIS_DET: &str = "determinism";
/// Concurrency hygiene.
pub const ANALYSIS_CONC: &str = "concurrency";

/// One verified defect. Rendered as `analysis: file:line: message`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which analysis produced it (one of the `ANALYSIS_*` labels).
    pub analysis: &'static str,
    /// Workspace-relative file.
    pub file: String,
    /// 1-indexed line (1 when the finding is file- or repo-scoped).
    pub line: usize,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {}:{}: {}",
            self.analysis, self.file, self.line, self.message
        )
    }
}

/// The analyzer's view of one workspace checkout.
#[derive(Debug)]
pub struct Workspace {
    /// Checkout root.
    pub root: PathBuf,
    /// Lexed non-generated sources under `crates/*/src/` and `src/`.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Loads and lexes every `.rs` file under `crates/*/src/` and
    /// `src/`, skipping the analyzer itself.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the roots simply being absent
    /// (reduced fixture trees omit some).
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            crate_dirs.sort();
            for dir in crate_dirs {
                if dir.file_name().is_some_and(|n| n == "analyze") {
                    continue;
                }
                collect_rs(&dir.join("src"), root, &mut files)?;
            }
        }
        collect_rs(&root.join("src"), root, &mut files)?;
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
        })
    }

    /// Runs every analysis, returning the combined findings (empty =
    /// clean tree). The manifest check compares against the checked-in
    /// `WIRE_MANIFEST.txt`; see [`Workspace::bless`] to regenerate it.
    pub fn run_all(&self) -> Vec<Finding> {
        let mut findings = Vec::new();

        match manifest::extract(&self.files) {
            Ok(model) => {
                let stored = std::fs::read_to_string(self.root.join(manifest::MANIFEST_PATH));
                match stored {
                    Ok(stored) => findings.extend(manifest::check(&model, &stored)),
                    Err(_) => findings.push(Finding {
                        analysis: ANALYSIS_WIRE,
                        file: manifest::MANIFEST_PATH.to_string(),
                        line: 1,
                        message:
                            "missing — generate it with `cargo run -p slx-analyze -- --bless` \
                                  and check it in"
                                .to_string(),
                    }),
                }
            }
            Err(finding) => findings.push(finding),
        }

        findings.extend(lints::default_hasher(&self.files));
        findings.extend(lints::wall_clock(&self.files));
        findings.extend(lints::env_reads(&self.files));
        findings.extend(concurrency::audit(&self.files));

        findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.analysis).cmp(&(b.file.as_str(), b.line, b.analysis))
        });
        findings
    }

    /// Regenerates `WIRE_MANIFEST.txt` from the current sources.
    ///
    /// # Errors
    ///
    /// Propagates extraction findings (as an error string) and I/O.
    pub fn bless(&self) -> Result<(), String> {
        let model = manifest::extract(&self.files).map_err(|f| f.to_string())?;
        std::fs::write(
            self.root.join(manifest::MANIFEST_PATH),
            manifest::render(&model),
        )
        .map_err(|e| format!("cannot write {}: {e}", manifest::MANIFEST_PATH))
    }
}

/// Recursively collects `.rs` files under `dir` into `files`.
fn collect_rs(dir: &Path, root: &Path, files: &mut Vec<SourceFile>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let raw = std::fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(SourceFile::parse(&rel, raw));
        }
    }
    Ok(())
}
