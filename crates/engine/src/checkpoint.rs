//! Crash-tolerant checkpoint/resume store for the BFS kernel.
//!
//! Long exhaustive explorations are the workspace's whole product, and a
//! crash at depth 30 of a day-long run must not mean starting over. At
//! configurable level boundaries ([`crate::Checker::with_checkpoint`])
//! the checker persists its complete resumable image through this store;
//! [`crate::Checker::resume`] reloads it and continues such that the
//! resumed run is **bit-identical to the uninterrupted one** in verdict,
//! findings, state counts (`configs`, `transitions`, `dedup_hits`,
//! `orbit_hits`, `peak_frontier`, `shard_occupancy`), and truncation
//! flags. Spill-volume counters (`spilled_chunks`/`spilled_bytes`,
//! `peak_resident_*`, `replayed_parents`) measure *I/O actually
//! performed* and may legitimately differ across a resume: the rebuilt
//! frontier re-chunks from scratch.
//!
//! # On-disk layout (format version 6)
//!
//! One file, `slx-checkpoint.bin`, inside the checkpoint directory. All
//! integers use the [`crate::StateCodec`] wire format (LEB128 varints,
//! `usize` as `u64`, `u128` as 16 little-endian bytes), so the file is
//! independent of the platform word size and endianness:
//!
//! ```text
//! magic                "SLXCKPT\0" (8 bytes)
//! version              varint — `FORMAT_VERSION`
//! run-config header    space fingerprint (u128), spill codec tag (u8),
//!                      symmetry (bool), shard count, config budget,
//!                      mem budget
//! depth                the BFS level about to be expanded
//! stats                the resumable ExploreStats counters, including
//!                      the lifetime elapsed wall-clock in microseconds
//!                      (added in format version 2: a resume accumulates
//!                      it, so states_per_sec() stays a lifetime rate)
//!                      and the lifetime fault-plane counters
//!                      (faults_injected / io_retries / degraded_levels,
//!                      added in format version 3)
//! findings             count, then each via StateCodec
//!                      (format version 4: a `slx_memory::System` record,
//!                      here and in the frontier, no longer carries a
//!                      per-step event log; format version 5: an
//!                      obstruction-free-consensus process names its
//!                      registers as `(first id, length)` runs and no
//!                      longer carries a completed-rounds counter)
//! visited set          per shard: digest count, then the digests
//!                      sorted ascending (shards own contiguous digest
//!                      ranges in shard order, so the whole section is
//!                      digest-range-ordered; format version 6: a
//!                      `slx_memory::Memory` contributes its slot fold
//!                      to a state key — byte layout unchanged, but a
//!                      version-5 digest no longer names the state it
//!                      was computed from)
//! exact-seen set       count + sorted digests (symmetry runs only;
//!                      empty otherwise)
//! frontier             count, then records in push order reusing the
//!                      run's SpillCodec arm: Delta chains each record
//!                      against its predecessor (first self-contained);
//!                      Plain and Replay write self-contained records —
//!                      a checkpoint sits at a level boundary, where the
//!                      replay codec's parent generation is already
//!                      consumed, so its literal-record arm is the form
//!                      that survives
//! checksum             u128 fingerprint of all preceding bytes
//! ```
//!
//! # Commit and compatibility rules
//!
//! - **Atomic rename-commit**: the image is written to
//!   `slx-checkpoint.bin.tmp`, fsynced, then renamed over the live file.
//!   A crash mid-write leaves the previous committed checkpoint intact;
//!   there is never a window where the store holds a torn file.
//! - **Versioning**: any change to the byte layout bumps
//!   `FORMAT_VERSION`. Loaders hard-reject other versions — no silent
//!   cross-version reinterpretation.
//! - **Configuration validation**: [`crate::Checker::resume`] compares
//!   every header field (space fingerprint, spill codec, symmetry, shard
//!   count, config/memory budgets) against the resuming run and refuses
//!   any mismatch with a typed
//!   [`crate::EngineError::CheckpointConfigMismatch`] naming the field
//!   and both values (the legacy panicking `run` surfaces render it
//!   verbatim). A mismatched resume can only produce a silently wrong
//!   answer, so it is never attempted.
//! - **Integrity**: magic, version, and the trailing checksum are
//!   verified before anything is decoded; torn, truncated, or
//!   bit-flipped files fail loudly with the file path.
//!
//! A completed run does not delete its store — the last checkpoint
//! remains on disk (resuming it simply finishes quickly). Callers own
//! the directory's lifecycle.

use std::hash::Hasher;
use std::path::{Path, PathBuf};

use crate::codec::{DeltaCodec, DeltaCtx, StateCodec};
use crate::digest::Fingerprinter;
use crate::fault::{self, EngineError, FaultOp, FaultPlane};
use crate::spill::{FrontierStates, SpillCodec};
use crate::stats::ExploreStats;
use crate::visited::ShardedVisited;

/// File-format magic: identifies a checkpoint file before anything is
/// decoded.
const MAGIC: &[u8; 8] = b"SLXCKPT\0";

/// Current checkpoint file-format version. Bumped on **any** byte-layout
/// change; loaders reject every other version. Version 2 added the
/// lifetime `elapsed` microseconds to the stats section, so resumed runs
/// report cumulative wall-clock (and truthful states/sec) instead of
/// restarting the clock. Version 3 added the lifetime fault-plane
/// counters (`faults_injected`/`io_retries`/`degraded_levels`) so a
/// resume keeps reporting the faults absorbed by earlier segments.
/// Version 4 took the per-step event log out of every
/// `slx_memory::System` record (frontier and findings). Version 5 made
/// every register table of an obstruction-free-consensus process a
/// `(first id, length)` run and dropped the process's completed-rounds
/// counter. Version 6 changed what the persisted digests mean, not a
/// byte: a `slx_memory::Memory` contributes its slot fold to a state
/// key, so a version-5 visited set would dedup nothing a version-6 run
/// computes.
const FORMAT_VERSION: u64 = 6;

/// The checkpoint file inside a store directory. The store is a single
/// file: one atomic rename commits the whole image.
const FILE_NAME: &str = "slx-checkpoint.bin";

/// The run configuration a checkpoint was taken under, persisted in the
/// file header and validated — field by field, hard error on mismatch —
/// before a resume touches any state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RunHeader {
    /// Fingerprint of the state space: its Rust type name plus the exact
    /// digests of the run's initial states, in order. Guards against
    /// resuming one exploration's checkpoint under a different space or
    /// different initial states.
    pub(crate) space_fingerprint: u128,
    /// The run's spill codec — also the frontier section's encoding.
    pub(crate) codec: SpillCodec,
    /// Whether symmetry reduction was active.
    pub(crate) symmetry: bool,
    /// Visited-set shard count (the snapshot is laid out per shard).
    pub(crate) shards: usize,
    /// The run's configuration budget ([`crate::Checker::with_budget`]).
    pub(crate) config_budget: Option<usize>,
    /// The run's frontier memory budget
    /// ([`crate::Checker::with_mem_budget`]).
    pub(crate) mem_budget: Option<usize>,
}

impl RunHeader {
    fn encode(&self, out: &mut Vec<u8>) {
        self.space_fingerprint.encode(out);
        let tag: u8 = match self.codec {
            SpillCodec::Delta => 0,
            SpillCodec::Plain => 1,
            SpillCodec::Replay => 2,
        };
        tag.encode(out);
        self.symmetry.encode(out);
        self.shards.encode(out);
        self.config_budget.encode(out);
        self.mem_budget.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<RunHeader> {
        Some(RunHeader {
            space_fingerprint: u128::decode(input)?,
            codec: match u8::decode(input)? {
                0 => SpillCodec::Delta,
                1 => SpillCodec::Plain,
                2 => SpillCodec::Replay,
                _ => return None,
            },
            symmetry: bool::decode(input)?,
            shards: usize::decode(input)?,
            config_budget: Option::decode(input)?,
            mem_budget: Option::decode(input)?,
        })
    }

    /// Validates this (stored) header against the resuming run's
    /// configuration. Any mismatch is a typed
    /// [`EngineError::CheckpointConfigMismatch`] naming the field and
    /// both values — resuming under a different configuration can only
    /// produce a silently wrong answer, so it is never attempted. (The
    /// legacy panicking entry points render the error, preserving the
    /// pinned message text.)
    fn validate(&self, current: &RunHeader, path: &Path) -> Result<(), EngineError> {
        fn mismatch(path: &Path, field: &str, stored: String, current: String) -> EngineError {
            EngineError::CheckpointConfigMismatch {
                path: path.to_path_buf(),
                field: field.to_string(),
                stored,
                current,
            }
        }
        if self.space_fingerprint != current.space_fingerprint {
            return Err(mismatch(
                path,
                "the state space (space type + initial-state digests)",
                format!("fingerprint {:#034x}", self.space_fingerprint),
                format!("fingerprint {:#034x}", current.space_fingerprint),
            ));
        }
        if self.codec != current.codec {
            return Err(mismatch(
                path,
                "the spill codec",
                format!("{:?}", self.codec),
                format!("{:?}", current.codec),
            ));
        }
        if self.symmetry != current.symmetry {
            return Err(mismatch(
                path,
                "symmetry reduction",
                format!("{:?}", self.symmetry),
                format!("{:?}", current.symmetry),
            ));
        }
        if self.shards != current.shards {
            return Err(mismatch(
                path,
                "the visited-set shard count",
                self.shards.to_string(),
                current.shards.to_string(),
            ));
        }
        if self.config_budget != current.config_budget {
            return Err(mismatch(
                path,
                "the configuration budget",
                format!("{:?}", self.config_budget),
                format!("{:?}", current.config_budget),
            ));
        }
        if self.mem_budget != current.mem_budget {
            return Err(mismatch(
                path,
                "the frontier memory budget",
                format!("{:?}", self.mem_budget),
                format!("{:?}", current.mem_budget),
            ));
        }
        Ok(())
    }
}

/// A checkpoint image loaded from disk, ready to be re-installed into
/// the level loop.
#[derive(Debug)]
pub(crate) struct LoadedCheckpoint<S, F> {
    /// The BFS level the image was taken at (about to be expanded).
    pub(crate) depth: usize,
    /// The resumable statistics counters (only the persisted fields are
    /// meaningful; backend fields are re-set by the resuming run).
    pub(crate) stats: ExploreStats,
    /// Findings accumulated before the checkpoint.
    pub(crate) findings: Vec<F>,
    /// The visited set, rebuilt from the per-shard digest section.
    pub(crate) visited: ShardedVisited,
    /// The exact-digest side set of symmetry runs (empty otherwise).
    pub(crate) exact_seen: Vec<u128>,
    /// The frontier about to be expanded, in push order.
    pub(crate) frontier: Vec<S>,
}

/// The on-disk checkpoint store of one exploration: a directory holding
/// a single atomically-committed image (see the module docs for the
/// layout and compatibility rules).
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    every: usize,
    plane: FaultPlane,
}

/// Builds the typed error for a structurally damaged file.
/// Configuration *mismatches* get the richer [`RunHeader::validate`]
/// report; this is for files that cannot be decoded at all.
fn corrupt(path: &Path, what: &str) -> EngineError {
    EngineError::CheckpointCorrupt {
        path: path.to_path_buf(),
        what: what.to_string(),
    }
}

impl CheckpointStore {
    pub(crate) fn new(dir: PathBuf, every: usize) -> CheckpointStore {
        // A kill landing mid-commit (after `create` but before the
        // rename) strands the staging sibling; nothing else ever reads
        // it, so opening the store is the place to reclaim it. Best
        // effort: the file usually does not exist, and a commit recreates
        // it from scratch anyway.
        let _ = std::fs::remove_file(dir.join(format!("{FILE_NAME}.tmp")));
        CheckpointStore {
            dir,
            every,
            plane: FaultPlane::disabled(),
        }
    }

    /// Routes this store's commit I/O through a fault-injection plane.
    pub(crate) fn with_fault_plane(mut self, plane: FaultPlane) -> CheckpointStore {
        self.plane = plane;
        self
    }

    /// The level-boundary cadence: a checkpoint is written every this
    /// many BFS levels.
    pub(crate) fn every(&self) -> usize {
        self.every
    }

    /// The checkpoint file inside `dir`.
    #[must_use]
    pub fn file_path(dir: &Path) -> PathBuf {
        dir.join(FILE_NAME)
    }

    /// Whether `dir` holds a committed checkpoint — the "resume or start
    /// fresh?" probe for crash-restart drivers.
    #[must_use]
    pub fn exists(dir: &Path) -> bool {
        CheckpointStore::file_path(dir).is_file()
    }

    /// Commits one checkpoint image with atomic rename semantics — the
    /// [`CheckpointStore::encode_image`] +
    /// [`CheckpointStore::commit_bytes`] pair the checker itself runs,
    /// synchronously, at a level boundary (`BfsRun::checkpoint_if_due`
    /// says why).
    ///
    /// # Panics
    ///
    /// Panics (naming the path) if the image cannot be written.
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn write<S: DeltaCodec, F: StateCodec>(
        &self,
        header: &RunHeader,
        depth: usize,
        stats: &ExploreStats,
        findings: &[F],
        visited: &[Vec<u128>],
        exact_seen: &[u128],
        frontier: &[S],
    ) {
        let buf = CheckpointStore::encode_image(
            header,
            depth,
            stats,
            findings,
            visited,
            exact_seen,
            &frontier.into(),
        );
        self.commit_bytes(&buf)
            .unwrap_or_else(|err| panic!("{err}"));
    }

    /// Serializes one complete checkpoint image — the pure-CPU half of a
    /// commit (measures as free next to the exploration itself).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn encode_image<S: DeltaCodec, F: StateCodec>(
        header: &RunHeader,
        depth: usize,
        stats: &ExploreStats,
        findings: &[F],
        visited: &[Vec<u128>],
        exact_seen: &[u128],
        frontier: &FrontierStates<'_, S>,
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        FORMAT_VERSION.encode(&mut buf);
        header.encode(&mut buf);
        depth.encode(&mut buf);
        encode_stats(stats, &mut buf);
        findings.len().encode(&mut buf);
        for finding in findings {
            finding.encode(&mut buf);
        }
        visited.len().encode(&mut buf);
        for shard in visited {
            shard.len().encode(&mut buf);
            for digest in shard {
                digest.encode(&mut buf);
            }
        }
        exact_seen.len().encode(&mut buf);
        for digest in exact_seen {
            digest.encode(&mut buf);
        }
        frontier.len().encode(&mut buf);
        match header.codec {
            SpillCodec::Delta => {
                let mut prev: Option<&S> = None;
                for state in frontier {
                    state.encode_delta(prev, &mut buf);
                    prev = Some(state);
                }
            }
            // A checkpoint sits at a level boundary: the replay codec's
            // parent generation is consumed, so frontier states persist
            // in its literal (self-contained) record form — which is the
            // plain encoding.
            SpillCodec::Plain | SpillCodec::Replay => {
                for state in frontier {
                    state.encode(&mut buf);
                }
            }
        }
        let mut fp = Fingerprinter::new();
        fp.write(&buf);
        let checksum = fp.digest().0;
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Durably lands an encoded image: staged to a `.tmp` sibling,
    /// fdatasynced, then renamed over the live file, so a crash at any
    /// point leaves either the previous or the new committed image —
    /// never a torn one.
    ///
    /// Transient (EINTR-class) failures — injected or real — are
    /// absorbed by bounded retry; each attempt recreates the staging
    /// file from scratch (`File::create` truncates), so torn bytes from
    /// a failed attempt never survive into the committed image. A
    /// persistent failure removes the staging sibling and surfaces as
    /// [`EngineError::CheckpointIo`]; the previously committed image is
    /// untouched either way.
    pub(crate) fn commit_bytes(&self, buf: &[u8]) -> Result<(), EngineError> {
        let live = CheckpointStore::file_path(&self.dir);
        let tmp = self.dir.join(format!("{FILE_NAME}.tmp"));
        let plane = &self.plane;
        fault::with_io_retries(plane, || {
            let mut file = std::fs::File::create(&tmp)?;
            fault::faulty_write_all(plane, FaultOp::CkptWrite, &mut file, buf)?;
            // fdatasync: the data plus the metadata needed to read it
            // back (the size) must be durable before the rename makes
            // the image the live one; timestamps and the rest of the
            // inode are not part of the commit, and skipping them saves
            // a journal flush per image on ext4.
            if let Some(kind) = plane.inject(FaultOp::CkptSync) {
                return Err(kind.to_io_error());
            }
            file.sync_data()?;
            drop(file);
            if let Some(kind) = plane.inject(FaultOp::CkptRename) {
                return Err(kind.to_io_error());
            }
            std::fs::rename(&tmp, &live)
        })
        .map_err(|err| {
            // Leave no torn staging file behind a failed commit.
            let _ = std::fs::remove_file(&tmp);
            EngineError::CheckpointIo {
                path: live.clone(),
                op: "commit",
                msg: err.to_string(),
            }
        })
    }

    /// Loads and fully validates the committed checkpoint in `dir`,
    /// panicking on any failure — the legacy entry point the panicking
    /// `run` surfaces use. The message is the rendered
    /// [`EngineError`], so the pinned text is identical to what
    /// [`CheckpointStore::try_load`] callers report.
    ///
    /// # Panics
    ///
    /// Panics (naming the path) on a missing or structurally damaged
    /// file — bad magic, unsupported format version, checksum mismatch,
    /// undecodable section — and (naming the field and both values)
    /// when the stored run configuration differs from `expected`.
    #[cfg(test)]
    pub(crate) fn load<S: DeltaCodec + Clone, F: StateCodec>(
        dir: &Path,
        expected: &RunHeader,
    ) -> LoadedCheckpoint<S, F> {
        CheckpointStore::try_load(dir, expected).unwrap_or_else(|err| panic!("{err}"))
    }

    /// Loads and fully validates the committed checkpoint in `dir`.
    ///
    /// The error distinguishes the three distinct operator responses:
    /// [`EngineError::CheckpointCorrupt`] and
    /// [`EngineError::CheckpointVersion`] mean "re-run from scratch"
    /// (the file itself is unusable),
    /// [`EngineError::CheckpointConfigMismatch`] means "wrong
    /// configuration — resume with the original one" (the file is
    /// fine), and [`EngineError::CheckpointIo`] is an environment
    /// problem (missing file, permissions).
    pub(crate) fn try_load<S: DeltaCodec + Clone, F: StateCodec>(
        dir: &Path,
        expected: &RunHeader,
    ) -> Result<LoadedCheckpoint<S, F>, EngineError> {
        let path = CheckpointStore::file_path(dir);
        let bytes = std::fs::read(&path).map_err(|err| EngineError::CheckpointIo {
            path: path.clone(),
            op: "read",
            msg: err.to_string(),
        })?;
        if bytes.len() < MAGIC.len() + 16 {
            return Err(corrupt(
                &path,
                "file is shorter than its magic and checksum",
            ));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 16);
        let stored_checksum = u128::from_le_bytes(trailer.try_into().expect("16-byte trailer"));
        let mut fp = Fingerprinter::new();
        fp.write(body);
        if fp.digest().0 != stored_checksum {
            return Err(corrupt(
                &path,
                "checksum mismatch (torn or bit-flipped file)",
            ));
        }
        if &body[..MAGIC.len()] != MAGIC {
            return Err(corrupt(&path, "bad magic (not a checkpoint file)"));
        }
        let mut input = &body[MAGIC.len()..];
        let Some(version) = u64::decode(&mut input) else {
            return Err(corrupt(&path, "unreadable format version"));
        };
        if version != FORMAT_VERSION {
            return Err(EngineError::CheckpointVersion {
                path: path.clone(),
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let Some(header) = RunHeader::decode(&mut input) else {
            return Err(corrupt(&path, "unreadable run-config header"));
        };
        header.validate(expected, &path)?;
        let Some(depth) = usize::decode(&mut input) else {
            return Err(corrupt(&path, "unreadable depth"));
        };
        let Some(stats) = decode_stats(&mut input) else {
            return Err(corrupt(&path, "unreadable statistics"));
        };
        let Some(finding_count) = usize::decode(&mut input) else {
            return Err(corrupt(&path, "unreadable finding count"));
        };
        let mut findings = Vec::with_capacity(finding_count.min(input.len()));
        for _ in 0..finding_count {
            let Some(finding) = F::decode(&mut input) else {
                return Err(corrupt(&path, "undecodable finding"));
            };
            findings.push(finding);
        }
        let Some(shard_count) = usize::decode(&mut input) else {
            return Err(corrupt(&path, "unreadable shard count"));
        };
        let mut visited = Vec::with_capacity(shard_count.min(input.len()));
        for _ in 0..shard_count {
            let Some(len) = usize::decode(&mut input) else {
                return Err(corrupt(&path, "unreadable visited-shard length"));
            };
            let mut shard = Vec::with_capacity(len.min(input.len()));
            for _ in 0..len {
                let Some(digest) = u128::decode(&mut input) else {
                    return Err(corrupt(&path, "undecodable visited digest"));
                };
                shard.push(digest);
            }
            visited.push(shard);
        }
        // The header's count is the one already validated against this
        // run; the section must agree with it and route every digest to
        // the shard that stores it.
        let visited =
            ShardedVisited::from_snapshot(visited).filter(|set| set.shard_count() == header.shards);
        let Some(visited) = visited else {
            return Err(corrupt(
                &path,
                "visited digests do not belong to their shards",
            ));
        };
        let Some(exact_count) = usize::decode(&mut input) else {
            return Err(corrupt(&path, "unreadable exact-seen count"));
        };
        let mut exact_seen = Vec::with_capacity(exact_count.min(input.len()));
        for _ in 0..exact_count {
            let Some(digest) = u128::decode(&mut input) else {
                return Err(corrupt(&path, "undecodable exact-seen digest"));
            };
            exact_seen.push(digest);
        }
        let Some(frontier_count) = usize::decode(&mut input) else {
            return Err(corrupt(&path, "unreadable frontier count"));
        };
        let mut frontier: Vec<S> = Vec::with_capacity(frontier_count.min(input.len()));
        let mut ctx = DeltaCtx::new();
        for _ in 0..frontier_count {
            let state = match header.codec {
                SpillCodec::Delta => S::decode_delta(frontier.last(), &mut input, &mut ctx),
                SpillCodec::Plain | SpillCodec::Replay => S::decode(&mut input),
            };
            let Some(state) = state else {
                return Err(corrupt(&path, "undecodable frontier state"));
            };
            frontier.push(state);
        }
        if !input.is_empty() {
            return Err(corrupt(&path, "trailing bytes after the frontier section"));
        }
        Ok(LoadedCheckpoint {
            depth,
            stats,
            findings,
            visited,
            exact_seen,
            frontier,
        })
    }
}

/// The `ExploreStats` counters a resume restores (backend fields —
/// threads, shards, budgets — are re-set by the resuming run). The
/// persisted `elapsed` is the run's **lifetime** wall-clock at commit
/// time, in microseconds: the resuming segment adds its own time on top,
/// so `configs` and `elapsed` stay a matched lifetime pair and
/// `states_per_sec()` never inflates after a resume.
fn encode_stats(stats: &ExploreStats, out: &mut Vec<u8>) {
    stats.configs.encode(out);
    stats.transitions.encode(out);
    stats.dedup_hits.encode(out);
    stats.orbit_hits.encode(out);
    stats.peak_frontier.encode(out);
    stats.peak_resident_states.encode(out);
    stats.peak_resident_bytes.encode(out);
    stats.spilled_chunks.encode(out);
    stats.spilled_bytes.encode(out);
    stats.replayed_parents.encode(out);
    stats.truncated.encode(out);
    stats.checkpoints_written.encode(out);
    stats.faults_injected.encode(out);
    stats.io_retries.encode(out);
    stats.degraded_levels.encode(out);
    stats.shard_occupancy.encode(out);
    u64::try_from(stats.elapsed.as_micros())
        .unwrap_or(u64::MAX)
        .encode(out);
}

fn decode_stats(input: &mut &[u8]) -> Option<ExploreStats> {
    Some(ExploreStats {
        configs: usize::decode(input)?,
        transitions: usize::decode(input)?,
        dedup_hits: usize::decode(input)?,
        orbit_hits: usize::decode(input)?,
        peak_frontier: usize::decode(input)?,
        peak_resident_states: usize::decode(input)?,
        peak_resident_bytes: usize::decode(input)?,
        spilled_chunks: usize::decode(input)?,
        spilled_bytes: u64::decode(input)?,
        replayed_parents: usize::decode(input)?,
        truncated: bool::decode(input)?,
        checkpoints_written: usize::decode(input)?,
        faults_injected: u64::decode(input)?,
        io_retries: u64::decode(input)?,
        degraded_levels: usize::decode(input)?,
        shard_occupancy: Vec::decode(input)?,
        elapsed: std::time::Duration::from_micros(u64::decode(input)?),
        ..ExploreStats::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir() -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "slx-ckpt-unit-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("test checkpoint dir");
        dir
    }

    fn sample_header(codec: SpillCodec) -> RunHeader {
        RunHeader {
            space_fingerprint: 0xfeed_beef,
            codec,
            symmetry: true,
            shards: 4,
            config_budget: Some(10_000),
            mem_budget: None,
        }
    }

    fn sample_stats() -> ExploreStats {
        ExploreStats {
            configs: 123,
            transitions: 456,
            dedup_hits: 78,
            orbit_hits: 9,
            peak_frontier: 44,
            truncated: true,
            checkpoints_written: 2,
            faults_injected: 5,
            io_retries: 3,
            degraded_levels: 1,
            shard_occupancy: vec![30, 31, 32, 30],
            elapsed: std::time::Duration::from_micros(1_234_567),
            ..ExploreStats::default()
        }
    }

    fn write_sample(store: &CheckpointStore, codec: SpillCodec) {
        store.write::<u64, u64>(
            &sample_header(codec),
            7,
            &sample_stats(),
            &[11, 22],
            &[vec![1, 2], vec![1 << 126], vec![], vec![3 << 126]],
            &[5, 6],
            &[100, 101, 102],
        );
    }

    #[test]
    fn round_trips_through_every_codec_arm() {
        for codec in [SpillCodec::Delta, SpillCodec::Plain, SpillCodec::Replay] {
            let dir = test_dir();
            let store = CheckpointStore::new(dir.clone(), 2);
            assert!(!CheckpointStore::exists(&dir));
            write_sample(&store, codec);
            assert!(CheckpointStore::exists(&dir));
            let loaded = CheckpointStore::load::<u64, u64>(&dir, &sample_header(codec));
            assert_eq!(loaded.depth, 7, "{codec:?}");
            assert_eq!(loaded.stats, sample_stats(), "{codec:?}");
            assert_eq!(loaded.findings, vec![11, 22], "{codec:?}");
            assert_eq!(loaded.visited.snapshot()[1], [1u128 << 126], "{codec:?}");
            assert_eq!(loaded.exact_seen, vec![5, 6], "{codec:?}");
            assert_eq!(loaded.frontier, vec![100, 101, 102], "{codec:?}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn rewrites_replace_the_committed_image_atomically() {
        let dir = test_dir();
        let store = CheckpointStore::new(dir.clone(), 1);
        write_sample(&store, SpillCodec::Delta);
        store.write::<u64, u64>(
            &sample_header(SpillCodec::Delta),
            9,
            &sample_stats(),
            &[],
            &[vec![], vec![], vec![], vec![]],
            &[],
            &[7],
        );
        let loaded = CheckpointStore::load::<u64, u64>(&dir, &sample_header(SpillCodec::Delta));
        assert_eq!(loaded.depth, 9);
        assert_eq!(loaded.frontier, vec![7]);
        // No stray staging file survives a commit.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, vec![FILE_NAME.to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_staging_files_are_reclaimed() {
        // A kill mid-commit leaves `slx-checkpoint.bin.tmp` behind; the
        // rename never happened, so nothing would ever unlink it. Opening
        // the store must reclaim it, and a full commit cycle must leave
        // only the live file.
        let dir = test_dir();
        let tmp = dir.join(format!("{FILE_NAME}.tmp"));
        std::fs::write(&tmp, b"torn half-written image").unwrap();
        let store = CheckpointStore::new(dir.clone(), 1);
        assert!(!tmp.exists(), "open must reclaim the stale staging file");
        write_sample(&store, SpillCodec::Delta);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, vec![FILE_NAME.to_string()]);
        // The commit is unaffected: the image still loads.
        let _ = CheckpointStore::load::<u64, u64>(&dir, &sample_header(SpillCodec::Delta));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn load_panic_message(dir: &Path, expected: &RunHeader) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            CheckpointStore::load::<u64, u64>(dir, expected)
        }))
        .expect_err("load must panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("panic payload is a message")
    }

    #[test]
    fn mismatched_configuration_is_rejected_field_by_field() {
        let dir = test_dir();
        let store = CheckpointStore::new(dir.clone(), 1);
        write_sample(&store, SpillCodec::Delta);
        let stored = sample_header(SpillCodec::Delta);
        type Mutation = (fn(&mut RunHeader), &'static str);
        let cases: [Mutation; 6] = [
            (|h| h.space_fingerprint ^= 1, "state space"),
            (|h| h.codec = SpillCodec::Replay, "spill codec"),
            (|h| h.symmetry = false, "symmetry"),
            (|h| h.shards = 8, "shard count"),
            (|h| h.config_budget = None, "configuration budget"),
            (|h| h.mem_budget = Some(512), "memory budget"),
        ];
        for (mutate, field) in cases {
            let mut current = stored.clone();
            mutate(&mut current);
            let message = load_panic_message(&dir, &current);
            assert!(
                message.contains("different configuration") && message.contains(field),
                "field {field}: {message}"
            );
        }
        // The unmutated header still loads.
        let _ = CheckpointStore::load::<u64, u64>(&dir, &stored);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_files_fail_the_checksum_with_the_path_named() {
        let dir = test_dir();
        let store = CheckpointStore::new(dir.clone(), 1);
        write_sample(&store, SpillCodec::Delta);
        let path = CheckpointStore::file_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let message = load_panic_message(&dir, &sample_header(SpillCodec::Delta));
        assert!(message.contains("checksum mismatch"), "{message}");
        assert!(message.contains(&path.display().to_string()), "{message}");
        // Truncation is also caught (by the checksum or the length gate).
        std::fs::write(&path, &bytes[..10]).unwrap();
        let message = load_panic_message(&dir, &sample_header(SpillCodec::Delta));
        assert!(message.contains("corrupt checkpoint"), "{message}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_versions_are_rejected() {
        let dir = test_dir();
        let store = CheckpointStore::new(dir.clone(), 1);
        write_sample(&store, SpillCodec::Delta);
        let path = CheckpointStore::file_path(&dir);
        let bytes = std::fs::read(&path).unwrap();
        // Rebuild the file with another version varint (FORMAT_VERSION
        // is small enough to be a single byte) and a recomputed
        // checksum: a future version, and the previous one (whose
        // visited digests this build would never match).
        assert_eq!(bytes[MAGIC.len()], FORMAT_VERSION as u8);
        for foreign in [0x7f, FORMAT_VERSION as u8 - 1] {
            let mut body = bytes[..bytes.len() - 16].to_vec();
            body[MAGIC.len()] = foreign;
            let mut fp = Fingerprinter::new();
            fp.write(&body);
            body.extend_from_slice(&fp.digest().0.to_le_bytes());
            std::fs::write(&path, &body).unwrap();
            let message = load_panic_message(&dir, &sample_header(SpillCodec::Delta));
            assert!(
                message.contains(&format!("format version {foreign}")),
                "{message}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
