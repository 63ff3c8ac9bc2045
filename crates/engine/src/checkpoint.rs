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
//! # On-disk layout (format version 8)
//!
//! A store directory holds two files: a small **image**,
//! `slx-checkpoint.bin`, rewritten whole at every commit, and an
//! append-only **visited log**, `slx-visited-<generation>.log`, that
//! grows by the digests each commit admits. All image integers use the
//! [`crate::StateCodec`] wire format (LEB128 varints, `usize` as `u64`,
//! `u128` as 16 little-endian bytes), so both files are independent of
//! the platform word size and endianness:
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
//! visited log          the log's generation (which names its file), its
//!                      committed length in bytes, and the checksum
//!                      (u128) of that prefix, record by record (format
//!                      version 7: the visited and exact-seen sets moved
//!                      out of the image into the log; format versions
//!                      6 and 8 changed what a digest means — a
//!                      `slx_memory::Memory` contributes its slot fold to
//!                      a state key, and an obstruction-free-consensus
//!                      process hashes packed words)
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
//! The log is a bare sequence of fixed-width records, in the order the
//! merge admitted them: a visited digest is 16 little-endian bytes; a
//! symmetry run tags every record with one leading byte (`0` visited,
//! `1` exact-seen), since it logs its exact-digest side set too. Each
//! commit appends one segment — the records admitted since the previous
//! commit — so at every commit the log of a run without symmetry is
//! exactly 16 bytes per visited digest.
//!
//! # Commit and compatibility rules
//!
//! - **Log first, then an atomic image rename**: a commit appends its
//!   segment to the log and fdatasyncs it, then writes the image to
//!   `slx-checkpoint.bin.tmp`, fdatasyncs that, and renames it over the
//!   live image. The committed image plus the log prefix it names is at
//!   every instant a complete store: a crash anywhere leaves the
//!   previous or the new commit, never a torn one.
//! - **Torn tails**: log bytes past the committed length are what a
//!   kill between a log sync and its image's rename (or a failed
//!   append) leaves. Resume ignores them; the next append cuts the log
//!   back to the committed length before it writes.
//! - **Generations**: a store that does not continue its own directory's
//!   log — a fresh run, or a resume redirected by
//!   [`crate::Checker::with_checkpoint`] to another directory — starts
//!   a new generation, one past every log in the directory, so it never
//!   cuts a log the live image still names. Its first segment holds the
//!   whole visited set (a redirected resume writes the set it restored),
//!   and after its first rename it deletes every other log in the
//!   directory. A resume in place appends to the image's own log.
//! - **Versioning**: any change to the byte layout of either file bumps
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
//! - **Integrity**: the image's magic, version and trailing checksum,
//!   then the log prefix's checksum, are verified before anything is
//!   decoded; a log that is missing, shorter than its committed length,
//!   repeats a digest, or disagrees with the image's shard occupancy is
//!   refused too. Torn, truncated, or bit-flipped stores fail loudly
//!   with the file path.
//!
//! A completed run does not delete its store — the last checkpoint
//! remains on disk (resuming it simply finishes quickly). Callers own
//! the directory's lifecycle.

use std::hash::Hasher;
use std::io::{Seek, SeekFrom};
use std::path::{Path, PathBuf};

use crate::codec::{DeltaCodec, DeltaCtx, StateCodec};
use crate::detmap::DetHashSet;
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
/// computes. Version 7 moved the visited and exact-seen sets out of the
/// image into the append-only visited log the image names. Version 8,
/// like 6, changed what a digest means, not a byte: an
/// obstruction-free-consensus process hashes packed words, so a
/// version-7 visited log would dedup nothing a version-8 run computes.
/// Version 9 took the commit and abort counters out of both
/// transactional-memory processes (`GlobalVersionTm`, `AgpTm`): each
/// record is one zero byte shorter per counter while the counter is
/// zero, a delta record is the plain one, and their digests moved.
const FORMAT_VERSION: u64 = 9;

/// The image file inside a store directory.
const FILE_NAME: &str = "slx-checkpoint.bin";

/// A visited log's file name is `slx-visited-<generation>.log`.
const LOG_PREFIX: &str = "slx-visited-";
const LOG_SUFFIX: &str = ".log";

/// The tags of a symmetry run's log records.
const TAG_VISITED: u8 = 0;
const TAG_EXACT: u8 = 1;

fn log_name(generation: u64) -> String {
    format!("{LOG_PREFIX}{generation}{LOG_SUFFIX}")
}

/// The generation a directory entry names, if it is a visited log.
fn log_generation(name: &std::ffi::OsStr) -> Option<u64> {
    name.to_str()?
        .strip_prefix(LOG_PREFIX)?
        .strip_suffix(LOG_SUFFIX)?
        .parse()
        .ok()
}

/// The visited logs in `dir`, by generation. A missing or unreadable
/// directory has none.
fn logs_in(dir: &Path) -> Vec<(u64, PathBuf)> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|entry| {
                    let entry = entry.ok()?;
                    Some((log_generation(&entry.file_name())?, entry.path()))
                })
                .collect()
        })
        .unwrap_or_default()
}

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
    /// Whether symmetry reduction was active (its runs log tagged
    /// records).
    pub(crate) symmetry: bool,
    /// Visited-set shard count (the log replays into this many shards).
    pub(crate) shards: usize,
    /// The run's configuration budget ([`crate::Checker::with_budget`]).
    pub(crate) config_budget: Option<usize>,
    /// The run's frontier memory budget
    /// ([`crate::Checker::with_mem_budget`]).
    pub(crate) mem_budget: Option<usize>,
}

impl RunHeader {
    /// Bytes per log record: a digest, behind a tag in symmetry runs.
    fn record_width(&self) -> usize {
        if self.symmetry {
            17
        } else {
            16
        }
    }

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

/// How far a visited log is committed: the generation that names its
/// file, the committed length, and the running checksum of that prefix
/// (fed one record per `write`, so the writer and a resume fold the same
/// calls whatever the segment boundaries).
#[derive(Debug, Clone)]
struct LogMark {
    generation: u64,
    len: u64,
    checksum: Fingerprinter,
}

/// A checkpoint image loaded from disk, with the log prefix it names
/// replayed, ready to be re-installed into the level loop.
#[derive(Debug)]
pub(crate) struct LoadedCheckpoint<S, F> {
    /// The BFS level the image was taken at (about to be expanded).
    pub(crate) depth: usize,
    /// The resumable statistics counters (only the persisted fields are
    /// meaningful; backend fields are re-set by the resuming run).
    pub(crate) stats: ExploreStats,
    /// Findings accumulated before the checkpoint.
    pub(crate) findings: Vec<F>,
    /// The visited set, replayed from the log.
    pub(crate) visited: ShardedVisited,
    /// The exact-digest side set of symmetry runs (empty otherwise).
    pub(crate) exact_seen: DetHashSet<u128>,
    /// The frontier about to be expanded, in push order.
    pub(crate) frontier: Vec<S>,
    /// Where the image's log is committed to.
    mark: LogMark,
    /// The committed log prefix itself.
    log: Vec<u8>,
}

/// The on-disk checkpoint store of one exploration: a directory holding
/// an atomically-committed image and the visited log it names (see the
/// module docs for the layout and compatibility rules).
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    every: usize,
    plane: FaultPlane,
    header: RunHeader,
    /// The log this store appends to, as far as its last commit.
    mark: LogMark,
    /// The records admitted since the last commit: the log's next
    /// segment.
    pending: Vec<u8>,
    /// Whether this store has renamed an image in yet. Its
    /// first rename supersedes every other log in the directory.
    renamed: bool,
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
    /// Opens the store in `dir` for a run under `header`, on a new log
    /// generation: one past every log the directory holds, so no log a
    /// live image names is ever cut. (A resume in place adopts the
    /// image's log instead, see [`CheckpointStore::resume`].)
    pub(crate) fn new(dir: PathBuf, every: usize, header: RunHeader) -> CheckpointStore {
        // A kill landing mid-commit (after `create` but before the
        // rename) strands the staging sibling; nothing else ever reads
        // it, so opening the store is the place to reclaim it. Best
        // effort: the file usually does not exist, and a commit recreates
        // it from scratch anyway.
        let _ = std::fs::remove_file(dir.join(format!("{FILE_NAME}.tmp")));
        let generation = logs_in(&dir)
            .iter()
            .map(|(g, _)| g.saturating_add(1))
            .max()
            .unwrap_or(0);
        CheckpointStore {
            dir,
            every,
            plane: FaultPlane::disabled(),
            header,
            mark: LogMark {
                generation,
                len: 0,
                checksum: Fingerprinter::new(),
            },
            pending: Vec::new(),
            renamed: false,
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

    /// Logs a digest the visited set just admitted.
    pub(crate) fn admit_visited(&mut self, digest: u128) {
        if self.header.symmetry {
            self.pending.push(TAG_VISITED);
        }
        self.pending.extend_from_slice(&digest.to_le_bytes());
    }

    /// Logs a digest a symmetry run's exact-seen side set just admitted.
    pub(crate) fn admit_exact(&mut self, digest: u128) {
        self.pending.push(TAG_EXACT);
        self.pending.extend_from_slice(&digest.to_le_bytes());
    }

    /// Loads the committed store in `dir` for this store's run. Resuming
    /// in place, the store adopts the image's log and appends to it;
    /// redirected to another directory, it stages the restored log as
    /// its own first segment and never touches `dir` again.
    pub(crate) fn resume<S: DeltaCodec + Clone, F: StateCodec>(
        &mut self,
        dir: &Path,
    ) -> Result<LoadedCheckpoint<S, F>, EngineError> {
        let mut image = CheckpointStore::try_load(dir, &self.header)?;
        let log = std::mem::take(&mut image.log);
        if dir == self.dir {
            self.mark = image.mark.clone();
        } else {
            self.pending = log;
        }
        Ok(image)
    }

    /// Commits one checkpoint: appends the records admitted since the
    /// last commit to the log and fdatasyncs it, then commits an image
    /// naming the longer prefix ([`CheckpointStore::commit_bytes`]).
    /// Synchronous, at a level boundary (`BfsRun::checkpoint_if_due`
    /// says why).
    pub(crate) fn commit<S: DeltaCodec, F: StateCodec>(
        &mut self,
        depth: usize,
        stats: &ExploreStats,
        findings: &[F],
        frontier: &FrontierStates<'_, S>,
    ) -> Result<(), EngineError> {
        let mut mark = self.mark.clone();
        for record in self.pending.chunks(self.header.record_width()) {
            mark.checksum.write(record);
        }
        mark.len += self.pending.len() as u64;
        self.append()?;
        if !self.renamed {
            // The log may be new: its directory entry must be durable
            // before an image names it.
            std::fs::File::open(&self.dir)
                .and_then(|dir| dir.sync_all())
                .map_err(|err| EngineError::CheckpointIo {
                    path: self.dir.clone(),
                    op: "commit",
                    msg: err.to_string(),
                })?;
        }
        let image =
            CheckpointStore::encode_image(&self.header, depth, stats, findings, &mark, frontier);
        self.commit_bytes(&image)?;
        self.mark = mark;
        self.pending.clear();
        if !self.renamed {
            self.renamed = true;
            for (generation, path) in logs_in(&self.dir) {
                if generation != self.mark.generation {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        Ok(())
    }

    /// Durably appends the pending segment at the committed length,
    /// through the same write and sync seams as the image. Every attempt
    /// first cuts the log back to the committed length, dropping a failed
    /// attempt's torn bytes and any tail a kill left past the image, so
    /// the log never grows past the committed length plus one segment.
    fn append(&self) -> Result<(), EngineError> {
        let path = self.dir.join(log_name(self.mark.generation));
        let plane = &self.plane;
        fault::with_io_retries(plane, || {
            let mut file = std::fs::OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)?;
            file.set_len(self.mark.len)?;
            file.seek(SeekFrom::End(0))?;
            fault::faulty_write_all(plane, FaultOp::CkptWrite, &mut file, &self.pending)?;
            if let Some(kind) = plane.inject(FaultOp::CkptSync) {
                return Err(kind.to_io_error());
            }
            file.sync_data()
        })
        .map_err(|err| EngineError::CheckpointIo {
            path: path.clone(),
            op: "commit",
            msg: err.to_string(),
        })
    }

    /// Serializes one checkpoint image: header, counters, findings, the
    /// log mark and the frontier — the frontier's delta records are
    /// nearly all of it. Not free: on the served depth-88 consensus
    /// request (44 commits, 2-core Xeon VM, ext4) encoding takes ≈ 47 ms
    /// of a request's ≈ 96 ms of commits, the image's write + fdatasync +
    /// rename ≈ 28 ms and the log append + fdatasync ≈ 19 ms.
    fn encode_image<S: DeltaCodec, F: StateCodec>(
        header: &RunHeader,
        depth: usize,
        stats: &ExploreStats,
        findings: &[F],
        log: &LogMark,
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
        log.generation.encode(&mut buf);
        log.len.encode(&mut buf);
        log.checksum.digest().0.encode(&mut buf);
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
    fn commit_bytes(&self, buf: &[u8]) -> Result<(), EngineError> {
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

    /// Loads and fully validates the committed checkpoint in `dir`.
    ///
    /// The error distinguishes the three distinct operator responses:
    /// [`EngineError::CheckpointCorrupt`] and
    /// [`EngineError::CheckpointVersion`] mean "re-run from scratch"
    /// (the store itself is unusable — a missing log included),
    /// [`EngineError::CheckpointConfigMismatch`] means "wrong
    /// configuration — resume with the original one" (the store is
    /// fine), and [`EngineError::CheckpointIo`] is an environment
    /// problem (missing image, permissions).
    fn try_load<S: DeltaCodec + Clone, F: StateCodec>(
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
        let (Some(generation), Some(log_len), Some(log_checksum)) = (
            u64::decode(&mut input),
            u64::decode(&mut input),
            u128::decode(&mut input),
        ) else {
            return Err(corrupt(&path, "unreadable visited-log mark"));
        };
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

        let path = dir.join(log_name(generation));
        let mut log = match std::fs::read(&path) {
            Ok(log) => log,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                return Err(corrupt(
                    &path,
                    "the image names a visited log that is missing",
                ));
            }
            Err(err) => {
                return Err(EngineError::CheckpointIo {
                    path,
                    op: "read",
                    msg: err.to_string(),
                })
            }
        };
        let width = header.record_width();
        let Some(len) = usize::try_from(log_len)
            .ok()
            .filter(|&len| len <= log.len())
        else {
            return Err(corrupt(
                &path,
                "the log is shorter than its committed length",
            ));
        };
        if len % width != 0 {
            return Err(corrupt(&path, "the committed length splits a record"));
        }
        // Past the committed length lies a torn tail — a kill between a
        // log sync and its image's rename. The next append cuts it.
        log.truncate(len);
        let mut checksum = Fingerprinter::new();
        for record in log.chunks_exact(width) {
            checksum.write(record);
        }
        if checksum.digest().0 != log_checksum {
            return Err(corrupt(
                &path,
                "checksum mismatch (torn or bit-flipped log)",
            ));
        }
        let mut visited = ShardedVisited::new(header.shards);
        let mut exact_seen = DetHashSet::default();
        for record in log.chunks_exact(width) {
            let (tag, digest) = record.split_at(width - 16);
            let digest = u128::from_le_bytes(digest.try_into().expect("16-byte digest"));
            let fresh = match tag {
                [] | [TAG_VISITED] => visited.insert(digest),
                [TAG_EXACT] => exact_seen.insert(digest),
                _ => return Err(corrupt(&path, "unknown record tag")),
            };
            if !fresh {
                return Err(corrupt(&path, "the log repeats a digest"));
            }
        }
        if visited.occupancy() != stats.shard_occupancy {
            return Err(corrupt(
                &path,
                "the log disagrees with the image's shard occupancy",
            ));
        }
        Ok(LoadedCheckpoint {
            depth,
            stats,
            findings,
            visited,
            exact_seen,
            frontier,
            mark: LogMark {
                generation,
                len: log_len,
                checksum,
            },
            log,
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
            // The four sample digests' shards (their top two bits).
            shard_occupancy: vec![2, 1, 0, 1],
            elapsed: std::time::Duration::from_micros(1_234_567),
            ..ExploreStats::default()
        }
    }

    fn open(dir: &Path, codec: SpillCodec) -> CheckpointStore {
        CheckpointStore::new(dir.to_path_buf(), 1, sample_header(codec))
    }

    fn commit(store: &mut CheckpointStore, depth: usize, findings: &[u64], frontier: &[u64]) {
        store
            .commit::<u64, u64>(depth, &sample_stats(), findings, &frontier.into())
            .unwrap_or_else(|err| panic!("{err}"));
    }

    fn write_sample(store: &mut CheckpointStore) {
        for digest in [1, 2, 1 << 126, 3 << 126] {
            store.admit_visited(digest);
        }
        for digest in [5, 6] {
            store.admit_exact(digest);
        }
        commit(store, 7, &[11, 22], &[100, 101, 102]);
    }

    fn load(dir: &Path, expected: &RunHeader) -> LoadedCheckpoint<u64, u64> {
        CheckpointStore::try_load(dir, expected).unwrap_or_else(|err| panic!("{err}"))
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn round_trips_through_every_codec_arm() {
        for codec in [SpillCodec::Delta, SpillCodec::Plain, SpillCodec::Replay] {
            let dir = test_dir();
            let mut store = open(&dir, codec);
            assert!(!CheckpointStore::exists(&dir));
            write_sample(&mut store);
            assert!(CheckpointStore::exists(&dir));
            let loaded = load(&dir, &sample_header(codec));
            assert_eq!(loaded.depth, 7, "{codec:?}");
            assert_eq!(loaded.stats, sample_stats(), "{codec:?}");
            assert_eq!(loaded.findings, vec![11, 22], "{codec:?}");
            assert_eq!(loaded.visited.len(), 4, "{codec:?}");
            assert!(loaded.visited.contains(1 << 126), "{codec:?}");
            assert_eq!(loaded.exact_seen, [5, 6].into_iter().collect(), "{codec:?}");
            assert_eq!(loaded.frontier, vec![100, 101, 102], "{codec:?}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn rewrites_replace_the_committed_image_atomically() {
        let dir = test_dir();
        let mut store = open(&dir, SpillCodec::Delta);
        write_sample(&mut store);
        commit(&mut store, 9, &[], &[7]);
        let loaded = load(&dir, &sample_header(SpillCodec::Delta));
        assert_eq!(loaded.depth, 9);
        assert_eq!(loaded.frontier, vec![7]);
        // The log carries over; no stray staging file survives a commit.
        assert_eq!(loaded.visited.len(), 4);
        assert_eq!(names(&dir), [FILE_NAME.to_string(), log_name(0)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_staging_files_are_reclaimed() {
        // A kill mid-commit leaves `slx-checkpoint.bin.tmp` behind; the
        // rename never happened, so nothing would ever unlink it. Opening
        // the store must reclaim it, and a full commit cycle must leave
        // only the live image and its log.
        let dir = test_dir();
        let tmp = dir.join(format!("{FILE_NAME}.tmp"));
        std::fs::write(&tmp, b"torn half-written image").unwrap();
        let mut store = open(&dir, SpillCodec::Delta);
        assert!(!tmp.exists(), "open must reclaim the stale staging file");
        write_sample(&mut store);
        assert_eq!(names(&dir), [FILE_NAME.to_string(), log_name(0)]);
        // The commit is unaffected: the image still loads.
        let _ = load(&dir, &sample_header(SpillCodec::Delta));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_new_store_starts_a_new_log_generation_and_sweeps_the_old_after_its_rename() {
        let dir = test_dir();
        write_sample(&mut open(&dir, SpillCodec::Delta));
        std::fs::write(dir.join(log_name(3)), b"a stranded later generation").unwrap();
        let mut store = open(&dir, SpillCodec::Delta);
        assert_eq!(store.mark.generation, 4);
        assert_eq!(load(&dir, &sample_header(SpillCodec::Delta)).depth, 7);
        write_sample(&mut store);
        assert_eq!(names(&dir), [FILE_NAME.to_string(), log_name(4)]);
        assert_eq!(
            load(&dir, &sample_header(SpillCodec::Delta)).visited.len(),
            4
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn load_panic_message(dir: &Path, expected: &RunHeader) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| load(dir, expected)))
            .expect_err("load must panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("panic payload is a message")
    }

    #[test]
    fn mismatched_configuration_is_rejected_field_by_field() {
        let dir = test_dir();
        write_sample(&mut open(&dir, SpillCodec::Delta));
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
        let _ = load(&dir, &stored);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_files_fail_the_checksum_with_the_path_named() {
        let dir = test_dir();
        write_sample(&mut open(&dir, SpillCodec::Delta));
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
        write_sample(&mut open(&dir, SpillCodec::Delta));
        let path = CheckpointStore::file_path(&dir);
        let bytes = std::fs::read(&path).unwrap();
        // Rebuild the file with another version varint (FORMAT_VERSION
        // is small enough to be a single byte) and a recomputed
        // checksum: a future version, and the previous one (whose
        // visited digests sit in the image, not in a log).
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
