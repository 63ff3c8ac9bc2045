//! The disk-backed BFS frontier.
//!
//! Since the visited set became fingerprint-only (PR 1) and sharded
//! (PR 2), the frontier `Vec` is the only kernel structure that retains
//! full configurations between levels — the structure that caps how far
//! past RAM an exploration can go. [`SpillFrontier`] removes that cap:
//! under a memory budget it keeps only a bounded decoded window resident,
//! serializing cold chunks to a temp file and streaming them back chunk
//! by chunk during level expansion, so the peak number of decoded states
//! resident at once is bounded regardless of level size.
//!
//! Records hold **states only**: a frontier entry's digest is consumed by
//! the visited set before the entry is pushed and never read again, so
//! spilling it would cost 16 bytes per record of pure dead weight (it did,
//! until the replay refactor).
//!
//! Three record encodings ([`SpillCodec`]):
//!
//! - **Delta** (the default): each record delta-encodes against its chunk
//!   predecessor ([`crate::DeltaCodec`]) — consecutive records of a level
//!   are siblings sharing layouts, memory words, and history prefixes, so
//!   unchanged fields collapse to a few skip/copy varints.
//! - **Plain**: every record self-contained (the PR 3 baseline, kept as
//!   the comparison arm).
//! - **Replay**: records store *(parent state, child action indices)*
//!   instead of the children themselves, and the replay **regenerates**
//!   the children by re-expanding the parent (one digest-free
//!   [`crate::StateSpace::expand`] per record) — no per-child codec work
//!   at all. One group record covers a parent's whole contiguous run of
//!   spilled children; chunk-first parents stay self-contained while
//!   subsequent parents delta-encode against their chunk predecessor, so
//!   only parents ever touch the codec.
//!
//! The first record of every chunk is self-contained, so chunks decode
//! independently and replay order stays deterministic.
//!
//! The chunk window is **lazily encoded, byte-exact at the boundary**:
//! pushes stay decoded until the window's estimated record bytes (state
//! count × the run's measured record size, kept current by periodic
//! sonde measurements) reach the chunk budget; records then materialize
//! one at a time into the window buffer, whose exact length triggers the
//! flush. Levels that fit the budget never touch the codec at all —
//! under the previous eager scheme the encode of never-flushed windows
//! was the single largest spill cost — while the flushed-chunk byte
//! bound still holds record-exactly, even when encoded state size grows
//! across a level (accumulating histories), where the original
//! first-record state-count probe overshot.
//!
//! Determinism is preserved by construction: the size estimate and the
//! chunk boundaries are pure functions of the (deterministic) push
//! history, chunks are replayed in push order, re-expansion is pure (a
//! [`StateSpace`] contract), and the no-spill mode stores the plain
//! `Vec` with zero overhead — so merge order, verdicts, and every
//! `ExploreStats` count are identical with spilling on or off and across
//! all three codecs. The differential suites pin exactly that
//! equivalence.
//!
//! Spill files are self-cleaning: each frontier owns at most one temp
//! file, deleted when the frontier (or its chunk iterator) is dropped —
//! including on early stop and on panic unwind.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::codec::{DeltaCodec, DeltaCtx, StateCodec};
use crate::fault::{self, EngineError, FaultOp, FaultPlane};

/// How spill-chunk records are encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpillCodec {
    /// Each record delta-encoded against its chunk predecessor
    /// ([`crate::DeltaCodec`]); the first record of a chunk is
    /// self-contained. The default: siblings share most of their
    /// structure, so deltas cut both spill volume and decode cost.
    #[default]
    Delta,
    /// Every record self-contained (the PR 3 baseline). Kept as the
    /// comparison arm for the differential suites and the repo
    /// benchmark's `engine.spill.plain_x`.
    Plain,
    /// Recompute-from-parent: a record stores a parent state plus the
    /// push-order indices of its spilled children, and the replay
    /// regenerates the children by re-expanding the parent (one shared
    /// digest-free [`crate::StateSpace::expand`] per record). Only
    /// parents are ever encoded or decoded, which removes per-child codec
    /// work from the spill hot path entirely — the classic
    /// external-memory reconstruction trade.
    Replay,
}

/// Regenerates spilled successors for [`SpillCodec::Replay`] chunks: the
/// checker supplies one per BFS level, closing over the space and the
/// parents' expansion depth. `regenerate` must append the successors that
/// a full expansion of `parent` would have pushed at the (strictly
/// increasing) `indices`, in index order.
pub(crate) trait Regenerator<S> {
    fn regenerate(&self, parent: &S, indices: &[usize], out: &mut Vec<S>);
}

impl<S, F: Fn(&S, &[usize], &mut Vec<S>)> Regenerator<S> for F {
    fn regenerate(&self, parent: &S, indices: &[usize], out: &mut Vec<S>) {
        self(parent, indices, out);
    }
}

/// Resolved spill settings for one exploration run.
#[derive(Debug, Clone)]
pub(crate) struct SpillConfig {
    /// Byte size a chunk aims for (the decoded window's encoded bytes are
    /// measured against it). Each of the two frontiers alive at a time
    /// (the level being consumed and the level being built) keeps its
    /// window at this size plus at most one record (one group record for
    /// the replay codec, whose groups never split across chunks).
    pub(crate) chunk_bytes: usize,
    /// Record encoding for spilled chunks.
    pub(crate) codec: SpillCodec,
    /// The run's shared file pool.
    pub(crate) pool: Rc<RefCell<SpillPool>>,
    /// The run's fault-injection seam (disarmed by default — one inline
    /// `None` check per I/O call).
    pub(crate) plane: FaultPlane,
}

impl SpillConfig {
    pub(crate) fn new(chunk_bytes: usize, codec: SpillCodec, dir: PathBuf) -> SpillConfig {
        SpillConfig {
            chunk_bytes,
            codec,
            pool: Rc::new(RefCell::new(SpillPool {
                dir,
                free: Vec::new(),
                encoded_states: 0,
                encoded_bytes: 0,
                sonde_state_bytes: INITIAL_STATE_BYTES,
                plane: FaultPlane::disabled(),
            })),
            plane: FaultPlane::disabled(),
        }
    }

    /// Routes this run's spill I/O through a fault-injection plane.
    pub(crate) fn with_fault_plane(mut self, plane: FaultPlane) -> SpillConfig {
        self.pool.borrow_mut().plane = plane.clone();
        self.plane = plane;
        self
    }
}

/// The spill files of one exploration run, plus the run's record-size
/// feedback.
///
/// At most two frontiers are alive at a time, so the pool holds at most
/// two files, leased to spilling frontiers and recycled (truncated to
/// zero) when a frontier's replay is dropped. Reuse matters: creating and
/// unlinking a temp file per BFS level costs directory operations that
/// measurably drag the spill arm on a real filesystem. The files are
/// unlinked when the pool itself drops — end of run or panic unwind.
///
/// The feedback counters make the **lazy window encode** possible: a
/// frontier defers encoding pushed records until the window's *estimated*
/// size reaches the chunk budget, and the estimate is the run's measured
/// average encoded bytes per state. Levels that fit the budget therefore
/// never touch the codec at all — with the eager scheme they paid a full
/// encode per push only to discard the buffer. The counters are a pure
/// function of the (deterministic) push history, so chunk boundaries
/// remain deterministic.
#[derive(Debug)]
pub(crate) struct SpillPool {
    dir: PathBuf,
    free: Vec<SpillFile>,
    /// States covered by records encoded so far this run.
    encoded_states: u64,
    /// Bytes those records encoded to.
    encoded_bytes: u64,
    /// Most recent sonde measurement: the per-state byte size of a
    /// recent record, scratch-encoded just for measurement (every
    /// [`SONDE_EVERY`]-th pushed state). Keeps the estimate tracking
    /// record-size *growth* across a level, which the cumulative average
    /// alone would lag behind — the accumulating-history shape that
    /// broke the original state-count window.
    sonde_state_bytes: u64,
    /// The run's fault-injection seam, carried into created files (the
    /// unlink seam lives on the file's drop).
    plane: FaultPlane,
}

/// Pessimistic per-state record-size estimate before any feedback exists:
/// low enough that encoding starts promptly on record-heavy states, high
/// enough that a handful of tiny test records do not defer forever.
const INITIAL_STATE_BYTES: u64 = 64;

/// One in this many pushed states is sonde-encoded to keep the lazy
/// window's size estimate current. The sonde is the lazy scheme's whole
/// residual encode cost on levels that never spill.
const SONDE_EVERY: usize = 8;

impl SpillPool {
    fn lease(&mut self) -> std::io::Result<SpillFile> {
        match self.free.pop() {
            Some(file) => Ok(file),
            None => SpillFile::create(&self.dir, self.plane.clone()),
        }
    }

    fn recycle(&mut self, file: SpillFile) {
        // Drop the bytes but keep the inode for the next frontier.
        if file.file.set_len(0).is_ok() {
            self.free.push(file);
        }
    }

    /// The per-state record-size estimate the lazy window works against:
    /// the larger of the run's measured average and the latest sonde, so
    /// both long-run drift and sudden growth err toward encoding early
    /// (the safe direction for the memory bound).
    fn est_state_bytes(&self) -> u64 {
        let avg = if self.encoded_states == 0 {
            0
        } else {
            self.encoded_bytes.div_ceil(self.encoded_states)
        };
        avg.max(self.sonde_state_bytes).max(1)
    }

    fn record_feedback(&mut self, states: usize, bytes: usize) {
        self.encoded_states += states as u64;
        self.encoded_bytes += bytes as u64;
    }
}

/// Descriptor of one chunk written to the spill file.
#[derive(Debug, Clone, Copy)]
struct ChunkMeta {
    offset: u64,
    len: usize,
    /// States the chunk replays to (group records count their children).
    count: usize,
}

/// Decode-site context: which file, which chunk, which codec. A corrupt
/// record aborts the run (a damaged frontier cannot be explored soundly),
/// and the report must name all three — "corrupt spill record" alone is
/// useless against a persistent store holding many files.
struct ChunkContext<'a> {
    path: &'a std::path::Path,
    chunk_index: usize,
    codec: SpillCodec,
}

impl ChunkContext<'_> {
    /// Aborts the replay, naming the record part that failed to decode
    /// plus the file path, chunk index, and active codec.
    fn corrupt(&self, what: &str) -> ! {
        panic!(
            "corrupt spill record in chunk {} of {}: bad {what} ({:?} codec)",
            self.chunk_index,
            self.path.display(),
            self.codec,
        )
    }
}

/// Decodes one chunk's records — its first `yield_count` states — onto
/// `states`, regenerating replay groups through `regen`. Shared by the
/// consuming replay ([`FrontierChunks::next_chunk`]) and the
/// non-destructive checkpoint snapshot
/// ([`SpillFrontier::snapshot_states`]), so both fail corrupt records
/// with the same fully-named report.
fn decode_chunk<S: DeltaCodec + Clone>(
    context: &ChunkContext<'_>,
    mut input: &[u8],
    yield_count: usize,
    ctx: &mut DeltaCtx,
    regen: &impl Regenerator<S>,
    regenerated_parents: &mut usize,
    states: &mut Vec<S>,
) {
    // `states` may already hold earlier chunks (the snapshot accumulates);
    // chunk-relative positions keep the delta chain and the yield count
    // anchored to *this* chunk, whose first record is self-contained.
    let base = states.len();
    match context.codec {
        SpillCodec::Replay => {
            let mut prev_parent: Option<S> = None;
            let mut indices: Vec<usize> = Vec::new();
            while states.len() - base < yield_count {
                let Some(kind) = usize::decode(&mut input) else {
                    context.corrupt("record kind");
                };
                if kind == 0 {
                    let Some(state) = S::decode(&mut input) else {
                        context.corrupt("literal state");
                    };
                    states.push(state);
                    continue;
                }
                let Some(parent) = S::decode_delta(prev_parent.as_ref(), &mut input, ctx) else {
                    context.corrupt("parent state");
                };
                // A truncation point mid-group regenerates only the
                // surviving prefix of the indices; the loop then exits,
                // so the unread tail of the chunk needs no stream
                // alignment.
                let take = kind.min(yield_count - (states.len() - base));
                indices.clear();
                let mut index = 0usize;
                for nth in 0..take {
                    let Some(gap) = usize::decode(&mut input) else {
                        context.corrupt("successor index");
                    };
                    index = if nth == 0 { gap } else { index + gap };
                    indices.push(index);
                }
                *regenerated_parents += 1;
                regen.regenerate(&parent, &indices, states);
                prev_parent = Some(parent);
            }
        }
        SpillCodec::Delta => {
            for _ in 0..yield_count {
                let prev = if states.len() > base {
                    states.last()
                } else {
                    None
                };
                let Some(state) = S::decode_delta(prev, &mut input, ctx) else {
                    context.corrupt("delta state");
                };
                states.push(state);
            }
        }
        SpillCodec::Plain => {
            for _ in 0..yield_count {
                let Some(state) = S::decode(&mut input) else {
                    context.corrupt("state");
                };
                states.push(state);
            }
        }
    }
}

/// An open spill file that removes itself from disk on drop (normal
/// completion, early stop, and panic unwind alike).
#[derive(Debug)]
struct SpillFile {
    file: File,
    path: PathBuf,
    plane: FaultPlane,
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        // An injected unlink fault models EINTR on the unlink syscall:
        // it is unconditionally retried (a spill file must never leak),
        // so the seam exercises only the retry accounting — the file is
        // removed either way.
        if self.plane.inject(FaultOp::SpillUnlink).is_some() {
            self.plane.note_retry();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Process-wide sequence number making spill file names unique.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

impl SpillFile {
    fn create(dir: &std::path::Path, plane: FaultPlane) -> std::io::Result<SpillFile> {
        loop {
            if let Some(kind) = plane.inject(FaultOp::SpillCreate) {
                return Err(kind.to_io_error());
            }
            let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("slx-spill-{}-{seq}.bin", std::process::id()));
            match OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(file) => return Ok(SpillFile { file, path, plane }),
                Err(err) if err.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(err) => return Err(err),
            }
        }
    }
}

/// One BFS level's frontier of states, optionally backed by disk.
///
/// Without a [`SpillConfig`] this is a plain `Vec` (the kernel's historic
/// behaviour, zero overhead). With one, pushed states accumulate in a
/// decoded tail window that is encoded **lazily**: nothing touches the
/// codec until the window's *estimated* record bytes (state count times
/// the run's measured average record size — see
/// [`SpillPool::est_state_bytes`]) reach the chunk byte budget. Under
/// pressure, records materialize one at a time into the window buffer,
/// whose length is an exact byte measure; the moment it reaches the
/// budget, the encoded prefix is appended to a self-cleaning temp file
/// and the window restarts. Levels that fit the budget therefore do no
/// codec work at all (the eager scheme paid a full encode per push only
/// to discard the buffer), and the final window of every level — which
/// replays its decoded states directly — never encodes either. Chunk
/// boundaries are still byte-exact and the estimate is a pure function
/// of the deterministic push history, so replay order, chunk contents,
/// and every statistic remain deterministic.
///
/// States enter either one at a time ([`SpillFrontier::push`] — initial
/// states, encoded as self-contained "literal" records under the replay
/// codec) or as one parent's contiguous run of accepted successors
/// ([`SpillFrontier::push_group`] — the shape the replay codec stores as
/// a single *(parent, indices)* record).
#[derive(Debug)]
pub(crate) struct SpillFrontier<S> {
    /// The decoded states: everything (no-spill mode) or the unflushed
    /// tail window (spill mode; its prefix may already be encoded into
    /// the spill buffer).
    resident: Vec<S>,
    spill: Option<SpillState<S>>,
    /// States pushed.
    total: usize,
    /// Truncation point from [`SpillFrontier::truncate`].
    limit: Option<usize>,
}

/// Deferred replay-record shape for states not yet encoded: a literal
/// (initial state, no parent) or a parent group. Group action indices
/// live in the shared [`SpillState::pending_indices`] ring, consumed in
/// record order, so deferring costs no per-group allocation.
#[derive(Debug)]
struct ReplayMeta<S> {
    /// `None` for a literal record (the state itself sits in `resident`).
    parent: Option<S>,
    /// States the record covers (1 for a literal). Groups pop exactly
    /// this many action indices from the shared ring; literals pop none.
    count: usize,
}

#[derive(Debug)]
struct SpillState<S> {
    config: SpillConfig,
    /// Encoded records of `resident[..encoded]`; its length is the exact
    /// byte measure lazy encoding works against.
    buf: Vec<u8>,
    /// How many leading `resident` states have records in `buf`.
    encoded: usize,
    /// Replay codec: deferred record metas for `resident[encoded..]`.
    pending: VecDeque<ReplayMeta<S>>,
    /// Replay codec: the deferred groups' action indices, in record
    /// order.
    pending_indices: VecDeque<usize>,
    /// Replay codec: the parent of the current chunk's most recent
    /// encoded group, the delta anchor for the next one. `None` at chunk
    /// start, so chunk-first parents stay self-contained.
    prev_parent: Option<S>,
    /// Largest window byte measure observed (the resident-byte bound the
    /// memory budget is supposed to enforce).
    peak_window_bytes: usize,
    /// Chunks already written to `file`, in push order.
    chunks: Vec<ChunkMeta>,
    /// Leased from the pool on the first spill, so small levels never
    /// touch disk even in spill mode; recycled on drop.
    file: Option<SpillFile>,
    /// Byte length of this frontier's file contents so far (the next
    /// write offset).
    spilled_bytes: u64,
    /// Pushed states until the next sonde measurement fires (0 = the
    /// next push sondes).
    sonde_countdown: usize,
    /// Reused sonde buffer; never written anywhere, only measured.
    scratch: Vec<u8>,
    /// Set when a flush hit a persistent out-of-space error: the level
    /// finishes resident (no further encode or flush work), bounded by
    /// the [`fault::DEGRADED_CAP_CHUNKS`] hard cap.
    degraded: bool,
}

impl<S> Drop for SpillState<S> {
    fn drop(&mut self) {
        if let Some(file) = self.file.take() {
            self.config.pool.borrow_mut().recycle(file);
        }
    }
}

impl<S: DeltaCodec + Clone> SpillFrontier<S> {
    /// A frontier; `config: None` keeps every state decoded and resident.
    pub(crate) fn new(config: Option<SpillConfig>) -> Self {
        SpillFrontier {
            resident: Vec::new(),
            spill: config.map(|config| SpillState {
                config,
                buf: Vec::new(),
                encoded: 0,
                pending: VecDeque::new(),
                pending_indices: VecDeque::new(),
                prev_parent: None,
                peak_window_bytes: 0,
                chunks: Vec::new(),
                file: None,
                spilled_bytes: 0,
                sonde_countdown: 0,
                scratch: Vec::new(),
                degraded: false,
            }),
            total: 0,
            limit: None,
        }
    }

    /// Appends one state with no parent context (initial states). Push
    /// order is replay order. Fails only on a persistent spill I/O error
    /// ([`EngineError::SpillIo`]) or past the degraded-mode cap
    /// ([`EngineError::SpillExhausted`]); no-spill frontiers are
    /// infallible.
    pub(crate) fn push(&mut self, state: S) -> Result<(), EngineError> {
        debug_assert!(self.limit.is_none(), "push after truncate is undefined");
        self.total += 1;
        self.resident.push(state);
        let Some(spill) = &mut self.spill else {
            return Ok(());
        };
        if spill.config.codec == SpillCodec::Replay {
            spill.pending.push_back(ReplayMeta {
                parent: None,
                count: 1,
            });
        }
        if spill.sonde_due(1) {
            spill.scratch.clear();
            let state = self.resident.last().expect("just pushed");
            match spill.config.codec {
                SpillCodec::Plain => state.encode(&mut spill.scratch),
                SpillCodec::Delta => {
                    let prev = self
                        .resident
                        .len()
                        .checked_sub(2)
                        .map(|i| &self.resident[i]);
                    state.encode_delta(prev, &mut spill.scratch);
                }
                // A literal record: marker plus the self-contained state.
                SpillCodec::Replay => {
                    0usize.encode(&mut spill.scratch);
                    state.encode(&mut spill.scratch);
                }
            }
            spill.report_sonde(1);
        }
        self.settle()
    }

    /// Appends one parent's contiguous run of accepted successors:
    /// `children` (drained) with their push-order action `indices` in the
    /// parent's expansion. Only the replay codec keeps the parent — as a
    /// deferred record, and later as the next group's delta anchor — so
    /// it comes as a [`Cow`]: the checker's inline path is done with the
    /// parent and hands it over, its windowed path lends it (workers are
    /// still reading the chunk) and the replay arm alone pays a clone.
    ///
    /// Under [`SpillCodec::Replay`] the run is stored as one *(parent,
    /// indices)* group record — the children themselves are never
    /// encoded, and a replay regenerates them by re-expanding the parent.
    /// Groups never split across chunks, so a parent is re-expanded at
    /// most once per frontier replay. Under the other codecs (and without
    /// a spill config) this is equivalent to pushing each child
    /// individually.
    pub(crate) fn push_group(
        &mut self,
        parent: Cow<'_, S>,
        children: &mut Vec<S>,
        indices: &[usize],
    ) -> Result<(), EngineError> {
        debug_assert_eq!(children.len(), indices.len(), "one index per child");
        debug_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "action indices are push-order positions, strictly increasing"
        );
        if children.is_empty() {
            return Ok(());
        }
        match &mut self.spill {
            None => {
                self.total += children.len();
                self.resident.append(children);
                Ok(())
            }
            Some(spill) if spill.config.codec == SpillCodec::Replay => {
                debug_assert!(self.limit.is_none(), "push after truncate is undefined");
                self.total += children.len();
                if spill.sonde_due(children.len()) {
                    spill.scratch.clear();
                    children.len().encode(&mut spill.scratch);
                    // Any plausible sibling works as the sonde's delta
                    // anchor; the newest deferred parent (else the
                    // encoded chain's anchor) is one push away.
                    let anchor = spill
                        .pending
                        .back()
                        .and_then(|meta| meta.parent.as_ref())
                        .or(spill.prev_parent.as_ref());
                    parent.encode_delta(anchor, &mut spill.scratch);
                    let mut prev_index = 0usize;
                    for &index in indices {
                        (index - prev_index).encode(&mut spill.scratch);
                        prev_index = index;
                    }
                    spill.report_sonde(children.len());
                }
                spill.pending.push_back(ReplayMeta {
                    parent: Some(parent.into_owned()),
                    count: children.len(),
                });
                spill.pending_indices.extend(indices.iter().copied());
                self.resident.append(children);
                self.settle()
            }
            Some(_) => {
                for child in children.drain(..) {
                    self.push(child)?;
                }
                Ok(())
            }
        }
    }

    /// Materializes deferred records while the window's estimated byte
    /// measure sits at or above the chunk budget, flushing the encoded
    /// prefix whenever its exact size reaches the budget. One record is
    /// encoded per iteration, so the buffer never overshoots the budget
    /// by more than a single record even when record sizes grow across a
    /// level.
    ///
    /// A frontier that has degraded (persistent out-of-space on a flush)
    /// does no further codec or disk work; it only polices the resident
    /// hard cap, failing with [`EngineError::SpillExhausted`] once the
    /// level's estimated resident bytes exceed
    /// [`fault::DEGRADED_CAP_CHUNKS`] chunk budgets.
    fn settle(&mut self) -> Result<(), EngineError> {
        let Some(spill) = &mut self.spill else {
            return Ok(());
        };
        loop {
            if spill.degraded {
                return spill.check_degraded_cap(self.resident.len());
            }
            let unencoded = self.resident.len() - spill.encoded;
            if unencoded == 0 {
                return Ok(());
            }
            let avg = spill.config.pool.borrow().est_state_bytes();
            let window_est = spill.buf.len() as u64 + unencoded as u64 * avg;
            if window_est < spill.config.chunk_bytes as u64 {
                return Ok(());
            }
            spill.encode_next(&self.resident);
            if spill.buf.len() >= spill.config.chunk_bytes {
                spill.flush_encoded(&mut self.resident)?;
            }
        }
    }

    /// States the frontier will replay (pushes, capped by any truncation).
    pub(crate) fn len(&self) -> usize {
        self.limit.map_or(self.total, |limit| limit.min(self.total))
    }

    /// Whether no state will be replayed.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Caps replay at the first `len` states — the same prefix whether the
    /// tail is resident or already spilled (the budget-truncation
    /// regression suite pins this), including mid-group under the replay
    /// codec (only the first surviving indices regenerate).
    pub(crate) fn truncate(&mut self, len: usize) {
        self.limit = Some(self.limit.map_or(len, |limit| limit.min(len)));
    }

    /// Chunks written to disk by this frontier.
    pub(crate) fn spilled_chunks(&self) -> usize {
        self.spill.as_ref().map_or(0, |spill| spill.chunks.len())
    }

    /// Bytes written to disk by this frontier.
    pub(crate) fn spilled_bytes(&self) -> u64 {
        self.spill.as_ref().map_or(0, |spill| spill.spilled_bytes)
    }

    /// Largest encoded byte size the decoded window reached (0 without a
    /// spill config: unbudgeted frontiers never encode, so there is
    /// nothing to measure).
    pub(crate) fn peak_window_bytes(&self) -> usize {
        self.spill
            .as_ref()
            .map_or(0, |spill| spill.peak_window_bytes)
    }

    /// Whether this frontier hit a persistent out-of-space error and
    /// finished (or is finishing) its level resident.
    pub(crate) fn degraded(&self) -> bool {
        self.spill.as_ref().is_some_and(|spill| spill.degraded)
    }

    /// A non-destructive view of every state the frontier will replay, in
    /// push order — the checkpoint store's frontier image. Spilled chunks
    /// decode through the same record paths as
    /// [`FrontierChunks::next_chunk`], but with a fresh [`DeltaCtx`] and a
    /// caller-supplied regenerator, so snapshotting perturbs neither the
    /// frontier (still fully replayable afterwards) nor any replay
    /// statistics; the decoded resident tail is borrowed, not copied.
    ///
    /// Fails with [`EngineError::SpillIo`] if a spilled chunk cannot be
    /// read back past the bounded retry; panics (naming the file, chunk,
    /// and codec) if a read-back record fails to decode — a damaged
    /// spill file cannot be explored soundly.
    pub(crate) fn snapshot_states(
        &mut self,
        regen: &impl Regenerator<S>,
    ) -> Result<FrontierStates<'_, S>, EngineError> {
        let len = self.len();
        let mut spilled: Vec<S> = Vec::new();
        if let Some(spill) = &mut self.spill {
            let mut ctx = DeltaCtx::new();
            let mut regenerated = 0usize;
            let plane = spill.config.plane.clone();
            let metas = spill.chunks.clone();
            for (chunk_index, meta) in metas.iter().enumerate() {
                let file = spill.file.as_mut().expect("spilled chunks imply a file");
                let bytes = read_chunk_bytes(&plane, file, meta)?;
                let context = ChunkContext {
                    path: &file.path,
                    chunk_index,
                    codec: spill.config.codec,
                };
                decode_chunk(
                    &context,
                    &bytes,
                    meta.count,
                    &mut ctx,
                    regen,
                    &mut regenerated,
                    &mut spilled,
                );
            }
        }
        spilled.truncate(len);
        let resident = &self.resident[..self.resident.len().min(len - spilled.len())];
        Ok(FrontierStates { spilled, resident })
    }

    /// Consumes the frontier into its chunk replay. Chunks come back in
    /// push order; the spill file (if any) is deleted when the replay is
    /// dropped.
    pub(crate) fn into_chunks(mut self) -> FrontierChunks<S> {
        let remaining = self.len();
        FrontierChunks {
            resident: Some(std::mem::take(&mut self.resident)),
            spill: self.spill.take(),
            ctx: DeltaCtx::new(),
            next_chunk: 0,
            remaining,
            regenerated_parents: 0,
        }
    }
}

impl<S: DeltaCodec> SpillState<S> {
    /// Whether the record being pushed (covering `states` states) is due
    /// a sonde measurement, rearming the countdown if so.
    fn sonde_due(&mut self, states: usize) -> bool {
        if self.sonde_countdown < states {
            // The firing record itself counts toward the cadence.
            self.sonde_countdown = SONDE_EVERY - 1;
            true
        } else {
            self.sonde_countdown -= states;
            false
        }
    }

    /// Publishes the scratch buffer's measurement as the run's latest
    /// per-state record size.
    fn report_sonde(&mut self, states: usize) {
        self.config.pool.borrow_mut().sonde_state_bytes =
            (self.scratch.len().div_ceil(states) as u64).max(1);
    }

    /// Encodes the next deferred record onto the window buffer,
    /// delta-chained to its buffer predecessor (`None` for the first
    /// record of a chunk, which therefore stays self-contained — the
    /// chunk boundary invariant the replay relies on), and feeds the
    /// actual record size back to the pool's estimate.
    fn encode_next(&mut self, resident: &[S]) {
        let before = self.buf.len();
        let covered = match self.config.codec {
            SpillCodec::Delta => {
                let prev = self.encoded.checked_sub(1).map(|i| &resident[i]);
                resident[self.encoded].encode_delta(prev, &mut self.buf);
                1
            }
            SpillCodec::Plain => {
                resident[self.encoded].encode(&mut self.buf);
                1
            }
            SpillCodec::Replay => {
                let meta = self.pending.pop_front().expect("unencoded replay meta");
                match meta.parent {
                    // A literal record: zero children marker, then the
                    // state itself, self-contained (initial states have
                    // no parent to replay from).
                    None => {
                        0usize.encode(&mut self.buf);
                        resident[self.encoded].encode(&mut self.buf);
                    }
                    Some(parent) => {
                        meta.count.encode(&mut self.buf);
                        parent.encode_delta(self.prev_parent.as_ref(), &mut self.buf);
                        // First index absolute, then the (strictly
                        // positive) gaps.
                        let mut prev_index = 0usize;
                        for _ in 0..meta.count {
                            let index = self
                                .pending_indices
                                .pop_front()
                                .expect("index ring tracks metas");
                            (index - prev_index).encode(&mut self.buf);
                            prev_index = index;
                        }
                        self.prev_parent = Some(parent);
                    }
                }
                meta.count
            }
        };
        self.encoded += covered;
        self.config
            .pool
            .borrow_mut()
            .record_feedback(covered, self.buf.len() - before);
        self.peak_window_bytes = self.peak_window_bytes.max(self.buf.len());
    }

    /// Appends the window buffer (the records of `resident`'s encoded
    /// prefix) to the spill file as one chunk and drops that prefix from
    /// the decoded window.
    ///
    /// Transient (EINTR-class) errors — injected or real — get bounded
    /// retry; each attempt re-seeks to the chunk's start offset, so a
    /// torn partial write is simply overwritten by the next attempt and
    /// never becomes a live chunk. A persistent out-of-space error flips
    /// the frontier into degraded mode (the level finishes resident;
    /// already-committed chunks stay valid); any other persistent error
    /// is [`EngineError::SpillIo`].
    fn flush_encoded(&mut self, resident: &mut Vec<S>) -> Result<(), EngineError> {
        if self.encoded == 0 {
            return Ok(());
        }
        let plane = self.config.plane.clone();
        let write = fault::with_io_retries(&plane, || {
            if self.file.is_none() {
                self.file = Some(self.config.pool.borrow_mut().lease()?);
            }
            let file = self.file.as_mut().expect("just leased");
            // Seek explicitly: a recycled file's cursor is wherever the
            // previous frontier's replay left it — and a retry after a
            // torn write must restart from the chunk's own offset.
            file.file.seek(SeekFrom::Start(self.spilled_bytes))?;
            fault::faulty_write_all(&plane, FaultOp::SpillWrite, &mut file.file, &self.buf)
        });
        if let Err(err) = write {
            // A missing file means the lease (creation) itself failed.
            let (path, op) = match &self.file {
                Some(file) => (file.path.clone(), "write"),
                None => (self.config.pool.borrow().dir.clone(), "create"),
            };
            // Never strand the pooled file on the error path: an empty
            // lease goes straight back to the pool (hygiene holds even
            // under injected ENOSPC), while a file already holding
            // committed chunks of this frontier must stay — those chunks
            // are replayed at consume time.
            if self.chunks.is_empty() {
                if let Some(file) = self.file.take() {
                    self.config.pool.borrow_mut().recycle(file);
                }
            }
            if fault::is_out_of_space(&err) {
                // Graceful degradation: keep every unflushed state
                // resident and stop touching the disk. The encoded
                // buffer is discarded, not the states — `resident` still
                // holds everything past the committed chunks.
                self.degraded = true;
                self.buf.clear();
                self.encoded = 0;
                self.prev_parent = None;
                return self.check_degraded_cap(resident.len());
            }
            return Err(EngineError::SpillIo {
                path,
                op,
                msg: err.to_string(),
            });
        }
        self.chunks.push(ChunkMeta {
            offset: self.spilled_bytes,
            len: self.buf.len(),
            count: self.encoded,
        });
        self.spilled_bytes += self.buf.len() as u64;
        self.buf.clear();
        resident.drain(..self.encoded);
        self.encoded = 0;
        self.prev_parent = None;
        Ok(())
    }

    /// Polices the degraded-mode hard cap: a frontier that can no longer
    /// spill may keep at most [`fault::DEGRADED_CAP_CHUNKS`] chunk
    /// budgets of estimated resident bytes before the run fails typed,
    /// naming the spill directory and the cap.
    fn check_degraded_cap(&self, resident_states: usize) -> Result<(), EngineError> {
        let pool = self.config.pool.borrow();
        let budget = self
            .config
            .chunk_bytes
            .saturating_mul(fault::DEGRADED_CAP_CHUNKS);
        if resident_states as u64 * pool.est_state_bytes() > budget as u64 {
            return Err(EngineError::SpillExhausted {
                path: pool.dir.clone(),
                budget,
            });
        }
        Ok(())
    }
}

/// A frontier's states in push order, for reading only: the spilled
/// chunks decoded, then the decoded window borrowed where it lies.
#[derive(Debug)]
pub(crate) struct FrontierStates<'a, S> {
    spilled: Vec<S>,
    resident: &'a [S],
}

impl<S> FrontierStates<'_, S> {
    pub(crate) fn len(&self) -> usize {
        self.spilled.len() + self.resident.len()
    }
}

#[cfg(test)]
impl<'a, S> From<&'a [S]> for FrontierStates<'a, S> {
    fn from(resident: &'a [S]) -> Self {
        FrontierStates {
            spilled: Vec::new(),
            resident,
        }
    }
}

impl<'a, S> IntoIterator for &'a FrontierStates<'_, S> {
    type Item = &'a S;
    type IntoIter = std::iter::Chain<std::slice::Iter<'a, S>, std::slice::Iter<'a, S>>;

    fn into_iter(self) -> Self::IntoIter {
        self.spilled.iter().chain(self.resident)
    }
}

/// Reads one committed chunk's bytes back through the fault plane's
/// read seam, with bounded retry on transient errors; a persistent
/// failure is a typed [`EngineError::SpillIo`] naming the file.
fn read_chunk_bytes(
    plane: &FaultPlane,
    file: &mut SpillFile,
    meta: &ChunkMeta,
) -> Result<Vec<u8>, EngineError> {
    let mut bytes = vec![0u8; meta.len];
    fault::with_io_retries(plane, || {
        if let Some(kind) = plane.inject(FaultOp::SpillRead) {
            return Err(kind.to_io_error());
        }
        file.file.seek(SeekFrom::Start(meta.offset))?;
        file.file.read_exact(&mut bytes)
    })
    .map_err(|err| EngineError::SpillIo {
        path: file.path.clone(),
        op: "read",
        msg: err.to_string(),
    })?;
    Ok(bytes)
}

/// Consuming chunk replay of a [`SpillFrontier`]; owns (and on drop
/// deletes) the spill file.
#[derive(Debug)]
pub(crate) struct FrontierChunks<S> {
    /// The final decoded window (spill mode) or the whole frontier
    /// (no-spill mode), yielded after the file chunks.
    resident: Option<Vec<S>>,
    spill: Option<SpillState<S>>,
    /// The decode context of this replay.
    ctx: DeltaCtx,
    next_chunk: usize,
    /// States still to yield (pre-capped by any truncation).
    remaining: usize,
    /// Parents re-expanded by replay regeneration so far (one per group
    /// record reached).
    regenerated_parents: usize,
}

impl<S: DeltaCodec + Clone> FrontierChunks<S> {
    /// The next chunk of states, in push order, or `Ok(None)` when the
    /// replay (or its truncation point) is exhausted. `regen` regenerates
    /// [`SpillCodec::Replay`] group records and is never invoked for the
    /// other codecs.
    ///
    /// Fails with [`EngineError::SpillIo`] if the spill file cannot be
    /// read back past the bounded retry; panics if a read-back record
    /// fails to decode — a damaged spill file cannot be explored
    /// soundly, so the run fails loudly rather than silently dropping
    /// states.
    pub(crate) fn next_chunk(
        &mut self,
        regen: &impl Regenerator<S>,
    ) -> Result<Option<Vec<S>>, EngineError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        if let Some(spill) = &mut self.spill {
            if let Some(meta) = spill.chunks.get(self.next_chunk).copied() {
                let chunk_index = self.next_chunk;
                self.next_chunk += 1;
                let file = spill.file.as_mut().expect("spilled chunks imply a file");
                let plane = spill.config.plane.clone();
                let bytes = read_chunk_bytes(&plane, file, &meta)?;
                let yield_count = meta.count.min(self.remaining);
                self.remaining -= yield_count;
                let mut states: Vec<S> = Vec::with_capacity(yield_count);
                let context = ChunkContext {
                    path: &file.path,
                    chunk_index,
                    codec: spill.config.codec,
                };
                decode_chunk(
                    &context,
                    &bytes,
                    yield_count,
                    &mut self.ctx,
                    regen,
                    &mut self.regenerated_parents,
                    &mut states,
                );
                return Ok(Some(states));
            }
        }
        // The decoded tail: never touched a decode or a regeneration.
        let Some(mut window) = self.resident.take() else {
            return Ok(None);
        };
        window.truncate(self.remaining);
        self.remaining = 0;
        if window.is_empty() {
            Ok(None)
        } else {
            Ok(Some(window))
        }
    }

    /// Parents re-expanded by replay regeneration so far — the source of
    /// [`crate::ExploreStats::replayed_parents`].
    pub(crate) fn regenerated_parents(&self) -> usize {
        self.regenerated_parents
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write as _;

    use super::*;
    use crate::Digest;

    fn test_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "slx-spill-unit-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("test spill dir");
        dir
    }

    fn test_config(chunk_bytes: usize) -> SpillConfig {
        SpillConfig::new(chunk_bytes, SpillCodec::Delta, test_dir())
    }

    /// A regenerator for codecs that never regenerate.
    fn no_regen<S>() -> impl Fn(&S, &[usize], &mut Vec<S>) {
        |_: &S, _: &[usize], _: &mut Vec<S>| panic!("non-replay chunks must not regenerate")
    }

    fn drain<S: DeltaCodec + Clone>(
        mut chunks: FrontierChunks<S>,
        regen: &impl Regenerator<S>,
    ) -> (Vec<S>, Vec<usize>) {
        let mut all = Vec::new();
        let mut sizes = Vec::new();
        while let Some(chunk) = chunks.next_chunk(regen).expect("replay read") {
            sizes.push(chunk.len());
            all.extend(chunk);
        }
        (all, sizes)
    }

    fn states(n: u64) -> Vec<u64> {
        (1000..1000 + n).collect()
    }

    fn snapshot_vec<S: DeltaCodec + Clone>(
        frontier: &mut SpillFrontier<S>,
        regen: &impl Regenerator<S>,
    ) -> Vec<S> {
        let states = frontier.snapshot_states(regen).expect("snapshot read");
        (&states).into_iter().cloned().collect()
    }

    /// The grouped shape the checker pushes: parent `p` contributes
    /// children `10 * p + index` at the given action indices. The
    /// matching regenerator rebuilds exactly that.
    fn push_parent_groups(frontier: &mut SpillFrontier<u64>, groups: &[(u64, &[usize])]) {
        for &(parent, indices) in groups {
            let mut children: Vec<u64> = indices.iter().map(|&i| 10 * parent + i as u64).collect();
            frontier
                .push_group(Cow::Owned(parent), &mut children, indices)
                .unwrap();
        }
    }

    fn group_regen(parent: &u64, indices: &[usize], out: &mut Vec<u64>) {
        for &i in indices {
            out.push(10 * parent + i as u64);
        }
    }

    #[test]
    fn resident_mode_replays_in_one_chunk() {
        let mut frontier: SpillFrontier<u64> = SpillFrontier::new(None);
        for s in states(10) {
            frontier.push(s).unwrap();
        }
        assert_eq!(frontier.len(), 10);
        assert_eq!(frontier.spilled_chunks(), 0);
        assert_eq!(frontier.peak_window_bytes(), 0, "nothing encoded");
        let (all, sizes) = drain(frontier.into_chunks(), &no_regen());
        assert_eq!(all, states(10));
        assert_eq!(sizes, vec![10]);
    }

    #[test]
    fn spill_mode_round_trips_in_push_order() {
        // Each state is a two-byte varint (values ≥ 1000); an 8-byte
        // chunk threshold spills every fourth push.
        let mut frontier: SpillFrontier<u64> = SpillFrontier::new(Some(test_config(8)));
        for s in states(100) {
            frontier.push(s).unwrap();
        }
        assert!(frontier.spilled_chunks() >= 20, "must have spilled");
        assert!(frontier.spilled_bytes() >= 2 * 90);
        let (all, sizes) = drain(frontier.into_chunks(), &no_regen());
        assert_eq!(all, states(100));
        assert!(
            sizes.iter().all(|&s| s <= 4),
            "chunks stay bounded: {sizes:?}"
        );
    }

    #[test]
    fn plain_and_delta_codecs_replay_identically() {
        for chunk_bytes in [24usize, 48, 96] {
            let mut delta: SpillFrontier<Vec<u64>> = SpillFrontier::new(Some(SpillConfig::new(
                chunk_bytes,
                SpillCodec::Delta,
                test_dir(),
            )));
            let mut plain: SpillFrontier<Vec<u64>> = SpillFrontier::new(Some(SpillConfig::new(
                chunk_bytes,
                SpillCodec::Plain,
                test_dir(),
            )));
            // Sibling-shaped states: a long shared prefix plus a varying
            // tail, like the configurations of one BFS level.
            let siblings: Vec<Vec<u64>> = (0..64u64)
                .map(|i| {
                    let mut v: Vec<u64> = (0..12).collect();
                    v.push(i);
                    v
                })
                .collect();
            for s in &siblings {
                delta.push(s.clone()).unwrap();
                plain.push(s.clone()).unwrap();
            }
            assert!(
                delta.spilled_chunks() >= 2,
                "chunk {chunk_bytes} must spill"
            );
            assert!(
                delta.spilled_bytes() < plain.spilled_bytes(),
                "chunk {chunk_bytes}: delta ({}) must beat plain ({}) on sibling-shaped states",
                delta.spilled_bytes(),
                plain.spilled_bytes()
            );
            let (from_delta, _) = drain(delta.into_chunks(), &no_regen());
            let (from_plain, _) = drain(plain.into_chunks(), &no_regen());
            assert_eq!(from_delta, siblings, "chunk {chunk_bytes}");
            assert_eq!(from_plain, siblings, "chunk {chunk_bytes}");
        }
    }

    #[test]
    fn replay_groups_round_trip_without_storing_children() {
        let groups: Vec<(u64, &[usize])> = vec![
            (7, &[0, 1, 2]),
            (8, &[1]),
            (9, &[0, 2, 5]),
            (11, &[3]),
            (12, &[0, 1]),
        ];
        let expected: Vec<u64> = groups
            .iter()
            .flat_map(|&(p, idx)| idx.iter().map(move |&i| 10 * p + i as u64))
            .collect();
        // A tiny chunk budget forces several flushes mid-run.
        for chunk_bytes in [4usize, 16, 1 << 20] {
            let mut frontier: SpillFrontier<u64> = SpillFrontier::new(Some(SpillConfig::new(
                chunk_bytes,
                SpillCodec::Replay,
                test_dir(),
            )));
            push_parent_groups(&mut frontier, &groups);
            assert_eq!(frontier.len(), expected.len());
            let chunks = frontier.into_chunks();
            let (all, _) = drain(chunks, &group_regen);
            assert_eq!(all, expected, "chunk {chunk_bytes}");
        }
    }

    #[test]
    fn replay_regenerates_each_parent_at_most_once() {
        let groups: Vec<(u64, &[usize])> = (0..40u64).map(|p| (p, &[0usize, 1, 2][..])).collect();
        let mut frontier: SpillFrontier<u64> =
            SpillFrontier::new(Some(SpillConfig::new(12, SpillCodec::Replay, test_dir())));
        push_parent_groups(&mut frontier, &groups);
        assert!(frontier.spilled_chunks() >= 4, "must spill repeatedly");
        let mut chunks = frontier.into_chunks();
        let mut total = 0;
        while let Some(chunk) = chunks.next_chunk(&group_regen).expect("replay read") {
            total += chunk.len();
        }
        assert_eq!(total, 40 * 3);
        assert!(
            chunks.regenerated_parents() <= 40,
            "{} regenerations for 40 parents: groups must never split \
             across chunks or records",
            chunks.regenerated_parents()
        );
    }

    #[test]
    fn replay_spills_far_fewer_bytes_than_delta() {
        // Sibling-shaped Vec states: delta already collapses most of each
        // child, but replay stores no child bytes at all — one parent
        // record per group plus one varint per child.
        let parents: Vec<Vec<u64>> = (0..32u64)
            .map(|p| {
                let mut v: Vec<u64> = (0..16).collect();
                v.push(p);
                v
            })
            .collect();
        let make = |codec: SpillCodec| -> SpillFrontier<Vec<u64>> {
            SpillFrontier::new(Some(SpillConfig::new(64, codec, test_dir())))
        };
        let mut delta = make(SpillCodec::Delta);
        let mut replay = make(SpillCodec::Replay);
        // Each child scatters edits across the parent, so sibling deltas
        // cost several gap/value pairs per record while a replay group is
        // one parent record plus a varint per child.
        let child_of = |parent: &Vec<u64>, i: u64| {
            let mut child = parent.clone();
            for k in 0..4 {
                child[(k * 4) as usize] = i * 100 + k;
            }
            child
        };
        for parent in &parents {
            let mut children: Vec<Vec<u64>> = (0..3u64).map(|i| child_of(parent, i)).collect();
            let indices = [0usize, 1, 2];
            delta
                .push_group(Cow::Borrowed(parent), &mut children.clone(), &indices)
                .unwrap();
            replay
                .push_group(Cow::Borrowed(parent), &mut children, &indices)
                .unwrap();
        }
        assert!(delta.spilled_chunks() >= 2 && replay.spilled_chunks() >= 1);
        assert!(
            replay.spilled_bytes() * 2 < delta.spilled_bytes(),
            "replay ({}) must spill far fewer bytes than delta ({})",
            replay.spilled_bytes(),
            delta.spilled_bytes()
        );
        let regen = |parent: &Vec<u64>, indices: &[usize], out: &mut Vec<Vec<u64>>| {
            for &i in indices {
                let mut child = parent.clone();
                for k in 0..4 {
                    child[(k * 4) as usize] = i as u64 * 100 + k;
                }
                out.push(child);
            }
        };
        let (from_replay, _) = drain(replay.into_chunks(), &regen);
        let (from_delta, _) = drain(delta.into_chunks(), &no_regen());
        assert_eq!(from_replay, from_delta);
    }

    #[test]
    fn growing_records_respect_the_byte_budget() {
        // Records grow from ~2 to ~200 encoded bytes across the level —
        // the accumulating-history shape. The old state-count window
        // (chunk_bytes / first_record_size states per chunk) would pack
        // far too many of the large records into one window; the
        // byte-measured window must stay within chunk_bytes plus one
        // record regardless of growth. Plain encoding so the sizes are
        // predictable.
        const CHUNK: usize = 256;
        let mut frontier: SpillFrontier<Vec<u64>> =
            SpillFrontier::new(Some(SpillConfig::new(CHUNK, SpillCodec::Plain, test_dir())));
        let grown: Vec<Vec<u64>> = (0..100u64).map(|i| (0..i).collect()).collect();
        let mut max_record = 0;
        for s in &grown {
            let mut one = Vec::new();
            s.encode(&mut one);
            max_record = max_record.max(one.len());
            frontier.push(s.clone()).unwrap();
        }
        assert!(frontier.spilled_chunks() >= 4, "must spill repeatedly");
        assert!(
            frontier.peak_window_bytes() <= CHUNK + max_record,
            "window peaked at {} bytes; budget {CHUNK} + one record {max_record}",
            frontier.peak_window_bytes()
        );
        let spill = frontier.spill.as_ref().expect("spill mode");
        for meta in &spill.chunks {
            assert!(
                meta.len <= CHUNK + max_record,
                "chunk of {} bytes exceeds budget {CHUNK} + record {max_record}",
                meta.len
            );
        }
        let (all, _) = drain(frontier.into_chunks(), &no_regen());
        assert_eq!(all, grown);
    }

    #[test]
    fn truncation_cuts_the_same_prefix_resident_or_spilled() {
        for cut in [0usize, 1, 5, 17, 99, 100, 1000] {
            let mut resident: SpillFrontier<u64> = SpillFrontier::new(None);
            let mut spilled: SpillFrontier<u64> = SpillFrontier::new(Some(test_config(16)));
            for s in states(100) {
                resident.push(s).unwrap();
                spilled.push(s).unwrap();
            }
            resident.truncate(cut);
            spilled.truncate(cut);
            assert_eq!(resident.len(), cut.min(100), "cut {cut}");
            assert_eq!(spilled.len(), cut.min(100), "cut {cut}");
            let (from_resident, _) = drain(resident.into_chunks(), &no_regen());
            let (from_spilled, _) = drain(spilled.into_chunks(), &no_regen());
            assert_eq!(from_resident, from_spilled, "cut {cut}");
            assert_eq!(from_spilled.len(), cut.min(100), "cut {cut}");
        }
    }

    #[test]
    fn truncation_mid_group_regenerates_only_the_surviving_prefix() {
        let groups: Vec<(u64, &[usize])> = (0..20u64).map(|p| (p, &[0usize, 1, 2][..])).collect();
        let full: Vec<u64> = groups
            .iter()
            .flat_map(|&(p, idx)| idx.iter().map(move |&i| 10 * p + i as u64))
            .collect();
        for cut in [0usize, 1, 2, 3, 4, 29, 30, 31, 59, 60, 61] {
            let mut frontier: SpillFrontier<u64> =
                SpillFrontier::new(Some(SpillConfig::new(12, SpillCodec::Replay, test_dir())));
            push_parent_groups(&mut frontier, &groups);
            frontier.truncate(cut);
            let (got, _) = drain(frontier.into_chunks(), &group_regen);
            assert_eq!(got, full[..cut.min(full.len())], "cut {cut}");
        }
    }

    #[test]
    fn replay_literals_round_trip() {
        // Initial states have no parent: they spill as self-contained
        // literal records even under the replay codec.
        let mut frontier: SpillFrontier<u64> =
            SpillFrontier::new(Some(SpillConfig::new(6, SpillCodec::Replay, test_dir())));
        for s in states(40) {
            frontier.push(s).unwrap();
        }
        assert!(frontier.spilled_chunks() >= 4);
        let (all, _) = drain(frontier.into_chunks(), &no_regen::<u64>());
        assert_eq!(all, states(40));
    }

    #[test]
    fn small_levels_never_touch_disk() {
        let dir = test_dir();
        for codec in [SpillCodec::Delta, SpillCodec::Plain, SpillCodec::Replay] {
            let mut frontier: SpillFrontier<u64> =
                SpillFrontier::new(Some(SpillConfig::new(1 << 20, codec, dir.clone())));
            for s in states(50) {
                frontier.push(s).unwrap();
            }
            assert_eq!(frontier.spilled_chunks(), 0, "{codec:?}");
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{codec:?}");
            let (all, _) = drain(frontier.into_chunks(), &no_regen());
            assert_eq!(all, states(50), "{codec:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_file_dies_with_the_last_pool_holder() {
        let dir = test_dir();
        let config = SpillConfig::new(8, SpillCodec::Delta, dir.clone());
        let mut frontier: SpillFrontier<u64> = SpillFrontier::new(Some(config.clone()));
        for s in states(64) {
            frontier.push(s).unwrap();
        }
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 1, "one spill file per frontier");
        // The run (`config`) still holds the pool: the frontier's file is
        // recycled, not deleted, so the next level reuses the inode.
        drop(frontier);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        assert_eq!(config.pool.borrow().free.len(), 1, "file went to the pool");
        drop(config);
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "dropping the last pool holder must delete the spill files"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn consecutive_frontiers_reuse_the_pooled_file() {
        let dir = test_dir();
        let config = SpillConfig::new(8, SpillCodec::Delta, dir.clone());
        for round in 0..3 {
            let mut frontier: SpillFrontier<u64> = SpillFrontier::new(Some(config.clone()));
            for s in states(64) {
                frontier.push(s).unwrap();
            }
            let (all, _) = drain(frontier.into_chunks(), &no_regen());
            assert_eq!(all, states(64), "round {round}");
            assert_eq!(
                std::fs::read_dir(&dir).unwrap().count(),
                1,
                "round {round}: one recycled file serves every level"
            );
        }
        drop(config);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recycled_files_never_leak_stale_tails() {
        // A big frontier fills the pooled file with many chunks; the next
        // frontier over the same pool is smaller and must replay only its
        // own (fully rewritten) records — never a stale tail from before
        // the recycle's `set_len(0)`.
        let dir = test_dir();
        let config = SpillConfig::new(12, SpillCodec::Delta, dir.clone());
        let mut big: SpillFrontier<u64> = SpillFrontier::new(Some(config.clone()));
        for s in states(200) {
            big.push(s).unwrap();
        }
        let (all_big, _) = drain(big.into_chunks(), &no_regen());
        assert_eq!(all_big, states(200));
        for round in 0..3u64 {
            let mut small: SpillFrontier<u64> = SpillFrontier::new(Some(config.clone()));
            let expected: Vec<u64> = states(20).into_iter().map(|s| s + 1000 * round).collect();
            for &s in &expected {
                small.push(s).unwrap();
            }
            assert!(small.spilled_chunks() >= 2, "round {round} must spill");
            let (all_small, _) = drain(small.into_chunks(), &no_regen());
            assert_eq!(all_small, expected, "round {round}: no stale records");
        }
        drop(config);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partially_consumed_replay_cleans_up_too() {
        let dir = test_dir();
        for codec in [SpillCodec::Delta, SpillCodec::Replay] {
            let mut frontier: SpillFrontier<u64> =
                SpillFrontier::new(Some(SpillConfig::new(8, codec, dir.clone())));
            for s in states(64) {
                frontier.push(s).unwrap();
            }
            let mut chunks = frontier.into_chunks();
            let _ = chunks.next_chunk(&no_regen()).expect("replay read");
            drop(chunks);
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{codec:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_leaves_the_frontier_fully_replayable() {
        // The snapshot must equal the replay (same states, same order)
        // without consuming anything — the checkpoint store reads it
        // mid-run and the level is then expanded as if nothing happened.
        for codec in [SpillCodec::Delta, SpillCodec::Plain, SpillCodec::Replay] {
            let mut frontier: SpillFrontier<u64> =
                SpillFrontier::new(Some(SpillConfig::new(12, codec, test_dir())));
            let groups: Vec<(u64, &[usize])> =
                (0..20u64).map(|p| (p, &[0usize, 1, 2][..])).collect();
            push_parent_groups(&mut frontier, &groups);
            assert!(frontier.spilled_chunks() >= 2, "{codec:?} must spill");
            let snapshot = snapshot_vec(&mut frontier, &group_regen);
            assert_eq!(snapshot.len(), frontier.len(), "{codec:?}");
            let again = snapshot_vec(&mut frontier, &group_regen);
            assert_eq!(snapshot, again, "{codec:?}: snapshot is repeatable");
            let (replayed, _) = drain(frontier.into_chunks(), &group_regen);
            assert_eq!(snapshot, replayed, "{codec:?}");
        }
        // Resident-only frontier (nothing spilled): a straight clone.
        let mut resident: SpillFrontier<u64> = SpillFrontier::new(None);
        for s in states(10) {
            resident.push(s).unwrap();
        }
        assert_eq!(snapshot_vec(&mut resident, &no_regen()), states(10));
        // Truncation caps the snapshot exactly like the replay.
        let mut cut: SpillFrontier<u64> = SpillFrontier::new(Some(test_config(16)));
        for s in states(50) {
            cut.push(s).unwrap();
        }
        cut.truncate(13);
        assert_eq!(snapshot_vec(&mut cut, &no_regen()), states(13));
    }

    #[test]
    fn corrupt_records_name_the_file_chunk_and_codec() {
        for codec in [SpillCodec::Delta, SpillCodec::Plain, SpillCodec::Replay] {
            let mut frontier: SpillFrontier<u64> =
                SpillFrontier::new(Some(SpillConfig::new(8, codec, test_dir())));
            for s in states(40) {
                frontier.push(s).unwrap();
            }
            assert!(frontier.spilled_chunks() >= 2, "{codec:?} must spill");
            // Overwrite the second chunk with bytes no varint decoder
            // accepts (ten continuation bytes overflow the u64 shift).
            let path = {
                let spill = frontier.spill.as_mut().expect("spill mode");
                let meta = spill.chunks[1];
                let file = spill.file.as_mut().expect("spilled chunks imply a file");
                file.file
                    .seek(SeekFrom::Start(meta.offset))
                    .and_then(|_| file.file.write_all(&vec![0xff; meta.len]))
                    .expect("corrupting the spill file");
                file.path.clone()
            };
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drain(frontier.into_chunks(), &no_regen())
            }))
            .expect_err("corrupt chunk must abort the replay");
            let message = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .expect("panic payload is a message");
            assert!(
                message.contains("corrupt spill record"),
                "{codec:?}: {message}"
            );
            assert!(message.contains("chunk 1"), "{codec:?}: {message}");
            assert!(
                message.contains(&path.display().to_string()),
                "{codec:?}: {message}"
            );
            assert!(
                message.contains(&format!("{codec:?} codec")),
                "{codec:?}: {message}"
            );
        }
    }

    #[test]
    fn digest_type_is_not_part_of_the_record_layout() {
        // A reminder-by-construction: records are states only. A frontier
        // of digests would be a type error at the call sites; this pin
        // documents the byte cost the layout saves (16 bytes per record).
        let mut frontier: SpillFrontier<u64> = SpillFrontier::new(Some(test_config(8)));
        for s in states(10) {
            frontier.push(s).unwrap();
        }
        let per_record = frontier.peak_window_bytes() as f64 / 4.0;
        assert!(
            per_record < std::mem::size_of::<Digest>() as f64,
            "a u64 record ({per_record} bytes) must undercut even a bare digest"
        );
    }
}
