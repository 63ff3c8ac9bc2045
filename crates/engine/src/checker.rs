//! The exploration driver: a parallel frontier BFS.

use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::checkpoint::{CheckpointStore, LoadedCheckpoint, RunHeader};
use crate::codec::{DeltaCodec, StateCodec};
use crate::detmap::DetHashSet;
use crate::digest::Fingerprinter;
use crate::fault::{EngineError, FaultPlan, FaultPlane};
use crate::space::{Expansion, StateSpace};
use crate::spill::{SpillCodec, SpillConfig, SpillFrontier};
use crate::stats::{ExploreStats, Stopwatch};
use crate::visited::ShardedVisited;
use crate::Digest;

/// Result of a [`Checker`] run: everything the spaces reported, plus
/// exploration statistics.
#[derive(Debug, Clone)]
pub struct KernelOutcome<F> {
    /// Findings in deterministic exploration order.
    pub findings: Vec<F>,
    /// Exploration statistics.
    pub stats: ExploreStats,
}

/// The exploration driver: a frontier-based breadth-first search over a
/// [`StateSpace`].
///
/// Dedupes states on their 128-bit fingerprints only — the visited set
/// holds 16-byte digests, never full states — unless the space declares
/// that its states never repeat ([`StateSpace::REVISITS`]), when only the
/// initial states are. A level streams through a bounded window: with
/// one thread each parent is expanded and its
/// successors are deduplicated against the [`ShardedVisited`] set before
/// the next parent is touched; with more, up to `threads` workers expand
/// blocks of consecutive parents a few blocks ahead of one merging
/// thread, which dedups finished blocks strictly in frontier order while
/// later ones are still being expanded. A duplicate successor therefore
/// dies within a window of its birth, and a level's successors are never
/// all alive at once. Merge order is frontier order and a digest's shard
/// depends only on the digest, so statistics, findings, and verdicts are
/// deterministic regardless of thread scheduling, thread count, and
/// shard count.
///
/// A checker is its settings: every field holds the value the run uses,
/// set by [`Checker::parallel_bfs`] / [`Checker::auto`] and the `with_*`
/// builders. Nothing is read from the environment.
#[derive(Debug, Clone)]
pub struct Checker {
    /// Worker threads, at least 1; with 1 the level loop runs inline
    /// with no thread spawns.
    threads: usize,
    /// Requested visited-set shard count, before rounding up to a power
    /// of two: [`Checker::with_shards`], else four per thread capped at
    /// 256. One thread inserts, so the count only sets how many tables
    /// the digests spread over.
    shards: usize,
    config_budget: Option<usize>,
    /// Frontier memory budget in bytes; `None` means spilling is off.
    mem_budget: Option<usize>,
    /// Where spill files go; `None` means the system temp directory,
    /// looked up only by a run that spills.
    spill_dir: Option<PathBuf>,
    spill_codec: SpillCodec,
    /// Whether symmetry reduction is *asked for*; it only activates on
    /// spaces advertising [`StateSpace::has_symmetry_reduction`].
    symmetry: bool,
    /// Checkpoint-store directory and cadence in BFS levels.
    checkpoint: Option<(PathBuf, usize)>,
    resume_from: Option<PathBuf>,
    /// `None` leaves every fault seam an inline no-op.
    fault_plan: Option<FaultPlan>,
}

/// Fingerprint of one exploration's identity: the space's Rust type name
/// plus the exact digests of the initial states, in order. Persisted in
/// the checkpoint header so a resume under a different space or different
/// initial states fails loudly instead of silently exploring nonsense.
fn space_fingerprint<Sp: StateSpace>(space: &Sp, initial: &[Sp::State]) -> u128 {
    use std::hash::Hasher as _;
    let mut fp = Fingerprinter::new();
    fp.write(std::any::type_name::<Sp>().as_bytes());
    fp.write_u8(0);
    for state in initial {
        fp.write_u128(space.digest(state).0);
    }
    fp.digest().0
}

/// Consecutive parents a worker claims, expands and hands to the merge as
/// one unit. Swept on `deep-par` (EXPERIMENTS.md, "Streaming level
/// window"): 16–64 is a plateau; smaller blocks pay a lock hand-off and a
/// wake-up per few parents, larger ones push the window's unmerged
/// successors out of cache, which is the cost the window exists to avoid.
const BLOCK_PARENTS: usize = 64;

/// Blocks per worker that may be expanded ahead of the merge: enough that
/// a worker does not wait while the merge is busy with a neighbour's
/// block (1 to 4 measure the same), few enough that the window stays a
/// few hundred parents' successors.
const WINDOW_BLOCKS_PER_THREAD: usize = 4;

/// Minimum chunk size before it is worth spawning workers for: two
/// blocks, since one block is one worker's work. The scope costs ≈ 80 µs
/// to spawn and join. The threshold was set when two threads won 1.5x on
/// the consensus spaces; they no longer win: traced `deep-par` runs (2
/// threads on a 2-core VM) read `par_speedup_x` 0.57–0.82 and
/// `par_cpu_x` 2.0–2.6, a slower run for twice the CPU. ROADMAP item 7's
/// PR B deletes the threaded path, and this constant with it.
const PAR_MIN_FRONTIER: usize = 2 * BLOCK_PARENTS;

impl Checker {
    /// A checker with an explicit thread count (clamped to at least 1).
    #[must_use]
    pub fn parallel_bfs(threads: usize) -> Self {
        let threads = threads.max(1);
        Checker {
            threads,
            shards: threads.saturating_mul(4).min(256),
            config_budget: None,
            mem_budget: None,
            spill_dir: None,
            spill_codec: SpillCodec::Delta,
            symmetry: false,
            checkpoint: None,
            resume_from: None,
            fault_plan: None,
        }
    }

    /// A checker sized to the machine
    /// (`std::thread::available_parallelism`).
    #[must_use]
    pub fn auto() -> Self {
        Checker::parallel_bfs(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Caps the number of states expanded; hitting the cap marks the run
    /// truncated (used by budgeted valence queries).
    #[must_use]
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.config_budget = Some(budget);
        self
    }

    /// Pins the BFS visited set to `shards` shards (rounded up to a power
    /// of two). Verdicts, findings, and counts are shard-count
    /// independent; this knob only sets how many hash tables the digests
    /// are spread over. Without it the count is four per thread, capped
    /// at 256.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Bounds the BFS frontier's resident footprint to roughly `bytes`
    /// bytes of encoded states: cold frontier chunks beyond the budget
    /// are serialized ([`crate::StateCodec`] records, delta-encoded by
    /// default — see [`Checker::with_spill_codec`]) to self-cleaning temp files and
    /// streamed back during level expansion, so arbitrarily wide levels
    /// explore in bounded memory. Chunk boundaries depend only on encoded
    /// sizes and chunks replay in frontier order, so verdicts, findings,
    /// and every [`ExploreStats`] count are identical with spilling on or
    /// off (pinned by the differential spill matrix).
    ///
    /// `bytes = 0` turns spilling off, which is also the default. Spill
    /// files go to [`Checker::with_spill_dir`], else the system temp
    /// directory.
    #[must_use]
    pub fn with_mem_budget(mut self, bytes: usize) -> Self {
        self.mem_budget = (bytes > 0).then_some(bytes);
        self
    }

    /// Pins the directory spill files are created in (created if absent)
    /// instead of the system temp directory.
    #[must_use]
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Pins the spill-chunk record encoding: [`SpillCodec::Delta`] (the
    /// default — records delta-encode against their chunk predecessor,
    /// cutting spill volume and decode cost on sibling-heavy levels),
    /// [`SpillCodec::Plain`] (every record self-contained; the
    /// comparison arm), or [`SpillCodec::Replay`] (records store parent
    /// states plus child action indices and the replay *regenerates* the
    /// children by re-expanding the parent — no per-child codec work,
    /// but one extra expansion per spilled parent, which has cost more
    /// than the decoding it saves on every workload measured so far:
    /// 1.1–1.4x delta's time on the deep consensus row and 1.4–1.7x on
    /// the wide, dedup-free automata enumeration it was built for
    /// (single traced runs; see EXPERIMENTS.md).
    /// Verdicts, findings, and every count except the spill-volume and
    /// replay-accounting statistics are identical under all three.
    #[must_use]
    pub fn with_spill_codec(mut self, codec: SpillCodec) -> Self {
        self.spill_codec = codec;
        self
    }

    /// Turns symmetry reduction on or off (the default): when on (and
    /// the space advertises [`StateSpace::has_symmetry_reduction`] and
    /// [revisits](StateSpace::REVISITS) states), the kernel dedups on
    /// [`StateSpace::canonical_digest`] instead of the
    /// exact digest, so each symmetry orbit — e.g. every
    /// process-permutation image of a configuration — is explored
    /// exactly once. Verdicts and findings are preserved by the
    /// canonicalizer's soundness contract (pinned by the symmetry
    /// differential suites); raw counts (`configs`, `transitions`,
    /// `dedup_hits`, occupancies) legitimately shrink.
    #[must_use]
    pub fn with_symmetry(mut self, on: bool) -> Self {
        self.symmetry = on;
        self
    }

    /// Arms the deterministic fault-injection plane with an explicit
    /// [`FaultPlan`]: the run's spill, checkpoint, and retry
    /// paths then draw injected I/O faults (ENOSPC, EINTR, short and
    /// torn transfers) from the plan's seeded schedule. This is the
    /// robustness suites' hook; production runs never set it. Without
    /// it the plane is disarmed and every fault seam is an inline no-op.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Turns on crash-tolerant checkpointing: every `every_n_levels` BFS
    /// levels (clamped to at least 1) the checker commits its resumable
    /// state to `dir` (created if absent): it appends the digests
    /// admitted since the previous commit to the directory's visited
    /// log, then renames in a small image — frontier, findings,
    /// counters, a validated run-config header, and the log prefix it
    /// stands on (see [`CheckpointStore`]). A later [`Checker::resume`]
    /// on the same directory continues the run bit-identically in
    /// verdict, state counts, and truncation flags. A run that does not
    /// resume from `dir` logs to a new generation there and leaves any
    /// older store in `dir` resumable until its own first image is
    /// renamed in; a resume redirected here from another directory
    /// writes the whole restored set as its log's first segment and
    /// never writes to the directory it resumed from.
    #[must_use]
    pub fn with_checkpoint(mut self, dir: impl Into<PathBuf>, every_n_levels: usize) -> Self {
        self.checkpoint = Some((dir.into(), every_n_levels.max(1)));
        self
    }

    /// Resumes the next run from the committed checkpoint in `dir`
    /// instead of the initial states. The checkpoint's run-config header
    /// is validated field by field against this checker's settings and
    /// the space + initial states handed to
    /// [`Checker::run`] — any mismatch is a hard error ([`RunHeader`]'s
    /// validation), never a silently different answer. Checkpointing
    /// continues into the same directory, every level, unless
    /// [`Checker::with_checkpoint`] pinned another directory or cadence.
    /// Use [`CheckpointStore::exists`] as the "resume or start fresh?"
    /// probe.
    #[must_use]
    pub fn resume(mut self, dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        if self.checkpoint.is_none() {
            self.checkpoint = Some((dir.clone(), 1));
        }
        self.resume_from = Some(dir);
        self
    }

    /// Explores the space exhaustively from `initial`.
    ///
    /// # Panics
    ///
    /// Panics with the rendered [`EngineError`] on an I/O failure the
    /// hardened spill/checkpoint paths could not absorb (see
    /// [`Checker::try_run_observed`] for the fallible form).
    pub fn run<Sp>(&self, space: &Sp, initial: Vec<Sp::State>) -> KernelOutcome<Sp::Finding>
    where
        Sp: StateSpace + Sync,
        Sp::State: DeltaCodec,
        Sp::Finding: StateCodec,
    {
        self.run_until(space, initial, |_| false)
    }

    /// Explores the space from `initial`, stopping early once `stop`
    /// returns `true` on the findings accumulated so far. `stop` is
    /// invoked (in deterministic exploration order) after each expansion
    /// that contributed at least one new finding. Panics like
    /// [`Checker::run`].
    pub fn run_until<Sp>(
        &self,
        space: &Sp,
        initial: Vec<Sp::State>,
        stop: impl FnMut(&[Sp::Finding]) -> bool,
    ) -> KernelOutcome<Sp::Finding>
    where
        Sp: StateSpace + Sync,
        Sp::State: DeltaCodec,
        Sp::Finding: StateCodec,
    {
        self.run_observed(space, initial, stop, |_, _| true)
    }

    /// [`Checker::run_until`] with a progress observer: `progress` is
    /// invoked with the current depth and a lifetime statistics snapshot
    /// (counters so far, `elapsed` filled in) at every BFS level boundary
    /// — after the level's checkpoint (if due) has committed, so a
    /// cancellation never outruns the last durable image. Returning
    /// `false` cancels the run: it stops before expanding further states
    /// and reports `stopped_early`, exactly like a firing stop predicate.
    /// A checkpointed run cancelled this way resumes from its last
    /// committed image; this is the long-running check service's
    /// progress-streaming and per-request cancellation hook. Panics like
    /// [`Checker::run`].
    pub fn run_observed<Sp>(
        &self,
        space: &Sp,
        initial: Vec<Sp::State>,
        stop: impl FnMut(&[Sp::Finding]) -> bool,
        progress: impl FnMut(usize, &ExploreStats) -> bool,
    ) -> KernelOutcome<Sp::Finding>
    where
        Sp: StateSpace + Sync,
        Sp::State: DeltaCodec,
        Sp::Finding: StateCodec,
    {
        self.try_run_observed(space, initial, stop, progress)
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// The one run path: [`Checker::run_observed`], returning the typed
    /// [`EngineError`] instead of panicking when the exploration's I/O
    /// gives out. Transient spill and checkpoint errors are retried with
    /// bounded backoff, an out-of-space spill directory degrades to a
    /// capped resident frontier, and only a fault that survives all of
    /// that — or a spill/checkpoint directory that cannot be created, or
    /// an unusable image to resume from — surfaces here, with the path
    /// and operation named, never a torn image or a leaked spill file.
    /// Pass `|_| false` and `|_, _| true` for a plain exhaustive run.
    pub fn try_run_observed<Sp>(
        &self,
        space: &Sp,
        initial: Vec<Sp::State>,
        mut stop: impl FnMut(&[Sp::Finding]) -> bool,
        mut progress: impl FnMut(usize, &ExploreStats) -> bool,
    ) -> Result<KernelOutcome<Sp::Finding>, EngineError>
    where
        Sp: StateSpace + Sync,
        Sp::State: DeltaCodec,
        Sp::Finding: StateCodec,
    {
        let mut run = BfsRun::set_up(space, self, initial)?;
        run.explore(&mut stop, &mut progress)?;
        Ok(run.finish())
    }
}

/// The lifetime part of every statistics report. A resumed run continues
/// earlier segments whose wall-clock and fault counts its image carries
/// (zero for a fresh run), while this segment's stopwatch and fault
/// plane start at zero — so every report (checkpoint image, progress
/// snapshot, final outcome) is the priors plus the segment's own, and
/// derived rates divide lifetime configs by lifetime time instead of
/// lying after a resume.
struct Lifetime {
    start: Stopwatch,
    plane: FaultPlane,
    prior_elapsed: Duration,
    prior_faults: u64,
    prior_retries: u64,
}

impl Lifetime {
    fn stamp(&self, stats: &mut ExploreStats) {
        stats.elapsed = self.prior_elapsed + self.start.elapsed();
        stats.faults_injected = self.prior_faults + self.plane.faults_injected();
        stats.io_retries = self.prior_retries + self.plane.io_retries();
    }
}

/// Run set-up's spill half: creates the spill directory and sizes the
/// chunks. Each of the two frontiers alive at a time (level being
/// consumed, level being built) keeps its encode buffer below half the
/// budget.
fn open_spill(checker: &Checker, plane: &FaultPlane) -> Result<Option<SpillConfig>, EngineError> {
    let Some(budget) = checker.mem_budget else {
        return Ok(None);
    };
    let dir = checker.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
    std::fs::create_dir_all(&dir).map_err(|err| EngineError::SpillIo {
        path: dir.clone(),
        op: "create",
        msg: err.to_string(),
    })?;
    // The 16-byte floor keeps a degenerate budget from flushing a chunk
    // per record; it is low because records are small now that digests
    // are not stored (a grid-walk record is two varint bytes), and the
    // test suites rely on tiny budgets spilling.
    let chunk_bytes = (budget / 2).max(16);
    Ok(Some(
        SpillConfig::new(chunk_bytes, checker.spill_codec, dir).with_fault_plane(plane.clone()),
    ))
}

/// One BFS run's state: [`BfsRun::set_up`] → [`BfsRun::explore`], the
/// level pipeline whose stages are the methods below → [`BfsRun::finish`].
struct BfsRun<'a, Sp: StateSpace> {
    space: &'a Sp,
    checker: &'a Checker,
    /// Whether symmetry reduction is *active*: asked for, advertised by
    /// the space, and the space [revisits](StateSpace::REVISITS) states.
    symmetry: bool,
    /// At the top of the level loop, the level about to be expanded;
    /// during a level's expansion, the next level being built.
    frontier: SpillFrontier<Sp::State>,
    /// The spill settings every frontier of the run is built with.
    spill: Option<SpillConfig>,
    /// The checkpoint store, which also logs every digest the run admits
    /// until its next commit.
    checkpoint: Option<CheckpointStore>,
    lifetime: Lifetime,
    /// Fingerprint-only visited set, sharded by digest range. BFS
    /// enqueues every state at its minimal depth by construction, so no
    /// depth needs to be stored. Under symmetry reduction it holds
    /// *canonical* digests — one entry per orbit.
    visited: ShardedVisited,
    /// Exact-digest side set, maintained only under symmetry reduction,
    /// so `orbit_hits` can tell a *symmetry* dedup (canonical digest
    /// seen, exact digest fresh — a distinct state collapsed into an
    /// explored orbit) from an ordinary re-encounter of the same state.
    /// Canonical and exact digests live in different hash domains, so
    /// comparing their values is meaningless; a second set is the only
    /// exact accounting.
    exact_seen: DetHashSet<u128>,
    depth: usize,
    /// `shard_occupancy` counts digests accepted by the merge (the
    /// initial states alone, for a space that does not revisit). Only the
    /// merging thread ever inserts, one successor at a time in frontier
    /// order, so the counts always equal the set's own per-shard sizes —
    /// on an early stop too: successors still in the window were
    /// expanded but never inserted.
    stats: ExploreStats,
    findings: Vec<Sp::Finding>,
    /// One parent's accepted successors and their push-order action
    /// indices, on their way from the visited set to `push_group` (which
    /// drains the states); fields so the buffers are reused across
    /// parents.
    accepted: Vec<Sp::State>,
    accepted_indices: Vec<usize>,
}

impl<'a, Sp> BfsRun<'a, Sp>
where
    Sp: StateSpace + Sync,
    Sp::State: DeltaCodec,
    Sp::Finding: StateCodec,
{
    /// Opens the run's I/O seams — fault plane, spill directory,
    /// checkpoint store — and installs its starting state: the committed
    /// image when resuming, else the deduplicated `initial` states.
    fn set_up(
        space: &'a Sp,
        checker: &'a Checker,
        initial: Vec<Sp::State>,
    ) -> Result<Self, EngineError> {
        let start = Stopwatch::start();
        // Disarmed outside the robustness suites: every seam is then an
        // inline no-op.
        let plane = checker
            .fault_plan
            .clone()
            .map_or_else(FaultPlane::disabled, FaultPlane::armed);
        let spill = open_spill(checker, &plane)?;
        let symmetry = Sp::REVISITS && checker.symmetry && space.has_symmetry_reduction();
        let visited = ShardedVisited::new(checker.shards);
        let mut checkpoint = match &checker.checkpoint {
            Some((dir, every)) => {
                std::fs::create_dir_all(dir).map_err(|err| EngineError::CheckpointIo {
                    path: dir.clone(),
                    op: "create",
                    msg: err.to_string(),
                })?;
                // Built only when checkpointing: the fingerprint digests
                // the initial states, work a plain run never needs.
                let header = RunHeader {
                    space_fingerprint: space_fingerprint(space, &initial),
                    codec: checker.spill_codec,
                    symmetry,
                    shards: visited.shard_count(),
                    config_budget: checker.config_budget,
                    mem_budget: checker.mem_budget,
                };
                let store = CheckpointStore::new(dir.clone(), *every, header);
                Some(store.with_fault_plane(plane.clone()))
            }
            None => None,
        };
        // The header validation inside `try_load` guarantees the image
        // belongs to this exact space, configuration, and initial states.
        let image: Option<LoadedCheckpoint<Sp::State, Sp::Finding>> =
            match (&checker.resume_from, &mut checkpoint) {
                (Some(dir), Some(store)) => Some(store.resume(dir)?),
                _ => None,
            };
        let mut run = BfsRun {
            space,
            symmetry,
            frontier: SpillFrontier::new(spill.clone()),
            spill,
            checkpoint,
            lifetime: Lifetime {
                start,
                plane,
                prior_elapsed: Duration::ZERO,
                prior_faults: 0,
                prior_retries: 0,
            },
            visited,
            exact_seen: DetHashSet::default(),
            depth: 0,
            stats: ExploreStats::default(),
            findings: Vec::new(),
            accepted: Vec::new(),
            accepted_indices: Vec::new(),
            checker,
        };
        match image {
            Some(image) => run.restore(image)?,
            None => run.seed(initial)?,
        }
        // This run's identity, over fresh counters and an image's alike.
        run.stats.threads = checker.threads;
        run.stats.shards = run.visited.shard_count();
        run.stats.mem_budget = checker.mem_budget;
        run.stats.symmetry = symmetry;
        Ok(run)
    }

    /// Installs a committed image in place of the initial states: visited
    /// set, exact-seen side set, findings, counters, and the frontier
    /// about to be expanded. The lifetime totals its counters carry become
    /// this segment's priors.
    fn restore(
        &mut self,
        image: LoadedCheckpoint<Sp::State, Sp::Finding>,
    ) -> Result<(), EngineError> {
        self.visited = image.visited;
        self.exact_seen = image.exact_seen;
        self.findings = image.findings;
        self.depth = image.depth;
        self.stats = image.stats;
        self.stats.resumed_from_depth = Some(image.depth);
        self.lifetime.prior_elapsed = self.stats.elapsed;
        self.lifetime.prior_faults = self.stats.faults_injected;
        self.lifetime.prior_retries = self.stats.io_retries;
        for state in image.frontier {
            self.frontier.push(state)?;
        }
        Ok(())
    }

    fn seed(&mut self, initial: Vec<Sp::State>) -> Result<(), EngineError> {
        self.stats.shard_occupancy = vec![0; self.visited.shard_count()];
        for state in initial {
            // An initial state dedups on its canonical digest under
            // symmetry reduction (recording the exact one on the side,
            // see `exact_seen`), on its exact digest otherwise.
            // Successors get theirs at push time inside `Expansion`.
            let digest = if self.symmetry {
                let exact = self.space.digest(&state).0;
                insert_exact(&mut self.exact_seen, &mut self.checkpoint, exact);
                self.space.canonical_digest(&state)
            } else {
                self.space.digest(&state)
            };
            if self.visited.insert(digest.0) {
                self.stats.shard_occupancy[self.visited.shard_of(digest.0)] += 1;
                if let Some(store) = &mut self.checkpoint {
                    store.admit_visited(digest.0);
                }
                self.frontier.push(state)?;
            }
        }
        Ok(())
    }

    /// The level pipeline: checkpoint if due → observe → admit/truncate →
    /// (per chunk: stream back → window of expand → dedup → merge → push).
    fn explore(
        &mut self,
        stop: &mut impl FnMut(&[Sp::Finding]) -> bool,
        progress: &mut impl FnMut(usize, &ExploreStats) -> bool,
    ) -> Result<(), EngineError> {
        while !self.frontier.is_empty() {
            self.checkpoint_if_due()?;
            // Observe after the level's checkpoint (if any) committed: a
            // cancellation here leaves the freshest durable image, so a
            // cancelled-then-resumed run loses no work.
            self.lifetime.stamp(&mut self.stats);
            if !progress(self.depth, &self.stats) {
                self.abandon();
                break;
            }
            let Some(level) = self.admit() else {
                break;
            };
            if self.expand_into_next(level, stop)? {
                self.abandon();
                break;
            }
            self.depth += 1;
        }
        Ok(())
    }

    /// Commits a checkpoint at the configured level-boundary cadence,
    /// before any of this level's work: the image then means "about to
    /// expand level `depth`", and a resume re-enters the loop right
    /// here, recomputing the budget truncation and peak accounting from
    /// restored state — so resume ≡ uninterrupted run, bit for bit. The
    /// level a resume re-entered at already has its image on disk and is
    /// skipped.
    fn checkpoint_if_due(&mut self) -> Result<(), EngineError> {
        let Some(store) = &mut self.checkpoint else {
            return Ok(());
        };
        let depth = self.depth;
        if depth == 0
            || !depth.is_multiple_of(store.every())
            || self.stats.resumed_from_depth == Some(depth)
        {
            return Ok(());
        }
        let snapshot = self
            .frontier
            .snapshot_states(&regenerator(self.space, depth - 1))?;
        // Faults drawn *during* this commit land in the next image (and
        // in the next live stamp), not this one.
        self.lifetime.stamp(&mut self.stats);
        // The image counts itself, so restoring it leaves the same
        // lifetime total the uninterrupted run carries. (A failed commit
        // fails the run, so the count is never wrong in a reported
        // outcome.)
        self.stats.checkpoints_written += 1;
        // The commit is synchronous: a background-thread fdatasync was
        // measured to *cost* throughput on single-core hosts (the
        // committer steals scheduler slices from the exploration
        // thread), and a detached writer outliving an unwound run is a
        // hazard besides. The visited set costs only the digests
        // admitted since the previous commit, which the log appends; the
        // rest is the image's frontier encode and the two fdatasyncs
        // (`CheckpointStore::encode_image` gives the measured split).
        store.commit(depth, &self.stats, &self.findings, &snapshot)
    }

    /// Folds the spill I/O `self.frontier` performed into the statistics.
    /// Every frontier passes through here exactly once, when it is
    /// retired: consumed by [`BfsRun::admit`] (even if the budget then
    /// truncates it to nothing) or dropped by [`BfsRun::abandon`].
    fn retire_frontier(&mut self) {
        let (stats, frontier) = (&mut self.stats, &self.frontier);
        stats.spilled_chunks += frontier.spilled_chunks();
        stats.spilled_bytes += frontier.spilled_bytes();
        stats.peak_resident_bytes = stats.peak_resident_bytes.max(frontier.peak_window_bytes());
        // A frontier that hit ENOSPC and finished resident-degraded
        // counts its level once.
        stats.degraded_levels += usize::from(frontier.degraded());
    }

    /// The run ends here by the caller's choice — a cancelling observer
    /// (the built level dies unexpanded) or a firing stop predicate (the
    /// half-built next level dies).
    fn abandon(&mut self) {
        self.stats.stopped_early = true;
        self.retire_frontier();
    }

    /// Admits the level for expansion, leaving an empty next frontier in
    /// its place. Budget: expand at most `allowed` more states, ever. The
    /// truncation point is a state count, so it cuts the same frontier
    /// prefix whether the tail is resident or spilled. `None` when the
    /// budget leaves nothing to expand.
    fn admit(&mut self) -> Option<SpillFrontier<Sp::State>> {
        self.retire_frontier();
        if let Some(budget) = self.checker.config_budget {
            let allowed = budget.saturating_sub(self.stats.configs);
            if self.frontier.len() > allowed {
                self.frontier.truncate(allowed);
                self.stats.truncated = true;
                if self.frontier.is_empty() {
                    return None;
                }
            }
        }
        self.stats.peak_frontier = self.stats.peak_frontier.max(self.frontier.len());
        let next = SpillFrontier::new(self.spill.clone());
        Some(std::mem::replace(&mut self.frontier, next))
    }

    /// Streams `level` back chunk by chunk (one chunk, the whole level,
    /// without a memory budget) and drives each through the window: the
    /// peak resident decoded state count stays bounded by the chunk size
    /// while the next frontier spills its own cold chunks as it grows.
    /// Chunks replay in frontier order, so the merge sees exactly the
    /// sequence the unspilled kernel would. Returns whether the stop
    /// predicate fired.
    fn expand_into_next(
        &mut self,
        level: SpillFrontier<Sp::State>,
        stop: &mut impl FnMut(&[Sp::Finding]) -> bool,
    ) -> Result<bool, EngineError> {
        // The parents of this level's states were expanded at the
        // previous depth; replay regeneration must use the same depth to
        // reproduce the push order the indices refer to
        // (`saturating_sub`: the depth-0 frontier holds only literal
        // records, so the value is never consulted there).
        let regen = regenerator(self.space, self.depth.saturating_sub(1));
        let mut chunks = level.into_chunks();
        let mut stopped = false;
        while !stopped {
            let Some(chunk) = chunks.next_chunk(&regen)? else {
                break;
            };
            self.stats.peak_resident_states = self.stats.peak_resident_states.max(chunk.len());
            stopped = if self.checker.threads > 1 && chunk.len() >= PAR_MIN_FRONTIER {
                self.stream_windowed(chunk, stop)?
            } else {
                self.stream_inline(chunk, stop)?
            };
        }
        self.stats.replayed_parents += chunks.regenerated_parents();
        Ok(stopped)
    }

    /// The window of one parent: expand it into the one reused
    /// [`Expansion`], merge its successors, move on — nothing is
    /// allocated per parent and a duplicate successor is dropped while
    /// still in cache. Returns whether the stop predicate fired.
    fn stream_inline(
        &mut self,
        chunk: Vec<Sp::State>,
        stop: &mut impl FnMut(&[Sp::Finding]) -> bool,
    ) -> Result<bool, EngineError> {
        let space = self.space;
        let mut exp = Expansion::new_maybe_canonical(space, self.symmetry);
        for parent in chunk {
            exp.reset();
            space.expand(&parent, self.depth, &mut exp);
            let truncated = exp.truncated;
            let (succs, findings) = (exp.succs.drain(..), exp.findings.drain(..));
            if self.merge_parent(Cow::Owned(parent), succs, findings, truncated, drop, stop)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The window of a few blocks per thread: workers claim blocks of
    /// consecutive parents and expand them while this thread merges the
    /// finished ones strictly in block order, so expansion overlaps the
    /// sequential merge and no more than a [`Window`]'s worth of
    /// successors is ever unmerged. Returns whether the stop predicate
    /// fired.
    fn stream_windowed(
        &mut self,
        chunk: Vec<Sp::State>,
        stop: &mut impl FnMut(&[Sp::Finding]) -> bool,
    ) -> Result<bool, EngineError> {
        let (space, depth, symmetry) = (self.space, self.depth, self.symmetry);
        let workers = self
            .checker
            .threads
            .min(chunk.len().div_ceil(BLOCK_PARENTS));
        let window = Window::new(&chunk, workers);
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let window = &window;
                scope.spawn(move || {
                    // A panicking expansion must not leave the merge
                    // waiting for its block.
                    let _close = CloseOnDrop {
                        window,
                        only_if_panicking: true,
                    };
                    window.expand_blocks(worker, space, depth, symmetry);
                });
            }
            // However the merge ends — chunk done, stop fired, I/O error,
            // panic — waiting workers are released before the scope joins.
            let _close = CloseOnDrop {
                window: &window,
                only_if_panicking: false,
            };
            // `None`: chunk done, or a worker panicked (which the scope
            // re-raises).
            while let Some(block) = window.next_finished() {
                if self.merge_block(&window, block, stop)? {
                    return Ok(true);
                }
            }
            Ok(false)
        })
    }

    /// Merges one finished block, parent by parent, and hands the
    /// successors it rejected back to the worker that built them.
    /// Returns whether the stop predicate fired.
    fn merge_block(
        &mut self,
        window: &Window<'_, Sp>,
        block: Block<Sp>,
        stop: &mut impl FnMut(&[Sp::Finding]) -> bool,
    ) -> Result<bool, EngineError> {
        let (mut succs, mut findings) = (block.succs.into_iter(), block.findings.into_iter());
        let mut rejected = Vec::new();
        for (parent, shape) in block.parents.iter().zip(block.shapes) {
            let succs = succs.by_ref().take(shape.succs);
            let findings = findings.by_ref().take(shape.findings);
            let reject = |succ| rejected.push(succ);
            let parent = Cow::Borrowed(parent);
            if self.merge_parent(parent, succs, findings, shape.truncated, reject, stop)? {
                return Ok(true);
            }
        }
        window.hand_back(block.worker, rejected);
        Ok(false)
    }

    /// Deterministic merge of one parent's expansion, in frontier order:
    /// each successor is inserted into the visited set as it arrives (a
    /// duplicate goes straight to `reject`; a space that does not
    /// [revisit](StateSpace::REVISITS) admits all), and the accepted
    /// ones are handed to the next frontier as one contiguous run with their
    /// push-order action indices, so the replay codec can store a single
    /// (parent, indices) record per parent. Returns whether the stop
    /// predicate fired.
    fn merge_parent(
        &mut self,
        parent: Cow<'_, Sp::State>,
        succs: impl Iterator<Item = (Sp::State, Digest)>,
        findings: impl Iterator<Item = Sp::Finding>,
        truncated: bool,
        mut reject: impl FnMut(Sp::State),
        stop: &mut impl FnMut(&[Sp::Finding]) -> bool,
    ) -> Result<bool, EngineError> {
        let stats = &mut self.stats;
        stats.configs += 1;
        stats.truncated |= truncated;
        let findings_before = self.findings.len();
        self.findings.extend(findings);
        for (index, (succ, digest)) in succs.enumerate() {
            stats.transitions += 1;
            // A space whose states are paths has nothing to deduplicate
            // a successor against: its digest was never computed.
            if !Sp::REVISITS {
                self.accepted.push(succ);
                self.accepted_indices.push(index);
                continue;
            }
            // Under symmetry, `digest` is canonical (computed at push
            // time); track the exact digest on the side so a canonical
            // dup whose exact digest is fresh counts as an orbit
            // collapse.
            let exact_fresh = self.symmetry
                && insert_exact(
                    &mut self.exact_seen,
                    &mut self.checkpoint,
                    self.space.digest(&succ).0,
                );
            if self.visited.insert(digest.0) {
                stats.shard_occupancy[self.visited.shard_of(digest.0)] += 1;
                if let Some(store) = &mut self.checkpoint {
                    store.admit_visited(digest.0);
                }
                self.accepted.push(succ);
                self.accepted_indices.push(index);
            } else {
                stats.dedup_hits += 1;
                if exact_fresh {
                    stats.orbit_hits += 1;
                }
                reject(succ);
            }
        }
        self.frontier
            .push_group(parent, &mut self.accepted, &self.accepted_indices)?;
        self.accepted_indices.clear();
        Ok(self.findings.len() > findings_before && stop(&self.findings))
    }

    fn finish(mut self) -> KernelOutcome<Sp::Finding> {
        self.lifetime.stamp(&mut self.stats);
        KernelOutcome {
            findings: self.findings,
            stats: self.stats,
        }
    }
}

/// Inserts a symmetry run's exact digest into its side set, logging it
/// for the next checkpoint when it is fresh; returns whether it was.
fn insert_exact(
    exact_seen: &mut DetHashSet<u128>,
    checkpoint: &mut Option<CheckpointStore>,
    digest: u128,
) -> bool {
    let fresh = exact_seen.insert(digest);
    if let (true, Some(store)) = (fresh, checkpoint) {
        store.admit_exact(digest);
    }
    fresh
}

/// The replay codec's regenerator for records whose parents were expanded
/// at `parent_depth`: one shared, digest-free expansion of the parent
/// rebuilds every successor the record's push-order `indices` name — a
/// parent is never re-expanded more than once per replayed record.
fn regenerator<Sp>(
    space: &Sp,
    parent_depth: usize,
) -> impl Fn(&Sp::State, &[usize], &mut Vec<Sp::State>) + '_
where
    Sp: StateSpace + ?Sized,
{
    move |parent, indices, out| {
        let mut exp = Expansion::new_undigested(space);
        space.expand(parent, parent_depth, &mut exp);
        let total = exp.succs.len();
        let mut want = indices.iter().peekable();
        for (index, (succ, _)) in exp.succs.into_iter().enumerate() {
            if want.peek().is_some_and(|&&w| w == index) {
                out.push(succ);
                want.next();
            }
        }
        assert!(
            want.peek().is_none(),
            "corrupt replay record: successor index past the parent's \
             {total} pushes"
        );
    }
}

/// One block of consecutive parents with their expansions, flattened: a
/// block costs three allocations however many parents it holds.
struct Block<'c, Sp: StateSpace + ?Sized> {
    /// The worker that expanded the block (and allocated its successors).
    worker: usize,
    parents: &'c [Sp::State],
    /// Every parent's successors, in parent then push order.
    succs: Vec<(Sp::State, Digest)>,
    /// Every parent's findings, likewise.
    findings: Vec<Sp::Finding>,
    /// One per parent: how long its runs in `succs` and `findings` are.
    shapes: Vec<Shape>,
}

/// What one parent's expansion contributed to its [`Block`].
struct Shape {
    succs: usize,
    findings: usize,
    truncated: bool,
}

impl<'c, Sp: StateSpace + ?Sized> Block<'c, Sp> {
    /// Expands `parents` into one shared [`Expansion`], whose vectors
    /// become the block's.
    fn expand(
        worker: usize,
        space: &Sp,
        parents: &'c [Sp::State],
        depth: usize,
        canonical: bool,
    ) -> Self {
        let mut exp = Expansion::new_maybe_canonical(space, canonical);
        let mut shapes = Vec::with_capacity(parents.len());
        for parent in parents {
            let (succs, findings) = (exp.succs.len(), exp.findings.len());
            exp.truncated = false;
            space.expand(parent, depth, &mut exp);
            shapes.push(Shape {
                succs: exp.succs.len() - succs,
                findings: exp.findings.len() - findings,
                truncated: exp.truncated,
            });
        }
        Block {
            worker,
            parents,
            succs: exp.succs,
            findings: exp.findings,
            shapes,
        }
    }
}

/// One chunk's bounded expand-ahead window, shared by the workers that
/// expand blocks and the one thread that merges them. Workers claim block
/// indices from `cursor` but may not start block `k` until the merge has
/// taken block `k - finished.len()`, so at most that many blocks (plus
/// the one being merged) hold live successors, whatever the chunk's size.
///
/// Memory goes back where it came from: the merge hands the successors it
/// rejected to the worker that allocated them, and the chunk's parents
/// are dropped by the caller once the workers are gone. A thread freeing
/// into an allocator arena another thread is allocating from is what the
/// window otherwise spends its time on.
struct Window<'c, Sp: StateSpace + ?Sized> {
    chunk: &'c [Sp::State],
    /// The next block to claim; block `k` is parents `k * BLOCK_PARENTS..`.
    /// A ticket counter: it publishes no data (the chunk is immutable
    /// and blocks change hands under `state`), hence `Relaxed`.
    cursor: AtomicUsize,
    state: Mutex<WindowState<'c, Sp>>,
    /// A block was finished (the merge may be waiting for it).
    landed: Condvar,
    /// The merge took a block, or the window closed (workers may be
    /// waiting for room).
    room: Condvar,
}

struct WindowState<'c, Sp: StateSpace + ?Sized> {
    /// Blocks the merge has taken so far, always in block order.
    merged: usize,
    /// Finished blocks awaiting their turn; block `k` lands in slot
    /// `k % len`, free by the claim rule.
    finished: Vec<Option<Block<'c, Sp>>>,
    /// Per worker: the rejected successors of its merged blocks, one
    /// vector per block, for it to drop.
    rejected: Vec<Vec<Vec<Sp::State>>>,
    /// No further blocks: the merge is over (chunk done, stop, error) or
    /// a thread panicked.
    closed: bool,
}

impl<'c, Sp: StateSpace + ?Sized> Window<'c, Sp> {
    fn new(chunk: &'c [Sp::State], workers: usize) -> Self {
        Window {
            chunk,
            cursor: AtomicUsize::new(0),
            state: Mutex::new(WindowState {
                merged: 0,
                finished: (0..workers * WINDOW_BLOCKS_PER_THREAD)
                    .map(|_| None)
                    .collect(),
                rejected: (0..workers).map(|_| Vec::new()).collect(),
                closed: false,
            }),
            landed: Condvar::new(),
            room: Condvar::new(),
        }
    }

    fn blocks(&self) -> usize {
        self.chunk.len().div_ceil(BLOCK_PARENTS)
    }

    fn guard(&self) -> MutexGuard<'_, WindowState<'c, Sp>> {
        self.state
            .lock()
            .expect("the window lock is never held across a panic")
    }

    /// A worker's loop: claim the next block, wait for the window to
    /// reach it, drop what the merge handed back, expand, land; until the
    /// chunk is exhausted or the window closes.
    fn expand_blocks(&self, worker: usize, space: &Sp, depth: usize, canonical: bool) {
        loop {
            let index = self.cursor.fetch_add(1, Ordering::Relaxed);
            if index >= self.blocks() {
                return;
            }
            let mut state = self.guard();
            while !state.closed && index >= state.merged + state.finished.len() {
                state = self.room.wait(state).expect("no poisoned window");
            }
            if state.closed {
                return;
            }
            let handed_back = std::mem::take(&mut state.rejected[worker]);
            drop(state);
            drop(handed_back);

            let start = index * BLOCK_PARENTS;
            let end = self.chunk.len().min(start + BLOCK_PARENTS);
            let block = Block::expand(worker, space, &self.chunk[start..end], depth, canonical);

            let mut state = self.guard();
            let slot = index % state.finished.len();
            state.finished[slot] = Some(block);
            drop(state);
            self.landed.notify_one();
        }
    }

    /// The merge's side: the next block in block order, waiting for it to
    /// land. `None` once every block has been taken — or the window was
    /// closed under the merge's feet by a panicking worker.
    fn next_finished(&self) -> Option<Block<'c, Sp>> {
        let mut state = self.guard();
        if state.merged == self.blocks() {
            return None;
        }
        let slot = state.merged % state.finished.len();
        loop {
            if let Some(block) = state.finished[slot].take() {
                state.merged += 1;
                drop(state);
                self.room.notify_all();
                return Some(block);
            }
            if state.closed {
                return None;
            }
            state = self.landed.wait(state).expect("no poisoned window");
        }
    }

    /// Leaves `rejected` for `worker` to drop at its next claim (or, past
    /// its last one, for whoever drops the window).
    fn hand_back(&self, worker: usize, rejected: Vec<Sp::State>) {
        self.guard().rejected[worker].push(rejected);
    }

    fn close(&self) {
        self.guard().closed = true;
        self.room.notify_all();
        self.landed.notify_one();
    }
}

/// Closes a [`Window`] when the holder leaves its scope — on every exit
/// path, or only when it is unwinding.
struct CloseOnDrop<'w, 'c, Sp: StateSpace + ?Sized> {
    window: &'w Window<'c, Sp>,
    only_if_panicking: bool,
}

impl<Sp: StateSpace + ?Sized> Drop for CloseOnDrop<'_, '_, Sp> {
    fn drop(&mut self) {
        if !self.only_if_panicking || std::thread::panicking() {
            self.window.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::digest128_of;

    /// Grid walk: states are (x, y) with moves +x / +y up to a bound; a
    /// finding is emitted at every corner state. Many diamonds, so dedup
    /// matters; fully deterministic.
    struct GridWalk {
        bound: u32,
        digest_bits: u32,
    }

    impl StateSpace for GridWalk {
        type State = (u32, u32);
        type Finding = (u32, u32);

        fn digest(&self, state: &Self::State) -> Digest {
            digest128_of(state).truncated(self.digest_bits)
        }

        fn expand(&self, &(x, y): &Self::State, _depth: usize, ctx: &mut Expansion<Self>) {
            if x == self.bound && y == self.bound {
                ctx.finding((x, y));
                return;
            }
            if x < self.bound {
                ctx.push((x + 1, y));
            }
            if y < self.bound {
                ctx.push((x, y + 1));
            }
        }
    }

    fn grid(bound: u32) -> GridWalk {
        GridWalk {
            bound,
            digest_bits: 128,
        }
    }

    #[test]
    fn bfs_counts_grid_exactly() {
        let out = Checker::parallel_bfs(1).run(&grid(10), vec![(0, 0)]);
        assert_eq!(out.stats.configs, 11 * 11);
        assert_eq!(out.findings, vec![(10, 10)]);
        assert!(!out.stats.truncated);
        assert!(out.stats.dedup_hits > 0, "diamonds must dedup");
    }

    #[test]
    fn parallel_threads_match_single_thread() {
        // Big enough to cross PAR_MIN_FRONTIER on middle levels.
        let space = grid(300);
        let one = Checker::parallel_bfs(1).run(&space, vec![(0, 0)]);
        let four = Checker::parallel_bfs(4).run(&space, vec![(0, 0)]);
        assert_eq!(one.stats.configs, four.stats.configs);
        assert_eq!(one.stats.transitions, four.stats.transitions);
        assert_eq!(one.stats.dedup_hits, four.stats.dedup_hits);
        assert_eq!(one.findings, four.findings);
    }

    #[test]
    fn budget_truncates_and_reports_it() {
        let out = Checker::parallel_bfs(1)
            .with_budget(5)
            .run(&grid(10), vec![(0, 0)]);
        assert_eq!(out.stats.configs, 5);
        assert!(out.stats.truncated);
        assert!(out.findings.is_empty());
    }

    #[test]
    fn stop_predicate_halts_early() {
        // Every state emits a finding; stop after three.
        struct Chain;
        impl StateSpace for Chain {
            type State = u32;
            type Finding = u32;
            fn digest(&self, s: &u32) -> Digest {
                digest128_of(s)
            }
            fn expand(&self, &s: &u32, _d: usize, ctx: &mut Expansion<Self>) {
                ctx.finding(s);
                if s < 100 {
                    ctx.push(s + 1);
                }
            }
        }
        let out = Checker::parallel_bfs(1).run_until(&Chain, vec![0], |fs| fs.len() >= 3);
        assert!(out.stats.stopped_early);
        assert_eq!(out.findings, vec![0, 1, 2]);
    }

    #[test]
    fn truncation_via_space_horizon() {
        // A space that bounds its own depth, like the safety explorer.
        struct Bounded;
        impl StateSpace for Bounded {
            type State = u32;
            type Finding = ();
            fn digest(&self, s: &u32) -> Digest {
                digest128_of(s)
            }
            fn expand(&self, &s: &u32, depth: usize, ctx: &mut Expansion<Self>) {
                if depth >= 4 {
                    ctx.mark_truncated();
                    return;
                }
                ctx.push(s * 2 + 1);
                ctx.push(s * 2 + 2);
            }
        }
        let out = Checker::parallel_bfs(1).run(&Bounded, vec![0]);
        assert!(out.stats.truncated);
        assert_eq!(out.stats.configs, 2usize.pow(5) - 1);
    }

    #[test]
    fn duplicate_initial_states_collapse() {
        let out = Checker::parallel_bfs(1).run(&grid(2), vec![(0, 0), (0, 0), (1, 1)]);
        assert_eq!(out.stats.configs, 9);
    }

    #[test]
    fn spilling_matches_resident_exploration_exactly() {
        // Records are two one-byte varints (digests are not stored — the
        // visited set consumed them before the push); a 128-byte budget
        // gives 64-byte chunks, so every level wider than ~32 states
        // spills — the middle half of the 61-wide grid diagonals.
        let space = grid(60);
        let resident = Checker::parallel_bfs(1)
            .with_mem_budget(0)
            .run(&space, vec![(0, 0)]);
        let spilled = Checker::parallel_bfs(1)
            .with_mem_budget(128)
            .run(&space, vec![(0, 0)]);
        assert_eq!(spilled.stats.configs, resident.stats.configs);
        assert_eq!(spilled.stats.transitions, resident.stats.transitions);
        assert_eq!(spilled.stats.dedup_hits, resident.stats.dedup_hits);
        assert_eq!(spilled.stats.peak_frontier, resident.stats.peak_frontier);
        assert_eq!(
            spilled.stats.shard_occupancy,
            resident.stats.shard_occupancy
        );
        assert_eq!(spilled.findings, resident.findings);
        assert!(
            spilled.stats.spilled_chunks >= 2,
            "budget must force spilling"
        );
        assert!(spilled.stats.spilled_bytes > 0);
        assert!(
            spilled.stats.peak_resident_states < spilled.stats.peak_frontier,
            "resident window ({}) must stay below the widest level ({})",
            spilled.stats.peak_resident_states,
            spilled.stats.peak_frontier
        );
        assert_eq!(resident.stats.spilled_chunks, 0);
        assert_eq!(
            resident.stats.peak_resident_states,
            resident.stats.peak_frontier
        );
    }

    #[test]
    fn growing_states_respect_the_byte_budget() {
        // The accumulating-history shape that broke the old state-count
        // window: every step appends to a payload, so states late in the
        // run encode ~50x larger than the probe-sized first record. The
        // byte-measured window must keep the resident encoded bytes
        // within one chunk (budget / 2) plus one record — and the run
        // must stay bit-identical to the resident one.
        struct Accumulator {
            bound: u32,
        }
        impl StateSpace for Accumulator {
            type State = (u32, Vec<u32>);
            type Finding = u32;
            fn digest(&self, s: &Self::State) -> Digest {
                digest128_of(s)
            }
            fn expand(&self, (x, trail): &Self::State, _depth: usize, ctx: &mut Expansion<Self>) {
                if *x >= self.bound {
                    ctx.finding(trail.len() as u32);
                    return;
                }
                // Branches grow the trail by different amounts, so one
                // BFS level mixes records of very different sizes — the
                // shape the old first-record probe mis-sized.
                for step in 0..3u32 {
                    let mut grown = trail.clone();
                    grown.extend(std::iter::repeat_n(*x * 3 + step + 1000, step as usize + 1));
                    ctx.push((*x + 1, grown));
                }
            }
        }
        const BUDGET: usize = 1024;
        let space = Accumulator { bound: 8 };
        let resident = Checker::parallel_bfs(1)
            .with_mem_budget(0)
            .run(&space, vec![(0, Vec::new())]);
        let spilled = Checker::parallel_bfs(1)
            .with_mem_budget(BUDGET)
            .run(&space, vec![(0, Vec::new())]);
        assert_eq!(spilled.stats.configs, resident.stats.configs);
        assert_eq!(spilled.stats.dedup_hits, resident.stats.dedup_hits);
        assert_eq!(spilled.findings, resident.findings);
        assert!(spilled.stats.spilled_chunks > 2, "deep levels must spill");
        // Largest record: a tuple of (u32, 24-element Vec<u32> with
        // multi-byte varints); digests are not stored.
        let max_record = 4 + 24 * 5;
        assert!(
            spilled.stats.peak_resident_bytes <= BUDGET / 2 + max_record,
            "window peaked at {} encoded bytes; chunk budget {} + record {max_record}",
            spilled.stats.peak_resident_bytes,
            BUDGET / 2
        );
        assert_eq!(spilled.stats.mem_budget, Some(BUDGET));
        assert_eq!(resident.stats.mem_budget, None);
    }

    #[test]
    fn every_spill_codec_matches_the_resident_run() {
        let space = grid(60);
        let resident = Checker::parallel_bfs(1)
            .with_mem_budget(0)
            .run(&space, vec![(0, 0)]);
        assert_eq!(resident.stats.replayed_parents, 0);
        for codec in [SpillCodec::Delta, SpillCodec::Plain, SpillCodec::Replay] {
            let spilled = Checker::parallel_bfs(1)
                .with_mem_budget(128)
                .with_spill_codec(codec)
                .run(&space, vec![(0, 0)]);
            assert_eq!(spilled.stats.configs, resident.stats.configs, "{codec:?}");
            assert_eq!(
                spilled.stats.dedup_hits, resident.stats.dedup_hits,
                "{codec:?}"
            );
            assert_eq!(spilled.findings, resident.findings, "{codec:?}");
            assert!(spilled.stats.spilled_chunks >= 2, "{codec:?}");
            if codec == SpillCodec::Replay {
                assert!(
                    spilled.stats.replayed_parents > 0,
                    "spilled replay chunks must regenerate from parents"
                );
                assert!(
                    spilled.stats.replayed_parents <= resident.stats.configs,
                    "at most one re-expansion per parent per level: {} > {}",
                    spilled.stats.replayed_parents,
                    resident.stats.configs
                );
            } else {
                assert_eq!(spilled.stats.replayed_parents, 0, "{codec:?}");
            }
        }
    }

    /// GridWalk with its transpose symmetry made explicit: `(x, y)` and
    /// `(y, x)` behave identically up to the swap, the corner finding is
    /// swap-invariant, so sorting the coordinates is a sound
    /// canonicalizer — orbits halve the off-diagonal states.
    struct SymmetricGrid(GridWalk);

    impl StateSpace for SymmetricGrid {
        type State = (u32, u32);
        type Finding = (u32, u32);

        fn digest(&self, state: &Self::State) -> Digest {
            self.0.digest(state)
        }

        fn expand(&self, state: &Self::State, depth: usize, ctx: &mut Expansion<Self>) {
            let mut inner = Expansion::new(&self.0);
            self.0.expand(state, depth, &mut inner);
            for finding in inner.findings {
                ctx.finding(finding);
            }
            for (succ, _) in inner.succs {
                ctx.push(succ);
            }
        }

        fn has_symmetry_reduction(&self) -> bool {
            true
        }

        fn canonical_digest(&self, &(x, y): &Self::State) -> Digest {
            self.0.digest(&(x.min(y), x.max(y)))
        }
    }

    #[test]
    fn symmetry_collapses_orbits_and_preserves_findings() {
        let space = SymmetricGrid(grid(10));
        let full = Checker::parallel_bfs(1)
            .with_symmetry(false)
            .run(&space, vec![(0, 0)]);
        let reduced = Checker::parallel_bfs(1)
            .with_symmetry(true)
            .run(&space, vec![(0, 0)]);
        assert_eq!(full.stats.configs, 11 * 11);
        // One representative per orbit: the upper triangle incl. diagonal.
        assert_eq!(reduced.stats.configs, 11 * 12 / 2);
        assert_eq!(reduced.findings, full.findings);
        assert!(reduced.stats.symmetry);
        assert!(!full.stats.symmetry);
        assert!(
            reduced.stats.orbit_hits > 0,
            "off-diagonal twins must collapse"
        );
        assert_eq!(full.stats.orbit_hits, 0, "no orbit hits when off");
        assert!(reduced.stats.orbit_hits <= reduced.stats.dedup_hits);
    }

    #[test]
    fn symmetry_request_is_inert_without_the_capability() {
        // GridWalk does not advertise symmetry: asking for it must run
        // the unreduced kernel bit-for-bit (and say so in the stats).
        let on = Checker::parallel_bfs(1)
            .with_symmetry(true)
            .run(&grid(10), vec![(0, 0)]);
        let off = Checker::parallel_bfs(1)
            .with_symmetry(false)
            .run(&grid(10), vec![(0, 0)]);
        assert_eq!(on.stats.configs, off.stats.configs);
        assert_eq!(on.stats.dedup_hits, off.stats.dedup_hits);
        assert_eq!(on.stats.orbit_hits, 0);
        assert!(!on.stats.symmetry, "capability gate must win");
    }

    #[test]
    fn symmetric_initial_states_collapse_to_one_orbit() {
        // (0,1) and (1,0) are one orbit: seeding both must explore
        // exactly what seeding one does.
        let space = SymmetricGrid(grid(4));
        let both = Checker::parallel_bfs(1)
            .with_symmetry(true)
            .run(&space, vec![(0, 1), (1, 0)]);
        let one = Checker::parallel_bfs(1)
            .with_symmetry(true)
            .run(&space, vec![(0, 1)]);
        assert_eq!(both.stats.configs, one.stats.configs);
        assert_eq!(both.findings, one.findings);
    }
}
