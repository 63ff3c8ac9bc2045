//! Crash/resume differential: a checkpointed run killed at a random
//! level boundary and resumed must be **bit-identical** to the
//! uninterrupted run — verdict (findings), state counts (`configs`,
//! `transitions`, `dedup_hits`, `orbit_hits`, `peak_frontier`,
//! `shard_occupancy`), and truncation flags — across the
//! {resident, plain, delta, replay} × {symmetry on, off} matrix.
//!
//! The "crash" is an injected panic on the first expansion of the kill
//! level, caught with `catch_unwind`: the last committed checkpoint
//! survives (commits are atomic renames at level boundaries), everything
//! after it dies mid-level, exactly like a SIGKILL between two commits.
//! Kill depths are drawn from a SplitMix64 stream so each matrix cell
//! exercises a different boundary; the fixed seed keeps failures
//! reproducible.

use std::sync::atomic::{AtomicUsize, Ordering};

use slx_engine::{
    Checker, CheckpointStore, Digest, Expansion, ExploreStats, SpillCodec, StateSpace,
};

mod common;
use common::{
    image_depth, log_at, log_bytes, log_len, log_lengths, visited_logs, Rng, SymGrid, NEVER,
};

const SEED: u64 = 0xC0FF_EE00_D15E_A5E5;

fn unique_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "slx-ckpt-resume-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("test checkpoint dir");
    dir
}

/// The statistics the resume contract pins bit-identically. Spill-volume
/// counters (`spilled_*`, `peak_resident_*`, `replayed_parents`) measure
/// I/O actually performed and legitimately differ across a resume.
fn identical_part(stats: &ExploreStats) -> impl PartialEq + std::fmt::Debug {
    (
        stats.configs,
        stats.transitions,
        stats.dedup_hits,
        stats.orbit_hits,
        stats.peak_frontier,
        stats.shard_occupancy.clone(),
        stats.truncated,
        stats.stopped_early,
    )
}

/// One checker per matrix cell: single-threaded, pinned shards, the
/// cell's spill budget/codec and symmetry setting.
fn cell_checker(budget: usize, codec: SpillCodec, symmetry: bool) -> Checker {
    Checker::parallel_bfs(1)
        .with_shards(8)
        .with_mem_budget(budget)
        .with_spill_codec(codec)
        .with_symmetry(symmetry)
}

#[test]
fn killed_and_resumed_runs_match_uninterrupted_ones_across_the_matrix() {
    // (budget, codec): budget 0 is the resident arm (the codec is inert
    // there for spilling but still the checkpoint frontier encoding);
    // 128 bytes (64-byte chunks of two-varint-byte records) forces every
    // level of the 41-wide grid wider than ~32 states to spill.
    let arms = [
        (0usize, SpillCodec::Delta),
        (128, SpillCodec::Plain),
        (128, SpillCodec::Delta),
        (128, SpillCodec::Replay),
    ];
    let mut rng = Rng(SEED);
    for (budget, codec) in arms {
        for symmetry in [false, true] {
            let space = SymGrid::new(40);
            let baseline = cell_checker(budget, codec, symmetry).run(&space, vec![(0, 0)]);
            assert_eq!(baseline.findings, vec![(40, 40)]);
            assert_eq!(baseline.stats.checkpoints_written, 0);
            if symmetry {
                assert!(baseline.stats.orbit_hits > 0);
            }
            // Symmetry halves level widths (only x <= y survives), which
            // keeps every window under the 64-byte chunk bound — so only
            // the unreduced budgeted arms are guaranteed to spill.
            if budget > 0 && !symmetry {
                assert!(baseline.stats.spilled_chunks > 0, "{codec:?} must spill");
            }

            // Cadence in [1, 3], kill somewhere past the first boundary
            // (so a committed checkpoint exists to resume from) and
            // before the run ends at depth 80.
            let every = 1 + (rng.next() % 3) as usize;
            let kill = every + (rng.next() as usize) % (78 - every);
            let dir = unique_dir("matrix");
            let label =
                format!("{codec:?}/sym={symmetry}/budget={budget}/every={every}/kill={kill}");

            // Crash: the injected panic fires expanding level `kill`,
            // after the last cadence boundary at or below it committed.
            let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cell_checker(budget, codec, symmetry)
                    .with_checkpoint(&dir, every)
                    .run(
                        &SymGrid {
                            bound: 40,
                            kill_depth: kill,
                        },
                        vec![(0, 0)],
                    )
            }));
            assert!(crashed.is_err(), "{label}: the kill level must be reached");
            assert!(
                CheckpointStore::exists(&dir),
                "{label}: a committed checkpoint must survive the crash"
            );

            // Resume: bit-identical verdict, counts, and flags.
            let resumed = cell_checker(budget, codec, symmetry)
                .resume(&dir)
                .run(&space, vec![(0, 0)]);
            assert_eq!(resumed.findings, baseline.findings, "{label}");
            assert_eq!(
                identical_part(&resumed.stats),
                identical_part(&baseline.stats),
                "{label}"
            );
            let resumed_from = resumed
                .stats
                .resumed_from_depth
                .expect("resumed runs report their entry level");
            assert!(
                resumed_from.is_multiple_of(every) && resumed_from <= kill,
                "{label}: resumed at {resumed_from}, not a committed boundary"
            );
            // Whenever the uninterrupted replay-codec run spilled, the
            // crash/resume pair must have replayed too: either the
            // crashed segment already regenerated (and the restored
            // counter carries it) or the resumed tail crosses the wide
            // spilling levels itself.
            if codec == SpillCodec::Replay && baseline.stats.spilled_chunks > 0 {
                assert!(
                    resumed.stats.replayed_parents > 0,
                    "{label}: the resumed run must still replay-regenerate"
                );
            }
            std::fs::remove_dir_all(&dir).expect("checkpoint dir cleanup");
        }
    }
}

#[test]
fn checkpointing_overhead_changes_no_verdict_or_count() {
    // Checkpoint-on vs checkpoint-off, uninterrupted: the store must be
    // a pure observer. Also pins the lifetime checkpoint count and that
    // a completed run leaves its last image on disk (callers own the
    // directory's lifecycle).
    let space = SymGrid::new(12);
    let off = cell_checker(128, SpillCodec::Delta, true).run(&space, vec![(0, 0)]);
    let dir = unique_dir("observer");
    let on = cell_checker(128, SpillCodec::Delta, true)
        .with_checkpoint(&dir, 5)
        .run(&space, vec![(0, 0)]);
    assert_eq!(on.findings, off.findings);
    assert_eq!(identical_part(&on.stats), identical_part(&off.stats));
    assert_eq!(on.stats.checkpoints_written, 4, "levels 5, 10, 15, 20");
    assert!(CheckpointStore::exists(&dir));
    assert_eq!(off.stats.checkpoints_written, 0);
    assert!(off.stats.resumed_from_depth.is_none());
    std::fs::remove_dir_all(&dir).expect("checkpoint dir cleanup");
}

#[test]
fn resumed_runs_keep_checkpointing_and_can_resume_again() {
    // Crash twice at different boundaries: each resume re-arms the store
    // in the same directory, and the lifetime checkpoint count carried
    // across both segments equals the uninterrupted run's.
    let dir = unique_dir("twice");
    let baseline = cell_checker(128, SpillCodec::Delta, false).run(&SymGrid::new(15), vec![(0, 0)]);
    let ckpt_baseline = {
        let dir = unique_dir("twice-ref");
        let out = cell_checker(128, SpillCodec::Delta, false)
            .with_checkpoint(&dir, 2)
            .run(&SymGrid::new(15), vec![(0, 0)]);
        std::fs::remove_dir_all(&dir).expect("checkpoint dir cleanup");
        out
    };
    for kill in [7usize, 19] {
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let checker = cell_checker(128, SpillCodec::Delta, false).with_checkpoint(&dir, 2);
            let checker = if CheckpointStore::exists(&dir) {
                checker.resume(&dir)
            } else {
                checker
            };
            checker.run(
                &SymGrid {
                    bound: 15,
                    kill_depth: kill,
                },
                vec![(0, 0)],
            )
        }));
        assert!(crashed.is_err(), "kill at {kill} must be reached");
    }
    // The cadence is deliberately not part of the validated header (it
    // affects only checkpoint timing, never the verdict), so a resume
    // that wants the same lifetime count must re-state it.
    let finished = cell_checker(128, SpillCodec::Delta, false)
        .with_checkpoint(&dir, 2)
        .resume(&dir)
        .run(&SymGrid::new(15), vec![(0, 0)]);
    assert_eq!(finished.findings, baseline.findings);
    assert_eq!(
        identical_part(&finished.stats),
        identical_part(&baseline.stats)
    );
    assert_eq!(
        finished.stats.checkpoints_written, ckpt_baseline.stats.checkpoints_written,
        "the lifetime count spans all segments, without double-counting \
         the boundaries the resumes re-entered at"
    );
    std::fs::remove_dir_all(&dir).expect("checkpoint dir cleanup");
}

#[test]
fn parallel_resume_matches_single_threaded_baseline() {
    // Determinism across thread counts extends to crash/resume: kill a
    // 2-thread checkpointed run, resume with 2 threads, compare against
    // the 1-thread uninterrupted baseline.
    let baseline = Checker::parallel_bfs(1)
        .with_shards(8)
        .run(&SymGrid::new(40), vec![(0, 0)]);
    let dir = unique_dir("threads");
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Checker::parallel_bfs(2)
            .with_shards(8)
            .with_checkpoint(&dir, 3)
            .run(
                &SymGrid {
                    bound: 40,
                    kill_depth: 31,
                },
                vec![(0, 0)],
            )
    }));
    assert!(crashed.is_err());
    let resumed = Checker::parallel_bfs(2)
        .with_shards(8)
        .resume(&dir)
        .run(&SymGrid::new(40), vec![(0, 0)]);
    assert_eq!(resumed.findings, baseline.findings);
    assert_eq!(
        identical_part(&resumed.stats),
        identical_part(&baseline.stats)
    );
    std::fs::remove_dir_all(&dir).expect("checkpoint dir cleanup");
}

/// Chain walk whose every expansion sleeps: `0 -> 1 -> ... -> bound`,
/// one state per level, a finding at the end — so wall-clock grows
/// linearly and predictably with depth. Used to pin the *lifetime*
/// `elapsed` accounting across a crash/resume.
struct SlowChain {
    bound: u32,
    kill_depth: usize,
    step: std::time::Duration,
}

impl StateSpace for SlowChain {
    type State = u32;
    type Finding = u32;

    fn digest(&self, state: &Self::State) -> Digest {
        slx_engine::digest128_of(state)
    }

    fn expand(&self, &s: &Self::State, depth: usize, ctx: &mut Expansion<Self>) {
        assert!(depth < self.kill_depth, "injected crash at level {depth}");
        std::thread::sleep(self.step);
        if s < self.bound {
            ctx.push(s + 1);
        } else {
            ctx.finding(s);
        }
    }
}

#[test]
fn resumed_elapsed_accumulates_the_pre_crash_segments() {
    // The inflated-throughput regression: `configs` is a lifetime counter
    // restored from the image, but `elapsed` used to restart at zero for
    // the resumed segment — so `states_per_sec` over-reported by the
    // ratio of lifetime work to tail work. Images now persist lifetime
    // elapsed (format v2) and resumed runs accumulate it.
    let step = std::time::Duration::from_millis(3);
    let dir = unique_dir("elapsed");
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Checker::parallel_bfs(1).with_checkpoint(&dir, 1).run(
            &SlowChain {
                bound: 40,
                kill_depth: 30,
                step,
            },
            vec![0u32],
        )
    }));
    assert!(crashed.is_err(), "the kill level must be reached");
    let resumed = Checker::parallel_bfs(1).resume(&dir).run(
        &SlowChain {
            bound: 40,
            kill_depth: NEVER,
            step,
        },
        vec![0u32],
    );
    assert_eq!(resumed.findings, vec![40]);
    // Thirty pre-crash levels of >= 3ms each were already on the clock
    // when the last image committed; the resumed tail alone is ~11
    // levels (~33ms). Without accumulation the final elapsed would sit
    // far below this floor — and the derived rate (lifetime configs over
    // tail elapsed) would be inflated several-fold vs the fresh run.
    assert!(
        resumed.stats.elapsed >= std::time::Duration::from_millis(90),
        "lifetime elapsed must include the pre-crash segment: {:?}",
        resumed.stats.elapsed
    );
    assert!(
        resumed.stats.states_per_sec() <= resumed.stats.configs as f64 / 0.090,
        "states/s must be derived from lifetime elapsed, got {}",
        resumed.stats.states_per_sec()
    );
    std::fs::remove_dir_all(&dir).expect("checkpoint dir cleanup");
}

#[test]
fn stale_staging_files_from_a_kill_mid_commit_are_reclaimed_on_resume() {
    // A SIGKILL between writing `slx-checkpoint.bin.tmp` and the atomic
    // rename strands the staging file: nothing ever committed it, and
    // before the hygiene fix nothing ever deleted it either. Re-arming a
    // store in that directory must reclaim it, and the stranded bytes
    // must not disturb the resume (commits only ever read FILE_NAME).
    let dir = unique_dir("stale-tmp");
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cell_checker(0, SpillCodec::Delta, false)
            .with_checkpoint(&dir, 2)
            .run(
                &SymGrid {
                    bound: 15,
                    kill_depth: 9,
                },
                vec![(0, 0)],
            )
    }));
    assert!(crashed.is_err(), "the kill level must be reached");
    let tmp = dir.join("slx-checkpoint.bin.tmp");
    std::fs::write(&tmp, b"half-written staging garbage").expect("plant stale tmp");

    let baseline = cell_checker(0, SpillCodec::Delta, false).run(&SymGrid::new(15), vec![(0, 0)]);
    let resumed = cell_checker(0, SpillCodec::Delta, false)
        .with_checkpoint(&dir, 2)
        .resume(&dir)
        .run(&SymGrid::new(15), vec![(0, 0)]);
    assert_eq!(resumed.findings, baseline.findings);
    assert_eq!(
        identical_part(&resumed.stats),
        identical_part(&baseline.stats)
    );
    assert!(
        !tmp.exists(),
        "the stranded staging file must be reclaimed by the next commit cycle"
    );
    assert!(CheckpointStore::exists(&dir));
    std::fs::remove_dir_all(&dir).expect("checkpoint dir cleanup");
}

#[test]
fn a_failed_commit_never_tears_the_previous_image() {
    // ENOSPC or a torn write *during* a commit (injected on the
    // checkpoint write/sync/rename seams, which the log append shares
    // with the image) must surface as a typed error that leaves the
    // previously committed image loadable, no staging file behind, and
    // the log no longer than the committed length plus the failed
    // append — the commit discipline under real fault pressure, not
    // just a planted panic between commits. Seed-pinned: one worker
    // thread makes every schedule's outcome deterministic.
    use slx_engine::{FaultKind, FaultOp, FaultPlan};
    let baseline = cell_checker(0, SpillCodec::Delta, false).run(&SymGrid::new(20), vec![(0, 0)]);
    let lengths = log_lengths(
        &cell_checker(0, SpillCodec::Delta, false),
        &SymGrid::new(20),
    );
    let mut failures = 0u32;
    let mut failures_with_an_image = 0u32;
    for seed in 0..16u64 {
        let dir = unique_dir("commit-fault");
        let plan = FaultPlan::seeded(seed)
            .with_rate(96)
            .with_ops(&[FaultOp::CkptWrite, FaultOp::CkptSync, FaultOp::CkptRename])
            .with_kinds(&[FaultKind::Enospc, FaultKind::Torn]);
        let result = cell_checker(0, SpillCodec::Delta, false)
            .with_checkpoint(&dir, 1)
            .with_fault_plan(plan)
            .try_run_observed(&SymGrid::new(20), vec![(0, 0)], |_| false, |_, _| true);
        match result {
            Ok(out) => {
                assert_eq!(out.findings, baseline.findings, "seed {seed}");
                assert_eq!(
                    identical_part(&out.stats),
                    identical_part(&baseline.stats),
                    "seed {seed}"
                );
            }
            Err(err) => {
                failures += 1;
                assert!(
                    !dir.join("slx-checkpoint.bin.tmp").exists(),
                    "seed {seed}: staging file stranded after {err}"
                );
                // Cadence 1: the failed commit is the one after the image.
                let committed = image_depth(
                    &cell_checker(0, SpillCodec::Delta, false),
                    &dir,
                    &SymGrid::new(20),
                );
                let failed = committed.map_or(1, |depth| depth + 1);
                assert!(
                    log_len(&dir) <= log_at(&lengths, failed),
                    "seed {seed}: the log outgrew the committed length plus the failed append"
                );
                if let Some(depth) = committed {
                    assert!(log_len(&dir) >= log_at(&lengths, depth), "seed {seed}");
                    failures_with_an_image += 1;
                    let resumed = cell_checker(0, SpillCodec::Delta, false)
                        .resume(&dir)
                        .run(&SymGrid::new(20), vec![(0, 0)]);
                    assert_eq!(resumed.findings, baseline.findings, "seed {seed}");
                    assert_eq!(
                        identical_part(&resumed.stats),
                        identical_part(&baseline.stats),
                        "seed {seed}"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).expect("checkpoint dir cleanup");
    }
    // Exact floors, not probabilistic hopes (the schedules are fixed):
    // the seeds must produce commit failures, and some of those failures
    // must happen *after* an image committed — the interesting case.
    assert!(failures > 0, "no seed made a commit fail");
    assert!(
        failures_with_an_image > 0,
        "no failure left a prior image to validate ({failures} failures)"
    );
}

/// Renders a caught panic payload for message assertions.
fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

/// Runs `f` expecting a panic, returning its message.
fn expect_panic<T>(f: impl FnOnce() -> T) -> String {
    panic_message(
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .map(|_| ())
            .expect_err("must panic"),
    )
}

#[test]
fn mismatched_configurations_are_refused_not_resumed() {
    // Commit a checkpoint under one configuration, then try to resume it
    // under different ones: every mismatch must hard-error naming the
    // field — a silent resume under the wrong configuration would be a
    // silently wrong answer.
    let dir = unique_dir("mismatch");
    let committed = cell_checker(128, SpillCodec::Delta, true)
        .with_checkpoint(&dir, 2)
        .run(&SymGrid::new(8), vec![(0, 0)]);
    assert!(committed.stats.checkpoints_written > 0);

    let message = expect_panic(|| {
        cell_checker(128, SpillCodec::Plain, true)
            .resume(&dir)
            .run(&SymGrid::new(8), vec![(0, 0)])
    });
    assert!(
        message.contains("different configuration") && message.contains("spill codec"),
        "codec mismatch: {message}"
    );

    let message = expect_panic(|| {
        cell_checker(128, SpillCodec::Delta, false)
            .resume(&dir)
            .run(&SymGrid::new(8), vec![(0, 0)])
    });
    assert!(
        message.contains("different configuration") && message.contains("symmetry"),
        "symmetry mismatch: {message}"
    );

    let message = expect_panic(|| {
        cell_checker(128, SpillCodec::Delta, true)
            .with_shards(16)
            .resume(&dir)
            .run(&SymGrid::new(8), vec![(0, 0)])
    });
    assert!(
        message.contains("different configuration") && message.contains("shard count"),
        "shard mismatch: {message}"
    );

    // Different initial states = a different exploration entirely.
    let message = expect_panic(|| {
        cell_checker(128, SpillCodec::Delta, true)
            .resume(&dir)
            .run(&SymGrid::new(8), vec![(1, 0)])
    });
    assert!(
        message.contains("different configuration") && message.contains("state space"),
        "space mismatch: {message}"
    );

    // The matching configuration still resumes (and, with the store
    // already at the final image, just finishes the tail).
    let resumed = cell_checker(128, SpillCodec::Delta, true)
        .resume(&dir)
        .run(&SymGrid::new(8), vec![(0, 0)]);
    assert_eq!(resumed.findings, committed.findings);
    std::fs::remove_dir_all(&dir).expect("checkpoint dir cleanup");
}

#[test]
fn resuming_without_a_checkpoint_fails_loudly() {
    let dir = unique_dir("absent");
    assert!(!CheckpointStore::exists(&dir));
    let message = expect_panic(|| {
        cell_checker(0, SpillCodec::Delta, false)
            .resume(&dir)
            .run(&SymGrid::new(4), vec![(0, 0)])
    });
    assert!(
        message.contains("cannot read checkpoint"),
        "missing store: {message}"
    );
    std::fs::remove_dir_all(&dir).expect("checkpoint dir cleanup");
}

#[test]
fn checkpoint_builder_defaults_commit_where_and_when_documented() {
    // The three builder defaults the `with_checkpoint` / `resume` docs
    // promise, on a 13-level chain: a zero cadence is clamped to every
    // level; a bare `resume` keeps committing into its own directory
    // every level; and an explicit `with_checkpoint` redirects a resume's
    // commits to another directory at its own cadence.
    let chain = |kill_depth| SlowChain {
        bound: 12,
        kill_depth,
        step: std::time::Duration::ZERO,
    };
    let image = |dir: &std::path::Path| {
        std::fs::read(dir.join("slx-checkpoint.bin")).expect("a committed image")
    };
    let log = |dir: &std::path::Path| match visited_logs(dir).as_slice() {
        [log] => std::fs::read(log).expect("a committed log"),
        logs => panic!("one log beside the image, found {logs:?}"),
    };
    let baseline = Checker::parallel_bfs(1).run(&chain(NEVER), vec![0u32]);

    let dir = unique_dir("cadence-zero");
    let zero = Checker::parallel_bfs(1)
        .with_checkpoint(&dir, 0)
        .run(&chain(NEVER), vec![0u32]);
    assert_eq!(zero.findings, baseline.findings);
    assert_eq!(zero.stats.checkpoints_written, 12, "levels 1 through 12");
    std::fs::remove_dir_all(&dir).expect("checkpoint dir cleanup");

    // Crash at level 10 with cadence 4: the image on disk is level 8's,
    // carrying two lifetime commits (levels 4 and 8).
    let crash = |dir: &std::path::Path| {
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Checker::parallel_bfs(1)
                .with_checkpoint(dir, 4)
                .run(&chain(10), vec![0u32])
        }));
        assert!(crashed.is_err(), "the kill level must be reached");
        (image(dir), log(dir))
    };

    let dir = unique_dir("bare-resume");
    let (crashed_image, _) = crash(&dir);
    let resumed = Checker::parallel_bfs(1)
        .resume(&dir)
        .run(&chain(NEVER), vec![0u32]);
    assert_eq!(resumed.findings, baseline.findings);
    assert_eq!(resumed.stats.resumed_from_depth, Some(8));
    assert_eq!(
        resumed.stats.checkpoints_written,
        2 + 4,
        "levels 4 and 8 before the crash, then every level 9 through 12"
    );
    assert_ne!(image(&dir), crashed_image, "the resume commits into `dir`");
    std::fs::remove_dir_all(&dir).expect("checkpoint dir cleanup");

    let prev = unique_dir("resume-prev");
    let next = unique_dir("resume-next");
    let (crashed_image, crashed_log) = crash(&prev);
    let redirected = Checker::parallel_bfs(1)
        .with_checkpoint(&next, 3)
        .resume(&prev)
        .run(&chain(NEVER), vec![0u32]);
    assert_eq!(redirected.findings, baseline.findings);
    assert_eq!(
        redirected.stats.checkpoints_written,
        2 + 2,
        "levels 4 and 8 before the crash, then levels 9 and 12"
    );
    assert_eq!(image(&prev), crashed_image, "nothing new commits to `prev`");
    assert_eq!(
        log(&prev),
        crashed_log,
        "nothing is appended to `prev`'s log"
    );
    assert!(CheckpointStore::exists(&next));
    // `next`'s log opens with the whole restored set (states 0 through
    // 8) and ends holding all 13 of the chain's states.
    assert_eq!(crashed_log.len(), 16 * 9);
    assert_eq!(&log(&next)[..crashed_log.len()], crashed_log.as_slice());
    assert_eq!(log(&next).len(), 16 * 13);
    std::fs::remove_dir_all(&prev).expect("checkpoint dir cleanup");
    std::fs::remove_dir_all(&next).expect("checkpoint dir cleanup");
}

#[test]
fn a_kill_between_the_log_sync_and_the_image_rename_resumes_bit_identically() {
    // The commit's one window with both files in motion: the log holds
    // the next segment, fdatasynced, and the image naming it is staged
    // but not renamed. The live image names the shorter prefix, so the
    // store must resume from it, ignore the segment past it, and cut it
    // before the resumed run appends the same segment again.
    for symmetry in [false, true] {
        let space = SymGrid::new(15);
        let label = format!("sym={symmetry}");
        let checker = || cell_checker(0, SpillCodec::Delta, symmetry);
        let baseline = checker().run(&space, vec![(0, 0)]);
        let lengths = log_lengths(&checker(), &space);

        // The uninterrupted checkpointed run: its log is every later
        // commit's, byte for byte (one merging thread fixes the order).
        let whole = unique_dir("window-whole");
        checker()
            .with_checkpoint(&whole, 2)
            .run(&space, vec![(0, 0)]);
        let whole_log = std::fs::read(&visited_logs(&whole)[0]).expect("the whole log");
        assert_eq!(
            whole_log.len() as u64,
            log_bytes(&baseline.stats),
            "{label}"
        );

        let dir = unique_dir("window");
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            checker().with_checkpoint(&dir, 2).run(
                &SymGrid {
                    bound: 15,
                    kill_depth: 9,
                },
                vec![(0, 0)],
            )
        }));
        assert!(crashed.is_err(), "{label}: the kill level must be reached");
        let log = visited_logs(&dir).remove(0);
        let committed = std::fs::read(&log).expect("the committed log");
        assert_eq!(committed.len() as u64, lengths[8], "{label}");
        assert_eq!(committed, whole_log[..committed.len()], "{label}");
        // Level 10's commit, killed after its log sync: the segment is on
        // disk and the image is staged, not renamed.
        let synced = usize::try_from(lengths[10]).expect("log length");
        std::fs::write(&log, &whole_log[..synced]).expect("synced segment");
        std::fs::write(
            dir.join("slx-checkpoint.bin.tmp"),
            std::fs::read(CheckpointStore::file_path(&whole)).expect("an image"),
        )
        .expect("staged image");

        let resumed = checker().resume(&dir).run(&space, vec![(0, 0)]);
        assert_eq!(resumed.stats.resumed_from_depth, Some(8), "{label}");
        assert_eq!(resumed.findings, baseline.findings, "{label}");
        assert_eq!(
            identical_part(&resumed.stats),
            identical_part(&baseline.stats),
            "{label}"
        );
        assert_eq!(
            std::fs::read(&log).expect("the resumed log"),
            whole_log,
            "{label}: the resumed run re-appends exactly the cut segment"
        );
        std::fs::remove_dir_all(&whole).expect("checkpoint dir cleanup");
        std::fs::remove_dir_all(&dir).expect("checkpoint dir cleanup");
    }
}

#[test]
fn a_fresh_run_over_an_older_store_leaves_it_resumable_until_its_first_rename() {
    // A run that does not resume opens a new log generation: until its
    // own first image is renamed in, the older image and the log it names
    // stay exactly as they were, so the older store still resumes. The
    // fresh run's first commit is failed at the rename, after its log
    // append and image staging both landed.
    use slx_engine::{EngineError, FaultKind, FaultOp, FaultPlan};
    let space = SymGrid::new(15);
    let checker = || cell_checker(0, SpillCodec::Delta, false);
    let baseline = checker().run(&space, vec![(0, 0)]);
    let dir = unique_dir("fresh-over-old");
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        checker().with_checkpoint(&dir, 4).run(
            &SymGrid {
                bound: 15,
                kill_depth: 10,
            },
            vec![(0, 0)],
        )
    }));
    assert!(crashed.is_err(), "the kill level must be reached");
    let old_image = std::fs::read(CheckpointStore::file_path(&dir)).expect("the older image");
    let old_log = visited_logs(&dir).remove(0);
    let old_log_bytes = std::fs::read(&old_log).expect("the older log");

    let failed = checker()
        .with_checkpoint(&dir, 4)
        .with_fault_plan(
            FaultPlan::seeded(1)
                .with_rate(1024)
                .with_ops(&[FaultOp::CkptRename])
                .with_kinds(&[FaultKind::Enospc]),
        )
        .try_run_observed(&space, vec![(0, 0)], |_| false, |_, _| true);
    assert!(
        matches!(failed, Err(EngineError::CheckpointIo { .. })),
        "the first rename must fail: {:?}",
        failed.map(|out| out.stats)
    );
    let logs = visited_logs(&dir);
    assert_eq!(logs.len(), 2, "the fresh run logs to its own generation");
    assert_eq!(
        std::fs::read(CheckpointStore::file_path(&dir)).expect("the older image"),
        old_image
    );
    assert_eq!(
        std::fs::read(&old_log).expect("the older log"),
        old_log_bytes
    );
    let resumed = checker().resume(&dir).run(&space, vec![(0, 0)]);
    assert_eq!(resumed.stats.resumed_from_depth, Some(8));
    assert_eq!(resumed.findings, baseline.findings);
    assert_eq!(
        identical_part(&resumed.stats),
        identical_part(&baseline.stats)
    );

    // Once a fresh run's first image is renamed in, every older log is
    // superseded and goes.
    let fresh = checker().with_checkpoint(&dir, 4).run(&space, vec![(0, 0)]);
    assert_eq!(fresh.stats.resumed_from_depth, None);
    let logs = visited_logs(&dir);
    assert_eq!(logs.len(), 1, "{logs:?}");
    assert!(!logs.contains(&old_log));
    let last_commit = log_at(&log_lengths(&checker(), &space), 28);
    assert_eq!(
        log_len(&dir),
        last_commit,
        "the log as of level 28's commit"
    );
    std::fs::remove_dir_all(&dir).expect("checkpoint dir cleanup");
}
