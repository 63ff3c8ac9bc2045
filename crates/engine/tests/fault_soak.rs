//! Fault-soak differential: a run under a seeded fault schedule must
//! either finish **bit-identical** to the fault-free run or fail with a
//! typed [`EngineError`] — never a panic, never a torn checkpoint image,
//! never a leaked spill file — across the
//! {resident, plain, delta, replay} × {symmetry on, off} × {1, 2 threads}
//! matrix.
//!
//! Faults come from the engine's own [`FaultPlan`] seams (spill
//! create/write/read/unlink, checkpoint write/sync/rename), injected by
//! a SplitMix64 schedule. Every one of those seams sits on the merging
//! thread — workers only expand — so the draw order is fixed whatever
//! the thread count: every cell's outcome is deterministic, the asserts
//! are exact, not probabilistic, and the suite pins that two threads
//! reproduce one thread's outcome draw for draw. Transient faults (EINTR,
//! short writes) must be absorbed by the bounded retry loop; ENOSPC on
//! the spill path must degrade to resident frontiers; everything else
//! must surface as a structured error whose checkpoint directory still
//! resumes cleanly.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use slx_engine::{
    Checker, CheckpointStore, EngineError, ExploreStats, FaultKind, FaultOp, FaultPlan, SpillCodec,
};

mod common;
use common::{image_depth, log_at, log_len, log_lengths, SymGrid};

fn unique_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "slx-fault-soak-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

fn dir_entries(dir: &PathBuf) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|err| panic!("dir {} unreadable: {err}", dir.display()))
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

/// The statistics the differential pins bit-identically — the same set
/// as the resume contract. Spill-volume counters measure I/O actually
/// performed and legitimately differ once faults force retries or
/// degraded (resident) levels.
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

fn cell_checker(threads: usize, budget: usize, codec: SpillCodec, symmetry: bool) -> Checker {
    Checker::parallel_bfs(threads)
        .with_shards(8)
        .with_mem_budget(budget)
        .with_spill_codec(codec)
        .with_symmetry(symmetry)
}

/// Every engine-side seam (the socket ops belong to `slx-server`).
const ENGINE_OPS: [FaultOp; 7] = [
    FaultOp::SpillCreate,
    FaultOp::SpillWrite,
    FaultOp::SpillRead,
    FaultOp::SpillUnlink,
    FaultOp::CkptWrite,
    FaultOp::CkptSync,
    FaultOp::CkptRename,
];

/// How one soaked run ended, in the terms that must not depend on the
/// thread count: the fault and spill accounting of a run that finished,
/// or the failure class and the level of the image it left behind.
#[derive(Debug, PartialEq)]
enum Ending {
    Finished {
        faults_injected: u64,
        io_retries: u64,
        degraded_levels: usize,
        spilled: (usize, u64),
    },
    Failed {
        class: std::mem::Discriminant<EngineError>,
        image_depth: Option<usize>,
    },
}

/// The exact floors the soak asserts, tallied per thread count.
#[derive(Debug, Default, PartialEq)]
struct Tally {
    survived_with_faults: u64,
    total_injected: u64,
    total_retries: u64,
    clean_failures: u64,
    resumed_after_failure: u64,
}

#[test]
fn seeded_fault_schedules_never_change_the_verdict_or_tear_state() {
    // (budget, codec, grid bound, checkpoint cadence) arms. The first
    // four are `checkpoint_resume`'s: budget 0 is the resident arm
    // (checkpoint seams only), 128 bytes forces every wide unreduced
    // level of the 41-wide grid to spill through the cell's codec. Those
    // levels (and any chunk of so small a budget) are too narrow for the
    // kernel to fan out, so the last arm widens the resident grid until
    // whole levels pass the 128-state fan-out threshold: at two threads,
    // workers really run between its checkpoint seams.
    let arms = [
        (0usize, SpillCodec::Delta, 40u32, 2usize),
        (128, SpillCodec::Plain, 40, 2),
        (128, SpillCodec::Delta, 40, 2),
        (128, SpillCodec::Replay, 40, 2),
        (0, SpillCodec::Delta, 130, 64),
    ];
    // Three soak schedules per cell, graded by survivability: a
    // transient-only storm the retry loop must mostly absorb, a mixed
    // low-rate drizzle, and a hard-fault schedule that mostly ends in a
    // structured failure (exercising the resume-after-failure leg). The
    // draw schedule is per-(seed, op), so each is a genuinely different
    // soak.
    let schedules: [(u64, u32, &[FaultKind]); 3] = [
        (3, 128, &[FaultKind::Eintr, FaultKind::Short]),
        (
            0x5EED,
            24,
            &[
                FaultKind::Enospc,
                FaultKind::Eintr,
                FaultKind::Short,
                FaultKind::Torn,
            ],
        ),
        (0xDEAD_BEEF, 64, &[FaultKind::Enospc, FaultKind::Torn]),
    ];
    const THREADS: [usize; 2] = [1, 2];
    let mut tallies = [Tally::default(), Tally::default()];
    let mut cell = 0u64;
    for (budget, codec, bound, every) in arms {
        for symmetry in [false, true] {
            cell += 1;
            let space = SymGrid::new(bound);
            let baseline = cell_checker(1, budget, codec, symmetry).run(&space, vec![(0, 0)]);
            assert_eq!(baseline.findings, vec![(bound, bound)]);
            let lengths = log_lengths(&cell_checker(1, budget, codec, symmetry), &space);
            // The disabled-plane discipline: with no plan armed the new
            // counters must stay exactly zero.
            assert_eq!(baseline.stats.faults_injected, 0);
            assert_eq!(baseline.stats.io_retries, 0);
            assert_eq!(baseline.stats.degraded_levels, 0);
            if bound > 128 && !symmetry {
                assert!(
                    baseline.stats.peak_resident_states >= 128,
                    "the wide arm must expand a fan-out-sized level, got {}",
                    baseline.stats.peak_resident_states
                );
            }

            for (base_seed, rate, kinds) in schedules {
                // Salt the schedule per cell: identical seeds would make
                // every budget-0 cell draw the same checkpoint-seam
                // sequence and die at the same commit.
                let seed = base_seed ^ (cell << 32);
                let mut endings = Vec::new();
                for (threads, tally) in THREADS.into_iter().zip(&mut tallies) {
                    let label = format!(
                        "{codec:?}/sym={symmetry}/budget={budget}/bound={bound}/seed={seed:#x}\
                         /rate={rate}/threads={threads}"
                    );
                    let plan = FaultPlan::seeded(seed)
                        .with_rate(rate)
                        .with_ops(&ENGINE_OPS)
                        .with_kinds(kinds);
                    let checker = cell_checker(threads, budget, codec, symmetry);
                    endings.push(soak_one(
                        &space, &baseline, &lengths, &checker, every, plan, tally, &label,
                    ));
                }
                assert_eq!(
                    endings[0], endings[1],
                    "{codec:?}/sym={symmetry}/budget={budget}/bound={bound}/seed={seed:#x}: \
                     the thread count changed how the soak ended"
                );
            }
        }
    }
    // The soak must exercise both sides of the differential: runs that
    // absorbed faults and still matched bit for bit, and runs that
    // failed structurally and resumed. All deterministic given the
    // seeds — and independent of the thread count — so these are exact
    // floors, not probabilistic hopes.
    let [one, two] = tallies;
    assert_eq!(one, two, "the floors must not depend on the thread count");
    assert!(
        one.survived_with_faults > 0 && one.total_injected > 0 && one.total_retries > 0,
        "no run absorbed faults: {one:?}"
    );
    assert!(
        one.clean_failures > 0 && one.resumed_after_failure > 0,
        "no run failed structurally: {one:?}"
    );
}

/// One soaked run of one cell: checks it against the fault-free
/// `baseline` (bit-identical, or a typed failure that leaves no torn
/// image, no log past the committed length plus the failed append — the
/// baseline's log `lengths` by level — and no spill file), tallies it,
/// and reports how it ended.
#[allow(clippy::too_many_arguments)]
fn soak_one(
    space: &SymGrid,
    baseline: &slx_engine::KernelOutcome<(u32, u32)>,
    lengths: &[u64],
    checker: &Checker,
    every: usize,
    plan: FaultPlan,
    tally: &mut Tally,
    label: &str,
) -> Ending {
    let ckpt_dir = unique_dir("ckpt");
    let spill_dir = unique_dir("spill");
    let result = checker
        .clone()
        .with_spill_dir(&spill_dir)
        .with_checkpoint(&ckpt_dir, every)
        .with_fault_plan(plan)
        .try_run_observed(space, vec![(0, 0)], |_| false, |_, _| true);
    let ending = match result {
        Ok(out) => {
            assert_eq!(out.findings, baseline.findings, "{label}");
            assert_eq!(
                identical_part(&out.stats),
                identical_part(&baseline.stats),
                "{label}"
            );
            if out.stats.faults_injected > 0 {
                tally.survived_with_faults += 1;
            }
            tally.total_injected += out.stats.faults_injected;
            tally.total_retries += out.stats.io_retries;
            Ending::Finished {
                faults_injected: out.stats.faults_injected,
                io_retries: out.stats.io_retries,
                degraded_levels: out.stats.degraded_levels,
                spilled: (out.stats.spilled_chunks, out.stats.spilled_bytes),
            }
        }
        Err(err) => {
            // A clean structured failure: an I/O-shaped variant naming
            // its seam — any other class (corruption, version, config)
            // would mean the injection broke an invariant it must not.
            tally.clean_failures += 1;
            match &err {
                EngineError::SpillIo { .. }
                | EngineError::SpillExhausted { .. }
                | EngineError::CheckpointIo { .. } => {}
                other => panic!("{label}: unexpected failure class: {other}"),
            }
            // Never a torn image: no staging file survives a failed
            // commit, and whatever image did commit resumes fault-free
            // to the baseline verdict.
            assert!(
                !ckpt_dir.join("slx-checkpoint.bin.tmp").exists(),
                "{label}: stranded staging file after {err}"
            );
            // The failed commit, if the failure was one, is the boundary
            // after the image's.
            let committed = image_depth(checker, &ckpt_dir, space);
            let log = log_len(&ckpt_dir);
            assert!(
                log <= log_at(lengths, committed.unwrap_or(0) + every),
                "{label}: the log outgrew the committed length plus the failed append"
            );
            if let Some(depth) = committed {
                assert!(
                    log >= log_at(lengths, depth),
                    "{label}: the log lost committed bytes"
                );
            }
            let mut image_depth = None;
            if CheckpointStore::exists(&ckpt_dir) {
                tally.resumed_after_failure += 1;
                let resumed = checker.clone().resume(&ckpt_dir).run(space, vec![(0, 0)]);
                assert_eq!(resumed.findings, baseline.findings, "{label}");
                assert_eq!(
                    identical_part(&resumed.stats),
                    identical_part(&baseline.stats),
                    "{label}"
                );
                image_depth = resumed.stats.resumed_from_depth;
            }
            Ending::Failed {
                class: std::mem::discriminant(&err),
                image_depth,
            }
        }
    };
    // Never a leaked spill file, however the run ended.
    if spill_dir.exists() {
        assert_eq!(dir_entries(&spill_dir), Vec::<String>::new(), "{label}");
    }
    std::fs::remove_dir_all(&ckpt_dir).expect("ckpt dir cleanup");
    let _ = std::fs::remove_dir_all(&spill_dir);
    ending
}

#[test]
fn enospc_on_the_spill_path_degrades_to_resident_levels() {
    // ENOSPC-only schedule aimed at the spill seams: the run must finish
    // (levels fall back to resident once the disk "fills"), report the
    // degradation, and still match the fault-free run bit for bit.
    for codec in [SpillCodec::Plain, SpillCodec::Delta, SpillCodec::Replay] {
        let space = SymGrid::new(40);
        let baseline = cell_checker(1, 128, codec, false).run(&space, vec![(0, 0)]);
        let spill_dir = unique_dir("enospc");
        let plan = FaultPlan::seeded(0xD15C)
            .with_rate(512)
            .with_ops(&[FaultOp::SpillCreate, FaultOp::SpillWrite])
            .with_kinds(&[FaultKind::Enospc]);
        let out = cell_checker(1, 128, codec, false)
            .with_spill_dir(&spill_dir)
            .with_fault_plan(plan)
            .try_run_observed(&space, vec![(0, 0)], |_| false, |_, _| true)
            .unwrap_or_else(|err| panic!("{codec:?}: ENOSPC must degrade, not fail: {err}"));
        assert_eq!(out.findings, baseline.findings, "{codec:?}");
        assert_eq!(
            identical_part(&out.stats),
            identical_part(&baseline.stats),
            "{codec:?}"
        );
        assert!(out.stats.faults_injected > 0, "{codec:?}");
        assert!(
            out.stats.degraded_levels > 0,
            "{codec:?}: a half-rate ENOSPC schedule must degrade some level"
        );
        if spill_dir.exists() {
            assert_eq!(dir_entries(&spill_dir), Vec::<String>::new(), "{codec:?}");
        }
        let _ = std::fs::remove_dir_all(&spill_dir);
    }
}
