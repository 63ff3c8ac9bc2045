//! Spill-file hygiene: temp files must vanish however a run ends.
//!
//! The disk-backed frontier creates at most one temp file per frontier
//! and deletes it when the frontier drops. These tests pin that behaviour
//! at the `Checker` level for every exit path — normal completion, early
//! stop mid-level, and a panic mid-exploration — plus the spill
//! directory builder (honored and created if absent) and a seeded fault
//! schedule on the spill seams that must leave the run bit-identical.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use slx_engine::{
    digest128_of, Checker, Digest, Expansion, FaultKind, FaultOp, FaultPlan, SpillCodec, StateSpace,
};

/// All three chunk record encodings; the hygiene guarantees must hold
/// under each (replay in particular re-enters `expand` *during* chunk
/// replay, a code path the other codecs never take).
const CODECS: [SpillCodec; 3] = [SpillCodec::Delta, SpillCodec::Plain, SpillCodec::Replay];

/// Transient kinds only (EINTR, short transfers) on the spill and
/// checkpoint writes and the spill reads: a retry absorbs every fault.
fn transient_plan() -> FaultPlan {
    FaultPlan::seeded(11)
        .with_rate(64)
        .with_ops(&[FaultOp::SpillWrite, FaultOp::SpillRead, FaultOp::CkptWrite])
        .with_kinds(&[FaultKind::Eintr, FaultKind::Short])
}

/// A fresh, unique, not-yet-created directory for one test.
fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "slx-hygiene-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn dir_entries(dir: &PathBuf) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|err| panic!("spill dir {} unreadable: {err}", dir.display()))
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

/// A wide binary tree with a cross edge, as in `shard_props`: levels grow
/// to hundreds of states, far past a tiny byte budget.
struct WideTree {
    bound: usize,
    /// Depth at which every expansion panics (`usize::MAX` = never).
    panic_depth: usize,
}

impl StateSpace for WideTree {
    type State = u64;
    type Finding = u64;

    fn digest(&self, s: &u64) -> Digest {
        digest128_of(s)
    }

    fn expand(&self, &s: &u64, depth: usize, ctx: &mut Expansion<Self>) {
        assert!(depth < self.panic_depth, "injected mid-exploration panic");
        if depth >= self.bound {
            ctx.finding(s);
            return;
        }
        ctx.push(s * 2 + 1);
        ctx.push(s * 2 + 2);
        ctx.push(s | 1);
    }
}

fn tree(bound: usize) -> WideTree {
    WideTree {
        bound,
        panic_depth: usize::MAX,
    }
}

#[test]
fn normal_completion_creates_the_dir_and_removes_every_file() {
    for codec in CODECS {
        let dir = fresh_dir("normal");
        assert!(!dir.exists(), "test premise: dir must start absent");
        let out = Checker::parallel_bfs(1)
            .with_mem_budget(256)
            .with_spill_dir(&dir)
            .with_spill_codec(codec)
            .run(&tree(9), vec![0]);
        assert!(
            out.stats.spilled_chunks >= 2,
            "{codec:?}: budget must force spilling"
        );
        assert!(dir.exists(), "{codec:?}: absent spill dir must be created");
        assert_eq!(dir_entries(&dir), Vec::<String>::new(), "{codec:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn early_stop_removes_every_file() {
    for codec in CODECS {
        let dir = fresh_dir("early-stop");
        // Findings only appear at the horizon, so the stop fires while
        // both the consumed frontier and the half-built next frontier
        // hold spill files.
        let out = Checker::parallel_bfs(1)
            .with_mem_budget(256)
            .with_spill_dir(&dir)
            .with_spill_codec(codec)
            .run_until(&tree(9), vec![0], |findings| !findings.is_empty());
        assert!(out.stats.stopped_early, "{codec:?}");
        assert!(
            out.stats.spilled_chunks >= 2,
            "{codec:?}: budget must force spilling"
        );
        assert_eq!(dir_entries(&dir), Vec::<String>::new(), "{codec:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn panic_mid_exploration_removes_every_file() {
    for codec in CODECS {
        let dir = fresh_dir("panic");
        let space = WideTree {
            bound: 9,
            panic_depth: 6,
        };
        let checker = Checker::parallel_bfs(1)
            .with_mem_budget(256)
            .with_spill_dir(&dir)
            .with_spill_codec(codec);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            checker.run(&space, vec![0])
        }));
        assert!(
            result.is_err(),
            "{codec:?}: the injected panic must surface"
        );
        assert!(
            dir.exists(),
            "{codec:?}: spilling must have started before the depth-6 panic"
        );
        assert_eq!(
            dir_entries(&dir),
            Vec::<String>::new(),
            "{codec:?}: unwinding must drop (and delete) live spill files"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn panic_inside_replay_regeneration_removes_every_file() {
    // Replay is the only codec that re-enters `expand` *while a chunk is
    // being replayed*: a panic there unwinds through the chunk iterator
    // and both live frontiers at once. A regeneration is detectable from
    // inside the space: BFS depths are non-decreasing for ordinary
    // expansions, so any `expand` call whose depth is *below* the
    // maximum depth already seen must be a replay re-expansion (parents
    // of a level's second and later chunks re-expand after that level's
    // own expansions began).
    struct PanicOnRegen {
        bound: usize,
        max_depth: AtomicUsize,
    }
    impl StateSpace for PanicOnRegen {
        type State = u64;
        type Finding = u64;
        fn digest(&self, s: &u64) -> Digest {
            digest128_of(s)
        }
        fn expand(&self, &s: &u64, depth: usize, ctx: &mut Expansion<Self>) {
            let seen = self.max_depth.fetch_max(depth, Ordering::Relaxed);
            assert!(
                depth >= seen,
                "injected panic inside replay regeneration (depth {depth} < seen {seen})"
            );
            if depth >= self.bound {
                ctx.finding(s);
                return;
            }
            ctx.push(s * 2 + 1);
            ctx.push(s * 2 + 2);
            ctx.push(s | 1);
        }
    }
    let dir = fresh_dir("replay-panic");
    let space = PanicOnRegen {
        bound: 9,
        max_depth: AtomicUsize::new(0),
    };
    let checker = Checker::parallel_bfs(1)
        .with_mem_budget(256)
        .with_spill_dir(&dir)
        .with_spill_codec(SpillCodec::Replay);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        checker.run(&space, vec![0])
    }));
    assert!(result.is_err(), "the regeneration panic must surface");
    assert!(dir.exists(), "spilling must have started before the panic");
    assert_eq!(
        dir_entries(&dir),
        Vec::<String>::new(),
        "unwinding from inside a chunk replay must still delete every file"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replay_truncation_and_reexpansion_accounting_match_resident() {
    // Two pins in one run shape: (a) a config budget that truncates
    // mid-level cuts the same prefix under replay spilling as resident
    // exploration; (b) replay re-expands each parent at most once per
    // level — total expansions are exactly configs + replayed_parents
    // (WideTree has no successor fast path, so every replayed record
    // costs one fallback re-expansion).
    struct CountingTree {
        inner: WideTree,
        expansions: AtomicUsize,
    }
    impl StateSpace for CountingTree {
        type State = u64;
        type Finding = u64;
        fn digest(&self, s: &u64) -> Digest {
            digest128_of(s)
        }
        fn expand(&self, s: &u64, depth: usize, ctx: &mut Expansion<Self>) {
            self.expansions.fetch_add(1, Ordering::Relaxed);
            if depth >= self.inner.bound {
                ctx.finding(*s);
                return;
            }
            ctx.push(s * 2 + 1);
            ctx.push(s * 2 + 2);
            ctx.push(s | 1);
        }
    }
    let counting = |bound: usize| CountingTree {
        inner: tree(bound),
        expansions: AtomicUsize::new(0),
    };
    for config_budget in [None, Some(500usize)] {
        let dir = fresh_dir("replay-trunc");
        let space = counting(8);
        let mut resident_checker = Checker::parallel_bfs(1).with_mem_budget(0);
        let mut replay_checker = Checker::parallel_bfs(1)
            .with_mem_budget(256)
            .with_spill_dir(&dir)
            .with_spill_codec(SpillCodec::Replay);
        if let Some(budget) = config_budget {
            resident_checker = resident_checker.with_budget(budget);
            replay_checker = replay_checker.with_budget(budget);
        }
        let resident = resident_checker.run(&space, vec![0]);
        let resident_expansions = space.expansions.swap(0, Ordering::Relaxed);
        let replayed = replay_checker.run(&space, vec![0]);
        let replay_expansions = space.expansions.load(Ordering::Relaxed);
        let label = format!("config budget {config_budget:?}");
        assert_eq!(replayed.findings, resident.findings, "{label}");
        assert_eq!(replayed.stats.configs, resident.stats.configs, "{label}");
        assert_eq!(
            replayed.stats.dedup_hits, resident.stats.dedup_hits,
            "{label}"
        );
        assert_eq!(
            replayed.stats.truncated, resident.stats.truncated,
            "{label}"
        );
        assert_eq!(resident_expansions, resident.stats.configs, "{label}");
        assert!(replayed.stats.spilled_chunks >= 2, "{label}: must spill");
        assert!(replayed.stats.replayed_parents > 0, "{label}");
        assert_eq!(
            replay_expansions,
            replayed.stats.configs + replayed.stats.replayed_parents,
            "{label}: replay must re-expand each spilled parent exactly once \
             per level ({} expansions for {} configs + {} replayed parents)",
            replay_expansions,
            replayed.stats.configs,
            replayed.stats.replayed_parents
        );
        assert!(
            replayed.stats.replayed_parents <= replayed.stats.configs,
            "{label}: more regenerations than parents"
        );
        assert_eq!(dir_entries(&dir), Vec::<String>::new(), "{label}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_budget_and_an_absent_spill_dir_from_the_builder_create_the_dir() {
    let dir = fresh_dir("builder");
    assert!(!dir.exists());
    let out = Checker::parallel_bfs(1)
        .with_mem_budget(256)
        .with_spill_dir(&dir)
        .run(&tree(9), vec![0]);
    assert_eq!(out.stats.mem_budget, Some(256));
    assert!(
        out.stats.spilled_chunks >= 2,
        "the budget must force spilling"
    );
    assert!(out.stats.spilled_bytes > 0);
    assert!(dir.exists(), "the spill dir must be created if absent");
    assert_eq!(dir_entries(&dir), Vec::<String>::new());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pool_recycles_at_most_two_files_under_delta_spilling() {
    use std::sync::atomic::AtomicUsize;

    // Observes the spill directory from *inside* the exploration: at any
    // point of a multi-level forced-spill run (delta-encoded chunks, the
    // default), at most two pooled files may exist — one for the level
    // being consumed, one for the level being built — and both inodes
    // are recycled across levels rather than churned.
    struct Watched {
        bound: usize,
        dir: PathBuf,
        max_seen: AtomicUsize,
    }

    impl StateSpace for Watched {
        type State = u64;
        type Finding = u64;

        fn digest(&self, s: &u64) -> Digest {
            digest128_of(s)
        }

        fn expand(&self, &s: &u64, depth: usize, ctx: &mut Expansion<Self>) {
            if self.dir.exists() {
                let seen = std::fs::read_dir(&self.dir).unwrap().count();
                self.max_seen.fetch_max(seen, Ordering::Relaxed);
                assert!(
                    seen <= 2,
                    "{seen} spill files at depth {depth}; the pool must hold \
                     at most two (consumed level + built level)"
                );
            }
            if depth >= self.bound {
                ctx.finding(s);
                return;
            }
            ctx.push(s * 2 + 1);
            ctx.push(s * 2 + 2);
            ctx.push(s | 1);
        }
    }

    let dir = fresh_dir("pool");
    let space = Watched {
        bound: 9,
        dir: dir.clone(),
        max_seen: AtomicUsize::new(0),
    };
    let out = Checker::parallel_bfs(1)
        .with_mem_budget(256)
        .with_spill_dir(&dir)
        .run(&space, vec![0]);
    assert!(
        out.stats.spilled_chunks >= 4,
        "several levels must spill (got {} chunks)",
        out.stats.spilled_chunks
    );
    assert_eq!(
        space.max_seen.load(Ordering::Relaxed),
        2,
        "both pooled files must actually be exercised"
    );
    assert_eq!(dir_entries(&dir), Vec::<String>::new(), "cleanup on end");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_enospc_leaves_no_spill_files_behind() {
    // The temp-file-leak regression: a chunk write that fails with
    // ENOSPC used to strand the half-written file outside the pool's
    // cleanup. Under an injected out-of-space schedule every codec must
    // finish (degrading to resident levels) or fail with a typed error —
    // and either way the spill directory must end empty.
    use slx_engine::EngineError;
    for codec in CODECS {
        let dir = fresh_dir("enospc");
        let baseline = Checker::parallel_bfs(1)
            .with_mem_budget(0)
            .run(&tree(9), vec![0]);
        let plan = FaultPlan::seeded(0xBAD_D15C)
            .with_rate(256)
            .with_ops(&[
                FaultOp::SpillCreate,
                FaultOp::SpillWrite,
                FaultOp::SpillRead,
            ])
            .with_kinds(&[FaultKind::Enospc]);
        let result = Checker::parallel_bfs(1)
            .with_mem_budget(256)
            .with_spill_dir(&dir)
            .with_spill_codec(codec)
            .with_fault_plan(plan)
            .try_run_observed(&tree(9), vec![0], |_| false, |_, _| true);
        match result {
            Ok(out) => {
                assert_eq!(out.findings, baseline.findings, "{codec:?}");
                assert_eq!(out.stats.configs, baseline.stats.configs, "{codec:?}");
                assert!(out.stats.faults_injected > 0, "{codec:?}");
                assert!(
                    out.stats.degraded_levels > 0,
                    "{codec:?}: a quarter-rate ENOSPC schedule must degrade"
                );
            }
            Err(err) => assert!(
                matches!(
                    err,
                    EngineError::SpillIo { .. } | EngineError::SpillExhausted { .. }
                ),
                "{codec:?}: unexpected failure class: {err}"
            ),
        }
        if dir.exists() {
            assert_eq!(
                dir_entries(&dir),
                Vec::<String>::new(),
                "{codec:?}: ENOSPC must not strand spill files"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn a_cancelled_run_reports_the_spill_io_of_the_level_it_abandons() {
    // Spill statistics count I/O performed, and a frontier's is counted
    // when the frontier is retired — consumed, or dropped unexpanded.
    // A cancelling observer drops a *fully built* level; the chunks that
    // level wrote used to vanish from the report.
    for codec in CODECS {
        let dir = fresh_dir("cancel");
        let checker = Checker::parallel_bfs(1)
            .with_mem_budget(256)
            .with_spill_dir(&dir)
            .with_spill_codec(codec);
        // Run A, to completion: what each level boundary had counted.
        let mut counted: Vec<(usize, u64)> = Vec::new();
        checker.run_observed(
            &tree(9),
            vec![0],
            |_| false,
            |depth, stats| {
                assert_eq!(depth, counted.len(), "{codec:?}: one call per level");
                counted.push((stats.spilled_chunks, stats.spilled_bytes));
                true
            },
        );
        // Level `k` is the first whose frontier spilled: its I/O shows up
        // at boundary `k + 1`, once the level has been consumed.
        let k = (0..counted.len() - 1)
            .find(|&k| counted[k + 1].0 > counted[k].0)
            .unwrap_or_else(|| panic!("{codec:?}: budget must force spilling"));
        // Run B cancels at boundary `k`: the same frontier, retired
        // without being expanded, must report the same I/O.
        let cancelled = checker.run_observed(&tree(9), vec![0], |_| false, |depth, _| depth < k);
        assert!(cancelled.stats.stopped_early, "{codec:?}");
        assert_eq!(
            (
                cancelled.stats.spilled_chunks,
                cancelled.stats.spilled_bytes
            ),
            counted[k + 1],
            "{codec:?}: cancelling at level {k} dropped its frontier's spill I/O"
        );
        assert_eq!(dir_entries(&dir), Vec::<String>::new(), "{codec:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn an_uncreatable_directory_is_a_typed_error_from_the_fallible_core() {
    // `try_run_observed` promises a typed `EngineError`, never a panic;
    // directory creation used to panic inside it. A path below a regular
    // file cannot be created by anyone, root included.
    use slx_engine::EngineError;
    let parent = fresh_dir("blocked");
    std::fs::create_dir_all(&parent).unwrap();
    let file = parent.join("regular-file");
    std::fs::write(&file, b"not a directory").unwrap();
    let below = file.join("dir");
    let spilling = Checker::parallel_bfs(1)
        .with_mem_budget(256)
        .with_spill_dir(&below);
    let checkpointing = Checker::parallel_bfs(1)
        .with_mem_budget(0)
        .with_checkpoint(&below, 1);
    for (what, checker) in [("spill", spilling), ("checkpoint", checkpointing)] {
        let err = checker
            .try_run_observed(&tree(4), vec![0], |_| false, |_, _| true)
            .expect_err("the directory cannot exist");
        match (what, &err) {
            ("spill", EngineError::SpillIo { path, op, .. })
            | ("checkpoint", EngineError::CheckpointIo { path, op, .. }) => {
                assert_eq!((path, *op), (&below, "create"), "{what}");
            }
            _ => panic!("{what}: unexpected failure class: {err}"),
        }
        let text = err.to_string();
        assert!(text.contains(&below.display().to_string()), "{text}");
        // The panicking conveniences render the same error.
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            checker.run(&tree(4), vec![0]);
        }))
        .expect_err("`run` panics where the core returns Err");
        assert_eq!(panic.downcast_ref::<String>(), Some(&text), "{what}");
    }
    std::fs::remove_dir_all(&parent).unwrap();
}

#[test]
fn spilled_run_is_bit_identical_to_resident_run() {
    // The hygiene suite's sanity anchor: the same space explored with and
    // without spilling (budget pinned off) reports identical results.
    let dir = fresh_dir("identical");
    let resident = Checker::parallel_bfs(1)
        .with_mem_budget(0)
        .run(&tree(8), vec![0]);
    let spilled = Checker::parallel_bfs(1)
        .with_mem_budget(256)
        .with_spill_dir(&dir)
        .run(&tree(8), vec![0]);
    assert_eq!(spilled.findings, resident.findings);
    assert_eq!(spilled.stats.configs, resident.stats.configs);
    assert_eq!(spilled.stats.transitions, resident.stats.transitions);
    assert_eq!(spilled.stats.dedup_hits, resident.stats.dedup_hits);
    assert_eq!(spilled.stats.peak_frontier, resident.stats.peak_frontier);
    assert_eq!(resident.stats.spilled_chunks, 0);
    assert!(spilled.stats.spilled_chunks > 0);
    assert!(spilled.stats.peak_resident_states < spilled.stats.peak_frontier);
    std::fs::remove_dir_all(&dir).unwrap();

    // A wider tree at 512 bytes under every codec, with a seeded schedule
    // of transient faults on the spill writes and reads: each is
    // absorbed by a retry, so nothing but the fault accounting moves,
    // and the files go as usual.
    let resident = Checker::parallel_bfs(1).run(&tree(11), vec![0]);
    for codec in CODECS {
        let dir = fresh_dir("faulted");
        let faulted = Checker::parallel_bfs(1)
            .with_mem_budget(512)
            .with_spill_dir(&dir)
            .with_spill_codec(codec)
            .with_fault_plan(transient_plan())
            .run(&tree(11), vec![0]);
        assert_eq!(faulted.findings, resident.findings, "{codec:?}");
        assert_eq!(faulted.stats.configs, resident.stats.configs, "{codec:?}");
        assert_eq!(
            faulted.stats.transitions, resident.stats.transitions,
            "{codec:?}"
        );
        assert_eq!(
            faulted.stats.dedup_hits, resident.stats.dedup_hits,
            "{codec:?}"
        );
        assert_eq!(
            faulted.stats.peak_frontier, resident.stats.peak_frontier,
            "{codec:?}"
        );
        assert!(faulted.stats.spilled_chunks >= 2, "{codec:?} must spill");
        assert!(
            faulted.stats.faults_injected > 0,
            "{codec:?}: no fault drawn"
        );
        assert!(faulted.stats.io_retries > 0, "{codec:?}: no retry");
        assert_eq!(dir_entries(&dir), Vec::<String>::new(), "{codec:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
