//! Differential pin for the deterministic-hasher migration.
//!
//! PR 9 swapped every default-hasher `HashMap`/`HashSet` on a
//! verdict-producing path (BFS exact-seen, visited-set shards,
//! delta-intern tables) for the fixed-seed [`DetHashMap`] /
//! [`DetHashSet`] aliases. The swap must be *invisible*: identical
//! verdicts, counters, findings, and occupancies across thread counts
//! and shard counts — and bit-identical stats across repeated
//! runs of the same configuration, which the fixed seed now guarantees
//! by construction rather than by every call site remembering to sort.

use slx_engine::{
    digest128_of, Checker, DetHashMap, DetHashSet, Digest, Expansion, FaultKind, FaultOp,
    FaultPlan, StateSpace,
};

/// The usual diamond-rich grid walk: plenty of dedup, wide digests.
struct GridWalk {
    bound: u32,
}

impl StateSpace for GridWalk {
    type State = (u32, u32);
    type Finding = (u32, u32);

    fn digest(&self, state: &Self::State) -> Digest {
        digest128_of(state)
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

#[test]
fn counts_match_the_grid_closed_forms_across_threads_and_shards() {
    // The reference is arithmetic, not a second search: a `b`-bounded
    // grid has (b+1)² states, every state short of an edge pushes one
    // successor per open axis (2b(b+1) pushes), and each of the b² inner
    // diamonds closes on exactly one duplicate.
    for bound in [1u32, 3, 8, 20, 24] {
        let space = GridWalk { bound };
        let b = bound as usize;
        for threads in [1usize, 2, 4] {
            for shards in [1usize, 8, 64] {
                let out = Checker::parallel_bfs(threads)
                    .with_shards(shards)
                    .run(&space, vec![(0, 0)]);
                let label = format!("bound {bound}, {threads} threads, {shards} shards");
                assert_eq!(out.findings, vec![(bound, bound)], "{label}");
                assert_eq!(out.stats.configs, (b + 1) * (b + 1), "{label}");
                assert_eq!(out.stats.transitions, 2 * b * (b + 1), "{label}");
                assert_eq!(out.stats.dedup_hits, b * b, "{label}");
                assert!(!out.stats.truncated, "{label}");
            }
        }
    }
}

#[test]
fn repeated_runs_are_bit_identical_including_occupancies() {
    // Shard occupancy is the stat that would smoke out a hasher change:
    // it is reported per shard in shard order, straight off the visited
    // set. Two runs of the same configuration must agree exactly.
    let space = GridWalk { bound: 24 };
    let run = || {
        Checker::parallel_bfs(4)
            .with_shards(16)
            .run(&space, vec![(0, 0)])
    };
    let (a, b) = (run(), run());
    assert_eq!(a.findings, b.findings);
    assert_eq!(a.stats.shard_occupancy, b.stats.shard_occupancy);
    assert_eq!(a.stats.configs, b.stats.configs);
    assert_eq!(a.stats.dedup_hits, b.stats.dedup_hits);
}

#[test]
fn a_spilled_run_under_transient_faults_is_bit_identical_including_occupancies() {
    // 512-byte spill budget, with a seeded schedule of faults every
    // retry absorbs (EINTR, short transfers) on the spill writes and
    // reads and the checkpoint writes: the run must match the resident,
    // fault-free one in everything but the I/O accounting. Levels up to
    // 161 states wide, so the 256-byte chunks fill several times a level.
    let space = GridWalk { bound: 160 };
    let plan = FaultPlan::seeded(11)
        .with_rate(64)
        .with_ops(&[FaultOp::SpillWrite, FaultOp::SpillRead, FaultOp::CkptWrite])
        .with_kinds(&[FaultKind::Eintr, FaultKind::Short]);
    for threads in [1usize, 4] {
        let resident = Checker::parallel_bfs(threads)
            .with_shards(16)
            .run(&space, vec![(0, 0)]);
        let faulted = Checker::parallel_bfs(threads)
            .with_shards(16)
            .with_mem_budget(512)
            .with_fault_plan(plan.clone())
            .run(&space, vec![(0, 0)]);
        let label = format!("{threads} threads");
        assert_eq!(faulted.findings, resident.findings, "{label}");
        assert_eq!(
            faulted.stats.shard_occupancy, resident.stats.shard_occupancy,
            "{label}"
        );
        assert_eq!(faulted.stats.configs, resident.stats.configs, "{label}");
        assert_eq!(
            faulted.stats.transitions, resident.stats.transitions,
            "{label}"
        );
        assert_eq!(
            faulted.stats.dedup_hits, resident.stats.dedup_hits,
            "{label}"
        );
        assert!(faulted.stats.spilled_chunks >= 2, "{label}: no spilling");
        assert!(faulted.stats.faults_injected > 0, "{label}: no fault drawn");
    }
}

#[test]
fn det_containers_iterate_identically_across_instances() {
    // The property the fixed seed buys: same inserts, same order out —
    // across separately built containers (std's default hasher reseeds
    // per map, so this fails for it even within one process).
    let digests: Vec<u128> = (0..2000u64).map(|i| digest128_of(&i).0).collect();

    let mut set_a = DetHashSet::default();
    let mut set_b = DetHashSet::default();
    let mut map_a = DetHashMap::default();
    let mut map_b = DetHashMap::default();
    for &d in &digests {
        set_a.insert(d);
        set_b.insert(d);
        map_a.insert(d, d as u32);
        map_b.insert(d, d as u32);
    }
    assert_eq!(
        set_a.iter().copied().collect::<Vec<_>>(),
        set_b.iter().copied().collect::<Vec<_>>()
    );
    assert_eq!(
        map_a.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>(),
        map_b.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
    );
}
