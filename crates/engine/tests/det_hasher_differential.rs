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

use slx_engine::{digest128_of, Checker, DetHashMap, DetHashSet, Digest, Expansion, StateSpace};

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
