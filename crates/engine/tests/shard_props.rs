//! Property-based validation of the sharded visited set.
//!
//! Like `collision_props`, this is a self-contained property harness (the
//! external `proptest` crate is unavailable offline): a seeded SplitMix64
//! generator produces hundreds of random digest streams and state spaces,
//! and [`ShardedVisited`] is compared against a single-map reference.
//!
//! Properties checked (
//! well over 500 generated cases across the suite):
//!
//! 1. **Shard transparency**: on any digest stream, at any shard count and
//!    worker count, the sharded set reports exactly the fresh/duplicate
//!    bits, membership, and final size of a single `HashSet<u128>`.
//! 2. **Insert-order independence**: permuting a stream changes neither
//!    the final size nor the per-shard occupancy.
//! 3. **Single-shard routing**: every digest routes to exactly one shard
//!    — routing is a pure function of the digest, and occupancies sum to
//!    the distinct-digest count (a digest living in two shards would make
//!    the sum exceed the reference size).
//! 4. **Budget truncation under sharding**: a `Checker::with_budget` hit
//!    mid-exploration reports identical `ExploreStats` truncation
//!    accounting (configs, truncated, transitions, dedup hits) for every
//!    shard and thread count.
//! 5. **Partition invariance of the level window**: however a level is
//!    cut — into worker blocks, spilled chunks, or not at all — a stop
//!    predicate firing mid-level and a cancelling observer leave the same
//!    findings (order included) and the same counts.

use std::collections::HashSet;

use slx_engine::{digest128_of, Checker, Digest, Expansion, ShardedVisited, StateSpace};

mod common;
use common::Rng;

/// A random digest stream with deliberate duplicates: digests are drawn
/// from a pool smaller than the stream, so re-inserts are common.
fn random_stream(rng: &mut Rng) -> Vec<u128> {
    let pool_size = 1 + rng.below(200) as usize;
    let pool: Vec<u128> = (0..pool_size).map(|_| rng.digest()).collect();
    let len = rng.below(400) as usize;
    (0..len)
        .map(|_| pool[rng.below(pool_size as u64) as usize])
        .collect()
}

#[test]
fn sharded_set_is_transparent_over_random_streams() {
    let mut rng = Rng(0x5AAD);
    for case in 0..250 {
        let stream = random_stream(&mut rng);
        let shards = 1usize << rng.below(7); // 1..=64
        let mut reference: HashSet<u128> = HashSet::new();
        let expected_bits: Vec<bool> = stream.iter().map(|&d| reference.insert(d)).collect();

        let mut sharded = ShardedVisited::new(shards);
        let got_bits: Vec<bool> = stream.iter().map(|&d| sharded.insert(d)).collect();
        assert_eq!(got_bits, expected_bits, "case {case} ({shards} shards)");
        assert_eq!(sharded.len(), reference.len(), "case {case}");
        for &d in &stream {
            assert!(sharded.contains(d), "case {case}: member lost");
        }
        for _ in 0..20 {
            let probe = rng.digest();
            assert_eq!(
                sharded.contains(probe),
                reference.contains(&probe),
                "case {case}: membership diverged on probe"
            );
        }
    }
}

#[test]
fn batched_parallel_inserts_are_transparent_too() {
    let mut rng = Rng(0xBA7C);
    for case in 0..150 {
        let stream = random_stream(&mut rng);
        let shards = 1usize << rng.below(6); // 1..=32
        let workers = 1 + rng.below(8) as usize;
        let mut reference: HashSet<u128> = HashSet::new();
        let expected_bits: Vec<bool> = stream.iter().map(|&d| reference.insert(d)).collect();

        let mut sharded = ShardedVisited::new(shards);
        let mut batches: Vec<Vec<u128>> = vec![Vec::new(); sharded.shard_count()];
        let mut route: Vec<(usize, usize)> = Vec::with_capacity(stream.len());
        for &d in &stream {
            let s = sharded.shard_of(d);
            route.push((s, batches[s].len()));
            batches[s].push(d);
        }
        let fresh = sharded.insert_batches(&batches, workers);
        let got_bits: Vec<bool> = route.iter().map(|&(s, k)| fresh[s][k]).collect();
        assert_eq!(
            got_bits, expected_bits,
            "case {case} ({shards} shards, {workers} workers)"
        );
        assert_eq!(sharded.len(), reference.len(), "case {case}");
    }
}

#[test]
fn counts_are_insert_order_independent() {
    let mut rng = Rng(0x0DDE);
    for case in 0..150 {
        let stream = random_stream(&mut rng);
        let shards = 1usize << rng.below(7);
        let mut in_order = ShardedVisited::new(shards);
        for &d in &stream {
            in_order.insert(d);
        }
        let mut permuted = stream.clone();
        rng.shuffle(&mut permuted);
        let mut shuffled = ShardedVisited::new(shards);
        for &d in &permuted {
            shuffled.insert(d);
        }
        assert_eq!(shuffled.len(), in_order.len(), "case {case}");
        assert_eq!(shuffled.occupancy(), in_order.occupancy(), "case {case}");
    }
}

#[test]
fn every_digest_routes_to_exactly_one_shard() {
    let mut rng = Rng(0x10CA);
    for case in 0..100 {
        let stream = random_stream(&mut rng);
        let shards = 1usize << rng.below(7);
        let mut sharded = ShardedVisited::new(shards);
        let mut reference: HashSet<u128> = HashSet::new();
        for &d in &stream {
            let route = sharded.shard_of(d);
            assert!(route < sharded.shard_count(), "case {case}: shard range");
            assert_eq!(route, sharded.shard_of(d), "case {case}: routing unstable");
            sharded.insert(d);
            reference.insert(d);
        }
        // Occupancies summing to the distinct count means no digest was
        // stored in two shards (and membership above means none in zero).
        assert_eq!(
            sharded.occupancy().iter().sum::<usize>(),
            reference.len(),
            "case {case}: a digest occupies two shards"
        );
    }
}

/// Grid walk with digests wide enough to spread over every shard; many
/// diamonds, so dedup accounting is exercised.
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
fn budget_truncation_is_identical_across_shard_and_thread_counts() {
    // Budgets chosen to land mid-level on the diagonal frontier (level d
    // of the grid has d+1 states), so truncation cuts a level in half —
    // the accounting must not depend on how the visited set is sharded,
    // nor (since the disk-backed frontier) on whether the cut tail was
    // resident or already spilled: a `(u32, u32)` record is two encoded
    // varint bytes (digests are no longer stored), so the 32-byte memory
    // budget keeps only ~8 states resident and truncation almost always
    // cuts into spilled chunks.
    let space = GridWalk { bound: 40 };
    for budget in [1usize, 7, 55, 300, 1000] {
        let baseline = Checker::parallel_bfs(1)
            .with_shards(1)
            .with_budget(budget)
            .with_mem_budget(0)
            .run(&space, vec![(0, 0)]);
        assert!(baseline.stats.truncated, "budget {budget} must truncate");
        assert_eq!(baseline.stats.configs, budget, "budget {budget}");
        for threads in [1usize, 2, 4, 8] {
            for shards in [1usize, 4, 16] {
                for mem_budget in [0usize, 32] {
                    let out = Checker::parallel_bfs(threads)
                        .with_shards(shards)
                        .with_budget(budget)
                        .with_mem_budget(mem_budget)
                        .run(&space, vec![(0, 0)]);
                    let label = format!(
                        "budget {budget}, {threads} threads, {shards} shards, \
                         mem budget {mem_budget}"
                    );
                    assert_eq!(out.stats.configs, baseline.stats.configs, "{label}");
                    assert_eq!(out.stats.truncated, baseline.stats.truncated, "{label}");
                    assert_eq!(out.stats.transitions, baseline.stats.transitions, "{label}");
                    assert_eq!(out.stats.dedup_hits, baseline.stats.dedup_hits, "{label}");
                    assert_eq!(
                        out.stats.peak_frontier, baseline.stats.peak_frontier,
                        "{label}"
                    );
                    assert_eq!(out.findings, baseline.findings, "{label}");
                    assert_eq!(out.stats.shards, shards, "{label}");
                    assert_eq!(
                        out.stats.shard_occupancy.iter().sum::<usize>(),
                        baseline.stats.shard_occupancy.iter().sum::<usize>(),
                        "{label}: sharding must not change the visited count"
                    );
                    if mem_budget == 0 {
                        assert_eq!(out.stats.spilled_chunks, 0, "{label}");
                    } else if budget > 16 {
                        // Wide-enough explorations must actually have hit
                        // disk, or this arm tests nothing.
                        assert!(out.stats.spilled_chunks >= 2, "{label}: no spilling");
                    }
                }
            }
        }
    }
}

/// A wide binary tree: level `d` holds `2^d` states, so deep bounds push
/// thousands of successors per level — dozens of worker blocks, so the
/// multi-threaded runs merge from a full expand-ahead window.
struct WideTree {
    bound: usize,
}

impl StateSpace for WideTree {
    type State = u64;
    type Finding = u64;

    fn digest(&self, s: &u64) -> Digest {
        digest128_of(s)
    }

    fn expand(&self, &s: &u64, depth: usize, ctx: &mut Expansion<Self>) {
        if s % 4097 == 0 {
            ctx.finding(s);
        }
        if depth >= self.bound {
            return;
        }
        ctx.push(s * 2 + 1);
        ctx.push(s * 2 + 2);
        // A cross edge per state, creating dedup hits across the level.
        ctx.push(s | 1);
    }
}

/// A wide binary tree whose every depth-12 state reports a finding: the
/// stop predicate fires while merging the first block of a level 64
/// blocks wide, which is exactly where the multi-threaded runs hold
/// expanded successors the merge never reaches.
struct StopTree;

impl StateSpace for StopTree {
    type State = u64;
    type Finding = u64;

    fn digest(&self, s: &u64) -> Digest {
        digest128_of(s)
    }

    fn expand(&self, &s: &u64, depth: usize, ctx: &mut Expansion<Self>) {
        if depth == 12 {
            ctx.finding(s);
        }
        if depth >= 13 {
            return;
        }
        ctx.push(s * 2 + 1);
        ctx.push(s * 2 + 2);
        ctx.push(s | 1);
    }
}

#[test]
fn early_stop_stats_are_thread_and_shard_independent() {
    // Regression (from when a batched dedup pre-inserted the whole level
    // before the merge loop): an early stop mid-level must report the
    // same occupancy (and everything else) whether the successors past
    // the stop were never expanded (1 thread) or expanded ahead in the
    // window and discarded (more).
    let base = Checker::parallel_bfs(1)
        .with_shards(1)
        .run_until(&StopTree, vec![0], |f| f.len() >= 5);
    assert!(base.stats.stopped_early, "stop must fire");
    // The stop fires while merging the 4096-wide depth-12 level, which
    // the multi-threaded runs below expand in blocks ahead of the merge.
    assert!(
        base.stats.peak_frontier >= 2048,
        "stop must fire on a level many blocks wide, got peak frontier {}",
        base.stats.peak_frontier
    );
    for threads in [2usize, 4, 8] {
        for shards in [4usize, 16] {
            let out = Checker::parallel_bfs(threads)
                .with_shards(shards)
                .run_until(&StopTree, vec![0], |f| f.len() >= 5);
            let label = format!("{threads} threads, {shards} shards");
            assert!(out.stats.stopped_early, "{label}");
            assert_eq!(out.findings, base.findings, "{label}");
            assert_eq!(out.stats.configs, base.stats.configs, "{label}");
            assert_eq!(out.stats.transitions, base.stats.transitions, "{label}");
            assert_eq!(out.stats.dedup_hits, base.stats.dedup_hits, "{label}");
            assert_eq!(
                out.stats.shard_occupancy.iter().sum::<usize>(),
                base.stats.shard_occupancy.iter().sum::<usize>(),
                "{label}: early-stop occupancy must not depend on the window"
            );
        }
    }
}

#[test]
fn windowed_merge_matches_inline_path_on_wide_levels() {
    // Depth 13 → final levels are thousands wide, so with >1 thread the
    // merge consumes blocks that workers expanded ahead of it, while the
    // 1-thread run expands and merges one parent at a time. Everything
    // observable must agree.
    let space = WideTree { bound: 13 };
    let inline = Checker::parallel_bfs(1).with_shards(1).run(&space, vec![0]);
    assert!(
        inline.stats.peak_frontier > 4096,
        "space too small to fill the expand-ahead window"
    );
    for threads in [2usize, 4, 8] {
        for shards in [4usize, 16, 64] {
            let out = Checker::parallel_bfs(threads)
                .with_shards(shards)
                .run(&space, vec![0]);
            let label = format!("{threads} threads, {shards} shards");
            assert_eq!(out.stats.configs, inline.stats.configs, "{label}");
            assert_eq!(out.stats.transitions, inline.stats.transitions, "{label}");
            assert_eq!(out.stats.dedup_hits, inline.stats.dedup_hits, "{label}");
            assert_eq!(out.findings, inline.findings, "{label}");
            assert_eq!(
                out.stats.shard_occupancy.iter().sum::<usize>(),
                inline.stats.configs,
                "{label}: occupancy must sum to the visited count"
            );
        }
    }
}

/// A grid walk whose diagonals report findings: level `d` is the
/// diagonal `x + y = d`, `d + 1` wide up to the bound, so one run crosses
/// levels shorter than a worker block (64 parents), levels too short to
/// go parallel at all (< 128), and levels that are no multiple of the
/// block size — and about one state in seven reports a finding, so a
/// stop predicate counting findings fires in the middle of a level.
struct FindingGrid {
    bound: u32,
}

impl StateSpace for FindingGrid {
    type State = (u32, u32);
    type Finding = (u32, u32);

    fn digest(&self, state: &Self::State) -> Digest {
        digest128_of(state)
    }

    fn expand(&self, &(x, y): &Self::State, _depth: usize, ctx: &mut Expansion<Self>) {
        if (x + 2 * y) % 7 == 3 {
            ctx.finding((x, y));
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
fn level_partition_never_shows_in_an_early_stop_or_a_cancel() {
    let space = FindingGrid { bound: 300 };
    let level_starts: Vec<usize> = (0..=300usize).map(|d| d * (d + 1) / 2).collect();
    // Stop arms: the predicate fires at parent 20 of the 75-wide level 74
    // (merged inline whatever the thread count), at parent 7 of the
    // 130-wide level 129 (first of its blocks of 64, 64 and 2), and at
    // parent 169 of the 248-wide level 247 (third of 64, 64, 64 and 56).
    // Cancel arms: the observer cancels at a level boundary below and
    // one above the parallel threshold.
    let stops = [400usize, 1_200, 4_400];
    let cancels = [90usize, 250];
    for arm in 0..stops.len() + cancels.len() {
        let run = |threads: usize, shards: usize, mem_budget: usize| {
            let checker = Checker::parallel_bfs(threads)
                .with_shards(shards)
                .with_symmetry(false)
                .with_mem_budget(mem_budget);
            if let Some(&count) = stops.get(arm) {
                checker.run_until(&space, vec![(0, 0)], |found| found.len() >= count)
            } else {
                let at = cancels[arm - stops.len()];
                checker.run_observed(&space, vec![(0, 0)], |_| false, |depth, _| depth < at)
            }
        };
        for shards in [1usize, 8] {
            let base = run(1, shards, 0);
            assert!(base.stats.stopped_early, "arm {arm} must end early");
            if arm < stops.len() {
                assert!(
                    !level_starts.contains(&base.stats.configs),
                    "arm {arm}: the stop must fire inside a level, not at configs {}",
                    base.stats.configs
                );
            }
            for threads in [1usize, 2, 4] {
                // 32 bytes: 16-byte chunks of two-byte records, so the
                // spilled arm hands the window chunks of ~8 parents.
                for mem_budget in [0usize, 32] {
                    let out = run(threads, shards, mem_budget);
                    let label = format!(
                        "arm {arm}, {threads} threads, {shards} shards, mem budget {mem_budget}"
                    );
                    assert_eq!(out.findings, base.findings, "{label}");
                    assert_eq!(out.stats.configs, base.stats.configs, "{label}");
                    assert_eq!(out.stats.transitions, base.stats.transitions, "{label}");
                    assert_eq!(out.stats.dedup_hits, base.stats.dedup_hits, "{label}");
                    assert_eq!(
                        out.stats.shard_occupancy, base.stats.shard_occupancy,
                        "{label}"
                    );
                    assert_eq!(out.stats.peak_frontier, base.stats.peak_frontier, "{label}");
                    assert_eq!(out.stats.truncated, base.stats.truncated, "{label}");
                    assert_eq!(out.stats.stopped_early, base.stats.stopped_early, "{label}");
                    if mem_budget > 0 {
                        assert!(out.stats.spilled_chunks >= 2, "{label}: no spilling");
                    }
                }
            }
        }
    }
}
