//! Spaces whose states are paths: [`StateSpace::REVISITS`] `false`.
//!
//! A declared space gets no successor digest and no visited insert. On a
//! tree, where the declaration is true, nothing a caller sees changes:
//! findings (order included), `configs` and `transitions` equal the
//! deduplicating run's on one and two threads, under every spill codec
//! with a tiny budget, and across a checkpoint kill/resume. Where a
//! deduplicating run goes wrong — two states sharing a truncated digest —
//! the declared run does not; and where the declaration is false — a
//! diamond — the declared run explores the duplicate instead of losing
//! anything.
//!
//! Each fixture takes the declaration as a const parameter, so the two
//! arms of a comparison are one space compiled twice.

use slx_engine::{digest128_of, Checker, Digest, Expansion, KernelOutcome, SpillCodec, StateSpace};

mod common;
use common::{log_len, NEVER};

/// Full ternary tree in heap numbering: `s` has children `3s + 1 ..=
/// 3s + 3`, down to `depth`; every multiple of 5 is a finding. No state
/// is pushed twice, so `Tree<false>` declares the truth.
struct Tree<const REVISITS: bool> {
    depth: usize,
    /// Digest width; below 128 forces collisions.
    digest_bits: u32,
    /// Level whose first expansion panics, standing in for a kill.
    kill_depth: usize,
}

impl<const R: bool> Tree<R> {
    fn new(depth: usize) -> Self {
        Tree {
            depth,
            digest_bits: 128,
            kill_depth: NEVER,
        }
    }
}

impl<const R: bool> StateSpace for Tree<R> {
    type State = u64;
    type Finding = u64;

    const REVISITS: bool = R;

    fn digest(&self, s: &u64) -> Digest {
        digest128_of(s).truncated(self.digest_bits)
    }

    fn expand(&self, &s: &u64, depth: usize, ctx: &mut Expansion<Self>) {
        assert!(depth < self.kill_depth, "injected crash at level {depth}");
        if s.is_multiple_of(5) {
            ctx.finding(s);
        }
        if depth < self.depth {
            for child in 1..=3 {
                ctx.push(3 * s + child);
            }
        }
    }
}

/// States of a full ternary tree of `depth` levels below its root.
fn tree_size(depth: u32) -> usize {
    (3usize.pow(depth + 1) - 1) / 2
}

const DEPTH: usize = 7;

/// The settings a declared run must not be told apart in: one and two
/// threads (a 2,187-state level streams through the window), resident
/// and every spill codec under a 256-byte budget.
fn settings() -> Vec<(String, Checker)> {
    let mut settings = vec![
        (
            "1 thread".to_owned(),
            Checker::parallel_bfs(1).with_shards(8),
        ),
        (
            "2 threads".to_owned(),
            Checker::parallel_bfs(2).with_shards(8),
        ),
    ];
    for codec in [SpillCodec::Delta, SpillCodec::Plain, SpillCodec::Replay] {
        for threads in [1, 2] {
            settings.push((
                format!("{codec:?}, 256 B, {threads} threads"),
                Checker::parallel_bfs(threads)
                    .with_shards(8)
                    .with_mem_budget(256)
                    .with_spill_codec(codec),
            ));
        }
    }
    settings
}

/// What a declared run must share with the deduplicating one.
fn observable(out: &KernelOutcome<u64>) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        &out.findings,
        out.stats.configs,
        out.stats.transitions,
        out.stats.dedup_hits,
        out.stats.peak_frontier,
        out.stats.truncated,
    )
}

#[test]
fn a_declared_tree_runs_exactly_as_the_deduplicating_one() {
    for (label, checker) in settings() {
        let dedup = checker.run(&Tree::<true>::new(DEPTH), vec![0]);
        let declared = checker.run(&Tree::<false>::new(DEPTH), vec![0]);
        assert_eq!(dedup.stats.configs, tree_size(DEPTH as u32), "{label}");
        assert_eq!(observable(&declared), observable(&dedup), "{label}");
        // The deduplicating run inserts every state; the declared one
        // only its initial state.
        let inserted = |out: &KernelOutcome<u64>| out.stats.shard_occupancy.iter().sum::<usize>();
        assert_eq!(inserted(&dedup), dedup.stats.configs, "{label}");
        assert_eq!(inserted(&declared), 1, "{label}");
        if label.contains("256 B") {
            assert!(declared.stats.spilled_chunks > 0, "{label} must spill");
        }
    }
}

#[test]
fn a_killed_declared_run_resumes_to_the_uninterrupted_result() {
    for (label, checker) in settings() {
        let baseline = checker.run(&Tree::<true>::new(DEPTH), vec![0]);
        for kill in [2, DEPTH] {
            let dir = std::env::temp_dir().join(format!(
                "slx-path-spaces-{}-{}-{kill}",
                std::process::id(),
                label.replace([' ', ',', '.'], "_")
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let space = Tree::<false> {
                    kill_depth: kill,
                    ..Tree::new(DEPTH)
                };
                checker
                    .clone()
                    .with_checkpoint(&dir, 1)
                    .run(&space, vec![0])
            }));
            assert!(crashed.is_err(), "{label}: the kill level must be reached");
            // The log holds the one initial digest: no successor was
            // ever admitted to the visited set.
            assert_eq!(log_len(&dir), 16, "{label}, kill {kill}");
            let resumed = checker
                .clone()
                .resume(&dir)
                .run(&Tree::<false>::new(DEPTH), vec![0]);
            assert_eq!(resumed.stats.resumed_from_depth, Some(kill), "{label}");
            assert_eq!(
                observable(&resumed),
                observable(&baseline),
                "{label}, kill {kill}"
            );
            std::fs::remove_dir_all(&dir).expect("checkpoint dir cleanup");
        }
    }
}

#[test]
fn an_eight_bit_digest_loses_states_to_dedup_and_none_to_the_declaration() {
    let checker = Checker::parallel_bfs(1).with_shards(8);
    let full = checker.run(&Tree::<true>::new(DEPTH), vec![0]);
    let colliding = checker.run(
        &Tree::<true> {
            digest_bits: 8,
            ..Tree::new(DEPTH)
        },
        vec![0],
    );
    let declared = checker.run(
        &Tree::<false> {
            digest_bits: 8,
            ..Tree::new(DEPTH)
        },
        vec![0],
    );
    // 3,280 states share 256 digests: the deduplicating run keeps at
    // most 256 of them and drops the findings the others would report.
    assert_eq!(full.stats.configs, tree_size(DEPTH as u32));
    assert!(
        colliding.stats.configs <= 256,
        "{}",
        colliding.stats.configs
    );
    assert!(colliding.findings.len() < full.findings.len());
    assert_eq!(observable(&declared), observable(&full));
}

/// `Tree`'s opposite: root `0`, `K` middles `1..=K`, and middle `i`
/// pushes leaves `K + i` and `K + 1 + i % K`, so each of the `K` leaves
/// is pushed twice. Leaves are findings. `Diamonds<false>` declares a
/// falsehood.
struct Diamonds<const REVISITS: bool>;

const K: u64 = 300;

impl<const R: bool> StateSpace for Diamonds<R> {
    type State = u64;
    type Finding = u64;

    const REVISITS: bool = R;

    fn digest(&self, s: &u64) -> Digest {
        digest128_of(s)
    }

    fn expand(&self, &s: &u64, _depth: usize, ctx: &mut Expansion<Self>) {
        if s == 0 {
            for middle in 1..=K {
                ctx.push(middle);
            }
        } else if s <= K {
            ctx.push(K + s);
            ctx.push(K + 1 + s % K);
        } else {
            ctx.finding(s);
        }
    }
}

#[test]
fn a_false_declaration_explores_each_duplicate_and_misses_no_finding() {
    for threads in [1, 2] {
        let checker = Checker::parallel_bfs(threads).with_shards(8);
        let dedup = checker.run(&Diamonds::<true>, vec![0]);
        let declared = checker.run(&Diamonds::<false>, vec![0]);
        assert_eq!(dedup.stats.dedup_hits, K as usize);
        assert_eq!(declared.stats.dedup_hits, 0);
        assert_eq!(
            declared.stats.configs,
            dedup.stats.configs + dedup.stats.dedup_hits,
            "{threads} threads: one more expansion per duplicate"
        );
        assert_eq!(declared.stats.transitions, dedup.stats.transitions);
        // Every finding is there, each leaf once per way to reach it.
        let mut twice: Vec<u64> = dedup.findings.iter().flat_map(|&f| [f, f]).collect();
        twice.sort_unstable();
        let mut found = declared.findings.clone();
        found.sort_unstable();
        assert_eq!(found, twice, "{threads} threads");
    }
}
