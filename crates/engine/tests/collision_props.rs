//! Property-based validation of fingerprint deduplication.
//!
//! The external `proptest` crate is unavailable in offline builds, so
//! this is a self-contained property harness: a seeded SplitMix64
//! generator produces hundreds of random state spaces, and for each one
//! the kernel is compared against an exact reference explorer that
//! retains full states.
//!
//! Two properties are checked at small scope:
//!
//! 1. **Full-width digests are exact**: with 128-bit fingerprints the
//!    kernel's verdict (the finding set) and visited-configuration count
//!    equal the retained-state reference on every generated space, at
//!    one and two threads.
//! 2. **Collisions are sound**: with digests deliberately truncated to 12
//!    bits (collisions guaranteed — the spaces have up to tens of
//!    thousands of state/depth combinations), every finding the kernel
//!    reports is still a finding of the reference. Collisions can only
//!    hide states, never fabricate verdicts.

use std::collections::{BTreeSet, HashMap, VecDeque};

use slx_engine::{digest128_of, Checker, Digest, Expansion, StateSpace};

mod common;
use common::Rng;

/// A pseudo-random transition system over `0..universe`: each state has a
/// structure-derived branching factor and successor set (so diamonds and
/// reconvergence abound), a depth horizon, and findings at states
/// divisible by `finding_mod`.
#[derive(Clone)]
struct RandomSpace {
    seed: u64,
    universe: u64,
    max_branch: u64,
    bound: usize,
    finding_mod: u64,
    digest_bits: u32,
}

impl RandomSpace {
    fn succs_of(&self, s: u64) -> Vec<u64> {
        let mut rng = Rng(self.seed ^ s.wrapping_mul(0xa076_1d64_78bd_642f));
        let branch = rng.below(self.max_branch + 1);
        (0..branch).map(|_| rng.below(self.universe)).collect()
    }

    fn is_finding(&self, s: u64) -> bool {
        s.is_multiple_of(self.finding_mod)
    }
}

impl StateSpace for RandomSpace {
    type State = u64;
    type Finding = u64;

    fn digest(&self, s: &u64) -> Digest {
        digest128_of(s).truncated(self.digest_bits)
    }

    fn expand(&self, &s: &u64, depth: usize, ctx: &mut Expansion<Self>) {
        if self.is_finding(s) {
            ctx.finding(s);
        }
        if depth >= self.bound {
            return;
        }
        for succ in self.succs_of(s) {
            ctx.push(succ);
        }
    }
}

/// Exact reference: breadth-first with fully retained states, visiting
/// exactly the states whose minimal depth is within the bound.
fn reference(space: &RandomSpace, initial: u64) -> (BTreeSet<u64>, usize) {
    let mut depth_of: HashMap<u64, usize> = HashMap::new();
    let mut queue: VecDeque<(u64, usize)> = VecDeque::new();
    depth_of.insert(initial, 0);
    queue.push_back((initial, 0));
    let mut findings = BTreeSet::new();
    let mut configs = 0usize;
    while let Some((s, d)) = queue.pop_front() {
        configs += 1;
        if space.is_finding(s) {
            findings.insert(s);
        }
        if d >= space.bound {
            continue;
        }
        for succ in space.succs_of(s) {
            if let std::collections::hash_map::Entry::Vacant(e) = depth_of.entry(succ) {
                e.insert(d + 1);
                queue.push_back((succ, d + 1));
            }
        }
    }
    (findings, configs)
}

fn random_space(rng: &mut Rng, digest_bits: u32) -> RandomSpace {
    RandomSpace {
        seed: rng.next(),
        universe: 50 + rng.below(2000),
        max_branch: 1 + rng.below(4),
        bound: 2 + rng.below(12) as usize,
        finding_mod: 3 + rng.below(20),
        digest_bits,
    }
}

#[test]
fn full_width_digests_reproduce_exact_exploration() {
    let mut rng = Rng(0xC0FFEE);
    for case in 0..200 {
        let space = random_space(&mut rng, 128);
        let initial = rng.below(space.universe);
        let (expected_findings, expected_configs) = reference(&space, initial);

        for threads in [1, 2] {
            let out = Checker::parallel_bfs(threads).run(&space, vec![initial]);
            let got: BTreeSet<u64> = out.findings.iter().copied().collect();
            assert_eq!(
                got, expected_findings,
                "case {case}: finding set diverged ({threads} threads)"
            );
            assert_eq!(
                out.stats.configs, expected_configs,
                "case {case}: configs diverged ({threads} threads)"
            );
        }
    }
}

#[test]
fn truncated_digests_stay_sound() {
    let mut rng = Rng(0xBEEF);
    let mut collided_somewhere = false;
    for case in 0..200 {
        let space = random_space(&mut rng, 12);
        let initial = rng.below(space.universe);
        let (expected_findings, expected_configs) = reference(&space, initial);

        let out = Checker::parallel_bfs(2).run(&space, vec![initial]);
        let got: BTreeSet<u64> = out.findings.iter().copied().collect();
        assert!(
            got.is_subset(&expected_findings),
            "case {case}: a colliding digest fabricated findings {:?}",
            got.difference(&expected_findings).collect::<Vec<_>>()
        );
        assert!(
            out.stats.configs <= expected_configs,
            "case {case}: collisions cannot visit more states than exist"
        );
        collided_somewhere |= out.stats.configs < expected_configs;
    }
    assert!(
        collided_somewhere,
        "12-bit digests over these spaces must actually collide, \
         or the property is vacuous"
    );
}

#[test]
fn verdicts_survive_forced_collisions_when_findings_are_on_every_path() {
    // When every path to the horizon passes through a finding state (here:
    // state 0 is initial and a finding), even heavy collisions cannot lose
    // the verdict: the first arrival is expanded before anything can
    // collide with it.
    let mut rng = Rng(0x5EED);
    for _ in 0..100 {
        let mut space = random_space(&mut rng, 8);
        space.finding_mod = 1; // every state is a finding
        let out = Checker::parallel_bfs(1).run(&space, vec![0]);
        assert!(
            !out.findings.is_empty(),
            "a finding on the initial state can never be masked"
        );
    }
}
