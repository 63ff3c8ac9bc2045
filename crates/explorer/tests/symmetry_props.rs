//! Property tests of the canonical symmetry digests.
//!
//! Randomized, seed-pinned (SplitMix64) exercises of the invariants the
//! symmetry reduction rests on: canonical digests must be invariant
//! under process permutations (at permutation-safe configurations for
//! consensus, everywhere for the TM workloads) and under the uniform
//! shifts (rounds, versions) the normal forms quotient away. Roughly
//! 600 cases across the three workloads, all deterministic.

use slx_consensus::{
    canonical_of_digest, permutation_safe, permuted_of_system, ObstructionFreeConsensus,
};
use slx_history::{Operation, ProcessId, Value, VarId};
use slx_memory::{Memory, System};
use slx_tm::normalize::{
    canonical_agp_digest, canonical_global_version_digest, permuted_agp, permuted_global_version,
};
use slx_tm::{AgpTm, GlobalVersionTm, TmWord};

/// SplitMix64 — the workspace's dependency-free test PRNG (same
/// construction as the engine harnesses).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// A uniform random permutation of `0..n` (Fisher–Yates).
    fn perm(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }
}

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn v(x: i64) -> Value {
    Value::new(x)
}

/// Step a uniformly random pending process, if any; returns whether a
/// step happened.
fn step_random<W, P>(sys: &mut System<W, P>, rng: &mut Rng, n: usize) -> bool
where
    W: slx_memory::Word,
    P: slx_memory::Process<W>,
{
    let pending: Vec<usize> = (0..n).filter(|&i| sys.is_pending(p(i))).collect();
    if pending.is_empty() {
        return false;
    }
    let i = pending[rng.below(pending.len() as u64) as usize];
    sys.step(p(i)).unwrap();
    true
}

/// Random walks over the consensus protocol: at every
/// permutation-safe configuration reached, the canonical digest must
/// agree with the digest of every permuted image. Mid-collect
/// configurations are exempt (the sorted form is gated off there — see
/// `slx_consensus::permutation_safe`); the walk must still encounter
/// plenty of safe ones for the test to mean anything.
#[test]
fn consensus_canonical_digest_is_permutation_invariant_at_safe_states() {
    let mut rng = Rng(0x0f_5ee_d00);
    let mut safe_states = 0usize;
    for _case in 0..200 {
        let n = 2 + rng.below(2) as usize; // 2 or 3 processes
        let inputs: Vec<i64> = (0..n).map(|_| 1 + rng.below(2) as i64).collect();
        let mut sys = ObstructionFreeConsensus::proposers(&inputs, 16);
        let steps = rng.below(30) as usize;
        for _ in 0..steps {
            if !step_random(&mut sys, &mut rng, n) {
                break;
            }
        }
        if !permutation_safe(&sys) {
            continue;
        }
        safe_states += 1;
        let canonical = canonical_of_digest(&sys);
        for _ in 0..3 {
            let perm = rng.perm(n);
            let image = permuted_of_system(&sys, &perm);
            assert_eq!(
                canonical,
                canonical_of_digest(&image),
                "inputs {inputs:?}, {steps} steps, perm {perm:?}"
            );
        }
    }
    assert!(
        safe_states >= 80,
        "the walk must hit plenty of permutation-safe states \
         (got {safe_states}/200)"
    );
}

/// The adversarial non-converging lap schedule (see
/// `slx_consensus::normalize`): any two lap counts land on the same
/// canonical digest — the round shift is fully quotiented out.
#[test]
fn consensus_canonical_digest_is_round_shift_invariant_across_laps() {
    let mut rng = Rng(0xcafe_f00d);
    let digest_after = |laps: usize| {
        let mut sys = ObstructionFreeConsensus::proposers(&[1, 2], 16);
        for _ in 0..laps {
            for i in [0, 1, 0, 1, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0] {
                sys.step(p(i)).unwrap();
            }
        }
        canonical_of_digest(&sys)
    };
    for _case in 0..20 {
        let k1 = 1 + rng.below(5) as usize;
        let k2 = 1 + rng.below(5) as usize;
        assert_eq!(digest_after(k1), digest_after(k2), "laps {k1} vs {k2}");
    }
}

fn gv_system(n: usize, nvars: usize) -> System<TmWord, GlobalVersionTm> {
    let mut mem: Memory<TmWord> = Memory::new();
    let c = GlobalVersionTm::alloc(&mut mem, nvars);
    let procs = (0..n).map(|_| GlobalVersionTm::new(c, nvars)).collect();
    System::new(mem, procs)
}

fn random_tm_op(rng: &mut Rng, nvars: usize) -> Operation {
    let x = VarId::new(rng.below(nvars as u64) as usize);
    match rng.below(4) {
        0 => Operation::TxStart,
        1 => Operation::TxRead(x),
        2 => Operation::TxWrite(x, v(rng.below(3) as i64)),
        _ => Operation::TxCommit,
    }
}

/// Drive a random mix of TM operations: invoke on idle processes, step
/// pending ones.
fn random_tm_walk<P>(
    sys: &mut System<TmWord, P>,
    rng: &mut Rng,
    n: usize,
    nvars: usize,
    events: usize,
) where
    P: slx_memory::Process<TmWord>,
{
    for _ in 0..events {
        let i = rng.below(n as u64) as usize;
        if sys.is_pending(p(i)) {
            sys.step(p(i)).unwrap();
        } else {
            sys.invoke(p(i), random_tm_op(rng, nvars)).unwrap();
        }
    }
}

/// `GlobalVersionTm` has no per-process identity in shared memory, so
/// its canonical digest must be permutation-invariant at *every*
/// reachable configuration, including mid-transaction ones.
#[test]
fn global_version_canonical_digest_is_permutation_invariant() {
    let mut rng = Rng(0x7ea_c0de);
    for case in 0..150 {
        let n = 2 + rng.below(2) as usize;
        let nvars = 1 + rng.below(2) as usize;
        let mut sys = gv_system(n, nvars);
        let events = rng.below(40) as usize;
        random_tm_walk(&mut sys, &mut rng, n, nvars, events);
        let canonical = canonical_global_version_digest(&sys);
        for _ in 0..3 {
            let perm = rng.perm(n);
            let image = permuted_global_version(&sys, &perm);
            assert_eq!(
                canonical,
                canonical_global_version_digest(&image),
                "case {case}, n {n}, perm {perm:?}"
            );
        }
    }
}

/// Uniform commit laps shift the global version without changing
/// behaviour: from any quiesced random configuration, the canonical
/// digest is identical after `k ≥ 2` identical solo laps, for every `k`.
/// (Lap 1 still carries the random prefix in the transaction-local
/// `old_values` cache — dead after a commit but legitimately part of the
/// state; the second lap overwrites it with lap-content, after which
/// only the version counter climbs and the shift quotients it away.)
#[test]
fn global_version_canonical_digest_is_version_shift_invariant() {
    let mut rng = Rng(0x5197_0bad);
    for case in 0..50 {
        let n = 2 + rng.below(2) as usize;
        let mut seed = gv_system(n, 1);
        // A random *completed-transaction* prefix: laps must start from
        // idle processes so every lap runs the same code path.
        for _ in 0..rng.below(4) {
            let i = rng.below(n as u64) as usize;
            for op in [
                Operation::TxStart,
                Operation::TxWrite(VarId::new(0), v(rng.below(3) as i64)),
                Operation::TxCommit,
            ] {
                seed.invoke(p(i), op).unwrap();
                while seed.is_pending(p(i)) {
                    seed.step(p(i)).unwrap();
                }
            }
        }
        let lap = |sys: &mut System<TmWord, GlobalVersionTm>| {
            for i in 0..n {
                for op in [
                    Operation::TxStart,
                    Operation::TxWrite(VarId::new(0), v(9)),
                    Operation::TxCommit,
                ] {
                    sys.invoke(p(i), op).unwrap();
                    while sys.is_pending(p(i)) {
                        sys.step(p(i)).unwrap();
                    }
                }
            }
        };
        let mut sys = seed.clone();
        lap(&mut sys);
        lap(&mut sys);
        let saturated = canonical_global_version_digest(&sys);
        let mut raw = vec![sys.digest128()];
        for k in 3..=5usize {
            lap(&mut sys);
            assert_eq!(
                canonical_global_version_digest(&sys),
                saturated,
                "case {case}, lap {k}"
            );
            raw.push(sys.digest128());
        }
        raw.dedup();
        assert_eq!(raw.len(), 4, "case {case}: raw digests must keep climbing");
    }
}

fn agp_system(n: usize, nvars: usize) -> System<TmWord, AgpTm> {
    let mut mem: Memory<TmWord> = Memory::new();
    let (c, r) = AgpTm::alloc(&mut mem, n, nvars);
    let procs = (0..n).map(|i| AgpTm::new(c, r, p(i), n, nvars)).collect();
    System::new(mem, procs)
}

/// Algorithm I(1,2) keeps a per-process announce slot, but every shared
/// read of it is an order-insensitive aggregate (an atomic snapshot
/// reduced to a count), so the canonical digest must be
/// permutation-invariant at every reachable configuration.
#[test]
fn agp_canonical_digest_is_permutation_invariant() {
    let mut rng = Rng(0xa9b_1dea);
    for case in 0..150 {
        let n = 2 + rng.below(2) as usize;
        let nvars = 1 + rng.below(2) as usize;
        let mut sys = agp_system(n, nvars);
        let events = rng.below(40) as usize;
        random_tm_walk(&mut sys, &mut rng, n, nvars, events);
        let canonical = canonical_agp_digest(&sys);
        for _ in 0..3 {
            let perm = rng.perm(n);
            let image = permuted_agp(&sys, &perm);
            assert_eq!(
                canonical,
                canonical_agp_digest(&image),
                "case {case}, n {n}, perm {perm:?}"
            );
        }
    }
}
