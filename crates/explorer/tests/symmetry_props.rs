//! Property tests of the canonical symmetry digests.
//!
//! Randomized, seed-pinned (SplitMix64) exercises of the invariants the
//! symmetry reduction rests on: canonical digests must be invariant
//! under process permutations (at permutation-safe configurations for
//! consensus, everywhere for the TM workloads) and under the uniform
//! shifts (rounds, versions) the normal forms quotient away. Consensus
//! runs at n = 2, 3 and 4 over registers that do not start at object 0;
//! roughly 3,500 checked configurations across the three workloads, all
//! deterministic.

use slx_consensus::{
    canonical_of_digest, permutation_safe, permuted_of_system, ConsWord, ObstructionFreeConsensus,
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

/// [`ObstructionFreeConsensus::proposers`] over a memory whose first
/// object is somebody else's: no register run starts at object 0, where
/// an offset mistaken for an id reads the same.
fn of_system(inputs: &[i64]) -> System<ConsWord, ObstructionFreeConsensus> {
    let n = inputs.len();
    let mut mem: Memory<ConsWord> = Memory::new();
    mem.alloc_tas();
    let layout = ObstructionFreeConsensus::layout(&mut mem, n, 16);
    let procs = (0..n)
        .map(|i| ObstructionFreeConsensus::new(layout, p(i), n))
        .collect();
    let mut sys = System::new(mem, procs);
    for (i, &input) in inputs.iter().enumerate() {
        sys.invoke(p(i), Operation::Propose(v(input))).unwrap();
    }
    sys
}

fn inverse(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0; perm.len()];
    for (i, &target) in perm.iter().enumerate() {
        inv[target] = i;
    }
    inv
}

/// Random walks over the consensus protocol at n = 2, 3 and 4, every
/// configuration on the way checked against a random permuted image. At
/// a permutation-safe configuration the canonical digest must agree with
/// the image's. A mid-collect configuration is on the other side of the
/// boundary (the sorted form is gated off there — see
/// `slx_consensus::permutation_safe`): its image is mid-collect too, and
/// permuting back restores it exactly. The walks must encounter plenty
/// of both at every n for the test to mean anything.
#[test]
fn consensus_canonical_digest_is_permutation_invariant_at_safe_states() {
    let mut rng = Rng(0x0f_5ee_d00);
    // Per n: (safe, mid-collect) configurations checked.
    let mut seen = [(0usize, 0usize); 5];
    for _case in 0..150 {
        let n = 2 + rng.below(3) as usize;
        let inputs: Vec<i64> = (0..n).map(|_| 1 + rng.below(2) as i64).collect();
        let mut sys = of_system(&inputs);
        for step in 0..rng.below(40) {
            if !step_random(&mut sys, &mut rng, n) {
                break;
            }
            let perm = rng.perm(n);
            let image = permuted_of_system(&sys, &perm);
            let label = format!("inputs {inputs:?}, step {step}, perm {perm:?}");
            let safe = permutation_safe(&sys);
            assert_eq!(safe, permutation_safe(&image), "{label}");
            if safe {
                assert_eq!(
                    canonical_of_digest(&sys),
                    canonical_of_digest(&image),
                    "{label}"
                );
                seen[n].0 += 1;
            } else {
                // (An image restarts the primitive counter, so compare
                // against the identity image.)
                let back = permuted_of_system(&image, &inverse(&perm));
                let identity: Vec<usize> = (0..n).collect();
                assert_eq!(back, permuted_of_system(&sys, &identity), "{label}");
                seen[n].1 += 1;
            }
        }
    }
    for (n, &(safe, mid_collect)) in seen.iter().enumerate().skip(2) {
        assert!(
            safe >= 100 && mid_collect >= 100,
            "n = {n}: the walks must hit plenty of configurations on both \
             sides of the boundary (got {safe} safe, {mid_collect} mid-collect)"
        );
    }
}

/// What the sorted form claims, followed across the boundary: from a
/// configuration and its image, let one process at a time run until the
/// configuration is permutation-safe again (its twin doing the same in
/// the image). Inside the burst both sides are mid-collect; when it ends
/// both are safe and their canonical digests agree — the whole-array
/// aggregates a collect leaves behind do not depend on column order.
#[test]
fn consensus_images_reconverge_after_every_collect() {
    let mut rng = Rng(0xb0_0b5_7ed);
    let mut bursts = [0usize; 5];
    for _case in 0..120 {
        let n = 2 + rng.below(3) as usize;
        let inputs: Vec<i64> = (0..n).map(|_| 1 + rng.below(2) as i64).collect();
        let perm = rng.perm(n);
        let mut sys = of_system(&inputs);
        let mut image = permuted_of_system(&sys, &perm);
        for burst in 0..12 {
            let pending: Vec<usize> = (0..n).filter(|&i| sys.is_pending(p(i))).collect();
            if pending.is_empty() {
                break;
            }
            let i = pending[rng.below(pending.len() as u64) as usize];
            let label = format!("inputs {inputs:?}, perm {perm:?}, burst {burst} of p{i}");
            loop {
                sys.step(p(i)).unwrap();
                image.step(p(perm[i])).unwrap();
                let safe = permutation_safe(&sys);
                assert_eq!(safe, permutation_safe(&image), "{label}");
                if safe {
                    break;
                }
            }
            assert_eq!(
                canonical_of_digest(&sys),
                canonical_of_digest(&image),
                "{label}"
            );
            bursts[n] += 1;
        }
    }
    assert!(
        bursts[2..].iter().all(|&b| b >= 200),
        "bursts per n: {bursts:?}"
    );
}

/// The adversarial non-converging lap schedule (see
/// `slx_consensus::normalize`): any two lap counts land on the same
/// canonical digest — the round shift is fully quotiented out.
#[test]
fn consensus_canonical_digest_is_round_shift_invariant_across_laps() {
    let mut rng = Rng(0xcafe_f00d);
    let digest_after = |laps: usize| {
        let mut sys = of_system(&[1, 2]);
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
        let mut sys = GlobalVersionTm::system(n, nvars);
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
        let mut seed = GlobalVersionTm::system(n, 1);
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
        let mut sys = AgpTm::system(n, nvars);
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
