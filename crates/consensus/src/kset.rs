//! k-set agreement from registers, by partitioning.
//!
//! The paper notes (Section 1) that its impossibilities also apply to
//! k-set agreement. This module provides the standard *positive* side:
//! partition the `n` processes into `k` groups, each group running its own
//! register-only consensus. At most `k` distinct values are decided
//! (k-agreement) and each is some process's proposal (validity) — i.e.
//! [`slx_safety::KSetAgreementSafety`] holds by construction, which the
//! tests verify mechanically against the real implementation.
//!
//! Liveness inherits the per-group structure: a process running without
//! step contention *within its group* decides (group-wise
//! obstruction-freedom), so with at most `k` steppers that occupy distinct
//! groups everyone progresses, while two contending steppers in one group
//! can still be starved by the bivalence adversary — the k-set analogue of
//! Figure 1a's frontier.

use slx_history::ProcessId;
use slx_memory::Memory;

use crate::of_consensus::ObstructionFreeConsensus;
use crate::word::ConsWord;

/// Allocates a `k`-group partitioned k-set agreement instance for `n`
/// processes and returns the per-process algorithm instances (process `i`
/// joins group `i % k`).
///
/// # Panics
///
/// Panics unless `1 ≤ k ≤ n`.
pub fn grouped_kset(
    mem: &mut Memory<ConsWord>,
    n: usize,
    k: usize,
    max_rounds: usize,
) -> Vec<ObstructionFreeConsensus> {
    assert!(k >= 1 && k <= n, "k-set agreement requires 1 <= k <= n");
    // Group g contains processes {i : i % k == g}; member order gives the
    // within-group index.
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
    for i in 0..n {
        groups[i % k].push(i);
    }
    let layouts: Vec<_> = groups
        .iter()
        .map(|members| ObstructionFreeConsensus::layout(mem, members.len(), max_rounds))
        .collect();
    (0..n)
        .map(|i| {
            let g = i % k;
            let within = groups[g].iter().position(|&m| m == i).expect("member");
            ObstructionFreeConsensus::new(layouts[g], ProcessId::new(within), groups[g].len())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slx_history::{Operation, Response, Value};
    use slx_memory::{FairRandom, SoloScheduler, System};
    use slx_safety::{KSetAgreementSafety, SafetyProperty};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn build(n: usize, k: usize) -> System<ConsWord, ObstructionFreeConsensus> {
        let mut mem: Memory<ConsWord> = Memory::new();
        let procs = grouped_kset(&mut mem, n, k, 64);
        System::new(mem, procs)
    }

    fn decided_values(h: &slx_history::History, n: usize) -> Vec<Value> {
        let mut out = Vec::new();
        for i in 0..n {
            for r in h.responses_of(p(i)) {
                if let Response::Decided(v) = r {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn k_agreement_and_validity_under_random_schedules() {
        for (n, k) in [(4, 2), (6, 3), (5, 2)] {
            for seed in 0..10 {
                let mut sys = build(n, k);
                for i in 0..n {
                    sys.invoke(p(i), Operation::Propose(Value::new(i as i64)))
                        .unwrap();
                }
                sys.run(&mut FairRandom::new(seed), 100_000);
                let h = sys.history();
                assert!(
                    KSetAgreementSafety::new(k).allows(h),
                    "n={n} k={k} seed={seed}"
                );
                let distinct = decided_values(h, n).len();
                assert!(distinct <= k, "n={n} k={k}: {distinct} distinct decisions");
                // Everybody decided under a fair schedule of this length.
                for i in 0..n {
                    assert!(!h.pending(p(i)), "n={n} k={k} seed={seed}: {i} pending");
                }
            }
        }
    }

    #[test]
    fn one_group_is_plain_consensus() {
        let mut sys = build(3, 1);
        for i in 0..3 {
            sys.invoke(p(i), Operation::Propose(Value::new(i as i64 + 1)))
                .unwrap();
        }
        sys.run(&mut FairRandom::new(3), 100_000);
        assert!(KSetAgreementSafety::new(1).allows(sys.history()));
        assert_eq!(decided_values(sys.history(), 3).len(), 1);
    }

    #[test]
    fn n_groups_decide_own_values() {
        // k = n: every group is a singleton; everyone decides its own value.
        let mut sys = build(3, 3);
        for i in 0..3 {
            sys.invoke(p(i), Operation::Propose(Value::new(i as i64 * 7)))
                .unwrap();
        }
        sys.run(&mut FairRandom::new(0), 100_000);
        for i in 0..3 {
            let resp = sys.history().responses_of(p(i));
            assert_eq!(resp, vec![Response::Decided(Value::new(i as i64 * 7))]);
        }
    }

    #[test]
    fn groupwise_solo_runner_decides() {
        // Group-wise obstruction-freedom: p1 (group 0) runs alone and
        // decides even though p2 (group 1) never moves.
        let mut sys = build(4, 2);
        sys.invoke(p(0), Operation::Propose(Value::new(5))).unwrap();
        sys.invoke(p(1), Operation::Propose(Value::new(6))).unwrap();
        sys.run(&mut SoloScheduler::new(p(0)), 10_000);
        assert_eq!(
            sys.history().responses_of(p(0)),
            vec![Response::Decided(Value::new(5))]
        );
        assert!(sys.history().pending(p(1)));
    }

    #[test]
    #[should_panic(expected = "1 <= k <= n")]
    fn invalid_k_panics() {
        let mut mem: Memory<ConsWord> = Memory::new();
        let _ = grouped_kset(&mut mem, 2, 3, 8);
    }
}
