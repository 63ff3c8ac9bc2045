//! The pre-engine ("retained clone") reference implementations.
//!
//! These are the seed's single-threaded search loops, kept verbatim as
//! the exact-state oracle: the differential test suites check the
//! `slx-engine` kernel reproduces their verdicts and counts exactly, and
//! the repo benchmark derives its expected verdicts from them
//! (`benchmark/src/reference.rs`). They share none of the kernel's
//! search machinery — no fingerprints, no canonical digests, no
//! `Expansion` — and deduplicate on a set of **fully retained** `(System, digest)` clones,
//! the memory and hashing cost the fingerprint-based kernel removes, so
//! they should not be used by new checkers.

use std::collections::{BTreeSet, VecDeque};
use std::hash::Hash;

use slx_engine::{DetHashSet, Stopwatch};
use slx_history::{History, ProcessId, Response};
use slx_memory::{Process, StepEffect, System, Word};
use slx_safety::SafetyProperty;

use crate::explore::ExploreOutcome;
use crate::valence::DecidableSet;

/// Seed implementation of [`crate::explore_safety`]: sequential DFS over
/// retained `(System, u64)` clones, `DefaultHasher`-free only in name —
/// every visited configuration stays resident in the visited set.
pub fn explore_safety_retained<W, P, S>(
    initial: &System<W, P>,
    active: &[ProcessId],
    depth: usize,
    safety: &S,
    digest: impl Fn(&History) -> u64 + Copy,
) -> ExploreOutcome
where
    W: Word,
    P: Process<W> + Clone + Eq + Hash,
    S: SafetyProperty,
{
    let mut outcome = ExploreOutcome {
        configs: 0,
        violations: Vec::new(),
        truncated: false,
        stats: slx_engine::ExploreStats::default(),
    };
    let start = Stopwatch::start();
    let mut seen: DetHashSet<(System<W, P>, u64)> = DetHashSet::default();
    let mut stack: Vec<(System<W, P>, usize)> = vec![(initial.clone(), 0)];
    while let Some((sys, d)) = stack.pop() {
        let key = (sys.clone(), digest(sys.history()));
        if !seen.insert(key) {
            continue;
        }
        outcome.configs += 1;
        if d >= depth {
            if !sys.quiescent() {
                outcome.truncated = true;
            }
            continue;
        }
        for &p in active {
            if !sys.can_step(p) {
                continue;
            }
            let mut next = sys.clone();
            let effect = next.step(p).expect("steppable process steps");
            if matches!(effect, StepEffect::Responded(_)) && !safety.allows(next.history()) {
                outcome.violations.push(next.history().clone());
                continue; // prune below the violation
            }
            stack.push((next, d + 1));
        }
    }
    outcome.stats.configs = outcome.configs;
    outcome.stats.truncated = outcome.truncated;
    outcome.stats.threads = 1;
    outcome.stats.elapsed = start.elapsed();
    outcome
}

/// Seed implementation of [`crate::decidable_values_with`]: sequential BFS over
/// retained `System` clones.
pub fn decidable_values_retained<W, P>(
    sys: &System<W, P>,
    active: &[ProcessId],
    budget: usize,
) -> DecidableSet
where
    W: Word,
    P: Process<W> + Clone + Eq + Hash,
{
    let mut out = DecidableSet {
        values: BTreeSet::new(),
        truncated: false,
        configs: 0,
    };
    let mut seen: DetHashSet<System<W, P>> = DetHashSet::default();
    let mut queue: VecDeque<System<W, P>> = VecDeque::new();
    queue.push_back(sys.clone());
    while let Some(s) = queue.pop_front() {
        if !seen.insert(s.clone()) {
            continue;
        }
        out.configs += 1;
        if out.configs >= budget {
            out.truncated = true;
            break;
        }
        for &p in active {
            if !s.can_step(p) {
                continue;
            }
            let mut next = s.clone();
            match next.step(p).expect("steppable") {
                StepEffect::Responded(Response::Decided(v)) => {
                    out.values.insert(v);
                }
                _ => queue.push_back(next),
            }
        }
        // Early exit once bivalence is witnessed: callers only need two.
        if out.values.len() >= 2 {
            return out;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use slx_consensus::{CasConsensus, ConsWord};
    use slx_history::{Operation, Value};
    use slx_memory::Memory;
    use slx_safety::ConsensusSafety;

    #[test]
    fn baseline_still_reproduces_seed_verdicts() {
        let mut mem: Memory<ConsWord> = Memory::new();
        let obj = CasConsensus::alloc(&mut mem);
        let mut sys = System::new(mem, vec![CasConsensus::new(obj), CasConsensus::new(obj)]);
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        sys.invoke(p0, Operation::Propose(Value::new(1))).unwrap();
        sys.invoke(p1, Operation::Propose(Value::new(2))).unwrap();
        let out = explore_safety_retained(
            &sys,
            &[p0, p1],
            16,
            &ConsensusSafety::new(),
            crate::history_digest,
        );
        assert!(out.holds());
        assert!(!out.truncated);
        let d = decidable_values_retained(&sys, &[p0, p1], 10_000);
        assert!(d.bivalent());
    }
}
