//! Valence analysis for consensus configurations.

use std::collections::BTreeSet;
use std::hash::Hash;

use slx_engine::{Checker, DeltaCodec, Digest, Expansion, StateSpace};
use slx_history::{ProcessId, Response, Value};
use slx_memory::{Process, StepEffect, System, Word};

/// Values decidable from a configuration, with a truncation flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecidableSet {
    /// Values for which some schedule reaches a decision.
    pub values: BTreeSet<Value>,
    /// Whether the search budget cut branches (found values are still
    /// genuinely decidable; absent values might be too).
    pub truncated: bool,
    /// Configurations explored.
    pub configs: usize,
}

impl DecidableSet {
    /// Whether the configuration is (witnessed) bivalent: at least two
    /// distinct reachable decisions. A `true` answer is exact — both
    /// witnesses are real schedules.
    pub fn bivalent(&self) -> bool {
        self.values.len() >= 2
    }
}

/// The valence state space: schedules of the active processes, recording
/// each first decision as a finding and not exploring past it.
struct ValenceSpace<'a, W, P> {
    active: &'a [ProcessId],
    /// Whether `active` covers every process — symmetry reduction is only
    /// sound when the active set is permutation-closed.
    all_active: bool,
    _marker: std::marker::PhantomData<(W, P)>,
}

impl<W, P> StateSpace for ValenceSpace<'_, W, P>
where
    W: Word + DeltaCodec + Send + Sync,
    P: Process<W> + DeltaCodec + Clone + Eq + Hash + Send + Sync,
{
    type State = System<W, P>;
    type Finding = Value;

    fn digest(&self, sys: &Self::State) -> Digest {
        sys.digest128()
    }

    fn has_symmetry_reduction(&self) -> bool {
        self.all_active && P::has_symmetry_reduction()
    }

    fn canonical_digest(&self, sys: &Self::State) -> Digest {
        // The decidable-value set is symmetry-invariant: a permutation
        // relabels which process decides, never the decided value, and
        // the shifts never touch values. So one representative per orbit
        // yields the same valence verdict.
        P::canonical_system_digest(sys)
    }

    fn expand(&self, sys: &Self::State, _depth: usize, ctx: &mut Expansion<Self>) {
        ctx.reserve(self.active.len());
        for &p in self.active {
            if !sys.can_step(p) {
                continue;
            }
            let mut next = sys.clone();
            match next.step(p).expect("steppable") {
                StepEffect::Responded(Response::Decided(v)) => {
                    // A decision seals the configuration's fate; record and
                    // do not explore past it (agreement makes the rest
                    // univalent, and we only need first decisions).
                    ctx.finding(v);
                }
                _ => ctx.push(next),
            }
        }
    }
}

/// Computes the set of values decidable from `sys` by scheduling only the
/// `active` processes (no crashes, no further invocations), exploring at
/// most `budget` configurations (frontier BFS on the `slx-engine` kernel,
/// fingerprint-memoized, stopping as soon as bivalence is witnessed —
/// callers only need two values).
///
/// This is the engine of the Chor–Israeli–Li-style adversary: from a
/// bivalent configuration the adversary steps whichever process keeps the
/// successor bivalent, and this function supplies the bivalence witnesses.
/// BFS order matters: solo runs decide quickly, so both witnesses are
/// usually found within a few hundred configurations. The `checker` is
/// the caller's: the bivalence adversary reuses one across its thousands
/// of valence queries.
pub fn decidable_values_with<W, P>(
    checker: &Checker,
    sys: &System<W, P>,
    active: &[ProcessId],
    budget: usize,
) -> DecidableSet
where
    W: Word + DeltaCodec + Send + Sync,
    P: Process<W> + DeltaCodec + Clone + Eq + Hash + Send + Sync,
{
    let space = ValenceSpace {
        active,
        all_active: crate::explore::covers_all_processes(active, sys.n()),
        _marker: std::marker::PhantomData,
    };
    // The retained seed implementation counted the budget-th state but
    // stopped *before* expanding it, so it expanded at most `budget - 1`
    // states and reported truncation iff at least `budget` distinct
    // configurations were reachable. The kernel expands exactly its budget
    // and truncates iff more remained, so `budget - 1` reproduces the seed
    // verdicts (values, bivalence, truncated) exactly.
    let mut distinct: BTreeSet<Value> = BTreeSet::new();
    let mut cursor = 0usize;
    let out = checker
        .clone()
        .with_budget(budget.saturating_sub(1))
        .run_until(&space, vec![sys.clone()], |found| {
            for v in &found[cursor..] {
                distinct.insert(*v);
            }
            cursor = found.len();
            distinct.len() >= 2
        });
    for v in &out.findings[cursor..] {
        distinct.insert(*v);
    }
    DecidableSet {
        values: distinct,
        truncated: out.stats.truncated,
        configs: out.stats.configs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slx_consensus::{CasConsensus, ConsWord, ObstructionFreeConsensus};
    use slx_history::Operation;
    use slx_memory::Memory;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn v(x: i64) -> Value {
        Value::new(x)
    }

    #[test]
    fn initial_cas_consensus_config_is_bivalent() {
        let mut mem: Memory<ConsWord> = Memory::new();
        let obj = CasConsensus::alloc(&mut mem);
        let mut sys = System::new(mem, vec![CasConsensus::new(obj), CasConsensus::new(obj)]);
        sys.invoke(p(0), Operation::Propose(v(1))).unwrap();
        sys.invoke(p(1), Operation::Propose(v(2))).unwrap();
        let d = decidable_values_with(&Checker::auto(), &sys, &[p(0), p(1)], 10_000);
        assert!(d.bivalent(), "{d:?}");
    }

    #[test]
    fn after_cas_lands_config_is_univalent() {
        let mut mem: Memory<ConsWord> = Memory::new();
        let obj = CasConsensus::alloc(&mut mem);
        let mut sys = System::new(mem, vec![CasConsensus::new(obj), CasConsensus::new(obj)]);
        sys.invoke(p(0), Operation::Propose(v(1))).unwrap();
        sys.invoke(p(1), Operation::Propose(v(2))).unwrap();
        sys.step(p(0)).unwrap(); // p1's CAS decides the outcome
        let d = decidable_values_with(&Checker::auto(), &sys, &[p(0), p(1)], 10_000);
        assert_eq!(d.values, BTreeSet::from([v(1)]));
        assert!(!d.bivalent());
        assert!(!d.truncated);
    }

    #[test]
    fn of_consensus_initial_config_is_bivalent() {
        let sys = ObstructionFreeConsensus::proposers(&[1, 2], 32);
        let d = decidable_values_with(&Checker::auto(), &sys, &[p(0), p(1)], 50_000);
        assert!(d.bivalent(), "{d:?}");
    }

    #[test]
    fn same_proposals_yield_single_value() {
        let mut mem: Memory<ConsWord> = Memory::new();
        let obj = CasConsensus::alloc(&mut mem);
        let mut sys = System::new(mem, vec![CasConsensus::new(obj), CasConsensus::new(obj)]);
        sys.invoke(p(0), Operation::Propose(v(5))).unwrap();
        sys.invoke(p(1), Operation::Propose(v(5))).unwrap();
        let d = decidable_values_with(&Checker::auto(), &sys, &[p(0), p(1)], 10_000);
        assert_eq!(d.values, BTreeSet::from([v(5)]));
    }
}
