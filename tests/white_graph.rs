//! Figure 1(a)'s white cell as one exact graph: the two-process
//! obstruction-free consensus under its round-shift key, joined with the
//! decisions, is a finite automaton, and the quotient behind it is sound.

use std::collections::{BTreeSet, HashMap};

use safety_liveness_exclusion::automata::{extract, NotClosed, MAX_STATES};
use safety_liveness_exclusion::consensus::{
    round_shift_key, CasConsensus, ConsWord, ObstructionFreeConsensus, OfRoundShiftKey,
};
use safety_liveness_exclusion::explorer::{explore_safety, history_digest};
use safety_liveness_exclusion::grid::{consensus_white_check, decisions};
use safety_liveness_exclusion::history::{Operation, ProcessId, Response, Value};
use safety_liveness_exclusion::memory::{Memory, Process, SmallRng, StepEffect, System, Word};
use safety_liveness_exclusion::safety::ConsensusSafety;

type Of = System<ConsWord, ObstructionFreeConsensus>;

const BOTH: [ProcessId; 2] = [ProcessId::new(0), ProcessId::new(1)];

type JointKey = (OfRoundShiftKey, BTreeSet<Response>);

/// The key the white check extracts the consensus under.
fn joint_key(sys: &Of) -> JointKey {
    (round_shift_key(sys), decisions(sys))
}

/// What a key must fix for the quotient to be sound: who is pending and,
/// for each process, whether it can step, whether that step responds,
/// and the key it leads to.
fn future(sys: &Of) -> (Vec<bool>, Vec<Option<(bool, JointKey)>>) {
    let pending = BOTH.iter().map(|&p| sys.is_pending(p)).collect();
    let steps = BOTH
        .iter()
        .map(|&p| {
            sys.can_step(p).then(|| {
                let mut next = sys.clone();
                let responds = matches!(next.step(p), Ok(StepEffect::Responded(_)));
                (responds, joint_key(&next))
            })
        })
        .collect();
    (pending, steps)
}

/// Configurations reached by different seeded random schedules agree on
/// their futures whenever their keys agree.
#[test]
fn equal_keys_have_equal_futures() {
    let mut seen = HashMap::new();
    let mut repeats = 0;
    for seed in 0..200 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sys = ObstructionFreeConsensus::proposers(&[1, 2], 64);
        for _ in 0..60 {
            let key = joint_key(&sys);
            let future = future(&sys);
            match seen.get(&key) {
                Some(first) => {
                    assert_eq!(first, &future, "seed {seed}: {key:?}");
                    repeats += 1;
                }
                None => {
                    seen.insert(key, future);
                }
            }
            let steppable = sys.steppable();
            if steppable.is_empty() {
                break;
            }
            sys.step(steppable[rng.gen_index(steppable.len())])
                .expect("a steppable process steps");
        }
    }
    assert!(seen.len() > 100, "only {} keys", seen.len());
    assert!(repeats > 1_000, "only {repeats} repeats");
}

/// The round count is headroom, not scope: the graph at R = 64 is the
/// graph at R = 256.
#[test]
fn the_graph_does_not_depend_on_the_round_count() {
    let graph = |rounds| {
        let sys = ObstructionFreeConsensus::proposers(&[1, 2], rounds);
        extract(&sys, &BOTH, joint_key).expect("closes").automaton
    };
    let (small, large) = (graph(64), graph(256));
    assert_eq!(small, large);
    assert_eq!(small.n_states(), 594);
    assert_eq!(small.transitions().count(), 1_084);
    let (ok, basis) = consensus_white_check(
        &ObstructionFreeConsensus::proposers(&[1, 2], 256),
        round_shift_key,
    );
    assert!(ok, "{basis}");
    assert_eq!(
        basis,
        "all schedules, unbounded: 594 states, 1084 transitions"
    );
}

#[test]
fn every_input_vector_closes_and_passes() {
    for (inputs, states, transitions) in [
        ([1, 2], 594, 1_084),
        ([2, 1], 594, 1_084),
        ([1, 1], 85, 151),
        ([2, 2], 85, 151),
    ] {
        let sys = ObstructionFreeConsensus::proposers(&inputs, 64);
        let (ok, basis) = consensus_white_check(&sys, round_shift_key);
        assert!(ok, "{inputs:?}: {basis}");
        let size = format!("all schedules, unbounded: {states} states, {transitions} transitions");
        assert_eq!(basis, size, "{inputs:?}");
    }
}

/// Under the exact key (the configuration and the whole history) the
/// extraction counts what the fingerprinting kernel visits.
#[test]
fn an_exact_extraction_counts_the_kernels_configurations() {
    let mut mem: Memory<ConsWord> = Memory::new();
    let obj = CasConsensus::alloc(&mut mem);
    let mut sys = System::new(mem, vec![CasConsensus::new(obj); 2]);
    for (p, v) in BOTH.into_iter().zip([1, 2]) {
        sys.invoke(p, Operation::Propose(Value::new(v))).unwrap();
    }
    let graph = extract(&sys, &BOTH, |s| (s.clone(), s.history().clone())).expect("closes");
    let out = explore_safety(&sys, &BOTH, 16, &ConsensusSafety::new(), history_digest);
    assert!(!out.truncated && out.holds());
    assert_eq!(graph.states.len(), out.configs);
    assert_eq!(graph.automaton.transitions().count(), out.stats.transitions);
}

/// Counts its steps forever: no key that holds the count closes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Counter(u64);

impl<W: Word> Process<W> for Counter {
    fn on_invoke(&mut self, _op: Operation) {}

    fn has_step(&self) -> bool {
        true
    }

    fn step(&mut self, _mem: &mut Memory<W>) -> StepEffect {
        self.0 += 1;
        StepEffect::Ran
    }
}

#[test]
fn a_key_that_never_closes_stops_at_the_cap() {
    let sys: System<ConsWord, Counter> = System::new(Memory::new(), vec![Counter(0)]);
    let out = extract(&sys, &BOTH[..1], Clone::clone);
    assert_eq!(out.err(), Some(NotClosed { states: MAX_STATES }));
}
