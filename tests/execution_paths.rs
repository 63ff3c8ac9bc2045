//! An execution is a path. `Automaton::executions_on` runs a space that
//! declares its states never repeat, so the kernel deduplicates nothing
//! but the initial executions: a run of the `wide-nodedup` enumeration
//! (Theorem 4.9's `It`, 4 processes, 3 proposals, depth 7) makes no dedup
//! hit, its visited set holds exactly the automaton's initial states, and
//! it returns the retained queue's 512,009 executions in the queue's
//! order. A space that stopped declaring it would insert every execution
//! (Σ `shard_occupancy` = `configs`); one that lost an execution to a
//! collision would fail the equality.

use safety_liveness_exclusion::automata::{trivial_it, Automaton, StateId};
use safety_liveness_exclusion::engine::Checker;
use safety_liveness_exclusion::history::{Action, Operation, ProcessId, Value};

fn pinned(threads: usize) -> Checker {
    Checker::parallel_bfs(threads)
        .with_shards(8)
        .with_symmetry(false)
        .with_mem_budget(0)
}

#[test]
fn the_it_enumeration_inserts_only_its_initial_execution() {
    let ops = [0, 1, 2].map(|v| Operation::Propose(Value::new(v)));
    let it = trivial_it(4, &ops, &[]);
    let out = it.run_executions(&pinned(1), 7);
    assert_eq!(out.findings.len(), 512_009);
    assert_eq!(out.stats.configs, out.findings.len());
    assert_eq!(out.stats.dedup_hits, 0);
    assert_eq!(
        out.stats.shard_occupancy.iter().sum::<usize>(),
        it.init().len()
    );
    assert!(
        out.findings == it.executions(7),
        "not the queue's executions"
    );
}

#[test]
fn several_initial_states_are_the_only_visited_entries() {
    // Three initial states, each with two ways out and back: a cyclic
    // automaton whose executions still never repeat.
    let (a, b) = (
        Action::crash(ProcessId::new(0)),
        Action::crash(ProcessId::new(1)),
    );
    let mut auto = Automaton::new(
        "ring",
        3,
        [StateId(0), StateId(1), StateId(2)],
        Vec::<Action>::new(),
        Vec::<Action>::new(),
        [a, b],
    );
    for s in 0..3 {
        auto.add_transition(StateId(s), a, StateId((s + 1) % 3));
        auto.add_transition(StateId(s), b, StateId((s + 2) % 3));
    }
    for threads in [1, 2] {
        let out = auto.run_executions(&pinned(threads), 8);
        assert_eq!(out.findings.len(), 3 * ((1 << 9) - 1));
        assert_eq!(out.stats.dedup_hits, 0);
        assert_eq!(out.stats.shard_occupancy.iter().sum::<usize>(), 3);
        assert!(out.findings == auto.executions(8), "{threads} threads");
    }
}
