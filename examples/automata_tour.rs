//! A tour of the formal side: I/O automata, composition, fairness,
//! Theorem 4.9's constructions, and Lemma 4.8's strongest ensured property
//! built on a bounded truncation.
//!
//! Run with: `cargo run --example automata_tour`

use safety_liveness_exclusion::automata::{
    single_response_ib, strongest_ensured, trivial_it, Automaton, BoundedLiveness, StateId,
};
use safety_liveness_exclusion::history::{Action, History, Operation, ProcessId, Response, Value};
use safety_liveness_exclusion::safety::{ConsensusSafety, SafetyProperty};

fn main() {
    let p1 = ProcessId::new(0);
    let p2 = ProcessId::new(1);
    let propose = |v: i64| Operation::Propose(Value::new(v));
    let ops = [propose(1), propose(2)];
    let resps = [
        Response::Decided(Value::new(1)),
        Response::Decided(Value::new(2)),
    ];

    // ------------------------------------------------------------------
    // 1. Composition: matched input/output actions become internal.
    // ------------------------------------------------------------------
    println!("=== composition (Section 2) ===");
    let mut chan: Automaton<&str> = Automaton::new(
        "chan",
        3,
        [StateId(0)],
        ["send"],
        ["deliver"],
        Vec::<&str>::new(),
    );
    chan.add_transition(StateId(0), "send", StateId(1));
    chan.add_transition(StateId(1), "deliver", StateId(2));
    chan.add_transition(StateId(1), "send", StateId(1));
    chan.add_transition(StateId(2), "send", StateId(2));
    let mut cons: Automaton<&str> = Automaton::new(
        "cons",
        2,
        [StateId(0)],
        ["deliver"],
        ["ack"],
        Vec::<&str>::new(),
    );
    cons.add_transition(StateId(0), "deliver", StateId(1));
    cons.add_transition(StateId(1), "ack", StateId(1));
    let composed = chan.compose(&cons);
    println!("composed automaton   : {}", composed.name());
    println!("inputs               : {:?}", composed.inputs());
    println!("outputs              : {:?}", composed.outputs());
    println!("internal (hidden)    : {:?}\n", composed.internals());

    // ------------------------------------------------------------------
    // 2. Theorem 4.9's trivial implementation It.
    // ------------------------------------------------------------------
    println!("=== Theorem 4.9: It (never responds) ===");
    let it = trivial_it(2, &ops, &resps);
    let safety = ConsensusSafety::new();
    let histories = it.histories(4);
    println!("histories to depth 4 : {}", histories.len());
    let all_safe = histories
        .iter()
        .all(|h| safety.allows(&History::from_actions(h.iter().copied())));
    println!("all ensure safety    : {all_safe}");
    let fair = it.fair_histories(4);
    println!(
        "fair histories       : {} (every process pending or crashed in each)",
        fair.len()
    );
    let both_invoke = vec![
        Action::invoke(p1, propose(1)),
        Action::invoke(p2, propose(2)),
    ];
    println!(
        "fair example         : both invoke, nobody answers — {}\n",
        fair.contains(&both_invoke)
    );

    // ------------------------------------------------------------------
    // 3. Theorem 4.9's Ib: one response, then silence.
    // ------------------------------------------------------------------
    println!("=== Theorem 4.9: Ib (single response) ===");
    let res = Response::Decided(Value::new(1));
    let ib = single_response_ib(p1, p1, propose(1), res, &ops).compose(&single_response_ib(
        p2,
        p1,
        propose(1),
        res,
        &ops,
    ));
    let with_response = ib
        .histories(5)
        .into_iter()
        .filter(|h| h.iter().any(|a| matches!(a, Action::Respond { .. })))
        .count();
    println!("histories w/ response: {with_response} (all respond decided(1) to p1's propose(1))");
    let pending = vec![Action::invoke(p1, propose(1))];
    println!(
        "pending designated invocation counted fair?: {} (response enabled ⇒ unfair)\n",
        ib.fair_histories(3).contains(&pending)
    );

    // ------------------------------------------------------------------
    // 4. Lemma 4.8's strongest ensured property on a bounded universe.
    // ------------------------------------------------------------------
    println!("=== Lemma 4.8 on It (1 process, depth 2) ===");
    let small_it = trivial_it(1, &[propose(1)], &[res]);
    let universe: Vec<Vec<Action>> = small_it.histories(2).into_iter().collect();
    let lmax = BoundedLiveness::new(
        universe
            .iter()
            .filter(|h| {
                let hist = History::from_actions(h.iter().copied());
                !hist.pending(p1) && !hist.crashed(p1)
            })
            .cloned(),
    );
    let strongest = strongest_ensured(&small_it, &lmax, 2);
    println!("universe size        : {}", universe.len());
    println!("|Lmax| truncation    : {}", lmax.len());
    println!("|Lmax ∪ fair(A_It)|  : {}", strongest.len());
    println!(
        "Lemma 4.8 at depth 2 : Lmax ∪ fair(A_It) is the strongest ensured (ensured by It: {}); \
         definitional at this bound, no candidate property searched",
        strongest.ensured_by(&small_it, 2)
    );
}
