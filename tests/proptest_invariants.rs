//! Property-based tests of the core data structures and checkers.
//!
//! Every property runs on a fixed number of generated cases; case `seed`
//! is drawn from a [`SmallRng`] seeded with `seed`, so a case is a pure
//! function of its seed. A failing case names its seed and prints the
//! generated input after the assertion's own panic message; to replay
//! it alone, narrow the seed range in [`for_each_case`] to that seed.
//! (There is no shrinking: the printed case is the counterexample.)
//!
//! The prefix-monotonicity and linearizability properties draw from the
//! alphabet of the object they test (consensus, register, tm_op), so every
//! generated history is in the checker's domain.

use std::fmt::Debug;

use safety_liveness_exclusion::history::{
    Action, History, HistorySet, Operation, ProcessId, Response, Value, VarId,
};
use safety_liveness_exclusion::liveness::{
    ExecutionView, KObstructionFreedom, LLockFreedom, LivenessProperty, LkFreedom, Lmax,
    ProgressKind,
};
use safety_liveness_exclusion::memory::{Event, SmallRng};
use safety_liveness_exclusion::safety::{
    ConsensusSafety, ConsensusSpec, KSetAgreementSafety, Linearizability, Opacity, RegisterSpec,
    SafetyProperty,
};

const N: usize = 3;

/// Cases per property.
const CASES: u64 = 256;

/// Runs `property` on [`CASES`] cases, case `seed` being `generate`
/// applied to a generator seeded with `seed`.
fn for_each_case<T: Debug>(generate: impl Fn(&mut SmallRng) -> T, property: impl Fn(&T)) {
    for seed in 0..CASES {
        let case = generate(&mut SmallRng::seed_from_u64(seed));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(&case)));
        if let Err(panic) = outcome {
            eprintln!("property failed at seed {seed} on case {case:?}");
            std::panic::resume_unwind(panic);
        }
    }
}

fn arb_value(rng: &mut SmallRng) -> Value {
    Value::new(rng.gen_index(3) as i64)
}

/// An object's invocation alphabet.
type ArbOp = fn(&mut SmallRng) -> Operation;

fn consensus_op(rng: &mut SmallRng) -> Operation {
    Operation::Propose(arb_value(rng))
}

fn register_op(rng: &mut SmallRng) -> Operation {
    match rng.gen_index(2) {
        0 => Operation::Read(VarId::new(0)),
        _ => Operation::Write(VarId::new(0), arb_value(rng)),
    }
}

fn tm_op(rng: &mut SmallRng) -> Operation {
    match rng.gen_index(4) {
        0 => Operation::TxStart,
        1 => Operation::TxRead(VarId::new(0)),
        2 => Operation::TxWrite(VarId::new(0), arb_value(rng)),
        _ => Operation::TxCommit,
    }
}

/// Consensus and TM invocations interleaved: the structural properties
/// hold on any history, whatever object it talks to.
fn mixed_op(rng: &mut SmallRng) -> Operation {
    match rng.gen_index(5) {
        0 => consensus_op(rng),
        _ => tm_op(rng),
    }
}

fn any_response(rng: &mut SmallRng) -> Response {
    match rng.gen_index(5) {
        0 => Response::Decided(arb_value(rng)),
        1 => Response::ValueReturned(arb_value(rng)),
        2 => Response::Ok,
        3 => Response::Committed,
        _ => Response::Aborted,
    }
}

/// A plausible response to `op` after `h`, so that allowed histories grow
/// past a few actions: three times in four a `propose` returns the value
/// already decided (if any) and a read returns the last value written
/// (the initial 0 if none); a TM operation aborts one time in four. One
/// time in eight the response is of any kind at all, since a checker
/// must reject a mistyped history, not trip over it.
fn arb_response(rng: &mut SmallRng, h: &History, op: Operation) -> Response {
    if rng.gen_index(8) == 0 {
        return any_response(rng);
    }
    if op.is_transactional() && rng.gen_index(4) == 0 {
        return Response::Aborted;
    }
    let likely = |rng: &mut SmallRng, v: Option<Value>| match v {
        Some(v) if rng.gen_index(4) != 0 => v,
        _ => arb_value(rng),
    };
    match op {
        Operation::Propose(_) => {
            let decided = h.iter().find_map(|a| match a.as_respond() {
                Some(Response::Decided(v)) => Some(v),
                _ => None,
            });
            Response::Decided(likely(rng, decided))
        }
        Operation::Read(_) | Operation::TxRead(_) => {
            let written = h.iter().rev().find_map(|a| match a.as_invoke() {
                Some(Operation::Write(_, v) | Operation::TxWrite(_, v)) => Some(v),
                _ => None,
            });
            Response::ValueReturned(likely(rng, Some(written.unwrap_or(Value::new(0)))))
        }
        Operation::TxCommit => Response::Committed,
        _ => Response::Ok,
    }
}

/// Up to `max_len - 1` unconstrained actions (rarely well-formed).
fn arb_history(rng: &mut SmallRng, max_len: usize) -> History {
    let len = rng.gen_index(max_len);
    History::from_actions((0..len).map(|_| {
        let proc = ProcessId::new(rng.gen_index(N));
        match rng.gen_index(3) {
            0 => Action::invoke(proc, mixed_op(rng)),
            1 => Action::respond(proc, any_response(rng)),
            _ => Action::crash(proc),
        }
    }))
}

/// Well-formed histories of up to `max_len - 1` actions, each extending
/// a random live process legally: an idle process invokes an `arb_op`
/// operation, a pending one gets its response, and either crashes one
/// time in twelve. TM invocations follow the client discipline
/// (`TxnView::client_well_formed`): outside a transaction the draw
/// becomes `start()`, inside one a drawn `start()` becomes `tryC()`.
fn arb_well_formed(rng: &mut SmallRng, max_len: usize, arb_op: ArbOp) -> History {
    let mut h = History::new();
    let mut pending: [Option<Operation>; N] = [None; N];
    let mut in_txn = [false; N];
    let mut live: Vec<usize> = (0..N).collect();
    for _ in 0..rng.gen_index(max_len) {
        if live.is_empty() {
            break;
        }
        let slot = rng.gen_index(live.len());
        let (i, proc) = (live[slot], ProcessId::new(live[slot]));
        if rng.gen_index(12) == 0 {
            h.push(Action::crash(proc));
            live.swap_remove(slot);
        } else if let Some(op) = pending[i].take() {
            let resp = arb_response(rng, &h, op);
            if op.is_transactional() && matches!(resp, Response::Committed | Response::Aborted) {
                in_txn[i] = false;
            }
            h.push(Action::respond(proc, resp));
        } else {
            let op = match arb_op(rng) {
                op if !op.is_transactional() => op,
                _ if !in_txn[i] => Operation::TxStart,
                Operation::TxStart => Operation::TxCommit,
                op => op,
            };
            in_txn[i] |= op == Operation::TxStart;
            pending[i] = Some(op);
            h.push(Action::invoke(proc, op));
        }
    }
    h
}

fn arb_indices(rng: &mut SmallRng, max_len: usize) -> Vec<usize> {
    (0..rng.gen_index(max_len))
        .map(|_| rng.gen_index(N))
        .collect()
}

#[test]
fn projections_partition_actions() {
    for_each_case(
        |rng| arb_history(rng, 24),
        |h| {
            let total: usize = ProcessId::all(N).map(|p| h.projection(p).len()).sum();
            assert_eq!(total, h.len());
        },
    );
}

#[test]
fn prefixes_are_prefixes() {
    for_each_case(
        |rng| arb_history(rng, 16),
        |h| {
            for p in h.prefixes() {
                assert!(p.is_prefix_of(h));
                assert!(p.len() <= h.len());
            }
        },
    );
}

#[test]
fn concat_preserves_prefix() {
    for_each_case(
        |rng| (arb_history(rng, 8), arb_history(rng, 8)),
        |(a, b)| {
            let c = a.concat(b);
            assert!(a.is_prefix_of(&c));
            assert_eq!(c.len(), a.len() + b.len());
        },
    );
}

#[test]
fn well_formedness_is_prefix_closed() {
    for_each_case(
        |rng| arb_well_formed(rng, 24, mixed_op),
        |h| {
            assert!(h.is_well_formed());
            for p in h.prefixes() {
                assert!(p.is_well_formed());
            }
        },
    );
}

#[test]
fn calls_pending_consistency() {
    for_each_case(
        |rng| arb_well_formed(rng, 24, mixed_op),
        |h| {
            // Each process has at most one pending call and it is the last one.
            for p in ProcessId::all(N) {
                let pending_calls = h
                    .calls()
                    .into_iter()
                    .filter(|c| c.proc == p && c.resp.is_none())
                    .count();
                assert!(pending_calls <= 1);
                assert_eq!(pending_calls == 1, h.pending(p));
            }
        },
    );
}

#[test]
fn history_set_algebra() {
    let arb_set = |rng: &mut SmallRng| {
        let len = rng.gen_index(6);
        HistorySet::from_histories((0..len).map(|_| arb_history(rng, 6)).collect::<Vec<_>>())
    };
    for_each_case(
        |rng| (arb_set(rng), arb_set(rng)),
        |(a, b)| {
            let i = a.intersection(b);
            let u = a.union(b);
            assert!(i.is_subset(a) && i.is_subset(b));
            assert!(a.is_subset(&u) && b.is_subset(&u));
            assert_eq!(a.is_disjoint(b), i.is_empty());
            assert!(u.prefix_closure().is_prefix_closed());
        },
    );
}

#[test]
fn consensus_safety_prefix_monotone() {
    for_each_case(
        |rng| arb_well_formed(rng, 20, consensus_op),
        |h| {
            assert!(ConsensusSafety::new().prefix_monotone_on(h));
            assert!(KSetAgreementSafety::new(2).prefix_monotone_on(h));
        },
    );
}

#[test]
fn kset_weakens_with_k() {
    for_each_case(
        |rng| arb_well_formed(rng, 20, consensus_op),
        |h| {
            // k-set agreement safety is monotone in k.
            for k in 1..3usize {
                if KSetAgreementSafety::new(k).allows(h) {
                    assert!(KSetAgreementSafety::new(k + 1).allows(h));
                }
            }
        },
    );
}

#[test]
fn consensus_linearizability_implies_agreement_validity() {
    for_each_case(
        |rng| arb_well_formed(rng, 12, consensus_op),
        |h| {
            if Linearizability::new(ConsensusSpec::new()).is_linearizable(h) {
                assert!(ConsensusSafety::new().allows(h));
            }
        },
    );
}

#[test]
fn register_linearizability_prefix_monotone() {
    for_each_case(
        |rng| arb_well_formed(rng, 16, register_op),
        |h| {
            let lin = Linearizability::new(RegisterSpec::new(1, Value::new(0)));
            assert!(lin.prefix_monotone_on(h));
        },
    );
}

#[test]
fn opacity_prefix_monotone_on_small_tm_histories() {
    for_each_case(
        |rng| arb_well_formed(rng, 16, tm_op),
        |h| assert!(Opacity::new(Value::new(0)).prefix_monotone_on(h)),
    );
}

#[test]
fn lk_product_order_is_semantically_sound() {
    for_each_case(
        |rng| (arb_indices(rng, 12), arb_indices(rng, 6)),
        |(steps, good)| {
            // Build a synthetic execution and check: stronger (l,k) implies
            // weaker (l,k) on it.
            let mut events = Vec::new();
            for i in 0..N {
                events.push(Event::Invoked(ProcessId::new(i), Operation::TxCommit));
            }
            for &s in steps {
                events.push(Event::Stepped(ProcessId::new(s)));
            }
            for &g in good {
                events.push(Event::Responded(ProcessId::new(g), Response::Committed));
                events.push(Event::Invoked(ProcessId::new(g), Operation::TxCommit));
            }
            let view = ExecutionView::lasso(&[], &events, N, ProgressKind::CommitOnly);
            let grid = LkFreedom::grid(N);
            for a in &grid {
                for b in &grid {
                    if a.is_stronger_or_equal(b) && a.satisfied(&view) {
                        assert!(b.satisfied(&view), "{a} ⊏ {b} violated");
                    }
                }
            }
            // Lmax coincides with (n,n)-freedom.
            assert_eq!(
                Lmax::new().satisfied(&view),
                LkFreedom::new(N, N).satisfied(&view)
            );
            // l-lock-freedom = (l, n)-freedom when all steps counted.
            for l in 1..=N {
                assert_eq!(
                    LLockFreedom::new(l).satisfied(&view),
                    LkFreedom::new(l, N).satisfied(&view)
                );
            }
            // The paper's union remark (Section 5.1): on executions where
            // every correct process is a stepper, (l,k)-freedom coincides with
            // l-lock-freedom ∪ k-obstruction-freedom.
            let steppers = view.steppers();
            if view.correct().iter().all(|p| steppers.contains(p)) {
                for lk in &grid {
                    assert_eq!(
                        lk.satisfied(&view),
                        LLockFreedom::new(lk.l()).satisfied(&view)
                            || KObstructionFreedom::new(lk.k()).satisfied(&view),
                        "union remark fails at {lk}"
                    );
                }
            }
        },
    );
}
