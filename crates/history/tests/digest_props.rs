//! The maintained history digest is the walked one.
//!
//! A [`History`] folds every appended action into its digest, so
//! [`History::digest64`] must equal `digest64_of_iter(h.iter())` whatever
//! path built the history: appends, constructors, the structural
//! operations, clones and both decoders. Case `seed` draws random action
//! sequences from a [`SmallRng`] seeded with `seed`; a failing case names
//! its seed and the path.

use slx_engine::{digest64_of_iter, DeltaCodec, DeltaCtx, StateCodec};
use slx_history::{Action, History, Operation, ProcessId, Response, Value, VarId};
use slx_memory::SmallRng;

/// Cases per property.
const CASES: u64 = 256;

/// Processes the generated actions name.
const N: usize = 3;

fn arb_value(rng: &mut SmallRng) -> Value {
    Value::new(rng.gen_index(5) as i64 - 2)
}

fn arb_operation(rng: &mut SmallRng) -> Operation {
    let x = VarId::new(rng.gen_index(2));
    match rng.gen_index(10) {
        0 => Operation::Propose(arb_value(rng)),
        1 => Operation::Read(x),
        2 => Operation::Write(x, arb_value(rng)),
        3 => Operation::TestAndSet,
        4 => Operation::CompareAndSwap {
            expected: arb_value(rng),
            new: arb_value(rng),
        },
        5 => Operation::FetchAdd(arb_value(rng)),
        6 => Operation::TxStart,
        7 => Operation::TxRead(x),
        8 => Operation::TxWrite(x, arb_value(rng)),
        _ => Operation::TxCommit,
    }
}

fn arb_response(rng: &mut SmallRng) -> Response {
    match rng.gen_index(6) {
        0 => Response::Decided(arb_value(rng)),
        1 => Response::ValueReturned(arb_value(rng)),
        2 => Response::Ok,
        3 => Response::Flag(rng.gen_index(2) == 1),
        4 => Response::Committed,
        _ => Response::Aborted,
    }
}

/// Up to 39 actions over the whole alphabet, well-formed or not: the
/// digest is a fold over any sequence.
fn arb_actions(rng: &mut SmallRng) -> Vec<Action> {
    (0..rng.gen_index(40))
        .map(|_| {
            let proc = ProcessId::new(rng.gen_index(N));
            match rng.gen_index(5) {
                0 | 1 => Action::invoke(proc, arb_operation(rng)),
                2 | 3 => Action::respond(proc, arb_response(rng)),
                _ => Action::crash(proc),
            }
        })
        .collect()
}

fn check(h: &History, seed: u64, path: &str) {
    assert_eq!(
        h.digest64(),
        digest64_of_iter(h.iter()),
        "seed {seed}, {path}: {h}"
    );
}

#[test]
fn the_maintained_digest_is_the_walked_one_on_every_path() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let actions = arb_actions(&mut rng);
        let other = arb_actions(&mut rng);
        let split = rng.gen_index(actions.len() + 1);

        let mut pushed = History::new();
        check(&pushed, seed, "new");
        for &a in &actions {
            pushed.push(a);
            check(&pushed, seed, "new + push");
        }
        let mut sized = History::with_capacity(actions.len());
        for &a in &actions {
            sized.push(a);
            check(&sized, seed, "with_capacity + push");
        }
        let h = History::from_actions(actions.iter().copied());
        check(&h, seed, "from_actions");
        assert_eq!(h, pushed, "seed {seed}: from_actions is the pushed history");
        let collected: History = actions.iter().copied().collect();
        check(&collected, seed, "collect");

        let mut extended = History::from_actions(actions[..split].iter().copied());
        extended.extend(actions[split..].iter().copied());
        check(&extended, seed, "extend");
        let g = History::from_actions(other.iter().copied());
        check(&h.concat(&g), seed, "concat");
        check(&g.concat(&h), seed, "concat (swapped)");
        check(&h.prefix(split), seed, "prefix");
        for p in ProcessId::all(N) {
            check(&h.projection(p), seed, "projection");
        }

        let mut cloned = h.clone();
        check(&cloned, seed, "clone");
        for &a in &other {
            cloned.push(a);
        }
        check(&cloned, seed, "clone + push");
        check(&h, seed, "the original after its clone grew");

        let mut plain = Vec::new();
        h.encode(&mut plain);
        let decoded = History::decode(&mut plain.as_slice()).expect("plain record");
        check(&decoded, seed, "StateCodec::decode");
        for prev in [None, Some(&g), Some(&extended), Some(&History::new())] {
            let mut delta = Vec::new();
            h.encode_delta(prev, &mut delta);
            let replayed = History::decode_delta(prev, &mut delta.as_slice(), &mut DeltaCtx::new())
                .expect("delta record");
            assert_eq!(replayed, h, "seed {seed}: delta round trip");
            check(&replayed, seed, "DeltaCodec::decode_delta");
        }
    }
}
