//! Property-based validation of the scenario [`StateCodec`]s.
//!
//! Like `shard_props`, this is a self-contained SplitMix64 harness (the
//! external `proptest` crate is unavailable offline). For each scenario
//! the disk-backed frontier spills — consensus (`System<ConsWord, _>`
//! over CAS and obstruction-free implementations), transactional memory
//! (`System<TmWord, _>` over the global-version and AGP algorithms), and
//! the automata executions — it drives ~500+ randomly generated states
//! through `decode(encode(s))` and checks:
//!
//! 1. **Round trip**: the decoded state equals the original, *including*
//!    the history, byte for byte (`System`'s `Eq` deliberately ignores
//!    it, but findings observe it);
//! 2. **Digest stability**: the decoded state fingerprints identically,
//!    so a spilled-and-restored frontier dedups exactly like a resident
//!    one;
//! 3. **Encode determinism**: re-encoding produces identical bytes (chunk
//!    boundaries — hence spill determinism — depend on this).
//!
//! The systems a test round-trips are also held against each other, and
//! against their decoded copies: two of them fingerprint alike exactly
//! when `Eq` — the retained-clone oracles' exact comparison — says they
//! are one configuration. A `Memory` enters the fingerprint as a
//! maintained XOR fold of per-slot digests, so this is where a fold that
//! collided, or drifted from the objects it summarizes, would show.

use slx_consensus::{AdoptCommit, CasConsensus, ConsWord, ObstructionFreeConsensus, OfLayout};
use slx_engine::{DeltaCodec, DeltaCtx, StateCodec};
use slx_history::{Operation, ProcessId, Value, VarId};
use slx_memory::{Memory, ObjRun, System, Word};
use slx_tm::{AgpTm, GlobalVersionTm, TmWord};

mod common;
use common::{off_base_proposers, Rng};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Checks the full-state invariants the spill replay depends on.
fn assert_faithful<W, P>(decoded: &System<W, P>, sys: &System<W, P>, label: &str, law: &str)
where
    W: Word + DeltaCodec + Send + Sync,
    P: slx_memory::Process<W> + DeltaCodec + Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    assert_eq!(
        decoded, sys,
        "{label}: {law}: configuration must round-trip"
    );
    assert_eq!(
        decoded.history(),
        sys.history(),
        "{label}: {law}: history must round-trip (Eq ignores it; findings do not)"
    );
    let history_bytes = |sys: &System<W, P>| {
        let mut out = Vec::new();
        sys.history().encode(&mut out);
        out
    };
    assert_eq!(
        history_bytes(decoded),
        history_bytes(sys),
        "{label}: {law}: history must round-trip byte-exact"
    );
    assert_eq!(
        decoded.digest128(),
        sys.digest128(),
        "{label}: {law}: fingerprint must be stable across the round trip"
    );
}

/// Round-trips one system state and checks all three codec laws, plus —
/// when a chunk predecessor is given — the delta-codec laws against it
/// (round trip, self-delimitation, encode determinism, and the
/// self-contained `prev = None` form the first record of a chunk uses).
fn check_system<W, P>(sys: &System<W, P>, prev: Option<&System<W, P>>, label: &str)
where
    W: Word + DeltaCodec + Send + Sync,
    P: slx_memory::Process<W> + DeltaCodec + Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let mut buf = Vec::new();
    sys.encode(&mut buf);

    let mut again = Vec::new();
    sys.encode(&mut again);
    assert_eq!(buf, again, "{label}: encode must be deterministic");

    let mut input = buf.as_slice();
    let decoded = System::<W, P>::decode(&mut input).unwrap_or_else(|| {
        panic!("{label}: decode failed on a freshly encoded state");
    });
    assert!(
        input.is_empty(),
        "{label}: decode must consume the encoding"
    );
    assert_faithful(&decoded, sys, label, "plain");

    for (delta_prev, law) in [(prev, "delta"), (None, "delta-self-contained")] {
        let mut delta = Vec::new();
        sys.encode_delta(delta_prev, &mut delta);
        let mut again = Vec::new();
        sys.encode_delta(delta_prev, &mut again);
        assert_eq!(delta, again, "{label}: {law} encode must be deterministic");
        let mut input = delta.as_slice();
        let mut ctx = DeltaCtx::new();
        let decoded = System::<W, P>::decode_delta(delta_prev, &mut input, &mut ctx)
            .unwrap_or_else(|| panic!("{label}: {law} decode failed on a fresh encoding"));
        assert!(
            input.is_empty(),
            "{label}: {law} decode must consume the encoding"
        );
        assert_faithful(&decoded, sys, label, law);
    }
}

/// Takes up to `steps` random steps, round-tripping after every one —
/// delta-checking each state against its predecessor on the walk (the
/// chunk-neighbour relationship the spill path encodes against) — and
/// keeps every state it checked in `seen`.
fn walk_and_check<W, P>(
    sys: &mut System<W, P>,
    rng: &mut Rng,
    steps: usize,
    label: &str,
    seen: &mut Vec<System<W, P>>,
) where
    W: Word + DeltaCodec + Send + Sync,
    P: slx_memory::Process<W> + DeltaCodec + Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    check_system(sys, None, label);
    seen.push(sys.clone());
    for _ in 0..steps {
        let steppable = sys.steppable();
        if steppable.is_empty() {
            break;
        }
        let prev = sys.clone();
        let q = steppable[rng.below(steppable.len() as u64) as usize];
        sys.step(q).expect("steppable process steps");
        check_system(sys, Some(&prev), label);
        seen.push(sys.clone());
    }
}

/// Over `seen` and a decoded copy of each: equal fingerprints exactly
/// where `Eq` holds. The copies make the "equal" side non-vacuous — a
/// decoded memory computes its fold by walking the pool, a stepped one
/// maintained it write by write.
fn assert_digests_separate_exactly<W, P>(seen: &[System<W, P>], label: &str)
where
    W: Word + StateCodec,
    P: StateCodec + Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let decoded = seen.iter().map(|sys| {
        let mut bytes = Vec::new();
        sys.encode(&mut bytes);
        System::<W, P>::decode(&mut bytes.as_slice()).expect("round trip")
    });
    let all: Vec<(System<W, P>, slx_engine::Digest)> = decoded
        .chain(seen.iter().cloned())
        .map(|sys| {
            let digest = slx_engine::digest128_of(&sys);
            (sys, digest)
        })
        .collect();
    let mut equal_pairs = 0;
    for (i, (a, digest_a)) in all.iter().enumerate() {
        for (b, digest_b) in &all[i + 1..] {
            let equal = a == b;
            assert_eq!(
                equal,
                digest_a == digest_b,
                "{label}: fingerprint disagrees with Eq on\n{a:?}\n{b:?}"
            );
            equal_pairs += usize::from(equal);
        }
    }
    assert!(equal_pairs >= seen.len(), "{label}: every state has a copy");
}

#[test]
fn consensus_states_round_trip() {
    let mut rng = Rng(0x00C0_DEC0);
    let (mut of_seen, mut cas_seen) = (Vec::new(), Vec::new());
    for case in 0..18 {
        // Obstruction-free consensus: long adoptive runs under contention
        // exercise deep AdoptCommit sub-machine states.
        let inputs = [rng.below(100) as i64, rng.below(100) as i64];
        let mut sys = off_base_proposers(&inputs, 16);
        let label = format!("of-consensus case {case}");
        walk_and_check(&mut sys, &mut rng, 40, &label, &mut of_seen);

        // CAS consensus: short wait-free runs, including decided states.
        let mut mem: Memory<ConsWord> = Memory::new();
        let obj = CasConsensus::alloc(&mut mem);
        let mut sys = System::new(mem, vec![CasConsensus::new(obj), CasConsensus::new(obj)]);
        sys.invoke(p(0), Operation::Propose(Value::new(rng.below(100) as i64)))
            .unwrap();
        sys.invoke(p(1), Operation::Propose(Value::new(rng.below(100) as i64)))
            .unwrap();
        let label = format!("cas-consensus case {case}");
        walk_and_check(&mut sys, &mut rng, 10, &label, &mut cas_seen);
    }
    let checked = of_seen.len() + cas_seen.len();
    assert!(checked >= 500, "only {checked} consensus states checked");
    assert_digests_separate_exactly(&of_seen, "of-consensus");
    assert_digests_separate_exactly(&cas_seen, "cas-consensus");
}

/// Invokes a random TM operation on `q` if it is idle (ignoring the
/// occasional invalid invocation).
fn random_tm_invoke<P: slx_memory::Process<TmWord> + Clone + Eq + std::hash::Hash>(
    sys: &mut System<TmWord, P>,
    q: ProcessId,
    rng: &mut Rng,
) {
    if sys.is_pending(q) {
        return;
    }
    let x = VarId::new(0);
    let op = match rng.below(4) {
        0 => Operation::TxStart,
        1 => Operation::TxRead(x),
        2 => Operation::TxWrite(x, Value::new(rng.below(50) as i64)),
        _ => Operation::TxCommit,
    };
    let _ = sys.invoke(q, op);
}

#[test]
fn tm_states_round_trip() {
    let mut rng = Rng(0x7A11);
    let (mut gv_seen, mut agp_seen) = (Vec::new(), Vec::new());
    for case in 0..12 {
        // Global-version TM.
        let mut sys = GlobalVersionTm::system(2, 1);
        for _ in 0..12 {
            for i in 0..2 {
                random_tm_invoke(&mut sys, p(i), &mut rng);
            }
            walk_and_check(
                &mut sys,
                &mut rng,
                2,
                &format!("gv-tm case {case}"),
                &mut gv_seen,
            );
        }

        // AGP (Algorithm 1): adds the snapshot object and timestamps.
        let mut sys = AgpTm::system(2, 1);
        for _ in 0..8 {
            for i in 0..2 {
                random_tm_invoke(&mut sys, p(i), &mut rng);
            }
            let label = format!("agp-tm case {case}");
            walk_and_check(&mut sys, &mut rng, 2, &label, &mut agp_seen);
        }
    }
    let checked = gv_seen.len() + agp_seen.len();
    assert!(checked >= 500, "only {checked} TM states checked");
    assert_digests_separate_exactly(&gv_seen, "gv-tm");
    assert_digests_separate_exactly(&agp_seen, "agp-tm");
}

#[test]
fn automata_states_round_trip() {
    use slx_automata::{Execution, StateId};

    let mut rng = Rng(0xA07A);
    let mut checked = 0;
    for case in 0..500 {
        let state = StateId(rng.below(1000) as usize);
        let mut buf = Vec::new();
        state.encode(&mut buf);
        let mut input = buf.as_slice();
        assert_eq!(StateId::decode(&mut input), Some(state), "case {case}");
        assert!(input.is_empty());
        assert_eq!(
            slx_engine::digest128_of(&state),
            slx_engine::digest128_of(&StateId(state.0)),
            "case {case}: digest stability"
        );

        // A well-formed execution: n+1 states, n action labels.
        let n = rng.below(20) as usize;
        let exec = Execution {
            states: (0..=n).map(|_| StateId(rng.below(64) as usize)).collect(),
            actions: (0..n).map(|_| rng.next()).collect::<Vec<u64>>(),
        };
        let mut buf = Vec::new();
        exec.encode(&mut buf);
        let mut again = Vec::new();
        exec.encode(&mut again);
        assert_eq!(buf, again, "case {case}: encode determinism");
        let mut input = buf.as_slice();
        let decoded = Execution::<u64>::decode(&mut input).expect("fresh encoding decodes");
        assert!(input.is_empty());
        assert_eq!(decoded, exec, "case {case}");
        checked += 2;
    }
    assert!(checked >= 500);
}

#[test]
fn sibling_deltas_are_much_smaller_than_plain_records() {
    // One scheduled step apart — exactly the spill chunk neighbour
    // relationship. The delta must be a small fraction of the plain
    // record on the consensus workload (this is the ~1.3x-overhead
    // tentpole's mechanism, so pin it).
    let mut rng = Rng(0xD317A);
    let mut total_plain = 0usize;
    let mut total_delta = 0usize;
    for _ in 0..10 {
        let mut sys = off_base_proposers(&[1, 2], 16);
        for _ in 0..30 {
            let steppable = sys.steppable();
            if steppable.is_empty() {
                break;
            }
            let prev = sys.clone();
            let q = steppable[rng.below(steppable.len() as u64) as usize];
            sys.step(q).expect("steppable");
            let mut plain = Vec::new();
            sys.encode(&mut plain);
            let mut delta = Vec::new();
            sys.encode_delta(Some(&prev), &mut delta);
            total_plain += plain.len();
            total_delta += delta.len();
        }
    }
    assert!(
        total_delta * 4 < total_plain,
        "sibling deltas ({total_delta} bytes) must be under a quarter of \
         the plain records ({total_plain} bytes)"
    );
}

#[test]
fn overlong_varints_fail_cleanly_at_every_layer() {
    // `0x80 0x00` is an overlong LEB128 zero: a damaged spill file must
    // fail to decode rather than alias the valid one-byte form.
    let overlong: &[u8] = &[0x80, 0x00];
    let mut input = overlong;
    assert_eq!(u64::decode(&mut input), None);
    let mut input = overlong;
    assert_eq!(usize::decode(&mut input), None);
    let mut input = overlong;
    assert_eq!(ProcessId::decode(&mut input), None);
    let mut input = overlong;
    assert_eq!(Value::decode(&mut input), None, "zigzag path");
    // An otherwise-valid system encoding with one varint replaced by an
    // overlong form must fail loudly, not decode to a different state.
    let mut mem: Memory<ConsWord> = Memory::new();
    let obj = CasConsensus::alloc(&mut mem);
    let mut sys = System::new(mem, vec![CasConsensus::new(obj), CasConsensus::new(obj)]);
    sys.invoke(p(0), Operation::Propose(Value::new(1))).unwrap();
    let mut buf = Vec::new();
    sys.encode(&mut buf);
    // Splice: stretch the first zero byte (a varint in the memory pool
    // encoding) into its two-byte overlong form.
    let zero_at = buf
        .iter()
        .position(|&b| b == 0x00)
        .expect("some varint is zero");
    let mut damaged = buf[..zero_at].to_vec();
    damaged.extend_from_slice(&[0x80, 0x00]);
    damaged.extend_from_slice(&buf[zero_at + 1..]);
    let mut input = damaged.as_slice();
    let decoded = System::<ConsWord, CasConsensus>::decode(&mut input);
    assert!(
        decoded.is_none() || !input.is_empty(),
        "an overlong splice must not silently decode as a full valid record"
    );
}

#[test]
fn truncated_delta_encodings_fail_cleanly() {
    // Every strict prefix of a delta record must decode to None against
    // the same predecessor — same totality law as the plain codec.
    let mut sys = off_base_proposers(&[1, 2], 8);
    let prev = sys.clone();
    for _ in 0..3 {
        sys.step(p(0)).unwrap();
    }
    let mut buf = Vec::new();
    sys.encode_delta(Some(&prev), &mut buf);
    for cut in 0..buf.len() {
        let mut input = &buf[..cut];
        let mut ctx = DeltaCtx::new();
        assert!(
            System::<ConsWord, ObstructionFreeConsensus>::decode_delta(
                Some(&prev),
                &mut input,
                &mut ctx
            )
            .is_none(),
            "delta prefix of length {cut} must not decode"
        );
    }
}

#[test]
fn truncated_system_encodings_fail_cleanly() {
    // Every strict prefix of a real encoding must decode to None — a
    // truncated spill file cannot silently yield a different state.
    let mut mem: Memory<ConsWord> = Memory::new();
    let obj = CasConsensus::alloc(&mut mem);
    let mut sys = System::new(mem, vec![CasConsensus::new(obj), CasConsensus::new(obj)]);
    sys.invoke(p(0), Operation::Propose(Value::new(1))).unwrap();
    sys.step(p(0)).unwrap();
    let mut buf = Vec::new();
    sys.encode(&mut buf);
    for cut in 0..buf.len() {
        let mut input = &buf[..cut];
        assert!(
            System::<ConsWord, CasConsensus>::decode(&mut input).is_none(),
            "prefix of length {cut} must not decode"
        );
    }
}

/// `decode` of the bytes `parts` concatenates to.
fn decode_parts<T: StateCodec>(parts: &[usize]) -> Option<T> {
    let mut buf = Vec::new();
    for part in parts {
        part.encode(&mut buf);
    }
    T::decode(&mut buf.as_slice())
}

#[test]
fn register_runs_that_cannot_exist_do_not_decode() {
    // A run is two varints whatever its length, so nothing about the
    // input's size bounds it: what decode must refuse is a run whose ids
    // would wrap.
    assert_eq!(decode_parts::<ObjRun>(&[usize::MAX, 2]), None);
    assert_eq!(decode_parts::<ObjRun>(&[1, usize::MAX]), None);
    let run = decode_parts::<ObjRun>(&[usize::MAX - 2, 2]).expect("ends below the wrap");
    assert_eq!(run.at(1).index(), usize::MAX - 1);

    // A layout is (decision, n, run): the run is `2n` registers a round
    // and starts right after the decision register, and `n` and the
    // round count fit in 16 bits.
    assert!(decode_parts::<OfLayout>(&[1, 3, 2, 12]).is_some());
    assert!(decode_parts::<OfLayout>(&[1, 3, 2, 13]).is_none());
    assert!(decode_parts::<OfLayout>(&[1, usize::MAX, 2, 12]).is_none());
    assert!(decode_parts::<OfLayout>(&[1, 3, 3, 12]).is_none());
    assert!(decode_parts::<OfLayout>(&[1, 65_535, 2, 131_070]).is_some());
    assert!(decode_parts::<OfLayout>(&[1, 65_536, 2, 131_072]).is_none());
    assert!(decode_parts::<OfLayout>(&[1, 1, 2, 131_070]).is_some());
    assert!(decode_parts::<OfLayout>(&[1, 1, 2, 131_072]).is_none());

    // A commit-adopt participant is (a, b, me, input, pc, flags…) and
    // indexes both runs by `me` and by its collect position.
    let mut mem: Memory<ConsWord> = Memory::new();
    mem.alloc_tas();
    let (a, b) = AdoptCommit::alloc(&mut mem, 2);
    let mut ac = AdoptCommit::new(a, b, 1, Value::new(5));
    ac.step(&mut mem); // WriteA -> CollectA(0)
    let mut bytes = Vec::new();
    ac.encode(&mut bytes);
    assert_eq!(bytes[..8], [1, 2, 3, 2, 1, 10, 1, 0], "a, b, me, input, pc");
    let patched = |at: usize, byte: u8| {
        let mut mutant = bytes.clone();
        mutant[at] = byte;
        AdoptCommit::decode(&mut mutant.as_slice())
    };
    assert_eq!(
        patched(4, 1),
        Some(ac.clone()),
        "the unpatched bytes decode"
    );
    assert_eq!(patched(4, 2), None, "me >= n");
    assert_eq!(patched(3, 3), None, "the arrays differ in length");
    assert_eq!(patched(7, 2), None, "collect position >= n");
    assert!(patched(7, 1).is_some());
}

#[test]
fn consensus_records_whose_stored_copies_disagree_do_not_decode() {
    // A consensus process stores its participant count only in its
    // layout, derives its in-round registers and index from the layout,
    // the round and its id, and runs a round on its estimate. A record
    // whose written copies of those disagree is no process: decoding it
    // must fail rather than keep one copy and silently become a
    // different state.
    let mut sys = off_base_proposers(&[1, 2], 2);
    sys.step(p(1)).unwrap(); // CheckDecision -> Round(WriteA)
    sys.step(p(1)).unwrap(); // WriteA -> CollectA(0)
    let prev = sys.process(p(1)).unwrap().clone();
    let mut bytes = Vec::new();
    prev.encode(&mut bytes);
    assert_eq!(
        bytes[..17],
        [1, 2, 2, 8, 1, 2, 4, 0, 2, 2, 2, 4, 2, 1, 4, 1, 0],
        "layout (decision, n, run), me, n, est, round, pc, a, b, me, input, pc"
    );
    let patched = |patches: &[(usize, u8)]| {
        let mut mutant = bytes.clone();
        for &(at, byte) in patches {
            mutant[at] = byte;
        }
        ObstructionFreeConsensus::decode(&mut mutant.as_slice())
    };
    assert_eq!(
        patched(&[]),
        Some(prev.clone()),
        "the unpatched bytes decode"
    );
    assert_eq!(patched(&[(5, 3)]), None, "n disagrees with the layout's");
    assert_eq!(patched(&[(9, 4)]), None, "a is the round's b array");
    assert_eq!(patched(&[(11, 6)]), None, "b is the next round's a array");
    assert_eq!(patched(&[(7, 1)]), None, "round 1 on round 0's registers");
    assert_eq!(
        patched(&[(13, 0)]),
        None,
        "the sub-machine's index is not me"
    );
    assert_eq!(
        patched(&[(4, 0)]),
        None,
        "me is not the sub-machine's index"
    );
    assert!(patched(&[(4, 0), (13, 0)]).is_some(), "process 0's column");
    assert_eq!(
        patched(&[(14, 2)]),
        None,
        "the round's input is not the estimate"
    );
    assert!(
        patched(&[(6, 2), (14, 2)]).is_some(),
        "input and estimate 1"
    );
    assert!(
        patched(&[(7, 1), (9, 6), (11, 8)]).is_some(),
        "round 1 on round 1's registers"
    );

    // Outside a round nothing else names the column, so `me` itself must
    // be one of the layout's participants.
    let waiting = sys.process(p(0)).unwrap().clone();
    let mut bytes = Vec::new();
    waiting.encode(&mut bytes);
    assert_eq!(
        bytes,
        [1, 2, 2, 8, 0, 2, 2, 0, 1],
        "layout, me, n, est, round, pc"
    );
    let decoded = |bytes: &[u8]| ObstructionFreeConsensus::decode(&mut &bytes[..]);
    assert_eq!(decoded(&bytes), Some(waiting));
    bytes[4] = 1;
    assert!(decoded(&bytes).is_some(), "process 1 waiting");
    bytes[4] = 2;
    assert_eq!(decoded(&bytes), None, "me is not below n");

    // The delta record names the predecessor's registers with a marker
    // byte; a round that moved under it must not borrow them.
    sys.step(p(1)).unwrap(); // CollectA(0) -> CollectA(1)
    let next = sys.process(p(1)).unwrap().clone();
    let mut delta = Vec::new();
    next.encode_delta(Some(&prev), &mut delta);
    assert_eq!(
        delta[..9],
        [1, 1, 2, 4, 0, 2, 1, 1, 4],
        "layout marker, me, n, est, round, pc, same regs, me, input"
    );
    let replayed = |delta: &[u8]| {
        ObstructionFreeConsensus::decode_delta(Some(&prev), &mut &delta[..], &mut DeltaCtx::new())
    };
    assert_eq!(replayed(&delta), Some(next));
    let mut moved = delta.clone();
    moved[4] = 1;
    assert_eq!(
        replayed(&moved),
        None,
        "round 1 on the predecessor's round 0 registers"
    );
    let mut other_input = delta.clone();
    other_input[8] = 2;
    assert_eq!(
        replayed(&other_input),
        None,
        "the round's input is not the estimate"
    );
}
