//! Model-based testing of the shared memory: random primitive sequences
//! replayed against a naive reference model must agree exactly.
//!
//! Case `seed` is a sequence of up to 79 operations drawn from a
//! [`SmallRng`] seeded with `seed`. A failing case names its seed and
//! prints the sequence after the assertion's own panic message; to
//! replay it alone, narrow the seed range in `memory_agrees_with_model`
//! to that seed.
//!
//! The same sequences hold the memory's *maintained* fingerprint fold to
//! a from-scratch walk after every primitive — the erroring ones
//! included — and the memory a case ends in must compare and hash equal
//! however else it is built: decoded from its encoding, delta-decoded
//! against an unrelated memory, or mapped object by object.

use slx_engine::{digest128_of, DeltaCodec, DeltaCtx, StateCodec};
use slx_memory::{BaseObject, Memory, MemoryError, ObjId, PrimOutcome, Primitive, SmallRng};

/// A reference model mirroring the five object kinds with plain fields.
#[derive(Debug, Clone, Default)]
struct Model {
    registers: Vec<i64>,
    cas: Vec<i64>,
    tas: Vec<bool>,
    counters: Vec<i64>,
    snapshots: Vec<Vec<i64>>,
}

#[derive(Debug, Clone)]
enum Op {
    ReadReg(usize),
    WriteReg(usize, i64),
    Cas(usize, i64, i64),
    Tas(usize),
    TasReset(usize),
    FetchAdd(usize, i64),
    SnapUpdate(usize, usize, i64),
    SnapScan(usize),
    /// Primitive `.0` (in [`Primitive`]'s declaration order) aimed at an
    /// object of a kind it does not apply to.
    WrongKind(usize),
    /// A read of an object that was never allocated.
    Unallocated,
    /// A snapshot update one past the last component.
    SnapUpdatePastEnd(usize),
}

/// Cases (operation sequences) checked.
const CASES: u64 = 256;

/// A value in `-3..3`.
fn arb_val(rng: &mut SmallRng) -> i64 {
    rng.gen_index(6) as i64 - 3
}

fn arb_op(rng: &mut SmallRng) -> Op {
    let kind = rng.gen_index(11);
    let obj = rng.gen_index(2);
    match kind {
        0 => Op::ReadReg(obj),
        1 => Op::WriteReg(obj, arb_val(rng)),
        2 => Op::Cas(obj, arb_val(rng), arb_val(rng)),
        3 => Op::Tas(obj),
        4 => Op::TasReset(obj),
        5 => Op::FetchAdd(obj, arb_val(rng)),
        6 => Op::SnapUpdate(obj, rng.gen_index(3), arb_val(rng)),
        7 => Op::SnapScan(obj),
        8 => Op::WrongKind(rng.gen_index(8)),
        9 => Op::Unallocated,
        _ => Op::SnapUpdatePastEnd(obj),
    }
}

/// The memory every case starts from: two objects of each kind, in kind
/// order (registers at 0 and 1, … snapshots at 8 and 9).
fn fresh_memory() -> (Memory<i64>, [Vec<ObjId>; 5]) {
    let mut mem: Memory<i64> = Memory::new();
    let regs = (0..2).map(|_| mem.alloc_register(0)).collect();
    let cas = (0..2).map(|_| mem.alloc_cas(0)).collect();
    let tas = (0..2).map(|_| mem.alloc_tas()).collect();
    let ctr = (0..2).map(|_| mem.alloc_counter(0)).collect();
    let snap = (0..2).map(|_| mem.alloc_snapshot(3, 0)).collect();
    (mem, [regs, cas, tas, ctr, snap])
}

#[test]
fn memory_agrees_with_model() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ops: Vec<Op> = (0..rng.gen_index(80)).map(|_| arb_op(&mut rng)).collect();
        // An unrelated memory to delta-decode against: its own sequence,
        // and up to two more objects, so that records both grow and shrink
        // the pool they start from.
        let other: Vec<Op> = (0..rng.gen_index(80)).map(|_| arb_op(&mut rng)).collect();
        let extra = rng.gen_index(3);
        let outcome = std::panic::catch_unwind(|| {
            let mem = check_against_model(&ops);
            let mut sibling = check_against_model(&other);
            for _ in 0..extra {
                sibling.alloc_cas(7);
            }
            check_every_route(&mem, &sibling);
            check_every_route(&sibling, &mem);
        });
        if let Err(panic) = outcome {
            eprintln!("property failed at seed {seed} on case {ops:?} beside {other:?} + {extra}");
            std::panic::resume_unwind(panic);
        }
    }
}

/// `mem` rebuilt by each constructor other than allocation + primitives
/// is the same memory: equal, equal hash, exact fold.
fn check_every_route(mem: &Memory<i64>, sibling: &Memory<i64>) {
    let same = |built: &Memory<i64>, route: &str| {
        assert!(built.fold_is_exact(), "{route}: fold");
        assert_eq!(built, mem, "{route}");
        assert_eq!(digest128_of(built), digest128_of(mem), "{route}: hash");
    };

    let mut bytes = Vec::new();
    mem.encode(&mut bytes);
    let decoded = Memory::decode(&mut bytes.as_slice()).expect("round trip");
    same(&decoded, "decode");

    let mut bytes = Vec::new();
    mem.encode_delta(Some(sibling), &mut bytes);
    let decoded = Memory::decode_delta(Some(sibling), &mut bytes.as_slice(), &mut DeltaCtx::new())
        .expect("delta round trip");
    same(&decoded, "decode_delta");

    // A mapped memory starts its primitive count over; reads catch it up.
    let mut mapped = mem.map_objects(|_, object| object.clone());
    assert_eq!(mapped.applied(), 0);
    let (first, _) = mem.iter_objects().next().expect("ten objects");
    for _ in 0..mem.applied() {
        mapped.apply(Primitive::Read(first)).unwrap();
    }
    same(&mapped, "map_objects");
}

/// Applies `ops` to a fresh memory and a fresh model, checking outcome
/// agreement and the fold after every one; returns the memory reached.
fn check_against_model(ops: &[Op]) -> Memory<i64> {
    let (mut mem, [regs, cas, tas, ctr, snap]) = fresh_memory();
    assert!(mem.fold_is_exact(), "fold after allocation");
    let mut model = Model {
        registers: vec![0; 2],
        cas: vec![0; 2],
        tas: vec![false; 2],
        counters: vec![0; 2],
        snapshots: vec![vec![0; 3]; 2],
    };

    for op in ops {
        match *op {
            Op::ReadReg(i) => {
                let got = mem.apply(Primitive::Read(regs[i])).unwrap();
                assert_eq!(got, PrimOutcome::Value(model.registers[i]));
            }
            Op::WriteReg(i, v) => {
                mem.apply(Primitive::Write(regs[i], v)).unwrap();
                model.registers[i] = v;
            }
            Op::Cas(i, e, n) => {
                let got = mem
                    .apply(Primitive::Cas {
                        obj: cas[i],
                        expected: e,
                        new: n,
                    })
                    .unwrap();
                let expect = model.cas[i] == e;
                if expect {
                    model.cas[i] = n;
                }
                assert_eq!(got, PrimOutcome::Flag(expect));
            }
            Op::Tas(i) => {
                let got = mem.apply(Primitive::Tas(tas[i])).unwrap();
                assert_eq!(got, PrimOutcome::Flag(model.tas[i]));
                model.tas[i] = true;
            }
            Op::TasReset(i) => {
                mem.apply(Primitive::TasReset(tas[i])).unwrap();
                model.tas[i] = false;
            }
            Op::FetchAdd(i, d) => {
                let got = mem.apply(Primitive::FetchAdd(ctr[i], d)).unwrap();
                assert_eq!(got, PrimOutcome::Int(model.counters[i]));
                model.counters[i] += d;
            }
            Op::SnapUpdate(s, i, v) => {
                mem.apply(Primitive::SnapUpdate {
                    obj: snap[s],
                    index: i,
                    val: v,
                })
                .unwrap();
                model.snapshots[s][i] = v;
            }
            Op::SnapScan(s) => {
                let got = mem.apply(Primitive::SnapScan(snap[s])).unwrap();
                assert_eq!(got, PrimOutcome::Snapshot(model.snapshots[s].clone()));
            }
            // The erroring primitives change nothing the model tracks.
            Op::WrongKind(primitive) => {
                let (register, snapshot) = (regs[0], snap[0]);
                let misapplied = match primitive {
                    0 => Primitive::Read(snapshot),
                    1 => Primitive::Write(snapshot, 1),
                    2 => Primitive::Cas {
                        obj: register,
                        expected: model.registers[0],
                        new: 1,
                    },
                    3 => Primitive::Tas(register),
                    4 => Primitive::TasReset(register),
                    5 => Primitive::FetchAdd(register, 1),
                    6 => Primitive::SnapUpdate {
                        obj: register,
                        index: 0,
                        val: 1,
                    },
                    _ => Primitive::SnapScan(register),
                };
                let err = mem.apply(misapplied).unwrap_err();
                assert!(matches!(err, MemoryError::KindMismatch { .. }), "{err}");
            }
            Op::Unallocated => {
                // An id of a larger memory.
                let nowhere = fresh_memory().0.alloc_tas();
                assert_eq!(
                    mem.apply(Primitive::Read(nowhere)).unwrap_err(),
                    MemoryError::NoSuchObject(nowhere)
                );
            }
            Op::SnapUpdatePastEnd(s) => {
                let err = mem
                    .apply(Primitive::SnapUpdate {
                        obj: snap[s],
                        index: 3,
                        val: 1,
                    })
                    .unwrap_err();
                assert!(
                    matches!(
                        err,
                        MemoryError::BadSnapshotIndex {
                            index: 3,
                            len: 3,
                            ..
                        }
                    ),
                    "{err}"
                );
            }
        }
        assert!(mem.fold_is_exact(), "fold after {op:?}");
    }

    // Final state agreement via direct object inspection.
    for i in 0..2 {
        assert_eq!(
            mem.object(regs[i]),
            Some(&BaseObject::Register(model.registers[i]))
        );
        assert_eq!(mem.object(cas[i]), Some(&BaseObject::Cas(model.cas[i])));
        assert_eq!(mem.object(tas[i]), Some(&BaseObject::Tas(model.tas[i])));
        assert_eq!(
            mem.object(ctr[i]),
            Some(&BaseObject::Counter(model.counters[i]))
        );
        assert_eq!(
            mem.object(snap[i]),
            Some(&BaseObject::Snapshot(model.snapshots[i].clone()))
        );
    }
    assert_eq!(mem.applied(), ops.len() as u64);
    mem
}

fn registers(values: &[i64]) -> Memory<i64> {
    let mut mem = Memory::new();
    for &v in values {
        mem.alloc_register(v);
    }
    mem
}

#[test]
fn a_write_through_one_clone_is_invisible_through_the_other() {
    let (original, [regs, ..]) = fresh_memory();
    let before = digest128_of(&original);
    let mut written = original.clone();
    assert_eq!((&written, digest128_of(&written)), (&original, before));

    written.apply(Primitive::Write(regs[1], 5)).unwrap();
    assert_eq!(original.object(regs[1]), Some(&BaseObject::Register(0)));
    assert_eq!(written.object(regs[1]), Some(&BaseObject::Register(5)));
    assert_eq!(digest128_of(&original), before);
    assert!(original.fold_is_exact() && written.fold_is_exact());
    // One primitive each, so only the written register tells them apart.
    let mut read = original.clone();
    read.apply(Primitive::Read(regs[1])).unwrap();
    assert_ne!(written, read);
    assert_ne!(digest128_of(&written), digest128_of(&read));

    // Writing the old value back rejoins them, in a pool of its own.
    written.apply(Primitive::Write(regs[1], 0)).unwrap();
    read.apply(Primitive::Read(regs[1])).unwrap();
    assert_eq!(written, read);
    assert_eq!(digest128_of(&written), digest128_of(&read));
}

#[test]
fn the_fold_knows_which_slot_holds_what() {
    // Swapping two slots' contents is a different memory.
    assert_ne!(registers(&[1, 2]), registers(&[2, 1]));
    assert_ne!(
        digest128_of(&registers(&[1, 2])),
        digest128_of(&registers(&[2, 1]))
    );
    // Equal objects in different slots do not cancel out of the XOR.
    assert_ne!(
        digest128_of(&registers(&[5, 5])),
        digest128_of(&registers(&[6, 6]))
    );
}
