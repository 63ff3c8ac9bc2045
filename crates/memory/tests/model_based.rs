//! Model-based testing of the shared memory: random primitive sequences
//! replayed against a naive reference model must agree exactly.
//!
//! Case `seed` is a sequence of up to 79 operations drawn from a
//! [`SmallRng`] seeded with `seed`. A failing case names its seed and
//! prints the sequence after the assertion's own panic message; to
//! replay it alone, narrow the seed range in `memory_agrees_with_model`
//! to that seed.

use slx_memory::{BaseObject, Memory, ObjId, PrimOutcome, Primitive, SmallRng};

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
}

/// Cases (operation sequences) checked.
const CASES: u64 = 256;

/// A value in `-3..3`.
fn arb_val(rng: &mut SmallRng) -> i64 {
    rng.gen_index(6) as i64 - 3
}

fn arb_op(rng: &mut SmallRng) -> Op {
    let kind = rng.gen_index(8);
    let obj = rng.gen_index(2);
    match kind {
        0 => Op::ReadReg(obj),
        1 => Op::WriteReg(obj, arb_val(rng)),
        2 => Op::Cas(obj, arb_val(rng), arb_val(rng)),
        3 => Op::Tas(obj),
        4 => Op::TasReset(obj),
        5 => Op::FetchAdd(obj, arb_val(rng)),
        6 => Op::SnapUpdate(obj, rng.gen_index(3), arb_val(rng)),
        _ => Op::SnapScan(obj),
    }
}

#[test]
fn memory_agrees_with_model() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ops: Vec<Op> = (0..rng.gen_index(80)).map(|_| arb_op(&mut rng)).collect();
        let outcome = std::panic::catch_unwind(|| check_against_model(&ops));
        if let Err(panic) = outcome {
            eprintln!("property failed at seed {seed} on case {ops:?}");
            std::panic::resume_unwind(panic);
        }
    }
}

fn check_against_model(ops: &[Op]) {
    let mut mem: Memory<i64> = Memory::new();
    let regs: Vec<ObjId> = (0..2).map(|_| mem.alloc_register(0)).collect();
    let cas: Vec<ObjId> = (0..2).map(|_| mem.alloc_cas(0)).collect();
    let tas: Vec<ObjId> = (0..2).map(|_| mem.alloc_tas()).collect();
    let ctr: Vec<ObjId> = (0..2).map(|_| mem.alloc_counter(0)).collect();
    let snap: Vec<ObjId> = (0..2).map(|_| mem.alloc_snapshot(3, 0)).collect();
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
        }
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
}
