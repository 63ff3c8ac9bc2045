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
//!
//! The second half holds pools sized around the boundaries of the
//! copy-on-write chunks a `Memory` keeps its objects in to a *flat* model
//! — one `Vec` of objects — after every step: contents, equality and
//! digest against a memory rebuilt from the model in one go, and the bytes
//! of the plain and the delta record against what the flat slice codec
//! writes for the model. A failing case there prints its seed too.
//!
//! The last test grows a family of clones that write into chunks picked
//! at random, so a write often lands in another chunk than the memory's
//! own last write or its parent's: each member is held to its flat model
//! after every write, and every member's delta record against every
//! other to the flat codec's.

use slx_engine::{digest128_of, encode_slice_delta, DeltaCodec, DeltaCtx, StateCodec};
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

/// Objects per copy-on-write chunk of a memory's pool (`CHUNK` in
/// `slx_memory`'s `base.rs`, private there).
const CHUNK: usize = 16;

/// Pool sizes on both sides of one chunk boundary, and past three.
const POOL_SIZES: [usize; 6] = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5];

/// The flat model of a memory: its objects in one `Vec`, and the count of
/// primitives applied.
#[derive(Debug, Clone, PartialEq)]
struct Flat {
    objects: Vec<BaseObject<i64>>,
    applied: u64,
}

impl Flat {
    /// [`Memory::apply`] written the obvious way; `None` for an error.
    fn apply(&mut self, primitive: &Primitive<i64>) -> Option<PrimOutcome<i64>> {
        use BaseObject as O;
        use PrimOutcome::{Ack, Flag, Int, Snapshot, Value};
        self.applied += 1;
        let objects = &mut self.objects;
        match primitive {
            Primitive::Read(obj) => match objects.get(obj.index())? {
                O::Register(w) | O::Cas(w) => Some(Value(*w)),
                O::Counter(c) => Some(Int(*c)),
                O::Tas(b) => Some(Flag(*b)),
                O::Snapshot(_) => None,
            },
            Primitive::Write(obj, val) => match objects.get_mut(obj.index())? {
                O::Register(w) => {
                    *w = *val;
                    Some(Ack)
                }
                _ => None,
            },
            Primitive::Cas { obj, expected, new } => match objects.get_mut(obj.index())? {
                O::Cas(w) => {
                    let swapped = w == expected;
                    if swapped {
                        *w = *new;
                    }
                    Some(Flag(swapped))
                }
                _ => None,
            },
            Primitive::Tas(obj) => match objects.get_mut(obj.index())? {
                O::Tas(b) => Some(Flag(std::mem::replace(b, true))),
                _ => None,
            },
            Primitive::TasReset(obj) => match objects.get_mut(obj.index())? {
                O::Tas(b) => {
                    *b = false;
                    Some(Ack)
                }
                _ => None,
            },
            Primitive::FetchAdd(obj, delta) => match objects.get_mut(obj.index())? {
                O::Counter(c) => {
                    *c += delta;
                    Some(Int(*c - delta))
                }
                _ => None,
            },
            Primitive::SnapUpdate { obj, index, val } => match objects.get_mut(obj.index())? {
                O::Snapshot(v) => {
                    *v.get_mut(*index)? = *val;
                    Some(Ack)
                }
                _ => None,
            },
            Primitive::SnapScan(obj) => match objects.get(obj.index())? {
                O::Snapshot(v) => Some(Snapshot(v.clone())),
                _ => None,
            },
        }
    }

    /// The plain record of a memory holding this pool: the objects as one
    /// `Vec`, then the primitive count.
    fn plain(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.objects.encode(&mut bytes);
        self.applied.encode(&mut bytes);
        bytes
    }

    /// Its delta record against `prev`: the flat slice delta of the
    /// objects, then the wrapping difference of the primitive counts.
    fn delta(&self, prev: &Flat) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_slice_delta(&self.objects, &prev.objects, &mut bytes);
        let drift = self.applied.wrapping_sub(prev.applied).cast_signed();
        drift.encode(&mut bytes);
        bytes
    }

    /// A memory holding this pool, built in one go: it shares no chunk
    /// with any other memory. (Mapping resets the primitive count; reads
    /// of an object that does not exist catch it up.)
    fn rebuilt(&self) -> Memory<i64> {
        let mut skeleton: Memory<i64> = Memory::new();
        skeleton.alloc_registers(self.objects.len(), 0);
        let mut memory = skeleton.map_objects(|id, _| self.objects[id.index()].clone());
        for _ in 0..self.applied {
            memory.apply(Primitive::Read(unallocated())).unwrap_err();
        }
        memory
    }
}

/// An id no pool of this file reaches.
fn unallocated() -> ObjId {
    let mut larger: Memory<i64> = Memory::new();
    larger.alloc_registers(8 * CHUNK, 0).at(8 * CHUNK - 1)
}

/// A pool of `len` objects drawn from every allocator, beside its model.
fn arb_pool(rng: &mut SmallRng, len: usize) -> (Memory<i64>, Flat) {
    let mut memory: Memory<i64> = Memory::new();
    let mut objects = Vec::new();
    while objects.len() < len {
        let init = arb_val(rng);
        let id = match rng.gen_index(6) {
            0 => memory.alloc_register(init),
            1 => memory.alloc_cas(init),
            2 => memory.alloc_tas(),
            3 => memory.alloc_counter(init),
            4 => memory.alloc_snapshot(1 + rng.gen_index(3), init),
            _ => {
                // A run that may fill a chunk and start the next.
                let run = 1 + rng.gen_index((len - objects.len()).min(CHUNK + 2));
                objects.extend(std::iter::repeat_n(BaseObject::Register(init), run - 1));
                memory.alloc_registers(run, init).at(run - 1)
            }
        };
        assert_eq!(id.index(), objects.len());
        objects.push(memory.object(id).expect("just allocated").clone());
    }
    let model = Flat {
        objects,
        applied: 0,
    };
    model.agrees_with(&memory);
    (memory, model)
}

/// A primitive of any kind aimed at any slot of a `len`-object pool —
/// so, often as not, at an object of the wrong kind — or past its end.
fn arb_primitive(rng: &mut SmallRng, len: usize) -> Primitive<i64> {
    let mut ids: Memory<i64> = Memory::new();
    let obj = match rng.gen_index(len + 1) {
        past_end if past_end == len => unallocated(),
        slot => ids.alloc_registers(slot + 1, 0).at(slot),
    };
    let (index, val) = (rng.gen_index(4), arb_val(rng));
    match rng.gen_index(8) {
        0 => Primitive::Read(obj),
        1 => Primitive::Write(obj, val),
        2 => Primitive::Cas {
            obj,
            expected: arb_val(rng),
            new: val,
        },
        3 => Primitive::Tas(obj),
        4 => Primitive::TasReset(obj),
        5 => Primitive::FetchAdd(obj, val),
        6 => Primitive::SnapUpdate { obj, index, val },
        _ => Primitive::SnapScan(obj),
    }
}

impl Flat {
    /// `memory` is this pool, however it came to be: same contents, exact
    /// fold, equal to and hashing like a memory rebuilt from the model,
    /// and the same plain bytes as the flat `Vec` codec writes.
    fn agrees_with(&self, memory: &Memory<i64>) {
        assert!(memory.fold_is_exact());
        assert_eq!(
            (memory.len(), memory.applied()),
            (self.objects.len(), self.applied)
        );
        assert!(memory.iter_objects().map(|(_, o)| o).eq(&self.objects));
        let rebuilt = self.rebuilt();
        assert_eq!(memory, &rebuilt);
        assert_eq!(digest128_of(memory), digest128_of(&rebuilt));

        let mut plain = Vec::new();
        memory.encode(&mut plain);
        assert_eq!(plain, self.plain());
        let decoded = Memory::<i64>::decode(&mut plain.as_slice()).expect("round trip");
        assert!(decoded.fold_is_exact());
        assert_eq!(
            (&decoded, digest128_of(&decoded)),
            (memory, digest128_of(memory))
        );
    }

    /// The delta record of `memory` (this pool) against `prev` (the pool
    /// `prev_model`) is the flat slice codec's, byte for byte, and decodes
    /// against `prev` to `memory`.
    fn deltas_like(&self, memory: &Memory<i64>, prev_model: &Flat, prev: &Memory<i64>) {
        let mut delta = Vec::new();
        memory.encode_delta(Some(prev), &mut delta);
        assert_eq!(delta, self.delta(prev_model));
        let decoded = Memory::decode_delta(Some(prev), &mut delta.as_slice(), &mut DeltaCtx::new())
            .expect("delta round trip");
        assert!(decoded.fold_is_exact());
        assert_eq!(
            (&decoded, digest128_of(&decoded)),
            (memory, digest128_of(memory))
        );
    }
}

/// Runs `property` on [`CASES`] seeds, naming the seed of a failing one.
fn for_each_seed(property: impl Fn(&mut SmallRng) + std::panic::RefUnwindSafe) {
    for seed in 0..CASES {
        let outcome = std::panic::catch_unwind(|| property(&mut SmallRng::seed_from_u64(seed)));
        if let Err(panic) = outcome {
            eprintln!("property failed at seed {seed}");
            std::panic::resume_unwind(panic);
        }
    }
}

#[test]
fn pools_around_chunk_boundaries_agree_with_the_flat_model() {
    for_each_seed(|rng| {
        let len = POOL_SIZES[rng.gen_index(POOL_SIZES.len())];
        let (mut memory, mut model) = arb_pool(rng, len);
        // Clones kept alive beside what they held when taken, so that
        // what `memory` writes into is shared — and must stay as it was.
        let mut held = Vec::new();
        for _ in 0..40 {
            let (prev, prev_model) = (memory.clone(), model.clone());
            match rng.gen_index(12) {
                0 => held.push((memory.clone(), model.clone())),
                1 => {
                    memory = memory.map_words(|w| w + 1);
                    model.applied = 0;
                    for object in &mut model.objects {
                        match object {
                            BaseObject::Register(w) | BaseObject::Cas(w) => *w += 1,
                            BaseObject::Snapshot(v) => v.iter_mut().for_each(|w| *w += 1),
                            BaseObject::Tas(_) | BaseObject::Counter(_) => {}
                        }
                    }
                }
                2 => {
                    // Every object moves one slot up, the last to the front.
                    let from = |id: ObjId| (id.index() + len - 1) % len;
                    memory = memory.map_objects(|id, _| prev_model.objects[from(id)].clone());
                    model.applied = 0;
                    model.objects.rotate_right(usize::from(len > 0));
                }
                _ => {
                    let primitive = arb_primitive(rng, len);
                    let outcome = memory.apply(primitive.clone()).ok();
                    assert_eq!(outcome, model.apply(&primitive), "{primitive:?}");
                }
            }
            model.agrees_with(&memory);
            model.deltas_like(&memory, &prev_model, &prev);
        }
        for (earlier, model) in &held {
            model.agrees_with(earlier);
        }
    });
}

#[test]
fn delta_records_that_resize_the_pool_across_a_chunk_boundary() {
    for_each_seed(|rng| {
        let len = POOL_SIZES[rng.gen_index(POOL_SIZES.len())];
        let (mut memory, mut model) = arb_pool(rng, len);
        for _ in 0..rng.gen_index(8) {
            let primitive = arb_primitive(rng, len);
            assert_eq!(
                memory.apply(primitive.clone()).ok(),
                model.apply(&primitive)
            );
        }
        for other_len in POOL_SIZES {
            // An unrelated pool of the other size: no chunk in common.
            let (other, other_model) = arb_pool(rng, other_len);
            model.deltas_like(&memory, &other_model, &other);
            other_model.deltas_like(&other, &model, &memory);

            // A descendant grown to at least the other size, and written
            // to: it shares the chunks it neither outgrew nor wrote.
            let (mut grown, mut grown_model) = (memory.clone(), model.clone());
            for _ in len..other_len {
                grown.alloc_cas(7);
                grown_model.objects.push(BaseObject::Cas(7));
            }
            for _ in 0..rng.gen_index(3) {
                let primitive = arb_primitive(rng, grown.len());
                assert_eq!(
                    grown.apply(primitive.clone()).ok(),
                    grown_model.apply(&primitive)
                );
            }
            grown_model.agrees_with(&grown);
            grown_model.deltas_like(&grown, &model, &memory);
            model.deltas_like(&memory, &grown_model, &grown);
        }
    });
}

/// A primitive that changes object `slot` of a pool holding `model`.
fn writing_primitive(rng: &mut SmallRng, model: &Flat, slot: usize) -> Primitive<i64> {
    let obj = ObjId::new(slot);
    let val = arb_val(rng);
    match &model.objects[slot] {
        BaseObject::Register(_) => Primitive::Write(obj, val),
        &BaseObject::Cas(expected) => Primitive::Cas {
            obj,
            expected,
            new: val,
        },
        BaseObject::Tas(true) => Primitive::TasReset(obj),
        BaseObject::Tas(false) => Primitive::Tas(obj),
        BaseObject::Counter(_) => Primitive::FetchAdd(obj, val),
        BaseObject::Snapshot(v) => Primitive::SnapUpdate {
            obj,
            index: rng.gen_index(v.len()),
            val,
        },
    }
}

/// A family of memories cloned from one another, each writing into a
/// chunk it picks at random — often not the one it last wrote, nor the
/// one its parent did — and every member delta-encoded against every
/// other. Each must stay its flat model throughout, whatever its
/// relatives write.
#[test]
fn clones_that_switch_chunks_agree_with_the_flat_model() {
    for_each_seed(|rng| {
        let len = [CHUNK + 1, 3 * CHUNK + 5][rng.gen_index(2)];
        let chunks = len.div_ceil(CHUNK);
        let mut family = vec![arb_pool(rng, len)];
        for _ in 0..24 {
            let i = rng.gen_index(family.len());
            if rng.gen_index(3) == 0 {
                let relative = family[i].clone();
                family.push(relative);
                continue;
            }
            let (memory, model) = &mut family[i];
            for _ in 0..1 + rng.gen_index(3) {
                let c = rng.gen_index(chunks);
                let slot = c * CHUNK + rng.gen_index(CHUNK.min(len - c * CHUNK));
                let primitive = writing_primitive(rng, model, slot);
                let outcome = memory.apply(primitive.clone()).ok();
                assert!(outcome.is_some(), "{primitive:?}");
                assert_eq!(outcome, model.apply(&primitive), "{primitive:?}");
            }
            for (memory, model) in &family {
                model.agrees_with(memory);
            }
        }
        for (memory, model) in &family {
            for (prev, prev_model) in &family {
                model.deltas_like(memory, prev_model, prev);
            }
        }
    });
}
