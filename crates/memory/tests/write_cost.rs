//! What a primitive copies, counted rather than timed: a word type whose
//! `Clone` bumps a thread-local counter. A successor configuration pays
//! for the chunk of the pool it writes into, not for the pool — on the
//! 513-register memory of the bivalence adversary a write used to clone
//! 513 words — and keeps standing on its parent's spine, so the write
//! costs the same whatever the pool's size.

use std::cell::Cell;

use slx_memory::{BaseObject, Memory, PrimOutcome, Primitive};

thread_local! {
    static CLONES: Cell<usize> = const { Cell::new(0) };
}

#[derive(Debug, PartialEq, Eq, Hash)]
struct Counted(i64);

impl Clone for Counted {
    fn clone(&self) -> Self {
        CLONES.with(|clones| clones.set(clones.get() + 1));
        Counted(self.0)
    }
}

/// Word clones made while `f` runs.
fn clones_during(f: impl FnOnce()) -> usize {
    let before = CLONES.with(Cell::get);
    f();
    CLONES.with(Cell::get) - before
}

/// Objects per copy-on-write chunk (`CHUNK` in `slx_memory`'s `base.rs`).
const CHUNK: usize = 16;

#[test]
fn a_write_clones_one_chunk_of_words_and_a_read_one_word() {
    let mut parent: Memory<Counted> = Memory::new();
    let regs = parent.alloc_registers(513, Counted(0));
    let (near, far) = (regs.at(300), regs.at(2));

    let mut child = parent.clone();
    assert_eq!(clones_during(|| child = parent.clone()), 0);

    // A read clones the word it returns.
    let mut read = None;
    assert_eq!(
        clones_during(|| read = child.apply(Primitive::Read(near)).ok()),
        1
    );
    assert_eq!(read, Some(PrimOutcome::Value(Counted(0))));

    // The first write into a shared chunk copies that chunk; the next one
    // finds it owned; a write elsewhere copies one more chunk.
    let write = |memory: &mut Memory<Counted>, reg, val| {
        clones_during(|| {
            memory.apply(Primitive::Write(reg, Counted(val))).unwrap();
        })
    };
    let first = write(&mut child, near, 1);
    assert!((1..=CHUNK).contains(&first), "{first} words cloned");
    assert_eq!(write(&mut child, near, 2), 0);
    assert_eq!(write(&mut child, regs.at(301), 3), 0);
    let elsewhere = write(&mut child, far, 4);
    assert!((1..=CHUNK).contains(&elsewhere), "{elsewhere} words cloned");

    // None of it reached the memory the child was cloned from.
    assert!(parent
        .iter_objects()
        .all(|(_, o)| *o == BaseObject::Register(Counted(0))));
    assert_eq!(child.len(), 513);
}

#[test]
fn a_write_costs_the_same_in_any_pool_and_copies_no_spine() {
    // The `deep-*` rows' 97 registers, and Figure 1(a)'s pane at n = 43
    // rounded up to whole chunks: 5,505 registers, 345 chunks.
    let write_into = |len: usize| {
        let mut parent: Memory<Counted> = Memory::new();
        let regs = parent.alloc_registers(len, Counted(0));
        let mut child = parent.clone();
        let words = clones_during(|| {
            child
                .apply(Primitive::Write(regs.at(CHUNK + 3), Counted(1)))
                .unwrap();
        });
        assert!(child.shares_spine_with(&parent), "{len} registers");
        assert!(child.fold_is_exact());
        words
    };
    let (small, large) = (write_into(97), write_into(5_505));
    assert!((1..=CHUNK).contains(&small), "{small} words cloned");
    assert!(large <= small, "{large} words cloned, against {small}");
}
