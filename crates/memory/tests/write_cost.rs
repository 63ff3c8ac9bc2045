//! What a primitive copies, counted rather than timed: a word type whose
//! `Clone` bumps a thread-local counter. A successor configuration pays
//! for the chunk of the pool it writes into, not for the pool — on the
//! 513-register memory of the bivalence adversary a write used to clone
//! 513 words — and keeps standing on its parent's spine, so the write
//! costs the same whatever the pool's size. A memory's `Hash` and `==`
//! read its maintained fold first, so neither walks the pool to tell two
//! memories apart.

use std::cell::Cell;
use std::hash::{Hash, Hasher};
use std::thread::LocalKey;

use slx_memory::{BaseObject, Memory, PrimOutcome, Primitive};

thread_local! {
    static CLONES: Cell<usize> = const { Cell::new(0) };
    static COMPARISONS: Cell<usize> = const { Cell::new(0) };
    static HASHES: Cell<usize> = const { Cell::new(0) };
}

/// A word whose clones, comparisons and hashes are counted.
#[derive(Debug, Eq)]
struct Counted(i64);

fn bump(counter: &'static LocalKey<Cell<usize>>) {
    counter.with(|count| count.set(count.get() + 1));
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        bump(&CLONES);
        Counted(self.0)
    }
}

impl PartialEq for Counted {
    fn eq(&self, other: &Self) -> bool {
        bump(&COMPARISONS);
        self.0 == other.0
    }
}

impl Hash for Counted {
    fn hash<H: Hasher>(&self, state: &mut H) {
        bump(&HASHES);
        self.0.hash(state);
    }
}

/// Increments of `counter` made while `f` runs.
fn counted_during(counter: &'static LocalKey<Cell<usize>>, f: impl FnOnce()) -> usize {
    let before = counter.with(Cell::get);
    f();
    counter.with(Cell::get) - before
}

/// Word clones made while `f` runs.
fn clones_during(f: impl FnOnce()) -> usize {
    counted_during(&CLONES, f)
}

/// A `Hasher` that keeps only the number of bytes it was fed.
#[derive(Default)]
struct CountingHasher(usize);

impl Hasher for CountingHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn finish(&self) -> u64 {
        0
    }
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

/// `len` registers, all 0 but the last, which holds `last`.
fn registers_ending_in(len: usize, last: i64) -> Memory<Counted> {
    let mut memory = Memory::new();
    let regs = memory.alloc_registers(len, Counted(0));
    memory
        .apply(Primitive::Write(regs.at(len - 1), Counted(last)))
        .unwrap();
    memory
}

#[test]
fn hashing_a_memory_hashes_no_word_and_the_same_bytes_at_any_size() {
    // Every generated successor is fingerprinted: a `Hash` that walked
    // the pool, or recomputed its fold, would cost a state key the
    // memory's size.
    let hash = |len: usize| {
        let memory = registers_ending_in(len, 1);
        let mut hasher = CountingHasher::default();
        let words = counted_during(&HASHES, || memory.hash(&mut hasher));
        (words, hasher.0)
    };
    let ((small_words, small), (large_words, large)) = (hash(97), hash(5_505));
    assert_eq!((small_words, large_words), (0, 0), "words hashed");
    assert!(small > 0);
    assert_eq!(small, large, "bytes hashed at 97 and 5,505 registers");
}

#[test]
fn memories_whose_folds_differ_compare_no_word() {
    // Built apart, the two pools share no chunk, so only the folds can
    // tell them apart without walking 5,504 equal registers first.
    let (a, b) = (registers_ending_in(5_505, 1), registers_ending_in(5_505, 2));
    let mut equal = true;
    assert_eq!(counted_during(&COMPARISONS, || equal = a == b), 0);
    assert!(!equal);
}
