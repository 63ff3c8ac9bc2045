//! Base objects and the shared memory that holds them.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use slx_engine::{
    decode_slice_edits, digest128_of, encode_slice_delta_runs, DeltaCodec, DeltaCtx, StateCodec,
};

/// A word storable in a base object.
///
/// The paper's base objects hold arbitrary atomic state; making the word
/// type a parameter lets the compare-and-swap object of Algorithm I(1,2)
/// atomically hold a `(version, value-vector)` pair exactly as written,
/// while consensus implementations use plain integers. The `Eq + Hash`
/// bounds are what the exhaustive explorer needs: `Eq` identifies
/// configurations exactly (the retained-clone oracles rely on it), `Hash`
/// feeds the 128-bit fingerprints the kernel deduplicates by — a
/// [`Memory`] keeps a running fold of its objects' fingerprints.
pub trait Word: Clone + Eq + Hash + fmt::Debug {}

impl<T: Clone + Eq + Hash + fmt::Debug> Word for T {}

/// Index of a base object within a [`Memory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(usize);

impl ObjId {
    /// The id of the object at `index`. Ids only name objects a
    /// [`Memory`] allocated; an id past its pool reads as
    /// [`MemoryError::NoSuchObject`].
    #[must_use]
    pub const fn new(index: usize) -> Self {
        ObjId(index)
    }

    /// Returns the raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

impl StateCodec for ObjId {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(ObjId(usize::decode(input)?))
    }
}

/// A run of consecutively allocated base objects: the `len` ids
/// `first, first + 1, …`.
///
/// [`Memory`] hands out ids in allocation order, so an array of registers
/// allocated together ([`Memory::alloc_registers`]) *is* such a run, and
/// an algorithm that keeps one holds two words — copied, compared and
/// hashed as two words — where a `Vec<ObjId>` is a heap block per clone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjRun {
    first: usize,
    len: usize,
}

impl ObjRun {
    /// The `len` ids from `first` on, or `None` if they would wrap.
    #[must_use]
    pub fn new(first: ObjId, len: usize) -> Option<ObjRun> {
        first.0.checked_add(len)?;
        Some(ObjRun {
            first: first.0,
            len,
        })
    }

    /// Where the run starts (the id an empty run would begin at).
    #[must_use]
    pub const fn first(self) -> ObjId {
        ObjId(self.first)
    }

    /// Number of objects in the run.
    #[must_use]
    pub const fn len(self) -> usize {
        self.len
    }

    /// Whether the run holds no object.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The `i`-th object of the run.
    ///
    /// # Panics
    /// If `i` is out of range.
    #[must_use]
    pub fn at(self, i: usize) -> ObjId {
        assert!(
            i < self.len,
            "index {i} out of range for a run of {}",
            self.len
        );
        ObjId(self.first + i)
    }

    /// The `len` objects from position `start` on, or `None` if they do
    /// not all lie inside this run.
    #[must_use]
    pub fn sub(self, start: usize, len: usize) -> Option<ObjRun> {
        (start.checked_add(len)? <= self.len).then_some(ObjRun {
            first: self.first + start,
            len,
        })
    }

    /// The run's ids in order.
    pub fn iter(self) -> impl Iterator<Item = ObjId> {
        (self.first..self.first + self.len).map(ObjId)
    }
}

impl StateCodec for ObjRun {
    fn encode(&self, out: &mut Vec<u8>) {
        self.first.encode(out);
        self.len.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let first = usize::decode(input)?;
        let len = usize::decode(input)?;
        // `at`, `sub` and `iter` add below `first + len` unchecked.
        first.checked_add(len)?;
        Some(ObjRun { first, len })
    }
}

/// One base object: an atomic hardware-like primitive object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BaseObject<W> {
    /// Read/write register.
    Register(W),
    /// Compare-and-swap object (also readable).
    Cas(W),
    /// Test-and-set bit.
    Tas(bool),
    /// Fetch-and-add counter.
    Counter(i64),
    /// Atomic snapshot object: per-process update, atomic scan.
    Snapshot(Vec<W>),
}

impl<W: StateCodec> StateCodec for BaseObject<W> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BaseObject::Register(w) => {
                out.push(0);
                w.encode(out);
            }
            BaseObject::Cas(w) => {
                out.push(1);
                w.encode(out);
            }
            BaseObject::Tas(b) => {
                out.push(2);
                b.encode(out);
            }
            BaseObject::Counter(c) => {
                out.push(3);
                c.encode(out);
            }
            BaseObject::Snapshot(v) => {
                out.push(4);
                v.encode(out);
            }
        }
    }

    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(match u8::decode(input)? {
            0 => BaseObject::Register(W::decode(input)?),
            1 => BaseObject::Cas(W::decode(input)?),
            2 => BaseObject::Tas(bool::decode(input)?),
            3 => BaseObject::Counter(i64::decode(input)?),
            4 => BaseObject::Snapshot(Vec::decode(input)?),
            _ => return None,
        })
    }
}

/// An atomic primitive applied to a base object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Primitive<W> {
    /// Read a register or CAS object.
    Read(ObjId),
    /// Write a register.
    Write(ObjId, W),
    /// Compare-and-swap: replace `expected` with `new`, reporting success.
    Cas {
        /// Target object.
        obj: ObjId,
        /// Value the object must hold.
        expected: W,
        /// Replacement value.
        new: W,
    },
    /// Test-and-set: set the bit, returning its previous value.
    Tas(ObjId),
    /// Reset a test-and-set bit to `false` (used by lock release).
    TasReset(ObjId),
    /// Fetch-and-add on a counter.
    FetchAdd(ObjId, i64),
    /// Update component `index` of a snapshot object.
    SnapUpdate {
        /// Target snapshot object.
        obj: ObjId,
        /// Component to update (usually the caller's process index).
        index: usize,
        /// New component value.
        val: W,
    },
    /// Atomically scan a snapshot object.
    SnapScan(ObjId),
}

/// Result of applying a [`Primitive`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PrimOutcome<W> {
    /// A word read from a register or CAS object.
    Value(W),
    /// Success flag of CAS, or previous value of TAS.
    Flag(bool),
    /// Previous value of a fetch-and-add counter.
    Int(i64),
    /// Snapshot scan result.
    Snapshot(Vec<W>),
    /// Acknowledgement with no payload (writes, updates, resets).
    Ack,
}

impl<W> PrimOutcome<W> {
    /// Extracts a word, panicking with a clear message otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the outcome is not [`PrimOutcome::Value`]. Algorithms use
    /// this after primitives whose outcome shape is statically known.
    pub fn expect_value(self) -> W {
        match self {
            PrimOutcome::Value(w) => w,
            other => panic!(
                "expected Value outcome, got {other:?}",
                other = kind(&other)
            ),
        }
    }

    /// Extracts a flag.
    ///
    /// # Panics
    ///
    /// Panics if the outcome is not [`PrimOutcome::Flag`].
    pub fn expect_flag(self) -> bool {
        match self {
            PrimOutcome::Flag(b) => b,
            other => panic!("expected Flag outcome, got {other:?}", other = kind(&other)),
        }
    }

    /// Extracts a counter value.
    ///
    /// # Panics
    ///
    /// Panics if the outcome is not [`PrimOutcome::Int`].
    pub fn expect_int(self) -> i64 {
        match self {
            PrimOutcome::Int(i) => i,
            other => panic!("expected Int outcome, got {other:?}", other = kind(&other)),
        }
    }
}

fn kind<W>(o: &PrimOutcome<W>) -> &'static str {
    match o {
        PrimOutcome::Value(_) => "Value",
        PrimOutcome::Flag(_) => "Flag",
        PrimOutcome::Int(_) => "Int",
        PrimOutcome::Snapshot(_) => "Snapshot",
        PrimOutcome::Ack => "Ack",
    }
}

/// Error applying a primitive to memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryError {
    /// The object id does not exist.
    NoSuchObject(ObjId),
    /// The primitive does not apply to the object's kind (e.g. `Tas` on a
    /// register).
    KindMismatch {
        /// Target object.
        obj: ObjId,
        /// Primitive attempted.
        primitive: &'static str,
    },
    /// Snapshot component index out of range.
    BadSnapshotIndex {
        /// Target object.
        obj: ObjId,
        /// Requested component.
        index: usize,
        /// Number of components.
        len: usize,
    },
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::NoSuchObject(o) => write!(f, "no such base object {o}"),
            MemoryError::KindMismatch { obj, primitive } => {
                write!(f, "primitive {primitive} does not apply to {obj}")
            }
            MemoryError::BadSnapshotIndex { obj, index, len } => {
                write!(
                    f,
                    "snapshot index {index} out of range for {obj} (len {len})"
                )
            }
        }
    }
}

impl std::error::Error for MemoryError {}

/// Objects per chunk of a [`Pool`]: what one write copies. Small chunks
/// copy less per write and pin less per resident state, at one more spine
/// pointer per chunk; 16 is where the recorded sweep over {8, 16, 32}
/// (EXPERIMENTS.md, "Chunk size of the object pool") balanced `many-small`
/// time against `deep-resident` memory.
const CHUNK: usize = 16;

/// A stretch of at most [`CHUNK`] consecutive objects, shared by every
/// memory that has not written into it since it was cloned.
type Chunk<W> = Arc<[BaseObject<W>]>;

/// The object pool of a [`Memory`]: object `i` is slot `i % CHUNK` of
/// chunk `i / CHUNK`, so every chunk but the last holds exactly [`CHUNK`]
/// objects and the last at least one — which is how the pool knows its
/// length, from the spine alone. Spine and chunks are shared
/// copy-on-write; this `impl` is the only code that un-shares either.
///
/// A memory that writes while it still shares its parent's spine keeps
/// the one chunk it writes into beside the spine, as its **open chunk**,
/// and reads it in place of the spine's: a successor that writes pays for
/// one chunk, not for a spine copy. Only a write into a second chunk
/// copies the spine, folding the open chunk into it; from then on the
/// spine is this memory's own and writes go straight into it.
#[derive(Debug, Clone)]
struct Pool<W> {
    chunks: Arc<[Chunk<W>]>,
    /// `(c, chunk)`: chunk `c` as this memory holds it, `chunks[c]` being
    /// stale. Opened only by a write while `chunks` is shared.
    open: Option<(usize, Chunk<W>)>,
}

impl<W> Pool<W> {
    /// Number of objects.
    fn len(&self) -> usize {
        match self.chunks.last() {
            Some(last) => (self.chunks.len() - 1) * CHUNK + last.len(),
            None => 0,
        }
    }

    /// Chunk `c`: the open chunk if it is `c`, else the spine's. Every
    /// read of the pool goes through here.
    ///
    /// # Panics
    /// If `c` is not a chunk of the pool.
    fn chunk(&self, c: usize) -> &Chunk<W> {
        match &self.open {
            Some((open, chunk)) if *open == c => chunk,
            _ => &self.chunks[c],
        }
    }
}

impl<W: Clone> Pool<W> {
    fn empty() -> Self {
        Pool {
            chunks: Arc::default(),
            open: None,
        }
    }

    fn get(&self, index: usize) -> Option<&BaseObject<W>> {
        let c = index / CHUNK;
        (c < self.chunks.len())
            .then(|| self.chunk(c))?
            .get(index % CHUNK)
    }

    fn iter(&self) -> impl Iterator<Item = &BaseObject<W>> {
        (0..self.chunks.len()).flat_map(|c| self.chunk(c).iter())
    }

    /// Slot `index` for writing. While the spine is shared, the first
    /// write opens the chunk holding the slot beside it and later writes
    /// into that chunk go there; a write into any other chunk folds the
    /// open chunk into the spine — the one spine copy — and from then on
    /// writes go into the spine, which is this pool's own. Either way the
    /// chunk written into is copied only if it is still shared.
    ///
    /// # Panics
    /// If `index` is not allocated.
    fn slot_mut(&mut self, index: usize) -> &mut BaseObject<W> {
        let c = index / CHUNK;
        if self.open.as_ref().is_none_or(|&(open, _)| open != c) {
            if self.open.is_none() && Arc::get_mut(&mut self.chunks).is_none() {
                self.open = Some((c, Arc::clone(&self.chunks[c])));
            } else {
                let spine = Arc::make_mut(&mut self.chunks);
                if let Some((open, chunk)) = self.open.take() {
                    spine[open] = chunk;
                }
                return &mut Arc::make_mut(&mut spine[c])[index % CHUNK];
            }
        }
        let (_, chunk) = self.open.as_mut().expect("chunk `c` is open");
        &mut Arc::make_mut(chunk)[index % CHUNK]
    }

    /// The pool of `len` objects that agrees with this one below both
    /// lengths and takes the slots beyond this one's from `new`, in index
    /// order — with the XOR of those slots' [`slot_term`]s — or `None` if
    /// `new` runs out first. A chunk that comes out with the extent it
    /// has here is shared, not copied. Every other chunk is filled in
    /// place, folded where it lies and then sealed: an object on its way
    /// into a pool is written once and read from where it stays.
    fn resized(
        &self,
        len: usize,
        mut new: impl Iterator<Item = BaseObject<W>>,
    ) -> Option<(Pool<W>, u128)>
    where
        W: Hash,
    {
        let mut chunks = Vec::with_capacity(len.div_ceil(CHUNK));
        let mut filling = Vec::with_capacity(CHUNK);
        let mut fold = 0;
        for c in 0..len.div_ceil(CHUNK) {
            let slots = c * CHUNK..len.min((c + 1) * CHUNK);
            match (c < self.chunks.len()).then(|| self.chunk(c)) {
                Some(kept) if kept.len() == slots.len() => chunks.push(Arc::clone(kept)),
                kept => {
                    let kept = kept.map_or(&[][..], |kept| &kept[..]);
                    filling.extend(kept.iter().take(slots.len()).cloned());
                    let taken_over = filling.len();
                    while filling.len() < slots.len() {
                        filling.push(new.next()?);
                    }
                    for (index, object) in slots.zip(&filling).skip(taken_over) {
                        fold ^= slot_term(index, object);
                    }
                    chunks.push(filling.drain(..).collect());
                }
            }
        }
        let chunks = chunks.into();
        Some((Pool { chunks, open: None }, fold))
    }
}

impl<W> std::ops::Index<usize> for Pool<W> {
    type Output = BaseObject<W>;

    fn index(&self, index: usize) -> &BaseObject<W> {
        &self.chunk(index / CHUNK)[index % CHUNK]
    }
}

impl<W: PartialEq> PartialEq for Pool<W> {
    /// Exact, object by object — except where the two pools hold the very
    /// same chunk. Equal lengths mean equal chunk extents.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && (0..self.chunks.len()).all(|c| {
                let (a, b) = (self.chunk(c), other.chunk(c));
                Arc::ptr_eq(a, b) || a == b
            })
    }
}

/// The shared memory: an indexed pool of base objects.
///
/// All primitive applications are atomic (they are single Rust function
/// calls under a scheduler that interleaves only between them).
///
/// A successor configuration differs from its parent in at most one base
/// object, and the type is built so that it costs that much:
///
/// - **`clone`** bumps one reference count (the pool's spine) whatever the
///   pool holds, and a second one if the memory has an open chunk.
/// - **A primitive that changes nothing** — a read, a scan, a failed
///   compare-and-swap, an error return — un-shares nothing.
/// - **A primitive that changes an object** copies the one 16-object
///   chunk holding the object, if it is still shared, and keeps it beside
///   the parent's spine as the memory's open chunk; every other chunk
///   stays the parent's. Only a memory that writes into a second chunk
///   while it shares its spine copies the spine (one pointer pair per 16
///   objects), once. All such writes go through the private `set`.
/// - **`Hash`** is O(1) in the pool size. The fingerprint is maintained,
///   not recomputed: `fold` is the XOR, over slots, of
///   `digest128_of(&(index, object))`; `set` XORs the slot's old term out
///   and its new term in, and [`Hash`] feeds `(len, fold, applied)`.
/// - **`Eq`** is exact, object by object, skipping chunks the two
///   memories share.
/// - **A delta record** ([`DeltaCodec`]) is encoded by comparing only the
///   chunks not shared with the predecessor, and decoded by un-sharing
///   only the chunks it edits; a plain record is decoded in one pass that
///   fills chunks and fold together.
#[derive(Debug, Clone)]
pub struct Memory<W> {
    objects: Pool<W>,
    /// XOR of [`slot_term`] over `objects`; a function of the pool alone.
    fold: u128,
    applied: u64,
}

/// Slot `index`'s contribution to a memory's fold. Salting with the index
/// makes the fold depend on where an object sits: swapping two slots'
/// contents changes it, and equal objects in different slots do not
/// cancel.
fn slot_term<W: Hash>(index: usize, object: &BaseObject<W>) -> u128 {
    digest128_of(&(index, object)).0
}

impl<W: Word> Memory<W> {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Memory {
            objects: Pool::empty(),
            fold: 0,
            applied: 0,
        }
    }

    /// Allocates a register initialized to `init`.
    pub fn alloc_register(&mut self, init: W) -> ObjId {
        self.push(BaseObject::Register(init))
    }

    /// Allocates a CAS object initialized to `init`.
    pub fn alloc_cas(&mut self, init: W) -> ObjId {
        self.push(BaseObject::Cas(init))
    }

    /// Allocates a test-and-set bit (initially unset).
    pub fn alloc_tas(&mut self) -> ObjId {
        self.push(BaseObject::Tas(false))
    }

    /// Allocates a fetch-and-add counter.
    pub fn alloc_counter(&mut self, init: i64) -> ObjId {
        self.push(BaseObject::Counter(init))
    }

    /// Allocates a snapshot object with `n` components all equal to `init`.
    pub fn alloc_snapshot(&mut self, n: usize, init: W) -> ObjId {
        self.push(BaseObject::Snapshot(vec![init; n]))
    }

    /// Allocates `n` registers, each initialized to `init`, as one run.
    pub fn alloc_registers(&mut self, n: usize, init: W) -> ObjRun {
        let first = self.len();
        let registers = std::iter::repeat_with(|| BaseObject::Register(init.clone()));
        self.resize(first + n, registers)
            .expect("an endless supply");
        ObjRun { first, len: n }
    }

    fn push(&mut self, o: BaseObject<W>) -> ObjId {
        let index = self.len();
        self.resize(index + 1, [o]).expect("one object, one slot");
        ObjId(index)
    }

    /// Brings the pool to `len` objects — the one place it changes length,
    /// and the fold with it: slots from `len` on are dropped, slots beyond
    /// the current length are taken from `new`, in order. If `new` runs
    /// out before the pool is `len` long, returns `None` and leaves the
    /// memory as it was.
    fn resize(&mut self, len: usize, new: impl IntoIterator<Item = BaseObject<W>>) -> Option<()> {
        if len != self.len() {
            let dropped = (len..self.len()).map(|index| slot_term(index, &self.objects[index]));
            let dropped = dropped.fold(0, |fold, term| fold ^ term);
            let (objects, added) = self.objects.resized(len, new.into_iter())?;
            self.objects = objects;
            self.fold ^= dropped ^ added;
        }
        Some(())
    }

    /// The one writer of an allocated slot: un-shares the chunk holding
    /// it, lets `write` change the object in place, and moves the fold
    /// from the slot's old term to its new one. [`Memory::apply`] calls it
    /// only once a primitive is known to change the object — a read, a
    /// failed compare-and-swap or an error return leaves pool and fold
    /// alone.
    ///
    /// # Panics
    /// If `obj` is not allocated.
    fn set(&mut self, obj: ObjId, write: impl FnOnce(&mut BaseObject<W>)) {
        let slot = self.objects.slot_mut(obj.0);
        let old = slot_term(obj.0, slot);
        write(slot);
        self.fold ^= old ^ slot_term(obj.0, slot);
    }

    /// Number of base objects allocated.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether no objects are allocated.
    pub fn is_empty(&self) -> bool {
        self.objects.chunks.is_empty()
    }

    /// Total number of primitives applied since creation. The [`crate::System`]
    /// uses the delta across a process step to enforce the one-primitive-per-
    /// step atomicity granularity.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Read-only view of an object (for assertions in tests).
    pub fn object(&self, obj: ObjId) -> Option<&BaseObject<W>> {
        self.objects.get(obj.0)
    }

    /// Iterates over all allocated objects with their ids.
    pub fn iter_objects(&self) -> impl Iterator<Item = (ObjId, &BaseObject<W>)> {
        (0..).map(ObjId).zip(self.objects.iter())
    }

    /// Whether the maintained fold is what a walk over the pool computes.
    /// It always is; this is the test suites' handle on that invariant.
    #[doc(hidden)]
    pub fn fold_is_exact(&self) -> bool {
        let walked = self.iter_objects().map(|(id, o)| slot_term(id.0, o));
        self.fold == walked.fold(0, |fold, term| fold ^ term)
    }

    /// Whether this memory's pool still stands on `other`'s spine: neither
    /// has copied it since one was cloned from the other. The test suites'
    /// handle on what a write copies.
    #[doc(hidden)]
    pub fn shares_spine_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.objects.chunks, &other.objects.chunks)
    }

    /// Whether every chunk of this memory's pool is the very allocation
    /// `other` reads at the same position: a memory cloned from `other`
    /// that has changed no object since. Storage, not content — an equal
    /// memory built elsewhere shares nothing.
    pub fn shares_chunks_with(&self, other: &Self) -> bool {
        let (ours, theirs) = (&self.objects, &other.objects);
        Arc::ptr_eq(&ours.chunks, &theirs.chunks)
            && match (&ours.open, &theirs.open) {
                (None, None) => true,
                (Some((c, ours)), Some((d, theirs))) => c == d && Arc::ptr_eq(ours, theirs),
                _ => false,
            }
    }

    /// Holds `other`'s allocation in place of each chunk that only this
    /// memory holds — its open chunk, or the chunks of a spine of its own
    /// — and drops those copies. Every chunk it shares stays where it is,
    /// so the memory still differs from its siblings only in the chunks
    /// it wrote.
    ///
    /// `other` must be equal to this memory ([`crate::System::share_memory`]
    /// checks): the objects stay what they were, and so do the fold and
    /// `applied`.
    pub(crate) fn share_written_chunks(&mut self, other: &Self) {
        // A pool makes no `Weak`, so one strong count is one owner: a
        // load, where `Arc::get_mut` takes the count's line for writing.
        fn alone<T: ?Sized>(arc: &Arc<T>) -> bool {
            Arc::strong_count(arc) == 1
        }
        let pool = &mut self.objects;
        if let Some((c, chunk)) = &mut pool.open {
            if alone(chunk) {
                *chunk = Arc::clone(other.objects.chunk(*c));
            }
        } else if alone(&pool.chunks) {
            let spine = Arc::get_mut(&mut pool.chunks).expect("one owner");
            for (c, chunk) in spine.iter_mut().enumerate() {
                if alone(chunk) {
                    *chunk = Arc::clone(other.objects.chunk(c));
                }
            }
        }
    }

    /// The chunks of this memory's pool that are not the very allocation
    /// `other` holds at the same position.
    #[cfg(test)]
    pub(crate) fn unshared_chunks(&self, other: &Self) -> Vec<usize> {
        let (ours, theirs) = (&self.objects, &other.objects);
        (0..ours.chunks.len())
            .filter(|&c| c >= theirs.chunks.len() || !Arc::ptr_eq(ours.chunk(c), theirs.chunk(c)))
            .collect()
    }

    /// A copy of the memory with every stored word transformed by `f`
    /// (snapshot components included; TAS bits and counters unchanged).
    ///
    /// Used to build *normalized* configurations for cycle detection: when
    /// an algorithm's behaviour is invariant under a uniform shift of
    /// version numbers or timestamps, shifting them to a canonical base
    /// makes genuinely-repeating configurations compare equal.
    pub fn map_words(&self, mut f: impl FnMut(&W) -> W) -> Memory<W> {
        self.map_objects(|_, o| match o {
            BaseObject::Register(w) => BaseObject::Register(f(w)),
            BaseObject::Cas(w) => BaseObject::Cas(f(w)),
            BaseObject::Tas(b) => BaseObject::Tas(*b),
            BaseObject::Counter(c) => BaseObject::Counter(*c),
            BaseObject::Snapshot(v) => BaseObject::Snapshot(v.iter().map(&mut f).collect()),
        })
    }

    /// A copy of the memory with every base object transformed by `f`,
    /// which receives the object's id alongside its contents. Like
    /// [`Memory::map_words`] this resets the applied-primitive counter:
    /// the result is a *derived* configuration for keying/canonicalizing,
    /// not a resumable one.
    ///
    /// This is the object-granular sibling of [`Memory::map_words`],
    /// needed by process-permutation symmetries: permuting processes
    /// moves per-process register *contents* between objects (commit-adopt
    /// column `i` to column `π(i)`, snapshot components likewise), which
    /// a word-wise map cannot express.
    pub fn map_objects(
        &self,
        mut f: impl FnMut(ObjId, &BaseObject<W>) -> BaseObject<W>,
    ) -> Memory<W> {
        let mut mapped = Memory::new();
        let objects = self.iter_objects().map(|(id, o)| f(id, o));
        mapped
            .resize(self.len(), objects)
            .expect("an object for every slot");
        mapped
    }

    /// Applies an atomic primitive.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError`] if the object does not exist, the primitive
    /// does not match the object kind, or a snapshot index is out of range.
    pub fn apply(&mut self, p: Primitive<W>) -> Result<PrimOutcome<W>, MemoryError> {
        self.applied += 1;
        let mismatch = |obj, primitive| Err(MemoryError::KindMismatch { obj, primitive });
        match p {
            Primitive::Read(obj) => match self.get(obj)? {
                BaseObject::Register(w) | BaseObject::Cas(w) => Ok(PrimOutcome::Value(w.clone())),
                BaseObject::Counter(c) => Ok(PrimOutcome::Int(*c)),
                BaseObject::Tas(b) => Ok(PrimOutcome::Flag(*b)),
                BaseObject::Snapshot(_) => mismatch(obj, "Read"),
            },
            Primitive::Write(obj, val) => match self.get(obj)? {
                BaseObject::Register(_) => {
                    self.set(obj, |o| *o = BaseObject::Register(val));
                    Ok(PrimOutcome::Ack)
                }
                _ => mismatch(obj, "Write"),
            },
            Primitive::Cas { obj, expected, new } => match self.get(obj)? {
                BaseObject::Cas(w) => {
                    let swapped = *w == expected;
                    if swapped {
                        self.set(obj, |o| *o = BaseObject::Cas(new));
                    }
                    Ok(PrimOutcome::Flag(swapped))
                }
                _ => mismatch(obj, "Cas"),
            },
            Primitive::Tas(obj) => match self.get(obj)? {
                &BaseObject::Tas(prev) => {
                    if !prev {
                        self.set(obj, |o| *o = BaseObject::Tas(true));
                    }
                    Ok(PrimOutcome::Flag(prev))
                }
                _ => mismatch(obj, "Tas"),
            },
            Primitive::TasReset(obj) => match self.get(obj)? {
                &BaseObject::Tas(prev) => {
                    if prev {
                        self.set(obj, |o| *o = BaseObject::Tas(false));
                    }
                    Ok(PrimOutcome::Ack)
                }
                _ => mismatch(obj, "TasReset"),
            },
            Primitive::FetchAdd(obj, delta) => match self.get(obj)? {
                &BaseObject::Counter(prev) => {
                    self.set(obj, |o| *o = BaseObject::Counter(prev + delta));
                    Ok(PrimOutcome::Int(prev))
                }
                _ => mismatch(obj, "FetchAdd"),
            },
            Primitive::SnapUpdate { obj, index, val } => match self.get(obj)? {
                BaseObject::Snapshot(v) if index >= v.len() => {
                    let len = v.len();
                    Err(MemoryError::BadSnapshotIndex { obj, index, len })
                }
                BaseObject::Snapshot(_) => {
                    self.set(obj, |o| {
                        if let BaseObject::Snapshot(v) = o {
                            v[index] = val;
                        }
                    });
                    Ok(PrimOutcome::Ack)
                }
                _ => mismatch(obj, "SnapUpdate"),
            },
            Primitive::SnapScan(obj) => match self.get(obj)? {
                BaseObject::Snapshot(v) => Ok(PrimOutcome::Snapshot(v.clone())),
                _ => mismatch(obj, "SnapScan"),
            },
        }
    }

    fn get(&self, obj: ObjId) -> Result<&BaseObject<W>, MemoryError> {
        self.object(obj).ok_or(MemoryError::NoSuchObject(obj))
    }
}

impl<W: Word> Default for Memory<W> {
    fn default() -> Self {
        Memory::new()
    }
}

impl<W: PartialEq> PartialEq for Memory<W> {
    /// Exact: equal folds are necessary, never sufficient.
    fn eq(&self, other: &Self) -> bool {
        self.applied == other.applied && self.fold == other.fold && self.objects == other.objects
    }
}

impl<W: Eq> Eq for Memory<W> {}

impl<W> Hash for Memory<W> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.objects.len().hash(state);
        self.fold.hash(state);
        self.applied.hash(state);
    }
}

impl<W: Word + StateCodec> StateCodec for Memory<W> {
    /// The bytes of the pool as one `Vec` of objects, then `applied`.
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        let len = u32::try_from(self.len()).expect("frontier states are far below 2^32 elements");
        len.encode(out);
        for object in self.objects.iter() {
            object.encode(out);
        }
        // `applied` participates in `Eq`/`Hash` (it is the step counter
        // behind the atomicity check), so it must round-trip too.
        self.applied.encode(out);
    }

    /// One pass: each object is decoded straight into the chunk being
    /// filled, and its term enters the fold from there.
    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(input)? as usize;
        // An object is at least its tag byte, so a length prefix the input
        // cannot hold is corrupt — refused before anything is sized by it.
        if len > input.len() {
            return None;
        }
        let mut memory = Memory::new();
        memory.resize(len, std::iter::from_fn(|| BaseObject::decode(input)))?;
        memory.applied = u64::decode(input)?;
        Some(memory)
    }
}

// Object ids are one varint; a changed base object re-encodes whole (its
// payload is a word or a bit — a field bitmap would cost as much).
impl DeltaCodec for ObjId {}
impl<W: DeltaCodec> DeltaCodec for BaseObject<W> {}

impl<W: Word + DeltaCodec> DeltaCodec for Memory<W> {
    fn encode_delta(&self, prev: Option<&Self>, out: &mut Vec<u8>) {
        let Some(prev) = prev else {
            return self.encode(out);
        };
        // One scheduled step mutates at most one base object, so sibling
        // memories differ in zero or one entry of the object pool — and
        // share every chunk neither has written since their common
        // ancestor, which is skipped without a look inside.
        let (ours, theirs) = (&self.objects, &prev.objects);
        let unshared = (0..ours.chunks.len().min(theirs.chunks.len()))
            .map(|c| (c, ours.chunk(c), theirs.chunk(c)))
            .filter(|(_, chunk, old)| !Arc::ptr_eq(chunk, old))
            .map(|(c, chunk, old)| (c * CHUNK, &chunk[..], &old[..]));
        let tail = (prev.len()..self.len()).map(|index| &self.objects[index]);
        encode_slice_delta_runs(self.len(), unshared, tail, out);
        // `applied` drifts by a handful of steps between siblings; the
        // wrapping difference zigzags to one byte either direction.
        self.applied
            .wrapping_sub(prev.applied)
            .cast_signed()
            .encode(out);
    }

    fn decode_delta(prev: Option<&Self>, input: &mut &[u8], ctx: &mut DeltaCtx) -> Option<Self> {
        let Some(prev) = prev else {
            return Self::decode(input);
        };
        // Start as `prev` — its chunks shared, its fold taken over — and
        // pay for the entries the record changes.
        let mut memory = prev.clone();
        let mut grown = Vec::new();
        let len = decode_slice_edits(
            prev.len(),
            |index| &prev.objects[index],
            input,
            ctx,
            |index, object| {
                if index < prev.len() {
                    memory.set(ObjId(index), |o| *o = object);
                } else {
                    grown.push(object);
                }
            },
        )?;
        memory.resize(len, grown)?;
        memory.applied = prev
            .applied
            .wrapping_add(i64::decode(input)?.cast_unsigned());
        Some(memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_read_write() {
        let mut m: Memory<i64> = Memory::new();
        let r = m.alloc_register(5);
        assert_eq!(m.apply(Primitive::Read(r)).unwrap(), PrimOutcome::Value(5));
        m.apply(Primitive::Write(r, 9)).unwrap();
        assert_eq!(m.apply(Primitive::Read(r)).unwrap(), PrimOutcome::Value(9));
    }

    #[test]
    fn register_runs_are_consecutive_and_never_overlap() {
        let mut m: Memory<i64> = Memory::new();
        let a = m.alloc_registers(3, 0);
        let between = m.alloc_cas(0);
        let b = m.alloc_registers(2, 0);
        let ids: Vec<ObjId> = a.iter().chain([between]).chain(b.iter()).collect();
        assert_eq!(ids, (0..6).map(ObjId).collect::<Vec<_>>());
        assert_eq!((a.len(), b.len(), m.len()), (3, 2, 6));
        assert_eq!(b.at(1), ObjId(5));
        // A write through one run is invisible through the other.
        m.apply(Primitive::Write(b.at(0), 7)).unwrap();
        for id in a.iter() {
            assert_eq!(m.apply(Primitive::Read(id)).unwrap(), PrimOutcome::Value(0));
        }
        assert!(m.alloc_registers(0, 0).is_empty());
    }

    #[test]
    fn sub_runs_stay_inside_their_run() {
        let mut m: Memory<i64> = Memory::new();
        m.alloc_tas();
        let run = m.alloc_registers(6, 0);
        let tail = run.sub(4, 2).expect("in range");
        assert_eq!(tail.iter().collect::<Vec<_>>(), vec![ObjId(5), ObjId(6)]);
        assert_eq!(run.sub(6, 0).map(ObjRun::len), Some(0));
        assert_eq!(run.sub(5, 2), None);
        assert_eq!(run.sub(usize::MAX, 2), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn run_index_past_the_end_panics() {
        let mut m: Memory<i64> = Memory::new();
        let _ = m.alloc_registers(2, 0).at(2);
    }

    #[test]
    fn cas_semantics() {
        let mut m: Memory<i64> = Memory::new();
        let c = m.alloc_cas(0);
        assert_eq!(
            m.apply(Primitive::Cas {
                obj: c,
                expected: 0,
                new: 1
            })
            .unwrap(),
            PrimOutcome::Flag(true)
        );
        assert_eq!(
            m.apply(Primitive::Cas {
                obj: c,
                expected: 0,
                new: 2
            })
            .unwrap(),
            PrimOutcome::Flag(false)
        );
        assert_eq!(m.apply(Primitive::Read(c)).unwrap(), PrimOutcome::Value(1));
    }

    #[test]
    fn tas_sets_once() {
        let mut m: Memory<i64> = Memory::new();
        let t = m.alloc_tas();
        assert_eq!(
            m.apply(Primitive::Tas(t)).unwrap(),
            PrimOutcome::Flag(false)
        );
        assert_eq!(m.apply(Primitive::Tas(t)).unwrap(), PrimOutcome::Flag(true));
        m.apply(Primitive::TasReset(t)).unwrap();
        assert_eq!(
            m.apply(Primitive::Tas(t)).unwrap(),
            PrimOutcome::Flag(false)
        );
    }

    #[test]
    fn counter_fetch_add() {
        let mut m: Memory<i64> = Memory::new();
        let c = m.alloc_counter(10);
        assert_eq!(
            m.apply(Primitive::FetchAdd(c, 3)).unwrap(),
            PrimOutcome::Int(10)
        );
        assert_eq!(
            m.apply(Primitive::FetchAdd(c, -1)).unwrap(),
            PrimOutcome::Int(13)
        );
    }

    #[test]
    fn snapshot_update_scan() {
        let mut m: Memory<i64> = Memory::new();
        let s = m.alloc_snapshot(3, 0);
        m.apply(Primitive::SnapUpdate {
            obj: s,
            index: 1,
            val: 7,
        })
        .unwrap();
        assert_eq!(
            m.apply(Primitive::SnapScan(s)).unwrap(),
            PrimOutcome::Snapshot(vec![0, 7, 0])
        );
    }

    #[test]
    fn snapshot_bad_index() {
        let mut m: Memory<i64> = Memory::new();
        let s = m.alloc_snapshot(2, 0);
        let err = m
            .apply(Primitive::SnapUpdate {
                obj: s,
                index: 5,
                val: 1,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            MemoryError::BadSnapshotIndex { index: 5, .. }
        ));
    }

    #[test]
    fn kind_mismatch_errors() {
        let mut m: Memory<i64> = Memory::new();
        let r = m.alloc_register(0);
        assert!(m.apply(Primitive::Tas(r)).is_err());
        assert!(m
            .apply(Primitive::Cas {
                obj: r,
                expected: 0,
                new: 1
            })
            .is_err());
        let bogus = ObjId(99);
        assert_eq!(
            m.apply(Primitive::Read(bogus)).unwrap_err(),
            MemoryError::NoSuchObject(bogus)
        );
    }

    #[test]
    fn applied_counts_every_primitive() {
        let mut m: Memory<i64> = Memory::new();
        let r = m.alloc_register(0);
        assert_eq!(m.applied(), 0);
        let _ = m.apply(Primitive::Read(r));
        let _ = m.apply(Primitive::Read(ObjId(99)));
        assert_eq!(m.applied(), 2);
    }

    /// The collect loops of commit-adopt are n reads per write: a chain of
    /// successors must stay on one pool until something is written, and
    /// then part from it by the one chunk written into, still on the
    /// parent's spine.
    #[test]
    fn a_primitive_unshares_the_chunk_it_writes_and_nothing_else() {
        let mut parent: Memory<i64> = Memory::new();
        parent.alloc_registers(CHUNK, 0);
        // The second chunk holds one object of every kind.
        let r = parent.alloc_register(1);
        let c = parent.alloc_cas(1);
        let set = parent.alloc_tas();
        let clear = parent.alloc_tas();
        let s = parent.alloc_snapshot(2, 0);
        let k = parent.alloc_counter(0);
        parent.alloc_registers(2 * CHUNK, 0);
        assert_eq!(parent.objects.chunks.len(), 4);
        parent.apply(Primitive::Tas(set)).unwrap();
        let untouched: Vec<_> = parent.iter_objects().map(|(_, o)| o.clone()).collect();
        let cas = |expected| Primitive::Cas {
            obj: c,
            expected,
            new: 9,
        };
        let snap_update = |obj, index| Primitive::SnapUpdate { obj, index, val: 9 };

        for inert in [
            Primitive::Read(r),
            Primitive::SnapScan(s),
            cas(0),
            Primitive::Tas(set),
            Primitive::TasReset(clear),
            Primitive::Read(ObjId(99)),
            Primitive::Write(c, 9),
            Primitive::Tas(r),
            Primitive::FetchAdd(r, 1),
            snap_update(r, 0),
            snap_update(s, 2),
        ] {
            let mut child = parent.clone();
            let _ = child.apply(inert.clone());
            assert!(child.shares_spine_with(&parent), "{inert:?}");
            assert!(child.objects.open.is_none(), "{inert:?}");
            assert_eq!(child.fold, parent.fold, "{inert:?}");
        }
        for writing in [
            Primitive::Write(r, 1),
            cas(1),
            Primitive::Tas(clear),
            Primitive::TasReset(set),
            Primitive::FetchAdd(k, 0),
            snap_update(s, 1),
        ] {
            let mut child = parent.clone();
            child.apply(writing.clone()).unwrap();
            assert_eq!(child.unshared_chunks(&parent), [1], "{writing:?}");
            assert!(child.shares_spine_with(&parent), "{writing:?}");
        }

        // A chain of writes into one chunk copies that chunk once and
        // keeps the parent's spine.
        let mut child = parent.clone();
        child.apply(Primitive::Write(r, 5)).unwrap();
        let owned = Arc::as_ptr(child.objects.chunk(1));
        child.apply(Primitive::Write(r, 6)).unwrap();
        child.apply(Primitive::FetchAdd(k, 2)).unwrap();
        child.apply(snap_update(s, 0)).unwrap();
        assert!(child.shares_spine_with(&parent));
        assert_eq!(Arc::as_ptr(child.objects.chunk(1)), owned);
        assert_eq!(child.unshared_chunks(&parent), [1]);

        // A write into a second chunk copies the spine, once: later writes
        // into any chunk, the first included, land in that copy.
        child.apply(Primitive::Write(ObjId(3 * CHUNK), 6)).unwrap();
        assert!(!child.shares_spine_with(&parent));
        assert!(child.objects.open.is_none());
        let spine = Arc::as_ptr(&child.objects.chunks);
        for (obj, val) in [(0, 1), (r.0, 7), (3 * CHUNK, 8), (CHUNK - 1, 2)] {
            child.apply(Primitive::Write(ObjId(obj), val)).unwrap();
        }
        assert_eq!(Arc::as_ptr(&child.objects.chunks), spine);
        assert_eq!(Arc::as_ptr(child.objects.chunk(1)), owned);
        assert_eq!(child.unshared_chunks(&parent), [0, 1, 3]);

        // A clone of a memory with an open chunk that writes elsewhere
        // takes the open chunk along into its own spine.
        let mut opened = parent.clone();
        opened.apply(Primitive::Write(r, 4)).unwrap();
        let mut switched = opened.clone();
        switched
            .apply(Primitive::Write(ObjId(2 * CHUNK), 3))
            .unwrap();
        assert!(Arc::ptr_eq(
            switched.objects.chunk(1),
            opened.objects.chunk(1)
        ));
        assert_eq!(switched.unshared_chunks(&opened), [2]);
        assert_eq!(switched.object(r), Some(&BaseObject::Register(4)));

        // Whatever the route, each is the memory built afresh from its
        // objects: equal, an exact fold, the same plain and delta bytes.
        let record = |memory: &Memory<i64>, prev: Option<&Memory<i64>>| {
            let mut bytes = Vec::new();
            memory.encode_delta(prev, &mut bytes);
            bytes
        };
        for memory in [&child, &opened, &switched] {
            let mut rebuilt = memory.map_objects(|_, o| o.clone());
            rebuilt.applied = memory.applied;
            assert!(memory.fold_is_exact());
            assert_eq!((memory, memory.fold), (&rebuilt, rebuilt.fold));
            assert_eq!(record(memory, None), record(&rebuilt, None));
            for prev in [&parent, &opened] {
                assert_eq!(record(memory, Some(prev)), record(&rebuilt, Some(prev)));
            }
        }
        // None of it reached the parent.
        assert!(parent.iter_objects().map(|(_, o)| o).eq(&untouched));
    }

    /// Two memories that wrote the same objects in a different order
    /// from one parent: the second takes the first's copies of what it
    /// wrote, and still shares every other chunk with the parent.
    #[test]
    fn an_equal_memory_lends_the_chunks_a_write_copied() {
        let mut parent: Memory<i64> = Memory::new();
        parent.alloc_registers(3 * CHUNK, 0);
        let written = |writes: &[(usize, i64)]| {
            let mut memory = parent.clone();
            for &(obj, val) in writes {
                memory.apply(Primitive::Write(ObjId(obj), val)).unwrap();
            }
            memory
        };
        // One chunk written: an open chunk beside the parent's spine.
        let (one, two) = ([(1, 5), (2, 6)], [(2, 6), (1, 5)]);
        // Two chunks written: a spine of each memory's own.
        let (far, near) = ([(1, 5), (CHUNK, 6)], [(CHUNK, 6), (1, 5)]);
        for ((lender, mut borrower), own) in [
            ((written(&one), written(&two)), vec![0]),
            ((written(&far), written(&near)), vec![0, 1]),
        ] {
            assert_eq!(borrower.unshared_chunks(&lender), own);
            borrower.share_written_chunks(&lender);
            assert!(borrower.unshared_chunks(&lender).is_empty());
            assert_eq!(borrower.unshared_chunks(&parent), own);
            assert!(borrower == lender && borrower.fold_is_exact());
        }
    }

    #[test]
    fn growing_and_shrinking_keep_the_chunks_whose_extent_stands() {
        let mut parent: Memory<i64> = Memory::new();
        parent.alloc_registers(2 * CHUNK + 3, 0);
        let mut grown = parent.clone();
        grown.alloc_registers(CHUNK, 1);
        assert_eq!(grown.unshared_chunks(&parent), [2, 3]);
        let mut cut = parent.clone();
        cut.resize(CHUNK + 1, []).unwrap();
        assert_eq!(cut.unshared_chunks(&parent), [1]);
        cut.resize(CHUNK, []).unwrap();
        assert_eq!(cut.unshared_chunks(&parent), [0usize; 0]);
        assert!(grown.fold_is_exact() && cut.fold_is_exact());
        assert_eq!((grown.len(), cut.len()), (3 * CHUNK + 3, CHUNK));
    }

    #[test]
    fn a_delta_record_pays_for_the_chunks_it_edits() {
        let mut prev: Memory<i64> = Memory::new();
        let regs = prev.alloc_registers(3 * CHUNK + 5, 0);
        let mut unchanged = prev.clone();
        unchanged.apply(Primitive::Read(regs.at(0))).unwrap();
        let mut changed = prev.clone();
        changed
            .apply(Primitive::Write(regs.at(CHUNK + 2), 7))
            .unwrap();

        let replay = |memory: &Memory<i64>| {
            let mut bytes = Vec::new();
            memory.encode_delta(Some(&prev), &mut bytes);
            Memory::decode_delta(Some(&prev), &mut bytes.as_slice(), &mut DeltaCtx::new())
                .expect("delta round trip")
        };
        let decoded = replay(&unchanged);
        assert_eq!(decoded, unchanged);
        assert!(Arc::ptr_eq(&decoded.objects.chunks, &prev.objects.chunks));
        let decoded = replay(&changed);
        assert_eq!(decoded, changed);
        assert_eq!(decoded.fold, changed.fold);
        assert_eq!(decoded.unshared_chunks(&prev), [1]);
    }

    /// A record is the same bytes whether or not the memory shares chunks
    /// with the predecessor it is encoded against: sharing only decides
    /// what is compared.
    #[test]
    fn delta_bytes_do_not_depend_on_sharing() {
        let mut prev: Memory<i64> = Memory::new();
        let regs = prev.alloc_registers(2 * CHUNK + 1, 0);
        let mut shared = prev.clone();
        shared.apply(Primitive::Write(regs.at(CHUNK), 3)).unwrap();
        let apart = shared.map_objects(|_, o| o.clone());
        assert_eq!(apart.unshared_chunks(&prev), [0, 1, 2]);
        let delta = |memory: &Memory<i64>| {
            let mut bytes = Vec::new();
            memory.encode_delta(Some(&prev), &mut bytes);
            bytes.truncate(bytes.len() - 1); // `applied` differs: mapping resets it
            bytes
        };
        assert_eq!(delta(&shared), delta(&apart));
    }

    #[test]
    fn error_display() {
        let e = MemoryError::NoSuchObject(ObjId(3));
        assert_eq!(e.to_string(), "no such base object obj3");
    }

    #[test]
    fn outcome_extractors() {
        assert_eq!(PrimOutcome::<i64>::Value(4).expect_value(), 4);
        assert!(PrimOutcome::<i64>::Flag(true).expect_flag());
        assert_eq!(PrimOutcome::<i64>::Int(2).expect_int(), 2);
    }

    #[test]
    #[should_panic(expected = "expected Value")]
    fn outcome_extractor_panics_on_mismatch() {
        let _ = PrimOutcome::<i64>::Ack.expect_value();
    }
}
