//! `slx-engine` — the shared high-throughput exploration kernel.
//!
//! Every verdict this workspace produces — the Figure 1 (l,k)-freedom
//! grids, the bivalence/starvation adversaries, the opacity and consensus
//! safety checks — is discharged by exhaustively enumerating schedules.
//! This crate is the single kernel those enumerations run on:
//!
//! - [`StateSpace`] — the abstraction a checker implements: a state type,
//!   successor enumeration ([`StateSpace::expand`]), and a 128-bit state
//!   [`Digest`];
//! - [`Checker`] — the driver, with a **fingerprint-only visited set**
//!   (the search retains 16-byte digests, never full states) and a
//!   **frontier-based parallel BFS** that streams each level through a
//!   bounded expand → dedup → merge window with deterministic result
//!   merging. A checker is exactly what its builder says: every setting
//!   is a `with_*` pin or its default, and the kernel reads no
//!   environment;
//! - [`ShardedVisited`] — the BFS visited set, sharded by digest range;
//!   the kernel inserts successors one by one as its level window merges
//!   them (batches can also be inserted a shard range per worker,
//!   lock-free: [`ShardedVisited::insert_batches`]); shard count via
//!   [`Checker::with_shards`], and verdicts are
//!   shard-count and thread-count independent by construction;
//! - [`StateCodec`] / [`DeltaCodec`] + the **disk-backed frontier** —
//!   states encode to a self-delimiting binary format, and under a memory
//!   budget ([`Checker::with_mem_budget`] bytes; spill directory via
//!   [`Checker::with_spill_dir`]) the BFS frontier — the last O(states)
//!   structure holding full configurations — spills cold chunks to
//!   self-cleaning temp files and streams them back during expansion,
//!   bounding peak resident states regardless of level width. Chunk
//!   windows are byte-measured; records hold states only (digests are
//!   consumed by the visited set before a state is pushed) and come in
//!   three encodings ([`SpillCodec`], [`Checker::with_spill_codec`]):
//!   **delta** (the default — sibling states share layouts, memory
//!   words, and history prefixes, so unchanged fields collapse to
//!   skip/copy varints on the wire and decode as clones of the
//!   predecessor's fields), **plain**
//!   (self-contained records, the comparison arm), and **replay**
//!   (records store parent states plus child action indices, and the
//!   replay *regenerates* spilled successors by re-expanding the parent
//!   — no per-child codec work at all). Chunk order is deterministic and
//!   re-expansion ([`StateSpace::expand`]) is pure, so spilling changes
//!   no verdict, finding, or statistic;
//! - [`Fingerprinter`] — a fast two-lane non-cryptographic hasher that
//!   produces the 128-bit digests in one pass (replacing the SipHash
//!   `DefaultHasher` helpers that used to be copy-pasted across the
//!   workspace — use [`digest128_of`] / [`digest64_of_iter`] instead);
//!   [`Fold64`] is its first lane alone, for a 64-bit digest a value
//!   keeps up to date as it grows;
//! - [`ExploreStats`] — built-in exploration statistics: states visited,
//!   transitions generated, dedup hit rate, peak frontier size,
//!   states/sec, and truncation accounting;
//! - [`CheckpointStore`] — crash-tolerant checkpoint/resume: at
//!   configurable level boundaries ([`Checker::with_checkpoint`]) the
//!   run appends the digests it admitted since the previous commit to
//!   an append-only visited log, then renames in a small image —
//!   frontier, findings, counters, a validated run-config header and
//!   the log prefix it stands on — and [`Checker::resume`] continues the
//!   run bit-identically in verdict, state counts, and truncation flags;
//! - [`FaultPlane`] — a deterministic fault-injection plane over every
//!   fallible I/O seam (spill file create/write/read/unlink, checkpoint
//!   log and image write/sync, image rename), armed by a seeded [`FaultPlan`]
//!   ([`Checker::with_fault_plan`]; a no-op when disarmed). The
//!   hardened paths behind it retry transient
//!   faults with bounded backoff, degrade gracefully when the spill
//!   directory runs out of space, and surface anything unrecoverable as
//!   a typed [`EngineError`] ([`Checker::try_run_observed`]) — never a
//!   torn checkpoint image or a leaked spill file.
//!
//! The kernel is dependency-free and fully generic; `slx-explorer`,
//! `slx-adversary`, and the `slx-core` grid drivers all layer on it.
//!
//! # Exactness and fingerprints
//!
//! Deduplicating on 128-bit fingerprints instead of retained states means
//! two distinct states colliding under the digest would be conflated. A
//! collision can only *hide* states (every reported finding still comes
//! from a genuinely reached state — findings are sound unconditionally);
//! at the small scopes this workspace explores (≪ 2^40 states) the
//! collision probability is astronomically below any practical concern.
//! The crate's test suite checks both claims with a built-in property
//! harness: full-width digests reproduce exact-set exploration verbatim,
//! and deliberately truncated digests stay sound.

#![warn(missing_docs)]

mod checker;
mod checkpoint;
mod codec;
mod detmap;
mod digest;
mod fault;
mod space;
mod spill;
mod stats;
mod visited;

pub use checker::{Checker, KernelOutcome};
pub use checkpoint::CheckpointStore;
pub use codec::{
    decode_slice_delta, decode_slice_edits, encode_slice_delta, encode_slice_delta_runs,
    DeltaCodec, DeltaCtx, StateCodec,
};
pub use detmap::{DetBuildHasher, DetHashMap, DetHashSet};
pub use digest::{digest128_of, digest64_of_iter, Digest, Fingerprinter, Fold64};
pub use fault::{EngineError, FaultKind, FaultOp, FaultPlan, FaultPlane};
pub use space::{Expansion, StateSpace};
pub use spill::SpillCodec;
pub use stats::{ExploreStats, Stopwatch};
pub use visited::ShardedVisited;
