//! Transactional-memory implementations over simulated shared memory.
//!
//! Three TMs, matching the roles they play in the paper:
//!
//! - [`AgpTm`] — **Algorithm I(1,2)** (the paper's Algorithm 1, verbatim):
//!   a single compare-and-swap object `C` holding `(version, values)`, plus
//!   a snapshot object `R[1..n]` of per-process timestamps. The timestamp
//!   rule (`count ≥ 3 ⇒ abort`) enforces requirement 2 of property `S`;
//!   the version CAS enforces opacity; with at most two processes taking
//!   steps it is (1,2)-free (Lemma 5.4).
//! - [`GlobalVersionTm`] — the same construction *without* the timestamp
//!   rule: an opaque, lock-free TM. A failed commit CAS implies a
//!   concurrent successful commit, so at least one process always makes
//!   progress whatever the contention — (1,n)-freedom, the white point of
//!   Figure 1b (standing in for Fraser's OSTM, which the paper cites).
//! - [`LockTm`] — a global test-and-set-lock TM: opaque and deadlock-free
//!   but *blocking*; a crashed lock holder starves everyone. Figure 1b's
//!   white-anchor control (the fair workload stops committing once the
//!   holder crashes) and the blocking leg of the non-blocking claim.

#![warn(missing_docs)]

mod agp;
mod global_version;
mod lock_tm;
pub mod normalize;
mod word;

pub use agp::AgpTm;
pub use global_version::GlobalVersionTm;
pub use lock_tm::LockTm;
pub use word::TmWord;
