//! Consensus implementations over simulated shared memory.
//!
//! The paper's consensus corollaries (4.5, 4.10, Theorem 5.2 / Figure 1a)
//! quantify over implementations *from read/write registers*. This crate
//! provides:
//!
//! - [`AdoptCommit`] — Gafni's commit-adopt object from registers
//!   (wait-free, single-use), the building block;
//! - [`ObstructionFreeConsensus`] — rounds of adopt-commit plus a decision
//!   register: a register-only consensus that is (1,1)-free
//!   (obstruction-free) and ensures agreement and validity. This is the
//!   witness for the *white* point (1,1) in Figure 1a;
//! - [`CasConsensus`] — wait-free consensus from a single compare-and-swap
//!   object: the contrast showing the exclusion is about the base-object
//!   model, not consensus per se.
//!
//! Theorem 4.9's trivial implementations `It` and `Ib` are automata in
//! `slx-automata` (`trivial_it`, `single_response_ib`).

#![warn(missing_docs)]

mod adopt_commit;
mod cas_consensus;
mod kset;
mod normalize;
mod of_consensus;
mod word;

pub use adopt_commit::{AcNormalizedState, AcOutcome, AdoptCommit};
pub use cas_consensus::CasConsensus;
pub use kset::grouped_kset;
pub use normalize::{
    canonical_of_digest, permutation_safe, permuted_of_system, round_shift_key, OfRoundShiftKey,
};
pub use of_consensus::{Layout as OfLayout, ObstructionFreeConsensus, OfNormalizedState};
pub use word::ConsWord;
