//! Small-scope exhaustive exploration of simulated systems.
//!
//! Liveness and safety claims in the paper are universally quantified over
//! schedules. At small scope this crate discharges them mechanically:
//!
//! - [`explore_safety`] enumerates *every* schedule of a set of processes
//!   up to a depth bound and checks a safety property on every produced
//!   history (configurations are memoized together with a caller-supplied
//!   history digest, so the enumeration is exact for properties that
//!   depend on history only through the digest);
//! - [`decidable_values_with`] computes which consensus values are reachable
//!   decisions from a configuration — the valence analysis that
//!   `slx_adversary::run_bivalence_adversary_with` steers by, and the
//!   reference Figure 1(a)'s graph valence is checked against;
//! - [`run_until_cycle_keyed`] runs a *deterministic* scheduler, after
//!   an optional prefix of decisions such as a crash, and detects a
//!   repeated (system, scheduler) key — kept and compared exactly, never
//!   fingerprinted: a genuine lasso, i.e. a witness of an infinite
//!   execution, on which [`CycleWitness::evaluate_liveness`] judges a
//!   liveness property exactly (every liveness verdict the drivers print
//!   is judged so, through a [`Lasso`]). The witness records the size of
//!   the system it ran on, so a verdict takes none from its caller: a
//!   process that never steps is still judged. A search takes no budget:
//!   it ends in a lasso, in [`NoLasso::Halted`] when the scheduler halts,
//!   or in [`NoLasso::NotClosed`] at the [`MAX_KEYS`] cap.
//!
//! The enumerating checkers ([`explore_safety`], [`decidable_values_with`])
//! run on the shared exploration kernel: a fingerprint-only visited set
//! (no retained configuration clones) under a parallel frontier BFS with
//! deterministic merging. The seed's retained-clone loops survive in
//! [`baseline`] as the exact-state oracle of the differential suites.
//! Obstruction-freedom is not checked here: Figure 1(a)'s white check
//! (`slx_core::grid::consensus_white_check`) reads it off the exact graph
//! `slx_automata::extract` builds.

#![warn(missing_docs)]

pub mod baseline;
mod explore;
mod lasso;
mod valence;

pub use explore::{
    explore_safety, explore_safety_observed, explore_safety_with, history_digest, ExploreOutcome,
};
pub use lasso::{run_until_cycle_keyed, CycleWitness, Lasso, NoLasso, MAX_KEYS};
pub use valence::{decidable_values_with, DecidableSet};
