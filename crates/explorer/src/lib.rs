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
//! - [`decidable_values`] computes which consensus values are reachable
//!   decisions from a configuration — the valence analysis that powers the
//!   bivalence adversary (Corollary 4.5 / Figure 1a's black points);
//! - [`run_until_cycle_keyed`] runs a *deterministic* scheduler and
//!   detects a repeated (system, scheduler) key — retaining only 128-bit
//!   fingerprints of the keys, like the kernel's visited set: a genuine
//!   lasso, i.e. a witness of an infinite execution, on which
//!   [`CycleWitness::evaluate_liveness`] judges a liveness property
//!   exactly (every liveness verdict the drivers print is judged so,
//!   through a [`Lasso`]; [`run_until_cycle_keyed_after`] starts the
//!   search after a prefix of decisions, such as a crash). The witness
//!   records the size of the system it ran on, so a verdict takes none
//!   from its caller: a process that never steps is still judged.
//!   [`run_until_cycle_keyed_retained`] is the retained-key oracle the
//!   differential tests pin it against;
//! - [`verify_solo_progress`] checks obstruction-freedom exhaustively: from
//!   every reachable configuration, every pending process running alone
//!   responds within a step budget.
//!
//! Since the `slx-engine` refactor, the enumerating checkers
//! ([`explore_safety`], [`decidable_values`], [`verify_solo_progress`])
//! all run on the shared exploration kernel: a fingerprint-only visited
//! set (no retained configuration clones) under a parallel frontier BFS
//! with deterministic merging. The seed's retained-clone loops survive in
//! [`baseline`] as the exact-state oracle of the differential suites.

#![warn(missing_docs)]

pub mod baseline;
mod explore;
mod lasso;
mod valence;

pub use explore::{
    explore_safety, explore_safety_observed, explore_safety_with, history_digest,
    verify_solo_progress, verify_solo_progress_with, ExploreOutcome, SoloCounterexample,
};
pub use lasso::{
    run_until_cycle_keyed, run_until_cycle_keyed_after, run_until_cycle_keyed_retained,
    CycleWitness, Lasso,
};
pub use valence::{decidable_values, decidable_values_with, DecidableSet};
