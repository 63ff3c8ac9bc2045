//! Adversaries and adversary sets (Definition 4.3).
//!
//! An adversary "decides on the schedule and inputs of processes" to make
//! any implementation of a safety property violate a liveness property.
//! Adversaries here are deterministic [`slx_memory::Scheduler`]s (plus, for
//! consensus, a bivalence oracle), so their runs can be analyzed exactly —
//! including cycle detection, which turns a finite run into a proof of an
//! infinite starving execution.
//!
//! Contents, by paper section:
//!
//! - §4.1 consensus: the explicit adversary sets `F1`/`F2`
//!   ([`consensus_f1`], [`consensus_f2`]) whose disjointness gives
//!   `Gmax = ∅` and Corollary 4.5, and the constructive
//!   [`BivalenceScheduler`] — *computing* the Chor–Israeli–Li schedule
//!   against any deterministic register-based consensus implementation
//!   from a bivalence oracle it is given ([`run_bivalence_adversary_with`]
//!   drives it for a fixed budget on kernel valence queries);
//! - §4.1 TM: the three-step starvation strategy ([`TmStarvation`]) and
//!   its role-swapped twin, behind Corollary 4.6 and the black point
//!   `(2,2)` of Figure 1b;
//! - §5.3: the three-process synchronized-round strategy
//!   ([`TripleRoundAdversary`]) showing (1,3)-freedom excludes property
//!   `S`.
//!
//! Beside the §5.3 strategy lives the cycle-detection key for the
//! algorithm it starves ([`normalized_triple_round_key`]). The bivalence
//! and §4.1 TM strategies run against any implementation, so their
//! drivers (`slx_core::grid::bivalence_lasso`, `starvation_lasso`) join
//! the caller's key with [`BivalenceScheduler::normalized_counts`] or
//! [`TmStarvation::normalized_state`].

#![warn(missing_docs)]

mod bivalence;
mod consensus_sets;
mod counterexample_s;
mod tm_starvation;

pub use bivalence::{run_bivalence_adversary_with, BivalenceReport, BivalenceScheduler};
pub use consensus_sets::{consensus_f1, consensus_f2, gmax_of};
pub use counterexample_s::{normalized_triple_round_key, TripleRoundAdversary};
pub use tm_starvation::TmStarvation;
