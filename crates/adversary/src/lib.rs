//! Adversaries and adversary sets (Definition 4.3).
//!
//! An adversary "decides on the schedule and inputs of processes" to make
//! any implementation of a safety property violate a liveness property.
//! Adversaries here are deterministic [`slx_memory::Scheduler`]s (plus, for
//! consensus, a valence oracle), so their runs can be analyzed exactly —
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
//!   ([`run_bivalence_adversary_with`] drives it for a fixed budget);
//! - §4.1 TM: the three-step starvation strategy ([`TmStarvation`]) and
//!   its role-swapped twin, behind Corollary 4.6 and the black point
//!   `(2,2)` of Figure 1b;
//! - §5.3: the three-process synchronized-round strategy
//!   ([`TripleRoundAdversary`]) showing (1,3)-freedom excludes property
//!   `S`.
//!
//! Beside the consensus and §5.3 strategies lives the cycle-detection key
//! for the algorithm each starves ([`normalized_of_consensus_key`],
//! [`normalized_triple_round_key`]). The §4.1 TM strategy runs against
//! every TM, so its driver (`slx_core::grid::starvation_lasso`) joins the
//! TM's normalizer with [`TmStarvation::normalized_state`].

#![warn(missing_docs)]

mod bivalence;
mod consensus_sets;
mod counterexample_s;
mod tm_starvation;

pub use bivalence::{
    normalized_of_consensus_key, run_bivalence_adversary_with, BivalenceReport, BivalenceScheduler,
};
pub use consensus_sets::{consensus_f1, consensus_f2, gmax_of};
pub use counterexample_s::{normalized_triple_round_key, TripleRoundAdversary};
pub use tm_starvation::TmStarvation;
