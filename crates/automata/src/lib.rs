//! Explicit finite I/O automata (Section 2's formal model).
//!
//! The simulator in `slx-memory` is the workhorse for running algorithms;
//! this crate is the *formal* side: explicit finite I/O automata with
//! action signatures, the composition operator of Section 2 (matched
//! input/output actions become internal), execution enumeration, the
//! fairness criterion of Section 3.2, input-enabledness, and crash
//! augmentation.
//!
//! An [`Automaton`] keeps `trans` as the table the model walks — source
//! state → action → target states — so "what can happen at `s`"
//! (`enabled`, `successors`, one step of `executions` / `executions_on`,
//! `reachable`, `compose`) reads one row and costs what that state's
//! out-degree is, not what the whole relation is. Iterating the table is
//! iterating the relation in `(from, action, to)` order, which is the
//! order every enumeration reports in.
//!
//! It exists because two of the paper's proofs are *constructions of
//! automata*, not algorithms:
//!
//! - the trivial implementation `It` that never responds (used in Theorem
//!   4.9 to show a liveness property `Lt` not weaker than any candidate
//!   `Ls`), built by [`trivial_it`];
//! - the single-response implementation `Ib` (same theorem, second half),
//!   built by [`single_response_ib`];
//!
//! and one of its lemmas is a statement about `fair(A_I)` directly
//! (Lemma 4.8: the strongest liveness property an implementation `I`
//! ensures is `Lmax ∪ fair(A_I)`), which [`strongest_ensured`] builds from
//! [`Automaton::fair_histories`] on finite truncations.
//!
//! [`extract`] connects the two sides: it builds the automaton of a
//! simulated system under every schedule, one state per distinct key, to
//! fixpoint. Figure 1(a)'s white check reads safety and solo progress off
//! the graph it extracts for the two-process register consensus.

#![warn(missing_docs)]

mod automaton;
mod extract;
mod lemma48;
mod theorem49;

pub use automaton::{Automaton, Execution, ExecutionSpace, StateId};
pub use extract::{extract, Extraction, NotClosed, Step, MAX_STATES};
pub use lemma48::{strongest_ensured, BoundedLiveness};
pub use theorem49::{single_response_ib, trivial_it};
