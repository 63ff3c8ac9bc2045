//! Safety-liveness exclusion: the paper's results as executable verdicts.
//!
//! This crate is the public façade of the workspace. It re-exports the
//! building blocks (histories, the simulator, safety and liveness
//! properties, the implementations, the adversaries, the explorer) and
//! adds the *experiment drivers* that regenerate the paper's figure,
//! corollaries and constructions. Each claim is one function that runs its
//! experiment and returns its [`claims::Claim`] row:
//!
//! - [`grid::consensus_grid`] / [`grid::tm_grid`] — **Figure 1(a)/(b)**:
//!   classify every (l,k)-freedom point as implementable (white) or
//!   excluded (black) with a machine-checked witness for the anchor
//!   points;
//! - [`theorems::corollary_4_5`] / [`theorems::corollary_4_6`] —
//!   **Corollaries 4.5 / 4.6** via Theorem 4.4: two disjoint adversary
//!   sets, hence `Gmax = ∅`, hence no weakest excluding liveness;
//! - [`counterexample::section_5_3`] — **Section 5.3**: property `S` is
//!   excluded by both (1,3)- and (2,2)-freedom yet implemented (at (1,2))
//!   by Algorithm I(1,2), so even within (l,k)-freedom no weakest
//!   excluding property exists;
//! - [`sect6::section_6`] — the **Section 6** remarks on S-freedom and
//!   (n,x)-liveness;
//! - [`blocking::non_blocking`] — the **non-blocking motivation**: a
//!   crashed lock holder starves the lock TM, not the lock-free one;
//! - [`theorems::lemma_4_8`] / [`theorems::theorem_4_9`] — **Lemma 4.8**'s
//!   strongest ensured property and **Theorem 4.9**'s automata `It` and
//!   `Ib`, at bounded scope;
//! - [`claims::ledger`] — every row above, Corollary 4.10 too, each
//!   experiment run once: printed by `cargo run --release --example
//!   claims` and checked in as `CLAIMS.txt`.
//!
//! # Quickstart
//!
//! ```
//! use slx_core::grid;
//!
//! // Figure 1(a) at n = 3: only (1,1)-freedom is implementable with
//! // consensus safety from registers.
//! let fig1a = grid::consensus_grid(3);
//! let white: Vec<String> = fig1a
//!     .points
//!     .iter()
//!     .filter(|p| p.implementable())
//!     .map(|p| p.lk.to_string())
//!     .collect();
//! assert_eq!(white, vec!["(1,1)-freedom"]);
//! ```

#![warn(missing_docs)]

pub mod blocking;
pub mod claims;
pub mod counterexample;
pub mod grid;
pub mod sect6;
pub mod theorems;

pub use grid::{Grid, GridPoint, Verdict};

// Re-export the component crates under stable names.
pub use slx_adversary as adversary;
pub use slx_automata as automata;
pub use slx_consensus as consensus;
pub use slx_engine as engine;
pub use slx_explorer as explorer;
pub use slx_history as history;
pub use slx_liveness as liveness;
pub use slx_memory as memory;
pub use slx_safety as safety;
pub use slx_tm as tm;
