//! Safety-liveness exclusion: the paper's results as executable verdicts.
//!
//! This crate is the public façade of the workspace. It re-exports the
//! building blocks (histories, the simulator, safety and liveness
//! properties, the implementations, the adversaries, the explorer) and
//! adds the *experiment drivers* that regenerate the paper's figure and
//! corollaries:
//!
//! - [`grid::consensus_grid`] / [`grid::tm_grid`] — **Figure 1(a)/(b)**:
//!   classify every (l,k)-freedom point as implementable (white) or
//!   excluded (black) with a machine-checked witness for the anchor
//!   points;
//! - [`theorems::consensus_gmax_demo`] / [`theorems::tm_gmax_demo`] —
//!   **Corollaries 4.5 / 4.6** via Theorem 4.4: two disjoint adversary
//!   sets, hence `Gmax = ∅`, hence no weakest excluding liveness;
//! - [`counterexample::run_counterexample_s`] — **Section 5.3**: property
//!   `S` is excluded by both (1,3)- and (2,2)-freedom yet implemented (at
//!   (1,2)) by Algorithm I(1,2), so even within (l,k)-freedom no weakest
//!   excluding property exists;
//! - [`sect6`] — the **Section 6** remarks on S-freedom and
//!   (n,x)-liveness;
//! - [`claims::ledger`] — these verdicts, Corollary 4.10 and the
//!   [`blocking`] contrast as one ledger of claims with their evidence,
//!   printed by `cargo run --release --example claims` and checked in as
//!   `CLAIMS.txt`. Lemma 4.8 and Theorem 4.9's constructions are not
//!   experiments here; `cargo run --release --example automata_tour`
//!   prints them.
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
