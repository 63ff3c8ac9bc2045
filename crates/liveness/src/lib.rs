//! Liveness properties of shared objects (Definition 3.2 and Section 5).
//!
//! A liveness property is a superset of the strongest property `Lmax`
//! (progress for all correct processes). Liveness constrains *infinite*
//! fair executions, so properties are evaluated on lassos `stem · cycle^ω`
//! ([`ExecutionView::lasso`]): a process "takes infinitely many steps" iff
//! it steps inside the cycle, and "makes progress" iff it receives a good
//! response inside the cycle (or has nothing pending). `slx-explorer`
//! finds the lassos of deterministic runs; the synthetic witness
//! executions of the incomparability arguments are written as cycles
//! directly.
//!
//! Provided properties:
//!
//! - [`LkFreedom`] — the paper's (l,k)-freedom (Definition 5.1), with the
//!   product partial order of Figure 1;
//! - [`LLockFreedom`] and [`KObstructionFreedom`] — the two halves whose
//!   union (l,k)-freedom is;
//! - [`Lmax`] — wait-freedom / local progress, depending on the
//!   [`ProgressKind`] of the object type (the paper's `G_Tp`);
//! - [`SFreedom`] — Taubenfeld's S-freedom (Section 6);
//! - [`NxLiveness`] — Imbs–Raynal–Taubenfeld (n,x)-liveness (Section 6).

#![warn(missing_docs)]

mod lk;
mod nx;
mod progress;
mod property;
mod sfreedom;

pub use lk::{KObstructionFreedom, LLockFreedom, LkFreedom};
pub use nx::NxLiveness;
pub use progress::{ExecutionView, ProgressKind};
pub use property::{LivenessProperty, Lmax};
pub use sfreedom::SFreedom;
