//! Simulated asynchronous shared memory.
//!
//! This crate is the executable substrate for the system model of Section 2
//! of the paper: `n` asynchronous processes that may crash, interacting only
//! through atomic primitives on *base objects* (read/write registers,
//! test-and-set, compare-and-swap, fetch-and-add, atomic snapshot), with the
//! interleaving chosen by an external *scheduler* the processes do not
//! control.
//!
//! Concurrency is simulated, not real: algorithms are step-based state
//! machines (the [`Process`] trait), each step performing at most one atomic
//! primitive, and a [`Scheduler`] decides which process steps next and which
//! invocations arrive. This is what makes the paper's adversaries (which
//! "decide on the schedule and inputs of processes") directly expressible,
//! and what makes exhaustive exploration (in `slx-explorer`) possible.
//!
//! # Examples
//!
//! Run two clients of one fetch-and-add counter under a round-robin
//! scheduler:
//!
//! ```
//! use slx_history::{Operation, ProcessId, Response, Value, VarId};
//! use slx_memory::{AtomicKind, AtomicObjectProcess, Memory, RoundRobin, System};
//!
//! let mut mem = Memory::new();
//! let counter = mem.alloc_counter(0);
//! let client = AtomicObjectProcess::new(AtomicKind::Counter, counter);
//! let mut sys = System::new(mem, vec![client.clone(), client]);
//! let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
//! sys.invoke(p0, Operation::FetchAdd(Value::new(7))).unwrap();
//! sys.invoke(p1, Operation::Read(VarId::new(0))).unwrap();
//! let mut sched = RoundRobin::new();
//! sys.run(&mut sched, 100);
//! assert!(sys.history().is_well_formed());
//! let got = |p| sys.history().responses_of(p);
//! assert_eq!(got(p0), vec![Response::ValueReturned(Value::new(0))]);
//! assert_eq!(got(p1), vec![Response::ValueReturned(Value::new(7))]);
//! ```

#![warn(missing_docs)]

mod atomic_proc;
mod base;
mod crash_injector;
mod process;
mod rng;
mod sched;
mod system;
mod workload;

pub use atomic_proc::{AtomicKind, AtomicObjectProcess};
pub use base::{BaseObject, Memory, MemoryError, ObjId, ObjRun, PrimOutcome, Primitive, Word};
pub use crash_injector::{CrashPlan, RandomCrashes};
pub use process::{Process, StepEffect};
pub use rng::SmallRng;
pub use sched::{Decision, FairRandom, RoundRobin, Scheduler, SoloScheduler};
pub use system::{Event, RunStats, System, SystemError};
pub use workload::{RepeatTxn, Workload, WorkloadScheduler};
