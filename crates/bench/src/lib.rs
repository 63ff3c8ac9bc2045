//! Shared helpers for the figure and probe binaries.
//!
//! The binaries in `src/bin` regenerate the paper's figure and the
//! corollary demonstrations (`fig1`, `fig_gmax`, `fig_s`, `fig_sect6`,
//! `fig_ablation`) and carry two CI probes: `checkpoint_run` (real
//! SIGKILL crash/resume) and `fault_overhead` (a disabled fault plane
//! costs ≤ 1.02x). Performance is measured by the repo benchmark in
//! `benchmark/` (its own workspace), not here. See `EXPERIMENTS.md` at
//! the workspace root for the mapping from paper claims to targets.

#![warn(missing_docs)]

use slx_core::consensus::{ConsWord, ObstructionFreeConsensus};
use slx_core::history::{Operation, ProcessId, Value, VarId};
use slx_core::memory::{FairRandom, Memory, RepeatTxn, System, WorkloadScheduler};
use slx_core::tm::{AgpTm, GlobalVersionTm, LockTm, TmWord};

/// The Figure 1a anchor system: `inputs.len()` obstruction-free-consensus
/// proposers, one pending `propose` each, over 16 pre-allocated
/// commit-adopt rounds.
///
/// 16 rounds is ample for the probes' depths (a round costs each process
/// 2n + 2 steps) and keeps never-touched `⊥` registers a small share of
/// every configuration: dead registers are a memcpy for a resident clone
/// but per-object work for the spill codec.
pub fn of_system(inputs: &[i64]) -> System<ConsWord, ObstructionFreeConsensus> {
    let n = inputs.len();
    let mut mem: Memory<ConsWord> = Memory::new();
    let layout = ObstructionFreeConsensus::layout(&mut mem, n, 16);
    let procs = (0..n)
        .map(|i| ObstructionFreeConsensus::new(layout.clone(), ProcessId::new(i), n))
        .collect();
    let mut sys = System::new(mem, procs);
    for (i, &input) in inputs.iter().enumerate() {
        sys.invoke(ProcessId::new(i), Operation::Propose(Value::new(input)))
            .expect("a fresh process accepts its first invocation");
    }
    sys
}

/// Builds an `AgpTm` system of `n` processes over one variable.
pub fn agp_system(n: usize) -> System<TmWord, AgpTm> {
    let mut mem: Memory<TmWord> = Memory::new();
    let (c, r) = AgpTm::alloc(&mut mem, n, 1);
    let procs = (0..n)
        .map(|i| AgpTm::new(c, r, ProcessId::new(i), n, 1))
        .collect();
    System::new(mem, procs)
}

/// Builds a `GlobalVersionTm` system of `n` processes over one variable.
pub fn gv_system(n: usize) -> System<TmWord, GlobalVersionTm> {
    let mut mem: Memory<TmWord> = Memory::new();
    let c = GlobalVersionTm::alloc(&mut mem, 1);
    let procs = (0..n).map(|_| GlobalVersionTm::new(c, 1)).collect();
    System::new(mem, procs)
}

/// Builds a `LockTm` system of `n` processes over one variable.
pub fn lock_system(n: usize) -> System<TmWord, LockTm> {
    let mut mem: Memory<TmWord> = Memory::new();
    let (lock, store) = LockTm::alloc(&mut mem, 1);
    let procs = (0..n).map(|_| LockTm::new(lock, store, 1)).collect();
    System::new(mem, procs)
}

/// The standard contended workload scheduler: every process repeatedly
/// runs `start; read x1; write x1; tryC`, retrying on abort.
pub fn contended_scheduler(n: usize, seed: u64) -> WorkloadScheduler<RepeatTxn, FairRandom> {
    let workload = RepeatTxn::new(n, vec![VarId::new(0)], vec![VarId::new(0)], None);
    WorkloadScheduler::new(n, workload, FairRandom::new(seed))
}

/// Counts commit responses in a history.
pub fn commits(h: &slx_core::history::History) -> u64 {
    h.iter()
        .filter(|a| a.as_respond().is_some_and(|r| r.is_commit()))
        .count() as u64
}

/// Counts abort responses in a history.
pub fn aborts(h: &slx_core::history::History) -> u64 {
    h.iter()
        .filter(|a| a.as_respond().is_some_and(|r| r.is_abort()))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_running_systems() {
        let mut sys = gv_system(2);
        let mut sched = contended_scheduler(2, 1);
        sys.run(&mut sched, 500);
        assert!(commits(sys.history()) > 0);
        let _ = aborts(sys.history());
        let _ = agp_system(2);
        let _ = lock_system(2);
        assert_eq!(of_system(&[1, 2, 2]).history().len(), 3);
    }
}
