//! Shared helpers for the figure and probe binaries.
//!
//! The binaries in `src/bin` regenerate the paper's figure and the
//! corollary demonstrations (`fig1`, `fig_gmax`, `fig_s`, `fig_sect6`,
//! `fig_ablation`) and carry one CI probe: `fault_overhead` (a disabled
//! fault plane costs ≤ 1.02x). Performance is measured by the repo
//! benchmark in `benchmark/` (its own workspace), not here. See
//! `EXPERIMENTS.md` at the workspace root for the mapping from paper
//! claims to targets.

#![warn(missing_docs)]

use slx_core::history::VarId;
use slx_core::memory::{FairRandom, RepeatTxn, WorkloadScheduler};

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
        let mut sys = slx_core::tm::GlobalVersionTm::system(2, 1);
        let mut sched = contended_scheduler(2, 1);
        sys.run(&mut sched, 500);
        assert!(commits(sys.history()) > 0);
        let _ = aborts(sys.history());
    }
}
