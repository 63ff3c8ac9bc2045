//! The Chor–Israeli–Li adversary against register-based consensus.
//!
//! The adversary steers by a bivalence oracle. `slx_core::grid::bivalence_lasso`
//! reads valence off the consensus's extracted graph, one lookup per
//! candidate step; [`run_bivalence_adversary_with`] asks the exploration
//! kernel instead, one [`decidable_values_with`] query per candidate step,
//! and is the reference the graph is checked against.

use std::hash::Hash;

use slx_engine::{Checker, DeltaCodec};
use slx_explorer::decidable_values_with;
use slx_history::{History, ProcessId, Value};
use slx_memory::{Decision, Process, Scheduler, StepEffect, System, Word};

/// Report of a [`run_bivalence_adversary_with`] run.
#[derive(Debug, Clone)]
pub struct BivalenceReport {
    /// Steps the adversary scheduled.
    pub steps: u64,
    /// Per-process step counts (both must grow for the (1,2)-freedom
    /// violation to be about two *steppers*).
    pub step_counts: Vec<u64>,
    /// Whether any process decided (the adversary *loses* if so).
    pub decided: bool,
    /// Whether every configuration along the path had two witnessed
    /// decidable values (the Chor–Israeli–Li invariant).
    pub bivalent_throughout: bool,
    /// The driven history.
    pub history: History,
    /// Total configurations model-checked across all valence queries — the
    /// work the exploration kernel discharged for this run.
    pub valence_configs: u64,
}

impl BivalenceReport {
    /// Whether the adversary succeeded: it kept the implementation from
    /// deciding for the whole budget while both processes kept stepping
    /// and every configuration remained (witnessed) bivalent.
    pub fn adversary_won(&self) -> bool {
        !self.decided && self.bivalent_throughout && self.step_counts.iter().all(|&c| c > 0)
    }
}

/// Runs the **Chor–Israeli–Li adversary** ([`BivalenceScheduler`]) for
/// `budget` steps against a deterministic consensus implementation: a
/// [`System`] whose two `active` processes have already proposed two
/// *different* values. Valence is a [`decidable_values_with`] query of up
/// to `valence_budget` configurations on `checker`, which can pin the
/// queries to a thread/shard configuration or a frontier memory budget
/// (`Checker::auto()` is the default).
///
/// If no step is witnessed to keep the configuration bivalent the run
/// stops and reports `bivalent_throughout = false`. The run is a finite
/// prefix; `slx_core::grid::bivalence_lasso` proves the starvation eternal.
pub fn run_bivalence_adversary_with<W, P>(
    checker: &Checker,
    sys: &mut System<W, P>,
    active: &[ProcessId],
    budget: u64,
    valence_budget: usize,
) -> BivalenceReport
where
    W: Word + DeltaCodec + Send + Sync,
    P: Process<W> + DeltaCodec + Clone + Eq + Hash + Send + Sync,
{
    let mut valence_configs = 0;
    let mut sched = BivalenceScheduler {
        proposals: Vec::new(),
        active: active.to_vec(),
        step_counts: vec![0; sys.n()],
        bivalent: |next: &System<W, P>| {
            let d = decidable_values_with(checker, next, active, valence_budget);
            valence_configs += d.configs as u64;
            d.bivalent()
        },
    };
    let run = sys.run(&mut sched, budget);
    BivalenceReport {
        steps: run.steps,
        step_counts: sched.step_counts,
        decided: sys
            .history()
            .iter()
            .any(|a| matches!(a, slx_history::Action::Respond { .. })),
        bivalent_throughout: !run.halted,
        history: sys.history().clone(),
        valence_configs,
    }
}

/// The Chor–Israeli–Li adversary as a deterministic [`Scheduler`]: it
/// first issues each configured proposal, then at every decision clones
/// the system, steps each candidate process in the clone, and steps the
/// least-stepped process after whose step its oracle calls the
/// configuration bivalent (halting if none exists — which, against
/// register-based consensus, the CIL theorem rules out — or if any
/// process ever decides, which means the adversary lost). Issuing the
/// invocations from inside the scheduler puts them *in the detected
/// lasso's stem*, so liveness evaluation on the cycle sees the processes
/// as pending-and-denied rather than inactive.
#[derive(Debug, Clone)]
pub struct BivalenceScheduler<V> {
    proposals: Vec<(ProcessId, Value)>,
    active: Vec<ProcessId>,
    step_counts: Vec<u64>,
    bivalent: V,
}

impl<V> BivalenceScheduler<V> {
    /// Creates the scheduler: it will invoke `Propose(v)` for each
    /// `(process, v)` pair (the values should differ, or there is nothing
    /// to keep bivalent), then schedule the steps after which `bivalent`
    /// holds of the configuration.
    #[must_use]
    pub fn new(proposals: Vec<(ProcessId, Value)>, bivalent: V) -> Self {
        let active: Vec<ProcessId> = proposals.iter().map(|&(p, _)| p).collect();
        let slots = active.iter().map(|p| p.index() + 1).max().unwrap_or(0);
        BivalenceScheduler {
            proposals,
            step_counts: vec![0; slots],
            active,
            bivalent,
        }
    }

    /// The **active** processes' step counters (in proposal order),
    /// rebased to their minimum. The scheduler's behaviour depends on the
    /// counters only through their order, which the rebase preserves — so
    /// this is the shift-free key component for cycle detection, exactly
    /// like `slx_tm::normalize`'s timestamp rebase. Only active slots
    /// participate: the backing vector is indexed by raw process id, and
    /// an inactive id below the highest active one would otherwise pin
    /// the minimum at a phantom zero, leaving the rebased counters
    /// growing forever and the cycle key never repeating.
    #[must_use]
    pub fn normalized_counts(&self) -> Vec<u64> {
        let min = self
            .active
            .iter()
            .map(|p| self.step_counts[p.index()])
            .min()
            .unwrap_or(0);
        self.active
            .iter()
            .map(|p| self.step_counts[p.index()] - min)
            .collect()
    }
}

impl<W, P, V> Scheduler<W, P> for BivalenceScheduler<V>
where
    W: Word,
    P: Process<W> + Clone,
    V: FnMut(&System<W, P>) -> bool,
{
    fn decide(&mut self, sys: &System<W, P>) -> Decision {
        // The adversary lost the moment anyone decided.
        if self
            .active
            .iter()
            .any(|&p| !sys.history().responses_of(p).is_empty())
        {
            return Decision::Halt;
        }
        // Issue outstanding proposals first (processes here never respond,
        // so "not pending" means "not yet proposed").
        for &(p, v) in &self.proposals {
            if !sys.is_pending(p) {
                return Decision::Invoke(p, slx_history::Operation::Propose(v));
            }
        }
        let mut candidates: Vec<ProcessId> = self
            .active
            .iter()
            .copied()
            .filter(|&p| sys.can_step(p))
            .collect();
        candidates.sort_by_key(|p| self.step_counts[p.index()]);
        for p in candidates {
            let mut next = sys.clone();
            let effect = next.step(p).expect("steppable");
            if matches!(effect, StepEffect::Responded(_)) {
                // Stepping p would decide now; a bivalence-preserving
                // adversary never takes that edge.
                continue;
            }
            if (self.bivalent)(&next) {
                self.step_counts[p.index()] += 1;
                return Decision::Step(p);
            }
        }
        // No step keeps the configuration bivalent: the adversary is
        // beaten.
        Decision::Halt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slx_consensus::{round_shift_key, CasConsensus, ConsWord, ObstructionFreeConsensus};
    use slx_explorer::NoLasso;
    use slx_history::{Operation, Value};
    use slx_memory::Memory;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn v(x: i64) -> Value {
        Value::new(x)
    }

    #[test]
    fn the_scheduler_is_its_schedule_and_its_oracle() {
        // Valence comes from the oracle the caller passes. A scheduler
        // that asked the kernel itself would carry a `Checker`, and with
        // it the budget and truncation flag a capped query needs: any
        // such field shows here, beside the three vectors of the schedule.
        let oracle = |_: &System<ConsWord, ObstructionFreeConsensus>| true;
        let scheduler = BivalenceScheduler::new(vec![(p(0), v(1)), (p(1), v(2))], oracle);
        let schedule = 3 * std::mem::size_of::<Vec<u64>>();
        assert_eq!(std::mem::size_of_val(&scheduler), schedule);
    }

    #[test]
    fn adversary_starves_register_consensus() {
        // Corollary 4.5 / Theorem 5.2, excluded side: the adversary keeps
        // the obstruction-free register consensus undecided for the whole
        // budget, with both processes stepping.
        let mut sys = ObstructionFreeConsensus::proposers(&[1, 2], 64);
        let report =
            run_bivalence_adversary_with(&Checker::auto(), &mut sys, &[p(0), p(1)], 150, 60_000);
        assert!(
            report.adversary_won(),
            "decided={} bivalent={} counts={:?}",
            report.decided,
            report.bivalent_throughout,
            report.step_counts
        );
        assert_eq!(report.steps, 150);
        // Both processes are still pending: nobody decided.
        assert!(report.history.pending(p(0)));
        assert!(report.history.pending(p(1)));
    }

    #[test]
    fn adversary_verdict_survives_replay_spilled_valence_queries() {
        // The adversary's inner loop is thousands of valence
        // model-checking runs; pin them to a tiny frontier budget with
        // replay (recompute-from-parent) spill records and the driven
        // schedule must not change at all: same steps, same history, same
        // model-checking work.
        use slx_engine::SpillCodec;
        let scenario = || ObstructionFreeConsensus::proposers(&[1, 2], 64);
        let mut resident_sys = scenario();
        let resident = run_bivalence_adversary_with(
            &Checker::parallel_bfs(1).with_mem_budget(0),
            &mut resident_sys,
            &[p(0), p(1)],
            40,
            60_000,
        );
        assert!(resident.adversary_won(), "baseline must win");
        let mut replay_sys = scenario();
        let replayed = run_bivalence_adversary_with(
            &Checker::parallel_bfs(1)
                .with_mem_budget(2048)
                .with_spill_codec(SpillCodec::Replay),
            &mut replay_sys,
            &[p(0), p(1)],
            40,
            60_000,
        );
        assert!(replayed.adversary_won());
        assert_eq!(replayed.steps, resident.steps);
        assert_eq!(replayed.step_counts, resident.step_counts);
        assert_eq!(replayed.history, resident.history);
        assert_eq!(replayed.valence_configs, resident.valence_configs);
    }

    /// A fresh OF-consensus system with *no* proposals issued yet: the
    /// [`BivalenceScheduler`] invokes them itself, so they land inside
    /// the detected lasso's stem.
    fn of_system(max_rounds: usize) -> System<ConsWord, ObstructionFreeConsensus> {
        ObstructionFreeConsensus::system(2, max_rounds)
    }

    fn decides_on_cycle(witness: &slx_explorer::CycleWitness) -> bool {
        let decision = |e: &_| matches!(e, slx_memory::Event::Responded(..));
        witness.cycle.iter().any(decision)
    }

    /// The scheduler proposing 1 by `a` and 2 by `b`, deciding valence by
    /// kernel queries over `a` and `b`.
    fn cil_scheduler<W, P>(
        a: ProcessId,
        b: ProcessId,
    ) -> BivalenceScheduler<impl FnMut(&System<W, P>) -> bool>
    where
        W: Word + DeltaCodec + Send + Sync,
        P: Process<W> + DeltaCodec + Clone + Eq + Hash + Send + Sync,
    {
        let checker = Checker::auto();
        let oracle = move |next: &System<W, P>| {
            decidable_values_with(&checker, next, &[a, b], 60_000).bivalent()
        };
        BivalenceScheduler::new(vec![(a, v(1)), (b, v(2))], oracle)
    }

    #[test]
    fn bivalence_lasso_proves_eternal_starvation() {
        // Corollary 4.10 upgraded from a finite prefix to a lasso: the
        // scheduler form of the CIL adversary, keyed modulo a round
        // shift, repeats — so the starvation is an infinite execution
        // `stem · cycle^ω` with both processes stepping forever and no
        // response ever issued, violating (1,2)-freedom exactly.
        let mut sys = of_system(64);
        let mut sched = cil_scheduler(p(0), p(1));
        let witness = slx_explorer::run_until_cycle_keyed(&mut sys, &[], &mut sched, |s, sched| {
            (round_shift_key(s), sched.normalized_counts())
        })
        .expect("the CIL adversary must drive a round-shift cycle");
        assert_eq!(witness.cycle_steppers(), vec![p(0), p(1)]);
        assert!(!decides_on_cycle(&witness), "no decisions");
        use slx_liveness::{LkFreedom, ProgressKind};
        assert!(!witness.evaluate_liveness(&LkFreedom::new(1, 2), ProgressKind::AnyResponse));
        assert!(!witness.evaluate_liveness(&LkFreedom::new(2, 2), ProgressKind::AnyResponse));
        // (1,1)-freedom holds vacuously on the cycle: two steppers > k=1.
        assert!(witness.evaluate_liveness(&LkFreedom::new(1, 1), ProgressKind::AnyResponse));
    }

    #[test]
    fn bivalence_lasso_closes_for_nonzero_based_processes() {
        // Regression: with active processes {p1, p2} the raw counter
        // vector has a phantom slot for the never-active p0. The
        // normalized counts must rebase over the *active* slots only —
        // a phantom zero would pin the minimum, the rebased counters
        // would grow forever, and the cycle key would never repeat.
        let mut sys = ObstructionFreeConsensus::system(3, 64);
        let mut sched = cil_scheduler(p(1), p(2));
        let witness = slx_explorer::run_until_cycle_keyed(&mut sys, &[], &mut sched, |s, sched| {
            (round_shift_key(s), sched.normalized_counts())
        })
        .expect("cycle must close despite the phantom p0 counter slot");
        assert_eq!(witness.cycle_steppers(), vec![p(1), p(2)]);
        assert!(!decides_on_cycle(&witness));
    }

    #[test]
    fn adversary_cannot_starve_cas_consensus() {
        // Against CAS-based consensus the very first step of either
        // process makes the configuration univalent, so no bivalence-
        // preserving step exists: the adversary loses immediately. This is
        // Figure 1a's caveat "from registers" made executable.
        let cas_system = || {
            let mut mem: Memory<ConsWord> = Memory::new();
            let obj = CasConsensus::alloc(&mut mem);
            System::new(mem, vec![CasConsensus::new(obj), CasConsensus::new(obj)])
        };
        let mut sys = cas_system();
        sys.invoke(p(0), Operation::Propose(v(1))).unwrap();
        sys.invoke(p(1), Operation::Propose(v(2))).unwrap();
        let report =
            run_bivalence_adversary_with(&Checker::auto(), &mut sys, &[p(0), p(1)], 50, 10_000);
        assert!(!report.adversary_won());
        assert!(!report.bivalent_throughout);
        // The control for the (1,2) lasso: once both proposals are
        // issued the scheduler halts, beaten, before any step.
        let mut sys = cas_system();
        let mut sched = cil_scheduler(p(0), p(1));
        let outcome = slx_explorer::run_until_cycle_keyed(&mut sys, &[], &mut sched, |s, sched| {
            (s.digest128(), sched.normalized_counts())
        });
        assert_eq!(outcome.unwrap_err(), NoLasso::Halted { events: 2 });
    }

    #[test]
    fn equal_proposals_leave_adversary_powerless() {
        // With equal proposals the configuration is univalent from the
        // start; the adversary has nothing to preserve.
        let mut sys = ObstructionFreeConsensus::proposers(&[5, 5], 64);
        let report =
            run_bivalence_adversary_with(&Checker::auto(), &mut sys, &[p(0), p(1)], 50, 20_000);
        assert!(!report.adversary_won());
    }
}
