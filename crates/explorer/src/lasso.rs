//! Lasso detection: repeated configurations under deterministic
//! schedulers, with no event budget ([`run_until_cycle_keyed`]).

use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::Hash;

use slx_engine::DetHashMap;
use slx_liveness::{ExecutionView, LivenessProperty, ProgressKind};
use slx_memory::{Decision, Event, Process, Scheduler, System, Word};

/// A lasso: a finite stem followed by a cycle that the deterministic
/// system-plus-scheduler pair repeats forever.
///
/// Because both the system *and the scheduler state* repeated exactly, the
/// infinite execution `stem · cycle^ω` is a real execution of the system —
/// this is the constructive witness the liveness exclusion results need
/// (e.g.: a cycle with both processes stepping and no commit response is an
/// infinite fair execution violating (2,2)-freedom). The size of the system
/// it was found in is part of the execution: a process that never steps
/// in it is judged too.
#[derive(Debug, Clone)]
pub struct CycleWitness {
    /// The system size.
    pub n: usize,
    /// Events before the cycle starts.
    pub stem: Vec<Event>,
    /// Events of one cycle iteration (repeats forever).
    pub cycle: Vec<Event>,
}

impl CycleWitness {
    /// The processes that take a computation step inside the cycle.
    pub fn cycle_steppers(&self) -> Vec<slx_history::ProcessId> {
        let mut out = Vec::new();
        for e in &self.cycle {
            if let Event::Stepped(p) = e {
                if !out.contains(p) {
                    out.push(*p);
                }
            }
        }
        out.sort();
        out
    }

    /// Evaluates a liveness property on the infinite execution
    /// `stem · cycle^ω`, **exactly**: the analysis window is the cycle
    /// ([`slx_liveness::ExecutionView::lasso`]), so "steps in the window"
    /// coincides with "takes infinitely many steps" and "good response in
    /// the window" with "receives infinitely many good responses". This is
    /// the evaluation the paper's Definition 5.1 calls for, with no
    /// finite-run approximation left.
    pub fn evaluate_liveness<L: LivenessProperty>(&self, property: &L, kind: ProgressKind) -> bool {
        property.satisfied(&ExecutionView::lasso(&self.stem, &self.cycle, self.n, kind))
    }
}

/// The most distinct keys [`run_until_cycle_keyed`] holds (the cap
/// `slx_automata::extract` holds its states to) before it gives up.
pub const MAX_KEYS: usize = 1 << 17;

/// How a lasso search ended without a lasso.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoLasso {
    /// The scheduler halted, or the key repeated with nothing logged
    /// since, after `events` events (the prefix's included).
    Halted {
        /// The events logged when the run stopped.
        events: usize,
    },
    /// [`MAX_KEYS`] distinct keys were held and a new one appeared.
    NotClosed {
        /// The distinct keys held when the search stopped.
        keys: usize,
    },
}

/// A lasso search's outcome, as verdicts and reports use it: the lasso,
/// or how the search ended without one, and which responses count as
/// progress. Displays as `n processes; stem S, cycle C events`, `halted
/// after E events` or `no repeat within N keys`.
#[derive(Debug, Clone)]
pub struct Lasso {
    outcome: Result<CycleWitness, NoLasso>,
    kind: ProgressKind,
}

impl Lasso {
    /// The `outcome` of a search, judged with progress `kind`.
    pub fn new(outcome: Result<CycleWitness, NoLasso>, kind: ProgressKind) -> Self {
        Lasso { outcome, kind }
    }

    /// The lasso, if the search closed one.
    pub fn witness(&self) -> Option<&CycleWitness> {
        self.outcome.as_ref().ok()
    }

    /// The lasso, or how the search ended without one.
    pub fn outcome(&self) -> Result<&CycleWitness, NoLasso> {
        self.outcome.as_ref().map_err(|no| *no)
    }

    /// Whether `property` holds on the lasso, exactly
    /// ([`CycleWitness::evaluate_liveness`]); `None` if no lasso closed,
    /// since then there is no infinite execution to judge.
    pub fn verdict<L: LivenessProperty>(&self, property: &L) -> Option<bool> {
        let witness = self.witness()?;
        Some(witness.evaluate_liveness(property, self.kind))
    }
}

impl fmt::Display for Lasso {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.outcome {
            Ok(w) => {
                let (n, stem, cycle) = (w.n, w.stem.len(), w.cycle.len());
                write!(f, "{n} processes; stem {stem}, cycle {cycle} events")
            }
            Err(NoLasso::Halted { events }) => write!(f, "halted after {events} events"),
            Err(NoLasso::NotClosed { keys }) => write!(f, "no repeat within {keys} keys"),
        }
    }
}

/// Applies `prefix` to `sys`, then runs `scheduler` and watches for a
/// repeat of a caller-supplied **key** of the combined (system
/// configuration, scheduler state). A search ends in one of three ways:
///
/// - the key repeats: the lasso, whose stem starts with the prefix's
///   events, so what the prefix does (a crash, say) is part of the
///   execution the verdicts read;
/// - [`NoLasso::Halted`]: the scheduler decides `Halt`, or the key
///   repeats with nothing logged since (idle steps only: an empty cycle
///   is no infinite execution, and the pair is stuck there for good);
/// - [`NoLasso::NotClosed`]: [`MAX_KEYS`] distinct keys are held and a
///   new one appears.
///
/// Keys are recorded from the end of the prefix on. The scheduler must be
/// deterministic for the witness to be meaningful.
///
/// Every key is kept and compared exactly: a repeat is a repeat, never a
/// fingerprint collision between two distinct keys.
///
/// Keying is how cycles *modulo a symmetry* are found: algorithms whose
/// per-iteration state grows by a uniform shift (the TM version counter,
/// Algorithm 1's timestamps) never repeat a raw configuration, but their
/// behaviour is invariant under the shift, so a repeat of the normalized
/// key still witnesses an infinite execution (`slx-tm` provides the
/// normalizing maps and documents the invariance argument).
///
/// # Panics
///
/// Panics, naming the [`slx_memory::SystemError`], if a prefix or
/// scheduler decision does not apply: that is a bug in the scheduler or
/// the model, not an outcome of the search.
pub fn run_until_cycle_keyed<W, P, S, K>(
    sys: &mut System<W, P>,
    prefix: &[Decision],
    scheduler: &mut S,
    key: impl Fn(&System<W, P>, &S) -> K,
) -> Result<CycleWitness, NoLasso>
where
    W: Word,
    P: Process<W>,
    S: Scheduler<W, P>,
    K: Hash + Eq,
{
    let mut seen: DetHashMap<K, usize> = DetHashMap::default();
    let mut log = Vec::new();
    for decision in prefix {
        apply(sys, decision.clone(), &mut log);
    }
    seen.insert(key(sys, scheduler), log.len());
    loop {
        let decision = scheduler.decide(sys);
        if !apply(sys, decision, &mut log) {
            return Err(NoLasso::Halted { events: log.len() });
        }
        let fresh = seen.len();
        match seen.entry(key(sys, scheduler)) {
            Entry::Vacant(_) if fresh == MAX_KEYS => {
                return Err(NoLasso::NotClosed { keys: MAX_KEYS });
            }
            Entry::Vacant(slot) => {
                slot.insert(log.len());
            }
            Entry::Occupied(first) if *first.get() == log.len() => {
                return Err(NoLasso::Halted { events: log.len() });
            }
            Entry::Occupied(first) => {
                let cycle = log.split_off(*first.get());
                return Ok(CycleWitness {
                    n: sys.n(),
                    stem: log,
                    cycle,
                });
            }
        }
    }
}

/// [`System::apply`], which a lasso search never expects to fail.
fn apply<W: Word, P: Process<W>>(
    sys: &mut System<W, P>,
    decision: Decision,
    log: &mut Vec<Event>,
) -> bool {
    match sys.apply(decision.clone(), log) {
        Ok(go_on) => go_on,
        Err(e) => panic!("{decision:?} does not apply: {e} ({e:?})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    use slx_history::{Operation, ProcessId, Response, Value};
    use slx_memory::{Memory, StepEffect};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// The exact key: the whole configuration and scheduler.
    fn exact<P: Clone, S: Clone>(sys: &System<i64, P>, sched: &S) -> (System<i64, P>, S) {
        (sys.clone(), sched.clone())
    }

    /// One process, with `Propose(0)` pending.
    fn proposing<P: Process<i64>>(proc: P) -> System<i64, P> {
        let mut sys = System::new(Memory::new(), vec![proc]);
        sys.invoke(p(0), Operation::Propose(Value::new(0))).unwrap();
        sys
    }

    /// A process that loops through 3 internal states forever.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Looper(u8);

    impl Process<i64> for Looper {
        fn on_invoke(&mut self, _op: Operation) {}
        fn has_step(&self) -> bool {
            true
        }
        fn step(&mut self, _mem: &mut Memory<i64>) -> StepEffect {
            self.0 = (self.0 + 1) % 3;
            StepEffect::Ran
        }
    }

    /// A process that responds after 2 steps.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Finisher(u8);

    impl Process<i64> for Finisher {
        fn on_invoke(&mut self, _op: Operation) {
            self.0 = 2;
        }
        fn has_step(&self) -> bool {
            self.0 > 0
        }
        fn step(&mut self, _mem: &mut Memory<i64>) -> StepEffect {
            self.0 -= 1;
            if self.0 == 0 {
                StepEffect::Responded(Response::Ok)
            } else {
                StepEffect::Ran
            }
        }
    }

    /// Never has a step; stepping it anyway is idle.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Sleeper;

    impl Process<i64> for Sleeper {
        fn on_invoke(&mut self, _op: Operation) {}
        fn has_step(&self) -> bool {
            false
        }
        fn step(&mut self, _mem: &mut Memory<i64>) -> StepEffect {
            StepEffect::Idle
        }
    }

    /// Steps p1 while it can, then halts.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct StepP1;

    impl<P: Process<i64>> Scheduler<i64, P> for StepP1 {
        fn decide(&mut self, sys: &System<i64, P>) -> Decision {
            if sys.can_step(p(0)) {
                Decision::Step(p(0))
            } else {
                Decision::Halt
            }
        }
    }

    /// Steps p1 without asking whether it can.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct StepBlindly;

    impl<P: Process<i64>> Scheduler<i64, P> for StepBlindly {
        fn decide(&mut self, _sys: &System<i64, P>) -> Decision {
            Decision::Step(p(0))
        }
    }

    #[test]
    fn detects_three_step_cycle() {
        let mut sys = proposing(Looper(0));
        let w = run_until_cycle_keyed(&mut sys, &[], &mut StepP1, exact).expect("cycle exists");
        assert_eq!(w.cycle.len(), 3);
        assert_eq!(w.cycle_steppers(), vec![p(0)]);
        assert!(!w.cycle.iter().any(|e| matches!(e, Event::Responded(..))));
    }

    #[test]
    fn halting_run_yields_no_cycle() {
        let mut sys = proposing(Finisher(0));
        let outcome = run_until_cycle_keyed(&mut sys, &[], &mut StepP1, exact);
        // Two steps, the second responding.
        assert_eq!(outcome.unwrap_err(), NoLasso::Halted { events: 3 });
    }

    #[test]
    fn idle_steps_yield_no_empty_cycle() {
        // The key repeats after an idle step with nothing logged in
        // between: that is a stuck run, not a lasso with an empty cycle.
        let mut sys = System::new(Memory::new(), vec![Sleeper]);
        let outcome = run_until_cycle_keyed(&mut sys, &[], &mut StepBlindly, exact);
        assert_eq!(outcome.unwrap_err(), NoLasso::Halted { events: 0 });
    }

    #[test]
    #[should_panic(expected = "Crashed(ProcessId(0))")]
    fn a_rejected_decision_panics_naming_the_error() {
        // Stepping a crashed process is a scheduler bug, not a halt.
        let mut sys = System::new(Memory::new(), vec![Sleeper]);
        let crash = [Decision::Crash(p(0))];
        let _ = run_until_cycle_keyed(&mut sys, &crash, &mut StepBlindly, exact);
    }

    #[test]
    fn a_key_that_never_repeats_stops_at_the_cap() {
        let keys = Cell::new(0u64);
        let fresh = |_: &System<i64, Looper>, _: &StepP1| keys.replace(keys.get() + 1);
        let outcome = run_until_cycle_keyed(&mut proposing(Looper(0)), &[], &mut StepP1, fresh);
        let lasso = Lasso::new(outcome, ProgressKind::AnyResponse);
        assert_eq!(
            lasso.outcome().unwrap_err(),
            NoLasso::NotClosed { keys: MAX_KEYS }
        );
        assert_eq!(lasso.to_string(), "no repeat within 131072 keys");
    }
}
