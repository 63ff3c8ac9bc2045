//! Lasso detection: repeated configurations under deterministic schedulers.

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

/// A lasso search's outcome, as verdicts and reports use it: the lasso,
/// if one closed, and which responses count as progress. Displays as
/// `n processes; stem S, cycle C events`, or `none closed`.
#[derive(Debug, Clone)]
pub struct Lasso {
    /// The lasso, if the search closed one.
    pub witness: Option<CycleWitness>,
    /// Which responses count as progress.
    pub kind: ProgressKind,
}

impl Lasso {
    /// The outcome `witness` of a search.
    pub fn new(witness: Option<CycleWitness>, kind: ProgressKind) -> Self {
        Lasso { witness, kind }
    }

    /// Whether `property` holds on the lasso, exactly
    /// ([`CycleWitness::evaluate_liveness`]); `None` if no lasso closed,
    /// since then there is no infinite execution to judge.
    pub fn verdict<L: LivenessProperty>(&self, property: &L) -> Option<bool> {
        let witness = self.witness.as_ref()?;
        Some(witness.evaluate_liveness(property, self.kind))
    }
}

impl fmt::Display for Lasso {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some(w) = &self.witness else {
            return write!(f, "none closed");
        };
        let (stem, cycle) = (w.stem.len(), w.cycle.len());
        write!(f, "{} processes; stem {stem}, cycle {cycle} events", w.n)
    }
}

/// Applies `prefix` to `sys`, then runs `scheduler` and watches for a
/// repeat of a caller-supplied **key** of the combined (system
/// configuration, scheduler state). On a repeat, returns the lasso, whose
/// stem starts with the prefix's events, so what the prefix does (a
/// crash, say) is part of the execution the verdicts read; returns `None`
/// if `max_events` elapse first or the run halts. Keys are recorded from
/// the end of the prefix on. The scheduler must be deterministic for the
/// witness to be meaningful.
///
/// Every key is kept and compared exactly: a repeat is a repeat, never a
/// fingerprint collision between two distinct keys. The runs this
/// workspace drives close within a few thousand events, so the keys they
/// keep are a few thousand small values.
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
/// Panics if a prefix decision does not apply.
pub fn run_until_cycle_keyed<W, P, S, K>(
    sys: &mut System<W, P>,
    prefix: &[Decision],
    scheduler: &mut S,
    max_events: u64,
    key: impl Fn(&System<W, P>, &S) -> K,
) -> Option<CycleWitness>
where
    W: Word,
    P: Process<W>,
    S: Scheduler<W, P>,
    K: Hash + Eq,
{
    let mut seen: DetHashMap<K, usize> = DetHashMap::default();
    let mut log = Vec::new();
    for decision in prefix {
        sys.apply(decision.clone(), &mut log)
            .expect("a prefix decision applies");
    }
    seen.insert(key(sys, scheduler), log.len());
    for _ in 0..max_events {
        let decision = scheduler.decide(sys);
        if !matches!(sys.apply(decision, &mut log), Ok(true)) {
            return None;
        }
        match seen.entry(key(sys, scheduler)) {
            Entry::Vacant(slot) => {
                slot.insert(log.len());
            }
            // A repeat with nothing logged since (idle steps only) is no
            // lasso: an empty cycle is not an infinite execution, and the
            // pair is stuck there for good, so that ends the search like
            // a halt.
            Entry::Occupied(first) if *first.get() == log.len() => return None,
            Entry::Occupied(first) => {
                let cycle = log.split_off(*first.get());
                return Some(CycleWitness {
                    n: sys.n(),
                    stem: log,
                    cycle,
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use slx_history::{Operation, ProcessId, Response, Value};
    use slx_memory::{Memory, StepEffect};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// A process that loops through 3 internal states forever.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Looper {
        phase: u8,
        pending: bool,
    }

    impl slx_memory::Process<i64> for Looper {
        fn on_invoke(&mut self, _op: Operation) {
            self.pending = true;
        }
        fn has_step(&self) -> bool {
            self.pending
        }
        fn step(&mut self, _mem: &mut Memory<i64>) -> StepEffect {
            self.phase = (self.phase + 1) % 3;
            StepEffect::Ran
        }
    }

    /// Deterministic: always step p1.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct AlwaysP0;

    impl slx_memory::Scheduler<i64, Looper> for AlwaysP0 {
        fn decide(&mut self, sys: &System<i64, Looper>) -> Decision {
            if sys.can_step(p(0)) {
                Decision::Step(p(0))
            } else {
                Decision::Halt
            }
        }
    }

    #[test]
    fn detects_three_step_cycle() {
        let mem: Memory<i64> = Memory::new();
        let mut sys = System::new(
            mem,
            vec![Looper {
                phase: 0,
                pending: false,
            }],
        );
        sys.invoke(p(0), Operation::Propose(Value::new(0))).unwrap();
        let mut sched = AlwaysP0;
        let w = run_until_cycle_keyed(&mut sys, &[], &mut sched, 100, |sys, sched| {
            (sys.clone(), sched.clone())
        })
        .expect("cycle exists");
        assert_eq!(w.cycle.len(), 3);
        assert_eq!(w.cycle_steppers(), vec![p(0)]);
        assert!(!w.cycle.iter().any(|e| matches!(e, Event::Responded(..))));
    }

    /// A process that responds after 2 steps — no cycle while productive.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Finisher {
        remaining: u8,
    }

    impl slx_memory::Process<i64> for Finisher {
        fn on_invoke(&mut self, _op: Operation) {
            self.remaining = 2;
        }
        fn has_step(&self) -> bool {
            self.remaining > 0
        }
        fn step(&mut self, _mem: &mut Memory<i64>) -> StepEffect {
            self.remaining -= 1;
            if self.remaining == 0 {
                StepEffect::Responded(Response::Ok)
            } else {
                StepEffect::Ran
            }
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct StepOnce;

    impl slx_memory::Scheduler<i64, Finisher> for StepOnce {
        fn decide(&mut self, sys: &System<i64, Finisher>) -> Decision {
            if sys.can_step(p(0)) {
                Decision::Step(p(0))
            } else {
                Decision::Halt
            }
        }
    }

    #[test]
    fn halting_run_yields_no_cycle() {
        let mem: Memory<i64> = Memory::new();
        let mut sys = System::new(mem, vec![Finisher { remaining: 0 }]);
        sys.invoke(p(0), Operation::Propose(Value::new(0))).unwrap();
        let mut sched = StepOnce;
        let witness = run_until_cycle_keyed(&mut sys, &[], &mut sched, 100, |sys, sched| {
            (sys.clone(), sched.clone())
        });
        assert!(witness.is_none());
    }

    /// Never has a step; stepping it anyway is idle.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Sleeper;

    impl slx_memory::Process<i64> for Sleeper {
        fn on_invoke(&mut self, _op: Operation) {}
        fn has_step(&self) -> bool {
            false
        }
        fn step(&mut self, _mem: &mut Memory<i64>) -> StepEffect {
            StepEffect::Idle
        }
    }

    /// Steps p1 without asking whether it can.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct StepBlindly;

    impl slx_memory::Scheduler<i64, Sleeper> for StepBlindly {
        fn decide(&mut self, _sys: &System<i64, Sleeper>) -> Decision {
            Decision::Step(p(0))
        }
    }

    #[test]
    fn idle_steps_yield_no_empty_cycle() {
        // The key repeats after an idle step with nothing logged in
        // between: that is a stuck run, not a lasso with an empty cycle.
        let key = |sys: &System<i64, Sleeper>, sched: &StepBlindly| (sys.clone(), sched.clone());
        let mut sys = System::new(Memory::new(), vec![Sleeper]);
        assert!(run_until_cycle_keyed(&mut sys, &[], &mut StepBlindly, 100, key).is_none());
    }
}
