//! Crash injection: wrapping schedulers with failure plans.

use slx_history::ProcessId;

use crate::rng::SmallRng;

use crate::base::Word;
use crate::process::Process;
use crate::sched::{Decision, Scheduler};
use crate::system::System;

/// Wraps a scheduler and crashes designated processes at designated event
/// counts — the deterministic failure plans used by the failure-injection
/// tests (the model of Section 2 allows *any* number of crash failures).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CrashPlan<S> {
    inner: S,
    /// `(event_index, process)` pairs, sorted by event index.
    plan: Vec<(u64, ProcessId)>,
    events_seen: u64,
}

impl<S> CrashPlan<S> {
    /// Crashes each listed process the first time the scheduler is
    /// consulted at or after the given event count.
    pub fn new(inner: S, mut plan: Vec<(u64, ProcessId)>) -> Self {
        plan.sort_by_key(|(at, _)| *at);
        CrashPlan {
            inner,
            plan,
            events_seen: 0,
        }
    }
}

impl<W, P, S> Scheduler<W, P> for CrashPlan<S>
where
    W: Word,
    P: Process<W>,
    S: Scheduler<W, P>,
{
    fn decide(&mut self, sys: &System<W, P>) -> Decision {
        self.events_seen += 1;
        if let Some(&(at, p)) = self.plan.first() {
            if self.events_seen >= at && !sys.is_crashed(p) {
                self.plan.remove(0);
                return Decision::Crash(p);
            }
        }
        self.inner.decide(sys)
    }
}

/// Wraps a scheduler and crashes each still-alive process independently
/// with a small probability per decision, leaving at least `min_alive`
/// processes alive. Randomized failure injection for soak tests.
#[derive(Debug, Clone)]
pub struct RandomCrashes<S> {
    inner: S,
    rng: SmallRng,
    /// Probability (×10⁻³) of injecting a crash at each decision.
    per_mille: u32,
    min_alive: usize,
}

impl<S> RandomCrashes<S> {
    /// Creates the wrapper; `per_mille` is the per-decision crash
    /// probability in thousandths.
    pub fn new(inner: S, seed: u64, per_mille: u32, min_alive: usize) -> Self {
        RandomCrashes {
            inner,
            rng: SmallRng::seed_from_u64(seed),
            per_mille,
            min_alive,
        }
    }
}

impl<W, P, S> Scheduler<W, P> for RandomCrashes<S>
where
    W: Word,
    P: Process<W>,
    S: Scheduler<W, P>,
{
    fn decide(&mut self, sys: &System<W, P>) -> Decision {
        let alive: Vec<ProcessId> = ProcessId::all(sys.n())
            .filter(|&p| !sys.is_crashed(p))
            .collect();
        if alive.len() > self.min_alive && self.rng.gen_index(1000) < self.per_mille as usize {
            let victim = alive[self.rng.gen_index(alive.len())];
            return Decision::Crash(victim);
        }
        self.inner.decide(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::{Memory, ObjId, PrimOutcome, Primitive};
    use crate::process::StepEffect;
    use crate::sched::RoundRobin;
    use slx_history::{Operation, Response, Value, VarId};

    /// A client of one read/write register: each operation is a single
    /// primitive, so a process is crashable between any two operations.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct RegisterProcess {
        reg: ObjId,
        pending: Option<Operation>,
    }

    impl RegisterProcess {
        fn new(reg: ObjId) -> Self {
            RegisterProcess { reg, pending: None }
        }
    }

    impl Process<i64> for RegisterProcess {
        fn on_invoke(&mut self, op: Operation) {
            self.pending = Some(op);
        }

        fn has_step(&self) -> bool {
            self.pending.is_some()
        }

        fn step(&mut self, mem: &mut Memory<i64>) -> StepEffect {
            let resp = match self.pending.take() {
                None => return StepEffect::Idle,
                Some(Operation::Read(_)) => match mem.apply(Primitive::Read(self.reg)) {
                    Ok(PrimOutcome::Value(v)) => Response::ValueReturned(Value::new(v)),
                    other => unreachable!("a register read returns a value, got {other:?}"),
                },
                Some(Operation::Write(_, v)) => {
                    mem.apply(Primitive::Write(self.reg, v.raw()))
                        .expect("register allocated");
                    Response::Ok
                }
                Some(other) => panic!("a register cannot execute {other}"),
            };
            StepEffect::Responded(resp)
        }
    }

    fn sys3() -> System<i64, RegisterProcess> {
        let mut mem: Memory<i64> = Memory::new();
        let reg = mem.alloc_register(0);
        let procs = (0..3).map(|_| RegisterProcess::new(reg)).collect();
        System::new(mem, procs)
    }

    #[test]
    fn crash_plan_fires_in_order() {
        let mut sys = sys3();
        for i in 0..3 {
            sys.invoke(
                ProcessId::new(i),
                Operation::Write(VarId::new(0), Value::new(i as i64)),
            )
            .unwrap();
        }
        let plan = vec![(1, ProcessId::new(2)), (2, ProcessId::new(0))];
        let mut sched = CrashPlan::new(RoundRobin::new(), plan);
        sys.run(&mut sched, 100);
        assert!(sys.is_crashed(ProcessId::new(0)));
        assert!(!sys.is_crashed(ProcessId::new(1)));
        assert!(sys.is_crashed(ProcessId::new(2)));
        // The survivor completed its write.
        assert_eq!(sys.history().responses_of(ProcessId::new(1)).len(), 1);
        assert!(sys.history().is_well_formed());
    }

    #[test]
    fn random_crashes_respect_min_alive() {
        for seed in 0..20 {
            let mut sys = sys3();
            for i in 0..3 {
                sys.invoke(
                    ProcessId::new(i),
                    Operation::Write(VarId::new(0), Value::new(1)),
                )
                .unwrap();
            }
            let mut sched = RandomCrashes::new(RoundRobin::new(), seed, 500, 1);
            sys.run(&mut sched, 200);
            let alive = ProcessId::all(3).filter(|&p| !sys.is_crashed(p)).count();
            assert!(alive >= 1, "seed {seed}");
        }
    }
}
