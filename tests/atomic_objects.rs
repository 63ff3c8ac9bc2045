//! The hardware object types (Section 2's base-object menagerie) as shared
//! objects: linearizability of the one-primitive implementations, checked
//! per schedule and exhaustively at small scope. The counter's control is
//! [`SplitCounter`], whose increment is not one primitive.

use safety_liveness_exclusion::engine::{DeltaCodec, StateCodec};
use safety_liveness_exclusion::explorer::{explore_safety, history_digest, ExploreOutcome};
use safety_liveness_exclusion::history::{Operation, ProcessId, Response, Value};
use safety_liveness_exclusion::memory::{
    AtomicKind, AtomicObjectProcess, FairRandom, Memory, ObjId, Primitive, Process, StepEffect,
    System,
};
use safety_liveness_exclusion::safety::{CasSpec, CounterSpec, Linearizability, TasSpec};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn system(kind: AtomicKind, n: usize) -> System<i64, AtomicObjectProcess> {
    let mut mem: Memory<i64> = Memory::new();
    let obj = match kind {
        AtomicKind::Tas => mem.alloc_tas(),
        AtomicKind::Cas => mem.alloc_cas(0),
        AtomicKind::Counter => mem.alloc_counter(0),
    };
    let procs = (0..n)
        .map(|_| AtomicObjectProcess::new(kind, obj))
        .collect();
    System::new(mem, procs)
}

#[test]
fn tas_histories_linearizable_across_seeds() {
    let lin = Linearizability::new(TasSpec::new());
    for seed in 0..20 {
        let mut sys = system(AtomicKind::Tas, 3);
        for i in 0..3 {
            sys.invoke(p(i), Operation::TestAndSet).unwrap();
        }
        sys.run(&mut FairRandom::new(seed), 100);
        assert!(lin.is_linearizable(sys.history()), "seed {seed}");
    }
}

#[test]
fn tas_exhaustive_all_schedules() {
    let mut sys = system(AtomicKind::Tas, 3);
    for i in 0..3 {
        sys.invoke(p(i), Operation::TestAndSet).unwrap();
    }
    let lin = Linearizability::new(TasSpec::new());
    let out = explore_safety(&sys, &[p(0), p(1), p(2)], 6, &lin, history_digest);
    assert!(out.holds(), "violations: {:?}", out.violations);
    assert!(!out.truncated, "3 one-step processes finish within depth 6");
}

#[test]
fn cas_histories_linearizable_across_seeds() {
    let lin = Linearizability::new(CasSpec::new(Value::new(0)));
    for seed in 0..20 {
        let mut sys = system(AtomicKind::Cas, 3);
        for i in 0..3 {
            sys.invoke(
                p(i),
                Operation::CompareAndSwap {
                    expected: Value::new(0),
                    new: Value::new(i as i64 + 1),
                },
            )
            .unwrap();
        }
        sys.run(&mut FairRandom::new(seed), 100);
        assert!(lin.is_linearizable(sys.history()), "seed {seed}");
    }
}

#[test]
fn counter_histories_linearizable_across_seeds() {
    let lin = Linearizability::new(CounterSpec::new(Value::new(0)));
    for seed in 0..20 {
        let mut sys = system(AtomicKind::Counter, 3);
        for i in 0..3 {
            sys.invoke(p(i), Operation::FetchAdd(Value::new(1)))
                .unwrap();
        }
        sys.run(&mut FairRandom::new(seed), 100);
        assert!(lin.is_linearizable(sys.history()), "seed {seed}");
    }
}

/// Planted bug: a counter whose `fetch-and-add` is a read step and a
/// separate write step on a register, so two increments can read the
/// same value and both return it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SplitCounter {
    reg: ObjId,
    /// The pending increment's delta.
    delta: Option<i64>,
    /// The value the pending increment read.
    read: Option<i64>,
}

impl Process<i64> for SplitCounter {
    fn on_invoke(&mut self, op: Operation) {
        let Operation::FetchAdd(delta) = op else {
            panic!("the split counter serves fetch-and-add only, got {op}");
        };
        self.delta = Some(delta.raw());
    }

    fn has_step(&self) -> bool {
        self.delta.is_some()
    }

    fn step(&mut self, mem: &mut Memory<i64>) -> StepEffect {
        let Some(delta) = self.delta else {
            return StepEffect::Idle;
        };
        match self.read.take() {
            None => {
                let v = mem.apply(Primitive::Read(self.reg)).unwrap().expect_value();
                self.read = Some(v);
                StepEffect::Ran
            }
            Some(prev) => {
                mem.apply(Primitive::Write(self.reg, prev + delta)).unwrap();
                self.delta = None;
                StepEffect::Responded(Response::ValueReturned(Value::new(prev)))
            }
        }
    }
}

impl StateCodec for SplitCounter {
    fn encode(&self, out: &mut Vec<u8>) {
        self.reg.encode(out);
        self.delta.encode(out);
        self.read.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(SplitCounter {
            reg: ObjId::decode(input)?,
            delta: Option::decode(input)?,
            read: Option::decode(input)?,
        })
    }
}

impl DeltaCodec for SplitCounter {}

/// Three concurrent `fetch-and-add(1)`s, every schedule to depth 6 — room
/// for both counters to finish.
fn explore_increments<P>(mut sys: System<i64, P>) -> ExploreOutcome
where
    P: Process<i64> + DeltaCodec + Clone + Eq + std::hash::Hash + Send + Sync,
{
    for i in 0..3 {
        sys.invoke(p(i), Operation::FetchAdd(Value::new(1)))
            .unwrap();
    }
    let lin = Linearizability::new(CounterSpec::new(Value::new(0)));
    explore_safety(&sys, &[p(0), p(1), p(2)], 6, &lin, history_digest)
}

#[test]
fn counter_exhaustive_all_schedules_and_its_split_twin_caught() {
    let atomic = explore_increments(system(AtomicKind::Counter, 3));
    assert!(atomic.holds(), "violations: {:?}", atomic.violations);
    assert!(!atomic.truncated);

    let mut mem: Memory<i64> = Memory::new();
    let reg = mem.alloc_register(0);
    let split = SplitCounter {
        reg,
        delta: None,
        read: None,
    };
    let split = explore_increments(System::new(mem, vec![split; 3]));
    assert!(
        !split.holds(),
        "two increments returning one value went unflagged"
    );
}

#[test]
fn corrupted_tas_history_rejected() {
    // Sanity that the checker has teeth: two winners is impossible.
    use safety_liveness_exclusion::history::{Action, History, Response};
    let h = History::from_actions([
        Action::invoke(p(0), Operation::TestAndSet),
        Action::invoke(p(1), Operation::TestAndSet),
        Action::respond(p(0), Response::Flag(false)),
        Action::respond(p(1), Response::Flag(false)),
    ]);
    let lin = Linearizability::new(TasSpec::new());
    assert!(!lin.is_linearizable(&h));
}
