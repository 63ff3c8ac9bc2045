//! A blocking (global-lock) TM baseline.

use slx_history::{Operation, Response, Value};
use slx_memory::{Memory, ObjId, PrimOutcome, Primitive, Process, StepEffect, System};

use crate::word::TmWord;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Pc {
    Idle,
    /// Spin on the test-and-set lock.
    Acquire,
    /// Read the store after acquiring.
    ReadStore,
    /// Write the store back at commit.
    WriteBack,
    /// Release the lock, then report commit.
    Release,
    LocalRespond(Response),
}

/// A coarse-grained **blocking** TM: one test-and-set lock guards a single
/// register holding all variable values. `start()` spins until it takes the
/// lock; `tryC()` writes back, releases, and always commits.
///
/// Trivially opaque (transactions are fully serialized by the lock) and
/// deadlock-free, but *not* non-blocking: if the lock holder crashes, no
/// other process ever makes progress — the classic behaviour the
/// non-blocking liveness properties of Section 5 are designed to rule out,
/// and the baseline the benches contrast the non-blocking TMs against.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LockTm {
    lock: ObjId,
    store: ObjId,
    nvars: usize,
    values: Vec<Value>,
    pc: Pc,
    holds_lock: bool,
}

impl LockTm {
    /// Allocates the lock and the store register.
    pub fn alloc(mem: &mut Memory<TmWord>, nvars: usize) -> (ObjId, ObjId) {
        let lock = mem.alloc_tas();
        let store = mem.alloc_register(TmWord::initial(nvars));
        (lock, store)
    }

    /// Creates the algorithm instance for one process.
    pub fn new(lock: ObjId, store: ObjId, nvars: usize) -> Self {
        LockTm {
            lock,
            store,
            nvars,
            values: vec![Value::new(0); nvars],
            pc: Pc::Idle,
            holds_lock: false,
        }
    }

    /// A fresh system of `n` processes over `nvars` variables: the lock
    /// and the store, then the processes in index order.
    pub fn system(n: usize, nvars: usize) -> System<TmWord, Self> {
        let mut mem: Memory<TmWord> = Memory::new();
        let (lock, store) = Self::alloc(&mut mem, nvars);
        let procs = (0..n).map(|_| Self::new(lock, store, nvars)).collect();
        System::new(mem, procs)
    }
}

impl Process<TmWord> for LockTm {
    fn on_invoke(&mut self, op: Operation) {
        self.pc = match op {
            Operation::TxStart => Pc::Acquire,
            Operation::TxRead(x) => {
                Pc::LocalRespond(Response::ValueReturned(self.values[x.index()]))
            }
            Operation::TxWrite(x, v) => {
                self.values[x.index()] = v;
                Pc::LocalRespond(Response::Ok)
            }
            Operation::TxCommit => {
                if self.holds_lock {
                    Pc::WriteBack
                } else {
                    // tryC without start: nothing to commit.
                    Pc::LocalRespond(Response::Aborted)
                }
            }
            other => panic!("transactional memory accepts only TM operations, got {other}"),
        };
    }

    fn has_step(&self) -> bool {
        !matches!(self.pc, Pc::Idle)
    }

    fn step(&mut self, mem: &mut Memory<TmWord>) -> StepEffect {
        match std::mem::replace(&mut self.pc, Pc::Idle) {
            Pc::Idle => StepEffect::Idle,
            Pc::LocalRespond(resp) => StepEffect::Responded(resp),
            Pc::Acquire => {
                let was_set = mem
                    .apply(Primitive::Tas(self.lock))
                    .expect("lock allocated")
                    .expect_flag();
                if was_set {
                    self.pc = Pc::Acquire; // spin
                    StepEffect::Ran
                } else {
                    self.holds_lock = true;
                    self.pc = Pc::ReadStore;
                    StepEffect::Ran
                }
            }
            Pc::ReadStore => {
                let w = match mem
                    .apply(Primitive::Read(self.store))
                    .expect("store allocated")
                {
                    PrimOutcome::Value(w) => w,
                    _ => unreachable!("register read returns a value"),
                };
                let (_, values) = w.expect_versioned();
                self.values = values.clone();
                StepEffect::Responded(Response::Ok)
            }
            Pc::WriteBack => {
                mem.apply(Primitive::Write(
                    self.store,
                    TmWord::Versioned {
                        version: 0,
                        values: self.values.clone(),
                    },
                ))
                .expect("store allocated");
                self.pc = Pc::Release;
                StepEffect::Ran
            }
            Pc::Release => {
                mem.apply(Primitive::TasReset(self.lock))
                    .expect("lock allocated");
                self.holds_lock = false;
                StepEffect::Responded(Response::Committed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slx_history::{ProcessId, TransactionStatus, TxnView, VarId};
    use slx_memory::{FairRandom, RepeatTxn, System, WorkloadScheduler};
    use slx_safety::{Opacity, SafetyProperty};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn v(x: i64) -> Value {
        Value::new(x)
    }
    fn x0() -> VarId {
        VarId::new(0)
    }

    #[test]
    fn system_is_the_hand_built_system() {
        // Allocation order feeds every digest, so the constructor must
        // reproduce the spelled-out construction exactly.
        let mut mem: Memory<TmWord> = Memory::new();
        let (lock, store) = LockTm::alloc(&mut mem, 2);
        let procs = (0..3).map(|_| LockTm::new(lock, store, 2)).collect();
        let hand_built = System::new(mem, procs);
        let built = LockTm::system(3, 2);
        assert_eq!(built, hand_built);
        assert_eq!(built.digest128(), hand_built.digest128());
    }

    #[test]
    fn transactions_never_abort_without_crashes() {
        let workload = RepeatTxn::new(3, vec![x0()], vec![x0()], Some(5));
        let mut sched = WorkloadScheduler::new(3, workload, FairRandom::new(5));
        let mut sys = LockTm::system(3, 1);
        sys.run(&mut sched, 50_000);
        let view = TxnView::parse(sys.history());
        assert!(view
            .transactions()
            .iter()
            .all(|t| t.status() != TransactionStatus::Aborted));
        let commits = view
            .transactions()
            .iter()
            .filter(|t| t.status() == TransactionStatus::Committed)
            .count();
        assert_eq!(commits, 15);
    }

    #[test]
    fn serialized_runs_are_opaque() {
        let workload = RepeatTxn::new(2, vec![x0()], vec![x0()], Some(2));
        let mut sched = WorkloadScheduler::new(2, workload, FairRandom::new(7));
        let mut sys = LockTm::system(2, 1);
        sys.run(&mut sched, 10_000);
        assert!(Opacity::new(v(0)).allows(sys.history()));
    }

    #[test]
    fn crashed_lock_holder_starves_everyone() {
        let mut sys = LockTm::system(2, 1);
        // p1 takes the lock...
        sys.invoke(p(0), Operation::TxStart).unwrap();
        sys.step(p(0)).unwrap(); // TAS succeeds
        sys.crash(p(0)).unwrap(); // ...and dies holding it.
                                  // p2 spins forever.
        sys.invoke(p(1), Operation::TxStart).unwrap();
        for _ in 0..100 {
            assert_eq!(sys.step(p(1)).unwrap(), StepEffect::Ran);
        }
        assert!(sys.history().pending(p(1)));
    }

    #[test]
    fn commits_are_visible_to_next_transaction() {
        let mut sys = LockTm::system(1, 1);
        for op in [
            Operation::TxStart,
            Operation::TxWrite(x0(), v(42)),
            Operation::TxCommit,
            Operation::TxStart,
            Operation::TxRead(x0()),
            Operation::TxCommit,
        ] {
            sys.invoke(p(0), op).unwrap();
            while !matches!(sys.step(p(0)).unwrap(), StepEffect::Responded(_)) {}
        }
        let responses = sys.history().responses_of(p(0));
        assert!(responses.contains(&Response::ValueReturned(v(42))));
    }
}
