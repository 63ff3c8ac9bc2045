//! The opaque, lock-free ((1,n)-free) TM: Algorithm 1 without the
//! timestamp rule.

use slx_engine::{DeltaCodec, StateCodec};
use slx_history::{Operation, Response, Value};
use slx_memory::{Memory, ObjId, PrimOutcome, Primitive, Process, StepEffect, System};

use crate::word::TmWord;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Pc {
    Idle,
    StartReadC,
    CommitCas,
    LocalRespond(Response),
}

/// A single-CAS global-version TM (the AGP construction from *Principles
/// of Transactional Memory* \[16\] that Algorithm 1 extends):
///
/// - `start()` atomically copies `C = (version, values)`;
/// - reads and writes are local;
/// - `tryC()` CASes `(version, old) → (version + 1, new)`.
///
/// **Opacity**: every transaction reads from one atomic snapshot of `C`,
/// and committed transactions are totally ordered by the version they
/// install (the paper's Lemma 5.4 argument, minus the timestamp part).
///
/// **(1,n)-freedom / lock-freedom**: a `tryC()` CAS fails only if some
/// other transaction changed `C`'s version — i.e. committed — since the
/// failed transaction's `start()`. So whatever the contention, some
/// process keeps committing; this is the witness for the white point
/// `(1,n)` of Figure 1b. (It is *not* (2,2)-free: two processes can
/// alternately invalidate each other — the adversary crate builds exactly
/// that schedule.)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GlobalVersionTm {
    c: ObjId,
    nvars: usize,
    version: Option<u64>,
    old_values: Vec<Value>,
    values: Vec<Value>,
    pc: Pc,
}

impl GlobalVersionTm {
    /// Allocates the shared CAS object `C = (1, (0,...,0))`.
    pub fn alloc(mem: &mut Memory<TmWord>, nvars: usize) -> ObjId {
        mem.alloc_cas(TmWord::initial(nvars))
    }

    /// Creates the algorithm instance for one process.
    pub fn new(c: ObjId, nvars: usize) -> Self {
        GlobalVersionTm {
            c,
            nvars,
            version: None,
            old_values: vec![Value::new(0); nvars],
            values: vec![Value::new(0); nvars],
            pc: Pc::Idle,
        }
    }

    /// A fresh system of `n` processes over `nvars` variables: `C`, then
    /// the processes in index order.
    pub fn system(n: usize, nvars: usize) -> System<TmWord, Self> {
        let mut mem: Memory<TmWord> = Memory::new();
        let c = Self::alloc(&mut mem, nvars);
        let procs = (0..n).map(|_| Self::new(c, nvars)).collect();
        System::new(mem, procs)
    }

    /// A copy with versions and values uniformly shifted — the
    /// per-process half of
    /// [`crate::normalize::normalized_global_version`].
    pub fn shifted(&self, s: crate::normalize::Shift) -> GlobalVersionTm {
        let shift_vals = |vals: &Vec<Value>| -> Vec<Value> {
            vals.iter().map(|v| Value::new(v.raw() - s.dval)).collect()
        };
        GlobalVersionTm {
            c: self.c,
            nvars: self.nvars,
            version: self.version.map(|v| v.saturating_sub(s.dver)),
            old_values: shift_vals(&self.old_values),
            values: shift_vals(&self.values),
            pc: self.pc.clone(),
        }
    }
}

impl StateCodec for GlobalVersionTm {
    fn encode(&self, out: &mut Vec<u8>) {
        self.c.encode(out);
        self.nvars.encode(out);
        self.version.encode(out);
        self.old_values.encode(out);
        self.values.encode(out);
        match &self.pc {
            Pc::Idle => out.push(0),
            Pc::StartReadC => out.push(1),
            Pc::CommitCas => out.push(2),
            Pc::LocalRespond(resp) => {
                out.push(3);
                resp.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let c = ObjId::decode(input)?;
        let nvars = usize::decode(input)?;
        let version = Option::decode(input)?;
        let old_values = Vec::decode(input)?;
        let values = Vec::decode(input)?;
        let pc = match u8::decode(input)? {
            0 => Pc::Idle,
            1 => Pc::StartReadC,
            2 => Pc::CommitCas,
            3 => Pc::LocalRespond(Response::decode(input)?),
            _ => return None,
        };
        Some(GlobalVersionTm {
            c,
            nvars,
            version,
            old_values,
            values,
            pc,
        })
    }
}

impl DeltaCodec for GlobalVersionTm {}

impl Process<TmWord> for GlobalVersionTm {
    fn has_symmetry_reduction() -> bool {
        true
    }

    fn canonical_system_digest(sys: &slx_memory::System<TmWord, Self>) -> slx_engine::Digest {
        crate::normalize::canonical_global_version_digest(sys)
    }

    fn on_invoke(&mut self, op: Operation) {
        self.pc = match op {
            Operation::TxStart => Pc::StartReadC,
            Operation::TxRead(x) => {
                Pc::LocalRespond(Response::ValueReturned(self.values[x.index()]))
            }
            Operation::TxWrite(x, v) => {
                self.values[x.index()] = v;
                Pc::LocalRespond(Response::Ok)
            }
            Operation::TxCommit => Pc::CommitCas,
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
            Pc::StartReadC => {
                let w = match mem.apply(Primitive::Read(self.c)).expect("C allocated") {
                    PrimOutcome::Value(w) => w,
                    _ => unreachable!("CAS read returns a value"),
                };
                let (version, values) = w.expect_versioned();
                self.version = Some(version);
                self.old_values = values.clone();
                self.values = values.clone();
                StepEffect::Responded(Response::Ok)
            }
            Pc::CommitCas => {
                let Some(version) = self.version.take() else {
                    return StepEffect::Responded(Response::Aborted);
                };
                let ok = mem
                    .apply(Primitive::Cas {
                        obj: self.c,
                        expected: TmWord::Versioned {
                            version,
                            values: self.old_values.clone(),
                        },
                        new: TmWord::Versioned {
                            version: version + 1,
                            values: self.values.clone(),
                        },
                    })
                    .expect("C allocated")
                    .expect_flag();
                StepEffect::Responded(if ok {
                    Response::Committed
                } else {
                    Response::Aborted
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slx_history::{ProcessId, TransactionStatus, TxnView, VarId};
    use slx_memory::{BaseObject, FairRandom, RepeatTxn, System, WorkloadScheduler};
    use slx_safety::{certify_unique_writes, Opacity, SafetyProperty};

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
        let c = GlobalVersionTm::alloc(&mut mem, 2);
        let procs = (0..3).map(|_| GlobalVersionTm::new(c, 2)).collect();
        let hand_built = System::new(mem, procs);
        let built = GlobalVersionTm::system(3, 2);
        assert_eq!(built, hand_built);
        assert_eq!(built.digest128(), hand_built.digest128());
    }

    #[test]
    fn lock_freedom_under_full_contention() {
        // All n processes hammer the same variable: at least one process
        // must keep committing (every failed CAS certifies someone else's
        // commit).
        for n in [2, 3, 5] {
            let workload = RepeatTxn::new(n, vec![x0()], vec![x0()], None);
            let mut sched = WorkloadScheduler::new(n, workload, FairRandom::new(99));
            let mut sys = GlobalVersionTm::system(n, 1);
            sys.run(&mut sched, 3000);
            let view = TxnView::parse(sys.history());
            let with_status = |status| {
                view.transactions()
                    .iter()
                    .filter(move |t| t.status() == status)
            };
            assert!(
                with_status(TransactionStatus::Committed).count() > 0,
                "n={n}: no commits under contention"
            );
            // Accounting: every abort is a CAS lost to a commit that
            // responded while the aborted transaction was running.
            for t in with_status(TransactionStatus::Aborted) {
                let end = t.end_index.expect("an aborted transaction ended");
                assert!(
                    with_status(TransactionStatus::Committed)
                        .any(|u| u.end_index.is_some_and(|e| t.start_index < e && e < end)),
                    "n={n}: {:?} aborted with no commit in between",
                    t.id
                );
            }
        }
    }

    #[test]
    fn random_runs_are_opaque() {
        for seed in 0..10 {
            let workload = RepeatTxn::new(3, vec![x0()], vec![x0()], None);
            let mut sched = WorkloadScheduler::new(3, workload, FairRandom::new(seed));
            let mut sys = GlobalVersionTm::system(3, 1);
            sys.run(&mut sched, 800);
            assert!(
                certify_unique_writes(sys.history(), v(0)),
                "seed {seed}: certifier rejected\n{}",
                sys.history()
            );
        }
        // Exhaustive checker on shorter runs.
        for seed in 0..5 {
            let workload = RepeatTxn::new(2, vec![x0()], vec![x0()], None);
            let mut sched = WorkloadScheduler::new(2, workload, FairRandom::new(seed));
            let mut sys = GlobalVersionTm::system(2, 1);
            sys.run(&mut sched, 120);
            assert!(Opacity::new(v(0)).allows(sys.history()), "seed {seed}");
        }
    }

    #[test]
    fn failed_cas_implies_version_advanced() {
        let mut sys = GlobalVersionTm::system(2, 1);
        // Both start at version 1.
        for q in [p(0), p(1)] {
            sys.invoke(q, Operation::TxStart).unwrap();
            sys.step(q).unwrap();
        }
        // p1 commits (version 1 → 2).
        sys.invoke(p(0), Operation::TxWrite(x0(), v(1))).unwrap();
        sys.step(p(0)).unwrap();
        sys.invoke(p(0), Operation::TxCommit).unwrap();
        assert_eq!(
            sys.step(p(0)).unwrap(),
            StepEffect::Responded(Response::Committed)
        );
        // p2's CAS expects version 1: must abort.
        sys.invoke(p(1), Operation::TxWrite(x0(), v(2))).unwrap();
        sys.step(p(1)).unwrap();
        sys.invoke(p(1), Operation::TxCommit).unwrap();
        assert_eq!(
            sys.step(p(1)).unwrap(),
            StepEffect::Responded(Response::Aborted)
        );
        // The CAS failed because p1's commit advanced `C` to version 2.
        let c = sys.process(p(1)).unwrap().c;
        assert!(matches!(
            sys.memory().object(c),
            Some(BaseObject::Cas(TmWord::Versioned { version: 2, .. }))
        ));
    }

    #[test]
    fn read_only_transaction_commits_even_after_interference() {
        // A read-only transaction writes nothing, but its CAS still
        // validates the version — this TM aborts read-only transactions on
        // interference (conservative but opaque).
        let mut sys = GlobalVersionTm::system(2, 1);
        sys.invoke(p(0), Operation::TxStart).unwrap();
        sys.step(p(0)).unwrap();
        // p2 commits a change in between.
        for op in [
            Operation::TxStart,
            Operation::TxWrite(x0(), v(7)),
            Operation::TxCommit,
        ] {
            sys.invoke(p(1), op).unwrap();
            while !matches!(sys.step(p(1)).unwrap(), StepEffect::Responded(_)) {}
        }
        sys.invoke(p(0), Operation::TxCommit).unwrap();
        assert_eq!(
            sys.step(p(0)).unwrap(),
            StepEffect::Responded(Response::Aborted)
        );
    }
}
