//! Algorithm I(1,2) over a register-only snapshot (double collect).
//!
//! The paper's Algorithm 1 assumes an atomic snapshot object `R[1..n]`.
//! [`crate::AgpTm`] uses the simulator's snapshot base object, matching
//! that assumption; this variant replaces it with `n` plain registers and
//! a resumable *double-collect* scan
//! ([`slx_memory::DoubleCollect`]), demonstrating that the register-only
//! substrate suffices:
//!
//! - the scan is conclusive because per-process timestamps strictly
//!   increase (no ABA between matching collects);
//! - the scan is lock-free, not wait-free — a concurrent `start()` can
//!   force a re-collect — which leaves every (1,k) classification intact
//!   (some process still progresses) and is exactly the trade the paper's
//!   discussion of snapshot implementations implies.

use slx_history::{Operation, ProcessId, Response, Value};
use slx_memory::{
    DoubleCollect, DoubleCollectResult, Memory, ObjId, PrimOutcome, Primitive, Process, StepEffect,
    System,
};

use crate::word::TmWord;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Pc {
    Idle,
    StartAnnounce,
    StartReadC,
    CommitCollect(DoubleCollect<TmWord>),
    CommitCas,
    LocalRespond(Response),
}

/// Algorithm I(1,2) with the snapshot object replaced by a register-only
/// double-collect scan. Semantically interchangeable with
/// [`crate::AgpTm`]; the tests replay the same scenarios against both.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AgpTmDc {
    c: ObjId,
    r: Vec<ObjId>,
    me: ProcessId,
    nvars: usize,
    timestamp: u64,
    version: Option<u64>,
    old_values: Vec<Value>,
    values: Vec<Value>,
    pc: Pc,
    /// Register reads spent in double-collect scans (for the substrate
    /// cost bench).
    scan_reads: u64,
}

impl AgpTmDc {
    /// Allocates the shared objects: `C` and `n` timestamp registers.
    pub fn alloc(mem: &mut Memory<TmWord>, n: usize, nvars: usize) -> (ObjId, Vec<ObjId>) {
        let c = mem.alloc_cas(TmWord::initial(nvars));
        let r = (0..n).map(|_| mem.alloc_register(TmWord::Ts(0))).collect();
        (c, r)
    }

    /// Creates the algorithm instance of process `me`.
    pub fn new(c: ObjId, r: Vec<ObjId>, me: ProcessId, nvars: usize) -> Self {
        AgpTmDc {
            c,
            r,
            me,
            nvars,
            timestamp: 0,
            version: None,
            old_values: vec![Value::new(0); nvars],
            values: vec![Value::new(0); nvars],
            pc: Pc::Idle,
            scan_reads: 0,
        }
    }

    /// A fresh system of `n` processes over `nvars` variables: `C` and the
    /// `n` timestamp registers, then the processes in index order.
    pub fn system(n: usize, nvars: usize) -> System<TmWord, Self> {
        let mut mem: Memory<TmWord> = Memory::new();
        let (c, r) = Self::alloc(&mut mem, n, nvars);
        let procs = (0..n)
            .map(|i| Self::new(c, r.clone(), ProcessId::new(i), nvars))
            .collect();
        System::new(mem, procs)
    }

    /// Register reads spent in scans so far.
    pub fn scan_reads(&self) -> u64 {
        self.scan_reads
    }
}

impl Process<TmWord> for AgpTmDc {
    fn on_invoke(&mut self, op: Operation) {
        self.pc = match op {
            Operation::TxStart => {
                self.timestamp += 1;
                Pc::StartAnnounce
            }
            Operation::TxRead(x) => {
                Pc::LocalRespond(Response::ValueReturned(self.values[x.index()]))
            }
            Operation::TxWrite(x, v) => {
                self.values[x.index()] = v;
                Pc::LocalRespond(Response::Ok)
            }
            Operation::TxCommit => Pc::CommitCollect(DoubleCollect::new(self.r.clone())),
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
            Pc::StartAnnounce => {
                mem.apply(Primitive::Write(
                    self.r[self.me.index()],
                    TmWord::Ts(self.timestamp),
                ))
                .expect("timestamp register allocated");
                self.pc = Pc::StartReadC;
                StepEffect::Ran
            }
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
            Pc::CommitCollect(mut dc) => {
                self.scan_reads += 1;
                match dc.step(mem) {
                    DoubleCollectResult::InProgress => {
                        self.pc = Pc::CommitCollect(dc);
                        StepEffect::Ran
                    }
                    DoubleCollectResult::Done(snapshot) => {
                        let count = snapshot
                            .iter()
                            .filter(|w| w.expect_ts() >= self.timestamp)
                            .count();
                        if count >= 3 {
                            self.version = None;
                            StepEffect::Responded(Response::Aborted)
                        } else {
                            self.pc = Pc::CommitCas;
                            StepEffect::Ran
                        }
                    }
                }
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
                if ok {
                    StepEffect::Responded(Response::Committed)
                } else {
                    StepEffect::Responded(Response::Aborted)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slx_history::{TransactionStatus, TxnView, VarId};
    use slx_memory::{FairRandom, RepeatTxn, System, WorkloadScheduler};
    use slx_safety::{certify_unique_writes, Opacity, PropertyS, SafetyProperty};

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
        let (c, r) = AgpTmDc::alloc(&mut mem, 3, 2);
        let procs = (0..3)
            .map(|i| AgpTmDc::new(c, r.clone(), p(i), 2))
            .collect();
        let hand_built = System::new(mem, procs);
        let built = AgpTmDc::system(3, 2);
        assert_eq!(built, hand_built);
        assert_eq!(built.digest128(), hand_built.digest128());
    }

    fn run_txn(
        sys: &mut System<TmWord, AgpTmDc>,
        q: ProcessId,
        ops: &[Operation],
    ) -> Vec<Response> {
        let mut out = Vec::new();
        for &op in ops {
            sys.invoke(q, op).unwrap();
            loop {
                match sys.step(q).unwrap() {
                    StepEffect::Responded(r) => {
                        out.push(r);
                        break;
                    }
                    StepEffect::Ran => {}
                    StepEffect::Idle => panic!("stuck"),
                }
            }
        }
        out
    }

    #[test]
    fn solo_transaction_commits() {
        let mut sys = AgpTmDc::system(2, 1);
        let rs = run_txn(
            &mut sys,
            p(0),
            &[
                Operation::TxStart,
                Operation::TxWrite(x0(), v(5)),
                Operation::TxCommit,
            ],
        );
        assert_eq!(rs, vec![Response::Ok, Response::Ok, Response::Committed]);
        assert!(sys.process(p(0)).unwrap().scan_reads() >= 4);
    }

    #[test]
    fn three_synchronized_transactions_all_abort() {
        let mut sys = AgpTmDc::system(3, 1);
        for i in 0..3 {
            sys.invoke(p(i), Operation::TxStart).unwrap();
        }
        for i in 0..3 {
            sys.step(p(i)).unwrap(); // announce
        }
        for i in 0..3 {
            assert_eq!(sys.step(p(i)).unwrap(), StepEffect::Responded(Response::Ok));
        }
        for i in 0..3 {
            sys.invoke(p(i), Operation::TxCommit).unwrap();
        }
        // Scans run to completion (no announcements interfere), then abort.
        for i in 0..3 {
            loop {
                match sys.step(p(i)).unwrap() {
                    StepEffect::Responded(r) => {
                        assert_eq!(r, Response::Aborted, "process {i}");
                        break;
                    }
                    StepEffect::Ran => {}
                    StepEffect::Idle => panic!("stuck"),
                }
            }
        }
        assert!(PropertyS::new(v(0)).abort_rule_holds(sys.history()));
    }

    #[test]
    fn random_runs_match_agp_guarantees() {
        for seed in 0..8 {
            let workload = RepeatTxn::new(3, vec![x0()], vec![x0()], None);
            let mut sched = WorkloadScheduler::new(3, workload, FairRandom::new(seed));
            let mut sys = AgpTmDc::system(3, 1);
            sys.run(&mut sched, 800);
            assert!(
                certify_unique_writes(sys.history(), v(0)),
                "seed {seed}: opacity certifier rejected"
            );
            assert!(
                PropertyS::new(v(0)).abort_rule_holds(sys.history()),
                "seed {seed}: abort rule violated"
            );
        }
    }

    #[test]
    fn exhaustive_opacity_on_short_runs() {
        for seed in 0..3 {
            let workload = RepeatTxn::new(2, vec![x0()], vec![x0()], None);
            let mut sched = WorkloadScheduler::new(2, workload, FairRandom::new(seed));
            let mut sys = AgpTmDc::system(2, 1);
            sys.run(&mut sched, 120);
            assert!(Opacity::new(v(0)).allows(sys.history()), "seed {seed}");
        }
    }

    #[test]
    fn two_steppers_keep_committing() {
        let workload = RepeatTxn::new(2, vec![], vec![x0()], None);
        let mut sched = WorkloadScheduler::new(2, workload, FairRandom::new(5));
        let mut sys = AgpTmDc::system(2, 1);
        sys.run(&mut sched, 3000);
        let view = TxnView::parse(sys.history());
        for i in 0..2 {
            let commits = view
                .of_process(p(i))
                .iter()
                .filter(|t| t.status() == TransactionStatus::Committed)
                .count();
            assert!(commits > 0, "process {i} starved");
        }
    }

    #[test]
    fn interfering_start_forces_recollect() {
        let mut sys = AgpTmDc::system(2, 1);
        // p1 starts and begins a commit scan.
        run_txn(&mut sys, p(0), &[Operation::TxStart]);
        sys.invoke(p(0), Operation::TxCommit).unwrap();
        sys.step(p(0)).unwrap(); // first collect, read 1 of 2
        sys.step(p(0)).unwrap(); // first collect, read 2 of 2
                                 // p2 announces a new timestamp *between* p1's collects, changing
                                 // R[2] relative to the first collect.
        sys.invoke(p(1), Operation::TxStart).unwrap();
        sys.step(p(1)).unwrap();
        // p1 must now take extra reads (re-collect) but still terminates.
        let mut steps = 0;
        loop {
            match sys.step(p(0)).unwrap() {
                StepEffect::Responded(_) => break,
                StepEffect::Ran => steps += 1,
                StepEffect::Idle => panic!("stuck"),
            }
            assert!(steps < 50, "scan failed to terminate");
        }
        // A clean double collect of 2 registers is 4 reads; interference
        // forces more.
        assert!(sys.process(p(0)).unwrap().scan_reads() > 4);
    }
}
