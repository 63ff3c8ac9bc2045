//! Algorithm I(1,2) — the paper's Algorithm 1, step for step.

use slx_engine::{DeltaCodec, StateCodec};
use slx_history::{Operation, ProcessId, Response, Value};
use slx_memory::{Memory, ObjId, PrimOutcome, Primitive, Process, StepEffect, System};

use crate::word::TmWord;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Pc {
    Idle,
    /// `start()`: write the new timestamp to `R[i]`.
    StartAnnounce,
    /// `start()`: copy `C` into local memory.
    StartReadC,
    /// `tryC()`: take the snapshot of `R`.
    CommitScan,
    /// `tryC()`: attempt the version CAS.
    CommitCas,
    /// Respond without touching memory (local reads/writes).
    LocalRespond(Response),
}

/// **Algorithm I(1,2)** (Algorithm 1 of the paper): implements a TM
/// ensuring property `S` (opacity + the equal-timestamp abort rule) and
/// (1,2)-freedom.
///
/// Shared state: one CAS object `C = (version, values)` and one snapshot
/// object `R[1..n]` of timestamps. Per process: `timestamp` (monotone
/// across its transactions), and the transaction-local `version`,
/// `values`, copied from `C` at `start()`.
///
/// Operation behaviour, verbatim from the paper's pseudocode:
///
/// - `start()`: `timestamp += 1; R[i] ← timestamp; (version, oldval) ←
///   C.read; values ← oldval; return ok`;
/// - `x.read()` / `x.write(v)`: purely local;
/// - `tryC()`: `snapshot ← R.scan(); count ← |{j : snapshot[j] ≥
///   timestamp}|; if count ≥ 3 return A; if C.cas((version, oldval),
///   (version+1, values)) return C else return A`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AgpTm {
    c: ObjId,
    r: ObjId,
    pub(crate) me: ProcessId,
    n: usize,
    nvars: usize,
    timestamp: u64,
    version: Option<u64>,
    old_values: Vec<Value>,
    values: Vec<Value>,
    pc: Pc,
}

impl AgpTm {
    /// Allocates the shared objects: `C = (1, (0,...,0))` and
    /// `R[1..n] = (0,...,0)`.
    pub fn alloc(mem: &mut Memory<TmWord>, n: usize, nvars: usize) -> (ObjId, ObjId) {
        let c = mem.alloc_cas(TmWord::initial(nvars));
        let r = mem.alloc_snapshot(n, TmWord::Ts(0));
        (c, r)
    }

    /// A fresh system of `n` processes over `nvars` variables: `C` and
    /// `R`, then the processes in index order.
    pub fn system(n: usize, nvars: usize) -> System<TmWord, Self> {
        let mut mem: Memory<TmWord> = Memory::new();
        let (c, r) = Self::alloc(&mut mem, n, nvars);
        let procs = (0..n)
            .map(|i| Self::new(c, r, ProcessId::new(i), n, nvars))
            .collect();
        System::new(mem, procs)
    }

    /// Creates the algorithm instance of process `me` (of `n`), over
    /// `nvars` transactional variables.
    pub fn new(c: ObjId, r: ObjId, me: ProcessId, n: usize, nvars: usize) -> Self {
        AgpTm {
            c,
            r,
            me,
            n,
            nvars,
            timestamp: 0,
            version: None,
            old_values: vec![Value::new(0); nvars],
            values: vec![Value::new(0); nvars],
            pc: Pc::Idle,
        }
    }

    /// A copy of this instance re-indexed to `me` (same shared objects,
    /// same transaction-local state): process identity only selects
    /// which `R` slot the instance announces into, which is exactly what
    /// a process permutation moves. Used by
    /// [`crate::normalize::canonical_agp_digest`] (identity erasure) and
    /// the symmetry property suites (permutation images).
    #[must_use]
    pub fn retargeted(&self, me: ProcessId) -> AgpTm {
        AgpTm { me, ..self.clone() }
    }

    /// A copy with timestamps, versions and values uniformly shifted — the
    /// per-process half of [`crate::normalize::normalized_agp`].
    /// Behaviour-preserving by the shift-invariance argument documented
    /// there.
    pub fn shifted(&self, s: crate::normalize::Shift) -> AgpTm {
        let shift_vals = |vals: &Vec<Value>| -> Vec<Value> {
            vals.iter().map(|v| Value::new(v.raw() - s.dval)).collect()
        };
        AgpTm {
            c: self.c,
            r: self.r,
            me: self.me,
            n: self.n,
            nvars: self.nvars,
            timestamp: self.timestamp.saturating_sub(s.dts),
            version: self.version.map(|v| v.saturating_sub(s.dver)),
            old_values: shift_vals(&self.old_values),
            values: shift_vals(&self.values),
            pc: self.pc.clone(),
        }
    }
}

impl StateCodec for AgpTm {
    fn encode(&self, out: &mut Vec<u8>) {
        self.c.encode(out);
        self.r.encode(out);
        self.me.encode(out);
        self.n.encode(out);
        self.nvars.encode(out);
        self.timestamp.encode(out);
        self.version.encode(out);
        self.old_values.encode(out);
        self.values.encode(out);
        match &self.pc {
            Pc::Idle => out.push(0),
            Pc::StartAnnounce => out.push(1),
            Pc::StartReadC => out.push(2),
            Pc::CommitScan => out.push(3),
            Pc::CommitCas => out.push(4),
            Pc::LocalRespond(resp) => {
                out.push(5);
                resp.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let c = ObjId::decode(input)?;
        let r = ObjId::decode(input)?;
        let me = ProcessId::decode(input)?;
        let n = usize::decode(input)?;
        let nvars = usize::decode(input)?;
        let timestamp = u64::decode(input)?;
        let version = Option::decode(input)?;
        let old_values = Vec::decode(input)?;
        let values = Vec::decode(input)?;
        let pc = match u8::decode(input)? {
            0 => Pc::Idle,
            1 => Pc::StartAnnounce,
            2 => Pc::StartReadC,
            3 => Pc::CommitScan,
            4 => Pc::CommitCas,
            5 => Pc::LocalRespond(Response::decode(input)?),
            _ => return None,
        };
        Some(AgpTm {
            c,
            r,
            me,
            n,
            nvars,
            timestamp,
            version,
            old_values,
            values,
            pc,
        })
    }
}

impl DeltaCodec for AgpTm {}

impl Process<TmWord> for AgpTm {
    fn has_symmetry_reduction() -> bool {
        true
    }

    fn canonical_system_digest(sys: &slx_memory::System<TmWord, Self>) -> slx_engine::Digest {
        crate::normalize::canonical_agp_digest(sys)
    }

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
            Operation::TxCommit => Pc::CommitScan,
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
                mem.apply(Primitive::SnapUpdate {
                    obj: self.r,
                    index: self.me.index(),
                    val: TmWord::Ts(self.timestamp),
                })
                .expect("snapshot allocated");
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
            Pc::CommitScan => {
                let snapshot = match mem
                    .apply(Primitive::SnapScan(self.r))
                    .expect("snapshot allocated")
                {
                    PrimOutcome::Snapshot(s) => s,
                    _ => unreachable!("scan returns a snapshot"),
                };
                let count = snapshot
                    .iter()
                    .filter(|w| w.expect_ts() >= self.timestamp)
                    .count();
                if count >= 3 {
                    self.version = None;
                    return StepEffect::Responded(Response::Aborted);
                }
                self.pc = Pc::CommitCas;
                StepEffect::Ran
            }
            Pc::CommitCas => {
                let Some(version) = self.version.take() else {
                    // tryC without a successful start: abort.
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
    use slx_history::{History, TransactionStatus, TxnView, VarId};
    use slx_memory::{
        Decision, Event, FairRandom, RepeatTxn, RoundRobin, Scheduler, System, WorkloadScheduler,
    };
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
        let (c, r) = AgpTm::alloc(&mut mem, 3, 2);
        let procs = (0..3).map(|i| AgpTm::new(c, r, p(i), 3, 2)).collect();
        let hand_built = System::new(mem, procs);
        let built = AgpTm::system(3, 2);
        assert_eq!(built, hand_built);
        assert_eq!(built.digest128(), hand_built.digest128());
    }

    /// Drives one whole transaction of `q` to completion, alone.
    fn run_txn(sys: &mut System<TmWord, AgpTm>, q: ProcessId, ops: &[Operation]) -> Vec<Response> {
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
        let mut sys = AgpTm::system(2, 1);
        let rs = run_txn(
            &mut sys,
            p(0),
            &[
                Operation::TxStart,
                Operation::TxRead(x0()),
                Operation::TxWrite(x0(), v(5)),
                Operation::TxCommit,
            ],
        );
        assert_eq!(
            rs,
            vec![
                Response::Ok,
                Response::ValueReturned(v(0)),
                Response::Ok,
                Response::Committed
            ]
        );
        // A second transaction observes the committed value.
        let rs2 = run_txn(
            &mut sys,
            p(1),
            &[
                Operation::TxStart,
                Operation::TxRead(x0()),
                Operation::TxCommit,
            ],
        );
        assert_eq!(rs2[1], Response::ValueReturned(v(5)));
        assert_eq!(rs2[2], Response::Committed);
        assert!(Opacity::new(v(0)).allows(sys.history()));
        assert!(PropertyS::new(v(0)).allows(sys.history()));
    }

    #[test]
    fn conflicting_commit_aborts_by_cas() {
        let mut sys = AgpTm::system(2, 1);
        // Both start (p2 first so p1's CAS sees the same version).
        for q in [p(0), p(1)] {
            sys.invoke(q, Operation::TxStart).unwrap();
            while !matches!(sys.step(q).unwrap(), StepEffect::Responded(_)) {}
        }
        // p1 writes and commits.
        let r1 = run_txn(
            &mut sys,
            p(0),
            &[Operation::TxWrite(x0(), v(1)), Operation::TxCommit],
        );
        assert_eq!(r1[1], Response::Committed);
        // p2's commit passes the timestamp rule and must fail the CAS.
        run_txn(&mut sys, p(1), &[Operation::TxWrite(x0(), v(2))]);
        sys.invoke(p(1), Operation::TxCommit).unwrap();
        assert_eq!(sys.step(p(1)).unwrap(), StepEffect::Ran, "the scan");
        assert_eq!(
            sys.step(p(1)).unwrap(),
            StepEffect::Responded(Response::Aborted),
            "the CAS"
        );
        assert!(Opacity::new(v(0)).allows(sys.history()));
    }

    #[test]
    fn three_synchronized_transactions_all_abort() {
        // The §5.3 scenario: three processes start their first transactions,
        // all see each other's timestamps, all tryC — the timestamp rule
        // must abort all three.
        let mut sys = AgpTm::system(3, 1);
        for i in 0..3 {
            sys.invoke(p(i), Operation::TxStart).unwrap();
        }
        // Interleave the start steps so all three announcements land
        // before anyone reads C.
        for i in 0..3 {
            sys.step(p(i)).unwrap(); // announce timestamp
        }
        for i in 0..3 {
            assert_eq!(sys.step(p(i)).unwrap(), StepEffect::Responded(Response::Ok));
        }
        for i in 0..3 {
            sys.invoke(p(i), Operation::TxCommit).unwrap();
        }
        for i in 0..3 {
            // scan (which aborts: three timestamps >= own)
            assert_eq!(
                sys.step(p(i)).unwrap(),
                StepEffect::Responded(Response::Aborted),
                "process {i} escaped the timestamp rule"
            );
        }
        assert!(PropertyS::new(v(0)).allows(sys.history()));
    }

    #[test]
    fn two_processes_never_hit_timestamp_rule() {
        // Lemma 5.4's (1,2)-freedom argument: with only two processes
        // taking steps, count < 3 always, so no scan — the first step
        // after `tryC()` — aborts; aborts come only from CAS races, and a
        // failed CAS means the other process committed.
        let workload = RepeatTxn::new(2, vec![x0()], vec![x0()], None);
        let mut sched = WorkloadScheduler::new(2, workload, FairRandom::new(11));
        let mut sys = AgpTm::system(2, 1);
        let mut scans = 0;
        for _ in 0..4000 {
            let decision = sched.decide(&sys);
            let scanner = match decision {
                Decision::Step(q) if sys.process(q).unwrap().pc == Pc::CommitScan => Some(q),
                _ => None,
            };
            let mut events = Vec::new();
            if !sys.apply(decision, &mut events).unwrap() {
                break;
            }
            if let Some(q) = scanner {
                scans += 1;
                assert!(
                    !events.contains(&Event::Responded(q, Response::Aborted)),
                    "{q}'s scan hit the timestamp rule"
                );
            }
        }
        assert!(scans > 0, "no tryC() was scanned");
        // Somebody committed (in fact both, with overwhelming probability
        // under a fair schedule of this length).
        let view = TxnView::parse(sys.history());
        let commits = view
            .transactions()
            .iter()
            .filter(|t| t.status() == TransactionStatus::Committed)
            .count();
        assert!(commits > 0, "no commits in 4000 events");
    }

    #[test]
    fn random_runs_ensure_property_s_and_opacity() {
        for seed in 0..10 {
            let workload = RepeatTxn::new(3, vec![x0()], vec![x0()], None);
            let mut sched = WorkloadScheduler::new(3, workload, FairRandom::new(seed));
            let mut sys = AgpTm::system(3, 1);
            sys.run(&mut sched, 600);
            let h: &History = sys.history();
            assert!(
                certify_unique_writes(h, v(0)),
                "seed {seed}: certifier rejected\n{h}"
            );
            assert!(PropertyS::new(v(0)).abort_rule_holds(h), "seed {seed}");
        }
    }

    #[test]
    fn exhaustive_opacity_on_short_runs() {
        for seed in 0..5 {
            let workload = RepeatTxn::new(2, vec![x0()], vec![x0()], None);
            let mut sched = WorkloadScheduler::new(2, workload, FairRandom::new(seed));
            let mut sys = AgpTm::system(2, 1);
            sys.run(&mut sched, 120);
            assert!(
                Opacity::new(v(0)).allows(sys.history()),
                "seed {seed}: {}",
                sys.history()
            );
        }
    }

    #[test]
    fn lockstep_two_processes_make_progress() {
        let workload = RepeatTxn::new(2, vec![], vec![x0()], Some(3));
        let mut sched = WorkloadScheduler::new(2, workload, RoundRobin::new());
        let mut sys = AgpTm::system(2, 1);
        sys.run(&mut sched, 10_000);
        let view = TxnView::parse(sys.history());
        let commits = view
            .transactions()
            .iter()
            .filter(|t| t.status() == TransactionStatus::Committed)
            .count();
        assert!(
            commits >= 3,
            "expected progress under lockstep, got {commits}"
        );
    }

    #[test]
    fn timestamps_strictly_increase_across_transactions() {
        let mut sys = AgpTm::system(2, 1);
        run_txn(&mut sys, p(0), &[Operation::TxStart, Operation::TxCommit]);
        run_txn(&mut sys, p(0), &[Operation::TxStart, Operation::TxCommit]);
        assert_eq!(sys.process(p(0)).unwrap().timestamp, 2);
    }

    #[test]
    #[should_panic(expected = "TM operations")]
    fn non_tm_operation_rejected() {
        let mut sys = AgpTm::system(1, 1);
        let _ = sys.invoke(p(0), Operation::Propose(v(1)));
    }
}
