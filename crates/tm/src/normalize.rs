//! Configuration normalization for cycle detection.
//!
//! The TM adversaries of Sections 4.1 and 5.3 drive the TMs into infinite
//! loops whose per-iteration state differs only by a uniform *shift*: the
//! global version counter grows by one per victim round (Section 4.1
//! strategy against [`GlobalVersionTm`]), and every process's timestamp
//! grows by one per round of the Section 5.3 strategy against [`AgpTm`].
//! Raw configurations therefore never repeat, even though the executions
//! are plainly periodic.
//!
//! Both algorithms are **shift-invariant**: their control flow depends on
//! numeric state only through (a) equality comparisons of whole words (the
//! commit CAS) and (b) order comparisons between timestamps
//! (`snapshot[j] ≥ timestamp`). Both are preserved when every version,
//! every timestamp, and every written value is shifted by the same
//! amounts. Consequently a repeat of the *normalized* configuration —
//! versions rebased to 1, timestamps rebased to their minimum, values
//! rebased to the committed value of variable `x1` — witnesses a genuine
//! infinite execution, which is exactly what the keyed cycle detector in
//! `slx-explorer` needs. (This module provides the normalizing maps; the
//! explorer crate provides the detector.)

use std::hash::{Hash, Hasher};

use slx_engine::{digest128_of, Digest, Fingerprinter};
use slx_history::{ProcessId, Value};
use slx_memory::{BaseObject, System};

use crate::agp::AgpTm;
use crate::global_version::GlobalVersionTm;
use crate::word::TmWord;

/// Shift applied by the normalizers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Shift {
    /// Subtracted from every version number.
    pub dver: u64,
    /// Subtracted from every timestamp.
    pub dts: u64,
    /// Subtracted from every variable value.
    pub dval: i64,
}

pub(crate) fn shift_word(w: &TmWord, s: Shift) -> TmWord {
    match w {
        TmWord::Versioned { version, values } => TmWord::Versioned {
            version: version.saturating_sub(s.dver),
            values: values
                .iter()
                .map(|v| Value::new(v.raw() - s.dval))
                .collect(),
        },
        TmWord::Ts(t) => TmWord::Ts(t.saturating_sub(s.dts)),
    }
}

/// The shift that rebases the committed version to 1 and variable `x1`'s
/// committed value to 0, read from the first CAS object in memory (no
/// timestamp shift). A strategy or workload that holds a value read from
/// the TM, or derives the next one it writes, rebases it by `dval` to
/// stay in step with the normalized configuration.
pub fn committed_shift<P: slx_memory::Process<TmWord>>(sys: &System<TmWord, P>) -> Shift {
    for (_, obj) in sys.memory().iter_objects() {
        if let BaseObject::Cas(TmWord::Versioned { version, values }) = obj {
            return Shift {
                dver: version - 1,
                dts: 0,
                dval: values.first().map(|v| v.raw()).unwrap_or(0),
            };
        }
    }
    Shift::default()
}

/// Normalized configuration of a [`GlobalVersionTm`] system: versions and
/// values rebased to the committed state, in the memory and in the states
/// of `procs`, the processes that step. Use as the cycle-detection key.
/// Another process's state stays as it is: it never steps, so it is
/// constant, where shifted values would drift with every commit.
pub fn normalized_global_version(
    sys: &System<TmWord, GlobalVersionTm>,
    procs: &[ProcessId],
) -> System<TmWord, GlobalVersionTm> {
    let s = committed_shift(sys);
    let mut ids = (0..sys.n()).map(ProcessId::new);
    sys.transformed(
        |w| shift_word(w, s),
        |p| match ids.next() {
            Some(me) if procs.contains(&me) => p.shifted(s),
            _ => p.clone(),
        },
    )
}

/// Normalized configuration of an [`AgpTm`] system: versions/values rebased
/// to the committed state and timestamps rebased to the minimum announced
/// timestamp. Use as the cycle-detection key.
pub fn normalized_agp(sys: &System<TmWord, AgpTm>) -> System<TmWord, AgpTm> {
    let mut s = committed_shift(sys);
    // Minimum announced timestamp across the snapshot object.
    let mut min_ts = u64::MAX;
    for (_, obj) in sys.memory().iter_objects() {
        if let BaseObject::Snapshot(v) = obj {
            for w in v {
                if let TmWord::Ts(t) = w {
                    min_ts = min_ts.min(*t);
                }
            }
        }
    }
    if min_ts != u64::MAX {
        s.dts = min_ts;
    }
    sys.transformed(|w| shift_word(w, s), |p| p.shifted(s))
}

/// [`normalized_agp`] for runs in which only `procs` ever step: timestamps
/// are rebased over their `R` slots only, the smallest to **1**, and only
/// their states are shifted. Another process's slot keeps its `Ts(0)`,
/// which pins [`normalized_agp`]'s minimum at 0 while the others climb
/// forever; here it stays below every rebased timestamp of `procs`, so
/// each `R[j] ≥ timestamp` count Algorithm 1 takes is unchanged (a rebase
/// to 0 would tie it). Another process's state stays as it is — constant,
/// where shifted values would drift with every commit.
pub fn normalized_agp_among(
    sys: &System<TmWord, AgpTm>,
    procs: &[ProcessId],
) -> System<TmWord, AgpTm> {
    let mut s = committed_shift(sys);
    let slots = sys.memory().iter_objects().find_map(|(_, obj)| match obj {
        BaseObject::Snapshot(v) => Some(v),
        _ => None,
    });
    let min_ts = slots.and_then(|v| procs.iter().map(|p| v[p.index()].expect_ts()).min());
    s.dts = min_ts.map_or(0, |t| t.saturating_sub(1));
    let among = |p: &AgpTm| procs.contains(&p.me);
    sys.transformed(
        |w| shift_word(w, s),
        |p| if among(p) { p.shifted(s) } else { p.clone() },
    )
}

/// The canonical symmetry digest for a [`GlobalVersionTm`] system:
/// invariant under uniform version/value shifts *and* process
/// permutations. Backs `Process::canonical_system_digest` for the
/// exploration kernel's symmetry reduction.
///
/// Every process runs the same code against the single shared CAS `C`
/// and holds no identity-dependent state, so permuting processes is
/// behaviour-preserving at *every* program counter — the sorted
/// per-process signature multiset quotients the full permutation orbit.
/// The shift comes from [`normalized_global_version`], collapsing states
/// that differ only by a uniform version and value shift.
pub fn canonical_global_version_digest(sys: &System<TmWord, GlobalVersionTm>) -> Digest {
    let all: Vec<ProcessId> = (0..sys.n()).map(ProcessId::new).collect();
    let norm = normalized_global_version(sys, &all);
    let mut sigs: Vec<u128> = (0..norm.n())
        .map(|i| {
            let p = ProcessId::new(i);
            digest128_of(&(
                norm.is_pending(p),
                norm.is_crashed(p),
                norm.process(p).expect("process exists"),
            ))
            .0
        })
        .collect();
    sigs.sort_unstable();
    let mut fp = Fingerprinter::new();
    fp.write_usize(norm.n());
    for sig in &sigs {
        fp.write_u128(*sig);
    }
    for (_, obj) in norm.memory().iter_objects() {
        obj.hash(&mut fp);
    }
    fp.digest()
}

/// The canonical symmetry digest for an [`AgpTm`] system: invariant
/// under uniform version/timestamp/value shifts *and* process
/// permutations. Backs `Process::canonical_system_digest` for the
/// exploration kernel's symmetry reduction.
///
/// Process identity enters Algorithm 1 only through which slot of the
/// timestamp snapshot `R` a process announces into; the commit-time scan
/// reads the *whole* snapshot atomically and aggregates it into a count,
/// which is permutation-insensitive. So each process's signature carries
/// its own `R` slot (the slot travels with its owner under a
/// permutation) with the `me` index erased, the signature multiset is
/// sorted, and the snapshot is *excluded* from the shared-memory part of
/// the digest (the remaining objects — the CAS `C` — are
/// identity-independent). Permutation is safe at every program counter:
/// there is no incremental collect to tear.
pub fn canonical_agp_digest(sys: &System<TmWord, AgpTm>) -> Digest {
    let norm = normalized_agp(sys);
    let slots: Vec<TmWord> = norm
        .memory()
        .iter_objects()
        .find_map(|(_, obj)| match obj {
            BaseObject::Snapshot(v) => Some(v.clone()),
            _ => None,
        })
        .unwrap_or_default();
    let mut sigs: Vec<u128> = (0..norm.n())
        .map(|i| {
            let p = ProcessId::new(i);
            digest128_of(&(
                norm.is_pending(p),
                norm.is_crashed(p),
                norm.process(p)
                    .expect("process exists")
                    .retargeted(ProcessId::new(0)),
                slots.get(i),
            ))
            .0
        })
        .collect();
    sigs.sort_unstable();
    let mut fp = Fingerprinter::new();
    fp.write_usize(norm.n());
    for sig in &sigs {
        fp.write_u128(*sig);
    }
    for (_, obj) in norm.memory().iter_objects() {
        if !matches!(obj, BaseObject::Snapshot(_)) {
            obj.hash(&mut fp);
        }
    }
    fp.digest()
}

/// The π-image of a [`GlobalVersionTm`] configuration: process `i` moves
/// to slot `perm[i]`. Processes hold no identity-dependent state and the
/// shared CAS stays put, so only the pending/crashed flags and the
/// process states move. The history is dropped. Used by the symmetry
/// property suites.
///
/// # Panics
/// If `perm` is not a permutation of `0..n`.
pub fn permuted_global_version(
    sys: &System<TmWord, GlobalVersionTm>,
    perm: &[usize],
) -> System<TmWord, GlobalVersionTm> {
    sys.permuted(perm, |_, p| p.clone(), |_, obj| obj.clone())
}

/// The π-image of an [`AgpTm`] configuration: process `i` moves to slot
/// `perm[i]` (re-indexed via [`AgpTm::retargeted`]) and the timestamp
/// snapshot's slots move with their owners; the CAS stays put. The
/// history is dropped. Used by the symmetry property suites.
///
/// # Panics
/// If `perm` is not a permutation of `0..n`.
pub fn permuted_agp(sys: &System<TmWord, AgpTm>, perm: &[usize]) -> System<TmWord, AgpTm> {
    let n = perm.len();
    let mut inverse = vec![usize::MAX; n];
    for (i, &target) in perm.iter().enumerate() {
        inverse[target] = i;
    }
    sys.permuted(
        perm,
        |i, p| p.retargeted(ProcessId::new(perm[i])),
        |_, obj| match obj {
            BaseObject::Snapshot(v) => {
                BaseObject::Snapshot((0..n).map(|j| v[inverse[j]].clone()).collect())
            }
            other => other.clone(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use slx_history::{Operation, ProcessId, VarId};

    #[test]
    fn shift_word_rebases() {
        let s = Shift {
            dver: 3,
            dts: 2,
            dval: 10,
        };
        let w = TmWord::Versioned {
            version: 4,
            values: vec![Value::new(12)],
        };
        assert_eq!(
            shift_word(&w, s),
            TmWord::Versioned {
                version: 1,
                values: vec![Value::new(2)],
            }
        );
        assert_eq!(shift_word(&TmWord::Ts(5), s), TmWord::Ts(3));
    }

    fn gv_after_commits(commits: usize) -> System<TmWord, GlobalVersionTm> {
        let mut sys = GlobalVersionTm::system(1, 1);
        let p0 = ProcessId::new(0);
        for k in 0..commits {
            for op in [
                Operation::TxStart,
                Operation::TxWrite(VarId::new(0), Value::new(k as i64 + 1)),
                Operation::TxCommit,
            ] {
                sys.invoke(p0, op).unwrap();
                while !matches!(sys.step(p0).unwrap(), slx_memory::StepEffect::Responded(_)) {}
            }
        }
        sys
    }

    #[test]
    fn normalization_identifies_shifted_global_version_memories() {
        let p0 = [ProcessId::new(0)];
        let a = normalized_global_version(&gv_after_commits(0), &p0);
        let b = normalized_global_version(&gv_after_commits(1), &p0);
        let c = normalized_global_version(&gv_after_commits(2), &p0);
        // The committed memory words normalize identically regardless of
        // how many +1 commits happened.
        let word = |s: &System<TmWord, GlobalVersionTm>| {
            s.memory()
                .iter_objects()
                .map(|(_, o)| o.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(word(&a), word(&b));
        assert_eq!(word(&b), word(&c));
    }

    #[test]
    fn canonical_global_version_digest_is_shift_invariant() {
        // Compare laps ≥ 1: the zero-lap configuration is genuinely
        // different (a never-run process has pristine transaction-locals,
        // a lapped one retains dead — but `TxRead`-observable — ones).
        let d1 = canonical_global_version_digest(&gv_after_commits(1));
        let d2 = canonical_global_version_digest(&gv_after_commits(2));
        let d3 = canonical_global_version_digest(&gv_after_commits(3));
        assert_eq!(d1, d2);
        assert_eq!(d2, d3);
        assert_ne!(
            canonical_global_version_digest(&gv_after_commits(0)),
            d1,
            "pristine vs lapped transaction-locals stay distinct"
        );
    }

    fn run_whole(sys: &mut System<TmWord, AgpTm>, p: ProcessId, op: Operation) {
        sys.invoke(p, op).unwrap();
        while !matches!(sys.step(p).unwrap(), slx_memory::StepEffect::Responded(_)) {}
    }

    #[test]
    fn canonical_agp_digest_is_timestamp_shift_invariant() {
        // One empty transaction per process advances every timestamp and
        // every R slot by one and bumps the committed version; the
        // canonical digest rebases all of it away.
        let mut sys = AgpTm::system(2, 1);
        let d0 = canonical_agp_digest(&sys);
        for i in 0..2 {
            run_whole(&mut sys, ProcessId::new(i), Operation::TxStart);
            run_whole(&mut sys, ProcessId::new(i), Operation::TxCommit);
        }
        assert_eq!(canonical_agp_digest(&sys), d0, "uniform lap rebased away");
    }

    #[test]
    fn canonical_agp_digest_is_permutation_invariant() {
        // Drive an asymmetric state: p0 completes a transaction (its
        // timestamp and R slot advance), p1 starts one and parks before
        // commit. The permuted image is raw-distinct but canonically
        // equal.
        let mut sys = AgpTm::system(3, 1);
        run_whole(&mut sys, ProcessId::new(0), Operation::TxStart);
        run_whole(
            &mut sys,
            ProcessId::new(0),
            Operation::TxWrite(VarId::new(0), Value::new(5)),
        );
        run_whole(&mut sys, ProcessId::new(0), Operation::TxCommit);
        run_whole(&mut sys, ProcessId::new(1), Operation::TxStart);
        sys.invoke(ProcessId::new(1), Operation::TxCommit).unwrap();
        sys.step(ProcessId::new(1)).unwrap(); // scan: parked at CommitCas
        for perm in [[1usize, 0, 2], [2, 1, 0], [1, 2, 0]] {
            let image = permuted_agp(&sys, &perm);
            assert_ne!(sys.digest128(), image.digest128());
            assert_eq!(canonical_agp_digest(&sys), canonical_agp_digest(&image));
        }
        // Sanity: a *non*-orbit change (drop p1's pending commit moves
        // its pc) changes the canonical digest.
        let mut other = sys.clone();
        other.step(ProcessId::new(1)).unwrap();
        assert_ne!(canonical_agp_digest(&sys), canonical_agp_digest(&other));
    }

    #[test]
    fn canonical_global_version_digest_is_permutation_invariant() {
        let mut sys = GlobalVersionTm::system(3, 1);
        let p0 = ProcessId::new(0);
        sys.invoke(p0, Operation::TxStart).unwrap();
        while !matches!(sys.step(p0).unwrap(), slx_memory::StepEffect::Responded(_)) {}
        sys.invoke(p0, Operation::TxWrite(VarId::new(0), Value::new(3)))
            .unwrap();
        sys.step(p0).unwrap();
        sys.invoke(p0, Operation::TxCommit).unwrap();
        let image = permuted_global_version(&sys, &[2, 0, 1]);
        assert_ne!(sys.digest128(), image.digest128());
        assert_eq!(
            canonical_global_version_digest(&sys),
            canonical_global_version_digest(&image)
        );
    }
}
