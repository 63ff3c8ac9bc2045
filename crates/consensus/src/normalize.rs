//! Configuration normalization for [`ObstructionFreeConsensus`]: the
//! round-shift key (cycle detection) and the shift+permutation canonical
//! digest (symmetry reduction).
//!
//! The algorithm treats every commit-adopt round identically and never
//! revisits rounds below every climbing process's current one, so
//! behaviour is invariant under a uniform **round shift** — the
//! consensus-side analogue of `slx_tm::normalize`. It is also symmetric
//! under **process permutation**: participant identity only selects which
//! register column a process writes, so permuting the processes together
//! with their columns yields a behaviourally equivalent configuration.
//! [`round_shift_key`] exploits the first symmetry (it keys the
//! bivalence-adversary lasso in `slx-adversary`); [`canonical_of_digest`]
//! composes both and backs the exploration kernel's symmetry reduction.

use slx_engine::DetHashMap;
use std::hash::{Hash, Hasher};

use slx_engine::{Digest, Fingerprinter};
use slx_history::ProcessId;
use slx_memory::{BaseObject, ObjId, System};

use crate::of_consensus::{ObstructionFreeConsensus, OfNormalizedState};
use crate::word::ConsWord;

/// The round-shift-normalized cycle-detection key of
/// [`round_shift_key`]: per-process normalized states, the live register
/// window, and the decision register.
pub type OfRoundShiftKey = (Vec<OfNormalizedState>, Vec<ConsWord>, ConsWord);

/// Per-process view the key/digest functions share: pending flag, crashed
/// flag, and the process state.
fn proc_views(
    sys: &System<ConsWord, ObstructionFreeConsensus>,
) -> Vec<(bool, bool, &ObstructionFreeConsensus)> {
    (0..sys.n())
        .map(|i| {
            let p = ProcessId::new(i);
            (
                sys.is_pending(p),
                sys.is_crashed(p),
                sys.process(p).expect("process exists"),
            )
        })
        .collect()
}

/// The live round window: `base` = the minimum current round over the
/// **pending** processes (a process that never proposed idles at round 0
/// forever and must not pin the base; a responded process never steps
/// again and must not either), `top` = the maximum current round over
/// **all** processes (a responded process may have written rounds above
/// every pending process's round, and a climbing process will read them —
/// in the adversary's never-responding executions this coincides with the
/// pending maximum). Rounds above `top` are untouched, rounds below
/// `base` are dead: no process will ever read them again.
fn window_bounds(procs: &[(bool, bool, &ObstructionFreeConsensus)]) -> (usize, usize) {
    let base = procs
        .iter()
        .filter(|(pending, _, _)| *pending)
        .map(|(_, _, q)| q.round())
        .min()
        .unwrap_or(0);
    let top = procs.iter().map(|(_, _, q)| q.round()).max().unwrap_or(0);
    (base, top)
}

/// Reads a register's contents straight from the object table
/// (non-registers and unallocated ids read as `⊥`, a register's
/// allocation value).
fn read_register(sys: &System<ConsWord, ObstructionFreeConsensus>, id: ObjId) -> ConsWord {
    match sys.memory().object(id) {
        Some(BaseObject::Register(w)) => *w,
        _ => ConsWord::Bot,
    }
}

/// The round-shift-normalized cycle-detection key for an
/// [`ObstructionFreeConsensus`] system — the consensus-side analogue of
/// `slx_tm::normalize::normalized_global_version`.
///
/// Raw configurations never repeat under the bivalence adversary:
/// processes adopt forever and climb through fresh commit-adopt rounds,
/// so the round index and the touched register set grow without bound.
/// But behaviour is invariant under a uniform round shift, so the key
/// contains, with `base`/`top` the live round window (see the module
/// docs):
///
/// - each process's [`ObstructionFreeConsensus::normalized_state`]
///   rebased by `base` (register identities erased); non-pending
///   processes are frozen and enter rebased to their own round,
/// - the contents of the commit-adopt registers of rounds `base..=top`,
/// - and the decision register.
///
/// A repeat of this key (joined with any scheduler state, e.g. the
/// adversary's normalized step counts) witnesses a genuine infinite
/// execution, provided no new invocations arrive — a re-invoked process
/// would re-enter round 0 below `base` — and the layout has round
/// headroom left (the detector's run would panic on exhaustion rather
/// than mis-report).
#[must_use]
pub fn round_shift_key(sys: &System<ConsWord, ObstructionFreeConsensus>) -> OfRoundShiftKey {
    let procs = proc_views(sys);
    let (base, top) = window_bounds(&procs);
    let read = |id: ObjId| read_register(sys, id);

    let layout = procs
        .first()
        .expect("at least one process")
        .2
        .shared_layout();
    // With nothing pending no round register is read again, so the
    // window is empty; the bounds would put its base at round 0 and keep
    // every round, unshifted.
    let live = procs.iter().any(|(pending, _, _)| *pending);
    let mut window: Vec<ConsWord> = Vec::new();
    for r in (base..=top).filter(|_| live) {
        if let Some((a, b)) = layout.round_registers(r) {
            window.extend(a.iter().chain(b.iter()).map(read));
        }
    }

    (
        procs
            .iter()
            .map(|(pending, _, q)| {
                // Non-pending processes are frozen at their own round:
                // rebase to it (their round may sit below `base`, which
                // would underflow — and they must not perturb the
                // shifted key).
                let rebase = if *pending { base } else { q.round() };
                q.normalized_state(rebase)
            })
            .collect(),
        window,
        read(layout.decision()),
    )
}

/// The canonical symmetry digest for an [`ObstructionFreeConsensus`]
/// system: invariant under uniform round shifts *and* — on
/// permutation-safe configurations — process permutations, while erasing
/// the step/round counters exact digests mix in. Backs
/// `Process::canonical_system_digest` for the exploration kernel's
/// symmetry reduction.
///
/// **Permutation safety.** A pending, uncrashed process whose in-round
/// sub-machine is mid-collect (`CollectA(j)`/`CollectB(j)` with `j > 0`)
/// has read a concrete index-prefix of a register array; permuting the
/// processes moves the columns it has yet to read, which is *not* a
/// behaviour-preserving map. Such configurations fall back to the
/// round-shift-only key in process-index order (a distinct digest domain,
/// tagged). At every other program counter the remaining collects cover
/// whole arrays through order-insensitive aggregates (all-equal, any,
/// min, the at-most-one-flagged-value commit), so sorting the
/// per-process signatures quotients the permutation orbit without
/// changing any safety/valence/progress verdict — the symmetry
/// differential suites pin exactly that.
///
/// The per-process signature is (pending, crashed, `me`-erased
/// normalized state, own register columns of the live window); shared
/// state enters as the decision register. The primitive-application
/// counter is deliberately absent — like history, it never influences
/// future behaviour — which collapses states that differ only in how
/// they were scheduled.
#[must_use]
pub fn canonical_of_digest(sys: &System<ConsWord, ObstructionFreeConsensus>) -> Digest {
    // This runs once per *generated* state on the kernel's hot path, so
    // it reads registers straight out of the object table (an O(1)
    // index) and hashes per-process signatures in place — no maps, one
    // small `sigs` vector.
    let read = |id: ObjId| read_register(sys, id);
    let procs = proc_views(sys);
    let (base, top) = window_bounds(&procs);
    let layout = procs
        .first()
        .expect("at least one process")
        .2
        .shared_layout();

    let perm_safe = permutation_safe(sys);

    let mut sigs: Vec<u128> = procs
        .iter()
        .enumerate()
        .map(|(i, (pending, crashed, q))| {
            let rebase = if *pending { base } else { q.round() };
            let mut st: OfNormalizedState = q.normalized_state(rebase);
            if let Some(ac) = st.2 .1.as_mut() {
                // Erase the participant index: under a permutation it is
                // the process's slot, which the sorted form forgets.
                ac.1 = 0;
            }
            let mut h = Fingerprinter::new();
            (*pending, *crashed, st).hash(&mut h);
            // Process `i` owns column `i` of every round's `a` and `b`
            // arrays; its window columns travel with it under a
            // permutation.
            for r in base..=top {
                match layout.round_registers(r) {
                    Some((a, b)) => (read(a.at(i)), read(b.at(i))).hash(&mut h),
                    None => (ConsWord::Bot, ConsWord::Bot).hash(&mut h),
                }
            }
            h.digest().0
        })
        .collect();
    if perm_safe {
        sigs.sort_unstable();
    }

    let mut fp = Fingerprinter::new();
    fp.write_u8(u8::from(perm_safe));
    fp.write_usize(sys.n());
    fp.write_usize(top - base);
    for sig in &sigs {
        fp.write_u128(*sig);
    }
    read(layout.decision()).hash(&mut fp);
    fp.digest()
}

/// Whether a configuration is **permutation-safe**: no pending, uncrashed
/// process is mid-collect (`CollectA(j)`/`CollectB(j)` with `j > 0`).
/// Collects walk the register arrays in fixed index order, so only at
/// collect boundaries is the per-process state insensitive to column
/// order — exactly there [`canonical_of_digest`] sorts the per-process
/// signatures, and [`permuted_of_system`] images share the canonical
/// digest. The symmetry property suite uses this predicate to pick its
/// checkpoints.
#[must_use]
pub fn permutation_safe(sys: &System<ConsWord, ObstructionFreeConsensus>) -> bool {
    (0..sys.n()).all(|i| {
        let id = ProcessId::new(i);
        // Crashed processes never step again, so a stale collect prefix
        // is inert; idle/decided processes are not mid-collect at all.
        let q = sys.process(id).expect("process exists");
        let st = q.normalized_state(q.round());
        !sys.is_pending(id)
            || sys.is_crashed(id)
            || !matches!(st.2 .1, Some(((1 | 3, j), ..)) if j > 0)
    })
}

/// The π-image of a configuration: process `i` moves to slot `perm[i]`
/// (its state retargeted via
/// [`ObstructionFreeConsensus::retargeted`]) and every commit-adopt
/// register column moves with its owner, while the decision register
/// stays put. The history is dropped.
///
/// This is the concrete permutation action [`canonical_of_digest`]
/// quotients by; the symmetry property suites build images with it and
/// assert digest invariance.
///
/// # Panics
/// If `perm` is not a permutation of `0..n` or the system is empty.
#[must_use]
pub fn permuted_of_system(
    sys: &System<ConsWord, ObstructionFreeConsensus>,
    perm: &[usize],
) -> System<ConsWord, ObstructionFreeConsensus> {
    let layout = *sys
        .process(ProcessId::new(0))
        .expect("at least one process")
        .shared_layout();
    let n = perm.len();
    let mut inverse = vec![usize::MAX; n];
    for (i, &target) in perm.iter().enumerate() {
        inverse[target] = i;
    }
    // Column `j` of every round receives the contents of column
    // `perm⁻¹(j)` — the register that belonged to the process now sitting
    // in slot `j`.
    let mut source: DetHashMap<usize, ObjId> = DetHashMap::default();
    for r in 0..layout.max_rounds() {
        let (a, b) = layout.round_registers(r).expect("round in range");
        for (j, &from) in inverse.iter().enumerate() {
            source.insert(a.at(j).index(), a.at(from));
            source.insert(b.at(j).index(), b.at(from));
        }
    }
    sys.permuted(
        perm,
        |i, p| p.retargeted(ProcessId::new(perm[i])),
        |id, obj| match source.get(&id.index()) {
            Some(&src) => sys
                .memory()
                .object(src)
                .expect("register allocated")
                .clone(),
            None => obj.clone(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn round_shift_identifies_adversarial_laps() {
        // A bivalence-preserving schedule: both write A and collect both
        // A entries (each sees disagreement, so neither commits), then
        // p1 writes and collects B *before p0 writes B* — p1's collect
        // skips p0's unwritten `⊥` entry, sees only its own value and
        // adopts it, while p0 later sees both and adopts the minimum
        // (its own). Estimates stay {1, 2}, both climb one round per
        // lap, forever. Lap boundaries are raw-distinct (fresh rounds)
        // but identical modulo the round shift.
        let mut sys = ObstructionFreeConsensus::proposers(&[1, 2], 16);
        let lap = |sys: &mut System<ConsWord, ObstructionFreeConsensus>| {
            for i in [0, 1, 0, 1, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0] {
                sys.step(p(i)).unwrap();
            }
        };
        let start = round_shift_key(&sys);
        let start_canon = canonical_of_digest(&sys);
        let mut raw = vec![sys.digest128()];
        for _ in 0..3 {
            lap(&mut sys);
            assert_eq!(round_shift_key(&sys), start, "laps differ only by shift");
            assert_eq!(canonical_of_digest(&sys), start_canon);
            raw.push(sys.digest128());
            assert!(
                raw.iter().filter(|&&d| d == *raw.last().unwrap()).count() == 1,
                "raw configurations must stay distinct (rounds climb)"
            );
        }
    }

    #[test]
    fn canonical_digest_is_permutation_invariant_at_safe_states() {
        // Drive an asymmetric schedule to a permutation-safe state: p0
        // writes A and is about to collect index 0; p1 still at
        // CheckDecision.
        let mut sys = ObstructionFreeConsensus::proposers(&[1, 2], 16);
        sys.step(p(0)).unwrap(); // CheckDecision -> Round(WriteA)
        sys.step(p(0)).unwrap(); // WriteA -> CollectA(0)
        let image = permuted_of_system(&sys, &[1, 0]);
        assert_ne!(
            sys.digest128(),
            image.digest128(),
            "the image is a genuinely different configuration"
        );
        assert_eq!(canonical_of_digest(&sys), canonical_of_digest(&image));
    }

    #[test]
    fn mid_collect_states_fall_back_without_colliding() {
        // Step p0 to CollectA(1) (mid-collect, j > 0): the canonical
        // digest must come from the tagged fallback domain and still
        // distinguish genuinely different mid-collect states.
        let mut sys = ObstructionFreeConsensus::proposers(&[1, 2], 16);
        for _ in 0..3 {
            sys.step(p(0)).unwrap(); // CheckDecision, WriteA, CollectA(0)->read
        }
        let mut other = ObstructionFreeConsensus::proposers(&[1, 2], 16);
        for _ in 0..3 {
            other.step(p(1)).unwrap();
        }
        // p0 mid-collect vs p1 mid-collect are *not* identified while
        // collects are positional.
        assert_ne!(canonical_of_digest(&sys), canonical_of_digest(&other));
    }

    #[test]
    fn permuted_system_steps_like_the_original() {
        // Behavioural spot check of the permutation action: stepping
        // π(i) in the image tracks stepping i in the original, with
        // canonical digests agreeing at every permutation-safe
        // checkpoint. (Exact state equality does *not* commute with
        // steps mid-collect — the collect walks indices in a fixed
        // order, so a permutation changes which columns a half-done
        // collect has consumed. That is exactly why mid-collect states
        // are gated out of the sorted form; between checkpoints the
        // order-insensitive aggregates reconverge.)
        let mut sys = ObstructionFreeConsensus::proposers(&[1, 2, 3], 16);
        sys.step(p(0)).unwrap(); // CheckDecision -> open round
        sys.step(p(0)).unwrap(); // WriteA: p0's value visible at a[0]
        sys.step(p(2)).unwrap(); // CheckDecision -> open round
        let perm = [2usize, 0, 1];
        let mut image = permuted_of_system(&sys, &perm);
        let mut orig = sys.clone();
        assert_eq!(canonical_of_digest(&orig), canonical_of_digest(&image));
        // Drive p1 through one full commit-adopt round (9 steps for
        // n = 3). Safe checkpoints: after opening the round (1), after
        // WriteA (2), after the full A collect (5), after WriteB (6)
        // and after the full B collect resolves the round (9).
        for s in 1..=9 {
            orig.step(p(1)).unwrap();
            image.step(p(perm[1])).unwrap();
            if matches!(s, 1 | 2 | 5 | 6 | 9) {
                assert_eq!(
                    canonical_of_digest(&orig),
                    canonical_of_digest(&image),
                    "checkpoint after step {s}"
                );
            }
        }
    }
}
