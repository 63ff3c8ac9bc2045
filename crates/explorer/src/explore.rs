//! Exhaustive schedule enumeration with safety checking.
//!
//! Since the `slx-engine` refactor these searches run on the shared
//! exploration kernel: configurations are deduplicated by 128-bit
//! fingerprint (no retained clones), levels are expanded in parallel
//! when the machine has cores to spare, and every outcome carries the
//! kernel's [`ExploreStats`].

use std::hash::Hash;

use slx_engine::{
    digest128_of, Checker, DeltaCodec, Digest, Expansion, ExploreStats, Fingerprinter, StateSpace,
};
use slx_history::{History, ProcessId};
use slx_memory::{Memory, Process, StepEffect, System, Word};
use slx_safety::SafetyProperty;

/// Fast digest of a full external history, order-sensitive.
///
/// This is the workspace-wide history digest (re-exported by
/// `slx_core::explorer`); it is sound for *any* safety property because it
/// captures the entire history. It is [`History::digest64`], which the
/// history keeps up to date as it grows, so reading it is O(1) whatever
/// the history's length. Callers with other faithful digests (e.g. just
/// the decided values for consensus agreement) can still pass their own.
#[must_use]
pub fn history_digest(h: &History) -> u64 {
    h.digest64()
}

/// Result of an [`explore_safety`] run.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Distinct (configuration, digest) pairs visited.
    pub configs: usize,
    /// Violating histories found (search prunes below each violation).
    pub violations: Vec<History>,
    /// Whether the depth bound cut any branch (if `false`, the search was
    /// exhaustive: every schedule of the active processes, to quiescence).
    pub truncated: bool,
    /// Kernel statistics for this run (states/sec, dedup hit rate, peak
    /// frontier, threads).
    pub stats: ExploreStats,
}

impl ExploreOutcome {
    /// Whether the property held everywhere explored.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Slots of a [`WrittenMemories`] table. Swept over {64, 128, 256}
/// (EXPERIMENTS.md, "Equal memories are one memory"): more slots find
/// more equal memories on `deep-resident` and pin more chunks on
/// `deep-spill`, whose chunks are small.
const MEMORY_SLOTS: usize = 128;

/// The memories written while expanding one chunk of a level (a resident
/// run's whole level) or one block of parents, direct-mapped by their
/// `Hash`: SPIN's COLLAPSE idea, with the memory as the shared component.
/// Each process writes only its own registers, so interleavings that
/// differ only in the order of writes reach equal memories from
/// different parents; a successor whose memory is already in the table
/// takes that memory's copies of the chunks it wrote and frees its own
/// ([`System::share_memory`]). It lives in the worker's
/// [`Expansion::scratch`] and goes with it.
struct WrittenMemories<W> {
    slots: Vec<Option<Memory<W>>>,
}

impl<W> Default for WrittenMemories<W> {
    fn default() -> Self {
        let slots = (0..MEMORY_SLOTS).map(|_| None).collect();
        WrittenMemories { slots }
    }
}

impl<W: Word> WrittenMemories<W> {
    /// Lets `next` share the chunks of the equal memory its slot holds,
    /// or else puts a clone of `next`'s memory in the slot.
    fn share<P: Process<W>>(&mut self, next: &mut System<W, P>) {
        let key = digest128_of(next.memory()).0 as usize;
        let slot = &mut self.slots[key % MEMORY_SLOTS];
        match slot {
            Some(memory) if next.share_memory(memory) => {}
            _ => *slot = Some(next.memory().clone()),
        }
    }
}

/// The safety-exploration state space: all schedules of the active
/// processes to a depth bound, pruning below violations.
struct SafetySpace<'a, W, P, S, D> {
    active: &'a [ProcessId],
    depth: usize,
    safety: &'a S,
    digest: D,
    /// Whether `active` covers every process of the explored systems —
    /// required for the symmetry reduction: a process permutation is only
    /// schedule-preserving when the active set is permutation-closed.
    all_active: bool,
    _marker: std::marker::PhantomData<(W, P)>,
}

/// Whether `active` is exactly `{0, .., n-1}` — the full, permutation-
/// closed active set symmetry reduction requires.
pub(crate) fn covers_all_processes(active: &[ProcessId], n: usize) -> bool {
    active.len() == n && {
        let mut seen = vec![false; n];
        active.iter().all(|p| {
            let i = p.index();
            i < n && !std::mem::replace(&mut seen[i], true)
        })
    }
}

impl<W, P, S, D> StateSpace for SafetySpace<'_, W, P, S, D>
where
    W: Word + DeltaCodec + Send + Sync + 'static,
    P: Process<W> + DeltaCodec + Clone + Eq + Hash + Send + Sync,
    S: SafetyProperty + Sync,
    D: Fn(&History) -> u64 + Sync,
{
    type State = System<W, P>;
    type Finding = History;

    fn digest(&self, sys: &Self::State) -> Digest {
        // Configuration fingerprint mixed with the caller's history
        // digest: exactly the `(configuration, digest(history))` key the
        // retained-set implementation deduplicated on.
        let mut fp = Fingerprinter::new();
        sys.hash(&mut fp);
        std::hash::Hasher::write_u64(&mut fp, (self.digest)(sys.history()));
        fp.digest()
    }

    fn has_symmetry_reduction(&self) -> bool {
        self.all_active && P::has_symmetry_reduction()
    }

    fn canonical_digest(&self, sys: &Self::State) -> Digest {
        // The algorithm's orbit-canonical configuration digest mixed with
        // the same history digest as the exact key: the history captures
        // everything verdict-relevant about the past, and it is constant
        // across the (undecided) bulk of each level, so orbit twins with
        // equal histories still collapse. Sound for the same reason the
        // exact key is: two states with equal canonical keys have
        // symmetry-equivalent futures and identical past verdicts.
        let mut fp = Fingerprinter::new();
        std::hash::Hasher::write_u128(&mut fp, P::canonical_system_digest(sys).0);
        std::hash::Hasher::write_u64(&mut fp, (self.digest)(sys.history()));
        fp.digest()
    }

    fn expand(&self, sys: &Self::State, depth: usize, ctx: &mut Expansion<Self>) {
        if depth >= self.depth {
            if !sys.quiescent() {
                ctx.mark_truncated();
            }
            return;
        }
        ctx.reserve(self.active.len());
        for &p in self.active {
            if !sys.can_step(p) {
                continue;
            }
            let mut next = sys.clone();
            let effect = next.step(p).expect("steppable process steps");
            if matches!(effect, StepEffect::Responded(_)) && !self.safety.allows(next.history()) {
                ctx.finding(next.history().clone());
                continue; // prune below the violation
            }
            // A step that only read still shares every chunk with `sys`.
            if !next.memory().shares_chunks_with(sys.memory()) {
                ctx.scratch::<WrittenMemories<W>>().share(&mut next);
            }
            ctx.push(next);
        }
    }
}

/// Explores **all schedules** of the `active` processes from `initial`
/// (which should already contain its invocations), up to `depth` steps per
/// branch, checking `safety` on the history after every response.
///
/// `digest` must capture everything about the *past* history that the
/// safety property's future verdicts depend on (e.g. for consensus
/// agreement: the set of decided values). Configurations are deduplicated
/// on a fingerprint of `(configuration, digest(history))`; with a faithful
/// digest the search is exact, not heuristic.
///
/// A successor whose step wrote may end up holding an equal memory that
/// another successor from the same chunk of its level wrote first (see
/// [`System::share_memory`]): one copy of the chunks, the same
/// configuration, digests and verdicts.
///
/// Runs on [`Checker::auto`] (parallel BFS sized to the machine); use
/// [`explore_safety_with`] to pin a checker.
pub fn explore_safety<W, P, S>(
    initial: &System<W, P>,
    active: &[ProcessId],
    depth: usize,
    safety: &S,
    digest: impl Fn(&History) -> u64 + Copy + Send + Sync,
) -> ExploreOutcome
where
    W: Word + DeltaCodec + Send + Sync + 'static,
    P: Process<W> + DeltaCodec + Clone + Eq + Hash + Send + Sync,
    S: SafetyProperty + Sync,
{
    explore_safety_with(&Checker::auto(), initial, active, depth, safety, digest)
}

/// [`explore_safety`] on an explicit checker (the differential tests pin
/// thread, shard, spill and symmetry settings against each other and
/// against the retained-clone oracle in [`crate::baseline`]).
pub fn explore_safety_with<W, P, S>(
    checker: &Checker,
    initial: &System<W, P>,
    active: &[ProcessId],
    depth: usize,
    safety: &S,
    digest: impl Fn(&History) -> u64 + Copy + Send + Sync,
) -> ExploreOutcome
where
    W: Word + DeltaCodec + Send + Sync + 'static,
    P: Process<W> + DeltaCodec + Clone + Eq + Hash + Send + Sync,
    S: SafetyProperty + Sync,
{
    explore_safety_observed(checker, initial, active, depth, safety, digest, |_, _| true)
}

/// [`explore_safety_with`] with a progress observer: `progress` receives
/// the current depth and a lifetime [`ExploreStats`] snapshot at every
/// BFS level boundary (see [`Checker::run_observed`]); returning `false`
/// cancels the run, which then reports `stopped_early`. This is the
/// check service's streaming/cancellation entry point — a checkpointed
/// run cancelled here resumes from its last committed image.
pub fn explore_safety_observed<W, P, S>(
    checker: &Checker,
    initial: &System<W, P>,
    active: &[ProcessId],
    depth: usize,
    safety: &S,
    digest: impl Fn(&History) -> u64 + Copy + Send + Sync,
    progress: impl FnMut(usize, &ExploreStats) -> bool,
) -> ExploreOutcome
where
    W: Word + DeltaCodec + Send + Sync + 'static,
    P: Process<W> + DeltaCodec + Clone + Eq + Hash + Send + Sync,
    S: SafetyProperty + Sync,
{
    let space = SafetySpace {
        active,
        depth,
        safety,
        digest,
        all_active: covers_all_processes(active, initial.n()),
        _marker: std::marker::PhantomData,
    };
    let out = checker.run_observed(&space, vec![initial.clone()], |_| false, progress);
    ExploreOutcome {
        configs: out.stats.configs,
        violations: out.findings,
        truncated: out.stats.truncated,
        stats: out.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slx_consensus::{CasConsensus, ConsWord, ObstructionFreeConsensus};
    use slx_engine::StateCodec;
    use slx_history::{Action, Operation, Response, Value};
    use slx_memory::Memory;
    use slx_safety::ConsensusSafety;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }
    fn v(x: i64) -> Value {
        Value::new(x)
    }

    /// Digest for consensus safety: proposals seen and decisions made.
    fn consensus_digest(h: &History) -> u64 {
        slx_engine::digest64_of_iter(h.iter().map(|a| match a {
            Action::Invoke { op, .. } => (1u8, Some(*op), None, None),
            Action::Respond { resp, .. } => (2u8, None, Some(*resp), None),
            Action::Crash { proc } => (3u8, None, None, Some(*proc)),
        }))
    }

    #[test]
    fn cas_consensus_safe_under_all_schedules() {
        let mut mem: Memory<ConsWord> = Memory::new();
        let obj = CasConsensus::alloc(&mut mem);
        let mut sys = System::new(mem, vec![CasConsensus::new(obj), CasConsensus::new(obj)]);
        sys.invoke(p(0), Operation::Propose(v(1))).unwrap();
        sys.invoke(p(1), Operation::Propose(v(2))).unwrap();
        let active = [p(0), p(1)];
        let out = explore_safety(&sys, &active, 16, &ConsensusSafety::new(), consensus_digest);
        assert!(out.holds(), "violations: {:?}", out.violations);
        assert!(!out.truncated, "depth 16 must finish 2×2-step processes");
        assert!(out.configs > 1);
        assert_eq!(out.stats.configs, out.configs);
    }

    #[test]
    fn of_consensus_safe_under_all_schedules_small_scope() {
        let sys = ObstructionFreeConsensus::proposers(&[1, 2], 8);
        let active = [p(0), p(1)];
        let out = explore_safety(&sys, &active, 26, &ConsensusSafety::new(), consensus_digest);
        assert!(out.holds(), "violations: {:?}", out.violations);
        // Depth 26 truncates (the algorithm can run long under contention);
        // what matters is that no explored schedule violates safety.
        assert!(out.configs > 100);
    }

    #[test]
    fn explore_detects_injected_violation() {
        /// A broken "consensus" that decides its own value immediately.
        #[derive(Debug, Clone, PartialEq, Eq, Hash)]
        struct Selfish {
            pending: Option<Value>,
        }
        impl slx_memory::Process<ConsWord> for Selfish {
            fn on_invoke(&mut self, op: Operation) {
                if let Operation::Propose(v) = op {
                    self.pending = Some(v);
                }
            }
            fn has_step(&self) -> bool {
                self.pending.is_some()
            }
            fn step(&mut self, _mem: &mut Memory<ConsWord>) -> StepEffect {
                let v = self.pending.take().expect("pending");
                StepEffect::Responded(Response::Decided(v))
            }
        }
        impl StateCodec for Selfish {
            fn encode(&self, out: &mut Vec<u8>) {
                self.pending.encode(out);
            }
            fn decode(input: &mut &[u8]) -> Option<Self> {
                Some(Selfish {
                    pending: Option::decode(input)?,
                })
            }
        }
        impl DeltaCodec for Selfish {}
        let mem: Memory<ConsWord> = Memory::new();
        let mut sys = System::new(
            mem,
            vec![Selfish { pending: None }, Selfish { pending: None }],
        );
        sys.invoke(p(0), Operation::Propose(v(1))).unwrap();
        sys.invoke(p(1), Operation::Propose(v(2))).unwrap();
        let out = explore_safety(
            &sys,
            &[p(0), p(1)],
            4,
            &ConsensusSafety::new(),
            consensus_digest,
        );
        assert!(!out.holds(), "disagreement must be found");
    }

    #[test]
    fn successors_of_two_parents_that_write_equal_memories_share_one() {
        let sys = ObstructionFreeConsensus::proposers(&[1, 2], 8);
        let step = |sys: &System<ConsWord, ObstructionFreeConsensus>, i| {
            let mut next = sys.clone();
            next.step(p(i)).unwrap();
            next
        };
        // Both processes read the decision register; then each writes its
        // own register, in either order: two parents, one depth, and
        // successors whose memories are equal.
        let read = step(&sys, 0);
        assert!(read.memory().shares_chunks_with(sys.memory()));
        let base = step(&read, 1);
        let (a, b) = (step(&base, 0), step(&base, 1));
        let (mut ab, mut ba) = (step(&a, 1), step(&b, 0));
        assert!(!ab.memory().shares_chunks_with(a.memory()));
        assert!(!ba.memory().shares_chunks_with(b.memory()));
        assert!(ab.memory() == ba.memory() && !ba.memory().shares_chunks_with(ab.memory()));
        let digest = digest128_of(&ba);

        let mut table = WrittenMemories::default();
        table.share(&mut ab);
        table.share(&mut ba);
        assert!(ba.memory().shares_chunks_with(ab.memory()));
        assert_eq!(digest128_of(&ba), digest);
        assert!(ba.memory().fold_is_exact());
        // A memory that is not the slot's keeps its own copy.
        let mut aa = step(&a, 0);
        assert!(!aa.share_memory(ab.memory()));
        table.share(&mut aa);
        assert!(!aa.memory().shares_chunks_with(ab.memory()));
    }

    #[test]
    fn history_digest_is_order_sensitive() {
        let mut a = History::new();
        a.push(Action::invoke(p(0), Operation::Propose(v(1))));
        a.push(Action::invoke(p(1), Operation::Propose(v(2))));
        let mut b = History::new();
        b.push(Action::invoke(p(1), Operation::Propose(v(2))));
        b.push(Action::invoke(p(0), Operation::Propose(v(1))));
        assert_ne!(history_digest(&a), history_digest(&b));
        assert_eq!(history_digest(&a), history_digest(&a.clone()));
    }

    /// Every generated successor is fingerprinted, so `history_digest`
    /// must cost the same at any length: it reads the fold the appends
    /// keep and walks no action. Handed histories whose fold was taken
    /// from another, it answers that one's digest at every length — the
    /// number of actions it read is zero.
    #[test]
    fn history_digest_reads_no_action_at_any_length() {
        let other: History = [Action::crash(p(2))].into_iter().collect();
        for len in [1, 100, 10_000] {
            let long: History = (0..len)
                .map(|i| Action::invoke(p(i % 2), Operation::Propose(v(i as i64))))
                .collect();
            assert_ne!(history_digest(&long), other.digest64());
            let stale = long.with_fold_of(&other);
            assert_eq!(history_digest(&stale), other.digest64(), "{len} actions");
        }
    }
}
