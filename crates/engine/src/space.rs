//! The [`StateSpace`] abstraction checkers implement.

use std::any::Any;

use crate::digest::Digest;

/// A transition system the [`crate::Checker`] can explore.
///
/// Implementors supply three things: a state type, a fingerprint
/// ([`StateSpace::digest`] — the kernel deduplicates on digests only and
/// never retains states), and successor enumeration
/// ([`StateSpace::expand`]). A space whose states are paths declares so
/// through [`StateSpace::REVISITS`]; the kernel then digests and
/// deduplicates its initial states only, since no successor can equal
/// another state of the run.
///
/// `expand` receives the state's depth (shortest known distance from an
/// initial state, in expansion steps) and is responsible for enforcing its
/// own horizon: a space with a depth bound simply pushes no successors at
/// the bound, marking the expansion truncated if the state was not
/// terminal. Keeping the bound inside the space lets the same kernel drive
/// bounded safety exploration, budgeted valence queries, and unbounded
/// reachability alike.
///
/// `expand` must be a **pure function** of `(state, depth)`: the kernel's
/// determinism guarantees rely on it, and the replay spill codec
/// ([`crate::SpillCodec::Replay`]) stores a spilled successor as its
/// parent plus its position in the parent's push order, regenerating it
/// by expanding the parent again — so a re-expansion must produce the
/// same successors in the same push order.
pub trait StateSpace {
    /// A state of the transition system. `Send + Sync` because the
    /// parallel BFS hands frontier slices to worker threads.
    type State: Clone + Send + Sync;
    /// What an expansion can report to the caller: a safety violation, a
    /// decidable value, a starvation witness…
    type Finding: Send;

    /// Whether two expansions of one run can produce equal states.
    ///
    /// `false` declares a space whose states are paths: every successor
    /// is new, because its prefix — the parent that pushed it — is its
    /// only parent and no expansion pushes one successor twice (an
    /// execution extended by distinct transitions, a tree walk). The
    /// kernel then computes no digest for a successor and admits every
    /// one without a visited-set insert or a checkpoint-log entry; the
    /// initial states still deduplicate on their digests, and symmetry
    /// reduction stays inert. A space that declares it wrongly explores a
    /// repeated state once per way of reaching it: counts grow, and no
    /// finding is lost — unlike a digest collision, which a
    /// deduplicating run can only lose a state to.
    ///
    /// It states a fact about the space, so it is a constant: no checker
    /// setting changes it, and every space that keeps the default
    /// compiles to the deduplicating kernel.
    const REVISITS: bool = true;

    /// The state's 128-bit fingerprint. Must capture everything future
    /// behaviour (and findings) can depend on: states with equal digests
    /// are explored once.
    fn digest(&self, state: &Self::State) -> Digest;

    /// Enumerates `state`'s successors and findings into `ctx`.
    fn expand(&self, state: &Self::State, depth: usize, ctx: &mut Expansion<Self>);

    /// Whether [`StateSpace::canonical_digest`] is a real orbit-collapsing
    /// canonicalizer rather than the [`StateSpace::digest`] fallback.
    ///
    /// Symmetry reduction ([`crate::Checker::with_symmetry`]) only
    /// activates when the space advertises
    /// this capability: a checker asked for symmetry on a space without
    /// one runs the unreduced kernel unchanged (and its stats assert so).
    fn has_symmetry_reduction(&self) -> bool {
        false
    }

    /// The state's fingerprint **canonicalized over its symmetry orbit**:
    /// states reachable from one another by a symmetry of the space (a
    /// process permutation, a uniform counter shift, …) must digest
    /// equally, and states the symmetry group does not identify must keep
    /// distinct digests with the same 128-bit-collision confidence as
    /// [`StateSpace::digest`].
    ///
    /// Soundness contract: every [`StateSpace::Finding`] must be
    /// preserved by the symmetries the canonicalizer quotients by —
    /// exploring one orbit representative must surface a finding iff
    /// exploring any orbit member would. The default is the exact digest
    /// (no reduction); spaces that override it must also override
    /// [`StateSpace::has_symmetry_reduction`].
    fn canonical_digest(&self, state: &Self::State) -> Digest {
        self.digest(state)
    }
}

/// Sink for one state's expansion: successors, findings, and truncation.
///
/// Successor digests are computed eagerly at push time (a space that
/// does not [revisit](StateSpace::REVISITS) gets none): on the worker
/// that built the successor, while it is still in that worker's cache,
/// rather than on the one thread that merges — whose share of a level is
/// then a set insert per successor. A checker keeps one `Expansion` per
/// thread and resets or drains it between parents (the BFS window), so
/// the vectors are allocated once, not per state; it lives for one chunk
/// of a level (the whole level in a resident run) with one thread, for
/// one block of parents with more.
pub struct Expansion<'sp, Sp: StateSpace + ?Sized> {
    space: &'sp Sp,
    pub(crate) succs: Vec<(Sp::State, Digest)>,
    pub(crate) findings: Vec<Sp::Finding>,
    pub(crate) truncated: bool,
    /// Whether pushes compute real digests. Replay regeneration turns
    /// this off: regenerated successors go straight back into a frontier
    /// (their digests were consumed by the visited set when the parent
    /// was first expanded), so hashing them again would be pure waste on
    /// the spill hot path.
    digests: bool,
    /// Whether pushes compute [`StateSpace::canonical_digest`] instead of
    /// the exact digest. Set by the checker when symmetry reduction is
    /// active, so orbit collapse happens at push time — on the expanding
    /// worker — like ordinary digesting.
    canonical: bool,
    /// What [`Expansion::scratch`] hands out, kept across parents.
    scratch: Option<Box<dyn Any + Send>>,
}

impl<'sp, Sp: StateSpace + ?Sized> Expansion<'sp, Sp> {
    pub(crate) fn new(space: &'sp Sp) -> Self {
        Expansion {
            space,
            succs: Vec::new(),
            findings: Vec::new(),
            truncated: false,
            digests: true,
            canonical: false,
            scratch: None,
        }
    }

    /// An expansion whose pushes digest canonically (symmetry reduction
    /// active) or exactly, per `canonical`.
    pub(crate) fn new_maybe_canonical(space: &'sp Sp, canonical: bool) -> Self {
        Expansion {
            canonical,
            ..Expansion::new(space)
        }
    }

    /// An expansion whose pushes skip digest computation (the successor
    /// slots carry a zero digest). Used by replay regeneration, where
    /// only the successor states are consumed.
    pub(crate) fn new_undigested(space: &'sp Sp) -> Self {
        Expansion {
            digests: false,
            ..Expansion::new(space)
        }
    }

    pub(crate) fn reset(&mut self) {
        self.succs.clear();
        self.findings.clear();
        self.truncated = false;
    }

    /// A value the space keeps while this expansion lasts: across every
    /// parent of the chunk or block it serves, then dropped with it. The
    /// first call, or a call for another type, starts from
    /// `T::default()`.
    ///
    /// An expansion belongs to one worker, so this needs no lock. It is
    /// for sharing storage between successors of different parents,
    /// never for changing what is pushed: `expand` stays a pure function
    /// of `(state, depth)`.
    pub fn scratch<T: Default + Send + 'static>(&mut self) -> &mut T {
        if !self.scratch.as_ref().is_some_and(|held| held.is::<T>()) {
            self.scratch = Some(Box::new(T::default()));
        }
        self.scratch
            .as_mut()
            .and_then(|held| held.downcast_mut())
            .expect("holds a `T` since just above")
    }

    /// Pre-allocates room for at least `additional` more successors.
    ///
    /// `expand` implementations that know their branching factor up front
    /// (typically the number of schedulable processes) call this before
    /// their push loop, so a successor vector that is still growing is
    /// sized in one allocation instead of through the doubling ladder.
    pub fn reserve(&mut self, additional: usize) {
        self.succs.reserve(additional);
    }

    /// Emits a successor state.
    pub fn push(&mut self, succ: Sp::State) {
        let digest = if !Sp::REVISITS || !self.digests {
            Digest(0)
        } else if self.canonical {
            self.space.canonical_digest(&succ)
        } else {
            self.space.digest(&succ)
        };
        self.succs.push((succ, digest));
    }

    /// Reports a finding (violation, witness, value, …).
    pub fn finding(&mut self, finding: Sp::Finding) {
        self.findings.push(finding);
    }

    /// Records that this expansion was cut short (horizon reached with the
    /// state not terminal): the exploration is no longer exhaustive.
    pub fn mark_truncated(&mut self) {
        self.truncated = true;
    }
}
