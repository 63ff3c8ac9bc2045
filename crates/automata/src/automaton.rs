//! The finite I/O automaton structure.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::hash::Hash;

use slx_engine::{
    digest128_of, Checker, DeltaCodec, DeltaCtx, Digest, Expansion, KernelOutcome, StateCodec,
    StateSpace,
};

/// Index of a state within an [`Automaton`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub usize);

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A finite execution: alternating states and actions, starting (and, per
/// the paper, ending) with a state.
///
/// The fields stay public: the repo benchmark (`benchmark/src/probes.rs`)
/// builds executions by literal, and nothing here holds a condition
/// between them that a constructor could enforce and a literal could not.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Execution<L> {
    /// The visited states; `states.len() == actions.len() + 1`.
    pub states: Vec<StateId>,
    /// The actions taken.
    pub actions: Vec<L>,
}

impl<L> Execution<L> {
    /// The final state of the execution.
    pub fn last_state(&self) -> StateId {
        *self.states.last().expect("executions are non-empty")
    }
}

impl<L: Clone> Execution<L> {
    /// This execution followed by `action` into `target`, built at its
    /// final size: two allocations of exactly `len + 1` elements and no
    /// reallocation. (`clone` allocates at `len`, so a `push` onto the
    /// clone reallocates to `2 * len` at once — twice per extension, and
    /// every enumerated execution then holds twice the heap it uses.)
    pub fn extended(&self, action: L, target: StateId) -> Self {
        let mut states = Vec::with_capacity(self.states.len() + 1);
        states.extend_from_slice(&self.states);
        states.push(target);
        let mut actions = Vec::with_capacity(self.actions.len() + 1);
        actions.extend_from_slice(&self.actions);
        actions.push(action);
        Execution { states, actions }
    }
}

impl StateCodec for StateId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(StateId(usize::decode(input)?))
    }
}

impl<L: StateCodec> StateCodec for Execution<L> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.states.encode(out);
        self.actions.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(Execution {
            states: Vec::decode(input)?,
            actions: Vec::decode(input)?,
        })
    }
}

impl DeltaCodec for StateId {}

impl<L: DeltaCodec + PartialEq + Clone> DeltaCodec for Execution<L> {
    /// Sibling executions in a frontier extend a common prefix by one
    /// state and one action; both vectors delta as slices.
    fn encode_delta(&self, prev: Option<&Self>, out: &mut Vec<u8>) {
        let Some(prev) = prev else {
            return self.encode(out);
        };
        self.states.encode_delta(Some(&prev.states), out);
        self.actions.encode_delta(Some(&prev.actions), out);
    }

    fn decode_delta(prev: Option<&Self>, input: &mut &[u8], ctx: &mut DeltaCtx) -> Option<Self> {
        let Some(prev) = prev else {
            return Self::decode(input);
        };
        Some(Execution {
            states: Vec::decode_delta(Some(&prev.states), input, ctx)?,
            actions: Vec::decode_delta(Some(&prev.actions), input, ctx)?,
        })
    }
}

/// The transitions out of one state: action → target states.
type Row<L> = BTreeMap<L, BTreeSet<StateId>>;

/// A finite I/O automaton `(states, sig, init, trans)` with action labels
/// of type `L` (Section 2). The signature partitions actions into input,
/// output and internal sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Automaton<L> {
    name: String,
    n_states: usize,
    init: BTreeSet<StateId>,
    inputs: BTreeSet<L>,
    outputs: BTreeSet<L>,
    internals: BTreeSet<L>,
    /// `trans`, as the table the model walks: source state → action →
    /// target states. Rows and cells exist only once a transition was
    /// inserted into them, so equal relations are equal tables.
    trans: BTreeMap<StateId, Row<L>>,
    /// Actions treated as crash actions: they are inputs, and their being
    /// enabled does not make an execution unfair (Section 3.2's fairness
    /// explicitly exempts crash actions).
    crashes: BTreeSet<L>,
}

impl<L: Clone + Ord + fmt::Debug> Automaton<L> {
    /// Creates an automaton with `n_states` states (identified `s0..`),
    /// the given initial states and signature. Transitions are added with
    /// [`Automaton::add_transition`].
    ///
    /// # Panics
    ///
    /// Panics if the three action sets overlap, or an initial state is out
    /// of range.
    pub fn new(
        name: impl Into<String>,
        n_states: usize,
        init: impl IntoIterator<Item = StateId>,
        inputs: impl IntoIterator<Item = L>,
        outputs: impl IntoIterator<Item = L>,
        internals: impl IntoIterator<Item = L>,
    ) -> Self {
        let inputs: BTreeSet<L> = inputs.into_iter().collect();
        let outputs: BTreeSet<L> = outputs.into_iter().collect();
        let internals: BTreeSet<L> = internals.into_iter().collect();
        assert!(
            inputs.is_disjoint(&outputs)
                && inputs.is_disjoint(&internals)
                && outputs.is_disjoint(&internals),
            "action signature sets must be disjoint"
        );
        let init: BTreeSet<StateId> = init.into_iter().collect();
        assert!(
            init.iter().all(|s| s.0 < n_states),
            "initial state out of range"
        );
        Automaton {
            name: name.into(),
            n_states,
            init,
            inputs,
            outputs,
            internals,
            trans: BTreeMap::new(),
            crashes: BTreeSet::new(),
        }
    }

    /// The automaton's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// The initial states.
    pub fn init(&self) -> &BTreeSet<StateId> {
        &self.init
    }

    /// Input actions.
    pub fn inputs(&self) -> &BTreeSet<L> {
        &self.inputs
    }

    /// Output actions.
    pub fn outputs(&self) -> &BTreeSet<L> {
        &self.outputs
    }

    /// Internal actions.
    pub fn internals(&self) -> &BTreeSet<L> {
        &self.internals
    }

    /// All actions of the signature.
    pub fn actions(&self) -> BTreeSet<L> {
        let mut all = self.inputs.clone();
        all.extend(self.outputs.iter().cloned());
        all.extend(self.internals.iter().cloned());
        all
    }

    /// Marks `label` as a crash action (must already be an input action).
    ///
    /// # Panics
    ///
    /// Panics if `label` is not an input action.
    pub fn mark_crash(&mut self, label: L) {
        assert!(
            self.inputs.contains(&label),
            "crash actions must be input actions"
        );
        self.crashes.insert(label);
    }

    /// Whether `action` is in the signature.
    fn has_action(&self, action: &L) -> bool {
        self.inputs.contains(action)
            || self.outputs.contains(action)
            || self.internals.contains(action)
    }

    /// The transitions out of `state`, by action, in action order; no
    /// row was ever inserted for a state nothing leaves.
    fn row(&self, state: StateId) -> Option<&Row<L>> {
        self.trans.get(&state)
    }

    /// The one writer of `trans`; callers have checked the triple.
    fn insert(&mut self, from: StateId, action: L, to: StateId) {
        self.trans
            .entry(from)
            .or_default()
            .entry(action)
            .or_default()
            .insert(to);
    }

    /// Adds a transition.
    ///
    /// # Panics
    ///
    /// Panics if states are out of range or the action is not in the
    /// signature.
    pub fn add_transition(&mut self, from: StateId, action: L, to: StateId) {
        assert!(
            from.0 < self.n_states && to.0 < self.n_states,
            "state out of range"
        );
        assert!(
            self.has_action(&action),
            "action {action:?} not in signature"
        );
        self.insert(from, action, to);
    }

    /// The actions enabled at `state`.
    pub fn enabled(&self, state: StateId) -> BTreeSet<L> {
        self.row(state)
            .into_iter()
            .flat_map(Row::keys)
            .cloned()
            .collect()
    }

    /// Successor states of `state` under `action`.
    pub fn successors(&self, state: StateId, action: &L) -> Vec<StateId> {
        self.row(state)
            .and_then(|row| row.get(action))
            .into_iter()
            .flatten()
            .copied()
            .collect()
    }

    /// The transition relation as `(from, action, to)` triples, in that
    /// order.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, &L, StateId)> + '_ {
        self.trans.iter().flat_map(|(&from, row)| {
            row.iter()
                .flat_map(move |(a, targets)| targets.iter().map(move |&to| (from, a, to)))
        })
    }

    /// Whether every input action is enabled at every state (the standard
    /// I/O-automata input-enabledness; the paper's refinement that only
    /// non-pending processes accept invocations is modeled by *which*
    /// input labels exist).
    pub fn is_input_enabled(&self) -> bool {
        (0..self.n_states).all(|s| {
            let row = self.row(StateId(s));
            self.inputs
                .iter()
                .all(|i| row.is_some_and(|row| row.contains_key(i)))
        })
    }

    /// A finite execution is **fair** iff no action other than a crash is
    /// enabled at its final state (Section 3.2 condition (I)).
    pub fn is_fair_finite(&self, exec: &Execution<L>) -> bool {
        self.row(exec.last_state())
            .into_iter()
            .flat_map(Row::keys)
            .all(|a| self.crashes.contains(a))
    }

    /// Every one-transition extension of `exec`, in `(action, target)`
    /// order: the step both enumerations below take. Each is built by
    /// [`Execution::extended`], at its final size.
    fn extensions<'a>(&'a self, exec: &'a Execution<L>) -> impl Iterator<Item = Execution<L>> + 'a {
        self.row(exec.last_state())
            .into_iter()
            .flatten()
            .flat_map(move |(a, targets)| targets.iter().map(move |&t| exec.extended(a.clone(), t)))
    }

    /// The executions of length zero, one per initial state.
    fn initial_executions(&self) -> impl Iterator<Item = Execution<L>> + '_ {
        self.init.iter().map(|&s| Execution {
            states: vec![s],
            actions: vec![],
        })
    }

    /// Enumerates all executions with at most `depth` actions, starting
    /// from every initial state.
    ///
    /// This is the retained-queue baseline (it works for any `Ord`
    /// label); codec-capable labels can run the same enumeration on the
    /// exploration kernel — parallel, beyond-RAM, replay-spill capable —
    /// via [`Automaton::executions_on`], which the differential tests and
    /// `tests/table_props.rs` pin to this implementation, order included.
    pub fn executions(&self, depth: usize) -> Vec<Execution<L>> {
        let mut out = Vec::new();
        let mut queue: VecDeque<Execution<L>> = self.initial_executions().collect();
        while let Some(e) = queue.pop_front() {
            if e.actions.len() < depth {
                queue.extend(self.extensions(&e));
            }
            out.push(e);
        }
        out
    }

    /// The external (input + output) subsequence of an execution's actions.
    fn history_of(&self, exec: Execution<L>) -> Vec<L> {
        exec.actions
            .into_iter()
            .filter(|a| self.inputs.contains(a) || self.outputs.contains(a))
            .collect()
    }

    /// The *histories* of fair executions with at most `depth` actions:
    /// the external (input + output) action subsequences, deduplicated.
    ///
    /// This is a finite truncation of the paper's `fair(A_I)`; Lemma 4.8
    /// tests quantify over it.
    pub fn fair_histories(&self, depth: usize) -> BTreeSet<Vec<L>> {
        self.executions(depth)
            .into_iter()
            .filter(|e| self.is_fair_finite(e))
            .map(|e| self.history_of(e))
            .collect()
    }

    /// All histories (fair or not) with at most `depth` actions.
    pub fn histories(&self, depth: usize) -> BTreeSet<Vec<L>> {
        self.executions(depth)
            .into_iter()
            .map(|e| self.history_of(e))
            .collect()
    }

    /// Whether the automata are compatible for composition:
    /// `out(A1) ∩ out(A2) = ∅`, `int(A1) ∩ acts(A2) = ∅`,
    /// `int(A2) ∩ acts(A1) = ∅`.
    pub fn compatible(&self, other: &Automaton<L>) -> bool {
        self.outputs.is_disjoint(&other.outputs)
            && self.internals.iter().all(|a| !other.has_action(a))
            && other.internals.iter().all(|a| !self.has_action(a))
    }

    /// The composition `A1 × A2` of Section 2: product states, shared
    /// actions synchronized, matched input/output pairs hidden (they become
    /// internal).
    ///
    /// # Panics
    ///
    /// Panics if the automata are not compatible.
    pub fn compose(&self, other: &Automaton<L>) -> Automaton<L> {
        assert!(self.compatible(other), "incompatible automata");
        let pair = |a: usize, b: usize| StateId(a * other.n_states + b);

        // Signature per the paper's (simplified) composition.
        let mut internals: BTreeSet<L> = self.internals.union(&other.internals).cloned().collect();
        for a in self.inputs.intersection(&other.outputs) {
            internals.insert(a.clone());
        }
        for a in other.inputs.intersection(&self.outputs) {
            internals.insert(a.clone());
        }
        let inputs: BTreeSet<L> = self
            .inputs
            .union(&other.inputs)
            .filter(|a| !internals.contains(*a))
            .cloned()
            .collect();
        let outputs: BTreeSet<L> = self
            .outputs
            .union(&other.outputs)
            .filter(|a| !internals.contains(*a))
            .cloned()
            .collect();

        let init = self
            .init
            .iter()
            .flat_map(|&a| other.init.iter().map(move |&b| pair(a.0, b.0)));
        let mut composed = Automaton::new(
            format!("{}×{}", self.name, other.name),
            self.n_states * other.n_states,
            init,
            inputs,
            outputs,
            internals,
        );
        for crash in self.crashes.union(&other.crashes) {
            if composed.inputs.contains(crash) {
                composed.crashes.insert(crash.clone());
            }
        }

        // A component with `act` in its signature moves along its own
        // transitions (none from its current state disables the composed
        // action); a component without it stays where it is.
        let moves = |m: &Automaton<L>, s: usize, act: &L| {
            if m.has_action(act) {
                m.successors(StateId(s), act)
            } else {
                vec![StateId(s)]
            }
        };
        let all_actions: BTreeSet<L> = self.actions().union(&other.actions()).cloned().collect();
        for a in 0..self.n_states {
            for b in 0..other.n_states {
                for act in &all_actions {
                    let tbs = moves(other, b, act);
                    for ta in moves(self, a, act) {
                        for tb in &tbs {
                            composed.add_transition(pair(a, b), act.clone(), pair(ta.0, tb.0));
                        }
                    }
                }
            }
        }
        composed
    }

    /// Crash augmentation (Section 2): adds a fresh `crashed` state, a
    /// `crash` input transition from every pre-existing state into it,
    /// and marks the label as a crash action. No action is enabled at the
    /// crashed state — not `crash` either: a process crashes once.
    pub fn with_crash(mut self, crash_label: L) -> Automaton<L> {
        let crashed = StateId(self.n_states);
        for s in 0..self.n_states {
            self.insert(StateId(s), crash_label.clone(), crashed);
        }
        self.n_states += 1;
        self.inputs.insert(crash_label.clone());
        self.crashes.insert(crash_label);
        self
    }

    /// Reachable states (for sanity checks and size reports): a
    /// breadth-first walk of the rows.
    pub fn reachable(&self) -> BTreeSet<StateId> {
        let mut seen: BTreeSet<StateId> = self.init.clone();
        let mut queue: VecDeque<StateId> = seen.iter().copied().collect();
        while let Some(s) = queue.pop_front() {
            for &t in self.row(s).into_iter().flat_map(Row::values).flatten() {
                if seen.insert(t) {
                    queue.push_back(t);
                }
            }
        }
        seen
    }
}

/// The automata execution space on the `slx-engine` kernel: states are
/// (prefixes of) executions, successors extend an execution by one
/// enabled transition, and every explored execution is reported as a
/// finding — so a kernel run's findings are exactly
/// [`Automaton::executions`], in the same BFS order, with the kernel's
/// parallel expansion, disk-backed spilling, and replay regeneration
/// available.
///
/// No two states of a run are equal: an execution has one parent, its
/// prefix; the extensions of one execution differ in their last
/// `(action, target)`, a distinct key of a row's map and set; and the
/// initial executions differ in their one state. The space declares it
/// ([`StateSpace::REVISITS`] is `false`), so the kernel computes no
/// digest for an extension and makes no visited insert for one, and no
/// 128-bit collision can lose an execution.
///
/// What a run costs is its clones. Per execution that is four
/// allocations and no reallocation — the two
/// vectors of the extension ([`Execution::extended`]) and the two of the
/// clone reported as the finding — with every vector the caller gets back
/// at `capacity() == len()`; the successor and finding buffers are the
/// kernel's, reused across parents, so `expand` reserves nothing.
/// `tests/alloc_cost.rs` counts both (≤ 4.1 allocations, < 0.1
/// reallocations per execution).
pub struct ExecutionSpace<'a, L> {
    automaton: &'a Automaton<L>,
    depth: usize,
}

impl<L> StateSpace for ExecutionSpace<'_, L>
where
    L: Clone + Ord + fmt::Debug + Hash + Send + Sync + DeltaCodec,
{
    type State = Execution<L>;
    type Finding = Execution<L>;

    const REVISITS: bool = false;

    fn digest(&self, exec: &Self::State) -> Digest {
        digest128_of(exec)
    }

    fn expand(&self, exec: &Self::State, _depth: usize, ctx: &mut Expansion<Self>) {
        ctx.finding(exec.clone());
        if exec.actions.len() >= self.depth {
            return;
        }
        for extended in self.automaton.extensions(exec) {
            ctx.push(extended);
        }
    }
}

impl<L> Automaton<L>
where
    L: Clone + Ord + fmt::Debug + Hash + Send + Sync + DeltaCodec,
{
    /// [`Automaton::executions`] on an explicit exploration-kernel
    /// checker: identical executions in identical order, but enumerated
    /// by the shared kernel — so bounded-memory spilling
    /// (`Checker::with_mem_budget`, any [`slx_engine::SpillCodec`]
    /// including replay) and the parallel BFS backend apply to automata
    /// enumeration too. Both take the same step, a walk of the last
    /// state's row, and neither deduplicates an execution (no two are
    /// equal), so a run costs its clones: four allocations per returned
    /// execution ([`ExecutionSpace`]), two of which the caller keeps. The
    /// kernel digests the initial executions only.
    pub fn executions_on(&self, checker: &Checker, depth: usize) -> Vec<Execution<L>> {
        self.run_executions(checker, depth).findings
    }

    /// [`Automaton::executions_on`] with the kernel's statistics beside
    /// the executions (its `findings`).
    pub fn run_executions(&self, checker: &Checker, depth: usize) -> KernelOutcome<Execution<L>> {
        let space = ExecutionSpace {
            automaton: self,
            depth,
        };
        checker.run(&space, self.initial_executions().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-shot channel: input "send", then output "deliver".
    fn channel() -> Automaton<&'static str> {
        let mut a = Automaton::new(
            "chan",
            3,
            [StateId(0)],
            ["send"],
            ["deliver"],
            Vec::<&str>::new(),
        );
        a.add_transition(StateId(0), "send", StateId(1));
        a.add_transition(StateId(1), "deliver", StateId(2));
        // Input-enabledness: "send" must be enabled everywhere.
        a.add_transition(StateId(1), "send", StateId(1));
        a.add_transition(StateId(2), "send", StateId(2));
        a
    }

    /// A consumer of "deliver" that then outputs "ack".
    fn consumer() -> Automaton<&'static str> {
        let mut a = Automaton::new(
            "cons",
            3,
            [StateId(0)],
            ["deliver"],
            ["ack"],
            Vec::<&str>::new(),
        );
        a.add_transition(StateId(0), "deliver", StateId(1));
        a.add_transition(StateId(1), "ack", StateId(2));
        a.add_transition(StateId(1), "deliver", StateId(1));
        a.add_transition(StateId(2), "deliver", StateId(2));
        a
    }

    #[test]
    fn enabled_and_successors() {
        let a = channel();
        assert_eq!(a.enabled(StateId(0)), BTreeSet::from(["send"]));
        assert_eq!(a.successors(StateId(1), &"deliver"), vec![StateId(2)]);
        assert!(a.is_input_enabled());
    }

    #[test]
    fn fairness_finite() {
        let a = channel();
        // Ending at s1 with "deliver" enabled: unfair.
        let unfair = Execution {
            states: vec![StateId(0), StateId(1)],
            actions: vec!["send"],
        };
        assert!(!a.is_fair_finite(&unfair));
        // Ending at s2 where only the input "send" is enabled: also unfair
        // under the strict rule (inputs count) — unless the only enabled
        // actions are crashes. s2 enables "send" (input, not crash).
        let at_end = Execution {
            states: vec![StateId(0), StateId(1), StateId(2)],
            actions: vec!["send", "deliver"],
        };
        assert!(!a.is_fair_finite(&at_end));
    }

    #[test]
    fn crash_augmentation_makes_quiet_states_fair() {
        let a = channel().with_crash("crash");
        // The crashed state (s3) enables nothing: fair.
        let crashed = Execution {
            states: vec![StateId(0), StateId(3)],
            actions: vec!["crash"],
        };
        assert!(a.is_fair_finite(&crashed));
        // Crash is enabled everywhere.
        for s in 0..3 {
            assert!(a.enabled(StateId(s)).contains("crash"));
        }
    }

    #[test]
    fn nothing_is_enabled_at_the_crashed_state() {
        let a = channel().with_crash("crash");
        assert!(a.enabled(StateId(3)).is_empty());
        assert!(a.successors(StateId(3), &"crash").is_empty());
        // So no history crashes twice.
        for h in a.histories(4) {
            let crashes = h.iter().filter(|&&l| l == "crash").count();
            assert!(crashes <= 1, "{h:?} crashes {crashes} times");
        }
        assert!(a
            .histories(4)
            .contains(&vec!["send", "deliver", "send", "crash"]));
    }

    #[test]
    fn executions_enumeration_bounded() {
        let a = channel();
        let execs = a.executions(2);
        // Depth 0: 1; depth 1: send; depth 2: send·deliver, send·send.
        assert!(execs.iter().any(|e| e.actions == vec!["send", "deliver"]));
        assert!(execs.iter().all(|e| e.actions.len() <= 2));
    }

    #[test]
    fn composition_hides_matched_actions() {
        let c = channel().compose(&consumer());
        // "deliver" was output of channel and input of consumer: internal.
        assert!(c.internals().contains("deliver"));
        assert!(c.inputs().contains("send"));
        assert!(c.outputs().contains("ack"));
        assert!(!c.inputs().contains("deliver"));
    }

    #[test]
    fn composition_synchronizes() {
        let c = channel().compose(&consumer());
        // send → deliver (internal) → ack must be an execution.
        let execs = c.executions(3);
        let ok = execs
            .iter()
            .any(|e| e.actions == vec!["send", "deliver", "ack"]);
        assert!(ok, "composed execution missing");
        // Histories hide the internal action.
        let hs = c.histories(3);
        assert!(hs.contains(&vec!["send", "ack"]));
    }

    #[test]
    fn incompatible_automata_rejected() {
        let a = channel();
        let b = channel();
        // Both output "deliver": incompatible.
        assert!(!a.compatible(&b));
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn compose_panics_on_incompatible() {
        let _ = channel().compose(&channel());
    }

    #[test]
    fn reachable_states() {
        let a = channel();
        assert_eq!(a.reachable().len(), 3);
    }

    #[test]
    fn fair_histories_of_channel_with_crash() {
        let a = channel().with_crash("crash");
        let fh = a.fair_histories(3);
        // A fair finite history must end with nothing (but crash) enabled —
        // e.g. after crash.
        assert!(fh.contains(&vec!["send", "crash"]));
        // "send" alone is unfair (deliver pending).
        assert!(!fh.contains(&vec!["send"]));
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_signature_panics() {
        let _ = Automaton::new("bad", 1, [StateId(0)], ["a"], ["a"], Vec::<&str>::new());
    }

    /// An `Action`-labelled channel (codec-capable labels), so the kernel
    /// enumeration is available: invoke = input, respond = output.
    fn action_channel() -> Automaton<slx_history::Action> {
        use slx_history::{Action, Operation, ProcessId, Response, Value};
        let send = Action::invoke(ProcessId::new(0), Operation::Propose(Value::new(1)));
        let deliver = Action::respond(ProcessId::new(0), Response::Decided(Value::new(1)));
        let mut a = Automaton::new(
            "action-chan",
            3,
            [StateId(0)],
            [send],
            [deliver],
            Vec::<Action>::new(),
        );
        a.add_transition(StateId(0), send, StateId(1));
        a.add_transition(StateId(1), deliver, StateId(2));
        a.add_transition(StateId(1), send, StateId(1));
        a.add_transition(StateId(2), send, StateId(2));
        a
    }

    #[test]
    fn kernel_executions_match_the_queue_baseline() {
        let a =
            action_channel().with_crash(slx_history::Action::crash(slx_history::ProcessId::new(0)));
        for depth in [0usize, 1, 3, 5] {
            let queue = a.executions(depth);
            let kernel = a.executions_on(&Checker::parallel_bfs(1), depth);
            assert_eq!(kernel, queue, "depth {depth}");
        }
    }

    #[test]
    fn kernel_executions_survive_replay_spilling() {
        use slx_engine::SpillCodec;
        let a = action_channel();
        let resident = a.executions_on(&Checker::parallel_bfs(1).with_mem_budget(0), 6);
        assert_eq!(resident, a.executions(6));
        for codec in [SpillCodec::Delta, SpillCodec::Plain, SpillCodec::Replay] {
            // A tiny budget spills nearly every level; the replay arm
            // regenerates spilled executions from their parent prefixes
            // (via the indexed fast path for single-child records).
            let spilled = a.executions_on(
                &Checker::parallel_bfs(1)
                    .with_mem_budget(256)
                    .with_spill_codec(codec),
                6,
            );
            assert_eq!(spilled, resident, "{codec:?}");
        }
    }
}
