//! The transition table against the triples it was built from.
//!
//! `Automaton` keeps `trans` as source state → action → target states.
//! Every query is held here to a naive model kept in the test: the `Vec`
//! of inserted triples, filtered the way the flat-set representation
//! answered it. Element *order* is part of the contract — the benchmark's
//! seeded walks index into `enabled` / `successors` / `executions`.
//!
//! Every property runs on a fixed number of generated cases; case `seed`
//! is drawn from a [`SmallRng`] seeded with `seed`, so a case is a pure
//! function of its seed. A failing case names its seed and prints the
//! generated input after the assertion's own panic message; to replay
//! it alone, narrow the seed range in [`for_each_case`] to that seed.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BTreeSet, VecDeque};
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use slx_automata::{single_response_ib, trivial_it, Automaton, Execution, StateId};
use slx_engine::{Checker, DeltaCodec, StateCodec};
use slx_history::{Action, Operation, ProcessId, Response, Value};
use slx_memory::SmallRng;

/// Cases per property.
const CASES: u64 = 256;

/// Runs `property` on [`CASES`] cases, case `seed` being `generate`
/// applied to a generator seeded with `seed`.
fn for_each_case<T: Debug>(generate: impl Fn(&mut SmallRng) -> T, property: impl Fn(&T)) {
    for seed in 0..CASES {
        let case = generate(&mut SmallRng::seed_from_u64(seed));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(&case)));
        if let Err(panic) = outcome {
            eprintln!("property failed at seed {seed} on case {case:?}");
            std::panic::resume_unwind(panic);
        }
    }
}

type Triple = (usize, u8, usize);

/// What an automaton is built from; `triples` is the naive model.
#[derive(Debug, Clone)]
struct Spec {
    name: &'static str,
    n_states: usize,
    init: Vec<usize>,
    inputs: Vec<u8>,
    outputs: Vec<u8>,
    internals: Vec<u8>,
    /// A subset of `inputs`.
    crashes: Vec<u8>,
    /// In insertion order, duplicates and self-loops included.
    triples: Vec<Triple>,
}

impl Spec {
    /// No labels and no transitions yet.
    fn blank(name: &'static str, n_states: usize, init: Vec<usize>) -> Spec {
        Spec {
            name,
            n_states,
            init,
            inputs: vec![],
            outputs: vec![],
            internals: vec![],
            crashes: vec![],
            triples: vec![],
        }
    }

    fn labels(&self) -> Vec<u8> {
        [&self.inputs[..], &self.outputs, &self.internals].concat()
    }

    fn build(&self) -> Automaton<u8> {
        let mut a = Automaton::new(
            self.name,
            self.n_states,
            self.init.iter().map(|&s| StateId(s)),
            self.inputs.clone(),
            self.outputs.clone(),
            self.internals.clone(),
        );
        for &c in &self.crashes {
            a.mark_crash(c);
        }
        for &(s, l, t) in &self.triples {
            a.add_transition(StateId(s), l, StateId(t));
        }
        a
    }

    // The flat-set answers: filter every triple.

    fn enabled(&self, s: usize) -> BTreeSet<u8> {
        self.triples
            .iter()
            .filter(|t| t.0 == s)
            .map(|t| t.1)
            .collect()
    }

    fn successors(&self, s: usize, l: u8) -> Vec<StateId> {
        let targets: BTreeSet<usize> = self
            .triples
            .iter()
            .filter(|t| t.0 == s && t.1 == l)
            .map(|t| t.2)
            .collect();
        targets.into_iter().map(StateId).collect()
    }

    fn reachable(&self) -> BTreeSet<StateId> {
        let mut seen: BTreeSet<usize> = self.init.iter().copied().collect();
        loop {
            let before = seen.len();
            for &(s, _, t) in &self.triples {
                if seen.contains(&s) {
                    seen.insert(t);
                }
            }
            if seen.len() == before {
                return seen.into_iter().map(StateId).collect();
            }
        }
    }

    fn is_input_enabled(&self) -> bool {
        (0..self.n_states).all(|s| {
            let en = self.enabled(s);
            self.inputs.iter().all(|i| en.contains(i))
        })
    }

    fn is_fair_at(&self, s: usize) -> bool {
        self.enabled(s).iter().all(|l| self.crashes.contains(l))
    }

    fn executions(&self, depth: usize) -> Vec<Execution<u8>> {
        let init: BTreeSet<usize> = self.init.iter().copied().collect();
        let mut queue: VecDeque<Execution<u8>> = init
            .into_iter()
            .map(|s| Execution {
                states: vec![StateId(s)],
                actions: vec![],
            })
            .collect();
        let mut out = Vec::new();
        while let Some(e) = queue.pop_front() {
            if e.actions.len() < depth {
                let s = e.last_state().0;
                for l in self.enabled(s) {
                    for t in self.successors(s, l) {
                        let mut e2 = e.clone();
                        e2.states.push(t);
                        e2.actions.push(l);
                        queue.push_back(e2);
                    }
                }
            }
            out.push(e);
        }
        out
    }
}

/// `count` triples over `labels`: a third repeat an earlier triple, a
/// fifth are self-loops.
fn arb_triples(rng: &mut SmallRng, n_states: usize, labels: &[u8], count: usize) -> Vec<Triple> {
    let mut triples: Vec<Triple> = Vec::new();
    if labels.is_empty() {
        return triples;
    }
    for _ in 0..count {
        let triple = if !triples.is_empty() && rng.gen_index(3) == 0 {
            triples[rng.gen_index(triples.len())]
        } else {
            let s = rng.gen_index(n_states);
            let t = if rng.gen_index(5) == 0 {
                s
            } else {
                rng.gen_index(n_states)
            };
            (s, labels[rng.gen_index(labels.len())], t)
        };
        triples.push(triple);
    }
    triples
}

fn arb_init(rng: &mut SmallRng, n_states: usize) -> Vec<usize> {
    (0..1 + rng.gen_index(2))
        .map(|_| rng.gen_index(n_states))
        .collect()
}

/// ≤ 6 states, ≤ 4 labels each given one role (or none), ≤ 14 insertions.
fn arb_spec(rng: &mut SmallRng) -> Spec {
    let n_states = 1 + rng.gen_index(6);
    let mut spec = Spec::blank("a", n_states, arb_init(rng, n_states));
    for label in 0..4u8 {
        match rng.gen_index(5) {
            0 => spec.inputs.push(label),
            1 => {
                spec.inputs.push(label);
                spec.crashes.push(label);
            }
            2 => spec.outputs.push(label),
            3 => spec.internals.push(label),
            _ => {}
        }
    }
    let count = rng.gen_index(15);
    spec.triples = arb_triples(rng, n_states, &spec.labels(), count);
    spec
}

#[test]
fn every_query_answers_as_the_flat_relation_did() {
    for_each_case(arb_spec, |spec| {
        let a = spec.build();
        for s in 0..spec.n_states {
            assert_eq!(a.enabled(StateId(s)), spec.enabled(s), "enabled(s{s})");
            // Labels outside the row and outside the signature included.
            for l in 0..5u8 {
                assert_eq!(
                    a.successors(StateId(s), &l),
                    spec.successors(s, l),
                    "successors(s{s}, {l})"
                );
            }
            let ending_here = Execution {
                states: vec![StateId(s)],
                actions: vec![],
            };
            assert_eq!(
                a.is_fair_finite(&ending_here),
                spec.is_fair_at(s),
                "fair at s{s}"
            );
        }
        assert_eq!(a.reachable(), spec.reachable());
        assert_eq!(a.is_input_enabled(), spec.is_input_enabled());
    });
}

#[test]
fn executions_keep_the_flat_relations_order() {
    for_each_case(arb_spec, |spec| {
        let a = spec.build();
        for depth in 0..=4 {
            assert_eq!(a.executions(depth), spec.executions(depth), "depth {depth}");
        }
        // The step both enumerations take, against the model's: clone,
        // push, push. Whether `(l, t)` is a transition is the automaton's
        // business, not `extended`'s.
        for prefix in spec.executions(2) {
            for l in 0..5u8 {
                for t in (0..spec.n_states).map(StateId) {
                    let mut pushed = prefix.clone();
                    pushed.states.push(t);
                    pushed.actions.push(l);
                    assert_eq!(prefix.extended(l, t), pushed);
                }
            }
        }
    });
}

#[test]
fn equality_is_equality_of_triple_sets() {
    let equal_cases = Cell::new(0);
    for_each_case(
        |rng| {
            let spec = arb_spec(rng);
            // The same relation, inserted in another order with other
            // repeats — and, half the time, one further insertion that may
            // or may not be new.
            let mut other = spec.clone();
            let len = other.triples.len();
            for i in 0..len {
                other.triples.swap(i, rng.gen_index(len));
            }
            let labels = spec.labels();
            let count = rng.gen_index(2);
            other
                .triples
                .extend(arb_triples(rng, spec.n_states, &labels, count));
            (spec, other)
        },
        |(spec, other)| {
            let set = |s: &Spec| s.triples.iter().copied().collect::<BTreeSet<Triple>>();
            let same_relation = set(spec) == set(other);
            assert_eq!(spec.build() == other.build(), same_relation);
            equal_cases.set(equal_cases.get() + u64::from(same_relation));
        },
    );
    // Both sides of the equivalence are reached.
    let equal_cases = equal_cases.get();
    assert!(
        (CASES / 4..=CASES * 3 / 4).contains(&equal_cases),
        "{equal_cases} of {CASES} pairs equal"
    );
}

/// A compatible pair: each label draws one of the role pairs `compose`
/// accepts (never output/output, never internal against anything).
fn arb_compatible_pair(rng: &mut SmallRng) -> (Spec, Spec) {
    #[derive(Clone, Copy)]
    enum Role {
        Absent,
        In,
        Crash,
        Out,
        Int,
    }
    use Role::*;
    const PAIRS: [(Role, Role); 12] = [
        (Absent, Absent),
        (In, Absent),
        (Absent, In),
        (In, In),
        (Crash, In),
        (Crash, Crash),
        (In, Out),
        (Out, In),
        (Out, Absent),
        (Absent, Out),
        (Int, Absent),
        (Absent, Int),
    ];
    let blank = |name, rng: &mut SmallRng| {
        let n_states = 1 + rng.gen_index(4);
        Spec::blank(name, n_states, arb_init(rng, n_states))
    };
    let (mut a, mut b) = (blank("a", rng), blank("b", rng));
    for label in 0..4u8 {
        let (ra, rb) = PAIRS[rng.gen_index(PAIRS.len())];
        for (spec, role) in [(&mut a, ra), (&mut b, rb)] {
            match role {
                Absent => {}
                In => spec.inputs.push(label),
                Crash => {
                    spec.inputs.push(label);
                    spec.crashes.push(label);
                }
                Out => spec.outputs.push(label),
                Int => spec.internals.push(label),
            }
        }
    }
    for spec in [&mut a, &mut b] {
        let count = rng.gen_index(11);
        spec.triples = arb_triples(rng, spec.n_states, &spec.labels(), count);
    }
    (a, b)
}

/// Section 2's product, written out over the two triple lists.
fn reference_product(a: &Spec, b: &Spec) -> Spec {
    let pair = |x: usize, y: usize| x * b.n_states + y;
    let (acts_a, acts_b) = (a.labels(), b.labels());
    let mut product = Spec::blank("a×b", a.n_states * b.n_states, vec![]);
    for &x in &a.init {
        for &y in &b.init {
            product.init.push(pair(x, y));
        }
    }
    for l in 0..4u8 {
        let matched = (a.inputs.contains(&l) && b.outputs.contains(&l))
            || (b.inputs.contains(&l) && a.outputs.contains(&l));
        if matched || a.internals.contains(&l) || b.internals.contains(&l) {
            product.internals.push(l);
        } else if a.inputs.contains(&l) || b.inputs.contains(&l) {
            product.inputs.push(l);
            if a.crashes.contains(&l) || b.crashes.contains(&l) {
                product.crashes.push(l);
            }
        } else if a.outputs.contains(&l) || b.outputs.contains(&l) {
            product.outputs.push(l);
        }
    }
    for x in 0..a.n_states {
        for y in 0..b.n_states {
            for l in 0..4u8 {
                match (acts_a.contains(&l), acts_b.contains(&l)) {
                    (true, true) => {
                        for ta in a.triples.iter().filter(|t| t.0 == x && t.1 == l) {
                            for tb in b.triples.iter().filter(|t| t.0 == y && t.1 == l) {
                                product.triples.push((pair(x, y), l, pair(ta.2, tb.2)));
                            }
                        }
                    }
                    (true, false) => {
                        for ta in a.triples.iter().filter(|t| t.0 == x && t.1 == l) {
                            product.triples.push((pair(x, y), l, pair(ta.2, y)));
                        }
                    }
                    (false, true) => {
                        for tb in b.triples.iter().filter(|t| t.0 == y && t.1 == l) {
                            product.triples.push((pair(x, y), l, pair(x, tb.2)));
                        }
                    }
                    (false, false) => {}
                }
            }
        }
    }
    product
}

#[test]
fn compose_is_the_written_out_product() {
    for_each_case(arb_compatible_pair, |(a, b)| {
        let (built_a, built_b) = (a.build(), b.build());
        assert!(built_a.compatible(&built_b));
        let composed = built_a.compose(&built_b);
        let product = reference_product(a, b);
        assert_eq!(composed, product.build());
        // And, not leaning on `==`: the same answers state by state.
        for s in 0..product.n_states {
            assert_eq!(composed.enabled(StateId(s)), product.enabled(s));
            for l in 0..4u8 {
                assert_eq!(
                    composed.successors(StateId(s), &l),
                    product.successors(s, l)
                );
            }
        }
        assert_eq!(composed.executions(3), product.executions(3));
    });
}

fn propose(v: i64) -> Operation {
    Operation::Propose(Value::new(v))
}

fn decided(v: i64) -> Response {
    Response::Decided(Value::new(v))
}

#[test]
fn the_kernel_enumerates_it_and_ib_in_the_baselines_order() {
    let checker = Checker::parallel_bfs(1);
    let ops = [propose(1), propose(2)];
    for n in 1..=3 {
        let it = trivial_it(n, &ops, &[decided(1)]);
        for depth in 0..=4 {
            assert_eq!(
                it.executions_on(&checker, depth),
                it.executions(depth),
                "It n = {n}, depth {depth}"
            );
        }
    }
    let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
    let ib = single_response_ib(p0, p0, propose(1), decided(1), &ops).compose(&single_response_ib(
        p1,
        p0,
        propose(1),
        decided(1),
        &ops,
    ));
    for depth in 0..=5 {
        assert_eq!(
            ib.executions_on(&checker, depth),
            ib.executions(depth),
            "Ib, depth {depth}"
        );
    }
}

/// Process-wide, so a comparison made on a kernel thread counts too; only
/// the tripwire test below creates [`Counted`] labels.
static LABEL_COMPARISONS: AtomicUsize = AtomicUsize::new(0);

/// An action whose every comparison — `Ord` or `==` — is counted.
#[derive(Debug, Clone)]
struct Counted(Action);

impl Hash for Counted {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl Ord for Counted {
    fn cmp(&self, other: &Self) -> Ordering {
        LABEL_COMPARISONS.fetch_add(1, Relaxed);
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for Counted {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Counted {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Counted {}

impl StateCodec for Counted {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Action::decode(input).map(Counted)
    }
}

impl DeltaCodec for Counted {}

/// `a` with every label wrapped, rebuilt through the public queries.
fn counted(a: &Automaton<Action>) -> Automaton<Counted> {
    let wrap = |labels: &BTreeSet<Action>| labels.iter().copied().map(Counted).collect::<Vec<_>>();
    let mut out = Automaton::new(
        a.name(),
        a.n_states(),
        a.init().iter().copied(),
        wrap(a.inputs()),
        wrap(a.outputs()),
        wrap(a.internals()),
    );
    for s in (0..a.n_states()).map(StateId) {
        for l in a.enabled(s) {
            for t in a.successors(s, &l) {
                out.add_transition(s, Counted(l), t);
            }
        }
    }
    out
}

/// The complexity tripwire. It counts, so it cannot flake: extending an
/// execution is a row walk, which compares no label at all — where the
/// flat relation paid one `enabled` scan plus one `successors` scan per
/// enabled action, 286 counted comparisons at the 16-way initial state
/// of `trivial_it(4, 3 ops)` (and 8,640 uncounted `StateId` ones: 17
/// scans of 540 triples, less the 540 that are this state's).
#[test]
fn expanding_a_state_does_not_pay_for_the_whole_relation() {
    let ops = [propose(1), propose(2), propose(3)];
    let it = counted(&trivial_it(4, &ops, &[decided(1)]));
    let transitions: usize = (0..it.n_states())
        .map(StateId)
        .map(|s| {
            it.enabled(s)
                .iter()
                .map(|l| it.successors(s, l).len())
                .sum::<usize>()
        })
        .sum();
    assert_eq!((it.n_states(), transitions), (81, 540));
    let out_degree = it.enabled(StateId(0)).len();
    assert_eq!(out_degree, 16);

    // Depth 1 expands exactly one state, the initial one.
    let comparisons_of = |run: &dyn Fn() -> usize| {
        let before = LABEL_COMPARISONS.load(Relaxed);
        assert_eq!(run(), 1 + out_degree);
        LABEL_COMPARISONS.load(Relaxed) - before
    };
    let baseline = comparisons_of(&|| it.executions(1).len());
    let kernel = comparisons_of(&|| it.executions_on(&Checker::parallel_bfs(1), 1).len());
    for (path, comparisons) in [("executions", baseline), ("executions_on", kernel)] {
        assert!(
            comparisons < transitions,
            "{path}: {comparisons} label comparisons to expand one state of a \
             {transitions}-transition relation"
        );
        assert!(
            comparisons <= out_degree,
            "{path}: {comparisons} label comparisons to take {out_degree} transitions"
        );
    }
}
