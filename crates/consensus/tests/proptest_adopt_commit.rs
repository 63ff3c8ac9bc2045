//! Property-based validation of commit-adopt and the consensus built on it
//! under randomly generated schedules.
//!
//! Every property runs on a fixed number of generated cases; case `seed`
//! is drawn from a [`SmallRng`] seeded with `seed`, so a case is a pure
//! function of its seed. A failing case names its seed and prints the
//! generated input after the assertion's own panic message; to replay
//! it alone, narrow the seed range in [`for_each_case`] to that seed.

use slx_consensus::{AcOutcome, AdoptCommit, ConsWord, ObstructionFreeConsensus};
use slx_history::{ProcessId, Response, Value};
use slx_memory::{Memory, SmallRng};
use slx_safety::{ConsensusSafety, SafetyProperty};

/// Cases per property.
const CASES: u64 = 256;

/// Inputs (or proposals) and a schedule of participant indices.
type Case = (Vec<i64>, Vec<usize>);

/// Runs `property` on [`CASES`] cases, case `seed` being `generate`
/// applied to a generator seeded with `seed`.
fn for_each_case(generate: impl Fn(&mut SmallRng) -> Case, property: impl Fn(&Case)) {
    for seed in 0..CASES {
        let case = generate(&mut SmallRng::seed_from_u64(seed));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(&case)));
        if let Err(panic) = outcome {
            eprintln!("property failed at seed {seed} on case {case:?}");
            std::panic::resume_unwind(panic);
        }
    }
}

/// `min_n..max_n` values in `0..4`, then up to `max_steps - 1` schedule
/// entries in `0..max_n`.
fn arb_case(rng: &mut SmallRng, min_n: usize, max_n: usize, max_steps: usize) -> Case {
    let n = min_n + rng.gen_index(max_n - min_n);
    let values = (0..n).map(|_| rng.gen_index(4) as i64).collect();
    let steps = rng.gen_index(max_steps);
    let schedule = (0..steps).map(|_| rng.gen_index(max_n)).collect();
    (values, schedule)
}

/// Runs `n` commit-adopt participants under an arbitrary interleaving
/// (schedule entries are participant indices; leftovers run solo at the
/// end), returning the outcomes.
fn run_ac(inputs: &[i64], schedule: &[usize]) -> Vec<AcOutcome> {
    let n = inputs.len();
    let mut mem: Memory<ConsWord> = Memory::new();
    let (a, b) = AdoptCommit::alloc(&mut mem, n);
    let mut parts: Vec<AdoptCommit> = inputs
        .iter()
        .enumerate()
        .map(|(i, &x)| AdoptCommit::new(a, b, i, Value::new(x)))
        .collect();
    let mut outcomes: Vec<Option<AcOutcome>> = vec![None; n];
    for &i in schedule {
        let i = i % n;
        if outcomes[i].is_none() {
            outcomes[i] = parts[i].step(&mut mem);
        }
    }
    for i in 0..n {
        while outcomes[i].is_none() {
            outcomes[i] = parts[i].step(&mut mem);
        }
    }
    outcomes.into_iter().map(Option::unwrap).collect()
}

#[test]
fn adopt_commit_validity_and_coherence() {
    for_each_case(
        |rng| arb_case(rng, 2, 5, 60),
        |(inputs, schedule)| {
            let outcomes = run_ac(inputs, schedule);
            // Validity: every outcome value is someone's input.
            for o in &outcomes {
                assert!(inputs.contains(&o.value().raw()), "{outcomes:?}");
            }
            // Coherence: all commits carry one value, and a commit forces
            // everyone's value.
            let commit_vals: Vec<Value> = outcomes
                .iter()
                .filter_map(|o| match o {
                    AcOutcome::Commit(v) => Some(*v),
                    AcOutcome::Adopt(_) => None,
                })
                .collect();
            if let Some(&v) = commit_vals.first() {
                assert!(commit_vals.iter().all(|&w| w == v), "{outcomes:?}");
                assert!(outcomes.iter().all(|o| o.value() == v), "{outcomes:?}");
            }
            // Convergence: identical inputs all commit.
            if inputs.iter().all(|&x| x == inputs[0]) {
                assert!(outcomes
                    .iter()
                    .all(|o| matches!(o, AcOutcome::Commit(v) if v.raw() == inputs[0])));
            }
        },
    );
}

#[test]
fn of_consensus_safe_under_random_schedules() {
    for_each_case(
        |rng| arb_case(rng, 2, 4, 200),
        |(proposals, schedule)| {
            let n = proposals.len();
            let mut sys = ObstructionFreeConsensus::proposers(proposals, 64);
            for &i in schedule {
                let q = ProcessId::new(i % n);
                if sys.can_step(q) {
                    let _ = sys.step(q);
                }
            }
            assert!(
                ConsensusSafety::new().allows(sys.history()),
                "history: {}",
                sys.history()
            );
            // Any process that decided agrees with every other decider — and
            // validity ties decisions to proposals.
            let decided: Vec<Value> = (0..n)
                .flat_map(|i| sys.history().responses_of(ProcessId::new(i)))
                .filter_map(|r| match r {
                    Response::Decided(v) => Some(v),
                    _ => None,
                })
                .collect();
            if let Some(&first) = decided.first() {
                assert!(decided.iter().all(|&v| v == first));
                assert!(proposals.contains(&first.raw()));
            }
        },
    );
}
