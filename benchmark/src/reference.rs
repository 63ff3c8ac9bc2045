//! `--derive-expected`: recomputes every pin of `expected.json` without
//! the kernel under test — a breadth-first search over retained clones
//! written here, the repo's retained-clone baselines, the queue-based
//! `Automaton::executions` — and prints the file. Slow and memory-hungry
//! on purpose; run it when a workload's definition changes, never as part
//! of a measurement.

use std::collections::HashSet;

use slx_core::automata::trivial_it;
use slx_core::explorer::baseline::{decidable_values_retained, explore_safety_retained};
use slx_core::explorer::history_digest;
use slx_core::history::{Action, Operation, ProcessId, Value};
use slx_core::memory::StepEffect;
use slx_core::safety::{ConsensusSafety, SafetyProperty};

use crate::json::Json;
use crate::workloads::{
    adversary_pins, all_processes, automata_pins, exploration_pins, of_system, OfSystem, Pins,
    RunCounts, ADVERSARY_STEPS, DEEP_DEPTH, SERVE_DEPTH, VALENCE_BUDGET,
};

struct Explored {
    holds: bool,
    findings: u64,
    truncated: bool,
    counts: RunCounts,
}

/// Level-by-level search over `(configuration, history digest)` keys held
/// in full: what `explore_safety` computes, with none of its machinery.
fn explore_by_levels(initial: &OfSystem, active: &[ProcessId], depth: usize) -> Explored {
    let safety = ConsensusSafety::new();
    let key = |sys: &OfSystem| (sys.clone(), history_digest(sys.history()));
    let mut seen = HashSet::from([key(initial)]);
    let mut level = vec![initial.clone()];
    let mut out = Explored {
        holds: true,
        findings: 0,
        truncated: false,
        counts: RunCounts::default(),
    };
    for d in 0.. {
        if level.is_empty() {
            break;
        }
        let width = level.len() as u64;
        out.counts.configs += width;
        out.counts.peak_frontier = out.counts.peak_frontier.max(width);
        let mut next_level = Vec::new();
        for sys in &level {
            if d >= depth {
                out.truncated |= !sys.quiescent();
                continue;
            }
            for &p in active {
                if !sys.can_step(p) {
                    continue;
                }
                let mut next = sys.clone();
                let effect = next.step(p).expect("steppable process steps");
                if matches!(effect, StepEffect::Responded(_)) && !safety.allows(next.history()) {
                    out.holds = false;
                    out.findings += 1;
                    continue;
                }
                out.counts.transitions += 1;
                if seen.insert(key(&next)) {
                    next_level.push(next);
                } else {
                    out.counts.dedup_hits += 1;
                }
            }
        }
        level = next_level;
    }
    out
}

fn exploration_row(workload: &str, inputs: &[i64], depth: usize) -> Json {
    let sys = of_system(inputs, 16);
    let active = all_processes(inputs.len());
    let by_levels = explore_by_levels(&sys, &active, depth);
    let retained = explore_safety_retained(
        &sys,
        &active,
        depth,
        &ConsensusSafety::new(),
        history_digest,
    );
    assert_eq!(
        retained.configs as u64, by_levels.counts.configs,
        "{workload}: configs"
    );
    assert_eq!(retained.holds(), by_levels.holds, "{workload}: verdict");
    assert_eq!(
        retained.truncated, by_levels.truncated,
        "{workload}: truncated"
    );
    row(
        workload,
        &format!(
            "reference::explore_by_levels (retained-clone BFS in the benchmark) on OF consensus \
             inputs {inputs:?}, 16 rounds, depth {depth}; configs, verdict and truncated cross-checked against \
             slx_explorer::baseline::explore_safety_retained"
        ),
        exploration_pins(
            by_levels.holds,
            by_levels.findings,
            by_levels.truncated,
            &by_levels.counts,
        ),
    )
}

/// The Chor–Israeli–Li loop of `run_bivalence_adversary_with`, with every
/// valence query answered by the retained-clone baseline.
fn adversary_row() -> Json {
    let mut sys = of_system(&[1, 2], 128);
    let active = all_processes(2);
    let mut step_counts = [0u64; 2];
    let (mut steps, mut valence_configs, mut bivalent_throughout) = (0u64, 0u64, true);
    for _ in 0..ADVERSARY_STEPS {
        let mut candidates: Vec<ProcessId> = active
            .iter()
            .copied()
            .filter(|&p| sys.can_step(p))
            .collect();
        candidates.sort_by_key(|p| step_counts[p.index()]);
        let mut moved = false;
        for p in candidates {
            let mut next = sys.clone();
            if matches!(next.step(p).expect("steppable"), StepEffect::Responded(_)) {
                continue;
            }
            let d = decidable_values_retained(&next, &active, VALENCE_BUDGET);
            valence_configs += d.configs as u64;
            if d.bivalent() {
                sys = next;
                steps += 1;
                step_counts[p.index()] += 1;
                moved = true;
                break;
            }
        }
        if !moved {
            bivalent_throughout = false;
            break;
        }
    }
    let decided = sys
        .history()
        .iter()
        .any(|a| matches!(a, Action::Respond { .. }));
    let won = !decided && bivalent_throughout && step_counts.iter().all(|&c| c > 0);
    row(
        "many-small",
        "the adversary loop re-stated in reference::adversary_row with every valence query \
         answered by slx_explorer::baseline::decidable_values_retained, OF consensus inputs \
         [1, 2], 128 rounds",
        adversary_pins(won, bivalent_throughout, steps, valence_configs),
    )
}

/// One row, its pins in the vocabulary the harness observes them in.
fn row(workload: &str, provenance: &str, pins: Pins) -> Json {
    let pins = pins.into_iter().map(|(name, pin)| (name.to_string(), pin));
    Json::Obj(vec![
        ("workload".to_string(), Json::Str(workload.to_string())),
        ("provenance".to_string(), Json::Str(provenance.to_string())),
        ("pins".to_string(), Json::Obj(pins.collect())),
    ])
}

/// Every row of `expected.json`, in workload order.
pub fn derive() -> Vec<Json> {
    let deep = |workload| exploration_row(workload, &[1, 2, 2], DEEP_DEPTH);
    let ops = [0, 1, 2].map(|v| Operation::Propose(Value::new(v)));
    let executions = trivial_it(4, &ops, &[]).executions(7).len();
    vec![
        deep("deep-resident"),
        deep("deep-spill"),
        deep("deep-par"),
        adversary_row(),
        row(
            "wide-nodedup",
            "slx_automata::Automaton::executions(7).len() (the queue-based enumeration) on \
             trivial_it(4, [Propose(0), Propose(1), Propose(2)], [])",
            automata_pins(executions as u64),
        ),
        exploration_row("serve-deep", &[1, 2], SERVE_DEPTH as usize),
        row(
            "serve-burst",
            "per request, not per pass: grid against the closed form (d+1)^2 configs, 2d(d+1) \
             transitions, d^2 dedup hits, d+1 peak frontier, one finding \
             (workloads::grid_frame); of-consensus-safety against a direct \
             explore_safety_with run done at set-up (workloads::BurstOracle)",
            Vec::new(),
        ),
    ]
}

/// The file's text: one row per line, so a changed pin is a one-line diff.
pub fn render(rows: &[Json]) -> String {
    let body: Vec<String> = rows.iter().map(|r| format!("    {}", r.render())).collect();
    format!("{{\n  \"rows\": [\n{}\n  ]\n}}\n", body.join(",\n"))
}
