//! Quickstart: the framework in five minutes.
//!
//! Builds a history by hand, checks safety; runs a real implementation
//! under a controlled schedule, checks safety and liveness; shows the
//! Theorem 4.9 trivial implementation.
//!
//! Run with: `cargo run --example quickstart`

use safety_liveness_exclusion::automata::{trivial_it, Execution, StateId};
use safety_liveness_exclusion::consensus::{ConsWord, ObstructionFreeConsensus};
use safety_liveness_exclusion::history::{Action, History, Operation, ProcessId, Response, Value};
use safety_liveness_exclusion::liveness::{
    ExecutionView, KObstructionFreedom, LivenessProperty, ProgressKind,
};
use safety_liveness_exclusion::memory::{Decision, Memory, RoundRobin, SoloScheduler, System};
use safety_liveness_exclusion::safety::{ConsensusSafety, SafetyProperty};

fn main() {
    let p1 = ProcessId::new(0);
    let p2 = ProcessId::new(1);

    // ------------------------------------------------------------------
    // 1. Histories and safety properties are plain data.
    // ------------------------------------------------------------------
    let agree = History::from_actions([
        Action::invoke(p1, Operation::Propose(Value::new(7))),
        Action::invoke(p2, Operation::Propose(Value::new(9))),
        Action::respond(p1, Response::Decided(Value::new(9))),
        Action::respond(p2, Response::Decided(Value::new(9))),
    ]);
    let safety = ConsensusSafety::new();
    println!("history       : {agree}");
    println!("well-formed   : {}", agree.is_well_formed());
    println!("safe (A&V)    : {}\n", safety.allows(&agree));

    let disagree = History::from_actions([
        Action::invoke(p1, Operation::Propose(Value::new(7))),
        Action::invoke(p2, Operation::Propose(Value::new(9))),
        Action::respond(p1, Response::Decided(Value::new(7))),
        Action::respond(p2, Response::Decided(Value::new(9))),
    ]);
    println!("history       : {disagree}");
    match safety.check(&disagree) {
        Ok(()) => println!("safe (A&V)    : true\n"),
        Err(v) => println!("safe (A&V)    : false ({v})\n"),
    }

    // ------------------------------------------------------------------
    // 2. Implementations are step machines under scheduler control.
    // ------------------------------------------------------------------
    let mut mem: Memory<ConsWord> = Memory::new();
    let layout = ObstructionFreeConsensus::layout(&mut mem, 2, 64);
    let procs = vec![
        ObstructionFreeConsensus::new(layout, p1, 2),
        ObstructionFreeConsensus::new(layout, p2, 2),
    ];
    let mut sys = System::new(mem, procs);
    // The driver keeps the execution log (who stepped when): liveness is
    // judged on it, and a configuration does not carry one.
    let mut log = Vec::new();
    for (p, v) in [(p1, 7), (p2, 9)] {
        let propose = Operation::Propose(Value::new(v));
        sys.apply(Decision::Invoke(p, propose), &mut log).unwrap();
    }

    // Run p1 alone first (obstruction-freedom: it must decide) ...
    sys.run_logged(&mut SoloScheduler::new(p1), 10_000, &mut log);
    // ... then let p2 catch up.
    sys.run_logged(&mut RoundRobin::new(), 10_000, &mut log);

    println!("register-only obstruction-free consensus run:");
    println!("history       : {}", sys.history());
    println!("safe (A&V)    : {}", safety.allows(sys.history()));

    // Liveness: evaluate 1-obstruction-freedom on the recorded execution.
    // The run halted, so it is the lasso with an empty cycle.
    let view = ExecutionView::lasso(&log, &[], 2, ProgressKind::AnyResponse);
    let of = KObstructionFreedom::new(1);
    println!("{}: {}\n", of.name(), of.satisfied(&view));

    // ------------------------------------------------------------------
    // 3. Theorem 4.9's trivial implementation: never responds, ensures
    //    every safety property, and its finite runs are fair.
    // ------------------------------------------------------------------
    let ops = [1, 2].map(|v| Operation::Propose(Value::new(v)));
    let resps = [1, 2].map(|v| Response::Decided(Value::new(v)));
    let it = trivial_it(2, &ops, &resps);
    let mut exec = Execution {
        states: vec![StateId(0)],
        actions: vec![],
    };
    for invocation in [Action::invoke(p1, ops[0]), Action::invoke(p2, ops[1])] {
        let to = it.successors(exec.last_state(), &invocation)[0];
        exec = exec.extended(invocation, to);
    }
    let history = History::from_actions(exec.actions.iter().copied());
    println!("trivial implementation It:");
    println!("history       : {history}");
    println!("safe (A&V)    : {}", safety.allows(&history));
    println!(
        "fair          : {} (only crashes are enabled: a finite fair execution)",
        it.is_fair_finite(&exec)
    );
}
