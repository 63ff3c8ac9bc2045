//! The execution log a driver fills through `System::apply` /
//! `System::run_logged` is, event for event, the log `System` used to keep
//! inside every configuration: the pins below were taken from that
//! in-`System` log, so every lasso a driver cuts from its log
//! (`tm_starvation`, `counterexample_s`, `blocking`, `sect6`, the claims
//! ledger) holds the events it held before.

use safety_liveness_exclusion::adversary::{TmStarvation, TripleRoundAdversary};
use safety_liveness_exclusion::consensus::{ConsWord, ObstructionFreeConsensus};
use safety_liveness_exclusion::history::{Operation, ProcessId, Value, VarId};
use safety_liveness_exclusion::memory::{
    Decision, Event, FairRandom, Memory, RoundRobin, Scheduler, System,
};
use safety_liveness_exclusion::tm::{AgpTm, GlobalVersionTm};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// What a log pins: its length, the `Stepped` and `Responded` counts per
/// process, and an order-sensitive checksum over (kind, process).
#[derive(Debug, PartialEq, Eq)]
struct Pins {
    len: usize,
    stepped: Vec<u64>,
    responded: Vec<u64>,
    checksum: u64,
}

fn pins(log: &[Event], n: usize) -> Pins {
    let mut stepped = vec![0; n];
    let mut responded = vec![0; n];
    let mut checksum = 0u64;
    for event in log {
        let (kind, q) = match event {
            Event::Invoked(q, _) => (0, q),
            Event::Responded(q, _) => {
                responded[q.index()] += 1;
                (1, q)
            }
            Event::Crashed(q) => (2, q),
            Event::Stepped(q) => {
                stepped[q.index()] += 1;
                (3, q)
            }
        };
        checksum = checksum
            .wrapping_mul(31)
            .wrapping_add(4 * q.index() as u64 + kind);
    }
    Pins {
        len: log.len(),
        stepped,
        responded,
        checksum,
    }
}

/// Three obstruction-free proposers (inputs 1, 2, 3), the proposals
/// driven — hence logged — here, then `scheduler` for up to 300 events.
fn consensus_log(mut scheduler: impl Scheduler<ConsWord, ObstructionFreeConsensus>) -> Vec<Event> {
    let mut mem = Memory::new();
    let layout = ObstructionFreeConsensus::layout(&mut mem, 3, 64);
    let procs = (0..3)
        .map(|i| ObstructionFreeConsensus::new(layout, p(i), 3))
        .collect();
    let mut sys = System::new(mem, procs);
    let mut log = Vec::new();
    for i in 0..3 {
        let propose = Operation::Propose(Value::new(i as i64 + 1));
        assert_eq!(
            sys.apply(Decision::Invoke(p(i), propose), &mut log),
            Ok(true)
        );
    }
    assert_eq!(sys, ObstructionFreeConsensus::proposers(&[1, 2, 3], 64));
    let stats = sys.run_logged(&mut scheduler, 300, &mut log);
    assert!(stats.halted);
    assert_eq!((stats.steps, stats.responses), (57, 3));
    log
}

#[test]
fn round_robin_log_is_the_old_in_system_log() {
    let expected = Pins {
        len: 63,
        stepped: vec![19, 19, 19],
        responded: vec![1, 1, 1],
        checksum: 704773608749375038,
    };
    assert_eq!(pins(&consensus_log(RoundRobin::new()), 3), expected);
}

#[test]
fn fair_random_log_is_the_old_in_system_log() {
    let expected = Pins {
        len: 63,
        stepped: vec![19, 19, 19],
        responded: vec![1, 1, 1],
        checksum: 3062316383031639786,
    };
    assert_eq!(pins(&consensus_log(FairRandom::new(7)), 3), expected);
}

#[test]
fn tm_starvation_log_is_the_old_in_system_log() {
    let mut sys = GlobalVersionTm::system(2, 1);
    let mut log = Vec::new();
    let mut adv = TmStarvation::new(p(0), p(1), VarId::new(0));
    let stats = sys.run_logged(&mut adv, 5000, &mut log);
    assert_eq!(
        (stats.steps, stats.invocations, stats.responses),
        (2500, 2500, 2500)
    );
    let expected = Pins {
        len: 7500,
        stepped: vec![1250, 1250],
        responded: vec![1250, 1250],
        checksum: 11601018190342400000,
    };
    assert_eq!(pins(&log, 2), expected);
}

#[test]
fn triple_round_log_is_the_old_in_system_log() {
    let mut sys = AgpTm::system(3, 1);
    let mut log = Vec::new();
    let mut adv = TripleRoundAdversary::new([p(0), p(1), p(2)]);
    let stats = sys.run_logged(&mut adv, 3000, &mut log);
    assert_eq!(
        (stats.steps, stats.invocations, stats.responses),
        (1800, 1200, 1200)
    );
    let expected = Pins {
        len: 4200,
        stepped: vec![600, 600, 600],
        responded: vec![400, 400, 400],
        checksum: 14159970343764761728,
    };
    assert_eq!(pins(&log, 3), expected);
}
