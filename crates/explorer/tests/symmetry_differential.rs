//! Differential tests of the kernel's symmetry reduction.
//!
//! Symmetry reduction is a *quotient*, not an approximation: every
//! safety and valence verdict must be identical with the
//! reduction on and off — only the visited-configuration counts shrink.
//! These suites pin that equivalence across the full execution matrix
//! the kernel supports: {1, 2, 4} worker threads × {resident, plain,
//! delta, replay at 64 and 512 bytes} spill arms, on both seed scenarios
//! (register consensus and the TM commit race).

use slx_consensus::{CasConsensus, ConsWord, ObstructionFreeConsensus};
use slx_engine::{Checker, SpillCodec};
use slx_explorer::{decidable_values_with, explore_safety_with, history_digest};
use slx_history::{Operation, ProcessId, Value, VarId};
use slx_memory::{Memory, System};
use slx_safety::{ConsensusSafety, Opacity};
use slx_tm::{AgpTm, TmWord};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn v(x: i64) -> Value {
    Value::new(x)
}

/// `n` proposers with the given input vector. Permutation orbits are as
/// large as the input vector is symmetric: distinct inputs pin process
/// identities (a permuted state swaps who holds which value), equal
/// inputs leave whole orbits to collapse.
fn of_consensus_scenario(inputs: &[i64]) -> System<ConsWord, ObstructionFreeConsensus> {
    ObstructionFreeConsensus::proposers(inputs, 16)
}

fn cas_consensus_scenario() -> System<ConsWord, CasConsensus> {
    let mut mem: Memory<ConsWord> = Memory::new();
    let obj = CasConsensus::alloc(&mut mem);
    let mut sys = System::new(mem, vec![CasConsensus::new(obj), CasConsensus::new(obj)]);
    sys.invoke(p(0), Operation::Propose(v(1))).unwrap();
    sys.invoke(p(1), Operation::Propose(v(2))).unwrap();
    sys
}

fn complete_op(sys: &mut System<TmWord, AgpTm>, proc: ProcessId, op: Operation) {
    sys.invoke(proc, op).unwrap();
    for _ in 0..100 {
        if !sys.is_pending(proc) {
            return;
        }
        sys.step(proc).unwrap();
    }
    panic!("operation did not complete within 100 solo steps");
}

/// The TM commit race, symmetric edition: two Algorithm I(1,2)
/// transactions read `x` and wrote the *same* value, both with a pending
/// `tryC`. AGP's commit is multi-step (timestamp scan, then CAS), so the
/// pre-response bulk has genuine interleavings sharing one history — and
/// with identical inputs the two processes are fully interchangeable
/// there, so mid-commit twins collapse. (The simpler `GlobalVersionTm`
/// responds on every single step, which pins each successor to a
/// distinct history immediately: its symmetry lives in the lasso/shift
/// detectors, not in safety exploration.)
fn tm_scenario() -> System<TmWord, AgpTm> {
    let mut sys = AgpTm::system(2, 1);
    let x = VarId::new(0);
    for i in 0..2 {
        complete_op(&mut sys, p(i), Operation::TxStart);
        complete_op(&mut sys, p(i), Operation::TxRead(x));
        complete_op(&mut sys, p(i), Operation::TxWrite(x, v(7)));
    }
    sys.invoke(p(0), Operation::TxCommit).unwrap();
    sys.invoke(p(1), Operation::TxCommit).unwrap();
    sys
}

/// The tentpole pin: symmetry-on runs report exactly the verdicts of
/// symmetry-off runs on both seed scenarios, across {1, 2, 4} worker
/// threads × {resident, plain, delta, replay} spill arms, while visiting
/// strictly fewer configurations and accounting every collapse in
/// `orbit_hits`. Reduced counts are themselves deterministic across the
/// whole matrix — the canonical digest is a function of the state, not of
/// the schedule that reached it.
#[test]
fn symmetry_preserves_safety_verdicts_across_spill_and_thread_matrix() {
    let consensus = of_consensus_scenario(&[1, 2]);
    let tm = tm_scenario();
    let active = [p(0), p(1)];
    let consensus_safety = ConsensusSafety::new();
    let tm_safety = Opacity::new(v(0));

    let off = Checker::parallel_bfs(1)
        .with_shards(1)
        .with_mem_budget(0)
        .with_symmetry(false);
    let consensus_off = explore_safety_with(
        &off,
        &consensus,
        &active,
        14,
        &consensus_safety,
        history_digest,
    );
    let tm_off = explore_safety_with(&off, &tm, &active, 20, &tm_safety, history_digest);
    assert!(consensus_off.holds());
    assert!(tm_off.holds());
    assert!(!consensus_off.stats.symmetry);
    assert_eq!(consensus_off.stats.orbit_hits, 0, "no reduction, no orbits");
    assert_eq!(tm_off.stats.orbit_hits, 0);

    let on = off.clone().with_symmetry(true);
    let consensus_on = explore_safety_with(
        &on,
        &consensus,
        &active,
        14,
        &consensus_safety,
        history_digest,
    );
    let tm_on = explore_safety_with(&on, &tm, &active, 20, &tm_safety, history_digest);
    for (reduced, full, name) in [
        (&consensus_on, &consensus_off, "consensus"),
        (&tm_on, &tm_off, "tm"),
    ] {
        assert_eq!(reduced.holds(), full.holds(), "{name}");
        assert_eq!(reduced.truncated, full.truncated, "{name}");
        assert_eq!(reduced.violations, full.violations, "{name}");
        assert!(reduced.stats.symmetry, "{name}");
        assert!(
            reduced.configs < full.configs,
            "{name}: the quotient must shrink the visited set \
             ({} !< {})",
            reduced.configs,
            full.configs
        );
        assert!(
            reduced.stats.orbit_hits > 0,
            "{name}: collapsed orbits must be accounted"
        );
    }

    // By depth 30 the round-shift quotient of the consensus space is
    // exhausted (570 configurations) while the unreduced run climbs
    // rounds forever: the quotient may finish where the full run
    // truncates, never the other way round.
    let deep = |checker: &Checker| {
        explore_safety_with(
            checker,
            &consensus,
            &active,
            30,
            &consensus_safety,
            history_digest,
        )
    };
    let (deep_off, deep_on) = (deep(&off), deep(&on));
    assert_eq!(deep_on.holds(), deep_off.holds());
    assert!(deep_off.truncated && !deep_on.truncated);
    assert_eq!(deep_on.configs, 570);
    assert!(deep_on.configs < deep_off.configs);

    // 64 and 512 bytes force several spill chunks per level (see the
    // spill differential suite for the calibration); budget 0 is the
    // resident arm, which never spills.
    let spilling = [64usize, 512].into_iter().flat_map(|budget| {
        [SpillCodec::Plain, SpillCodec::Delta, SpillCodec::Replay].map(|codec| (budget, codec))
    });
    let arms: Vec<(usize, SpillCodec)> = std::iter::once((0, SpillCodec::Delta))
        .chain(spilling)
        .collect();
    for threads in [1usize, 2, 4] {
        for &(mem_budget, codec) in &arms {
            let checker = Checker::parallel_bfs(threads)
                .with_shards(4)
                .with_mem_budget(mem_budget)
                .with_spill_codec(codec)
                .with_symmetry(true);
            let label = format!("{threads} threads, mem {mem_budget}, {codec:?}");

            let c = explore_safety_with(
                &checker,
                &consensus,
                &active,
                14,
                &consensus_safety,
                history_digest,
            );
            assert_eq!(c.holds(), consensus_off.holds(), "consensus, {label}");
            assert_eq!(c.configs, consensus_on.configs, "consensus, {label}");
            assert_eq!(c.truncated, consensus_on.truncated, "consensus, {label}");
            assert_eq!(
                c.stats.orbit_hits, consensus_on.stats.orbit_hits,
                "consensus, {label}: orbit accounting must be deterministic"
            );
            if mem_budget > 0 {
                assert!(c.stats.spilled_chunks >= 2, "consensus, {label} must spill");
            } else {
                assert_eq!(c.stats.spilled_chunks, 0, "consensus, {label}");
            }

            let t = explore_safety_with(&checker, &tm, &active, 20, &tm_safety, history_digest);
            assert_eq!(t.holds(), tm_off.holds(), "tm, {label}");
            assert_eq!(t.configs, tm_on.configs, "tm, {label}");
            assert_eq!(t.truncated, tm_on.truncated, "tm, {label}");
            assert_eq!(t.stats.orbit_hits, tm_on.stats.orbit_hits, "tm, {label}");
        }
    }
}

/// Three fully symmetric processes collapse much harder than two: the
/// permutation orbit of a generic configuration has up to 3! = 6
/// elements. At the Fig-1a exploration depth the quotient must at least
/// halve the visited set. With inputs (1, 2, 2) only processes 1 and 2
/// are interchangeable (the bivalent Fig 1a regime one process count
/// up): the quotient still shrinks the set, by less.
#[test]
fn three_process_orbits_at_least_halve_the_visited_set() {
    let active = [p(0), p(1), p(2)];
    let safety = ConsensusSafety::new();
    for (inputs, min_reduction) in [([5, 5, 5], 2), ([1, 2, 2], 1)] {
        let consensus = of_consensus_scenario(&inputs);
        let full = explore_safety_with(
            &Checker::auto().with_symmetry(false),
            &consensus,
            &active,
            10,
            &safety,
            history_digest,
        );
        let reduced = explore_safety_with(
            &Checker::auto().with_symmetry(true),
            &consensus,
            &active,
            10,
            &safety,
            history_digest,
        );
        assert_eq!(reduced.holds(), full.holds(), "{inputs:?}");
        assert_eq!(reduced.truncated, full.truncated, "{inputs:?}");
        assert!(
            reduced.configs < full.configs && reduced.configs * min_reduction <= full.configs,
            "inputs {inputs:?}: 3-process orbits must shrink the visited set \
             at least {min_reduction}x ({} vs {})",
            reduced.configs,
            full.configs
        );
        assert!(reduced.stats.orbit_hits > 0, "{inputs:?}");
    }
}

/// Valence verdicts (the bivalence adversary's inner query) are
/// permutation-invariant: a permutation relabels *who* decides, never
/// *which value*. With ample budget the reachable decision sets must
/// coincide exactly; the CAS scenario has no symmetry capability, so the
/// request must be inert there (identical counts, zero orbit hits).
#[test]
fn symmetry_preserves_valence_verdicts() {
    let of = of_consensus_scenario(&[1, 2]);
    let cas = cas_consensus_scenario();
    let active = [p(0), p(1)];
    let off = Checker::auto().with_symmetry(false);
    let on = Checker::auto().with_symmetry(true);
    for budget in [50usize, 10_000] {
        let of_off = decidable_values_with(&off, &of, &active, budget);
        let of_on = decidable_values_with(&on, &of, &active, budget);
        assert_eq!(of_on.values, of_off.values, "of, budget {budget}");
        assert_eq!(of_on.bivalent(), of_off.bivalent(), "of, budget {budget}");
        if !of_off.truncated && !of_on.truncated {
            assert!(
                of_on.configs <= of_off.configs,
                "of, budget {budget}: the quotient never grows the visited set"
            );
        }

        let cas_off = decidable_values_with(&off, &cas, &active, budget);
        let cas_on = decidable_values_with(&on, &cas, &active, budget);
        assert_eq!(cas_on.values, cas_off.values, "cas, budget {budget}");
        assert_eq!(
            cas_on.configs, cas_off.configs,
            "cas, budget {budget}: no capability, no reduction"
        );
        assert_eq!(cas_on.truncated, cas_off.truncated, "cas, budget {budget}");
    }
}

/// A partial active set is not permutation-closed: exploring only p0's
/// schedules from an asymmetric start must *not* quotient p0 against the
/// inert p1. The capability gate keys on the active set covering all
/// processes, so symmetry-on and symmetry-off runs coincide exactly.
#[test]
fn partial_active_sets_disable_the_quotient() {
    let of = of_consensus_scenario(&[1, 2]);
    let active = [p(0)];
    let safety = ConsensusSafety::new();
    let off = explore_safety_with(
        &Checker::auto().with_symmetry(false),
        &of,
        &active,
        12,
        &safety,
        history_digest,
    );
    let on = explore_safety_with(
        &Checker::auto().with_symmetry(true),
        &of,
        &active,
        12,
        &safety,
        history_digest,
    );
    assert_eq!(on.configs, off.configs, "gate must hold the quotient off");
    assert_eq!(on.stats.orbit_hits, 0);
    assert!(
        !on.stats.symmetry,
        "space must not advertise the capability"
    );
}
