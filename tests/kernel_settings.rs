//! The kernel calls the paper-level suites make through a default checker,
//! re-run under every other kernel setting: 4 threads × 16 shards, the
//! symmetry quotient, and a 2 KiB frontier budget that spills. A setting
//! changes how a run is carried out, never what it finds: verdicts,
//! truncation and findings must be equal across the arms, and so must
//! every count — except that the symmetry quotient may only shrink the
//! visited set. The two scenarios are the root suites' widest kernel
//! calls, where the quotient and the budget actually take effect.

use safety_liveness_exclusion::adversary::run_bivalence_adversary_with;
use safety_liveness_exclusion::consensus::ObstructionFreeConsensus;
use safety_liveness_exclusion::engine::Checker;
use safety_liveness_exclusion::explorer::{explore_safety_with, history_digest};
use safety_liveness_exclusion::history::ProcessId;
use safety_liveness_exclusion::safety::ConsensusSafety;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

const SYMMETRY: &str = "symmetry";

/// The default checker first (the reference), then one arm per setting.
fn arms() -> [(&'static str, Checker); 4] {
    [
        ("default", Checker::auto()),
        (
            "4 threads x 16 shards",
            Checker::parallel_bfs(4).with_shards(16),
        ),
        (SYMMETRY, Checker::auto().with_symmetry(true)),
        ("2 KiB budget", Checker::auto().with_mem_budget(2048)),
    ]
}

/// Figure 1(a)'s white point: obstruction-free consensus from registers,
/// safe on every schedule to depth 18.
#[test]
fn fig_1a_white_safety_run_is_the_same_under_every_setting() {
    let sys = ObstructionFreeConsensus::proposers(&[1, 2], 64);
    let outs = arms().map(|(_, checker)| {
        explore_safety_with(
            &checker,
            &sys,
            &[p(0), p(1)],
            18,
            &ConsensusSafety::new(),
            history_digest,
        )
    });
    let base = &outs[0];
    assert!(base.holds());
    for ((arm, _), out) in arms().iter().zip(&outs).skip(1) {
        assert_eq!(out.holds(), base.holds(), "{arm}");
        assert_eq!(out.truncated, base.truncated, "{arm}");
        assert_eq!(out.violations, base.violations, "{arm}");
        if *arm == SYMMETRY {
            assert!(out.stats.orbit_hits > 0, "{arm}: the quotient never fired");
            assert!(out.configs <= base.configs, "{arm}: the quotient grew");
            continue;
        }
        assert_eq!(out.configs, base.configs, "{arm}");
        assert_eq!(out.stats.transitions, base.stats.transitions, "{arm}");
        assert_eq!(out.stats.dedup_hits, base.stats.dedup_hits, "{arm}");
        assert_eq!(out.stats.peak_frontier, base.stats.peak_frontier, "{arm}");
    }
    assert!(
        outs[3].stats.spilled_chunks >= 2,
        "the 2 KiB budget must spill"
    );
}

/// A short bivalence-adversary run (Figure 1(a)'s black point): hundreds
/// of budgeted valence queries, each a kernel run. The adversary must
/// pick the same schedule under every setting.
#[test]
fn bivalence_adversary_is_the_same_under_every_setting() {
    let run = |checker: &Checker| {
        let mut sys = ObstructionFreeConsensus::proposers(&[1, 2], 64);
        run_bivalence_adversary_with(checker, &mut sys, &[p(0), p(1)], 12, 4_000)
    };
    let [(_, reference), rest @ ..] = arms();
    let base = run(&reference);
    assert!(base.adversary_won());
    for (arm, checker) in rest {
        let out = run(&checker);
        assert_eq!(out.adversary_won(), base.adversary_won(), "{arm}");
        assert_eq!(out.decided, base.decided, "{arm}");
        assert_eq!(out.bivalent_throughout, base.bivalent_throughout, "{arm}");
        assert_eq!(out.steps, base.steps, "{arm}");
        assert_eq!(out.step_counts, base.step_counts, "{arm}");
        assert_eq!(out.history, base.history, "{arm}");
        if arm == SYMMETRY {
            assert!(out.valence_configs < base.valence_configs, "{arm}");
        } else {
            assert_eq!(out.valence_configs, base.valence_configs, "{arm}");
        }
    }
}
