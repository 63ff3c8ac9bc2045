//! End-to-end integration: the paper's headline results, regenerated
//! through the public API of the root crate.

use safety_liveness_exclusion::consensus::{ConsWord, ObstructionFreeConsensus};
use safety_liveness_exclusion::counterexample::run_counterexample_s;
use safety_liveness_exclusion::engine::{DeltaCodec, StateCodec};
use safety_liveness_exclusion::explorer::{explore_safety, history_digest, verify_solo_progress};
use safety_liveness_exclusion::grid::{consensus_grid, tm_grid};
use safety_liveness_exclusion::history::{Operation, ProcessId, Response, Value};
use safety_liveness_exclusion::liveness::LkFreedom;
use safety_liveness_exclusion::memory::{Memory, ObjId, Primitive, Process, StepEffect, System};
use safety_liveness_exclusion::safety::ConsensusSafety;
use safety_liveness_exclusion::sect6::{nx_report, s_freedom_report};
use safety_liveness_exclusion::theorems::{consensus_gmax_demo, tm_gmax_demo};

#[test]
fn theorem_5_2_figure_1a() {
    for n in [2, 3, 5] {
        let g = consensus_grid(n);
        for p in &g.points {
            assert_eq!(
                p.implementable(),
                p.lk == LkFreedom::new(1, 1),
                "n={n}: wrong verdict at {}",
                p.lk
            );
        }
        assert_eq!(
            g.strongest_implementable()
                .iter()
                .map(|p| p.lk)
                .collect::<Vec<_>>(),
            vec![LkFreedom::new(1, 1)]
        );
        if n >= 2 {
            assert_eq!(
                g.weakest_excluded()
                    .iter()
                    .map(|p| p.lk)
                    .collect::<Vec<_>>(),
                vec![LkFreedom::new(1, 2)]
            );
        }
    }
}

/// Planted bug for Figure 1(a)'s white anchor: a two-process register
/// consensus that publishes its proposal, then decides the smaller of the
/// two proposals once it has read the other one. Both processes decide
/// the same value, so it is safe; a process running solo before the
/// other has published waits forever.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct WaitForOther {
    mine: ObjId,
    other: ObjId,
    proposal: Option<Value>,
    published: bool,
}

impl WaitForOther {
    fn proposers(inputs: [i64; 2]) -> System<ConsWord, Self> {
        let mut mem: Memory<ConsWord> = Memory::new();
        let regs = [
            mem.alloc_register(ConsWord::Bot),
            mem.alloc_register(ConsWord::Bot),
        ];
        let procs = (0..2)
            .map(|i| WaitForOther {
                mine: regs[i],
                other: regs[1 - i],
                proposal: None,
                published: false,
            })
            .collect();
        let mut sys = System::new(mem, procs);
        for (i, v) in inputs.into_iter().enumerate() {
            sys.invoke(ProcessId::new(i), Operation::Propose(Value::new(v)))
                .unwrap();
        }
        sys
    }
}

impl Process<ConsWord> for WaitForOther {
    fn on_invoke(&mut self, op: Operation) {
        let Operation::Propose(v) = op else {
            panic!("consensus accepts only propose(), got {op}");
        };
        self.proposal = Some(v);
    }

    fn has_step(&self) -> bool {
        self.proposal.is_some()
    }

    fn step(&mut self, mem: &mut Memory<ConsWord>) -> StepEffect {
        let Some(v) = self.proposal else {
            return StepEffect::Idle;
        };
        if !self.published {
            mem.apply(Primitive::Write(self.mine, ConsWord::Val(v)))
                .unwrap();
            self.published = true;
            return StepEffect::Ran;
        }
        match mem
            .apply(Primitive::Read(self.other))
            .unwrap()
            .expect_value()
        {
            ConsWord::Val(w) => {
                self.proposal = None;
                StepEffect::Responded(Response::Decided(Value::new(v.raw().min(w.raw()))))
            }
            _ => StepEffect::Ran,
        }
    }
}

impl StateCodec for WaitForOther {
    fn encode(&self, out: &mut Vec<u8>) {
        self.mine.encode(out);
        self.other.encode(out);
        self.proposal.encode(out);
        self.published.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(WaitForOther {
            mine: ObjId::decode(input)?,
            other: ObjId::decode(input)?,
            proposal: Option::decode(input)?,
            published: bool::decode(input)?,
        })
    }
}

impl DeltaCodec for WaitForOther {}

/// The control flips the solo-progress half of Figure 1(a)'s white
/// anchor at the grid's scope (safety to depth 18, solo progress to
/// depth 8 with a 400-step budget): both implementations are safe, and
/// only `ObstructionFreeConsensus` lets a solo process decide.
#[test]
fn figure_1a_white_anchor_flags_a_consensus_that_waits_for_the_other() {
    let active = [ProcessId::new(0), ProcessId::new(1)];
    let safety = ConsensusSafety::new();

    let of = ObstructionFreeConsensus::proposers(&[1, 2], 64);
    assert!(explore_safety(&of, &active, 18, &safety, history_digest).holds());
    assert!(verify_solo_progress(&of, &active, 8, 400).is_none());

    let control = WaitForOther::proposers([1, 2]);
    let out = explore_safety(&control, &active, 18, &safety, history_digest);
    assert!(out.holds(), "violations: {:?}", out.violations);
    assert!(
        verify_solo_progress(&control, &active, 8, 400).is_some(),
        "a solo process that waits forever went unflagged"
    );
}

#[test]
fn theorem_5_3_figure_1b() {
    for n in [2, 3, 5] {
        let g = tm_grid(n);
        for p in &g.points {
            assert_eq!(p.implementable(), p.lk.l() == 1, "n={n}: {}", p.lk);
        }
        assert_eq!(
            g.strongest_implementable()
                .iter()
                .map(|p| p.lk)
                .collect::<Vec<_>>(),
            vec![LkFreedom::new(1, n)]
        );
        if n >= 2 {
            assert_eq!(
                g.weakest_excluded()
                    .iter()
                    .map(|p| p.lk)
                    .collect::<Vec<_>>(),
                vec![LkFreedom::new(2, 2)]
            );
        }
    }
}

#[test]
fn corollaries_4_5_and_4_6() {
    assert!(consensus_gmax_demo().establishes_corollary());
    assert!(tm_gmax_demo(600).establishes_corollary());
}

#[test]
fn section_5_3_counterexample() {
    assert!(run_counterexample_s(3000).establishes_section_5_3());
}

#[test]
fn section_6_structures() {
    let s = s_freedom_report(5);
    assert!(s.pairwise_incomparable);
    assert_eq!(s.singletons.len(), 5);
    let nx = nx_report(5);
    assert!(nx.totally_ordered);
    assert_eq!(nx.strongest_implementable.x(), 0);
    assert_eq!(nx.weakest_non_implementable.x(), 1);
}

#[test]
fn tm_frontier_points_are_incomparable() {
    // Theorem 5.3's remark: strongest implementable (1,n) and weakest
    // excluded (2,2) are incomparable for n > 2.
    for n in [3, 4, 6] {
        let a = LkFreedom::new(1, n);
        let b = LkFreedom::new(2, 2);
        assert!(a.partial_cmp_strength(&b).is_none(), "n={n}");
    }
    // At n = 2 they are comparable ((1,2) < (2,2)).
    assert!(LkFreedom::new(2, 2).is_stronger_or_equal(&LkFreedom::new(1, 2)));
}
