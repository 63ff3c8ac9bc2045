//! End-to-end integration: the paper's headline results, regenerated
//! through the public API of the root crate.

use safety_liveness_exclusion::consensus::{round_shift_key, ConsWord, ObstructionFreeConsensus};
use safety_liveness_exclusion::grid::{
    consensus_grid, consensus_white_check, tm_grid, Grid, Verdict,
};
use safety_liveness_exclusion::history::{Operation, ProcessId, Response, Value};
use safety_liveness_exclusion::liveness::LkFreedom;
use safety_liveness_exclusion::memory::{
    Memory, ObjId, ObjRun, Primitive, Process, StepEffect, System,
};

#[test]
fn theorem_5_2_figure_1a() {
    // At n = 14 the lasso is 76 events long (stem 14, cycle 62).
    for n in [2, 3, 5, 14] {
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
        assert_black_anchor_is_a_lasso_on_n_processes(&g, LkFreedom::new(1, 2));
    }
}

/// A black anchor's basis names a lasso closed on the pane's own `n`
/// processes, and argues for no other size.
fn assert_black_anchor_is_a_lasso_on_n_processes(g: &Grid, anchor: LkFreedom) {
    let point = g
        .point(anchor.l(), anchor.k())
        .expect("the anchor is on the grid");
    let Verdict::Excluded { basis } = &point.verdict else {
        panic!("n={}: {anchor} is not black", g.n);
    };
    let closed = format!("({} processes; stem ", g.n);
    assert!(basis.contains(&closed), "n={}: {basis}", g.n);
    assert!(basis.contains(" events)"), "n={}: {basis}", g.n);
    assert!(!basis.contains("for n > 2"), "n={}: {basis}", g.n);
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

/// The exact configuration key the controls are extracted under: the
/// object table, the process states and the pending and crashed flags
/// (`transformed` copies them and drops the history). It leaves out
/// `Memory::applied`, which `transformed` resets: it counts every step, so
/// with it no configuration would repeat and no graph would close.
fn exact<P: Process<ConsWord> + Clone>(sys: &System<ConsWord, P>) -> System<ConsWord, P> {
    sys.transformed(Clone::clone, Clone::clone)
}

/// The control flips the solo-progress half of Figure 1(a)'s white
/// anchor: it is safe on every schedule, and a process alone before the
/// other has published spins on a cycle of its own reads.
#[test]
fn figure_1a_white_anchor_flags_a_consensus_that_waits_for_the_other() {
    let (of_ok, basis) = consensus_white_check(
        &ObstructionFreeConsensus::proposers(&[1, 2], 64),
        round_shift_key,
    );
    assert!(of_ok, "{basis}");

    let (ok, basis) = consensus_white_check(&WaitForOther::proposers([1, 2]), exact);
    assert!(!ok, "a solo process that waits forever went unflagged");
    assert!(
        basis.starts_with("all schedules, unbounded: 7 states, 10 transitions"),
        "{basis}"
    );
    assert!(
        basis.contains("solo progress FAILED: p1 alone cycles"),
        "{basis}"
    );
    assert!(!basis.contains("safety FAILED"), "{basis}");
}

/// Planted bug for the safety half of Figure 1(a)'s white anchor: rounds
/// of commit-adopt with the `b` half cut out. A process writes its
/// estimate to its register of the round's `a` array and collects the
/// array; seeing no other value it decides at once — commit-adopt's
/// commit, taken without the `b` collect through which a later process
/// would learn of it — and otherwise carries the larger value into the
/// next round. Solo, a process decides its proposal after three steps;
/// but one that decides in round 0 leaves nothing for a slower process
/// to adopt, which then meets no rival in round 1 and decides its own.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CommitWithoutB {
    /// Two registers per round, round `r` at `2r` and `2r + 1`.
    a: ObjRun,
    me: usize,
    estimate: Option<Value>,
    round: usize,
    /// The register the round's collect reads next; `None` before the
    /// round's write.
    next: Option<usize>,
    /// The largest other value the round's collect has seen.
    rival: Option<Value>,
}

/// More rounds than two proposers can use: after one conflict both hold
/// the larger value.
const CONTROL_ROUNDS: usize = 4;

impl CommitWithoutB {
    fn proposers(inputs: [i64; 2]) -> System<ConsWord, Self> {
        let mut mem: Memory<ConsWord> = Memory::new();
        let a = mem.alloc_registers(2 * CONTROL_ROUNDS, ConsWord::Bot);
        let procs = (0..2)
            .map(|me| CommitWithoutB {
                a,
                me,
                estimate: None,
                round: 0,
                next: None,
                rival: None,
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

impl Process<ConsWord> for CommitWithoutB {
    fn on_invoke(&mut self, op: Operation) {
        let Operation::Propose(v) = op else {
            panic!("consensus accepts only propose(), got {op}");
        };
        self.estimate = Some(v);
    }

    fn has_step(&self) -> bool {
        self.estimate.is_some()
    }

    fn step(&mut self, mem: &mut Memory<ConsWord>) -> StepEffect {
        let Some(est) = self.estimate else {
            return StepEffect::Idle;
        };
        let Some(j) = self.next else {
            let mine = self.a.at(2 * self.round + self.me);
            mem.apply(Primitive::Write(mine, ConsWord::Val(est)))
                .unwrap();
            self.next = Some(0);
            return StepEffect::Ran;
        };
        let seen = mem
            .apply(Primitive::Read(self.a.at(2 * self.round + j)))
            .unwrap()
            .expect_value();
        if let ConsWord::Val(w) = seen {
            if w != est {
                self.rival = self.rival.max(Some(w));
            }
        }
        if j == 0 {
            self.next = Some(1);
            return StepEffect::Ran;
        }
        match self.rival.take() {
            Some(rival) if self.round + 1 < CONTROL_ROUNDS => {
                self.estimate = Some(est.max(rival));
                self.round += 1;
                self.next = None;
                StepEffect::Ran
            }
            _ => {
                self.estimate = None;
                StepEffect::Responded(Response::Decided(est))
            }
        }
    }
}

/// The control flips the safety half of Figure 1(a)'s white anchor, the
/// check Section 6's implementable members share: a response edge of its
/// graph decides 2 after 1 was decided. Solo progress, Section 6's old
/// backing on its own, holds for it.
#[test]
fn figure_1a_white_anchor_flags_a_commit_without_the_b_collect() {
    let (ok, basis) = consensus_white_check(&CommitWithoutB::proposers([1, 2]), exact);
    assert!(!ok, "disagreeing decisions went unflagged");
    assert!(
        basis.starts_with("all schedules, unbounded: 61 states, 93 transitions"),
        "{basis}"
    );
    assert!(
        basis.contains("; safety FAILED: 1 unsafe response edge(s)"),
        "{basis}"
    );
    assert!(!basis.contains("solo progress FAILED"), "{basis}");
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
        assert_black_anchor_is_a_lasso_on_n_processes(&g, LkFreedom::new(2, 2));
        assert_white_anchor_is_a_lasso_on_n_processes(&g, LkFreedom::new(1, n));
    }
}

/// Figure 1(b)'s white anchor's basis names a lasso closed on the pane's
/// own `n` processes, and its control's lasso, on which the anchor failed.
fn assert_white_anchor_is_a_lasso_on_n_processes(g: &Grid, anchor: LkFreedom) {
    let point = g
        .point(anchor.l(), anchor.k())
        .expect("the anchor is on the grid");
    let Verdict::Implementable { basis } = &point.verdict else {
        panic!("n={}: {anchor} is not white", g.n);
    };
    let closed = format!("{anchor} holds on a lasso ");
    assert!(basis.starts_with(&closed), "n={}: {basis}", g.n);
    let against = format!("against GlobalVersionTm ({} processes; stem ", g.n);
    assert!(basis.contains(&against), "n={}: {basis}", g.n);
    let control = format!(
        "control, LockTm with its lock holder crashed mid-transaction: {anchor} violated ({} \
         processes; stem ",
        g.n
    );
    assert!(basis.contains(&control), "n={}: {basis}", g.n);
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
