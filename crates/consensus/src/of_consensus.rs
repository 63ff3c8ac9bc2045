//! Obstruction-free consensus from registers: rounds of commit-adopt plus
//! a decision register.

use slx_engine::{DeltaCodec, DeltaCtx, StateCodec};
use slx_history::{Operation, ProcessId, Response, Value};
use slx_memory::{Memory, ObjId, ObjRun, PrimOutcome, Primitive, Process, StepEffect, System};

use crate::adopt_commit::{AcNormalizedState, AcOutcome, AdoptCommit};
use crate::word::ConsWord;

/// Shared register layout for one [`ObstructionFreeConsensus`] instance:
/// a decision register and `max_rounds` pre-allocated commit-adopt
/// objects.
///
/// Which registers round `r` uses is part of the program, not of the
/// configuration, so the table is not stored: the rounds' registers are
/// one consecutive run (`2n` per round: the `a` array then the `b`
/// array) and round `r`'s arrays are offsets into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Layout {
    decision: ObjId,
    /// Participants per commit-adopt object.
    n: usize,
    /// `a`-then-`b` registers, `2n` per round.
    regs: ObjRun,
}

impl Layout {
    /// The decision register.
    #[must_use]
    pub fn decision(&self) -> ObjId {
        self.decision
    }

    /// The `(a, b)` register arrays of round `r`'s commit-adopt object,
    /// or `None` past the pre-allocated rounds.
    #[must_use]
    pub fn round_registers(&self, r: usize) -> Option<(ObjRun, ObjRun)> {
        let start = r.checked_mul(2 * self.n)?;
        let a = self.regs.sub(start, self.n)?;
        let b = self.regs.sub(start.checked_add(self.n)?, self.n)?;
        Some((a, b))
    }

    /// Pre-allocated rounds.
    #[must_use]
    pub fn max_rounds(&self) -> usize {
        if self.n == 0 {
            0
        } else {
            self.regs.len() / (2 * self.n)
        }
    }
}

/// [`ObstructionFreeConsensus::normalized_state`]'s projection: estimate,
/// round rebased to the caller's base, and the control state with
/// register identities erased.
pub type OfNormalizedState = (Value, usize, (u8, Option<AcNormalizedState>, Option<Value>));

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Pc {
    Idle,
    CheckDecision,
    Round(AdoptCommit),
    WriteDecision(Value),
}

/// The register-only consensus used for Figure 1a's white point:
/// **obstruction-free** ((1,1)-free) and safe (agreement + validity).
///
/// Algorithm (the classic rounds-of-commit-adopt construction, cf. the
/// paper's citations [20, 17] for obstruction-free consensus from
/// registers): a proposer keeps an estimate, and in round `r` runs
/// commit-adopt object `AC_r`. On `Commit(v)` it writes the decision
/// register `D` and decides `v`; on `Adopt(v)` it sets its estimate to `v`
/// and moves to round `r + 1`, first checking `D` (deciding whatever a
/// faster process decided). Commit-adopt coherence makes disagreement
/// impossible; a process running solo reaches a round nobody else touched
/// and commits — obstruction-freedom. Under contention, rounds can adopt
/// forever, which is exactly the behaviour the paper's adversary exploits.
///
/// Rounds are pre-allocated; see [`ObstructionFreeConsensus::layout`]'s
/// `max_rounds` (the run panics if an execution exceeds it, which bounds
/// experiments honestly instead of silently mis-deciding).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObstructionFreeConsensus {
    layout: Layout,
    me: ProcessId,
    n: usize,
    est: Value,
    round: usize,
    pc: Pc,
}

impl ObstructionFreeConsensus {
    /// Allocates the shared registers: 1 decision register plus
    /// `max_rounds` commit-adopt objects of `2n` registers each.
    pub fn layout(mem: &mut Memory<ConsWord>, n: usize, max_rounds: usize) -> Layout {
        Layout {
            decision: mem.alloc_register(ConsWord::Bot),
            n,
            regs: mem.alloc_registers(max_rounds * 2 * n, ConsWord::Bot),
        }
    }

    /// Creates the algorithm instance of process `me` (of `n`).
    pub fn new(layout: Layout, me: ProcessId, n: usize) -> Self {
        ObstructionFreeConsensus {
            layout,
            me,
            n,
            est: Value::new(0),
            round: 0,
            pc: Pc::Idle,
        }
    }

    /// A fresh system of `n` processes over `max_rounds` pre-allocated
    /// rounds, none of them invoked yet.
    pub fn system(n: usize, max_rounds: usize) -> System<ConsWord, Self> {
        let mut mem: Memory<ConsWord> = Memory::new();
        let layout = Self::layout(&mut mem, n, max_rounds);
        let procs = (0..n)
            .map(|i| Self::new(layout, ProcessId::new(i), n))
            .collect();
        System::new(mem, procs)
    }

    /// A fresh system of `inputs.len()` proposers over `max_rounds`
    /// pre-allocated rounds, process `i` pending on `Propose(inputs[i])`.
    ///
    /// A round costs each process `2n + 2` steps, so a depth-bounded
    /// exploration never reaches most of a generous `max_rounds`. Rounds
    /// it does not reach cost a configuration almost nothing: the memory
    /// keeps its registers in 16-object chunks shared between a
    /// configuration and its successors, so never-written `⊥` registers
    /// are neither copied by a step nor compared by the delta spill
    /// codec; a writing step copies one pointer pair per chunk of them.
    /// What still grows with `max_rounds` is building the system, a
    /// self-contained record (the first of each spill chunk and of a
    /// checkpoint image: every object, written and read back one by one)
    /// and the symmetry canonicalizer, which maps the whole pool.
    pub fn proposers(inputs: &[i64], max_rounds: usize) -> System<ConsWord, Self> {
        let mut sys = Self::system(inputs.len(), max_rounds);
        for (i, &input) in inputs.iter().enumerate() {
            sys.invoke(ProcessId::new(i), Operation::Propose(Value::new(input)))
                .expect("a fresh process accepts its first invocation");
        }
        sys
    }

    /// The round this process is currently working in.
    #[must_use]
    pub fn round(&self) -> usize {
        self.round
    }

    /// The shared register layout this process runs over.
    #[must_use]
    pub fn shared_layout(&self) -> &Layout {
        &self.layout
    }

    /// The process state normalized **modulo a round shift**: estimate,
    /// `round - base_round`, and the control state with register
    /// identities erased ([`AdoptCommit::normalized_state`]).
    ///
    /// The algorithm only ever touches the decision register and the
    /// commit-adopt objects at its current round and above, and treats
    /// every round identically, so behaviour from a configuration is
    /// invariant under shifting all processes' rounds by a common base
    /// (given equal relative register contents and enough pre-allocated
    /// headroom). A repeat of the shifted state therefore witnesses a
    /// genuine infinite execution — the consensus-side analogue of
    /// `slx_tm::normalize`, used by the bivalence-adversary lasso.
    ///
    /// # Panics
    /// If `base_round` exceeds the current round.
    #[must_use]
    pub fn normalized_state(&self, base_round: usize) -> OfNormalizedState {
        let pc = match &self.pc {
            Pc::Idle => (0, None, None),
            Pc::CheckDecision => (1, None, None),
            Pc::Round(ac) => (2, Some(ac.normalized_state()), None),
            Pc::WriteDecision(v) => (3, None, Some(*v)),
        };
        (self.est, self.round - base_round, pc)
    }

    /// A copy of this process re-indexed to `me`, its in-round
    /// sub-machine (if any) retargeted with it
    /// ([`AdoptCommit::retargeted`]): the process-permutation hook used
    /// by [`crate::permuted_of_system`] and the symmetry property
    /// suites.
    #[must_use]
    pub fn retargeted(&self, me: ProcessId) -> Self {
        let mut p = self.clone();
        p.me = me;
        if let Pc::Round(ac) = &mut p.pc {
            *ac = ac.retargeted(me.index());
        }
        p
    }
}

impl StateCodec for Layout {
    fn encode(&self, out: &mut Vec<u8>) {
        self.decision.encode(out);
        self.n.encode(out);
        self.regs.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let decision = ObjId::decode(input)?;
        let n = usize::decode(input)?;
        let regs = ObjRun::decode(input)?;
        if n > 0 && !regs.len().is_multiple_of(n.checked_mul(2)?) {
            return None;
        }
        Some(Layout { decision, n, regs })
    }
}

impl DeltaCodec for Layout {
    /// Every process of a configuration — and every sibling in a chunk —
    /// runs over the *same* layout, so the common case is one marker
    /// byte.
    fn encode_delta(&self, prev: Option<&Self>, out: &mut Vec<u8>) {
        let same = prev == Some(self);
        out.push(u8::from(same));
        if !same {
            self.encode(out);
        }
    }

    fn decode_delta(prev: Option<&Self>, input: &mut &[u8], _ctx: &mut DeltaCtx) -> Option<Self> {
        match u8::decode(input)? {
            1 => prev.copied(),
            0 => Self::decode(input),
            _ => None,
        }
    }
}

impl StateCodec for ObstructionFreeConsensus {
    fn encode(&self, out: &mut Vec<u8>) {
        self.layout.encode(out);
        self.me.encode(out);
        self.n.encode(out);
        self.est.encode(out);
        self.round.encode(out);
        match &self.pc {
            Pc::Idle => out.push(0),
            Pc::CheckDecision => out.push(1),
            Pc::Round(ac) => {
                out.push(2);
                ac.encode(out);
            }
            Pc::WriteDecision(v) => {
                out.push(3);
                v.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let layout = Layout::decode(input)?;
        let me = ProcessId::decode(input)?;
        let n = usize::decode(input)?;
        let est = Value::decode(input)?;
        let round = usize::decode(input)?;
        let pc = match u8::decode(input)? {
            0 => Pc::Idle,
            1 => Pc::CheckDecision,
            2 => Pc::Round(AdoptCommit::decode(input)?),
            3 => Pc::WriteDecision(Value::decode(input)?),
            _ => return None,
        };
        Some(ObstructionFreeConsensus {
            layout,
            me,
            n,
            est,
            round,
            pc,
        })
    }
}

impl DeltaCodec for ObstructionFreeConsensus {
    /// The layout collapses to its one-byte same-as-predecessor marker
    /// (see [`Layout`]'s hooks) and an in-round sub-machine deltas
    /// against the predecessor's; the remaining locals are a few bytes.
    fn encode_delta(&self, prev: Option<&Self>, out: &mut Vec<u8>) {
        let Some(prev) = prev else {
            return self.encode(out);
        };
        self.layout.encode_delta(Some(&prev.layout), out);
        self.me.encode(out);
        self.n.encode(out);
        self.est.encode(out);
        self.round.encode(out);
        match &self.pc {
            Pc::Idle => out.push(0),
            Pc::CheckDecision => out.push(1),
            Pc::Round(ac) => {
                out.push(2);
                // Mirrored on decode: the sub-machine deltas iff the
                // predecessor was also mid-round.
                let prev_ac = match &prev.pc {
                    Pc::Round(prev_ac) => Some(prev_ac),
                    _ => None,
                };
                ac.encode_delta(prev_ac, out);
            }
            Pc::WriteDecision(v) => {
                out.push(3);
                v.encode(out);
            }
        }
    }

    fn decode_delta(prev: Option<&Self>, input: &mut &[u8], ctx: &mut DeltaCtx) -> Option<Self> {
        let Some(prev) = prev else {
            return Self::decode(input);
        };
        let layout = Layout::decode_delta(Some(&prev.layout), input, ctx)?;
        let me = ProcessId::decode(input)?;
        let n = usize::decode(input)?;
        let est = Value::decode(input)?;
        let round = usize::decode(input)?;
        let pc = match u8::decode(input)? {
            0 => Pc::Idle,
            1 => Pc::CheckDecision,
            2 => {
                let prev_ac = match &prev.pc {
                    Pc::Round(prev_ac) => Some(prev_ac),
                    _ => None,
                };
                Pc::Round(AdoptCommit::decode_delta(prev_ac, input, ctx)?)
            }
            3 => Pc::WriteDecision(Value::decode(input)?),
            _ => return None,
        };
        Some(ObstructionFreeConsensus {
            layout,
            me,
            n,
            est,
            round,
            pc,
        })
    }
}

impl Process<ConsWord> for ObstructionFreeConsensus {
    fn has_symmetry_reduction() -> bool {
        true
    }

    fn canonical_system_digest(sys: &slx_memory::System<ConsWord, Self>) -> slx_engine::Digest {
        crate::normalize::canonical_of_digest(sys)
    }

    fn on_invoke(&mut self, op: Operation) {
        let Operation::Propose(v) = op else {
            panic!("consensus accepts only propose(), got {op}");
        };
        self.est = v;
        self.round = 0;
        self.pc = Pc::CheckDecision;
    }

    fn has_step(&self) -> bool {
        !matches!(self.pc, Pc::Idle)
    }

    fn step(&mut self, mem: &mut Memory<ConsWord>) -> StepEffect {
        match std::mem::replace(&mut self.pc, Pc::Idle) {
            Pc::Idle => StepEffect::Idle,
            Pc::CheckDecision => {
                let d = match mem
                    .apply(Primitive::Read(self.layout.decision))
                    .expect("decision register allocated")
                {
                    PrimOutcome::Value(w) => w,
                    _ => unreachable!("registers return values"),
                };
                if let ConsWord::Val(v) = d {
                    return StepEffect::Responded(Response::Decided(v));
                }
                let (a, b) = self.layout.round_registers(self.round).unwrap_or_else(|| {
                    panic!(
                        "consensus exhausted its {} pre-allocated rounds",
                        self.layout.max_rounds()
                    )
                });
                self.pc = Pc::Round(AdoptCommit::new(a, b, self.me.index(), self.est));
                StepEffect::Ran
            }
            Pc::Round(mut ac) => {
                match ac.step(mem) {
                    None => self.pc = Pc::Round(ac),
                    Some(AcOutcome::Commit(v)) => self.pc = Pc::WriteDecision(v),
                    Some(AcOutcome::Adopt(v)) => {
                        self.est = v;
                        self.round += 1;
                        self.pc = Pc::CheckDecision;
                    }
                }
                StepEffect::Ran
            }
            Pc::WriteDecision(v) => {
                mem.apply(Primitive::Write(self.layout.decision, ConsWord::Val(v)))
                    .expect("decision register allocated");
                StepEffect::Responded(Response::Decided(v))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slx_history::History;
    use slx_memory::{FairRandom, RoundRobin, SoloScheduler};
    use slx_safety::{ConsensusSafety, SafetyProperty};

    fn v(x: i64) -> Value {
        Value::new(x)
    }
    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn system(n: usize) -> System<ConsWord, ObstructionFreeConsensus> {
        let mut mem: Memory<ConsWord> = Memory::new();
        let layout = ObstructionFreeConsensus::layout(&mut mem, n, 64);
        let procs = (0..n)
            .map(|i| ObstructionFreeConsensus::new(layout, p(i), n))
            .collect();
        System::new(mem, procs)
    }

    fn decided(h: &History, q: ProcessId) -> Option<Value> {
        h.responses_of(q).iter().find_map(|r| match r {
            Response::Decided(v) => Some(*v),
            _ => None,
        })
    }

    #[test]
    fn proposers_is_the_hand_built_system() {
        // Register allocation order feeds every digest, so the
        // constructor must reproduce the spelled-out construction exactly.
        let mut mem: Memory<ConsWord> = Memory::new();
        let layout = ObstructionFreeConsensus::layout(&mut mem, 2, 16);
        let procs = vec![
            ObstructionFreeConsensus::new(layout, p(0), 2),
            ObstructionFreeConsensus::new(layout, p(1), 2),
        ];
        let mut sys = System::new(mem, procs);
        sys.invoke(p(0), Operation::Propose(v(1))).unwrap();
        sys.invoke(p(1), Operation::Propose(v(2))).unwrap();
        let built = ObstructionFreeConsensus::proposers(&[1, 2], 16);
        assert_eq!(built, sys);
        // `==` is configuration equality; the encoding also covers the
        // history.
        let (mut built_bytes, mut sys_bytes) = (Vec::new(), Vec::new());
        built.encode(&mut built_bytes);
        sys.encode(&mut sys_bytes);
        assert_eq!(built_bytes, sys_bytes);
    }

    #[test]
    fn solo_run_decides_own_value() {
        let mut sys = system(2);
        sys.invoke(p(0), Operation::Propose(v(7))).unwrap();
        sys.run(&mut SoloScheduler::new(p(0)), 10_000);
        assert_eq!(decided(sys.history(), p(0)), Some(v(7)));
        assert!(ConsensusSafety::new().allows(sys.history()));
    }

    #[test]
    fn sequential_proposers_agree() {
        let mut sys = system(2);
        sys.invoke(p(0), Operation::Propose(v(1))).unwrap();
        sys.run(&mut SoloScheduler::new(p(0)), 10_000);
        sys.invoke(p(1), Operation::Propose(v(2))).unwrap();
        sys.run(&mut SoloScheduler::new(p(1)), 10_000);
        assert_eq!(decided(sys.history(), p(0)), Some(v(1)));
        assert_eq!(decided(sys.history(), p(1)), Some(v(1)));
        assert!(ConsensusSafety::new().allows(sys.history()));
    }

    #[test]
    fn round_robin_contention_terminates_and_agrees() {
        // Lockstep is not an adversarial schedule for this algorithm: both
        // adopt a common value and commit in the next round.
        let mut sys = system(2);
        sys.invoke(p(0), Operation::Propose(v(1))).unwrap();
        sys.invoke(p(1), Operation::Propose(v(2))).unwrap();
        sys.run(&mut RoundRobin::new(), 100_000);
        let d0 = decided(sys.history(), p(0)).expect("p1 decided");
        let d1 = decided(sys.history(), p(1)).expect("p2 decided");
        assert_eq!(d0, d1);
        assert!(ConsensusSafety::new().allows(sys.history()));
    }

    #[test]
    fn random_schedules_always_safe() {
        for seed in 0..50 {
            let mut sys = system(3);
            sys.invoke(p(0), Operation::Propose(v(10))).unwrap();
            sys.invoke(p(1), Operation::Propose(v(20))).unwrap();
            sys.invoke(p(2), Operation::Propose(v(30))).unwrap();
            sys.run(&mut FairRandom::new(seed), 50_000);
            assert!(
                ConsensusSafety::new().allows(sys.history()),
                "seed {seed}: {}",
                sys.history()
            );
            // Fair random runs of this length should also decide (this is
            // probabilistic termination, not wait-freedom).
            for q in ProcessId::all(3) {
                assert!(decided(sys.history(), q).is_some(), "seed {seed} {q}");
            }
        }
    }

    #[test]
    fn crash_of_leader_does_not_block_others() {
        let mut sys = system(2);
        sys.invoke(p(0), Operation::Propose(v(1))).unwrap();
        // p1 takes a few steps then crashes mid-round.
        for _ in 0..3 {
            sys.step(p(0)).unwrap();
        }
        sys.crash(p(0)).unwrap();
        sys.invoke(p(1), Operation::Propose(v(2))).unwrap();
        sys.run(&mut SoloScheduler::new(p(1)), 10_000);
        let d1 = decided(sys.history(), p(1)).expect("survivor decides");
        // The survivor may adopt the crashed process's value or keep its
        // own; either way validity holds.
        assert!(d1 == v(1) || d1 == v(2));
        assert!(ConsensusSafety::new().allows(sys.history()));
    }

    #[test]
    fn late_solo_proposer_adopts_existing_decision() {
        let mut sys = system(3);
        sys.invoke(p(0), Operation::Propose(v(5))).unwrap();
        sys.run(&mut SoloScheduler::new(p(0)), 10_000);
        sys.invoke(p(2), Operation::Propose(v(9))).unwrap();
        sys.run(&mut SoloScheduler::new(p(2)), 10_000);
        assert_eq!(decided(sys.history(), p(2)), Some(v(5)));
    }

    #[test]
    #[should_panic(expected = "propose")]
    fn non_propose_rejected() {
        let mut sys = system(1);
        let _ = sys.invoke(p(0), Operation::TxStart);
    }
}
