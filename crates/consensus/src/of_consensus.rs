//! Obstruction-free consensus from registers: rounds of commit-adopt plus
//! a decision register.

use std::hash::{Hash, Hasher};

use slx_engine::{DeltaCodec, DeltaCtx, StateCodec};
use slx_history::{Operation, ProcessId, Response, Value};
use slx_memory::{Memory, ObjId, ObjRun, PrimOutcome, Primitive, Process, StepEffect, System};

use crate::adopt_commit::{
    decode_participant, decode_participant_delta, encode_participant, encode_participant_delta,
    AcNormalizedState, AcOutcome, AcSlot, AcState,
};
use crate::word::ConsWord;

/// Shared register layout for one [`ObstructionFreeConsensus`] instance:
/// a decision register and `max_rounds` pre-allocated commit-adopt
/// objects.
///
/// Which registers round `r` uses is part of the program, not of the
/// configuration, so the table is not stored: the rounds' registers are
/// one consecutive run (`2n` per round: the `a` array then the `b`
/// array) and round `r`'s arrays are offsets into it.
///
/// Every process carries a copy, so the ids are held as 32 bits (16
/// bytes where an `ObjId` and an `ObjRun` take 32). The codecs widen them
/// back to the full-width bytes they always wrote; `Hash` packs them into
/// two words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    decision: u32,
    /// Participants per commit-adopt object.
    n: u32,
    /// `a`-then-`b` registers, `2n` per round, from `regs_first` on.
    regs_first: u32,
    regs_len: u32,
}

impl Layout {
    /// The layout of decision register `decision` and round registers
    /// `regs` for `n` participants, or `None` if `regs` is not whole
    /// rounds or an id does not fit in 32 bits.
    fn new(decision: ObjId, n: usize, regs: ObjRun) -> Option<Layout> {
        if n > 0 && !regs.len().is_multiple_of(n.checked_mul(2)?) {
            return None;
        }
        let narrow = |x: usize| u32::try_from(x).ok();
        Some(Layout {
            decision: narrow(decision.index())?,
            n: narrow(n)?,
            regs_first: narrow(regs.first().index())?,
            regs_len: narrow(regs.len())?,
        })
    }

    /// The decision register.
    #[must_use]
    pub fn decision(&self) -> ObjId {
        ObjId::new(self.decision as usize)
    }

    /// Participants per commit-adopt object.
    fn n(&self) -> usize {
        self.n as usize
    }

    /// `me` as a participant index: every process owns one column of
    /// each round's arrays.
    ///
    /// # Panics
    /// If `me` is not below `n`.
    fn participant(&self, me: ProcessId) -> u32 {
        assert!(me.index() < self.n(), "participant index out of range");
        me.index() as u32
    }

    fn regs(&self) -> ObjRun {
        ObjRun::new(ObjId::new(self.regs_first as usize), self.regs_len as usize)
            .expect("two 32-bit numbers add below the wrap")
    }

    /// The `(a, b)` register arrays of round `r`'s commit-adopt object,
    /// or `None` past the pre-allocated rounds.
    #[must_use]
    pub fn round_registers(&self, r: usize) -> Option<(ObjRun, ObjRun)> {
        let (n, regs) = (self.n(), self.regs());
        let start = r.checked_mul(2 * n)?;
        let a = regs.sub(start, n)?;
        let b = regs.sub(start.checked_add(n)?, n)?;
        Some((a, b))
    }

    /// Pre-allocated rounds.
    #[must_use]
    pub fn max_rounds(&self) -> usize {
        if self.n == 0 {
            0
        } else {
            self.regs().len() / (2 * self.n())
        }
    }
}

impl Hash for Layout {
    /// Two words: decision register and `n`, then the rounds' run.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(u64::from(self.decision) | u64::from(self.n) << 32);
        state.write_u64(u64::from(self.regs_first) | u64::from(self.regs_len) << 32);
    }
}

/// [`ObstructionFreeConsensus::normalized_state`]'s projection: estimate,
/// round rebased to the caller's base, and the control state with
/// register identities erased.
pub type OfNormalizedState = (Value, usize, (u8, Option<AcNormalizedState>, Option<Value>));

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pc {
    Idle,
    CheckDecision,
    /// Inside round `round`'s commit-adopt object, whose registers and
    /// column follow from the layout, the round and `me`.
    Round(AcState),
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
///
/// A process stores only what varies within a run plus its layout and
/// id in 32-bit form: 72 bytes. Its participant count is the layout's,
/// and its in-round registers are derived from the layout, the round and
/// the id. Both codecs write the full-width process the type always
/// described, byte for byte, and `Eq` draws the same lines it did; `Hash`
/// packs the stored fields into a few words and leaves out what they
/// imply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObstructionFreeConsensus {
    layout: Layout,
    me: u32,
    round: u32,
    est: Value,
    pc: Pc,
}

impl ObstructionFreeConsensus {
    /// Allocates the shared registers: 1 decision register plus
    /// `max_rounds` commit-adopt objects of `2n` registers each.
    ///
    /// # Panics
    /// If a register id does not fit in 32 bits.
    pub fn layout(mem: &mut Memory<ConsWord>, n: usize, max_rounds: usize) -> Layout {
        let decision = mem.alloc_register(ConsWord::Bot);
        let regs = mem.alloc_registers(max_rounds * 2 * n, ConsWord::Bot);
        Layout::new(decision, n, regs).expect("register ids fit in 32 bits")
    }

    /// Creates the algorithm instance of process `me` (of `n`).
    ///
    /// # Panics
    /// If `n` is not the layout's participant count or `me` is not one of
    /// its participants.
    pub fn new(layout: Layout, me: ProcessId, n: usize) -> Self {
        assert_eq!(n, layout.n(), "a process runs over its layout's n");
        ObstructionFreeConsensus {
            layout,
            me: layout.participant(me),
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
    /// The processes are a fixed cost whatever `max_rounds` is: 72 bytes
    /// each, copied with every successor, since a process keeps its
    /// layout in 32-bit ids and derives its participant count and its
    /// in-round registers instead of storing them.
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
        self.round as usize
    }

    /// The shared register layout this process runs over.
    #[must_use]
    pub fn shared_layout(&self) -> &Layout {
        &self.layout
    }

    fn me(&self) -> ProcessId {
        ProcessId::new(self.me as usize)
    }

    /// The registers and column of this process's commit-adopt object in
    /// its current round.
    ///
    /// # Panics
    /// Past the pre-allocated rounds.
    fn ac_slot(&self) -> AcSlot {
        let (a, b) = self
            .layout
            .round_registers(self.round())
            .unwrap_or_else(|| {
                panic!(
                    "consensus exhausted its {} pre-allocated rounds",
                    self.layout.max_rounds()
                )
            });
        AcSlot {
            a,
            b,
            me: self.me as usize,
        }
    }

    /// [`Self::ac_slot`], if the process is inside a round.
    fn round_slot(&self) -> Option<AcSlot> {
        matches!(self.pc, Pc::Round(_)).then(|| self.ac_slot())
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
            Pc::Round(ac) => (2, Some(ac.normalized_state(self.me as usize)), None),
            Pc::WriteDecision(v) => (3, None, Some(*v)),
        };
        (self.est, self.round() - base_round, pc)
    }

    /// A copy of this process re-indexed to `me`, its in-round
    /// sub-machine (if any) retargeted with it
    /// ([`AdoptCommit::retargeted`]): the process-permutation hook used
    /// by [`crate::permuted_of_system`] and the symmetry property
    /// suites.
    ///
    /// # Panics
    /// If `me` is not one of the layout's participants.
    #[must_use]
    pub fn retargeted(&self, me: ProcessId) -> Self {
        ObstructionFreeConsensus {
            me: self.layout.participant(me),
            ..self.clone()
        }
    }

    /// Assembles a decoded record, or `None` if its fields are not one
    /// process: `n` must be the layout's and `me` one of its
    /// participants, the round must fit the compact form, and an in-round
    /// record's registers and index must be the ones its round and `me`
    /// imply — a stored copy that disagrees would otherwise silently
    /// become a different state.
    fn assemble(
        layout: Layout,
        me: ProcessId,
        n: usize,
        est: Value,
        round: usize,
        pc: Pc,
        slot: Option<AcSlot>,
    ) -> Option<Self> {
        if n != layout.n() || me.index() >= n {
            return None;
        }
        let p = ObstructionFreeConsensus {
            layout,
            me: me.index() as u32,
            round: u32::try_from(round).ok()?,
            est,
            pc,
        };
        let derived = layout.round_registers(round).map(|(a, b)| AcSlot {
            a,
            b,
            me: me.index(),
        });
        if slot.is_some() && slot != derived {
            return None;
        }
        Some(p)
    }
}

impl StateCodec for Layout {
    fn encode(&self, out: &mut Vec<u8>) {
        self.decision().encode(out);
        self.n().encode(out);
        self.regs().encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let decision = ObjId::decode(input)?;
        let n = usize::decode(input)?;
        let regs = ObjRun::decode(input)?;
        Layout::new(decision, n, regs)
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

impl Hash for ObstructionFreeConsensus {
    /// Packed words of the stored fields: the layout's two, `me` and the
    /// round in one, the estimate, then the control state's tag and its
    /// payload. `n` and an in-round sub-machine's registers and index
    /// follow from the layout, the round and `me`, so they are not
    /// written; the tag fixes how many words follow, so the sequence is
    /// injective.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.layout.hash(state);
        state.write_u64(u64::from(self.me) | u64::from(self.round) << 32);
        state.write_i64(self.est.raw());
        match &self.pc {
            Pc::Idle => state.write_u64(0),
            Pc::CheckDecision => state.write_u64(1),
            Pc::Round(ac) => {
                state.write_u64(2);
                ac.hash(state);
            }
            Pc::WriteDecision(v) => {
                state.write_u64(3);
                state.write_i64(v.raw());
            }
        }
    }
}

impl ObstructionFreeConsensus {
    /// Everything after the layout, shared by both codecs; an in-round
    /// sub-machine is written by `participant`.
    fn encode_tail(
        &self,
        out: &mut Vec<u8>,
        participant: impl FnOnce(AcSlot, &AcState, &mut Vec<u8>),
    ) {
        self.me().encode(out);
        self.layout.n().encode(out);
        self.est.encode(out);
        self.round().encode(out);
        match &self.pc {
            Pc::Idle => out.push(0),
            Pc::CheckDecision => out.push(1),
            Pc::Round(ac) => {
                out.push(2);
                participant(self.ac_slot(), ac, out);
            }
            Pc::WriteDecision(v) => {
                out.push(3);
                v.encode(out);
            }
        }
    }

    /// Reads [`Self::encode_tail`]'s bytes over `layout`; an in-round
    /// sub-machine is read by `participant`.
    fn decode_tail(
        layout: Layout,
        input: &mut &[u8],
        participant: impl FnOnce(&mut &[u8]) -> Option<(AcSlot, AcState)>,
    ) -> Option<Self> {
        let me = ProcessId::decode(input)?;
        let n = usize::decode(input)?;
        let est = Value::decode(input)?;
        let round = usize::decode(input)?;
        let (pc, slot) = match u8::decode(input)? {
            0 => (Pc::Idle, None),
            1 => (Pc::CheckDecision, None),
            2 => {
                let (slot, ac) = participant(input)?;
                (Pc::Round(ac), Some(slot))
            }
            3 => (Pc::WriteDecision(Value::decode(input)?), None),
            _ => return None,
        };
        Self::assemble(layout, me, n, est, round, pc, slot)
    }
}

impl StateCodec for ObstructionFreeConsensus {
    fn encode(&self, out: &mut Vec<u8>) {
        self.layout.encode(out);
        self.encode_tail(out, encode_participant);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let layout = Layout::decode(input)?;
        Self::decode_tail(layout, input, decode_participant)
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
        // Mirrored on decode: the sub-machine deltas iff the predecessor
        // was also mid-round.
        let prev_slot = prev.round_slot();
        self.encode_tail(out, |slot, ac, out| {
            encode_participant_delta(slot, ac, prev_slot, out);
        });
    }

    fn decode_delta(prev: Option<&Self>, input: &mut &[u8], ctx: &mut DeltaCtx) -> Option<Self> {
        let Some(prev) = prev else {
            return Self::decode(input);
        };
        let layout = Layout::decode_delta(Some(&prev.layout), input, ctx)?;
        let prev_slot = prev.round_slot();
        Self::decode_tail(layout, input, |input| {
            decode_participant_delta(prev_slot, input)
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
                    .apply(Primitive::Read(self.layout.decision()))
                    .expect("decision register allocated")
                {
                    PrimOutcome::Value(w) => w,
                    _ => unreachable!("registers return values"),
                };
                if let ConsWord::Val(v) = d {
                    return StepEffect::Responded(Response::Decided(v));
                }
                // Opening the round checks that it was pre-allocated.
                self.ac_slot();
                self.pc = Pc::Round(AcState::new(self.est));
                StepEffect::Ran
            }
            Pc::Round(mut ac) => {
                match ac.step(self.ac_slot(), mem) {
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
                mem.apply(Primitive::Write(self.layout.decision(), ConsWord::Val(v)))
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
