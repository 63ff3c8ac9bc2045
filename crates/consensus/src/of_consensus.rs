//! Obstruction-free consensus from registers: rounds of commit-adopt plus
//! a decision register.

use std::hash::{Hash, Hasher};

use slx_engine::{DeltaCodec, DeltaCtx, StateCodec};
use slx_history::{Operation, ProcessId, Response, Value};
use slx_memory::{Memory, ObjId, ObjRun, PrimOutcome, Primitive, Process, StepEffect, System};

use crate::adopt_commit::{
    decode_participant, decode_participant_delta, encode_participant, encode_participant_delta,
    step_participant, AcNormalizedState, AcOutcome, AcSlot, AcState, Cursor, Phase, Seen,
};
use crate::word::ConsWord;

/// Shared register layout for one [`ObstructionFreeConsensus`] instance:
/// a decision register and `max_rounds` pre-allocated commit-adopt
/// objects.
///
/// Which registers round `r` uses is part of the program, not of the
/// configuration, so the table is not stored: the rounds' registers are
/// one consecutive run right after the decision register (`2n` per
/// round: the `a` array then the `b` array) and round `r`'s arrays are
/// offsets into it.
///
/// Every process carries a copy, so it is 8 bytes: the run's first
/// register in 32 bits, `n` and the round count in 16 each. The codecs
/// write the full-width decision register, `n` and run they always
/// wrote, and `Hash` the same two words; a record this form cannot hold
/// does not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// The first round register; the decision register is the one
    /// before it.
    first: u32,
    /// Participants per commit-adopt object.
    n: u16,
    /// Pre-allocated rounds.
    rounds: u16,
}

impl Layout {
    /// The layout of decision register `decision` and round registers
    /// `regs` for `n` participants, or `None` if `regs` is not whole
    /// rounds, does not start right after `decision`, or is too long or
    /// too far out for the compact form (`n` and the round count in 16
    /// bits, the run's start and length in 32).
    fn new(decision: ObjId, n: usize, regs: ObjRun) -> Option<Layout> {
        if decision.index().checked_add(1)? != regs.first().index() {
            return None;
        }
        let n = u16::try_from(n).ok()?;
        let rounds = match n {
            0 => 0,
            _ => regs.len() / (2 * usize::from(n)),
        };
        let layout = Layout {
            first: u32::try_from(regs.first().index()).ok()?,
            n,
            rounds: u16::try_from(rounds).ok()?,
        };
        let len_fits = u32::try_from(regs.len()).is_ok();
        (len_fits && layout.regs_len() == regs.len()).then_some(layout)
    }

    /// The decision register.
    #[must_use]
    pub fn decision(&self) -> ObjId {
        ObjId::new(self.first as usize - 1)
    }

    /// Participants per commit-adopt object.
    fn n(&self) -> usize {
        self.n.into()
    }

    /// `me` as a participant index: every process owns one column of
    /// each round's arrays.
    ///
    /// # Panics
    /// If `me` is not below `n`.
    fn participant(&self, me: ProcessId) -> u16 {
        assert!(me.index() < self.n(), "participant index out of range");
        me.index() as u16
    }

    fn regs_len(&self) -> usize {
        2 * self.n() * self.max_rounds()
    }

    fn regs(&self) -> ObjRun {
        ObjRun::new(ObjId::new(self.first as usize), self.regs_len())
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
        self.rounds.into()
    }
}

impl Hash for Layout {
    /// Two words: decision register and `n`, then the rounds' run.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(u64::from(self.first - 1) | u64::from(self.n) << 32);
        state.write_u64(u64::from(self.first) | (self.regs_len() as u64) << 32);
    }
}

/// [`ObstructionFreeConsensus::normalized_state`]'s projection: estimate,
/// round rebased to the caller's base, and the control state with
/// register identities erased.
pub type OfNormalizedState = (Value, usize, (u8, Option<AcNormalizedState>, Option<Value>));

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
/// A process stores only what varies within a run plus its layout, in
/// plain fields: 40 bytes. Its participant count is the layout's, its
/// in-round registers follow from the layout, the round and its id, and
/// a round's commit-adopt input is its estimate. Both codecs write the
/// full-width process the type always described, byte for byte, and
/// `Eq` draws the same lines it did; `Hash` packs the stored fields into
/// a few words and leaves out what they imply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObstructionFreeConsensus {
    layout: Layout,
    est: Value,
    /// Inside a round, what its B collect has gathered; in
    /// `WriteDecision`, `committed` is the value being written (the one
    /// the round committed). Zero elsewhere.
    seen: Seen,
    me: u16,
    round: u16,
    /// The phase; inside a round also the collect position and flags,
    /// which are zero elsewhere.
    at: Cursor,
}

impl ObstructionFreeConsensus {
    /// Allocates the shared registers: 1 decision register plus
    /// `max_rounds` commit-adopt objects of `2n` registers each.
    ///
    /// # Panics
    /// If the layout does not fit its compact form: `n` or `max_rounds`
    /// past 65,535, or a register id past 32 bits.
    pub fn layout(mem: &mut Memory<ConsWord>, n: usize, max_rounds: usize) -> Layout {
        let decision = mem.alloc_register(ConsWord::Bot);
        let regs = mem.alloc_registers(max_rounds * 2 * n, ConsWord::Bot);
        Layout::new(decision, n, regs).expect("the layout fits its compact form")
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
            seen: Seen::default(),
            at: Cursor::at(Phase::Idle),
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
    /// The processes are a fixed cost whatever `max_rounds` is: 40 bytes
    /// each, copied with every successor, since a process keeps its
    /// layout in 8 bytes and its phase, counters and collected values in
    /// plain fields, and derives its participant count, its in-round
    /// registers and its commit-adopt input instead of storing them.
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
        self.round.into()
    }

    /// The shared register layout this process runs over.
    #[must_use]
    pub fn shared_layout(&self) -> &Layout {
        &self.layout
    }

    fn me(&self) -> ProcessId {
        ProcessId::new(self.me.into())
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
            me: self.me.into(),
        }
    }

    /// [`Self::ac_slot`], if the process is inside a round.
    fn round_slot(&self) -> Option<AcSlot> {
        self.at.phase.in_round().then(|| self.ac_slot())
    }

    /// The in-round sub-machine's state: the estimate is its input.
    fn ac_state(&self) -> AcState {
        AcState {
            input: self.est,
            seen: self.seen,
            at: self.at,
        }
    }

    /// Leaves the current phase for `phase`, outside a round, with
    /// nothing collected.
    fn enter(&mut self, phase: Phase) {
        self.seen = Seen::default();
        self.at = Cursor::at(phase);
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
        let pc = match self.at.phase {
            Phase::Idle => (0, None, None),
            Phase::CheckDecision => (1, None, None),
            Phase::WriteA | Phase::CollectA | Phase::WriteB | Phase::CollectB => (
                2,
                Some(self.ac_state().normalized_state(self.me.into())),
                None,
            ),
            Phase::WriteDecision => (3, None, Some(self.seen.committed)),
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
        (seen, at): (Seen, Cursor),
        slot: Option<AcSlot>,
    ) -> Option<Self> {
        if n != layout.n() || me.index() >= n {
            return None;
        }
        let derived = layout.round_registers(round).map(|(a, b)| AcSlot {
            a,
            b,
            me: me.index(),
        });
        if slot.is_some() && slot != derived {
            return None;
        }
        Some(ObstructionFreeConsensus {
            layout,
            me: layout.participant(me),
            round: u16::try_from(round).ok()?,
            est,
            seen,
            at,
        })
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
    /// payload. `n` and an in-round sub-machine's registers, index and
    /// input follow from the layout, the round, `me` and the estimate,
    /// so they are not written (the sub-machine's words still start with
    /// its input); the tag fixes how many words follow, so the sequence
    /// is injective.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.layout.hash(state);
        state.write_u64(u64::from(self.me) | u64::from(self.round) << 32);
        state.write_i64(self.est.raw());
        match self.at.phase {
            Phase::Idle => state.write_u64(0),
            Phase::CheckDecision => state.write_u64(1),
            Phase::WriteA | Phase::CollectA | Phase::WriteB | Phase::CollectB => {
                state.write_u64(2);
                self.ac_state().hash(state);
            }
            Phase::WriteDecision => {
                state.write_u64(3);
                state.write_i64(self.seen.committed.raw());
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
        match self.at.phase {
            Phase::Idle => out.push(0),
            Phase::CheckDecision => out.push(1),
            Phase::WriteA | Phase::CollectA | Phase::WriteB | Phase::CollectB => {
                out.push(2);
                participant(self.ac_slot(), &self.ac_state(), out);
            }
            Phase::WriteDecision => {
                out.push(3);
                self.seen.committed.encode(out);
            }
        }
    }

    /// Reads [`Self::encode_tail`]'s bytes over `layout`; an in-round
    /// sub-machine is read by `participant`, and must run on the
    /// estimate: a record whose sub-machine input differs is no process
    /// this type can hold.
    fn decode_tail(
        layout: Layout,
        input: &mut &[u8],
        participant: impl FnOnce(&mut &[u8]) -> Option<(AcSlot, AcState)>,
    ) -> Option<Self> {
        let me = ProcessId::decode(input)?;
        let n = usize::decode(input)?;
        let est = Value::decode(input)?;
        let round = usize::decode(input)?;
        let outside = |phase| (Seen::default(), Cursor::at(phase));
        let (state, slot) = match u8::decode(input)? {
            0 => (outside(Phase::Idle), None),
            1 => (outside(Phase::CheckDecision), None),
            2 => {
                let (slot, ac) = participant(input)?;
                if ac.input != est {
                    return None;
                }
                ((ac.seen, ac.at), Some(slot))
            }
            3 => {
                let (mut seen, at) = outside(Phase::WriteDecision);
                seen.committed = Value::decode(input)?;
                ((seen, at), None)
            }
            _ => return None,
        };
        Self::assemble(layout, me, n, est, round, state, slot)
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
        self.enter(Phase::CheckDecision);
    }

    fn has_step(&self) -> bool {
        self.at.phase != Phase::Idle
    }

    fn step(&mut self, mem: &mut Memory<ConsWord>) -> StepEffect {
        match self.at.phase {
            Phase::Idle => StepEffect::Idle,
            Phase::CheckDecision => {
                let d = match mem
                    .apply(Primitive::Read(self.layout.decision()))
                    .expect("decision register allocated")
                {
                    PrimOutcome::Value(w) => w,
                    _ => unreachable!("registers return values"),
                };
                if let ConsWord::Val(v) = d {
                    self.enter(Phase::Idle);
                    return StepEffect::Responded(Response::Decided(v));
                }
                // Opening the round checks that it was pre-allocated.
                self.ac_slot();
                self.at = Cursor::opening();
                StepEffect::Ran
            }
            Phase::WriteA | Phase::CollectA | Phase::WriteB | Phase::CollectB => {
                let slot = self.ac_slot();
                match step_participant(slot, self.est, &mut self.seen, &mut self.at, mem) {
                    None => {}
                    Some(AcOutcome::Commit(v)) => {
                        self.enter(Phase::WriteDecision);
                        self.seen.committed = v;
                    }
                    Some(AcOutcome::Adopt(v)) => {
                        self.est = v;
                        self.round += 1;
                        self.enter(Phase::CheckDecision);
                    }
                }
                StepEffect::Ran
            }
            Phase::WriteDecision => {
                let v = self.seen.committed;
                mem.apply(Primitive::Write(self.layout.decision(), ConsWord::Val(v)))
                    .expect("decision register allocated");
                self.enter(Phase::Idle);
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
    #[cfg(target_pointer_width = "64")]
    fn a_process_is_forty_bytes() {
        // Every successor copies its processes: a field that comes back
        // shows here before it shows as resident memory.
        assert_eq!(std::mem::size_of::<Layout>(), 8);
        assert_eq!(std::mem::size_of::<ObstructionFreeConsensus>(), 40);
        // The other consensus states: a commit-adopt participant on its
        // own (two register runs, its column, its state) and a CAS
        // process (its object, its pc). None holds a table of ids.
        assert_eq!(std::mem::size_of::<crate::AdoptCommit>(), 72);
        assert_eq!(std::mem::size_of::<crate::CasConsensus>(), 24);
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
