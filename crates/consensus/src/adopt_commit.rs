//! Gafni's commit-adopt object from registers, as a resumable sub-machine.

use std::hash::{Hash, Hasher};

use slx_engine::{DeltaCodec, DeltaCtx, StateCodec};
use slx_history::Value;
use slx_memory::{Memory, ObjId, ObjRun, PrimOutcome, Primitive};

use crate::word::ConsWord;

/// [`AdoptCommit::normalized_state`]'s projection: program counter
/// (discriminant, collect index), participant index, input, and the
/// collected flags — everything except the `ObjId`s.
pub type AcNormalizedState = (
    (u8, usize),
    usize,
    Value,
    bool,
    Option<Value>,
    bool,
    bool,
    Option<Value>,
);

/// Outcome of a commit-adopt round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcOutcome {
    /// Everyone that finishes this object will leave with this value.
    Commit(Value),
    /// Keep going with this (possibly changed) estimate.
    Adopt(Value),
}

impl AcOutcome {
    /// The carried value.
    pub fn value(self) -> Value {
        match self {
            AcOutcome::Commit(v) | AcOutcome::Adopt(v) => v,
        }
    }
}

/// Where a participant is, in one byte. A commit-adopt participant runs
/// through the four in-round phases; a
/// [`crate::ObstructionFreeConsensus`] process adds the three around its
/// rounds and keeps all seven in the same byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Idle,
    CheckDecision,
    WriteA,
    CollectA,
    WriteB,
    CollectB,
    WriteDecision,
}

impl Phase {
    /// Whether this is one of a commit-adopt participant's phases.
    pub(crate) fn in_round(self) -> bool {
        matches!(
            self,
            Phase::WriteA | Phase::CollectA | Phase::WriteB | Phase::CollectB
        )
    }
}

// The five flags a participant's collects keep, one bit each, in the
// order `Hash` writes them.
const ALL_A_EQUAL: u8 = 1;
const HAS_COMMITTED: u8 = 1 << 1;
const ALL_B_COMMIT: u8 = 1 << 2;
const ANY_B: u8 = 1 << 3;
const HAS_MIN_B: u8 = 1 << 4;

/// The two values the B collect gathers, each held at zero while absent
/// (the cursor's flags say which are present), so that comparing them
/// beside the flags compares the two `Option`s the codecs write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Seen {
    /// The value of a flagged `b` entry.
    pub(crate) committed: Value,
    /// The least value of any `b` entry.
    pub(crate) min_b: Value,
}

/// Where a participant is and what its collects have found, in four
/// bytes: the phase, the five flags and the collect position (zero
/// outside a collect).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cursor {
    pub(crate) phase: Phase,
    flags: u8,
    j: u16,
}

impl Cursor {
    /// At `phase` with nothing collected: how a consensus process sits
    /// outside its rounds.
    pub(crate) fn at(phase: Phase) -> Self {
        Cursor {
            phase,
            flags: 0,
            j: 0,
        }
    }

    /// About to write `a`: every `a` entry seen so far agrees and every
    /// `b` entry seen so far commits, since there are none.
    pub(crate) fn opening() -> Self {
        Cursor {
            phase: Phase::WriteA,
            flags: ALL_A_EQUAL | ALL_B_COMMIT,
            j: 0,
        }
    }

    fn has(self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    fn set(&mut self, flag: u8, on: bool) {
        if on {
            self.flags |= flag;
        } else {
            self.flags &= !flag;
        }
    }

    /// `v` if `flag` says it was seen.
    fn present(self, flag: u8, v: Value) -> Option<Value> {
        self.has(flag).then_some(v)
    }

    /// The in-round program counter as (tag, collect position): where
    /// the phase byte and `j` read as `CollectA(j)` / `CollectB(j)`.
    ///
    /// # Panics
    /// Outside a round.
    fn pc(self) -> (u8, usize) {
        match self.phase {
            Phase::WriteA => (0, 0),
            Phase::CollectA => (1, self.j.into()),
            Phase::WriteB => (2, 0),
            Phase::CollectB => (3, self.j.into()),
            Phase::Idle | Phase::CheckDecision | Phase::WriteDecision => {
                unreachable!("a commit-adopt participant is inside its round")
            }
        }
    }
}

/// Which registers a participant runs on and which column it owns: the
/// part of an [`AdoptCommit`] that never changes while it runs, and that
/// [`crate::ObstructionFreeConsensus`] derives from its layout, round and
/// process id instead of storing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct AcSlot {
    pub(crate) a: ObjRun,
    pub(crate) b: ObjRun,
    pub(crate) me: usize,
}

impl AcSlot {
    /// The slot of participant `me` on the arrays `a` and `b`.
    ///
    /// # Panics
    /// If the arrays differ in length, `me` is out of range, or the
    /// arrays are too long for a 16-bit collect position.
    fn new(a: ObjRun, b: ObjRun, me: usize) -> Self {
        assert_eq!(a.len(), b.len(), "register arrays must have equal length");
        assert!(me < a.len(), "participant index out of range");
        Self::checked(a, b, me).expect("register arrays too long")
    }

    /// [`AcSlot::new`]'s checks as a decode rule: `None` instead of a
    /// panic.
    fn checked(a: ObjRun, b: ObjRun, me: usize) -> Option<Self> {
        (b.len() == a.len() && me < a.len() && u16::try_from(a.len()).is_ok()).then_some(AcSlot {
            a,
            b,
            me,
        })
    }
}

/// What varies while a participant runs: its input, the two collected
/// values and its cursor, 32 bytes. [`AdoptCommit`] stores one; a
/// consensus process stores the collected values and the cursor as
/// fields of its own, its estimate being the input, and reads them back
/// as one of these.
///
/// `Eq` compares what the wide state (an `Option` per collected value)
/// compares; the codecs write the `Option`s, and `Hash` writes the
/// stored fields as they are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AcState {
    pub(crate) input: Value,
    pub(crate) seen: Seen,
    pub(crate) at: Cursor,
}

impl AcState {
    /// A participant about to write `a` with input `input`.
    fn new(input: Value) -> Self {
        AcState {
            input,
            seen: Seen::default(),
            at: Cursor::opening(),
        }
    }

    fn committed_seen(&self) -> Option<Value> {
        self.at.present(HAS_COMMITTED, self.seen.committed)
    }

    fn min_b_seen(&self) -> Option<Value> {
        self.at.present(HAS_MIN_B, self.seen.min_b)
    }

    /// See [`AdoptCommit::normalized_state`].
    pub(crate) fn normalized_state(&self, me: usize) -> AcNormalizedState {
        (
            self.at.pc(),
            me,
            self.input,
            self.at.has(ALL_A_EQUAL),
            self.committed_seen(),
            self.at.has(ALL_B_COMMIT),
            self.at.has(ANY_B),
            self.min_b_seen(),
        )
    }

    /// Encodes everything after the participant index — the shared tail
    /// of both the self-contained and the delta encodings.
    fn encode(&self, out: &mut Vec<u8>) {
        self.input.encode(out);
        let (tag, j) = self.at.pc();
        out.push(tag);
        if matches!(self.at.phase, Phase::CollectA | Phase::CollectB) {
            j.encode(out);
        }
        self.at.has(ALL_A_EQUAL).encode(out);
        self.committed_seen().encode(out);
        self.at.has(ALL_B_COMMIT).encode(out);
        self.at.has(ANY_B).encode(out);
        self.min_b_seen().encode(out);
    }

    /// Decodes [`AcState::encode`]'s bytes for a participant of arrays of
    /// length `n`.
    fn decode(n: usize, bytes: &mut &[u8]) -> Option<AcState> {
        let input = Value::decode(bytes)?;
        // What `step_participant` indexes by.
        let position = |bytes: &mut &[u8]| {
            let j = usize::decode(bytes)?;
            if j >= n {
                return None;
            }
            u16::try_from(j).ok()
        };
        let (phase, j) = match u8::decode(bytes)? {
            0 => (Phase::WriteA, 0),
            1 => (Phase::CollectA, position(bytes)?),
            2 => (Phase::WriteB, 0),
            3 => (Phase::CollectB, position(bytes)?),
            _ => return None,
        };
        let all_a_equal = bool::decode(bytes)?;
        let committed: Option<Value> = Option::decode(bytes)?;
        let all_b_commit = bool::decode(bytes)?;
        let any_b = bool::decode(bytes)?;
        let min_b: Option<Value> = Option::decode(bytes)?;
        let mut at = Cursor { phase, flags: 0, j };
        at.set(ALL_A_EQUAL, all_a_equal);
        at.set(HAS_COMMITTED, committed.is_some());
        at.set(ALL_B_COMMIT, all_b_commit);
        at.set(ANY_B, any_b);
        at.set(HAS_MIN_B, min_b.is_some());
        Some(AcState {
            input,
            seen: Seen {
                committed: committed.unwrap_or_default(),
                min_b: min_b.unwrap_or_default(),
            },
            at,
        })
    }
}

impl Hash for AcState {
    /// Four words: input, the two collected values (zero when absent),
    /// and one holding the pc tag, the five flags and the collect
    /// position.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (tag, j) = self.at.pc();
        state.write_i64(self.input.raw());
        state.write_i64(self.seen.committed.raw());
        state.write_i64(self.seen.min_b.raw());
        state.write_u64(u64::from(tag) | u64::from(self.at.flags) << 8 | (j as u64) << 32);
    }
}

/// Performs one primitive of participant `slot` with input `input` on
/// its collected values and cursor, wherever its owner keeps them: the
/// one commit-adopt step, run by [`AdoptCommit::step`] and by a
/// consensus process inside a round. Returns `Some(outcome)` when
/// finished.
pub(crate) fn step_participant(
    slot: AcSlot,
    input: Value,
    seen: &mut Seen,
    at: &mut Cursor,
    mem: &mut Memory<ConsWord>,
) -> Option<AcOutcome> {
    let last = usize::from(at.j) + 1 == slot.a.len();
    match at.phase {
        Phase::WriteA => {
            mem.apply(Primitive::Write(slot.a.at(slot.me), ConsWord::Val(input)))
                .expect("register allocated");
            at.phase = Phase::CollectA;
            None
        }
        Phase::CollectA => {
            if let Some(v) = read(mem, slot.a.at(at.j.into())).value() {
                if v != input {
                    at.set(ALL_A_EQUAL, false);
                }
            }
            if last {
                (at.phase, at.j) = (Phase::WriteB, 0);
            } else {
                at.j += 1;
            }
            None
        }
        Phase::WriteB => {
            let entry = ConsWord::Flagged(at.has(ALL_A_EQUAL), input);
            mem.apply(Primitive::Write(slot.b.at(slot.me), entry))
                .expect("register allocated");
            at.phase = Phase::CollectB;
            None
        }
        Phase::CollectB => {
            if let ConsWord::Flagged(flag, v) = read(mem, slot.b.at(at.j.into())) {
                at.set(ANY_B, true);
                if !at.has(HAS_MIN_B) || v < seen.min_b {
                    seen.min_b = v;
                }
                at.set(HAS_MIN_B, true);
                if flag {
                    seen.committed = v;
                    at.set(HAS_COMMITTED, true);
                } else {
                    at.set(ALL_B_COMMIT, false);
                }
            }
            if !last {
                at.j += 1;
                return None;
            }
            // Finished the B collect: compute the outcome. With no
            // commit in sight, adopt the *minimum* value seen, so that
            // symmetric (e.g. lockstep) schedules converge to a common
            // estimate instead of livelocking. Validity is preserved —
            // every seen value is some participant's input.
            let all_commit = at.has(ALL_B_COMMIT) && at.has(ANY_B);
            Some(
                match (all_commit, at.present(HAS_COMMITTED, seen.committed)) {
                    (true, Some(v)) => AcOutcome::Commit(v),
                    (_, Some(v)) => AcOutcome::Adopt(v),
                    (_, None) => {
                        AcOutcome::Adopt(at.present(HAS_MIN_B, seen.min_b).unwrap_or(input))
                    }
                },
            )
        }
        Phase::Idle | Phase::CheckDecision | Phase::WriteDecision => {
            unreachable!("a commit-adopt participant is inside its round")
        }
    }
}

fn read(mem: &mut Memory<ConsWord>, obj: ObjId) -> ConsWord {
    match mem.apply(Primitive::Read(obj)).expect("register allocated") {
        PrimOutcome::Value(w) => w,
        _ => unreachable!("registers return values"),
    }
}

/// A single-use **commit-adopt** object implemented from `2n` registers,
/// executed one primitive per [`AdoptCommit::step`] call.
///
/// Guarantees (all exercised by the tests):
///
/// 1. *Validity*: the outcome value was some participant's input.
/// 2. *Convergence*: if all participants input the same value, everyone
///    commits it.
/// 3. *Coherence*: if anyone commits `v`, everyone commits or adopts `v`.
///
/// The object is wait-free: a participant finishes in exactly `2n + 2`
/// primitives regardless of scheduling.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AdoptCommit {
    slot: AcSlot,
    state: AcState,
}

impl AdoptCommit {
    /// Allocates the shared registers for one commit-adopt object shared by
    /// `n` processes. Call once; hand the returned runs to every
    /// participant.
    pub fn alloc(mem: &mut Memory<ConsWord>, n: usize) -> (ObjRun, ObjRun) {
        (
            mem.alloc_registers(n, ConsWord::Bot),
            mem.alloc_registers(n, ConsWord::Bot),
        )
    }

    /// Starts participation of process index `me` with input `input`.
    pub fn new(a: ObjRun, b: ObjRun, me: usize, input: Value) -> Self {
        AdoptCommit {
            slot: AcSlot::new(a, b, me),
            state: AcState::new(input),
        }
    }

    /// The participant's state with the shared-register identities
    /// erased: program counter, input, and every collected flag — all
    /// that determines future behaviour *given the registers' contents*.
    ///
    /// Round-shift normalization needs this projection because a process
    /// re-running commit-adopt at a later round holds different `ObjId`s
    /// even when its behaviour is identical; see
    /// [`crate::round_shift_key`].
    #[must_use]
    pub fn normalized_state(&self) -> AcNormalizedState {
        self.state.normalized_state(self.slot.me)
    }

    /// A copy of this participant re-indexed to `me` (same registers,
    /// same progress): participant identity only selects which column
    /// the sub-machine writes, which is exactly what a process
    /// permutation moves. Used by the symmetry property suites via
    /// [`crate::permuted_of_system`].
    ///
    /// # Panics
    /// If `me` is out of range for the register arrays.
    #[must_use]
    pub fn retargeted(&self, me: usize) -> Self {
        AdoptCommit {
            slot: AcSlot::new(self.slot.a, self.slot.b, me),
            ..*self
        }
    }

    /// Performs one primitive. Returns `Some(outcome)` when finished.
    pub fn step(&mut self, mem: &mut Memory<ConsWord>) -> Option<AcOutcome> {
        let AcState { input, seen, at } = &mut self.state;
        step_participant(self.slot, *input, seen, at, mem)
    }
}

/// Writes participant `slot` in state `state` as one self-contained
/// record: `a`, `b`, the participant index, then the state.
pub(crate) fn encode_participant(slot: AcSlot, state: &AcState, out: &mut Vec<u8>) {
    slot.a.encode(out);
    slot.b.encode(out);
    slot.me.encode(out);
    state.encode(out);
}

/// Reads [`encode_participant`]'s record; `None` on a slot
/// [`AcSlot::new`] would refuse.
pub(crate) fn decode_participant(bytes: &mut &[u8]) -> Option<(AcSlot, AcState)> {
    let a = ObjRun::decode(bytes)?;
    let b = ObjRun::decode(bytes)?;
    decode_participant_tail(a, b, bytes)
}

fn decode_participant_tail(a: ObjRun, b: ObjRun, bytes: &mut &[u8]) -> Option<(AcSlot, AcState)> {
    let slot = AcSlot::checked(a, b, usize::decode(bytes)?)?;
    Some((slot, AcState::decode(slot.a.len(), bytes)?))
}

/// A process stays inside one commit-adopt object for `2n + 2`
/// consecutive steps, so a sibling's sub-machine almost always holds the
/// *same* register arrays as its predecessor's (`prev`): those collapse
/// to one marker byte and only the few-byte local fields re-encode.
/// Without a predecessor the record is [`encode_participant`]'s.
pub(crate) fn encode_participant_delta(
    slot: AcSlot,
    state: &AcState,
    prev: Option<AcSlot>,
    out: &mut Vec<u8>,
) {
    let Some(prev) = prev else {
        return encode_participant(slot, state, out);
    };
    let same_regs = slot.a == prev.a && slot.b == prev.b;
    out.push(u8::from(same_regs));
    if !same_regs {
        slot.a.encode(out);
        slot.b.encode(out);
    }
    slot.me.encode(out);
    state.encode(out);
}

/// Reads [`encode_participant_delta`]'s record against the same `prev`.
pub(crate) fn decode_participant_delta(
    prev: Option<AcSlot>,
    bytes: &mut &[u8],
) -> Option<(AcSlot, AcState)> {
    let Some(prev) = prev else {
        return decode_participant(bytes);
    };
    let (a, b) = match u8::decode(bytes)? {
        1 => (prev.a, prev.b),
        0 => (ObjRun::decode(bytes)?, ObjRun::decode(bytes)?),
        _ => return None,
    };
    decode_participant_tail(a, b, bytes)
}

impl StateCodec for AdoptCommit {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_participant(self.slot, &self.state, out);
    }

    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        let (slot, state) = decode_participant(bytes)?;
        Some(AdoptCommit { slot, state })
    }
}

impl DeltaCodec for AdoptCommit {
    fn encode_delta(&self, prev: Option<&Self>, out: &mut Vec<u8>) {
        encode_participant_delta(self.slot, &self.state, prev.map(|p| p.slot), out);
    }

    fn decode_delta(prev: Option<&Self>, input: &mut &[u8], _ctx: &mut DeltaCtx) -> Option<Self> {
        let (slot, state) = decode_participant_delta(prev.map(|p| p.slot), input)?;
        Some(AdoptCommit { slot, state })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: i64) -> Value {
        Value::new(x)
    }

    fn run_solo(ac: &mut AdoptCommit, mem: &mut Memory<ConsWord>) -> AcOutcome {
        loop {
            if let Some(out) = ac.step(mem) {
                return out;
            }
        }
    }

    /// Runs participants under an arbitrary interleaving given by a
    /// schedule of participant indices; returns outcomes in participant
    /// order.
    fn run_schedule(inputs: &[i64], schedule: impl IntoIterator<Item = usize>) -> Vec<AcOutcome> {
        let n = inputs.len();
        let mut mem: Memory<ConsWord> = Memory::new();
        let (a, b) = AdoptCommit::alloc(&mut mem, n);
        let mut parts: Vec<AdoptCommit> = inputs
            .iter()
            .enumerate()
            .map(|(i, &x)| AdoptCommit::new(a, b, i, v(x)))
            .collect();
        let mut outcomes: Vec<Option<AcOutcome>> = vec![None; n];
        for i in schedule {
            if outcomes[i].is_none() {
                outcomes[i] = parts[i].step(&mut mem);
            }
        }
        // Finish everyone solo.
        for i in 0..n {
            if outcomes[i].is_none() {
                outcomes[i] = Some(run_solo(&mut parts[i], &mut mem));
            }
        }
        outcomes.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn solo_participant_commits_own_value() {
        let out = run_schedule(&[7], std::iter::empty());
        assert_eq!(out, vec![AcOutcome::Commit(v(7))]);
    }

    #[test]
    fn convergence_same_inputs_all_commit() {
        for n in 2..=4 {
            let inputs = vec![5; n];
            let out = run_schedule(&inputs, std::iter::empty());
            assert!(out.iter().all(|o| *o == AcOutcome::Commit(v(5))), "{out:?}");
        }
    }

    #[test]
    fn coherence_under_exhaustive_two_process_interleavings() {
        // Exhaustively interleave two participants (each needs 6 steps:
        // writeA, 2 collectA, writeB, 2 collectB). Check validity,
        // coherence and the at-most-one-committed-value property.
        let total = 12usize;
        for mask in 0u32..(1 << total) {
            if mask.count_ones() != 6 {
                continue;
            }
            let schedule: Vec<usize> = (0..total)
                .map(|i| usize::from(mask & (1 << i) != 0))
                .collect();
            let out = run_schedule(&[1, 2], schedule);
            // Validity.
            for o in &out {
                assert!(o.value() == v(1) || o.value() == v(2), "{out:?}");
            }
            // Coherence: a commit forces the other's value.
            match (out[0], out[1]) {
                (AcOutcome::Commit(a), other) => assert_eq!(other.value(), a, "{out:?}"),
                (other, AcOutcome::Commit(b)) => assert_eq!(other.value(), b, "{out:?}"),
                _ => {}
            }
        }
    }

    #[test]
    fn wait_free_step_count() {
        let mut mem: Memory<ConsWord> = Memory::new();
        let (a, b) = AdoptCommit::alloc(&mut mem, 3);
        let mut ac = AdoptCommit::new(a, b, 0, v(9));
        let mut steps = 0;
        while ac.step(&mut mem).is_none() {
            steps += 1;
        }
        // 1 writeA + 3 collectA + 1 writeB + 3 collectB = 8 primitives, the
        // last collectB step returns the outcome (so 7 None steps).
        assert_eq!(steps, 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_panics() {
        let mut mem: Memory<ConsWord> = Memory::new();
        let (a, b) = AdoptCommit::alloc(&mut mem, 2);
        let _ = AdoptCommit::new(a, b, 5, v(0));
    }
}
