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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pc {
    WriteA,
    CollectA(u32),
    WriteB,
    CollectB(u32),
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
    /// arrays are too long for a 32-bit collect position.
    fn new(a: ObjRun, b: ObjRun, me: usize) -> Self {
        assert_eq!(a.len(), b.len(), "register arrays must have equal length");
        assert!(me < a.len(), "participant index out of range");
        Self::checked(a, b, me).expect("register arrays too long")
    }

    /// [`AcSlot::new`]'s checks as a decode rule: `None` instead of a
    /// panic.
    fn checked(a: ObjRun, b: ObjRun, me: usize) -> Option<Self> {
        (b.len() == a.len() && me < a.len() && u32::try_from(a.len()).is_ok()).then_some(AcSlot {
            a,
            b,
            me,
        })
    }
}

/// What varies while a participant runs: input, program counter and the
/// collected flags.
///
/// The two optional values the collects gather are stored as a value and
/// a presence flag each, with an absent value held at zero, so `Eq` is
/// still the wide `Option` comparison; the codecs write the `Option`s
/// back, and `Hash` writes the packed fields as they are. Together with
/// the 32-bit collect position that keeps the state at 40 bytes, and a
/// consensus process at 72.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AcState {
    input: Value,
    committed: Value,
    min_b: Value,
    pc: Pc,
    all_a_equal: bool,
    has_committed: bool,
    all_b_commit: bool,
    any_b: bool,
    has_min_b: bool,
}

/// An optional value as `(present, value)`, absent at zero.
fn packed(v: Option<Value>) -> (bool, Value) {
    (v.is_some(), v.unwrap_or_default())
}

impl AcState {
    /// A participant about to write `a` with input `input`.
    pub(crate) fn new(input: Value) -> Self {
        AcState {
            input,
            committed: Value::default(),
            min_b: Value::default(),
            pc: Pc::WriteA,
            all_a_equal: true,
            has_committed: false,
            all_b_commit: true,
            any_b: false,
            has_min_b: false,
        }
    }

    fn committed_seen(&self) -> Option<Value> {
        self.has_committed.then_some(self.committed)
    }

    fn min_b_seen(&self) -> Option<Value> {
        self.has_min_b.then_some(self.min_b)
    }

    /// See [`AdoptCommit::normalized_state`].
    pub(crate) fn normalized_state(&self, me: usize) -> AcNormalizedState {
        let pc = match self.pc {
            Pc::WriteA => (0, 0),
            Pc::CollectA(j) => (1, j as usize),
            Pc::WriteB => (2, 0),
            Pc::CollectB(j) => (3, j as usize),
        };
        (
            pc,
            me,
            self.input,
            self.all_a_equal,
            self.committed_seen(),
            self.all_b_commit,
            self.any_b,
            self.min_b_seen(),
        )
    }

    /// Performs one primitive of participant `slot`. Returns
    /// `Some(outcome)` when finished.
    pub(crate) fn step(&mut self, slot: AcSlot, mem: &mut Memory<ConsWord>) -> Option<AcOutcome> {
        let n = slot.a.len();
        match self.pc {
            Pc::WriteA => {
                mem.apply(Primitive::Write(
                    slot.a.at(slot.me),
                    ConsWord::Val(self.input),
                ))
                .expect("register allocated");
                self.pc = Pc::CollectA(0);
                None
            }
            Pc::CollectA(j) => {
                let w = read(mem, slot.a.at(j as usize));
                if let Some(v) = w.value() {
                    if v != self.input {
                        self.all_a_equal = false;
                    }
                }
                self.pc = if (j as usize) + 1 < n {
                    Pc::CollectA(j + 1)
                } else {
                    Pc::WriteB
                };
                None
            }
            Pc::WriteB => {
                let entry = ConsWord::Flagged(self.all_a_equal, self.input);
                mem.apply(Primitive::Write(slot.b.at(slot.me), entry))
                    .expect("register allocated");
                self.pc = Pc::CollectB(0);
                None
            }
            Pc::CollectB(j) => {
                let w = read(mem, slot.b.at(j as usize));
                if let ConsWord::Flagged(flag, v) = w {
                    self.any_b = true;
                    let min = match self.min_b_seen() {
                        Some(m) if m <= v => m,
                        _ => v,
                    };
                    (self.has_min_b, self.min_b) = (true, min);
                    if flag {
                        (self.has_committed, self.committed) = (true, v);
                    } else {
                        self.all_b_commit = false;
                    }
                }
                if (j as usize) + 1 < n {
                    self.pc = Pc::CollectB(j + 1);
                    return None;
                }
                // Finished the B collect: compute the outcome. With no
                // commit in sight, adopt the *minimum* value seen, so that
                // symmetric (e.g. lockstep) schedules converge to a common
                // estimate instead of livelocking. Validity is preserved —
                // every seen value is some participant's input.
                Some(
                    match (self.all_b_commit && self.any_b, self.committed_seen()) {
                        (true, Some(v)) => AcOutcome::Commit(v),
                        (_, Some(v)) => AcOutcome::Adopt(v),
                        (_, None) => AcOutcome::Adopt(self.min_b_seen().unwrap_or(self.input)),
                    },
                )
            }
        }
    }

    /// Encodes everything after the participant index — the shared tail
    /// of both the self-contained and the delta encodings.
    fn encode(&self, out: &mut Vec<u8>) {
        self.input.encode(out);
        match self.pc {
            Pc::WriteA => out.push(0),
            Pc::CollectA(j) => {
                out.push(1);
                (j as usize).encode(out);
            }
            Pc::WriteB => out.push(2),
            Pc::CollectB(j) => {
                out.push(3);
                (j as usize).encode(out);
            }
        }
        self.all_a_equal.encode(out);
        self.committed_seen().encode(out);
        self.all_b_commit.encode(out);
        self.any_b.encode(out);
        self.min_b_seen().encode(out);
    }

    /// Decodes [`AcState::encode`]'s bytes for a participant of arrays of
    /// length `n`.
    fn decode(n: usize, bytes: &mut &[u8]) -> Option<AcState> {
        let input = Value::decode(bytes)?;
        // What `step` indexes by.
        let position = |bytes: &mut &[u8]| {
            let j = usize::decode(bytes)?;
            if j >= n {
                return None;
            }
            u32::try_from(j).ok()
        };
        let pc = match u8::decode(bytes)? {
            0 => Pc::WriteA,
            1 => Pc::CollectA(position(bytes)?),
            2 => Pc::WriteB,
            3 => Pc::CollectB(position(bytes)?),
            _ => return None,
        };
        let all_a_equal = bool::decode(bytes)?;
        let (has_committed, committed) = packed(Option::decode(bytes)?);
        let all_b_commit = bool::decode(bytes)?;
        let any_b = bool::decode(bytes)?;
        let (has_min_b, min_b) = packed(Option::decode(bytes)?);
        Some(AcState {
            input,
            committed,
            min_b,
            pc,
            all_a_equal,
            has_committed,
            all_b_commit,
            any_b,
            has_min_b,
        })
    }
}

impl Hash for AcState {
    /// Four words: input, the two collected values (zero when absent),
    /// and one holding the pc tag, the collect position and the five
    /// flags.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (tag, j) = match self.pc {
            Pc::WriteA => (0, 0),
            Pc::CollectA(j) => (1, j),
            Pc::WriteB => (2, 0),
            Pc::CollectB(j) => (3, j),
        };
        let flags = u64::from(self.all_a_equal)
            | u64::from(self.has_committed) << 1
            | u64::from(self.all_b_commit) << 2
            | u64::from(self.any_b) << 3
            | u64::from(self.has_min_b) << 4;
        state.write_i64(self.input.raw());
        state.write_i64(self.committed.raw());
        state.write_i64(self.min_b.raw());
        state.write_u64(tag | flags << 8 | u64::from(j) << 32);
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
        self.state.step(self.slot, mem)
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
