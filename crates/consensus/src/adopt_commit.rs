//! Gafni's commit-adopt object from registers, as a resumable sub-machine.

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

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pc {
    WriteA,
    CollectA(usize),
    WriteB,
    CollectB(usize),
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
    a: ObjRun,
    b: ObjRun,
    me: usize,
    input: Value,
    pc: Pc,
    all_a_equal: bool,
    committed_seen: Option<Value>,
    all_b_commit: bool,
    any_b: bool,
    min_b_seen: Option<Value>,
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
        assert_eq!(a.len(), b.len(), "register arrays must have equal length");
        assert!(me < a.len(), "participant index out of range");
        AdoptCommit {
            a,
            b,
            me,
            input,
            pc: Pc::WriteA,
            all_a_equal: true,
            committed_seen: None,
            all_b_commit: true,
            any_b: false,
            min_b_seen: None,
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
        let pc = match self.pc {
            Pc::WriteA => (0, 0),
            Pc::CollectA(j) => (1, j),
            Pc::WriteB => (2, 0),
            Pc::CollectB(j) => (3, j),
        };
        (
            pc,
            self.me,
            self.input,
            self.all_a_equal,
            self.committed_seen,
            self.all_b_commit,
            self.any_b,
            self.min_b_seen,
        )
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
        assert!(me < self.a.len(), "participant index out of range");
        AdoptCommit { me, ..*self }
    }

    fn read(&self, mem: &mut Memory<ConsWord>, obj: ObjId) -> ConsWord {
        match mem.apply(Primitive::Read(obj)).expect("register allocated") {
            PrimOutcome::Value(w) => w,
            _ => unreachable!("registers return values"),
        }
    }

    /// Performs one primitive. Returns `Some(outcome)` when finished.
    pub fn step(&mut self, mem: &mut Memory<ConsWord>) -> Option<AcOutcome> {
        let n = self.a.len();
        match self.pc {
            Pc::WriteA => {
                mem.apply(Primitive::Write(
                    self.a.at(self.me),
                    ConsWord::Val(self.input),
                ))
                .expect("register allocated");
                self.pc = Pc::CollectA(0);
                None
            }
            Pc::CollectA(j) => {
                let w = self.read(mem, self.a.at(j));
                if let Some(v) = w.value() {
                    if v != self.input {
                        self.all_a_equal = false;
                    }
                }
                self.pc = if j + 1 < n {
                    Pc::CollectA(j + 1)
                } else {
                    Pc::WriteB
                };
                None
            }
            Pc::WriteB => {
                let entry = ConsWord::Flagged(self.all_a_equal, self.input);
                mem.apply(Primitive::Write(self.b.at(self.me), entry))
                    .expect("register allocated");
                self.pc = Pc::CollectB(0);
                None
            }
            Pc::CollectB(j) => {
                let w = self.read(mem, self.b.at(j));
                if let ConsWord::Flagged(flag, v) = w {
                    self.any_b = true;
                    self.min_b_seen = Some(match self.min_b_seen {
                        Some(m) if m <= v => m,
                        _ => v,
                    });
                    if flag {
                        self.committed_seen = Some(v);
                    } else {
                        self.all_b_commit = false;
                    }
                }
                if j + 1 < n {
                    self.pc = Pc::CollectB(j + 1);
                    return None;
                }
                // Finished the B collect: compute the outcome. With no
                // commit in sight, adopt the *minimum* value seen, so that
                // symmetric (e.g. lockstep) schedules converge to a common
                // estimate instead of livelocking. Validity is preserved —
                // every seen value is some participant's input.
                Some(
                    match (self.all_b_commit && self.any_b, self.committed_seen) {
                        (true, Some(v)) => AcOutcome::Commit(v),
                        (_, Some(v)) => AcOutcome::Adopt(v),
                        (_, None) => AcOutcome::Adopt(self.min_b_seen.unwrap_or(self.input)),
                    },
                )
            }
        }
    }
}

impl StateCodec for AdoptCommit {
    fn encode(&self, out: &mut Vec<u8>) {
        self.a.encode(out);
        self.b.encode(out);
        self.encode_locals(out);
    }

    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        let a = ObjRun::decode(bytes)?;
        let b = ObjRun::decode(bytes)?;
        AdoptCommit::decode_locals(a, b, bytes)
    }
}

impl AdoptCommit {
    /// Encodes everything but the register arrays — the shared tail of
    /// both the self-contained and the delta encodings.
    fn encode_locals(&self, out: &mut Vec<u8>) {
        self.me.encode(out);
        self.input.encode(out);
        match self.pc {
            Pc::WriteA => out.push(0),
            Pc::CollectA(j) => {
                out.push(1);
                j.encode(out);
            }
            Pc::WriteB => out.push(2),
            Pc::CollectB(j) => {
                out.push(3);
                j.encode(out);
            }
        }
        self.all_a_equal.encode(out);
        self.committed_seen.encode(out);
        self.all_b_commit.encode(out);
        self.any_b.encode(out);
        self.min_b_seen.encode(out);
    }

    fn decode_locals(a: ObjRun, b: ObjRun, bytes: &mut &[u8]) -> Option<AdoptCommit> {
        let me = usize::decode(bytes)?;
        let input = Value::decode(bytes)?;
        let pc = match u8::decode(bytes)? {
            0 => Pc::WriteA,
            1 => Pc::CollectA(usize::decode(bytes)?),
            2 => Pc::WriteB,
            3 => Pc::CollectB(usize::decode(bytes)?),
            _ => return None,
        };
        // What `new` asserts and `step` indexes by.
        let n = a.len();
        if b.len() != n || me >= n || matches!(pc, Pc::CollectA(j) | Pc::CollectB(j) if j >= n) {
            return None;
        }
        Some(AdoptCommit {
            a,
            b,
            me,
            input,
            pc,
            all_a_equal: bool::decode(bytes)?,
            committed_seen: Option::decode(bytes)?,
            all_b_commit: bool::decode(bytes)?,
            any_b: bool::decode(bytes)?,
            min_b_seen: Option::decode(bytes)?,
        })
    }
}

impl DeltaCodec for AdoptCommit {
    /// A process stays inside one commit-adopt object for `2n + 2`
    /// consecutive steps, so a sibling's sub-machine almost always holds
    /// the *same* register arrays: those collapse to one marker byte and
    /// only the few-byte local fields re-encode.
    fn encode_delta(&self, prev: Option<&Self>, out: &mut Vec<u8>) {
        let Some(prev) = prev else {
            return self.encode(out);
        };
        let same_regs = self.a == prev.a && self.b == prev.b;
        out.push(u8::from(same_regs));
        if !same_regs {
            self.a.encode(out);
            self.b.encode(out);
        }
        self.encode_locals(out);
    }

    fn decode_delta(prev: Option<&Self>, input: &mut &[u8], _ctx: &mut DeltaCtx) -> Option<Self> {
        let Some(prev) = prev else {
            return Self::decode(input);
        };
        let (a, b) = match u8::decode(input)? {
            1 => (prev.a, prev.b),
            0 => (ObjRun::decode(input)?, ObjRun::decode(input)?),
            _ => return None,
        };
        AdoptCommit::decode_locals(a, b, input)
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
