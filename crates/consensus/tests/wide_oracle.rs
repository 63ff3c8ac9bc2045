//! The full-width oracle for [`ObstructionFreeConsensus`]'s compact
//! layout.
//!
//! `WideOf` and `WideAc` are the consensus process and its commit-adopt
//! sub-machine as they were before the process stopped storing what its
//! layout, round and id imply: every field a full word, `n` and the
//! in-round registers stored, `Hash` derived, the codecs written field by
//! field. Random schedules drive one system of each side by side, and
//! the plain and delta bytes, the canonical symmetry digest and `Eq` must
//! agree after every decision. The compact `Hash` packs its words, so
//! `digest128` is held to `Eq` instead: across the walks two compact
//! configurations share a digest exactly when they are equal.

use std::hash::{Hash, Hasher};

use slx_engine::{digest128_of, DeltaCodec, DeltaCtx, Digest, Fingerprinter, StateCodec};
use slx_history::{Operation, ProcessId, Response, Value};
use slx_memory::{
    BaseObject, Decision, Memory, ObjId, ObjRun, PrimOutcome, Primitive, Process, SmallRng,
    StepEffect, System,
};

use slx_consensus::{
    AcNormalizedState, AcOutcome, ConsWord, ObstructionFreeConsensus, OfNormalizedState,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct WideLayout {
    decision: ObjId,
    n: usize,
    regs: ObjRun,
}

impl WideLayout {
    fn round_registers(&self, r: usize) -> Option<(ObjRun, ObjRun)> {
        let start = r.checked_mul(2 * self.n)?;
        let a = self.regs.sub(start, self.n)?;
        let b = self.regs.sub(start.checked_add(self.n)?, self.n)?;
        Some((a, b))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WideAcPc {
    WriteA,
    CollectA(usize),
    WriteB,
    CollectB(usize),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct WideAc {
    a: ObjRun,
    b: ObjRun,
    me: usize,
    input: Value,
    pc: WideAcPc,
    all_a_equal: bool,
    committed_seen: Option<Value>,
    all_b_commit: bool,
    any_b: bool,
    min_b_seen: Option<Value>,
}

fn read(mem: &mut Memory<ConsWord>, obj: ObjId) -> ConsWord {
    match mem.apply(Primitive::Read(obj)).expect("register allocated") {
        PrimOutcome::Value(w) => w,
        _ => unreachable!("registers return values"),
    }
}

impl WideAc {
    fn normalized_state(&self) -> AcNormalizedState {
        let pc = match self.pc {
            WideAcPc::WriteA => (0, 0),
            WideAcPc::CollectA(j) => (1, j),
            WideAcPc::WriteB => (2, 0),
            WideAcPc::CollectB(j) => (3, j),
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

    fn step(&mut self, mem: &mut Memory<ConsWord>) -> Option<AcOutcome> {
        let n = self.a.len();
        match self.pc {
            WideAcPc::WriteA => {
                mem.apply(Primitive::Write(
                    self.a.at(self.me),
                    ConsWord::Val(self.input),
                ))
                .expect("register allocated");
                self.pc = WideAcPc::CollectA(0);
                None
            }
            WideAcPc::CollectA(j) => {
                if let Some(v) = read(mem, self.a.at(j)).value() {
                    if v != self.input {
                        self.all_a_equal = false;
                    }
                }
                self.pc = if j + 1 < n {
                    WideAcPc::CollectA(j + 1)
                } else {
                    WideAcPc::WriteB
                };
                None
            }
            WideAcPc::WriteB => {
                let entry = ConsWord::Flagged(self.all_a_equal, self.input);
                mem.apply(Primitive::Write(self.b.at(self.me), entry))
                    .expect("register allocated");
                self.pc = WideAcPc::CollectB(0);
                None
            }
            WideAcPc::CollectB(j) => {
                if let ConsWord::Flagged(flag, v) = read(mem, self.b.at(j)) {
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
                    self.pc = WideAcPc::CollectB(j + 1);
                    return None;
                }
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

    fn encode_locals(&self, out: &mut Vec<u8>) {
        self.me.encode(out);
        self.input.encode(out);
        match self.pc {
            WideAcPc::WriteA => out.push(0),
            WideAcPc::CollectA(j) => {
                out.push(1);
                j.encode(out);
            }
            WideAcPc::WriteB => out.push(2),
            WideAcPc::CollectB(j) => {
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

    fn encode(&self, out: &mut Vec<u8>) {
        self.a.encode(out);
        self.b.encode(out);
        self.encode_locals(out);
    }

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
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum WidePc {
    Idle,
    CheckDecision,
    Round(WideAc),
    WriteDecision(Value),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct WideOf {
    layout: WideLayout,
    me: ProcessId,
    n: usize,
    est: Value,
    round: usize,
    pc: WidePc,
}

impl WideOf {
    fn proposers(inputs: &[i64], max_rounds: usize) -> System<ConsWord, Self> {
        let n = inputs.len();
        let mut mem: Memory<ConsWord> = Memory::new();
        let layout = WideLayout {
            decision: mem.alloc_register(ConsWord::Bot),
            n,
            regs: mem.alloc_registers(max_rounds * 2 * n, ConsWord::Bot),
        };
        let procs = (0..n)
            .map(|i| WideOf {
                layout,
                me: ProcessId::new(i),
                n,
                est: Value::new(0),
                round: 0,
                pc: WidePc::Idle,
            })
            .collect();
        let mut sys = System::new(mem, procs);
        for (i, &input) in inputs.iter().enumerate() {
            sys.invoke(ProcessId::new(i), Operation::Propose(Value::new(input)))
                .expect("a fresh process accepts its first invocation");
        }
        sys
    }

    fn normalized_state(&self, base_round: usize) -> OfNormalizedState {
        let pc = match &self.pc {
            WidePc::Idle => (0, None, None),
            WidePc::CheckDecision => (1, None, None),
            WidePc::Round(ac) => (2, Some(ac.normalized_state()), None),
            WidePc::WriteDecision(v) => (3, None, Some(*v)),
        };
        (self.est, self.round - base_round, pc)
    }

    fn encode_tail(&self, out: &mut Vec<u8>, ac: impl FnOnce(&WideAc, &mut Vec<u8>)) {
        self.me.encode(out);
        self.n.encode(out);
        self.est.encode(out);
        self.round.encode(out);
        match &self.pc {
            WidePc::Idle => out.push(0),
            WidePc::CheckDecision => out.push(1),
            WidePc::Round(a) => {
                out.push(2);
                ac(a, out);
            }
            WidePc::WriteDecision(v) => {
                out.push(3);
                v.encode(out);
            }
        }
    }

    fn encode_layout(&self, out: &mut Vec<u8>) {
        self.layout.decision.encode(out);
        self.layout.n.encode(out);
        self.layout.regs.encode(out);
    }
}

impl StateCodec for WideOf {
    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_layout(out);
        self.encode_tail(out, WideAc::encode);
    }

    fn decode(_input: &mut &[u8]) -> Option<Self> {
        unreachable!("the oracle only writes")
    }
}

impl DeltaCodec for WideOf {
    fn encode_delta(&self, prev: Option<&Self>, out: &mut Vec<u8>) {
        let Some(prev) = prev else {
            return self.encode(out);
        };
        let same = prev.layout == self.layout;
        out.push(u8::from(same));
        if !same {
            self.encode_layout(out);
        }
        let prev_ac = match &prev.pc {
            WidePc::Round(prev_ac) => Some(prev_ac),
            _ => None,
        };
        self.encode_tail(out, |ac, out| ac.encode_delta(prev_ac, out));
    }

    fn decode_delta(_: Option<&Self>, _: &mut &[u8], _: &mut DeltaCtx) -> Option<Self> {
        unreachable!("the oracle only writes")
    }
}

impl Process<ConsWord> for WideOf {
    fn on_invoke(&mut self, op: Operation) {
        let Operation::Propose(v) = op else {
            panic!("consensus accepts only propose(), got {op}");
        };
        self.est = v;
        self.round = 0;
        self.pc = WidePc::CheckDecision;
    }

    fn has_step(&self) -> bool {
        !matches!(self.pc, WidePc::Idle)
    }

    fn step(&mut self, mem: &mut Memory<ConsWord>) -> StepEffect {
        match std::mem::replace(&mut self.pc, WidePc::Idle) {
            WidePc::Idle => StepEffect::Idle,
            WidePc::CheckDecision => {
                if let ConsWord::Val(v) = read(mem, self.layout.decision) {
                    return StepEffect::Responded(Response::Decided(v));
                }
                let (a, b) = self.layout.round_registers(self.round).expect("round");
                self.pc = WidePc::Round(WideAc {
                    a,
                    b,
                    me: self.me.index(),
                    input: self.est,
                    pc: WideAcPc::WriteA,
                    all_a_equal: true,
                    committed_seen: None,
                    all_b_commit: true,
                    any_b: false,
                    min_b_seen: None,
                });
                StepEffect::Ran
            }
            WidePc::Round(mut ac) => {
                match ac.step(mem) {
                    None => self.pc = WidePc::Round(ac),
                    Some(AcOutcome::Commit(v)) => self.pc = WidePc::WriteDecision(v),
                    Some(AcOutcome::Adopt(v)) => {
                        self.est = v;
                        self.round += 1;
                        self.pc = WidePc::CheckDecision;
                    }
                }
                StepEffect::Ran
            }
            WidePc::WriteDecision(v) => {
                mem.apply(Primitive::Write(self.layout.decision, ConsWord::Val(v)))
                    .expect("decision register allocated");
                StepEffect::Responded(Response::Decided(v))
            }
        }
    }
}

/// `canonical_of_digest` as written against the full-width process.
fn wide_canonical_digest(sys: &System<ConsWord, WideOf>) -> Digest {
    let reg = |id: ObjId| match sys.memory().object(id) {
        Some(BaseObject::Register(w)) => *w,
        _ => ConsWord::Bot,
    };
    let procs: Vec<(bool, bool, &WideOf)> = ProcessId::all(sys.n())
        .map(|p| {
            let q = sys.process(p).expect("process exists");
            (sys.is_pending(p), sys.is_crashed(p), q)
        })
        .collect();
    let base = procs
        .iter()
        .filter(|(pending, _, _)| *pending)
        .map(|(_, _, q)| q.round)
        .min()
        .unwrap_or(0);
    let top = procs.iter().map(|(_, _, q)| q.round).max().unwrap_or(0);
    let layout = procs[0].2.layout;
    let perm_safe = procs.iter().all(|(pending, crashed, q)| {
        !pending
            || *crashed
            || !matches!(&q.pc, WidePc::Round(ac)
                if matches!(ac.pc, WideAcPc::CollectA(j) | WideAcPc::CollectB(j) if j > 0))
    });
    let mut sigs: Vec<u128> = procs
        .iter()
        .enumerate()
        .map(|(i, (pending, crashed, q))| {
            let rebase = if *pending { base } else { q.round };
            let mut st = q.normalized_state(rebase);
            if let Some(ac) = st.2 .1.as_mut() {
                ac.1 = 0;
            }
            let mut h = Fingerprinter::new();
            (*pending, *crashed, st).hash(&mut h);
            for r in base..=top {
                match layout.round_registers(r) {
                    Some((a, b)) => (reg(a.at(i)), reg(b.at(i))).hash(&mut h),
                    None => (ConsWord::Bot, ConsWord::Bot).hash(&mut h),
                }
            }
            h.digest().0
        })
        .collect();
    if perm_safe {
        sigs.sort_unstable();
    }
    let mut fp = Fingerprinter::new();
    fp.write_u8(u8::from(perm_safe));
    fp.write_usize(sys.n());
    fp.write_usize(top - base);
    for sig in &sigs {
        fp.write_u128(*sig);
    }
    reg(layout.decision).hash(&mut fp);
    fp.digest()
}

/// One random decision both systems accept: mostly a step, sometimes a
/// crash, and a fresh proposal to a process that has decided.
fn random_decision(sys: &System<ConsWord, WideOf>, rng: &mut SmallRng) -> Option<Decision> {
    let steppable = sys.steppable();
    let alive: Vec<ProcessId> = ProcessId::all(sys.n())
        .filter(|&p| !sys.is_crashed(p))
        .collect();
    let idle: Vec<ProcessId> = alive
        .iter()
        .copied()
        .filter(|&p| !sys.is_pending(p))
        .collect();
    match rng.gen_index(20) {
        0 if alive.len() > 1 => Some(Decision::Crash(alive[rng.gen_index(alive.len())])),
        1 | 2 if !idle.is_empty() => Some(Decision::Invoke(
            idle[rng.gen_index(idle.len())],
            Operation::Propose(Value::new(rng.gen_index(3) as i64)),
        )),
        _ if !steppable.is_empty() => {
            Some(Decision::Step(steppable[rng.gen_index(steppable.len())]))
        }
        _ => None,
    }
}

/// Plain and delta bytes of `sys` (the delta against `prev`).
fn records<P: Process<ConsWord> + DeltaCodec + Clone + Eq + Hash>(
    sys: &System<ConsWord, P>,
    prev: &System<ConsWord, P>,
) -> (Vec<u8>, Vec<u8>) {
    let (mut plain, mut delta) = (Vec::new(), Vec::new());
    sys.encode(&mut plain);
    sys.encode_delta(Some(prev), &mut delta);
    (plain, delta)
}

#[test]
fn the_compact_process_is_the_wide_one_to_every_observer() {
    for n in [2, 3] {
        for rounds in [16, 128] {
            let inputs: Vec<i64> = (0..n as i64).map(|i| i % 2 + 1).collect();
            let mut seen: Vec<(
                System<ConsWord, ObstructionFreeConsensus>,
                System<ConsWord, WideOf>,
            )> = Vec::new();
            for seed in 0..6 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut compact = ObstructionFreeConsensus::proposers(&inputs, rounds);
                let mut wide = WideOf::proposers(&inputs, rounds);
                seen.push((compact.clone(), wide.clone()));
                for _ in 0..80 {
                    let Some(decision) = random_decision(&wide, &mut rng) else {
                        break;
                    };
                    let (compact_prev, wide_prev) = (compact.clone(), wide.clone());
                    let label = format!("n {n}, rounds {rounds}, seed {seed}, {decision:?}");
                    assert_eq!(compact.apply(decision.clone(), &mut Vec::new()), Ok(true));
                    assert_eq!(wide.apply(decision, &mut Vec::new()), Ok(true));

                    let (plain, delta) = records(&compact, &compact_prev);
                    let wide_records = records(&wide, &wide_prev);
                    assert_eq!(plain, wide_records.0, "{label}: plain bytes");
                    assert_eq!(delta, wide_records.1, "{label}: delta bytes");
                    assert_eq!(
                        ObstructionFreeConsensus::canonical_system_digest(&compact),
                        wide_canonical_digest(&wide),
                        "{label}: canonical digest"
                    );
                    let decoded = System::decode(&mut plain.as_slice());
                    let replayed = System::decode_delta(
                        Some(&compact_prev),
                        &mut delta.as_slice(),
                        &mut DeltaCtx::new(),
                    );
                    assert_eq!(decoded.as_ref(), Some(&compact), "{label}: plain decode");
                    assert_eq!(replayed.as_ref(), Some(&compact), "{label}: delta decode");
                    seen.push((compact.clone(), wide.clone()));
                }
            }
            // `Eq` draws the same lines on both sides, between whole
            // configurations and between single processes, and the
            // compact digests draw exactly `Eq`'s, at both grains: what
            // dedup relies on. (The packed `Hash` writes other words than
            // the wide one, so the two sides' digests differ.)
            let mut merged = 0;
            for (i, (ci, wi)) in seen.iter().enumerate() {
                for (cj, wj) in &seen[..i] {
                    assert_eq!(ci == cj, wi == wj, "n {n}, rounds {rounds}: configurations");
                    assert_eq!(
                        ci.digest128() == cj.digest128(),
                        ci == cj,
                        "n {n}, rounds {rounds}: digest"
                    );
                    merged += usize::from(ci == cj);
                    for p in ProcessId::all(n) {
                        let (pi, pj) = (ci.process(p), cj.process(p));
                        assert_eq!(
                            pi == pj,
                            wi.process(p) == wj.process(p),
                            "n {n}, rounds {rounds}: {p}"
                        );
                        assert_eq!(
                            digest128_of(&pi) == digest128_of(&pj),
                            pi == pj,
                            "n {n}, rounds {rounds}: {p}'s digest"
                        );
                    }
                }
            }
            assert!(merged > 0, "the walks revisit configurations");
        }
    }
}

#[test]
fn a_consensus_process_stays_small() {
    // Every successor clones its processes, and a deep run keeps tens of
    // thousands of configurations alive, so a process's size is a share
    // of peak memory: the full-width layout was 168 bytes, 72 now.
    // Storing the layout's ids as words again, or `n`, or the in-round
    // registers, crosses 96.
    assert!(std::mem::size_of::<ObstructionFreeConsensus>() <= 96);
}
