//! The system: processes + memory + history, driven by a scheduler.

use std::fmt;
use std::sync::Arc;

use slx_engine::{DeltaCodec, DeltaCtx, StateCodec};
use slx_history::{Action, History, Operation, ProcessId, Response};

use crate::base::{Memory, Word};
use crate::process::{Process, StepEffect};
use crate::sched::{Decision, Scheduler};

/// One entry of an execution log.
///
/// Where the [`History`] records only external actions (invocations,
/// responses, crashes), an execution log additionally records which process
/// took each computation step. Liveness properties of Section 5 quantify
/// over *steps* ("at most k processes take infinitely many steps"), so they
/// are evaluated on such a log, not on the history alone.
///
/// A log belongs to whoever **drives** the execution, not to the
/// [`System`]: a configuration is memory, process states and flags (plus
/// the history safety is judged on), and carries no record of how it was
/// reached. The driver passes its own `Vec<Event>` to [`System::apply`]
/// (or [`System::run_logged`]), the only code that appends to one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// An invocation was delivered to a process.
    Invoked(ProcessId, Operation),
    /// A process produced a response.
    Responded(ProcessId, Response),
    /// A process crashed.
    Crashed(ProcessId),
    /// A process took one computation step (possibly the one that produced
    /// a response; in that case both events are logged, step first).
    Stepped(ProcessId),
}

/// Errors from driving a [`System`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// Invocation delivered to a process that is already pending
    /// (well-formedness would be violated).
    AlreadyPending(ProcessId),
    /// Action addressed to a crashed process.
    Crashed(ProcessId),
    /// Process index out of range.
    NoSuchProcess(ProcessId),
    /// A process step applied more than one atomic primitive, violating the
    /// atomicity granularity of the model.
    AtomicityViolation {
        /// The offending process.
        proc: ProcessId,
        /// Number of primitives applied in the step.
        applied: u64,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::AlreadyPending(p) => write!(f, "process {p} is already pending"),
            SystemError::Crashed(p) => write!(f, "process {p} has crashed"),
            SystemError::NoSuchProcess(p) => write!(f, "no such process {p}"),
            SystemError::AtomicityViolation { proc, applied } => write!(
                f,
                "process {proc} applied {applied} primitives in one step (max 1)"
            ),
        }
    }
}

impl std::error::Error for SystemError {}

/// Statistics of a [`System::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Computation steps taken.
    pub steps: u64,
    /// Invocations delivered.
    pub invocations: u64,
    /// Responses produced.
    pub responses: u64,
    /// Crashes injected.
    pub crashes: u64,
    /// Whether the scheduler halted (vs. the event budget running out).
    pub halted: bool,
}

/// What only an external action — an invocation, a response, a crash —
/// changes: the per-process flags and the history. A [`System`] holds it
/// behind one reference count, so the computation steps between two
/// external actions hand it from parent to successor untouched.
#[derive(Debug)]
struct External {
    pending: Vec<bool>,
    crashed: Vec<bool>,
    history: History,
}

/// A complete simulated system: shared memory, `n` processes and the
/// history so far.
///
/// `System` is `Clone + Eq + Hash` when the process type is, which is what
/// allows `slx-explorer` to enumerate configurations exactly. The history
/// rides along outside `Eq`/`Hash` (safety is judged on it); the step-level
/// execution log does not — see [`Event`].
///
/// What each operation costs, beside the process states:
///
/// - **`clone`** copies `procs` into one new block and bumps two
///   reference counts: the memory's pool and the block of flags and
///   history. The block is what a successor owns beside a chunk it
///   writes; an obstruction-free consensus process is 40 bytes, so
///   three of them ask for 120.
/// - **A step that reads** — or is idle, or fails — un-shares nothing.
/// - **A step that writes** copies the 16-object chunk it writes into,
///   not the pool, and keeps the parent's spine unless the memory already
///   holds another chunk of its own beside it (see [`Memory`]). A
///   written memory may then be traded for an equal one another
///   successor already holds ([`System::share_memory`]; the safety
///   explorer does this across the parents of one chunk of a level), and
///   the copied chunk is freed.
/// - **An external action** — [`System::invoke`], a step that responds,
///   the first [`System::crash`] of a process — copies the flags and the
///   history once, if they are still shared, and appends to the copy,
///   which was allocated with room for the appended action.
/// - **`Hash`** reads the memory's maintained fold, the process states
///   and the flags: nothing in it grows with the size of the memory.
#[derive(Debug, Clone)]
pub struct System<W: Word, P> {
    memory: Memory<W>,
    procs: Vec<P>,
    external: Arc<External>,
}

impl<W: Word, P: Process<W>> System<W, P> {
    /// Creates a system over `memory` with the given processes; process `i`
    /// gets identifier [`ProcessId::new`]`(i)`.
    pub fn new(memory: Memory<W>, procs: Vec<P>) -> Self {
        let n = procs.len();
        System {
            memory,
            procs,
            external: Arc::new(External {
                pending: vec![false; n],
                crashed: vec![false; n],
                history: History::new(),
            }),
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// The history so far.
    pub fn history(&self) -> &History {
        &self.external.history
    }

    /// Read-only view of the shared memory.
    pub fn memory(&self) -> &Memory<W> {
        &self.memory
    }

    /// If `other` equals this system's memory ([`Memory`]'s exact `Eq`),
    /// holds `other`'s chunks in place of the ones this memory alone
    /// holds — the copies its writes made — and frees those; returns
    /// whether the two were equal. The configuration, its `Hash` and its
    /// encoded bytes stay what they were; only storage changes hands, so
    /// systems that reached one memory along different schedules hold
    /// one copy of the chunks they wrote.
    pub fn share_memory(&mut self, other: &Memory<W>) -> bool {
        let equal = self.memory == *other;
        if equal {
            self.memory.share_written_chunks(other);
        }
        equal
    }

    /// Read-only view of process `p`'s algorithm state.
    pub fn process(&self, p: ProcessId) -> Option<&P> {
        self.procs.get(p.index())
    }

    /// Whether process `p` is pending (invoked, awaiting response).
    pub fn is_pending(&self, p: ProcessId) -> bool {
        self.external
            .pending
            .get(p.index())
            .copied()
            .unwrap_or(false)
    }

    /// Whether process `p` has crashed.
    pub fn is_crashed(&self, p: ProcessId) -> bool {
        self.external
            .crashed
            .get(p.index())
            .copied()
            .unwrap_or(false)
    }

    /// Whether process `p` currently has an enabled computation step.
    pub fn can_step(&self, p: ProcessId) -> bool {
        !self.is_crashed(p)
            && self
                .procs
                .get(p.index())
                .is_some_and(|proc| proc.has_step())
    }

    /// Processes with an enabled step.
    pub fn steppable(&self) -> Vec<ProcessId> {
        ProcessId::all(self.n())
            .filter(|&p| self.can_step(p))
            .collect()
    }

    /// Whether the system is quiescent: no process has an enabled step.
    ///
    /// A finite execution ending in a quiescent configuration is *fair* in
    /// the paper's sense (no non-crash action enabled at the final state,
    /// modulo input actions which are always enabled but external).
    pub fn quiescent(&self) -> bool {
        !ProcessId::all(self.n()).any(|p| self.can_step(p))
    }

    /// The block of flags and history, for the external action that is
    /// about to set a flag and append to the history. A block still shared
    /// with another configuration is copied first — by hand, so that the
    /// copy's history has room for that action: `Arc::make_mut` would
    /// clone it at exactly `len`, and the append reallocate it at once.
    fn external_mut(&mut self) -> &mut External {
        if Arc::get_mut(&mut self.external).is_none() {
            let shared = &*self.external;
            let mut history = History::with_capacity(shared.history.len() + 1);
            history.extend(shared.history.iter().copied());
            self.external = Arc::new(External {
                pending: shared.pending.clone(),
                crashed: shared.crashed.clone(),
                history,
            });
        }
        Arc::get_mut(&mut self.external).expect("un-shared just above")
    }

    /// Delivers invocation `op` to process `p`.
    ///
    /// # Errors
    ///
    /// Fails if `p` is pending (a well-formed history cannot contain two
    /// consecutive invocations by one process), crashed, or out of range.
    pub fn invoke(&mut self, p: ProcessId, op: Operation) -> Result<(), SystemError> {
        let i = p.index();
        if i >= self.procs.len() {
            return Err(SystemError::NoSuchProcess(p));
        }
        if self.external.crashed[i] {
            return Err(SystemError::Crashed(p));
        }
        if self.external.pending[i] {
            return Err(SystemError::AlreadyPending(p));
        }
        self.procs[i].on_invoke(op);
        let external = self.external_mut();
        external.pending[i] = true;
        external.history.push(Action::invoke(p, op));
        Ok(())
    }

    /// Lets process `p` take one computation step.
    ///
    /// # Errors
    ///
    /// Fails if `p` crashed, is out of range, or violated atomicity by
    /// applying more than one primitive in the step.
    pub fn step(&mut self, p: ProcessId) -> Result<StepEffect, SystemError> {
        let i = p.index();
        if i >= self.procs.len() {
            return Err(SystemError::NoSuchProcess(p));
        }
        if self.external.crashed[i] {
            return Err(SystemError::Crashed(p));
        }
        let before = self.memory.applied();
        let effect = self.procs[i].step(&mut self.memory);
        let applied = self.memory.applied() - before;
        if applied > 1 {
            return Err(SystemError::AtomicityViolation { proc: p, applied });
        }
        if let StepEffect::Responded(resp) = effect {
            let external = self.external_mut();
            external.pending[i] = false;
            external.history.push(Action::respond(p, resp));
        }
        Ok(effect)
    }

    /// Crashes process `p`. Idempotent.
    pub fn crash(&mut self, p: ProcessId) -> Result<(), SystemError> {
        let i = p.index();
        if i >= self.procs.len() {
            return Err(SystemError::NoSuchProcess(p));
        }
        if !self.external.crashed[i] {
            self.procs[i].on_crash();
            let external = self.external_mut();
            external.crashed[i] = true;
            external.history.push(Action::crash(p));
        }
        Ok(())
    }

    /// A copy of the system with the memory words and process states
    /// transformed — the normalization hook for cycle detection modulo a
    /// symmetry (see [`Memory::map_words`]). The history is dropped
    /// (configuration comparison ignores it anyway).
    pub fn transformed(
        &self,
        f_word: impl FnMut(&W) -> W,
        f_proc: impl FnMut(&P) -> P,
    ) -> System<W, P> {
        System {
            memory: self.memory.map_words(f_word),
            procs: self.procs.iter().map(f_proc).collect(),
            external: Arc::new(External {
                pending: self.external.pending.clone(),
                crashed: self.external.crashed.clone(),
                history: History::new(),
            }),
        }
    }

    /// A copy of the system with the processes **reindexed** by `perm`
    /// (process `i` moves to slot `perm[i]`, its pending/crashed flags
    /// riding along), each moved process state rebuilt by
    /// `f_proc(i, &procs[i])` — which is where an algorithm retargets
    /// its own-identity fields, e.g. `me = perm[me]` — and the memory
    /// rebuilt object-by-object via [`Memory::map_objects`], where
    /// per-process register contents move to their permuted columns.
    /// The history is dropped, like [`System::transformed`].
    ///
    /// This is the process-permutation symmetry hook: canonicalizers and
    /// the symmetry property suites build the π-image of a configuration
    /// with it and check behavioural invariance.
    ///
    /// # Panics
    /// If `perm` is not a permutation of `0..n`.
    pub fn permuted(
        &self,
        perm: &[usize],
        mut f_proc: impl FnMut(usize, &P) -> P,
        f_obj: impl FnMut(crate::ObjId, &crate::BaseObject<W>) -> crate::BaseObject<W>,
    ) -> System<W, P> {
        let n = self.procs.len();
        assert_eq!(perm.len(), n, "permutation arity mismatch");
        let mut procs: Vec<Option<P>> = (0..n).map(|_| None).collect();
        let mut pending = vec![false; n];
        let mut crashed = vec![false; n];
        for (i, p) in self.procs.iter().enumerate() {
            let slot = procs
                .get_mut(perm[i])
                .unwrap_or_else(|| panic!("perm[{i}] = {} out of range 0..{n}", perm[i]));
            assert!(
                slot.is_none(),
                "perm maps two processes to slot {}",
                perm[i]
            );
            *slot = Some(f_proc(i, p));
            pending[perm[i]] = self.external.pending[i];
            crashed[perm[i]] = self.external.crashed[i];
        }
        System {
            memory: self.memory.map_objects(f_obj),
            procs: procs
                .into_iter()
                .map(|p| p.expect("perm covers every slot"))
                .collect(),
            external: Arc::new(External {
                pending,
                crashed,
                history: History::new(),
            }),
        }
    }

    /// Applies one scheduling decision and appends what happened to the
    /// driver's `log`: an invocation logs [`Event::Invoked`]; a step logs
    /// [`Event::Stepped`] unless the process was idle, then
    /// [`Event::Responded`] if it produced a response; a crash logs
    /// [`Event::Crashed`] unless the process had already crashed.
    /// Returns `Ok(false)` for [`Decision::Halt`], which applies nothing.
    ///
    /// This is the one place a [`Decision`] is dispatched and an
    /// [`Event`] is made, so every driver's log agrees with the history.
    ///
    /// # Errors
    ///
    /// Whatever [`System::invoke`], [`System::step`] or [`System::crash`]
    /// reports for the decision; nothing is logged then.
    pub fn apply(&mut self, decision: Decision, log: &mut Vec<Event>) -> Result<bool, SystemError> {
        match decision {
            Decision::Halt => return Ok(false),
            Decision::Invoke(p, op) => {
                self.invoke(p, op)?;
                log.push(Event::Invoked(p, op));
            }
            Decision::Step(p) => match self.step(p)? {
                StepEffect::Idle => {}
                StepEffect::Ran => log.push(Event::Stepped(p)),
                StepEffect::Responded(resp) => {
                    log.push(Event::Stepped(p));
                    log.push(Event::Responded(p, resp));
                }
            },
            Decision::Crash(p) => {
                let alive = !self.is_crashed(p);
                self.crash(p)?;
                if alive {
                    log.push(Event::Crashed(p));
                }
            }
        }
        Ok(true)
    }

    /// Drives the system with `scheduler` until it halts, the event budget
    /// `max_events` is exhausted, or the scheduler makes an invalid decision
    /// (which is treated as a halt — schedulers observe the system and
    /// should not make invalid decisions, but adversaries may race a crash).
    pub fn run<S: Scheduler<W, P>>(&mut self, scheduler: &mut S, max_events: u64) -> RunStats {
        self.run_logged(scheduler, max_events, &mut Vec::new())
    }

    /// [`System::run`], appending the execution log of the run to the
    /// caller's `log` — what liveness evaluation
    /// (`slx_liveness::ExecutionView`) reads.
    pub fn run_logged<S: Scheduler<W, P>>(
        &mut self,
        scheduler: &mut S,
        max_events: u64,
        log: &mut Vec<Event>,
    ) -> RunStats {
        let start = log.len();
        let mut stats = RunStats::default();
        for _ in 0..max_events {
            let decision = scheduler.decide(self);
            if !matches!(self.apply(decision, log), Ok(true)) {
                stats.halted = true;
                break;
            }
        }
        for event in &log[start..] {
            match event {
                Event::Invoked(..) => stats.invocations += 1,
                Event::Responded(..) => stats.responses += 1,
                Event::Crashed(_) => stats.crashes += 1,
                Event::Stepped(_) => stats.steps += 1,
            }
        }
        stats
    }
}

impl<W: Word, P: std::hash::Hash> System<W, P> {
    /// A cheap 128-bit fingerprint of the *configuration* (memory, process
    /// states, pending/crashed flags — history excluded, like
    /// [`Eq`]). This is what lets `slx-engine` deduplicate explored
    /// configurations without retaining a clone of every system. The
    /// memory enters as `(len, fold, applied)` — its maintained per-slot
    /// fingerprint fold, not a walk over the pool — so the cost is the
    /// process states and flags.
    pub fn digest128(&self) -> slx_engine::Digest {
        use std::hash::Hash;
        let mut fp = slx_engine::Fingerprinter::new();
        self.hash(&mut fp);
        fp.digest()
    }
}

impl<W: Word + StateCodec, P: StateCodec> StateCodec for System<W, P> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.memory.encode(out);
        self.procs.encode(out);
        self.external.pending.encode(out);
        self.external.crashed.encode(out);
        // The history is excluded from `Eq`/`Hash`, but findings clone
        // it, so a spilled configuration must carry it verbatim.
        self.external.history.encode(out);
    }

    #[inline]
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(System {
            memory: Memory::decode(input)?,
            procs: Vec::decode(input)?,
            external: Arc::new(External {
                pending: Vec::decode(input)?,
                crashed: Vec::decode(input)?,
                history: History::decode(input)?,
            }),
        })
    }
}

impl<W: Word + DeltaCodec, P: DeltaCodec + PartialEq + Clone> DeltaCodec for System<W, P> {
    /// Consecutive spill records are sibling configurations of one BFS
    /// level, typically one scheduled step apart: each field deltas
    /// against its counterpart — memory and process pools
    /// element-sparsely, history by shared prefix — so an
    /// unchanged field costs its two-varint slice-delta header and one
    /// compare pass (no pass over the chunks of memory the two records
    /// share). (No field bitmap: pre-comparing the O(n) fields to
    /// save those header bytes was measured to cost more encode time
    /// than it saved in bytes — every compare the bitmap needs is one
    /// the slice delta already does.) The flag byte covers only the two
    /// cheap bit-vectors, which records sharing their block of flags and
    /// history do not compare either.
    fn encode_delta(&self, prev: Option<&Self>, out: &mut Vec<u8>) {
        let Some(prev) = prev else {
            return self.encode(out);
        };
        let (ours, theirs) = (&*self.external, &*prev.external);
        let shared = Arc::ptr_eq(&self.external, &prev.external);
        let pending_changed = !shared && ours.pending != theirs.pending;
        let crashed_changed = !shared && ours.crashed != theirs.crashed;
        out.push(u8::from(pending_changed) | u8::from(crashed_changed) << 1);
        self.memory.encode_delta(Some(&prev.memory), out);
        self.procs.encode_delta(Some(&prev.procs), out);
        if pending_changed {
            ours.pending.encode_delta(Some(&theirs.pending), out);
        }
        if crashed_changed {
            ours.crashed.encode_delta(Some(&theirs.crashed), out);
        }
        ours.history.encode_delta(Some(&theirs.history), out);
    }

    fn decode_delta(prev: Option<&Self>, input: &mut &[u8], ctx: &mut DeltaCtx) -> Option<Self> {
        let Some(prev) = prev else {
            return Self::decode(input);
        };
        let flags = u8::decode(input)?;
        if flags >= 1 << 2 {
            return None;
        }
        let memory = Memory::decode_delta(Some(&prev.memory), input, ctx)?;
        let procs = Vec::decode_delta(Some(&prev.procs), input, ctx)?;
        let theirs = &*prev.external;
        let mut flag_vector = |changed: bool, old: &Vec<bool>| {
            Some(if changed {
                Some(Vec::decode_delta(Some(old), input, ctx)?)
            } else {
                None
            })
        };
        let pending = flag_vector(flags & 1 != 0, &theirs.pending)?;
        let crashed = flag_vector(flags & 2 != 0, &theirs.crashed)?;
        let history = History::decode_delta(Some(&theirs.history), input, ctx)?;
        // A record that changes neither flag vector nor history is a
        // computation step away from its predecessor: it takes the
        // predecessor's block over instead of keeping an equal one.
        let external = if flags == 0 && history == theirs.history {
            Arc::clone(&prev.external)
        } else {
            Arc::new(External {
                pending: pending.unwrap_or_else(|| theirs.pending.clone()),
                crashed: crashed.unwrap_or_else(|| theirs.crashed.clone()),
                history,
            })
        };
        Some(System {
            memory,
            procs,
            external,
        })
    }
}

impl<W: Word, P: PartialEq> PartialEq for System<W, P> {
    fn eq(&self, other: &Self) -> bool {
        // Histories are deliberately excluded: two configurations
        // with the same memory and process states behave identically in the
        // future, which is the equivalence exploration needs.
        let (ours, theirs) = (&*self.external, &*other.external);
        self.memory == other.memory
            && self.procs == other.procs
            && (Arc::ptr_eq(&self.external, &other.external)
                || (ours.pending == theirs.pending && ours.crashed == theirs.crashed))
    }
}

impl<W: Word, P: Eq> Eq for System<W, P> {}

impl<W: Word, P: std::hash::Hash> std::hash::Hash for System<W, P> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.memory.hash(state);
        self.procs.hash(state);
        self.external.pending.hash(state);
        self.external.crashed.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Primitive;
    use slx_history::{Value, VarId};

    /// Test process: writes its value to a register then responds.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Writer {
        reg: crate::base::ObjId,
        pc: u8,
        val: i64,
    }

    impl Process<i64> for Writer {
        fn on_invoke(&mut self, op: Operation) {
            if let Operation::Write(_, v) = op {
                self.val = v.raw();
            }
            self.pc = 1;
        }

        fn has_step(&self) -> bool {
            self.pc > 0
        }

        fn step(&mut self, mem: &mut Memory<i64>) -> StepEffect {
            match self.pc {
                1 => {
                    mem.apply(Primitive::Write(self.reg, self.val)).unwrap();
                    self.pc = 0;
                    StepEffect::Responded(Response::Ok)
                }
                _ => StepEffect::Idle,
            }
        }
    }

    fn writer_system() -> System<i64, Writer> {
        let mut mem: Memory<i64> = Memory::new();
        let reg = mem.alloc_register(0);
        let procs = vec![Writer { reg, pc: 0, val: 0 }, Writer { reg, pc: 0, val: 0 }];
        System::new(mem, procs)
    }

    fn w(v: i64) -> Operation {
        Operation::Write(VarId::new(0), Value::new(v))
    }

    #[test]
    fn invoke_step_respond_cycle() {
        let mut sys = writer_system();
        let mut log = Vec::new();
        let p0 = ProcessId::new(0);
        assert!(!sys.is_pending(p0));
        assert_eq!(sys.apply(Decision::Invoke(p0, w(4)), &mut log), Ok(true));
        assert!(sys.is_pending(p0));
        assert!(sys.can_step(p0));
        assert_eq!(sys.apply(Decision::Step(p0), &mut log), Ok(true));
        assert!(!sys.is_pending(p0));
        assert_eq!(sys.history().len(), 2);
        assert!(sys.history().is_well_formed());
        // An idle step, a halt and a rejected decision log nothing.
        assert_eq!(sys.apply(Decision::Step(p0), &mut log), Ok(true));
        assert_eq!(sys.apply(Decision::Halt, &mut log), Ok(false));
        let p9 = ProcessId::new(9);
        assert_eq!(
            sys.apply(Decision::Crash(p9), &mut log),
            Err(SystemError::NoSuchProcess(p9))
        );
        assert_eq!(
            log,
            [
                Event::Invoked(p0, w(4)),
                Event::Stepped(p0),
                Event::Responded(p0, Response::Ok)
            ]
        );
    }

    /// Replays a fixed list of decisions, then halts.
    struct Script(std::vec::IntoIter<Decision>);

    impl Scheduler<i64, Writer> for Script {
        fn decide(&mut self, _sys: &System<i64, Writer>) -> Decision {
            self.0.next().unwrap_or(Decision::Halt)
        }
    }

    #[test]
    fn recrashing_a_crashed_process_counts_one_crash() {
        let mut sys = writer_system();
        let mut log = Vec::new();
        let p0 = ProcessId::new(0);
        let script = vec![
            Decision::Invoke(p0, w(1)),
            Decision::Crash(p0),
            Decision::Crash(p0),
        ];
        let stats = sys.run_logged(&mut Script(script.into_iter()), 10, &mut log);
        assert_eq!(
            stats,
            RunStats {
                invocations: 1,
                crashes: 1,
                halted: true,
                ..RunStats::default()
            }
        );
        let crash_actions = sys
            .history()
            .iter()
            .filter(|a| matches!(a, Action::Crash { .. }));
        assert_eq!(crash_actions.count(), 1);
        assert_eq!(log, [Event::Invoked(p0, w(1)), Event::Crashed(p0)]);
    }

    /// Spins through three local states forever without touching memory.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Spinner(u8);

    impl Process<i64> for Spinner {
        fn on_invoke(&mut self, _op: Operation) {}
        fn has_step(&self) -> bool {
            true
        }
        fn step(&mut self, _mem: &mut Memory<i64>) -> StepEffect {
            self.0 = (self.0 + 1) % 3;
            StepEffect::Ran
        }
    }

    impl StateCodec for Spinner {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }
        fn decode(input: &mut &[u8]) -> Option<Self> {
            u8::decode(input).map(Spinner)
        }
    }

    impl DeltaCodec for Spinner {}

    #[test]
    fn encoded_size_does_not_grow_with_steps() {
        // Nothing a step changes here is unbounded — three local states,
        // no primitive applied, no external action — so the record and
        // the delta against the predecessor stay the size they were
        // before the first step. (A per-step log inside the state grew
        // both by one entry per step.)
        let encoded_len = |sys: &System<i64, Spinner>| {
            let mut out = Vec::new();
            sys.encode(&mut out);
            out.len()
        };
        let delta_len = |sys: &System<i64, Spinner>, prev: &System<i64, Spinner>| {
            let mut out = Vec::new();
            sys.encode_delta(Some(prev), &mut out);
            out.len()
        };
        let p0 = ProcessId::new(0);
        let mut sys = System::new(Memory::new(), vec![Spinner(0)]);
        let plain = encoded_len(&sys);
        let mut first_delta = None;
        for steps in 1..=100 {
            let prev = sys.clone();
            sys.step(p0).unwrap();
            if [1, 10, 100].contains(&steps) {
                assert_eq!(encoded_len(&sys), plain, "after {steps} steps");
                let delta = delta_len(&sys, &prev);
                assert_eq!(
                    delta,
                    *first_delta.get_or_insert(delta),
                    "after {steps} steps"
                );
            }
        }
    }

    /// Writes the next number to its register at every step, forever, and
    /// never responds.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Scribe(crate::base::ObjId, u8);

    impl Process<i64> for Scribe {
        fn on_invoke(&mut self, _op: Operation) {}
        fn has_step(&self) -> bool {
            true
        }
        fn step(&mut self, mem: &mut Memory<i64>) -> StepEffect {
            self.1 += 1;
            mem.apply(Primitive::Write(self.0, i64::from(self.1)))
                .unwrap();
            StepEffect::Ran
        }
    }

    impl StateCodec for Scribe {
        fn encode(&self, out: &mut Vec<u8>) {
            (self.0, self.1).encode(out);
        }
        fn decode(input: &mut &[u8]) -> Option<Self> {
            <(crate::base::ObjId, u8)>::decode(input).map(|(reg, n)| Scribe(reg, n))
        }
    }

    impl DeltaCodec for Scribe {}

    #[test]
    fn only_an_external_action_unshares_flags_and_history() {
        let parent = writer_system();
        let shares = |child: &System<i64, Writer>| Arc::ptr_eq(&child.external, &parent.external);
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));

        let mut child = parent.clone();
        assert!(shares(&child));
        assert_eq!(child.step(p0), Ok(StepEffect::Idle));
        assert_eq!(
            child.invoke(ProcessId::new(9), w(1)),
            Err(SystemError::NoSuchProcess(ProcessId::new(9)))
        );
        assert!(shares(&child));

        child.invoke(p0, w(4)).unwrap();
        assert!(!shares(&child));
        assert!(!parent.is_pending(p0) && parent.history().is_empty());
        // The block is the child's own now: a further action copies nothing.
        let own = Arc::as_ptr(&child.external);
        assert_eq!(child.step(p0), Ok(StepEffect::Responded(Response::Ok)));
        child.crash(p1).unwrap();
        assert_eq!(Arc::as_ptr(&child.external), own);
        assert_eq!(child.history().len(), 3);

        // A response and a first crash each part with a shared block; a
        // repeated crash does not.
        let pending = child.clone();
        let mut responded = pending.clone();
        responded.invoke(p0, w(5)).unwrap();
        let invoked = responded.clone();
        responded.step(p0).unwrap();
        assert!(!Arc::ptr_eq(&responded.external, &invoked.external));
        let mut recrashed = pending.clone();
        recrashed.crash(p1).unwrap();
        assert!(Arc::ptr_eq(&recrashed.external, &pending.external));
        recrashed.crash(p0).unwrap();
        assert!(!Arc::ptr_eq(&recrashed.external, &pending.external));
        assert_eq!(pending.history().len(), 3);
    }

    #[test]
    fn a_computation_step_shares_all_but_the_chunk_it_writes() {
        let mut mem: Memory<i64> = Memory::new();
        let regs = mem.alloc_registers(40, 0);
        let scribes = vec![Scribe(regs.at(3), 0), Scribe(regs.at(20), 0)];
        let mut parent = System::new(mem, scribes);
        parent.invoke(ProcessId::new(0), w(1)).unwrap();

        let mut child = parent.clone();
        assert_eq!(child.step(ProcessId::new(1)), Ok(StepEffect::Ran));
        assert!(Arc::ptr_eq(&child.external, &parent.external));
        assert_eq!(child.memory.unshared_chunks(&parent.memory), [1]);

        // The record of that step, decoded against the parent, shares as
        // much with it as the step itself did.
        let mut delta = Vec::new();
        child.encode_delta(Some(&parent), &mut delta);
        let decoded =
            System::decode_delta(Some(&parent), &mut delta.as_slice(), &mut DeltaCtx::new())
                .expect("delta round trip");
        assert_eq!(decoded, child);
        assert_eq!(decoded.history(), child.history());
        assert!(Arc::ptr_eq(&decoded.external, &parent.external));
        assert_eq!(decoded.memory.unshared_chunks(&parent.memory), [1]);

        // One that moves a flag or the history gets a block of its own.
        let mut crashed = child.clone();
        crashed.crash(ProcessId::new(0)).unwrap();
        let mut delta = Vec::new();
        crashed.encode_delta(Some(&parent), &mut delta);
        let decoded =
            System::decode_delta(Some(&parent), &mut delta.as_slice(), &mut DeltaCtx::new())
                .expect("delta round trip");
        assert_eq!(decoded, crashed);
        assert_eq!(decoded.history(), crashed.history());
        assert!(!Arc::ptr_eq(&decoded.external, &parent.external));
        assert_eq!(decoded.memory.unshared_chunks(&parent.memory), [1]);
    }

    #[test]
    fn double_invoke_rejected() {
        let mut sys = writer_system();
        let p0 = ProcessId::new(0);
        sys.invoke(p0, w(1)).unwrap();
        assert_eq!(sys.invoke(p0, w(2)), Err(SystemError::AlreadyPending(p0)));
    }

    #[test]
    fn crash_blocks_everything() {
        let mut sys = writer_system();
        let p0 = ProcessId::new(0);
        sys.invoke(p0, w(1)).unwrap();
        sys.crash(p0).unwrap();
        assert!(sys.is_crashed(p0));
        assert!(!sys.can_step(p0));
        assert_eq!(sys.step(p0), Err(SystemError::Crashed(p0)));
        assert_eq!(sys.invoke(p0, w(2)), Err(SystemError::Crashed(p0)));
        // Idempotent: a second crash leaves one crash action.
        sys.crash(p0).unwrap();
        assert_eq!(
            sys.history()
                .iter()
                .filter(|a| matches!(a, Action::Crash { .. }))
                .count(),
            1
        );
        assert!(sys.history().is_well_formed());
    }

    #[test]
    fn out_of_range_process() {
        let mut sys = writer_system();
        let p9 = ProcessId::new(9);
        assert_eq!(sys.invoke(p9, w(1)), Err(SystemError::NoSuchProcess(p9)));
        assert_eq!(sys.step(p9), Err(SystemError::NoSuchProcess(p9)));
        assert_eq!(sys.crash(p9), Err(SystemError::NoSuchProcess(p9)));
    }

    #[test]
    fn quiescence() {
        let mut sys = writer_system();
        assert!(sys.quiescent());
        sys.invoke(ProcessId::new(1), w(3)).unwrap();
        assert!(!sys.quiescent());
        assert_eq!(sys.steppable(), vec![ProcessId::new(1)]);
        sys.step(ProcessId::new(1)).unwrap();
        assert!(sys.quiescent());
    }

    #[test]
    fn config_equality_ignores_history() {
        let mut a = writer_system();
        let mut b = writer_system();
        assert_eq!(a, b);
        a.invoke(ProcessId::new(0), w(1)).unwrap();
        assert_ne!(a, b);
        b.invoke(ProcessId::new(0), w(1)).unwrap();
        assert_eq!(a, b);
        // Same config reached by different histories still compares equal.
        a.step(ProcessId::new(0)).unwrap();
        b.step(ProcessId::new(0)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.history().len(), b.history().len());
    }

    /// A process that illegally applies two primitives per step.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Greedy {
        reg: crate::base::ObjId,
        pending: bool,
    }

    impl Process<i64> for Greedy {
        fn on_invoke(&mut self, _op: Operation) {
            self.pending = true;
        }
        fn has_step(&self) -> bool {
            self.pending
        }
        fn step(&mut self, mem: &mut Memory<i64>) -> StepEffect {
            mem.apply(Primitive::Write(self.reg, 1)).unwrap();
            mem.apply(Primitive::Write(self.reg, 2)).unwrap();
            self.pending = false;
            StepEffect::Responded(Response::Ok)
        }
    }

    #[test]
    fn atomicity_violation_detected() {
        let mut mem: Memory<i64> = Memory::new();
        let reg = mem.alloc_register(0);
        let mut sys = System::new(
            mem,
            vec![Greedy {
                reg,
                pending: false,
            }],
        );
        let p0 = ProcessId::new(0);
        sys.invoke(p0, w(1)).unwrap();
        assert!(matches!(
            sys.step(p0),
            Err(SystemError::AtomicityViolation { applied: 2, .. })
        ));
    }

    #[test]
    fn error_display() {
        assert_eq!(
            SystemError::AlreadyPending(ProcessId::new(0)).to_string(),
            "process p1 is already pending"
        );
    }
}
