//! What an enumerated execution, an external action and a consensus
//! transition cost the allocator — counted, not timed, so none of it can
//! flake: this binary's global allocator forwards to [`std::alloc::System`]
//! and bumps per-thread counters on the way.
//!
//! The numbers pinned here were the whole of a benchmark row once.
//! `Automaton::extensions` used to clone an execution and push onto the
//! clone: `clone` allocates both vectors at exactly `len`, so each `push`
//! reallocated to `2 * len` at once — four allocations and two
//! reallocations per execution, and every enumerated execution then held
//! twice the heap it used (258 MiB against 198 on the 512,009 executions
//! of `trivial_it(4, 3 ops)` to depth 7). `System`'s block of flags and
//! history did the same at every external action: `Arc::make_mut` cloned
//! the history at `len`, the append reallocated it.
//!
//! The counters are per thread, so the tests of this binary do not see
//! each other and every counted run pins one kernel thread. Beside the
//! calls, the allocator keeps the thread's live bytes (allocated minus
//! freed) and their running maximum, which is what a run holds at its
//! peak: the number a memory regression moves.

use std::alloc::{GlobalAlloc, Layout, System as SystemAllocator};
use std::cell::Cell;
use std::thread::LocalKey;

use safety_liveness_exclusion::automata::{trivial_it, Automaton, StateId};
use safety_liveness_exclusion::consensus::ObstructionFreeConsensus;
use safety_liveness_exclusion::engine::{Checker, SpillCodec};
use safety_liveness_exclusion::explorer::{explore_safety_with, history_digest};
use safety_liveness_exclusion::history::{Action, Operation, ProcessId, Value, VarId};
use safety_liveness_exclusion::memory::StepEffect;
use safety_liveness_exclusion::safety::ConsensusSafety;
use safety_liveness_exclusion::tm::GlobalVersionTm;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// `try_with`: the allocator also runs while a thread's locals are being
/// torn down. The cells are `const`-initialized and have no destructor,
/// so touching them never allocates.
fn bump(counter: &'static LocalKey<Cell<u64>>, by: usize) {
    let _ = counter.try_with(|c| c.set(c.get() + by as u64));
}

/// Moves the thread's live bytes by `delta` and its peak after them. A
/// block freed on another thread than the one that allocated it moves
/// each thread's count one way only; the counted runs are one thread.
fn live(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

struct Counting;

// SAFETY: every request goes to `System` unchanged and its answer comes
// back unchanged; the only addition is arithmetic on thread-local cells.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&BYTES, layout.size());
        live(layout.size() as i64);
        // SAFETY: the caller's contract for `alloc`, passed on as is.
        unsafe { SystemAllocator.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through `alloc` / `realloc`
        // above with this `layout`, which is the caller's contract here.
        unsafe { SystemAllocator.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS, 1);
        bump(&BYTES, new_size);
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller's contract for `realloc`, passed on as is.
        unsafe { SystemAllocator.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What the calling thread asked of the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cost {
    allocs: u64,
    reallocs: u64,
    /// Requested, not resident: the size of every `alloc` plus the new
    /// size of every `realloc`.
    bytes: u64,
    /// The most bytes live at once beyond what was live at the start.
    peak_live: u64,
}

impl Cost {
    fn now() -> Cost {
        Cost {
            allocs: ALLOCS.with(Cell::get),
            reallocs: REALLOCS.with(Cell::get),
            bytes: BYTES.with(Cell::get),
            peak_live: 0,
        }
    }

    fn per(self, n: usize) -> (f64, f64, f64) {
        let n = n as f64;
        (
            self.allocs as f64 / n,
            self.reallocs as f64 / n,
            self.bytes as f64 / n,
        )
    }
}

/// Runs `f` and returns what it made this thread allocate.
fn cost_of<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let live_before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live_before));
    let before = Cost::now();
    let out = f();
    let after = Cost::now();
    let cost = Cost {
        allocs: after.allocs - before.allocs,
        reallocs: after.reallocs - before.reallocs,
        bytes: after.bytes - before.bytes,
        peak_live: u64::try_from(PEAK.with(Cell::get) - live_before)
            .expect("the peak starts at what was live"),
    };
    (out, cost)
}

/// A resident checker on `threads` threads, every knob pinned.
fn pinned(threads: usize) -> Checker {
    Checker::parallel_bfs(threads)
        .with_shards(8)
        .with_symmetry(false)
        .with_mem_budget(0)
}

/// `It` of the `wide-nodedup` benchmark row: 4 processes, 3 proposals, a
/// 16-way fan-out at every state, no two executions alike.
fn wide_it() -> Automaton<Action> {
    let ops = [0, 1, 2].map(|v| Operation::Propose(Value::new(v)));
    trivial_it(4, &ops, &[])
}

const DEPTH: usize = 5;

#[test]
fn every_enumerated_execution_is_held_at_its_final_size() {
    let it = wide_it();
    let baseline = it.executions(DEPTH);
    assert!(baseline.len() >= 10_000, "{} executions", baseline.len());
    let spilling = pinned(1)
        .with_mem_budget(64 * 1024)
        .with_spill_codec(SpillCodec::Delta);
    // `executions` hands out the extended vectors themselves;
    // `executions_on` the clones `expand` reports — so whether a frontier
    // execution was built, decoded from a spill chunk or handed over by
    // another thread changes nothing the caller holds.
    let paths = [
        ("executions", None),
        ("executions_on, 1 thread", Some(pinned(1))),
        ("executions_on, 2 threads", Some(pinned(2))),
        ("executions_on, 64 KiB delta budget", Some(spilling)),
    ];
    for (path, checker) in paths {
        let execs = match checker {
            None => it.executions(DEPTH),
            Some(checker) => it.executions_on(&checker, DEPTH),
        };
        assert!(execs == baseline, "{path}: not the baseline's executions");
        for e in &execs {
            assert_eq!(
                (e.states.capacity(), e.actions.capacity()),
                (e.states.len(), e.actions.len()),
                "{path}: capacity beyond length after {} actions",
                e.actions.len()
            );
        }
    }
}

#[test]
fn an_extension_is_two_allocations_and_an_enumeration_four_per_execution() {
    let it = wide_it();
    let prefix = it
        .executions(3)
        .pop()
        .expect("It has executions of every length");
    let (action, target) = (prefix.actions[0], StateId(0));
    let (extended, cost) = cost_of(|| prefix.extended(action, target));
    assert_eq!((cost.allocs, cost.reallocs), (2, 0), "{cost:?}");
    assert_eq!(extended.actions.len(), prefix.actions.len() + 1);
    assert_eq!(extended.last_state(), target);

    // The kernel's run: per execution, the extension (2) and the clone
    // reported as a finding (2); the findings vector and the window's
    // buffers grow by doubling and vanish in the average, and the visited
    // set holds the one initial execution (an execution is never
    // deduplicated).
    // One thread, so the whole run is on this thread's counters.
    let checker = pinned(1);
    let (execs, cost) = cost_of(|| it.executions_on(&checker, DEPTH));
    let (allocs, reallocs, bytes) = cost.per(execs.len());
    println!(
        "executions_on: {} executions, {allocs:.3} allocations, {reallocs:.4} \
         reallocations, {bytes:.0} requested bytes each",
        execs.len()
    );
    assert!(execs.len() >= 10_000, "{} executions", execs.len());
    assert!(allocs <= 4.1, "{allocs:.3} allocations per execution");
    assert!(reallocs < 0.1, "{reallocs:.3} reallocations per execution");

    // The retained queue holds the extensions themselves: 2 each.
    let (execs, cost) = cost_of(|| it.executions(DEPTH));
    let (allocs, reallocs, _) = cost.per(execs.len());
    println!("executions: {allocs:.3} allocations, {reallocs:.4} reallocations each");
    assert!(allocs <= 2.1, "{allocs:.3} allocations per execution");
    assert!(reallocs < 0.1, "{reallocs:.3} reallocations per execution");
}

#[test]
fn an_external_action_on_a_shared_block_does_not_reallocate() {
    let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
    let x = VarId::new(0);
    // Two actions in: a copied history that is allocated at exactly its
    // length is *re*allocated by the next append (an empty one is
    // allocated by it, which this test would not see).
    let mut sys = GlobalVersionTm::system(2, 1);
    sys.invoke(p0, Operation::TxStart).unwrap();
    while !matches!(sys.step(p0).unwrap(), StepEffect::Responded(_)) {}
    assert_eq!(sys.history().len(), 2);

    // Each action below is taken by a fresh clone, whose block of flags
    // and history is therefore shared with `sys`.
    let mut invoked = sys.clone();
    let ((), cost) = cost_of(|| invoked.invoke(p0, Operation::TxRead(x)).unwrap());
    assert_eq!(cost.reallocs, 0, "invoke: {cost:?}");
    // The copy: the block, two flag vectors, the history.
    assert_eq!(cost.allocs, 4, "invoke: {cost:?}");

    let mut crashed = sys.clone();
    let ((), cost) = cost_of(|| crashed.crash(p1).unwrap());
    assert_eq!(cost.reallocs, 0, "first crash: {cost:?}");

    let cost = loop {
        let mut next = invoked.clone();
        let (effect, cost) = cost_of(|| next.step(p0).unwrap());
        invoked = next;
        if matches!(effect, StepEffect::Responded(_)) {
            break cost;
        }
    };
    assert_eq!(cost.reallocs, 0, "responding step: {cost:?}");

    // None of it reached the configuration the clones were taken from.
    assert_eq!(sys.history().len(), 2);
    assert_eq!(invoked.history().len(), 4);
    assert_eq!(crashed.history().len(), 3);
    assert!(crashed.is_crashed(p1) && !sys.is_crashed(p1));
}

#[test]
fn a_consensus_transition_stays_within_its_allocation_budget() {
    // The `deep-resident` benchmark request. A successor is a `System`
    // clone (the process states), a step (a write copies one 16-object
    // chunk, and the pool's spine only if another chunk of the parent's
    // own is open; a read nothing; the explorer's table of the level's
    // written memories, one allocation a level, may then free the copy)
    // and a digest (nothing);
    // the 61 % of successors that dedup discards cost what the kept ones
    // do. A per-successor allocation added to any of that is one more
    // per transition, far past this limit.
    let sys = ObstructionFreeConsensus::proposers(&[1, 2, 2], 16);
    let active: Vec<ProcessId> = ProcessId::all(3).collect();
    let safety = ConsensusSafety::new();
    let checker = pinned(1);
    let (out, cost) =
        cost_of(|| explore_safety_with(&checker, &sys, &active, 44, &safety, history_digest));
    assert!(out.holds());
    assert_eq!(
        (out.stats.configs, out.stats.transitions),
        (151_960, 389_728)
    );
    let (allocs, reallocs, bytes) = cost.per(out.stats.transitions);
    let peak_mib = cost.peak_live as f64 / f64::from(1 << 20);
    println!(
        "explore_safety_with: {allocs:.3} allocations, {reallocs:.4} reallocations, \
         {bytes:.0} requested bytes per transition; {peak_mib:.2} MiB live at the peak"
    );
    assert!(allocs <= 1.7, "{allocs:.3} allocations per transition");
    // 351 bytes with 40-byte processes, 447 while each was 72: the
    // successor's block of three processes is most of what it asks for.
    assert!(bytes <= 400.0, "{bytes:.0} requested bytes per transition");
    // 16.2 MiB while every successor that wrote kept its own copy of
    // the chunk it wrote; 13.3 since the successors of one level that
    // write equal memories hold one copy of the chunks they wrote.
    assert!(peak_mib < 14.5, "{peak_mib:.2} MiB live at the peak");
}
