//! Differential tests of the `slx-engine` kernel.
//!
//! The kernel must reproduce the exact retained-clone oracle
//! (`slx_explorer::baseline`) — `holds()` verdicts, visited-configuration
//! counts and truncation — on the workspace's seed scenarios (register
//! and CAS consensus, a violating scenario, transactional memory), and
//! do so across a full determinism matrix: every {thread count} ×
//! {shard count} × {spill budget} × {spill codec} combination must
//! report the same verdicts and counts, with symmetry reduction off and
//! on.

use slx_consensus::{CasConsensus, ConsWord, ObstructionFreeConsensus};
use std::hash::Hash;

use slx_engine::{
    Checker, DeltaCodec, Digest, Expansion, KernelOutcome, SpillCodec, StateCodec, StateSpace,
};
use slx_explorer::baseline::{decidable_values_retained, explore_safety_retained};
use slx_explorer::{decidable_values_with, explore_safety_with, history_digest, ExploreOutcome};
use slx_history::{Operation, ProcessId, Response, Value, VarId};
use slx_memory::{Memory, Process, StepEffect, System};
use slx_safety::{ConsensusSafety, Opacity};
use slx_tm::{GlobalVersionTm, TmWord};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}
fn v(x: i64) -> Value {
    Value::new(x)
}

fn cas_consensus_scenario() -> System<ConsWord, CasConsensus> {
    let mut mem: Memory<ConsWord> = Memory::new();
    let obj = CasConsensus::alloc(&mut mem);
    let mut sys = System::new(mem, vec![CasConsensus::new(obj), CasConsensus::new(obj)]);
    sys.invoke(p(0), Operation::Propose(v(1))).unwrap();
    sys.invoke(p(1), Operation::Propose(v(2))).unwrap();
    sys
}

fn of_consensus_scenario() -> System<ConsWord, ObstructionFreeConsensus> {
    ObstructionFreeConsensus::proposers(&[1, 2], 16)
}

/// Runs one operation on `proc` to completion (solo), so TM scenarios can
/// be driven to an interesting mid-transaction configuration.
fn complete_op(sys: &mut System<TmWord, GlobalVersionTm>, proc: ProcessId, op: Operation) {
    sys.invoke(proc, op).unwrap();
    for _ in 0..100 {
        if !sys.is_pending(proc) {
            return;
        }
        sys.step(proc).unwrap();
    }
    panic!("operation did not complete within 100 solo steps");
}

/// The frontier budgets of the tests that must spill. 64 bytes (32-byte
/// chunks) is below one self-contained mid-exploration `System` record
/// and holds only a few delta-encoded siblings or replay records (a
/// parent plus child indices), so every level past the first few spills
/// at least two chunks under each of the three chunk codecs, including
/// the narrow TM commit-race levels, whose records are the smallest.
/// 512 bytes (256-byte chunks) flushes a chunk every few delta records:
/// maximum chunk and file-pool churn with sibling chains intact.
const TINY_BUDGETS: [usize; 2] = [64, 512];

/// Every spilling arm: each tiny budget under each chunk codec.
fn spilling_arms() -> impl Iterator<Item = (usize, SpillCodec)> {
    TINY_BUDGETS.into_iter().flat_map(|budget| {
        [SpillCodec::Delta, SpillCodec::Plain, SpillCodec::Replay].map(|codec| (budget, codec))
    })
}

/// Two global-version TM transactions, both having read and written `x`
/// and both with a pending `tryC`: exploring the commit interleavings is
/// the TM seed scenario.
fn tm_scenario() -> System<TmWord, GlobalVersionTm> {
    let mut sys = GlobalVersionTm::system(2, 1);
    let x = VarId::new(0);
    for i in 0..2 {
        complete_op(&mut sys, p(i), Operation::TxStart);
        complete_op(&mut sys, p(i), Operation::TxRead(x));
        complete_op(&mut sys, p(i), Operation::TxWrite(x, v(i as i64 + 1)));
    }
    sys.invoke(p(0), Operation::TxCommit).unwrap();
    sys.invoke(p(1), Operation::TxCommit).unwrap();
    sys
}

/// The tentpole determinism pin of the sharded-visited-set refactor: on
/// both seed scenarios (register consensus and the TM commit race), every
/// combination of {1, 2, 4, 8} worker threads × {1, 4, 16} visited-set
/// shards must produce the *same verdict and the same visited-config
/// count* as the single-thread single-shard run, with symmetry reduction
/// off and on. Exploration results depend on the model, never on the
/// machine.
#[test]
fn verdicts_and_counts_are_thread_and_shard_count_independent() {
    let consensus = of_consensus_scenario();
    let tm = tm_scenario();
    let active = [p(0), p(1)];
    let consensus_safety = ConsensusSafety::new();
    let tm_safety = Opacity::new(v(0));

    for symmetry in [false, true] {
        let reference = Checker::parallel_bfs(1)
            .with_shards(1)
            .with_symmetry(symmetry);
        let consensus_base = explore_safety_with(
            &reference,
            &consensus,
            &active,
            14,
            &consensus_safety,
            history_digest,
        );
        let tm_base = explore_safety_with(&reference, &tm, &active, 20, &tm_safety, history_digest);
        assert!(consensus_base.holds());
        assert!(tm_base.holds());
        assert!(consensus_base.configs > 100, "scenario must branch");
        assert_eq!(consensus_base.stats.symmetry, symmetry);

        for threads in [1usize, 2, 4, 8] {
            for shards in [1usize, 4, 16] {
                let checker = Checker::parallel_bfs(threads)
                    .with_shards(shards)
                    .with_symmetry(symmetry);
                let label = format!("{threads} threads, {shards} shards, symmetry {symmetry}");

                let c = explore_safety_with(
                    &checker,
                    &consensus,
                    &active,
                    14,
                    &consensus_safety,
                    history_digest,
                );
                assert_eq!(c.holds(), consensus_base.holds(), "consensus, {label}");
                assert_eq!(c.configs, consensus_base.configs, "consensus, {label}");
                assert_eq!(c.truncated, consensus_base.truncated, "consensus, {label}");
                assert_eq!(
                    c.stats.dedup_hits, consensus_base.stats.dedup_hits,
                    "consensus, {label}"
                );
                assert_eq!(
                    c.stats.orbit_hits, consensus_base.stats.orbit_hits,
                    "consensus, {label}"
                );
                assert_eq!(c.stats.shards, shards, "consensus, {label}");
                assert_eq!(
                    c.stats.shard_occupancy.iter().sum::<usize>(),
                    consensus_base.stats.shard_occupancy.iter().sum::<usize>(),
                    "consensus, {label}"
                );

                let t = explore_safety_with(&checker, &tm, &active, 20, &tm_safety, history_digest);
                assert_eq!(t.holds(), tm_base.holds(), "tm, {label}");
                assert_eq!(t.configs, tm_base.configs, "tm, {label}");
                assert_eq!(t.truncated, tm_base.truncated, "tm, {label}");
            }
        }
    }
}

/// The disk-backed-frontier determinism pin: on both seed scenarios,
/// spill-enabled runs (budgets tiny enough to spill several chunks per
/// level, under each of the three chunk codecs — delta, the default;
/// plain self-contained records; replay recompute-from-parent records)
/// must produce verdicts, visited-config counts, findings, truncation
/// flags, and dedup accounting identical to fully-resident runs, across
/// {1, 4} worker threads × {1, 16} visited-set shards, with symmetry
/// reduction off and on. Replay must actually regenerate (its whole
/// point), the other codecs must never.
#[test]
fn spill_and_in_memory_runs_are_byte_identical() {
    let consensus = of_consensus_scenario();
    let tm = tm_scenario();
    let active = [p(0), p(1)];
    let consensus_safety = ConsensusSafety::new();
    let tm_safety = Opacity::new(v(0));

    for symmetry in [false, true] {
        let resident = Checker::parallel_bfs(1)
            .with_shards(1)
            .with_symmetry(symmetry);
        let consensus_base = explore_safety_with(
            &resident,
            &consensus,
            &active,
            14,
            &consensus_safety,
            history_digest,
        );
        let tm_base = explore_safety_with(&resident, &tm, &active, 20, &tm_safety, history_digest);
        assert_eq!(consensus_base.stats.spilled_chunks, 0);
        assert_eq!(consensus_base.stats.replayed_parents, 0);
        assert!(consensus_base.configs > 100, "scenario must branch");

        for threads in [1usize, 4] {
            for shards in [1usize, 16] {
                for (mem_budget, codec) in
                    std::iter::once((0, SpillCodec::Delta)).chain(spilling_arms())
                {
                    let checker = Checker::parallel_bfs(threads)
                        .with_shards(shards)
                        .with_symmetry(symmetry)
                        .with_mem_budget(mem_budget)
                        .with_spill_codec(codec);
                    let label = format!(
                        "{threads} threads, {shards} shards, mem {mem_budget}, {codec:?}, \
                         symmetry {symmetry}"
                    );

                    let c = explore_safety_with(
                        &checker,
                        &consensus,
                        &active,
                        14,
                        &consensus_safety,
                        history_digest,
                    );
                    assert_eq!(c.holds(), consensus_base.holds(), "consensus, {label}");
                    assert_eq!(c.configs, consensus_base.configs, "consensus, {label}");
                    assert_eq!(c.truncated, consensus_base.truncated, "consensus, {label}");
                    assert_eq!(
                        c.violations, consensus_base.violations,
                        "consensus, {label}"
                    );
                    assert_eq!(
                        c.stats.transitions, consensus_base.stats.transitions,
                        "consensus, {label}"
                    );
                    assert_eq!(
                        c.stats.dedup_hits, consensus_base.stats.dedup_hits,
                        "consensus, {label}"
                    );
                    assert_eq!(
                        c.stats.orbit_hits, consensus_base.stats.orbit_hits,
                        "consensus, {label}"
                    );
                    assert_eq!(
                        c.stats.peak_frontier, consensus_base.stats.peak_frontier,
                        "consensus, {label}"
                    );
                    assert_eq!(
                        c.stats.shard_occupancy.iter().sum::<usize>(),
                        consensus_base.stats.shard_occupancy.iter().sum::<usize>(),
                        "consensus, {label}"
                    );

                    let t =
                        explore_safety_with(&checker, &tm, &active, 20, &tm_safety, history_digest);
                    assert_eq!(t.holds(), tm_base.holds(), "tm, {label}");
                    assert_eq!(t.configs, tm_base.configs, "tm, {label}");
                    assert_eq!(t.truncated, tm_base.truncated, "tm, {label}");
                    assert_eq!(t.stats.dedup_hits, tm_base.stats.dedup_hits, "tm, {label}");

                    if mem_budget == 0 {
                        assert_eq!(c.stats.spilled_chunks, 0, "consensus, {label}");
                        assert_eq!(t.stats.spilled_chunks, 0, "tm, {label}");
                        continue;
                    }
                    assert!(
                        c.stats.spilled_chunks >= 2,
                        "consensus, {label}: the tiny budget must spill \
                         (got {} chunks)",
                        c.stats.spilled_chunks
                    );
                    assert!(c.stats.spilled_bytes > 0, "consensus, {label}");
                    assert!(
                        c.stats.peak_resident_states < c.stats.peak_frontier,
                        "consensus, {label}: resident window {} must stay below \
                         the widest level {}",
                        c.stats.peak_resident_states,
                        c.stats.peak_frontier
                    );
                    // The commit race's levels are narrow: only the
                    // smallest budget is sure to split them.
                    if mem_budget == TINY_BUDGETS[0] {
                        assert!(t.stats.spilled_chunks >= 2, "tm, {label} must spill");
                    }
                    for (got, scenario) in [(&c, "consensus"), (&t, "tm")] {
                        if codec == SpillCodec::Replay && got.stats.spilled_chunks > 0 {
                            assert!(
                                got.stats.replayed_parents > 0,
                                "{scenario}, {label}: replay chunks must regenerate \
                                 from parents"
                            );
                            assert!(
                                got.stats.replayed_parents <= got.configs,
                                "{scenario}, {label}: at most one re-expansion per \
                                 parent per level ({} > {})",
                                got.stats.replayed_parents,
                                got.configs
                            );
                        } else {
                            assert_eq!(got.stats.replayed_parents, 0, "{scenario}, {label}");
                        }
                    }
                }
            }
        }
    }
}

/// The spill-volume ordering of the three chunk codecs on the
/// sibling-heavy consensus levels: replay < delta < plain / 2. The
/// comparison needs chunks that actually hold several records: at the
/// 64-byte matrix budget every consensus record is its own
/// (self-contained) chunk, where delta degenerates to plain by design.
/// 512-byte chunks restore the sibling chains while still forcing every
/// arm (including the nearly-free replay records) to spill repeatedly.
#[test]
fn replay_undercuts_delta_which_undercuts_plain_in_spill_volume() {
    let consensus = of_consensus_scenario();
    let active = [p(0), p(1)];
    let safety = ConsensusSafety::new();
    let base = explore_safety_with(
        &Checker::parallel_bfs(1).with_shards(1),
        &consensus,
        &active,
        14,
        &safety,
        history_digest,
    );
    let bytes = [SpillCodec::Replay, SpillCodec::Delta, SpillCodec::Plain].map(|codec| {
        let roomy = explore_safety_with(
            &Checker::parallel_bfs(1)
                .with_shards(1)
                .with_mem_budget(1024)
                .with_spill_codec(codec),
            &consensus,
            &active,
            14,
            &safety,
            history_digest,
        );
        assert_eq!(roomy.configs, base.configs, "{codec:?}, roomy");
        assert_eq!(roomy.holds(), base.holds(), "{codec:?}, roomy");
        assert!(roomy.stats.spilled_chunks >= 2, "{codec:?}, roomy");
        roomy.stats.spilled_bytes
    });
    let [replay, delta, plain] = bytes;
    assert!(
        delta < plain / 2,
        "delta chunks ({delta} bytes) must substantially undercut plain chunks \
         ({plain} bytes) on sibling-heavy consensus levels"
    );
    assert!(
        replay < delta,
        "replay chunks ({replay} bytes) store only parents + indices and must \
         undercut even delta chunks ({delta} bytes)"
    );
}

/// The same pin on the *budgeted* valence query: `max_states` truncation
/// must cut the same frontier prefix whether the tail is resident or
/// spilled, at budgets that land mid-level.
#[test]
fn spilled_valence_truncation_matches_resident() {
    let cas = cas_consensus_scenario();
    let of = of_consensus_scenario();
    let active = [p(0), p(1)];
    for budget in [3usize, 17, 50, 400, 10_000] {
        let base_cas = decidable_values_with(
            &Checker::parallel_bfs(1).with_shards(1).with_mem_budget(0),
            &cas,
            &active,
            budget,
        );
        let base_of = decidable_values_with(
            &Checker::parallel_bfs(1).with_shards(1).with_mem_budget(0),
            &of,
            &active,
            budget,
        );
        for threads in [1usize, 4] {
            for codec in [SpillCodec::Delta, SpillCodec::Replay] {
                let spilling = Checker::parallel_bfs(threads)
                    .with_shards(16)
                    .with_mem_budget(2048)
                    .with_spill_codec(codec);
                let got_cas = decidable_values_with(&spilling, &cas, &active, budget);
                let got_of = decidable_values_with(&spilling, &of, &active, budget);
                for (got, base, name) in [(&got_cas, &base_cas, "cas"), (&got_of, &base_of, "of")] {
                    let label = format!("{name}, budget {budget}, {threads} threads, {codec:?}");
                    assert_eq!(got.values, base.values, "{label}");
                    assert_eq!(got.bivalent(), base.bivalent(), "{label}");
                    assert_eq!(got.truncated, base.truncated, "{label}");
                    assert_eq!(got.configs, base.configs, "{label}");
                }
            }
        }
    }
}

/// The same matrix on the budgeted valence query (the bivalence
/// adversary's inner loop): values, bivalence, truncation, and configs
/// must not depend on threads or shards, including at budgets that cut
/// the exploration mid-level.
#[test]
fn valence_verdicts_are_thread_and_shard_count_independent() {
    let cas = cas_consensus_scenario();
    let active = [p(0), p(1)];
    for budget in [3usize, 50, 10_000] {
        let base = decidable_values_with(
            &Checker::parallel_bfs(1).with_shards(1),
            &cas,
            &active,
            budget,
        );
        for threads in [2usize, 4, 8] {
            for shards in [4usize, 16] {
                let got = decidable_values_with(
                    &Checker::parallel_bfs(threads).with_shards(shards),
                    &cas,
                    &active,
                    budget,
                );
                let label = format!("budget {budget}, {threads} threads, {shards} shards");
                assert_eq!(got.values, base.values, "{label}");
                assert_eq!(got.bivalent(), base.bivalent(), "{label}");
                assert_eq!(got.truncated, base.truncated, "{label}");
                assert_eq!(got.configs, base.configs, "{label}");
            }
        }
    }
}

/// A broken "consensus" that decides its own proposal at once: the
/// scenario whose verdict is *false*.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Selfish {
    pending: Option<Value>,
}

impl Process<ConsWord> for Selfish {
    fn on_invoke(&mut self, op: Operation) {
        if let Operation::Propose(v) = op {
            self.pending = Some(v);
        }
    }
    fn has_step(&self) -> bool {
        self.pending.is_some()
    }
    fn step(&mut self, _mem: &mut Memory<ConsWord>) -> StepEffect {
        let v = self.pending.take().expect("pending");
        StepEffect::Responded(Response::Decided(v))
    }
}

impl StateCodec for Selfish {
    fn encode(&self, out: &mut Vec<u8>) {
        self.pending.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(Selfish {
            pending: Option::decode(input)?,
        })
    }
}

impl DeltaCodec for Selfish {}

/// One consensus scenario, kernel against the exact retained-clone
/// oracle: verdict, visited-configuration count, truncation. Returns the
/// kernel's outcome.
fn assert_matches_retained<P>(
    checker: &Checker,
    sys: &System<ConsWord, P>,
    active: &[ProcessId],
    depth: usize,
    label: &str,
) -> ExploreOutcome
where
    P: Process<ConsWord> + DeltaCodec + Clone + Eq + Hash + Send + Sync,
{
    let safety = ConsensusSafety::new();
    let engine = explore_safety_with(checker, sys, active, depth, &safety, history_digest);
    let baseline = explore_safety_retained(sys, active, depth, &safety, history_digest);
    assert_eq!(engine.holds(), baseline.holds(), "{label}");
    assert_eq!(engine.configs, baseline.configs, "{label}");
    assert_eq!(engine.truncated, baseline.truncated, "{label}");
    engine
}

/// The kernel against the seed's retained-clone DFS, and checkpointing as
/// a pure observer of the same runs: a committed image every `every`
/// levels changes no verdict, count, or dedup accounting. The last
/// obstruction-free row is one process count up (processes 1 and 2
/// interchangeable, still bivalent), at a cadence where several levels
/// ride between commits. Wait-free CAS consensus and a violating
/// scenario close the table.
#[test]
fn kernel_matches_retained_baseline_on_consensus() {
    let safety = ConsensusSafety::new();
    // The retained baseline has no symmetry reduction, which is off by
    // default.
    let checker = Checker::auto();
    let rows: [(&[i64], usize, usize); 5] = [
        (&[1, 2], 8, 4),
        (&[1, 2], 14, 4),
        (&[1, 2], 18, 4),
        (&[1, 2], 20, 4),
        (&[1, 2, 2], 18, 8),
    ];
    for (inputs, depth, every) in rows {
        let label = format!("inputs {inputs:?}, depth {depth}");
        let sys = ObstructionFreeConsensus::proposers(inputs, 16);
        let active: Vec<ProcessId> = (0..inputs.len()).map(p).collect();
        let engine = assert_matches_retained(&checker, &sys, &active, depth, &label);
        assert!(engine.holds(), "{label}");

        let dir = std::env::temp_dir().join(format!(
            "slx-differential-ckpt-{}-{}-{depth}",
            std::process::id(),
            inputs.len()
        ));
        let observed = explore_safety_with(
            &checker.clone().with_checkpoint(&dir, every),
            &sys,
            &active,
            depth,
            &safety,
            history_digest,
        );
        std::fs::remove_dir_all(&dir).expect("checkpoint dir cleanup");
        assert_eq!(observed.holds(), engine.holds(), "ckpt, {label}");
        assert_eq!(observed.configs, engine.configs, "ckpt, {label}");
        assert_eq!(
            observed.stats.dedup_hits, engine.stats.dedup_hits,
            "ckpt, {label}"
        );
        assert!(
            observed.stats.checkpoints_written >= depth / every,
            "ckpt, {label}: {} images",
            observed.stats.checkpoints_written
        );
    }

    let active = [p(0), p(1)];
    let cas = assert_matches_retained(&checker, &cas_consensus_scenario(), &active, 16, "cas");
    assert!(cas.holds());
    let mut selfish = System::new(
        Memory::new(),
        vec![Selfish { pending: None }, Selfish { pending: None }],
    );
    selfish.invoke(p(0), Operation::Propose(v(1))).unwrap();
    selfish.invoke(p(1), Operation::Propose(v(2))).unwrap();
    let violating = assert_matches_retained(&checker, &selfish, &active, 4, "selfish");
    assert!(!violating.holds(), "disagreement must be found");
}

#[test]
fn kernel_matches_retained_baseline_on_tm() {
    let sys = tm_scenario();
    let active = [p(0), p(1)];
    let safety = Opacity::new(v(0));
    let checker = Checker::auto();
    let engine = explore_safety_with(&checker, &sys, &active, 20, &safety, history_digest);
    let baseline = explore_safety_retained(&sys, &active, 20, &safety, history_digest);
    assert_eq!(engine.holds(), baseline.holds());
    assert_eq!(engine.configs, baseline.configs);
    assert!(engine.holds(), "global-version TM commits must stay opaque");
    assert!(engine.configs > 1, "the commit race must branch");
}

#[test]
fn valence_matches_retained_baseline_across_budgets() {
    // Sweep the budget through starved, boundary, and ample regimes on
    // both seed scenarios; the engine must reproduce the retained
    // implementation's verdict (values, bivalence, truncation) at every
    // point. `configs` is only comparable when neither run truncates: at
    // the budget the seed counted one state it never expanded.
    let active = [p(0), p(1)];
    let cas = cas_consensus_scenario();
    let of = of_consensus_scenario();
    let checker = Checker::auto();
    for budget in [1usize, 2, 3, 5, 10, 50, 200, 1000, 10_000] {
        let engine_cas = decidable_values_with(&checker, &cas, &active, budget);
        let seed_cas = decidable_values_retained(&cas, &active, budget);
        let engine_of = decidable_values_with(&checker, &of, &active, budget);
        let seed_of = decidable_values_retained(&of, &active, budget);
        for (engine, seed, name) in [
            (&engine_cas, &seed_cas, "cas"),
            (&engine_of, &seed_of, "of"),
        ] {
            assert_eq!(engine.values, seed.values, "{name} budget {budget}");
            assert_eq!(engine.bivalent(), seed.bivalent(), "{name} budget {budget}");
            if !engine.bivalent() {
                // Early bivalence exits can race the budget boundary;
                // everywhere else truncation must agree exactly.
                assert_eq!(engine.truncated, seed.truncated, "{name} budget {budget}");
            }
            if !engine.truncated && !seed.truncated {
                assert_eq!(engine.configs, seed.configs, "{name} budget {budget}");
            }
        }
    }
}

/// Every schedule of three obstruction-free consensus processes up to a
/// depth bound, reporting each decision it passes as a finding (and
/// exploring on): wide levels of kilobyte states with findings spread
/// through them, which is what the level window is built for.
struct DecisionSpace {
    depth: usize,
}

impl StateSpace for DecisionSpace {
    type State = System<ConsWord, ObstructionFreeConsensus>;
    type Finding = (usize, Value);

    fn digest(&self, sys: &Self::State) -> Digest {
        sys.digest128()
    }

    fn expand(&self, sys: &Self::State, depth: usize, ctx: &mut Expansion<Self>) {
        if depth >= self.depth {
            ctx.mark_truncated();
            return;
        }
        for proc in 0..3 {
            if !sys.can_step(p(proc)) {
                continue;
            }
            let mut next = sys.clone();
            if let StepEffect::Responded(Response::Decided(value)) =
                next.step(p(proc)).expect("steppable")
            {
                ctx.finding((depth, value));
            }
            ctx.push(next);
        }
    }
}

/// The level window's partition invariance on the consensus space: a
/// stop predicate firing on a finding in the middle of a wide level, and
/// an observer cancelling between two wide levels, must leave the same
/// findings (order included) and counts whether the level was merged one
/// parent at a time, from worker blocks, or from spilled chunks.
#[test]
fn level_window_partition_never_shows_on_consensus() {
    let sys = ObstructionFreeConsensus::proposers(&[1, 2, 2], 16);
    let space = DecisionSpace { depth: 22 };

    type Outcome = KernelOutcome<(usize, Value)>;
    let stop_after = 240usize;
    let cancel_at = 19usize;
    let arms: [&dyn Fn(&Checker) -> Outcome; 2] = [
        &|checker| checker.run_until(&space, vec![sys.clone()], |found| found.len() >= stop_after),
        &|checker| {
            checker.run_observed(
                &space,
                vec![sys.clone()],
                |_| false,
                |depth, _| depth < cancel_at,
            )
        },
    ];
    for (arm, run) in arms.iter().enumerate() {
        for shards in [1usize, 8] {
            let pinned = |threads: usize, mem_budget: usize| {
                Checker::parallel_bfs(threads)
                    .with_shards(shards)
                    .with_symmetry(false)
                    .with_mem_budget(mem_budget)
            };
            // The observer sees every level boundary: the reference run
            // records them, so the arms can be checked to end where they
            // are meant to.
            let mut boundaries: Vec<usize> = Vec::new();
            let exhaustive = pinned(1, 0).run_observed(
                &space,
                vec![sys.clone()],
                |_| false,
                |_, stats| {
                    boundaries.push(stats.configs);
                    true
                },
            );
            let base = run(&pinned(1, 0));
            assert!(base.stats.stopped_early, "arm {arm} must end early");
            assert!(base.stats.configs < exhaustive.stats.configs, "arm {arm}");
            let level = boundaries
                .iter()
                .rposition(|&start| start <= base.stats.configs)
                .expect("level 0 starts at 0");
            let width = boundaries[level + 1] - boundaries[level];
            if arm == 0 {
                assert!(
                    base.stats.configs > boundaries[level]
                        && width > 4 * 64
                        && !width.is_multiple_of(64),
                    "the stop must fire inside a level of several blocks and a \
                     ragged tail, not at config {} of level {level} ({width} wide)",
                    base.stats.configs - boundaries[level]
                );
            } else {
                assert_eq!(base.stats.configs, boundaries[cancel_at], "cancel boundary");
            }
            for threads in [1usize, 2, 4] {
                // 16 KiB: chunks of a few states, several per level.
                for mem_budget in [0usize, 16 << 10] {
                    let out = run(&pinned(threads, mem_budget));
                    let label = format!(
                        "arm {arm}, {threads} threads, {shards} shards, mem budget {mem_budget}"
                    );
                    assert_eq!(out.findings, base.findings, "{label}");
                    assert_eq!(out.stats.configs, base.stats.configs, "{label}");
                    assert_eq!(out.stats.transitions, base.stats.transitions, "{label}");
                    assert_eq!(out.stats.dedup_hits, base.stats.dedup_hits, "{label}");
                    assert_eq!(
                        out.stats.shard_occupancy, base.stats.shard_occupancy,
                        "{label}"
                    );
                    assert_eq!(out.stats.peak_frontier, base.stats.peak_frontier, "{label}");
                    assert_eq!(out.stats.truncated, base.stats.truncated, "{label}");
                    assert_eq!(out.stats.stopped_early, base.stats.stopped_early, "{label}");
                    if mem_budget > 0 {
                        assert!(out.stats.spilled_chunks >= 2, "{label}: no spilling");
                    }
                }
            }
        }
    }
}
