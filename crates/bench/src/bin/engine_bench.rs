//! `engine_bench` — states/sec of the `slx-engine` kernel vs the seed's
//! retained-clone baseline, with no external benchmarking dependency.
//!
//! Runs the obstruction-free-consensus safety exploration (the hot loop
//! behind Figure 1a's white anchor) at several depths on six
//! configurations and prints a comparison table:
//!
//! - **sharded** — the kernel with its sharded visited set (thread count
//!   from `SLX_ENGINE_THREADS` or autodetected; shard count from
//!   `SLX_ENGINE_SHARDS` or four per thread), the default since the
//!   sharded-merge refactor;
//! - **spill R** — the same kernel under a 16 KiB frontier memory budget
//!   (`SPILL_BUDGET`) with **replay** (recompute-from-parent) chunk
//!   records: spilled successors are stored as *(parent, action
//!   indices)* and regenerated by re-expanding the parent at replay
//!   time, so no per-child codec work survives on the hot path;
//! - **spill Δ** — the same budget with the default **delta-encoded**
//!   chunks: every spilled state round-trips through a record
//!   delta-encoded against its chunk predecessor;
//! - **spill ≡** — the same budget with plain self-contained records
//!   (the PR 3 chunk encoding, kept as the comparison arm);
//! - **1 shard** — the kernel pinned to a single shard: the PR 1
//!   behaviour, whose dedup/merge phase is a single sequential map (the
//!   sharded column must not regress below this one);
//! - **baseline** — the seed's sequential DFS over retained `(System,
//!   digest)` clones.
//!
//! Verdicts and visited counts are asserted equal across all six on
//! every row. After the table, one machine-readable JSON line per
//! (depth, arm) is printed for trajectory tracking (`"bench":
//! "engine_bench"`); redirect or append those lines into the repo's
//! `BENCH_engine.json` to persist the trajectory. Usage:
//!
//! ```text
//! cargo run --release -p slx-bench --bin engine_bench [max_depth] [spill_budget]
//! ```

use std::time::Instant;

use slx_core::consensus::{ConsWord, ObstructionFreeConsensus};
use slx_core::engine::{Checker, SpillCodec};
use slx_core::explorer::baseline::explore_safety_retained;
use slx_core::explorer::{explore_safety_with, history_digest, ExploreOutcome};
use slx_core::history::{Operation, ProcessId, Value};
use slx_core::memory::{Memory, System};
use slx_core::safety::ConsensusSafety;

/// Default frontier memory budget of the spill arms (override with the
/// second CLI argument): a self-contained encoded consensus record is
/// ~400 bytes, so the 8 KiB chunk window holds ~20 plain states (a few
/// times that with delta records, far more with replay group records)
/// and the deeper rows' levels each spill several chunks — the
/// beyond-RAM regime, scaled down to bench runtimes.
const SPILL_BUDGET: usize = 16 * 1024;

/// The Figure 1a anchor system: `inputs.len()` proposers with the given
/// input vector.
///
/// 16 pre-allocated commit-adopt rounds: ample headroom for the depths
/// benched here (a round costs each process 2n + 2 steps, so depth 22
/// reaches round ~4 at n = 2). The seed's 64 rounds left ~80% of every
/// configuration as never-touched `⊥` registers, which skews the spill
/// arm: dead registers are a memcpy for the resident clone but
/// per-object work for the codec.
fn of_system(inputs: &[i64]) -> System<ConsWord, ObstructionFreeConsensus> {
    let n = inputs.len();
    let mut mem: Memory<ConsWord> = Memory::new();
    let layout = ObstructionFreeConsensus::layout(&mut mem, n, 16);
    let procs = (0..n)
        .map(|i| ObstructionFreeConsensus::new(layout.clone(), ProcessId::new(i), n))
        .collect();
    let mut sys = System::new(mem, procs);
    for (i, &input) in inputs.iter().enumerate() {
        sys.invoke(ProcessId::new(i), Operation::Propose(Value::new(input)))
            .unwrap();
    }
    sys
}

/// One machine-readable trajectory record per (depth, arm) — the
/// file-ready lines `BENCH_engine.json` is built from.
fn json_line(
    workload: &str,
    depth: usize,
    arm: &str,
    out: &ExploreOutcome,
    secs: f64,
    overhead_x: f64,
) -> String {
    format!(
        "{{\"bench\":\"engine_bench\",\"workload\":\"{workload}\",\
         \"depth\":{depth},\"arm\":\"{arm}\",\"configs\":{},\
         \"states_per_sec\":{:.0},\"secs\":{:.6},\"overhead_x\":{:.3},\
         \"spilled_chunks\":{},\"spilled_bytes\":{},\"replayed_parents\":{},\
         \"orbit_hits\":{},\"peak_resident_states\":{},\"peak_frontier\":{},\
         \"threads\":{},\"shards\":{}}}",
        out.configs,
        out.configs as f64 / secs,
        secs,
        overhead_x,
        out.stats.spilled_chunks,
        out.stats.spilled_bytes,
        out.stats.replayed_parents,
        out.stats.orbit_hits,
        out.stats.peak_resident_states,
        out.stats.peak_frontier,
        out.stats.threads,
        out.stats.shards,
    )
}

fn main() {
    let max_depth: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(22);
    let spill_budget: usize = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(SPILL_BUDGET);
    let active = [ProcessId::new(0), ProcessId::new(1)];
    let safety = ConsensusSafety::new();
    // Every unreduced arm pins symmetry *off* (their count assertions
    // compare against the retained baseline, which has no reduction), so
    // the table stays meaningful under `SLX_ENGINE_SYMMETRY=1`; the sym
    // arm pins it *on* symmetrically.
    let sharded_checker = Checker::auto().with_mem_budget(0).with_symmetry(false);
    let sym_checker = Checker::auto().with_mem_budget(0).with_symmetry(true);
    let replay_checker = Checker::auto()
        .with_mem_budget(spill_budget)
        .with_spill_codec(SpillCodec::Replay)
        .with_symmetry(false);
    let delta_checker = Checker::auto()
        .with_mem_budget(spill_budget)
        .with_spill_codec(SpillCodec::Delta)
        .with_symmetry(false);
    let plain_checker = Checker::auto()
        .with_mem_budget(spill_budget)
        .with_spill_codec(SpillCodec::Plain)
        .with_symmetry(false);
    let single_shard_checker = Checker::auto()
        .with_shards(1)
        .with_mem_budget(0)
        .with_symmetry(false);
    // The checkpoint arm: identical to the sharded arm plus a committed
    // image every `CKPT_EVERY` levels — the wall-clock ratio between the
    // two is the whole cost of crash tolerance (target <= 1.10x).
    const CKPT_EVERY: usize = 4;
    let ckpt_dir = std::env::temp_dir().join(format!("slx-bench-ckpt-{}", std::process::id()));
    let ckpt_checker = Checker::auto()
        .with_mem_budget(0)
        .with_symmetry(false)
        .with_checkpoint(&ckpt_dir, CKPT_EVERY);
    let mut threads_used = 1;
    let mut shards_used = 1;
    let mut balance = 1.0f64;
    let mut replay_bytes = 0u64;
    let mut replay_parents = 0usize;
    let mut delta_bytes = 0u64;
    let mut plain_bytes = 0u64;
    let mut spill_resident = 0usize;
    let mut spill_peak_frontier = 0usize;
    let mut worst_replay_overhead = 0.0f64;
    let mut worst_delta_overhead = 0.0f64;
    let mut worst_plain_overhead = 0.0f64;
    let mut worst_ckpt_overhead = 0.0f64;
    let mut ckpt_images = 0usize;
    let mut json_lines: Vec<String> = Vec::new();

    let mut sym_reduction = 1.0f64;
    let mut sym_speedup = 1.0f64;
    println!(
        "{:>6} {:>10} {:>10} {:>13} {:>13} {:>13} {:>13} {:>13} {:>13} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "depth",
        "configs",
        "sym conf",
        "sharded st/s",
        "sym st/s",
        "spill-R st/s",
        "spill-Δ st/s",
        "spill-≡ st/s",
        "1-shard st/s",
        "R x",
        "Δ x",
        "plain x",
        "vs base",
        "sym /x",
        "ckpt x"
    );
    for depth in (10..=max_depth).step_by(4) {
        let sys = of_system(&[1, 2]);

        // Best-of-3 per configuration: these explorations are
        // milliseconds long, so a single sample is allocator/scheduler
        // noise.
        let measure = |run: &dyn Fn() -> ExploreOutcome| {
            let mut best_secs = f64::INFINITY;
            let mut out = None;
            for _ in 0..3 {
                let t = Instant::now();
                let result = run();
                best_secs = best_secs.min(t.elapsed().as_secs_f64());
                out = Some(result);
            }
            (out.expect("ran at least once"), best_secs)
        };
        let explore = |checker: &Checker| {
            explore_safety_with(checker, &sys, &active, depth, &safety, history_digest)
        };

        let (sharded, sharded_secs) = measure(&|| explore(&sharded_checker));
        let (sym, sym_secs) = measure(&|| explore(&sym_checker));
        let (replay, replay_secs) = measure(&|| explore(&replay_checker));
        let (delta, delta_secs) = measure(&|| explore(&delta_checker));
        let (plain, plain_secs) = measure(&|| explore(&plain_checker));
        let (single, single_secs) = measure(&|| explore(&single_shard_checker));
        let (ckpt, ckpt_secs) = measure(&|| explore(&ckpt_checker));
        let (baseline, baseline_secs) =
            measure(&|| explore_safety_retained(&sys, &active, depth, &safety, history_digest));

        assert_eq!(
            sharded.holds(),
            baseline.holds(),
            "verdicts must agree at depth {depth}"
        );
        assert_eq!(
            sharded.configs, baseline.configs,
            "visited counts must agree at depth {depth}"
        );
        assert_eq!(
            sharded.configs, single.configs,
            "shard count must not change visited counts at depth {depth}"
        );
        assert_eq!(sharded.holds(), single.holds());
        for (spill, name) in [(&replay, "replay"), (&delta, "delta"), (&plain, "plain")] {
            assert_eq!(
                spill.configs, sharded.configs,
                "{name} spilling must not change visited counts at depth {depth}"
            );
            assert_eq!(spill.holds(), sharded.holds(), "{name} at depth {depth}");
            assert_eq!(
                spill.stats.dedup_hits, sharded.stats.dedup_hits,
                "{name} spilling must not change dedup accounting at depth {depth}"
            );
        }
        // The symmetry quotient preserves the verdict while shrinking
        // the visited set — never growing it.
        assert_eq!(
            sym.holds(),
            sharded.holds(),
            "symmetry must preserve the verdict at depth {depth}"
        );
        // The quotient may only *finish earlier*: the round-shift
        // canonicalization folds the unbounded round climb into a finite
        // state space, so past ~depth 26 the sym arm saturates (explores
        // its whole quotient) while the unreduced arm truncates forever.
        assert!(
            sym.truncated == sharded.truncated || !sym.truncated,
            "the quotient must never truncate where the full run completes \
             (depth {depth})"
        );
        assert!(
            sym.configs <= sharded.configs,
            "the quotient must not grow the visited set at depth {depth}"
        );
        assert_eq!(
            sharded.stats.orbit_hits, 0,
            "symmetry-off arm, depth {depth}"
        );
        // Checkpointing is a pure observer: identical verdict, counts,
        // and dedup accounting, plus one committed image per boundary.
        assert_eq!(ckpt.holds(), sharded.holds(), "ckpt arm at depth {depth}");
        assert_eq!(
            ckpt.configs, sharded.configs,
            "checkpointing must not change visited counts at depth {depth}"
        );
        assert_eq!(
            ckpt.stats.dedup_hits, sharded.stats.dedup_hits,
            "checkpointing must not change dedup accounting at depth {depth}"
        );
        assert!(
            ckpt.stats.checkpoints_written >= depth / CKPT_EVERY,
            "ckpt arm must commit images at depth {depth}"
        );

        threads_used = sharded.stats.threads;
        shards_used = sharded.stats.shards;
        balance = sharded.stats.shard_balance();
        replay_bytes = replay.stats.spilled_bytes;
        replay_parents = replay.stats.replayed_parents;
        delta_bytes = delta.stats.spilled_bytes;
        plain_bytes = plain.stats.spilled_bytes;
        spill_resident = delta.stats.peak_resident_states;
        spill_peak_frontier = delta.stats.peak_frontier;
        let sharded_rate = sharded.configs as f64 / sharded_secs;
        let sym_rate = sym.configs as f64 / sym_secs;
        sym_reduction = sharded.configs as f64 / sym.configs as f64;
        sym_speedup = sharded_secs / sym_secs;
        let replay_rate = replay.configs as f64 / replay_secs;
        let delta_rate = delta.configs as f64 / delta_secs;
        let plain_rate = plain.configs as f64 / plain_secs;
        let single_rate = single.configs as f64 / single_secs;
        let baseline_rate = baseline.configs as f64 / baseline_secs;
        let replay_overhead = sharded_rate / replay_rate;
        let delta_overhead = sharded_rate / delta_rate;
        let plain_overhead = sharded_rate / plain_rate;
        // Same-depth wall-clock ratio, like the sym arm: the states/sec
        // comparison would double-count since both arms visit the same
        // set.
        let ckpt_overhead = ckpt_secs / sharded_secs;
        worst_replay_overhead = worst_replay_overhead.max(replay_overhead);
        worst_delta_overhead = worst_delta_overhead.max(delta_overhead);
        worst_plain_overhead = worst_plain_overhead.max(plain_overhead);
        worst_ckpt_overhead = worst_ckpt_overhead.max(ckpt_overhead);
        ckpt_images = ckpt.stats.checkpoints_written;
        println!(
            "{:>6} {:>10} {:>10} {:>13.0} {:>13.0} {:>13.0} {:>13.0} {:>13.0} {:>13.0} \
             {:>7.2}x {:>7.2}x {:>7.2}x {:>7.2}x {:>7.2}x {:>7.2}x",
            depth,
            sharded.configs,
            sym.configs,
            sharded_rate,
            sym_rate,
            replay_rate,
            delta_rate,
            plain_rate,
            single_rate,
            replay_overhead,
            delta_overhead,
            plain_overhead,
            sharded_rate / baseline_rate,
            sym_reduction,
            ckpt_overhead,
        );
        const WORKLOAD: &str = "fig1a-of-consensus";
        json_lines.push(json_line(
            WORKLOAD,
            depth,
            "sharded",
            &sharded,
            sharded_secs,
            1.0,
        ));
        // The sym arm explores a *quotient*: states/sec is not the
        // comparable figure, wall-clock for the same depth is, so its
        // `overhead_x` records elapsed-time ratio (< 1 means the
        // reduction pays for its canonicalization).
        json_lines.push(json_line(
            WORKLOAD,
            depth,
            "sym",
            &sym,
            sym_secs,
            sym_secs / sharded_secs,
        ));
        json_lines.push(json_line(
            WORKLOAD,
            depth,
            "spill-replay",
            &replay,
            replay_secs,
            replay_overhead,
        ));
        json_lines.push(json_line(
            WORKLOAD,
            depth,
            "spill-delta",
            &delta,
            delta_secs,
            delta_overhead,
        ));
        json_lines.push(json_line(
            WORKLOAD,
            depth,
            "spill-plain",
            &plain,
            plain_secs,
            plain_overhead,
        ));
        json_lines.push(json_line(
            WORKLOAD,
            depth,
            "single-shard",
            &single,
            single_secs,
            sharded_rate / single_rate,
        ));
        // Like sym, `overhead_x` is the same-depth elapsed-time ratio
        // against the sharded (checkpoint-off) arm — the acceptance
        // target is <= 1.10x.
        json_lines.push(json_line(
            WORKLOAD,
            depth,
            "ckpt-every-4",
            &ckpt,
            ckpt_secs,
            ckpt_overhead,
        ));
        json_lines.push(json_line(
            WORKLOAD,
            depth,
            "retained-baseline",
            &baseline,
            baseline_secs,
            sharded_rate / baseline_rate,
        ));
    }
    // ---- the n = 3 grid point ----------------------------------------
    // One process count above the previously benched limit: a generic
    // 3-process orbit has up to 3! members, so this is where the
    // quotient graduates from a constant factor to the difference
    // between fitting the depth budget and not. Inputs (1, 2, 2) keep
    // the Fig 1a regime (bivalent — two distinct proposals) while
    // leaving processes 1 and 2 interchangeable.
    let n3_depth: usize = std::env::args()
        .nth(3)
        .and_then(|a| a.parse().ok())
        .unwrap_or(22);
    let sys3 = of_system(&[1, 2, 2]);
    let active3 = [ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)];
    // Best-of-3 here too: the checkpoint arm's acceptance ratio is read
    // off this point, and single samples carry cold-cache warmup noise
    // larger than the effect being measured.
    let explore3 = |checker: &Checker| {
        let mut best_secs = f64::INFINITY;
        let mut out = None;
        for _ in 0..3 {
            let t = Instant::now();
            let result =
                explore_safety_with(checker, &sys3, &active3, n3_depth, &safety, history_digest);
            best_secs = best_secs.min(t.elapsed().as_secs_f64());
            out = Some(result);
        }
        (out.expect("ran at least once"), best_secs)
    };
    let (full3, full3_secs) = explore3(&sharded_checker);
    let (sym3, sym3_secs) = explore3(&sym_checker);
    // The checkpoint arms at amortizing scale: a durable commit costs a
    // few ms of fdatasync latency (the CPU side — snapshot, encode,
    // checksum — measures as free against a tmpfs directory), which
    // swamps the millisecond-long n=2 rows above no matter the cadence.
    // Here the commits ride a run long enough to absorb them: every-4 is
    // the machinery-stress cadence (a commit per ~25 ms of work — far
    // more often than any operational setting), every-8 the acceptance
    // cadence the <= 1.10x target is read from.
    // Samples for the three arms interleave round-robin (rather than
    // best-of-3 per arm back to back) so a stretch of slow disk or a
    // thermal dip hits all arms alike instead of skewing one ratio.
    let ckpt8_dir = std::env::temp_dir().join(format!("slx-bench-ckpt8-{}", std::process::id()));
    let ckpt8_checker = Checker::auto()
        .with_mem_budget(0)
        .with_symmetry(false)
        .with_checkpoint(&ckpt8_dir, 2 * CKPT_EVERY);
    let one3 = |checker: &Checker| {
        let t = Instant::now();
        let out = explore_safety_with(checker, &sys3, &active3, n3_depth, &safety, history_digest);
        (out, t.elapsed().as_secs_f64())
    };
    let mut base3_secs = f64::INFINITY;
    let mut ckpt3_secs = f64::INFINITY;
    let mut ckpt8_secs = f64::INFINITY;
    let mut ckpt3 = None;
    let mut ckpt8 = None;
    for _ in 0..3 {
        base3_secs = base3_secs.min(one3(&sharded_checker).1);
        let (out, secs) = one3(&ckpt_checker);
        ckpt3_secs = ckpt3_secs.min(secs);
        ckpt3 = Some(out);
        let (out, secs) = one3(&ckpt8_checker);
        ckpt8_secs = ckpt8_secs.min(secs);
        ckpt8 = Some(out);
    }
    let (ckpt3, ckpt8) = (ckpt3.expect("sampled"), ckpt8.expect("sampled"));
    assert_eq!(ckpt3.holds(), full3.holds(), "n=3 ckpt verdict must agree");
    assert_eq!(ckpt3.configs, full3.configs, "n=3 ckpt counts must agree");
    assert_eq!(
        ckpt8.holds(),
        full3.holds(),
        "n=3 ckpt-8 verdict must agree"
    );
    assert_eq!(ckpt8.configs, full3.configs, "n=3 ckpt-8 counts must agree");
    let ckpt3_overhead = ckpt3_secs / base3_secs;
    let ckpt8_overhead = ckpt8_secs / base3_secs;
    let _ = std::fs::remove_dir_all(&ckpt8_dir);
    assert_eq!(sym3.holds(), full3.holds(), "n=3 verdicts must agree");
    assert_eq!(sym3.truncated, full3.truncated, "n=3 truncation must agree");
    assert!(sym3.configs < full3.configs);
    assert!(sym3.stats.orbit_hits > 0);
    println!(
        "\nn=3 grid point (inputs 1,2,2; depth {n3_depth}): {} configs unreduced \
         ({full3_secs:.3}s) vs {} under symmetry ({sym3_secs:.3}s) — {:.2}x fewer \
         states, {:.2}x wall-clock, {} orbit hits",
        full3.configs,
        sym3.configs,
        full3.configs as f64 / sym3.configs as f64,
        full3_secs / sym3_secs,
        sym3.stats.orbit_hits,
    );
    const WORKLOAD3: &str = "fig1a-of-consensus-n3";
    json_lines.push(json_line(
        WORKLOAD3, n3_depth, "sharded", &full3, full3_secs, 1.0,
    ));
    json_lines.push(json_line(
        WORKLOAD3,
        n3_depth,
        "sym",
        &sym3,
        sym3_secs,
        sym3_secs / full3_secs,
    ));
    json_lines.push(json_line(
        WORKLOAD3,
        n3_depth,
        "ckpt-every-4",
        &ckpt3,
        ckpt3_secs,
        ckpt3_overhead,
    ));
    json_lines.push(json_line(
        WORKLOAD3,
        n3_depth,
        "ckpt-every-8",
        &ckpt8,
        ckpt8_secs,
        ckpt8_overhead,
    ));

    println!(
        "\nengine backend: {threads_used} thread(s), {shards_used} visited-set shard(s) \
         (occupancy balance {balance:.2}); dedup on 128-bit fingerprints \
         (baseline retains full configuration clones). \
         Knobs: SLX_ENGINE_THREADS, SLX_ENGINE_SHARDS, SLX_ENGINE_MEM_BUDGET, \
         SLX_ENGINE_SPILL_DIR, SLX_ENGINE_SPILL_CODEC."
    );
    println!(
        "checkpoint arms: a durable commit is a few ms of fdatasync latency (the \
         snapshot/encode/checksum side measures as free on tmpfs), so the \
         millisecond n=2 rows are floor-dominated (worst {worst_ckpt_overhead:.2}x \
         at every-{CKPT_EVERY}, {ckpt_images} images at the deepest row). At the \
         n=3 grid point the commits amortize: every-{CKPT_EVERY} (a commit per \
         ~25 ms of work) costs {ckpt3_overhead:.2}x, every-{} costs \
         {ckpt8_overhead:.2}x wall-clock vs checkpoint-off — the crash-tolerance \
         acceptance row (target <= 1.10x, {} images over {:.3}s). Pick a cadence \
         whose inter-commit work dwarfs the commit.",
        2 * CKPT_EVERY,
        ckpt8.stats.checkpoints_written,
        ckpt8_secs,
    );
    println!(
        "spill arms (last row): {spill_budget}-byte budget; replay codec wrote \
         {replay_bytes} bytes re-expanding {replay_parents} parents (delta: \
         {delta_bytes} bytes, plain: {plain_bytes} bytes), peak {spill_resident} \
         resident of {spill_peak_frontier} frontier states (delta arm); worst \
         in-memory/spill ratio {worst_replay_overhead:.2}x replay vs \
         {worst_delta_overhead:.2}x delta vs {worst_plain_overhead:.2}x plain \
         (beyond-RAM target <= 1.10x; met through mid depths on the \
         reference run — see EXPERIMENTS.md for the per-depth picture).\n"
    );
    println!(
        "symmetry arm (last n=2 row): {sym_reduction:.2}x fewer states, \
         {sym_speedup:.2}x wall-clock vs unreduced at the same depth \
         (canonical process-permutation + round-shift digests; knob: \
         SLX_ENGINE_SYMMETRY or Checker::with_symmetry).\n"
    );
    for line in json_lines {
        println!("{line}");
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}
