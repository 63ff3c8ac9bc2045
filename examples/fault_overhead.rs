//! `fault_overhead` — the fault plane must be free when it is off.
//!
//! Runs the Figure 1a obstruction-free-consensus row at one depth under
//! a spill budget (so the exploration actually crosses the plane's
//! spill-path seams every chunk) on two arms:
//!
//! - **fault-plane-off** — no fault plan, the seams reduce to an
//!   inlined `None` check on a disabled plane;
//! - **fault-plane-rate0** — a plane armed with an injection rate of
//!   zero: every seam consults the seeded schedule and never injects.
//!
//! Samples interleave round-robin (a batch of runs per arm per round,
//! best batch kept) so scheduler noise hits both arms alike. The smoke
//! assertion is two-sided: each arm must stay within the acceptance
//! ratio (1.02x) of the other — a disabled plane costs nothing over an
//! armed-but-silent one, and arming the schedule costs nothing over the
//! inlined no-op — and both arms must report `faults_injected == 0`.
//!
//! Run with: `cargo run --release --example fault_overhead`

use std::time::Instant;

use safety_liveness_exclusion::consensus::ObstructionFreeConsensus;
use safety_liveness_exclusion::engine::{Checker, FaultPlan, SpillCodec};
use safety_liveness_exclusion::explorer::{explore_safety_with, history_digest, ExploreOutcome};
use safety_liveness_exclusion::history::ProcessId;
use safety_liveness_exclusion::safety::ConsensusSafety;

/// Acceptance ratio for the smoke assertion, both directions.
const MAX_OVERHEAD: f64 = 1.02;

/// Exploration depth of one run.
const DEPTH: usize = 26;

/// Rounds of samples; the best batch per arm is kept.
const ROUNDS: usize = 10;

/// Explorations per timed sample.
const BATCH: usize = 16;

/// Frontier budget forcing the depth-26 row through the spill seams.
const SPILL_BUDGET: usize = 8 * 1024;

fn main() {
    // 16 rounds: ample for depth 26 at 2n + 2 steps a round.
    let sys = ObstructionFreeConsensus::proposers(&[1, 2], 16);
    let active = [ProcessId::new(0), ProcessId::new(1)];
    let safety = ConsensusSafety::new();
    let off_checker = Checker::auto()
        .with_mem_budget(SPILL_BUDGET)
        .with_spill_codec(SpillCodec::Delta)
        .with_symmetry(false);
    // Rate 0 out of 1024: the schedule is consulted on every seam
    // crossing and never fires — the pure cost of an armed plane.
    let rate0_checker = off_checker
        .clone()
        .with_fault_plan(FaultPlan::seeded(7).with_rate(0));

    let explore = |checker: &Checker| {
        explore_safety_with(checker, &sys, &active, DEPTH, &safety, history_digest)
    };
    // One timed sample is a whole batch of explorations: the single runs
    // are milliseconds long, far below the 2% being resolved.
    let sample = |checker: &Checker| -> (ExploreOutcome, f64) {
        let t = Instant::now();
        let mut out = None;
        for _ in 0..BATCH {
            out = Some(explore(checker));
        }
        (out.expect("batch is nonempty"), t.elapsed().as_secs_f64())
    };

    let mut off_secs = f64::INFINITY;
    let mut rate0_secs = f64::INFINITY;
    let mut off = None;
    let mut rate0 = None;
    for _ in 0..ROUNDS {
        let (out, secs) = sample(&off_checker);
        off_secs = off_secs.min(secs);
        off = Some(out);
        let (out, secs) = sample(&rate0_checker);
        rate0_secs = rate0_secs.min(secs);
        rate0 = Some(out);
    }
    let (off, rate0) = (off.expect("sampled"), rate0.expect("sampled"));

    assert_eq!(off.holds(), rate0.holds(), "verdicts must agree");
    assert_eq!(off.configs, rate0.configs, "visited counts must agree");
    assert!(
        off.stats.spilled_chunks > 0 && rate0.stats.spilled_chunks > 0,
        "the budget must force both arms through the spill seams"
    );
    assert_eq!(
        off.stats.faults_injected, 0,
        "no plan armed: the counter must stay zero"
    );
    assert_eq!(off.stats.io_retries, 0);
    assert_eq!(
        rate0.stats.faults_injected, 0,
        "rate-0 plan: consulted, never fires"
    );

    let off_x = off_secs / rate0_secs;
    let rate0_x = rate0_secs / off_secs;
    println!(
        "fault plane overhead (depth {DEPTH}, {} configs, {} spilled chunks, \
         best-of-{ROUNDS} batches of {BATCH}): off {off_secs:.4}s vs rate-0 \
         {rate0_secs:.4}s — off/rate0 {off_x:.3}x, rate0/off {rate0_x:.3}x \
         (acceptance <= {MAX_OVERHEAD}x each way)",
        off.configs, off.stats.spilled_chunks,
    );
    assert!(
        off_x <= MAX_OVERHEAD && rate0_x <= MAX_OVERHEAD,
        "fault-plane overhead out of budget: off/rate0 {off_x:.3}x, \
         rate0/off {rate0_x:.3}x (max {MAX_OVERHEAD}x)"
    );
}
