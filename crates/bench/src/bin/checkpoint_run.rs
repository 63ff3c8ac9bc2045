//! `checkpoint_run` — the CI crash/resume probe.
//!
//! Runs the Figure 1a obstruction-free-consensus safety exploration with
//! checkpointing into a caller-owned directory, *resuming* from that
//! directory when it already holds a committed image. The binary is
//! built so a harness can exercise a **real** crash — not an injected
//! panic — end to end:
//!
//! ```text
//! checkpoint_run <dir> <depth> [every]        # fresh or resumed run
//! SLX_CKPT_RUN_STALL_AFTER=<n> checkpoint_run ...   # park after n levels
//! ```
//!
//! 1. start `checkpoint_run` with `SLX_CKPT_RUN_STALL_AFTER` set: the run
//!    commits checkpoints at the cadence and then sleeps forever once the
//!    stall level is reached (a deterministic window for the harness to
//!    land its signal in),
//! 2. `kill -9` it mid-run,
//! 3. rerun without the stall variable: the run resumes from the last
//!    committed image and finishes,
//! 4. diff the final `verdict ...` line against an uninterrupted run's —
//!    the resume contract makes them byte-identical.
//!
//! The stall (instead of killing at a random moment) keeps the probe
//! deterministic: the harness knows at least `n / every` images were
//! committed before the SIGKILL lands, so the resume path — not the
//! fresh-start fallback — is what the diff exercises.

use slx_bench::of_system;
use slx_core::engine::{Checker, CheckpointStore};
use slx_core::explorer::{explore_safety_with, history_digest};
use slx_core::history::ProcessId;
use slx_core::safety::ConsensusSafety;

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = std::path::PathBuf::from(args.next().unwrap_or_else(|| {
        eprintln!("usage: checkpoint_run <dir> <depth> [every]");
        std::process::exit(2);
    }));
    let depth: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| {
        eprintln!("usage: checkpoint_run <dir> <depth> [every]");
        std::process::exit(2);
    });
    let every: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2);

    let stall_after = slx_core::engine::knobs::SLX_CKPT_RUN_STALL_AFTER.usize_value();

    let resuming = CheckpointStore::exists(&dir);
    let checker = Checker::auto().with_symmetry(false).with_mem_budget(0);
    let checker = checker.with_checkpoint(&dir, every);
    let checker = if resuming {
        checker.resume(&dir)
    } else {
        checker
    };

    let sys = of_system(&[1, 2]);
    let active = [ProcessId::new(0), ProcessId::new(1)];
    let safety = ConsensusSafety::new();

    if let Some(stall_levels) = stall_after {
        // Run the prefix only (deep enough to commit images), then park:
        // the harness's `kill -9` lands while this process sleeps, which
        // models a crash strictly after the prefix's last commit.
        let out = explore_safety_with(
            &checker,
            &sys,
            &active,
            stall_levels,
            &safety,
            history_digest,
        );
        eprintln!(
            "stalled after {stall_levels} levels ({} configs, {} checkpoints) — awaiting SIGKILL",
            out.configs, out.stats.checkpoints_written
        );
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }

    let out = explore_safety_with(&checker, &sys, &active, depth, &safety, history_digest);
    eprintln!(
        "{} from depth {:?}: {} checkpoints committed",
        if resuming { "resumed" } else { "fresh run" },
        out.stats.resumed_from_depth,
        out.stats.checkpoints_written,
    );
    // The diffable contract line: everything the resume guarantee pins,
    // on stdout, stable across fresh/crashed+resumed executions.
    println!(
        "verdict={} configs={} transitions={} dedup_hits={} peak_frontier={} truncated={}",
        if out.holds() { "holds" } else { "violated" },
        out.configs,
        out.stats.transitions,
        out.stats.dedup_hits,
        out.stats.peak_frontier,
        out.stats.truncated,
    );
}
