//! The environment does not configure a run: a [`Checker`] is exactly
//! what its builder says. Every `SLX_*` variable the workspace ever read
//! is set here — to a value that would have changed the run, then to
//! junk that would have panicked — and the checkers must report the
//! statistics they report with the variables unset.
//!
//! Lives in its own test binary (= its own process), and one `#[test]`
//! keeps the mutations sequential: the environment is process-wide.

use std::time::Duration;

use slx_engine::{Checker, ExploreStats};

mod common;
use common::SymGrid;

/// Every variable the workspace ever read: the eight kernel settings
/// and the `slx_server` fault plan and crash-probe stall.
const RETIRED_VARS: [&str; 10] = [
    "SLX_ENGINE_THREADS",
    "SLX_ENGINE_SHARDS",
    "SLX_ENGINE_MEM_BUDGET",
    "SLX_ENGINE_SPILL_DIR",
    "SLX_ENGINE_SPILL_CODEC",
    "SLX_ENGINE_SYMMETRY",
    "SLX_ENGINE_CHECKPOINT_DIR",
    "SLX_ENGINE_CHECKPOINT_EVERY",
    "SLX_ENGINE_FAULT_PLAN",
    "SLX_SERVER_STALL_AFTER",
];

fn set_env(env: &[(&str, &str)]) {
    for var in RETIRED_VARS {
        std::env::remove_var(var);
    }
    for (var, value) in env {
        std::env::set_var(var, value);
    }
}

/// A run's statistics without its wall clock.
fn timeless(mut stats: ExploreStats) -> ExploreStats {
    stats.elapsed = Duration::ZERO;
    stats
}

/// The two constructors, run on a space with a symmetry reduction so
/// that a symmetry setting, too, would show in the counts.
fn runs() -> [ExploreStats; 2] {
    let space = SymGrid::new(12);
    [Checker::parallel_bfs(1), Checker::auto()]
        .map(|checker| timeless(checker.run(&space, vec![(0, 0)]).stats))
}

#[test]
fn the_environment_changes_no_run() {
    set_env(&[]);
    let reference = runs();
    let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!((reference[0].threads, reference[1].threads), (1, machine));
    assert!(!reference[0].symmetry && reference[0].mem_budget.is_none());
    assert_eq!(reference[0].faults_injected, 0);

    let spill_dir = std::env::temp_dir().join(format!("slx-knob-spill-{}", std::process::id()));
    let ckpt_dir = std::env::temp_dir().join(format!("slx-knob-ckpt-{}", std::process::id()));
    let (spill, ckpt) = (spill_dir.to_str().unwrap(), ckpt_dir.to_str().unwrap());
    // Each value was accepted once and would have changed the run: more
    // threads and shards, a spilling replay frontier in a directory of
    // its own, the symmetry quotient, faults on every spill write,
    // checkpoints every level, and a parked run.
    let effective = [
        ("SLX_ENGINE_THREADS", "7"),
        ("SLX_ENGINE_SHARDS", "64"),
        ("SLX_ENGINE_MEM_BUDGET", "64"),
        ("SLX_ENGINE_SPILL_DIR", spill),
        ("SLX_ENGINE_SPILL_CODEC", "replay"),
        ("SLX_ENGINE_SYMMETRY", "1"),
        ("SLX_ENGINE_FAULT_PLAN", "seed=1,rate=1024,ops=spill-write"),
        ("SLX_ENGINE_CHECKPOINT_DIR", ckpt),
        ("SLX_ENGINE_CHECKPOINT_EVERY", "1"),
        ("SLX_SERVER_STALL_AFTER", "1"),
    ];
    // Each value once panicked, naming the variable.
    let junk = [
        ("SLX_ENGINE_THREADS", "two"),
        ("SLX_ENGINE_SHARDS", "0x10"),
        ("SLX_ENGINE_MEM_BUDGET", "lots"),
        ("SLX_ENGINE_SPILL_CODEC", "rplay"),
        ("SLX_ENGINE_SYMMETRY", "yes"),
        ("SLX_ENGINE_FAULT_PLAN", "seed=nope"),
        ("SLX_ENGINE_CHECKPOINT_EVERY", "every-sunday"),
        ("SLX_SERVER_STALL_AFTER", "0"),
    ];
    for env in [&effective[..], &junk[..]] {
        set_env(env);
        assert_eq!(runs(), reference, "under {env:?}");
    }
    assert!(!spill_dir.exists(), "no spill directory may be created");
    assert!(!ckpt_dir.exists(), "no checkpoint directory may be created");
    set_env(&[]);
}
