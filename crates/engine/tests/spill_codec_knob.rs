//! The environment does not configure a run: a [`Checker`] is exactly
//! what its builder says. Every variable that once fed a kernel setting
//! is set here — to a value that would have changed the run, then to
//! junk that would have panicked — and the checkers must report the
//! statistics they report with the variables unset. The two knobs that
//! remain (both read by the `slx_server` binary only) keep their accept
//! and reject contract: a malformed value is a hard error naming the
//! variable and the offender, never a silent default.
//!
//! Lives in its own test binary (= its own process), and one `#[test]`
//! keeps the mutations sequential: the environment is process-wide.

use std::time::Duration;

use slx_engine::knobs::{SLX_ENGINE_FAULT_PLAN, SLX_SERVER_STALL_AFTER};
use slx_engine::{Checker, ExploreStats, FaultPlan};

mod common;
use common::SymGrid;

/// Every kernel variable the workspace ever read, including the two
/// checkpoint variables retired before the others.
const FORMER_ENGINE_VARS: [&str; 8] = [
    "SLX_ENGINE_THREADS",
    "SLX_ENGINE_SHARDS",
    "SLX_ENGINE_MEM_BUDGET",
    "SLX_ENGINE_SPILL_DIR",
    "SLX_ENGINE_SPILL_CODEC",
    "SLX_ENGINE_SYMMETRY",
    "SLX_ENGINE_CHECKPOINT_DIR",
    "SLX_ENGINE_CHECKPOINT_EVERY",
];

const REMAINING_VARS: [&str; 2] = ["SLX_ENGINE_FAULT_PLAN", "SLX_SERVER_STALL_AFTER"];

fn set_env(env: &[(&str, &str)]) {
    for var in FORMER_ENGINE_VARS.iter().chain(&REMAINING_VARS) {
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

/// Renders a caught panic payload for message assertions.
fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

#[test]
fn the_environment_changes_no_run_and_the_server_knobs_reject_junk() {
    set_env(&[]);
    let reference = runs();
    let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!((reference[0].threads, reference[1].threads), (1, machine));
    assert!(!reference[0].symmetry && reference[0].mem_budget.is_none());

    let spill_dir = std::env::temp_dir().join(format!("slx-knob-spill-{}", std::process::id()));
    let ckpt_dir = std::env::temp_dir().join(format!("slx-knob-ckpt-{}", std::process::id()));
    let (spill, ckpt) = (spill_dir.to_str().unwrap(), ckpt_dir.to_str().unwrap());
    // Each value was accepted once and would have changed the run: more
    // threads and shards, a spilling replay frontier in a directory of
    // its own, the symmetry quotient, faults on every spill write, and
    // checkpoints every level.
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
    ];
    for env in [&effective[..], &junk[..]] {
        set_env(env);
        assert_eq!(runs(), reference, "under {env:?}");
    }
    assert!(!spill_dir.exists(), "no spill directory may be created");
    assert!(!ckpt_dir.exists(), "no checkpoint directory may be created");

    // The crash-probe stall: a positive integer; unset and empty mean
    // "never stall".
    for (env, want) in [
        (&[][..], None),
        (&[("SLX_SERVER_STALL_AFTER", "")][..], None),
        (&[("SLX_SERVER_STALL_AFTER", "9")][..], Some(9)),
    ] {
        set_env(env);
        assert_eq!(SLX_SERVER_STALL_AFTER.usize_value(), want, "{env:?}");
    }
    for value in ["0", "nine", "-1", "1.5", "0x10"] {
        set_env(&[("SLX_SERVER_STALL_AFTER", value)]);
        let message = panic_message(
            std::panic::catch_unwind(|| SLX_SERVER_STALL_AFTER.usize_value())
                .expect_err("a malformed stall must panic"),
        );
        assert!(
            message.contains("SLX_SERVER_STALL_AFTER") && message.contains(value),
            "{value:?} must fail naming the variable and the offender: {message}"
        );
    }

    // The server's fault plan: handed through verbatim, parsed by the
    // plan grammar, whose errors name the offending part.
    for env in [&[][..], &[("SLX_ENGINE_FAULT_PLAN", "")][..]] {
        set_env(env);
        assert_eq!(SLX_ENGINE_FAULT_PLAN.text_value(), None, "{env:?}");
    }
    set_env(&[("SLX_ENGINE_FAULT_PLAN", "seed=9,rate=96")]);
    let text = SLX_ENGINE_FAULT_PLAN.text_value().expect("set");
    assert_eq!(
        FaultPlan::parse(&text),
        Ok(FaultPlan::seeded(9).with_rate(96))
    );
    let rejected: [(&str, &[&str]); 4] = [
        ("seed", &["key=value", "\"seed\""]),
        ("seed=nope", &["seed", "\"nope\""]),
        ("seed=1,rate=4096", &["rate", "4096"]),
        ("seed=1,ops=spill-wrte", &["op", "\"spill-wrte\""]),
    ];
    for (value, names) in rejected {
        set_env(&[("SLX_ENGINE_FAULT_PLAN", value)]);
        let text = SLX_ENGINE_FAULT_PLAN.text_value().expect("set");
        let err = FaultPlan::parse(&text).expect_err("a malformed plan must be refused");
        assert!(
            names.iter().all(|name| err.contains(name)),
            "{value:?} must fail naming the offender: {err}"
        );
    }
    set_env(&[]);
}
