//! The `SLX_ENGINE_*` environment knobs, as one precedence table over
//! [`Checker::resolve`]: builder pin over variable over default.
//!
//! Lives in its own test binary (= its own process): the sibling suites
//! resolve these knobs from the environment on every run, so mutating the
//! variables — in particular parking invalid values on them while probing
//! the panic paths — from inside their process would race them. One
//! `#[test]` keeps the mutations sequential within this process too.
//!
//! Every knob shares one failure contract: a malformed value is a hard
//! error naming the variable and the offender, never a silent fall-back
//! to a default — the variables exist to pin CI comparison arms and
//! operational budgets, and a typo that silently meant "default" would
//! green-light a run that tested the wrong configuration.

use std::path::PathBuf;

use slx_engine::{Checker, Digest, Expansion, FaultPlan, RunConfig, SpillCodec, StateSpace};

/// Every variable a row may set; all are cleared before each row. The
/// last two were knobs once and must now be inert.
const VARS: [&str; 9] = [
    "SLX_ENGINE_THREADS",
    "SLX_ENGINE_SHARDS",
    "SLX_ENGINE_MEM_BUDGET",
    "SLX_ENGINE_SPILL_DIR",
    "SLX_ENGINE_SPILL_CODEC",
    "SLX_ENGINE_SYMMETRY",
    "SLX_ENGINE_FAULT_PLAN",
    "SLX_ENGINE_CHECKPOINT_DIR",
    "SLX_ENGINE_CHECKPOINT_EVERY",
];

fn set_env(env: &[(&str, &str)]) {
    for var in VARS {
        std::env::remove_var(var);
    }
    for (var, value) in env {
        std::env::set_var(var, value);
    }
}

/// One accepted configuration: under `env` (every other variable unset),
/// `checker()` resolves so that `field` renders as `want`.
struct Row {
    env: &'static [(&'static str, &'static str)],
    checker: fn() -> Checker,
    field: fn(&RunConfig) -> String,
    want: String,
}

fn row(
    env: &'static [(&'static str, &'static str)],
    checker: fn() -> Checker,
    field: fn(&RunConfig) -> String,
    want: impl std::fmt::Debug,
) -> Row {
    Row {
        env,
        checker,
        field,
        want: format!("{want:?}"),
    }
}

fn bfs1() -> Checker {
    Checker::parallel_bfs(1)
}

/// A checker that will spill, so the spill directory is looked up.
fn spilling() -> Checker {
    bfs1().with_mem_budget(4096)
}

fn threads(c: &RunConfig) -> String {
    format!("{:?}", c.threads)
}
fn shards(c: &RunConfig) -> String {
    format!("{:?}", c.shards)
}
fn mem_budget(c: &RunConfig) -> String {
    format!("{:?}", c.mem_budget)
}
fn spill_dir(c: &RunConfig) -> String {
    format!("{:?}", c.spill_dir)
}
fn codec(c: &RunConfig) -> String {
    format!("{:?}", c.spill_codec)
}
fn symmetry(c: &RunConfig) -> String {
    format!("{:?}", c.symmetry)
}
fn fault_plan(c: &RunConfig) -> String {
    format!("{:?}", c.fault_plan)
}
fn checkpoint(c: &RunConfig) -> String {
    format!("{:?}", (&c.checkpoint, &c.resume_from))
}

fn accepted() -> Vec<Row> {
    use SpillCodec::{Delta, Plain, Replay};
    const CODEC: &str = "SLX_ENGINE_SPILL_CODEC";
    const THREADS: &str = "SLX_ENGINE_THREADS";
    const SHARDS: &str = "SLX_ENGINE_SHARDS";
    const BUDGET: &str = "SLX_ENGINE_MEM_BUDGET";
    const DIR: &str = "SLX_ENGINE_SPILL_DIR";
    const SYM: &str = "SLX_ENGINE_SYMMETRY";
    const PLAN: &str = "SLX_ENGINE_FAULT_PLAN";
    let pin_plain = || bfs1().with_spill_codec(Plain);
    let pin_replay = || bfs1().with_spill_codec(Replay);
    let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
    let some_path = |path: &str| Some(PathBuf::from(path));
    vec![
        // Spill codec: unset and empty mean the default; the three
        // accepted values; a builder pin wins over every one of them.
        row(&[], bfs1, codec, Delta),
        row(&[(CODEC, "")], bfs1, codec, Delta),
        row(&[(CODEC, "delta")], bfs1, codec, Delta),
        row(&[(CODEC, "plain")], bfs1, codec, Plain),
        row(&[(CODEC, "replay")], bfs1, codec, Replay),
        row(&[], pin_plain, codec, Plain),
        row(&[], pin_replay, codec, Replay),
        row(&[(CODEC, "delta")], pin_plain, codec, Plain),
        row(&[(CODEC, "plain")], pin_plain, codec, Plain),
        row(&[(CODEC, "replay")], pin_plain, codec, Plain),
        row(&[(CODEC, "delta")], pin_replay, codec, Replay),
        // Threads: read by `Checker::auto` only; an explicit count never
        // consults the variable.
        row(&[(THREADS, "3")], Checker::auto, threads, 3),
        row(&[(THREADS, "")], Checker::auto, threads, machine),
        row(&[], Checker::auto, threads, machine),
        row(&[(THREADS, "3")], bfs1, threads, 1),
        // Shards: variable, else four per thread; the builder wins.
        row(&[(SHARDS, "16")], bfs1, shards, 16),
        row(&[(SHARDS, "16")], || bfs1().with_shards(4), shards, 4),
        row(&[(SHARDS, "")], || Checker::parallel_bfs(2), shards, 8),
        row(&[], bfs1, shards, 4),
        // Memory budget: zero is the documented "spilling off" pin, in
        // the variable and in the builder (where it shadows the variable).
        row(&[], bfs1, mem_budget, None::<usize>),
        row(&[(BUDGET, "")], bfs1, mem_budget, None::<usize>),
        row(&[(BUDGET, "4096")], bfs1, mem_budget, Some(4096)),
        row(&[(BUDGET, "0")], bfs1, mem_budget, None::<usize>),
        row(
            &[(BUDGET, "4096")],
            || bfs1().with_mem_budget(0),
            mem_budget,
            None::<usize>,
        ),
        row(&[], || bfs1().with_mem_budget(4096), mem_budget, Some(4096)),
        row(
            &[(BUDGET, "0")],
            || bfs1().with_mem_budget(512),
            mem_budget,
            Some(512),
        ),
        // Spill directory: looked up only by a run that can spill.
        row(&[(DIR, "/env/spill")], bfs1, spill_dir, None::<PathBuf>),
        row(
            &[(DIR, "/env/spill"), (BUDGET, "0")],
            bfs1,
            spill_dir,
            None::<PathBuf>,
        ),
        row(&[], spilling, spill_dir, Some(std::env::temp_dir())),
        row(
            &[(DIR, "")],
            spilling,
            spill_dir,
            Some(std::env::temp_dir()),
        ),
        row(
            &[(DIR, "/env/spill")],
            spilling,
            spill_dir,
            some_path("/env/spill"),
        ),
        row(
            &[(DIR, "/env/spill"), (BUDGET, "64")],
            bfs1,
            spill_dir,
            some_path("/env/spill"),
        ),
        row(
            &[(DIR, "/env/spill")],
            || spilling().with_spill_dir("/pin/spill"),
            spill_dir,
            some_path("/pin/spill"),
        ),
        // Symmetry: unreduced is the default; `with_symmetry(false)` pins
        // reference arms off even under SLX_ENGINE_SYMMETRY=1.
        row(&[], bfs1, symmetry, false),
        row(&[(SYM, "")], bfs1, symmetry, false),
        row(&[(SYM, "1")], bfs1, symmetry, true),
        row(&[(SYM, "true")], bfs1, symmetry, true),
        row(&[(SYM, "0")], bfs1, symmetry, false),
        row(&[(SYM, "false")], bfs1, symmetry, false),
        row(&[], || bfs1().with_symmetry(true), symmetry, true),
        row(
            &[(SYM, "1")],
            || bfs1().with_symmetry(false),
            symmetry,
            false,
        ),
        row(&[(SYM, "0")], || bfs1().with_symmetry(true), symmetry, true),
        // Fault plan: disarmed by default; the variable goes through the
        // plan grammar; the builder wins.
        row(&[], bfs1, fault_plan, None::<FaultPlan>),
        row(&[(PLAN, "")], bfs1, fault_plan, None::<FaultPlan>),
        row(
            &[(PLAN, "seed=9,rate=96")],
            bfs1,
            fault_plan,
            Some(FaultPlan::seeded(9).with_rate(96)),
        ),
        row(
            &[(PLAN, "seed=9,rate=96")],
            || bfs1().with_fault_plan(FaultPlan::seeded(1)),
            fault_plan,
            Some(FaultPlan::seeded(1)),
        ),
        // Checkpointing: builder only. The two variables that used to
        // activate it are inert, however malformed.
        row(
            &[],
            bfs1,
            checkpoint,
            (None::<(PathBuf, usize)>, None::<PathBuf>),
        ),
        row(
            &[
                ("SLX_ENGINE_CHECKPOINT_DIR", "/env/ckpt"),
                ("SLX_ENGINE_CHECKPOINT_EVERY", "every-sunday"),
            ],
            bfs1,
            checkpoint,
            (None::<(PathBuf, usize)>, None::<PathBuf>),
        ),
        row(
            &[],
            || bfs1().with_checkpoint("/pin/ckpt", 0),
            checkpoint,
            (Some((PathBuf::from("/pin/ckpt"), 1usize)), None::<PathBuf>),
        ),
        row(
            &[],
            || bfs1().resume("/pin/ckpt"),
            checkpoint,
            (
                Some((PathBuf::from("/pin/ckpt"), 1usize)),
                some_path("/pin/ckpt"),
            ),
        ),
        row(
            &[],
            || bfs1().with_checkpoint("/pin/next", 3).resume("/pin/ckpt"),
            checkpoint,
            (
                Some((PathBuf::from("/pin/next"), 3usize)),
                some_path("/pin/ckpt"),
            ),
        ),
    ]
}

/// Malformed values: `(variable, value, what the panic must name)` — the
/// variable always, plus the offending value (the default, spelled `&[]`)
/// or, for the fault-plan grammar, the offending part of it.
const REJECTED: [(&str, &str, &[&str]); 19] = [
    // A typo must name every accepted value, not silently re-test the
    // default codec.
    (
        "SLX_ENGINE_SPILL_CODEC",
        "rplay",
        &["rplay", "\"delta\", \"plain\", or \"replay\""],
    ),
    ("SLX_ENGINE_THREADS", "two", &[]),
    ("SLX_ENGINE_THREADS", "-2", &[]),
    ("SLX_ENGINE_THREADS", "1.5", &[]),
    ("SLX_ENGINE_THREADS", "0", &[]),
    ("SLX_ENGINE_SHARDS", "four", &[]),
    ("SLX_ENGINE_SHARDS", "-1", &[]),
    ("SLX_ENGINE_SHARDS", "0x10", &[]),
    ("SLX_ENGINE_SHARDS", "0", &[]),
    ("SLX_ENGINE_MEM_BUDGET", "2KB", &[]),
    ("SLX_ENGINE_MEM_BUDGET", "-5", &[]),
    ("SLX_ENGINE_MEM_BUDGET", "lots", &[]),
    ("SLX_ENGINE_SYMMETRY", "yes", &[]),
    ("SLX_ENGINE_SYMMETRY", "2", &[]),
    ("SLX_ENGINE_SYMMETRY", "on", &[]),
    ("SLX_ENGINE_FAULT_PLAN", "seed", &["key=value", "\"seed\""]),
    ("SLX_ENGINE_FAULT_PLAN", "seed=nope", &["seed", "\"nope\""]),
    (
        "SLX_ENGINE_FAULT_PLAN",
        "seed=1,rate=4096",
        &["rate", "4096"],
    ),
    (
        "SLX_ENGINE_FAULT_PLAN",
        "seed=1,ops=spill-wrte",
        &["op", "\"spill-wrte\""],
    ),
];

/// Renders a caught panic payload for message assertions.
fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

/// A short chain, just big enough that a checkpointing run would commit.
struct Chain(u32);

impl StateSpace for Chain {
    type State = u32;
    type Finding = ();

    fn digest(&self, s: &u32) -> Digest {
        slx_engine::digest128_of(s)
    }

    fn expand(&self, &s: &u32, _depth: usize, ctx: &mut Expansion<Self>) {
        if s < self.0 {
            ctx.push(s + 1);
        }
    }
}

#[test]
fn env_knobs_resolve_and_reject_junk() {
    for (n, row) in accepted().into_iter().enumerate() {
        set_env(row.env);
        let got = (row.field)(&(row.checker)().resolve());
        assert_eq!(got, row.want, "row {n}: env {:?}", row.env);
    }

    for (var, value, names) in REJECTED {
        set_env(&[(var, value)]);
        // `Checker::auto` reads the thread count and `resolve` the rest.
        let result = std::panic::catch_unwind(|| Checker::auto().resolve());
        let message = panic_message(result.expect_err("a malformed knob value must panic"));
        let names = if names.is_empty() {
            &[value][..]
        } else {
            names
        };
        assert!(
            message.contains(var) && names.iter().all(|name| message.contains(name)),
            "{var}={value:?} must fail naming the variable and the offender: {message}"
        );
        // A builder pin shadows the variable, junk and all — except the
        // thread count, which only `Checker::auto` reads.
        let pinned = Checker::parallel_bfs(2)
            .with_shards(4)
            .with_mem_budget(0)
            .with_spill_codec(SpillCodec::Delta)
            .with_symmetry(false)
            .with_fault_plan(FaultPlan::seeded(1))
            .resolve();
        assert_eq!((pinned.threads, pinned.shards), (2, 4), "{var}={value:?}");
    }

    // `resolve` decides; it creates nothing. The directory appears when
    // a run sets up.
    let spill = std::env::temp_dir().join(format!("slx-knob-spill-{}", std::process::id()));
    set_env(&[]);
    let checker = Checker::parallel_bfs(1)
        .with_mem_budget(64)
        .with_spill_dir(&spill);
    assert_eq!(checker.resolve().spill_dir, Some(spill.clone()));
    assert!(!spill.exists(), "resolve() must not touch the file system");
    checker.run(&Chain(6), vec![0u32]);
    assert!(spill.exists(), "run set-up creates the spill directory");
    std::fs::remove_dir_all(&spill).expect("spill dir cleanup");

    // An ambient checkpoint directory is not a knob: every run in the
    // process would commit over the same image. With the old variables
    // set, a plain run writes nothing and creates nothing.
    let ckpt = std::env::temp_dir().join(format!("slx-knob-ckpt-{}", std::process::id()));
    std::env::set_var("SLX_ENGINE_CHECKPOINT_DIR", &ckpt);
    std::env::set_var("SLX_ENGINE_CHECKPOINT_EVERY", "2");
    let out = Checker::parallel_bfs(1).run(&Chain(6), vec![0u32]);
    assert_eq!(out.stats.configs, 7);
    assert_eq!(out.stats.checkpoints_written, 0);
    assert!(!ckpt.exists(), "no checkpoint directory may be created");
    // The builder is the one way in, at the cadence it names.
    let out = Checker::parallel_bfs(1)
        .with_checkpoint(&ckpt, 2)
        .run(&Chain(6), vec![0u32]);
    assert_eq!(out.stats.checkpoints_written, 3, "levels 2, 4, and 6");
    assert!(slx_engine::CheckpointStore::exists(&ckpt));
    std::fs::remove_dir_all(&ckpt).expect("checkpoint dir cleanup");
    set_env(&[]);
}
