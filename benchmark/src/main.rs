//! The repo benchmark. See `README.md` beside this package for the
//! workloads, the metrics and how they interact.
//!
//! ```text
//! slx-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! slx-benchmark --self-check [--seed <n>] [--seconds <s>]
//! slx-benchmark --derive-expected
//! ```
//!
//! Without `--workload` every workload runs. Each workload runs in a child
//! process of its own (`--child`), so it gets its own `VmHWM`, allocator
//! state and scratch directory; the parent only spawns, relays and sums up.
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is non-zero on any
//! wrong verdict.

mod child;
mod expected;
mod json;
mod metrics;
mod probes;
mod procfs;
mod reference;
mod stats;
mod trace;
mod workloads;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use metrics::{metric_json, result_json, Declared, Manifest};
use workloads::Workload;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    child: bool,
    self_check: bool,
    derive_expected: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: Manifest::load().run_seconds,
        traced: false,
        child: false,
        self_check: false,
        derive_expected: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = || Workload::ALL.map(Workload::name).join(", ");
                args.workload =
                    Some(Workload::parse(name).ok_or_else(|| {
                        format!("unknown workload {name:?} (known: {})", known())
                    })?);
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                args.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--child" => args.child = true,
            "--self-check" => args.self_check = true,
            "--derive-expected" => args.derive_expected = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.child && args.workload.is_none() {
        return Err("--child needs --workload".to_string());
    }
    Ok(args)
}

/// One workload's result as the parent read it off its child.
struct Outcome {
    workload: Workload,
    attempted: u64,
    failed: u64,
    /// `(metric name, value, unit)` in declaration order.
    metrics: Vec<(String, f64, String)>,
}

/// Spawns this executable as `--child` for `workload`, with every `SLX_*`
/// variable removed — an ambient `SLX_ENGINE_CHECKPOINT_DIR` or
/// `SLX_ENGINE_THREADS` would silently change what a workload measures —
/// relays its output, and reads the result off its last line.
fn spawn(workload: Workload, args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--child", "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("SLX_") {
            command.env_remove(name);
        }
    }
    let mut process = command.spawn().map_err(|e| format!("spawn: {e}"))?;
    let stdout = process.stdout.take().expect("piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("{}: reading child: {e}", workload.name()))?;
        // The result line is the parent's to print, once, at the end.
        if !last.is_empty() {
            println!("{last}");
        }
        last = line;
    }
    let status = process.wait().map_err(|e| format!("wait: {e}"))?;
    let result = Json::parse(&last).map_err(|_| {
        if !last.is_empty() {
            println!("{last}");
        }
        format!("{} ended ({status}) without a result line", workload.name())
    })?;
    let field = |name: &str| {
        result
            .get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{}: result line lacks {name:?}", workload.name()))
    };
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{}: result line lacks metrics", workload.name()))?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            (name.clone(), value, unit.to_string())
        })
        .collect();
    Ok(Outcome {
        workload,
        attempted: field("attempted")?,
        failed: field("failed")?,
        metrics,
    })
}

/// The workloads of one set, in an order that alternates with the seed so
/// that no workload always runs after the same neighbour.
fn set_order(args: &Args, flip: bool) -> Vec<Workload> {
    let mut order: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    if (args.seed % 2 == 1) != flip {
        order.reverse();
    }
    order
}

fn run_set(args: &Args, flip: bool) -> Result<Vec<Outcome>, String> {
    let mut outcomes = set_order(args, flip)
        .into_iter()
        .map(|w| spawn(w, args))
        .collect::<Result<Vec<_>, _>>()?;
    outcomes.sort_by_key(|o| Workload::ALL.iter().position(|w| *w == o.workload));
    Ok(outcomes)
}

/// The result line of a set. A single workload's metrics keep their
/// declared names (the contract's shape); a full set prefixes each with
/// its workload.
fn result_line(outcomes: &[Outcome]) -> Json {
    let single = outcomes.len() == 1;
    let metrics = outcomes.iter().flat_map(|o| {
        o.metrics.iter().map(move |(name, value, unit)| {
            let name = if single {
                name.clone()
            } else {
                format!("{}/{name}", o.workload.name())
            };
            (name, metric_json(*value, unit))
        })
    });
    result_json(
        outcomes.iter().map(|o| o.attempted).sum(),
        outcomes.iter().map(|o| o.failed).sum(),
        Json::Obj(metrics.collect()),
    )
}

/// How much worse `second` is than `first`, as a share of `first`, in the
/// metric's own direction (negative: better).
fn worsening(d: &Declared, first: f64, second: f64) -> f64 {
    let change = (second - first) / first;
    if d.lower_is_better {
        change
    } else {
        -change
    }
}

/// Two full sets of the same build, back to back, in opposite workload
/// order: every count must repeat exactly and every end-to-end pair must
/// agree within its bound, in both directions.
fn self_check(args: &Args) -> Result<bool, String> {
    let manifest = Manifest::load();
    let declared: Vec<&Declared> = if args.traced {
        manifest.per_layer.iter().collect()
    } else {
        manifest.end_to_end.iter().collect()
    };
    let first = run_set(args, false)?;
    let second = run_set(args, true)?;
    let mut ok = first.iter().chain(&second).all(|o| o.failed == 0);
    println!(
        "\n{:<14} {:<34} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "differ", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        // An undeclared workload (`serve-burst`) is shown, and its counts
        // must repeat, but its timings are the sandbox disk's: no bound.
        let gated = manifest.workloads.iter().any(|w| w == a.workload.name());
        for ((name, x, _), (_, y, _)) in a.metrics.iter().zip(&b.metrics) {
            let d = declared
                .iter()
                .find(|d| d.name == *name)
                .ok_or_else(|| format!("child reported undeclared metric {name:?}"))?;
            let differ = worsening(d, *x, *y).abs().max(worsening(d, *y, *x).abs());
            let count_differs = d.is_count() && x != y;
            // NaN (a missing measurement) is beyond every bound.
            let beyond = |bound| gated && (differ.is_nan() || differ > bound);
            let verdict = match d.bound {
                _ if count_differs => "COUNT DIFFERS",
                Some(bound) if beyond(bound) => "BEYOND BOUND",
                Some(_) if !gated => "(not gated)",
                _ => "",
            };
            ok &= !count_differs && !d.bound.is_some_and(beyond);
            if d.bound.is_some() || !verdict.is_empty() {
                println!(
                    "{:<14} {:<34} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}% {verdict}",
                    a.workload.name(),
                    name,
                    x,
                    y,
                    differ * 100.0,
                    d.bound.unwrap_or(0.0) * 100.0,
                );
            }
        }
    }
    println!("self-check: {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

fn run(args: &Args) -> Result<bool, String> {
    if args.derive_expected {
        let derived = reference::render(&reference::derive());
        print!("{derived}");
        let same = derived == expected::EXPECTED_JSON;
        eprintln!(
            "derive-expected: the checked-in expected.json {}",
            if same { "matches" } else { "DIFFERS" }
        );
        return Ok(same);
    }
    if args.child {
        let workload = args.workload.expect("checked in parse_args");
        let report = child::run(workload, args.seed, args.seconds, args.traced)?;
        println!("{}", report.to_json().render());
        return Ok(report.failed == 0);
    }
    if args.self_check {
        return self_check(args);
    }
    let outcomes = run_set(args, false)?;
    println!("{}", result_line(&outcomes).render());
    Ok(outcomes.iter().all(|o| o.failed == 0))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        // A panic must still unwind through the child's scratch guard
        // before the process reports failure.
        std::panic::catch_unwind(|| run(&args))
            .unwrap_or_else(|_| Err("panicked (see above)".to_string()))
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("slx-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let args = parse_args(&argv(&[
            "--workload",
            "serve-burst",
            "--seed",
            "42",
            "--seconds",
            "7",
            "--trace",
            "1",
        ]))
        .expect("parses");
        assert_eq!(args.workload, Some(Workload::ServeBurst));
        assert_eq!((args.seed, args.seconds, args.traced), (42, 7.0, true));
        for bad in [
            &["--workload", "deep"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed"],
            &["--child"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn workload_order_alternates_with_the_seed_and_between_sets() {
        let args = |seed| Args {
            seed,
            ..parse_args(&[]).expect("defaults")
        };
        let forward = Workload::ALL.to_vec();
        let mut backward = forward.clone();
        backward.reverse();
        assert_eq!(set_order(&args(2), false), forward);
        assert_eq!(set_order(&args(3), false), backward);
        assert_eq!(set_order(&args(2), true), backward);
    }

    /// Profiles do not cross workspace roots, so the benchmark's manifest
    /// carries a copy of the root `[profile.release]`; if the copies ever
    /// differ the benchmark measures a build the repo does not ship.
    #[test]
    fn profile_parity() {
        fn release_profile(manifest: &str) -> Vec<&str> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        }
        let root = release_profile(include_str!("../../Cargo.toml"));
        let ours = release_profile(include_str!("../Cargo.toml"));
        assert!(!root.is_empty(), "the root manifest has a release profile");
        assert_eq!(root, ours, "benchmark/Cargo.toml [profile.release] drifted");
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = Declared {
            name: "verdict_s".into(),
            unit: "s".into(),
            bound: Some(0.08),
            lower_is_better: true,
        };
        assert!((worsening(&lower, 2.0, 2.2) - 0.1).abs() < 1e-12);
        let higher = Declared {
            lower_is_better: false,
            ..lower
        };
        assert!((worsening(&higher, 2.0, 2.2) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn a_full_set_prefixes_metrics_with_their_workload() {
        let outcome = |workload| Outcome {
            workload,
            attempted: 5,
            failed: 0,
            metrics: vec![("verdict_s".into(), 2.0, "s".into())],
        };
        let one = result_line(&[outcome(Workload::DeepPar)]);
        assert!(one
            .get("metrics")
            .and_then(|m| m.get("verdict_s"))
            .is_some());
        let all = result_line(&[outcome(Workload::DeepPar), outcome(Workload::ManySmall)]);
        assert_eq!(all.get("attempted").and_then(Json::as_u64), Some(10));
        assert_eq!(all.get("correct"), Some(&Json::Bool(true)));
        let metrics = all.get("metrics").expect("metrics");
        assert!(metrics.get("many-small/verdict_s").is_some());
    }
}
