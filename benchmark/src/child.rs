//! One workload in one process: set-up, timed repetitions, and — on a
//! traced run — the observed repetition, the variants, the ledger and the
//! layer probes. The process owns a scratch directory, works inside it,
//! and removes it on the way out.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use slx_core::engine::{Checker, CheckpointStore, SpillCodec};
use slx_core::history::ProcessId;
use slx_server::{connect, CheckRequest, Connection, Frame, ScenarioRegistry};

use crate::expected;
use crate::json::Json;
use crate::metrics::{result_json, Manifest, Metrics};
use crate::probes;
use crate::procfs;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::workloads::{
    all_processes, fan_out, of_system, pinned_checker, request, serve_one, spill_checker, Burst,
    BurstSample, Direct, Observed, OfSystem, Pins, RunCounts, Service, SplitMix64, Workload,
    OF_CONSENSUS, SERVE_CHECKPOINT_EVERY, SERVE_DEPTH,
};

/// Where the spill arms put their chunks, under the scratch directory.
const SPILL_DIR: &str = "spill";
/// Set-ups per untraced run; the median is reported as `setup_s`.
const SETUPS: usize = 3;
/// Untraced repetitions a traced run takes its baseline median from.
const TRACED_BASELINE_REPS: usize = 3;

pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The child's scratch directory, `out/slx-benchmark-<pid>/`: spill files,
/// checkpoint roots and the socket live here, under relative names (the
/// process works *inside* it, so the socket path stays far below the
/// 108-byte `sun_path` limit wherever the checkout is). Dropped — on
/// return and on unwind alike — it is removed.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn enter() -> std::io::Result<Scratch> {
        let dir = out_dir().join(format!("slx-benchmark-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        std::env::set_current_dir(&dir)?;
        Ok(Scratch { dir })
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::env::set_current_dir(out_dir());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A fresh, empty directory under the scratch directory.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A workload, set up and warm.
enum Instance {
    Direct {
        direct: Box<Direct>,
        checker: Checker,
    },
    ServeDeep {
        service: Service,
        conn: Connection,
    },
    ServeBurst {
        service: Service,
        burst: Burst,
    },
}

impl Instance {
    fn build(workload: Workload, seed: u64, t: &mut Tracer) -> Result<Instance, String> {
        if !workload.is_served() {
            return Ok(t.span("setup.build", |_| {
                let direct = Box::new(Direct::build(workload));
                let checker = match workload {
                    Workload::DeepSpill => spill_checker(SpillCodec::Delta, SPILL_DIR),
                    Workload::DeepPar => pinned_checker(fan_out()),
                    _ => pinned_checker(1),
                };
                (Instance::Direct { direct, checker }, Vec::new())
            }));
        }
        let workers = if workload == Workload::ServeDeep {
            1
        } else {
            2
        };
        let service = t.span("server.start", |_| {
            let started = Service::start("unix:s.sock", Path::new("ckpt"), workers);
            (
                started.map_err(|e| format!("server start: {e}")),
                Vec::new(),
            )
        })?;
        t.span("client.connect", |_| {
            let instance = if workload == Workload::ServeDeep {
                connect(service.addr())
                    .map_err(|e| format!("connect: {e}"))
                    .map(|conn| Instance::ServeDeep { service, conn })
            } else {
                Burst::connect(service.addr(), seed)
                    .map(|burst| Instance::ServeBurst { service, burst })
            };
            (instance, Vec::new())
        })
    }
}

/// One repetition as the metrics see it.
struct Rep {
    /// Seconds from request to checked verdict: one per repetition, or
    /// one per request on `serve-burst`.
    latencies: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    /// `VmHWM` at the end of the repetition, the mark having been reset at
    /// its start where the kernel allows.
    peak_rss_mb: f64,
    /// Layer counts, summed over the repetition's requests.
    counts: RunCounts,
}

/// Which pins a run must reproduce.
#[derive(Clone, Copy)]
enum Check {
    /// Every pin of `expected.json`.
    All,
    /// The verdict only: a symmetry quotient legitimately visits fewer
    /// states.
    Verdict,
}

/// Runs operations and keeps the books: every repetition (every request
/// on the served workloads) is one operation, and fails if anything it
/// pins differs from `expected.json`.
struct Runner {
    workload: Workload,
    seed: u64,
    expected: Vec<(String, Json)>,
    attempted: u64,
    failed: u64,
}

impl Runner {
    fn check(&mut self, what: &str, pins: &Pins, check: Check) {
        self.attempted += 1;
        let checked = |name: &str| matches!(check, Check::All) || name == "verdict";
        let expected: Vec<_> = self
            .expected
            .iter()
            .filter(|(n, _)| checked(n))
            .cloned()
            .collect();
        let pins: Pins = pins.iter().filter(|(n, _)| checked(n)).cloned().collect();
        if let Some(difference) = expected::mismatch(&expected, &pins) {
            self.failed += 1;
            eprintln!(
                "{} {what}: WRONG VERDICT: {difference}",
                self.workload.name()
            );
        }
    }

    fn fail(&mut self, what: &str, message: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("{} {what}: FAILED: {message}", self.workload.name());
    }

    /// `<workload>-<seed>-<rep>`: unique per repetition, because
    /// resubmitting a finished request id resumes it and times nothing.
    fn id(&self, rep: &str) -> String {
        format!("{}-{}-{rep}", self.workload.name(), self.seed)
    }

    /// One repetition of the workload; with a tracer, through the
    /// observed entry points, leaving spans under the open span.
    fn rep(&mut self, instance: &mut Instance, rep: &str, t: Option<&mut Tracer>) -> Rep {
        procfs::reset_peak_rss();
        let cpu_before = procfs::cpu_s();
        let start = Instant::now();
        let (latencies, counts) = match instance {
            Instance::Direct { direct, checker } => {
                let observed = direct.run(checker, t);
                self.check(rep, &observed.pins, Check::All);
                (vec![observed.elapsed.as_secs_f64()], observed.counts)
            }
            Instance::ServeDeep { conn, .. } => {
                let req = request(self.id(rep), OF_CONSENSUS, SERVE_DEPTH);
                match serve_one(conn, &req, t) {
                    Ok((observed, _)) => {
                        self.check(rep, &observed.pins, Check::All);
                        (vec![observed.elapsed.as_secs_f64()], observed.counts)
                    }
                    Err(message) => {
                        self.fail(rep, &message);
                        (Vec::new(), RunCounts::default())
                    }
                }
            }
            Instance::ServeBurst { burst, .. } => {
                let samples = burst.pass(&self.id(rep));
                self.attempted += samples.len() as u64;
                self.failed += samples.iter().filter(|s| !s.ok).count() as u64;
                if let Some(t) = t {
                    record_burst(t, &samples);
                }
                // A failed request has no latency: it misses every bound
                // by being counted in `failed`.
                let served = samples.iter().filter(|s| s.ok);
                let latencies = served.map(|s| (s.end - s.start).as_secs_f64()).collect();
                (latencies, sum_counts(&samples))
            }
        };
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = match (cpu_before, procfs::cpu_s()) {
            (Some(before), Some(after)) => after - before,
            _ => f64::NAN,
        };
        Rep {
            latencies,
            wall_s,
            cpu_s,
            peak_rss_mb: procfs::peak_rss_mb().unwrap_or(f64::NAN),
            counts,
        }
    }
}

fn record_burst(t: &mut Tracer, samples: &[BurstSample]) {
    for s in samples {
        t.record(
            &format!("request.{}", s.scenario),
            s.start,
            s.end,
            vec![
                ("depth", s.depth),
                ("configs", s.counts.configs),
                ("transitions", s.counts.transitions),
                ("dedup_hits", s.counts.dedup_hits),
                ("progress_frames", s.counts.progress_frames),
            ],
        );
    }
}

fn sum_counts(samples: &[BurstSample]) -> RunCounts {
    let mut sum = RunCounts::default();
    let mut first_progress = Vec::new();
    for s in samples {
        sum.configs += s.counts.configs;
        sum.transitions += s.counts.transitions;
        sum.dedup_hits += s.counts.dedup_hits;
        sum.peak_frontier = sum.peak_frontier.max(s.counts.peak_frontier);
        sum.progress_frames += s.counts.progress_frames;
        first_progress.extend(s.counts.first_progress.map(|d| d.as_secs_f64()));
    }
    if !first_progress.is_empty() {
        sum.first_progress = Some(Duration::from_secs_f64(median(&first_progress)));
    }
    sum
}

/// What a finished child hands back: the contract's result line.
pub struct ChildReport {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Json,
}

impl ChildReport {
    pub fn to_json(&self) -> Json {
        result_json(self.attempted, self.failed, self.metrics.clone())
    }
}

/// Runs `workload` in this process and prints its metrics, one per line,
/// then the result line.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<ChildReport, String> {
    let child_start = Instant::now();
    let manifest = Manifest::load();
    let _scratch = Scratch::enter().map_err(|e| format!("scratch directory: {e}"))?;
    let mut runner = Runner {
        workload,
        seed,
        expected: expected::pins_of(workload),
        attempted: 0,
        failed: 0,
    };
    let mut tracer = Tracer::new();

    // Set-up: instance build, server start + connect, and one full-size
    // warm-up repetition. Untraced runs set up several times and report
    // the median; the first set-up is timed from the start of the child.
    let mut setups = Vec::new();
    let mut peaks = Vec::new();
    let mut instance = None;
    for k in 0..if traced { 1 } else { SETUPS } {
        drop(instance.take());
        let start = if k == 0 { child_start } else { Instant::now() };
        let mut built = Instance::build(workload, seed, &mut tracer)?;
        let warmup = tracer.span("setup.warmup", |_| {
            (runner.rep(&mut built, &format!("w{k}"), None), Vec::new())
        });
        peaks.push(warmup.peak_rss_mb);
        setups.push(start.elapsed().as_secs_f64());
        instance = Some(built);
    }
    let mut instance = instance.expect("at least one set-up");

    // Timed repetitions, closed loop, for `seconds` (a traced run only
    // needs a baseline for `trace.overhead_x`).
    let timed = Instant::now();
    let mut reps = Vec::new();
    while if traced {
        reps.len() < TRACED_BASELINE_REPS
    } else {
        reps.is_empty() || timed.elapsed().as_secs_f64() < seconds
    } {
        let rep = runner.rep(&mut instance, &format!("r{}", reps.len()), None);
        reps.push(rep);
    }
    let latencies: Vec<f64> = reps.iter().flat_map(|r| r.latencies.clone()).collect();
    let verdict_s = median(&latencies);
    let cpus: Vec<f64> = reps.iter().map(|r| r.cpu_s).collect();

    let metrics = if traced {
        let mut m = Metrics::new(&manifest.per_layer);
        let baseline = Baseline {
            verdict_s,
            cpu_s: median(&cpus),
        };
        traced_pass(&mut runner, &mut instance, &mut tracer, &mut m, &baseline)?;
        drop(instance);
        if let Some((read, written)) = procfs::io_mb() {
            m.set("process.io_read_mb", read);
            m.set("process.io_written_mb", written);
        } else {
            println!("note: /proc/self/io is unreadable here; process.io_* are absent (0)");
        }
        m.set("trace.spans", tracer.spans().len() as f64);
        let path = out_dir().join(format!("trace-{}.jsonl", workload.name()));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        print_metrics(workload, &m);
        m.to_json()
    } else {
        drop(instance);
        let mut m = Metrics::new(&manifest.end_to_end);
        m.set("setup_s", median(&setups));
        m.set("verdict_s", verdict_s);
        let (tail_s, percentile) = tail(&latencies);
        m.set("verdict_tail_s", tail_s);
        m.set("cpu_s", median(&cpus));
        // Allocator noise only ever adds to a repetition's peak (and a
        // heap that bloated once stays bloated), so the lowest peak of any
        // repetition, warm-ups included, is the steadiest estimate of what
        // the request needs.
        peaks.extend(reps.iter().map(|r| r.peak_rss_mb));
        m.set("peak_rss_mb", peaks.into_iter().fold(f64::NAN, f64::min));
        println!(
            "{}: {} repetitions, {} latency samples, tail = p{:.0}",
            workload.name(),
            reps.len(),
            latencies.len(),
            percentile * 100.0
        );
        print_metrics(workload, &m);
        m.to_json()
    };
    Ok(ChildReport {
        attempted: runner.attempted,
        failed: runner.failed,
        metrics,
    })
}

fn print_metrics(workload: Workload, m: &Metrics) {
    for (d, value) in m.iter() {
        println!(
            "{:<14} {:<44} {:>16.6} {}",
            workload.name(),
            d.name,
            value,
            d.unit
        );
    }
}

/// The untraced medians a traced run compares itself with.
struct Baseline {
    verdict_s: f64,
    cpu_s: f64,
}

/// A span around a direct variant of the workload's request.
fn variant(
    t: &mut Tracer,
    runner: &mut Runner,
    name: &str,
    direct: &Direct,
    checker: &Checker,
    check: Check,
) -> Observed {
    t.span(&format!("variant.{name}"), |_| {
        let observed = direct.run(checker, None);
        runner.check(name, &observed.pins, check);
        let counts = vec![
            ("configs", observed.counts.configs),
            ("spilled_chunks", observed.counts.spilled_chunks),
            ("checkpoints", observed.counts.checkpoints),
        ];
        (observed, counts)
    })
}

fn secs(observed: &Observed) -> f64 {
    observed.elapsed.as_secs_f64()
}

/// `engine.spill.{plain_x, replay_x}`: the request under the spill budget
/// with the plain and the replay codec, over the delta arm's `delta_s`.
fn codec_variants(
    t: &mut Tracer,
    runner: &mut Runner,
    m: &mut Metrics,
    direct: &Direct,
    delta_s: f64,
) {
    for (name, codec, metric) in [
        ("plain", SpillCodec::Plain, "engine.spill.plain_x"),
        ("replay", SpillCodec::Replay, "engine.spill.replay_x"),
    ] {
        let checker = spill_checker(codec, SPILL_DIR);
        let observed = variant(t, runner, name, direct, &checker, Check::All);
        m.set(metric, secs(&observed) / delta_s);
    }
}

/// `engine.checkpoint.*` from a checkpointed run and the bare run it is
/// compared with; `commit_ms` is the difference per image.
fn set_checkpoint_metrics(m: &mut Metrics, dir: &Path, checkpointed: &Observed, bare_s: f64) {
    let images = checkpointed.counts.checkpoints as f64;
    let image_bytes = std::fs::metadata(CheckpointStore::file_path(dir)).map_or(0, |f| f.len());
    m.set("engine.checkpoint.images", images);
    m.set("engine.checkpoint.image_bytes", image_bytes as f64);
    m.set("engine.checkpoint.tax_x", secs(checkpointed) / bare_s);
    m.set(
        "engine.checkpoint.commit_ms",
        (secs(checkpointed) - bare_s) * 1e3 / images.max(1.0),
    );
}

fn traced_pass(
    runner: &mut Runner,
    instance: &mut Instance,
    t: &mut Tracer,
    m: &mut Metrics,
    base: &Baseline,
) -> Result<(), String> {
    let workload = runner.workload;
    let mut rng = SplitMix64::new(runner.seed ^ 0x70726f6265); // "probe"

    // The traced repetition: one request span, one child per BFS level.
    let rep = t.span("request", |t| {
        let rep = runner.rep(instance, "t", Some(t));
        let counts = vec![
            ("configs", rep.counts.configs),
            ("transitions", rep.counts.transitions),
            ("dedup_hits", rep.counts.dedup_hits),
        ];
        (rep, counts)
    });
    let request = t.last_named("request").expect("just recorded").clone();
    let levels: Vec<u64> = t
        .spans()
        .iter()
        .filter(|s| s.parent == Some(request.span) && s.name == "level")
        .map(|s| s.duration_us())
        .collect();
    let traced_s = median(&rep.latencies);
    let busy_s: f64 = rep.latencies.iter().sum();
    let c = &rep.counts;
    m.set("trace.overhead_x", traced_s / base.verdict_s);
    m.set("engine.checker.configs", c.configs as f64);
    m.set("engine.checker.transitions", c.transitions as f64);
    m.set(
        "engine.checker.dedup_rate",
        c.dedup_hits as f64 / (c.transitions as f64).max(1.0),
    );
    m.set("engine.checker.peak_frontier", c.peak_frontier as f64);
    m.set("engine.checker.levels", levels.len() as f64);
    m.set("engine.checker.states_per_s", c.configs as f64 / busy_s);
    if c.transitions > 0 {
        m.set(
            "engine.checker.us_per_transition",
            busy_s * 1e6 / c.transitions as f64,
        );
    }
    if let Some(&slowest) = levels.iter().max() {
        m.set(
            "engine.checker.slowest_level_share",
            slowest as f64 / request.duration_us().max(1) as f64,
        );
    }
    m.set("engine.visited.shard_balance", c.shard_balance);
    m.set("engine.spill.chunks", c.spilled_chunks as f64);
    m.set("engine.spill.bytes", c.spilled_bytes as f64);
    m.set(
        "engine.spill.peak_resident_states",
        c.peak_resident_states as f64,
    );

    m.set("server.service.progress_frames", c.progress_frames as f64);
    if let Some(first) = c.first_progress {
        m.set(
            "server.service.first_progress_ms",
            first.as_secs_f64() * 1e3,
        );
    }

    let mut codec_states = 0.0; // states that crossed the spill codec
    match instance {
        Instance::Direct { direct, checker } => {
            let direct: &Direct = direct;
            match workload {
                Workload::DeepResident => {
                    let sym = pinned_checker(1).with_symmetry(true);
                    let sym = variant(t, runner, "sym", direct, &sym, Check::Verdict);
                    m.set("engine.checker.sym_x", secs(&sym) / base.verdict_s);
                    m.set("engine.checker.orbit_hits", sym.counts.orbit_hits as f64);
                    let dir = fresh_dir("variant-ckpt");
                    let ckpt = pinned_checker(1).with_checkpoint(&dir, SERVE_CHECKPOINT_EVERY);
                    let ckpt = variant(t, runner, "checkpoint", direct, &ckpt, Check::All);
                    set_checkpoint_metrics(m, &dir, &ckpt, base.verdict_s);
                }
                Workload::DeepSpill => {
                    let resident = pinned_checker(1);
                    let resident = variant(t, runner, "resident", direct, &resident, Check::All);
                    m.set("engine.spill.spill_x", base.verdict_s / secs(&resident));
                    codec_variants(t, runner, m, direct, base.verdict_s);
                }
                Workload::DeepPar => {
                    let cpu_before = procfs::cpu_s();
                    let one = variant(
                        t,
                        runner,
                        "one-thread",
                        direct,
                        &pinned_checker(1),
                        Check::All,
                    );
                    let one_cpu = procfs::cpu_s()
                        .zip(cpu_before)
                        .map(|(after, before)| after - before);
                    m.set("engine.checker.par_speedup_x", secs(&one) / base.verdict_s);
                    if let Some(one_cpu) = one_cpu.filter(|c| *c > 0.0) {
                        m.set("engine.checker.par_cpu_x", base.cpu_s / one_cpu);
                    }
                }
                Workload::ManySmall => {
                    m.set("adversary.steps", c.adversary_steps as f64);
                    m.set("adversary.valence_configs", c.configs as f64);
                    m.set(
                        "adversary.us_per_step",
                        traced_s * 1e6 / (c.adversary_steps as f64).max(1.0),
                    );
                }
                Workload::WideNodedup => {
                    m.set("automata.executions", c.executions as f64);
                    m.set(
                        "automata.us_per_execution",
                        traced_s * 1e6 / (c.executions as f64).max(1.0),
                    );
                    // The codec decision row: the same enumeration under
                    // the spill budget, once per codec.
                    let delta = spill_checker(SpillCodec::Delta, SPILL_DIR);
                    let delta = variant(t, runner, "delta", direct, &delta, Check::All);
                    m.set("engine.spill.spill_x", secs(&delta) / base.verdict_s);
                    m.set("engine.spill.chunks", delta.counts.spilled_chunks as f64);
                    m.set("engine.spill.bytes", delta.counts.spilled_bytes as f64);
                    m.set(
                        "engine.spill.peak_resident_states",
                        delta.counts.peak_resident_states as f64,
                    );
                    codec_variants(t, runner, m, direct, secs(&delta));
                }
                Workload::ServeDeep | Workload::ServeBurst => unreachable!("served"),
            }

            // Layer probes over a sample of the workload's own states.
            match direct {
                Direct::Safety { sys, active, depth } => {
                    configuration_probes(t, m, sys, active, *depth, &mut rng);
                }
                // Valence queries decide within a few dozen steps of
                // wherever the adversary stands.
                Direct::Adversary { sys, active } => {
                    configuration_probes(t, m, sys, active, 24, &mut rng);
                }
                Direct::Automata { it, depth } => {
                    let sample = probes::sample_executions(it, *depth, &mut rng);
                    probes::state_probes(t, m, &sample);
                }
            }
            probes::engine_probes(t, m, checker, &mut rng);
            if workload == Workload::DeepSpill {
                codec_states = c.spilled_bytes as f64
                    / m.get("engine.codec.delta_bytes_per_state")
                        .unwrap_or(f64::NAN);
            }
            if c.peak_frontier > 0 {
                m.set(
                    "memory.resident_bytes_per_state",
                    rep.peak_rss_mb * 1024.0 * 1024.0 / c.peak_frontier as f64,
                );
            }
        }
        Instance::ServeDeep { service, conn } => {
            ledger(runner, t, m, base)?;
            resume(runner, t, m, conn)?;
            served_probes(t, m, service.addr(), SERVE_DEPTH as usize, &mut rng);
        }
        Instance::ServeBurst { service, .. } => {
            m.set(
                "server.service.requests_per_s",
                rep.latencies.len() as f64 / rep.wall_s,
            );
            served_probes(t, m, service.addr(), 32, &mut rng);
        }
    }

    // The model: what the probes say the run should have cost, as shares
    // of what it did cost. Computed, not measured; the residual is
    // everything the benchmark cannot see from outside the kernel.
    let ns = |name: &str| m.get(name).unwrap_or(0.0);
    let generated = if c.transitions > 0 {
        c.transitions as f64
    } else {
        // The adversary reports configurations only; each expands into at
        // most one successor per process.
        c.configs as f64 * 2.0
    };
    let expand_ns = if ns("memory.clone_step_ns") > 0.0 {
        ns("memory.clone_step_ns")
    } else {
        ns("memory.clone_ns")
    };
    let shares = [
        ("model.expand_share", expand_ns * generated),
        (
            "model.digest_share",
            (ns("engine.digest.state_ns") + ns("explorer.history_digest_ns")) * generated,
        ),
        (
            "model.visited_share",
            ns("engine.visited.insert_miss_ns") * c.configs as f64
                + ns("engine.visited.insert_hit_ns") * c.dedup_hits as f64,
        ),
        (
            "model.codec_share",
            (ns("engine.codec.delta_encode_ns") + ns("engine.codec.delta_decode_ns"))
                * codec_states,
        ),
    ];
    let mut attributed = 0.0;
    for (name, cost_ns) in shares {
        let share = cost_ns / (busy_s * 1e9);
        attributed += share;
        m.set(name, share);
    }
    m.set("model.unattributed_share", 1.0 - attributed);
    Ok(())
}

/// The state and system probes over configurations sampled from `sys`.
fn configuration_probes(
    t: &mut Tracer,
    m: &mut Metrics,
    sys: &OfSystem,
    active: &[ProcessId],
    depth: usize,
    rng: &mut SplitMix64,
) {
    let sample = probes::sample_systems(sys, active, depth, rng);
    probes::state_probes(t, m, &sample);
    probes::system_probes(t, m, &sample, active);
}

/// The probes of a served workload: the scenario's own system for the
/// state and system probes, the server's pinned kernel configuration for
/// the engine probes, and the wire and the socket.
fn served_probes(t: &mut Tracer, m: &mut Metrics, addr: &str, depth: usize, rng: &mut SplitMix64) {
    configuration_probes(t, m, &of_system(&[1, 2], 16), &all_processes(2), depth, rng);
    probes::engine_probes(t, m, &pinned_checker(1), rng);
    probes::service_probes(t, m, addr);
}

/// The layer ledger: the `serve-deep` request through one more layer at a
/// time, each step a span, each ratio one step over the one before it.
fn ledger(
    runner: &mut Runner,
    t: &mut Tracer,
    m: &mut Metrics,
    base: &Baseline,
) -> Result<(), String> {
    let direct = Direct::safety(&[1, 2], SERVE_DEPTH as usize);
    let checkpointing = |dir: &Path| pinned_checker(1).with_checkpoint(dir, SERVE_CHECKPOINT_EVERY);

    // 1. The bare library call.
    let bare = variant(
        t,
        runner,
        "ledger.bare",
        &direct,
        &pinned_checker(1),
        Check::All,
    );

    // 2. The same with the server's checkpoint cadence.
    let dir = fresh_dir("ledger-ckpt");
    let checkpointed = variant(
        t,
        runner,
        "ledger.checkpoint",
        &direct,
        &checkpointing(&dir),
        Check::All,
    );
    set_checkpoint_metrics(m, &dir, &checkpointed, secs(&bare));
    m.set("server.tax.checkpoint_x", secs(&checkpointed) / secs(&bare));

    // 3. In process through the scenario registry, on an equally pinned
    //    checker.
    let dir = fresh_dir("ledger-scenario");
    let req = request(runner.id("ledger"), OF_CONSENSUS, SERVE_DEPTH);
    let scenario = ScenarioRegistry::builtin()
        .get(OF_CONSENSUS)
        .ok_or("the builtin registry lost of-consensus-safety")?;
    let scenario_s = t.span("variant.ledger.scenario", |_| {
        let start = Instant::now();
        let run = scenario.run(&req, checkpointing(&dir), &mut |_, _| true);
        let elapsed = start.elapsed().as_secs_f64();
        let same = run.holds
            && run.stats.configs as u64 == bare.counts.configs
            && run.stats.transitions as u64 == bare.counts.transitions;
        if same {
            runner.attempted += 1;
        } else {
            runner.fail(
                "ledger.scenario",
                "Scenario::run disagrees with the direct run",
            );
        }
        (elapsed, Vec::new())
    });
    m.set("server.tax.scenario_x", scenario_s / secs(&checkpointed));

    // 4. Over the unix socket: the workload itself.
    m.set("server.tax.unix_x", base.verdict_s / scenario_s);

    // 5. Over TCP loopback, where the sandbox allows one.
    let tcp = t.span("variant.ledger.tcp", |t| {
        let served = Service::start("tcp:127.0.0.1:0", Path::new("ckpt-tcp"), 1)
            .map_err(|e| e.to_string())
            .and_then(|service| {
                let mut conn = connect(service.addr()).map_err(|e| e.to_string())?;
                let req = request(runner.id("tcp"), OF_CONSENSUS, SERVE_DEPTH);
                serve_one(&mut conn, &req, Some(t)).map(|(observed, _)| observed)
            });
        (served, Vec::new())
    });
    match tcp {
        Ok(observed) => {
            runner.check("ledger.tcp", &observed.pins, Check::All);
            m.set("server.tax.tcp_x", secs(&observed) / scenario_s);
        }
        Err(message) => {
            println!("note: no TCP loopback here ({message}); server.tax.tcp_x is absent (0)")
        }
    }
    Ok(())
}

/// `server.service.resume_s`: cancel a fresh request at its first progress
/// frame past depth 70, resubmit the id, and time resubmit-to-verdict. The
/// resumed verdict must pin what an uninterrupted run pins.
fn resume(
    runner: &mut Runner,
    t: &mut Tracer,
    m: &mut Metrics,
    conn: &mut Connection,
) -> Result<(), String> {
    const CANCEL_PAST_DEPTH: u64 = 70;
    let req: CheckRequest = request(runner.id("resume"), OF_CONSENSUS, SERVE_DEPTH);
    let wire = |e| format!("resume: {e}");
    t.span("client.cancel", |_| {
        let cancelled = (|| {
            conn.submit(&req).map_err(wire)?;
            let mut sent = false;
            loop {
                match conn.next_event().map_err(wire)? {
                    Some(Frame::Progress(p)) if p.depth > CANCEL_PAST_DEPTH && !sent => {
                        conn.cancel(&req.request_id).map_err(wire)?;
                        sent = true;
                    }
                    Some(Frame::Error { .. }) if sent => return Ok(()),
                    Some(Frame::Progress(_)) => {}
                    Some(other) => return Err(format!("resume: unexpected {other:?}")),
                    None => return Err("resume: server hung up".to_string()),
                }
            }
        })();
        (cancelled, Vec::new())
    })?;
    // The server frees a cancelled id just *after* writing its terminal
    // frame, so an immediate resubmit can still be refused as a duplicate;
    // like `slx_server::run_with_reconnect`, try again until it is admitted.
    let resumed = t.span("client.resume", |t| loop {
        match serve_one(conn, &req, Some(t)) {
            Err(message) if message.contains("duplicate request id") => std::thread::yield_now(),
            served => break (served, Vec::new()),
        }
    });
    match resumed {
        Ok((observed, v)) => {
            runner.check("resume", &observed.pins, Check::All);
            if v.resumed_from_depth.is_none() {
                runner.fail("resume", "the resubmitted request started over");
            }
            m.set("server.service.resume_s", secs(&observed));
        }
        Err(message) => runner.fail("resume", &message),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runner() -> Runner {
        Runner {
            workload: Workload::DeepResident,
            seed: 7,
            expected: vec![
                ("verdict".to_string(), Json::Str("holds".into())),
                ("configs".to_string(), Json::Num(10.0)),
            ],
            attempted: 0,
            failed: 0,
        }
    }

    #[test]
    fn a_differing_pin_is_a_failed_operation() {
        let mut r = runner();
        let holds = || ("verdict", Json::Str("holds".into()));
        r.check(
            "r0",
            &vec![holds(), ("configs", Json::Num(10.0))],
            Check::All,
        );
        assert_eq!((r.attempted, r.failed), (1, 0));
        r.check(
            "r1",
            &vec![holds(), ("configs", Json::Num(9.0))],
            Check::All,
        );
        assert_eq!((r.attempted, r.failed), (2, 1));
        // A quotient may visit fewer states but not change the verdict.
        r.check(
            "sym",
            &vec![holds(), ("configs", Json::Num(9.0))],
            Check::Verdict,
        );
        assert_eq!((r.attempted, r.failed), (3, 1));
        let violated = ("verdict", Json::Str("violated".into()));
        r.check(
            "sym",
            &vec![violated, ("configs", Json::Num(9.0))],
            Check::Verdict,
        );
        assert_eq!((r.attempted, r.failed), (4, 2));
    }

    #[test]
    fn request_ids_are_unique_per_repetition_and_valid_on_the_wire() {
        let r = Runner {
            workload: Workload::ServeBurst,
            seed: u64::MAX,
            ..runner()
        };
        assert_ne!(r.id("r0"), r.id("r1"));
        let longest = format!("{}-c1-149", r.id("r999"));
        assert!(
            slx_server::wire::validate_request_id(&longest).is_ok(),
            "{longest}"
        );
    }
}
