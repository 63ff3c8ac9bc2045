//! The seven workloads: their instances, their seed-derived inputs, and
//! one repetition of each — a single call through the layer's front door,
//! timed, with everything the verdict pins read back out.
//!
//! Every `Checker` is built explicitly (`pinned_checker`), never
//! `Checker::auto()`: thread count, shard count, symmetry and budget are
//! part of the workload's definition, not of the machine or environment.

use std::path::Path;
use std::time::{Duration, Instant};

use slx_core::adversary::run_bivalence_adversary_with;
use slx_core::automata::{trivial_it, Automaton};
use slx_core::consensus::{ConsWord, ObstructionFreeConsensus};
use slx_core::engine::{Checker, ExploreStats, SpillCodec};
use slx_core::explorer::{
    explore_safety_observed, explore_safety_with, history_digest, ExploreOutcome,
};
use slx_core::history::{Action, Operation, ProcessId, Value};
use slx_core::memory::{Memory, System};
use slx_core::safety::ConsensusSafety;
use slx_server::client::verdict_line;
use slx_server::{
    connect, CheckRequest, CheckServer, Connection, ScenarioRegistry, ServerConfig, ServerHandle,
    ServiceOutcome, VerdictFrame,
};

use crate::json::Json;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DeepResident,
    DeepSpill,
    DeepPar,
    ManySmall,
    WideNodedup,
    ServeDeep,
    ServeBurst,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::DeepResident,
        Workload::DeepSpill,
        Workload::DeepPar,
        Workload::ManySmall,
        Workload::WideNodedup,
        Workload::ServeDeep,
        Workload::ServeBurst,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DeepResident => "deep-resident",
            Workload::DeepSpill => "deep-spill",
            Workload::DeepPar => "deep-par",
            Workload::ManySmall => "many-small",
            Workload::WideNodedup => "wide-nodedup",
            Workload::ServeDeep => "serve-deep",
            Workload::ServeBurst => "serve-burst",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_served(self) -> bool {
        matches!(self, Workload::ServeDeep | Workload::ServeBurst)
    }
}

/// SplitMix64: the benchmark's own input generator, so a change to the
/// repo's `SmallRng` can never change what a seed means here.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi` (modulo bias is irrelevant at these ranges).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Frontier budget of every spill arm: small enough that every level past
/// the first few writes and reads back chunks.
pub const SPILL_BUDGET: usize = 64 * 1024;
/// `deep-*`: OF consensus n = 3, 16 rounds, to this depth.
pub const DEEP_DEPTH: usize = 44;
/// `many-small`: adversary steps, per-query valence budget, rounds.
pub const ADVERSARY_STEPS: u64 = 1200;
pub const VALENCE_BUDGET: usize = 40_000;
const ADVERSARY_ROUNDS: usize = 128;
/// `wide-nodedup`: `It` over 4 processes and 3 proposals, to this depth.
const AUTOMATA_DEPTH: usize = 7;
/// `serve-deep`: the served `of-consensus-safety` request's depth.
pub const SERVE_DEPTH: u64 = 88;
/// The server's checkpoint cadence in both served workloads.
pub const SERVE_CHECKPOINT_EVERY: usize = 2;
/// `serve-burst`: requests per client per pass.
const BURST_REQUESTS: usize = 150;
pub const GRID: &str = "grid";
pub const OF_CONSENSUS: &str = "of-consensus-safety";

pub type OfSystem = System<ConsWord, ObstructionFreeConsensus>;

/// The Fig 1a anchor: `inputs.len()` proposers over `rounds` pre-allocated
/// commit-adopt rounds (the `engine_bench::of_system` instance).
pub fn of_system(inputs: &[i64], rounds: usize) -> OfSystem {
    let n = inputs.len();
    let mut mem: Memory<ConsWord> = Memory::new();
    let layout = ObstructionFreeConsensus::layout(&mut mem, n, rounds);
    let procs = (0..n)
        .map(|i| ObstructionFreeConsensus::new(layout.clone(), ProcessId::new(i), n))
        .collect();
    let mut sys = System::new(mem, procs);
    for (i, &input) in inputs.iter().enumerate() {
        sys.invoke(ProcessId::new(i), Operation::Propose(Value::new(input)))
            .expect("a fresh process accepts its proposal");
    }
    sys
}

/// The kernel configuration every workload starts from — the same pins
/// the server applies to a served request.
pub fn pinned_checker(threads: usize) -> Checker {
    Checker::parallel_bfs(threads)
        .with_shards(8)
        .with_symmetry(false)
        .with_mem_budget(0)
        .with_spill_codec(SpillCodec::Delta)
}

pub fn spill_checker(codec: SpillCodec, spill_dir: impl AsRef<Path>) -> Checker {
    pinned_checker(1)
        .with_mem_budget(SPILL_BUDGET)
        .with_spill_codec(codec)
        .with_spill_dir(spill_dir.as_ref())
}

/// `min(nproc, 2)`: the thread count of `deep-par` and the client count
/// of `serve-burst`, so the benchmark never keeps more threads busy than
/// the machine has cores.
pub fn fan_out() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// What a repetition's verdict pins, in `expected.json`'s vocabulary.
pub type Pins = Vec<(&'static str, Json)>;

/// Layer counts read off one repetition (zero where the layer was idle).
#[derive(Debug, Clone, Default)]
pub struct RunCounts {
    pub configs: u64,
    pub transitions: u64,
    pub dedup_hits: u64,
    pub peak_frontier: u64,
    pub orbit_hits: u64,
    pub spilled_chunks: u64,
    pub spilled_bytes: u64,
    pub peak_resident_states: u64,
    pub checkpoints: u64,
    pub shard_balance: f64,
    pub adversary_steps: u64,
    pub executions: u64,
    pub progress_frames: u64,
    pub first_progress: Option<Duration>,
}

impl RunCounts {
    fn of_stats(stats: &ExploreStats) -> Self {
        RunCounts {
            configs: stats.configs as u64,
            transitions: stats.transitions as u64,
            dedup_hits: stats.dedup_hits as u64,
            peak_frontier: stats.peak_frontier as u64,
            orbit_hits: stats.orbit_hits as u64,
            spilled_chunks: stats.spilled_chunks as u64,
            spilled_bytes: stats.spilled_bytes,
            peak_resident_states: stats.peak_resident_states as u64,
            checkpoints: stats.checkpoints_written as u64,
            shard_balance: stats.shard_balance(),
            ..RunCounts::default()
        }
    }
}

pub struct Observed {
    pub elapsed: Duration,
    pub pins: Pins,
    pub counts: RunCounts,
}

fn verdict(holds: bool) -> Json {
    Json::Str(if holds { "holds" } else { "violated" }.into())
}

fn count(n: u64) -> Json {
    Json::Num(n as f64)
}

/// The pins of a safety exploration, direct or served.
pub fn exploration_pins(holds: bool, findings: u64, truncated: bool, c: &RunCounts) -> Pins {
    vec![
        ("verdict", verdict(holds)),
        ("findings", count(findings)),
        ("truncated", Json::Bool(truncated)),
        ("configs", count(c.configs)),
        ("transitions", count(c.transitions)),
        ("dedup_hits", count(c.dedup_hits)),
        ("peak_frontier", count(c.peak_frontier)),
    ]
}

/// The pins of a bivalence-adversary run.
pub fn adversary_pins(won: bool, bivalent_throughout: bool, steps: u64, configs: u64) -> Pins {
    vec![
        ("adversary_won", Json::Bool(won)),
        ("bivalent_throughout", Json::Bool(bivalent_throughout)),
        ("steps", count(steps)),
        ("valence_configs", count(configs)),
    ]
}

/// The pin of an automata enumeration.
pub fn automata_pins(executions: u64) -> Pins {
    vec![("executions", count(executions))]
}

/// Cuts one span per BFS level out of consecutive observer calls: the
/// observer fires before each level is expanded, so level `d` lasts from
/// its call to the next one (or to the end of the run).
struct LevelCuts {
    cuts: Vec<(Instant, usize, [u64; 3])>,
}

impl LevelCuts {
    fn new() -> Self {
        LevelCuts { cuts: Vec::new() }
    }

    fn cut(&mut self, depth: usize, configs: u64, transitions: u64, dedup_hits: u64) {
        self.cuts
            .push((Instant::now(), depth, [configs, transitions, dedup_hits]));
    }

    fn record(self, tracer: &mut Tracer, end: Instant, last: [u64; 3]) {
        let closing = (end, 0, last);
        for (i, &(start, depth, at_start)) in self.cuts.iter().enumerate() {
            let &(stop, _, at_stop) = self.cuts.get(i + 1).unwrap_or(&closing);
            tracer.record(
                "level",
                start,
                stop,
                vec![
                    ("depth", depth as u64),
                    ("configs", at_stop[0].saturating_sub(at_start[0])),
                    ("transitions", at_stop[1].saturating_sub(at_start[1])),
                    ("dedup_hits", at_stop[2].saturating_sub(at_start[2])),
                ],
            );
        }
    }
}

/// `explore_safety_with` under `ConsensusSafety` and `history_digest`,
/// timed. With a tracer it goes through `explore_safety_observed` instead
/// and leaves one span per BFS level under the caller's open span.
fn explore(
    checker: &Checker,
    sys: &OfSystem,
    active: &[ProcessId],
    depth: usize,
    tracer: Option<&mut Tracer>,
) -> (Duration, ExploreOutcome) {
    let safety = ConsensusSafety::new();
    let Some(tracer) = tracer else {
        let start = Instant::now();
        let out = explore_safety_with(checker, sys, active, depth, &safety, history_digest);
        return (start.elapsed(), out);
    };
    let mut cuts = LevelCuts::new();
    let start = Instant::now();
    let out = explore_safety_observed(
        checker,
        sys,
        active,
        depth,
        &safety,
        history_digest,
        |depth, stats| {
            cuts.cut(
                depth,
                stats.configs as u64,
                stats.transitions as u64,
                stats.dedup_hits as u64,
            );
            true
        },
    );
    let end = Instant::now();
    let last = [
        out.stats.configs as u64,
        out.stats.transitions as u64,
        out.stats.dedup_hits as u64,
    ];
    cuts.record(tracer, end, last);
    (end - start, out)
}

/// A request answered by a direct call into the library.
pub enum Direct {
    /// `explore_safety_with` on OF consensus under `ConsensusSafety`.
    Safety {
        sys: OfSystem,
        active: Vec<ProcessId>,
        depth: usize,
    },
    /// `run_bivalence_adversary_with` (Cor 4.10 / Thm 5.2's black point).
    Adversary {
        sys: OfSystem,
        active: Vec<ProcessId>,
    },
    /// `Automaton::executions_on` over Thm 4.9's `It`.
    Automata { it: Automaton<Action>, depth: usize },
}

pub fn all_processes(n: usize) -> Vec<ProcessId> {
    (0..n).map(ProcessId::new).collect()
}

impl Direct {
    pub fn safety(inputs: &[i64], depth: usize) -> Direct {
        Direct::Safety {
            sys: of_system(inputs, 16),
            active: all_processes(inputs.len()),
            depth,
        }
    }

    /// The instance of a direct workload. The proposal values are fixed,
    /// not drawn from the seed: relabelling them (order preserved) leaves
    /// the state graph and every count unchanged, yet moves `verdict_s` by
    /// ±12 % (1.78 s at (9, 41), 2.3 s at (19, 21) on `many-small`) — a
    /// data-dependent hashing effect that would drown every other signal
    /// if it varied between runs. It is a finding for a later issue.
    pub fn build(workload: Workload) -> Direct {
        match workload {
            Workload::DeepResident | Workload::DeepSpill | Workload::DeepPar => {
                Direct::safety(&[1, 2, 2], DEEP_DEPTH)
            }
            Workload::ManySmall => Direct::Adversary {
                sys: of_system(&[1, 2], ADVERSARY_ROUNDS),
                active: all_processes(2),
            },
            Workload::WideNodedup => {
                let ops = [0, 1, 2].map(|v| Operation::Propose(Value::new(v)));
                Direct::Automata {
                    it: trivial_it(4, &ops, &[]),
                    depth: AUTOMATA_DEPTH,
                }
            }
            Workload::ServeDeep | Workload::ServeBurst => {
                unreachable!("served workloads have no direct instance")
            }
        }
    }

    /// One repetition on `checker`. A tracer gets the safety exploration's
    /// level spans; the adversary and the automata enumeration have no
    /// observed entry point and leave none.
    pub fn run(&self, checker: &Checker, tracer: Option<&mut Tracer>) -> Observed {
        match self {
            Direct::Safety { sys, active, depth } => {
                let (elapsed, out) = explore(checker, sys, active, *depth, tracer);
                let counts = RunCounts::of_stats(&out.stats);
                Observed {
                    elapsed,
                    pins: exploration_pins(
                        out.holds(),
                        out.violations.len() as u64,
                        out.truncated,
                        &counts,
                    ),
                    counts,
                }
            }
            Direct::Adversary { sys, active } => {
                let mut sys = sys.clone();
                let start = Instant::now();
                let report = run_bivalence_adversary_with(
                    checker,
                    &mut sys,
                    active,
                    ADVERSARY_STEPS,
                    VALENCE_BUDGET,
                );
                let elapsed = start.elapsed();
                Observed {
                    elapsed,
                    pins: adversary_pins(
                        report.adversary_won(),
                        report.bivalent_throughout,
                        report.steps,
                        report.valence_configs,
                    ),
                    counts: RunCounts {
                        configs: report.valence_configs,
                        adversary_steps: report.steps,
                        ..RunCounts::default()
                    },
                }
            }
            Direct::Automata { it, depth } => {
                let start = Instant::now();
                let executions = it.executions_on(checker, *depth);
                let elapsed = start.elapsed();
                let n = executions.len() as u64;
                // Every execution is both a state and a finding, and no
                // two are equal: `n - 1` successors, none deduplicated.
                Observed {
                    elapsed,
                    pins: automata_pins(n),
                    counts: RunCounts {
                        configs: n,
                        transitions: n.saturating_sub(1),
                        executions: n,
                        ..RunCounts::default()
                    },
                }
            }
        }
    }
}

/// An in-process check server on a socket, shut down when dropped.
pub struct Service {
    handle: Option<ServerHandle>,
}

impl Service {
    pub fn start(addr: &str, checkpoint_root: &Path, workers: usize) -> std::io::Result<Service> {
        let config = ServerConfig {
            workers,
            checkpoint_every: SERVE_CHECKPOINT_EVERY,
            threads: 1,
            ..ServerConfig::new(checkpoint_root)
        };
        let handle = CheckServer::start(addr, config, ScenarioRegistry::builtin())?;
        Ok(Service {
            handle: Some(handle),
        })
    }

    pub fn addr(&self) -> &str {
        self.handle.as_ref().expect("running").local_addr()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

pub fn request(id: String, scenario: &str, depth: u64) -> CheckRequest {
    CheckRequest {
        request_id: id,
        scenario: scenario.to_string(),
        depth,
        config_budget: None,
        mem_budget: None,
        progress_every: 1,
    }
}

/// One served request, timed from `Connection::submit` (inside
/// `run_to_verdict`) to the `Verdict` frame. With a tracer, progress
/// frames become level spans, cut by arrival time at the client.
pub fn serve_one(
    conn: &mut Connection,
    req: &CheckRequest,
    tracer: Option<&mut Tracer>,
) -> Result<(Observed, VerdictFrame), String> {
    let mut cuts = LevelCuts::new();
    let mut first_progress = None;
    let mut frames = 0u64;
    let mut next_depth = 0;
    let start = Instant::now();
    let outcome = conn
        .run_to_verdict(req, |p| {
            first_progress.get_or_insert_with(|| start.elapsed());
            // An idle server re-sends its freshest frame as a heartbeat;
            // only a frame for a new level counts, so counts repeat.
            if p.depth < next_depth {
                return;
            }
            next_depth = p.depth + 1;
            frames += 1;
            if tracer.is_some() {
                cuts.cut(p.depth as usize, p.configs, p.transitions, p.dedup_hits);
            }
        })
        .map_err(|e| format!("{}: {e}", req.request_id))?;
    let end = Instant::now();
    let v = match outcome {
        ServiceOutcome::Verdict(v) => v,
        ServiceOutcome::Error { message, .. } => {
            return Err(format!("{}: server error: {message}", req.request_id))
        }
    };
    if let Some(tracer) = tracer {
        cuts.record(tracer, end, [v.configs, v.transitions, v.dedup_hits]);
    }
    let counts = RunCounts {
        configs: v.configs,
        transitions: v.transitions,
        dedup_hits: v.dedup_hits,
        peak_frontier: v.peak_frontier,
        progress_frames: frames,
        first_progress,
        ..RunCounts::default()
    };
    let observed = Observed {
        elapsed: end - start,
        pins: exploration_pins(v.holds, v.findings, v.truncated, &counts),
        counts,
    };
    Ok((observed, v))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstRequest {
    pub scenario: &'static str,
    pub depth: u64,
}

/// One client's requests for one pass of `serve-burst`: two thirds `grid`
/// at depths 24..=48, one third `of-consensus-safety` at depths 20..=32.
/// The depths are stratified — every pass holds the same multiset, so the
/// latency distribution does not depend on the seed — and the seed draws
/// the order, which is what decides how the two clients' requests
/// interleave at the server.
pub fn burst_mix(seed: u64, client: usize) -> Vec<BurstRequest> {
    let grids = (0..BURST_REQUESTS * 2 / 3).map(|i| BurstRequest {
        scenario: GRID,
        depth: 24 + (i % 25) as u64,
    });
    let checks = (0..BURST_REQUESTS / 3).map(|i| BurstRequest {
        scenario: OF_CONSENSUS,
        depth: 20 + (i % 13) as u64,
    });
    let mut mix: Vec<BurstRequest> = grids.chain(checks).collect();
    let mut rng = SplitMix64::new(seed ^ (client as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    for i in (1..mix.len()).rev() {
        mix.swap(i, rng.range(0, i as u64) as usize);
    }
    mix
}

/// The verdict line a served request must produce, from the closed form
/// (`grid`) or from a direct run done at set-up (`of-consensus-safety`).
pub struct BurstOracle {
    /// `(depth, frame)` for every consensus depth in the mix; the frame's
    /// id is blank and filled per request.
    consensus: Vec<(u64, VerdictFrame)>,
}

fn frame(holds: bool, findings: u64, truncated: bool, c: &RunCounts) -> VerdictFrame {
    VerdictFrame {
        request_id: String::new(),
        holds,
        findings,
        configs: c.configs,
        transitions: c.transitions,
        dedup_hits: c.dedup_hits,
        peak_frontier: c.peak_frontier,
        truncated,
        elapsed_micros: 0,
        resumed_from_depth: None,
    }
}

/// The `grid` scenario's verdict in closed form: a `(d+1)²` lattice walked
/// by `+x`/`+y`, `2d(d+1)` moves of which all but one per non-origin cell
/// are duplicates, widest on the anti-diagonal, one finding at the corner.
pub fn grid_frame(d: u64) -> VerdictFrame {
    let counts = RunCounts {
        configs: (d + 1) * (d + 1),
        transitions: 2 * d * (d + 1),
        dedup_hits: d * d,
        peak_frontier: d + 1,
        ..RunCounts::default()
    };
    frame(false, 1, false, &counts)
}

/// A direct, unserved run of the `of-consensus-safety` scenario's system
/// (two proposers, inputs 1 and 2, 16 rounds).
pub fn direct_consensus_frame(depth: u64) -> VerdictFrame {
    let sys = of_system(&[1, 2], 16);
    let (_, out) = explore(
        &pinned_checker(1),
        &sys,
        &all_processes(2),
        depth as usize,
        None,
    );
    frame(
        out.holds(),
        out.violations.len() as u64,
        out.truncated,
        &RunCounts::of_stats(&out.stats),
    )
}

impl BurstOracle {
    pub fn build() -> BurstOracle {
        BurstOracle {
            consensus: (20..=32).map(|d| (d, direct_consensus_frame(d))).collect(),
        }
    }

    /// Whether `served` equals the oracle's verdict for `req`, compared
    /// through `verdict_line` with the ids made equal.
    pub fn agrees(&self, req: &CheckRequest, served: &VerdictFrame) -> bool {
        let mut want = if req.scenario == GRID {
            grid_frame(req.depth)
        } else {
            match self.consensus.iter().find(|(d, _)| *d == req.depth) {
                Some((_, frame)) => frame.clone(),
                None => return false,
            }
        };
        want.request_id = served.request_id.clone();
        verdict_line(&req.scenario, &want) == verdict_line(&req.scenario, served)
    }
}

/// One request of a burst pass as its client saw it.
pub struct BurstSample {
    pub start: Instant,
    pub end: Instant,
    pub ok: bool,
    pub scenario: &'static str,
    pub depth: u64,
    pub counts: RunCounts,
}

/// The `serve-burst` clients: one connection each, closed loop.
pub struct Burst {
    conns: Vec<Connection>,
    mixes: Vec<Vec<BurstRequest>>,
    oracle: BurstOracle,
}

impl Burst {
    pub fn connect(addr: &str, seed: u64) -> Result<Burst, String> {
        let clients = fan_out();
        let conns = (0..clients)
            .map(|_| connect(addr).map_err(|e| format!("connect {addr}: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(Burst {
            conns,
            mixes: (0..clients).map(|c| burst_mix(seed, c)).collect(),
            oracle: BurstOracle::build(),
        })
    }

    /// One pass: every client sends its mix, each request after the
    /// previous verdict. `id_prefix` makes the pass's request ids unique —
    /// resubmitting a finished id would resume it and time nothing.
    pub fn pass(&mut self, id_prefix: &str) -> Vec<BurstSample> {
        let oracle = &self.oracle;
        std::thread::scope(|scope| {
            let clients: Vec<_> = self
                .conns
                .iter_mut()
                .zip(&self.mixes)
                .enumerate()
                .map(|(c, (conn, mix))| {
                    scope.spawn(move || {
                        mix.iter()
                            .enumerate()
                            .map(|(i, r)| {
                                let req =
                                    request(format!("{id_prefix}-c{c}-{i}"), r.scenario, r.depth);
                                let start = Instant::now();
                                let served = serve_one(conn, &req, None);
                                let end = Instant::now();
                                let (ok, counts) = match served {
                                    Ok((observed, v)) => (oracle.agrees(&req, &v), observed.counts),
                                    Err(message) => {
                                        eprintln!("serve-burst: {message}");
                                        (false, RunCounts::default())
                                    }
                                };
                                BurstSample {
                                    start,
                                    end,
                                    ok,
                                    scenario: r.scenario,
                                    depth: r.depth,
                                    counts,
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("burst client panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("deep"), None);
    }

    #[test]
    fn the_same_seed_draws_the_same_burst_mix() {
        assert_eq!(burst_mix(7, 0), burst_mix(7, 0));
        assert_ne!(burst_mix(7, 0), burst_mix(7, 1), "clients differ");
        assert_ne!(burst_mix(7, 0), burst_mix(8, 0), "seeds differ");
    }

    #[test]
    fn every_burst_mix_holds_the_same_stratified_requests() {
        let canonical = |seed, client| {
            let mut mix: Vec<(&str, u64)> = burst_mix(seed, client)
                .iter()
                .map(|r| (r.scenario, r.depth))
                .collect();
            mix.sort_unstable();
            mix
        };
        let mix = canonical(1, 0);
        assert_eq!(mix, canonical(99, 1), "the seed only draws the order");
        assert_eq!(mix.len(), BURST_REQUESTS);
        let grids: Vec<u64> = mix.iter().filter(|r| r.0 == GRID).map(|r| r.1).collect();
        assert_eq!(grids.len(), 100);
        assert_eq!((grids[0], grids[99]), (24, 48));
        assert!((24..=48).all(|d| grids.iter().filter(|&&g| g == d).count() == 4));
        let checks: Vec<u64> = mix
            .iter()
            .filter(|r| r.0 == OF_CONSENSUS)
            .map(|r| r.1)
            .collect();
        assert_eq!(checks.len(), 50);
        assert!(checks.iter().all(|d| (20..=32).contains(d)));
    }

    #[test]
    fn grid_closed_form_matches_a_hand_count() {
        // d = 1: four cells, four moves, (1,1) reached twice.
        let v = grid_frame(1);
        assert_eq!(
            (v.configs, v.transitions, v.dedup_hits, v.peak_frontier),
            (4, 4, 1, 2)
        );
        assert!(!v.holds && v.findings == 1 && !v.truncated);
    }
}
