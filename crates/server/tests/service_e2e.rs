//! End-to-end service tests: submit over a real socket, stream progress,
//! compare verdicts against direct kernel runs, cancel and resume
//! across server instances, and exercise concurrent clients.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use slx_engine::{
    Checker, Digest, Expansion, FaultKind, FaultOp, FaultPlan, SpillCodec, StateSpace,
};
use slx_server::client::verdict_line;
use slx_server::scenario::{Scenario, ScenarioRun};
use slx_server::wire::ProgressFrame;
use slx_server::{
    connect, run_with_reconnect, CheckRequest, CheckServer, Frame, ScenarioRegistry, ServerConfig,
    ServiceOutcome,
};

fn unique_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "slx-svc-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

/// A socket address under a fresh temp dir (Unix socket paths must stay
/// short, so the tag is kept terse).
fn unix_addr(dir: &std::path::Path) -> String {
    format!("unix:{}", dir.join("svc.sock").display())
}

fn request(id: &str, scenario: &str, depth: u64) -> CheckRequest {
    CheckRequest {
        request_id: id.into(),
        scenario: scenario.into(),
        depth,
        config_budget: None,
        mem_budget: None,
        progress_every: 1,
    }
}

/// The same checker the server pins for every request (1 thread,
/// 8 shards, symmetry off, delta codec, spilling off) minus the
/// checkpointing — checkpointing is a pure observer, so counters match.
fn baseline_checker() -> Checker {
    Checker::parallel_bfs(1)
        .with_shards(8)
        .with_symmetry(false)
        .with_spill_codec(SpillCodec::Delta)
        .with_mem_budget(0)
}

/// The grid scenario's space, re-declared here to compute baselines
/// without going through the server.
struct Grid {
    bound: u32,
}

impl StateSpace for Grid {
    type State = (u32, u32);
    type Finding = (u32, u32);

    fn digest(&self, state: &Self::State) -> Digest {
        slx_engine::digest128_of(state)
    }

    fn expand(&self, &(x, y): &Self::State, _depth: usize, ctx: &mut Expansion<Self>) {
        if x == self.bound && y == self.bound {
            ctx.finding((x, y));
            return;
        }
        if x < self.bound {
            ctx.push((x + 1, y));
        }
        if y < self.bound {
            ctx.push((x, y + 1));
        }
    }
}

#[test]
fn grid_verdict_over_the_socket_matches_the_direct_run() {
    let root = unique_dir("grid");
    let addr = unix_addr(&root);
    let server = CheckServer::start(
        &addr,
        ServerConfig::new(root.join("ckpt")),
        ScenarioRegistry::builtin(),
    )
    .expect("server start");

    let baseline = baseline_checker().run(&Grid { bound: 10 }, vec![(0u32, 0u32)]);

    let mut progress_frames: Vec<ProgressFrame> = Vec::new();
    let mut conn = connect(server.local_addr()).expect("connect");
    let outcome = conn
        .run_to_verdict(&request("grid-10", "grid", 10), |p| {
            progress_frames.push(p.clone())
        })
        .expect("verdict");

    let ServiceOutcome::Verdict(v) = outcome else {
        panic!("expected a verdict, got {outcome:?}");
    };
    assert_eq!(v.request_id, "grid-10");
    assert!(!v.holds, "the far corner is a finding");
    assert_eq!(v.findings, 1);
    assert_eq!(v.configs, baseline.stats.configs as u64);
    assert_eq!(v.transitions, baseline.stats.transitions as u64);
    assert_eq!(v.dedup_hits, baseline.stats.dedup_hits as u64);
    assert_eq!(v.peak_frontier, baseline.stats.peak_frontier as u64);
    assert!(!v.truncated);
    assert_eq!(v.resumed_from_depth, None);

    // Progress streamed at every level (progress_every = 1), with
    // monotone depths and lifetime counters.
    assert!(
        progress_frames.len() >= 10,
        "one snapshot per level, got {}",
        progress_frames.len()
    );
    for pair in progress_frames.windows(2) {
        assert!(pair[0].depth < pair[1].depth);
        assert!(pair[0].configs <= pair[1].configs);
        assert!(pair[0].elapsed_micros <= pair[1].elapsed_micros);
    }
    server.shutdown();
    std::fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn consensus_scenario_runs_and_holds() {
    let root = unique_dir("cons");
    let addr = unix_addr(&root);
    let server = CheckServer::start(
        &addr,
        ServerConfig::new(root.join("ckpt")),
        ScenarioRegistry::builtin(),
    )
    .expect("server start");
    let mut conn = connect(server.local_addr()).expect("connect");
    let outcome = conn
        .run_to_verdict(&request("of-8", "of-consensus-safety", 8), |_| {})
        .expect("verdict");
    let ServiceOutcome::Verdict(v) = outcome else {
        panic!("expected a verdict, got {outcome:?}");
    };
    assert!(v.holds, "consensus safety holds on the Fig 1a system");
    assert_eq!(v.findings, 0);
    assert!(v.configs > 0);
    server.shutdown();
    std::fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn unknown_scenarios_are_refused_with_the_available_list() {
    let root = unique_dir("unknown");
    let addr = unix_addr(&root);
    let server = CheckServer::start(
        &addr,
        ServerConfig::new(root.join("ckpt")),
        ScenarioRegistry::builtin(),
    )
    .expect("server start");
    let mut conn = connect(server.local_addr()).expect("connect");
    let outcome = conn
        .run_to_verdict(&request("x", "no-such-scenario", 4), |_| {})
        .expect("terminal frame");
    match outcome {
        ServiceOutcome::Error { message, .. } => {
            assert!(message.contains("unknown scenario"), "{message}");
            assert!(message.contains("of-consensus-safety"), "{message}");
        }
        other => panic!("expected an error, got {other:?}"),
    }
    // Invalid request ids are refused before touching the filesystem.
    let outcome = conn
        .run_to_verdict(&request("../escape", "grid", 4), |_| {})
        .expect("terminal frame");
    assert!(matches!(outcome, ServiceOutcome::Error { .. }));
    server.shutdown();
    std::fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn six_interleaved_requests_on_one_connection_keep_their_verdicts_apart() {
    let root = unique_dir("multi");
    let addr = unix_addr(&root);
    let mut config = ServerConfig::new(root.join("ckpt"));
    config.workers = 3;
    let server =
        CheckServer::start(&addr, config, ScenarioRegistry::builtin()).expect("server start");

    // Six depths, six ids, one connection: all submitted before any
    // verdict is read, so three workers run them concurrently and their
    // progress/verdict frames interleave freely on the stream.
    let depths: Vec<u64> = (8..14).collect();
    let mut conn = connect(server.local_addr()).expect("connect");
    for depth in &depths {
        conn.submit(&request(&format!("grid-{depth}"), "grid", *depth))
            .expect("submit");
    }

    let mut verdicts = std::collections::HashMap::new();
    let mut progress_ids = std::collections::HashSet::new();
    while verdicts.len() < depths.len() {
        match conn.next_event().expect("event") {
            Some(Frame::Progress(p)) => {
                progress_ids.insert(p.request_id.clone());
            }
            Some(Frame::Verdict(v)) => {
                assert!(
                    verdicts.insert(v.request_id.clone(), v).is_none(),
                    "exactly one verdict per request"
                );
            }
            Some(other) => panic!("unexpected frame {other:?}"),
            None => panic!("server hung up early"),
        }
    }

    for depth in &depths {
        let id = format!("grid-{depth}");
        let bound = u32::try_from(*depth).expect("small depth");
        let baseline = baseline_checker().run(&Grid { bound }, vec![(0u32, 0u32)]);
        let v = verdicts.get(&id).expect("verdict for every id");
        assert_eq!(v.configs, baseline.stats.configs as u64, "{id}");
        assert_eq!(v.transitions, baseline.stats.transitions as u64, "{id}");
        assert_eq!(v.peak_frontier, baseline.stats.peak_frontier as u64, "{id}");
        assert!(progress_ids.contains(&id), "{id} streamed progress");
    }
    server.shutdown();
    std::fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn concurrent_connections_each_get_their_own_stream() {
    let root = unique_dir("conns");
    let addr = unix_addr(&root);
    let mut config = ServerConfig::new(root.join("ckpt"));
    config.workers = 4;
    let server =
        CheckServer::start(&addr, config, ScenarioRegistry::builtin()).expect("server start");
    let addr = server.local_addr().to_string();

    let handles: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let depth = 9 + i;
                let mut conn = connect(&addr).expect("connect");
                let outcome = conn
                    .run_to_verdict(&request(&format!("t{i}"), "grid", depth), |p| {
                        assert_eq!(p.request_id, format!("t{i}"));
                    })
                    .expect("verdict");
                let ServiceOutcome::Verdict(v) = outcome else {
                    panic!("expected verdict");
                };
                assert_eq!(v.request_id, format!("t{i}"));
                (depth, v)
            })
        })
        .collect();
    for handle in handles {
        let (depth, v) = handle.join().expect("client thread");
        let bound = u32::try_from(depth).expect("small depth");
        let baseline = baseline_checker().run(&Grid { bound }, vec![(0u32, 0u32)]);
        assert_eq!(v.configs, baseline.stats.configs as u64);
    }
    server.shutdown();
    std::fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn tcp_transport_carries_the_same_protocol() {
    let root = unique_dir("tcp");
    let server = CheckServer::start(
        "tcp:127.0.0.1:0",
        ServerConfig::new(root.join("ckpt")),
        ScenarioRegistry::builtin(),
    )
    .expect("server start");
    assert!(server.local_addr().starts_with("tcp:127.0.0.1:"));
    let mut conn = connect(server.local_addr()).expect("connect");
    let outcome = conn
        .run_to_verdict(&request("tcp-grid", "grid", 7), |_| {})
        .expect("verdict");
    let ServiceOutcome::Verdict(v) = outcome else {
        panic!("expected verdict");
    };
    let baseline = baseline_checker().run(&Grid { bound: 7 }, vec![(0u32, 0u32)]);
    assert_eq!(v.configs, baseline.stats.configs as u64);
    server.shutdown();
    std::fs::remove_dir_all(&root).expect("cleanup");
}

/// A deliberately slow grid (a few ms per expansion) so a cancel lands
/// mid-run with levels to spare.
struct SleepyGrid;

struct SleepySpace {
    bound: u32,
}

impl StateSpace for SleepySpace {
    type State = (u32, u32);
    type Finding = (u32, u32);

    fn digest(&self, state: &Self::State) -> Digest {
        slx_engine::digest128_of(state)
    }

    fn expand(&self, &(x, y): &Self::State, _depth: usize, ctx: &mut Expansion<Self>) {
        std::thread::sleep(Duration::from_millis(3));
        if x == self.bound && y == self.bound {
            ctx.finding((x, y));
            return;
        }
        if x < self.bound {
            ctx.push((x + 1, y));
        }
        if y < self.bound {
            ctx.push((x, y + 1));
        }
    }
}

impl Scenario for SleepyGrid {
    fn run(
        &self,
        req: &CheckRequest,
        checker: Checker,
        progress: &mut dyn FnMut(usize, &slx_engine::ExploreStats) -> bool,
    ) -> ScenarioRun {
        let space = SleepySpace {
            bound: u32::try_from(req.depth).unwrap_or(u32::MAX),
        };
        let out = checker.run_observed(&space, vec![(0u32, 0u32)], |_| false, progress);
        ScenarioRun {
            holds: out.findings.is_empty(),
            findings: out.findings.len(),
            stats: out.stats,
        }
    }
}

fn sleepy_registry() -> ScenarioRegistry {
    let mut reg = ScenarioRegistry::builtin();
    reg.register("sleepy-grid", Arc::new(SleepyGrid));
    reg
}

#[test]
fn cancelled_requests_resume_on_resubmit_even_across_server_instances() {
    let root = unique_dir("cancel");
    let ckpt_root = root.join("ckpt");
    let addr = unix_addr(&root);
    let mut config = ServerConfig::new(&ckpt_root);
    config.checkpoint_every = 1;
    let server = CheckServer::start(&addr, config.clone(), sleepy_registry()).expect("server");

    // Submit the slow grid, let two progress frames arrive (≥ two
    // committed checkpoints at cadence 1), then cancel.
    let req = request("slow-1", "sleepy-grid", 12);
    let mut conn = connect(server.local_addr()).expect("connect");
    conn.submit(&req).expect("submit");
    let mut seen = 0;
    while seen < 2 {
        match conn.next_event().expect("event") {
            Some(Frame::Progress(_)) => seen += 1,
            Some(other) => panic!("unexpected frame before cancel: {other:?}"),
            None => panic!("server hung up"),
        }
    }
    conn.cancel("slow-1").expect("cancel");
    let outcome = conn.wait_for("slow-1", &mut |_| {}).expect("terminal");
    match outcome {
        ServiceOutcome::Error { message, .. } => {
            assert!(message.contains("cancelled"), "{message}");
            assert!(message.contains("resubmit"), "{message}");
        }
        other => panic!("cancelled request must end in an error frame: {other:?}"),
    }
    drop(conn);
    // First instance down — the checkpoint root is the only survivor,
    // exactly like a server crash.
    server.shutdown();

    let server2 = CheckServer::start(&addr, config, sleepy_registry()).expect("restart");
    let mut conn = connect(server2.local_addr()).expect("reconnect");
    let outcome = conn.run_to_verdict(&req, |_| {}).expect("verdict");
    let ServiceOutcome::Verdict(v) = outcome else {
        panic!("resubmitted request must finish: {outcome:?}");
    };
    assert!(
        v.resumed_from_depth.is_some(),
        "the resubmit must resume, not restart"
    );

    // Resume ≡ fresh on every pinned counter.
    let baseline = baseline_checker().run(&SleepySpace { bound: 12 }, vec![(0u32, 0u32)]);
    assert_eq!(v.findings, 1);
    assert_eq!(v.configs, baseline.stats.configs as u64);
    assert_eq!(v.transitions, baseline.stats.transitions as u64);
    assert_eq!(v.dedup_hits, baseline.stats.dedup_hits as u64);
    assert_eq!(v.peak_frontier, baseline.stats.peak_frontier as u64);
    assert_eq!(v.truncated, baseline.stats.truncated);
    server2.shutdown();
    std::fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn resubmitting_a_running_id_is_refused_with_a_structured_error() {
    let root = unique_dir("dup");
    let addr = unix_addr(&root);
    let mut config = ServerConfig::new(root.join("ckpt"));
    config.checkpoint_every = 1;
    let server = CheckServer::start(&addr, config, sleepy_registry()).expect("server");

    let req = request("dup-1", "sleepy-grid", 12);
    let mut conn = connect(server.local_addr()).expect("connect");
    conn.submit(&req).expect("submit");
    // Wait until the run demonstrably started.
    match conn.next_event().expect("event") {
        Some(Frame::Progress(p)) => assert_eq!(p.request_id, "dup-1"),
        Some(other) => panic!("expected progress, got {other:?}"),
        None => panic!("server hung up"),
    }

    // Same id, same connection: refused with a structured terminal
    // frame, without disturbing the running request.
    conn.submit(&req).expect("submit duplicate");
    let outcome = conn.wait_for("dup-1", &mut |_| {}).expect("terminal");
    match outcome {
        ServiceOutcome::Error {
            request_id,
            message,
        } => {
            assert_eq!(request_id, "dup-1");
            assert!(message.contains("duplicate request id"), "{message}");
            assert!(message.contains("resubmitting"), "{message}");
        }
        other => panic!("duplicate submit must be refused: {other:?}"),
    }

    // A second connection gets the same refusal while the run lives —
    // the guard is server-wide, not per-connection.
    let mut conn2 = connect(server.local_addr()).expect("connect 2");
    let outcome = conn2.run_to_verdict(&req, |_| {}).expect("terminal");
    match outcome {
        ServiceOutcome::Error { message, .. } => {
            assert!(message.contains("duplicate request id"), "{message}");
        }
        other => panic!("cross-connection duplicate must be refused: {other:?}"),
    }
    drop(conn2);

    // Cancel the original run; once its terminal frame lands, the id
    // frees up and a resubmit resumes it to the real verdict (retrying
    // over the tiny window between the terminal frame and the release).
    conn.cancel("dup-1").expect("cancel");
    let outcome = conn.wait_for("dup-1", &mut |_| {}).expect("terminal");
    match outcome {
        ServiceOutcome::Error { message, .. } => {
            assert!(message.contains("cancelled"), "{message}");
        }
        other => panic!("cancelled request must end in an error frame: {other:?}"),
    }
    let outcome = loop {
        let outcome = conn.run_to_verdict(&req, |_| {}).expect("terminal");
        match outcome {
            ServiceOutcome::Error { message, .. } if message.contains("duplicate request id") => {
                std::thread::sleep(Duration::from_millis(20));
            }
            other => break other,
        }
    };
    let ServiceOutcome::Verdict(v) = outcome else {
        panic!("freed id must run to a verdict: {outcome:?}");
    };
    assert!(
        v.resumed_from_depth.is_some(),
        "the resubmit must resume the cancelled run, not restart it"
    );
    let baseline = baseline_checker().run(&SleepySpace { bound: 12 }, vec![(0u32, 0u32)]);
    assert_eq!(v.configs, baseline.stats.configs as u64);
    assert_eq!(v.transitions, baseline.stats.transitions as u64);
    server.shutdown();
    std::fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn the_configured_fault_plan_reaches_a_served_checks_checkpoint_seams() {
    // The plan targets only the checkpoint write, with a kind no retry
    // absorbs: the socket seams stay quiet, and the request can only fail
    // if the plan armed the request's own checker.
    let root = unique_dir("ckpt-fault");
    let addr = unix_addr(&root);
    let mut config = ServerConfig::new(root.join("ckpt"));
    config.checkpoint_every = 1;
    config.fault_plan = Some(
        FaultPlan::seeded(5)
            .with_rate(1024)
            .with_ops(&[FaultOp::CkptWrite])
            .with_kinds(&[FaultKind::Torn]),
    );
    let server =
        CheckServer::start(&addr, config, ScenarioRegistry::builtin()).expect("server start");
    let mut conn = connect(server.local_addr()).expect("connect");
    let outcome = conn
        .run_to_verdict(&request("torn-1", "grid", 10), |_| {})
        .expect("terminal frame");
    match outcome {
        ServiceOutcome::Error {
            request_id,
            message,
        } => {
            assert_eq!(request_id, "torn-1");
            assert!(
                message.contains("checkpoint") && message.contains("torn"),
                "{message}"
            );
        }
        other => panic!("a torn checkpoint write must end the request: {other:?}"),
    }
    server.shutdown();
    std::fs::remove_dir_all(&root).expect("cleanup");
}

/// Serves `grid` and `of-consensus-safety` on a fresh server armed with
/// `fault_plan` and returns their verdict lines. The client runs on its own
/// thread so a wedged stream fails the test instead of hanging it.
fn served_verdict_lines(tag: &str, fault_plan: Option<FaultPlan>) -> Vec<String> {
    let root = unique_dir(tag);
    let addr = unix_addr(&root);
    let mut config = ServerConfig::new(root.join("ckpt"));
    config.fault_plan = fault_plan;
    let server =
        CheckServer::start(&addr, config, ScenarioRegistry::builtin()).expect("server start");
    let served = server.local_addr().to_string();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let lines: Vec<String> = [("grid", 12), ("of-consensus-safety", 20)]
            .into_iter()
            .map(|(scenario, depth)| {
                let req = request(&format!("{scenario}-{depth}"), scenario, depth);
                match run_with_reconnect(&served, &req, 10, |_| {}) {
                    Ok(ServiceOutcome::Verdict(v)) => verdict_line(scenario, &v),
                    other => format!("{scenario}: no verdict: {other:?}"),
                }
            })
            .collect();
        let _ = tx.send(lines);
    });
    let lines = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("both requests reach a terminal frame within two minutes");
    server.shutdown();
    std::fs::remove_dir_all(&root).expect("cleanup");
    lines
}

#[test]
fn socket_faults_leave_the_verdict_lines_unchanged() {
    // Stalls, short transfers and EINTR on the accept loop and on every
    // server-side socket read and write: frames must still arrive whole,
    // so the client prints the fault-free server's lines byte for byte.
    let plan = FaultPlan::seeded(9)
        .with_rate(96)
        .with_ops(&[FaultOp::Accept, FaultOp::SockRead, FaultOp::SockWrite])
        .with_kinds(&[FaultKind::Stall, FaultKind::Short, FaultKind::Eintr]);
    let faulted = served_verdict_lines("sock-fault", Some(plan));
    let clean = served_verdict_lines("sock-clean", None);
    assert!(clean.iter().all(|l| l.starts_with("verdict=")), "{clean:?}");
    assert_eq!(faulted, clean);
}
