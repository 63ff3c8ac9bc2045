//! The `slx_server` binary, driven as a process: its argument contract,
//! and the crash probe its fifth argument arms — park a run past a
//! committed checkpoint, `SIGKILL` the server, restart it on the same
//! checkpoint root, and resume the request to the verdict line an
//! uninterrupted server prints.
//!
//! Every wait is bounded: a server that never parks, never exits or
//! never answers fails the test instead of hanging it.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

use slx_server::client::verdict_line;
use slx_server::{connect, run_with_reconnect, CheckRequest, ServiceOutcome, VerdictFrame};

const SERVER: &str = env!("CARGO_BIN_EXE_slx_server");
const USAGE: &str = "usage: slx_server <addr> <checkpoint-root> [workers] [every] [stall-after]";
const WAIT: Duration = Duration::from_secs(60);

fn unique_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "slx-bin-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

/// A running `slx_server` whose stderr lines arrive on a channel. Killed
/// on drop, so a failed assertion leaves no process behind.
struct Server {
    child: Child,
    stderr: Receiver<String>,
}

impl Server {
    /// Starts the binary with `args` and waits for its "listening" line.
    fn start(args: &[&str]) -> Server {
        let mut child = Command::new(SERVER)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn slx_server");
        let (tx, stderr) = channel();
        let pipe = child.stderr.take().expect("piped stderr");
        std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let server = Server { child, stderr };
        server.wait_for_line("listening on");
        server
    }

    /// Blocks until a stderr line contains `needle`.
    fn wait_for_line(&self, needle: &str) -> String {
        let deadline = Instant::now() + WAIT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.stderr.recv_timeout(left) {
                Ok(line) if line.contains(needle) => return line,
                Ok(_) => {}
                Err(e) => panic!("no stderr line containing {needle:?}: {e}"),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Waits for `child` to exit on its own.
fn exit_within(child: &mut Child, limit: Duration) -> Option<ExitStatus> {
    let deadline = Instant::now() + limit;
    while Instant::now() < deadline {
        if let Some(status) = child.try_wait().expect("poll child") {
            return Some(status);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    let _ = child.wait();
    None
}

fn probe_request() -> CheckRequest {
    CheckRequest {
        request_id: "probe-cons".into(),
        scenario: "of-consensus-safety".into(),
        depth: 20,
        config_budget: None,
        mem_budget: None,
        progress_every: 1,
    }
}

/// Runs the probe request to its verdict on the server at `addr`, on a
/// thread of its own so the wait is bounded.
fn verdict(addr: &str) -> VerdictFrame {
    let (tx, rx) = channel();
    let addr = addr.to_string();
    std::thread::spawn(move || {
        let _ = tx.send(run_with_reconnect(&addr, &probe_request(), 5, |_| {}));
    });
    match rx.recv_timeout(WAIT).expect("a terminal frame in time") {
        Ok(ServiceOutcome::Verdict(v)) => v,
        other => panic!("expected a verdict: {other:?}"),
    }
}

fn addr_in(dir: &Path) -> String {
    format!("unix:{}", dir.join("svc.sock").display())
}

#[test]
fn a_killed_server_resumes_the_parked_request_to_the_uninterrupted_verdict() {
    let dir = unique_dir("kill");
    let addr = addr_in(&dir);
    let root = dir.join("ckpt");
    let root_arg = root.to_str().expect("utf8 temp path");

    // Cadence 1 and a stall at level 9: the run commits an image at
    // every level boundary, then parks. The connection stays open while
    // the run parks — a hangup would cancel it first.
    let server = Server::start(&[&addr, root_arg, "2", "1", "9"]);
    let mut conn = connect(&addr).expect("connect");
    conn.submit(&probe_request()).expect("submit");
    let parked = server.wait_for_line("parked");
    assert!(
        parked.contains("probe-cons") && parked.contains("depth 9"),
        "{parked}"
    );
    drop(server);
    drop(conn);
    assert!(root.join("probe-cons/slx-checkpoint.bin").is_file());
    assert!(
        root.join("probe-cons/slx-visited-0.log").is_file(),
        "the image's visited log sits beside it"
    );

    // Restarted without the stall on the same root: the resubmitted id
    // resumes from the last committed image.
    let server = Server::start(&[&addr, root_arg]);
    let resumed = verdict(&addr);
    drop(server);
    assert_eq!(resumed.resumed_from_depth, Some(9));

    let fresh_dir = unique_dir("fresh");
    let fresh_addr = addr_in(&fresh_dir);
    let server = Server::start(&[&fresh_addr, fresh_dir.join("ckpt").to_str().unwrap()]);
    let fresh = verdict(&fresh_addr);
    drop(server);
    assert_eq!(fresh.resumed_from_depth, None);
    assert_eq!(
        verdict_line("of-consensus-safety", &resumed),
        verdict_line("of-consensus-safety", &fresh)
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
    std::fs::remove_dir_all(&fresh_dir).expect("cleanup");
}

#[test]
fn a_malformed_stall_or_a_sixth_argument_is_a_usage_error() {
    let dir = unique_dir("usage");
    let addr = addr_in(&dir);
    let root = dir.join("ckpt");
    let root_arg = root.to_str().expect("utf8 temp path");
    for tail in [&["0"][..], &["nine"], &["-1"], &["9", "extra"]] {
        let mut child = Command::new(SERVER)
            .args([addr.as_str(), root_arg, "2", "1"])
            .args(tail)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn slx_server");
        let status = exit_within(&mut child, Duration::from_secs(10))
            .unwrap_or_else(|| panic!("{tail:?}: the server must refuse, not start"));
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr)
            .expect("read stderr");
        assert_eq!(status.code(), Some(2), "{tail:?}: {stderr}");
        assert_eq!(stderr.trim_end(), USAGE, "{tail:?}");
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
