//! `slx_server` — the check service daemon.
//!
//! ```text
//! slx_server <addr> <checkpoint-root> [workers] [every] [stall-after]
//! ```
//!
//! `<addr>` is `unix:<path>` or `tcp:<host:port>` (port 0 = OS-assigned;
//! the resolved address is printed on stderr). `<checkpoint-root>`
//! holds one checkpoint directory per request id — keep it across
//! restarts: it is the resume state.
//!
//! `[stall-after]`, a positive integer, parks any run once it passes
//! that many BFS levels (after that level's checkpoint commit) so a
//! harness can `kill -9` the server inside a deterministic window; see
//! `tests/server_binary.rs` and the `test-check-service` CI job.
//!
//! A malformed argument or a sixth one prints the usage line and exits 2.

use slx_server::{CheckServer, ScenarioRegistry, ServerConfig};

fn usage() -> ! {
    eprintln!("usage: slx_server <addr> <checkpoint-root> [workers] [every] [stall-after]");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let addr = args.next().unwrap_or_else(|| usage());
    let root = args.next().unwrap_or_else(|| usage());
    let workers: usize = args
        .next()
        .map(|a| a.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(2);
    let every: usize = args
        .next()
        .map(|a| a.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(2);
    let stall_after: Option<usize> = args.next().map(|a| match a.parse() {
        Ok(n) if n > 0 => n,
        _ => usage(),
    });
    if args.next().is_some() {
        usage();
    }

    let mut config = ServerConfig::new(root);
    config.workers = workers;
    config.checkpoint_every = every;
    config.stall_after = stall_after;

    let handle =
        CheckServer::start(&addr, config, ScenarioRegistry::builtin()).unwrap_or_else(|e| {
            eprintln!("slx_server: cannot start on {addr}: {e}");
            std::process::exit(1);
        });
    eprintln!("slx_server: listening on {}", handle.local_addr());
    handle.wait();
}
