//! `slx_server` — the check service daemon.
//!
//! ```text
//! slx_server <addr> <checkpoint-root> [workers] [every]
//! ```
//!
//! `<addr>` is `unix:<path>` or `tcp:<host:port>` (port 0 = OS-assigned;
//! the resolved address is printed on stderr). `<checkpoint-root>`
//! holds one checkpoint directory per request id — keep it across
//! restarts: it is the resume state.
//!
//! `SLX_SERVER_STALL_AFTER=<n>` parks any run once it passes `n` BFS
//! levels (after that level's checkpoint commit) so a CI harness can
//! `kill -9` the server inside a deterministic window; see the
//! `test-check-service` job.
//!
//! `SLX_ENGINE_FAULT_PLAN=<plan>` arms the seeded fault plane (see
//! `slx_engine::FaultPlan::parse` for the grammar) on the service's
//! sockets and on every request's spill and checkpoint paths.

use slx_server::{CheckServer, ScenarioRegistry, ServerConfig};

fn usage() -> ! {
    eprintln!("usage: slx_server <addr> <checkpoint-root> [workers] [every]");
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

    let stall_after = slx_engine::knobs::SLX_SERVER_STALL_AFTER.usize_value();
    // Arms the socket fault seams (accepts, connection reads/writes) and,
    // through each request's checker, the spill and checkpoint seams.
    // This binary is the only reader of the environment.
    let fault_plan = slx_engine::knobs::SLX_ENGINE_FAULT_PLAN
        .text_value()
        .map(|text| {
            slx_engine::FaultPlan::parse(&text)
                .unwrap_or_else(|err| panic!("malformed SLX_ENGINE_FAULT_PLAN: {err}"))
        });

    let mut config = ServerConfig::new(root);
    config.workers = workers;
    config.checkpoint_every = every;
    config.stall_after = stall_after;
    config.fault_plan = fault_plan;

    let handle =
        CheckServer::start(&addr, config, ScenarioRegistry::builtin()).unwrap_or_else(|e| {
            eprintln!("slx_server: cannot start on {addr}: {e}");
            std::process::exit(1);
        });
    eprintln!("slx_server: listening on {}", handle.local_addr());
    handle.wait();
}
