//! Commit/abort accounting table for the three TMs and the two Algorithm
//! I(1,2) substrates — the ablation data behind `benches/ablation.rs`, in
//! table form (counts, not wall-clock).
//!
//! Run with: `cargo run --release -p slx-bench --bin fig_ablation [events]`

use slx_bench::{aborts, commits, contended_scheduler};
use slx_core::history::ProcessId;
use slx_core::tm::{AgpTm, AgpTmDc, GlobalVersionTm, LockTm};

fn main() {
    let events: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);

    println!("per {events} scheduler events, contended single-variable workload, seed 11");
    println!(
        "{:<28} {:>3} {:>9} {:>9} {:>10}",
        "implementation", "n", "commits", "aborts", "ts-aborts"
    );
    for n in [1usize, 2, 3, 4, 8] {
        // GlobalVersionTm (timestamp rule off).
        let mut sys = GlobalVersionTm::system(n, 1);
        let mut sched = contended_scheduler(n, 11);
        sys.run(&mut sched, events);
        println!(
            "{:<28} {:>3} {:>9} {:>9} {:>10}",
            "global-version (rule off)",
            n,
            commits(sys.history()),
            aborts(sys.history()),
            "-"
        );

        // AgpTm (rule on, snapshot object).
        let mut sys = AgpTm::system(n, 1);
        let mut sched = contended_scheduler(n, 11);
        sys.run(&mut sched, events);
        let ts_aborts: u64 = (0..n)
            .map(|i| sys.process(ProcessId::new(i)).unwrap().ts_aborts())
            .sum();
        println!(
            "{:<28} {:>3} {:>9} {:>9} {:>10}",
            "I(1,2) snapshot object",
            n,
            commits(sys.history()),
            aborts(sys.history()),
            ts_aborts
        );

        // AgpTmDc (rule on, double collect).
        let mut sys = AgpTmDc::system(n, 1);
        let mut sched = contended_scheduler(n, 11);
        sys.run(&mut sched, events);
        let scan_reads: u64 = (0..n)
            .map(|i| sys.process(ProcessId::new(i)).unwrap().scan_reads())
            .sum();
        println!(
            "{:<28} {:>3} {:>9} {:>9} {:>10}",
            "I(1,2) double collect",
            n,
            commits(sys.history()),
            aborts(sys.history()),
            format!("r={scan_reads}")
        );

        // LockTm baseline.
        let mut sys = LockTm::system(n, 1);
        let mut sched = contended_scheduler(n, 11);
        sys.run(&mut sched, events);
        println!(
            "{:<28} {:>3} {:>9} {:>9} {:>10}",
            "lock baseline",
            n,
            commits(sys.history()),
            aborts(sys.history()),
            "-"
        );
        println!();
    }
    println!("ts-aborts: aborts forced by the timestamp rule (count >= 3);");
    println!("r=N: total register reads spent in double-collect scans.");
}
