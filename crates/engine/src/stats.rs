//! Exploration statistics — and the kernel's sanctioned wall-clock.

use std::fmt;
use std::time::Duration;

/// The workspace's sanctioned monotonic wall-clock: a started
/// [`Stopwatch`] reports the time elapsed since [`Stopwatch::start`].
///
/// Every duration a verdict-producing path measures flows through this
/// type, and `slx-analyze`'s determinism lint flags any direct
/// `Instant::now`/`SystemTime` read outside this module (and the bench
/// crate, whose whole purpose is timing): wall-clock must only ever feed
/// *reporting* statistics, never a digest, a merge order, or an encoded
/// byte, and funneling every read through one audited type is what makes
/// that reviewable.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: std::time::Instant,
}

impl Stopwatch {
    /// Starts the clock.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            start: std::time::Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Statistics of one [`crate::Checker`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExploreStats {
    /// Distinct states expanded (by fingerprint).
    pub configs: usize,
    /// Successor states generated (before deduplication).
    pub transitions: usize,
    /// Generated successors dropped because their fingerprint was already
    /// visited at an equal or smaller depth.
    pub dedup_hits: usize,
    /// Among [`ExploreStats::dedup_hits`], successors dropped **only
    /// because of symmetry reduction**: their canonical digest was
    /// already visited but their exact digest was fresh — a distinct
    /// state collapsed into an already-explored orbit. Always 0 when
    /// symmetry is off (the differential suites assert exactly that).
    pub orbit_hits: usize,
    /// Whether symmetry reduction was active for this run (the checker
    /// asked for it **and** the space advertised
    /// [`crate::StateSpace::has_symmetry_reduction`]).
    pub symmetry: bool,
    /// Largest BFS frontier observed.
    pub peak_frontier: usize,
    /// Largest number of decoded frontier states resident in memory at
    /// once while expanding a level. Without a memory budget this equals
    /// [`ExploreStats::peak_frontier`] (whole levels are resident); with
    /// one it stays bounded by the budget's chunk size regardless of
    /// level width — the disk-backed frontier's whole point.
    pub peak_resident_states: usize,
    /// Largest encoded byte size the decoded frontier window reached (the
    /// measure the memory budget bounds; 0 without a budget — unbudgeted
    /// frontiers never encode, so there is nothing to measure). Stays
    /// within one chunk budget (half the memory budget) plus one record,
    /// even when encoded state size grows across a level.
    pub peak_resident_bytes: usize,
    /// Frontier chunks serialized to spill files (0 without a memory
    /// budget, and whenever every level fit in the budget). Counts the
    /// frontiers that were (or began being) expanded.
    pub spilled_chunks: usize,
    /// Bytes written to spill files by the counted chunks.
    pub spilled_bytes: u64,
    /// Parents re-expanded by [`crate::SpillCodec::Replay`] chunk
    /// regeneration (0 under the other codecs and without a budget).
    /// Replay records never split a parent's children across chunks, so
    /// this is also the number of replay group records read back — at
    /// most one re-expansion per spilled parent per level.
    pub replayed_parents: usize,
    /// The frontier memory budget that was active, if any
    /// ([`crate::Checker::with_mem_budget`]). `None` for unbudgeted runs.
    pub mem_budget: Option<usize>,
    /// Whether any expansion reported truncation (horizon or budget hit):
    /// if `false`, the exploration was exhaustive.
    pub truncated: bool,
    /// Whether the run stopped early because the caller's stop predicate
    /// fired (early verdicts, e.g. a bivalence witness).
    pub stopped_early: bool,
    /// BFS level this run was resumed from via [`crate::Checker::resume`]
    /// (`None` for a fresh run). A resumed run re-enters the level loop at
    /// this depth with the checkpointed frontier, visited set, and counters
    /// restored, so verdicts and state counts match the uninterrupted run.
    pub resumed_from_depth: Option<usize>,
    /// Checkpoints committed to the on-disk store over the run's lifetime,
    /// including those carried over from the segments a resumed run
    /// continues (0 when checkpointing is off).
    pub checkpoints_written: usize,
    /// Faults injected by the run's [`crate::FaultPlane`] across every
    /// seam (spill, checkpoint — the engine-owned surfaces). Always 0
    /// when no plan was supplied: the acceptance bar for "the disarmed
    /// plane is free".
    pub faults_injected: u64,
    /// Transient (EINTR-class) I/O errors absorbed by bounded
    /// retry-with-backoff on the spill and checkpoint paths. Nonzero
    /// only under an armed fault plane or a genuinely flaky filesystem.
    pub io_retries: u64,
    /// BFS levels that finished resident after the spill path hit a
    /// persistent out-of-space error and degraded gracefully instead of
    /// failing the run.
    pub degraded_levels: usize,
    /// Worker threads used by the run.
    pub threads: usize,
    /// Visited-set shards used by the run.
    pub shards: usize,
    /// Distinct digests accepted into each visited-set shard by the
    /// deterministic merge, in shard order. A space that does not
    /// [revisit](crate::StateSpace::REVISITS) states inserts its initial
    /// states only. Deterministic for a given
    /// exploration: routing depends only on digests and acceptance only
    /// on frontier order, never on scheduling, thread count, or shard
    /// routing of the dedup work.
    pub shard_occupancy: Vec<usize>,
    /// **Lifetime** wall-clock duration of the run: for a resumed run
    /// this accumulates every earlier segment's persisted elapsed time
    /// (checkpoint images carry it) plus the current segment's, matching
    /// the lifetime `configs`/`transitions` counters — so the derived
    /// [`ExploreStats::states_per_sec`] stays truthful across resumes.
    pub elapsed: Duration,
}

impl ExploreStats {
    /// Distinct states expanded per wall-clock second — a lifetime rate:
    /// both `configs` and `elapsed` span every segment of a resumed run.
    #[must_use]
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.configs as f64 / secs
        } else {
            0.0
        }
    }

    /// Fraction of generated successors that deduplicated against the
    /// visited set (`0.0` when no successors were generated).
    #[must_use]
    pub fn dedup_hit_rate(&self) -> f64 {
        if self.transitions > 0 {
            self.dedup_hits as f64 / self.transitions as f64
        } else {
            0.0
        }
    }

    /// Shard balance: the fullest shard's occupancy over the mean
    /// occupancy. `1.0` is perfect balance (also returned for empty or
    /// unsharded runs); values near the shard count mean one shard
    /// received almost everything (a skewed digest, or a batch insert
    /// that would serialize on it).
    #[must_use]
    pub fn shard_balance(&self) -> f64 {
        let max = self.shard_occupancy.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let total: usize = self.shard_occupancy.iter().sum();
        let mean = total as f64 / self.shard_occupancy.len() as f64;
        max as f64 / mean
    }
}

impl fmt::Display for ExploreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states, {} transitions ({:.1}% dedup), peak frontier {}, \
             {:.0} states/s on {} thread(s)",
            self.configs,
            self.transitions,
            self.dedup_hit_rate() * 100.0,
            self.peak_frontier,
            self.states_per_sec(),
            self.threads,
        )?;
        if self.shards > 1 {
            write!(
                f,
                ", {} shards (balance {:.2})",
                self.shards,
                self.shard_balance()
            )?;
        }
        // `peak_resident_states` is the statistic a memory budget
        // controls, so print it whenever a budget was active — a tuned
        // run whose levels all fit (0 spilled chunks) must still show
        // what the budget held the window to.
        if self.mem_budget.is_some() || self.spilled_chunks > 0 {
            write!(
                f,
                ", spilled {} chunks ({} bytes), peak {} resident states ({} bytes)",
                self.spilled_chunks,
                self.spilled_bytes,
                self.peak_resident_states,
                self.peak_resident_bytes,
            )?;
            if self.replayed_parents > 0 {
                write!(f, ", {} parents replayed", self.replayed_parents)?;
            }
        }
        if self.symmetry {
            write!(f, ", symmetry ({} orbit hits)", self.orbit_hits)?;
        }
        if let Some(depth) = self.resumed_from_depth {
            write!(f, ", resumed from depth {depth}")?;
        }
        if self.checkpoints_written > 0 {
            write!(f, ", {} checkpoints written", self.checkpoints_written)?;
        }
        if self.faults_injected > 0 || self.io_retries > 0 || self.degraded_levels > 0 {
            write!(
                f,
                ", {} faults injected ({} retries, {} degraded levels)",
                self.faults_injected, self.io_retries, self.degraded_levels
            )?;
        }
        write!(
            f,
            "{}{}",
            if self.truncated { ", truncated" } else { "" },
            if self.stopped_early {
                ", stopped early"
            } else {
                ""
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let stats = ExploreStats::default();
        assert_eq!(stats.states_per_sec(), 0.0);
        assert_eq!(stats.dedup_hit_rate(), 0.0);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let stats = ExploreStats {
            configs: 10,
            transitions: 20,
            dedup_hits: 5,
            orbit_hits: 2,
            symmetry: true,
            peak_frontier: 4,
            peak_resident_states: 2,
            peak_resident_bytes: 64,
            spilled_chunks: 3,
            spilled_bytes: 96,
            replayed_parents: 5,
            mem_budget: Some(128),
            truncated: true,
            stopped_early: false,
            resumed_from_depth: Some(8),
            checkpoints_written: 3,
            faults_injected: 7,
            io_retries: 4,
            degraded_levels: 1,
            threads: 2,
            shards: 4,
            shard_occupancy: vec![4, 2, 2, 2],
            elapsed: Duration::from_millis(100),
        };
        let s = stats.to_string();
        assert!(s.contains("10 states"));
        assert!(s.contains("truncated"));
        assert!(s.contains("4 shards"));
        assert!(s.contains("spilled 3 chunks"));
        assert!(s.contains("peak 2 resident states"));
        assert!(s.contains("5 parents replayed"));
        assert!(s.contains("symmetry (2 orbit hits)"));
        assert!(s.contains("resumed from depth 8"));
        assert!(s.contains("3 checkpoints written"));
        assert!(s.contains("7 faults injected (4 retries, 1 degraded levels)"));
    }

    #[test]
    fn display_omits_fault_counters_for_clean_runs() {
        let stats = ExploreStats {
            configs: 10,
            threads: 1,
            shards: 1,
            ..ExploreStats::default()
        };
        assert!(!stats.to_string().contains("faults injected"));
    }

    #[test]
    fn display_omits_checkpointing_for_fresh_uncheckpointed_runs() {
        let stats = ExploreStats {
            configs: 10,
            threads: 1,
            shards: 1,
            ..ExploreStats::default()
        };
        let s = stats.to_string();
        assert!(!s.contains("resumed"));
        assert!(!s.contains("checkpoint"));
    }

    #[test]
    fn display_omits_symmetry_when_off() {
        let stats = ExploreStats {
            configs: 10,
            threads: 1,
            shards: 1,
            ..ExploreStats::default()
        };
        assert!(!stats.to_string().contains("symmetry"));
        // Even with zero orbit hits, an active-symmetry run says so — the
        // zero is the interesting datum (a canonicalizer that never fired).
        let on = ExploreStats {
            symmetry: true,
            ..stats
        };
        assert!(on.to_string().contains("symmetry (0 orbit hits)"));
    }

    #[test]
    fn display_shows_resident_peak_whenever_a_budget_was_active() {
        // The tuned case: a budget is set but every level fit, so nothing
        // spilled. The stat the budget controls must still print.
        let stats = ExploreStats {
            configs: 10,
            peak_frontier: 4,
            peak_resident_states: 4,
            peak_resident_bytes: 96,
            spilled_chunks: 0,
            mem_budget: Some(4096),
            threads: 1,
            shards: 1,
            ..ExploreStats::default()
        };
        let s = stats.to_string();
        assert!(
            s.contains("peak 4 resident states"),
            "budgeted-but-unspilled run must report the resident peak: {s}"
        );
        assert!(s.contains("spilled 0 chunks"), "{s}");
        // Without a budget (and without spilling) the spill line stays
        // out, as before.
        let unbudgeted = ExploreStats {
            configs: 10,
            threads: 1,
            shards: 1,
            ..ExploreStats::default()
        };
        assert!(!unbudgeted.to_string().contains("resident"));
    }

    #[test]
    fn shard_balance_is_max_over_mean() {
        let stats = ExploreStats {
            shard_occupancy: vec![6, 2, 2, 2],
            shards: 4,
            ..ExploreStats::default()
        };
        assert!((stats.shard_balance() - 2.0).abs() < 1e-12);
        assert_eq!(ExploreStats::default().shard_balance(), 1.0);
    }
}
