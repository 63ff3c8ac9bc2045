//! Shared helpers for the engine's integration-test harnesses.
//!
//! Each integration test is its own crate, so anything both harnesses
//! need lives here; not every harness uses every helper.
#![allow(dead_code)]

use slx_consensus::{ConsWord, ObstructionFreeConsensus};
use slx_engine::{Checker, Digest, Expansion, ExploreStats, StateSpace};
use slx_history::{Operation, ProcessId, Value};
use slx_memory::{Memory, System};

/// [`ObstructionFreeConsensus::proposers`] over a memory whose first
/// object is somebody else's, so that no register run starts at object 0
/// — where an offset mistaken for an id reads the same.
pub fn off_base_proposers(
    inputs: &[i64],
    max_rounds: usize,
) -> System<ConsWord, ObstructionFreeConsensus> {
    let n = inputs.len();
    let mut mem: Memory<ConsWord> = Memory::new();
    mem.alloc_tas();
    let layout = ObstructionFreeConsensus::layout(&mut mem, n, max_rounds);
    let procs = (0..n)
        .map(|i| ObstructionFreeConsensus::new(layout, ProcessId::new(i), n))
        .collect();
    let mut sys = System::new(mem, procs);
    for (i, &input) in inputs.iter().enumerate() {
        sys.invoke(ProcessId::new(i), Operation::Propose(Value::new(input)))
            .expect("a fresh process accepts its first invocation");
    }
    sys
}

/// SplitMix64, reimplemented locally (the engine crate is dependency-free
/// and deliberately does not export a PRNG).
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// A random 128-bit digest. Half the time the top bits are squeezed
    /// into a few values so shard routing sees skewed streams too.
    pub fn digest(&mut self) -> u128 {
        let lo = self.next() as u128;
        let hi = if self.next().is_multiple_of(2) {
            self.next() as u128
        } else {
            (self.next() % 3) as u128
        };
        hi << 64 | lo
    }

    /// Fisher–Yates shuffle driven by this generator.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Transpose-symmetric grid walk: `(x, y)` with moves +x/+y to a bound,
/// a finding at the far corner, coordinate-sort canonicalization (sound:
/// the dynamics and the finding are swap-invariant) — and a panic on the
/// first expansion at `kill_depth`, standing in for the process dying
/// mid-level.
pub struct SymGrid {
    pub bound: u32,
    pub kill_depth: usize,
}

/// Disarmed value for a fixture's `kill_depth`.
pub const NEVER: usize = usize::MAX;

impl SymGrid {
    /// A grid that never crashes.
    pub fn new(bound: u32) -> SymGrid {
        SymGrid {
            bound,
            kill_depth: NEVER,
        }
    }

    /// The member every state of `state`'s orbit canonicalizes to.
    pub fn representative(&(x, y): &(u32, u32)) -> (u32, u32) {
        (x.min(y), x.max(y))
    }
}

impl StateSpace for SymGrid {
    type State = (u32, u32);
    type Finding = (u32, u32);

    fn digest(&self, state: &Self::State) -> Digest {
        slx_engine::digest128_of(state)
    }

    fn expand(&self, &(x, y): &Self::State, depth: usize, ctx: &mut Expansion<Self>) {
        assert!(depth < self.kill_depth, "injected crash at level {depth}");
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

    fn has_symmetry_reduction(&self) -> bool {
        true
    }

    fn canonical_digest(&self, state: &Self::State) -> Digest {
        self.digest(&SymGrid::representative(state))
    }
}

/// The visited logs in a checkpoint directory.
pub fn visited_logs(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut logs: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "log"))
        .collect();
    logs.sort();
    logs
}

/// The length of the one visited log in `dir`, 0 if there is none yet.
pub fn log_len(dir: &std::path::Path) -> u64 {
    match visited_logs(dir).as_slice() {
        [] => 0,
        [log] => std::fs::metadata(log).expect("log metadata").len(),
        logs => panic!("more than one log: {logs:?}"),
    }
}

/// What the visited log holds once a commit at a boundary with these
/// statistics lands: a 16-byte record per visited digest or, under
/// symmetry, a 17-byte tagged record per visited digest and per exact
/// digest — one exact digest per visited one plus one per orbit hit
/// (a single initial state, and a fresh orbit is a fresh state).
pub fn log_bytes(stats: &ExploreStats) -> u64 {
    let visited: usize = stats.shard_occupancy.iter().sum();
    let bytes = if stats.symmetry {
        17 * (2 * visited + stats.orbit_hits)
    } else {
        16 * visited
    };
    bytes as u64
}

/// [`log_bytes`] at every level boundary of a run of `checker` (which
/// must not checkpoint itself) over `space` from the grid's corner,
/// indexed by depth; past the last level, the log stops growing.
pub fn log_lengths(checker: &Checker, space: &SymGrid) -> Vec<u64> {
    let mut lengths = Vec::new();
    checker
        .try_run_observed(
            space,
            vec![(0, 0)],
            |_| false,
            |depth, stats| {
                assert_eq!(depth, lengths.len());
                lengths.push(log_bytes(stats));
                true
            },
        )
        .expect("a fault-free run");
    lengths
}

/// The log length at boundary `depth` of [`log_lengths`].
pub fn log_at(lengths: &[u64], depth: usize) -> u64 {
    lengths
        .get(depth)
        .or(lengths.last())
        .copied()
        .unwrap_or_default()
}

/// The level of the image `dir` holds, if any, read by a resume of
/// `checker` that is cancelled before it commits anything.
pub fn image_depth(checker: &Checker, dir: &std::path::Path, space: &SymGrid) -> Option<usize> {
    if !slx_engine::CheckpointStore::exists(dir) {
        return None;
    }
    checker
        .clone()
        .resume(dir)
        .try_run_observed(space, vec![(0, 0)], |_| false, |_, _| false)
        .unwrap_or_else(|err| panic!("the committed image in {} loads: {err}", dir.display()))
        .stats
        .resumed_from_depth
}
