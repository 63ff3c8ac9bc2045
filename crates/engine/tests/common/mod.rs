//! Shared helpers for the engine's integration-test harnesses.
//!
//! Each integration test is its own crate, so anything both harnesses
//! need lives here; not every harness uses every helper.
#![allow(dead_code)]

use slx_consensus::{ConsWord, ObstructionFreeConsensus};
use slx_engine::{Digest, Expansion, StateSpace};
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
