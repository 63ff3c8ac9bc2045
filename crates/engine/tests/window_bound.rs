//! The level window is really bounded.
//!
//! The BFS kernel streams a level through a bounded window instead of
//! building every successor of the level before deduplicating any: a
//! duplicate dies within a window of its birth. A benchmark shows that as
//! speed and resident memory; this test shows it as a count. Every state
//! of the space below is tallied by a live-instance gauge (bumped where a
//! state is made, dropped in `Drop`), and on a wide resident level the
//! peak number alive must stay within the level being expanded, the level
//! being built, and the window — so a change that goes back to
//! materializing the level fails here, not only on a chart.

use std::sync::atomic::{AtomicUsize, Ordering};

use slx_engine::{digest128_of, Checker, DeltaCodec, Digest, Expansion, StateCodec, StateSpace};

// Process-wide, so this file holds exactly one test.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A state that knows how many of its kind are alive.
struct Gauged(u64);

impl Gauged {
    fn new(value: u64) -> Self {
        let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
        PEAK.fetch_max(live, Ordering::SeqCst);
        Gauged(value)
    }
}

impl Clone for Gauged {
    fn clone(&self) -> Self {
        Gauged::new(self.0)
    }
}

impl Drop for Gauged {
    fn drop(&mut self) {
        LIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

impl StateCodec for Gauged {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        u64::decode(input).map(Gauged::new)
    }
}

impl DeltaCodec for Gauged {}

/// Successors pushed per parent: both children, twice.
const FANOUT: usize = 4;

/// A binary tree, level `d` holding `2^d` states, whose every parent
/// pushes both children twice: half of all successors are duplicates, so
/// a level's successors outnumber the level they dedup into two to one.
struct DoubledTree {
    depth: usize,
}

impl StateSpace for DoubledTree {
    type State = Gauged;
    type Finding = ();

    fn digest(&self, state: &Gauged) -> Digest {
        digest128_of(&state.0)
    }

    fn expand(&self, state: &Gauged, depth: usize, ctx: &mut Expansion<Self>) {
        if depth >= self.depth {
            return;
        }
        for _ in 0..FANOUT / 2 {
            ctx.push(Gauged::new(state.0 * 2 + 1));
            ctx.push(Gauged::new(state.0 * 2 + 2));
        }
    }
}

#[test]
fn peak_live_states_stay_within_two_levels_and_the_window() {
    const DEPTH: usize = 14;
    let widest = 1usize << DEPTH;
    // The gauge peaks while the second-widest level is expanded into the
    // widest: the one alive (wholly, in a multi-threaded run, which lends
    // its chunk to the workers until the chunk is done; one thread drops
    // each parent as it goes), the other filling up.
    let two_levels = widest / 2 + widest;
    // Every successor of that level alive at once — what the kernel did
    // before it streamed — would be this much:
    let materialized = widest / 2 + FANOUT * widest / 2;
    for threads in [1usize, 2, 4] {
        // With one thread the window is one parent's successors. With
        // more it is blocks of 64 parents: four per thread expanded ahead
        // of the merge, one being merged, and up to two per thread whose
        // rejected successors are on their way back to the thread that
        // built them.
        let window = if threads == 1 {
            FANOUT
        } else {
            (4 * threads + 1 + 2 * threads) * 64 * FANOUT
        };
        assert!(
            two_levels + window < materialized,
            "{threads} threads: the bound must tell streaming from materializing"
        );
        PEAK.store(0, Ordering::SeqCst);
        let out = Checker::parallel_bfs(threads)
            .with_shards(8)
            .with_symmetry(false)
            .with_mem_budget(0)
            .run(&DoubledTree { depth: DEPTH }, vec![Gauged::new(0)]);
        assert_eq!(out.stats.configs, 2 * widest - 1, "{threads} threads");
        assert_eq!(out.stats.peak_frontier, widest, "{threads} threads");
        assert_eq!(out.stats.dedup_hits, 2 * (widest - 1), "{threads} threads");
        let peak = PEAK.load(Ordering::SeqCst);
        assert!(
            peak >= widest,
            "{threads} threads: the gauge must have seen the widest level, saw {peak}"
        );
        assert!(
            peak <= two_levels + window,
            "{threads} threads: {peak} states alive at once; two levels are \
             {two_levels} and the window allows {window} more"
        );
        drop(out);
        assert_eq!(LIVE.load(Ordering::SeqCst), 0, "{threads} threads leaked");
    }
}
