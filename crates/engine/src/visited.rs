//! The sharded fingerprint visited set.
//!
//! The PR 1 kernel deduplicated successors against one `HashSet<u128>`,
//! which serialized the merge phase of every BFS level: expansion ran on
//! all cores, then a single thread hashed every generated successor into
//! the shared set. [`ShardedVisited`] removes that bottleneck by splitting
//! the digest space into a power-of-two number of shards, each an
//! independent `HashSet` owning a contiguous digest range (the top bits of
//! the 128-bit fingerprint select the shard). A batch of inserts can be
//! split so each worker thread owns a contiguous *range of shards* and
//! inserts proceed with no lock and no atomic traffic — ownership is by
//! digest range, not by contention ([`ShardedVisited::insert_batches`]).
//! The BFS kernel itself has since stopped batching: once a level streams
//! through a bounded window, a successor's insert is 1–2 % of its cost,
//! so the merging thread inserts one digest at a time
//! ([`ShardedVisited::insert`]) and the shards only bound table size.
//!
//! Determinism is preserved by construction: which shard a digest routes
//! to depends only on the digest, and each shard's inserts are applied in
//! the caller-supplied (global frontier) order, so the fresh/duplicate
//! verdict of every insert — and hence verdicts, visited-configuration
//! counts, and frontier contents — is identical for every shard count and
//! every worker count. The `shard_props` integration test pins this
//! equivalence against a single-map reference on random digest streams.

use crate::detmap::DetHashSet;

/// Upper bound on the shard count (2^12): beyond this the per-shard sets
/// are too small to amortize their fixed footprint at the scopes this
/// workspace explores.
const MAX_SHARDS: usize = 1 << 12;

/// A visited set of 128-bit fingerprints, split into power-of-two shards
/// by digest range.
#[derive(Debug, Clone)]
pub struct ShardedVisited {
    shards: Vec<DetHashSet<u128>>,
    /// `log2(shards.len())`; the top `shard_bits` bits of a digest select
    /// its shard.
    shard_bits: u32,
}

impl ShardedVisited {
    /// A sharded set with `shards` shards, rounded up to the next power of
    /// two and clamped to `[1, 4096]`.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let count = shards.clamp(1, MAX_SHARDS).next_power_of_two();
        ShardedVisited {
            shards: (0..count).map(|_| DetHashSet::default()).collect(),
            shard_bits: count.trailing_zeros(),
        }
    }

    /// Number of shards (a power of two).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `digest`: its top `log2(shard_count)` bits. The
    /// digest's two lanes are independently avalanched, so the top bits
    /// are as well-mixed as any others.
    #[must_use]
    pub fn shard_of(&self, digest: u128) -> usize {
        if self.shard_bits == 0 {
            0
        } else {
            (digest >> (128 - self.shard_bits)) as usize
        }
    }

    /// Inserts `digest`, returning `true` if it was not yet present.
    pub fn insert(&mut self, digest: u128) -> bool {
        let shard = self.shard_of(digest);
        self.shards[shard].insert(digest)
    }

    /// Whether `digest` has been inserted.
    #[must_use]
    pub fn contains(&self, digest: u128) -> bool {
        self.shards[self.shard_of(digest)].contains(&digest)
    }

    /// Total distinct digests across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(DetHashSet::len).sum()
    }

    /// Whether no digest has been inserted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(DetHashSet::is_empty)
    }

    /// Per-shard occupancy (distinct digests per shard), in shard order.
    #[must_use]
    pub fn occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(DetHashSet::len).collect()
    }

    /// Inserts one pre-routed batch per shard, in batch order, and returns
    /// the per-shard fresh bits (`true` where the digest was new), aligned
    /// with the input batches.
    ///
    /// `batches[s]` must contain only digests routed to shard `s` (checked
    /// in debug builds). With `workers > 1` the shards are split into
    /// contiguous ranges, one per worker, and inserted concurrently —
    /// lock-free, since each worker exclusively owns its shard range. The
    /// returned bits are identical for every worker count because each
    /// shard's insert order is fixed by its batch.
    pub fn insert_batches(&mut self, batches: &[Vec<u128>], workers: usize) -> Vec<Vec<bool>> {
        assert_eq!(
            batches.len(),
            self.shards.len(),
            "one batch per shard required"
        );
        #[cfg(debug_assertions)]
        for (shard, batch) in batches.iter().enumerate() {
            for &digest in batch {
                debug_assert_eq!(self.shard_of(digest), shard, "digest routed to wrong shard");
            }
        }

        let insert_all = |sets: &mut [DetHashSet<u128>], routed: &[Vec<u128>]| -> Vec<Vec<bool>> {
            sets.iter_mut()
                .zip(routed)
                .map(|(set, batch)| batch.iter().map(|&digest| set.insert(digest)).collect())
                .collect()
        };

        let workers = workers.clamp(1, self.shards.len());
        if workers == 1 {
            return insert_all(&mut self.shards, batches);
        }

        let per_worker = self.shards.len().div_ceil(workers);
        let mut grouped: Vec<Vec<Vec<bool>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .chunks_mut(per_worker)
                .zip(batches.chunks(per_worker))
                .map(|(sets, routed)| scope.spawn(move || insert_all(sets, routed)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        let mut fresh = Vec::with_capacity(self.shards.len());
        for group in &mut grouped {
            fresh.append(group);
        }
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedVisited::new(0).shard_count(), 1);
        assert_eq!(ShardedVisited::new(1).shard_count(), 1);
        assert_eq!(ShardedVisited::new(3).shard_count(), 4);
        assert_eq!(ShardedVisited::new(16).shard_count(), 16);
        assert_eq!(ShardedVisited::new(usize::MAX).shard_count(), MAX_SHARDS);
    }

    #[test]
    fn insert_and_contains_roundtrip() {
        let mut set = ShardedVisited::new(8);
        assert!(set.is_empty());
        assert!(set.insert(7));
        assert!(!set.insert(7));
        assert!(set.contains(7));
        assert!(!set.contains(8));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn top_bits_select_the_shard() {
        let set = ShardedVisited::new(4);
        assert_eq!(set.shard_of(0), 0);
        assert_eq!(set.shard_of(u128::MAX), 3);
        assert_eq!(set.shard_of(1u128 << 126), 1);
        assert_eq!(set.shard_of(3u128 << 126), 3);
        // One shard: everything routes to shard 0, no 128-bit shift.
        let single = ShardedVisited::new(1);
        assert_eq!(single.shard_of(u128::MAX), 0);
    }

    #[test]
    fn batched_inserts_match_sequential_inserts() {
        let digests: Vec<u128> = (0..1000u128).map(|i| i << 120 | i).collect();
        let mut sequential = ShardedVisited::new(8);
        let seq_bits: Vec<bool> = digests.iter().map(|&d| sequential.insert(d)).collect();

        for workers in [1, 2, 5, 8] {
            let mut batched = ShardedVisited::new(8);
            let mut batches: Vec<Vec<u128>> = vec![Vec::new(); 8];
            let mut route: Vec<(usize, usize)> = Vec::new();
            for &d in &digests {
                let s = batched.shard_of(d);
                route.push((s, batches[s].len()));
                batches[s].push(d);
            }
            let fresh = batched.insert_batches(&batches, workers);
            let got: Vec<bool> = route.iter().map(|&(s, k)| fresh[s][k]).collect();
            assert_eq!(got, seq_bits, "workers {workers}");
            assert_eq!(batched.len(), sequential.len());
            assert_eq!(batched.occupancy(), sequential.occupancy());
        }
    }

    #[test]
    fn occupancy_sums_to_len() {
        let mut set = ShardedVisited::new(16);
        for i in 0..500u128 {
            set.insert(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) << 64 | i);
        }
        assert_eq!(set.occupancy().iter().sum::<usize>(), set.len());
    }
}
