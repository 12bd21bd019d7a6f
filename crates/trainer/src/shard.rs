//! The parameter shard map behind the sharded-optimizer strategy
//! (reduce-scatter → local step → allgather).
//!
//! Sharding splits the flattened parameter vector into one contiguous,
//! element-aligned range per rank using the **same owner map the ring
//! reduce-scatter uses for its chunks** ([`dcnn_collectives::even_ranges`]).
//! That alignment is what keeps the sharded trajectory bitwise identical to
//! the replicated one under `RingReduceScatter`: the value the ring delivers
//! to a chunk's owner is anchored at that owner regardless of how the
//! exchange is bucketed, so "step only my shard, then allgather" applies
//! exactly the update every replicated rank would have computed for those
//! elements. The other five algorithms reach the same guarantee differently
//! — their reduce-scatter seam runs the full allreduce — so either way the
//! shard map never changes the math, only who stores the optimizer state.
//!
//! The map is deliberately element-aligned rather than parameter-aligned:
//! shard boundaries may cut through a tensor. [`dcnn_tensor::optim::Sgd`]
//! handles that with range-restricted stepping; an optimizer that needs
//! whole-tensor norms (LARS-style trust ratios) would require shards
//! aligned to parameter boundaries.

use std::ops::Range;

use dcnn_collectives::even_ranges;

/// Which ranks own which contiguous ranges of the flattened parameter
/// vector. Identical on every rank (pure function of `(total, world)`), so
/// all ranks agree on ownership without communicating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// `world + 1` range boundaries: rank `r` owns `offsets[r]..offsets[r+1]`.
    offsets: Vec<usize>,
}

impl ShardMap {
    /// Split `total` elements across `world` ranks: the first
    /// `total % world` shards get one extra element, exactly like the ring
    /// algorithm's chunking (non-dividing totals produce uneven — possibly
    /// empty — shards, never an error).
    pub fn new(total: usize, world: usize) -> Self {
        assert!(world >= 1, "shard map needs at least one rank");
        let mut offsets = Vec::with_capacity(world + 1);
        offsets.push(0);
        for r in even_ranges(total, world) {
            offsets.push(r.end);
        }
        ShardMap { offsets }
    }

    /// Number of ranks.
    pub fn world(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total elements covered.
    pub fn total(&self) -> usize {
        *self.offsets.last().expect("nonempty offsets")
    }

    /// The contiguous range rank `rank` owns (may be empty when
    /// `total < world`).
    pub fn owned(&self, rank: usize) -> Range<usize> {
        self.offsets[rank]..self.offsets[rank + 1]
    }

    /// Per-rank element counts over the whole vector — the `counts` argument
    /// for a fused `reduce_scatter` / `allgather_f32`.
    pub fn counts(&self) -> Vec<usize> {
        self.offsets.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Per-rank element counts *within* `range` — the counts for one
    /// gradient bucket's reduce-scatter. Each count is the length of the
    /// intersection of the rank's shard with the bucket, so the counts of
    /// any partition of `0..total` into buckets sum back to
    /// [`ShardMap::counts`], and the rank that owns a flat index globally
    /// owns it inside every bucket covering it.
    pub fn bucket_counts(&self, range: Range<usize>) -> Vec<usize> {
        self.offsets
            .windows(2)
            .map(|w| {
                let lo = w[0].clamp(range.start, range.end);
                let hi = w[1].clamp(range.start, range.end);
                hi - lo
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_tile_the_vector() {
        for (total, world) in [(12, 4), (13, 4), (3, 5), (0, 2), (7, 1)] {
            let sm = ShardMap::new(total, world);
            assert_eq!(sm.world(), world);
            assert_eq!(sm.total(), total);
            let mut off = 0;
            for r in 0..world {
                let owned = sm.owned(r);
                assert_eq!(owned.start, off, "total {total} world {world} rank {r}");
                off = owned.end;
            }
            assert_eq!(off, total);
            assert_eq!(sm.counts().iter().sum::<usize>(), total);
        }
    }

    #[test]
    fn uneven_totals_front_load_the_remainder() {
        let sm = ShardMap::new(10, 4);
        assert_eq!(sm.counts(), [3, 3, 2, 2]);
        assert_eq!(sm.owned(0), 0..3);
        assert_eq!(sm.owned(3), 8..10);
    }

    #[test]
    fn matches_the_ring_chunking() {
        // The whole bitwise argument rests on this: shard r IS ring chunk r.
        for (total, world) in [(103, 4), (64, 8), (9, 2)] {
            let sm = ShardMap::new(total, world);
            for (r, chunk) in even_ranges(total, world).iter().enumerate() {
                assert_eq!(sm.owned(r), chunk.clone());
            }
        }
    }

    #[test]
    fn bucket_counts_partition_the_global_counts() {
        let sm = ShardMap::new(100, 3);
        // Arbitrary bucket boundaries, including ones cutting through shards.
        let cuts = [0usize, 7, 34, 35, 80, 100];
        let mut summed = vec![0usize; 3];
        for w in cuts.windows(2) {
            let bc = sm.bucket_counts(w[0]..w[1]);
            assert_eq!(bc.iter().sum::<usize>(), w[1] - w[0]);
            for (s, c) in summed.iter_mut().zip(&bc) {
                *s += c;
            }
        }
        assert_eq!(summed, sm.counts());
    }

    #[test]
    fn bucket_counts_respect_global_ownership() {
        let sm = ShardMap::new(50, 4);
        // For every bucket and rank: the rank's in-bucket span is exactly
        // the intersection of its global shard with the bucket.
        for bucket in [0..50, 10..20, 12..13, 40..50, 5..5] {
            let bc = sm.bucket_counts(bucket.clone());
            let mut off = bucket.start;
            for (r, &count) in bc.iter().enumerate() {
                let owned = sm.owned(r);
                let lo = owned.start.clamp(bucket.start, bucket.end);
                let hi = owned.end.clamp(bucket.start, bucket.end);
                assert_eq!(count, hi - lo);
                assert_eq!(off, lo.min(off.max(lo)), "contiguous in rank order");
                off += count;
            }
            assert_eq!(off, bucket.end);
        }
    }
}
