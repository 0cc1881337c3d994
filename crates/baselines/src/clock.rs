//! The sharded commit clock of the lock-based engine ([`crate::tl`]),
//! together with the packed version-word layout both of its
//! instantiations stamp into per-variable lock words.
//!
//! The clock is [`CLOCK_SHARDS`] cache-line-isolated counters. Every
//! read that is checked against a begin-time snapshot (all TL2 reads, and
//! the declared read-only reads of both instantiations) is validated
//! against a **version vector** (one sampled count per shard), which only
//! works if writing commits stamp `(shard, count)` pairs instead of raw
//! per-variable counters.
//!
//! Soundness of the lazy per-shard merge: each shard counter is monotonic,
//! so for a reader holding sample vector `rv`, a packed version `(s, c)`
//! with `c ≤ rv[s]` was stamped by a writer whose clock bump preceded the
//! reader's sample of shard `s` — the stamped value existed at (or before)
//! the sample and belongs to the reader's snapshot.

use oftm_core::record::fresh_base_id;
use oftm_histories::BaseObjId;
use std::sync::atomic::{AtomicU64, Ordering};

/// High bit of a lock word: held by a committing writer.
pub(crate) const LOCK_BIT: u64 = 1 << 63;

/// Number of clock shards; a power of two so the shard of a process is a
/// mask away.
pub const CLOCK_SHARDS: usize = 8;

/// Version-word layout: bit 63 lock, bits 56..63 shard, bits 0..56 count.
pub(crate) const SHARD_SHIFT: u32 = 56;
pub(crate) const COUNT_MASK: u64 = (1 << SHARD_SHIFT) - 1;

#[inline]
pub(crate) fn ver_shard(v: u64) -> usize {
    (((v & !LOCK_BIT) >> SHARD_SHIFT) as usize) & (CLOCK_SHARDS - 1)
}

#[inline]
pub(crate) fn ver_count(v: u64) -> u64 {
    v & COUNT_MASK
}

#[inline]
pub(crate) fn pack_version(shard: usize, count: u64) -> u64 {
    debug_assert!(count <= COUNT_MASK);
    ((shard as u64) << SHARD_SHIFT) | count
}

/// A packed version `v` is within the snapshot described by the sample
/// vector `rv`.
#[inline]
pub(crate) fn readable(v: u64, rv: &[u64; CLOCK_SHARDS]) -> bool {
    ver_count(v) <= rv[ver_shard(v)]
}

/// A clock shard on its own cache line (the whole point of sharding is
/// that disjoint committers do not bounce one line).
#[repr(align(64))]
pub(crate) struct ClockShard {
    pub(crate) count: AtomicU64,
    /// Base object identity of this shard cell in recorded histories.
    pub(crate) base: BaseObjId,
}

/// The sharded commit clock: [`CLOCK_SHARDS`] independent counters.
pub(crate) struct ShardedClock {
    shards: Box<[ClockShard]>,
}

impl ShardedClock {
    pub(crate) fn new() -> Self {
        ShardedClock {
            shards: (0..CLOCK_SHARDS)
                .map(|_| ClockShard {
                    count: AtomicU64::new(0),
                    base: fresh_base_id(),
                })
                .collect(),
        }
    }

    #[inline]
    pub(crate) fn shards(&self) -> &[ClockShard] {
        &self.shards
    }

    /// Bumps the committing process's own shard and returns the packed
    /// `(shard, count)` write version to stamp — the sharded replacement
    /// for the global `fetch_add` hot spot.
    #[inline]
    pub(crate) fn tick(&self, proc: u32) -> u64 {
        let shard = proc as usize & (CLOCK_SHARDS - 1);
        // ord: AcqRel — the Release half pairs with the engine's
        // `sample_rv` Acquire shard loads; atomicity alone makes each
        // `(shard, count)` stamp unique.
        let count = self.shards[shard].count.fetch_add(1, Ordering::AcqRel) + 1;
        pack_version(shard, count)
    }

    /// Sum of all shard counts: total writing commits stamped so far (the
    /// lazy-merged "current time"; diagnostics only).
    pub(crate) fn now(&self) -> u64 {
        self.shards
            .iter()
            // ord: Acquire pairs with `tick`'s Release (diagnostic read;
            // the sum is not a consistent cut).
            .map(|s| s.count.load(Ordering::Acquire))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_packing_roundtrip() {
        for shard in 0..CLOCK_SHARDS {
            let v = pack_version(shard, 123_456);
            assert_eq!(ver_shard(v), shard);
            assert_eq!(ver_count(v), 123_456);
            assert_eq!(v & LOCK_BIT, 0);
            assert_eq!(ver_shard(v | LOCK_BIT), shard, "lock bit must not leak");
        }
    }
}
