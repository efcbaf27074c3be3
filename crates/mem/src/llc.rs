//! The shared, sharded last-level cache.
//!
//! In the multi-core machine the LLC is one structure shared by every
//! core. To model banked designs it is split into `shards` independent
//! set-associative banks selected by the low line-number bits (the same
//! interleaving real LLCs use so consecutive lines stripe across banks).
//! A line is owned by exactly one shard; the shard-internal tag drops
//! the shard-select bits so each bank sees a dense line space.
//!
//! With `shards == 1` the structure degenerates to exactly one
//! [`Cache`] with the full configured geometry, probed with unmodified
//! line numbers — bit-identical to the pre-multicore private LLC. That
//! identity is what lets the `cores=1` pin hold through this refactor.
//!
//! ## Concurrency
//!
//! Each shard sits behind its own `RwLock`, and the lock+bank pair is
//! padded to a cache-line boundary ([`CachePadded`]) so two host threads
//! touching adjacent shards never false-share a line. The single-core
//! hot path pays nothing for this: `&mut self` accessors go through
//! `RwLock::get_mut`, which is a plain field access when the borrow is
//! exclusive.
//!
//! The parallel machine never mutates shards concurrently. During an
//! epoch every core reads the *frozen* epoch-start image (shared read
//! locks, no writers) through an [`LlcView`] that overlays the core's
//! own fills; at the epoch barrier each shard's buffered operations are
//! replayed under the write lock in (core, sequence) order. Replay
//! order is a pure function of the logs, so the machine's results are
//! independent of how many host threads executed the epoch.

use std::sync::{Arc, RwLock};

use morrigan_types::CacheLine;

use crate::cache::{Cache, CacheConfig};

/// Pads (and aligns) `T` to a 64-byte cache-line boundary so adjacent
/// array elements never share a line — the classic false-sharing guard
/// for per-shard locks.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

/// One buffered LLC operation, replayed at the epoch barrier. The line
/// key is shard-local (shard-select bits already dropped), so replay
/// applies it to the owning bank directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcOp {
    /// A probe hit: promote the line to MRU (the frozen-read equivalent
    /// of [`Cache::probe`] returning true).
    Touch(CacheLine),
    /// A fill: install the line as MRU.
    Fill(CacheLine),
}

/// A sharded LLC: `shards` independent LRU banks over disjoint line
/// partitions, each behind its own cache-line-padded `RwLock`.
///
/// # Examples
///
/// ```
/// use morrigan_mem::{CacheConfig, Llc};
/// use morrigan_types::CacheLine;
///
/// let mut llc = Llc::new(CacheConfig { sets: 64, ways: 4, latency: 10 }, 4);
/// let line = CacheLine::new(0x1237);
/// assert!(!llc.probe(line));
/// llc.fill(line);
/// assert!(llc.probe(line));
/// assert_eq!(llc.occupancy(), 1);
/// ```
#[derive(Debug)]
pub struct Llc {
    shards: Vec<CachePadded<RwLock<Cache>>>,
    /// log2 of the shard count; shard select = `line & ((1 << bits) - 1)`.
    shard_bits: u32,
}

impl Clone for Llc {
    fn clone(&self) -> Self {
        Self {
            shards: self
                .shards
                .iter()
                .map(|s| CachePadded(RwLock::new(s.0.read().expect("llc shard lock").clone())))
                .collect(),
            shard_bits: self.shard_bits,
        }
    }
}

impl Llc {
    /// Builds an empty LLC of `shards` banks that together have `cfg`'s
    /// total geometry (each bank holds `cfg.sets / shards` sets).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is not a positive power of two or does not
    /// divide `cfg.sets` into a positive power-of-two per-bank set count.
    pub fn new(cfg: CacheConfig, shards: usize) -> Self {
        assert!(
            shards.is_power_of_two() && shards > 0,
            "LLC shard count must be a positive power of two"
        );
        assert!(
            cfg.sets.is_multiple_of(shards) && (cfg.sets / shards).is_power_of_two(),
            "LLC sets ({}) must divide into {shards} power-of-two banks",
            cfg.sets
        );
        let bank = CacheConfig {
            sets: cfg.sets / shards,
            ways: cfg.ways,
            latency: cfg.latency,
        };
        Self {
            shards: (0..shards)
                .map(|_| CachePadded(RwLock::new(Cache::new(bank))))
                .collect(),
            shard_bits: shards.trailing_zeros(),
        }
    }

    #[inline]
    pub(crate) fn split(&self, line: CacheLine) -> (usize, CacheLine) {
        let raw = line.raw();
        let shard = (raw & ((1u64 << self.shard_bits) - 1)) as usize;
        (shard, CacheLine::new(raw >> self.shard_bits))
    }

    /// Looks up `line` in its owning shard, promoting on hit.
    #[inline]
    pub fn probe(&mut self, line: CacheLine) -> bool {
        let (shard, key) = self.split(line);
        self.shards[shard]
            .0
            .get_mut()
            .expect("llc shard lock")
            .probe(key)
    }

    /// Whether `line` is resident, without disturbing LRU state. Safe
    /// against concurrent readers (shared lock); the parallel machine
    /// calls this between barriers, when no writer exists.
    pub fn contains(&self, line: CacheLine) -> bool {
        let (shard, key) = self.split(line);
        self.shards[shard]
            .0
            .read()
            .expect("llc shard lock")
            .contains(key)
    }

    /// Installs `line` as MRU in its owning shard.
    #[inline]
    pub fn fill(&mut self, line: CacheLine) {
        let (shard, key) = self.split(line);
        self.shards[shard]
            .0
            .get_mut()
            .expect("llc shard lock")
            .fill(key);
    }

    /// Installs `line`, which must not be resident, as MRU in its owning
    /// shard without searching the set (see [`Cache::insert_absent`]).
    #[inline]
    pub fn insert_absent(&mut self, line: CacheLine) {
        let (shard, key) = self.split(line);
        self.shards[shard]
            .0
            .get_mut()
            .expect("llc shard lock")
            .insert_absent(key);
    }

    /// Replays one epoch's buffered operations against shard `shard`,
    /// in the order given, under the shard's write lock. The parallel
    /// machine concatenates per-core logs in core-id order before
    /// calling, which is what makes the result thread-count-invariant.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn replay_shard(&self, shard: usize, ops: &[LlcOp]) {
        let mut bank = self.shards[shard].0.write().expect("llc shard lock");
        for op in ops {
            match *op {
                LlcOp::Touch(key) => {
                    bank.probe(key);
                }
                LlcOp::Fill(key) => {
                    bank.fill(key);
                }
            }
        }
    }

    /// Number of banks.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Valid lines across all banks.
    pub fn occupancy(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.0.read().expect("llc shard lock").occupancy())
            .sum()
    }

    /// Valid lines in one bank (shared-structure audit: per-shard
    /// occupancies telescope to [`occupancy`](Self::occupancy)).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn shard_occupancy(&self, shard: usize) -> usize {
        self.shards[shard]
            .0
            .read()
            .expect("llc shard lock")
            .occupancy()
    }

    /// Total capacity in lines across all banks.
    pub fn capacity_lines(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let bank = s.0.read().expect("llc shard lock");
                bank.config().sets * bank.config().ways
            })
            .sum()
    }
}

/// A core's epoch-local window onto the shared LLC.
///
/// During an epoch the shared banks are frozen: the view answers probes
/// from the epoch-start image (non-promoting shared reads) plus an
/// overlay of the lines this core filled since the barrier, and logs
/// every operation — in program order, bucketed by owning shard — for
/// deterministic replay at the next barrier.
#[derive(Debug, Clone)]
pub struct LlcView {
    shared: Arc<Llc>,
    /// Raw line numbers this core filled this epoch (visible to its own
    /// later probes before replay lands them in the shared banks).
    overlay: Vec<u64>,
    /// Per-shard operation logs, program order within each shard.
    ops: Vec<Vec<LlcOp>>,
}

impl LlcView {
    /// A fresh view over `shared` with empty overlay and logs.
    pub fn new(shared: Arc<Llc>) -> Self {
        let shards = shared.shard_count();
        Self {
            shared,
            overlay: Vec::new(),
            ops: vec![Vec::new(); shards],
        }
    }

    /// Epoch-frozen probe: hit iff the line is in this core's overlay or
    /// the shared epoch-start image. Hits log a [`LlcOp::Touch`] so the
    /// LRU promotion replays at the barrier.
    #[inline]
    pub fn probe(&mut self, line: CacheLine) -> bool {
        let raw = line.raw();
        let (shard, key) = self.shared.split(line);
        let hit = self.overlay.contains(&raw) || self.shared.contains(line);
        if hit {
            self.ops[shard].push(LlcOp::Touch(key));
        }
        hit
    }

    /// Epoch-frozen fill: the line joins this core's overlay immediately
    /// and the shared bank at the next barrier replay.
    #[inline]
    pub fn fill(&mut self, line: CacheLine) {
        let raw = line.raw();
        let (shard, key) = self.shared.split(line);
        self.ops[shard].push(LlcOp::Fill(key));
        if !self.overlay.contains(&raw) {
            self.overlay.push(raw);
        }
    }

    /// Hands this epoch's per-shard logs to the caller (swapping in the
    /// cleared buffers of `into`) and resets the overlay. `into` must
    /// hold one empty `Vec` per shard.
    pub fn take_epoch(&mut self, into: &mut Vec<Vec<LlcOp>>) {
        debug_assert_eq!(into.len(), self.ops.len());
        debug_assert!(into.iter().all(Vec::is_empty));
        std::mem::swap(&mut self.ops, into);
        self.overlay.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig {
            sets: 64,
            ways: 4,
            latency: 10,
        }
    }

    #[test]
    fn one_shard_matches_plain_cache_exactly() {
        let mut llc = Llc::new(cfg(), 1);
        let mut cache = Cache::new(cfg());
        // A mixed probe/fill trace must agree call for call.
        let lines: Vec<CacheLine> = (0..4096u64)
            .map(|i| CacheLine::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40))
            .collect();
        for (i, &line) in lines.iter().enumerate() {
            if i % 3 == 0 {
                cache.fill(line);
                llc.fill(line);
            } else {
                assert_eq!(llc.probe(line), cache.probe(line), "probe #{i}");
            }
        }
        assert_eq!(llc.occupancy(), cache.occupancy());
    }

    #[test]
    fn insert_absent_after_a_miss_matches_fill() {
        let mut filled = Llc::new(cfg(), 4);
        let mut inserted = Llc::new(cfg(), 4);
        for i in 0..4096u64 {
            let line = CacheLine::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 54);
            let hit = filled.probe(line);
            assert_eq!(inserted.probe(line), hit, "probe #{i}");
            if !hit {
                filled.fill(line);
                inserted.insert_absent(line);
            }
        }
        for s in 0..4 {
            assert_eq!(inserted.shard_occupancy(s), filled.shard_occupancy(s));
        }
    }

    #[test]
    fn shards_partition_the_line_space() {
        let mut llc = Llc::new(cfg(), 4);
        assert_eq!(llc.shard_count(), 4);
        // Lines 0..4 land in distinct shards.
        for i in 0..4u64 {
            llc.fill(CacheLine::new(i));
        }
        for s in 0..4 {
            assert_eq!(llc.shard_occupancy(s), 1, "shard {s}");
        }
        assert_eq!(llc.occupancy(), 4);
        for i in 0..4u64 {
            assert!(llc.contains(CacheLine::new(i)));
            assert!(llc.probe(CacheLine::new(i)));
        }
        assert!(!llc.contains(CacheLine::new(4 + 64 * 4)));
    }

    #[test]
    fn sharding_preserves_total_capacity() {
        for shards in [1, 2, 4, 8] {
            let llc = Llc::new(cfg(), shards);
            assert_eq!(llc.capacity_lines(), 64 * 4);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_rejected() {
        let _ = Llc::new(cfg(), 3);
    }

    #[test]
    fn shards_are_padded_to_cache_line_boundaries() {
        assert_eq!(std::mem::align_of::<CachePadded<RwLock<Cache>>>(), 64);
        assert!(std::mem::size_of::<CachePadded<RwLock<Cache>>>().is_multiple_of(64));
        let llc = Llc::new(cfg(), 4);
        let addrs: Vec<usize> = llc
            .shards
            .iter()
            .map(|s| s as *const CachePadded<RwLock<Cache>> as usize)
            .collect();
        for pair in addrs.windows(2) {
            assert!(
                pair[1] - pair[0] >= 64,
                "adjacent shards must not share a cache line"
            );
        }
        for addr in addrs {
            assert!(addr.is_multiple_of(64), "shards must be line-aligned");
        }
    }

    #[test]
    fn view_replay_matches_direct_mutation() {
        // One core's operations through a view + barrier replay must
        // leave the shared LLC exactly as the same operations applied
        // directly would.
        let shared = Arc::new(Llc::new(cfg(), 4));
        let mut direct = Llc::new(cfg(), 4);
        let mut view = LlcView::new(Arc::clone(&shared));
        let mut logs: Vec<Vec<LlcOp>> = vec![Vec::new(); 4];
        for i in 0..2048u64 {
            let line = CacheLine::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 42);
            if i % 3 == 0 {
                direct.fill(line);
                view.fill(line);
            } else {
                direct.probe(line);
                view.probe(line);
            }
            if i % 64 == 63 {
                // Epoch barrier: replay and clear.
                view.take_epoch(&mut logs);
                for (shard, ops) in logs.iter_mut().enumerate() {
                    shared.replay_shard(shard, ops);
                    ops.clear();
                }
            }
        }
        view.take_epoch(&mut logs);
        for (shard, ops) in logs.iter_mut().enumerate() {
            shared.replay_shard(shard, ops);
            ops.clear();
        }
        assert_eq!(shared.occupancy(), direct.occupancy());
        for s in 0..4 {
            assert_eq!(
                shared.shard_occupancy(s),
                direct.shard_occupancy(s),
                "shard {s}"
            );
        }
    }

    #[test]
    fn view_sees_own_epoch_fills_before_replay() {
        let shared = Arc::new(Llc::new(cfg(), 2));
        let mut view = LlcView::new(Arc::clone(&shared));
        let line = CacheLine::new(0x123);
        assert!(!view.probe(line));
        view.fill(line);
        assert!(view.probe(line), "own fills are visible within the epoch");
        assert!(
            !shared.contains(line),
            "shared banks stay frozen until the barrier replay"
        );
    }
}
