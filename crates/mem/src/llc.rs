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
//! Each shard is an [`EpochCell`]: a bank aligned to its own cache line
//! (so two host threads touching adjacent shards never false-share) and
//! read with plain loads. The single-core hot path reaches the banks through
//! `&mut self` and [`EpochCell::get_mut`], a plain field access.
//!
//! The parallel machine never reads a shard while it is written. During
//! an epoch every core reads the *frozen* epoch-start image through an
//! [`LlcView`] that overlays the core's own fills; at the epoch barrier
//! each shard's buffered operations are replayed by the one thread that
//! owns the shard ([`Llc::replay_shard`]) in (core, sequence) order,
//! while no core reads. Replay order is a pure function of the logs, so
//! the machine's results are independent of how many host threads
//! executed the epoch.

use std::sync::Arc;

use morrigan_types::{CacheLine, EpochCell};

use crate::cache::{Cache, CacheConfig};

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
/// partitions, each in its own cache-line-aligned [`EpochCell`].
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
#[derive(Debug, Clone)]
pub struct Llc {
    shards: Vec<EpochCell<Cache>>,
    /// log2 of the shard count; shard select = `line & ((1 << bits) - 1)`.
    shard_bits: u32,
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
                .map(|_| EpochCell::new(Cache::new(bank)))
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
        self.shards[shard].get_mut().probe(key)
    }

    /// Whether `line` is resident, without disturbing LRU state. A plain
    /// read; the parallel machine calls this in the run phase, when no
    /// shard is being replayed.
    pub fn contains(&self, line: CacheLine) -> bool {
        let (shard, key) = self.split(line);
        self.shards[shard].read().contains(key)
    }

    /// Installs `line` as MRU in its owning shard.
    #[inline]
    pub fn fill(&mut self, line: CacheLine) {
        let (shard, key) = self.split(line);
        self.shards[shard].get_mut().fill(key);
    }

    /// Installs `line`, which must not be resident, as MRU in its owning
    /// shard without searching the set (see [`Cache::insert_absent`]).
    #[inline]
    pub fn insert_absent(&mut self, line: CacheLine) {
        let (shard, key) = self.split(line);
        self.shards[shard].get_mut().insert_absent(key);
    }

    /// Replays one epoch's buffered operations against shard `shard`,
    /// in the order given. The parallel machine concatenates per-core
    /// logs in core-id order before calling, which is what makes the
    /// result thread-count-invariant.
    ///
    /// # Safety
    ///
    /// The caller must be the only thread touching shard `shard` until
    /// this returns: no [`contains`](Self::contains) or
    /// [`LlcView::probe`] may read it and no other replay may write it
    /// concurrently, and a barrier must order this replay before the
    /// shard's next reads. The parallel machine meets this by replaying
    /// shard `s` only on thread `s % width`, between the two barriers
    /// that bracket the replay phase.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub unsafe fn replay_shard(&self, shard: usize, ops: &[LlcOp]) {
        let replay = |bank: &mut Cache| {
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
        };
        // SAFETY: forwarded from this function's contract: the caller is
        // the only thread touching the shard until the write returns.
        unsafe { self.shards[shard].write(replay) }
    }

    /// Number of banks.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Valid lines across all banks.
    pub fn occupancy(&self) -> usize {
        self.shards.iter().map(|s| s.read().occupancy()).sum()
    }

    /// Valid lines in one bank (shared-structure audit: per-shard
    /// occupancies telescope to [`occupancy`](Self::occupancy)).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn shard_occupancy(&self, shard: usize) -> usize {
        self.shards[shard].read().occupancy()
    }

    /// Total capacity in lines across all banks.
    pub fn capacity_lines(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let bank = s.read().config();
                bank.sets * bank.ways
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
        let llc = Llc::new(cfg(), 4);
        let addrs: Vec<usize> = llc
            .shards
            .iter()
            .map(|s| s as *const EpochCell<Cache> as usize)
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
                    // SAFETY: one thread, and no read of the shard is in
                    // progress while it replays.
                    unsafe { shared.replay_shard(shard, ops) };
                    ops.clear();
                }
            }
        }
        view.take_epoch(&mut logs);
        for (shard, ops) in logs.iter_mut().enumerate() {
            // SAFETY: as above.
            unsafe { shared.replay_shard(shard, ops) };
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
