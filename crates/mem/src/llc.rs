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
//! An `Llc` is a plain owned value that no two threads share. The
//! multi-core machine gives each of its host threads its own copy.
//! During an epoch a core reads the *frozen* epoch-start image, swapped
//! into its hierarchy for the quantum, through an [`LlcView`] that
//! overlays the core's own fills and logs every operation in program
//! order. At the epoch barrier each thread replays every core's log into
//! its own copy ([`Llc::replay`]) in (core, sequence) order. Replay order
//! is a pure function of the logs, so every copy stays equal and the
//! machine's results are independent of how many host threads executed
//! the epoch.

use morrigan_types::CacheLine;

use crate::cache::{Cache, CacheConfig};

/// One buffered LLC operation, replayed at the epoch barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcOp {
    /// A probe hit: promote the line to MRU (the frozen-read equivalent
    /// of [`Cache::probe`] returning true).
    Touch(CacheLine),
    /// A fill: install the line as MRU.
    Fill(CacheLine),
}

/// A sharded LLC: `shards` independent LRU banks over disjoint line
/// partitions.
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
#[derive(Debug, Clone, PartialEq)]
pub struct Llc {
    shards: Vec<Cache>,
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
            shards: (0..shards).map(|_| Cache::new(bank)).collect(),
            shard_bits: shards.trailing_zeros(),
        }
    }

    #[inline]
    fn split(&self, line: CacheLine) -> (usize, CacheLine) {
        let raw = line.raw();
        let shard = (raw & ((1u64 << self.shard_bits) - 1)) as usize;
        (shard, CacheLine::new(raw >> self.shard_bits))
    }

    /// Looks up `line` in its owning shard, promoting on hit.
    #[inline]
    pub fn probe(&mut self, line: CacheLine) -> bool {
        let (shard, key) = self.split(line);
        self.shards[shard].probe(key)
    }

    /// Whether `line` is resident, without disturbing LRU state.
    pub fn contains(&self, line: CacheLine) -> bool {
        let (shard, key) = self.split(line);
        self.shards[shard].contains(key)
    }

    /// Installs `line` as MRU in its owning shard.
    #[inline]
    pub fn fill(&mut self, line: CacheLine) {
        let (shard, key) = self.split(line);
        self.shards[shard].fill(key);
    }

    /// Installs `line`, which must not be resident, as MRU in its owning
    /// shard without searching the set (see [`Cache::insert_absent`]).
    #[inline]
    pub fn insert_absent(&mut self, line: CacheLine) {
        let (shard, key) = self.split(line);
        self.shards[shard].insert_absent(key);
    }

    /// Replays one core's buffered epoch operations in the order given.
    /// The machine replays the cores' logs in core-id order, which is
    /// what makes the result thread-count-invariant.
    pub fn replay(&mut self, ops: &[LlcOp]) {
        for op in ops {
            match *op {
                LlcOp::Touch(line) => {
                    self.probe(line);
                }
                LlcOp::Fill(line) => self.fill(line),
            }
        }
    }

    /// Number of banks.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Valid lines across all banks.
    pub fn occupancy(&self) -> usize {
        self.shards.iter().map(Cache::occupancy).sum()
    }

    /// Valid lines in one bank (shared-structure audit: per-shard
    /// occupancies telescope to [`occupancy`](Self::occupancy)).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn shard_occupancy(&self, shard: usize) -> usize {
        self.shards[shard].occupancy()
    }

    /// Total capacity in lines across all banks.
    pub fn capacity_lines(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let bank = s.config();
                bank.sets * bank.ways
            })
            .sum()
    }
}

/// A core's epoch-local window onto the shared LLC.
///
/// During an epoch the shared banks are frozen: the view answers probes
/// from the epoch-start image `frozen` (non-promoting shared reads) plus
/// an overlay of the lines this core filled since the barrier, and logs
/// every operation in program order for deterministic replay at the
/// next barrier.
#[derive(Debug, Clone, Default)]
pub struct LlcView {
    /// Raw line numbers this core filled this epoch (visible to its own
    /// later probes before replay lands them in the shared banks).
    overlay: Vec<u64>,
    /// This epoch's operation log, program order.
    ops: Vec<LlcOp>,
}

impl LlcView {
    /// Epoch-frozen probe: hit iff the line is in this core's overlay or
    /// the epoch-start image `frozen`. Hits log a [`LlcOp::Touch`] so
    /// the LRU promotion replays at the barrier.
    #[inline]
    pub fn probe(&mut self, line: CacheLine, frozen: &Llc) -> bool {
        let hit = self.overlay.contains(&line.raw()) || frozen.contains(line);
        if hit {
            self.ops.push(LlcOp::Touch(line));
        }
        hit
    }

    /// Epoch-frozen fill: the line joins this core's overlay immediately
    /// and the shared bank at the next barrier replay.
    #[inline]
    pub fn fill(&mut self, line: CacheLine) {
        self.ops.push(LlcOp::Fill(line));
        if !self.overlay.contains(&line.raw()) {
            self.overlay.push(line.raw());
        }
    }

    /// Hands this epoch's log to the caller (swapping in the cleared
    /// buffer `into`, which must be empty) and resets the overlay.
    pub fn take_epoch(&mut self, into: &mut Vec<LlcOp>) {
        debug_assert!(into.is_empty());
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
    fn view_replay_matches_direct_mutation() {
        // One core's operations through a view + barrier replay must
        // leave the shared LLC exactly as the same operations applied
        // directly would.
        let mut shared = Llc::new(cfg(), 4);
        let mut direct = Llc::new(cfg(), 4);
        let mut view = LlcView::default();
        let mut log = Vec::new();
        for i in 0..2048u64 {
            let line = CacheLine::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 42);
            if i % 3 == 0 {
                direct.fill(line);
                view.fill(line);
            } else {
                direct.probe(line);
                view.probe(line, &shared);
            }
            if i % 64 == 63 {
                // Epoch barrier: replay and clear.
                view.take_epoch(&mut log);
                shared.replay(&log);
                log.clear();
            }
        }
        view.take_epoch(&mut log);
        shared.replay(&log);
        assert_eq!(shared, direct);
    }

    #[test]
    fn view_sees_own_epoch_fills_before_replay() {
        let shared = Llc::new(cfg(), 2);
        let mut view = LlcView::default();
        let line = CacheLine::new(0x123);
        assert!(!view.probe(line, &shared));
        view.fill(line);
        assert!(
            view.probe(line, &shared),
            "own fills are visible within the epoch"
        );
        assert!(
            !shared.contains(line),
            "shared banks stay frozen until the barrier replay"
        );
    }
}
