//! A generic set-associative cache over 64-byte line numbers.
//!
//! The same structure backs every level of the hierarchy; TLBs use their own
//! generic buffer in `morrigan-vm` because they key on pages, not lines.

use morrigan_types::scan;
use morrigan_types::CacheLine;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Lookup latency in cycles charged when this level is probed.
    pub latency: u64,
}

impl CacheConfig {
    /// A configuration from total capacity in bytes and associativity,
    /// assuming 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the implied set count is not a positive power of two or if
    /// `ways` is zero.
    pub fn from_capacity(bytes: usize, ways: usize, latency: u64) -> Self {
        assert!(ways > 0, "cache must have at least one way");
        let lines = bytes / 64;
        assert!(
            lines.is_multiple_of(ways),
            "capacity must be divisible by ways*64"
        );
        let sets = lines / ways;
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two, got {sets}"
        );
        Self {
            sets,
            ways,
            latency,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * 64
    }
}

/// Line-number sentinel marking an empty way. Real line numbers are
/// physical addresses shifted right by 6, so they can never reach it.
const NO_LINE: u64 = u64::MAX;

/// A set-associative, LRU-replacement cache of line numbers.
///
/// Tags and LRU stamps live in separate packed vectors
/// (structure-of-arrays), so a set probe scans one contiguous run of
/// tags. An empty way holds the [`NO_LINE`] tag and stamp 0; live stamps
/// are always ≥ 1, so victim selection is a single min-stamp pass that
/// prefers free ways in index order, then the LRU way.
///
/// # Examples
///
/// ```
/// use morrigan_mem::{Cache, CacheConfig};
/// use morrigan_types::CacheLine;
///
/// let mut cache = Cache::new(CacheConfig { sets: 2, ways: 2, latency: 4 });
/// let line = CacheLine::new(8);
/// assert!(!cache.probe(line));
/// cache.fill(line);
/// assert!(cache.probe(line));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `sets - 1`; the constructor asserts a power-of-two set count.
    set_mask: usize,
    lines: Vec<u64>,
    /// Monotonic timestamps for LRU ordering; smaller is older, 0 is empty.
    stamps: Vec<u64>,
    tick: u64,
    /// Index of the most recently hit/filled way, as a one-entry memo.
    /// Sound without invalidation hooks: a line only ever resides in its
    /// own set, so `lines[last_idx] == key` proves `last_idx` is the live
    /// way for `key`, and the memo path writes the same stamp the scan
    /// would.
    last_idx: usize,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a positive power of two or `ways` is zero.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.sets.is_power_of_two() && cfg.sets > 0,
            "sets must be a power of two"
        );
        assert!(cfg.ways > 0, "ways must be positive");
        Self {
            cfg,
            set_mask: cfg.sets - 1,
            lines: vec![NO_LINE; cfg.sets * cfg.ways],
            stamps: vec![0; cfg.sets * cfg.ways],
            tick: 0,
            last_idx: 0,
        }
    }

    /// This cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn set_range(&self, line: CacheLine) -> std::ops::Range<usize> {
        let start = ((line.raw() as usize) & self.set_mask) * self.cfg.ways;
        start..start + self.cfg.ways
    }

    /// Looks up `line`, promoting it to MRU on a hit. Returns whether it hit.
    pub fn probe(&mut self, line: CacheLine) -> bool {
        self.tick += 1;
        let key = line.raw();
        debug_assert_ne!(key, NO_LINE);
        // Fast path: instruction fetch probes the same line for runs of
        // consecutive instructions, so the previous hit's way usually
        // answers with a single compare.
        let li = self.last_idx;
        if self.lines[li] == key {
            self.stamps[li] = self.tick;
            return true;
        }
        let range = self.set_range(line);
        // One slice per probe: the branch-free kernel scans the set's
        // contiguous tags as one or two vector compares.
        let start = range.start;
        if let Some(w) = scan::find_tag(&self.lines[range], key) {
            self.stamps[start + w] = self.tick;
            self.last_idx = start + w;
            return true;
        }
        false
    }

    /// Whether `line` is resident, without disturbing LRU state.
    pub fn contains(&self, line: CacheLine) -> bool {
        let key = line.raw();
        self.lines[self.set_range(line)].contains(&key)
    }

    /// Software-prefetches the tag array of the set `line` maps to — a
    /// scheduling hint for batched probes; never required for
    /// correctness.
    #[inline]
    pub fn prefetch_set(&self, line: CacheLine) {
        scan::prefetch_tags(&self.lines[self.set_range(line)]);
    }

    /// Batched residency probe over up to [`scan::BATCH`] lines: bit `i`
    /// of the result is set iff `lines[i]` is resident. Each scan
    /// prefetches the following key's set; LRU state is untouched, so
    /// the batch equals calling [`contains`](Self::contains) per key.
    pub fn probe_batch(&self, batch: &[CacheLine]) -> u32 {
        debug_assert!(batch.len() <= scan::BATCH);
        let mut mask = 0u32;
        for (i, &line) in batch.iter().enumerate() {
            if let Some(&next) = batch.get(i + 1) {
                self.prefetch_set(next);
            }
            let resident = scan::find_tag(&self.lines[self.set_range(line)], line.raw()).is_some();
            mask |= (resident as u32) << i;
        }
        mask
    }

    /// Installs `line` as MRU, returning the evicted victim line, if any.
    ///
    /// Filling a line that is already resident only refreshes its LRU
    /// position (no duplicate is created).
    pub fn fill(&mut self, line: CacheLine) -> Option<CacheLine> {
        self.tick += 1;
        let tick = self.tick;
        let key = line.raw();
        debug_assert_ne!(key, NO_LINE);
        let range = self.set_range(line);
        let start = range.start;
        let lines = &mut self.lines[range.clone()];
        let stamps = &mut self.stamps[range];
        // Refresh a resident line, else replace the min-stamp way: empty
        // ways carry stamp 0 (below every live stamp ≥ 1) and ties pick
        // the lowest index, so the min-stamp way is the first free way
        // if one exists, the LRU way otherwise (pinned against the
        // fused scalar scan by the kernel's tests).
        let (way, hit) = scan::find_hit_or_victim(lines, stamps, key);
        if hit {
            stamps[way] = tick;
            self.last_idx = start + way;
            return None;
        }
        let victim = way;
        let victim_stamp = stamps[victim];
        let evicted = (victim_stamp != 0).then(|| CacheLine::new(lines[victim]));
        lines[victim] = key;
        stamps[victim] = tick;
        self.last_idx = start + victim;
        evicted
    }

    /// Probes for `line`, promoting it to MRU on a hit; on a miss,
    /// installs it as MRU over the LRU way. Returns whether it hit.
    ///
    /// The final resident/MRU state is exactly a probe-then-fill pair's,
    /// but in one set scan — the fast-forward warming kernel
    /// (`MemoryHierarchy::warm` in `morrigan-mem`) runs this on every
    /// demand line of a skip stretch, where the halved scan cost is the
    /// difference between warming paying for itself and not.
    pub fn warm_fill(&mut self, line: CacheLine) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let key = line.raw();
        debug_assert_ne!(key, NO_LINE);
        let li = self.last_idx;
        if self.lines[li] == key {
            self.stamps[li] = tick;
            return true;
        }
        let range = self.set_range(line);
        let start = range.start;
        let lines = &mut self.lines[range.clone()];
        let stamps = &mut self.stamps[range];
        let (way, hit) = scan::find_hit_or_victim(lines, stamps, key);
        lines[way] = key;
        stamps[way] = tick;
        self.last_idx = start + way;
        hit
    }

    /// Removes `line` if resident; returns whether it was present.
    pub fn invalidate(&mut self, line: CacheLine) -> bool {
        let key = line.raw();
        let range = self.set_range(line);
        for i in range {
            if self.lines[i] == key {
                self.lines[i] = NO_LINE;
                self.stamps[i] = 0;
                return true;
            }
        }
        false
    }

    /// Empties the cache.
    pub fn clear(&mut self) {
        self.lines.fill(NO_LINE);
        self.stamps.fill(0);
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|&&l| l != NO_LINE).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            latency: 1,
        })
    }

    /// Lines mapping to set 0 of a 2-set cache: even line numbers.
    fn set0_line(i: u64) -> CacheLine {
        CacheLine::new(i * 2)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        let line = CacheLine::new(5);
        assert!(!c.probe(line));
        assert_eq!(c.fill(line), None);
        assert!(c.probe(line));
        assert!(c.contains(line));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        c.fill(set0_line(1));
        c.fill(set0_line(2));
        // Touch line 1 so line 2 becomes LRU.
        assert!(c.probe(set0_line(1)));
        let victim = c.fill(set0_line(3));
        assert_eq!(victim, Some(set0_line(2)));
        assert!(c.contains(set0_line(1)));
        assert!(c.contains(set0_line(3)));
        assert!(!c.contains(set0_line(2)));
    }

    #[test]
    fn refill_does_not_duplicate() {
        let mut c = tiny();
        c.fill(set0_line(1));
        c.fill(set0_line(1));
        assert_eq!(c.occupancy(), 1);
        // A second distinct fill must not evict: the set still has room.
        assert_eq!(c.fill(set0_line(2)), None);
    }

    #[test]
    fn refill_refreshes_lru() {
        let mut c = tiny();
        c.fill(set0_line(1));
        c.fill(set0_line(2));
        c.fill(set0_line(1)); // refresh 1 → 2 is LRU
        assert_eq!(c.fill(set0_line(3)), Some(set0_line(2)));
    }

    #[test]
    fn contains_does_not_promote() {
        let mut c = tiny();
        c.fill(set0_line(1));
        c.fill(set0_line(2));
        // `contains` must not refresh line 1's recency.
        assert!(c.contains(set0_line(1)));
        assert_eq!(c.fill(set0_line(3)), Some(set0_line(1)));
    }

    #[test]
    fn invalidate_and_clear() {
        let mut c = tiny();
        c.fill(set0_line(1));
        assert!(c.invalidate(set0_line(1)));
        assert!(!c.invalidate(set0_line(1)));
        c.fill(set0_line(1));
        c.fill(CacheLine::new(3));
        c.clear();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        // Fill set 0 to capacity, then fill set 1; set 0 must be untouched.
        c.fill(set0_line(1));
        c.fill(set0_line(2));
        assert_eq!(c.fill(CacheLine::new(1)), None);
        assert_eq!(c.fill(CacheLine::new(3)), None);
        assert!(c.contains(set0_line(1)));
        assert!(c.contains(set0_line(2)));
    }

    #[test]
    fn probe_batch_matches_contains() {
        let mut c = Cache::new(CacheConfig {
            sets: 4,
            ways: 2,
            latency: 1,
        });
        for i in 0..5u64 {
            c.fill(CacheLine::new(i * 3));
        }
        let keys: Vec<CacheLine> = (0..8u64).map(CacheLine::new).collect();
        let mask = c.probe_batch(&keys);
        for (i, &line) in keys.iter().enumerate() {
            assert_eq!(mask & (1 << i) != 0, c.contains(line), "key {i}");
        }
    }

    #[test]
    fn from_capacity_math() {
        let cfg = CacheConfig::from_capacity(32 * 1024, 8, 4);
        assert_eq!(cfg.sets, 64);
        assert_eq!(cfg.ways, 8);
        assert_eq!(cfg.capacity_bytes(), 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn from_capacity_rejects_non_pow2() {
        let _ = CacheConfig::from_capacity(24 * 1024, 8, 4);
    }

    #[test]
    fn warm_fill_hit_promotes_like_probe() {
        let mut c = tiny();
        c.fill(set0_line(1));
        c.fill(set0_line(2));
        assert!(c.warm_fill(set0_line(1))); // hit: promote 1 → 2 is LRU
        assert_eq!(c.fill(set0_line(3)), Some(set0_line(2)));
    }

    #[test]
    fn warm_fill_miss_installs_over_lru() {
        let mut c = tiny();
        c.fill(set0_line(1));
        c.fill(set0_line(2));
        assert!(!c.warm_fill(set0_line(3))); // miss: install over LRU 1
        assert!(c.contains(set0_line(3)));
        assert!(c.contains(set0_line(2)));
        assert!(!c.contains(set0_line(1)));
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn warm_fill_equals_probe_then_fill() {
        // The merged scan must leave the same final state as the
        // two-pass probe-or-fill it replaces, across a mixed access
        // sequence exercising hits, misses, and repeats.
        let seq = [1u64, 3, 1, 5, 7, 3, 9, 1, 5, 11, 3, 3, 7];
        let mut merged = tiny();
        let mut two_pass = tiny();
        for &i in &seq {
            let line = set0_line(i);
            merged.warm_fill(line);
            if !two_pass.probe(line) {
                two_pass.fill(line);
            }
        }
        for &i in &seq {
            assert_eq!(
                merged.contains(set0_line(i)),
                two_pass.contains(set0_line(i)),
                "divergent residency for line {i}"
            );
        }
        // And the LRU order matches: the same victim falls out next.
        assert_eq!(merged.fill(set0_line(13)), two_pass.fill(set0_line(13)));
    }
}
