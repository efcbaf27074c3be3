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
/// Each set is one contiguous run of `ways` tags kept in recency order:
/// the MRU line first, the LRU line last, and empty ways (the
/// [`NO_LINE`] tag) after every live line. Position is recency, so the
/// cache keeps no stamps and no clock. A hit moves its tag to the
/// front; a fill shifts the set back one slot and writes the front, and
/// the victim is whatever falls off the end — an empty way while the
/// set has one, the LRU line otherwise. That is the "first free way,
/// else least recently used" policy of a stamp-LRU cache, answered in
/// one tag pass per reference with no min-stamp pass.
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
#[derive(Debug, Clone, PartialEq)]
pub struct Cache {
    cfg: CacheConfig,
    /// `sets - 1`; the constructor asserts a power-of-two set count.
    set_mask: usize,
    /// `sets × ways` tags, each set's run in recency order.
    lines: Vec<u64>,
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

    /// The recency-ordered tags of the set `line` maps to.
    #[inline]
    fn set_mut(&mut self, line: CacheLine) -> &mut [u64] {
        debug_assert_ne!(line.raw(), NO_LINE);
        let range = self.set_range(line);
        &mut self.lines[range]
    }

    /// Looks up `line`, promoting it to MRU on a hit. Returns whether it hit.
    pub fn probe(&mut self, line: CacheLine) -> bool {
        promote(self.set_mut(line), line.raw())
    }

    /// Whether `line` is resident, without disturbing LRU state.
    pub fn contains(&self, line: CacheLine) -> bool {
        let key = line.raw();
        self.lines[self.set_range(line)].contains(&key)
    }

    /// Installs `line` as MRU, returning the evicted victim line, if any.
    ///
    /// Filling a line that is already resident only refreshes its LRU
    /// position (no duplicate is created).
    pub fn fill(&mut self, line: CacheLine) -> Option<CacheLine> {
        let key = line.raw();
        let set = self.set_mut(line);
        if promote(set, key) {
            return None;
        }
        push_front(set, key)
    }

    /// Installs `line`, which must not be resident, as MRU without
    /// searching the set; returns the evicted victim line, if any.
    ///
    /// The state afterwards is exactly [`fill`](Self::fill)'s. A caller
    /// that has just seen [`probe`](Self::probe) miss, and installed
    /// nothing equal to `line` since, uses this to skip the tag pass.
    /// Debug builds assert that `line` is absent.
    pub fn insert_absent(&mut self, line: CacheLine) -> Option<CacheLine> {
        let key = line.raw();
        let set = self.set_mut(line);
        debug_assert!(!set.contains(&key), "insert_absent of a resident line");
        push_front(set, key)
    }

    /// Probes for `line`, promoting it to MRU on a hit; on a miss,
    /// installs it as MRU over the LRU way. Returns whether it hit.
    ///
    /// The final state is exactly a probe-then-fill pair's, in one tag
    /// pass — the fast-forward warming kernel (`MemoryHierarchy::warm`)
    /// runs this on every demand line of a skip stretch.
    pub fn warm_fill(&mut self, line: CacheLine) -> bool {
        let key = line.raw();
        let set = self.set_mut(line);
        let hit = promote(set, key);
        if !hit {
            push_front(set, key);
        }
        hit
    }

    /// Removes `line` if resident; returns whether it was present. The
    /// less recent lines move up one slot, so empty ways stay last.
    pub fn invalidate(&mut self, line: CacheLine) -> bool {
        let key = line.raw();
        let set = self.set_mut(line);
        match scan::find_tag(set, key) {
            Some(way) => {
                set.copy_within(way + 1.., way);
                set[set.len() - 1] = NO_LINE;
                true
            }
            None => false,
        }
    }

    /// Empties the cache.
    pub fn clear(&mut self) {
        self.lines.fill(NO_LINE);
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|&&l| l != NO_LINE).count()
    }
}

/// Moves `key` to the MRU slot if `set` holds it, shifting the more
/// recent tags back one slot; returns whether it was there.
#[inline]
fn promote(set: &mut [u64], key: u64) -> bool {
    // Instruction fetch probes the same line for runs of consecutive
    // instructions, so the MRU slot answers most hits in one compare.
    if set[0] == key {
        return true;
    }
    match scan::find_tag(set, key) {
        Some(way) => {
            set.copy_within(..way, 1);
            set[0] = key;
            true
        }
        None => false,
    }
}

/// Installs `key` in the MRU slot, shifting every tag back one slot, and
/// returns the line that fell off the end, if that way was live.
#[inline]
fn push_front(set: &mut [u64], key: u64) -> Option<CacheLine> {
    let last = set.len() - 1;
    let out = set[last];
    set.copy_within(..last, 1);
    set[0] = key;
    (out != NO_LINE).then(|| CacheLine::new(out))
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "insert_absent of a resident line")]
    fn insert_absent_of_resident_line_panics_in_debug() {
        let mut c = tiny();
        c.fill(set0_line(1));
        c.insert_absent(set0_line(1));
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
