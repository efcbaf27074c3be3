//! A lightweight signature-path (SPP-style) L2 data prefetcher.
//!
//! Table 1 of the paper lists SPP [Kim et al., MICRO 2016] at the L2. Its
//! only role in the reproduced experiments is background realism: it keeps
//! the L2/LLC populated with data lines so page-walk references compete for
//! cache space the way they do in the paper's setup. We therefore implement
//! the core of SPP — per-page last-offset tracking, a delta signature, and
//! lookahead prefetch on a confident delta — without the full confidence
//! path/throttling machinery, and document that simplification in DESIGN.md.

use morrigan_types::CacheLine;

const LINES_PER_PAGE: u64 = 64; // 4 KB page / 64 B line

/// Slot sentinel: an empty index bucket, or the end of the recency list.
const NIL: u32 = u32::MAX;

/// Configuration of the L2 prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2PrefetcherConfig {
    /// Number of page trackers (fully associative, LRU replacement).
    pub trackers: usize,
    /// Maximum lookahead depth per trained access.
    pub degree: usize,
    /// Whether the prefetcher is active.
    pub enabled: bool,
}

impl Default for L2PrefetcherConfig {
    fn default() -> Self {
        Self {
            trackers: 64,
            degree: 2,
            enabled: true,
        }
    }
}

impl L2PrefetcherConfig {
    /// A disabled prefetcher (used by unit tests that need determinism).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// One page-index bucket: a tracked page and its slot ([`NIL`] when the
/// bucket is empty).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    page: u64,
    slot: u32,
}

/// One page tracker and its links in the recency list.
#[derive(Debug, Clone, Copy)]
struct Tracker {
    page: u64,
    /// Neighbour towards the MRU end ([`NIL`] at the head).
    newer: u32,
    /// Neighbour towards the LRU end ([`NIL`] at the tail).
    older: u32,
    last_offset: u8,
    last_delta: i8,
}

/// SPP-style stride/signature prefetcher trained on L2 data accesses.
///
/// `train` runs on every L2 data access, so both of its searches are
/// O(1). An open-addressed page index (linear probing, backward-shift
/// deletion, at most half full) maps a page to its tracker slot, and an
/// intrusive doubly linked list threads the live slots from most to
/// least recently trained. Slots are handed out in index order until
/// every tracker is live; after that a new page takes the list's tail.
/// That is the "first free slot, else least recently used" policy of a
/// scan over per-slot LRU stamps.
#[derive(Debug, Clone)]
pub struct L2Prefetcher {
    cfg: L2PrefetcherConfig,
    /// Live trackers, in slot order; at most `cfg.trackers`.
    trackers: Vec<Tracker>,
    /// Open-addressed page → slot index; its length is a power of two
    /// at least twice `cfg.trackers`.
    index: Vec<Bucket>,
    /// `64 - log2(index.len())`: the Fibonacci-hash shift.
    index_shift: u32,
    /// Most and least recently trained slots ([`NIL`] while empty).
    mru: u32,
    lru: u32,
    issued: u64,
}

impl L2Prefetcher {
    /// Creates an idle prefetcher.
    pub fn new(cfg: L2PrefetcherConfig) -> Self {
        let buckets = (2 * cfg.trackers).next_power_of_two().max(2);
        Self {
            cfg,
            trackers: Vec::with_capacity(cfg.trackers),
            index: vec![Bucket { page: 0, slot: NIL }; buckets],
            index_shift: 64 - buckets.trailing_zeros(),
            mru: NIL,
            lru: NIL,
            issued: 0,
        }
    }

    /// Number of prefetch lines issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Trains on one L2 data access, appending the lines to prefetch to
    /// `out` (which is not cleared).
    ///
    /// A delta that repeats twice for the same page becomes confident and
    /// triggers `degree` lookahead lines, clipped at the page boundary (SPP
    /// does not cross pages; that restriction is exactly why I-side page
    /// crossings need a TLB prefetcher).
    pub fn train(&mut self, line: CacheLine, out: &mut Vec<CacheLine>) {
        if !self.cfg.enabled {
            return;
        }
        let page = line.raw() / LINES_PER_PAGE;
        let offset = line.raw() % LINES_PER_PAGE;

        let slot = match self.find(page) {
            Ok(b) => self.index[b].slot,
            Err(_) => {
                self.allocate(page, offset as u8);
                return;
            }
        };
        if slot != self.mru {
            self.unlink(slot);
            self.push_mru(slot);
        }
        let t = &mut self.trackers[slot as usize];
        let delta = offset as i64 - t.last_offset as i64;
        let confident = delta != 0 && delta == t.last_delta as i64;
        t.last_delta = delta as i8;
        t.last_offset = offset as u8;

        if !confident {
            return;
        }
        let mut next = offset as i64;
        for _ in 0..self.cfg.degree {
            next += delta;
            if !(0..LINES_PER_PAGE as i64).contains(&next) {
                break;
            }
            out.push(CacheLine::new(page * LINES_PER_PAGE + next as u64));
            self.issued += 1;
        }
    }

    /// The bucket `page` hashes to.
    #[inline]
    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.index_shift) as usize
    }

    /// Walks `page`'s probe run: `Ok(bucket)` holding `page`, else
    /// `Err(bucket)`, the empty bucket that ends the run.
    #[inline]
    fn find(&self, page: u64) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut b = self.home(page);
        loop {
            let bucket = self.index[b];
            if bucket.slot == NIL {
                return Err(b);
            }
            if bucket.page == page {
                return Ok(b);
            }
            b = (b + 1) & mask;
        }
    }

    /// Starts tracking `page` in the next unused slot, or in the least
    /// recently trained one once every slot is live.
    fn allocate(&mut self, page: u64, offset: u8) {
        let fresh = Tracker {
            page,
            newer: NIL,
            older: NIL,
            last_offset: offset,
            last_delta: 0,
        };
        let slot = if self.trackers.len() < self.cfg.trackers {
            self.trackers.push(fresh);
            (self.trackers.len() - 1) as u32
        } else {
            let slot = self.lru;
            self.unindex(self.trackers[slot as usize].page);
            self.unlink(slot);
            self.trackers[slot as usize] = fresh;
            slot
        };
        let b = self.find(page).expect_err("a new page is not indexed");
        self.index[b] = Bucket { page, slot };
        self.push_mru(slot);
    }

    /// Drops `page` from the page index, shifting later entries of its
    /// probe run back so every run stays unbroken.
    fn unindex(&mut self, page: u64) {
        let mask = self.index.len() - 1;
        let mut hole = self.find(page).expect("an evicted page is indexed");
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let bucket = self.index[b];
            if bucket.slot == NIL {
                break;
            }
            // The entry may fill the hole unless its home lies
            // (cyclically) after the hole, up to `b`.
            let home = self.home(bucket.page);
            if (b.wrapping_sub(home) & mask) >= (b.wrapping_sub(hole) & mask) {
                self.index[hole] = bucket;
                hole = b;
            }
        }
        self.index[hole].slot = NIL;
    }

    /// Unlinks `slot` from the recency list.
    fn unlink(&mut self, slot: u32) {
        let Tracker { newer, older, .. } = self.trackers[slot as usize];
        match newer {
            NIL => self.mru = older,
            n => self.trackers[n as usize].older = older,
        }
        match older {
            NIL => self.lru = newer,
            o => self.trackers[o as usize].newer = newer,
        }
    }

    /// Links `slot` in as the most recently trained.
    fn push_mru(&mut self, slot: u32) {
        let t = &mut self.trackers[slot as usize];
        t.newer = NIL;
        t.older = self.mru;
        match self.mru {
            NIL => self.lru = slot,
            m => self.trackers[m as usize].newer = slot,
        }
        self.mru = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(page: u64, offset: u64) -> CacheLine {
        CacheLine::new(page * LINES_PER_PAGE + offset)
    }

    fn train(p: &mut L2Prefetcher, l: CacheLine) -> Vec<CacheLine> {
        let mut out = Vec::new();
        p.train(l, &mut out);
        out
    }

    #[test]
    fn stride_becomes_confident_after_two_repeats() {
        let mut p = L2Prefetcher::new(L2PrefetcherConfig {
            trackers: 4,
            degree: 2,
            enabled: true,
        });
        assert!(
            train(&mut p, line(7, 0)).is_empty(),
            "first touch allocates"
        );
        assert!(train(&mut p, line(7, 2)).is_empty(), "first delta observed");
        let out = train(&mut p, line(7, 4));
        assert_eq!(out, vec![line(7, 6), line(7, 8)]);
        assert_eq!(p.issued(), 2);
    }

    #[test]
    fn never_crosses_page_boundary() {
        let mut p = L2Prefetcher::new(L2PrefetcherConfig {
            trackers: 4,
            degree: 4,
            enabled: true,
        });
        train(&mut p, line(3, 59));
        train(&mut p, line(3, 61));
        let out = train(&mut p, line(3, 63));
        assert!(out.is_empty(), "offset 65 would leave the page: {out:?}");
    }

    #[test]
    fn irregular_pattern_stays_quiet() {
        let mut p = L2Prefetcher::new(L2PrefetcherConfig::default());
        train(&mut p, line(1, 0));
        train(&mut p, line(1, 5));
        assert!(train(&mut p, line(1, 7)).is_empty());
        assert!(train(&mut p, line(1, 20)).is_empty());
    }

    #[test]
    fn disabled_is_inert() {
        let mut p = L2Prefetcher::new(L2PrefetcherConfig::disabled());
        for i in 0..10 {
            assert!(train(&mut p, line(1, i * 2)).is_empty());
        }
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn tracker_eviction_reuses_slots() {
        let mut p = L2Prefetcher::new(L2PrefetcherConfig {
            trackers: 2,
            degree: 1,
            enabled: true,
        });
        train(&mut p, line(1, 0));
        train(&mut p, line(2, 0));
        train(&mut p, line(3, 0)); // evicts page 1
        train(&mut p, line(1, 2)); // re-allocates page 1, no history
        assert!(
            train(&mut p, line(1, 4)).is_empty(),
            "history was lost on eviction"
        );
        let out = train(&mut p, line(1, 6));
        assert_eq!(out, vec![line(1, 8)]);
    }

    #[test]
    fn negative_stride_works() {
        let mut p = L2Prefetcher::new(L2PrefetcherConfig {
            trackers: 4,
            degree: 2,
            enabled: true,
        });
        train(&mut p, line(9, 30));
        train(&mut p, line(9, 25));
        let out = train(&mut p, line(9, 20));
        assert_eq!(out, vec![line(9, 15), line(9, 10)]);
    }
}
