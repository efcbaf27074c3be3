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

/// Page sentinel marking an unused tracker. Tracked pages are physical
/// line numbers shifted right by 6, so they can never reach it.
const NO_PAGE: u64 = u64::MAX;

/// Configuration of the L2 prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2PrefetcherConfig {
    /// Number of page trackers (fully associative, LRU by round-robin clock).
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

/// SPP-style stride/signature prefetcher trained on L2 data accesses.
///
/// Tracker state lives in parallel packed arrays (structure-of-arrays):
/// `train` runs on every L2 data access, and the page-match scan over a
/// contiguous `u64` run is what makes that affordable. An unused tracker
/// holds the [`NO_PAGE`] page and LRU stamp 0; live stamps are ≥ 1, so
/// victim selection is a single min-stamp pass preferring free slots in
/// index order, then the least-recently-used page.
#[derive(Debug, Clone)]
pub struct L2Prefetcher {
    cfg: L2PrefetcherConfig,
    pages: Vec<u64>,
    lru: Vec<u64>,
    last_offset: Vec<u8>,
    last_delta: Vec<i8>,
    tick: u64,
    issued: u64,
}

impl L2Prefetcher {
    /// Creates an idle prefetcher.
    pub fn new(cfg: L2PrefetcherConfig) -> Self {
        Self {
            cfg,
            pages: vec![NO_PAGE; cfg.trackers],
            lru: vec![0; cfg.trackers],
            last_offset: vec![0; cfg.trackers],
            last_delta: vec![0; cfg.trackers],
            tick: 0,
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
        self.tick += 1;
        let page = line.raw() / LINES_PER_PAGE;
        let offset = line.raw() % LINES_PER_PAGE;

        let slot = match self.pages.iter().position(|&p| p == page) {
            Some(i) => i,
            None => {
                // Free slots hold stamp 0, below every live stamp, and
                // min-by returns the first minimum — the same "first free
                // slot, else LRU" order as the per-tracker valid flag.
                let mut victim = 0;
                let mut victim_lru = self.lru[0];
                for (i, &l) in self.lru.iter().enumerate() {
                    if l < victim_lru {
                        victim_lru = l;
                        victim = i;
                    }
                }
                self.pages[victim] = page;
                self.lru[victim] = self.tick;
                self.last_offset[victim] = offset as u8;
                self.last_delta[victim] = 0;
                return;
            }
        };

        self.lru[slot] = self.tick;
        let delta = offset as i64 - self.last_offset[slot] as i64;
        let confident = delta != 0 && delta == self.last_delta[slot] as i64;
        self.last_delta[slot] = delta as i8;
        self.last_offset[slot] = offset as u8;

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
