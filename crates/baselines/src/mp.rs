//! MP — the Markov dSTLB prefetcher (§2.1).
//!
//! A prediction table indexed by the missing virtual page whose entries
//! store a fixed number of successor **pages** (full VPNs, unlike IRIP's
//! compact distances) and use **LRU** replacement — the two design points
//! the paper identifies as MP's weaknesses on the iSTLB stream (§3.4):
//! LRU loses hot-but-not-recent pages, and fixed 2-successor entries
//! waste capacity on single-successor pages while truncating multi-
//! successor ones.

use morrigan_types::{MissContext, PrefetchDecision, TlbPrefetcher, VirtPage};

/// MP geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpConfig {
    /// Prediction-table entries (fully associative with LRU, as in the
    /// original proposal).
    pub entries: usize,
    /// Successor slots per entry (the original design stores 2).
    pub slots: usize,
}

impl MpConfig {
    /// Bits per entry: 36-bit VPN tag + `slots` × 36-bit successor VPNs
    /// (the naive full-VPN storage the paper contrasts IRIP against).
    pub fn entry_bits(&self) -> u64 {
        36 + self.slots as u64 * 36
    }

    /// The original configuration: 128 entries × 2 successors.
    pub fn original() -> Self {
        Self {
            entries: 128,
            slots: 2,
        }
    }

    /// Largest entry count (2 slots) fitting `bits` of storage.
    ///
    /// # Panics
    ///
    /// Panics if `bits` cannot fit one entry.
    pub fn sized_to_bits(bits: u64) -> Self {
        let slots = 2;
        let per = MpConfig { entries: 1, slots }.entry_bits();
        let entries = (bits / per) as usize;
        assert!(entries > 0, "budget too small for one MP entry");
        Self { entries, slots }
    }
}

#[derive(Debug, Clone)]
struct MpEntry {
    vpn: VirtPage,
    successors: Vec<VirtPage>,
    /// Round-robin victim pointer within the slot list.
    rr: usize,
    stamp: u64,
}

/// The Markov prefetcher.
#[derive(Debug, Clone)]
pub struct MarkovPrefetcher {
    cfg: MpConfig,
    entries: Vec<MpEntry>,
    prev: Option<VirtPage>,
    tick: u64,
    /// Lookups that hit the table.
    pub hits: u64,
    /// Total lookups.
    pub lookups: u64,
}

impl MarkovPrefetcher {
    /// Builds the table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `slots` is zero.
    pub fn new(cfg: MpConfig) -> Self {
        assert!(
            cfg.entries > 0 && cfg.slots > 0,
            "MP geometry must be positive"
        );
        Self {
            entries: Vec::with_capacity(cfg.entries),
            cfg,
            prev: None,
            tick: 0,
            hits: 0,
            lookups: 0,
        }
    }

    fn find(&self, vpn: VirtPage) -> Option<usize> {
        self.entries.iter().position(|e| e.vpn == vpn)
    }

    /// Installs or refreshes `vpn`'s entry and returns its index, evicting
    /// the LRU entry when the table is full.
    fn ensure_entry(&mut self, vpn: VirtPage) -> usize {
        self.tick += 1;
        if let Some(i) = self.find(vpn) {
            self.entries[i].stamp = self.tick;
            return i;
        }
        let fresh = MpEntry {
            vpn,
            successors: Vec::new(),
            rr: 0,
            stamp: self.tick,
        };
        if self.entries.len() < self.cfg.entries {
            self.entries.push(fresh);
            self.entries.len() - 1
        } else {
            let (i, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .expect("table is full, hence non-empty");
            self.entries[i] = fresh;
            i
        }
    }

    /// The successors currently stored for `vpn` (test/inspection hook).
    pub fn successors_of(&self, vpn: VirtPage) -> Vec<VirtPage> {
        self.find(vpn)
            .map(|i| self.entries[i].successors.clone())
            .unwrap_or_default()
    }
}

impl TlbPrefetcher for MarkovPrefetcher {
    fn name(&self) -> &'static str {
        "mp"
    }

    fn on_stlb_miss(&mut self, ctx: &MissContext, out: &mut Vec<PrefetchDecision>) {
        // Predict from the current page's entry.
        self.lookups += 1;
        self.tick += 1;
        if let Some(i) = self.find(ctx.vpn) {
            self.entries[i].stamp = self.tick;
            self.hits += 1;
            for &succ in &self.entries[i].successors {
                if succ != ctx.vpn {
                    out.push(PrefetchDecision::plain(succ));
                }
            }
        }
        // Train the previous page's entry with the current page.
        if let Some(prev) = self.prev {
            if prev != ctx.vpn {
                let slots = self.cfg.slots;
                let i = self.ensure_entry(prev);
                let entry = &mut self.entries[i];
                if !entry.successors.contains(&ctx.vpn) {
                    if entry.successors.len() < slots {
                        entry.successors.push(ctx.vpn);
                    } else {
                        let rr = entry.rr;
                        entry.successors[rr] = ctx.vpn;
                        entry.rr = (rr + 1) % slots;
                    }
                }
            }
        }
        self.prev = Some(ctx.vpn);
    }

    fn flush(&mut self) {
        self.entries.clear();
        self.prev = None;
    }

    fn storage_bits(&self) -> u64 {
        self.cfg.entries as u64 * self.cfg.entry_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morrigan_types::{ThreadId, VirtAddr};

    fn ctx(page: u64) -> MissContext {
        MissContext {
            vpn: VirtPage::new(page),
            pc: VirtAddr::new(page << 12),
            thread: ThreadId::ZERO,
            pb_hit: false,
            cycle: 0,
        }
    }

    fn drive(mp: &mut MarkovPrefetcher, pages: &[u64]) -> Vec<PrefetchDecision> {
        let mut out = Vec::new();
        for &p in pages {
            out.clear();
            mp.on_stlb_miss(&ctx(p), &mut out);
        }
        out
    }

    #[test]
    fn learns_and_predicts_successor() {
        let mut mp = MarkovPrefetcher::new(MpConfig::original());
        let out = drive(&mut mp, &[100, 250, 100]);
        assert_eq!(out, vec![PrefetchDecision::plain(VirtPage::new(250))]);
    }

    #[test]
    fn stores_at_most_two_successors() {
        let mut mp = MarkovPrefetcher::new(MpConfig::original());
        drive(&mut mp, &[100, 1, 100, 2, 100, 3]);
        let succ = mp.successors_of(VirtPage::new(100));
        assert_eq!(succ.len(), 2);
        assert!(
            succ.contains(&VirtPage::new(3)),
            "newest successor kept: {succ:?}"
        );
    }

    #[test]
    fn lru_eviction_loses_old_entries() {
        let mut mp = MarkovPrefetcher::new(MpConfig {
            entries: 2,
            slots: 2,
        });
        // Train 100 → 1, then flood with fresh pages.
        drive(&mut mp, &[100, 1, 200, 300, 400, 500]);
        let out = drive(&mut mp, &[100]);
        assert!(out.is_empty(), "LRU evicted the hot page's entry");
    }

    #[test]
    fn duplicate_successors_not_stored() {
        let mut mp = MarkovPrefetcher::new(MpConfig::original());
        drive(&mut mp, &[100, 1, 100, 1, 100, 1]);
        assert_eq!(mp.successors_of(VirtPage::new(100)).len(), 1);
    }

    #[test]
    fn self_loop_not_trained_or_predicted() {
        let mut mp = MarkovPrefetcher::new(MpConfig::original());
        let out = drive(&mut mp, &[100, 100, 100]);
        assert!(out.is_empty());
        assert!(mp.successors_of(VirtPage::new(100)).is_empty());
    }

    #[test]
    fn flush_and_storage() {
        let mut mp = MarkovPrefetcher::new(MpConfig::original());
        drive(&mut mp, &[100, 1]);
        mp.flush();
        assert!(mp.successors_of(VirtPage::new(100)).is_empty());
        assert_eq!(mp.storage_bits(), 128 * (36 + 72));
        let sized = MpConfig::sized_to_bits(30824);
        assert!(sized.entries as u64 * sized.entry_bits() <= 30824);
    }
}
