//! DP — the distance dSTLB prefetcher (§2.1).
//!
//! Correlates patterns with the *distance* between consecutive missing
//! pages: a prediction table indexed by the previous distance stores the
//! distances that followed it, and on a miss the observed distance's entry
//! predicts the next pages.
//!
//! §3.4: on the iSTLB stream distances do not repeat in a predictable
//! chain (93.7 % conflicting accesses), so DP provides almost no benefit.

use morrigan_types::{MissContext, PageDistance, PrefetchDecision, TlbPrefetcher, VirtPage};

/// DP geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpConfig {
    /// Prediction-table entries (direct-mapped on the distance value).
    pub entries: usize,
    /// Predicted next-distances per entry.
    pub slots: usize,
}

impl DpConfig {
    /// Bits per entry: 16-bit distance tag + `slots` × 15-bit distances.
    pub fn entry_bits(&self) -> u64 {
        16 + self.slots as u64 * 15
    }

    /// Default from the original proposal: 256 entries × 2 slots.
    pub fn original() -> Self {
        Self {
            entries: 256,
            slots: 2,
        }
    }

    /// Largest power-of-two entry count (2 slots) fitting `bits`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` cannot fit one entry.
    pub fn sized_to_bits(bits: u64) -> Self {
        let slots = 2;
        let per = 16 + slots as u64 * 15;
        let entries = (bits / per) as usize;
        assert!(entries > 0, "budget too small for one DP entry");
        Self {
            entries: entries.next_power_of_two() / 2,
            slots,
        }
    }
}

#[derive(Debug, Clone)]
struct DpEntry {
    tag: i64,
    next: Vec<PageDistance>,
    /// Round-robin victim pointer for the slot list.
    rr: usize,
    valid: bool,
}

/// The distance prefetcher.
#[derive(Debug, Clone)]
pub struct DistancePrefetcher {
    cfg: DpConfig,
    entries: Vec<DpEntry>,
    prev_vpn: Option<VirtPage>,
    prev_dist: Option<PageDistance>,
    /// Lookups that hit a different distance's entry (conflict rate).
    pub conflicts: u64,
    /// Total lookups.
    pub lookups: u64,
}

impl DistancePrefetcher {
    /// Builds the table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive power of two or `slots` is 0.
    pub fn new(cfg: DpConfig) -> Self {
        assert!(
            cfg.entries.is_power_of_two() && cfg.entries > 0,
            "DP entries must be a positive power of two"
        );
        assert!(cfg.slots > 0, "DP needs at least one slot");
        Self {
            entries: vec![
                DpEntry {
                    tag: 0,
                    next: Vec::new(),
                    rr: 0,
                    valid: false
                };
                cfg.entries
            ],
            cfg,
            prev_vpn: None,
            prev_dist: None,
            conflicts: 0,
            lookups: 0,
        }
    }

    fn index(&self, d: PageDistance) -> usize {
        (d.0 as u64 as usize) & (self.cfg.entries - 1)
    }

    /// Fraction of lookups that conflicted.
    pub fn conflict_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.lookups as f64
        }
    }
}

impl TlbPrefetcher for DistancePrefetcher {
    fn name(&self) -> &'static str {
        "dp"
    }

    fn on_stlb_miss(&mut self, ctx: &MissContext, out: &mut Vec<PrefetchDecision>) {
        let Some(prev_vpn) = self.prev_vpn else {
            self.prev_vpn = Some(ctx.vpn);
            return;
        };
        let dist = PageDistance::between(prev_vpn, ctx.vpn);
        self.prev_vpn = Some(ctx.vpn);
        if dist.0 == 0 {
            return;
        }

        // Train: the previous distance's entry learns the current distance.
        if let Some(prev_dist) = self.prev_dist {
            let idx = self.index(prev_dist);
            let slots = self.cfg.slots;
            let entry = &mut self.entries[idx];
            if !entry.valid || entry.tag != prev_dist.0 {
                if entry.valid {
                    self.conflicts += 1;
                }
                *entry = DpEntry {
                    tag: prev_dist.0,
                    next: vec![dist],
                    rr: 0,
                    valid: true,
                };
            } else if !entry.next.contains(&dist) {
                if entry.next.len() < slots {
                    entry.next.push(dist);
                } else {
                    let rr = entry.rr;
                    entry.next[rr] = dist;
                    entry.rr = (rr + 1) % slots;
                }
            }
        }
        self.prev_dist = Some(dist);

        // Predict: the current distance's entry supplies next distances.
        self.lookups += 1;
        let idx = self.index(dist);
        let entry = &self.entries[idx];
        if entry.valid && entry.tag == dist.0 {
            for &d in &entry.next {
                let target = d.apply(ctx.vpn);
                if target != ctx.vpn {
                    out.push(PrefetchDecision::plain(target));
                }
            }
        }
    }

    fn flush(&mut self) {
        for e in &mut self.entries {
            e.valid = false;
        }
        self.prev_vpn = None;
        self.prev_dist = None;
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

    fn drive(dp: &mut DistancePrefetcher, pages: &[u64]) -> Vec<PrefetchDecision> {
        let mut out = Vec::new();
        for &p in pages {
            out.clear();
            dp.on_stlb_miss(&ctx(p), &mut out);
        }
        out
    }

    #[test]
    fn learns_distance_chains() {
        let mut dp = DistancePrefetcher::new(DpConfig::original());
        // Misses 0, 10, 13: distance chain 10 → 3. Replay 100, 110 → the
        // distance-10 entry predicts +3 → 113.
        drive(&mut dp, &[0, 10, 13]);
        let out = drive(&mut dp, &[100, 110]);
        assert_eq!(out, vec![PrefetchDecision::plain(VirtPage::new(113))]);
    }

    #[test]
    fn first_miss_is_silent() {
        let mut dp = DistancePrefetcher::new(DpConfig::original());
        let out = drive(&mut dp, &[42]);
        assert!(out.is_empty());
    }

    #[test]
    fn irregular_distances_conflict() {
        let mut dp = DistancePrefetcher::new(DpConfig {
            entries: 2,
            slots: 2,
        });
        // A stream of never-repeating distances thrashes a tiny table.
        drive(&mut dp, &[0, 100, 300, 700, 1500, 3100]);
        assert!(dp.conflict_rate() > 0.0, "distinct distances must conflict");
    }

    #[test]
    fn slot_overflow_round_robins() {
        let mut dp = DistancePrefetcher::new(DpConfig {
            entries: 256,
            slots: 2,
        });
        // Distance 10 is followed by +1, +2, +3 in turn; only 2 slots.
        drive(&mut dp, &[0, 10, 11]); // 10 → 1
        drive(&mut dp, &[100, 110, 112]); // 10 → 2
        drive(&mut dp, &[200, 210, 213]); // 10 → 3 (evicts +1)
        let out = drive(&mut dp, &[300, 310]);
        let targets: Vec<u64> = out.iter().map(|d| d.vpn.raw()).collect();
        assert_eq!(targets.len(), 2);
        assert!(
            targets.contains(&313),
            "newest distance present: {targets:?}"
        );
        assert!(
            !targets.contains(&311),
            "oldest distance evicted: {targets:?}"
        );
    }

    #[test]
    fn flush_clears_chain_state() {
        let mut dp = DistancePrefetcher::new(DpConfig::original());
        drive(&mut dp, &[0, 10, 13]);
        dp.flush();
        let out = drive(&mut dp, &[100, 110]);
        assert!(out.is_empty());
    }

    #[test]
    fn storage_accounting() {
        let dp = DistancePrefetcher::new(DpConfig {
            entries: 128,
            slots: 2,
        });
        assert_eq!(dp.storage_bits(), 128 * (16 + 30));
        let sized = DpConfig::sized_to_bits(30824);
        assert!(sized.entries as u64 * sized.entry_bits() <= 30824);
    }
}
