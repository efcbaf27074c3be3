//! ASP — the arbitrary-stride dSTLB prefetcher (§2.1).
//!
//! A Baer–Chen-style reference prediction table indexed by the **PC** of
//! the instruction that triggered the STLB miss. Each entry tracks the last
//! missing page and the last observed stride with a 2-state confirmation:
//! a stride must repeat once before prefetches are issued.
//!
//! §3.4 explains why this fails on the iSTLB stream: instruction fetches
//! miss from *many* PCs within the same page, so PC does not correlate
//! with the page-level miss pattern and the table thrashes (the paper
//! measures 96.3 % conflicting accesses).

use morrigan_types::{MissContext, PrefetchDecision, TlbPrefetcher, VirtPage};

/// ASP geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AspConfig {
    /// Prediction-table entries (direct-mapped on PC, as in the original
    /// reference-prediction-table design).
    pub entries: usize,
}

impl AspConfig {
    /// Bits per entry: 16-bit PC tag + 36-bit last page + 15-bit stride +
    /// 1 confirmation bit.
    pub const ENTRY_BITS: u64 = 16 + 36 + 15 + 1;

    /// Default from the original proposal: a 256-entry table.
    pub fn original() -> Self {
        Self { entries: 256 }
    }

    /// Largest power-of-two entry count fitting `bits` of storage
    /// (ISO-storage comparisons, §6.2).
    ///
    /// # Panics
    ///
    /// Panics if `bits` cannot fit even one entry.
    pub fn sized_to_bits(bits: u64) -> Self {
        let entries = (bits / Self::ENTRY_BITS) as usize;
        assert!(entries > 0, "budget too small for one ASP entry");
        Self {
            entries: entries.next_power_of_two() / 2,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct AspEntry {
    tag: u64,
    last_vpn: VirtPage,
    stride: i64,
    confirmed: bool,
    valid: bool,
}

/// The arbitrary-stride prefetcher.
#[derive(Debug, Clone)]
pub struct ArbitraryStridePrefetcher {
    cfg: AspConfig,
    entries: Vec<AspEntry>,
    /// Lookups that found a different PC's entry in their slot (the
    /// conflict rate the paper reports).
    pub conflicts: u64,
    /// Total lookups.
    pub lookups: u64,
}

impl ArbitraryStridePrefetcher {
    /// Builds the table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive power of two.
    pub fn new(cfg: AspConfig) -> Self {
        assert!(
            cfg.entries.is_power_of_two() && cfg.entries > 0,
            "ASP entries must be a positive power of two"
        );
        Self {
            entries: vec![
                AspEntry {
                    tag: 0,
                    last_vpn: VirtPage::new(0),
                    stride: 0,
                    confirmed: false,
                    valid: false,
                };
                cfg.entries
            ],
            cfg,
            conflicts: 0,
            lookups: 0,
        }
    }

    /// Fraction of lookups that conflicted with a different PC.
    pub fn conflict_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.lookups as f64
        }
    }
}

impl TlbPrefetcher for ArbitraryStridePrefetcher {
    fn name(&self) -> &'static str {
        "asp"
    }

    fn on_stlb_miss(&mut self, ctx: &MissContext, out: &mut Vec<PrefetchDecision>) {
        self.lookups += 1;
        // Index by instruction address (PC), as the original design does.
        let pc = ctx.pc.raw() >> 2; // drop byte-in-word bits
        let idx = (pc as usize) & (self.cfg.entries - 1);
        let tag = (pc >> self.cfg.entries.trailing_zeros()) & 0xffff;
        let entry = &mut self.entries[idx];

        if !entry.valid || entry.tag != tag {
            if entry.valid {
                self.conflicts += 1;
            }
            *entry = AspEntry {
                tag,
                last_vpn: ctx.vpn,
                stride: 0,
                confirmed: false,
                valid: true,
            };
            return;
        }

        let stride = ctx.vpn.distance_from(entry.last_vpn);
        if stride != 0 && stride == entry.stride {
            entry.confirmed = true;
        } else {
            entry.confirmed = false;
            entry.stride = stride;
        }
        entry.last_vpn = ctx.vpn;
        if entry.confirmed {
            out.push(PrefetchDecision::plain(ctx.vpn.offset(entry.stride)));
        }
    }

    fn flush(&mut self) {
        for e in &mut self.entries {
            e.valid = false;
        }
    }

    fn storage_bits(&self) -> u64 {
        self.cfg.entries as u64 * AspConfig::ENTRY_BITS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morrigan_types::{ThreadId, VirtAddr};

    fn ctx(page: u64, pc: u64) -> MissContext {
        MissContext {
            vpn: VirtPage::new(page),
            pc: VirtAddr::new(pc),
            thread: ThreadId::ZERO,
            pb_hit: false,
            cycle: 0,
        }
    }

    #[test]
    fn confirmed_stride_prefetches() {
        let mut asp = ArbitraryStridePrefetcher::new(AspConfig::original());
        let mut out = Vec::new();
        // Same PC misses with stride 3, confirmed on the third observation.
        asp.on_stlb_miss(&ctx(10, 0x400), &mut out);
        asp.on_stlb_miss(&ctx(13, 0x400), &mut out);
        assert!(out.is_empty(), "stride seen once, not yet confirmed");
        asp.on_stlb_miss(&ctx(16, 0x400), &mut out);
        assert_eq!(out, vec![PrefetchDecision::plain(VirtPage::new(19))]);
    }

    #[test]
    fn changing_stride_resets_confirmation() {
        let mut asp = ArbitraryStridePrefetcher::new(AspConfig::original());
        let mut out = Vec::new();
        asp.on_stlb_miss(&ctx(10, 0x400), &mut out);
        asp.on_stlb_miss(&ctx(13, 0x400), &mut out);
        asp.on_stlb_miss(&ctx(16, 0x400), &mut out);
        out.clear();
        asp.on_stlb_miss(&ctx(99, 0x400), &mut out); // stride 83
        assert!(out.is_empty());
    }

    #[test]
    fn different_pcs_conflict_in_the_table() {
        // A 1-entry table: every distinct PC evicts the previous one.
        let mut asp = ArbitraryStridePrefetcher::new(AspConfig { entries: 1 });
        let mut out = Vec::new();
        asp.on_stlb_miss(&ctx(10, 0x1_0000), &mut out);
        asp.on_stlb_miss(&ctx(13, 0x2_0000), &mut out);
        asp.on_stlb_miss(&ctx(16, 0x1_0000), &mut out);
        assert!(out.is_empty(), "conflicts destroy stride history");
        assert!(asp.conflicts >= 2);
        assert!(asp.conflict_rate() > 0.5);
    }

    #[test]
    fn sized_to_bits_fits_budget() {
        let budget = 3_76 * 1024 * 8 / 100 * 10; // ≈3.76 KB in bits, ugly-rounded
        let cfg = AspConfig::sized_to_bits(30824);
        assert!(cfg.entries.is_power_of_two());
        assert!(cfg.entries as u64 * AspConfig::ENTRY_BITS <= 30824);
        let _ = budget;
    }

    #[test]
    fn flush_clears_history() {
        let mut asp = ArbitraryStridePrefetcher::new(AspConfig::original());
        let mut out = Vec::new();
        asp.on_stlb_miss(&ctx(10, 0x400), &mut out);
        asp.on_stlb_miss(&ctx(13, 0x400), &mut out);
        asp.flush();
        asp.on_stlb_miss(&ctx(16, 0x400), &mut out);
        assert!(out.is_empty(), "history must not survive a flush");
    }

    #[test]
    fn storage_accounting() {
        let asp = ArbitraryStridePrefetcher::new(AspConfig { entries: 64 });
        assert_eq!(asp.storage_bits(), 64 * AspConfig::ENTRY_BITS);
        assert_eq!(asp.name(), "asp");
    }
}
