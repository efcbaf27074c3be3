//! Paging-Structure Caches (Intel's MMU caches), split per level.
//!
//! Table 1: a 3-level split PSC with a 2-entry fully-associative PML4
//! cache, a 4-entry fully-associative PDP cache, and a 32-entry 4-way PD
//! cache, all with 2-cycle access. A hit at level *L* lets the walker skip
//! every reference above *L*: a PD-cache hit leaves only the leaf-PTE
//! reference (1 memory reference), a PDP hit leaves 2, a PML4 hit leaves 3,
//! and a full miss costs all 4 — exactly the "1.4 memory references per
//! walk" regime the paper measures for the QMM workloads (§6.4).

use morrigan_types::{PhysPage, VirtPage};

use crate::page_table::PtLevel;
use crate::tlb::{Tlb, TlbConfig};

/// Geometry of the three split PSCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PscConfig {
    /// PML4-cache entries (fully associative).
    pub pml4_entries: usize,
    /// PDP-cache entries (fully associative).
    pub pdp_entries: usize,
    /// PD-cache entries.
    pub pd_entries: usize,
    /// PD-cache associativity.
    pub pd_ways: usize,
    /// Access latency in cycles, charged once per walk.
    pub latency: u64,
}

impl Default for PscConfig {
    /// Table 1 values.
    fn default() -> Self {
        Self {
            pml4_entries: 2,
            pdp_entries: 4,
            pd_entries: 32,
            pd_ways: 4,
            latency: 2,
        }
    }
}

/// Outcome of a PSC lookup: the deepest level whose translation prefix was
/// cached, which determines how many page-table references remain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PscHit {
    /// PD cache hit: only the leaf PTE reference remains (1 reference).
    Pd,
    /// PDP cache hit: PD + leaf references remain (2 references).
    Pdp,
    /// PML4 cache hit: PDP + PD + leaf remain (3 references).
    Pml4,
    /// Full miss: all 4 references.
    None,
}

impl PscHit {
    /// Number of page-table memory references a walk must still perform.
    pub const fn remaining_refs(self) -> usize {
        match self {
            PscHit::Pd => 1,
            PscHit::Pdp => 2,
            PscHit::Pml4 => 3,
            PscHit::None => 4,
        }
    }

    /// Index of the first walk step (in root-first order) still required.
    pub const fn first_step(self) -> usize {
        4 - self.remaining_refs()
    }
}

/// The split 3-level PSC hierarchy.
///
/// Each level is a stamp-LRU [`Tlb`] whose keys are the VPN prefix the
/// level covers: a PD-cache entry covers a 2 MB region (VPN >> 9), a PDP
/// entry 1 GB (VPN >> 18), a PML4 entry 512 GB (VPN >> 27). Only
/// residency matters, so every entry holds frame 0.
#[derive(Debug, Clone)]
pub struct PagingStructureCaches {
    cfg: PscConfig,
    pml4: Tlb,
    pdp: Tlb,
    pd: Tlb,
    /// Lookup counters per outcome, for hit-rate reporting (§6.4).
    pub lookups: u64,
    /// Lookups that hit the PD cache.
    pub pd_hits: u64,
    /// Lookups whose best hit was the PDP cache.
    pub pdp_hits: u64,
    /// Lookups whose best hit was the PML4 cache.
    pub pml4_hits: u64,
}

impl PagingStructureCaches {
    /// Creates empty PSCs.
    pub fn new(cfg: PscConfig) -> Self {
        let level = |entries, ways| {
            Tlb::new(TlbConfig {
                entries,
                ways,
                latency: cfg.latency,
            })
        };
        Self {
            cfg,
            pml4: level(cfg.pml4_entries, cfg.pml4_entries),
            pdp: level(cfg.pdp_entries, cfg.pdp_entries),
            pd: level(cfg.pd_entries, cfg.pd_ways),
            lookups: 0,
            pd_hits: 0,
            pdp_hits: 0,
            pml4_hits: 0,
        }
    }

    /// This PSC's configuration.
    pub fn config(&self) -> &PscConfig {
        &self.cfg
    }

    fn tag(level: PtLevel, vpn: VirtPage) -> VirtPage {
        // A PSC entry at level L caches the *result* of the lookup at L,
        // i.e. it covers the span below L.
        VirtPage::new(vpn.raw() >> level.span_shift())
    }

    /// Finds the deepest cached prefix for `vpn`; deepest-first probe as on
    /// real hardware.
    pub fn lookup(&mut self, vpn: VirtPage) -> PscHit {
        self.lookups += 1;
        if self.pd.lookup(Self::tag(PtLevel::Pd, vpn)).is_some() {
            self.pd_hits += 1;
            return PscHit::Pd;
        }
        if self.pdp.lookup(Self::tag(PtLevel::Pdp, vpn)).is_some() {
            self.pdp_hits += 1;
            return PscHit::Pdp;
        }
        if self.pml4.lookup(Self::tag(PtLevel::Pml4, vpn)).is_some() {
            self.pml4_hits += 1;
            return PscHit::Pml4;
        }
        PscHit::None
    }

    /// Installs (or refreshes) all three prefixes after a completed walk.
    pub fn fill(&mut self, vpn: VirtPage) {
        let zero = PhysPage::new(0);
        self.pml4.insert(Self::tag(PtLevel::Pml4, vpn), zero, false);
        self.pdp.insert(Self::tag(PtLevel::Pdp, vpn), zero, false);
        self.pd.insert(Self::tag(PtLevel::Pd, vpn), zero, false);
    }

    /// Empties all levels (context switch).
    pub fn flush(&mut self) {
        self.pml4.flush();
        self.pdp.flush();
        self.pd.flush();
    }

    /// Average memory references avoided is easiest expressed via the hit
    /// distribution; this returns the mean *remaining* references per
    /// lookup so far (the paper's "1.4 memory references per walk").
    pub fn mean_remaining_refs(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        let misses = self.lookups - self.pd_hits - self.pdp_hits - self.pml4_hits;
        (self.pd_hits + 2 * self.pdp_hits + 3 * self.pml4_hits + 4 * misses) as f64
            / self.lookups as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_lookup_misses_everywhere() {
        let mut psc = PagingStructureCaches::new(PscConfig::default());
        assert_eq!(psc.lookup(VirtPage::new(0x12345)), PscHit::None);
        assert_eq!(PscHit::None.remaining_refs(), 4);
    }

    #[test]
    fn fill_then_pd_hit_in_same_2mb_region() {
        let mut psc = PagingStructureCaches::new(PscConfig::default());
        psc.fill(VirtPage::new(0x12345));
        // Same 2 MB region (same VPN >> 9): PD hit → 1 remaining ref.
        let hit = psc.lookup(VirtPage::new(0x12345 ^ 0x1ff | 0x12200));
        assert_eq!(hit, PscHit::Pd);
        assert_eq!(hit.remaining_refs(), 1);
        assert_eq!(hit.first_step(), 3);
    }

    #[test]
    fn pdp_hit_when_pd_region_differs() {
        let mut psc = PagingStructureCaches::new(PscConfig::default());
        psc.fill(VirtPage::new(0));
        // Different 2 MB region, same 1 GB region.
        let hit = psc.lookup(VirtPage::new(512));
        assert_eq!(hit, PscHit::Pdp);
        assert_eq!(hit.remaining_refs(), 2);
    }

    #[test]
    fn pml4_hit_when_pdp_region_differs() {
        let mut psc = PagingStructureCaches::new(PscConfig::default());
        psc.fill(VirtPage::new(0));
        // Different 1 GB region, same 512 GB region.
        let hit = psc.lookup(VirtPage::new(1 << 18));
        assert_eq!(hit, PscHit::Pml4);
        assert_eq!(hit.remaining_refs(), 3);
    }

    #[test]
    fn capacity_eviction_in_tiny_pml4() {
        let mut psc = PagingStructureCaches::new(PscConfig::default());
        // Fill 3 distinct 512 GB regions into the 2-entry PML4 cache.
        psc.fill(VirtPage::new(0));
        psc.fill(VirtPage::new(1 << 27));
        psc.fill(VirtPage::new(2 << 27));
        // Region 0's PML4 entry was LRU and must be gone. Probe with a page
        // in region 0 but a *different* 1 GB/2 MB sub-region, so the PDP/PD
        // caches cannot answer: a full miss proves the PML4 eviction.
        assert_eq!(psc.lookup(VirtPage::new(5 << 18)), PscHit::None);
        // Region 1 likewise probed in a fresh sub-region: PML4 still hits.
        assert_eq!(
            psc.lookup(VirtPage::new((1 << 27) + (5 << 18))),
            PscHit::Pml4
        );
    }

    #[test]
    fn mean_remaining_refs_tracks_distribution() {
        let mut psc = PagingStructureCaches::new(PscConfig::default());
        psc.fill(VirtPage::new(0));
        let _ = psc.lookup(VirtPage::new(1)); // PD hit → 1
        let _ = psc.lookup(VirtPage::new(1 << 30)); // miss → 4
        assert!((psc.mean_remaining_refs() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn flush_empties_all_levels() {
        let mut psc = PagingStructureCaches::new(PscConfig::default());
        psc.fill(VirtPage::new(0x777));
        psc.flush();
        assert_eq!(psc.lookup(VirtPage::new(0x777)), PscHit::None);
    }
}
