//! A deterministic x86-64 4-level radix page table.
//!
//! The simulator does not store real PTE contents; it needs (i) the
//! *physical addresses* touched by each walk step, so page-walk references
//! land in the cache hierarchy with realistic locality, and (ii) a stable
//! virtual-to-physical mapping for data/instruction lines.
//!
//! Both are derived with a SplitMix64 hash instead of stored: every
//! page-table node for a given `(asid, level, prefix)` lives at a fixed
//! pseudo-random physical page, and a leaf PTE for VPN `v` lives at
//! `node_base + (v mod 512) * 8`. This preserves exactly the property the
//! paper exploits — eight virtually-consecutive pages' leaf PTEs share one
//! 64-byte cache line (*page table locality*, §2) — while modelling a
//! fragmented physical memory (no physical contiguity between data pages,
//! the situation the paper argues is typical in datacenters).

use morrigan_types::rng::SplitMix64;
use morrigan_types::{PhysAddr, PhysPage, VirtPage};

/// Radix bits per page-table level (x86-64: 9 bits, 512 entries per node).
const LEVEL_BITS: u32 = 9;
const LEVEL_MASK: u64 = (1 << LEVEL_BITS) - 1;

/// The four levels of the x86-64 radix page table, root first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PtLevel {
    /// Page Map Level 4 (root).
    Pml4,
    /// Page Directory Pointer table.
    Pdp,
    /// Page Directory.
    Pd,
    /// Page Table (leaf level holding 4 KB PTEs).
    Pt,
}

impl PtLevel {
    /// Levels in walk order, root first.
    pub const WALK_ORDER: [PtLevel; 4] = [PtLevel::Pml4, PtLevel::Pdp, PtLevel::Pd, PtLevel::Pt];

    /// How many VPN bits *below* this level's index (i.e. the size of the
    /// region one entry at this level covers, in pages, as a shift).
    pub const fn span_shift(self) -> u32 {
        match self {
            PtLevel::Pml4 => 27,
            PtLevel::Pdp => 18,
            PtLevel::Pd => 9,
            PtLevel::Pt => 0,
        }
    }

    /// This level's 9-bit index within a 36-bit VPN.
    pub const fn index(self, vpn: u64) -> u64 {
        (vpn >> self.span_shift()) & LEVEL_MASK
    }
}

/// One reference a page walk performs: which level, at which physical
/// address (the address decides cache behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkStep {
    /// The level whose node is read.
    pub level: PtLevel,
    /// Physical address of the entry read at that level.
    pub pte_addr: PhysAddr,
}

/// A deterministic page table for one address space.
///
/// Only pages registered with [`PageTable::map`] / [`PageTable::map_range`]
/// are translatable; prefetches to unmapped pages are *faulting* and must be
/// dropped by the MMU (§2.1: "only non-faulting prefetches are permitted").
///
/// Mapped pages are kept as sorted, merged `[start, end)` VPN ranges, so a
/// membership test is one binary search over a handful of code and data
/// regions rather than a hash of the page.
#[derive(Debug, Clone)]
pub struct PageTable {
    asid: u64,
    /// Disjoint, non-adjacent `[start, end)` ranges in ascending order.
    ranges: Vec<(u64, u64)>,
}

impl PageTable {
    /// Creates an empty address space identified by `asid`.
    ///
    /// Different ASIDs produce disjoint pseudo-random physical layouts, so
    /// SMT colocation of two address spaces exhibits real cache contention.
    pub fn new(asid: u64) -> Self {
        Self {
            asid,
            ranges: Vec::new(),
        }
    }

    /// The address-space identifier.
    pub fn asid(&self) -> u64 {
        self.asid
    }

    /// Registers a single page as mapped.
    pub fn map(&mut self, vpn: VirtPage) {
        self.map_range(vpn, 1);
    }

    /// Registers `count` consecutive pages starting at `base`, merging
    /// them with every range they overlap or touch. (VPN `u64::MAX`, which
    /// no virtual address shifts to, is never mapped.)
    pub fn map_range(&mut self, base: VirtPage, count: u64) {
        let (start, end) = (base.raw(), base.raw().saturating_add(count));
        if start == end {
            return;
        }
        // Ranges `[first, last)` overlap or touch `[start, end)`.
        let first = self.ranges.partition_point(|&(_, e)| e < start);
        let last = self.ranges.partition_point(|&(s, _)| s <= end);
        let merged = if first == last {
            (start, end)
        } else {
            (
                self.ranges[first].0.min(start),
                self.ranges[last - 1].1.max(end),
            )
        };
        self.ranges.splice(first..last, [merged]);
    }

    /// Whether `vpn` has a valid translation.
    pub fn is_mapped(&self, vpn: VirtPage) -> bool {
        let v = vpn.raw();
        let after = self.ranges.partition_point(|&(s, _)| s <= v);
        after > 0 && v < self.ranges[after - 1].1
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.ranges.iter().map(|&(s, e)| (e - s) as usize).sum()
    }

    /// The physical frame backing `vpn`, or `None` if unmapped.
    ///
    /// Frames are a pure hash of `(asid, vpn)`: stable across calls, no
    /// physical contiguity (a fragmented machine).
    pub fn translate(&self, vpn: VirtPage) -> Option<PhysPage> {
        if !self.is_mapped(vpn) {
            return None;
        }
        // Avoid frame 0 and keep frames within a 2^36-page (256 TB) space.
        let h =
            SplitMix64::mix(self.asid.wrapping_mul(0x9e37_79b9).wrapping_add(vpn.raw()) ^ 0xf00d);
        Some(PhysPage::new((h & ((1 << 36) - 1)) | 1))
    }

    /// Physical page that holds the page-table node for `(level, prefix)`.
    fn node_frame(&self, level: PtLevel, vpn: u64) -> PhysPage {
        // The node identity is the VPN bits *above* this level's index.
        let prefix = vpn >> level.span_shift() >> LEVEL_BITS;
        let tag = (level as u64) << 60 | prefix;
        let h = SplitMix64::mix(self.asid.wrapping_mul(0x85eb_ca6b).wrapping_add(tag) ^ 0xbeef);
        PhysPage::new((h & ((1 << 36) - 1)) | 1)
    }

    /// The four memory references of a full (PSC-cold) walk for `vpn`,
    /// root first. Defined for unmapped pages too: a walk must touch the
    /// tree to *discover* that a page is unmapped.
    pub fn walk_steps(&self, vpn: VirtPage) -> [WalkStep; 4] {
        PtLevel::WALK_ORDER.map(|level| {
            let node = self.node_frame(level, vpn.raw());
            let entry = PtLevel::index(level, vpn.raw());
            WalkStep {
                level,
                pte_addr: PhysAddr::new(node.base_addr().raw() + entry * 8),
            }
        })
    }

    /// Physical address of the *leaf* PTE for `vpn` (the last walk step).
    pub fn leaf_pte_addr(&self, vpn: VirtPage) -> PhysAddr {
        self.walk_steps(vpn)[3].pte_addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morrigan_types::addr::PTES_PER_LINE;

    #[test]
    fn translation_requires_mapping() {
        let mut pt = PageTable::new(7);
        let vpn = VirtPage::new(0x1234);
        assert_eq!(pt.translate(vpn), None);
        pt.map(vpn);
        assert!(pt.translate(vpn).is_some());
    }

    #[test]
    fn translation_is_stable() {
        let mut pt = PageTable::new(7);
        pt.map(VirtPage::new(42));
        let a = pt.translate(VirtPage::new(42));
        let b = pt.translate(VirtPage::new(42));
        assert_eq!(a, b);
    }

    #[test]
    fn different_asids_get_different_frames() {
        let mut a = PageTable::new(1);
        let mut b = PageTable::new(2);
        a.map(VirtPage::new(42));
        b.map(VirtPage::new(42));
        assert_ne!(
            a.translate(VirtPage::new(42)),
            b.translate(VirtPage::new(42))
        );
    }

    #[test]
    fn adjacent_vpns_share_a_leaf_pte_line() {
        // §2: 8 contiguously-stored PTEs share one 64-byte line.
        let pt = PageTable::new(3);
        let base = VirtPage::new(0x1000); // aligned to a PTE line (0x1000 % 8 == 0)
        let line0 = pt.leaf_pte_addr(base).cache_line();
        for i in 1..PTES_PER_LINE {
            assert_eq!(pt.leaf_pte_addr(base.offset(i as i64)).cache_line(), line0);
        }
        assert_ne!(
            pt.leaf_pte_addr(base.offset(PTES_PER_LINE as i64))
                .cache_line(),
            line0
        );
    }

    #[test]
    fn paper_example_0xa7_0xa8_split_lines() {
        // §4.1.2: PTEs of 0xA7 and 0xA8 are in different cache lines.
        let pt = PageTable::new(3);
        assert_ne!(
            pt.leaf_pte_addr(VirtPage::new(0xa7)).cache_line(),
            pt.leaf_pte_addr(VirtPage::new(0xa8)).cache_line()
        );
    }

    #[test]
    fn walk_visits_four_distinct_levels() {
        let pt = PageTable::new(3);
        let steps = pt.walk_steps(VirtPage::new(0xabcdef));
        assert_eq!(steps.len(), 4);
        assert_eq!(steps[0].level, PtLevel::Pml4);
        assert_eq!(steps[3].level, PtLevel::Pt);
        // Nodes of different levels should land on different frames with
        // overwhelming probability for this VPN.
        assert_ne!(steps[0].pte_addr.phys_page(), steps[3].pte_addr.phys_page());
    }

    #[test]
    fn pages_in_same_2mb_region_share_upper_nodes() {
        let pt = PageTable::new(3);
        let a = pt.walk_steps(VirtPage::new(0x2000));
        let b = pt.walk_steps(VirtPage::new(0x2001));
        // Same PML4/PDP/PD nodes; only leaf entry differs within the node.
        for i in 0..3 {
            assert_eq!(a[i].pte_addr, b[i].pte_addr);
        }
        assert_ne!(a[3].pte_addr, b[3].pte_addr);
        assert_eq!(a[3].pte_addr.phys_page(), b[3].pte_addr.phys_page());
    }

    #[test]
    fn pages_in_different_2mb_regions_use_different_leaf_nodes() {
        let pt = PageTable::new(3);
        let a = pt.walk_steps(VirtPage::new(0x2000));
        let b = pt.walk_steps(VirtPage::new(0x2000 + 512));
        assert_ne!(a[3].pte_addr.phys_page(), b[3].pte_addr.phys_page());
        // But they still share PML4/PDP nodes.
        assert_eq!(a[0].pte_addr, b[0].pte_addr);
        assert_eq!(a[1].pte_addr, b[1].pte_addr);
    }

    #[test]
    fn map_range_maps_exactly_count_pages() {
        let mut pt = PageTable::new(9);
        pt.map_range(VirtPage::new(100), 10);
        assert_eq!(pt.mapped_pages(), 10);
        assert!(pt.is_mapped(VirtPage::new(100)));
        assert!(pt.is_mapped(VirtPage::new(109)));
        assert!(!pt.is_mapped(VirtPage::new(110)));
    }

    #[test]
    fn ranges_merge_like_a_page_set() {
        // Overlapping, touching, nested and disjoint mappings in a
        // scrambled order must answer like the set of pages they name.
        let maps = [
            (40u64, 10u64),
            (10, 5),
            (60, 0),
            (15, 5),
            (45, 20),
            (2, 3),
            (70, 4),
            (0, 1),
            (30, 1),
            (66, 3),
            (12, 2),
            (80, 1),
            (79, 3),
        ];
        let mut pt = PageTable::new(1);
        let mut pages = std::collections::BTreeSet::new();
        for (base, count) in maps {
            pt.map_range(VirtPage::new(base), count);
            pages.extend(base..base + count);
            assert_eq!(
                pt.mapped_pages(),
                pages.len(),
                "after mapping {base}+{count}"
            );
            for v in 0..100 {
                assert_eq!(
                    pt.is_mapped(VirtPage::new(v)),
                    pages.contains(&v),
                    "page {v}"
                );
            }
        }
        for window in pt.ranges.windows(2) {
            assert!(window[0].1 < window[1].0, "ranges stay merged and sorted");
        }
        pt.map(VirtPage::new(69));
        assert!(pt.is_mapped(VirtPage::new(69)));
    }

    #[test]
    fn level_indices_cover_36_bit_vpn() {
        let vpn = 0xf_ffff_ffff_u64; // 36 bits set
        for level in PtLevel::WALK_ORDER {
            assert_eq!(PtLevel::index(level, vpn), 511);
        }
        assert_eq!(PtLevel::index(PtLevel::Pt, 0x1234), 0x1234 & 511);
    }
}
