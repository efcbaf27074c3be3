//! Strongly-typed addresses, pages, and cache lines.
//!
//! The simulator models a standard x86-64 layout: 4 KB base pages
//! ([`PAGE_SHIFT`] = 12), 64-byte cache lines ([`LINE_SHIFT`] = 6), and
//! 8-byte page-table entries so a single cache line holds 8 contiguous PTEs
//! (the *page-table locality* that §2 of the paper exploits).
//!
//! Newtypes keep virtual and physical namespaces statically distinct
//! (C-NEWTYPE): a [`VirtPage`] can never be passed where a [`PhysPage`] is
//! expected, which rules out an entire class of simulator bugs.

use std::fmt;

/// log2 of the base page size (4 KB pages).
pub const PAGE_SHIFT: u32 = 12;
/// Base page size in bytes.
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
/// log2 of the cache-line size (64-byte lines).
pub const LINE_SHIFT: u32 = 6;
/// Cache-line size in bytes.
pub const LINE_SIZE: u64 = 1 << LINE_SHIFT;
/// Size of one page-table entry in bytes (x86-64).
pub const PTE_SIZE: u64 = 8;
/// Number of PTEs that share one cache line (64 / 8 = 8).
pub const PTES_PER_LINE: u64 = LINE_SIZE / PTE_SIZE;

/// Bit position at which an address-space identifier is fused into a
/// virtual *page number*.
///
/// The multi-process model keeps the single-address-space hot path
/// intact by folding each tenant's ASID into the high bits of its VPNs:
/// `fused_vpn = (asid << ASID_SHIFT) | vpn`. Workload generators emit
/// VPNs below bit 40 (user-space canonical addresses are ≤ 47 bits, so
/// pages are ≤ 35 bits), leaving bits 40+ free to carry the ASID. ASID 0
/// is the identity fusing, which is why `cores=1, processes=1` runs are
/// bit-identical to the pre-multicore simulator.
pub const ASID_SHIFT: u32 = 40;
/// Bit position at which an ASID is fused into a full virtual *address*
/// (`ASID_SHIFT` page bits further left).
pub const ASID_ADDR_SHIFT: u32 = ASID_SHIFT + PAGE_SHIFT;

macro_rules! address_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw 64-bit value.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw 64-bit value.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(value: $name) -> u64 {
                value.0
            }
        }
    };
}

address_newtype! {
    /// A full 64-bit virtual address.
    VirtAddr
}

address_newtype! {
    /// A full 64-bit physical address.
    PhysAddr
}

address_newtype! {
    /// A virtual page number (virtual address >> [`PAGE_SHIFT`]).
    VirtPage
}

address_newtype! {
    /// A physical frame number (physical address >> [`PAGE_SHIFT`]).
    PhysPage
}

address_newtype! {
    /// A physical cache-line number (physical address >> [`LINE_SHIFT`]).
    CacheLine
}

impl VirtAddr {
    /// Returns the virtual page containing this address.
    ///
    /// ```
    /// use morrigan_types::addr::{VirtAddr, VirtPage};
    /// assert_eq!(VirtAddr::new(0x1234).virt_page(), VirtPage::new(1));
    /// ```
    #[inline]
    pub const fn virt_page(self) -> VirtPage {
        VirtPage(self.0 >> PAGE_SHIFT)
    }

    /// Returns the offset of this address within its page.
    #[inline]
    pub const fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// Fuses `asid` into this address's high bits (see [`ASID_SHIFT`]).
    ///
    /// ```
    /// use morrigan_types::addr::VirtAddr;
    /// let a = VirtAddr::new(0x1234).with_asid(3);
    /// assert_eq!(a.asid(), 3);
    /// assert_eq!(a.virt_page().asid(), 3);
    /// ```
    #[inline]
    pub const fn with_asid(self, asid: u16) -> VirtAddr {
        VirtAddr(self.0 | (asid as u64) << ASID_ADDR_SHIFT)
    }

    /// The ASID fused into this address (0 for untagged addresses).
    #[inline]
    pub const fn asid(self) -> u16 {
        (self.0 >> ASID_ADDR_SHIFT) as u16
    }
}

impl PhysAddr {
    /// Returns the physical frame containing this address.
    #[inline]
    pub const fn phys_page(self) -> PhysPage {
        PhysPage(self.0 >> PAGE_SHIFT)
    }

    /// Returns the cache line containing this address.
    #[inline]
    pub const fn cache_line(self) -> CacheLine {
        CacheLine(self.0 >> LINE_SHIFT)
    }
}

impl VirtPage {
    /// Returns the first address of this page.
    #[inline]
    pub const fn base_addr(self) -> VirtAddr {
        VirtAddr(self.0 << PAGE_SHIFT)
    }

    /// Returns the page `delta` pages away, saturating at zero for negative
    /// results (prefetches below address zero are meaningless and the
    /// caller treats page 0 as non-faultable territory it never maps).
    ///
    /// ```
    /// use morrigan_types::addr::VirtPage;
    /// assert_eq!(VirtPage::new(10).offset(-3), VirtPage::new(7));
    /// assert_eq!(VirtPage::new(2).offset(-5), VirtPage::new(0));
    /// ```
    #[inline]
    pub fn offset(self, delta: i64) -> VirtPage {
        VirtPage(self.0.saturating_add_signed(delta))
    }

    /// Signed distance (in pages) from `other` to `self`.
    ///
    /// This is the quantity IRIP stores in its 15-bit prediction slots
    /// instead of full 36-bit VPNs (§4.1.1).
    #[inline]
    pub fn distance_from(self, other: VirtPage) -> i64 {
        self.0 as i64 - other.0 as i64
    }

    /// Index of this page's PTE within its (8-entry) PTE cache line.
    #[inline]
    pub const fn pte_slot_in_line(self) -> u64 {
        self.0 % PTES_PER_LINE
    }

    /// The other virtual pages whose leaf PTEs share a cache line with this
    /// page's PTE, i.e. the pages that arrive "for free" with one page-walk
    /// memory reference (§2, *page table locality*).
    ///
    /// The returned iterator yields up to 7 pages and never includes `self`.
    pub fn pte_line_neighbors(self) -> impl Iterator<Item = VirtPage> {
        let base = self.0 - self.0 % PTES_PER_LINE;
        (base..base + PTES_PER_LINE)
            .filter(move |&v| v != self.0)
            .map(VirtPage)
    }

    /// Fuses `asid` into this page number's high bits (see [`ASID_SHIFT`]).
    #[inline]
    pub const fn with_asid(self, asid: u16) -> VirtPage {
        VirtPage(self.0 | (asid as u64) << ASID_SHIFT)
    }

    /// The ASID fused into this page number (0 for untagged pages).
    #[inline]
    pub const fn asid(self) -> u16 {
        (self.0 >> ASID_SHIFT) as u16
    }
}

impl PhysPage {
    /// Returns the first address of this frame.
    #[inline]
    pub const fn base_addr(self) -> PhysAddr {
        PhysAddr(self.0 << PAGE_SHIFT)
    }
}

impl CacheLine {
    /// Returns the first physical address of this line.
    #[inline]
    pub const fn base_addr(self) -> PhysAddr {
        PhysAddr(self.0 << LINE_SHIFT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_round_trip() {
        let addr = VirtAddr::new(0x0dea_dbee_f123);
        assert_eq!(
            addr.virt_page().base_addr().raw(),
            addr.raw() & !(PAGE_SIZE - 1)
        );
        assert_eq!(addr.page_offset(), addr.raw() & 0xfff);
    }

    #[test]
    fn distance_is_signed() {
        let a = VirtPage::new(100);
        let b = VirtPage::new(117);
        assert_eq!(b.distance_from(a), 17);
        assert_eq!(a.distance_from(b), -17);
        assert_eq!(a.offset(17), b);
        assert_eq!(b.offset(-17), a);
    }

    #[test]
    fn offset_saturates_at_zero() {
        assert_eq!(VirtPage::new(3).offset(-10), VirtPage::new(0));
    }

    #[test]
    fn pte_line_neighbors_excludes_self_and_spans_one_line() {
        let page = VirtPage::new(0xa3); // slot 3 in its line
        let neighbors: Vec<_> = page.pte_line_neighbors().collect();
        assert_eq!(neighbors.len(), 7);
        assert!(!neighbors.contains(&page));
        for n in &neighbors {
            assert_eq!(n.raw() / PTES_PER_LINE, page.raw() / PTES_PER_LINE);
        }
    }

    #[test]
    fn pte_slot_matches_paper_example() {
        // §4.1.2: the PTE of 0xA7 is the last slot of a line and the PTE of
        // 0xA8 is the first slot of the next line, so fetching both takes two
        // separate walks.
        assert_eq!(VirtPage::new(0xa7).pte_slot_in_line(), 7);
        assert_eq!(VirtPage::new(0xa8).pte_slot_in_line(), 0);
    }

    #[test]
    fn asid_fusing_round_trips_and_is_identity_for_zero() {
        let addr = VirtAddr::new(0x7fff_ffff_f123);
        assert_eq!(addr.with_asid(0), addr);
        assert_eq!(addr.asid(), 0);
        let tagged = addr.with_asid(5);
        assert_eq!(tagged.asid(), 5);
        assert_eq!(tagged.page_offset(), addr.page_offset());
        assert_eq!(tagged.virt_page(), addr.virt_page().with_asid(5));
        assert_eq!(tagged.virt_page().asid(), 5);
        // Fused page numbers from distinct ASIDs never collide.
        assert_ne!(addr.virt_page().with_asid(1), addr.virt_page().with_asid(2));
    }

    #[test]
    fn debug_and_display_are_hex() {
        let page = VirtPage::new(0xff);
        assert_eq!(format!("{page}"), "0xff");
        assert_eq!(format!("{page:?}"), "VirtPage(0xff)");
        assert_eq!(format!("{page:x}"), "ff");
    }
}
