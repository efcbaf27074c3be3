//! A generic set-associative TLB keyed by virtual page number.

use morrigan_types::scan;
use morrigan_types::{PhysPage, VirtPage};

/// Geometry and latency of one TLB level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total entries; must be divisible by `ways` into a power-of-two set
    /// count.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
    /// Lookup latency in cycles.
    pub latency: u64,
}

impl TlbConfig {
    /// L1 I-TLB per Table 1: 128-entry, 8-way, 1-cycle.
    pub fn itlb() -> Self {
        Self {
            entries: 128,
            ways: 8,
            latency: 1,
        }
    }

    /// L1 D-TLB per Table 1: 64-entry, 4-way, 1-cycle.
    pub fn dtlb() -> Self {
        Self {
            entries: 64,
            ways: 4,
            latency: 1,
        }
    }

    /// Shared STLB per Table 1: 1536-entry, 6-way, 8-cycle.
    pub fn stlb() -> Self {
        Self {
            entries: 1536,
            ways: 6,
            latency: 8,
        }
    }

    fn sets(&self) -> usize {
        self.entries / self.ways
    }
}

/// VPN sentinel marking an empty way. Real VPNs come from 64-bit virtual
/// addresses shifted right by the page bits, so they can never reach it.
const NO_VPN: u64 = u64::MAX;

/// A set-associative, LRU TLB.
///
/// Entries are stored structure-of-arrays (tags, translations, stamps,
/// class flags in separate packed vectors) so a set probe touches one
/// cache line of tags instead of striding over five-field structs.
/// Validity is encoded in the arrays themselves: an empty way holds the
/// [`NO_VPN`] tag and stamp 0, and live stamps are always ≥ 1 (the tick
/// pre-increments from 0), so the victim scan is a single min-stamp pass —
/// free ways sort below every live way and ties resolve to the lowest
/// index, reproducing the classic "first free way, else LRU" order.
///
/// # Examples
///
/// ```
/// use morrigan_types::{PhysPage, VirtPage};
/// use morrigan_vm::{Tlb, TlbConfig};
///
/// let mut stlb = Tlb::new(TlbConfig::stlb());
/// let (vpn, pfn) = (VirtPage::new(0x400), PhysPage::new(0x900));
/// assert!(stlb.lookup(vpn).is_none());
/// stlb.insert(vpn, pfn, true);
/// assert_eq!(stlb.lookup(vpn), Some(pfn));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tlb {
    cfg: TlbConfig,
    /// `sets - 1`; set counts are asserted to be powers of two.
    set_mask: usize,
    vpns: Vec<u64>,
    pfns: Vec<u64>,
    stamps: Vec<u64>,
    /// Whether the entry translates an instruction page (for contention
    /// accounting: instruction entries evicting data entries and vice
    /// versa, §1).
    instr: Vec<bool>,
    tick: u64,
    /// Index of the most recently hit/inserted way, as a one-entry memo.
    /// Sound without invalidation hooks: a VPN only ever resides in its
    /// own set, so `vpns[last_idx] == key` proves `last_idx` is the live
    /// way for `key`. Every store of a live stamp moves the memo to its
    /// way, so the memo way holds the newest stamp of the whole TLB and a
    /// memo hit need not refresh it: no victim choice can change.
    last_idx: usize,
    /// Valid instruction entries evicted by data fills (contention metric).
    pub instr_evicted_by_data: u64,
    /// Valid data entries evicted by instruction fills (contention metric).
    pub data_evicted_by_instr: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not divisible by `ways` or the set count is
    /// not a power of two.
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(
            cfg.ways > 0 && cfg.entries.is_multiple_of(cfg.ways),
            "entries must divide into ways"
        );
        assert!(
            cfg.sets().is_power_of_two(),
            "set count must be a power of two"
        );
        Self {
            cfg,
            set_mask: cfg.sets() - 1,
            vpns: vec![NO_VPN; cfg.entries],
            pfns: vec![0; cfg.entries],
            stamps: vec![0; cfg.entries],
            instr: vec![false; cfg.entries],
            tick: 0,
            last_idx: 0,
            instr_evicted_by_data: 0,
            data_evicted_by_instr: 0,
        }
    }

    /// This TLB's configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    #[inline]
    fn set_range(&self, vpn: VirtPage) -> std::ops::Range<usize> {
        let start = ((vpn.raw() as usize) & self.set_mask) * self.cfg.ways;
        start..start + self.cfg.ways
    }

    /// Looks up `vpn`, promoting on hit; returns the translation.
    pub fn lookup(&mut self, vpn: VirtPage) -> Option<PhysPage> {
        self.tick += 1;
        let key = vpn.raw();
        debug_assert_ne!(key, NO_VPN);
        // Fast path: instruction fetch looks up the same page for long
        // runs of consecutive instructions, so the previous hit's way
        // usually answers with a single compare.
        let li = self.last_idx;
        if self.vpns[li] == key {
            // Live-stamp stores move `last_idx`: this way holds the newest stamp.
            return Some(PhysPage::new(self.pfns[li]));
        }
        let range = self.set_range(vpn);
        // One slice per probe: the branch-free kernel scans the set's
        // contiguous tags as one or two vector compares.
        let start = range.start;
        if let Some(w) = scan::find_tag(&self.vpns[range], key) {
            self.stamps[start + w] = self.tick;
            self.last_idx = start + w;
            return Some(PhysPage::new(self.pfns[start + w]));
        }
        None
    }

    /// Applies the LRU-clock effect of `count` back-to-back hits on the
    /// resident entry for `vpn` without performing the lookups: the
    /// clock advances once per elided probe and the entry becomes the
    /// newest — bit-for-bit what `count` calls to
    /// [`lookup`](Self::lookup) would leave behind, since a hit's only
    /// side effects are the tick increment, the stamp refresh (which the
    /// memo way, already the newest, skips), and the `last_idx` memo. The page-run stepping path uses this to settle
    /// a whole same-page run after one real probe.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is not resident. Callers elide only after a real
    /// hit proved residency and nothing ran in between that could
    /// evict; a miss here means the elision contract was broken and the
    /// simulation would silently diverge.
    pub fn touch_repeat(&mut self, vpn: VirtPage, count: u64) {
        if count == 0 {
            return;
        }
        self.tick += count;
        let key = vpn.raw();
        let li = self.last_idx;
        if self.vpns[li] == key {
            // Live-stamp stores move `last_idx`: this way holds the newest stamp.
            return;
        }
        let range = self.set_range(vpn);
        let start = range.start;
        let w = scan::find_tag(&self.vpns[range], key)
            .expect("touch_repeat target must be resident (elision contract)");
        self.stamps[start + w] = self.tick;
        self.last_idx = start + w;
    }

    /// Whether `vpn` is resident, without disturbing LRU state.
    pub fn contains(&self, vpn: VirtPage) -> bool {
        let key = vpn.raw();
        self.vpns[self.set_range(vpn)].contains(&key)
    }

    /// The translation for `vpn` if resident, without disturbing LRU
    /// state — the frozen-epoch read the parallel machine's shared-STLB
    /// view performs between barriers (the promote is logged and
    /// replayed as a [`lookup`](Self::lookup) at the barrier).
    pub fn peek(&self, vpn: VirtPage) -> Option<PhysPage> {
        let key = vpn.raw();
        let range = self.set_range(vpn);
        let start = range.start;
        scan::find_tag(&self.vpns[range], key).map(|w| PhysPage::new(self.pfns[start + w]))
    }

    /// Installs a translation as MRU; returns the evicted VPN, if any.
    ///
    /// `instruction` tags the entry for cross-class contention accounting.
    pub fn insert(&mut self, vpn: VirtPage, pfn: PhysPage, instruction: bool) -> Option<VirtPage> {
        self.tick += 1;
        let tick = self.tick;
        let key = vpn.raw();
        debug_assert_ne!(key, NO_VPN);
        let range = self.set_range(vpn);
        let start = range.start;
        let vpns = &mut self.vpns[range.clone()];
        let stamps = &mut self.stamps[range];
        // Refresh a resident entry, else replace the min-stamp way.
        // Empty ways carry stamp 0 while live stamps are ≥ 1, so a free
        // way always wins and ties pick the lowest index — exactly the
        // first-free-way-else-LRU order (pinned against the fused
        // scalar scan by the kernel's tests).
        let (way, hit) = scan::find_hit_or_victim(vpns, stamps, key);
        if hit {
            stamps[way] = tick;
            self.pfns[start + way] = pfn.raw();
            self.instr[start + way] = instruction;
            self.last_idx = start + way;
            return None;
        }
        let victim = way;
        let victim_stamp = stamps[victim];
        let evicted = (victim_stamp != 0).then(|| {
            if self.instr[start + victim] && !instruction {
                self.instr_evicted_by_data += 1;
            } else if !self.instr[start + victim] && instruction {
                self.data_evicted_by_instr += 1;
            }
            VirtPage::new(vpns[victim])
        });
        vpns[victim] = key;
        stamps[victim] = tick;
        self.pfns[start + victim] = pfn.raw();
        self.instr[start + victim] = instruction;
        self.last_idx = start + victim;
        evicted
    }

    /// Removes a translation (TLB shootdown); returns whether it was present.
    pub fn invalidate(&mut self, vpn: VirtPage) -> bool {
        let key = vpn.raw();
        let range = self.set_range(vpn);
        for i in range {
            if self.vpns[i] == key {
                self.vpns[i] = NO_VPN;
                self.stamps[i] = 0;
                return true;
            }
        }
        false
    }

    /// Empties the TLB (context switch).
    pub fn flush(&mut self) {
        self.vpns.fill(NO_VPN);
        self.stamps.fill(0);
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.vpns.iter().filter(|&&v| v != NO_VPN).count()
    }

    /// Number of valid entries tagged with `asid`.
    ///
    /// The audit layer checks that these per-ASID occupancies telescope
    /// to [`occupancy`](Self::occupancy) across the live ASID set.
    pub fn occupancy_for_asid(&self, asid: u16) -> usize {
        self.vpns
            .iter()
            .filter(|&&v| v != NO_VPN && VirtPage::new(v).asid() == asid)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        Tlb::new(TlbConfig {
            entries: 4,
            ways: 2,
            latency: 1,
        })
    }

    fn pfn(i: u64) -> PhysPage {
        PhysPage::new(0x1000 + i)
    }

    /// VPNs mapping to set 0 of a 2-set TLB.
    fn set0(i: u64) -> VirtPage {
        VirtPage::new(i * 2)
    }

    #[test]
    fn insert_then_lookup() {
        let mut tlb = tiny();
        tlb.insert(set0(1), pfn(1), true);
        assert_eq!(tlb.lookup(set0(1)), Some(pfn(1)));
        assert_eq!(tlb.lookup(set0(2)), None);
    }

    #[test]
    fn lru_within_set() {
        let mut tlb = tiny();
        tlb.insert(set0(1), pfn(1), true);
        tlb.insert(set0(2), pfn(2), true);
        tlb.lookup(set0(1));
        let evicted = tlb.insert(set0(3), pfn(3), true);
        assert_eq!(evicted, Some(set0(2)));
        assert!(tlb.contains(set0(1)));
    }

    #[test]
    fn cross_class_eviction_counters() {
        let mut tlb = tiny();
        tlb.insert(set0(1), pfn(1), true); // instruction
        tlb.insert(set0(2), pfn(2), true);
        tlb.insert(set0(3), pfn(3), false); // data evicts instruction
        assert_eq!(tlb.instr_evicted_by_data, 1);
        assert_eq!(tlb.data_evicted_by_instr, 0);
        tlb.insert(set0(4), pfn(4), true); // instruction evicts... set0(2)(instr) or set0(3)(data)?
                                           // set0(2) was older than set0(3), but set0(2) was evicted already? No:
                                           // set 0 holds {2,3} now; LRU is 2 (instr), same class, no counter.
        assert_eq!(tlb.data_evicted_by_instr, 0);
        tlb.insert(set0(5), pfn(5), true); // evicts set0(3) (data) with instr
        assert_eq!(tlb.data_evicted_by_instr, 1);
    }

    #[test]
    fn reinsert_updates_translation() {
        let mut tlb = tiny();
        tlb.insert(set0(1), pfn(1), true);
        tlb.insert(set0(1), pfn(9), false);
        assert_eq!(tlb.lookup(set0(1)), Some(pfn(9)));
        assert_eq!(tlb.occupancy(), 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut tlb = tiny();
        tlb.insert(set0(1), pfn(1), true);
        assert!(tlb.invalidate(set0(1)));
        assert!(!tlb.invalidate(set0(1)));
        tlb.insert(set0(1), pfn(1), true);
        tlb.insert(VirtPage::new(1), pfn(2), true);
        tlb.flush();
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn table1_presets() {
        assert_eq!(TlbConfig::itlb().entries, 128);
        assert_eq!(TlbConfig::itlb().ways, 8);
        assert_eq!(TlbConfig::dtlb().entries, 64);
        assert_eq!(TlbConfig::dtlb().ways, 4);
        assert_eq!(TlbConfig::stlb().entries, 1536);
        assert_eq!(TlbConfig::stlb().ways, 6);
        assert_eq!(TlbConfig::stlb().latency, 8);
        // All presets must construct.
        let _ = Tlb::new(TlbConfig::itlb());
        let _ = Tlb::new(TlbConfig::dtlb());
        let _ = Tlb::new(TlbConfig::stlb());
    }

    #[test]
    fn contains_does_not_promote() {
        let mut tlb = tiny();
        tlb.insert(set0(1), pfn(1), true);
        tlb.insert(set0(2), pfn(2), true);
        assert!(tlb.contains(set0(1)));
        let evicted = tlb.insert(set0(3), pfn(3), true);
        assert_eq!(evicted, Some(set0(1)), "contains() must not refresh LRU");
    }

    #[test]
    fn touch_repeat_equals_repeated_lookups() {
        // Drive two TLBs through the same history, one with real
        // lookups, one eliding them via touch_repeat; every observable
        // field must match, including the clock and the next eviction.
        let mut real = tiny();
        let mut elided = tiny();
        for t in [&mut real, &mut elided] {
            t.insert(set0(1), pfn(1), true);
            t.insert(set0(2), pfn(2), true);
        }
        assert_eq!(real.lookup(set0(1)), Some(pfn(1)));
        assert_eq!(elided.lookup(set0(1)), Some(pfn(1)));
        for _ in 0..7 {
            real.lookup(set0(1));
        }
        elided.touch_repeat(set0(1), 7);
        assert_eq!(real.tick, elided.tick);
        assert_eq!(real.stamps, elided.stamps);
        assert_eq!(real.last_idx, elided.last_idx);
        assert_eq!(
            real.insert(set0(3), pfn(3), true),
            elided.insert(set0(3), pfn(3), true)
        );
    }

    #[test]
    fn touch_repeat_finds_entry_after_last_idx_moved() {
        let mut tlb = tiny();
        tlb.insert(set0(1), pfn(1), true);
        tlb.insert(set0(2), pfn(2), true);
        // set 1 (odd VPN): moves last_idx away from set0(1)'s way.
        tlb.insert(VirtPage::new(3), pfn(9), true);
        tlb.lookup(VirtPage::new(3));
        tlb.touch_repeat(set0(1), 2);
        // The touched entry is now MRU: inserting evicts the other way.
        let evicted = tlb.insert(set0(4), pfn(4), true);
        assert_eq!(evicted, Some(set0(2)));
        assert!(tlb.contains(set0(1)));
    }

    #[test]
    #[should_panic(expected = "elision contract")]
    fn touch_repeat_on_absent_entry_panics() {
        let mut tlb = tiny();
        tlb.insert(set0(1), pfn(1), true);
        tlb.touch_repeat(set0(2), 1);
    }
}
