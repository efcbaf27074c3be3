//! The x86 page-table walker: variable-latency, variable-reference-count
//! walks through the cache hierarchy, with PSC filtering and a shared pool
//! of walk slots that demand and prefetch walks contend for.
//!
//! The port model is what makes prefetching *cost* something: a prefetch
//! walk occupies a walk slot until it completes, so a burst of prefetch
//! walks delays subsequent demand walks (the effect behind Fig 10's
//! FNL+MMA degradation). Per Table 1 there are 4 concurrent walks (the
//! STLB's MSHR depth) and one walk can be initiated per cycle.

use morrigan_mem::{AccessClass, MemoryHierarchy};
use morrigan_types::{PhysPage, VirtPage, WalkKind};

use crate::page_table::PageTable;
use crate::psc::{PagingStructureCaches, PscConfig, PscHit};

/// The hierarchy access class of a walk's page-table references.
fn access_class(kind: WalkKind) -> AccessClass {
    match kind {
        WalkKind::DemandInstruction | WalkKind::DemandData => AccessClass::PageWalk,
        WalkKind::Prefetch => AccessClass::PrefetchWalk,
    }
}

/// Walker configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkerConfig {
    /// Concurrent walks in flight (Table 1: 4-entry TLB MSHR).
    pub concurrent_walks: usize,
    /// Paging-structure cache geometry.
    pub psc: PscConfig,
    /// ASAP mode (§6.4): deeper page-table levels are prefetched so the
    /// remaining references overlap — walk memory time becomes the *max*
    /// of the reference latencies instead of their sum.
    pub asap: bool,
}

impl Default for WalkerConfig {
    fn default() -> Self {
        Self {
            concurrent_walks: 4,
            psc: PscConfig::default(),
            asap: false,
        }
    }
}

/// A completed walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// Cycles from the request (`now`) to completion, including time spent
    /// queueing for a free walk slot.
    pub latency: u64,
    /// Page-table memory references performed (1–4 depending on PSC hits).
    pub memory_refs: u32,
    /// The fetched translation.
    pub pfn: PhysPage,
    /// Absolute cycle at which the walk actually started (after slot
    /// queueing and the 1-initiation-per-cycle rule).
    pub started_at: u64,
    /// Absolute completion cycle.
    pub completed_at: u64,
    /// Which paging-structure cache the walk hit (decides how many
    /// references it skipped).
    pub psc_hit: PscHit,
    /// Who requested the walk.
    pub kind: WalkKind,
}

morrigan_types::counter_set! {
    /// Walk and reference counters, split by [`WalkKind`].
    pub struct WalkerStats {
        /// Demand walks for instruction misses.
        pub demand_instr_walks: u64,
        /// Memory references of demand instruction walks.
        pub demand_instr_refs: u64,
        /// Summed latency of demand instruction walks (for mean latency).
        pub demand_instr_latency: u64,
        /// Demand walks for data misses.
        pub demand_data_walks: u64,
        /// Memory references of demand data walks.
        pub demand_data_refs: u64,
        /// Summed latency of demand data walks.
        pub demand_data_latency: u64,
        /// Prefetch walks performed.
        pub prefetch_walks: u64,
        /// Memory references of prefetch walks.
        pub prefetch_refs: u64,
        /// Prefetch walks suppressed because the target page was unmapped
        /// (faulting prefetches are not permitted, §2.1).
        pub faults_suppressed: u64,
    }
}

impl WalkerStats {
    /// Mean latency of demand instruction walks (the paper's 69-cycle
    /// iSTLB walk figure, §3.2).
    pub fn mean_instr_walk_latency(&self) -> f64 {
        if self.demand_instr_walks == 0 {
            0.0
        } else {
            self.demand_instr_latency as f64 / self.demand_instr_walks as f64
        }
    }

    /// Mean latency of demand data walks.
    pub fn mean_data_walk_latency(&self) -> f64 {
        if self.demand_data_walks == 0 {
            0.0
        } else {
            self.demand_data_latency as f64 / self.demand_data_walks as f64
        }
    }
}

/// The page-table walker.
#[derive(Debug, Clone)]
pub struct Walker {
    cfg: WalkerConfig,
    psc: PagingStructureCaches,
    /// Busy-until cycle per walk slot.
    slots: Vec<u64>,
    /// Cycle of the most recent walk initiation (1 initiation per cycle),
    /// `None` while no walk has been issued yet — so the very first walk
    /// may start at cycle 0.
    last_start: Option<u64>,
    /// PSC fills produced by walks that have not completed yet, as
    /// `(ready_at, vpn)`. A walk's upper-level entries only become visible
    /// to later walks once it finishes; filling at issue time would let an
    /// overlapping walk hit PSC state that does not exist yet.
    pending_fills: Vec<(u64, VirtPage)>,
    /// Counters.
    pub stats: WalkerStats,
}

impl Walker {
    /// Creates an idle walker.
    ///
    /// # Panics
    ///
    /// Panics if `concurrent_walks` is zero.
    pub fn new(cfg: WalkerConfig) -> Self {
        assert!(cfg.concurrent_walks > 0, "walker needs at least one slot");
        Self {
            psc: PagingStructureCaches::new(cfg.psc),
            slots: vec![0; cfg.concurrent_walks],
            last_start: None,
            pending_fills: Vec::new(),
            cfg,
            stats: WalkerStats::default(),
        }
    }

    /// This walker's configuration.
    pub fn config(&self) -> &WalkerConfig {
        &self.cfg
    }

    /// Read access to the PSCs (hit-rate reporting).
    pub fn psc(&self) -> &PagingStructureCaches {
        &self.psc
    }

    /// Enables or disables ASAP walk acceleration at run time.
    pub fn set_asap(&mut self, asap: bool) {
        self.cfg.asap = asap;
    }

    /// Performs a walk for `vpn` requested at cycle `now`.
    ///
    /// Returns `None` when `vpn` is unmapped: for a prefetch the request is
    /// suppressed (non-faulting prefetches only); a demand walk of an
    /// unmapped page would be a page fault, which the workloads never
    /// trigger — it is reported as `None` and the caller treats it as a
    /// simulator bug.
    pub fn walk(
        &mut self,
        pt: &PageTable,
        mem: &mut MemoryHierarchy,
        vpn: VirtPage,
        kind: WalkKind,
        now: u64,
    ) -> Option<WalkResult> {
        let Some(pfn) = pt.translate(vpn) else {
            if kind == WalkKind::Prefetch {
                self.stats.faults_suppressed += 1;
            }
            return None;
        };

        // Acquire the earliest-free walk slot; initiation rate 1/cycle.
        // Demand walks are prioritized: slot 0 is reserved for them, so a
        // burst of background prefetch walks can never stall a demand walk
        // behind the whole pool (prefetches contend only for the
        // remaining slots).
        let first_slot = if kind == WalkKind::Prefetch && self.slots.len() > 1 {
            1
        } else {
            0
        };
        let (slot_idx, slot_free) = self
            .slots
            .iter()
            .copied()
            .enumerate()
            .skip(first_slot)
            .min_by_key(|&(_, busy)| busy)
            .expect("walker has at least one slot");
        let start = now.max(slot_free).max(self.last_start.map_or(0, |s| s + 1));
        self.last_start = Some(start);

        // PSC fills of walks that completed by `start` become visible now;
        // then the PSC lookup decides how many references remain.
        self.apply_pending_fills(start);
        let hit = self.psc.lookup(vpn);
        let steps = pt.walk_steps(vpn);
        let remaining = &steps[hit.first_step()..];

        let mut serial = 0u64;
        let mut parallel_max = 0u64;
        for step in remaining {
            let out = mem.access(step.pte_addr.cache_line(), access_class(kind));
            serial += out.latency;
            parallel_max = parallel_max.max(out.latency);
        }
        // ASAP overlaps the serialized references (it prefetched the deeper
        // levels), so the memory time collapses to the slowest reference.
        let memory_time = if self.cfg.asap { parallel_max } else { serial };
        let walk_time = self.cfg.psc.latency + memory_time;
        let completed_at = start + walk_time;
        self.slots[slot_idx] = completed_at;
        self.pending_fills.push((completed_at, vpn));

        let latency = completed_at - now;
        let refs = remaining.len() as u64;
        match kind {
            WalkKind::DemandInstruction => {
                self.stats.demand_instr_walks += 1;
                self.stats.demand_instr_refs += refs;
                self.stats.demand_instr_latency += latency;
            }
            WalkKind::DemandData => {
                self.stats.demand_data_walks += 1;
                self.stats.demand_data_refs += refs;
                self.stats.demand_data_latency += latency;
            }
            WalkKind::Prefetch => {
                self.stats.prefetch_walks += 1;
                self.stats.prefetch_refs += refs;
            }
        }

        Some(WalkResult {
            latency,
            memory_refs: refs as u32,
            pfn,
            started_at: start,
            completed_at,
            psc_hit: hit,
            kind,
        })
    }

    /// Applies every pending PSC fill whose producing walk completed by
    /// `now`, in completion order (ties resolve in issue order, keeping
    /// the PSC LRU state deterministic). Fills are pushed in issue order
    /// and the sort is stable, so equal completion cycles stay in issue
    /// order. The queue holds at most one fill per walk slot, so the sort
    /// runs in place.
    fn apply_pending_fills(&mut self, now: u64) {
        self.pending_fills.sort_by_key(|&(ready_at, _)| ready_at);
        let due = self
            .pending_fills
            .partition_point(|&(ready_at, _)| ready_at <= now);
        for (_, vpn) in self.pending_fills.drain(..due) {
            self.psc.fill(vpn);
        }
    }

    /// Flushes the PSCs (context switch); in-flight walks no longer fill
    /// the post-switch caches.
    pub fn flush_psc(&mut self) {
        self.psc.flush();
        self.pending_fills.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morrigan_mem::HierarchyConfig;

    fn setup() -> (PageTable, MemoryHierarchy, Walker) {
        let mut pt = PageTable::new(1);
        pt.map_range(VirtPage::new(0x1000), 64);
        let mem = MemoryHierarchy::new(HierarchyConfig::default());
        let walker = Walker::new(WalkerConfig::default());
        (pt, mem, walker)
    }

    #[test]
    fn cold_walk_takes_four_refs() {
        let (pt, mut mem, mut w) = setup();
        let r = w
            .walk(
                &pt,
                &mut mem,
                VirtPage::new(0x1000),
                WalkKind::DemandInstruction,
                0,
            )
            .expect("mapped page");
        assert_eq!(r.memory_refs, 4);
        assert!(
            r.latency > 4 * 100,
            "cold walk goes to DRAM 4 times: {}",
            r.latency
        );
        assert_eq!(w.stats.demand_instr_walks, 1);
        assert_eq!(w.stats.demand_instr_refs, 4);
    }

    #[test]
    fn first_walk_starts_at_cycle_zero() {
        let (pt, mut mem, mut w) = setup();
        let r = w
            .walk(
                &pt,
                &mut mem,
                VirtPage::new(0x1000),
                WalkKind::DemandInstruction,
                0,
            )
            .expect("mapped page");
        // Cold walk: PSC latency (2) + 4 references to DRAM (142 each).
        // The initiation-rate rule must not push the very first walk to
        // cycle 1.
        assert_eq!(r.latency, 2 + 4 * 142);
        assert_eq!(r.completed_at, 2 + 4 * 142);
    }

    #[test]
    fn overlapping_walk_cannot_hit_inflight_psc_state() {
        let (pt, mut mem, mut w) = setup();
        // First walk of the 2 MB region at cycle 0, completing around
        // cycle 570. A second walk issued at cycle 1 overlaps it: the PD
        // entry the first walk will install is not visible yet, so all
        // four references are performed.
        w.walk(
            &pt,
            &mut mem,
            VirtPage::new(0x1000),
            WalkKind::DemandInstruction,
            0,
        )
        .unwrap();
        let r = w
            .walk(
                &pt,
                &mut mem,
                VirtPage::new(0x1010),
                WalkKind::DemandInstruction,
                1,
            )
            .expect("mapped page");
        assert_eq!(
            r.memory_refs, 4,
            "PSC state of an in-flight walk must not be visible"
        );
    }

    #[test]
    fn psc_flush_discards_inflight_fills() {
        let (pt, mut mem, mut w) = setup();
        w.walk(
            &pt,
            &mut mem,
            VirtPage::new(0x1000),
            WalkKind::DemandInstruction,
            0,
        )
        .unwrap();
        w.flush_psc();
        // Long after the first walk completed: its fill was discarded by
        // the flush, so the next walk misses every PSC level again.
        let r = w
            .walk(
                &pt,
                &mut mem,
                VirtPage::new(0x1010),
                WalkKind::DemandInstruction,
                10_000,
            )
            .expect("mapped page");
        assert_eq!(r.memory_refs, 4);
    }

    #[test]
    fn psc_cuts_second_walk_to_one_ref() {
        let (pt, mut mem, mut w) = setup();
        w.walk(
            &pt,
            &mut mem,
            VirtPage::new(0x1000),
            WalkKind::DemandInstruction,
            0,
        )
        .unwrap();
        // Same 2 MB region → PD-cache hit → only the leaf reference.
        let r = w
            .walk(
                &pt,
                &mut mem,
                VirtPage::new(0x1010),
                WalkKind::DemandInstruction,
                1000,
            )
            .expect("mapped page");
        assert_eq!(r.memory_refs, 1);
    }

    #[test]
    fn adjacent_page_pte_hits_in_cache() {
        let (pt, mut mem, mut w) = setup();
        w.walk(
            &pt,
            &mut mem,
            VirtPage::new(0x1000),
            WalkKind::DemandInstruction,
            0,
        )
        .unwrap();
        // 0x1001's leaf PTE shares a cache line with 0x1000's → L1D hit.
        let r = w
            .walk(
                &pt,
                &mut mem,
                VirtPage::new(0x1001),
                WalkKind::DemandInstruction,
                1000,
            )
            .expect("mapped page");
        assert_eq!(r.memory_refs, 1);
        // PSC latency (2) + L1D latency (4) = 6 cycles.
        assert_eq!(r.latency, 6);
    }

    #[test]
    fn prefetch_of_unmapped_page_is_suppressed() {
        let (pt, mut mem, mut w) = setup();
        let r = w.walk(&pt, &mut mem, VirtPage::new(0x9999), WalkKind::Prefetch, 0);
        assert!(r.is_none());
        assert_eq!(w.stats.faults_suppressed, 1);
        assert_eq!(w.stats.prefetch_walks, 0);
    }

    #[test]
    fn prefetch_walks_occupy_slots_and_delay_demand() {
        let (pt, mut mem, mut w) = setup();
        // Saturate all 4 slots with cold prefetch walks at cycle 0.
        for i in 0..4 {
            w.walk(
                &pt,
                &mut mem,
                VirtPage::new(0x1000 + i * 8),
                WalkKind::Prefetch,
                0,
            )
            .unwrap();
        }
        let demand = w
            .walk(
                &pt,
                &mut mem,
                VirtPage::new(0x1030),
                WalkKind::DemandInstruction,
                0,
            )
            .expect("mapped page");
        // The demand walk had to wait for a slot: its latency exceeds the
        // pure walk time (PSC hit + one cached ref would be ~6 cycles).
        assert!(
            demand.latency > 50,
            "demand should queue behind prefetches: {}",
            demand.latency
        );
    }

    #[test]
    fn asap_overlaps_references() {
        let (pt, mut mem_serial, mut w_serial) = setup();
        let mut mem_asap = MemoryHierarchy::new(HierarchyConfig::default());
        let mut w_asap = Walker::new(WalkerConfig {
            asap: true,
            ..WalkerConfig::default()
        });

        let serial = w_serial
            .walk(
                &pt,
                &mut mem_serial,
                VirtPage::new(0x1000),
                WalkKind::DemandInstruction,
                0,
            )
            .unwrap();
        let asap = w_asap
            .walk(
                &pt,
                &mut mem_asap,
                VirtPage::new(0x1000),
                WalkKind::DemandInstruction,
                0,
            )
            .unwrap();
        assert!(
            asap.latency < serial.latency,
            "{} !< {}",
            asap.latency,
            serial.latency
        );
        assert_eq!(
            asap.memory_refs, serial.memory_refs,
            "ASAP changes time, not refs"
        );
    }

    #[test]
    fn asap_gains_nothing_on_psc_hit_single_ref() {
        // §6.4's explanation for ASAP's limited benefit: with a PD-cache
        // hit only one reference remains, so max == sum.
        let (pt, mut mem, mut w) = setup();
        w.walk(
            &pt,
            &mut mem,
            VirtPage::new(0x1000),
            WalkKind::DemandInstruction,
            0,
        )
        .unwrap();
        let before = w
            .walk(
                &pt,
                &mut mem,
                VirtPage::new(0x1002),
                WalkKind::DemandInstruction,
                1_000,
            )
            .unwrap();
        w.set_asap(true);
        let after = w
            .walk(
                &pt,
                &mut mem,
                VirtPage::new(0x1003),
                WalkKind::DemandInstruction,
                2_000,
            )
            .unwrap();
        assert_eq!(before.latency, after.latency);
    }

    #[test]
    fn walk_result_reports_start_and_psc_hit() {
        let (pt, mut mem, mut w) = setup();
        let cold = w
            .walk(
                &pt,
                &mut mem,
                VirtPage::new(0x1000),
                WalkKind::DemandInstruction,
                0,
            )
            .expect("mapped page");
        assert_eq!(cold.started_at, 0);
        assert_eq!(cold.psc_hit, PscHit::None);
        assert_eq!(cold.completed_at - cold.started_at, cold.latency);

        // Same 2 MB region, long after the fill: PD hit, and the start
        // cycle equals the request cycle (no queueing).
        let warm = w
            .walk(
                &pt,
                &mut mem,
                VirtPage::new(0x1010),
                WalkKind::DemandInstruction,
                1000,
            )
            .expect("mapped page");
        assert_eq!(warm.started_at, 1000);
        assert_eq!(warm.psc_hit, PscHit::Pd);
        assert_eq!(warm.psc_hit.first_step(), 3);
    }

    #[test]
    fn mean_latency_accounting() {
        let (pt, mut mem, mut w) = setup();
        w.walk(
            &pt,
            &mut mem,
            VirtPage::new(0x1000),
            WalkKind::DemandInstruction,
            0,
        )
        .unwrap();
        w.walk(
            &pt,
            &mut mem,
            VirtPage::new(0x1001),
            WalkKind::DemandInstruction,
            1000,
        )
        .unwrap();
        let mean = w.stats.mean_instr_walk_latency();
        assert!(mean > 0.0);
        assert_eq!(w.stats.mean_data_walk_latency(), 0.0);
    }
}
