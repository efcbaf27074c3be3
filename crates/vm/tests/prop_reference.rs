//! The translation structures against plain reference models
//! (`reference/mod.rs`), compared after every operation on pages drawn
//! from a small pool, so set conflicts, evictions and cross-class
//! contention are constant.

mod reference;

use morrigan_mem::{HierarchyConfig, MemoryHierarchy};
use morrigan_types::{PageDistance, PhysPage, PrefetchComponent, PrefetchOrigin, VirtPage};
use morrigan_vm::{
    PageTable, PagingStructureCaches, PrefetchBuffer, PscConfig, Tlb, TlbConfig, WalkKind, Walker,
    WalkerConfig,
};
use proptest::prelude::*;
use reference::{RefPb, RefPsc, RefTlb, RefWalker, Staged};

/// ASIDs the TLB pool spans.
const ASIDS: u16 = 3;

/// Table 1's iTLB, dTLB and STLB, plus one fully associative set.
fn tlb_geometry(index: usize) -> TlbConfig {
    match index {
        0 => TlbConfig::itlb(),
        1 => TlbConfig::dtlb(),
        2 => TlbConfig::stlb(),
        _ => TlbConfig {
            entries: 4,
            ways: 4,
            latency: 1,
        },
    }
}

/// Pages crowding the first two sets: `ways + 3` pages per set and ASID,
/// so every set overflows and ASIDs compete for its ways.
fn tlb_pool(cfg: TlbConfig) -> Vec<VirtPage> {
    let sets = (cfg.entries / cfg.ways) as u64;
    let mut pool = Vec::new();
    for asid in 0..ASIDS {
        for set in 0..sets.min(2) {
            for k in 0..cfg.ways as u64 + 3 {
                pool.push(VirtPage::new(k * sets + set).with_asid(asid));
            }
        }
    }
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Return values, occupancy (total and per ASID), both cross-class
    /// eviction counters and the residency of every pooled page agree
    /// after every lookup, insert, probe, invalidation, repeat-touch and
    /// flush.
    #[test]
    fn tlb_matches_reference(
        geometry in 0usize..4,
        ops in prop::collection::vec(
            ((0u8..64, 0usize..1024), (0u64..1 << 20, any::<bool>(), 1u64..4)),
            1..300,
        ),
    ) {
        let cfg = tlb_geometry(geometry);
        let pool = tlb_pool(cfg);
        let mut real = Tlb::new(cfg);
        let mut model = RefTlb::new(cfg);
        for (i, &((op, page), (pfn, instruction, count))) in ops.iter().enumerate() {
            let vpn = pool[page % pool.len()];
            match op {
                63 => {
                    real.flush();
                    model.flush();
                }
                _ => match op % 8 {
                    0 | 1 => prop_assert_eq!(real.lookup(vpn), model.lookup(vpn), "lookup #{}", i),
                    2..=4 => {
                        let pfn = PhysPage::new(pfn);
                        prop_assert_eq!(
                            real.insert(vpn, pfn, instruction),
                            model.insert(vpn, pfn, instruction),
                            "insert #{}",
                            i
                        );
                    }
                    5 => {
                        prop_assert_eq!(real.contains(vpn), model.contains(vpn), "contains #{}", i);
                        prop_assert_eq!(real.peek(vpn), model.peek(vpn), "peek #{}", i);
                    }
                    6 => prop_assert_eq!(real.invalidate(vpn), model.invalidate(vpn), "invalidate #{}", i),
                    _ if model.contains(vpn) => {
                        real.touch_repeat(vpn, count);
                        model.touch_repeat(vpn, count);
                    }
                    _ => {}
                },
            }
            prop_assert_eq!(real.occupancy(), model.occupancy(), "occupancy after #{}", i);
            for asid in 0..ASIDS {
                prop_assert_eq!(
                    real.occupancy_for_asid(asid),
                    model.occupancy_for_asid(asid),
                    "ASID {} occupancy after #{}",
                    asid,
                    i
                );
            }
            prop_assert_eq!(real.instr_evicted_by_data, model.instr_evicted_by_data, "after #{}", i);
            prop_assert_eq!(real.data_evicted_by_instr, model.data_evicted_by_instr, "after #{}", i);
            for &v in &pool {
                prop_assert_eq!(real.contains(v), model.contains(v), "residency of {:?} after #{}", v, i);
            }
        }
    }
}

/// Table 1's PSC, and a shrunken one in which every level overflows.
fn psc_geometry(index: usize) -> PscConfig {
    match index {
        0 => PscConfig::default(),
        _ => PscConfig {
            pml4_entries: 1,
            pdp_entries: 2,
            pd_entries: 8,
            pd_ways: 2,
            latency: 2,
        },
    }
}

/// Pages spread over three PML4 regions, two PDP regions in each and four
/// PD regions in each of those. Three of the four PD regions share a PD
/// set in both geometries, and two of the three pages in a region share
/// a leaf-PTE line.
fn region_pool() -> Vec<VirtPage> {
    let mut pool = Vec::new();
    for pml4 in 0..3u64 {
        for pdp in 0..2u64 {
            for pd in [0u64, 1, 8, 16] {
                for leaf in [0u64, 1, 9] {
                    pool.push(VirtPage::new(pml4 << 27 | pdp << 18 | pd << 9 | leaf));
                }
            }
        }
    }
    pool
}

/// Table 1's walker, the shrunken PSC, a single walk slot, and ASAP.
fn walker_geometry(index: usize) -> WalkerConfig {
    let table1 = WalkerConfig::default();
    match index {
        0 => table1,
        1 => WalkerConfig {
            psc: psc_geometry(1),
            ..table1
        },
        2 => WalkerConfig {
            concurrent_walks: 1,
            ..table1
        },
        _ => WalkerConfig {
            asap: true,
            ..table1
        },
    }
}

/// Cycle steps between walk requests: back-to-back requests, the gaps
/// between the hierarchy's per-reference latencies (4, 12, 22 and 142
/// cycles), so a later walk can complete in the same cycle as an earlier
/// one, and gaps long enough for the walker to drain.
const STEPS: [u64; 12] = [0, 0, 1, 2, 8, 10, 18, 120, 130, 138, 600, 5000];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every lookup's hit level and the four counters agree after every
    /// lookup, fill and flush.
    #[test]
    fn psc_matches_reference(
        geometry in 0usize..2,
        ops in prop::collection::vec((0u8..32, 0usize..1024), 1..300),
    ) {
        let cfg = psc_geometry(geometry);
        let pool = region_pool();
        let mut real = PagingStructureCaches::new(cfg);
        let mut model = RefPsc::new(cfg);
        for (i, &(op, page)) in ops.iter().enumerate() {
            let vpn = pool[page % pool.len()];
            match op {
                31 => {
                    real.flush();
                    model.flush();
                }
                _ if op % 2 == 0 => prop_assert_eq!(real.lookup(vpn), model.lookup(vpn), "lookup #{}", i),
                _ => {
                    real.fill(vpn);
                    model.fill(vpn);
                }
            }
            prop_assert_eq!(real.lookups, model.lookups, "after #{}", i);
            prop_assert_eq!(real.pd_hits, model.pd_hits, "after #{}", i);
            prop_assert_eq!(real.pdp_hits, model.pdp_hits, "after #{}", i);
            prop_assert_eq!(real.pml4_hits, model.pml4_hits, "after #{}", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every walk result (all fields), the walker's counters and its
    /// PSC's counters agree after every demand, data and prefetch walk
    /// and every PSC flush. Each side drives its own hierarchy, built
    /// from one config, so both see the same reference stream; a sixth
    /// of the pool is unmapped.
    #[test]
    fn walker_matches_reference(
        geometry in 0usize..4,
        ops in prop::collection::vec((0u8..64, 0usize..1024, 0usize..STEPS.len()), 1..300),
    ) {
        let cfg = walker_geometry(geometry);
        let pool = region_pool();
        let mut pt = PageTable::new(1);
        for (i, &vpn) in pool.iter().enumerate() {
            if i % 6 != 5 {
                pt.map(vpn);
            }
        }
        let mut real = Walker::new(cfg);
        let mut model = RefWalker::new(cfg);
        let mut real_mem = MemoryHierarchy::new(HierarchyConfig::default());
        let mut model_mem = MemoryHierarchy::new(HierarchyConfig::default());
        let mut now = 0u64;
        for (i, &(op, page, step)) in ops.iter().enumerate() {
            let vpn = pool[page % pool.len()];
            now += STEPS[step];
            if op == 63 {
                real.flush_psc();
                model.flush_psc();
            } else {
                let kind = match op % 3 {
                    0 => WalkKind::DemandInstruction,
                    1 => WalkKind::DemandData,
                    _ => WalkKind::Prefetch,
                };
                prop_assert_eq!(
                    real.walk(&pt, &mut real_mem, vpn, kind, now),
                    model.walk(&pt, &mut model_mem, vpn, kind, now),
                    "walk #{}",
                    i
                );
            }
            prop_assert_eq!(real.stats, model.stats, "after #{}", i);
            let (psc, ref_psc) = (real.psc(), model.psc());
            prop_assert_eq!(psc.lookups, ref_psc.lookups, "after #{}", i);
            prop_assert_eq!(psc.pd_hits, ref_psc.pd_hits, "after #{}", i);
            prop_assert_eq!(psc.pdp_hits, ref_psc.pdp_hits, "after #{}", i);
            prop_assert_eq!(psc.pml4_hits, ref_psc.pml4_hits, "after #{}", i);
        }
    }
}

/// Four pages in each ASID, twelve in all, more than the buffer ever
/// holds, so it evicts and the ASIDs share it.
fn pb_pool() -> Vec<VirtPage> {
    (0..ASIDS)
        .flat_map(|asid| (0..4u64).map(move |k| VirtPage::new(0x40 + k).with_asid(asid)))
        .collect()
}

/// Prefetch-walk latencies, and the clock steps between operations: a
/// probe can come before, at or after the cycle a walk completes.
const PB_CYCLES: [u64; 4] = [0, 3, 40, 200];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every insert's victim, every take's hit, every invalidate and
    /// contains answer, the occupancy (total and per ASID) and the whole
    /// `PbStats` ledger agree after every operation, flushes and clock
    /// steps included. Inserts carry mixed walk latencies, origins and
    /// components, so re-inserts and in-flight hits are common.
    #[test]
    fn prefetch_buffer_matches_reference(
        capacity in 1usize..6,
        ops in prop::collection::vec(
            ((0u8..32, 0usize..1024), (0u64..1 << 20, 0usize..PB_CYCLES.len(), 0usize..16)),
            1..300,
        ),
    ) {
        let pool = pb_pool();
        let mut real = PrefetchBuffer::new(capacity, 2);
        let mut model = RefPb::new(capacity);
        let mut now = 0u64;
        for (i, &((op, page), (pfn, cycles, tag))) in ops.iter().enumerate() {
            let vpn = pool[page % pool.len()];
            match op {
                31 => {
                    real.flush();
                    model.flush();
                }
                _ => match op % 8 {
                    0..=2 => {
                        let (pfn, ready_at) = (PhysPage::new(pfn), now + PB_CYCLES[cycles]);
                        let origin = (tag % 2 == 1).then(|| PrefetchOrigin {
                            source: pool[tag % pool.len()],
                            distance: PageDistance(tag as i64 - 8),
                        });
                        let component = PrefetchComponent::ALL[tag % PrefetchComponent::ALL.len()];
                        prop_assert_eq!(
                            real.insert(vpn, pfn, ready_at, origin, component).map(Staged::from),
                            model.insert(vpn, pfn, ready_at, origin, component),
                            "insert #{}",
                            i
                        );
                    }
                    3 | 4 => prop_assert_eq!(
                        real.take(vpn, now).map(|h| (h.pfn, h.remaining_latency, h.origin, h.component)),
                        model.take(vpn, now),
                        "take #{}",
                        i
                    ),
                    5 => prop_assert_eq!(real.invalidate(vpn), model.invalidate(vpn), "invalidate #{}", i),
                    6 => prop_assert_eq!(real.contains(vpn), model.contains(vpn), "contains #{}", i),
                    _ => now += PB_CYCLES[cycles],
                },
            }
            prop_assert_eq!(real.len(), model.len(), "occupancy after #{}", i);
            for asid in 0..ASIDS {
                prop_assert_eq!(
                    real.occupancy_for_asid(asid),
                    model.occupancy_for_asid(asid),
                    "ASID {} occupancy after #{}",
                    asid,
                    i
                );
            }
            prop_assert_eq!(real.stats, model.stats, "after #{}", i);
        }
    }
}
