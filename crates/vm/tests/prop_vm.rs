//! Property-based tests for the virtual-memory substrate.

use morrigan_mem::{HierarchyConfig, MemoryHierarchy};
use morrigan_types::prefetcher::NullPrefetcher;
use morrigan_types::{PhysPage, PrefetchComponent, ThreadId, VirtPage};
use morrigan_vm::{
    Mmu, MmuConfig, PageTable, PagingStructureCaches, PrefetchBuffer, PscConfig, PscHit, Tlb,
    TlbConfig, WalkKind, Walker, WalkerConfig,
};
use proptest::prelude::*;

proptest! {
    /// PSC lookups always report 1–4 remaining references, and a fill for
    /// a page guarantees a PD hit for its whole 2 MB region.
    #[test]
    fn psc_remaining_refs_bounds(vpns in prop::collection::vec(0u64..(1 << 30), 1..200)) {
        let mut psc = PagingStructureCaches::new(PscConfig::default());
        for &v in &vpns {
            let hit = psc.lookup(VirtPage::new(v));
            prop_assert!((1..=4).contains(&hit.remaining_refs()));
            psc.fill(VirtPage::new(v));
            // Any page in the same 2 MB region must now PD-hit.
            let same_region = (v & !0x1ff) | (v.wrapping_add(1) & 0x1ff);
            prop_assert_eq!(psc.lookup(VirtPage::new(same_region)), PscHit::Pd);
        }
    }

    /// Walks of mapped pages always succeed with 1–4 references and a
    /// latency at least the PSC lookup cost; unmapped prefetches always
    /// fail without polluting statistics as walks.
    #[test]
    fn walker_bounds(
        pages in prop::collection::vec(0u64..5000, 1..100),
        probe in 5000u64..10_000
    ) {
        let mut pt = PageTable::new(1);
        for &p in &pages {
            pt.map(VirtPage::new(p));
        }
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
        let mut walker = Walker::new(WalkerConfig::default());
        let mut now = 0;
        for &p in &pages {
            let r = walker
                .walk(&pt, &mut mem, VirtPage::new(p), WalkKind::DemandInstruction, now)
                .expect("mapped");
            prop_assert!((1..=4).contains(&r.memory_refs));
            prop_assert!(r.latency >= 2, "PSC latency is the floor");
            prop_assert!(r.completed_at >= now);
            now = r.completed_at + 10;
        }
        // An unmapped page: prefetch suppressed, never a result.
        prop_assert!(walker
            .walk(&pt, &mut mem, VirtPage::new(probe), WalkKind::Prefetch, now)
            .is_none());
        prop_assert_eq!(walker.stats.faults_suppressed, 1);
    }

    /// MMU translation invariants under arbitrary instruction/data access
    /// interleavings: misses split exactly into covered + walked, and the
    /// same page re-translated immediately is an L1 hit.
    #[test]
    fn mmu_conservation(
        accesses in prop::collection::vec((0u64..64, any::<bool>()), 1..300)
    ) {
        let mut pt = PageTable::new(1);
        pt.map_range(VirtPage::new(0x4000), 64);
        let mut mmu = Mmu::new(MmuConfig::default(), pt, Box::new(NullPrefetcher));
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
        let mut now = 0u64;
        for &(page, is_instr) in &accesses {
            let addr = VirtPage::new(0x4000 + page).base_addr();
            let out = if is_instr {
                mmu.translate_instr(addr, ThreadId::ZERO, now, &mut mem)
            } else {
                mmu.translate_data(addr, ThreadId::ZERO, now, &mut mem)
            };
            prop_assert!(out.latency >= 1);
            now += out.latency + 1;
            // Immediate re-translation of the same kind is an L1 hit.
            let again = if is_instr {
                mmu.translate_instr(addr, ThreadId::ZERO, now, &mut mem)
            } else {
                mmu.translate_data(addr, ThreadId::ZERO, now, &mut mem)
            };
            prop_assert!(!again.l1_miss, "just-translated page must hit its L1 TLB");
            now += again.latency + 1;
        }
        let s = mmu.stats;
        prop_assert_eq!(
            s.istlb_misses,
            s.istlb_covered + mmu.walker_stats().demand_instr_walks
        );
        prop_assert_eq!(s.dstlb_misses, mmu.walker_stats().demand_data_walks);
        prop_assert!(s.itlb_misses <= s.instr_translations);
        prop_assert!(s.istlb_misses <= s.itlb_misses);
    }

    /// TLB conservation under arbitrary insert/lookup/invalidate/flush
    /// interleavings: occupancy never exceeds the configured entries, an
    /// invalidated page is gone and releases its way, and a flush empties
    /// the structure.
    #[test]
    fn tlb_occupancy_and_invalidation_bookkeeping(
        ops in prop::collection::vec((0u64..256, 0u8..4), 1..400)
    ) {
        let cfg = TlbConfig { entries: 16, ways: 4, latency: 1 };
        let mut tlb = Tlb::new(cfg);
        for &(vpn_raw, op) in &ops {
            let vpn = VirtPage::new(vpn_raw);
            match op {
                0 | 1 => {
                    let before = tlb.occupancy();
                    let resident = tlb.contains(vpn);
                    let evicted = tlb.insert(vpn, PhysPage::new(vpn_raw + 1), op == 0);
                    prop_assert!(tlb.contains(vpn), "a just-inserted page is resident");
                    if let Some(victim) = evicted {
                        prop_assert!(!tlb.contains(victim), "the victim is gone");
                        prop_assert_eq!(tlb.occupancy(), before, "eviction swaps one entry");
                    } else if !resident {
                        prop_assert_eq!(tlb.occupancy(), before + 1);
                    }
                }
                2 => {
                    let before = tlb.occupancy();
                    let was_resident = tlb.contains(vpn);
                    prop_assert_eq!(tlb.invalidate(vpn), was_resident);
                    prop_assert!(!tlb.contains(vpn));
                    prop_assert_eq!(tlb.occupancy(), before - usize::from(was_resident));
                }
                _ => {
                    tlb.flush();
                    prop_assert_eq!(tlb.occupancy(), 0);
                }
            }
            prop_assert!(tlb.occupancy() <= cfg.entries, "occupancy above capacity");
        }
    }

    /// The TLB's LRU policy evicts the least-recently-touched entry of
    /// the victim's set: every resident page of that set was touched no
    /// earlier than the victim.
    #[test]
    fn tlb_lru_victim_is_oldest_in_its_set(
        ops in prop::collection::vec((0u64..64, any::<bool>()), 1..300)
    ) {
        let cfg = TlbConfig { entries: 16, ways: 4, latency: 1 };
        let sets = cfg.entries / cfg.ways;
        let mut tlb = Tlb::new(cfg);
        // Shadow timestamps: when each vpn was last inserted or looked up.
        let mut touched: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for (stamp, &(vpn_raw, is_lookup)) in ops.iter().enumerate() {
            let vpn = VirtPage::new(vpn_raw);
            if is_lookup {
                if tlb.lookup(vpn).is_some() {
                    touched.insert(vpn_raw, stamp);
                }
                continue;
            }
            let evicted = tlb.insert(vpn, PhysPage::new(vpn_raw + 1), true);
            touched.insert(vpn_raw, stamp);
            if let Some(victim) = evicted {
                let victim_stamp = touched[&victim.raw()];
                let victim_set = victim.raw() as usize % sets;
                for (&other, &other_stamp) in &touched {
                    if other as usize % sets == victim_set && tlb.contains(VirtPage::new(other)) {
                        prop_assert!(
                            other_stamp >= victim_stamp,
                            "evicted {victim:?}@{victim_stamp} but {other:#x}@{other_stamp} \
                             was older and survived"
                        );
                    }
                }
            }
        }
    }

    /// The prefetch buffer is a closed ledger: at every instant,
    /// everything ever inserted is accounted for as a hit, an unused
    /// eviction, an invalidation, or a still-resident entry.
    #[test]
    fn pb_ledger_balances(
        ops in prop::collection::vec((0u64..48, 0u8..8, 0u64..64), 1..400)
    ) {
        let mut pb = PrefetchBuffer::new(8, 2);
        let mut now = 0u64;
        for &(vpn_raw, op, dt) in &ops {
            let vpn = VirtPage::new(vpn_raw);
            now += dt;
            match op {
                0..=3 => { pb.insert(vpn, PhysPage::new(vpn_raw + 1), now + dt, None, PrefetchComponent::Other); }
                4 | 5 => { pb.take(vpn, now); }
                6 => { pb.invalidate(vpn); }
                _ => pb.flush(),
            }
            let s = pb.stats;
            prop_assert_eq!(
                s.inserts,
                s.hits() + s.evicted_unused + s.invalidations + pb.len() as u64,
                "ledger out of balance: {:?} with {} resident",
                s,
                pb.len()
            );
            prop_assert!(pb.len() <= pb.capacity());
            prop_assert!(s.hits() + s.misses >= s.hits_ready + s.hits_inflight);
        }
    }

    /// Page-table frames never collide with page-table *node* frames for
    /// the same VPN (the tree and the data live in different memory).
    #[test]
    fn page_table_nodes_distinct_from_frames(v in 0u64..(1 << 36)) {
        let mut pt = PageTable::new(3);
        pt.map(VirtPage::new(v));
        let frame = pt.translate(VirtPage::new(v)).expect("mapped");
        for step in pt.walk_steps(VirtPage::new(v)) {
            prop_assert_ne!(step.pte_addr.phys_page(), frame);
        }
    }

    /// A context switch clears all translation state: every page faults
    /// back through the full path.
    #[test]
    fn context_switch_resets(pages in prop::collection::vec(0u64..32, 1..50)) {
        let mut pt = PageTable::new(1);
        pt.map_range(VirtPage::new(0x4000), 32);
        let mut mmu = Mmu::new(MmuConfig::default(), pt, Box::new(NullPrefetcher));
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
        for &p in &pages {
            let _ = mmu.translate_instr(
                VirtPage::new(0x4000 + p).base_addr(),
                ThreadId::ZERO,
                0,
                &mut mem,
            );
        }
        mmu.context_switch();
        let out = mmu.translate_instr(
            VirtPage::new(0x4000 + pages[0]).base_addr(),
            ThreadId::ZERO,
            10_000,
            &mut mem,
        );
        prop_assert!(out.stlb_miss && !out.pb_hit);
    }
}

proptest! {
    /// ASID-tagged TLB invariants under arbitrary insertion sequences:
    /// per-ASID occupancies telescope to the total occupancy, lookups
    /// never cross address spaces (the same page number under a
    /// different ASID is a distinct fused VPN), and a page shootdown
    /// removes exactly that address space's entry for the page.
    #[test]
    fn asid_occupancy_telescopes_and_shootdown_is_exact(
        inserts in prop::collection::vec((1u16..=4, 0u64..256), 1..300),
    ) {
        let mut tlb = Tlb::new(TlbConfig { entries: 64, ways: 4, latency: 1 });
        for &(asid, page) in &inserts {
            let vpn = VirtPage::new(page).with_asid(asid);
            prop_assert_eq!(vpn.asid(), asid, "fusing round-trips");
            tlb.insert(vpn, PhysPage::new(page + 1), true);
        }

        // Telescoping: the four address spaces partition the occupancy.
        let total: usize = (1u16..=4).map(|a| tlb.occupancy_for_asid(a)).sum();
        prop_assert_eq!(total, tlb.occupancy());
        prop_assert_eq!(tlb.occupancy_for_asid(0), 0, "nothing untagged was inserted");

        // No cross-ASID leaks: a resident page under ASID a must miss
        // when probed under any other ASID that never inserted it.
        let &(asid, page) = inserts.last().expect("at least one insert");
        let other = if asid == 1 { 2 } else { 1 };
        let foreign = VirtPage::new(page).with_asid(other);
        if !inserts.contains(&(other, page)) {
            prop_assert!(!tlb.contains(foreign), "ASID {} leaked into ASID {}", asid, other);
        }

        // Shooting down the last-inserted (hence resident) page drops
        // exactly that entry and leaves every other address space as it
        // was.
        let before: Vec<usize> = (0u16..=4).map(|a| tlb.occupancy_for_asid(a)).collect();
        prop_assert!(tlb.invalidate(VirtPage::new(page).with_asid(asid)));
        for a in 0u16..=4 {
            let expected = before[a as usize] - usize::from(a == asid);
            prop_assert_eq!(tlb.occupancy_for_asid(a), expected, "ASID {}", a);
        }
    }

    /// The same laws for the fully-associative prefetch buffer, whose
    /// ledger (inserts == hits + evicted + invalidations + resident)
    /// must stay closed across a per-ASID page invalidation.
    #[test]
    fn pb_asid_invalidation_keeps_the_ledger_closed(
        inserts in prop::collection::vec((1u16..=3, 0u64..64), 1..150),
    ) {
        let mut pb = PrefetchBuffer::new(16, 1);
        for &(asid, page) in &inserts {
            let vpn = VirtPage::new(page).with_asid(asid);
            pb.insert(vpn, PhysPage::new(page + 1), 0, None, PrefetchComponent::Other);
        }
        let total: usize = (1u16..=3).map(|a| pb.occupancy_for_asid(a)).sum();
        prop_assert_eq!(total, pb.len());

        let &(asid, page) = inserts.last().expect("at least one insert");
        let before: Vec<usize> = (0u16..=3).map(|a| pb.occupancy_for_asid(a)).collect();
        prop_assert!(pb.invalidate(VirtPage::new(page).with_asid(asid)));
        for a in 0u16..=3 {
            let expected = before[a as usize] - usize::from(a == asid);
            prop_assert_eq!(pb.occupancy_for_asid(a), expected, "ASID {}", a);
        }
        let s = pb.stats;
        prop_assert_eq!(
            s.inserts,
            s.hits() + s.evicted_unused + s.invalidations + pb.len() as u64,
            "the PB ledger must close after the invalidation"
        );
    }
}
