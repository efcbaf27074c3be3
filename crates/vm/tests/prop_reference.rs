//! The translation structures against plain reference models
//! (`reference/mod.rs`), compared after every operation on pages drawn
//! from a small pool, so set conflicts, evictions and cross-class
//! contention are constant.

mod reference;

use morrigan_types::{scan, PhysPage, VirtPage};
use morrigan_vm::{Tlb, TlbConfig};
use proptest::prelude::*;
use reference::RefTlb;

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
            for batch in pool.chunks(scan::BATCH) {
                let expected = batch
                    .iter()
                    .enumerate()
                    .fold(0u32, |mask, (bit, &v)| mask | (model.contains(v) as u32) << bit);
                prop_assert_eq!(real.probe_batch(batch), expected, "residency after #{}", i);
            }
        }
    }
}
