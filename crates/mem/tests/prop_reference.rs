//! The memory structures against plain reference models
//! (`reference/mod.rs`), compared after every operation on tiny
//! geometries where evictions, tracker reuse and set conflicts are
//! constant.

mod reference;

use morrigan_mem::{
    AccessClass, Cache, CacheConfig, HierarchyConfig, L2Prefetcher, L2PrefetcherConfig, MemLevel,
    MemoryHierarchy,
};
use morrigan_types::CacheLine;
use proptest::prelude::*;
use reference::{RefCache, RefHierarchy, RefL2Prefetcher};

/// Distinct lines the cache test draws from: more than the largest
/// geometry holds (8 sets × 4 ways).
const CACHE_LINES: u64 = 48;

/// The next offset in page `page`'s access pattern: mostly the page's
/// own stride (so SPP sees repeated deltas and becomes confident), else
/// a repeat of the last offset or a jump to `jump`.
fn next_offset(prev: u64, page: u64, pattern: u8, jump: u64) -> u64 {
    const STRIDES: [i64; 6] = [1, 2, -1, -3, 4, 1];
    let stride = match pattern {
        0..=5 => STRIDES[page as usize % STRIDES.len()],
        6 => 0,
        _ => return jump,
    };
    (prev as i64 + stride).rem_euclid(64) as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hit/miss, victims, residency and occupancy agree after every
    /// probe, fill, warm fill, search-free insert and invalidation.
    #[test]
    fn cache_matches_reference(
        geometry in (1usize..=4, 1u32..=3),
        ops in prop::collection::vec((0u8..5, 0u64..CACHE_LINES), 1..300),
    ) {
        let cfg = CacheConfig { sets: 1 << geometry.1, ways: geometry.0, latency: 1 };
        let mut real = Cache::new(cfg);
        let mut model = RefCache::new(cfg);
        for (i, &(op, raw)) in ops.iter().enumerate() {
            let line = CacheLine::new(raw);
            match op {
                0 => prop_assert_eq!(real.probe(line), model.probe(line), "probe #{}", i),
                1 => prop_assert_eq!(real.fill(line), model.fill(line), "fill #{}", i),
                2 => prop_assert_eq!(real.warm_fill(line), model.warm_fill(line), "warm #{}", i),
                3 if !model.contains(line) => {
                    prop_assert_eq!(real.insert_absent(line), model.fill(line), "insert #{}", i)
                }
                3 => prop_assert_eq!(real.fill(line), model.fill(line), "refill #{}", i),
                _ => prop_assert_eq!(
                    real.invalidate(line),
                    model.invalidate(line),
                    "invalidate #{}",
                    i
                ),
            }
            prop_assert_eq!(real.occupancy(), model.occupancy(), "occupancy after #{}", i);
            for l in 0..CACHE_LINES {
                let l = CacheLine::new(l);
                prop_assert_eq!(real.contains(l), model.contains(l), "line {:?} after #{}", l, i);
            }
        }
    }

    /// Prefetch lines and the issued count agree after every trained
    /// access, across tracker eviction and reuse.
    #[test]
    fn l2_prefetcher_matches_reference(
        cfg in (1usize..=4, 1usize..=4, any::<bool>()),
        steps in prop::collection::vec((0u64..6, 0u8..8, 0u64..64), 1..300),
    ) {
        let (trackers, degree, enabled) = cfg;
        let mut real = L2Prefetcher::new(L2PrefetcherConfig { trackers, degree, enabled });
        let mut model = RefL2Prefetcher::new(trackers, degree, enabled);
        let mut offsets = [32u64; 6];
        let mut out = Vec::new();
        for (i, &(page, pattern, jump)) in steps.iter().enumerate() {
            let offset = next_offset(offsets[page as usize], page, pattern, jump);
            offsets[page as usize] = offset;
            let line = CacheLine::new(page * 64 + offset);
            out.clear();
            real.train(line, &mut out);
            prop_assert_eq!(&out, &model.train(line), "train #{}", i);
            prop_assert_eq!(real.issued(), model.issued, "issued after #{}", i);
        }
    }

    /// `access` and `warm` agree with a hierarchy that fills every level
    /// with a searching fill. The L2 has one or two sets, so SPP's
    /// prefetch lines land in the demand line's set between its miss and
    /// its fill — the case the search-free fills must get right.
    #[test]
    fn hierarchy_matches_reference(
        l2 in (1usize..=4, 0u32..=1, 1usize..=4),
        spp in (1usize..=4, 1usize..=4),
        steps in prop::collection::vec((0u8..8, 0u64..6, (0u8..8, 0u64..64)), 1..400),
    ) {
        let tiny = |sets, ways, latency| CacheConfig { sets, ways, latency };
        let cfg = HierarchyConfig {
            l1i: tiny(2, 2, 4),
            l1d: tiny(2, 2, 4),
            l2: tiny(1 << l2.1, l2.0, 8),
            llc: tiny(4, l2.2, 10),
            dram_latency: 120,
            l2_prefetch: L2PrefetcherConfig { trackers: spp.0, degree: spp.1, enabled: true },
        };
        let mut real = MemoryHierarchy::new(cfg);
        let mut model = RefHierarchy::new(cfg);
        let mut offsets = [32u64; 6];
        for (i, &(kind, page, (pattern, jump))) in steps.iter().enumerate() {
            let offset = next_offset(offsets[page as usize], page, pattern, jump);
            offsets[page as usize] = offset;
            let line = CacheLine::new(page * 64 + offset);
            let class = match kind {
                0 => AccessClass::IFetch,
                1 => AccessClass::IPrefetch,
                2 => AccessClass::PageWalk,
                3 => AccessClass::PrefetchWalk,
                4 | 5 => AccessClass::Data,
                _ => {
                    real.warm(line, kind == 6);
                    model.warm(line, kind == 6);
                    continue;
                }
            };
            prop_assert_eq!(real.access(line, class), model.access(line, class), "access #{}", i);
            for level in MemLevel::ALL {
                prop_assert_eq!(real.served_by(level), model.served_by(level), "{:?} after #{}", level, i);
            }
            prop_assert_eq!(real.l2_prefetches_issued(), model.l2_prefetches_issued());
            prop_assert_eq!(real.l1i_demand_accesses, model.l1i_demand_accesses);
            prop_assert_eq!(real.l1i_demand_misses, model.l1i_demand_misses);
        }
    }
}
