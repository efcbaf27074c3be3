//! Property-based tests for IRIP, RLFU, and the composite prefetcher.

use morrigan::replacement::ReplacementPolicy;
use morrigan::{FrequencyStack, Irip, IripConfig, Morrigan, MorriganConfig, PrtConfig};
use morrigan_types::rng::Xoshiro256StarStar;
use morrigan_types::{
    MissContext, PageDistance, PrefetchOrigin, ThreadId, TlbPrefetcher, VirtAddr, VirtPage,
};
use proptest::prelude::*;

fn ctx(page: u64, thread: u8) -> MissContext {
    MissContext {
        vpn: VirtPage::new(page),
        pc: VirtAddr::new(page << 12),
        thread: ThreadId(thread),
        pb_hit: false,
        cycle: 0,
    }
}

proptest! {
    /// Training never stores a zero distance, never duplicates a distance
    /// within an entry, and stored predictions always reproduce the
    /// training pairs that survive.
    #[test]
    fn irip_stored_distances_are_valid(misses in prop::collection::vec(1u64..300, 2..400)) {
        let mut irip = Irip::new(IripConfig::default());
        let mut out = Vec::new();
        let mut prev = None;
        for &m in &misses {
            out.clear();
            irip.observe(VirtPage::new(m), prev, true, &mut out);
            prev = Some(VirtPage::new(m));
            // Check the previous page's stored predictions.
            if let Some(p) = prev {
                let dists = irip.predictions_for(p);
                let mut seen = std::collections::HashSet::new();
                for d in &dists {
                    prop_assert_ne!(d.0, 0, "zero distances must never be stored");
                    prop_assert!(d.fits_bits(15), "distances must fit the slot width");
                    prop_assert!(seen.insert(d.0), "no duplicate distances in an entry");
                }
            }
        }
    }

    /// Promotion preserves every stored distance: after an entry moves to
    /// a wider table, all its old predictions are still present.
    #[test]
    fn promotion_preserves_distances(extra in 2u64..200) {
        let mut irip = Irip::new(IripConfig::default());
        let mut out = Vec::new();
        let page = VirtPage::new(1000);
        // Train `page` with successors 1001, then 1000+extra'.
        let mut taught: Vec<i64> = Vec::new();
        for (i, succ) in [1u64, extra, extra + 7, extra + 23].iter().enumerate() {
            let target = VirtPage::new(1000 + succ + i as u64 * 400);
            out.clear();
            irip.observe(page, None, true, &mut out);
            out.clear();
            irip.observe(target, Some(page), true, &mut out);
            taught.push(target.distance_from(page));
            let stored = irip.predictions_for(page);
            for t in &taught {
                prop_assert!(
                    stored.iter().any(|d| d.0 == *t),
                    "taught distance {t} missing after promotion: {stored:?}"
                );
            }
        }
        // Four distinct distances → the entry must have left PRT-S1/S2.
        prop_assert!(irip.table_of(page).expect("tracked") >= 2);
    }

    /// Crediting arbitrary origins never panics or corrupts occupancy.
    #[test]
    fn credit_is_total(
        misses in prop::collection::vec(0u64..100, 2..100),
        credits in prop::collection::vec((0u64..150, -50i64..50), 0..100)
    ) {
        let mut irip = Irip::new(IripConfig::default());
        let mut out = Vec::new();
        let mut prev = None;
        for &m in &misses {
            out.clear();
            irip.observe(VirtPage::new(m), prev, true, &mut out);
            prev = Some(VirtPage::new(m));
        }
        let occupancy = irip.occupancy();
        for &(src, d) in &credits {
            irip.credit(&PrefetchOrigin {
                source: VirtPage::new(src),
                distance: PageDistance(d),
            });
        }
        prop_assert_eq!(irip.occupancy(), occupancy, "credits must not change membership");
    }

    /// Every policy always returns a valid candidate index.
    #[test]
    fn victim_selection_is_total(
        candidates in prop::collection::vec((0u64..1000, 0u64..1000), 1..64),
        seed in any::<u64>()
    ) {
        let cands: Vec<(VirtPage, u64)> =
            candidates.iter().map(|&(v, s)| (VirtPage::new(v), s)).collect();
        let mut freq = FrequencyStack::new(64, 1_000_000);
        for &(v, _) in cands.iter().step_by(3) {
            freq.record(v);
        }
        let mut rng = Xoshiro256StarStar::new(seed);
        for policy in ReplacementPolicy::ALL {
            let idx = policy.choose_victim(&cands, &freq, &mut rng, &mut Vec::new());
            prop_assert!(idx < cands.len());
        }
    }

    /// The composite prefetcher's flush is total amnesia: behaviour after
    /// a flush equals behaviour of a fresh instance fed the same misses.
    #[test]
    fn flush_equals_fresh(misses in prop::collection::vec(0u64..200, 1..120)) {
        let mut flushed = Morrigan::new(MorriganConfig::default());
        let mut out = Vec::new();
        for &m in &misses {
            out.clear();
            flushed.on_stlb_miss(&ctx(m, 0), &mut out);
        }
        flushed.flush();

        let mut fresh = Morrigan::new(MorriganConfig::default());
        for &m in &misses {
            let mut a = Vec::new();
            let mut b = Vec::new();
            flushed.on_stlb_miss(&ctx(m, 0), &mut a);
            fresh.on_stlb_miss(&ctx(m, 0), &mut b);
            prop_assert_eq!(&a, &b, "flushed and fresh instances must agree");
        }
    }

    /// SMT thread separation: interleaving a second thread's misses never
    /// changes what thread 0's chains learn.
    #[test]
    fn smt_threads_do_not_interfere(
        t0 in prop::collection::vec(0u64..100, 2..60),
        t1 in prop::collection::vec(200u64..300, 2..60)
    ) {
        // Run thread 0 alone.
        let mut solo = Morrigan::new(MorriganConfig::smt());
        let mut out = Vec::new();
        for &m in &t0 {
            out.clear();
            solo.on_stlb_miss(&ctx(m, 0), &mut out);
        }
        // Run thread 0 interleaved with thread 1 (disjoint pages, and few
        // enough misses that capacity conflicts cannot evict t0's state).
        let mut duo = Morrigan::new(MorriganConfig::smt());
        for (a, b) in t0.iter().zip(t1.iter().cycle()) {
            out.clear();
            duo.on_stlb_miss(&ctx(*a, 0), &mut out);
            out.clear();
            duo.on_stlb_miss(&ctx(*b, 1), &mut out);
        }
        // Thread 0's pages must have learned the same successor sets —
        // unless evicted by capacity, which these sizes avoid.
        for &m in &t0 {
            let mut a = solo.irip().predictions_for(VirtPage::new(m));
            let mut b = duo.irip().predictions_for(VirtPage::new(m));
            a.sort_by_key(|d| d.0);
            b.sort_by_key(|d| d.0);
            prop_assert_eq!(a, b, "thread 1 must not corrupt thread 0's chains (page {})", m);
        }
    }

    /// Scaled configurations always validate and preserve the slot ladder.
    #[test]
    fn scaled_configs_valid(factor in 0.1f64..8.0) {
        let cfg = IripConfig::default().scaled(factor);
        cfg.validate();
        prop_assert_eq!(cfg.tables.len(), 4);
        prop_assert!(cfg.tables.windows(2).all(|w| w[0].slots < w[1].slots));
    }

    /// Mono-style single-table configs of any size behave (no panics, no
    /// phantom predictions).
    #[test]
    fn single_table_configs_work(entries in 1usize..64, misses in prop::collection::vec(0u64..50, 1..60)) {
        let irip_cfg = IripConfig {
            tables: vec![PrtConfig { entries, ways: entries, slots: 8 }],
            ..IripConfig::default()
        };
        let mut irip = Irip::new(irip_cfg);
        let mut out = Vec::new();
        let mut prev = None;
        for &m in &misses {
            out.clear();
            irip.observe(VirtPage::new(m), prev, true, &mut out);
            prev = Some(VirtPage::new(m));
            prop_assert!(irip.occupancy() <= entries);
        }
    }
}
