//! Morrigan against a plain reference model (`reference/mod.rs`),
//! compared after every miss, credit and flush on pages drawn from a
//! small pool, so prediction-table sets overflow and every replacement
//! policy has to choose.

mod reference;

use morrigan::{IripConfig, Morrigan, MorriganConfig, PrtConfig, ReplacementPolicy};
use morrigan_types::{
    MissContext, PageDistance, PrefetchOrigin, ThreadId, TlbPrefetcher, VirtAddr, VirtPage,
};
use proptest::prelude::*;
use reference::{Counters, RefMorrigan};

/// The default geometry, the SMT configuration, a shrunken geometry
/// with a few sets per table (and a short frequency-reset interval), and
/// the fully associative variant, under `policy`.
fn config(geometry: usize, policy: ReplacementPolicy) -> MorriganConfig {
    let mut cfg = match geometry {
        0 => MorriganConfig::default(),
        1 => MorriganConfig::smt(),
        2 => {
            let prt = |entries, ways, slots| PrtConfig {
                entries,
                ways,
                slots,
            };
            let irip = IripConfig {
                tables: vec![prt(16, 8, 1), prt(8, 4, 2), prt(8, 2, 4), prt(8, 8, 8)],
                freq_reset_interval: 37,
                ..IripConfig::default()
            };
            MorriganConfig {
                irip,
                ..MorriganConfig::default()
            }
        }
        _ => MorriganConfig {
            irip: IripConfig::fully_associative(),
            ..MorriganConfig::default()
        },
    };
    cfg.irip.policy = policy;
    cfg
}

/// Pages crowding the first two sets of the narrowest table, twice as
/// many per set as it has ways. Each pair of pages alternates between two
/// clusters too far apart for a stored distance, so a walk through the
/// pool leaves pairs of entries stamped by one miss and never again:
/// their order is the policies' tie-break. One more page's partial tag
/// aliases the first page's.
fn pool(cfg: &MorriganConfig) -> Vec<VirtPage> {
    const FAR: u64 = 1 << 20;
    let first = cfg.irip.tables[0];
    let sets = (first.entries / first.ways) as u64;
    let mut pool = Vec::new();
    for set in 0..sets.min(2) {
        for k in 0..2 * first.ways as u64 {
            pool.push(VirtPage::new((k / 2 % 2) * FAR + k * sets + set));
        }
    }
    pool.push(VirtPage::new(sets << cfg.irip.tag_bits));
    pool
}

/// `IripStats`, field by field, in declaration order.
fn irip_counters(m: &Morrigan) -> Counters {
    let s = m.irip().stats;
    Counters {
        lookups: s.lookups,
        hits: s.hits,
        predictions: s.predictions,
        insertions: s.insertions,
        promotions: s.promotions,
        evictions: s.evictions,
        slot_replacements: s.slot_replacements,
        unrepresentable_distances: s.unrepresentable_distances,
        credits: s.credits,
    }
}

/// One generated operation: `((kind, page), (mode, distance))`. Kind
/// 255 flushes, 200..=254 credits, anything else misses; `mode` picks
/// how the miss chooses its page (see [`run`]).
type Op = ((u8, usize), (u8, i64));

/// Drives Morrigan and the reference through `ops` and compares
/// emitted decisions (VPN, spatial flag, origin, component), the table
/// and stored distances of every pooled page, occupancy, and the IRIP
/// and composite counters after every operation. Under the SMT
/// configuration the misses alternate between two threads with separate
/// previous-miss registers.
fn run(geometry: usize, policy: usize, ops: &[Op]) {
    let cfg = config(geometry, ReplacementPolicy::ALL[policy]);
    let pool = pool(&cfg);
    let threads = cfg.max_threads;
    let mut real = Morrigan::new(cfg.clone());
    let mut model = RefMorrigan::new(cfg);
    // Origins of recent IRIP decisions: credits mostly name one.
    let mut origins: Vec<PrefetchOrigin> = Vec::new();
    let mut out = Vec::new();
    let (mut misses, mut cursor) = (0, 0);
    for (i, &((kind, page), (mode, distance))) in ops.iter().enumerate() {
        match kind {
            255 => {
                real.flush();
                model.flush();
            }
            200..=254 => {
                let origin = match origins.len() {
                    n if n > 0 && mode % 4 != 0 => origins[n - 1 - page % n.min(16)],
                    _ => PrefetchOrigin {
                        source: pool[page % pool.len()],
                        distance: PageDistance(distance),
                    },
                };
                real.on_prefetch_hit(&origin);
                model.credit(origin);
            }
            _ => {
                // Mostly a walk through the pool, so pages keep one
                // successor, stay in the narrowest table and overflow
                // its sets; sometimes a jump, a hot page (so frequencies
                // differ) or a stray page (so entries promote).
                let vpn = match mode {
                    0..=5 => {
                        cursor = (cursor + 1) % pool.len();
                        pool[cursor]
                    }
                    6 if page % 2 == 0 => {
                        cursor = page % pool.len();
                        pool[cursor]
                    }
                    6 => pool[page % 8],
                    _ => pool[page % pool.len()],
                };
                let thread = misses % threads;
                misses += 1;
                out.clear();
                real.on_stlb_miss(
                    &MissContext {
                        vpn,
                        pc: VirtAddr::new(vpn.raw() << 12),
                        thread: ThreadId(thread as u8),
                        pb_hit: false,
                        cycle: i as u64,
                    },
                    &mut out,
                );
                let expected = model.miss(vpn, thread);
                assert_eq!(out, expected, "decisions of miss #{i} on {vpn:?}");
                origins.extend(out.iter().filter_map(|d| d.origin));
            }
        }
        for &p in &pool {
            let resident = real
                .irip()
                .table_of(p)
                .map(|t| (t, real.irip().predictions_for(p)));
            assert_eq!(
                resident,
                model.residency(p),
                "table and distances of {p:?} after #{i}"
            );
        }
        assert_eq!(
            real.irip().occupancy(),
            model.occupancy(),
            "occupancy after #{i}"
        );
        assert_eq!(irip_counters(&real), model.irip, "IRIP counters after #{i}");
        assert_eq!(real.stats, model.stats, "Morrigan counters after #{i}");
    }
}

/// Operation sequences with a length in `len`.
fn ops(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(((0u8..=255, 0usize..4096), (0u8..8, -9i64..9)), len)
}

/// `debug` cases in a debug build, `release` in a release build.
fn cases(debug: u32, release: u32) -> ProptestConfig {
    ProptestConfig::with_cases(if cfg!(debug_assertions) {
        debug
    } else {
        release
    })
}

// Every case runs all four policies over one operation sequence. The
// wide geometries cost the most per operation and need the longest
// sequences to overflow a set, so they run fewer cases.
proptest! {
    #![proptest_config(cases(12, 64))]

    /// The default geometry.
    #[test]
    fn default_geometry_matches_reference(ops in ops(1..400)) {
        for policy in 0..4 {
            run(0, policy, &ops);
        }
    }
}

proptest! {
    #![proptest_config(cases(24, 128))]

    /// A few sets per table and a short frequency-reset interval.
    #[test]
    fn shrunken_geometry_matches_reference(ops in ops(1..400)) {
        for policy in 0..4 {
            run(2, policy, &ops);
        }
    }
}

proptest! {
    #![proptest_config(cases(1, 8))]

    /// `MorriganConfig::smt()`: doubled tables, two threads.
    #[test]
    fn smt_matches_reference(ops in ops(300..700)) {
        for policy in 0..4 {
            run(1, policy, &ops);
        }
    }

    /// `IripConfig::fully_associative()`.
    #[test]
    fn fully_associative_matches_reference(ops in ops(300..700)) {
        for policy in 0..4 {
            run(3, policy, &ops);
        }
    }
}
