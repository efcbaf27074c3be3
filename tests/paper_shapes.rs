//! Headline-shape regression tests: the qualitative results the paper's
//! story rests on, measured end-to-end at a moderate scale.
//!
//! These are `#[ignore]`d in debug builds (they need trained prediction
//! tables); run them with `cargo test --release`.

use morrigan_suite::experiments::common::{
    baseline, geomean_speedup, mean_of, suite_runs, PrefetcherKind, Runner, Runs, Scale,
};
use morrigan_suite::sim::{Metrics, SystemConfig};

fn shape_scale() -> Scale {
    Scale {
        warmup: 1_000_000,
        measure: 3_000_000,
        workloads: 4,
        smt_pairs: 1,
        cores: 2,
        tenants: 2,
    }
}

fn measure(kinds: &[PrefetcherKind]) -> Vec<(String, f64, f64)> {
    let variants = std::iter::once(baseline()).chain(
        kinds
            .iter()
            .map(|&kind| (SystemConfig::default(), kind.into())),
    );
    let runs: Vec<Runs> = suite_runs(&Runner::new(4), &shape_scale(), variants);
    let (base, swept) = runs.split_first().expect("the baseline's runs");
    kinds
        .iter()
        .zip(swept)
        .map(|(kind, runs)| {
            (
                kind.name().to_string(),
                geomean_speedup(runs, base),
                mean_of(runs, Metrics::coverage),
            )
        })
        .collect()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "needs trained tables; run with --release")]
fn headline_morrigan_beats_every_prior_dstlb_prefetcher() {
    let rows = measure(&[
        PrefetcherKind::Sp,
        PrefetcherKind::AspIso,
        PrefetcherKind::MpIso,
        PrefetcherKind::Morrigan,
    ]);
    let morrigan = rows.last().expect("morrigan last");
    for row in &rows[..rows.len() - 1] {
        assert!(
            morrigan.1 >= row.1 - 0.003,
            "morrigan ({:.4}) must beat {} ({:.4})",
            morrigan.1,
            row.0,
            row.1
        );
        assert!(
            morrigan.2 > row.2,
            "morrigan must have the highest coverage: {rows:?}"
        );
    }
    assert!(morrigan.1 > 1.01, "morrigan gains >1%: {rows:?}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "needs trained tables; run with --release")]
fn headline_morrigan_eliminates_demand_walk_references() {
    let variants = [
        baseline(),
        (SystemConfig::default(), PrefetcherKind::Morrigan.into()),
    ];
    let [base, morrigan]: [Runs; 2] = suite_runs(&Runner::new(4), &shape_scale(), variants);
    let demand_refs = |m: &Metrics| m.demand_instr_walk_refs() as f64;
    let reduction = 1.0 - mean_of(&morrigan, demand_refs) / mean_of(&base, demand_refs);
    // The paper reports 69 %; the synthetic substrate attenuates this (see
    // EXPERIMENTS.md) but the reduction must be substantial.
    assert!(reduction > 0.15, "demand walk-ref reduction {reduction:.3}");
}
