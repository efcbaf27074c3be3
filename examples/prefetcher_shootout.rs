//! Shootout: every STLB prefetcher in the workspace on the same workloads
//! at the same 3.76 KB storage budget (the paper's Fig 15 comparison),
//! plus the idealized upper bounds.
//!
//! ```text
//! cargo run --release --example prefetcher_shootout
//! ```

use morrigan_suite::experiments::common::{
    baseline, geomean_speedup, mean_of, suite_runs, RunOptions, Runs, Scale,
};
use morrigan_suite::runner::PrefetcherKind;
use morrigan_suite::sim::{Metrics, SystemConfig};

const KINDS: [PrefetcherKind; 8] = [
    PrefetcherKind::Sp,
    PrefetcherKind::AspIso,
    PrefetcherKind::DpIso,
    PrefetcherKind::MpIso,
    PrefetcherKind::MpUnbounded2,
    PrefetcherKind::MpUnboundedInf,
    PrefetcherKind::MorriganMono,
    PrefetcherKind::Morrigan,
];

fn main() {
    let scale = Scale {
        warmup: 500_000,
        measure: 2_000_000,
        workloads: 4,
        smt_pairs: 1,
        cores: 2,
        tenants: 2,
    };
    let mut perfect_system = SystemConfig::default();
    perfect_system.mmu.perfect_istlb = true;
    // One batch: baselines, each contender, then the perfect-iSTLB bound.
    let variants = std::iter::once(baseline())
        .chain(KINDS.map(|kind| (SystemConfig::default(), kind.into())))
        .chain([(perfect_system, PrefetcherKind::None.into())]);

    println!(
        "running {} workloads x {} prefetchers...",
        scale.suite().len(),
        KINDS.len()
    );
    let runner = RunOptions::from_env().runner();
    let [base, contenders @ .., perfect]: [Runs; KINDS.len() + 2] =
        suite_runs(&runner, &scale, variants);

    println!("{:<18} {:>9} {:>10}", "prefetcher", "speedup", "coverage");
    for (kind, runs) in KINDS.iter().zip(&contenders) {
        println!(
            "{:<18} {:>8.2}% {:>9.1}%",
            kind.name(),
            (geomean_speedup(runs, &base) - 1.0) * 100.0,
            mean_of(runs, Metrics::coverage) * 100.0
        );
    }

    // The perfect-iSTLB ceiling for context.
    println!(
        "{:<18} {:>8.2}%",
        "perfect-istlb",
        (geomean_speedup(&perfect, &base) - 1.0) * 100.0
    );
}
