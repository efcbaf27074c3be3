//! Shootout: every STLB prefetcher in the workspace on the same workloads
//! at the same 3.76 KB storage budget (the paper's Fig 15 comparison),
//! plus the idealized upper bounds.
//!
//! ```text
//! cargo run --release --example prefetcher_shootout
//! ```

use morrigan_suite::experiments::common::{baseline_spec, server_spec, RunOptions, Scale};
use morrigan_suite::runner::{PrefetcherKind, RunSpec};
use morrigan_suite::sim::SystemConfig;
use morrigan_suite::types::stats::geometric_mean;

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
    let suite = scale.suite();
    let n = suite.len();

    // One batch: baselines, each contender, then the perfect-iSTLB bound.
    let mut specs: Vec<RunSpec> = suite.iter().map(|cfg| baseline_spec(cfg, &scale)).collect();
    for kind in KINDS {
        specs.extend(suite.iter().map(|cfg| server_spec(cfg, &scale, kind)));
    }
    let mut perfect_system = SystemConfig::default();
    perfect_system.mmu.perfect_istlb = true;
    specs.extend(
        suite
            .iter()
            .map(|cfg| RunSpec::server(cfg, perfect_system, scale.sim(), PrefetcherKind::None)),
    );

    println!(
        "running {} workloads x {} prefetchers...",
        suite.len(),
        KINDS.len()
    );
    let runner = RunOptions::from_env().runner();
    let records = runner.run_batch(&specs);
    let baselines = &records[..n];

    println!("{:<18} {:>9} {:>10}", "prefetcher", "speedup", "coverage");
    for (k, kind) in KINDS.iter().enumerate() {
        let chunk = &records[n * (k + 1)..n * (k + 2)];
        let speedups: Vec<f64> = chunk
            .iter()
            .zip(baselines)
            .map(|(record, base)| record.metrics.speedup_over(&base.metrics))
            .collect();
        let coverage: f64 = chunk
            .iter()
            .map(|record| record.metrics.coverage())
            .sum::<f64>()
            / n as f64;
        println!(
            "{:<18} {:>8.2}% {:>9.1}%",
            kind.name(),
            (geometric_mean(&speedups) - 1.0) * 100.0,
            coverage * 100.0
        );
    }

    // The perfect-iSTLB ceiling for context.
    let speedups: Vec<f64> = records[n * (KINDS.len() + 1)..]
        .iter()
        .zip(baselines)
        .map(|(record, base)| record.metrics.speedup_over(&base.metrics))
        .collect();
    println!(
        "{:<18} {:>8.2}%",
        "perfect-istlb",
        (geometric_mean(&speedups) - 1.0) * 100.0
    );
}
