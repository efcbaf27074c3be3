//! Budget sweep: how Morrigan's miss coverage and speedup scale with the
//! IRIP prediction-table storage (the paper's Fig 13 trade-off), on one
//! workload.
//!
//! ```text
//! cargo run --release --example budget_sweep [seed]
//! ```

use morrigan_suite::experiments::RunOptions;
use morrigan_suite::prefetcher::{IripConfig, MorriganConfig};
use morrigan_suite::runner::{PrefetcherKind, RunSpec};
use morrigan_suite::sim::{SimConfig, SystemConfig};
use morrigan_suite::workloads::ServerWorkloadConfig;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let cfg = ServerWorkloadConfig::qmm_like(format!("sweep-{seed}"), seed);
    let run = SimConfig {
        warmup_instructions: 1_000_000,
        measure_instructions: 4_000_000,
    };

    // Declare the whole sweep up front; the runner executes the points in
    // parallel when worker threads are available.
    let factors = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
    let mut specs = vec![RunSpec::server(
        &cfg,
        SystemConfig::default(),
        run,
        PrefetcherKind::None,
    )];
    let mut budgets_kb = Vec::new();
    for factor in factors {
        let irip = IripConfig::fully_associative().scaled(factor);
        budgets_kb.push(irip.storage_kb());
        let mcfg = MorriganConfig {
            irip,
            ..MorriganConfig::default()
        };
        specs.push(RunSpec::server(&cfg, SystemConfig::default(), run, mcfg));
    }

    let runner = RunOptions::from_env().runner();
    let records = runner.run_batch(&specs);
    let base = &records[0].metrics;
    println!(
        "workload {}: baseline IPC {:.3}, iSTLB MPKI {:.2}\n",
        cfg.name,
        base.ipc(),
        base.istlb_mpki()
    );

    println!("{:>9}  {:>9}  {:>8}", "budget", "coverage", "speedup");
    for (kb, record) in budgets_kb.iter().zip(&records[1..]) {
        let m = &record.metrics;
        println!(
            "{:>7.2}KB  {:>8.1}%  {:>+7.2}%",
            kb,
            m.coverage() * 100.0,
            (m.speedup_over(base) - 1.0) * 100.0
        );
    }
    println!("\n(the paper's chosen operating point is the 3.80 KB row)");
}
