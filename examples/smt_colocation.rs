//! SMT colocation: two server workloads share one core, its TLBs, caches,
//! page-table walker, and Morrigan's (doubled) prediction tables — the
//! paper's §6.6 setup.
//!
//! ```text
//! cargo run --release --example smt_colocation
//! ```

use morrigan_suite::experiments::RunOptions;
use morrigan_suite::prefetcher::{Morrigan, MorriganConfig};
use morrigan_suite::runner::{PrefetcherKind, RunSpec};
use morrigan_suite::sim::{SimConfig, SystemConfig};
use morrigan_suite::types::TlbPrefetcher;
use morrigan_suite::workloads::suites::smt_pairs;

fn main() {
    let pair = smt_pairs(1).remove(0);
    let run = SimConfig {
        warmup_instructions: 1_000_000,
        measure_instructions: 4_000_000,
    };
    println!("colocating: {}", pair.1.name);

    let specs = [
        RunSpec::smt(&pair, SystemConfig::default(), run, PrefetcherKind::None),
        RunSpec::smt(
            &pair,
            SystemConfig::default(),
            run,
            PrefetcherKind::MorriganSmt,
        ),
        // The paper's secondary observation: single-thread-sized tables
        // shared by two threads lose part of the gain.
        RunSpec::smt(
            &pair,
            SystemConfig::default(),
            run,
            MorriganConfig {
                max_threads: 2,
                ..MorriganConfig::default()
            },
        ),
    ];
    let records = RunOptions::from_env().runner().run_batch(&specs);
    let base = &records[0].metrics;
    println!(
        "\nbaseline:  aggregate IPC {:.3}, iSTLB MPKI {:.2}",
        base.ipc(),
        base.istlb_mpki()
    );

    // The paper doubles the IRIP tables under SMT (7.5 KB) because two
    // threads build chains in the same tables.
    let smt_morrigan = Morrigan::new(MorriganConfig::smt());
    println!(
        "\nmorrigan-smt ({:.2} KB prediction state, per-thread miss registers)",
        smt_morrigan.storage_bits() as f64 / 8192.0
    );
    let m = &records[1].metrics;
    println!("  aggregate IPC  {:.3}", m.ipc());
    println!("  miss coverage  {:.1}%", m.coverage() * 100.0);
    println!(
        "  speedup        {:+.2}%",
        (m.speedup_over(base) - 1.0) * 100.0
    );

    // And without doubling, as the paper's secondary observation.
    let s = &records[2].metrics;
    println!(
        "\nmorrigan with single-thread tables: {:+.2}%",
        (s.speedup_over(base) - 1.0) * 100.0
    );
}
