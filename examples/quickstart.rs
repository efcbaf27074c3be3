//! Quickstart: run one server workload with and without Morrigan and
//! print the headline numbers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use morrigan_suite::experiments::RunOptions;
use morrigan_suite::prefetcher::{Morrigan, MorriganConfig};
use morrigan_suite::runner::{PrefetcherKind, RunSpec};
use morrigan_suite::sim::{SimConfig, SystemConfig};
use morrigan_suite::types::TlbPrefetcher;
use morrigan_suite::workloads::ServerWorkloadConfig;

fn main() {
    // A QMM-class synthetic server workload: ~16-40 MB of code, deep call
    // chains, phase behaviour (see morrigan-workloads for the knobs).
    let workload = ServerWorkloadConfig::qmm_like("quickstart", 42);
    let run = SimConfig {
        warmup_instructions: 1_000_000,
        measure_instructions: 4_000_000,
    };

    println!(
        "workload: {} ({} code pages, {} data pages)",
        workload.name, workload.code_pages, workload.data_pages
    );

    // Declare both jobs and let the runner execute them (in parallel when
    // more than one worker thread is available — see MORRIGAN_THREADS).
    let runner = RunOptions::from_env().runner();
    let specs = [
        RunSpec::server(
            &workload,
            SystemConfig::default(),
            run,
            PrefetcherKind::None,
        ),
        RunSpec::server(
            &workload,
            SystemConfig::default(),
            run,
            PrefetcherKind::Morrigan,
        ),
    ];
    let records = runner.run_batch(&specs);
    let (base, m) = (&records[0].metrics, &records[1].metrics);

    println!("\nbaseline (no STLB prefetching)");
    println!("  IPC                 {:.3}", base.ipc());
    println!("  iSTLB MPKI          {:.2}", base.istlb_mpki());
    println!(
        "  translation stalls  {:.1}% of cycles",
        base.istlb_cycle_fraction() * 100.0
    );
    println!(
        "  mean iSTLB walk     {:.0} cycles",
        base.walker.mean_instr_walk_latency()
    );

    // The same system with Morrigan attached (3.76 KB of prediction state).
    let morrigan = Morrigan::new(MorriganConfig::default());
    println!(
        "\nmorrigan ({:.2} KB prediction state)",
        morrigan.storage_bits() as f64 / 8192.0
    );
    println!("  IPC                 {:.3}", m.ipc());
    println!("  miss coverage       {:.1}%", m.coverage() * 100.0);
    println!(
        "  speedup             {:+.2}%",
        (m.speedup_over(base) - 1.0) * 100.0
    );
    println!(
        "  demand walk refs    {} -> {} ({:+.0}%)",
        base.demand_instr_walk_refs(),
        m.demand_instr_walk_refs(),
        (m.demand_instr_walk_refs() as f64 / base.demand_instr_walk_refs().max(1) as f64 - 1.0)
            * 100.0
    );
    println!("  prefetch walk refs  {}", m.prefetch_walk_refs());
}
