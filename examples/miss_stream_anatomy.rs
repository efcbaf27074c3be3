//! Anatomy of an instruction-STLB miss stream: reproduces the paper's §3.3
//! characterization (Findings 1–3) for one workload.
//!
//! ```text
//! cargo run --release --example miss_stream_anatomy [seed]
//! ```

use morrigan_suite::experiments::RunOptions;
use morrigan_suite::runner::{PrefetcherKind, RunSpec};
use morrigan_suite::sim::{SimConfig, SystemConfig};
use morrigan_suite::workloads::ServerWorkloadConfig;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let cfg = ServerWorkloadConfig::qmm_like(format!("anatomy-{seed}"), seed);
    let mut system = SystemConfig::default();
    system.mmu.collect_stream_stats = true;

    let spec = RunSpec::server(
        &cfg,
        system,
        SimConfig {
            warmup_instructions: 1_000_000,
            measure_instructions: 6_000_000,
        },
        PrefetcherKind::None,
    );
    let record = RunOptions::from_env().runner().run_one(&spec);
    let metrics = &record.metrics;
    let stream = record
        .miss_stream
        .as_ref()
        .expect("collect_stream_stats was set");

    println!(
        "workload {} — {} iSTLB misses over {} distinct pages",
        cfg.name,
        stream.total_misses,
        stream.page_hist.len()
    );
    println!("iSTLB MPKI {:.2}", metrics.istlb_mpki());

    println!("\nFinding 1 — spatial locality (delta CDF):");
    let bounds = [1u64, 2, 5, 10, 100, 1000, 10000];
    for (b, f) in bounds.iter().zip(stream.delta_cdf(&bounds)) {
        println!("  |delta| <= {b:<6} {:.1}%", f * 100.0);
    }

    println!("\nFinding 2 — page skew:");
    for frac in [0.5, 0.75, 0.9] {
        println!(
            "  {:.0}% of misses come from the hottest {} pages",
            frac * 100.0,
            stream.pages_covering(frac)
        );
    }

    println!("\nFinding 3 — successor structure:");
    let buckets = stream.successor_breakdown();
    for (label, frac) in ["1", "2", "3-4", "5-8", ">8"].iter().zip(buckets) {
        println!("  {:>3} successors: {:.1}% of pages", label, frac * 100.0);
    }
    let probs = stream.successor_probabilities(50);
    println!(
        "  top-50 pages: next miss hits the #1/#2/#3 successor {:.0}%/{:.0}%/{:.0}% of the time",
        probs[0] * 100.0,
        probs[1] * 100.0,
        probs[2] * 100.0
    );
}
