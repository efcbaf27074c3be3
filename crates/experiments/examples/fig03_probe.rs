//! Diagnostic: per-record sampled-vs-full IPC deviation for fig03's
//! specs, split by suite. Run with `MORRIGAN_INSTR` to pick the scale.
//!
//! Usage: cargo run --release -p morrigan-experiments --example fig03_probe

use morrigan_experiments::common::{baseline_spec, PrefetcherKind, RunOptions, RunSpec, Runner};
use morrigan_sim::{SamplingConfig, SystemConfig};

fn main() {
    let scale = RunOptions::from_env().scale();
    let spec_suite = morrigan_workloads::suites::spec_suite();
    let qmm_suite = scale.suite();
    let mut specs: Vec<RunSpec> = spec_suite
        .iter()
        .map(|cfg| {
            RunSpec::spec_cpu(
                cfg,
                SystemConfig::default(),
                scale.sim(),
                PrefetcherKind::None,
            )
        })
        .collect();
    specs.extend(qmm_suite.iter().map(|cfg| baseline_spec(cfg, &scale)));

    let full = Runner::new(1).run_batch(&specs);
    let sampled = Runner::new(1)
        .with_sampling(Some(SamplingConfig::default_schedule()))
        .run_batch(&specs);

    println!(
        "{:<22} {:>9} {:>9} {:>7} {:>11} {:>11} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8}",
        "workload",
        "full_ipc",
        "samp_ipc",
        "err%",
        "f_icstall",
        "s_icstall",
        "f_l1imiss",
        "s_l1imiss",
        "f_femiss",
        "s_femiss",
        "f_tlbst",
        "s_tlbst"
    );
    for (f, s) in full.iter().zip(&sampled) {
        let fi = f.metrics.instructions as f64 / f.metrics.cycles.max(1) as f64;
        let si = s.metrics.instructions as f64 / s.metrics.cycles.max(1) as f64;
        let fe = |m: &morrigan_sim::Metrics| m.mmu.itlb_misses + m.mmu.istlb_misses;
        println!(
            "{:<22} {:>9.4} {:>9.4} {:>7.2} {:>11} {:>11} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8}",
            f.spec.workload.name(),
            fi,
            si,
            (si - fi).abs() / fi * 100.0,
            f.metrics.icache_stall_cycles,
            s.metrics.icache_stall_cycles,
            f.metrics.l1i_misses,
            s.metrics.l1i_misses,
            fe(&f.metrics),
            fe(&s.metrics),
            f.metrics.istlb_stall_cycles,
            s.metrics.istlb_stall_cycles,
        );
    }
}
