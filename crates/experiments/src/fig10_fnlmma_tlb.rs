//! Fig 10 (§3.5): FNL+MMA with and without instruction address
//! translation costs.
//!
//! The IPC-1 infrastructure translates page-crossing prefetches for free;
//! once translation is modelled, those prefetches need page walks that
//! occupy the shared walker and arrive too late — so the prefetcher's
//! gain shrinks and only a modest fraction of demand iSTLB misses is
//! removed (the paper measures 29.6 %). Finding 5.

use std::fmt;

use morrigan_sim::{IcachePrefetcherKind, SystemConfig};
use morrigan_types::stats::{geometric_mean, mean};

use crate::common::{baseline_spec, PrefetcherKind, RunSpec, Runner, Scale};

/// The figure's data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig10Result {
    /// Geomean speedup of FNL+MMA on the IPC-1-style infrastructure,
    /// where instruction address translation is not modelled at all (both
    /// the baseline and the prefetcher run with a perfect iSTLB).
    pub speedup_free_translation: f64,
    /// Geomean speedup with translation modelled (the real view).
    pub speedup_with_translation: f64,
    /// Mean reduction of demand page walks with translation modelled (the
    /// paper measures only 29.6 %: poor timeliness).
    pub mean_walk_reduction: f64,
    /// Mean page-crossing prefetch walks per kilo-instruction (the walker
    /// pressure that delays demand walks).
    pub crossing_walks_pki: f64,
}

/// Runs the experiment.
pub fn run(runner: &Runner, scale: &Scale) -> Fig10Result {
    let suite = scale.suite();
    let n = suite.len();

    // The IPC-1 view: address translation does not exist. Both sides run
    // with a perfect iSTLB, so the measured gain is purely the I-cache
    // effect — the number the contest reported.
    let mut perfect = SystemConfig::default();
    perfect.mmu.perfect_istlb = true;
    let mut perfect_fnl = perfect;
    perfect_fnl.icache_prefetcher = IcachePrefetcherKind::FnlMma {
        translation_cost: false,
    };
    // The real view: translation modelled end to end.
    let costly_system = SystemConfig {
        icache_prefetcher: IcachePrefetcherKind::FnlMma {
            translation_cost: true,
        },
        ..SystemConfig::default()
    };

    // One batch: baselines, perfect pairs, then the costly view.
    let mut specs: Vec<RunSpec> = suite.iter().map(|cfg| baseline_spec(cfg, scale)).collect();
    for system in [perfect, perfect_fnl, costly_system] {
        specs.extend(
            suite
                .iter()
                .map(|cfg| RunSpec::server(cfg, system, scale.sim(), PrefetcherKind::None)),
        );
    }
    let records = runner.run_batch(&specs);
    let (baselines, rest) = records.split_at(n);
    let (perfect_base, rest) = rest.split_at(n);
    let (perfect_with_fnl, costly) = rest.split_at(n);

    let free: Vec<f64> = perfect_with_fnl
        .iter()
        .zip(perfect_base)
        .map(|(fnl, base)| fnl.metrics.speedup_over(&base.metrics))
        .collect();
    let costly_speedups: Vec<f64> = costly
        .iter()
        .zip(baselines)
        .map(|(record, base)| record.metrics.speedup_over(&base.metrics))
        .collect();
    let walk_reductions: Vec<f64> = costly
        .iter()
        .zip(baselines)
        .map(|(record, base)| {
            1.0 - record.metrics.walker.demand_instr_walks as f64
                / base.metrics.walker.demand_instr_walks.max(1) as f64
        })
        .collect();
    let crossing: Vec<f64> = costly
        .iter()
        .map(|record| {
            record.metrics.iprefetch_translation_walks as f64 * 1000.0
                / record.metrics.instructions as f64
        })
        .collect();

    Fig10Result {
        speedup_free_translation: geometric_mean(&free),
        speedup_with_translation: geometric_mean(&costly_speedups),
        mean_walk_reduction: mean(&walk_reductions),
        crossing_walks_pki: mean(&crossing),
    }
}

impl fmt::Display for Fig10Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 10: FNL+MMA and address translation")?;
        writeln!(
            f,
            "FNL+MMA, free translation:     {:+.2}%",
            (self.speedup_free_translation - 1.0) * 100.0
        )?;
        writeln!(
            f,
            "FNL+MMA+TLB (translation):     {:+.2}%",
            (self.speedup_with_translation - 1.0) * 100.0
        )?;
        writeln!(
            f,
            "demand page-walk reduction:    {:.1}%",
            self.mean_walk_reduction * 100.0
        )?;
        writeln!(
            f,
            "page-crossing prefetch walks:  {:.2} / kinstr",
            self.crossing_walks_pki
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_cost_erodes_the_gain() {
        let r = run(&Runner::new(2), &Scale::test());
        assert!(
            r.speedup_with_translation <= r.speedup_free_translation + 0.01,
            "the IPC-1 view must look at least as good as the real view: {r:?}"
        );
        assert!(
            r.crossing_walks_pki > 0.0,
            "page crossings must trigger walks"
        );
        // Finding 5: only a partial reduction of demand page walks.
        assert!(
            r.mean_walk_reduction < 0.7,
            "reduction should be partial: {r:?}"
        );
        assert!(
            r.mean_walk_reduction > -0.2,
            "prefetching should not add demand walks: {r:?}"
        );
    }
}
