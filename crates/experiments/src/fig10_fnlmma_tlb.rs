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
use morrigan_types::stats::mean;

use crate::common::{
    baseline, geomean_speedup, mean_of, suite_runs, PrefetcherKind, Runner, Scale,
};

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

    // One batch: baselines, perfect pairs, then the costly view, none
    // with an STLB prefetcher.
    let systems = [perfect, perfect_fnl, costly_system];
    let variants = std::iter::once(baseline())
        .chain(systems.map(|system| (system, PrefetcherKind::None.into())));
    let [base, perfect_base, perfect_with_fnl, costly] = suite_runs(runner, scale, variants);
    let walk_reductions: Vec<f64> = costly
        .iter()
        .zip(&base)
        .map(|(record, base)| {
            1.0 - record.metrics.walker.demand_instr_walks as f64
                / base.metrics.walker.demand_instr_walks.max(1) as f64
        })
        .collect();

    Fig10Result {
        speedup_free_translation: geomean_speedup(&perfect_with_fnl, &perfect_base),
        speedup_with_translation: geomean_speedup(&costly, &base),
        mean_walk_reduction: mean(&walk_reductions),
        crossing_walks_pki: mean_of(&costly, |m| {
            m.iprefetch_translation_walks as f64 * 1000.0 / m.instructions as f64
        }),
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
