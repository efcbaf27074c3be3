//! Fig 19 (§6.5): synergy between Morrigan and FNL+MMA.
//!
//! FNL+MMA crosses page boundaries and needs translations; Morrigan keeps
//! those translations staged in the PB, so the combination exceeds the
//! sum of its parts (the paper: +1.2 % and +7.6 % alone, +10.9 %
//! combined, with 51.7 % of page-crossing prefetches finding their
//! translation ready).

use std::fmt;

use crate::common::{
    baseline, geomean_speedup, mean_of, suite_runs, PrefetcherKind, Runner, Scale,
};
use morrigan_sim::{IcachePrefetcherKind, SystemConfig};

/// The figure's data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig19Result {
    /// FNL+MMA alone (translation modelled), vs next-line baseline.
    pub fnlmma_speedup: f64,
    /// Morrigan alone (next-line I-cache prefetching).
    pub morrigan_speedup: f64,
    /// Morrigan + FNL+MMA.
    pub combined_speedup: f64,
    /// Fraction of FNL+MMA's page-crossing prefetches whose translation
    /// was ready (TLB or PB) in the combined configuration.
    pub crossing_translation_ready: f64,
}

/// Runs the experiment.
pub fn run(runner: &Runner, scale: &Scale) -> Fig19Result {
    let fnl_system = SystemConfig {
        icache_prefetcher: IcachePrefetcherKind::FnlMma {
            translation_cost: true,
        },
        ..SystemConfig::default()
    };

    // One batch: baselines, FNL+MMA alone, Morrigan alone, combined.
    let [base, fnl, morrigan, combined] = suite_runs(
        runner,
        scale,
        [
            baseline(),
            (fnl_system, PrefetcherKind::None.into()),
            (SystemConfig::default(), PrefetcherKind::Morrigan.into()),
            (fnl_system, PrefetcherKind::Morrigan.into()),
        ],
    );

    Fig19Result {
        fnlmma_speedup: geomean_speedup(&fnl, &base),
        morrigan_speedup: geomean_speedup(&morrigan, &base),
        combined_speedup: geomean_speedup(&combined, &base),
        crossing_translation_ready: mean_of(&combined, |m| {
            let crossings = m.iprefetch_translation_ready + m.iprefetch_translation_walks;
            m.iprefetch_translation_ready as f64 / crossings.max(1) as f64
        }),
    }
}

impl fmt::Display for Fig19Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 19: synergy with I-cache prefetching")?;
        writeln!(
            f,
            "fnl+mma            {:+.2}%",
            (self.fnlmma_speedup - 1.0) * 100.0
        )?;
        writeln!(
            f,
            "morrigan           {:+.2}%",
            (self.morrigan_speedup - 1.0) * 100.0
        )?;
        writeln!(
            f,
            "morrigan+fnl+mma   {:+.2}%",
            (self.combined_speedup - 1.0) * 100.0
        )?;
        writeln!(
            f,
            "page-crossing prefetches with ready translation: {:.1}%",
            self.crossing_translation_ready * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "needs trained tables; run with --release")]
    fn combination_beats_each_alone() {
        let r = run(&Runner::new(4), &Scale::test_long());
        assert!(r.combined_speedup >= r.morrigan_speedup - 0.005, "{r:?}");
        assert!(r.combined_speedup >= r.fnlmma_speedup - 0.005, "{r:?}");
        assert!(
            r.crossing_translation_ready > 0.2,
            "Morrigan should have translations staged: {r:?}"
        );
    }
}
