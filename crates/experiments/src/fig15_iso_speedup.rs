//! Fig 15 (§6.2): ISO-storage performance comparison — Morrigan vs the
//! prior dSTLB prefetchers, all at Morrigan's 3.76 KB budget.
//!
//! The paper: SP +1.6 %, DP +0.1 %, ASP +0.4 %, MP +0.7 %, Morrigan
//! +7.6 %. The shape that must hold here: Morrigan clearly wins; SP is
//! the best of the rest; ASP/DP/MP are near zero.

use std::fmt;

use morrigan_sim::{Metrics, SystemConfig};

use crate::common::{
    baseline, geomean_speedup, mean_of, render_table, suite_runs, PrefetcherKind, Runner, Runs,
    Scale,
};

/// One prefetcher's aggregate result.
#[derive(Debug, Clone, PartialEq)]
pub struct IsoRow {
    /// Prefetcher name.
    pub prefetcher: String,
    /// Geometric-mean speedup over the no-prefetching baseline.
    pub geomean_speedup: f64,
    /// Mean miss coverage.
    pub mean_coverage: f64,
}

/// The figure's data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig15Result {
    /// Rows in comparison order (SP, DP-iso, ASP-iso, MP-iso, Morrigan).
    pub rows: Vec<IsoRow>,
}

impl Fig15Result {
    /// The row named `name`, if present.
    pub fn row(&self, name: &str) -> Option<&IsoRow> {
        self.rows.iter().find(|r| r.prefetcher == name)
    }
}

/// The competitors of the ISO comparison, in figure order.
pub const KINDS: [PrefetcherKind; 5] = [
    PrefetcherKind::Sp,
    PrefetcherKind::DpIso,
    PrefetcherKind::AspIso,
    PrefetcherKind::MpIso,
    PrefetcherKind::Morrigan,
];

/// Runs the experiment.
pub fn run(runner: &Runner, scale: &Scale) -> Fig15Result {
    // One batch: baselines, then each competitor's sweep.
    let variants =
        std::iter::once(baseline()).chain(KINDS.map(|kind| (SystemConfig::default(), kind.into())));
    let [base, swept @ ..]: [Runs; KINDS.len() + 1] = suite_runs(runner, scale, variants);
    let rows = KINDS
        .iter()
        .zip(&swept)
        .map(|(kind, runs)| IsoRow {
            prefetcher: kind.name().to_string(),
            geomean_speedup: geomean_speedup(runs, &base),
            mean_coverage: mean_of(runs, Metrics::coverage),
        })
        .collect();
    Fig15Result { rows }
}

impl fmt::Display for Fig15Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<(String, String)> = self
            .rows
            .iter()
            .map(|r| {
                (
                    r.prefetcher.clone(),
                    format!(
                        "{:+.2}%  (coverage {:.1}%)",
                        (r.geomean_speedup - 1.0) * 100.0,
                        r.mean_coverage * 100.0
                    ),
                )
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                "Fig 15: ISO-storage comparison (3.76 KB)",
                ("prefetcher", "speedup"),
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "needs trained tables; run with --release")]
    fn morrigan_wins_the_iso_comparison() {
        let r = run(&Runner::new(4), &Scale::test_long());
        let morrigan = r.row("morrigan").expect("morrigan row");
        for row in &r.rows {
            if row.prefetcher != "morrigan" {
                assert!(
                    morrigan.geomean_speedup >= row.geomean_speedup - 0.004,
                    "morrigan must win (within run noise): {:?} vs {row:?}",
                    morrigan
                );
                assert!(
                    morrigan.mean_coverage > row.mean_coverage,
                    "morrigan must cover the most misses"
                );
            }
        }
        assert!(
            morrigan.geomean_speedup > 1.005,
            "morrigan gains: {morrigan:?}"
        );
    }
}
