//! Fig 15 (§6.2): ISO-storage performance comparison — Morrigan vs the
//! prior dSTLB prefetchers, all at Morrigan's 3.76 KB budget.
//!
//! The paper: SP +1.6 %, DP +0.1 %, ASP +0.4 %, MP +0.7 %, Morrigan
//! +7.6 %. The shape that must hold here: Morrigan clearly wins; SP is
//! the best of the rest; ASP/DP/MP are near zero.

use std::fmt;

use morrigan_types::stats::{geometric_mean, mean};

use crate::common::{
    baseline_spec, render_table, server_spec, PrefetcherKind, RunSpec, Runner, Scale,
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
    let suite = scale.suite();
    let n = suite.len();

    // One batch: baselines, then each competitor's sweep.
    let mut specs: Vec<RunSpec> = suite.iter().map(|cfg| baseline_spec(cfg, scale)).collect();
    for kind in KINDS {
        specs.extend(suite.iter().map(|cfg| server_spec(cfg, scale, kind)));
    }
    let records = runner.run_batch(&specs);
    let baselines = &records[..n];

    let rows = KINDS
        .iter()
        .enumerate()
        .map(|(k, kind)| {
            let chunk = &records[n * (k + 1)..n * (k + 2)];
            let speedups: Vec<f64> = chunk
                .iter()
                .zip(baselines)
                .map(|(record, base)| record.metrics.speedup_over(&base.metrics))
                .collect();
            let coverages: Vec<f64> = chunk
                .iter()
                .map(|record| record.metrics.coverage())
                .collect();
            IsoRow {
                prefetcher: kind.name().to_string(),
                geomean_speedup: geometric_mean(&speedups),
                mean_coverage: mean(&coverages),
            }
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
