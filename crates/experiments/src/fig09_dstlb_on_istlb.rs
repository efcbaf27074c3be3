//! Fig 9 (§3.4): prior dSTLB prefetchers applied to the iSTLB miss
//! stream, against the Perfect-iSTLB upper bound, plus the two idealized
//! unbounded Markov variants.
//!
//! The shape being reproduced: SP gains a little (sequential component),
//! ASP and DP gain ~nothing (PC/distance features do not correlate with
//! instruction misses), bounded MP gains ~nothing (LRU + fixed slots),
//! while *unbounded* MP recovers most of the Perfect-iSTLB opportunity —
//! the observation that motivates IRIP (Finding 4).

use std::fmt;

use morrigan_sim::SystemConfig;
use morrigan_types::stats::geometric_mean;

use crate::common::{
    baseline_spec, render_table, server_spec, PrefetcherKind, RunSpec, Runner, Scale,
};

/// One prefetcher's aggregate result.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupRow {
    /// Prefetcher name.
    pub prefetcher: String,
    /// Geometric-mean speedup over the no-prefetching baseline.
    pub geomean_speedup: f64,
}

/// The figure's data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig09Result {
    /// Rows for SP/ASP/DP/MP, the unbounded variants, and Perfect iSTLB.
    pub rows: Vec<SpeedupRow>,
}

impl Fig09Result {
    /// The geomean speedup of `name`, if present.
    pub fn speedup_of(&self, name: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.prefetcher == name)
            .map(|r| r.geomean_speedup)
    }
}

/// The dSTLB prefetchers the figure replays on the instruction stream.
const KINDS: [PrefetcherKind; 6] = [
    PrefetcherKind::Sp,
    PrefetcherKind::Asp,
    PrefetcherKind::Dp,
    PrefetcherKind::Mp,
    PrefetcherKind::MpUnbounded2,
    PrefetcherKind::MpUnboundedInf,
];

/// Runs the experiment.
pub fn run(runner: &Runner, scale: &Scale) -> Fig09Result {
    let suite = scale.suite();
    let n = suite.len();
    let mut perfect_system = SystemConfig::default();
    perfect_system.mmu.perfect_istlb = true;

    // One batch: baselines, then each prefetcher's sweep, then perfect.
    let mut specs: Vec<RunSpec> = suite.iter().map(|cfg| baseline_spec(cfg, scale)).collect();
    for kind in KINDS {
        specs.extend(suite.iter().map(|cfg| server_spec(cfg, scale, kind)));
    }
    specs.extend(
        suite
            .iter()
            .map(|cfg| RunSpec::server(cfg, perfect_system, scale.sim(), PrefetcherKind::None)),
    );
    let records = runner.run_batch(&specs);
    let baselines = &records[..n];

    let geomean_vs_baseline = |chunk: &[std::sync::Arc<crate::common::RunRecord>]| {
        let speedups: Vec<f64> = chunk
            .iter()
            .zip(baselines)
            .map(|(record, base)| record.metrics.speedup_over(&base.metrics))
            .collect();
        geometric_mean(&speedups)
    };

    let mut rows = Vec::new();
    for (k, kind) in KINDS.iter().enumerate() {
        rows.push(SpeedupRow {
            prefetcher: kind.name().to_string(),
            geomean_speedup: geomean_vs_baseline(&records[n * (k + 1)..n * (k + 2)]),
        });
    }
    rows.push(SpeedupRow {
        prefetcher: "perfect-istlb".to_string(),
        geomean_speedup: geomean_vs_baseline(&records[n * (KINDS.len() + 1)..]),
    });

    Fig09Result { rows }
}

impl fmt::Display for Fig09Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<(String, String)> = self
            .rows
            .iter()
            .map(|r| {
                (
                    r.prefetcher.clone(),
                    format!("{:+.2}%", (r.geomean_speedup - 1.0) * 100.0),
                )
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                "Fig 9: dSTLB prefetchers on the iSTLB stream",
                ("prefetcher", "geomean speedup"),
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
    fn ordering_matches_paper() {
        let r = run(&Runner::new(4), &Scale::test_long());
        let get = |n: &str| r.speedup_of(n).expect(n);
        let perfect = get("perfect-istlb");
        assert!(
            perfect > 1.02,
            "perfect upper bound must be substantial: {perfect}"
        );
        // Every real prefetcher is bounded by perfect.
        for row in &r.rows {
            assert!(
                row.geomean_speedup <= perfect + 0.005,
                "{row:?} above perfect {perfect}"
            );
            assert!(
                row.geomean_speedup > 0.97,
                "{row:?} should not tank performance"
            );
        }
        // The unbounded idealization beats the bounded original design.
        assert!(
            get("mp-unbounded-inf") >= get("mp") - 0.002,
            "unbounded MP must not lose to bounded MP"
        );
        // ASP and DP provide ~no speedup on the instruction stream.
        assert!(
            get("asp") < 1.02,
            "ASP should be near-useless: {}",
            get("asp")
        );
        assert!(get("dp") < 1.02, "DP should be near-useless: {}", get("dp"));
    }
}
