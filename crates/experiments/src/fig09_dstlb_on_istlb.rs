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

use crate::common::{
    baseline, geomean_speedup, render_table, suite_runs, PrefetcherKind, Runner, Runs, Scale,
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
    let mut perfect = SystemConfig::default();
    perfect.mmu.perfect_istlb = true;

    // One batch: baselines, then each prefetcher's sweep, then perfect.
    let variants = std::iter::once(baseline())
        .chain(KINDS.map(|kind| (SystemConfig::default(), kind.into())))
        .chain([(perfect, PrefetcherKind::None.into())]);
    let [base, swept @ ..]: [Runs; KINDS.len() + 2] = suite_runs(runner, scale, variants);
    let names = KINDS
        .map(PrefetcherKind::name)
        .into_iter()
        .chain(["perfect-istlb"]);
    let rows = names
        .zip(&swept)
        .map(|(name, runs)| SpeedupRow {
            prefetcher: name.to_string(),
            geomean_speedup: geomean_speedup(runs, &base),
        })
        .collect();
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
