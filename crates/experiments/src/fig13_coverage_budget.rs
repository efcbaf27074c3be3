//! Fig 13 (§6.1.1): Morrigan's miss coverage as a function of the IRIP
//! storage budget.
//!
//! The paper sweeps the (fully associative) prediction-table sizes and
//! finds coverage grows steeply at small budgets and plateaus past
//! ~5–7.5 KB; the 3.76 KB point is chosen as the knee.

use std::fmt;

use morrigan::{IripConfig, MorriganConfig};
use morrigan_sim::{Metrics, SystemConfig};

use crate::common::{mean_of, suite_runs, Runner, Runs, Scale};

/// Budget scale factors applied to the default geometry.
pub const SCALES: [f64; 6] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

/// One budget point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetPoint {
    /// IRIP storage at this point, in KB.
    pub storage_kb: f64,
    /// Mean miss coverage across the suite.
    pub coverage: f64,
}

/// The figure's data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13Result {
    /// Points in increasing-budget order.
    pub points: Vec<BudgetPoint>,
}

/// Runs the experiment.
pub fn run(runner: &Runner, scale: &Scale) -> Fig13Result {
    let mcfgs = SCALES.map(|factor| MorriganConfig {
        irip: IripConfig::fully_associative().scaled(factor),
        ..MorriganConfig::default()
    });
    let variants = mcfgs
        .iter()
        .map(|mcfg| (SystemConfig::default(), mcfg.clone().into()));
    let runs: Vec<Runs> = suite_runs(runner, scale, variants);
    let points = mcfgs
        .iter()
        .zip(&runs)
        .map(|(mcfg, runs)| BudgetPoint {
            storage_kb: mcfg.irip.storage_kb(),
            coverage: mean_of(runs, Metrics::coverage),
        })
        .collect();
    Fig13Result { points }
}

impl fmt::Display for Fig13Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 13: miss coverage vs storage budget")?;
        for p in &self.points {
            writeln!(f, "{:>6.2} KB  {:.1}%", p.storage_kb, p.coverage * 100.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "needs trained tables; run with --release")]
    fn coverage_grows_then_plateaus() {
        let r = run(&Runner::new(4), &Scale::test_long());
        assert_eq!(r.points.len(), SCALES.len());
        // Monotone non-decreasing (small tolerance for run noise).
        for w in r.points.windows(2) {
            assert!(
                w[1].coverage >= w[0].coverage - 0.04,
                "coverage should grow with budget: {:?}",
                r.points
            );
        }
        // Budget must matter: the largest tables clearly beat the
        // smallest. (The paper's plateau past ~7.5 KB emerges at its full
        // 100 M-instruction horizon; at test scale we assert the growth
        // side of the curve.)
        assert!(
            r.points[5].coverage > r.points[0].coverage + 0.05,
            "budget should matter: {:?}",
            r.points
        );
    }
}
