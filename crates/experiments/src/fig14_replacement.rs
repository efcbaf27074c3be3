//! Fig 14 (§6.1.2): miss coverage per replacement policy across budgets.
//!
//! The paper's key replacement insight: frequency beats recency for iSTLB
//! prediction tables. At small budgets LRU and Random lag, LFU does
//! better, and RLFU's randomized second chance adds ~5 % coverage on top;
//! as budgets grow, the tables hold everything and the policies converge.

use std::fmt;

use morrigan::{IripConfig, MorriganConfig, ReplacementPolicy};
use morrigan_sim::{Metrics, SystemConfig};

use crate::common::{mean_of, suite_runs, Runner, Runs, Scale};

/// Budget scale factors (a subset of Fig 13's, for runtime).
pub const SCALES: [f64; 3] = [0.5, 1.0, 4.0];

/// Coverage of one policy at one budget.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyPoint {
    /// Policy name.
    pub policy: String,
    /// IRIP storage in KB.
    pub storage_kb: f64,
    /// Mean miss coverage across the suite.
    pub coverage: f64,
}

/// The figure's data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14Result {
    /// All (policy × budget) points.
    pub points: Vec<PolicyPoint>,
}

impl Fig14Result {
    /// Coverage of `policy` at scale factor index `scale_idx`.
    pub fn coverage_of(&self, policy: ReplacementPolicy, scale_idx: usize) -> f64 {
        self.points
            .iter()
            .find(|p| {
                p.policy == policy.name()
                    && (p.storage_kb
                        - IripConfig::fully_associative()
                            .scaled(SCALES[scale_idx])
                            .storage_kb())
                    .abs()
                        < 1e-9
            })
            .map(|p| p.coverage)
            .expect("point exists")
    }
}

/// Runs the experiment.
pub fn run(runner: &Runner, scale: &Scale) -> Fig14Result {
    let mcfgs: Vec<MorriganConfig> = SCALES
        .iter()
        .flat_map(|&factor| {
            ReplacementPolicy::ALL.map(|policy| MorriganConfig {
                irip: IripConfig {
                    policy,
                    ..IripConfig::fully_associative().scaled(factor)
                },
                ..MorriganConfig::default()
            })
        })
        .collect();
    let variants = mcfgs
        .iter()
        .map(|mcfg| (SystemConfig::default(), mcfg.clone().into()));
    let runs: Vec<Runs> = suite_runs(runner, scale, variants);
    let points = mcfgs
        .iter()
        .zip(&runs)
        .map(|(mcfg, runs)| PolicyPoint {
            policy: mcfg.irip.policy.name().to_string(),
            storage_kb: mcfg.irip.storage_kb(),
            coverage: mean_of(runs, Metrics::coverage),
        })
        .collect();
    Fig14Result { points }
}

impl fmt::Display for Fig14Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 14: coverage per replacement policy")?;
        writeln!(f, "{:<8} {:>9} {:>9}", "policy", "KB", "coverage")?;
        for p in &self.points {
            writeln!(
                f,
                "{:<8} {:>9.2} {:>8.1}%",
                p.policy,
                p.storage_kb,
                p.coverage * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "needs trained tables; run with --release")]
    fn frequency_beats_recency_at_small_budgets() {
        let r = run(&Runner::new(4), &Scale::test_long());
        // At the smallest budget, RLFU should not lose to LRU or Random;
        // frequency-based policies should be at least competitive.
        let rlfu = r.coverage_of(ReplacementPolicy::Rlfu, 0);
        let lru = r.coverage_of(ReplacementPolicy::Lru, 0);
        let random = r.coverage_of(ReplacementPolicy::Random, 0);
        assert!(rlfu >= lru - 0.03, "RLFU {rlfu} vs LRU {lru}");
        assert!(rlfu >= random - 0.03, "RLFU {rlfu} vs Random {random}");
        // At the largest budget the policies converge.
        let spread: Vec<f64> = ReplacementPolicy::ALL
            .iter()
            .map(|&p| r.coverage_of(p, 2))
            .collect();
        let max = spread.iter().cloned().fold(f64::MIN, f64::max);
        let min = spread.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max - min < 0.12,
            "policies should converge at large budgets: {spread:?}"
        );
    }
}
