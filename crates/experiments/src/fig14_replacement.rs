//! Fig 14 (§6.1.2): miss coverage per replacement policy across budgets.
//!
//! The paper's key replacement insight: frequency beats recency for iSTLB
//! prediction tables. At small budgets LRU and Random lag, LFU does
//! better, and RLFU's randomized second chance adds ~5 % coverage on top;
//! as budgets grow, the tables hold everything and the policies converge.

use std::fmt;

use morrigan::{IripConfig, MorriganConfig, ReplacementPolicy};
use morrigan_types::stats::mean;

use crate::common::{server_spec, RunSpec, Runner, Scale};

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
    let suite = scale.suite();
    let n = suite.len();
    let mut specs: Vec<RunSpec> = Vec::new();
    let mut labels = Vec::new();
    for &factor in &SCALES {
        for policy in ReplacementPolicy::ALL {
            let mut irip = IripConfig::fully_associative().scaled(factor);
            irip.policy = policy;
            labels.push((policy, irip.storage_kb()));
            let mcfg = MorriganConfig {
                irip,
                ..MorriganConfig::default()
            };
            specs.extend(
                suite
                    .iter()
                    .map(|cfg| server_spec(cfg, scale, mcfg.clone())),
            );
        }
    }
    let records = runner.run_batch(&specs);
    let points = labels
        .into_iter()
        .enumerate()
        .map(|(i, (policy, storage_kb))| {
            let coverages: Vec<f64> = records[i * n..(i + 1) * n]
                .iter()
                .map(|record| record.metrics.coverage())
                .collect();
            PolicyPoint {
                policy: policy.name().to_string(),
                storage_kb,
                coverage: mean(&coverages),
            }
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
