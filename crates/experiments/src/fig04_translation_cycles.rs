//! Fig 4: fraction of execution cycles spent serving iSTLB accesses.
//!
//! The paper measures 6.6–11.7 % across the QMM workloads, above VTune's
//! 5 % bottleneck threshold — the quantitative case that instruction
//! address translation is a first-order problem.

use std::fmt;

use crate::common::{baseline_spec, render_table, Runner, Scale};

/// One workload's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslationCycleRow {
    /// Workload name.
    pub workload: String,
    /// Fraction of cycles stalled on instruction address translation.
    pub cycle_fraction: f64,
}

/// The figure's data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig04Result {
    /// Per-workload rows.
    pub rows: Vec<TranslationCycleRow>,
    /// VTune's bottleneck threshold (5 %), for reference.
    pub threshold: f64,
}

/// Runs the experiment.
pub fn run(runner: &Runner, scale: &Scale) -> Fig04Result {
    let suite = scale.suite();
    let specs: Vec<_> = suite.iter().map(|cfg| baseline_spec(cfg, scale)).collect();
    let rows = runner
        .run_batch(&specs)
        .iter()
        .zip(&suite)
        .map(|(record, cfg)| TranslationCycleRow {
            workload: cfg.name.clone(),
            cycle_fraction: record.metrics.istlb_cycle_fraction(),
        })
        .collect();
    Fig04Result {
        rows,
        threshold: 0.05,
    }
}

impl Fig04Result {
    /// Number of workloads above the bottleneck threshold.
    pub fn above_threshold(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.cycle_fraction > self.threshold)
            .count()
    }
}

impl fmt::Display for Fig04Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<(String, String)> = self
            .rows
            .iter()
            .map(|r| {
                (
                    r.workload.clone(),
                    format!("{:.1}%", r.cycle_fraction * 100.0),
                )
            })
            .collect();
        writeln!(
            f,
            "{}({} of {} above the 5% VTune threshold)",
            render_table(
                "Fig 4: cycles serving iSTLB accesses",
                ("workload", "% of cycles"),
                &rows
            ),
            self.above_threshold(),
            self.rows.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_is_a_bottleneck() {
        let r = run(&Runner::new(2), &Scale::test());
        assert_eq!(r.rows.len(), Scale::test().workloads);
        assert_eq!(
            r.above_threshold(),
            r.rows.len(),
            "all QMM workloads exceed 5%: {r}"
        );
        for row in &r.rows {
            assert!(
                row.cycle_fraction < 0.3,
                "implausible stall share {}",
                row.cycle_fraction
            );
        }
    }
}
