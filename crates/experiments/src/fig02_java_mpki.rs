//! Fig 2: iSTLB MPKI of Java server workloads.
//!
//! The paper measures seven DaCapo/Renaissance workloads on a Skylake with
//! perf counters; we run the corresponding Java-server-like synthetic
//! configs through the simulator (no prefetching) and report their iSTLB
//! MPKI. The claim being reproduced: server-class Java workloads sustain
//! an iSTLB MPKI in the ~0.5–2.5 band, i.e. instruction translation is a
//! bottleneck even with a large STLB.

use std::fmt;

use morrigan_sim::SystemConfig;

use crate::common::{render_table, PrefetcherKind, RunSpec, Runner, Scale};

/// One workload's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct JavaMpkiRow {
    /// Workload name (cassandra, tomcat, ...).
    pub workload: String,
    /// Demand iSTLB misses per kilo-instruction.
    pub istlb_mpki: f64,
}

/// The figure's data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig02Result {
    /// Per-workload rows in suite order.
    pub rows: Vec<JavaMpkiRow>,
}

/// Runs the experiment.
pub fn run(runner: &Runner, scale: &Scale) -> Fig02Result {
    let suite = morrigan_workloads::suites::java_server_suite();
    let specs: Vec<RunSpec> = suite
        .iter()
        .map(|cfg| {
            RunSpec::server(
                cfg,
                SystemConfig::default(),
                scale.sim(),
                PrefetcherKind::None,
            )
        })
        .collect();
    let rows = runner
        .run_batch(&specs)
        .iter()
        .zip(&suite)
        .map(|(record, cfg)| JavaMpkiRow {
            workload: cfg.name.clone(),
            istlb_mpki: record.metrics.istlb_mpki(),
        })
        .collect();
    Fig02Result { rows }
}

impl fmt::Display for Fig02Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<(String, String)> = self
            .rows
            .iter()
            .map(|r| (r.workload.clone(), format!("{:.2}", r.istlb_mpki)))
            .collect();
        write!(
            f,
            "{}",
            render_table(
                "Fig 2: Java server iSTLB MPKI",
                ("workload", "iSTLB MPKI"),
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn java_workloads_are_istlb_intensive() {
        let result = run(&Runner::new(2), &Scale::test());
        assert_eq!(result.rows.len(), 7);
        // The paper's band is 0.6–2.1; at test scale we only require the
        // workloads to be clearly translation-intensive.
        for row in &result.rows {
            assert!(
                row.istlb_mpki > 0.3,
                "{} mpki {}",
                row.workload,
                row.istlb_mpki
            );
            assert!(
                row.istlb_mpki < 6.0,
                "{} mpki {}",
                row.workload,
                row.istlb_mpki
            );
        }
        let text = result.to_string();
        assert!(text.contains("cassandra"));
    }
}
