//! Fig 6: instruction pages sorted by STLB miss frequency.
//!
//! Finding 2: a modest number of pages is responsible for the majority of
//! iSTLB misses — the paper measures 400–800 pages covering 90 % of the
//! misses across the QMM workloads.

use std::fmt;

use crate::common::{suite_miss_streams, Runner, Scale};

/// One workload's skew measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct PageSkewRow {
    /// Workload name.
    pub workload: String,
    /// Total iSTLB misses observed.
    pub total_misses: u64,
    /// Distinct pages that missed.
    pub distinct_pages: usize,
    /// Hottest pages covering 50 % of misses.
    pub pages_for_50: usize,
    /// Hottest pages covering 75 % of misses.
    pub pages_for_75: usize,
    /// Hottest pages covering 90 % of misses.
    pub pages_for_90: usize,
}

/// The figure's data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig06Result {
    /// Per-workload rows.
    pub rows: Vec<PageSkewRow>,
}

/// Runs the experiment.
pub fn run(runner: &Runner, scale: &Scale) -> Fig06Result {
    let rows = suite_miss_streams(runner, scale)
        .into_iter()
        .map(|(workload, stream)| PageSkewRow {
            workload,
            total_misses: stream.total_misses,
            distinct_pages: stream.page_hist.len(),
            pages_for_50: stream.pages_covering(0.5),
            pages_for_75: stream.pages_covering(0.75),
            pages_for_90: stream.pages_covering(0.9),
        })
        .collect();
    Fig06Result { rows }
}

impl fmt::Display for Fig06Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 6: page skew of the iSTLB miss stream")?;
        writeln!(
            f,
            "{:<12} {:>8} {:>9} {:>7} {:>7} {:>7}",
            "workload", "misses", "distinct", "p50", "p75", "p90"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>8} {:>9} {:>7} {:>7} {:>7}",
                r.workload,
                r.total_misses,
                r.distinct_pages,
                r.pages_for_50,
                r.pages_for_75,
                r.pages_for_90
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misses_are_skewed_toward_few_pages() {
        let r = run(&Runner::new(2), &Scale::test());
        for row in &r.rows {
            assert!(row.total_misses > 0);
            assert!(
                row.pages_for_50 * 2 < row.distinct_pages,
                "{}: half the misses should come from well under half of the pages ({} of {})",
                row.workload,
                row.pages_for_50,
                row.distinct_pages
            );
            assert!(row.pages_for_50 <= row.pages_for_75);
            assert!(row.pages_for_75 <= row.pages_for_90);
        }
    }
}
