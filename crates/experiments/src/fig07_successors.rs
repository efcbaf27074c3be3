//! Fig 7: breakdown of instruction pages by number of distinct successor
//! pages in the iSTLB miss stream.
//!
//! Finding 3's precondition: a large fraction of pages has only 1–2
//! successors, sizeable fractions have up to 4 and up to 8, and few have
//! more — which is exactly why IRIP's ensemble dedicates most capacity to
//! narrow entries (PRT-S1/S2) and only 64 entries to PRT-S8.

use std::fmt;

use crate::common::{suite_miss_streams, Runner, Scale};

/// Bucket labels in figure order.
pub const BUCKETS: [&str; 5] = ["1", "2", "3-4", "5-8", ">8"];

/// The figure's data: suite-mean fraction of pages per successor bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig07Result {
    /// Fractions parallel to [`BUCKETS`]; sums to 1.
    pub fractions: [f64; 5],
}

/// Runs the experiment.
pub fn run(runner: &Runner, scale: &Scale) -> Fig07Result {
    let streams = suite_miss_streams(runner, scale);
    let mut acc = [0.0f64; 5];
    for (_, stream) in &streams {
        let b = stream.successor_breakdown();
        for i in 0..5 {
            acc[i] += b[i];
        }
    }
    for v in &mut acc {
        *v /= streams.len() as f64;
    }
    Fig07Result { fractions: acc }
}

impl fmt::Display for Fig07Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 7: pages by successor count")?;
        for (label, frac) in BUCKETS.iter().zip(&self.fractions) {
            writeln!(f, "{label:<4} successors: {:.1}%", frac * 100.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successor_spread_matches_finding_3() {
        let r = run(&Runner::new(2), &Scale::test());
        let total: f64 = r.fractions.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "fractions must sum to 1: {total}"
        );
        // Pages with 1–2 successors form a large group...
        assert!(r.fractions[0] + r.fractions[1] > 0.25, "{:?}", r.fractions);
        // ...and pages with more than 8 are a small minority.
        assert!(r.fractions[4] < 0.35, "{:?}", r.fractions);
    }
}
