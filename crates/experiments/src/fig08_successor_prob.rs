//! Fig 8: probability of reaching the same successor after an iSTLB miss,
//! for the 50 pages missing the most.
//!
//! Finding 3: the paper measures ≈51 % / 21 % / 11 % for the most,
//! second-most, and third-most frequent successors, with 17 % going
//! elsewhere — high-probability successors are what make Markov
//! prefetching of the miss stream viable at all.

use std::fmt;

use crate::common::{suite_miss_streams, Runner, Scale};

/// How many of the hottest pages the analysis considers (the paper: 50).
pub const TOP_PAGES: usize = 50;

/// The figure's data: suite-mean probabilities for the ranked successors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig08Result {
    /// P(next miss goes to the page's most frequent successor).
    pub first: f64,
    /// P(second most frequent successor).
    pub second: f64,
    /// P(third most frequent successor).
    pub third: f64,
    /// P(any other successor).
    pub other: f64,
}

/// Runs the experiment.
pub fn run(runner: &Runner, scale: &Scale) -> Fig08Result {
    let streams = suite_miss_streams(runner, scale);
    let mut acc = [0.0f64; 4];
    for (_, stream) in &streams {
        let p = stream.successor_probabilities(TOP_PAGES);
        for i in 0..4 {
            acc[i] += p[i];
        }
    }
    for v in &mut acc {
        *v /= streams.len() as f64;
    }
    Fig08Result {
        first: acc[0],
        second: acc[1],
        third: acc[2],
        other: acc[3],
    }
}

impl fmt::Display for Fig08Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig 8: successor probability, top-{TOP_PAGES} missing pages"
        )?;
        writeln!(f, "most frequent successor   {:.1}%", self.first * 100.0)?;
        writeln!(f, "second most frequent      {:.1}%", self.second * 100.0)?;
        writeln!(f, "third most frequent       {:.1}%", self.third * 100.0)?;
        writeln!(f, "other successors          {:.1}%", self.other * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_successor_dominates() {
        let r = run(&Runner::new(2), &Scale::test());
        let total = r.first + r.second + r.third + r.other;
        assert!(
            (total - 1.0).abs() < 1e-9,
            "probabilities must sum to 1: {total}"
        );
        // The paper's 51 %; require clear dominance.
        assert!(r.first > 0.35, "top successor probability {}", r.first);
        assert!(r.first > r.second && r.second >= r.third, "{r:?}");
    }
}
