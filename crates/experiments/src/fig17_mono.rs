//! Fig 17 (§6.3): the ensemble versus Morrigan-mono.
//!
//! ISO-storage ablation: the four-table ensemble (448 tracked pages) vs a
//! single 203-entry table with 8 slots per entry. The paper measures a
//! 1.9 % mean advantage for the ensemble because variable-length chains
//! waste no slots on single-successor pages.

use std::fmt;

use morrigan_sim::{Metrics, SystemConfig};

use crate::common::{
    baseline, geomean_speedup, mean_of, suite_runs, PrefetcherKind, Runner, Scale,
};

/// The figure's data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig17Result {
    /// Geomean speedup of the ensemble design.
    pub ensemble_speedup: f64,
    /// Geomean speedup of the mono design.
    pub mono_speedup: f64,
    /// Mean coverage of the ensemble design.
    pub ensemble_coverage: f64,
    /// Mean coverage of the mono design.
    pub mono_coverage: f64,
}

/// Runs the experiment.
pub fn run(runner: &Runner, scale: &Scale) -> Fig17Result {
    let [base, ensemble, mono] = suite_runs(
        runner,
        scale,
        [
            baseline(),
            (SystemConfig::default(), PrefetcherKind::Morrigan.into()),
            (SystemConfig::default(), PrefetcherKind::MorriganMono.into()),
        ],
    );
    Fig17Result {
        ensemble_speedup: geomean_speedup(&ensemble, &base),
        mono_speedup: geomean_speedup(&mono, &base),
        ensemble_coverage: mean_of(&ensemble, Metrics::coverage),
        mono_coverage: mean_of(&mono, Metrics::coverage),
    }
}

impl fmt::Display for Fig17Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 17: ensemble vs single-table (ISO-storage)")?;
        writeln!(
            f,
            "morrigan       {:+.2}%  (coverage {:.1}%)",
            (self.ensemble_speedup - 1.0) * 100.0,
            self.ensemble_coverage * 100.0
        )?;
        writeln!(
            f,
            "morrigan-mono  {:+.2}%  (coverage {:.1}%)",
            (self.mono_speedup - 1.0) * 100.0,
            self.mono_coverage * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "needs trained tables; run with --release")]
    fn ensemble_beats_mono() {
        let r = run(&Runner::new(4), &Scale::test_long());
        assert!(
            r.ensemble_coverage >= r.mono_coverage - 0.01,
            "the ensemble tracks more pages for the same storage: {r:?}"
        );
        assert!(
            r.ensemble_speedup >= r.mono_speedup - 0.003,
            "the ensemble should not lose: {r:?}"
        );
    }
}
