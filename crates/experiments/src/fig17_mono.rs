//! Fig 17 (§6.3): the ensemble versus Morrigan-mono.
//!
//! ISO-storage ablation: the four-table ensemble (448 tracked pages) vs a
//! single 203-entry table with 8 slots per entry. The paper measures a
//! 1.9 % mean advantage for the ensemble because variable-length chains
//! waste no slots on single-successor pages.

use std::fmt;

use morrigan_types::stats::{geometric_mean, mean};

use crate::common::{
    baseline_spec, server_spec, PrefetcherKind, RunRecord, RunSpec, Runner, Scale,
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
    let suite = scale.suite();
    let n = suite.len();

    let mut specs: Vec<RunSpec> = suite.iter().map(|cfg| baseline_spec(cfg, scale)).collect();
    for kind in [PrefetcherKind::Morrigan, PrefetcherKind::MorriganMono] {
        specs.extend(suite.iter().map(|cfg| server_spec(cfg, scale, kind)));
    }
    let records = runner.run_batch(&specs);
    let baselines = &records[..n];

    let measure = |chunk: &[std::sync::Arc<RunRecord>]| {
        let speedups: Vec<f64> = chunk
            .iter()
            .zip(baselines)
            .map(|(record, base)| record.metrics.speedup_over(&base.metrics))
            .collect();
        let coverages: Vec<f64> = chunk
            .iter()
            .map(|record| record.metrics.coverage())
            .collect();
        (geometric_mean(&speedups), mean(&coverages))
    };
    let (ensemble_speedup, ensemble_coverage) = measure(&records[n..2 * n]);
    let (mono_speedup, mono_coverage) = measure(&records[2 * n..]);
    Fig17Result {
        ensemble_speedup,
        mono_speedup,
        ensemble_coverage,
        mono_coverage,
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
