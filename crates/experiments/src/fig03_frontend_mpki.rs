//! Fig 3: mean L1I / I-TLB / iSTLB MPKI, SPEC-like vs QMM-like suites.
//!
//! The claim: QMM server workloads suffer roughly an order of magnitude
//! more instruction misses in all three front-end structures than SPEC CPU
//! workloads, which is why the paper's evaluation excludes SPEC.

use std::fmt;

use morrigan_sim::Metrics;

use crate::common::{
    baseline, baseline_spec, mean_of, render_table, run_variants, RunSpec, Runner, Runs, Scale,
};

/// Mean front-end MPKI rates of one suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteMpki {
    /// Mean demand L1I misses per kilo-instruction.
    pub l1i: f64,
    /// Mean I-TLB MPKI.
    pub itlb: f64,
    /// Mean iSTLB MPKI.
    pub istlb: f64,
}

/// The figure's data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig03Result {
    /// SPEC-CPU-like suite means.
    pub spec: SuiteMpki,
    /// QMM-like suite means.
    pub qmm: SuiteMpki,
}

/// Runs the experiment.
pub fn run(runner: &Runner, scale: &Scale) -> Fig03Result {
    let (system, prefetcher) = baseline();
    let spec_specs = morrigan_workloads::suites::spec_suite()
        .iter()
        .map(|cfg| RunSpec::spec_cpu(cfg, system, scale.sim(), prefetcher.clone()))
        .collect();
    let qmm_specs = scale
        .suite()
        .iter()
        .map(|cfg| baseline_spec(cfg, scale))
        .collect();
    let [spec, qmm] = run_variants(runner, [spec_specs, qmm_specs]);
    let suite_mpki = |runs: &Runs| SuiteMpki {
        l1i: mean_of(runs, Metrics::l1i_mpki),
        itlb: mean_of(runs, Metrics::itlb_mpki),
        istlb: mean_of(runs, Metrics::istlb_mpki),
    };
    Fig03Result {
        spec: suite_mpki(&spec),
        qmm: suite_mpki(&qmm),
    }
}

impl fmt::Display for Fig03Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows = vec![
            (
                "SPEC-like".to_string(),
                format!(
                    "{:>8.2} {:>8.2} {:>8.2}",
                    self.spec.l1i, self.spec.itlb, self.spec.istlb
                ),
            ),
            (
                "QMM-like".to_string(),
                format!(
                    "{:>8.2} {:>8.2} {:>8.2}",
                    self.qmm.l1i, self.qmm.itlb, self.qmm.istlb
                ),
            ),
        ];
        write!(
            f,
            "{}",
            render_table(
                "Fig 3: front-end MPKI",
                ("suite", "     L1I    I-TLB    iSTLB"),
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qmm_dwarfs_spec_on_every_structure() {
        let r = run(&Runner::new(2), &Scale::test());
        assert!(
            r.qmm.istlb > 4.0 * r.spec.istlb,
            "qmm {} vs spec {}",
            r.qmm.istlb,
            r.spec.istlb
        );
        assert!(r.qmm.itlb > 2.0 * r.spec.itlb);
        assert!(r.qmm.l1i > r.spec.l1i);
        // §5: SPEC workloads sit below the 0.5 iSTLB MPKI intensity bar.
        assert!(r.spec.istlb < 0.5, "spec istlb {}", r.spec.istlb);
    }
}
