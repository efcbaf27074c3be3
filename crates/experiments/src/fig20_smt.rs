//! Fig 20 (§6.6): SMT colocation.
//!
//! Pairs of QMM workloads share one core (and all its TLBs, PSCs, caches,
//! walker, and prediction tables). Colocation raises TLB pressure, so the
//! absolute gains are larger than single-threaded; the IRIP tables are
//! doubled (7.5 KB) per the paper. A secondary result reproduces the
//! paper's note that *not* doubling the tables costs some of the gain.

use std::fmt;

use crate::common::{
    baseline, geomean_speedup, run_variants, PrefetcherKind, RunSpec, Runner, Scale,
};
use morrigan::MorriganConfig;
use morrigan_sim::{IcachePrefetcherKind, SystemConfig};

/// The figure's data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig20Result {
    /// Morrigan with doubled tables (the paper's SMT configuration).
    pub morrigan_speedup: f64,
    /// FNL+MMA alone (translation modelled).
    pub fnlmma_speedup: f64,
    /// Morrigan (doubled) + FNL+MMA.
    pub combined_speedup: f64,
    /// Morrigan with single-thread-sized tables (the paper's secondary
    /// observation: smaller gains).
    pub morrigan_undoubled_speedup: f64,
}

/// Runs the experiment.
pub fn run(runner: &Runner, scale: &Scale) -> Fig20Result {
    let pairs = morrigan_workloads::suites::smt_pairs(scale.smt_pairs);

    let fnl_system = SystemConfig {
        icache_prefetcher: IcachePrefetcherKind::FnlMma {
            translation_cost: true,
        },
        ..SystemConfig::default()
    };
    // Single-thread-sized tables still configured for two threads.
    let undoubled_cfg = MorriganConfig {
        max_threads: 2,
        ..MorriganConfig::default()
    };

    // One batch: baselines, then the four prefetched variants.
    let variants = [
        baseline(),
        (SystemConfig::default(), PrefetcherKind::MorriganSmt.into()),
        (fnl_system, PrefetcherKind::None.into()),
        (fnl_system, PrefetcherKind::MorriganSmt.into()),
        (SystemConfig::default(), undoubled_cfg.into()),
    ];
    let [base, morrigan, fnl, combined, undoubled] = run_variants(
        runner,
        variants.map(|(system, prefetcher)| {
            pairs
                .iter()
                .map(|pair| RunSpec::smt(pair, system, scale.sim(), prefetcher.clone()))
                .collect()
        }),
    );

    Fig20Result {
        morrigan_speedup: geomean_speedup(&morrigan, &base),
        fnlmma_speedup: geomean_speedup(&fnl, &base),
        combined_speedup: geomean_speedup(&combined, &base),
        morrigan_undoubled_speedup: geomean_speedup(&undoubled, &base),
    }
}

impl fmt::Display for Fig20Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 20: SMT colocation")?;
        writeln!(
            f,
            "morrigan (2x tables)    {:+.2}%",
            (self.morrigan_speedup - 1.0) * 100.0
        )?;
        writeln!(
            f,
            "fnl+mma                 {:+.2}%",
            (self.fnlmma_speedup - 1.0) * 100.0
        )?;
        writeln!(
            f,
            "morrigan+fnl+mma        {:+.2}%",
            (self.combined_speedup - 1.0) * 100.0
        )?;
        writeln!(
            f,
            "morrigan (1x tables)    {:+.2}%",
            (self.morrigan_undoubled_speedup - 1.0) * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "needs trained tables; run with --release")]
    fn smt_gains_and_orderings() {
        let r = run(&Runner::new(4), &Scale::test_long());
        assert!(r.morrigan_speedup > 1.0, "{r:?}");
        assert!(r.combined_speedup >= r.morrigan_speedup - 0.01, "{r:?}");
        assert!(
            r.morrigan_speedup >= r.morrigan_undoubled_speedup - 0.02,
            "doubled tables should not lose: {r:?}"
        );
    }
}
