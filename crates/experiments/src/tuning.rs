//! §6.1.3's configuration study plus the DESIGN.md ablations.
//!
//! * **Associativity**: fully associative tables vs the paper's empirical
//!   set-associative choice (128×32w / 128×32w / 128×32w / 64×16w), which
//!   costs ~5 % coverage.
//! * **PB size**: 16/32/64/128 entries; the paper picks 64.
//! * **Ablations**: spatial prefetching on every slot vs only the
//!   highest-confidence slot, and SDP always-on vs gated on IRIP misses.

use std::fmt;

use morrigan::{IripConfig, MorriganConfig};
use morrigan_sim::{Metrics, SystemConfig};

use crate::common::{mean_of, suite_runs, Runner, Runs, Scale};

/// One configuration's mean coverage (and prefetch-walk cost).
#[derive(Debug, Clone, PartialEq)]
pub struct TuningRow {
    /// Configuration name.
    pub config: String,
    /// Mean miss coverage across the suite.
    pub coverage: f64,
    /// Prefetch page-walk memory references per kilo-instruction (the
    /// cost side of aggressive prefetching).
    pub prefetch_refs_pki: f64,
}

/// The study's data.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningResult {
    /// All measured configurations.
    pub rows: Vec<TuningRow>,
}

impl TuningResult {
    /// The row named `name`, if present.
    pub fn row(&self, name: &str) -> Option<&TuningRow> {
        self.rows.iter().find(|r| r.config == name)
    }
}

/// Runs the study.
pub fn run(runner: &Runner, scale: &Scale) -> TuningResult {
    let mut configs: Vec<(String, MorriganConfig, SystemConfig)> = vec![
        // Associativity.
        (
            "set-assoc (paper)".into(),
            MorriganConfig::default(),
            SystemConfig::default(),
        ),
        (
            "fully-assoc".into(),
            MorriganConfig {
                irip: IripConfig::fully_associative(),
                ..MorriganConfig::default()
            },
            SystemConfig::default(),
        ),
    ];

    // PB sizes.
    for pb in [16usize, 32, 64, 128] {
        let mut system = SystemConfig::default();
        system.mmu.pb_entries = pb;
        configs.push((format!("pb-{pb}"), MorriganConfig::default(), system));
    }

    // Ablations.
    configs.push((
        "abl: spatial on all slots".into(),
        MorriganConfig {
            spatial_max_conf_only: false,
            ..MorriganConfig::default()
        },
        SystemConfig::default(),
    ));
    configs.push((
        "abl: sdp always on".into(),
        MorriganConfig {
            sdp_only_on_irip_miss: false,
            ..MorriganConfig::default()
        },
        SystemConfig::default(),
    ));
    configs.push((
        "abl: sdp disabled".into(),
        MorriganConfig {
            sdp_enabled: false,
            ..MorriganConfig::default()
        },
        SystemConfig::default(),
    ));
    // §4.3 strategy variants.
    {
        let mut system = SystemConfig::default();
        system.mmu.engage_on_stlb_hits = true;
        configs.push((
            "abl: engage on STLB hits".into(),
            MorriganConfig::default(),
            system,
        ));
    }
    configs.push((
        "abl: context switch 500k".into(),
        MorriganConfig::default(),
        SystemConfig {
            context_switch_interval: Some(500_000),
            ..SystemConfig::default()
        },
    ));

    // One batch: every configuration across the whole suite.
    let variants = configs
        .iter()
        .map(|(_, mcfg, system)| (*system, mcfg.clone().into()));
    let runs: Vec<Runs> = suite_runs(runner, scale, variants);
    let rows = configs
        .into_iter()
        .zip(&runs)
        .map(|((name, _, _), runs)| TuningRow {
            config: name,
            coverage: mean_of(runs, Metrics::coverage),
            prefetch_refs_pki: mean_of(runs, |m| {
                m.prefetch_walk_refs() as f64 * 1000.0 / m.instructions as f64
            }),
        })
        .collect();
    TuningResult { rows }
}

impl fmt::Display for TuningResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "§6.1.3 configuration study + ablations")?;
        writeln!(
            f,
            "{:<26} {:>9} {:>14}",
            "config", "coverage", "pf refs/kinstr"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<26} {:>8.1}% {:>14.2}",
                r.config,
                r.coverage * 100.0,
                r.prefetch_refs_pki
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
    fn pb_size_matters_and_ablations_behave() {
        let r = run(&Runner::new(4), &Scale::test_long());
        let get = |n: &str| r.row(n).expect(n);
        // Bigger PBs help (the paper: 16/32 entries cost 4–12 % coverage).
        assert!(get("pb-64").coverage >= get("pb-16").coverage - 0.02, "{r}");
        assert!(
            get("pb-128").coverage >= get("pb-64").coverage - 0.02,
            "{r}"
        );
        // SDP-off loses the sequential + spatial component entirely: both
        // the coverage and the background walk traffic drop.
        assert!(
            get("abl: sdp disabled").coverage < get("set-assoc (paper)").coverage - 0.02,
            "{r}"
        );
        assert!(
            get("abl: sdp disabled").prefetch_refs_pki < get("set-assoc (paper)").prefetch_refs_pki,
            "{r}"
        );
    }
}
