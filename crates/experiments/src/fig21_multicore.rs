//! Fig 21 (extension): Morrigan on the N-core machine.
//!
//! The paper evaluates one core; this figure family asks how its result
//! survives multi-core, multi-process reality. Each row runs a machine
//! of N cores — every core time-sharing a mix of QMM tenants in distinct
//! ASID-fused address spaces — under the contended topology: one shared
//! sharded LLC, one machine-wide STLB all cores compete for, and
//! periodic TLB-shootdown traffic from each core's unmap schedule. Rows
//! sweep the core count (1/2/4/8, bounded by `Scale::cores`) crossed
//! with the tenant mix (solo vs. `Scale::tenants` tenants per core).
//!
//! Reported per row: aggregate IPC (summed instructions over makespan
//! cycles) for the baseline and Morrigan, the speedup, Morrigan's
//! aggregate coverage, the per-core IPC spread (load balance), and the
//! machine's shootdown ledger.

use std::fmt;

use morrigan_sim::{SystemConfig, TopologyConfig};

use crate::common::{PrefetcherKind, RunSpec, Runner, Scale};

/// Context-switch quantum for every tenant mix, in instructions: long
/// enough that a tenant warms its working set, short enough that each
/// core switches many times per measurement window.
pub const SCHEDULE_QUANTUM: u64 = 50_000;

/// Per-core shootdown interval, in retired instructions.
pub const SHOOTDOWN_INTERVAL: u64 = 100_000;

/// One (core count, tenant count) point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig21Row {
    /// Cores in the machine.
    pub cores: usize,
    /// Tenants per core.
    pub tenants: usize,
    /// Aggregate IPC without prefetching.
    pub baseline_ipc: f64,
    /// Aggregate IPC with one Morrigan instance per core.
    pub morrigan_ipc: f64,
    /// `morrigan_ipc / baseline_ipc`.
    pub speedup: f64,
    /// Morrigan's aggregate iSTLB miss coverage.
    pub coverage: f64,
    /// Slowest core's IPC over fastest core's IPC in the Morrigan run
    /// (1.0 = perfectly balanced).
    pub balance: f64,
    /// Shootdowns issued machine-wide during the Morrigan run.
    pub shootdowns_issued: u64,
}

/// The figure's data: one row per swept (cores, tenants) machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig21Result {
    /// Rows in (tenants, cores) order.
    pub rows: Vec<Fig21Row>,
}

/// Core counts swept: powers of two up to and including `max`.
pub fn core_sweep(max: usize) -> Vec<usize> {
    (0..)
        .map(|p| 1usize << p)
        .take_while(|&c| c <= max)
        .collect()
}

/// The contended machine topology a row runs under.
fn topology(cores: usize) -> TopologyConfig {
    TopologyConfig {
        cores,
        shared_stlb: true,
        llc_shards: 4,
        shootdown_interval: Some(SHOOTDOWN_INTERVAL),
    }
}

/// The spec of one machine of the sweep: `cores` cores of `tenants`
/// tenants each under the contended topology, with `prefetcher` on
/// every core.
pub fn machine_spec(
    cores: usize,
    tenants: usize,
    scale: &Scale,
    prefetcher: PrefetcherKind,
) -> RunSpec {
    let system = SystemConfig {
        topology: topology(cores),
        ..SystemConfig::default()
    };
    RunSpec::multi(
        morrigan_workloads::suites::tenant_mixes(cores, tenants),
        SCHEDULE_QUANTUM,
        system,
        scale.sim(),
        prefetcher,
    )
}

/// Runs the experiment.
pub fn run(runner: &Runner, scale: &Scale) -> Fig21Result {
    let cores = core_sweep(scale.cores);
    let tenant_counts: Vec<usize> = if scale.tenants > 1 {
        vec![1, scale.tenants]
    } else {
        vec![1]
    };

    let mut specs = Vec::new();
    for &t in &tenant_counts {
        for &c in &cores {
            specs.push(machine_spec(c, t, scale, PrefetcherKind::None));
            specs.push(machine_spec(c, t, scale, PrefetcherKind::Morrigan));
        }
    }
    let records = runner.run_batch(&specs);

    let mut rows = Vec::new();
    let mut it = records.iter();
    for &t in &tenant_counts {
        for &c in &cores {
            let base = it.next().expect("batch is (base, morrigan) per point");
            let morr = it.next().expect("batch is (base, morrigan) per point");
            let summary = morr
                .machine
                .as_ref()
                .expect("multi records carry a machine summary");
            let per_core_ipc: Vec<f64> = summary.per_core.iter().map(|m| m.ipc()).collect();
            let fastest = per_core_ipc.iter().cloned().fold(f64::MIN, f64::max);
            let slowest = per_core_ipc.iter().cloned().fold(f64::MAX, f64::min);
            rows.push(Fig21Row {
                cores: c,
                tenants: t,
                baseline_ipc: base.metrics.ipc(),
                morrigan_ipc: morr.metrics.ipc(),
                speedup: morr.metrics.speedup_over(&base.metrics),
                coverage: morr.metrics.coverage(),
                balance: slowest / fastest,
                shootdowns_issued: summary.shootdowns_issued,
            });
        }
    }
    Fig21Result { rows }
}

impl fmt::Display for Fig21Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 21: Morrigan vs core count and tenant mix")?;
        writeln!(
            f,
            "{:>5} {:>7} {:>9} {:>9} {:>8} {:>9} {:>8} {:>11}",
            "cores",
            "tenants",
            "base-ipc",
            "morr-ipc",
            "speedup",
            "coverage",
            "balance",
            "shootdowns"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>5} {:>7} {:>9.3} {:>9.3} {:>+7.2}% {:>8.1}% {:>8.2} {:>11}",
                r.cores,
                r.tenants,
                r.baseline_ipc,
                r.morrigan_ipc,
                (r.speedup - 1.0) * 100.0,
                r.coverage * 100.0,
                r.balance,
                r.shootdowns_issued,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_sweep_is_powers_of_two() {
        assert_eq!(core_sweep(1), vec![1]);
        assert_eq!(core_sweep(4), vec![1, 2, 4]);
        assert_eq!(core_sweep(8), vec![1, 2, 4, 8]);
        assert_eq!(core_sweep(6), vec![1, 2, 4]);
    }

    #[test]
    fn multicore_rows_are_sane() {
        let scale = Scale::test();
        let r = run(&Runner::new(4), &scale);
        assert_eq!(r.rows.len(), core_sweep(scale.cores).len() * 2);
        for row in &r.rows {
            assert!(row.baseline_ipc > 0.0, "{row:?}");
            assert!(row.morrigan_ipc > 0.0, "{row:?}");
            assert!((0.0..=1.0).contains(&row.coverage), "{row:?}");
            assert!(
                row.balance > 0.0 && row.balance <= 1.0 + 1e-9,
                "balance is slowest/fastest: {row:?}"
            );
            assert!(
                row.shootdowns_issued > 0,
                "the unmap schedule must fire at test scale: {row:?}"
            );
        }
        // Solo rows precede multi-tenant rows; same core counts in each.
        let solo = &r.rows[..r.rows.len() / 2];
        assert!(solo.iter().all(|row| row.tenants == 1));
    }
}
