//! Shared infrastructure for the figure runners: run-length scaling,
//! spec builders for the shapes every figure declares, and table
//! rendering.
//!
//! Every figure module has the same contract: build a batch of
//! [`RunSpec`]s, hand it to the shared [`Runner`], and fold the returned
//! [`RunRecord`]s into its result struct. The spec builders here are the
//! reason figures share cache entries — two figures that need the same
//! baseline produce byte-identical specs and the runner simulates them
//! once.

use morrigan_runner::env_value;
use morrigan_sim::{SimConfig, SystemConfig};
use morrigan_workloads::ServerWorkloadConfig;

pub use morrigan_runner::{
    morrigan_budget_bits, PrefetcherKind, PrefetcherSpec, RunRecord, RunSpec, Runner, WorkloadSpec,
};

/// How much to simulate. See the crate docs for the environment knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Warmup instructions per run.
    pub warmup: u64,
    /// Measured instructions per run.
    pub measure: u64,
    /// Number of QMM-like workloads (≤ 45).
    pub workloads: usize,
    /// Number of SMT pairs for Fig 20.
    pub smt_pairs: usize,
    /// Largest core count the Fig 21 machine sweep reaches (the sweep is
    /// the powers of two up to this; `--cores` / `MORRIGAN_CORES`).
    pub cores: usize,
    /// Tenants per core in Fig 21's multi-tenant rows (`--tenants` /
    /// `MORRIGAN_TENANTS`).
    pub tenants: usize,
}

impl Scale {
    /// The default profile: fast but shape-faithful.
    pub fn quick() -> Self {
        Self {
            warmup: 1_000_000,
            measure: 3_000_000,
            workloads: 10,
            smt_pairs: 5,
            cores: 4,
            tenants: 2,
        }
    }

    /// The paper's full profile: 50 M + 100 M × 45 workloads, 50 pairs.
    pub fn paper() -> Self {
        Self {
            warmup: 50_000_000,
            measure: 100_000_000,
            workloads: 45,
            smt_pairs: 50,
            cores: 8,
            tenants: 3,
        }
    }

    /// A tiny profile for unit tests.
    pub fn test() -> Self {
        Self {
            warmup: 150_000,
            measure: 400_000,
            workloads: 2,
            smt_pairs: 1,
            cores: 2,
            tenants: 2,
        }
    }

    /// A longer test profile for assertions that need the prediction
    /// tables trained (speedup orderings, budget sweeps). Tests using it
    /// are `#[ignore]`d in debug builds; run them with
    /// `cargo test --release`.
    pub fn test_long() -> Self {
        Self {
            warmup: 1_000_000,
            measure: 4_000_000,
            workloads: 3,
            smt_pairs: 1,
            cores: 2,
            tenants: 2,
        }
    }

    /// Reads the profile from the environment: `MORRIGAN_FULL=1` selects
    /// [`Scale::paper`]; `MORRIGAN_INSTR` (measured instructions),
    /// `MORRIGAN_WORKLOADS`, `MORRIGAN_CORES` and `MORRIGAN_TENANTS`
    /// override individual fields.
    ///
    /// # Panics
    ///
    /// Panics, naming the variable, on a value that does not parse; the
    /// core and tenant counts must also pass [`parse_cores`] and
    /// [`parse_tenants`], as `--cores` and `--tenants` must.
    pub fn from_env() -> Self {
        let mut scale = if std::env::var("MORRIGAN_FULL").is_ok_and(|v| v == "1") {
            Self::paper()
        } else {
            Self::quick()
        };
        if let Some(n) = env_value("MORRIGAN_INSTR", |v| {
            v.parse::<u64>()
                .map_err(|_| "expected a measured-instruction count".to_string())
        }) {
            scale.measure = n.max(1);
            scale.warmup = (n / 3).max(1);
        }
        if let Some(n) = env_value("MORRIGAN_WORKLOADS", |v| {
            v.parse::<usize>()
                .map_err(|_| "expected a workload count".to_string())
        }) {
            scale.workloads = n.clamp(1, 45);
        }
        if let Some(n) = env_value("MORRIGAN_CORES", parse_cores) {
            scale.cores = n;
        }
        if let Some(n) = env_value("MORRIGAN_TENANTS", parse_tenants) {
            scale.tenants = n;
        }
        scale
    }

    /// The corresponding simulator run configuration.
    pub fn sim(&self) -> SimConfig {
        SimConfig {
            warmup_instructions: self.warmup,
            measure_instructions: self.measure,
        }
    }

    /// The QMM-like suite at this scale.
    pub fn suite(&self) -> Vec<ServerWorkloadConfig> {
        morrigan_workloads::suites::qmm_suite_subset(self.workloads)
    }
}

/// Parses the largest core count Fig 21's machine sweep reaches
/// (`--cores` / `MORRIGAN_CORES`): a power of two in 1..=64, since the
/// sweep is the powers of two up to it, matching the paper extension's
/// 1/2/4/8. The error says what was expected.
pub fn parse_cores(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(n) if n.is_power_of_two() && n <= 64 => Ok(n),
        _ => Err(
            "expected a power of two in 1..=64 (the sweep runs 1, 2, 4, … up to it)".to_string(),
        ),
    }
}

/// Parses Fig 21's tenants per core (`--tenants` / `MORRIGAN_TENANTS`):
/// an integer in 1..=8. The error says what was expected.
pub fn parse_tenants(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(n) if (1..=8).contains(&n) => Ok(n),
        _ => Err("expected an integer in 1..=8 (tenants per core)".to_string()),
    }
}

/// A server-workload spec on the default system — the shape most
/// figures build batches from.
pub fn server_spec(
    cfg: &ServerWorkloadConfig,
    scale: &Scale,
    prefetcher: impl Into<PrefetcherSpec>,
) -> RunSpec {
    RunSpec::server(cfg, SystemConfig::default(), scale.sim(), prefetcher)
}

/// The canonical no-prefetch baseline spec for a workload.
///
/// Every figure that normalizes against the baseline calls this, so the
/// specs are identical across figures and the runner's cache collapses
/// them into one simulation per workload.
pub fn baseline_spec(cfg: &ServerWorkloadConfig, scale: &Scale) -> RunSpec {
    server_spec(cfg, scale, PrefetcherKind::None)
}

/// The miss-stream characterization spec for a workload: no prefetching,
/// `collect_stream_stats` on. Shared by Figures 5–8, which therefore
/// cost one simulation per workload between the four of them.
pub fn miss_stream_spec(cfg: &ServerWorkloadConfig, scale: &Scale) -> RunSpec {
    let mut system = SystemConfig::default();
    system.mmu.collect_stream_stats = true;
    RunSpec::server(cfg, system, scale.sim(), PrefetcherKind::None)
}

/// Per-workload iSTLB miss streams for the suite (no prefetching,
/// collection enabled), shared by the Fig 5–8 characterization: the four
/// figures declare identical specs, so the suite is simulated once for
/// all of them.
pub fn suite_miss_streams(
    runner: &Runner,
    scale: &Scale,
) -> Vec<(String, morrigan_vm::MissStreamStats)> {
    let suite = scale.suite();
    let specs: Vec<RunSpec> = suite
        .iter()
        .map(|cfg| miss_stream_spec(cfg, scale))
        .collect();
    runner
        .run_batch(&specs)
        .iter()
        .zip(&suite)
        .map(|(record, cfg)| {
            let stream = record
                .miss_stream
                .clone()
                .expect("miss_stream_spec sets collect_stream_stats");
            (cfg.name.clone(), stream)
        })
        .collect()
}

/// Renders a two-column table of `(label, value)` rows.
pub fn render_table(title: &str, header: (&str, &str), rows: &[(String, String)]) -> String {
    let mut width = header.0.len();
    for (label, _) in rows {
        width = width.max(label.len());
    }
    let mut out = format!("{title}\n{:<width$}  {}\n", header.0, header.1);
    for (label, value) in rows {
        out.push_str(&format!("{label:<width$}  {value}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_profiles() {
        assert_eq!(Scale::paper().measure, 100_000_000);
        assert_eq!(Scale::paper().workloads, 45);
        assert!(Scale::quick().measure < Scale::paper().measure);
        let s = Scale::test();
        assert!(s.workloads >= 1);
        assert_eq!(s.sim().measure_instructions, s.measure);
    }

    #[test]
    fn shared_specs_are_identical_across_call_sites() {
        let scale = Scale::test();
        let cfg = &scale.suite()[0];
        assert_eq!(baseline_spec(cfg, &scale), baseline_spec(cfg, &scale));
        assert_eq!(
            baseline_spec(cfg, &scale).content_key(),
            server_spec(cfg, &scale, PrefetcherKind::None).content_key()
        );
        assert_ne!(
            baseline_spec(cfg, &scale).content_key(),
            miss_stream_spec(cfg, &scale).content_key(),
            "stream-collection runs are distinct jobs"
        );
    }

    #[test]
    fn core_and_tenant_counts_validate_like_the_flags() {
        assert_eq!(parse_cores(" 8 "), Ok(8));
        for bad in ["0", "3", "128", "many", ""] {
            assert!(parse_cores(bad).is_err(), "cores {bad:?}");
        }
        assert_eq!(parse_tenants("3"), Ok(3));
        for bad in ["0", "9", "two", ""] {
            assert!(parse_tenants(bad).is_err(), "tenants {bad:?}");
        }
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            "T",
            ("name", "value"),
            &[("a".into(), "1".into()), ("longer".into(), "2".into())],
        );
        assert!(t.contains("longer  2"));
        assert!(t.starts_with("T\n"));
    }
}
