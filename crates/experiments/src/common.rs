//! Shared infrastructure for the figure runners: run-length scaling,
//! run options, spec builders for the shapes every figure declares, the
//! one batch shape and its summaries, and table rendering.
//!
//! Every figure module has the same contract: declare its variants, run
//! them as one batch through [`run_variants`] (or its QMM-suite form
//! [`suite_runs`]), and fold each variant's [`RunRecord`]s into its
//! result struct. The spec builders here are the reason figures share
//! cache entries — two figures that need the same baseline produce
//! byte-identical specs and the runner simulates them once.
//!
//! [`RunOptions`] is the one place the `MORRIGAN_*` variables are read
//! and the run-level `figures` flags are parsed; every front end builds
//! its [`Scale`], [`Runner`] and workload cache from it.

use std::sync::Arc;

use morrigan_runner::WorkloadCache;
use morrigan_sim::{Metrics, SamplingConfig, SimConfig, SystemConfig};
use morrigan_types::stats::{geometric_mean, mean};
use morrigan_workloads::ServerWorkloadConfig;

pub use morrigan_runner::{
    morrigan_budget_bits, PrefetcherKind, PrefetcherSpec, RunRecord, RunSpec, Runner, WorkloadSpec,
};

/// How much to simulate; [`RunOptions::scale`] builds it from the
/// run options.
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

/// Every run-level setting a front end reads, from the `MORRIGAN_*`
/// variables and the `figures` flags. EXPERIMENTS.md tabulates them.
///
/// [`RunOptions::from_env`] reads each variable once. `figures` lays its
/// flags over that with [`RunOptions::parse_flag`], which feeds a flag's
/// value to the same parser as its variable, and then checks the
/// combination once with [`RunOptions::validate`]. Front ends build what
/// they run from the result: [`RunOptions::scale`],
/// [`RunOptions::runner`] and [`RunOptions::workload_cache`].
///
/// A blank or unset variable leaves its option at the default, and a
/// switch variable takes `1` or `0`. Two options read `0` by spelling:
/// `MORRIGAN_INTERVAL=0` and `MORRIGAN_SAMPLE=0` mean off, while
/// `--interval 0` and `--sample 0` are errors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Start from [`Scale::paper`] instead of [`Scale::quick`]
    /// (`MORRIGAN_FULL`).
    pub full: bool,
    /// Measured instructions per run; warmup is a third of it
    /// (`MORRIGAN_INSTR`).
    pub instr: Option<u64>,
    /// QMM-like workloads, clamped to 1..=45 (`MORRIGAN_WORKLOADS`).
    pub workloads: Option<usize>,
    /// Fig 21's sweep ceiling (`--cores` / `MORRIGAN_CORES`).
    pub cores: Option<usize>,
    /// Fig 21's tenants per core (`--tenants` / `MORRIGAN_TENANTS`).
    pub tenants: Option<usize>,
    /// Worker-pool size, `0` meaning 1; unset uses the host's
    /// parallelism (`MORRIGAN_THREADS`).
    pub threads: Option<usize>,
    /// Narrate each simulation on stderr (`MORRIGAN_VERBOSE`).
    pub verbose: bool,
    /// Interval time-series epoch length in retired instructions
    /// (`--interval` / `MORRIGAN_INTERVAL`).
    pub interval: Option<u64>,
    /// SMARTS sampled-simulation schedule (`--sample` /
    /// `MORRIGAN_SAMPLE`).
    pub sample: Option<SamplingConfig>,
    /// Host threads per multi-core machine; unset auto-sizes
    /// (`--machine-threads` / `MORRIGAN_MACHINE_THREADS`).
    pub machine_threads: Option<usize>,
    /// Generate every workload live, bypassing the trace cache
    /// (`--no-workload-cache` / `MORRIGAN_NO_WORKLOAD_CACHE`).
    pub no_workload_cache: bool,
    /// Resident trace budget in MiB (`MORRIGAN_WORKLOAD_CACHE_MB`).
    pub workload_cache_mb: Option<u64>,
    /// Event-trace path, `.json` or `.jsonl` (`--trace` /
    /// `MORRIGAN_TRACE`).
    pub trace: Option<String>,
    /// Analysis-report path, `.json` (`--explain`).
    pub explain: Option<String>,
    /// One-line top-insight digest per figure on stderr
    /// (`MORRIGAN_DIGEST`).
    pub digest: bool,
}

impl RunOptions {
    /// Reads every `MORRIGAN_*` variable a front end honours, each once.
    ///
    /// # Panics
    ///
    /// Panics naming the variable on a value its parser rejects: a typo
    /// silently falling back to a default would run a different
    /// experiment than the one asked for.
    pub fn from_env() -> Self {
        Self::from_vars(&|name| std::env::var(name).ok())
    }

    /// [`RunOptions::from_env`] over any variable source.
    fn from_vars(var: &dyn Fn(&str) -> Option<String>) -> Self {
        let switch = |name| env_value(var, name, parse_switch).unwrap_or(false);
        RunOptions {
            full: switch("MORRIGAN_FULL"),
            instr: env_value(var, "MORRIGAN_INSTR", count("a measured-instruction count")),
            workloads: env_value(var, "MORRIGAN_WORKLOADS", count("a workload count")),
            cores: env_value(var, "MORRIGAN_CORES", parse_cores),
            tenants: env_value(var, "MORRIGAN_TENANTS", parse_tenants),
            threads: env_value(var, "MORRIGAN_THREADS", count("a worker-thread count")),
            verbose: switch("MORRIGAN_VERBOSE"),
            interval: env_value(var, "MORRIGAN_INTERVAL", |v| match v.parse::<u64>() {
                Ok(0) => Ok(None),
                _ => parse_interval(v).map(Some),
            })
            .flatten(),
            sample: env_value(var, "MORRIGAN_SAMPLE", |v| match v {
                "0" => Ok(None),
                _ => parse_sample(v).map(Some),
            })
            .flatten(),
            machine_threads: env_value(var, "MORRIGAN_MACHINE_THREADS", parse_machine_threads),
            no_workload_cache: switch("MORRIGAN_NO_WORKLOAD_CACHE"),
            workload_cache_mb: env_value(
                var,
                "MORRIGAN_WORKLOAD_CACHE_MB",
                count("a resident budget in MiB"),
            ),
            trace: env_value(var, "MORRIGAN_TRACE", parse_trace),
            explain: None,
            digest: switch("MORRIGAN_DIGEST"),
        }
    }

    /// Lays one `figures` flag over these options. A flag that takes a
    /// value reads it from `args` and parses it with its variable's
    /// parser. Returns `Ok(false)` when `flag` is not a run-option flag,
    /// and an error naming the flag when its value is missing or does
    /// not parse.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--cores" => self.cores = Some(flag_value(flag, args, parse_cores)?),
            "--tenants" => self.tenants = Some(flag_value(flag, args, parse_tenants)?),
            "--interval" => self.interval = Some(flag_value(flag, args, parse_interval)?),
            "--sample" => self.sample = Some(flag_value(flag, args, parse_sample)?),
            "--machine-threads" => {
                self.machine_threads = Some(flag_value(flag, args, parse_machine_threads)?);
            }
            "--no-workload-cache" => self.no_workload_cache = true,
            "--trace" => self.trace = Some(flag_value(flag, args, parse_trace)?),
            "--explain" => self.explain = Some(flag_value(flag, args, parse_explain)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Checks the combination, whichever spelling set each option:
    /// sampled simulation excludes the interval time-series (its epochs
    /// assume full detailed timing), the event trace and the analysis
    /// report (both would omit the fast-forwarded stretches).
    pub fn validate(&self) -> Result<(), String> {
        if self.sample.is_none() {
            return Ok(());
        }
        let conflict = if self.interval.is_some() {
            "--interval / MORRIGAN_INTERVAL: interval epochs assume full detailed timing"
        } else if self.trace.is_some() {
            "--trace / MORRIGAN_TRACE: an event trace of a sampled run would omit the \
             fast-forwarded stretches"
        } else if self.explain.is_some() {
            "--explain: an analysis of a sampled run would omit the fast-forwarded stretches"
        } else {
            return Ok(());
        };
        Err(format!(
            "sampled simulation (--sample / MORRIGAN_SAMPLE) excludes {conflict}"
        ))
    }

    /// The run lengths and sweep sizes: [`Scale::paper`] under `full`,
    /// else [`Scale::quick`], with the set fields laid over it.
    pub fn scale(&self) -> Scale {
        let mut scale = if self.full {
            Scale::paper()
        } else {
            Scale::quick()
        };
        if let Some(n) = self.instr {
            scale.measure = n.max(1);
            scale.warmup = (n / 3).max(1);
        }
        if let Some(n) = self.workloads {
            scale.workloads = n.clamp(1, 45);
        }
        if let Some(n) = self.cores {
            scale.cores = n;
        }
        if let Some(n) = self.tenants {
            scale.tenants = n;
        }
        scale
    }

    /// The runner these options describe, built through its builders.
    ///
    /// # Panics
    ///
    /// Panics when both an interval and a sampling schedule are set;
    /// [`RunOptions::validate`] reports that combination as an error.
    pub fn runner(&self) -> Runner {
        let threads = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        Runner::new(threads)
            .verbose(self.verbose)
            .with_interval(self.interval)
            .with_sampling(self.sample)
            .with_machine_threads(self.machine_threads)
            .with_workload_cache(self.workload_cache())
    }

    /// The workload-trace cache: disabled under `no_workload_cache`,
    /// else in memory, with `workload_cache_mb` as the resident budget
    /// when set.
    pub fn workload_cache(&self) -> WorkloadCache {
        if self.no_workload_cache {
            return WorkloadCache::disabled();
        }
        let cache = WorkloadCache::in_memory();
        match self.workload_cache_mb {
            Some(mb) => cache.with_max_resident_bytes(mb.saturating_mul(1 << 20)),
            None => cache,
        }
    }
}

/// Reads variable `name` from `var` through `parse`: `None` when it is
/// unset or blank, the parsed value otherwise.
///
/// # Panics
///
/// Panics with the variable's name, `parse`'s message and the value
/// when `parse` rejects it.
fn env_value<T>(
    var: &dyn Fn(&str) -> Option<String>,
    name: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Option<T> {
    let value = var(name)?;
    let value = value.trim();
    if value.is_empty() {
        return None;
    }
    match parse(value) {
        Ok(parsed) => Some(parsed),
        Err(expected) => panic!("{name}: {expected}, got {value:?}"),
    }
}

/// Takes `flag`'s value from `args` through `parse`, naming the flag
/// and the value when it is missing or rejected.
fn flag_value<T>(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, String> {
    let value = args
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    parse(&value).map_err(|e| format!("{flag}: {e}, got '{value}'"))
}

/// A switch variable: `1` is on, `0` is off.
fn parse_switch(value: &str) -> Result<bool, String> {
    match value {
        "1" => Ok(true),
        "0" => Ok(false),
        _ => Err("expected 1 or 0".to_string()),
    }
}

/// A plain count; `what` names it in the error.
fn count<T: std::str::FromStr>(what: &'static str) -> impl Fn(&str) -> Result<T, String> {
    move |value| value.parse().map_err(|_| format!("expected {what}"))
}

/// A positive epoch length in retired instructions.
fn parse_interval(value: &str) -> Result<u64, String> {
    match value.trim().parse::<u64>() {
        Ok(0) | Err(_) => {
            Err("expected a positive epoch length in retired instructions".to_string())
        }
        Ok(n) => Ok(n),
    }
}

/// `1` for [`SamplingConfig::default_schedule`], otherwise `detail:skip`.
fn parse_sample(value: &str) -> Result<SamplingConfig, String> {
    match value.trim() {
        "1" => Ok(SamplingConfig::default_schedule()),
        schedule => SamplingConfig::parse(schedule).map_err(|_| {
            "expected 1 (the default schedule) or detail:skip with both sides positive".to_string()
        }),
    }
}

/// A positive host-thread count.
fn parse_machine_threads(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) | Err(_) => Err("expected a positive thread count".to_string()),
        Ok(n) => Ok(n),
    }
}

/// A trace path; its extension selects the export format.
fn parse_trace(value: &str) -> Result<String, String> {
    if value.ends_with(".json") || value.ends_with(".jsonl") {
        Ok(value.to_string())
    } else {
        Err(
            "expected a path ending in .json (Chrome trace_event, for Perfetto) or .jsonl \
             (flat JSON lines)"
                .to_string(),
        )
    }
}

/// A report path; a markdown sibling is written next to it.
fn parse_explain(value: &str) -> Result<String, String> {
    if value.ends_with(".json") {
        Ok(value.to_string())
    } else {
        Err(
            "expected a path ending in .json (the report is JSON; a markdown sibling is \
             written next to it)"
                .to_string(),
        )
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

/// A variant of a figure's sweep: the system every workload runs on and
/// its STLB prefetcher.
pub type Variant = (SystemConfig, PrefetcherSpec);

/// One variant's records, one per workload, in the order the variant
/// listed its specs.
pub type Runs = Vec<Arc<RunRecord>>;

/// The no-prefetch baseline on the default system, the variant every
/// speedup normalizes to. Every figure builds its baseline from this, so
/// the runner's cache simulates it once per workload.
pub fn baseline() -> Variant {
    (SystemConfig::default(), PrefetcherKind::None.into())
}

/// The canonical no-prefetch baseline spec for a workload.
pub fn baseline_spec(cfg: &ServerWorkloadConfig, scale: &Scale) -> RunSpec {
    let (system, prefetcher) = baseline();
    RunSpec::server(cfg, system, scale.sim(), prefetcher)
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

/// Runs every variant's specs as one [`Runner::run_batch`] and returns
/// each variant's records in the order it listed its specs.
///
/// The batch is variant-major, the order the runner journals it and
/// `figures --json` writes it. Collect the record sets into a
/// `Vec<Runs>` or name them with an array pattern,
/// `let [base, mono] = run_variants(..)`; an array of the wrong length
/// panics.
pub fn run_variants<R: TryFrom<Vec<Runs>>>(
    runner: &Runner,
    variants: impl IntoIterator<Item = Vec<RunSpec>>,
) -> R {
    let variants: Vec<Vec<RunSpec>> = variants.into_iter().collect();
    let mut records = runner.run_batch(&variants.concat()).into_iter();
    let runs: Vec<Runs> = variants
        .iter()
        .map(|specs| records.by_ref().take(specs.len()).collect())
        .collect();
    runs.try_into()
        .unwrap_or_else(|_| panic!("one record set per variant"))
}

/// [`run_variants`] over `scale`'s QMM suite: each variant runs every
/// workload of the suite, in suite order.
pub fn suite_runs<R: TryFrom<Vec<Runs>>>(
    runner: &Runner,
    scale: &Scale,
    variants: impl IntoIterator<Item = Variant>,
) -> R {
    let suite = scale.suite();
    let specs = |(system, prefetcher): Variant| -> Vec<RunSpec> {
        let spec = |cfg| RunSpec::server(cfg, system, scale.sim(), prefetcher.clone());
        suite.iter().map(spec).collect()
    };
    run_variants(runner, variants.into_iter().map(specs))
}

/// Geometric-mean speedup of `runs` over `base`, workload by workload.
pub fn geomean_speedup(runs: &[Arc<RunRecord>], base: &[Arc<RunRecord>]) -> f64 {
    let speedups: Vec<f64> = runs
        .iter()
        .zip(base)
        .map(|(run, base)| run.metrics.speedup_over(&base.metrics))
        .collect();
    geometric_mean(&speedups)
}

/// Mean of `metric` over `runs`.
pub fn mean_of(runs: &[Arc<RunRecord>], metric: impl Fn(&Metrics) -> f64) -> f64 {
    let values: Vec<f64> = runs.iter().map(|run| metric(&run.metrics)).collect();
    mean(&values)
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
    fn one_batch_hands_each_variant_its_records_in_spec_order() {
        let scale = Scale {
            warmup: 2_000,
            measure: 6_000,
            ..Scale::test()
        };
        let suite = scale.suite();
        let runner = Runner::new(2);
        let sp: Variant = (SystemConfig::default(), PrefetcherKind::Sp.into());
        let mp: Variant = (SystemConfig::default(), PrefetcherKind::Mp.into());
        let variants = [baseline(), sp, baseline(), mp];
        let [base, sp_runs, again, mp_runs] = suite_runs(&runner, &scale, variants.clone());
        let journal = runner.journal_since(0);
        for ((system, prefetcher), runs) in variants.iter().zip([&base, &sp_runs, &again, &mp_runs])
        {
            let specs: Vec<RunSpec> = suite
                .iter()
                .map(|cfg| RunSpec::server(cfg, *system, scale.sim(), prefetcher.clone()))
                .collect();
            let got: Vec<RunSpec> = runs.iter().map(|run| run.spec.clone()).collect();
            assert_eq!(got, specs);
        }
        // The repeated baseline variant is simulated once.
        assert_eq!(runner.sims_executed(), 3 * suite.len() as u64);
        assert!(base.iter().zip(&again).all(|(a, b)| Arc::ptr_eq(a, b)));
        // The journal, which `figures --json` writes, is variant-major.
        let batch = [&base[..], &sp_runs, &again, &mp_runs].concat();
        assert_eq!(journal.len(), batch.len());
        assert!(journal.iter().zip(&batch).all(|(a, b)| Arc::ptr_eq(a, b)));

        // Variants of different lengths split where each one ends.
        let [one, two] = run_variants(
            &runner,
            [
                vec![sp_runs[1].spec.clone()],
                vec![base[0].spec.clone(), sp_runs[0].spec.clone()],
            ],
        );
        assert!(Arc::ptr_eq(&one[0], &sp_runs[1]));
        assert!(Arc::ptr_eq(&two[0], &base[0]) && Arc::ptr_eq(&two[1], &sp_runs[0]));
    }

    #[test]
    #[should_panic(expected = "one record set per variant")]
    fn naming_the_wrong_number_of_variants_panics() {
        let [_only]: [Runs; 1] = run_variants(&Runner::new(1), [Vec::new(), Vec::new()]);
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

    /// Options read from `vars` alone, as if they were the environment.
    fn options(vars: &[(&str, &str)]) -> RunOptions {
        RunOptions::from_vars(&|name| {
            vars.iter()
                .find(|(var, _)| *var == name)
                .map(|(_, value)| value.to_string())
        })
    }

    /// The panic message reading `vars` aborts with.
    fn abort_message(vars: &[(&str, &str)]) -> String {
        let aborted = std::panic::catch_unwind(|| options(vars));
        *aborted
            .expect_err("must abort")
            .downcast::<String>()
            .unwrap()
    }

    /// Options with `flags` laid over `vars`, then validated.
    fn with_flags(vars: &[(&str, &str)], flags: &[&str]) -> Result<RunOptions, String> {
        let mut opts = options(vars);
        let mut args = flags.iter().map(|f| f.to_string());
        while let Some(flag) = args.next() {
            assert!(opts.parse_flag(&flag, &mut args)?, "{flag} is a run option");
        }
        opts.validate()?;
        Ok(opts)
    }

    #[test]
    fn every_variable_is_read_once() {
        let read = std::cell::RefCell::new(Vec::new());
        RunOptions::from_vars(&|name| {
            read.borrow_mut().push(name.to_string());
            None
        });
        let mut read = read.into_inner();
        let total = read.len();
        read.sort();
        read.dedup();
        assert_eq!(read.len(), total, "a variable was read twice");
        assert_eq!(total, 14);
        assert!(read.iter().all(|name| name.starts_with("MORRIGAN_")));
        assert!(
            !read.contains(&"MORRIGAN_AUDIT".to_string()),
            "the sim reads it"
        );
    }

    #[test]
    fn unset_options_give_the_quick_in_memory_profile() {
        let opts = options(&[]);
        assert_eq!(opts, RunOptions::default());
        assert_eq!(opts.scale(), Scale::quick());
        assert!(opts.workload_cache().enabled());
        let runner = opts.runner();
        assert_eq!((runner.interval(), runner.sampling()), (None, None));
        assert_eq!(runner.machine_threads(), None);
    }

    #[test]
    fn scale_variables_override_the_profile() {
        assert_eq!(options(&[("MORRIGAN_FULL", "1")]).scale(), Scale::paper());
        assert_eq!(options(&[("MORRIGAN_FULL", "0")]).scale(), Scale::quick());
        let scale = options(&[
            ("MORRIGAN_INSTR", " 90000 "),
            ("MORRIGAN_WORKLOADS", "99"),
            ("MORRIGAN_CORES", "8"),
            ("MORRIGAN_TENANTS", "3"),
        ])
        .scale();
        assert_eq!((scale.warmup, scale.measure), (30_000, 90_000));
        assert_eq!((scale.workloads, scale.cores, scale.tenants), (45, 8, 3));
    }

    #[test]
    fn switches_accept_one_zero_or_blank() {
        for name in [
            "MORRIGAN_FULL",
            "MORRIGAN_VERBOSE",
            "MORRIGAN_NO_WORKLOAD_CACHE",
            "MORRIGAN_DIGEST",
        ] {
            for (value, on) in [("1", true), (" 1 ", true), ("0", false), ("", false)] {
                let opts = options(&[(name, value)]);
                let read = [opts.full, opts.verbose, opts.no_workload_cache, opts.digest];
                assert_eq!(read.iter().filter(|&&b| b).count(), usize::from(on));
            }
            for bad in ["true", "yes", "on", "2", "y"] {
                let message = abort_message(&[(name, bad)]);
                assert!(message.starts_with(name), "{message}");
            }
        }
    }

    #[test]
    fn thread_env_parsing() {
        assert_eq!(options(&[]).runner().threads(), {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        });
        let threads = |v| options(&[("MORRIGAN_THREADS", v)]).runner().threads();
        assert_eq!(threads("3"), 3);
        assert_eq!(threads(" 12 "), 12);
        assert_eq!(threads("0"), 1);
        assert_eq!(options(&[("MORRIGAN_THREADS", "")]).threads, None);
    }

    #[test]
    #[should_panic(expected = "MORRIGAN_THREADS")]
    fn malformed_thread_env_aborts() {
        options(&[("MORRIGAN_THREADS", "lots")]);
    }

    #[test]
    fn interval_env_parsing() {
        let interval = |v| options(&[("MORRIGAN_INTERVAL", v)]).interval;
        assert_eq!(interval(""), None);
        assert_eq!(interval("0"), None);
        assert_eq!(interval(" 10000 "), Some(10_000));
    }

    #[test]
    #[should_panic(expected = "MORRIGAN_INTERVAL")]
    fn malformed_interval_env_aborts() {
        options(&[("MORRIGAN_INTERVAL", "10k")]);
    }

    #[test]
    fn machine_thread_env_parsing() {
        let width = |v| options(&[("MORRIGAN_MACHINE_THREADS", v)]).machine_threads;
        assert_eq!(width(""), None);
        assert_eq!(width(" 4 "), Some(4));
        assert_eq!(width("1"), Some(1));
    }

    #[test]
    #[should_panic(expected = "MORRIGAN_MACHINE_THREADS")]
    fn malformed_machine_thread_env_aborts() {
        options(&[("MORRIGAN_MACHINE_THREADS", "fast")]);
    }

    #[test]
    #[should_panic(expected = "MORRIGAN_MACHINE_THREADS")]
    fn zero_machine_thread_env_aborts() {
        options(&[("MORRIGAN_MACHINE_THREADS", "0")]);
    }

    #[test]
    fn flags_and_variables_share_a_parser() {
        let pairs: [(&str, &str, &str); 6] = [
            ("--cores", "MORRIGAN_CORES", "4"),
            ("--tenants", "MORRIGAN_TENANTS", "3"),
            ("--interval", "MORRIGAN_INTERVAL", "10000"),
            ("--sample", "MORRIGAN_SAMPLE", "12500:37500"),
            ("--machine-threads", "MORRIGAN_MACHINE_THREADS", "2"),
            ("--trace", "MORRIGAN_TRACE", "t.jsonl"),
        ];
        for (flag, var, value) in pairs {
            assert_eq!(
                with_flags(&[], &[flag, value]),
                Ok(options(&[(var, value)]))
            );
        }
        assert_eq!(
            with_flags(&[], &["--no-workload-cache"]),
            Ok(options(&[("MORRIGAN_NO_WORKLOAD_CACHE", "1")]))
        );
        assert!(!options(&[("MORRIGAN_NO_WORKLOAD_CACHE", "1")])
            .workload_cache()
            .enabled());
        assert_eq!(
            options(&[("MORRIGAN_SAMPLE", "1")]).sample,
            Some(SamplingConfig::default_schedule())
        );
        // A flag overrides its own variable.
        let opts = with_flags(&[("MORRIGAN_INTERVAL", "5000")], &["--interval", "10000"]);
        assert_eq!(opts.unwrap().interval, Some(10_000));
    }

    #[test]
    fn flags_reject_what_their_variables_reject() {
        for (flag, var, value) in [
            ("--cores", "MORRIGAN_CORES", "3"),
            ("--tenants", "MORRIGAN_TENANTS", "9"),
            ("--interval", "MORRIGAN_INTERVAL", "10k"),
            ("--sample", "MORRIGAN_SAMPLE", "a:b"),
            ("--machine-threads", "MORRIGAN_MACHINE_THREADS", "0"),
            ("--trace", "MORRIGAN_TRACE", "t.txt"),
        ] {
            let error = with_flags(&[], &[flag, value]).unwrap_err();
            assert!(error.starts_with(flag) && error.contains(value), "{error}");
            let message = abort_message(&[(var, value)]);
            assert!(
                message.starts_with(var) && message.contains(value),
                "{message}"
            );
        }
        assert!(with_flags(&[], &["--explain", "why.md"]).is_err());
        let missing = with_flags(&[], &["--interval"]).unwrap_err();
        assert!(missing.contains("requires a value"), "{missing}");
    }

    #[test]
    fn zero_is_off_for_variables_but_an_error_for_flags() {
        let off = options(&[("MORRIGAN_INTERVAL", "0"), ("MORRIGAN_SAMPLE", "0")]);
        assert_eq!((off.interval, off.sample), (None, None));
        assert!(with_flags(&[], &["--interval", "0"]).is_err());
        assert!(with_flags(&[], &["--sample", "0"]).is_err());
    }

    #[test]
    fn sampling_excludes_interval_trace_and_explain_whichever_spelling() {
        let sample = ("MORRIGAN_SAMPLE", "1");
        for (vars, flags) in [
            (vec![sample, ("MORRIGAN_INTERVAL", "10000")], vec![]),
            (vec![sample], vec!["--interval", "10000"]),
            (vec![("MORRIGAN_INTERVAL", "10000")], vec!["--sample", "1"]),
            (vec![], vec!["--sample", "1", "--interval", "10000"]),
            (vec![sample, ("MORRIGAN_TRACE", "t.json")], vec![]),
            (vec![sample], vec!["--trace", "t.json"]),
            (vec![("MORRIGAN_TRACE", "t.json")], vec!["--sample", "1"]),
            (vec![sample], vec!["--explain", "why.json"]),
        ] {
            let error = with_flags(&vars, &flags).unwrap_err();
            assert!(error.starts_with("sampled simulation"), "{error}");
        }
        assert!(with_flags(&[sample], &[]).is_ok());
        assert!(with_flags(&[("MORRIGAN_SAMPLE", "0")], &["--interval", "10000"]).is_ok());
    }

    #[test]
    fn workload_cache_variables_configure_the_cache() {
        let opts = options(&[("MORRIGAN_WORKLOAD_CACHE_MB", "64")]);
        assert_eq!(opts.workload_cache_mb, Some(64));
        assert!(opts.workload_cache().enabled());
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
