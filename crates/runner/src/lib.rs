//! Declarative job-graph experiment runner.
//!
//! The experiment layer describes *what* to simulate as plain values —
//! [`RunSpec`]s pairing a workload, a [`SystemConfig`], a [`SimConfig`],
//! and a prefetcher description — and this crate decides *how*: a
//! [`Runner`] executes spec batches on a `std::thread` worker pool and
//! memoizes every result in a content-keyed cache, so a spec shared by
//! several figures (the no-prefetch baseline, the default Morrigan
//! point) is simulated exactly once per invocation.
//!
//! ```
//! use morrigan_runner::{PrefetcherKind, Runner, RunSpec};
//! use morrigan_sim::{SimConfig, SystemConfig};
//! use morrigan_workloads::ServerWorkloadConfig;
//!
//! let runner = Runner::new(4);
//! let workload = ServerWorkloadConfig::qmm_like("doc", 1);
//! let sim = SimConfig { warmup_instructions: 10_000, measure_instructions: 30_000 };
//! let specs = [
//!     RunSpec::server(&workload, SystemConfig::default(), sim, PrefetcherKind::None),
//!     RunSpec::server(&workload, SystemConfig::default(), sim, PrefetcherKind::Morrigan),
//! ];
//! let records = runner.run_batch(&specs);
//! assert!(records[1].metrics.speedup_over(&records[0].metrics) > 0.0);
//! ```
//!
//! # Determinism
//!
//! Results are bitwise-identical regardless of worker count: every job
//! owns its simulator, and batch output is keyed by spec, never by
//! completion order. The worker count ([`Runner::new`];
//! `MORRIGAN_THREADS` through the experiments crate's `RunOptions`,
//! which reads every run-level variable) only changes wall-clock time.
//!
//! [`SystemConfig`]: morrigan_sim::SystemConfig
//! [`SimConfig`]: morrigan_sim::SimConfig

#![forbid(unsafe_code)]

pub mod analysis;
pub mod json;
pub mod jsonval;
mod pin;
mod runner;
mod spec;
mod workload_cache;

pub use analysis::{
    digest_record, explain_diff, first_record, AnalysisReport, ComponentReport, CumulativeStats,
    HistReport, IripSnapshot, LawCheck, MachineReport, MissAnatomy, RecordDigest, ANALYSIS_SCHEMA,
};
pub use pin::{single_core_pin_document, single_core_pin_specs};
pub use runner::Runner;
pub use spec::{
    morrigan_budget_bits, Execution, Observer, PrefetcherKind, PrefetcherSpec, RunRecord, RunSpec,
    WorkloadSpec,
};
pub use workload_cache::{WorkloadCache, WorkloadCacheStats};
