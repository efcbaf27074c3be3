//! Declarative descriptions of simulation jobs.
//!
//! A [`RunSpec`] is a pure value: workload configuration(s), system
//! configuration, run length, and a prefetcher *description* (never a
//! built prefetcher). Everything has a lossless `Debug` rendering and is
//! deterministically buildable, which is what lets the
//! [`Runner`](crate::Runner) execute specs on any worker thread and
//! memoize results by content.

use std::time::Instant;

use morrigan::{Morrigan, MorriganConfig};
use morrigan_baselines::{
    ArbitraryStridePrefetcher, AspConfig, DistancePrefetcher, DpConfig, MarkovPrefetcher,
    MorriganMono, MpConfig, SequentialPrefetcher, UnboundedMarkov,
};
use morrigan_obs::{
    AnalysisConfig, AnalysisRecorder, NullRecorder, Phase, PhaseProfile, Recorder, TraceRecorder,
};
use morrigan_sim::{
    ElisionCounters, IntervalSample, Machine, MachineSummary, Metrics, SamplingConfig, SimConfig,
    Simulator, SystemConfig,
};
use morrigan_types::prefetcher::NullPrefetcher;
use morrigan_types::{AuditReport, TlbPrefetcher};
use morrigan_vm::MissStreamStats;
use morrigan_workloads::{
    AsidStream, InstructionStream, ScheduledStream, ServerWorkload, ServerWorkloadConfig,
    SpecWorkload, SpecWorkloadConfig,
};

use crate::analysis::{AnalysisReport, CumulativeStats, IripSnapshot};
use crate::workload_cache::WorkloadCache;

/// Morrigan's prediction-state budget in bits (§6.1.3's 3.76 KB point),
/// used to size the ISO-storage baselines of Fig 15.
pub fn morrigan_budget_bits() -> u64 {
    morrigan::IripConfig::default().storage_bits()
}

/// Every STLB prefetcher the experiments instantiate by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetcherKind {
    /// No prefetching (the baseline).
    None,
    /// Sequential prefetcher, original configuration.
    Sp,
    /// Arbitrary-stride prefetcher, original configuration.
    Asp,
    /// Distance prefetcher, original configuration.
    Dp,
    /// Markov prefetcher, original configuration (128 × 2, LRU).
    Mp,
    /// ASP sized to Morrigan's 3.76 KB budget (Fig 15).
    AspIso,
    /// DP sized to Morrigan's budget.
    DpIso,
    /// MP sized to Morrigan's budget.
    MpIso,
    /// Idealized unbounded MP, two successors per entry (§3.4).
    MpUnbounded2,
    /// Idealized unbounded MP, unlimited successors (§3.4).
    MpUnboundedInf,
    /// Morrigan at the paper's default configuration.
    Morrigan,
    /// Morrigan-mono (§6.3).
    MorriganMono,
    /// Morrigan with doubled tables for SMT (§6.6).
    MorriganSmt,
}

impl PrefetcherKind {
    /// Short name for report rows.
    pub fn name(self) -> &'static str {
        match self {
            PrefetcherKind::None => "baseline",
            PrefetcherKind::Sp => "sp",
            PrefetcherKind::Asp => "asp",
            PrefetcherKind::Dp => "dp",
            PrefetcherKind::Mp => "mp",
            PrefetcherKind::AspIso => "asp-iso",
            PrefetcherKind::DpIso => "dp-iso",
            PrefetcherKind::MpIso => "mp-iso",
            PrefetcherKind::MpUnbounded2 => "mp-unbounded-2",
            PrefetcherKind::MpUnboundedInf => "mp-unbounded-inf",
            PrefetcherKind::Morrigan => "morrigan",
            PrefetcherKind::MorriganMono => "morrigan-mono",
            PrefetcherKind::MorriganSmt => "morrigan-smt",
        }
    }

    /// Instantiates the prefetcher.
    pub fn build(self) -> Box<dyn TlbPrefetcher> {
        let budget = morrigan_budget_bits();
        match self {
            PrefetcherKind::None => Box::new(NullPrefetcher),
            PrefetcherKind::Sp => Box::new(SequentialPrefetcher::new()),
            PrefetcherKind::Asp => Box::new(ArbitraryStridePrefetcher::new(AspConfig::original())),
            PrefetcherKind::Dp => Box::new(DistancePrefetcher::new(DpConfig::original())),
            PrefetcherKind::Mp => Box::new(MarkovPrefetcher::new(MpConfig::original())),
            PrefetcherKind::AspIso => Box::new(ArbitraryStridePrefetcher::new(
                AspConfig::sized_to_bits(budget),
            )),
            PrefetcherKind::DpIso => {
                Box::new(DistancePrefetcher::new(DpConfig::sized_to_bits(budget)))
            }
            PrefetcherKind::MpIso => {
                Box::new(MarkovPrefetcher::new(MpConfig::sized_to_bits(budget)))
            }
            PrefetcherKind::MpUnbounded2 => Box::new(UnboundedMarkov::two_successors()),
            PrefetcherKind::MpUnboundedInf => Box::new(UnboundedMarkov::infinite_successors()),
            PrefetcherKind::Morrigan => Box::new(Morrigan::new(MorriganConfig::default())),
            PrefetcherKind::MorriganMono => Box::new(MorriganMono::new()),
            PrefetcherKind::MorriganSmt => Box::new(Morrigan::new(MorriganConfig::smt())),
        }
    }
}

/// A prefetcher *description*: either a named configuration or a fully
/// custom Morrigan config (budget sweeps, replacement-policy studies,
/// ablations).
#[derive(Debug, Clone, PartialEq)]
pub enum PrefetcherSpec {
    /// One of the named configurations.
    Kind(PrefetcherKind),
    /// Morrigan with an arbitrary configuration.
    Morrigan(MorriganConfig),
}

impl PrefetcherSpec {
    /// Short name for report rows.
    pub fn name(&self) -> &'static str {
        match self {
            PrefetcherSpec::Kind(k) => k.name(),
            PrefetcherSpec::Morrigan(_) => "morrigan-custom",
        }
    }

    /// Instantiates the prefetcher.
    pub fn build(&self) -> Box<dyn TlbPrefetcher> {
        match self {
            PrefetcherSpec::Kind(k) => k.build(),
            PrefetcherSpec::Morrigan(cfg) => Box::new(Morrigan::new(cfg.clone())),
        }
    }
}

impl From<PrefetcherKind> for PrefetcherSpec {
    fn from(kind: PrefetcherKind) -> Self {
        PrefetcherSpec::Kind(kind)
    }
}

impl From<MorriganConfig> for PrefetcherSpec {
    fn from(cfg: MorriganConfig) -> Self {
        PrefetcherSpec::Morrigan(cfg)
    }
}

/// Which instruction stream(s) a job simulates.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// One QMM-class synthetic server workload on a single-threaded core.
    Server(ServerWorkloadConfig),
    /// One SPEC-CPU-like workload on a single-threaded core.
    Spec(SpecWorkloadConfig),
    /// Server workloads colocated on one SMT core (§5, §6.6).
    Smt(Vec<ServerWorkloadConfig>),
    /// An N-core machine, each core time-sharing a mix of server tenants
    /// in distinct ASID-fused address spaces (the core-count scaling
    /// study). `mixes[c]` is core `c`'s tenant mix; ASIDs are assigned
    /// 1, 2, … in (core, tenant) order. `quantum` is the context-switch
    /// schedule: instructions a tenant issues before the core rotates to
    /// its next tenant.
    Multi {
        /// Per-core tenant mixes; the length must equal the system's
        /// `topology.cores`.
        mixes: Vec<Vec<ServerWorkloadConfig>>,
        /// Round-robin context-switch quantum, in instructions.
        quantum: u64,
    },
}

impl WorkloadSpec {
    /// Report name: the workload's name, `a+b` for SMT pairs, or
    /// `a+b|c+d` for multi-core machines (cores joined by `|`, a core's
    /// tenants by `+`).
    pub fn name(&self) -> String {
        match self {
            WorkloadSpec::Server(cfg) => cfg.name.clone(),
            WorkloadSpec::Spec(cfg) => cfg.name.clone(),
            WorkloadSpec::Smt(cfgs) => cfgs
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>()
                .join("+"),
            WorkloadSpec::Multi { mixes, .. } => mixes
                .iter()
                .map(|mix| {
                    mix.iter()
                        .map(|c| c.name.as_str())
                        .collect::<Vec<_>>()
                        .join("+")
                })
                .collect::<Vec<_>>()
                .join("|"),
        }
    }

    /// Number of cores this workload occupies (1 for every single-core
    /// shape; the mix count for [`WorkloadSpec::Multi`]).
    pub fn cores(&self) -> usize {
        match self {
            WorkloadSpec::Multi { mixes, .. } => mixes.len(),
            _ => 1,
        }
    }

    /// The instruction streams this workload runs on: one per hardware
    /// thread for the single-core shapes, one per core for
    /// [`WorkloadSpec::Multi`]. Every member stream is served through
    /// `cache`: a replay cursor over a materialized trace when the cache
    /// can provide one, the live generator otherwise (a
    /// [`WorkloadCache::disabled`] cache always generates live).
    ///
    /// A member's key is its own config's `Debug` rendering (lossless,
    /// the same convention as [`RunSpec::content_key`]; the struct name
    /// in that rendering keeps server and SPEC configs from colliding),
    /// so SMT pairs share traces with each other *and* with solo runs of
    /// the same config at the same scale. `trace_len` is the capture
    /// length (warmup + measure + replay slack); an SMT member can
    /// consume up to the whole run if the round-robin degenerates, so
    /// each member's trace carries the full length.
    ///
    /// A machine core gets a [`ScheduledStream`] rotating through its
    /// tenants, every tenant wrapped in an [`AsidStream`] so distinct
    /// processes occupy disjoint ASID-fused address spaces. The cached
    /// tenant trace carries the ASID-tagged content, so its key must
    /// (and does) include the ASID and the schedule quantum: two
    /// machines differing only in schedule never share a cache slot.
    fn build_streams(
        &self,
        trace_len: u64,
        cache: &WorkloadCache,
    ) -> Vec<Box<dyn InstructionStream>> {
        let server = |cfg: &ServerWorkloadConfig| {
            cache.stream_for(&format!("{cfg:?}"), trace_len, || {
                Box::new(ServerWorkload::new(cfg.clone()))
            })
        };
        match self {
            WorkloadSpec::Server(cfg) => vec![server(cfg)],
            WorkloadSpec::Spec(cfg) => {
                vec![cache.stream_for(&format!("{cfg:?}"), trace_len, || {
                    Box::new(SpecWorkload::new(cfg.clone()))
                })]
            }
            WorkloadSpec::Smt(cfgs) => cfgs.iter().map(server).collect(),
            WorkloadSpec::Multi { mixes, quantum } => {
                let mut next_asid: u16 = 1;
                mixes
                    .iter()
                    .map(|mix| {
                        let tenants = mix
                            .iter()
                            .map(|cfg| {
                                let asid = next_asid;
                                next_asid += 1;
                                cache.stream_for(
                                    &format!("{cfg:?}#asid={asid}#quantum={quantum}"),
                                    trace_len,
                                    || {
                                        Box::new(AsidStream::new(
                                            ServerWorkload::new(cfg.clone()),
                                            asid,
                                        ))
                                    },
                                )
                            })
                            .collect();
                        Box::new(ScheduledStream::new(tenants, *quantum))
                            as Box<dyn InstructionStream>
                    })
                    .collect()
            }
        }
    }
}

/// What observes a run besides its always-on counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observer {
    /// Nothing: the simulator carries the no-op recorder.
    None,
    /// A ring-buffer [`TraceRecorder`] of `capacity` events, returned
    /// next to the record (ready for `morrigan_obs::to_chrome_trace` /
    /// `to_jsonl`). Single-core specs only: the machine has no event
    /// recorder.
    Trace {
        /// Events the ring retains before it overwrites the oldest.
        capacity: usize,
    },
    /// The analysis engine; its [`AnalysisReport`] rides the record's
    /// `analysis`. Single-core specs stream every event through an
    /// [`AnalysisRecorder`](morrigan_obs::AnalysisRecorder) (it never
    /// drops, so the diagnosis is always complete) and reconcile it
    /// against the run's *cumulative* structure counters: the trace
    /// covers warmup and measurement alike, so the laws target the
    /// whole-run `MmuStats`/`WalkerStats`/`PbStats`, not the
    /// measurement-window deltas. When the prefetcher is a Morrigan, its
    /// IRIP/SDP counters join the laws via the `as_any` downcast.
    /// Multi-core reports are counter-based, built from the
    /// width-invariant [`MachineSummary`] (per-core interference
    /// attribution), so they are byte-identical at any machine width.
    Analysis,
}

/// How [`RunSpec::execute_with`] runs a spec: the run-level settings a
/// [`Runner`](crate::Runner) applies to every spec it executes, and the
/// observer.
pub struct Execution<'a> {
    /// Interval-sampler epoch length. `Some(n)` gives a single-core
    /// record one [`IntervalSample`] per `n` retired instructions of the
    /// window; a multi-core record keeps `intervals` empty and carries
    /// each core's series in its [`MachineSummary`]'s
    /// `per_core_intervals`.
    pub interval: Option<u64>,
    /// SMARTS sampled-simulation schedule for a spec whose own
    /// [`sampling`](RunSpec::sampling) field is unset; a pinned schedule
    /// wins. Only [`RunSpec::execute_cached`] sets it, from its argument,
    /// and every caller passes `None`: a sampled run sets the spec's own
    /// field. It leaves with the sampling engine (ROADMAP item 1), whose
    /// last non-test caller is hostbench.
    pub sampling: Option<SamplingConfig>,
    /// Host threads of a multi-core machine's epoch driver (`None`
    /// auto-sizes to min(cores, available parallelism)); single-core
    /// specs ignore it. [`Execution::new`], and with it every
    /// [`Runner`](crate::Runner) execution, runs machines on one thread;
    /// only [`RunSpec::execute_cached`] takes another width. The epoch
    /// protocol makes records bitwise-identical at any width, so it is
    /// not part of the cache key.
    pub machine_threads: Option<usize>,
    /// Where workload streams come from; [`WorkloadCache::disabled`]
    /// generates every stream live. Replay is sequence-exact (pinned by
    /// the workloads proptests and `runner/tests/workload_cache.rs`), so
    /// the cache changes no deterministic field of the record — metrics,
    /// miss stream, audit, intervals, trace, analysis. Only `phases`
    /// moves: stream construction is booked to [`Phase::TraceBuild`]
    /// (the whole generation cost when a trace is materialized), and
    /// replay shrinks the `workload_gen` bucket. `phases` is wall-clock
    /// and excluded from the record's JSON rendering.
    pub cache: &'a WorkloadCache,
    /// What observes the run.
    pub observer: Observer,
}

impl<'a> Execution<'a> {
    /// No interval time series, no sampling schedule beyond the spec's
    /// own, machines on one thread, no observer; streams through `cache`.
    pub fn new(cache: &'a WorkloadCache) -> Self {
        Execution {
            interval: None,
            sampling: None,
            machine_threads: Some(1),
            cache,
            observer: Observer::None,
        }
    }
}

/// One simulation job, fully described by value.
///
/// Two specs that compare equal produce bitwise-identical [`Metrics`]
/// (the simulator is deterministic), which is what makes the result
/// cache sound: the [`Runner`](crate::Runner) memoizes on the spec's
/// [content key](RunSpec::content_key), never on execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Instruction stream(s) to simulate.
    pub workload: WorkloadSpec,
    /// The simulated system (caches, MMU, core, I-cache prefetcher,
    /// context-switch interval, miss-stream collection flag).
    pub system: SystemConfig,
    /// Warmup + measurement lengths.
    pub sim: SimConfig,
    /// STLB prefetcher description.
    pub prefetcher: PrefetcherSpec,
    /// SMARTS-style sampled-simulation schedule; `None` (the default)
    /// runs full detailed timing. Part of the spec's identity: sampled
    /// and full runs of the same job produce different cycle metrics, so
    /// the [content key](RunSpec::content_key) — derived from the spec's
    /// `Debug` rendering — keeps their cached records apart.
    pub sampling: Option<SamplingConfig>,
}

impl RunSpec {
    /// A single-server-workload spec — the shape most figures use.
    pub fn server(
        cfg: &ServerWorkloadConfig,
        system: SystemConfig,
        sim: SimConfig,
        prefetcher: impl Into<PrefetcherSpec>,
    ) -> Self {
        RunSpec {
            workload: WorkloadSpec::Server(cfg.clone()),
            system,
            sim,
            prefetcher: prefetcher.into(),
            sampling: None,
        }
    }

    /// A SPEC-workload spec.
    pub fn spec_cpu(
        cfg: &SpecWorkloadConfig,
        system: SystemConfig,
        sim: SimConfig,
        prefetcher: impl Into<PrefetcherSpec>,
    ) -> Self {
        RunSpec {
            workload: WorkloadSpec::Spec(cfg.clone()),
            system,
            sim,
            prefetcher: prefetcher.into(),
            sampling: None,
        }
    }

    /// An SMT-pair spec.
    pub fn smt(
        pair: &(ServerWorkloadConfig, ServerWorkloadConfig),
        system: SystemConfig,
        sim: SimConfig,
        prefetcher: impl Into<PrefetcherSpec>,
    ) -> Self {
        RunSpec {
            workload: WorkloadSpec::Smt(vec![pair.0.clone(), pair.1.clone()]),
            system,
            sim,
            prefetcher: prefetcher.into(),
            sampling: None,
        }
    }

    /// A multi-core machine spec: one tenant mix per core, round-robin
    /// context switching every `quantum` instructions, one instance of
    /// `prefetcher` per core. Adjusts `system.topology.cores` to the mix
    /// count so the spec is self-consistent by construction.
    ///
    /// # Panics
    ///
    /// Panics on an empty mix list, an empty per-core mix, or a zero
    /// quantum (the schedule would never advance).
    pub fn multi(
        mixes: Vec<Vec<ServerWorkloadConfig>>,
        quantum: u64,
        mut system: SystemConfig,
        sim: SimConfig,
        prefetcher: impl Into<PrefetcherSpec>,
    ) -> Self {
        assert!(!mixes.is_empty(), "a machine needs at least one core");
        assert!(
            mixes.iter().all(|m| !m.is_empty()),
            "every core needs at least one tenant"
        );
        assert!(quantum > 0, "the context-switch quantum must be positive");
        system.topology.cores = mixes.len();
        RunSpec {
            workload: WorkloadSpec::Multi { mixes, quantum },
            system,
            sim,
            prefetcher: prefetcher.into(),
            sampling: None,
        }
    }

    /// Total instructions stepped when this spec executes: warmup plus
    /// measurement, per core. The runner's MIPS accounting uses this so
    /// multi-core machines are credited for every core they step.
    pub fn instructions_cost(&self) -> u64 {
        (self.sim.warmup_instructions + self.sim.measure_instructions)
            * self.workload.cores() as u64
    }

    /// The content key the result cache memoizes on.
    ///
    /// Derived from the spec's `Debug` rendering: every field of every
    /// component is a plain value whose `Debug` output is lossless (Rust
    /// formats `f64` with shortest round-trip precision), so equal keys
    /// imply equal specs and distinct specs render distinct keys. This
    /// avoids hand-maintaining `Hash`/`Eq` over config structs with
    /// floating-point fields.
    pub fn content_key(&self) -> String {
        format!("{self:?}")
    }

    /// Executes this spec to completion with live workload generation,
    /// its own sampling schedule, a machine on one thread and no
    /// observer. Callable directly when no pooling or caching is wanted.
    pub fn execute(&self) -> RunRecord {
        self.execute_with(&Execution::new(&WorkloadCache::disabled()))
            .0
    }

    /// Executes this spec with no observer and the given run-level
    /// settings (see [`Execution`]'s fields). The one entry point that
    /// picks a machine's thread width; `None` auto-sizes it.
    pub fn execute_cached(
        &self,
        interval: Option<u64>,
        sampling: Option<SamplingConfig>,
        machine_threads: Option<usize>,
        cache: &WorkloadCache,
    ) -> RunRecord {
        self.execute_with(&Execution {
            interval,
            sampling,
            machine_threads,
            cache,
            observer: Observer::None,
        })
        .0
    }

    /// Executes this spec with live workload generation and the
    /// [`Observer::Analysis`] observer, so the record carries its
    /// [`AnalysisReport`].
    pub fn execute_analyzed(&self, interval: Option<u64>) -> RunRecord {
        self.execute_with(&Execution {
            interval,
            observer: Observer::Analysis,
            ..Execution::new(&WorkloadCache::disabled())
        })
        .0
    }

    /// Executes this spec under `exec`: the one execution path behind
    /// every entry point. Returns the record, plus the captured trace
    /// when `exec.observer` is [`Observer::Trace`].
    ///
    /// Observers watch through the same deterministic step sequence, so
    /// the record's metrics equal an unobserved run's exactly.
    ///
    /// # Panics
    ///
    /// Panics on [`Observer::Trace`] for a [`WorkloadSpec::Multi`] spec,
    /// and when the interval sampler meets a sampling schedule (the two
    /// are mutually exclusive).
    pub fn execute_with(&self, exec: &Execution<'_>) -> (RunRecord, Option<TraceRecorder>) {
        match exec.observer {
            Observer::None => (self.run(exec, NullRecorder).0, None),
            Observer::Trace { capacity } => {
                assert!(
                    !matches!(self.workload, WorkloadSpec::Multi { .. }),
                    "event tracing is a single-core feature; multi-core specs have no recorder"
                );
                let (record, simulator) = self.run(exec, TraceRecorder::with_capacity(capacity));
                (record, simulator.map(Simulator::into_recorder))
            }
            Observer::Analysis => {
                let stlb = self.system.mmu.stlb;
                let cfg = AnalysisConfig {
                    stlb_sets: (stlb.entries / stlb.ways).max(1),
                    ..AnalysisConfig::default()
                };
                let (mut record, simulator) = self.run(exec, AnalysisRecorder::new(cfg));
                let report = match simulator {
                    None => AnalysisReport::from_machine(&record),
                    Some(simulator) => {
                        let irip = simulator
                            .mmu()
                            .prefetcher()
                            .as_any()
                            .and_then(|any| any.downcast_ref::<Morrigan>())
                            .map(|m| IripSnapshot {
                                predictions: m.irip().stats.predictions,
                                evictions: m.irip().stats.evictions,
                                sdp_issued: m.sdp().issued,
                            });
                        let cumulative = CumulativeStats {
                            mmu: simulator.mmu().stats,
                            walker: *simulator.mmu().walker_stats(),
                            pb: simulator.mmu().prefetch_buffer().stats,
                            irip,
                        };
                        let analysis = simulator.into_recorder().into_analysis();
                        AnalysisReport::from_traced(&analysis, &record, &cumulative)
                    }
                };
                record.analysis = Some(report);
                (record, None)
            }
        }
    }

    /// Builds the streams through `exec.cache`, runs a [`Simulator`]
    /// carrying `recorder` (single-core shapes) or a [`Machine`]
    /// (multi-core) and assembles the record. Returns the finished
    /// simulator for the observer, `None` for a machine.
    ///
    /// The record's `phases` is the engine's own profile plus a
    /// [`Phase::TraceBuild`] bucket for the stream construction. A
    /// machine's profile is wall-attributed (total = machine wall time,
    /// buckets = summed per-core fine phases; see the machine's module
    /// docs), so multi-core rows in the throughput bench report real
    /// `workload_gen` / `simulate` splits, not zeros.
    fn run<R: Recorder>(
        &self,
        exec: &Execution<'_>,
        recorder: R,
    ) -> (RunRecord, Option<Simulator<R>>) {
        let trace_len =
            WorkloadCache::trace_len(self.sim.warmup_instructions, self.sim.measure_instructions);
        let build_start = Instant::now();
        let streams = self.workload.build_streams(trace_len, exec.cache);
        let trace_build = build_start.elapsed().as_secs_f64();
        let sampling = self.sampling.or(exec.sampling);
        let (metrics, mut phases, audit, elision, machine, simulator) =
            if let WorkloadSpec::Multi { .. } = self.workload {
                assert_eq!(
                    self.system.topology.cores,
                    streams.len(),
                    "topology.cores must match the number of per-core mixes \
                     (RunSpec::multi keeps them consistent)"
                );
                let prefetchers = streams.iter().map(|_| self.prefetcher.build()).collect();
                let mut machine = Machine::new(self.system, streams, prefetchers);
                machine.set_interval(exec.interval);
                machine.set_sampling(sampling);
                machine.set_threads(exec.machine_threads);
                let metrics = machine.run(self.sim);
                (
                    metrics,
                    *machine.phase_profile(),
                    machine.audit_report().cloned(),
                    machine.elision_counters(),
                    Some(machine.summary().clone()),
                    None,
                )
            } else {
                let mut simulator = Simulator::with_recorder(
                    self.system,
                    streams,
                    self.prefetcher.build(),
                    recorder,
                );
                simulator.set_interval(exec.interval);
                simulator.set_sampling(sampling);
                let metrics = simulator.run(self.sim);
                (
                    metrics,
                    *simulator.phase_profile(),
                    simulator.audit_report().cloned(),
                    simulator.elision_counters(),
                    None,
                    Some(simulator),
                )
            };
        phases.add(Phase::TraceBuild, trace_build);
        phases.add_total(trace_build);
        let record = RunRecord {
            spec: self.clone(),
            metrics,
            miss_stream: simulator
                .as_ref()
                .filter(|_| self.system.mmu.collect_stream_stats)
                .map(|s| s.mmu().miss_stream.clone()),
            audit,
            intervals: simulator
                .as_ref()
                .map_or_else(Vec::new, |s| s.interval_samples().to_vec()),
            phases,
            elision,
            machine,
            analysis: None,
        };
        (record, simulator)
    }
}

/// The result of executing one [`RunSpec`].
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The job that produced this record.
    pub spec: RunSpec,
    /// Measurement-window metrics.
    pub metrics: Metrics,
    /// The iSTLB miss-stream characterization, present iff the spec's
    /// system enabled `collect_stream_stats` (Figures 5–8).
    pub miss_stream: Option<MissStreamStats>,
    /// The stats-invariant audit report, present iff auditing was enabled
    /// for the run (always in debug builds; `MORRIGAN_AUDIT=1` in
    /// release). A present report is always clean — the simulator panics
    /// on a violated law instead of returning metrics.
    pub audit: Option<AuditReport>,
    /// The interval sampler's epoch time-series, non-empty iff the spec
    /// was executed with an [`Execution::interval`] (as a
    /// [`Runner`](crate::Runner) configured with one does). Multi-core
    /// records keep this empty; their per-core epoch series ride the
    /// [`MachineSummary`]'s `per_core_intervals`.
    pub intervals: Vec<IntervalSample>,
    /// Host wall-time phase split of this run. Wall-clock, therefore
    /// nondeterministic — deliberately *not* part of the record's JSON
    /// rendering; the runner aggregates it for the throughput bench.
    pub phases: PhaseProfile,
    /// Page-run probe/elision counters (whole run, warmup included;
    /// summed across cores for machine records). Host-side stepping
    /// telemetry like `phases` — not part of the record's JSON rendering
    /// (records must stay byte-identical to those rendered before
    /// page-run stepping); the runner aggregates it for the throughput
    /// bench.
    pub elision: ElisionCounters,
    /// Per-core results and shootdown accounting, present iff the spec's
    /// workload is [`WorkloadSpec::Multi`] (the record-level `metrics`
    /// then carries the machine aggregate: summed counters, makespan
    /// cycles).
    pub machine: Option<MachineSummary>,
    /// The per-run diagnosis, present iff the spec was executed with the
    /// [`Observer::Analysis`] observer (as [`RunSpec::execute_analyzed`]
    /// does). Records without one render byte-identical JSON to the
    /// pre-analysis format (the `analysis` key is simply absent).
    pub analysis: Option<AnalysisReport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds() {
        for kind in [
            PrefetcherKind::None,
            PrefetcherKind::Sp,
            PrefetcherKind::Asp,
            PrefetcherKind::Dp,
            PrefetcherKind::Mp,
            PrefetcherKind::AspIso,
            PrefetcherKind::DpIso,
            PrefetcherKind::MpIso,
            PrefetcherKind::MpUnbounded2,
            PrefetcherKind::MpUnboundedInf,
            PrefetcherKind::Morrigan,
            PrefetcherKind::MorriganMono,
            PrefetcherKind::MorriganSmt,
        ] {
            let p = kind.build();
            assert!(!kind.name().is_empty());
            let _ = p.storage_bits();
        }
    }

    #[test]
    fn iso_variants_respect_budget() {
        let budget = morrigan_budget_bits();
        for kind in [
            PrefetcherKind::AspIso,
            PrefetcherKind::DpIso,
            PrefetcherKind::MpIso,
        ] {
            let p = kind.build();
            assert!(
                p.storage_bits() <= budget,
                "{} exceeds the ISO budget: {} > {budget}",
                kind.name(),
                p.storage_bits()
            );
        }
    }

    #[test]
    fn content_keys_distinguish_specs() {
        let cfg = ServerWorkloadConfig::qmm_like("key-test", 1);
        let sim = SimConfig {
            warmup_instructions: 10,
            measure_instructions: 20,
        };
        let a = RunSpec::server(&cfg, SystemConfig::default(), sim, PrefetcherKind::None);
        let b = RunSpec::server(&cfg, SystemConfig::default(), sim, PrefetcherKind::Morrigan);
        let a2 = a.clone();
        assert_eq!(a.content_key(), a2.content_key());
        assert_ne!(a.content_key(), b.content_key());

        let mut system = SystemConfig::default();
        system.mmu.perfect_istlb = true;
        let c = RunSpec::server(&cfg, system, sim, PrefetcherKind::None);
        assert_ne!(a.content_key(), c.content_key());
    }

    #[test]
    fn custom_morrigan_spec_builds_and_keys() {
        let spec: PrefetcherSpec = MorriganConfig::default().into();
        assert_eq!(spec.name(), "morrigan-custom");
        let p = spec.build();
        assert!(p.storage_bits() > 0);
    }

    #[test]
    fn execute_collects_miss_stream_only_when_asked() {
        let cfg = ServerWorkloadConfig::qmm_like("exec-test", 2);
        let sim = SimConfig {
            warmup_instructions: 10_000,
            measure_instructions: 30_000,
        };
        let plain = RunSpec::server(&cfg, SystemConfig::default(), sim, PrefetcherKind::None);
        let record = plain.execute();
        assert!(record.miss_stream.is_none());
        assert_eq!(record.metrics.instructions, 30_000);

        let mut system = SystemConfig::default();
        system.mmu.collect_stream_stats = true;
        let collecting = RunSpec::server(&cfg, system, sim, PrefetcherKind::None);
        let record = collecting.execute();
        let stream = record.miss_stream.expect("stream collected");
        assert!(stream.total_misses > 0);
    }
}
