//! Declarative descriptions of simulation jobs.
//!
//! A [`RunSpec`] is a pure value: workload configuration(s), system
//! configuration, run length, and a prefetcher *description* (never a
//! built prefetcher). Everything has a lossless `Debug` rendering and is
//! deterministically buildable, which is what lets the
//! [`Runner`](crate::Runner) execute specs on any worker thread and
//! memoize results by content.

use morrigan::{Morrigan, MorriganConfig};
use morrigan_baselines::{
    ArbitraryStridePrefetcher, AspConfig, DistancePrefetcher, DpConfig, MarkovPrefetcher,
    MorriganMono, MpConfig, SequentialPrefetcher, UnboundedMarkov,
};
use morrigan_obs::{PhaseProfile, TraceRecorder};
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

    fn build_streams(&self) -> Vec<Box<dyn InstructionStream>> {
        match self {
            WorkloadSpec::Server(cfg) => {
                vec![Box::new(ServerWorkload::new(cfg.clone())) as Box<dyn InstructionStream>]
            }
            WorkloadSpec::Spec(cfg) => {
                vec![Box::new(SpecWorkload::new(cfg.clone())) as Box<dyn InstructionStream>]
            }
            WorkloadSpec::Smt(cfgs) => cfgs
                .iter()
                .map(|c| Box::new(ServerWorkload::new(c.clone())) as Box<dyn InstructionStream>)
                .collect(),
            WorkloadSpec::Multi { .. } => {
                unreachable!("multi-core workloads run on the Machine, not the Simulator")
            }
        }
    }

    /// The per-core streams of a [`WorkloadSpec::Multi`] machine: each
    /// core gets a [`ScheduledStream`] rotating through its tenants,
    /// every tenant wrapped in an [`AsidStream`] so distinct processes
    /// occupy disjoint ASID-fused address spaces.
    ///
    /// When `cache` is given, each *tenant* stream is served through it
    /// individually: the cached trace carries the ASID-tagged content,
    /// so its key must (and does) include the ASID and the schedule
    /// quantum alongside the workload config — two machines differing
    /// only in schedule never share a cache slot.
    fn build_machine_streams(
        &self,
        trace_len: u64,
        cache: Option<&WorkloadCache>,
    ) -> Vec<Box<dyn InstructionStream>> {
        let WorkloadSpec::Multi { mixes, quantum } = self else {
            unreachable!("machine streams exist only for multi-core workloads")
        };
        let mut next_asid: u16 = 1;
        mixes
            .iter()
            .map(|mix| {
                let tenants: Vec<Box<dyn InstructionStream>> = mix
                    .iter()
                    .map(|cfg| {
                        let asid = next_asid;
                        next_asid += 1;
                        match cache {
                            Some(c) => c.stream_for(
                                &format!("{cfg:?}#asid={asid}#quantum={quantum}"),
                                trace_len,
                                || {
                                    Box::new(AsidStream::new(
                                        ServerWorkload::new(cfg.clone()),
                                        asid,
                                    ))
                                },
                            ),
                            None => {
                                Box::new(AsidStream::new(ServerWorkload::new(cfg.clone()), asid))
                            }
                        }
                    })
                    .collect();
                Box::new(ScheduledStream::new(tenants, *quantum)) as Box<dyn InstructionStream>
            })
            .collect()
    }

    /// [`build_streams`](Self::build_streams) through the workload
    /// cache: each member stream is a replay cursor over a materialized
    /// trace when the cache can serve one (live generation otherwise).
    ///
    /// Per-member keying means SMT pairs share traces with each other
    /// *and* with solo runs of the same config at the same scale: a
    /// member's key is its own config's `Debug` rendering (lossless, the
    /// same convention as [`RunSpec::content_key`]) — the struct name
    /// in that rendering keeps server and SPEC configs from colliding.
    /// `trace_len` is the capture length (warmup + measure + replay
    /// slack); an SMT member can consume up to the whole run if the
    /// round-robin degenerates, so each member's trace carries the full
    /// length.
    fn build_streams_cached(
        &self,
        trace_len: u64,
        cache: &WorkloadCache,
    ) -> Vec<Box<dyn InstructionStream>> {
        match self {
            WorkloadSpec::Server(cfg) => {
                vec![cache.stream_for(&format!("{cfg:?}"), trace_len, || {
                    Box::new(ServerWorkload::new(cfg.clone()))
                })]
            }
            WorkloadSpec::Spec(cfg) => {
                vec![cache.stream_for(&format!("{cfg:?}"), trace_len, || {
                    Box::new(SpecWorkload::new(cfg.clone()))
                })]
            }
            WorkloadSpec::Smt(cfgs) => cfgs
                .iter()
                .map(|c| {
                    cache.stream_for(&format!("{c:?}"), trace_len, || {
                        Box::new(ServerWorkload::new(c.clone()))
                    })
                })
                .collect(),
            WorkloadSpec::Multi { .. } => {
                unreachable!("multi-core workloads run on the Machine, not the Simulator")
            }
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

    /// Host threads this spec's execution occupies inside one worker:
    /// `1` for single-core specs (the simulator is single-threaded), the
    /// effective epoch-driver width for multi-core machines
    /// ([`morrigan_sim::machine_width`]). The [`Runner`](crate::Runner)
    /// divides its thread budget by the widest pending spec so pool
    /// width × machine width never oversubscribes the budget.
    pub fn host_threads(&self, machine_threads: Option<usize>) -> usize {
        let cores = self.workload.cores();
        if cores <= 1 || !matches!(self.workload, WorkloadSpec::Multi { .. }) {
            return 1;
        }
        morrigan_sim::machine_width(machine_threads, cores)
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

    /// Builds the simulator and executes this spec to completion.
    ///
    /// Used by the [`Runner`](crate::Runner)'s workers; callable directly
    /// when no pooling or caching is wanted.
    pub fn execute(&self) -> RunRecord {
        self.execute_observed(None)
    }

    /// [`RunSpec::execute`] with the interval sampler enabled when
    /// `interval` is `Some(n)`: the record's `intervals` carries one
    /// [`IntervalSample`] per `n` retired instructions of the window.
    ///
    /// Multi-core specs run on the [`Machine`]: the record-level
    /// `intervals` stays empty, and each core's epoch series rides the
    /// [`MachineSummary`]'s `per_core_intervals` instead.
    pub fn execute_observed(&self, interval: Option<u64>) -> RunRecord {
        if matches!(self.workload, WorkloadSpec::Multi { .. }) {
            return self.execute_machine(interval, None, None, None);
        }
        let prefetcher = self.prefetcher.build();
        let streams = self.workload.build_streams();
        let mut simulator = Simulator::new_smt(self.system, streams, prefetcher);
        simulator.set_interval(interval);
        simulator.set_sampling(self.sampling);
        let metrics = simulator.run(self.sim);
        self.finish(&simulator, metrics)
    }

    /// [`RunSpec::execute_observed`] with workload streams served
    /// through `cache`: replay cursors over materialized traces instead
    /// of live generators whenever the cache can provide them.
    ///
    /// Replay is sequence-exact (pinned by the workloads proptests and
    /// `runner/tests/workload_cache.rs`), so the returned record equals
    /// the uncached one in every deterministic field — metrics, miss
    /// stream, audit, intervals. Only `phases` differs: time spent
    /// materializing is booked to [`Phase::TraceBuild`], and replay
    /// shrinks the `workload_gen` bucket. `phases` is wall-clock and
    /// excluded from the record's JSON rendering, so `figures --json`
    /// output stays byte-identical cache-on vs. cache-off.
    ///
    /// `sampling` is a *default* schedule (e.g. the
    /// [`Runner`](crate::Runner)'s `MORRIGAN_SAMPLE`-configured one): a
    /// spec whose own [`sampling`](RunSpec::sampling) field is set keeps
    /// its pinned schedule; only unset specs inherit the default.
    ///
    /// `machine_threads` is the host-thread budget for multi-core
    /// machines (`None` auto-sizes); single-core specs ignore it. The
    /// epoch-barrier protocol makes records bitwise-identical at any
    /// width, so it is not part of the cache key.
    ///
    /// [`Phase::TraceBuild`]: morrigan_obs::Phase::TraceBuild
    pub fn execute_cached(
        &self,
        interval: Option<u64>,
        sampling: Option<SamplingConfig>,
        machine_threads: Option<usize>,
        cache: &WorkloadCache,
    ) -> RunRecord {
        let sampling = self.sampling.or(sampling);
        if matches!(self.workload, WorkloadSpec::Multi { .. }) {
            return self.execute_machine(interval, sampling, machine_threads, Some(cache));
        }
        let prefetcher = self.prefetcher.build();
        let trace_len =
            WorkloadCache::trace_len(self.sim.warmup_instructions, self.sim.measure_instructions);
        let build_start = std::time::Instant::now();
        let streams = self.workload.build_streams_cached(trace_len, cache);
        let trace_build = build_start.elapsed().as_secs_f64();
        let mut simulator = Simulator::new_smt(self.system, streams, prefetcher);
        simulator.set_interval(interval);
        simulator.set_sampling(sampling);
        let metrics = simulator.run(self.sim);
        let mut record = self.finish(&simulator, metrics);
        record
            .phases
            .add(morrigan_obs::Phase::TraceBuild, trace_build);
        record.phases.add_total(trace_build);
        record
    }

    /// Executes this spec with a ring-buffer [`TraceRecorder`] of
    /// `capacity` events attached, returning the record together with the
    /// captured trace (ready for `morrigan_obs::to_chrome_trace` /
    /// `to_jsonl`). Tracing runs through the same deterministic step
    /// sequence, so the record's metrics equal `execute`'s exactly.
    pub fn execute_traced(
        &self,
        interval: Option<u64>,
        capacity: usize,
    ) -> (RunRecord, TraceRecorder) {
        assert!(
            !matches!(self.workload, WorkloadSpec::Multi { .. }),
            "event tracing is a single-core feature; multi-core specs have no recorder"
        );
        let prefetcher = self.prefetcher.build();
        let streams = self.workload.build_streams();
        let mut simulator = Simulator::with_recorder(
            self.system,
            streams,
            prefetcher,
            TraceRecorder::with_capacity(capacity),
        );
        simulator.set_interval(interval);
        simulator.set_sampling(self.sampling);
        let metrics = simulator.run(self.sim);
        let record = self.finish(&simulator, metrics);
        (record, simulator.into_recorder())
    }

    /// Executes this spec with a streaming [`AnalysisRecorder`] attached
    /// and attaches the resulting [`AnalysisReport`] to the record.
    ///
    /// Single-core specs stream every event through the analysis (never
    /// drops, so the diagnosis is always complete) and reconcile it
    /// against the run's *cumulative* structure counters — the trace
    /// covers warmup and measurement alike, so the laws must target the
    /// whole-run `MmuStats`/`WalkerStats`/`PbStats`, not the
    /// measurement-window deltas. When the prefetcher is a Morrigan,
    /// its internal IRIP/SDP counters join the laws via the `as_any`
    /// downcast. Analysis observes through the same deterministic step
    /// sequence, so the record's metrics equal `execute`'s exactly.
    ///
    /// Multi-core specs have no event recorder; their report is built
    /// counter-based from the width-invariant [`MachineSummary`]
    /// (per-core interference attribution), so it is byte-identical at
    /// any `machine_threads` width.
    ///
    /// [`AnalysisRecorder`]: morrigan_obs::AnalysisRecorder
    pub fn execute_analyzed(&self, interval: Option<u64>) -> RunRecord {
        if matches!(self.workload, WorkloadSpec::Multi { .. }) {
            let mut record = self.execute_machine(interval, None, None, None);
            record.analysis = Some(AnalysisReport::from_machine(&record));
            return record;
        }
        let prefetcher = self.prefetcher.build();
        let streams = self.workload.build_streams();
        let stlb = self.system.mmu.stlb;
        let cfg = morrigan_obs::AnalysisConfig {
            stlb_sets: (stlb.entries / stlb.ways).max(1),
            ..morrigan_obs::AnalysisConfig::default()
        };
        let mut simulator = Simulator::with_recorder(
            self.system,
            streams,
            prefetcher,
            morrigan_obs::AnalysisRecorder::new(cfg),
        );
        simulator.set_interval(interval);
        simulator.set_sampling(self.sampling);
        let metrics = simulator.run(self.sim);
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
        let mut record = self.finish(&simulator, metrics);
        let analysis = simulator.into_recorder().into_analysis();
        record.analysis = Some(AnalysisReport::from_traced(&analysis, &record, &cumulative));
        record
    }

    /// Builds and runs the [`Machine`] of a [`WorkloadSpec::Multi`] spec;
    /// tenant streams go through the workload cache when one is given.
    ///
    /// The record's `phases` is the machine's own wall-attributed profile
    /// (total = machine wall time, buckets = summed per-core fine phases;
    /// see the machine's module docs), plus a [`Phase::TraceBuild`]
    /// bucket when tenant streams were materialized through the cache —
    /// so multi-core rows in the throughput bench report real
    /// `workload_gen` / `simulate` splits, not zeros.
    ///
    /// [`Phase::TraceBuild`]: morrigan_obs::Phase::TraceBuild
    fn execute_machine(
        &self,
        interval: Option<u64>,
        sampling: Option<SamplingConfig>,
        machine_threads: Option<usize>,
        cache: Option<&WorkloadCache>,
    ) -> RunRecord {
        assert_eq!(
            self.system.topology.cores,
            self.workload.cores(),
            "topology.cores must match the number of per-core mixes \
             (RunSpec::multi keeps them consistent)"
        );
        let trace_len =
            WorkloadCache::trace_len(self.sim.warmup_instructions, self.sim.measure_instructions);
        let build_start = std::time::Instant::now();
        let streams = self.workload.build_machine_streams(trace_len, cache);
        let trace_build = build_start.elapsed().as_secs_f64();
        let prefetchers = (0..streams.len())
            .map(|_| self.prefetcher.build())
            .collect();
        let mut machine = Machine::new(self.system, streams, prefetchers);
        machine.set_interval(interval);
        machine.set_sampling(sampling);
        machine.set_threads(machine_threads);
        let metrics = machine.run(self.sim);
        let mut phases = *machine.phase_profile();
        if cache.is_some() {
            phases.add(morrigan_obs::Phase::TraceBuild, trace_build);
            phases.add_total(trace_build);
        }
        RunRecord {
            spec: self.clone(),
            metrics,
            miss_stream: None,
            audit: machine.audit_report().cloned(),
            intervals: Vec::new(),
            phases,
            elision: machine.elision_counters(),
            machine: Some(machine.summary().clone()),
            analysis: None,
        }
    }

    fn finish<R: morrigan_obs::Recorder>(
        &self,
        simulator: &Simulator<R>,
        metrics: Metrics,
    ) -> RunRecord {
        let miss_stream = self
            .system
            .mmu
            .collect_stream_stats
            .then(|| simulator.mmu().miss_stream.clone());
        RunRecord {
            spec: self.clone(),
            metrics,
            miss_stream,
            audit: simulator.audit_report().cloned(),
            intervals: simulator.interval_samples().to_vec(),
            phases: *simulator.phase_profile(),
            elision: simulator.elision_counters(),
            machine: None,
            analysis: None,
        }
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
    /// The interval sampler's epoch time-series, non-empty iff the record
    /// was produced by [`RunSpec::execute_observed`] with an interval (or
    /// a [`Runner`](crate::Runner) configured with one). Multi-core
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
    /// The per-run diagnosis, present iff the record was produced by
    /// [`RunSpec::execute_analyzed`]. Records without one render
    /// byte-identical JSON to the pre-analysis format (the `analysis`
    /// key is simply absent).
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
