//! The three phases of one workload. The binary runs each in its own
//! child process; the test suite calls them in-process.
//!
//! * [`verify`] executes every spec once (the parent sets
//!   `MORRIGAN_AUDIT=1`) and records each result's digest; the sampled
//!   workload also runs a full-detail reference of the same specs.
//! * [`timed`] measures set-up and repetitions with tracing off.
//! * [`traced`] rebuilds the simulators directly around timing wrappers,
//!   reads the public counters after each run, and replays the
//!   workload's traces through the microkernels.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use morrigan_mem::MemLevel;
use morrigan_runner::{RunRecord, RunSpec, WorkloadCache, WorkloadSpec};
use morrigan_sim::{Machine, SamplingConfig, Simulator};
use morrigan_types::TlbPrefetcher;
use morrigan_vm::PageTable;
use morrigan_workloads::{InstructionStream, PackedReplay, PackedTrace, ScheduledStream};

use crate::kernels::{self, KernelRun, OpStreams};
use crate::trace::{totals_by_name, SpanLog, TimedPrefetcher, TimedStream};
use crate::{digest, members, quartiles, Lengths, PhaseOutput, Workload};

/// Fresh materialisations timed for `setup_s`.
pub const SETUP_REPS: usize = 3;

/// Timed repetitions run even when `--seconds` is already used up.
pub const MIN_REPS: usize = 3;

/// Repetitions at machine width 1 behind the machine's serial MIPS.
pub const SERIAL_REPS: usize = 3;

/// Instructions of each spec's traces the microkernels replay, split
/// evenly across the spec's generators.
pub const KERNEL_INSTRUCTIONS: u64 = 4_000_000;

/// Sampled-vs-full IPC error above which the sampled workload counts
/// as failed: the per-figure gate `simbench --check` applies.
pub const IPC_ERR_GATE_PCT: f64 = 4.0;

/// Executes every spec once and records its digest as `spec<i>`; the
/// sampled workload adds full-detail references as `ref<i>` and the
/// sampled-vs-full IPC error.
pub fn verify(workload: &Workload, seed: u64, lengths: &Lengths) -> PhaseOutput {
    let mut out = PhaseOutput::default();
    let cache = WorkloadCache::in_memory();
    let (mut sampled, mut full) = ((0u64, 0u64), (0u64, 0u64));
    for (i, spec) in workload.specs(seed, lengths).iter().enumerate() {
        let record = spec.execute_cached(None, None, None, &cache);
        check_audit(&record, &format!("spec{i}"), &mut out);
        out.digests.insert(format!("spec{i}"), digest(&record));
        if workload.sampled() {
            let reference = RunSpec {
                sampling: None,
                ..spec.clone()
            }
            .execute_cached(None, None, None, &cache);
            check_audit(&reference, &format!("ref{i}"), &mut out);
            out.digests.insert(format!("ref{i}"), digest(&reference));
            sampled.0 += record.metrics.instructions;
            sampled.1 += record.metrics.cycles;
            full.0 += reference.metrics.instructions;
            full.1 += reference.metrics.cycles;
        }
    }
    if workload.sampled() {
        let ipc = |(instructions, cycles): (u64, u64)| instructions as f64 / cycles.max(1) as f64;
        let err = (ipc(sampled) - ipc(full)).abs() / ipc(full) * 100.0;
        out.values.insert("ipc_err_pct".into(), err);
        // The cycle regression converges only over several detail
        // windows; `simbench --check` skips shorter runs the same way.
        let period = SamplingConfig::default_schedule().period();
        if lengths.core.measure_instructions >= 4 * period && err > IPC_ERR_GATE_PCT {
            out.errors.push(format!(
                "sampled IPC deviates {err:.3}% from full detail (gate {IPC_ERR_GATE_PCT}%)"
            ));
        }
    }
    out
}

fn check_audit(record: &RunRecord, label: &str, out: &mut PhaseOutput) {
    match &record.audit {
        None => out.errors.push(format!(
            "{label}: no audit report; MORRIGAN_AUDIT=1 did not reach the run"
        )),
        Some(report) if !report.violations.is_empty() => out
            .errors
            .push(format!("{label}: audit violations {:?}", report.violations)),
        Some(_) => {}
    }
}

/// Materialises every trace of `specs` into `cache`, under the keys
/// `RunSpec::execute_cached` looks them up by.
fn materialize(specs: &[RunSpec], cache: &WorkloadCache) {
    for spec in specs {
        let len =
            WorkloadCache::trace_len(spec.sim.warmup_instructions, spec.sim.measure_instructions);
        for member in members(spec) {
            drop(cache.stream_for(&member.key, len, || (member.build)()));
        }
    }
}

/// Runs every spec once on the warm cache; returns the wall seconds of
/// the executions and records the digests as `<label>.spec<i>`.
fn repetition(
    specs: &[RunSpec],
    cache: &WorkloadCache,
    machine_threads: Option<usize>,
    label: &str,
    out: &mut PhaseOutput,
) -> f64 {
    let start = Instant::now();
    let records: Vec<RunRecord> = specs
        .iter()
        .map(|spec| spec.execute_cached(None, None, machine_threads, cache))
        .collect();
    let seconds = start.elapsed().as_secs_f64();
    for (i, record) in records.iter().enumerate() {
        out.digests
            .insert(format!("{label}.spec{i}"), digest(record));
    }
    seconds
}

/// The timed phase: `setup_s` is the median of [`SETUP_REPS`] fresh
/// materialisations; then one untimed warm repetition and timed ones
/// until `seconds` have been measured (at least [`MIN_REPS`]). With
/// `serial`, a workload with multi-core specs adds [`SERIAL_REPS`]
/// repetitions at machine width 1.
pub fn timed(
    workload: &Workload,
    seed: u64,
    lengths: &Lengths,
    seconds: f64,
    serial: bool,
) -> PhaseOutput {
    let mut out = PhaseOutput::default();
    let specs = workload.specs(seed, lengths);
    let instructions: u64 = specs.iter().map(RunSpec::instructions_cost).sum();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut cache = None;
    for _ in 0..SETUP_REPS {
        drop(cache.take()); // free the previous materialisation first
        let fresh = WorkloadCache::in_memory();
        let start = Instant::now();
        materialize(&specs, &fresh);
        setups.push(start.elapsed().as_secs_f64());
        cache = Some(fresh);
    }
    let cache = cache.expect("at least one set-up repetition");
    let built = cache.materialized();

    repetition(&specs, &cache, None, "warm", &mut out);
    if cache.materialized() != built {
        out.errors.push(format!(
            "set-up left the cache cold: the warm repetition built {} more traces \
             (members() keys differ from RunSpec::execute_cached's)",
            cache.materialized() - built
        ));
    }

    let (mut mips, mut measured) = (Vec::new(), 0.0);
    while mips.len() < MIN_REPS || measured < seconds {
        let label = format!("rep{}", mips.len());
        let secs = repetition(&specs, &cache, None, &label, &mut out);
        mips.push(instructions as f64 / secs / 1e6);
        measured += secs;
    }
    let (q1, median, q3) = quartiles(&mips);
    let (_, setup, _) = quartiles(&setups);
    out.values.insert("setup_s".into(), setup);
    out.values.insert("mips".into(), median);
    out.values.insert("mips_q1".into(), q1);
    out.values.insert("mips_q3".into(), q3);
    out.values.insert("reps".into(), mips.len() as f64);
    out.values
        .insert("median_rep_s".into(), instructions as f64 / (median * 1e6));

    if serial && specs.iter().any(|s| s.workload.cores() > 1) {
        let serial_mips: Vec<f64> = (0..SERIAL_REPS)
            .map(|r| {
                let secs = repetition(&specs, &cache, Some(1), &format!("serial{r}"), &mut out);
                instructions as f64 / secs / 1e6
            })
            .collect();
        out.values
            .insert("serial_mips".into(), quartiles(&serial_mips).1);
    }
    match peak_rss_mb() {
        Some(mb) => {
            out.values.insert("peak_rss_mb".into(), mb);
        }
        None => out
            .errors
            .push("VmHWM missing from /proc/self/status".into()),
    }
    out
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host-cost counters of one traced run, whole run (warm-up included),
/// summed over cores.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Instructions stepped.
    pub stepped: u64,
    /// Fetch-side `translate_instr` calls issued.
    pub probes_issued: u64,
    /// Fetch-side probes elided by same-line and page-run batching.
    pub probes_elided: u64,
    /// Page-run segments the batched stepping consumed.
    pub runs_consumed: u64,
    /// Data translations the MMU counted, elided ones included.
    pub data_translations: f64,
    /// iSTLB misses.
    pub istlb_misses: f64,
    /// Page walks, demand and prefetch.
    pub walks: f64,
    /// Demand and I-prefetch hierarchy accesses (walk references are
    /// part of translation). `None` where no public counter covers the
    /// whole run: the machine exposes measurement-window metrics only.
    pub mem_accesses: Option<f64>,
}

/// One spec rebuilt and run around timing wrappers.
pub struct TracedSpec {
    /// The record the run produced, assembled as the runner does.
    pub record: RunRecord,
    /// The traces the run replayed, in [`members`] order.
    pub traces: Vec<Arc<PackedTrace>>,
    /// Counters read after the run.
    pub counts: Counts,
    /// Nanoseconds from building the simulator to the end of its run.
    pub sim_ns: u64,
}

/// Captures `spec`'s traces and runs it on a directly built
/// `Simulator`/`Machine` whose streams and prefetchers are wrapped in
/// [`TimedStream`]/[`TimedPrefetcher`]. Spans nest under `root`.
pub fn run_traced(spec: &RunSpec, log: &Arc<SpanLog>, root: u32) -> TracedSpec {
    let len = WorkloadCache::trace_len(spec.sim.warmup_instructions, spec.sim.measure_instructions);
    let members = members(spec);
    let traces: Vec<Arc<PackedTrace>> = members
        .iter()
        .map(|m| {
            let trace = log.time(
                "workloads.capture",
                root,
                || PackedTrace::capture((m.build)().as_mut(), len),
                PackedTrace::len,
            );
            Arc::new(trace)
        })
        .collect();

    let mut groups: Vec<Vec<Box<dyn InstructionStream>>> = Vec::new();
    for (member, trace) in members.iter().zip(&traces) {
        if groups.len() <= member.stream {
            groups.resize_with(member.stream + 1, Vec::new);
        }
        groups[member.stream].push(Box::new(PackedReplay::new(Arc::clone(trace))));
    }
    let streams: Vec<Box<dyn InstructionStream>> = groups
        .into_iter()
        .map(|mut group| {
            let inner: Box<dyn InstructionStream> = match &spec.workload {
                WorkloadSpec::Multi { quantum, .. } => {
                    Box::new(ScheduledStream::new(group, *quantum))
                }
                _ => group.pop().expect("one generator per single-core stream"),
            };
            Box::new(TimedStream::new(inner, Arc::clone(log))) as Box<dyn InstructionStream>
        })
        .collect();
    let prefetcher = || {
        Box::new(TimedPrefetcher::new(
            spec.prefetcher.build(),
            Arc::clone(log),
        )) as Box<dyn TlbPrefetcher>
    };

    let run_id = log.reserve();
    log.set_current(run_id);
    let start = log.now_ns();
    let stepped = spec.instructions_cost();
    let (record, counts) = if let WorkloadSpec::Multi { .. } = spec.workload {
        let prefetchers = (0..streams.len()).map(|_| prefetcher()).collect();
        let mut machine = Machine::new(spec.system, streams, prefetchers);
        machine.set_sampling(spec.sampling);
        let metrics = machine.run(spec.sim);
        let record = RunRecord {
            spec: spec.clone(),
            metrics,
            miss_stream: None,
            audit: machine.audit_report().cloned(),
            intervals: Vec::new(),
            phases: *machine.phase_profile(),
            elision: machine.elision_counters(),
            machine: Some(machine.summary().clone()),
            analysis: None,
        };
        // Only measurement-window metrics are public: scale them to
        // the whole run.
        let scale = stepped as f64 / metrics.instructions.max(1) as f64;
        let w = metrics.walker;
        let counts = Counts {
            data_translations: metrics.mmu.data_translations as f64 * scale,
            istlb_misses: metrics.mmu.istlb_misses as f64 * scale,
            walks: (w.demand_instr_walks + w.demand_data_walks + w.prefetch_walks) as f64 * scale,
            mem_accesses: None,
            ..Counts::default()
        };
        (record, counts)
    } else {
        let mut sim = Simulator::new_smt(spec.system, streams, prefetcher());
        sim.set_sampling(spec.sampling);
        let metrics = sim.run(spec.sim);
        let record = RunRecord {
            spec: spec.clone(),
            metrics,
            miss_stream: spec
                .system
                .mmu
                .collect_stream_stats
                .then(|| sim.mmu().miss_stream.clone()),
            audit: sim.audit_report().cloned(),
            intervals: sim.interval_samples().to_vec(),
            phases: *sim.phase_profile(),
            elision: sim.elision_counters(),
            machine: None,
            analysis: None,
        };
        let (stats, w) = (sim.mmu().stats, *sim.mmu().walker_stats());
        let mem_accesses = MemLevel::ALL
            .iter()
            .map(|&level| {
                let s = sim.mem().served_by(level);
                s.ifetch + s.data + s.iprefetch
            })
            .sum::<u64>();
        let counts = Counts {
            data_translations: stats.data_translations as f64,
            istlb_misses: stats.istlb_misses as f64,
            walks: (w.demand_instr_walks + w.demand_data_walks + w.prefetch_walks) as f64,
            mem_accesses: Some(mem_accesses as f64),
            ..Counts::default()
        };
        (record, counts)
    };
    log.record(run_id, root, "sim.run", start, stepped);
    log.set_current(0);
    let sim_ns = log.now_ns() - start;
    let counts = Counts {
        stepped,
        probes_issued: record.elision.probes_issued,
        probes_elided: record.elision.probes_elided,
        runs_consumed: record.elision.runs_consumed,
        ..counts
    };
    TracedSpec {
        record,
        traces,
        counts,
        sim_ns,
    }
}

/// Kernel results of one workload, summed over its traces.
#[derive(Debug, Clone, Copy, Default)]
struct Kernels {
    translate: KernelRun,
    stlb: KernelRun,
    walk: KernelRun,
    access: KernelRun,
    warm: KernelRun,
    llc: KernelRun,
    /// Instructions, data translations and line references of the
    /// derived streams: the densities behind the estimated counts.
    instructions: u64,
    data_translations: u64,
    lines: u64,
}

impl Kernels {
    fn replay(
        &mut self,
        spec: &RunSpec,
        pt: &PageTable,
        ops: &OpStreams,
        log: &SpanLog,
        root: u32,
    ) {
        let system = &spec.system;
        let prefetcher = spec.prefetcher.build();
        kernel(log, root, "kernel.translate", &mut self.translate, || {
            kernels::translate(system, pt, prefetcher, &ops.translations)
        });
        kernel(log, root, "kernel.stlb", &mut self.stlb, || {
            kernels::stlb(system.mmu.stlb, &ops.itlb_misses)
        });
        kernel(log, root, "kernel.walk", &mut self.walk, || {
            kernels::walk(system, pt, &ops.stlb_misses)
        });
        kernel(log, root, "kernel.access", &mut self.access, || {
            kernels::access(system.mem, &ops.lines)
        });
        kernel(log, root, "kernel.warm", &mut self.warm, || {
            kernels::warm(system.mem, &ops.lines)
        });
        kernel(log, root, "kernel.llc", &mut self.llc, || {
            kernels::llc(system.mem.llc, &ops.l2_misses)
        });
        self.instructions += ops.instructions;
        self.data_translations += ops.data_translations();
        self.lines += ops.lines.len() as u64;
    }
}

/// Runs one kernel inside a span under `root` and adds its timed part
/// to `total`.
fn kernel<T>(
    log: &SpanLog,
    root: u32,
    name: &'static str,
    total: &mut KernelRun,
    run: impl FnOnce() -> (KernelRun, T),
) {
    let (timed, _) = log.time(name, root, run, |r: &(KernelRun, T)| r.0.ops);
    total.add(timed);
}

/// The traced phase: every spec through [`run_traced`] (digests as
/// `traced.spec<i>`), then the microkernels over the spec's traces, then
/// the per-layer values. Spans go to `spans_path` as JSONL.
pub fn traced(
    workload: &Workload,
    seed: u64,
    lengths: &Lengths,
    spans_path: Option<&Path>,
) -> PhaseOutput {
    let mut out = PhaseOutput::default();
    let log = SpanLog::new();
    let mut k = Kernels::default();
    let (mut counts, mut sim_ns, mut trace_bytes) = (Vec::new(), 0u64, 0u64);
    let (mut covered, mut istlb_window) = (0u64, 0u64);
    let mut ff_instructions = 0.0;
    for (i, spec) in workload.specs(seed, lengths).iter().enumerate() {
        let root = log.reserve();
        let start = log.now_ns();
        let t = run_traced(spec, &log, root);
        out.digests
            .insert(format!("traced.spec{i}"), digest(&t.record));
        let pt = kernels::page_table(t.traces.iter().map(|t| t.as_ref()));
        let budget = KERNEL_INSTRUCTIONS / t.traces.len() as u64;
        for trace in &t.traces {
            let ops = OpStreams::derive(trace, budget, &pt, &spec.system);
            k.replay(spec, &pt, &ops, &log, root);
        }
        log.record(root, 0, "spec", start, spec.instructions_cost());
        sim_ns += t.sim_ns;
        trace_bytes += t.traces.iter().map(|t| t.resident_bytes()).sum::<u64>();
        covered += t.record.metrics.mmu.istlb_covered;
        istlb_window += t.record.metrics.mmu.istlb_misses;
        if let Some(sampling) = spec.sampling {
            ff_instructions += t.counts.stepped as f64 * (1.0 - sampling.detail_fraction());
        }
        counts.push(t.counts);
    }

    let spans = log.spans();
    let totals = totals_by_name(&spans);
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let sum = |f: fn(&Counts) -> f64| counts.iter().map(f).sum::<f64>();
    let stepped = sum(|c| c.stepped as f64);
    let probes = sum(|c| c.probes_issued as f64);
    let elided = sum(|c| c.probes_elided as f64);
    let runs = sum(|c| c.runs_consumed as f64);

    // Data-side translate calls have no public counter on the batched
    // path (the MMU's count includes elided hits); estimate one per
    // same-page data run at the traces' density. The per-instruction
    // fallback translates every access, which the MMU does count.
    let data_density = per(k.data_translations as f64, k.instructions as f64);
    let data_calls: f64 = counts
        .iter()
        .map(|c| {
            if c.runs_consumed == 0 {
                c.data_translations
            } else {
                data_density * c.stepped as f64
            }
        })
        .sum();
    let translate_calls = probes + data_calls;
    let line_density = per(k.lines as f64, k.instructions as f64);
    let mem_accesses: f64 = counts
        .iter()
        .map(|c| c.mem_accesses.unwrap_or(line_density * c.stepped as f64))
        .sum();
    let warm_ops = line_density * ff_instructions;

    let (capture, fill, misses) = (
        total("workloads.capture"),
        total("workloads.fill"),
        total("core.on_stlb_miss"),
    );
    let simulate_ns = sim_ns as f64;
    let accounted = fill.total_ns as f64
        + translate_calls * k.translate.ns_per_op()
        + mem_accesses * k.access.ns_per_op()
        + warm_ops * k.warm.ns_per_op();

    let v = &mut out.values;
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    put(
        "workloads.capture_ns_per_instr",
        per(capture.total_ns as f64, capture.ops as f64),
    );
    put(
        "workloads.trace_mb",
        trace_bytes as f64 / f64::from(1 << 20),
    );
    put(
        "workloads.fill_ns_per_instr",
        per(fill.total_ns as f64, fill.ops as f64),
    );
    put("vm.translate_calls", translate_calls);
    put("vm.probes_elided_frac", per(elided, probes + elided));
    put("vm.translate_ns", k.translate.ns_per_op());
    put("vm.istlb_misses", sum(|c| c.istlb_misses));
    put("vm.stlb_ns", k.stlb.ns_per_op());
    put("vm.walks", sum(|c| c.walks));
    put("vm.walk_ns", k.walk.ns_per_op());
    put("core.prefetcher_calls", misses.count as f64);
    put(
        "core.prefetcher_ns_per_call",
        per(misses.total_ns as f64, misses.count as f64),
    );
    put(
        "core.prefetches_per_call",
        per(misses.ops as f64, misses.count as f64),
    );
    put("core.coverage", per(covered as f64, istlb_window as f64));
    put("mem.accesses", mem_accesses);
    put("mem.access_ns", k.access.ns_per_op());
    put("mem.warm_ns", k.warm.ns_per_op());
    put("mem.llc_ns", k.llc.ns_per_op());
    put("sim.simulate_s", simulate_ns / 1e9);
    put("sim.layer_accounted_frac", per(accounted, simulate_ns));
    put(
        "sim.residual_ns_per_instr",
        per(simulate_ns - accounted, stepped),
    );
    put("sim.instr_per_run", per(stepped, runs));

    for (name, t) in &totals {
        eprintln!(
            "[hostbench] span {name}: {} spans, {:.3} s total, {:.3} s self, {} ops",
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9,
            t.ops
        );
    }
    if let Some(path) = spans_path {
        if let Err(err) = log.write_jsonl(path) {
            out.errors
                .push(format!("could not write {}: {err}", path.display()));
        }
    }
    out
}
