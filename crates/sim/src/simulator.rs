//! The interval-model simulator loop.

use std::time::Instant;

use morrigan_icache::{FnlMma, FnlMmaConfig, ICachePrefetcher, LinePrefetch, NextLinePrefetcher};
use morrigan_mem::{AccessClass, MemoryHierarchy};
use morrigan_obs::{
    EventKind, IcacheCrossOutcome, NullRecorder, Phase, PhaseProfile, Recorder, TraceEvent,
};
use morrigan_types::{
    check_monotonic, AuditReport, CacheLine, PhysPage, ThreadId, TlbPrefetcher, VirtPage,
    PAGE_SHIFT,
};
use morrigan_vm::{Mmu, PageTable};
use morrigan_workloads::{InstructionStream, TraceInstruction};

use crate::audit::{audit_metrics, audit_state};
use crate::config::{IcachePrefetcherKind, SimConfig, SystemConfig};
use crate::metrics::{IntervalSample, Metrics};
use crate::sampling::SamplingConfig;

/// Per-thread front-end bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct ThreadFrontEnd {
    /// Virtual line index of the last fetch, to detect line crossings.
    cur_vline: Option<u64>,
}

/// Instructions fetched ahead per [`InstructionStream::fill_block_runs`]
/// call.
///
/// Streams are pure generators (their output never depends on simulator
/// state), so pre-fetching a block is invisible to the timing model; the
/// size only amortizes the per-instruction virtual call.
const FILL_BLOCK: usize = 1024;

/// Fixed-point shift for the fast-forward CPI estimate (8 fractional
/// bits: a 4-wide core's best CPI of 0.25 is representable exactly).
const CPI_SHIFT: u32 = 8;

/// Initial CPI estimate (1.0) used until the first detail window of a
/// sampled run has measured the real one.
const CPI_INIT: u64 = 1 << CPI_SHIFT;

/// Floor on the CPI estimate: 1/8 cycle per instruction, well below any
/// reachable steady state, so a degenerate detail window can never
/// freeze simulated time.
const CPI_MIN: u64 = CPI_INIT / 8;

/// A refillable buffer over one workload stream, refilled in
/// [`FILL_BLOCK`] chunks through [`InstructionStream::fill_block_runs`]
/// and drained a page-run segment at a time.
#[derive(Debug, Default)]
struct StreamBuffer {
    buf: Vec<TraceInstruction>,
    cursor: usize,
    /// Page-run partition of `buf` (exclusive end positions in buffer
    /// coordinates; see [`InstructionStream::fill_block_runs`]).
    irun_ends: Vec<u32>,
    drun_ends: Vec<u32>,
    /// Positions into the run vectors of the first run ending after
    /// `cursor`; advanced monotonically by the kernel.
    irun_pos: usize,
    drun_pos: usize,
}

/// Page-run elision counters for one run (warmup included): how many
/// fetch-side translation probes were actually issued vs elided, and how
/// many run segments the batched stepping consumed. The fetch-side
/// conservation law `probes_issued + probes_elided == instructions` is
/// asserted at the end of every [`Simulator::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElisionCounters {
    /// Fetch-side `translate_instr` calls actually performed.
    pub probes_issued: u64,
    /// Instructions that issued no fetch-side probe: same-line fetches
    /// plus new-line fetches covered by a page run's first probe.
    pub probes_elided: u64,
    /// Page-run segments the stepping kernel consumed. A segment ends
    /// at an i-run boundary or at a block edge, so SMT runs, whose
    /// blocks are clipped at every `smt_block` rotation, consume many
    /// short segments.
    pub runs_consumed: u64,
}

impl ElisionCounters {
    /// Accumulates another counter set (multi-core lane aggregation).
    pub fn add(&mut self, other: &ElisionCounters) {
        self.probes_issued += other.probes_issued;
        self.probes_elided += other.probes_elided;
        self.runs_consumed += other.runs_consumed;
    }
}

/// The run's counters so far, taken at warm-up close, at epoch edges
/// and at window close; subtracting two gives a window or an epoch.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    /// Every counter of the record, run so far; `cycles` is the last
    /// retire cycle.
    totals: Metrics,
    /// Instructions retired through the *detailed* timing model (equals
    /// `instructions` in a full run; the sampled stall-scaling divisor).
    detailed: u64,
    /// Cycles accumulated by *detailed* retirements only (equals
    /// `cycles` growth in a full run). The sampled cycle
    /// reconstruction keeps these measured cycles verbatim.
    detail_cycles: u64,
    /// Front-end TLB misses attributable to detailed stepping
    /// (including the in-progress window's share).
    detail_fe: u64,
}

/// The open measurement window: opened by [`Simulator::close_warmup`],
/// cut into interval epochs by [`Simulator::note_epoch`] and closed by
/// [`Simulator::close_window`].
struct Window {
    /// Snapshot at warm-up close.
    start: Snapshot,
    /// Snapshot at the last epoch boundary.
    epoch_start: Snapshot,
    /// Window-relative instruction count of the last epoch boundary.
    epoch_done: u64,
    /// Window-relative instruction count at or past which the epoch in
    /// progress closes.
    next_epoch: u64,
}

impl Window {
    /// Records the epoch from the last boundary to `end`, `done`
    /// instructions into the window, and starts the next one there.
    fn close_epoch(&mut self, done: u64, end: Snapshot, samples: &mut Vec<IntervalSample>) {
        samples.push(IntervalSample {
            start_instruction: self.epoch_done,
            end_instruction: done,
            start_cycle: self.epoch_start.totals.cycles,
            end_cycle: end.totals.cycles,
            metrics: end.totals - self.epoch_start.totals,
        });
        self.epoch_start = end;
        self.epoch_done = done;
    }
}

/// The trace-driven simulator (see the crate docs for the timing model).
///
/// Generic over a trace [`Recorder`]: the default [`NullRecorder`]
/// compiles every emission site away (the non-traced hot path is
/// unchanged); [`Simulator::with_recorder`] attaches a real sink.
pub struct Simulator<R: Recorder = NullRecorder> {
    system: SystemConfig,
    mem: MemoryHierarchy,
    mmu: Mmu<R>,
    icache_pref: Option<Box<dyn ICachePrefetcher>>,
    icache_translation_cost: bool,
    workloads: Vec<Box<dyn InstructionStream>>,
    /// One refillable instruction buffer per workload; SMT thread
    /// selection is deterministic in `retired`, so per-stream consumption
    /// order is identical to instruction-at-a-time delivery.
    stream_bufs: Vec<StreamBuffer>,
    threads: Vec<ThreadFrontEnd>,
    // --- core state ---
    ran: bool,
    fetch_cycle: u64,
    fetched_this_cycle: u64,
    /// Completion times of in-flight instructions, oldest at `rob_head`;
    /// a fixed ring sized to `rob_size` (one push per step, one pop per
    /// step once full, so a `VecDeque` would only add masking overhead).
    rob_ring: Vec<u64>,
    rob_head: usize,
    rob_len: usize,
    /// SMT round-robin state mirroring `(retired / smt_block) % nthreads`
    /// without the per-step division.
    smt_thread: usize,
    smt_left: u64,
    /// Ring buffer of the last `retire_width` retire cycles, oldest at
    /// `retire_head`; `retire_len` grows until the ring is full.
    retire_ring: Vec<u64>,
    retire_head: usize,
    retire_len: usize,
    last_retire: u64,
    retired: u64,
    // --- accumulated front-end stall accounting ---
    istlb_stall_cycles: u64,
    icache_stall_cycles: u64,
    iprefetch_lines: u64,
    iprefetch_ready: u64,
    iprefetch_walks: u64,
    // --- stats-invariant audit ---
    audit_enabled: bool,
    audit: Option<AuditReport>,
    // --- measurement window and interval time-series sampling ---
    /// The measurement window, open between warm-up close and window close.
    window: Option<Window>,
    /// Epoch length in retired instructions; `None` disables sampling.
    interval: Option<u64>,
    intervals: Vec<IntervalSample>,
    // --- SMARTS-style sampled simulation ---
    /// Detail/skip schedule; `None` runs every instruction detailed.
    sampling: Option<SamplingConfig>,
    /// Instructions retired through the detailed model (diverges from
    /// `retired` only in sampled runs).
    detailed: u64,
    /// Fast-forward CPI estimate, `CPI_SHIFT` fixed-point, refreshed at
    /// the end of every detail window.
    cpi_fp: u64,
    /// Fractional-cycle accumulator for the fast-forward time advance.
    cpi_acc: u64,
    /// Retirement count at the start of the current detail window.
    seg_retired: u64,
    /// `last_retire` at the start of the current detail window.
    seg_cycle: u64,
    /// Pooled detail-window instruction count across all windows so far
    /// (the CPI estimator's denominator). Pooling every window keeps the
    /// estimate's variance shrinking as the run progresses instead of
    /// riding each window's ±15 % IPC phase noise.
    cpi_instr_sum: u64,
    /// Pooled detail-window cycle count (the estimator's numerator).
    cpi_cycle_sum: u64,
    /// Windows folded into the pooled sums (the regression's sample
    /// count).
    reg_windows: u64,
    /// Σ per-window front-end TLB misses (`itlb_misses + istlb_misses`)
    /// — the regression covariate, chosen
    /// because it is *measured on every instruction* even while
    /// fast-forwarding and explains ~75-80 % of per-window cycle
    /// variance on the server suite (≈100 cycles per miss).
    reg_miss_sum: u64,
    /// Σ (per-window misses)² for the regression normal equations.
    reg_miss2_sum: u128,
    /// Σ (per-window misses × per-window cycles).
    reg_misscyc_sum: u128,
    /// Front-end TLB miss counter at the current detail-window open.
    seg_fe_miss: u64,
    /// Front-end TLB misses accumulated during *detailed* stepping
    /// (folded at each detail→skip transition; the live window's share
    /// is added at snapshot time). Lets the cycle reconstruction split
    /// the window's measured miss total into detailed vs fast-forwarded
    /// shares.
    detail_fe_misses: u64,
    /// Whether stepping is currently inside a detail window.
    in_detail_window: bool,
    /// Cycles accumulated by detailed retirements (every retirement in
    /// a full run): the measured component of a sampled window's cycle
    /// reconstruction.
    detail_cycles: u64,
    // --- page-run stepping ---
    /// Fetch-side probe/elision accounting (see [`ElisionCounters`]).
    probes_issued: u64,
    probes_elided: u64,
    runs_consumed: u64,
    /// Last data line warmed by the fast-forward, as a one-entry dedupe
    /// memo: a repeat touch of a line that is already MRU in its set
    /// cannot change any LRU order, so consecutive same-line data
    /// accesses warm once. Cleared at every detail-window fold and
    /// context switch, where intervening traffic could have demoted the
    /// memoized line.
    ff_warm_dline: Option<CacheLine>,
    // --- host-side phase profiling ---
    /// Wall-time buckets: the workload-gen split is timed with two
    /// `Instant` reads per refill, noise-level at [`FILL_BLOCK`].
    phase: PhaseProfile,
    // --- scratch ---
    line_scratch: Vec<LinePrefetch>,
}

/// Default audit enablement: always in debug builds; in release only when
/// `MORRIGAN_AUDIT=1` is exported (the checks cost one pass over the
/// counters per checkpoint, negligible, but the policy keeps release
/// figure runs byte-identical to earlier revisions unless asked).
///
/// The only run-level variable read outside the experiments crate's
/// `RunOptions`: hostbench and the tests build simulators and machines
/// directly, so this is the one layer every entry point shares.
///
/// # Panics
///
/// Panics naming the variable unless it is unset, blank, `1` or `0` —
/// in debug builds too, so a typo never passes unnoticed.
pub(crate) fn audit_default() -> bool {
    let requested = match std::env::var("MORRIGAN_AUDIT").as_deref().map(str::trim) {
        Err(_) | Ok("" | "0") => false,
        Ok("1") => true,
        Ok(other) => panic!("MORRIGAN_AUDIT: expected 1 or 0, got {other:?}"),
    };
    cfg!(debug_assertions) || requested
}

impl<R: Recorder> std::fmt::Debug for Simulator<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("system", &self.system)
            .field("threads", &self.workloads.len())
            .field("retired", &self.retired)
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Builds a single-threaded simulator: one workload, one core.
    ///
    /// The workload's code and data regions are mapped into the page table
    /// up front (the OS maps the binary and heap at load time; demand
    /// faulting is not modelled, matching the paper's trace-driven setup).
    pub fn new(
        system: SystemConfig,
        workload: Box<dyn InstructionStream>,
        prefetcher: Box<dyn TlbPrefetcher>,
    ) -> Self {
        Self::new_smt(system, vec![workload], prefetcher)
    }

    /// Builds an SMT simulator colocating `workloads` (one per hardware
    /// thread) on a single core with shared TLBs, PSCs, caches, walker,
    /// PB, and prefetcher tables (§5, §6.6).
    ///
    /// (Defined on the concrete default-recorder type so existing call
    /// sites infer `Simulator<NullRecorder>` without turbofish.)
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty or the workloads' virtual regions
    /// overlap (each colocated address space must use disjoint pages; see
    /// `morrigan_workloads::suites::smt_pairs`).
    pub fn new_smt(
        system: SystemConfig,
        workloads: Vec<Box<dyn InstructionStream>>,
        prefetcher: Box<dyn TlbPrefetcher>,
    ) -> Self {
        Self::with_recorder(system, workloads, prefetcher, NullRecorder)
    }
}

impl<R: Recorder> Simulator<R> {
    /// Builds an SMT simulator whose MMU emits lifecycle trace events
    /// into `rec` (see [`morrigan_obs`]).
    pub fn with_recorder(
        system: SystemConfig,
        workloads: Vec<Box<dyn InstructionStream>>,
        prefetcher: Box<dyn TlbPrefetcher>,
        rec: R,
    ) -> Self {
        assert!(!workloads.is_empty(), "at least one workload required");
        let mut page_table = PageTable::new(0x0a51d);
        let mut regions: Vec<(u64, u64)> = Vec::new();
        for w in &workloads {
            for (base, count) in w.regions() {
                let (b, c) = (base.raw(), count);
                for &(ob, oc) in &regions {
                    assert!(
                        b + c <= ob || ob + oc <= b,
                        "virtual regions of colocated workloads must not overlap"
                    );
                }
                regions.push((b, c));
                page_table.map_range(base, count);
            }
        }
        let mmu = Mmu::with_recorder(system.mmu, page_table, prefetcher, rec);
        let mem = MemoryHierarchy::new(system.mem);
        let (icache_pref, cost): (Option<Box<dyn ICachePrefetcher>>, bool) = match system
            .icache_prefetcher
        {
            IcachePrefetcherKind::None => (None, false),
            IcachePrefetcherKind::NextLine => (Some(Box::new(NextLinePrefetcher::new())), false),
            IcachePrefetcherKind::FnlMma { translation_cost } => (
                Some(Box::new(FnlMma::new(FnlMmaConfig::default()))),
                translation_cost,
            ),
        };
        let threads = vec![ThreadFrontEnd::default(); workloads.len()];
        let stream_bufs = workloads.iter().map(|_| StreamBuffer::default()).collect();
        Self {
            system,
            mem,
            mmu,
            icache_pref,
            icache_translation_cost: cost,
            workloads,
            stream_bufs,
            threads,
            ran: false,
            fetch_cycle: 0,
            fetched_this_cycle: 0,
            rob_ring: vec![0; system.core.rob_size],
            rob_head: 0,
            rob_len: 0,
            smt_thread: 0,
            smt_left: system.core.smt_block,
            retire_ring: vec![0; system.core.retire_width as usize],
            retire_head: 0,
            retire_len: 0,
            last_retire: 0,
            retired: 0,
            istlb_stall_cycles: 0,
            icache_stall_cycles: 0,
            iprefetch_lines: 0,
            iprefetch_ready: 0,
            iprefetch_walks: 0,
            audit_enabled: audit_default(),
            audit: None,
            window: None,
            interval: None,
            intervals: Vec::new(),
            sampling: None,
            detailed: 0,
            cpi_fp: CPI_INIT,
            cpi_acc: 0,
            seg_retired: 0,
            seg_cycle: 0,
            cpi_instr_sum: 0,
            cpi_cycle_sum: 0,
            reg_windows: 0,
            reg_miss_sum: 0,
            reg_miss2_sum: 0,
            reg_misscyc_sum: 0,
            seg_fe_miss: 0,
            detail_fe_misses: 0,
            in_detail_window: false,
            detail_cycles: 0,
            probes_issued: 0,
            probes_elided: 0,
            runs_consumed: 0,
            ff_warm_dline: None,
            phase: PhaseProfile::new(),
            line_scratch: Vec::with_capacity(16),
        }
    }

    /// Forces the stats-invariant audit on or off for this run,
    /// overriding the debug/`MORRIGAN_AUDIT` default.
    pub fn set_audit(&mut self, enabled: bool) {
        self.audit_enabled = enabled;
    }

    /// Enables the interval sampler: the measurement window is cut into
    /// epochs of `interval` retired instructions and a [`IntervalSample`]
    /// is recorded per epoch (MPKI/stall/coverage time series).
    ///
    /// # Panics
    ///
    /// Panics on a zero interval or after the run has started.
    pub fn set_interval(&mut self, interval: Option<u64>) {
        assert!(
            interval != Some(0),
            "sampling interval must be positive when set"
        );
        assert!(!self.ran, "interval must be set before running");
        assert!(
            interval.is_none() || self.sampling.is_none(),
            "interval time-series and sampled simulation are mutually exclusive: \
             epoch cycle counts would mix measured and estimated time"
        );
        self.interval = interval;
    }

    /// Enables SMARTS-style sampled simulation: detailed timing on
    /// `detail`-instruction windows, functional fast-forward over the
    /// `skip` instructions between them (see the [`crate::sampling`]
    /// module docs for exactly what stays warm).
    ///
    /// # Panics
    ///
    /// Panics after the run has started, or if the interval time-series
    /// sampler is enabled (the two are mutually exclusive).
    pub fn set_sampling(&mut self, sampling: Option<SamplingConfig>) {
        assert!(!self.ran, "sampling must be set before running");
        assert!(
            sampling.is_none() || self.interval.is_none(),
            "interval time-series and sampled simulation are mutually exclusive: \
             epoch cycle counts would mix measured and estimated time"
        );
        self.sampling = sampling;
    }

    /// The active sampled-simulation schedule, if any.
    pub fn sampling(&self) -> Option<SamplingConfig> {
        self.sampling
    }

    /// The epoch time-series recorded by the interval sampler (empty
    /// when sampling was not enabled).
    pub fn interval_samples(&self) -> &[IntervalSample] {
        &self.intervals
    }

    /// Host wall-time split of the completed run: workload generation
    /// and the total.
    pub fn phase_profile(&self) -> &PhaseProfile {
        &self.phase
    }

    /// Consumes the simulator, returning its recorder (trace extraction
    /// at end of run).
    pub fn into_recorder(self) -> R {
        self.mmu.into_recorder()
    }

    /// Fetch-side probe/elision counters of the (possibly in-progress)
    /// run, warmup included.
    pub fn elision_counters(&self) -> ElisionCounters {
        ElisionCounters {
            probes_issued: self.probes_issued,
            probes_elided: self.probes_elided,
            runs_consumed: self.runs_consumed,
        }
    }

    /// The audit report of the completed run, when auditing was enabled.
    ///
    /// A present report is always clean: [`Simulator::run`] panics on the
    /// first violated law rather than returning tainted metrics.
    pub fn audit_report(&self) -> Option<&AuditReport> {
        self.audit.as_ref()
    }

    /// The simulated system configuration.
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// The MMU (mid-run inspection: miss-stream stats, PB, walker).
    pub fn mmu(&self) -> &Mmu<R> {
        &self.mmu
    }

    /// Mutable MMU access (e.g. toggling ASAP between runs).
    pub fn mmu_mut(&mut self) -> &mut Mmu<R> {
        &mut self.mmu
    }

    /// The memory hierarchy (served-level inspection, audit checks).
    pub fn mem(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// Mutable hierarchy access (the machine swaps the shared LLC in and
    /// out around each core's steps).
    pub fn mem_mut(&mut self) -> &mut MemoryHierarchy {
        &mut self.mem
    }

    /// Instructions retired so far (warmup included).
    pub(crate) fn retired(&self) -> u64 {
        self.retired
    }

    /// Emits one simulator-side trace event; compiles to nothing under
    /// [`NullRecorder`].
    #[inline(always)]
    fn emit(&mut self, cycle: u64, vpn: u64, kind: EventKind) {
        if R::ENABLED {
            self.mmu
                .recorder_mut()
                .record(TraceEvent { cycle, vpn, kind });
        }
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            totals: Metrics {
                instructions: self.retired,
                cycles: self.last_retire,
                istlb_stall_cycles: self.istlb_stall_cycles,
                icache_stall_cycles: self.icache_stall_cycles,
                iprefetch_lines: self.iprefetch_lines,
                iprefetch_translation_ready: self.iprefetch_ready,
                iprefetch_translation_walks: self.iprefetch_walks,
                ..Metrics::structure_totals(&self.mmu, &self.mem)
            },
            detailed: self.detailed,
            detail_cycles: self.detail_cycles,
            detail_fe: self.detail_fe_misses
                + if self.in_detail_window {
                    self.fe_misses() - self.seg_fe_miss
                } else {
                    0
                },
        }
    }

    /// Front-end TLB miss counter used as the sampled-cycle regression
    /// covariate: L1 iTLB misses plus iSTLB misses (double-weighting the
    /// walk-bound subset). Advances identically in detail and
    /// fast-forward steps.
    fn fe_misses(&self) -> u64 {
        self.mmu.stats.itlb_misses + self.mmu.stats.istlb_misses
    }

    /// Runs warmup then measurement, returning the measurement-window
    /// metrics.
    ///
    /// # Panics
    ///
    /// Panics if called a second time on the same instance: warmup state
    /// and window snapshots are consumed by the first run, so a rerun
    /// would silently measure a differently-warmed system. Build a fresh
    /// `Simulator` per run (the experiment runner does exactly that).
    pub fn run(&mut self, cfg: SimConfig) -> Metrics {
        assert!(
            !self.ran,
            "Simulator::run called twice: each simulator instance runs exactly once \
             (warmup and measurement snapshots are consumed); build a new Simulator \
             for every run"
        );
        self.ran = true;
        let run_start = Instant::now();
        let mut report = self.audit_enabled.then(|| {
            AuditReport::new(format!(
                "{} run ({} warmup + {} measure instructions)",
                self.mmu.prefetcher_name(),
                cfg.warmup_instructions,
                cfg.measure_instructions
            ))
        });
        self.advance(cfg.warmup_instructions);
        self.close_warmup(report.as_mut(), "end of warmup");
        // Each chunk ends on the next epoch edge, so single-core epochs
        // are exactly `interval` instructions long.
        let end = cfg.warmup_instructions + cfg.measure_instructions;
        while self.retired < end {
            self.advance(self.interval.unwrap_or(u64::MAX).min(end - self.retired));
            self.note_epoch();
        }
        let metrics = self.close_window(report.as_mut(), "end of window");
        self.phase.add_total(run_start.elapsed().as_secs_f64());
        if let Some(r) = report {
            assert!(r.is_clean(), "{}", r.render());
            self.audit = Some(r);
        }
        metrics
    }

    /// Closes warm-up, the first step of the window protocol that
    /// [`Simulator::run`] and every machine lane follow: audits the warm
    /// state under `at`, breaks the miss-stream chain, drops the warm-up
    /// CPI pool and opens the measurement window, with its first interval
    /// epoch, at the current retirement count.
    pub(crate) fn close_warmup(&mut self, report: Option<&mut AuditReport>, at: &str) {
        if let Some(r) = report {
            audit_state(r, at, &self.mmu, &self.mem);
        }
        self.mmu.miss_stream.break_chain();
        self.reset_cpi_pool();
        let start = self.snapshot();
        self.window = Some(Window {
            start,
            epoch_start: start,
            epoch_done: 0,
            next_epoch: self.interval.unwrap_or(u64::MAX),
        });
    }

    /// Closes the interval epoch in progress once the window has reached
    /// its edge; call after every advance. An epoch closes at the first
    /// call at or past each multiple of the interval and records its
    /// actual extent, so a caller that advances in fixed quanta never
    /// bends its instruction schedule to land on the nominal edge. A
    /// no-op outside the window or without an interval.
    pub(crate) fn note_epoch(&mut self) {
        let (Some(interval), Some(window)) = (self.interval, &self.window) else {
            return;
        };
        let done = self.retired - window.start.totals.instructions;
        if done >= window.next_epoch {
            let end = self.snapshot();
            let window = self.window.as_mut().expect("the window is open");
            window.close_epoch(done, end, &mut self.intervals);
            window.next_epoch = (done / interval + 1) * interval;
        }
    }

    /// Closes the measurement window: checks fetch-side probe
    /// conservation, records the final (possibly partial) epoch so the
    /// samples tile the window, and returns the window metrics — cycles
    /// at least 1, rescaled under sampled stepping — after auditing the
    /// end state under `at`, the window's monotonicity and the metrics.
    pub(crate) fn close_window(&mut self, report: Option<&mut AuditReport>, at: &str) -> Metrics {
        crate::audit::assert_probe_conservation(
            self.probes_issued,
            self.probes_elided,
            self.retired,
        );
        let end = self.snapshot();
        let mut window = self.window.take().expect("close_warmup opened the window");
        let done = end.totals.instructions - window.start.totals.instructions;
        if self.interval.is_some() && done > window.epoch_done {
            window.close_epoch(done, end, &mut self.intervals);
        }
        let mut metrics = end.totals - window.start.totals;
        // The run-level IPC denominator must never be zero; epoch samples
        // keep the raw difference so they sum exactly.
        metrics.cycles = metrics.cycles.max(1);
        if self.sampling.is_some() {
            self.scale_sampled_metrics(&mut metrics, &window.start, &end);
        }
        if let Some(r) = report {
            audit_state(r, at, &self.mmu, &self.mem);
            // Window monotonicity: every counter the subtraction relies
            // on must be no smaller at the end than at the start.
            check_monotonic(
                r,
                "measurement window",
                "window",
                &window.start.totals,
                &end.totals,
            );
            audit_metrics(r, &metrics);
        }
        metrics
    }

    /// Rescales the detail-only counters of a sampled window: stall cycles,
    /// L1I demand misses, L1I served references, and the I-cache-prefetcher
    /// counters only advance during detail steps (the fast-forward warms
    /// MMU and cache *state* but records no cache statistics), so each
    /// window total is the
    /// detailed sum scaled by the window's instruction-to-detailed ratio
    /// (u128 intermediate — counters × instructions overflows u64 at bench
    /// scale). Per-counter floor division keeps every audited inequality
    /// (`a ≤ b ⇒ ⌊a·f⌋ ≤ ⌊b·f⌋`, and `⌊a·f⌋+⌊b·f⌋ ≤ ⌊(a+b)·f⌋` for the
    /// summed iprefetch law).
    fn scale_sampled_metrics(&self, metrics: &mut Metrics, start: &Snapshot, end: &Snapshot) {
        let detailed = end.detailed - start.detailed;
        let instructions = metrics.instructions;
        // Cycle reconstruction: the raw `last_retire` difference charged each
        // skip stretch at the CPI estimate available *when the stretch ran* —
        // a noisy prefix of the pooled sample that systematically overweights
        // the run's earliest windows. Instead, keep the detail windows'
        // measured cycles verbatim and recharge the fast-forwarded stretch
        // from a per-window regression fit over the detail windows,
        //
        //   cycles_w ≈ α·instr_w + β·miss_w,
        //
        // where `miss_w` is the front-end TLB miss count — measured on every
        // fast-forwarded instruction too, so the β term recovers the phase
        // structure (miss-heavy vs miss-light stretches) that a flat CPI
        // charge aliases over. On the server suite the covariate explains
        // ~75-80 % of per-window cycle variance (β ≈ 100 cycles/miss),
        // roughly halving the IPC extrapolation error. Degenerate fits
        // (fewer than two windows, no covariate variance, or coefficients
        // outside physical bounds) fall back to the pooled mean-CPI charge.
        // The live clock is untouched — the MMU saw monotone prefix-estimate
        // timestamps — only the reported window cycles are rebuilt.
        let ff_instr = instructions - detailed;
        let detail_cycles = end.detail_cycles - start.detail_cycles;
        // The pooled sums and the CPI estimate are read live: warm-up
        // close zeroes the sums just before the window opens, so they
        // hold exactly the window's detail windows, and the recharge uses
        // the full pooled estimate rather than the prefixes each skip
        // stretch saw.
        let ff_cycles = {
            let n = self.reg_windows as f64;
            let si = self.cpi_instr_sum as f64;
            let sc = self.cpi_cycle_sum as f64;
            let sm = self.reg_miss_sum as f64;
            let sm2 = self.reg_miss2_sum as f64;
            let smc = self.reg_misscyc_sum as f64;
            let fe_total = metrics.mmu.itlb_misses + metrics.mmu.istlb_misses;
            let ff_miss = fe_total.saturating_sub(end.detail_fe - start.detail_fe) as f64;
            let denom = n * sm2 - sm * sm;
            let fit = (n >= 2.0 && denom > 0.0 && si > 0.0)
                .then(|| {
                    let beta = (n * smc - sm * sc) / denom;
                    let alpha = (sc - beta * sm) / si;
                    (alpha, beta)
                })
                .filter(|&(alpha, beta)| (0.0..=1000.0).contains(&beta) && alpha >= 0.1);
            match fit {
                Some((alpha, beta)) => (alpha * ff_instr as f64 + beta * ff_miss) as u64,
                None => ((ff_instr as u128 * self.cpi_fp as u128) >> CPI_SHIFT) as u64,
            }
        };
        metrics.cycles = (detail_cycles + ff_cycles).max(1);
        let scale = |v: &mut u64| {
            *v = if detailed == 0 {
                0
            } else {
                ((*v as u128 * instructions as u128) / detailed as u128) as u64
            };
        };
        scale(&mut metrics.istlb_stall_cycles);
        scale(&mut metrics.icache_stall_cycles);
        scale(&mut metrics.l1i_misses);
        scale(&mut metrics.l1i_served.ifetch);
        scale(&mut metrics.l1i_served.data);
        scale(&mut metrics.l1i_served.demand_walk);
        scale(&mut metrics.l1i_served.prefetch_walk);
        scale(&mut metrics.l1i_served.iprefetch);
        scale(&mut metrics.iprefetch_lines);
        scale(&mut metrics.iprefetch_translation_ready);
        scale(&mut metrics.iprefetch_translation_walks);
    }

    /// The context-switch reset: ASID bump in the MMU, I-cache-prefetcher
    /// flush, and fetch-line invalidation.
    fn context_switch_reset(&mut self) {
        self.mmu.context_switch_at(self.fetch_cycle);
        if let Some(p) = self.icache_pref.as_mut() {
            p.flush();
        }
        for t in &mut self.threads {
            t.cur_vline = None;
        }
        self.ff_warm_dline = None;
    }

    /// Drops the warmup-era contributions from the pooled CPI estimator
    /// at the warmup→measurement boundary. The pool exists to average
    /// out per-window phase noise, but the cold-start windows' inflated
    /// CPI would otherwise bias every measurement-window skip stretch
    /// upward; the current `cpi_fp` (already dominated by the freshest
    /// warm windows) carries over as the seed until the first
    /// measurement window refreshes it.
    fn reset_cpi_pool(&mut self) {
        self.cpi_instr_sum = 0;
        self.cpi_cycle_sum = 0;
        self.reg_windows = 0;
        self.reg_miss_sum = 0;
        self.reg_miss2_sum = 0;
        self.reg_misscyc_sum = 0;
    }

    /// Skip→detail transition (and run start): mark the window open. The
    /// whole window feeds the estimator — an earlier measured-second-half
    /// split (SMARTS-style detailed warming) measured no better here,
    /// because the fast-forward keeps every MMU structure warm and the
    /// remaining post-skip pipeline transient is ROB-sized, noise against
    /// multi-k windows — and halving the sample just raised the fit
    /// variance.
    fn open_detail_window(&mut self) {
        self.seg_retired = self.retired;
        self.seg_cycle = self.last_retire;
        self.seg_fe_miss = self.fe_misses();
        self.in_detail_window = true;
    }

    /// Detail→skip transition: fold the window just finished into the
    /// pooled estimator sums and refresh the live CPI. A single window's
    /// CPI rides the workload's phase noise (per-10k-epoch IPC swings
    /// ±15 % on the server suite); pooling every window keeps the
    /// fast-forward clock anchored to the run's mean detail CPI, whose
    /// variance shrinks as windows accumulate. Guarded against degenerate
    /// windows (a zero-cycle window would freeze simulated time).
    fn fold_detail_window(&mut self) {
        let di = self.retired - self.seg_retired;
        let dc = self.last_retire - self.seg_cycle;
        if di > 0 && dc > 0 {
            let dm = self.fe_misses() - self.seg_fe_miss;
            self.cpi_instr_sum += di;
            self.cpi_cycle_sum += dc;
            self.reg_windows += 1;
            self.reg_miss_sum += dm;
            self.reg_miss2_sum += dm as u128 * dm as u128;
            self.reg_misscyc_sum += dm as u128 * dc as u128;
            self.cpi_fp = ((self.cpi_cycle_sum << CPI_SHIFT) / self.cpi_instr_sum).max(CPI_MIN);
        }
        self.detail_fe_misses += self.fe_misses() - self.seg_fe_miss;
        self.in_detail_window = false;
        // The detail window's demand traffic may have demoted or evicted
        // the memoized line; the next fast-forward stretch re-warms it.
        self.ff_warm_dline = None;
    }

    /// Retires exactly `n` instructions under the active schedule.
    pub(crate) fn advance(&mut self, n: u64) {
        // The buffers leave `self` for the whole call so the kernel can
        // borrow one alongside the MMU and hierarchy.
        let mut bufs = std::mem::take(&mut self.stream_bufs);
        let mut left = n;
        while left > 0 {
            left -= self.step_auto_block(&mut bufs, left);
        }
        self.stream_bufs = bufs;
    }

    /// Executes up to `max` instructions (at least one) under the active
    /// schedule through the stepping kernel, returning how many retired:
    /// the detailed model in full runs and inside detail windows, the
    /// functional fast-forward between them. The schedule is anchored at
    /// absolute retirement count zero (period position = `retired %
    /// period`), so every run starts with a detail window and the
    /// multi-core machine can drive each core's schedule from its own
    /// retirement counter.
    ///
    /// Blocks never cross an edge at which per-instruction stepping
    /// would change state between two instructions: detail blocks are
    /// clipped to the detail window, fast-forward blocks to the period
    /// end, every block to the next context-switch boundary and, under
    /// SMT, to the current thread's remaining `smt_block` slots. Every
    /// window open/fold, context switch and thread rotation therefore
    /// fires at exactly the retirement count where one-at-a-time
    /// stepping puts it, and a block is a single-thread, single-mode
    /// stretch the kernel can consume in page runs. The caller's `max`
    /// is the remaining edge: the warmup/measurement boundary, an
    /// interval epoch end, or the machine's quantum.
    fn step_auto_block(&mut self, bufs: &mut [StreamBuffer], max: u64) -> u64 {
        debug_assert!(max > 0, "step_auto_block needs a positive budget");
        let mut budget = max;
        let detail = match self.sampling {
            None => true,
            Some(s) => {
                let pos = self.retired % s.period();
                if pos == 0 {
                    self.open_detail_window();
                }
                if pos < s.detail {
                    budget = budget.min(s.detail - pos);
                    true
                } else {
                    if pos == s.detail {
                        self.fold_detail_window();
                    }
                    budget = budget.min(s.period() - pos);
                    false
                }
            }
        };
        if let Some(interval) = self.system.context_switch_interval {
            if self.retired > 0 && self.retired.is_multiple_of(interval) {
                self.context_switch_reset();
            }
            budget = budget.min(interval - self.retired % interval);
        }
        let nthreads = self.workloads.len();
        let thread = if nthreads == 1 {
            0
        } else {
            // Incremental `(retired / smt_block) % nthreads`.
            if self.smt_left == 0 {
                self.smt_thread += 1;
                if self.smt_thread == nthreads {
                    self.smt_thread = 0;
                }
                self.smt_left = self.system.core.smt_block;
            }
            budget = budget.min(self.smt_left);
            self.smt_left -= budget;
            self.smt_thread
        };
        let buf = &mut bufs[thread];
        let mut done = 0u64;
        while done < budget {
            if buf.cursor == buf.buf.len() {
                self.refill(thread, buf);
            }
            let take = ((budget - done) as usize).min(buf.buf.len() - buf.cursor);
            if detail {
                self.consume::<true>(thread, buf, take);
            } else {
                self.consume::<false>(thread, buf, take);
            }
            done += take as u64;
        }
        done
    }

    /// Refills `buf` from workload `thread` through the run-aware bulk
    /// path (a packed replay derives the runs while it decodes).
    fn refill(&mut self, thread: usize, buf: &mut StreamBuffer) {
        buf.buf.clear();
        let gen_start = Instant::now();
        self.workloads[thread].fill_block_runs(
            &mut buf.buf,
            &mut buf.irun_ends,
            &mut buf.drun_ends,
            FILL_BLOCK,
        );
        self.phase
            .add(Phase::WorkloadGen, gen_start.elapsed().as_secs_f64());
        buf.cursor = 0;
        buf.irun_pos = 0;
        buf.drun_pos = 0;
    }

    /// The stepping kernel: consumes `take` buffered instructions of
    /// `thread`, one page-run segment at a time, through the detailed
    /// model (`DETAIL`) or the functional fast-forward.
    ///
    /// Identical to `take` one-instruction steps, by the elision
    /// argument (DESIGN.md §14). Each consume starts unprobed. Within an
    /// i-run segment every new-line fetch after the segment's first real
    /// `translate_instr` is a guaranteed iTLB hit: the page was made
    /// resident by that probe, and nothing inside the segment can evict
    /// it (the iTLB is only written by `translate_instr`, and a context
    /// switch or SMT rotation only lands on a block edge). A hit's whole
    /// effect is one stats bump plus an LRU touch, reproduced in bulk by
    /// `note_elided_instr_hits` before the next real probe. Same-page
    /// data accesses within a d-run elide `translate_data` the same way.
    ///
    /// The detailed model runs ROB admission, fetch-width accounting,
    /// the I-cache and D-cache accesses, the I-cache prefetcher and
    /// in-order retirement per instruction. The fast-forward runs every
    /// MMU path too, so TLB/PSC/PB/walker/prefetcher state and counters
    /// advance exactly as in a detail step and the paper's iSTLB metrics
    /// stay *measured*. It skips the timing model and instead *warms*
    /// the cache hierarchy ([`MemoryHierarchy::warm`]): every demand
    /// line, I-fetch per line transition and data per access, is
    /// promoted or installed MRU through all levels without latency or
    /// statistics. Without warming, skip stretches froze the caches and
    /// compressed every cross-window reuse distance by the sampling
    /// ratio, inflating detail-window hit rates for working sets that
    /// straddle a capacity boundary. Simulated time advances by the
    /// fixed-point CPI measured over the pooled detail windows: the j-th
    /// instruction sees `fc0 + ((acc0 + j·cpi_fp) >> CPI_SHIFT)`, exact
    /// because the accumulator residue is always below `1 << CPI_SHIFT`.
    /// The clock is only materialized for the real MMU calls; one bulk
    /// settle at the end moves `fetch_cycle`, `cpi_acc` and
    /// `last_retire` to their per-instruction values.
    fn consume<const DETAIL: bool>(&mut self, thread: usize, buf: &mut StreamBuffer, take: usize) {
        let core = self.system.core;
        let tid = ThreadId(thread as u8);
        let start = buf.cursor;
        let end = start + take;
        // Catch the run cursors up to the buffer cursor (a previous
        // consume may have stopped mid-run).
        while buf.irun_ends[buf.irun_pos] as usize <= start {
            buf.irun_pos += 1;
        }
        while buf.drun_ends[buf.drun_pos] as usize <= start {
            buf.drun_pos += 1;
        }

        let fc0 = self.fetch_cycle;
        let acc0 = self.cpi_acc;
        let fp = self.cpi_fp;
        debug_assert!(
            DETAIL || acc0 < 1 << CPI_SHIFT,
            "accumulator residue invariant"
        );
        let ff_clock = |j: usize| fc0 + ((acc0 + j as u64 * fp) >> CPI_SHIFT);

        let mut cur_vline = self.threads[thread].cur_vline;
        let issued0 = self.probes_issued;

        // Current i-run segment: the first new-line fetch issues a real
        // probe (a hit when the segment continues an already-resident
        // page, exactly what one-at-a-time stepping would issue) and
        // caches the segment's PFN; later new lines elide.
        let mut iseg_pfn = PhysPage::new(0);
        let mut iseg_vpn = 0u64;
        let mut iseg_probed = false;
        let mut elided_i = 0u64;
        let mut inext = (buf.irun_ends[buf.irun_pos] as usize).min(end);

        // Current d-run segment, same lazy-first-probe discipline. D-runs
        // partition the block independently of i-runs, so this state
        // carries across i-run boundaries.
        let mut dseg_pfn = PhysPage::new(0);
        let mut dseg_vpn = 0u64;
        let mut dseg_probed = false;
        let mut pending_d = 0u64;
        let mut dnext = buf.drun_ends[buf.drun_pos] as usize;

        let mut i = start;
        while i < end {
            let seg_end = inext;
            while i < seg_end {
                let instr = buf.buf[i];

                // --- ROB admission: stall fetch while the ROB is full. ---
                if DETAIL {
                    while self.rob_len >= core.rob_size {
                        let head = self.rob_ring[self.rob_head];
                        self.rob_head += 1;
                        if self.rob_head == core.rob_size {
                            self.rob_head = 0;
                        }
                        self.rob_len -= 1;
                        if head > self.fetch_cycle {
                            self.fetch_cycle = head;
                            self.fetched_this_cycle = 0;
                        }
                    }
                }

                // --- Front end ---
                let vline = instr.pc.raw() >> 6;
                if cur_vline != Some(vline) {
                    cur_vline = Some(vline);
                    let mut tr_stall = 0;
                    if iseg_probed {
                        elided_i += 1;
                    } else {
                        self.probes_issued += 1;
                        let now = if DETAIL {
                            self.fetch_cycle
                        } else {
                            ff_clock(i - start)
                        };
                        let tr = self.mmu.translate_instr(instr.pc, tid, now, &mut self.mem);
                        // Charge everything beyond the 1-cycle I-TLB hit.
                        tr_stall = tr.latency.saturating_sub(self.system.mmu.itlb.latency);
                        iseg_pfn = tr.pfn;
                        iseg_vpn = instr.pc.raw() >> PAGE_SHIFT;
                        iseg_probed = true;
                    }
                    // Elided transitions share the segment's page, so the
                    // cached PFN yields the line a real probe would.
                    let pline = CacheLine::new(
                        iseg_pfn.raw() << (PAGE_SHIFT - 6) | (instr.pc.page_offset() >> 6),
                    );
                    if DETAIL {
                        self.istlb_stall_cycles += tr_stall;
                        let ic = self.mem.access(pline, AccessClass::IFetch);
                        let ic_stall = ic.latency.saturating_sub(self.system.mem.l1i.latency);
                        self.icache_stall_cycles += ic_stall;

                        let bubble = tr_stall + ic_stall;
                        if bubble > 0 {
                            self.fetch_cycle += bubble;
                            self.fetched_this_cycle = 0;
                        }
                        if self.icache_pref.is_some() {
                            self.run_icache_prefetcher(vline, iseg_pfn);
                        }
                    } else {
                        self.mem.warm(pline, true);
                    }
                }

                // Fetch-width accounting.
                if DETAIL {
                    self.fetched_this_cycle += 1;
                    if self.fetched_this_cycle >= core.fetch_width {
                        self.fetch_cycle += 1;
                        self.fetched_this_cycle = 0;
                    }
                }

                // --- Back end ---
                let mut complete = self.fetch_cycle + core.pipeline_depth;
                if let Some(mem_access) = instr.mem {
                    if i >= dnext {
                        // Crossed into a new d-run: settle the old one
                        // before its successor's real probe.
                        if pending_d > 0 {
                            self.mmu
                                .note_elided_data_hits(VirtPage::new(dseg_vpn), pending_d);
                            pending_d = 0;
                        }
                        dseg_probed = false;
                        while buf.drun_ends[buf.drun_pos] as usize <= i {
                            buf.drun_pos += 1;
                        }
                        dnext = buf.drun_ends[buf.drun_pos] as usize;
                    }
                    let mut tr_extra = 0;
                    if dseg_probed {
                        pending_d += 1;
                    } else {
                        let now = if DETAIL {
                            self.fetch_cycle
                        } else {
                            ff_clock(i - start)
                        };
                        let tr = self
                            .mmu
                            .translate_data(mem_access.addr, tid, now, &mut self.mem);
                        tr_extra = tr.latency.saturating_sub(self.system.mmu.dtlb.latency);
                        dseg_pfn = tr.pfn;
                        dseg_vpn = mem_access.addr.raw() >> PAGE_SHIFT;
                        dseg_probed = true;
                    }
                    let pline = CacheLine::new(
                        dseg_pfn.raw() << (PAGE_SHIFT - 6) | (mem_access.addr.page_offset() >> 6),
                    );
                    if DETAIL {
                        // Latency beyond the pipelined L1 hit path inflates
                        // only this instruction's completion time
                        // (overlapped by the ROB).
                        let dc = self.mem.access(pline, AccessClass::Data);
                        complete +=
                            tr_extra + dc.latency.saturating_sub(self.system.mem.l1d.latency);
                    } else if self.ff_warm_dline != Some(pline) {
                        self.ff_warm_dline = Some(pline);
                        self.mem.warm(pline, false);
                    }
                }

                // In-order retirement at `retire_width` per cycle: the
                // ring holds the last `retire_width` retire cycles, and a
                // full ring gates this retirement behind its oldest
                // entry + 1.
                if DETAIL {
                    let mut retire = complete.max(self.last_retire);
                    let width = core.retire_width as usize;
                    if self.retire_len >= width {
                        let gate = self.retire_ring[self.retire_head];
                        retire = retire.max(gate + 1);
                        self.retire_ring[self.retire_head] = retire;
                        self.retire_head += 1;
                        if self.retire_head == width {
                            self.retire_head = 0;
                        }
                    } else {
                        let mut slot = self.retire_head + self.retire_len;
                        if slot >= width {
                            slot -= width;
                        }
                        self.retire_ring[slot] = retire;
                        self.retire_len += 1;
                    }
                    let mut slot = self.rob_head + self.rob_len;
                    if slot >= core.rob_size {
                        slot -= core.rob_size;
                    }
                    self.rob_ring[slot] = retire;
                    self.rob_len += 1;
                    self.detail_cycles += retire - self.last_retire;
                    self.last_retire = retire;
                }
                i += 1;
            }

            // i-run segment end: settle the elided probes before the next
            // segment's real one can touch the iTLB.
            if elided_i > 0 {
                self.mmu
                    .note_elided_instr_hits(VirtPage::new(iseg_vpn), elided_i);
                elided_i = 0;
            }
            self.runs_consumed += 1;
            if i < end {
                iseg_probed = false;
                while buf.irun_ends[buf.irun_pos] as usize <= i {
                    buf.irun_pos += 1;
                }
                inext = (buf.irun_ends[buf.irun_pos] as usize).min(end);
            }
        }
        if pending_d > 0 {
            self.mmu
                .note_elided_data_hits(VirtPage::new(dseg_vpn), pending_d);
        }
        self.threads[thread].cur_vline = cur_vline;
        buf.cursor = end;
        self.probes_elided += take as u64 - (self.probes_issued - issued0);
        self.retired += take as u64;
        if DETAIL {
            self.detailed += take as u64;
        } else {
            // Bulk clock settle: whole cycles carved off the accumulator
            // exactly as `take` per-instruction advances would have, with
            // `fetched_this_cycle` reset iff any of them advanced.
            // `fetch_cycle` and `last_retire` move together so the MMU
            // keeps seeing monotone timestamps and the next detail window
            // resumes from the advanced clock.
            let total = acc0 + take as u64 * fp;
            let adv = total >> CPI_SHIFT;
            self.cpi_acc = total - (adv << CPI_SHIFT);
            if adv > 0 {
                self.fetch_cycle = fc0 + adv;
                self.fetched_this_cycle = 0;
                self.last_retire += adv;
            }
        }
    }

    /// Feeds the I-cache prefetcher and services its requests, modelling
    /// translation for page-crossing prefetches per §3.5. `pfn` backs the
    /// fetched line's page, so a same-page prefetch (all NextLine ever
    /// issues) translates nothing; a page-crossing one asks the page
    /// table.
    fn run_icache_prefetcher(&mut self, vline: u64, pfn: PhysPage) {
        self.line_scratch.clear();
        self.icache_pref
            .as_mut()
            .expect("caller checked icache_pref")
            .on_fetch(vline, &mut self.line_scratch);
        let cur_page = VirtPage::new(vline >> (PAGE_SHIFT - 6));
        for i in 0..self.line_scratch.len() {
            let lp = self.line_scratch[i];
            self.iprefetch_lines += 1;
            let page = lp.page();
            let translated = page == cur_page
                || self.mmu.instr_translation_ready(page)
                || !self.icache_translation_cost;
            if translated {
                self.iprefetch_ready += 1;
                if R::ENABLED && page != cur_page {
                    // Only genuine page crossings are traced; same-page
                    // prefetches never pose a translation question.
                    self.emit(
                        self.fetch_cycle,
                        page.raw(),
                        EventKind::IcacheCross(IcacheCrossOutcome::Ready),
                    );
                }
                let target = if page == cur_page {
                    Some(pfn)
                } else {
                    self.mmu.page_table().translate(page)
                };
                if let Some(pfn) = target {
                    let pline = CacheLine::new(
                        pfn.raw() << (PAGE_SHIFT - 6) | (lp.vline % (1 << (PAGE_SHIFT - 6))),
                    );
                    if !self.mem.l1i_contains(pline) {
                        self.mem.access(pline, AccessClass::IPrefetch);
                    }
                }
            } else {
                // The prefetch crossed into an untranslated page: it must
                // wait for a prefetch page walk (occupying the shared
                // walker) and the line fetch is too late to help.
                if self
                    .mmu
                    .icache_prefetch_translation(page, self.fetch_cycle, &mut self.mem)
                    .is_some()
                {
                    self.iprefetch_walks += 1;
                    self.emit(
                        self.fetch_cycle,
                        page.raw(),
                        EventKind::IcacheCross(IcacheCrossOutcome::WalkIssued),
                    );
                } else {
                    self.emit(
                        self.fetch_cycle,
                        page.raw(),
                        EventKind::IcacheCross(IcacheCrossOutcome::Suppressed),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morrigan::{Morrigan, MorriganConfig};
    use morrigan_types::prefetcher::NullPrefetcher;
    use morrigan_workloads::{
        ServerWorkload, ServerWorkloadConfig, SpecWorkload, SpecWorkloadConfig,
    };

    fn server(seed: u64) -> Box<ServerWorkload> {
        Box::new(ServerWorkload::new(ServerWorkloadConfig::qmm_like(
            format!("t{seed}"),
            seed,
        )))
    }

    fn quick() -> SimConfig {
        SimConfig {
            warmup_instructions: 20_000,
            measure_instructions: 60_000,
        }
    }

    #[test]
    fn baseline_run_produces_sane_metrics() {
        let mut sim = Simulator::new(SystemConfig::default(), server(1), Box::new(NullPrefetcher));
        let m = sim.run(quick());
        assert_eq!(m.instructions, 60_000);
        assert!(
            m.cycles > 15_000,
            "4-wide core: at least instructions/4 cycles"
        );
        let ipc = m.ipc();
        assert!(ipc > 0.1 && ipc <= 4.0, "IPC {ipc}");
        assert!(
            m.mmu.istlb_misses > 0,
            "server workload must pressure the iSTLB"
        );
        assert!(m.walker.demand_instr_walks > 0);
    }

    #[test]
    fn server_workload_is_istlb_intensive_spec_is_not() {
        let mut srv = Simulator::new(SystemConfig::default(), server(2), Box::new(NullPrefetcher));
        let srv_m = srv.run(quick());
        let spec = SpecWorkload::new(SpecWorkloadConfig::spec_like("s", 2));
        let mut spc = Simulator::new(
            SystemConfig::default(),
            Box::new(spec),
            Box::new(NullPrefetcher),
        );
        let spc_m = spc.run(quick());
        assert!(
            srv_m.istlb_mpki() > 0.5,
            "QMM-class workloads must exceed the paper's intensity threshold, got {}",
            srv_m.istlb_mpki()
        );
        assert!(
            spc_m.istlb_mpki() < srv_m.istlb_mpki() / 4.0,
            "SPEC-like should be far below server: {} vs {}",
            spc_m.istlb_mpki(),
            srv_m.istlb_mpki()
        );
    }

    #[test]
    fn morrigan_covers_misses_and_speeds_up() {
        let mut base = Simulator::new(SystemConfig::default(), server(3), Box::new(NullPrefetcher));
        let base_m = base.run(quick());
        let mut with = Simulator::new(
            SystemConfig::default(),
            server(3),
            Box::new(Morrigan::new(MorriganConfig::default())),
        );
        let with_m = with.run(quick());
        // The 60k-instruction window barely trains the tables; full
        // coverage shapes are asserted at release scale in
        // tests/paper_shapes.rs and the experiment tests.
        assert!(with_m.coverage() > 0.05, "coverage {}", with_m.coverage());
        assert!(
            with_m.speedup_over(&base_m) > 1.0,
            "Morrigan should win: {} vs {}",
            with_m.ipc(),
            base_m.ipc()
        );
        assert!(
            with_m.demand_instr_walk_refs() < base_m.demand_instr_walk_refs(),
            "covered misses eliminate demand walk references"
        );
    }

    #[test]
    fn perfect_istlb_is_an_upper_bound() {
        let mut base = Simulator::new(SystemConfig::default(), server(4), Box::new(NullPrefetcher));
        let base_m = base.run(quick());
        let mut sys = SystemConfig::default();
        sys.mmu.perfect_istlb = true;
        let mut perfect = Simulator::new(sys, server(4), Box::new(NullPrefetcher));
        let perfect_m = perfect.run(quick());
        assert!(perfect_m.speedup_over(&base_m) > 1.0);
        assert_eq!(perfect_m.mmu.istlb_misses, 0);
    }

    #[test]
    fn istlb_stalls_are_a_meaningful_cycle_fraction() {
        // Fig 4: QMM workloads spend >5 % of cycles on iSTLB handling.
        let mut sim = Simulator::new(SystemConfig::default(), server(5), Box::new(NullPrefetcher));
        let m = sim.run(quick());
        let frac = m.istlb_cycle_fraction();
        assert!(frac > 0.02, "translation stall fraction too low: {frac}");
        assert!(frac < 0.6, "translation stall fraction implausible: {frac}");
    }

    #[test]
    fn smt_colocation_shares_structures() {
        let pair = morrigan_workloads::suites::smt_pairs(1).remove(0);
        let mut sim = Simulator::new_smt(
            SystemConfig::default(),
            vec![
                Box::new(ServerWorkload::new(pair.0)),
                Box::new(ServerWorkload::new(pair.1)),
            ],
            Box::new(Morrigan::new(MorriganConfig::smt())),
        );
        let m = sim.run(quick());
        assert_eq!(m.instructions, 60_000);
        assert!(m.mmu.istlb_misses > 0);
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn overlapping_smt_regions_rejected() {
        let cfg = ServerWorkloadConfig::qmm_like("a", 1);
        let w1 = ServerWorkload::new(cfg.clone());
        let w2 = ServerWorkload::new(cfg);
        let _ = Simulator::new_smt(
            SystemConfig::default(),
            vec![Box::new(w1), Box::new(w2)],
            Box::new(NullPrefetcher),
        );
    }

    #[test]
    fn miss_stream_collection_can_be_enabled() {
        let mut sys = SystemConfig::default();
        sys.mmu.collect_stream_stats = true;
        let mut sim = Simulator::new(sys, server(6), Box::new(NullPrefetcher));
        let _ = sim.run(quick());
        assert!(sim.mmu().miss_stream.total_misses > 0);
        assert!(!sim.mmu().miss_stream.delta_hist.is_empty());
    }

    #[test]
    fn fnlmma_translation_cost_hurts() {
        // Fig 10's effect: modelling translation for page-crossing
        // prefetches reduces FNL+MMA's benefit.
        let free_sys = SystemConfig {
            icache_prefetcher: IcachePrefetcherKind::FnlMma {
                translation_cost: false,
            },
            ..SystemConfig::default()
        };
        let costly_sys = SystemConfig {
            icache_prefetcher: IcachePrefetcherKind::FnlMma {
                translation_cost: true,
            },
            ..SystemConfig::default()
        };

        let mut free = Simulator::new(free_sys, server(7), Box::new(NullPrefetcher));
        let free_m = free.run(quick());
        let mut costly = Simulator::new(costly_sys, server(7), Box::new(NullPrefetcher));
        let costly_m = costly.run(quick());

        assert!(
            costly_m.iprefetch_translation_walks > 0,
            "page crossings must need walks"
        );
        // At this short window the two runs' cache states diverge enough
        // for small IPC noise; the translation cost must not *help* beyond
        // that noise. The full Fig 10 comparison runs at experiment scale.
        assert!(
            costly_m.ipc() <= free_m.ipc() * 1.02,
            "translation cost cannot help: {} vs {}",
            costly_m.ipc(),
            free_m.ipc()
        );
    }

    #[test]
    #[should_panic(expected = "runs exactly once")]
    fn second_run_on_one_instance_panics() {
        let mut sim = Simulator::new(SystemConfig::default(), server(9), Box::new(NullPrefetcher));
        let tiny = SimConfig {
            warmup_instructions: 100,
            measure_instructions: 100,
        };
        let _ = sim.run(tiny);
        let _ = sim.run(tiny);
    }

    #[test]
    fn every_run_is_audited_when_enabled() {
        let mut sim = Simulator::new(
            SystemConfig::default(),
            server(10),
            Box::new(Morrigan::new(MorriganConfig::default())),
        );
        sim.set_audit(true);
        let _ = sim.run(quick());
        let report = sim.audit_report().expect("audit was enabled");
        assert!(report.is_clean(), "{}", report.render());
        assert!(
            report.checks > 80,
            "warmup + window + monotonicity law sets must all run, got {}",
            report.checks
        );
    }

    #[test]
    fn simulator_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Simulator>();
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = Simulator::new(
                SystemConfig::default(),
                server(8),
                Box::new(Morrigan::new(MorriganConfig::default())),
            );
            sim.run(quick())
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod sampling_tests {
    use super::*;
    use morrigan::{Morrigan, MorriganConfig};
    use morrigan_types::prefetcher::NullPrefetcher;
    use morrigan_workloads::{ServerWorkload, ServerWorkloadConfig};

    fn server(seed: u64) -> Box<ServerWorkload> {
        Box::new(ServerWorkload::new(ServerWorkloadConfig::qmm_like(
            format!("s{seed}"),
            seed,
        )))
    }

    fn cfg() -> SimConfig {
        SimConfig {
            warmup_instructions: 30_000,
            measure_instructions: 150_000,
        }
    }

    fn run_with(seed: u64, sampling: Option<SamplingConfig>) -> Metrics {
        let mut sim = Simulator::new(
            SystemConfig::default(),
            server(seed),
            Box::new(Morrigan::new(MorriganConfig::default())),
        );
        sim.set_sampling(sampling);
        sim.run(cfg())
    }

    fn rel_err(a: f64, b: f64) -> f64 {
        if b == 0.0 {
            a.abs()
        } else {
            (a - b).abs() / b
        }
    }

    #[test]
    fn sampled_run_is_deterministic() {
        let s = Some(SamplingConfig::default_schedule());
        assert_eq!(run_with(41, s), run_with(41, s));
    }

    #[test]
    fn explicit_sampling_off_equals_default_run() {
        let full = {
            let mut sim = Simulator::new(
                SystemConfig::default(),
                server(42),
                Box::new(Morrigan::new(MorriganConfig::default())),
            );
            sim.run(cfg())
        };
        assert_eq!(run_with(42, None), full, "None must be a true no-op");
    }

    #[test]
    fn sampled_run_tracks_full_run_closely() {
        // The headline accuracy contract at unit scale: the default
        // schedule's MPKI error stays within a few percent and IPC
        // within ten. The runner's `sampling_accuracy` suite pins MPKI
        // within 1 % and IPC within 8 % per workload at a longer scale.
        let full = run_with(43, None);
        let sampled = run_with(43, Some(SamplingConfig::default_schedule()));
        assert_eq!(sampled.instructions, full.instructions);
        assert!(
            rel_err(sampled.istlb_mpki(), full.istlb_mpki()) < 0.05,
            "iSTLB MPKI drifted: sampled {} vs full {}",
            sampled.istlb_mpki(),
            full.istlb_mpki()
        );
        assert!(
            rel_err(sampled.ipc(), full.ipc()) < 0.10,
            "IPC estimate drifted: sampled {} vs full {}",
            sampled.ipc(),
            full.ipc()
        );
        assert!(
            rel_err(sampled.coverage(), full.coverage()) < 0.10,
            "coverage drifted: sampled {} vs full {}",
            sampled.coverage(),
            full.coverage()
        );
    }

    #[test]
    fn sampled_run_passes_the_audit() {
        // Fast-forward drives the same MMU/memory code paths, so every
        // conservation law must keep holding mid-sample.
        let mut sim = Simulator::new(
            SystemConfig::default(),
            server(44),
            Box::new(Morrigan::new(MorriganConfig::default())),
        );
        sim.set_audit(true);
        sim.set_sampling(Some(SamplingConfig::default_schedule()));
        let _ = sim.run(cfg());
        let report = sim.audit_report().expect("audit was enabled");
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn sampled_run_with_context_switches_matches_schedule() {
        // The FF path must honour the same context-switch schedule;
        // miss counts with flushing enabled must exceed the undisturbed
        // sampled run's, as in the full-fidelity test.
        let sys = SystemConfig {
            context_switch_interval: Some(10_000),
            ..SystemConfig::default()
        };
        let mut switching = Simulator::new(
            sys,
            server(45),
            Box::new(Morrigan::new(MorriganConfig::default())),
        );
        switching.set_sampling(Some(SamplingConfig::default_schedule()));
        let switched = switching.run(cfg());
        let base = run_with(45, Some(SamplingConfig::default_schedule()));
        assert!(
            switched.mmu.istlb_misses > base.mmu.istlb_misses,
            "flushes must cost misses under sampling too: {} vs {}",
            switched.mmu.istlb_misses,
            base.mmu.istlb_misses
        );
    }

    #[test]
    fn sampled_smt_run_consumes_both_streams() {
        let pair = morrigan_workloads::suites::smt_pairs(3).remove(0);
        let mut sim = Simulator::new_smt(
            SystemConfig::default(),
            vec![
                Box::new(ServerWorkload::new(pair.0)),
                Box::new(ServerWorkload::new(pair.1)),
            ],
            Box::new(Morrigan::new(MorriganConfig::smt())),
        );
        sim.set_sampling(Some(SamplingConfig::default_schedule()));
        let m = sim.run(cfg());
        assert_eq!(m.instructions, cfg().measure_instructions);
        assert!(m.mmu.istlb_misses > 0);
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn sampling_and_interval_are_mutually_exclusive() {
        let mut sim = Simulator::new(
            SystemConfig::default(),
            server(46),
            Box::new(NullPrefetcher),
        );
        sim.set_interval(Some(10_000));
        sim.set_sampling(Some(SamplingConfig::default_schedule()));
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn interval_after_sampling_is_rejected_too() {
        let mut sim = Simulator::new(
            SystemConfig::default(),
            server(47),
            Box::new(NullPrefetcher),
        );
        sim.set_sampling(Some(SamplingConfig::default_schedule()));
        sim.set_interval(Some(10_000));
    }

    #[test]
    fn stall_scaling_extrapolates_by_instruction_ratio() {
        // 20 % detailed → stall counters scale by 5× (±rounding); the
        // scaled value must exceed the raw detailed sum for any
        // workload that stalls at all.
        let sampled = run_with(48, Some(SamplingConfig::default_schedule()));
        assert!(sampled.istlb_stall_cycles > 0);
        let full = run_with(48, None);
        assert!(
            rel_err(
                sampled.istlb_stall_cycles as f64,
                full.istlb_stall_cycles as f64
            ) < 0.25,
            "scaled stalls implausible: sampled {} vs full {}",
            sampled.istlb_stall_cycles,
            full.istlb_stall_cycles
        );
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use morrigan::{Morrigan, MorriganConfig};
    use morrigan_workloads::{ServerWorkload, ServerWorkloadConfig};

    fn server(seed: u64) -> Box<ServerWorkload> {
        Box::new(ServerWorkload::new(ServerWorkloadConfig::qmm_like(
            format!("x{seed}"),
            seed,
        )))
    }

    fn quick() -> SimConfig {
        SimConfig {
            warmup_instructions: 20_000,
            measure_instructions: 80_000,
        }
    }

    #[test]
    fn context_switches_increase_misses() {
        let mut undisturbed = Simulator::new(
            SystemConfig::default(),
            server(31),
            Box::new(Morrigan::new(MorriganConfig::default())),
        );
        let base = undisturbed.run(quick());

        let sys = SystemConfig {
            context_switch_interval: Some(10_000),
            ..SystemConfig::default()
        };
        let mut switching = Simulator::new(
            sys,
            server(31),
            Box::new(Morrigan::new(MorriganConfig::default())),
        );
        let switched = switching.run(quick());

        assert!(
            switched.mmu.istlb_misses > base.mmu.istlb_misses,
            "flushing all translation state every 10k instructions must cost misses: {} vs {}",
            switched.mmu.istlb_misses,
            base.mmu.istlb_misses
        );
        assert!(
            switched.ipc() < base.ipc(),
            "context switches cannot be free"
        );
    }

    #[test]
    fn engage_on_hits_prefetches_at_least_as_much() {
        let mut sys = SystemConfig::default();
        sys.mmu.engage_on_stlb_hits = true;
        let mut on_hits = Simulator::new(
            sys,
            server(32),
            Box::new(Morrigan::new(MorriganConfig::default())),
        );
        let hits = on_hits.run(quick());

        let mut default_sim = Simulator::new(
            SystemConfig::default(),
            server(32),
            Box::new(Morrigan::new(MorriganConfig::default())),
        );
        let default_m = default_sim.run(quick());

        assert!(
            hits.mmu.prefetches_issued + hits.mmu.prefetches_duplicate
                >= default_m.mmu.prefetches_issued + default_m.mmu.prefetches_duplicate,
            "engaging on hits can only add prefetch activity"
        );
    }
}
