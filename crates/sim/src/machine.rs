//! The multi-core machine: N per-core simulators advanced in lockstep
//! epochs, with shared structures accessed through epoch-frozen views
//! and mutated deterministically at epoch barriers.
//!
//! ## Topology
//!
//! A [`Machine`] owns one [`Simulator`] per core — each with its private
//! front end, ROB, L1/L2, I-TLB/D-TLB, prefetch buffer, PSCs, walker,
//! and TLB-prefetcher instance — plus the structures every core shares:
//! the (possibly multi-bank) LLC, and optionally one machine-wide STLB
//! (see [`TopologyConfig`]).
//!
//! ## Execution model
//!
//! The machine owns the shared LLC and STLB as plain values, and a core
//! gets them for its quantum by a swap into its own hierarchy and MMU.
//! A one-core machine's core mutates them directly, so its hot path is
//! precisely the single-core simulator's, with zero indirection. A
//! multi-core machine runs the *epoch protocol*: every core executes one
//! [`INTERLEAVE_QUANTUM`] per epoch, reads the swapped-in structures as
//! the frozen epoch-start image plus a private overlay of its own epoch
//! fills, and logs every would-be mutation in program order
//! ([`morrigan_mem::LlcView`], [`morrigan_vm::StlbView`]). Cores are
//! partitioned over up to [`Machine::set_threads`] host threads, and
//! each thread owns a copy of the shared structures: thread 0 the
//! machine's own, every other thread a clone taken when the drive
//! starts. A thread swaps its copy into each of its cores for the
//! quantum and, at the epoch barrier, replays every core's logs into it
//! in (core, sequence) order, so no thread writes anything another
//! thread reads, and every copy ends each epoch equal (debug builds
//! assert it). Only the per-core epoch logs cross threads, each behind
//! an `RwLock`. The two `SpinBarrier` waits per epoch still order the
//! phases: a core's owner publishes its logs before barrier A, every
//! thread reads them between A and B, and the owner clears them after B.
//! The final state is a pure function of the logs, so results are
//! **bit-identical at any host thread count** — including one, which is
//! how the runner executes every machine and doubles as the reference
//! serial execution of the very same protocol.
//!
//! ## Shootdowns
//!
//! With `shootdown_interval` set, a core that retires past each multiple
//! of the interval unmaps one of its code pages. Victims are buffered in
//! the issuing core's epoch slot and delivered at the barrier — to every
//! core's private structures and to the shared STLB — in (epoch,
//! issuing-core, sequence) order, modelling an IPI broadcast that lands
//! at the next synchronization point. The machine audit pins the
//! conservation law `received == issued × cores`.
//!
//! ## Telemetry
//!
//! The machine reports per-core window [`Metrics`], an aggregate (sum
//! of counters, makespan cycles), a machine-wide audit report, and —
//! when enabled — a per-core interval time-series
//! ([`Machine::set_interval`]) and SMARTS-style sampled stepping
//! ([`Machine::set_sampling`], each core's schedule anchored to its own
//! retirement counter). Every core's measurement window runs the
//! simulator's own window protocol — close warm-up, note an epoch after
//! each advance, close the window — so warm-up audits, interval epochs,
//! sampled rescaling and end-of-window audits have one implementation
//! for [`Simulator::run`] and every core. Both drivers note an epoch
//! after every quantum: an interval epoch closes at the first quantum
//! boundary at or past each multiple of the interval, so the
//! instruction schedule is *identical* with the sampler on or off.
//! Trace recording remains a single-core feature.
//!
//! Host wall time is profiled machine-wide ([`Machine::phase_profile`]):
//! the total is the machine's own run wall time (so scheduling, barrier,
//! and replay overhead are included), the workload buckets are the sums
//! of the per-core buckets timed inside each simulator's loop, and the
//! epoch driver adds its host threads' barrier-wait and replay time.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};

use morrigan_mem::{Llc, LlcOp};
use morrigan_obs::{Phase, PhaseProfile};
use morrigan_types::{AuditReport, TlbPrefetcher, VirtPage};
use morrigan_vm::{replay_stlb_ops, StlbOp, Tlb};
use morrigan_workloads::InstructionStream;

use crate::config::{SimConfig, SystemConfig, TopologyConfig};
use crate::metrics::{IntervalSample, Metrics};
use crate::sampling::SamplingConfig;
use crate::simulator::{audit_default, ElisionCounters, Simulator};

/// Instructions a core executes per epoch: a modelling constant, small
/// enough that shared-structure contention is visible at sub-epoch
/// granularity. The per-epoch protocol is not free. On the hostbench
/// `machine` spec (2-vCPU host), replay took 0.13–0.19 s of 1.30–1.97 s
/// of simulation at machine width 1, and at width 2 barrier wait plus
/// replay took about two fifths of each thread's time. The quantum also
/// decides fig21's numbers, so changing it needs the fig21 sensitivity
/// study (ROADMAP item 2), not a speed argument.
pub const INTERLEAVE_QUANTUM: u64 = 64;

/// Stride (in pages) between successive shootdown victims inside a
/// core's code region; coprime to power-of-two region sizes so the
/// rotation visits distinct pages.
const SHOOTDOWN_VICTIM_STRIDE: u64 = 7;

/// The host-thread width an epoch driver runs a `cores`-core machine
/// at: `requested` when set, else the host's available parallelism,
/// capped at `cores` and at least 1.
fn machine_width(requested: Option<usize>, cores: usize) -> usize {
    requested
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
        .min(cores)
        .max(1)
}

/// Per-core and shared-structure results of a completed machine run,
/// attached to multi-core `RunRecord`s.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSummary {
    /// Number of cores that ran.
    pub cores: usize,
    /// Measurement-window metrics of each core, in core-id order.
    pub per_core: Vec<Metrics>,
    /// TLB shootdowns issued machine-wide (whole run, warmup included).
    pub shootdowns_issued: u64,
    /// Per-core shootdown deliveries (`issued × cores` by construction;
    /// the audit pins it).
    pub shootdowns_received: u64,
    /// Deliveries that found the translation cached in at least one of
    /// the receiving core's private structures.
    pub shootdown_hits: u64,
    /// Per-core interval time-series (core-id order); empty unless
    /// [`Machine::set_interval`] enabled the sampler.
    pub per_core_intervals: Vec<Vec<IntervalSample>>,
}

/// One core's simulator plus every piece of per-core machine state, so
/// the epoch driver can hand disjoint `&mut [CoreLane]` slices to host
/// threads.
struct CoreLane {
    sim: Simulator,
    /// First (code) region of this core's stream: the shootdown victim pool.
    code_region: (VirtPage, u64),
    /// Every distinct ASID mapped on this core, for occupancy telescoping.
    asids: Vec<u16>,
    next_shootdown: u64,
    victim_rotor: u64,
    /// Shootdowns this core issued (whole run).
    issued: u64,
    /// Shootdown deliveries this core received.
    received: u64,
    /// Received deliveries that found a cached translation.
    hits: u64,
}

impl CoreLane {
    /// Advances this core by `quantum` instructions with the shared LLC,
    /// and the shared STLB if there is one, swapped into its hierarchy
    /// and MMU for the quantum.
    fn advance_shared(&mut self, quantum: u64, llc: &mut Llc, stlb: &mut Option<Tlb>) {
        self.sim.mem_mut().swap_llc(llc);
        if let Some(stlb) = stlb.as_mut() {
            self.sim.mmu_mut().swap_stlb(stlb);
        }
        self.sim.advance(quantum);
        self.sim.mem_mut().swap_llc(llc);
        if let Some(stlb) = stlb.as_mut() {
            self.sim.mmu_mut().swap_stlb(stlb);
        }
    }

    /// The next shootdown victim this core owes, if its retirement
    /// counter has passed its next multiple of `interval`: a rotation
    /// through its code region, counted as issued.
    fn next_due_victim(&mut self, interval: Option<u64>) -> Option<VirtPage> {
        if self.sim.retired() < self.next_shootdown {
            return None;
        }
        let (base, count) = self.code_region;
        let offset = (self.victim_rotor * SHOOTDOWN_VICTIM_STRIDE) % count;
        self.victim_rotor += 1;
        self.issued += 1;
        // next_shootdown is finite only when an interval is set.
        self.next_shootdown += interval.expect("shootdown was scheduled");
        Some(VirtPage::new(base.raw() + offset))
    }
}

/// One core's published epoch logs, read by every thread between the
/// two barriers. It lives behind an `RwLock`: the owner writes it before
/// barrier A, every thread reads it between A and B, and the owner
/// clears it after B (see the module docs).
#[derive(Default)]
struct EpochSlot {
    /// Shared-LLC operation log, program order.
    llc: Vec<LlcOp>,
    /// Shared-STLB operation log, program order.
    stlb: Vec<StlbOp>,
    /// Shootdown victims issued this epoch, issue order.
    shootdowns: Vec<VirtPage>,
}

/// Sense-reversing spin barrier. The epoch loop crosses a barrier twice
/// per 64-instruction quantum (~10 µs of work), so the parking-lot
/// round-trip of `std::sync::Barrier` would dominate; a short spin
/// followed by `yield_now` avoids it without burning a core when a peer
/// is descheduled. Measured on the hostbench `machine` spec at width 2
/// (2-vCPU host): 0.47–0.55 thread-s of `barrier_wait` over 2 threads ×
/// 2 crossings × 62 500 epochs, a mean wait of about 2 µs per crossing,
/// load imbalance included.
///
/// A thread that panics mid-epoch poisons the barrier ([`PoisonOnPanic`]),
/// and its peers then panic in `wait` instead of spinning forever, so a
/// panic on one thread fails the run rather than hanging it.
struct SpinBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    fn new(total: usize) -> Self {
        Self {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total,
            poisoned: AtomicBool::new(false),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.arrived.store(0, Ordering::Release);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            assert!(
                !self.poisoned.load(Ordering::Relaxed),
                "a peer epoch thread panicked"
            );
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Poisons a [`SpinBarrier`] when dropped by a panicking thread.
struct PoisonOnPanic<'a>(&'a SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Relaxed);
        }
    }
}

/// The N-core machine. See the module docs for the model.
pub struct Machine {
    system: SystemConfig,
    topology: TopologyConfig,
    cores: Vec<CoreLane>,
    shared_llc: Llc,
    shared_stlb: Option<Tlb>,
    /// Host threads for the epoch driver; `None` = min(cores, available).
    machine_threads: Option<usize>,
    shootdowns_issued: u64,
    shootdowns_received: u64,
    shootdown_hits: u64,
    audit_enabled: bool,
    audit: Option<AuditReport>,
    summary: Option<MachineSummary>,
    ran: bool,
    phase: PhaseProfile,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("topology", &self.topology)
            .field("cores", &self.cores.len())
            .field("machine_threads", &self.machine_threads)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds an N-core machine: one workload stream and one prefetcher
    /// instance per core. Multi-tenant cores pass a `ScheduledStream` of
    /// `AsidStream`-wrapped tenants as their workload.
    ///
    /// # Panics
    ///
    /// Panics if `workloads`/`prefetchers` lengths disagree with
    /// `system.topology.cores`, or if any two regions overlap (distinct
    /// tenants must live in distinct ASID-fused address spaces).
    pub fn new(
        system: SystemConfig,
        workloads: Vec<Box<dyn InstructionStream>>,
        prefetchers: Vec<Box<dyn TlbPrefetcher>>,
    ) -> Self {
        let topology = system.topology;
        assert!(topology.cores >= 1, "a machine needs at least one core");
        assert_eq!(
            workloads.len(),
            topology.cores,
            "one workload stream per core"
        );
        assert_eq!(
            prefetchers.len(),
            topology.cores,
            "one prefetcher instance per core"
        );
        let mut code_regions = Vec::with_capacity(workloads.len());
        let mut asids_per_core = Vec::with_capacity(workloads.len());
        let mut all_regions: Vec<(u64, u64)> = Vec::new();
        for w in &workloads {
            code_regions.push(w.code_region());
            let mut asids: Vec<u16> = w.regions().iter().map(|(p, _)| p.asid()).collect();
            asids.sort_unstable();
            asids.dedup();
            asids_per_core.push(asids);
            for (base, count) in w.regions() {
                let (b, c) = (base.raw(), count);
                for &(ob, oc) in &all_regions {
                    assert!(
                        b + c <= ob || ob + oc <= b,
                        "virtual regions of machine workloads must not overlap \
                         (wrap tenants in AsidStream)"
                    );
                }
                all_regions.push((b, c));
            }
        }
        let next_shootdown = topology.shootdown_interval.unwrap_or(u64::MAX);
        let cores: Vec<CoreLane> = workloads
            .into_iter()
            .zip(prefetchers)
            .zip(code_regions.into_iter().zip(asids_per_core))
            .map(|((w, p), (code_region, asids))| CoreLane {
                sim: Simulator::new(system, w, p),
                code_region,
                asids,
                next_shootdown,
                victim_rotor: 0,
                issued: 0,
                received: 0,
                hits: 0,
            })
            .collect();
        let shared_llc = Llc::new(system.mem.llc, topology.llc_shards);
        let shared_stlb = topology.shared_stlb.then(|| Tlb::new(system.mmu.stlb));
        Self {
            system,
            topology,
            cores,
            shared_llc,
            shared_stlb,
            machine_threads: None,
            shootdowns_issued: 0,
            shootdowns_received: 0,
            shootdown_hits: 0,
            audit_enabled: audit_default(),
            audit: None,
            summary: None,
            ran: false,
            phase: PhaseProfile::new(),
        }
    }

    /// Sets the host-thread budget for the epoch driver. `None` (the
    /// default) auto-sizes to min(cores, available parallelism). The
    /// thread count never changes results — the epoch protocol is
    /// bit-deterministic at any width — only wall-clock time.
    ///
    /// # Panics
    ///
    /// Panics on `Some(0)` or after the run has started.
    pub fn set_threads(&mut self, threads: Option<usize>) {
        assert!(!self.ran, "machine threads must be set before running");
        assert!(
            threads != Some(0),
            "machine threads must be positive when set"
        );
        self.machine_threads = threads;
    }

    /// The host-thread count the epoch driver will actually use.
    fn used_threads(&self) -> usize {
        machine_width(self.machine_threads, self.cores.len())
    }

    /// Enables the per-core interval sampler: each core's measurement
    /// window is cut into epochs of ~`interval` retired instructions
    /// and an [`IntervalSample`] recorded per epoch. Epoch boundaries
    /// land on the first quantum boundary at or past each nominal
    /// multiple, so enabling the sampler never perturbs the instruction
    /// schedule; samples carry their actual instruction extents.
    ///
    /// # Panics
    ///
    /// Panics on a zero interval, after the run has started, or if
    /// sampled stepping is enabled (see [`Simulator::set_interval`]).
    pub fn set_interval(&mut self, interval: Option<u64>) {
        assert!(!self.ran, "interval must be set before running");
        for lane in &mut self.cores {
            lane.sim.set_interval(interval);
        }
    }

    /// Enables SMARTS-style sampled stepping on every core. Each core
    /// runs the schedule against its own retirement counter (schedules
    /// are anchored at absolute count zero), so cores enter and leave
    /// detail windows independently; per-core stall counters are
    /// rescaled by each core's own detailed-instruction ratio.
    ///
    /// # Panics
    ///
    /// Panics after the run has started, or if the interval sampler is
    /// enabled (see [`Simulator::set_sampling`]).
    pub fn set_sampling(&mut self, sampling: Option<SamplingConfig>) {
        assert!(!self.ran, "sampling must be set before running");
        for lane in &mut self.cores {
            lane.sim.set_sampling(sampling);
        }
    }

    /// Host wall-time split of the completed run. The total is the
    /// machine's own wall time (scheduling, barriers, and replay
    /// included); the workload buckets are sums over the per-core
    /// simulators' buckets, so `simulate()` — total minus
    /// workload-gen/trace-build — attributes the epoch-protocol overhead
    /// to simulation, which is where it is spent. The barrier-wait and
    /// replay buckets are the epoch driver's host threads' time in their
    /// two barrier waits and their replay phase, summed over threads
    /// (zero for a one-core machine). Under multi-threaded execution the
    /// buckets overlap in wall time, so bucket sums can exceed the
    /// total; `simulate()` is clamped at zero.
    pub fn phase_profile(&self) -> &PhaseProfile {
        &self.phase
    }

    /// Forces the stats-invariant audit on or off for this run,
    /// overriding the debug/`MORRIGAN_AUDIT` default. Also applies to
    /// every per-core simulator's law set.
    pub fn set_audit(&mut self, enabled: bool) {
        self.audit_enabled = enabled;
    }

    /// The machine-wide audit report of the completed run, when auditing
    /// was enabled. A present report is always clean ([`Machine::run`]
    /// panics on the first violated law).
    pub fn audit_report(&self) -> Option<&AuditReport> {
        self.audit.as_ref()
    }

    /// Per-core results of the completed run.
    ///
    /// # Panics
    ///
    /// Panics before [`Machine::run`] completes.
    pub fn summary(&self) -> &MachineSummary {
        self.summary
            .as_ref()
            .expect("Machine::run has not completed")
    }

    /// The simulated system configuration.
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// Machine-wide fetch-side probe/elision counters, summed across
    /// cores (warmup included; meaningful mid-run or after).
    pub fn elision_counters(&self) -> ElisionCounters {
        let mut total = ElisionCounters::default();
        for lane in &self.cores {
            total.add(&lane.sim.elision_counters());
        }
        total
    }

    /// Runs every core through warmup then measurement, returning the
    /// aggregate metrics: counters summed across cores, cycles taken as
    /// the per-core maximum (makespan), so `ipc()` is aggregate IPC.
    ///
    /// # Panics
    ///
    /// Panics if called twice (see [`Simulator::run`] for the rationale)
    /// or if auditing is enabled and any conservation law is violated.
    pub fn run(&mut self, cfg: SimConfig) -> Metrics {
        assert!(
            !self.ran,
            "Machine::run called twice: build a new Machine for every run"
        );
        self.ran = true;
        let run_start = Instant::now();
        let mut report = self.audit_enabled.then(|| {
            AuditReport::new(format!(
                "machine run ({} cores, shared_stlb={}, llc_shards={}, \
                 {} warmup + {} measure instructions per core)",
                self.cores.len(),
                self.topology.shared_stlb,
                self.topology.llc_shards,
                cfg.warmup_instructions,
                cfg.measure_instructions
            ))
        });

        if self.cores.len() > 1 {
            // Multi-core: every shared access goes through an
            // epoch-frozen view from the very first instruction.
            for lane in &mut self.cores {
                lane.sim.mem_mut().install_llc_view();
                if self.shared_stlb.is_some() {
                    lane.sim.mmu_mut().install_stlb_view();
                }
            }
        }

        self.drive(cfg.warmup_instructions);
        for (i, lane) in self.cores.iter_mut().enumerate() {
            lane.sim
                .close_warmup(report.as_mut(), &format!("core {i} end of warmup"));
        }
        self.drive(cfg.warmup_instructions + cfg.measure_instructions);
        let per_core: Vec<Metrics> = self
            .cores
            .iter_mut()
            .enumerate()
            .map(|(i, lane)| {
                lane.sim
                    .close_window(report.as_mut(), &format!("core {i} end of window"))
            })
            .collect();

        let mut aggregate = per_core.iter().fold(Metrics::default(), |acc, &m| acc + m);
        aggregate.cycles = per_core.iter().map(|m| m.cycles).max().unwrap_or(1);

        self.shootdowns_issued = self.cores.iter().map(|l| l.issued).sum();
        self.shootdowns_received = self.cores.iter().map(|l| l.received).sum();
        self.shootdown_hits = self.cores.iter().map(|l| l.hits).sum();

        // Machine-wide phase profile: per-core buckets summed, total
        // timed around this whole run (the per-core sims never call
        // `Simulator::run`, so their own totals are zero and merging
        // only contributes buckets).
        for lane in &self.cores {
            self.phase.merge(lane.sim.phase_profile());
        }
        self.phase.add_total(run_start.elapsed().as_secs_f64());

        if let Some(mut r) = report {
            self.audit_machine(&mut r, &per_core, &aggregate);
            assert!(r.is_clean(), "{}", r.render());
            self.audit = Some(r);
        }

        let per_core_intervals: Vec<Vec<IntervalSample>> = self
            .cores
            .iter()
            .map(|l| l.sim.interval_samples().to_vec())
            .collect();
        self.summary = Some(MachineSummary {
            cores: self.cores.len(),
            per_core,
            shootdowns_issued: self.shootdowns_issued,
            shootdowns_received: self.shootdowns_received,
            shootdown_hits: self.shootdown_hits,
            // Interval-off runs must keep the exact historical record
            // shape, so collapse the N-empty-series case to an empty
            // outer vec (the JSON layer omits the field entirely).
            per_core_intervals: if per_core_intervals.iter().all(Vec::is_empty) {
                Vec::new()
            } else {
                per_core_intervals
            },
        });
        aggregate
    }

    /// Advances every core to `target` retired instructions.
    fn drive(&mut self, target: u64) {
        if self.cores.len() == 1 {
            self.drive_serial(target);
        } else {
            self.drive_epochs(target);
        }
    }

    /// The legacy single-core path: swap the shared structures into the
    /// core around each quantum. Keeps the one-core machine bit-equal to
    /// a bare [`Simulator`] run with zero hot-path indirection.
    fn drive_serial(&mut self, target: u64) {
        let lane = &mut self.cores[0];
        while lane.sim.retired() < target {
            let quantum = INTERLEAVE_QUANTUM.min(target - lane.sim.retired());
            lane.advance_shared(quantum, &mut self.shared_llc, &mut self.shared_stlb);

            while let Some(victim) = lane.next_due_victim(self.topology.shootdown_interval) {
                lane.received += 1;
                if lane.sim.mmu_mut().shootdown(victim) {
                    lane.hits += 1;
                }
                if let Some(stlb) = &mut self.shared_stlb {
                    stlb.invalidate(victim);
                }
            }
            lane.sim.note_epoch();
        }
    }

    /// The multi-core epoch driver. Every core runs one quantum per
    /// epoch against its thread's frozen copy of the shared structures
    /// (see the module docs); at the barrier each thread replays every
    /// core's logged mutations into its own copy in (core, sequence)
    /// order. The result is a pure function of the per-core logs, so any
    /// `used_threads()` width — including 1 — produces bit-identical
    /// state.
    fn drive_epochs(&mut self, target: u64) {
        const POISONED: &str = "a peer epoch thread panicked";
        let n = self.cores.len();
        let start = self.cores[0].sim.retired();
        debug_assert!(
            self.cores.iter().all(|l| l.sim.retired() == start),
            "epoch lockstep requires uniform retired counts"
        );
        if target <= start {
            return;
        }
        let epochs = (target - start).div_ceil(INTERLEAVE_QUANTUM);
        let threads = self.used_threads();
        let chunk = n.div_ceil(threads);
        let used = n.div_ceil(chunk);

        let slots: Vec<RwLock<EpochSlot>> = (0..n).map(|_| RwLock::default()).collect();
        let barrier = SpinBarrier::new(used);
        // Thread 0 works on the machine's own copy of the shared
        // structures, every other thread on a clone of it.
        let mut clones: Vec<(Llc, Option<Tlb>)> = (1..used)
            .map(|_| (self.shared_llc.clone(), self.shared_stlb.clone()))
            .collect();
        let copies = std::iter::once((&mut self.shared_llc, &mut self.shared_stlb))
            .chain(clones.iter_mut().map(|(llc, stlb)| (llc, stlb)));
        let shootdown_interval = self.topology.shootdown_interval;
        let slots = &slots;
        let barrier = &barrier;

        let (waited, replayed) = std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .cores
                .chunks_mut(chunk)
                .zip(copies)
                .enumerate()
                .map(|(tid, (lanes, (llc, stlb)))| {
                    let own = &slots[tid * chunk..tid * chunk + lanes.len()];
                    scope.spawn(move || {
                        let _poison = PoisonOnPanic(barrier);
                        let (mut waited, mut replayed) = (Duration::ZERO, Duration::ZERO);
                        let mut published = Vec::with_capacity(n);
                        for _ in 0..epochs {
                            // --- Run phase: frozen reads, logged writes ---
                            for (lane, slot) in lanes.iter_mut().zip(own) {
                                let quantum = INTERLEAVE_QUANTUM.min(target - lane.sim.retired());
                                lane.advance_shared(quantum, llc, stlb);
                                let mut slot = slot.write().expect(POISONED);
                                lane.sim
                                    .mem_mut()
                                    .llc_view_mut()
                                    .expect("llc view installed on every multi-core lane")
                                    .take_epoch(&mut slot.llc);
                                if let Some(view) = lane.sim.mmu_mut().stlb_view_mut() {
                                    view.take_epoch(&mut slot.stlb);
                                }
                                while let Some(victim) = lane.next_due_victim(shootdown_interval) {
                                    slot.shootdowns.push(victim);
                                }
                                drop(slot);
                                lane.sim.note_epoch();
                            }
                            let arrived = Instant::now();
                            barrier.wait();
                            let replay_start = Instant::now();
                            // --- Replay phase: every core's logs into this
                            // thread's copy, in (core, sequence) order ---
                            published.extend(slots.iter().map(|slot| slot.read().expect(POISONED)));
                            for slot in &published {
                                llc.replay(&slot.llc);
                                if let Some(stlb) = stlb.as_mut() {
                                    replay_stlb_ops(stlb, &slot.stlb);
                                }
                            }
                            if let Some(stlb) = stlb.as_mut() {
                                for slot in &published {
                                    for &victim in &slot.shootdowns {
                                        stlb.invalidate(victim);
                                    }
                                }
                            }
                            // Deliver every issuer's shootdowns to this
                            // thread's own cores, in issuer order.
                            for lane in lanes.iter_mut() {
                                for slot in &published {
                                    for &victim in &slot.shootdowns {
                                        lane.received += 1;
                                        if lane.sim.mmu_mut().shootdown(victim) {
                                            lane.hits += 1;
                                        }
                                    }
                                }
                            }
                            published.clear();
                            let replay_end = Instant::now();
                            barrier.wait();
                            waited += (replay_start - arrived) + replay_end.elapsed();
                            replayed += replay_end - replay_start;
                            // --- Reset own slots for the next epoch ---
                            for slot in own {
                                let mut slot = slot.write().expect(POISONED);
                                slot.llc.clear();
                                slot.stlb.clear();
                                slot.shootdowns.clear();
                            }
                        }
                        (waited, replayed)
                    })
                })
                .collect();
            threads.into_iter().fold(
                (Duration::ZERO, Duration::ZERO),
                |(waited, replayed), thread| {
                    let (w, r) = thread.join().expect("epoch thread panicked");
                    (waited + w, replayed + r)
                },
            )
        });
        debug_assert!(
            clones
                .iter()
                .all(|(llc, stlb)| *llc == self.shared_llc && *stlb == self.shared_stlb),
            "an epoch thread's copy of the shared LLC or STLB diverged"
        );
        self.phase.add(Phase::BarrierWait, waited.as_secs_f64());
        self.phase.add(Phase::Replay, replayed.as_secs_f64());
    }

    /// Machine-level conservation laws: shootdown accounting, aggregate
    /// telescoping, per-ASID occupancy telescoping, and shared-structure
    /// occupancy bounds.
    fn audit_machine(&self, r: &mut AuditReport, per_core: &[Metrics], aggregate: &Metrics) {
        let at = "machine end of run";
        let cores = self.cores.len() as u64;

        // --- Shootdown broadcast ledger ---
        r.check_eq(
            at,
            "shootdowns received == shootdowns issued × cores",
            self.shootdowns_received,
            self.shootdowns_issued * cores,
        );
        r.check_le(
            at,
            "shootdown hits ≤ shootdowns received",
            self.shootdown_hits,
            self.shootdowns_received,
        );
        r.check_eq(
            at,
            "Σ per-core mmu.shootdowns == machine shootdown hits",
            self.cores
                .iter()
                .map(|l| l.sim.mmu().stats.shootdowns)
                .sum(),
            self.shootdown_hits,
        );

        // --- Aggregate telescoping ---
        r.check_eq(
            at,
            "aggregate instructions == Σ per-core instructions",
            aggregate.instructions,
            per_core.iter().map(|m| m.instructions).sum(),
        );
        r.check_eq(
            at,
            "aggregate istlb_misses == Σ per-core istlb_misses",
            aggregate.mmu.istlb_misses,
            per_core.iter().map(|m| m.mmu.istlb_misses).sum(),
        );
        r.check_eq(
            at,
            "aggregate demand walks == Σ per-core demand walks",
            aggregate.walker.demand_instr_walks + aggregate.walker.demand_data_walks,
            per_core
                .iter()
                .map(|m| m.walker.demand_instr_walks + m.walker.demand_data_walks)
                .sum(),
        );
        r.check_eq(
            at,
            "aggregate cycles == max per-core cycles (makespan)",
            aggregate.cycles,
            per_core.iter().map(|m| m.cycles).max().unwrap_or(1),
        );

        // --- Per-ASID occupancy telescoping, per core and structure ---
        for (i, lane) in self.cores.iter().enumerate() {
            let asids = &lane.asids;
            let mmu = lane.sim.mmu();
            for (name, tlb) in [
                ("itlb", mmu.itlb()),
                ("dtlb", mmu.dtlb()),
                ("stlb", mmu.stlb()),
            ] {
                r.check_eq(
                    at,
                    &format!("core {i} {name}: Σ per-ASID occupancy == occupancy"),
                    asids
                        .iter()
                        .map(|&a| tlb.occupancy_for_asid(a) as u64)
                        .sum(),
                    tlb.occupancy() as u64,
                );
            }
            let pb = mmu.prefetch_buffer();
            r.check_eq(
                at,
                &format!("core {i} pb: Σ per-ASID occupancy == occupancy"),
                asids.iter().map(|&a| pb.occupancy_for_asid(a) as u64).sum(),
                pb.len() as u64,
            );
        }

        // --- Shared structures ---
        if let Some(stlb) = &self.shared_stlb {
            let mut all_asids: Vec<u16> = self
                .cores
                .iter()
                .flat_map(|l| l.asids.iter().copied())
                .collect();
            all_asids.sort_unstable();
            all_asids.dedup();
            r.check_eq(
                at,
                "shared stlb: Σ per-ASID occupancy == occupancy",
                all_asids
                    .iter()
                    .map(|&a| stlb.occupancy_for_asid(a) as u64)
                    .sum(),
                stlb.occupancy() as u64,
            );
            r.check_le(
                at,
                "shared stlb occupancy ≤ configured entries",
                stlb.occupancy() as u64,
                stlb.config().entries as u64,
            );
        }
        r.check_eq(
            at,
            "shared llc: Σ per-shard occupancy == occupancy",
            (0..self.shared_llc.shard_count())
                .map(|s| self.shared_llc.shard_occupancy(s) as u64)
                .sum(),
            self.shared_llc.occupancy() as u64,
        );
        r.check_le(
            at,
            "shared llc occupancy ≤ capacity",
            self.shared_llc.occupancy() as u64,
            self.shared_llc.capacity_lines() as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morrigan::{Morrigan, MorriganConfig};
    use morrigan_types::prefetcher::NullPrefetcher;
    use morrigan_workloads::{
        suites, AsidStream, ScheduledStream, ServerWorkload, ServerWorkloadConfig,
    };

    fn quick() -> SimConfig {
        SimConfig {
            warmup_instructions: 10_000,
            measure_instructions: 30_000,
        }
    }

    fn multi_tenant_stream(core: usize, tenants: usize) -> Box<dyn InstructionStream> {
        let mix = suites::tenant_mixes(core + 1, tenants).pop().unwrap();
        let streams: Vec<Box<dyn InstructionStream>> = mix
            .into_iter()
            .enumerate()
            .map(|(t, cfg)| {
                let asid = (core * tenants + t + 1) as u16;
                Box::new(AsidStream::new(ServerWorkload::new(cfg), asid))
                    as Box<dyn InstructionStream>
            })
            .collect();
        Box::new(ScheduledStream::new(streams, 5_000))
    }

    fn machine(cores: usize, tenants: usize, topology: TopologyConfig) -> Machine {
        let system = SystemConfig {
            topology: TopologyConfig { cores, ..topology },
            ..SystemConfig::default()
        };
        let workloads = (0..cores)
            .map(|c| multi_tenant_stream(c, tenants))
            .collect();
        let prefetchers = (0..cores)
            .map(|_| Box::new(Morrigan::new(MorriganConfig::default())) as Box<dyn TlbPrefetcher>)
            .collect();
        Machine::new(system, workloads, prefetchers)
    }

    #[test]
    fn single_core_machine_matches_simulator_exactly() {
        // cores=1, processes=1: the machine must be the simulator, and
        // both engines must cut the window by one epoch rule. Intervals:
        // none, quantum multiples, the whole window, longer than it.
        let cfg = ServerWorkloadConfig::qmm_like("pin", 0x77);
        for interval in [None, Some(6_400), Some(64), Some(30_000), Some(40_000)] {
            let mut sim = Simulator::new(
                SystemConfig::default(),
                Box::new(ServerWorkload::new(cfg.clone())),
                Box::new(NullPrefetcher),
            );
            sim.set_interval(interval);
            let sim_m = sim.run(quick());

            let mut machine = Machine::new(
                SystemConfig::default(),
                vec![Box::new(ServerWorkload::new(cfg.clone()))],
                vec![Box::new(NullPrefetcher)],
            );
            machine.set_interval(interval);
            let agg = machine.run(quick());
            assert_eq!(agg, sim_m, "one-core machine must replay the simulator");
            assert_eq!(machine.summary().per_core[0], sim_m);
            assert_eq!(machine.summary().shootdowns_issued, 0);
            match interval {
                None => assert!(machine.summary().per_core_intervals.is_empty()),
                Some(_) => assert_eq!(
                    machine.summary().per_core_intervals[0],
                    sim.interval_samples(),
                    "interval {interval:?}"
                ),
            }
        }
    }

    #[test]
    fn four_core_run_is_audited_and_aggregates() {
        let mut m = machine(
            4,
            2,
            TopologyConfig {
                shared_stlb: true,
                llc_shards: 4,
                shootdown_interval: Some(7_000),
                ..TopologyConfig::default()
            },
        );
        m.set_audit(true);
        let agg = m.run(quick());
        assert_eq!(agg.instructions, 4 * 30_000);
        let report = m.audit_report().expect("audit was on");
        assert!(report.is_clean(), "{}", report.render());
        let s = m.summary();
        assert_eq!(s.cores, 4);
        assert!(s.shootdowns_issued > 0, "shootdown schedule must fire");
        assert_eq!(s.shootdowns_received, s.shootdowns_issued * 4);
        // Aggregate IPC uses makespan cycles.
        assert!(agg.cycles >= s.per_core.iter().map(|m| m.cycles).max().unwrap());
    }

    #[test]
    fn machine_runs_are_deterministic() {
        let run = || {
            let mut m = machine(
                2,
                2,
                TopologyConfig {
                    shared_stlb: true,
                    llc_shards: 2,
                    shootdown_interval: Some(9_000),
                    ..TopologyConfig::default()
                },
            );
            m.run(quick())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn thread_count_never_changes_results() {
        let run = |threads: usize| {
            let mut m = machine(
                4,
                2,
                TopologyConfig {
                    shared_stlb: true,
                    llc_shards: 4,
                    shootdown_interval: Some(7_000),
                    ..TopologyConfig::default()
                },
            );
            m.set_threads(Some(threads));
            let agg = m.run(quick());
            (agg, m.summary().clone())
        };
        let serial = run(1);
        assert_eq!(serial, run(2), "2 threads must replay 1 thread exactly");
        assert_eq!(serial, run(4), "4 threads must replay 1 thread exactly");
        assert_eq!(
            serial,
            run(64),
            "oversubscribed thread budgets clamp to the core count"
        );
    }

    #[test]
    fn shared_llc_contention_costs_cycles() {
        // The same 2-core workload with a private-LLC-sized machine vs a
        // machine whose cores share one LLC: sharing cannot make the
        // slowest core faster (same capacity, added contention).
        let private_like = {
            let mut m = machine(1, 2, TopologyConfig::default());
            m.run(quick())
        };
        let shared = {
            let mut m = machine(2, 2, TopologyConfig::default());
            m.run(quick())
        };
        // Core 0 runs the identical schedule in both machines; under
        // sharing its window can only be as fast or slower.
        assert!(shared.cycles >= private_like.cycles);
    }

    #[test]
    fn machine_phase_profile_reports_nonzero_wall_time() {
        let mut m = machine(2, 2, TopologyConfig::default());
        let _ = m.run(quick());
        let p = m.phase_profile();
        assert!(p.total() > 0.0, "machine wall time must be attributed");
        assert!(
            p.workload_gen() > 0.0,
            "per-core workload-gen buckets must merge into the machine profile"
        );
        assert!(
            p.simulate() > 0.0 && p.simulate() < p.total(),
            "simulate time is the total minus workload generation"
        );
    }

    #[test]
    fn epoch_driver_times_barrier_wait_and_replay() {
        for threads in [1, 2] {
            let mut m = machine(2, 2, TopologyConfig::default());
            m.set_threads(Some(threads));
            let _ = m.run(quick());
            let p = m.phase_profile();
            assert!(
                p.barrier_wait() > 0.0,
                "width {threads}: barrier waits timed"
            );
            assert!(p.replay() > 0.0, "width {threads}: replay timed");
            assert!(
                p.replay() + p.barrier_wait() < p.total() * threads as f64,
                "width {threads}: thread time fits inside the run"
            );
        }
        let mut one = machine(1, 2, TopologyConfig::default());
        let _ = one.run(quick());
        let p = one.phase_profile();
        assert_eq!((p.barrier_wait(), p.replay()), (0.0, 0.0), "no epochs");
    }

    #[test]
    fn per_core_intervals_tile_the_measurement_window() {
        let mut m = machine(2, 2, TopologyConfig::default());
        m.set_interval(Some(10_000));
        let _ = m.run(quick());
        let s = m.summary();
        assert_eq!(s.per_core_intervals.len(), 2);
        for (core, (samples, window)) in s.per_core_intervals.iter().zip(&s.per_core).enumerate() {
            assert!(
                samples.len() >= 3,
                "core {core}: 30k window / 10k epochs → ≥3 samples, got {}",
                samples.len()
            );
            // Epochs tile [0, measure] contiguously...
            assert_eq!(samples[0].start_instruction, 0);
            for pair in samples.windows(2) {
                assert_eq!(pair[0].end_instruction, pair[1].start_instruction);
                assert_eq!(pair[0].end_cycle, pair[1].start_cycle);
            }
            assert_eq!(
                samples.last().unwrap().end_instruction,
                quick().measure_instructions
            );
            // ...within a quantum of the nominal boundary...
            for s in samples {
                assert!(
                    s.end_instruction.is_multiple_of(10_000)
                        || s.end_instruction - (s.end_instruction / 10_000) * 10_000
                            < INTERLEAVE_QUANTUM
                        || s.end_instruction == quick().measure_instructions,
                    "epoch end {} strays more than a quantum past its boundary",
                    s.end_instruction
                );
            }
            // ...and their metrics telescope to the window metrics.
            let summed = s.per_core_intervals[core]
                .iter()
                .fold(Metrics::default(), |acc, s| acc + s.metrics);
            assert_eq!(summed.instructions, window.instructions);
            assert_eq!(summed.mmu.istlb_misses, window.mmu.istlb_misses);
            assert_eq!(summed.cycles, window.cycles);
        }
    }

    #[test]
    fn interval_recording_never_perturbs_the_simulation() {
        let base = {
            let mut m = machine(2, 2, TopologyConfig::default());
            m.run(quick())
        };
        let with_intervals = {
            let mut m = machine(2, 2, TopologyConfig::default());
            m.set_interval(Some(7_000));
            m.run(quick())
        };
        assert_eq!(
            base, with_intervals,
            "epoch recording is telemetry only; the instruction schedule must not bend"
        );
    }

    #[test]
    fn sampled_machine_runs_audited_and_tracks_full() {
        let full = {
            let mut m = machine(2, 2, TopologyConfig::default());
            m.run(quick())
        };
        let mut m = machine(2, 2, TopologyConfig::default());
        m.set_audit(true);
        m.set_sampling(Some(crate::SamplingConfig {
            detail: 5_000,
            skip: 15_000,
        }));
        let sampled = m.run(quick());
        assert!(m.audit_report().expect("audit on").is_clean());
        assert_eq!(sampled.instructions, full.instructions);
        let rel = (sampled.istlb_mpki() - full.istlb_mpki()).abs() / full.istlb_mpki();
        assert!(
            rel < 0.10,
            "sampled machine MPKI drifted: {} vs {}",
            sampled.istlb_mpki(),
            full.istlb_mpki()
        );
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn machine_interval_and_sampling_are_mutually_exclusive() {
        let mut m = machine(1, 1, TopologyConfig::default());
        m.set_interval(Some(5_000));
        m.set_sampling(Some(crate::SamplingConfig::default_schedule()));
    }

    #[test]
    #[should_panic(expected = "machine threads must be positive")]
    fn zero_machine_threads_rejected() {
        let mut m = machine(1, 1, TopologyConfig::default());
        m.set_threads(Some(0));
    }

    #[test]
    #[should_panic(expected = "one workload stream per core")]
    fn core_count_mismatch_rejected() {
        let system = SystemConfig {
            topology: TopologyConfig {
                cores: 2,
                ..TopologyConfig::default()
            },
            ..SystemConfig::default()
        };
        let _ = Machine::new(
            system,
            vec![multi_tenant_stream(0, 1)],
            vec![Box::new(NullPrefetcher)],
        );
    }
}
