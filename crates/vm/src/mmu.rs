//! The MMU: TLB hierarchy + prefetch buffer + walker + pluggable STLB
//! prefetcher, implementing the operation flow of the paper's Figure 12.
//!
//! On an instruction translation:
//!
//! 1. The I-TLB is probed; a hit completes the translation.
//! 2. On an I-TLB miss the shared STLB is probed.
//! 3. On an STLB miss the prefetch buffer (PB) is probed. A PB hit moves
//!    the entry into the STLB, avoids the demand walk, and credits the
//!    prediction slot that produced the prefetch. A PB miss triggers a
//!    demand page walk.
//! 4. In either case the STLB prefetcher is engaged: it emits prefetch
//!    requests, duplicates already staged in the PB are discarded, and the
//!    remainder trigger background prefetch page walks whose results are
//!    staged in the PB. A request flagged `spatial` additionally stages the
//!    PTEs sharing the target PTE's cache line — for free, since they
//!    travel in the same 64-byte line (page-table locality, §2).
//!
//! Data translations take the same TLB path but bypass the PB and never
//! engage the prefetcher (the paper evaluates *instruction* prefetching;
//! data misses pay their demand walks).

use morrigan_mem::MemoryHierarchy;
use morrigan_obs::{
    EventKind, NullRecorder, PbProbeOutcome, PrefetchDropReason, Recorder, TraceEvent,
};
use morrigan_types::prefetcher::NullPrefetcher;
use morrigan_types::{
    MissContext, PhysPage, PrefetchComponent, PrefetchDecision, PrefetcherEvent, ThreadId,
    TlbPrefetcher, VirtAddr, VirtPage, WalkKind,
};

use crate::miss_stream::MissStreamStats;
use crate::page_table::PageTable;
use crate::prefetch_buffer::PrefetchBuffer;
use crate::stlb_view::StlbView;
use crate::tlb::{Tlb, TlbConfig};
use crate::walker::{WalkResult, Walker, WalkerConfig, WalkerStats};

/// Where prefetched PTEs are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchPlacement {
    /// Into the prefetch buffer (the paper's design and default).
    Buffer,
    /// Directly into the STLB — the P2TLB configuration of Fig 18, which
    /// pollutes the STLB when prefetches are inaccurate.
    Stlb,
}

/// MMU configuration (defaults reproduce Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmuConfig {
    /// L1 instruction TLB geometry.
    pub itlb: TlbConfig,
    /// L1 data TLB geometry.
    pub dtlb: TlbConfig,
    /// Shared second-level TLB geometry.
    pub stlb: TlbConfig,
    /// Prefetch-buffer entries.
    pub pb_entries: usize,
    /// Prefetch-buffer lookup latency in cycles.
    pub pb_latency: u64,
    /// Page-table walker configuration.
    pub walker: WalkerConfig,
    /// Prefetch placement policy.
    pub placement: PrefetchPlacement,
    /// Perfect iSTLB mode (§3.4's upper bound): every instruction lookup
    /// that reaches the STLB hits.
    pub perfect_istlb: bool,
    /// Whether to collect the Fig 5–8 miss-stream statistics.
    pub collect_stream_stats: bool,
    /// Engage the prefetcher on instruction STLB *hits* as well as misses
    /// (§4.3 "TLB Prefetching Strategy": Morrigan could also be activated
    /// on STLB hits). Default: misses only, the paper's main design.
    pub engage_on_stlb_hits: bool,
    /// Issue a *correcting page walk* when a prefetched PTE is evicted
    /// from the PB without ever providing a hit, to reset the access bit
    /// that the prefetch set (§4.3 "Page Replacement Policy"). Modelled as
    /// a background prefetch-class walk; disabled by default, as in the
    /// paper ("Morrigan could issue...").
    pub correcting_walks: bool,
}

impl Default for MmuConfig {
    fn default() -> Self {
        Self {
            itlb: TlbConfig::itlb(),
            dtlb: TlbConfig::dtlb(),
            stlb: TlbConfig::stlb(),
            pb_entries: 64,
            pb_latency: 2,
            walker: WalkerConfig::default(),
            placement: PrefetchPlacement::Buffer,
            perfect_istlb: false,
            collect_stream_stats: false,
            engage_on_stlb_hits: false,
            correcting_walks: false,
        }
    }
}

morrigan_types::counter_set! {
    /// Counters exposed by the MMU.
    pub struct MmuStats {
        /// Instruction translations requested.
        pub instr_translations: u64,
        /// I-TLB misses.
        pub itlb_misses: u64,
        /// Instruction lookups that missed the STLB (iSTLB misses).
        pub istlb_misses: u64,
        /// iSTLB misses covered by a PB hit (ready or in flight).
        pub istlb_covered: u64,
        /// iSTLB misses covered by an entry whose walk was still in flight.
        pub istlb_covered_late: u64,
        /// Data translations requested.
        pub data_translations: u64,
        /// D-TLB misses.
        pub dtlb_misses: u64,
        /// Data lookups that missed the STLB (dSTLB misses).
        pub dstlb_misses: u64,
        /// Prefetch requests issued to the walker.
        pub prefetches_issued: u64,
        /// Prefetch requests discarded because the placement target (PB, or
        /// the STLB in P2TLB mode) already staged the page.
        pub prefetches_duplicate: u64,
        /// Prefetch walks issued on behalf of a page-crossing I-cache
        /// prefetcher (§3.5), counted separately from the STLB prefetcher's
        /// own requests so Fig 18/19 configurations stay comparable.
        pub icache_prefetches_issued: u64,
        /// PTEs staged for free via page-table locality (spatial prefetching).
        pub spatial_ptes_staged: u64,
        /// Correcting page walks issued for PB entries evicted unused (§4.3).
        pub correcting_walks: u64,
        /// Translations removed by TLB shootdowns.
        pub shootdowns: u64,
    }
}

impl MmuStats {
    /// Miss coverage: fraction of iSTLB misses whose walk was eliminated.
    pub fn coverage(&self) -> f64 {
        if self.istlb_misses == 0 {
            0.0
        } else {
            self.istlb_covered as f64 / self.istlb_misses as f64
        }
    }
}

/// Result of one translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslationOutcome {
    /// Total translation latency in cycles (on the critical path for
    /// instruction fetches).
    pub latency: u64,
    /// Whether the first-level TLB missed.
    pub l1_miss: bool,
    /// Whether the STLB missed.
    pub stlb_miss: bool,
    /// Whether a PB hit eliminated the demand walk (instruction side only).
    pub pb_hit: bool,
    /// The resolved physical page (the core accesses caches physically).
    pub pfn: PhysPage,
}

/// The MMU.
///
/// Generic over a [`Recorder`]: the default [`NullRecorder`] compiles
/// every trace-emission site away, so non-traced builds pay nothing.
/// Construct a traced MMU with [`Mmu::with_recorder`].
pub struct Mmu<R: Recorder = NullRecorder> {
    cfg: MmuConfig,
    itlb: Tlb,
    dtlb: Tlb,
    stlb: Tlb,
    /// Epoch-frozen window onto a machine-shared STLB. When installed
    /// (the parallel multi-core machine), every second-level lookup,
    /// insert, and flush routes through it. It reads `stlb`, which holds
    /// the machine's copy of the shared STLB during each quantum, as the
    /// frozen epoch-start image and never writes it.
    stlb_view: Option<StlbView>,
    pb: PrefetchBuffer,
    walker: Walker,
    page_table: PageTable,
    prefetcher: Box<dyn TlbPrefetcher>,
    /// Reused scratch buffer for prefetch decisions.
    scratch: Vec<PrefetchDecision>,
    /// Reused scratch buffer for prefetcher-internal events (table
    /// evictions), drained only under a live recorder.
    event_scratch: Vec<PrefetcherEvent>,
    /// Trace-event sink.
    rec: R,
    /// Counters.
    pub stats: MmuStats,
    /// Fig 5–8 collector (populated when `collect_stream_stats` is set).
    pub miss_stream: MissStreamStats,
}

impl<R: Recorder> std::fmt::Debug for Mmu<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmu")
            .field("cfg", &self.cfg)
            .field("prefetcher", &self.prefetcher.name())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Mmu {
    /// Builds an MMU over `page_table` using `prefetcher` for the iSTLB
    /// miss stream. (Defined on the concrete default-recorder type so
    /// existing call sites infer `Mmu<NullRecorder>` without turbofish.)
    pub fn new(cfg: MmuConfig, page_table: PageTable, prefetcher: Box<dyn TlbPrefetcher>) -> Self {
        Self::with_recorder(cfg, page_table, prefetcher, NullRecorder)
    }

    /// An MMU without STLB prefetching (the paper's baseline).
    pub fn without_prefetching(cfg: MmuConfig, page_table: PageTable) -> Self {
        Self::new(cfg, page_table, Box::new(NullPrefetcher))
    }
}

impl<R: Recorder> Mmu<R> {
    /// Builds an MMU that emits lifecycle [`TraceEvent`]s into `rec`.
    pub fn with_recorder(
        cfg: MmuConfig,
        page_table: PageTable,
        prefetcher: Box<dyn TlbPrefetcher>,
        rec: R,
    ) -> Self {
        let mut prefetcher = prefetcher;
        if R::ENABLED {
            // Ask the prefetcher to capture its internal replacement
            // events; the NullRecorder path leaves capture off so the
            // untraced hot path stays untouched.
            prefetcher.set_event_capture(true);
        }
        Self {
            itlb: Tlb::new(cfg.itlb),
            dtlb: Tlb::new(cfg.dtlb),
            stlb: Tlb::new(cfg.stlb),
            stlb_view: None,
            pb: PrefetchBuffer::new(cfg.pb_entries, cfg.pb_latency),
            walker: Walker::new(cfg.walker),
            page_table,
            prefetcher,
            scratch: Vec::with_capacity(16),
            event_scratch: Vec::new(),
            rec,
            cfg,
            stats: MmuStats::default(),
            miss_stream: MissStreamStats::new(),
        }
    }

    /// The attached recorder.
    pub fn recorder(&self) -> &R {
        &self.rec
    }

    /// Mutable access to the attached recorder.
    pub fn recorder_mut(&mut self) -> &mut R {
        &mut self.rec
    }

    /// Consumes the MMU, returning the recorder (trace extraction at
    /// end of run).
    pub fn into_recorder(self) -> R {
        self.rec
    }

    /// Emits one event; compiles to nothing under [`NullRecorder`].
    #[inline(always)]
    fn emit(&mut self, cycle: u64, vpn: VirtPage, kind: EventKind) {
        if R::ENABLED {
            self.rec.record(TraceEvent {
                cycle,
                vpn: vpn.raw(),
                kind,
            });
        }
    }

    /// Emits the issue/complete event pair for a finished walk.
    #[inline(always)]
    fn emit_walk(&mut self, vpn: VirtPage, walk: &WalkResult) {
        if R::ENABLED {
            self.emit(
                walk.started_at,
                vpn,
                EventKind::WalkIssue {
                    class: walk.kind,
                    psc_skip: walk.psc_hit.first_step() as u8,
                },
            );
            self.emit(
                walk.completed_at,
                vpn,
                EventKind::WalkComplete {
                    class: walk.kind,
                    refs: walk.memory_refs as u8,
                    duration: (walk.completed_at - walk.started_at) as u32,
                },
            );
        }
    }

    /// This MMU's configuration.
    pub fn config(&self) -> &MmuConfig {
        &self.cfg
    }

    /// The underlying page table.
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Walker statistics (walks, references, latencies).
    pub fn walker_stats(&self) -> &WalkerStats {
        &self.walker.stats
    }

    /// The prefetch buffer (hit-rate inspection).
    pub fn prefetch_buffer(&self) -> &PrefetchBuffer {
        &self.pb
    }

    /// The STLB (contention counters).
    pub fn stlb(&self) -> &Tlb {
        &self.stlb
    }

    /// The L1 instruction TLB (occupancy auditing).
    pub fn itlb(&self) -> &Tlb {
        &self.itlb
    }

    /// The L1 data TLB (occupancy auditing).
    pub fn dtlb(&self) -> &Tlb {
        &self.dtlb
    }

    /// Exchanges this MMU's STLB with `other`.
    ///
    /// Under the shared-STLB topology the machine owns the shared STLB
    /// and swaps it into a core's MMU around each quantum, so all cores
    /// contend for a single structure without adding any indirection to
    /// the lookup hot path. Under an installed [`StlbView`] the core only
    /// reads it, as the frozen epoch-start image.
    pub fn swap_stlb(&mut self, other: &mut Tlb) {
        std::mem::swap(&mut self.stlb, other);
    }

    /// Routes this MMU's second-level lookups through an epoch-frozen
    /// [`StlbView`] over a machine-shared STLB (the parallel multi-core
    /// topology). The machine swaps its copy of the shared STLB in for
    /// each quantum ([`Mmu::swap_stlb`]), and the view only reads it;
    /// between quanta the core's own `stlb` is back in place, and it
    /// stays empty.
    pub fn install_stlb_view(&mut self) {
        self.stlb_view = Some(StlbView::default());
    }

    /// The installed shared-STLB view, if any (epoch log collection).
    pub fn stlb_view_mut(&mut self) -> Option<&mut StlbView> {
        self.stlb_view.as_mut()
    }

    /// Second-level promoting lookup: the shared view when installed,
    /// the private STLB otherwise.
    #[inline]
    fn stlb_lookup(&mut self, vpn: VirtPage) -> Option<PhysPage> {
        match &mut self.stlb_view {
            Some(view) => view.lookup(vpn, &self.stlb),
            None => self.stlb.lookup(vpn),
        }
    }

    /// Second-level insert, routed like [`Self::stlb_lookup`].
    #[inline]
    fn stlb_insert(&mut self, vpn: VirtPage, pfn: PhysPage, instruction: bool) {
        match &mut self.stlb_view {
            Some(view) => view.insert(vpn, pfn, instruction),
            None => {
                self.stlb.insert(vpn, pfn, instruction);
            }
        }
    }

    /// Second-level non-promoting residency check, routed like
    /// [`Self::stlb_lookup`].
    #[inline]
    fn stlb_resident(&self, vpn: VirtPage) -> bool {
        match &self.stlb_view {
            Some(view) => view.contains(vpn, &self.stlb),
            None => self.stlb.contains(vpn),
        }
    }

    /// Name of the attached prefetcher.
    pub fn prefetcher_name(&self) -> &'static str {
        self.prefetcher.name()
    }

    /// The attached prefetcher (downcast via `as_any` for
    /// implementation-specific statistics).
    pub fn prefetcher(&self) -> &dyn TlbPrefetcher {
        self.prefetcher.as_ref()
    }

    /// Translates an instruction fetch at `pc`, returning the critical-path
    /// latency and what happened along the way.
    pub fn translate_instr(
        &mut self,
        pc: VirtAddr,
        thread: ThreadId,
        now: u64,
        mem: &mut MemoryHierarchy,
    ) -> TranslationOutcome {
        self.stats.instr_translations += 1;
        let vpn = pc.virt_page();
        let mut latency = self.cfg.itlb.latency;

        if let Some(pfn) = self.itlb.lookup(vpn) {
            return TranslationOutcome {
                latency,
                l1_miss: false,
                stlb_miss: false,
                pb_hit: false,
                pfn,
            };
        }
        self.stats.itlb_misses += 1;
        latency += self.cfg.stlb.latency;

        if self.cfg.perfect_istlb {
            // Idealized: every instruction lookup reaching the STLB hits.
            let pfn = self
                .page_table
                .translate(vpn)
                .expect("fetched page must be mapped");
            self.itlb.insert(vpn, pfn, true);
            self.stlb_insert(vpn, pfn, true);
            return TranslationOutcome {
                latency,
                l1_miss: true,
                stlb_miss: false,
                pb_hit: false,
                pfn,
            };
        }

        if let Some(pfn) = self.stlb_lookup(vpn) {
            self.itlb.insert(vpn, pfn, true);
            if self.cfg.engage_on_stlb_hits {
                self.engage_prefetcher(vpn, pc, thread, false, now, mem);
            }
            return TranslationOutcome {
                latency,
                l1_miss: true,
                stlb_miss: false,
                pb_hit: false,
                pfn,
            };
        }

        // --- iSTLB miss ---
        self.stats.istlb_misses += 1;
        self.emit(now, vpn, EventKind::IstlbMiss);
        if self.cfg.collect_stream_stats {
            self.miss_stream.record(vpn);
        }

        latency += self.pb.latency;
        // The PB is probed only after the I-TLB, STLB, and PB lookup
        // cycles have elapsed; probing with the request cycle would charge
        // an in-flight entry for wait time that already passed.
        let probe_at = now + latency;
        let (pb_hit, pfn) = match self.pb.take(vpn, probe_at) {
            Some(hit) => {
                // PB hit: demand walk avoided; entry moves into the TLBs.
                latency += hit.remaining_latency;
                self.stats.istlb_covered += 1;
                if hit.remaining_latency > 0 {
                    self.stats.istlb_covered_late += 1;
                }
                if R::ENABLED {
                    let outcome = if hit.remaining_latency > 0 {
                        PbProbeOutcome::HitInflight
                    } else {
                        PbProbeOutcome::HitReady
                    };
                    self.emit(probe_at, vpn, EventKind::PbProbe(outcome));
                    self.emit(
                        probe_at,
                        vpn,
                        EventKind::PbPromote {
                            component: hit.component,
                            late: hit.remaining_latency > 0,
                        },
                    );
                }
                if let Some(origin) = hit.origin {
                    self.prefetcher.on_prefetch_hit(&origin);
                }
                self.stlb_insert(vpn, hit.pfn, true);
                self.itlb.insert(vpn, hit.pfn, true);
                (true, hit.pfn)
            }
            None => {
                self.emit(probe_at, vpn, EventKind::PbProbe(PbProbeOutcome::Miss));
                let walk = self
                    .walker
                    .walk(&self.page_table, mem, vpn, WalkKind::DemandInstruction, now)
                    .expect("demand-fetched instruction page must be mapped");
                self.emit_walk(vpn, &walk);
                latency += walk.latency;
                self.stlb_insert(vpn, walk.pfn, true);
                self.itlb.insert(vpn, walk.pfn, true);
                (false, walk.pfn)
            }
        };

        // --- Engage the prefetcher (on both PB hits and misses, §2.1) ---
        self.engage_prefetcher(vpn, pc, thread, pb_hit, now, mem);

        TranslationOutcome {
            latency,
            l1_miss: true,
            stlb_miss: true,
            pb_hit,
            pfn,
        }
    }

    /// Runs the prefetcher on an iSTLB event and services its requests.
    fn engage_prefetcher(
        &mut self,
        vpn: VirtPage,
        pc: VirtAddr,
        thread: ThreadId,
        pb_hit: bool,
        now: u64,
        mem: &mut MemoryHierarchy,
    ) {
        let ctx = MissContext {
            vpn,
            pc,
            thread,
            pb_hit,
            cycle: now,
        };
        let mut decisions = std::mem::take(&mut self.scratch);
        decisions.clear();
        self.prefetcher.on_stlb_miss(&ctx, &mut decisions);
        for decision in &decisions {
            self.issue_prefetch(decision, now, mem);
        }
        self.scratch = decisions;
        if R::ENABLED {
            // Surface prediction-table replacement events (RLFU victims)
            // the prefetcher captured while digesting this miss.
            let mut events = std::mem::take(&mut self.event_scratch);
            events.clear();
            self.prefetcher.drain_events(&mut events);
            for event in &events {
                match *event {
                    PrefetcherEvent::TableEvict { table, vpn } => {
                        self.emit(now, vpn, EventKind::IripEvict { table });
                    }
                }
            }
            self.event_scratch = events;
        }
    }

    /// Issues one prefetch request: duplicate check, background walk, PB
    /// (or STLB, in P2TLB mode) fill, and optional spatial staging.
    fn issue_prefetch(&mut self, decision: &PrefetchDecision, now: u64, mem: &mut MemoryHierarchy) {
        let vpn = decision.vpn;
        // Duplicate check against the structure prefetches are placed
        // into, so Buffer and P2TLB runs count duplicates symmetrically.
        // In Buffer mode only the PB is probed; probing the STLB would
        // contend with demand lookups (§2.1).
        let already_staged = match self.cfg.placement {
            PrefetchPlacement::Buffer => self.pb.contains(vpn),
            PrefetchPlacement::Stlb => self.stlb_resident(vpn),
        };
        if already_staged {
            self.stats.prefetches_duplicate += 1;
            self.emit(
                now,
                vpn,
                EventKind::PrefetchDrop {
                    component: decision.component,
                    reason: PrefetchDropReason::Duplicate,
                },
            );
            return;
        }
        let Some(walk) = self
            .walker
            .walk(&self.page_table, mem, vpn, WalkKind::Prefetch, now)
        else {
            // Faulting prefetch suppressed.
            self.emit(
                now,
                vpn,
                EventKind::PrefetchDrop {
                    component: decision.component,
                    reason: PrefetchDropReason::Fault,
                },
            );
            return;
        };
        self.stats.prefetches_issued += 1;
        if R::ENABLED {
            self.emit(
                now,
                vpn,
                EventKind::PrefetchIssue {
                    component: decision.component,
                },
            );
            self.emit_walk(vpn, &walk);
        }
        match self.cfg.placement {
            PrefetchPlacement::Buffer => {
                let victim = self.pb.insert(
                    vpn,
                    walk.pfn,
                    walk.completed_at,
                    decision.origin,
                    decision.component,
                );
                self.emit_pb_fill(vpn, walk.completed_at, &victim, now, decision.component);
                self.correct_eviction(victim, now, mem);
            }
            PrefetchPlacement::Stlb => {
                self.stlb_insert(vpn, walk.pfn, true);
            }
        }
        if decision.spatial {
            // The walk pulled one 64-byte line of the leaf page table into
            // the cache; the 7 neighboring PTEs arrive for free.
            for neighbor in vpn.pte_line_neighbors() {
                let Some(pfn) = self.page_table.translate(neighbor) else {
                    continue;
                };
                match self.cfg.placement {
                    PrefetchPlacement::Buffer => {
                        if !self.pb.contains(neighbor) {
                            // Spatial extensions are credited to the
                            // component that asked for the anchor page.
                            let victim = self.pb.insert(
                                neighbor,
                                pfn,
                                walk.completed_at,
                                None,
                                decision.component,
                            );
                            self.stats.spatial_ptes_staged += 1;
                            self.emit_pb_fill(
                                neighbor,
                                walk.completed_at,
                                &victim,
                                now,
                                decision.component,
                            );
                            self.correct_eviction(victim, now, mem);
                        }
                    }
                    PrefetchPlacement::Stlb => {
                        self.stlb_insert(neighbor, pfn, true);
                        self.stats.spatial_ptes_staged += 1;
                    }
                }
            }
        }
    }

    /// Emits the fill event (and the eviction event for any LRU victim
    /// the fill displaced) for a PB insertion. Every `pb.insert` call
    /// in the MMU goes through a residency check first, so each call
    /// here corresponds to exactly one `PbStats::inserts` increment —
    /// the property the trace/audit reconciliation test relies on.
    #[inline(always)]
    fn emit_pb_fill(
        &mut self,
        vpn: VirtPage,
        ready_at: u64,
        victim: &Option<crate::prefetch_buffer::PbEntry>,
        now: u64,
        component: PrefetchComponent,
    ) {
        if R::ENABLED {
            if let Some(victim) = victim {
                self.emit(
                    now,
                    victim.vpn,
                    EventKind::PbEvict {
                        component: victim.component,
                    },
                );
            }
            self.emit(ready_at, vpn, EventKind::PbFill { component });
        }
    }

    /// Accounts `count` elided instruction-fetch translations of a page
    /// whose residency the caller just proved with a real
    /// [`translate_instr`](Self::translate_instr) hit.
    ///
    /// A hit's entire footprint is `stats.instr_translations += 1` plus
    /// the iTLB's LRU-clock promotion, so settling a same-page run in
    /// bulk here leaves the MMU bit-for-bit where `count` real lookups
    /// would have — the identity the page-run stepping path relies on.
    /// Nothing that promotes iTLB entries may run between the proving
    /// hit and this call (the non-promoting `contains`/`peek` probes
    /// used by readiness checks and prefetch duplicate filters are
    /// fine); [`Tlb::touch_repeat`] panics if the entry vanished.
    #[inline]
    pub fn note_elided_instr_hits(&mut self, vpn: VirtPage, count: u64) {
        self.stats.instr_translations += count;
        self.itlb.touch_repeat(vpn, count);
    }

    /// Data-side twin of [`Self::note_elided_instr_hits`]: accounts
    /// `count` elided data translations of a page resident in the dTLB.
    #[inline]
    pub fn note_elided_data_hits(&mut self, vpn: VirtPage, count: u64) {
        self.stats.data_translations += count;
        self.dtlb.touch_repeat(vpn, count);
    }

    /// Translates a data access at `addr`.
    pub fn translate_data(
        &mut self,
        addr: VirtAddr,
        _thread: ThreadId,
        now: u64,
        mem: &mut MemoryHierarchy,
    ) -> TranslationOutcome {
        self.stats.data_translations += 1;
        let vpn = addr.virt_page();
        let mut latency = self.cfg.dtlb.latency;

        if let Some(pfn) = self.dtlb.lookup(vpn) {
            return TranslationOutcome {
                latency,
                l1_miss: false,
                stlb_miss: false,
                pb_hit: false,
                pfn,
            };
        }
        self.stats.dtlb_misses += 1;
        latency += self.cfg.stlb.latency;

        if let Some(pfn) = self.stlb_lookup(vpn) {
            self.dtlb.insert(vpn, pfn, false);
            return TranslationOutcome {
                latency,
                l1_miss: true,
                stlb_miss: false,
                pb_hit: false,
                pfn,
            };
        }

        self.stats.dstlb_misses += 1;
        let walk = self
            .walker
            .walk(&self.page_table, mem, vpn, WalkKind::DemandData, now)
            .expect("demand-accessed data page must be mapped");
        self.emit_walk(vpn, &walk);
        latency += walk.latency;
        self.stlb_insert(vpn, walk.pfn, false);
        self.dtlb.insert(vpn, walk.pfn, false);
        TranslationOutcome {
            latency,
            l1_miss: true,
            stlb_miss: true,
            pb_hit: false,
            pfn: walk.pfn,
        }
    }

    /// Stages a translation in the PB on behalf of an I-cache prefetcher
    /// that crossed a page boundary (§3.5: the IPC-1 prefetchers are
    /// configured to store beyond-page-boundary PTEs in the STLB PB).
    ///
    /// Returns the prefetch-walk latency, or `None` when the page was
    /// already translated (TLB/PB) or unmapped.
    pub fn icache_prefetch_translation(
        &mut self,
        vpn: VirtPage,
        now: u64,
        mem: &mut MemoryHierarchy,
    ) -> Option<u64> {
        if self.itlb.contains(vpn) || self.stlb_resident(vpn) || self.pb.contains(vpn) {
            return None;
        }
        let walk = self
            .walker
            .walk(&self.page_table, mem, vpn, WalkKind::Prefetch, now)?;
        self.stats.icache_prefetches_issued += 1;
        self.emit_walk(vpn, &walk);
        let victim = self.pb.insert(
            vpn,
            walk.pfn,
            walk.completed_at,
            None,
            PrefetchComponent::Icache,
        );
        self.emit_pb_fill(
            vpn,
            walk.completed_at,
            &victim,
            now,
            PrefetchComponent::Icache,
        );
        self.correct_eviction(victim, now, mem);
        Some(walk.latency)
    }

    /// Issues the §4.3 correcting page walk for a PB entry that was
    /// evicted without providing a hit, when the feature is enabled.
    fn correct_eviction(
        &mut self,
        victim: Option<crate::prefetch_buffer::PbEntry>,
        now: u64,
        mem: &mut MemoryHierarchy,
    ) {
        if !self.cfg.correcting_walks {
            return;
        }
        if let Some(victim) = victim {
            // A background walk revisits the PTE to clear the access bit;
            // its result is discarded.
            if let Some(walk) =
                self.walker
                    .walk(&self.page_table, mem, victim.vpn, WalkKind::Prefetch, now)
            {
                self.stats.correcting_walks += 1;
                self.emit_walk(victim.vpn, &walk);
            }
        }
    }

    /// Performs a TLB shootdown for `vpn`: the translation is removed from
    /// every structure that may cache it (I-TLB, D-TLB, STLB, and the PB),
    /// as an invalidation IPI would require (§4.3 "TLB Shootdowns").
    /// Returns whether any structure held it.
    pub fn shootdown(&mut self, vpn: VirtPage) -> bool {
        let hit = self.itlb.invalidate(vpn)
            | self.dtlb.invalidate(vpn)
            | self.stlb.invalidate(vpn)
            | self.pb.invalidate(vpn);
        if hit {
            self.stats.shootdowns += 1;
        }
        hit
    }

    /// Whether the translation for `vpn` is available to an instruction
    /// fetch: in the I-TLB, the STLB or the PB. A staged PB entry counts
    /// even while its walk is in flight, because the demand lookup will
    /// merge with that walk.
    pub fn instr_translation_ready(&self, vpn: VirtPage) -> bool {
        self.itlb.contains(vpn) || self.stlb_resident(vpn) || self.pb.contains(vpn)
    }

    /// Simulates a context switch: flushes TLBs, PB, PSCs, and the
    /// prefetcher's prediction tables (§4.3).
    pub fn context_switch(&mut self) {
        self.context_switch_at(0);
    }

    /// [`Self::context_switch`] stamped with the cycle it happens at, so
    /// the eviction events for flushed PB entries carry a real time.
    pub fn context_switch_at(&mut self, now: u64) {
        if R::ENABLED {
            let flushed: Vec<(VirtPage, PrefetchComponent)> = self.pb.resident_entries().collect();
            for (vpn, component) in flushed {
                self.emit(now, vpn, EventKind::PbEvict { component });
            }
        }
        self.itlb.flush();
        self.dtlb.flush();
        match &mut self.stlb_view {
            Some(view) => view.flush(),
            None => self.stlb.flush(),
        }
        self.pb.flush();
        self.walker.flush_psc();
        self.prefetcher.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morrigan_mem::HierarchyConfig;
    use morrigan_types::prefetcher::NullPrefetcher;
    use morrigan_types::PrefetchOrigin;

    /// A scripted prefetcher that always prefetches `vpn + 1`.
    #[derive(Debug)]
    struct NextPage {
        spatial: bool,
        hits_credited: u64,
    }

    impl TlbPrefetcher for NextPage {
        fn name(&self) -> &'static str {
            "test-next-page"
        }

        fn on_stlb_miss(&mut self, ctx: &MissContext, out: &mut Vec<PrefetchDecision>) {
            let mut d = PrefetchDecision::plain(ctx.vpn.offset(1));
            d.spatial = self.spatial;
            d.origin = Some(PrefetchOrigin {
                source: ctx.vpn,
                distance: morrigan_types::PageDistance(1),
            });
            out.push(d);
        }

        fn on_prefetch_hit(&mut self, _origin: &PrefetchOrigin) {
            self.hits_credited += 1;
        }

        fn storage_bits(&self) -> u64 {
            0
        }
    }

    fn setup(prefetcher: Box<dyn TlbPrefetcher>) -> (Mmu, MemoryHierarchy) {
        let mut pt = PageTable::new(1);
        pt.map_range(VirtPage::new(0x4000), 256);
        let mmu = Mmu::new(
            MmuConfig {
                collect_stream_stats: true,
                ..MmuConfig::default()
            },
            pt,
            prefetcher,
        );
        (mmu, MemoryHierarchy::new(HierarchyConfig::default()))
    }

    fn pc(page: u64) -> VirtAddr {
        VirtPage::new(page).base_addr()
    }

    #[test]
    fn itlb_hit_after_first_touch() {
        let (mut mmu, mut mem) = setup(Box::new(NullPrefetcher));
        let cold = mmu.translate_instr(pc(0x4000), ThreadId::ZERO, 0, &mut mem);
        assert!(cold.stlb_miss);
        let warm = mmu.translate_instr(pc(0x4000), ThreadId::ZERO, 500, &mut mem);
        assert!(!warm.l1_miss);
        assert_eq!(warm.latency, 1);
        assert_eq!(mmu.stats.istlb_misses, 1);
    }

    #[test]
    fn prefetch_covers_next_page_miss() {
        let (mut mmu, mut mem) = setup(Box::new(NextPage {
            spatial: false,
            hits_credited: 0,
        }));
        mmu.translate_instr(pc(0x4000), ThreadId::ZERO, 0, &mut mem);
        assert_eq!(mmu.stats.prefetches_issued, 1);
        // Access page+1 well after the prefetch walk completed.
        let out = mmu.translate_instr(pc(0x4001), ThreadId::ZERO, 10_000, &mut mem);
        assert!(out.stlb_miss && out.pb_hit, "PB should cover this miss");
        assert_eq!(mmu.stats.istlb_covered, 1);
        assert_eq!(mmu.stats.istlb_covered_late, 0);
    }

    #[test]
    fn untimely_prefetch_still_covers_but_charges_remaining() {
        let (mut mmu, mut mem) = setup(Box::new(NextPage {
            spatial: false,
            hits_credited: 0,
        }));
        mmu.translate_instr(pc(0x4000), ThreadId::ZERO, 0, &mut mem);
        // Access page+1 immediately: the prefetch walk is still in flight.
        let out = mmu.translate_instr(pc(0x4001), ThreadId::ZERO, 1, &mut mem);
        assert!(out.pb_hit);
        assert_eq!(mmu.stats.istlb_covered_late, 1);
        // Latency must exceed the pure lookup path (1 + 8 + 2).
        assert!(out.latency > 11, "{}", out.latency);
    }

    #[test]
    fn pb_hit_remaining_wait_is_relative_to_probe_time() {
        let (mut mmu, mut mem) = setup(Box::new(NextPage {
            spatial: false,
            hits_credited: 0,
        }));
        // The miss at cycle 0 prefetches 0x4001; its walk starts at cycle 1
        // (initiation rate), finds all upper levels and the leaf line in
        // L1D (the demand walk just touched them), and completes at cycle
        // 1 + 2 + 4*4 = 19.
        mmu.translate_instr(pc(0x4000), ThreadId::ZERO, 0, &mut mem);
        // A lookup at cycle 8 reaches the PB at cycle 8 + 11 = 19: the
        // walk is done by probe time, so no extra wait may be charged.
        let out = mmu.translate_instr(pc(0x4001), ThreadId::ZERO, 8, &mut mem);
        assert!(out.pb_hit);
        assert_eq!(
            out.latency, 11,
            "the lookup pipeline already covers the remaining walk time"
        );
        assert_eq!(mmu.stats.istlb_covered_late, 0);
    }

    #[test]
    fn pb_hit_credits_prefetcher() {
        let (mut mmu, mut mem) = setup(Box::new(NextPage {
            spatial: false,
            hits_credited: 0,
        }));
        mmu.translate_instr(pc(0x4000), ThreadId::ZERO, 0, &mut mem);
        mmu.translate_instr(pc(0x4001), ThreadId::ZERO, 10_000, &mut mem);
        // The credit went through `on_prefetch_hit`; we can't inspect the
        // boxed prefetcher directly, so check via the covered counter plus
        // the duplicate path staying at zero.
        assert_eq!(mmu.stats.istlb_covered, 1);
    }

    /// Prefetches the same fixed page on every miss.
    #[derive(Debug)]
    struct FixedTarget(VirtPage);

    impl TlbPrefetcher for FixedTarget {
        fn name(&self) -> &'static str {
            "test-fixed"
        }

        fn on_stlb_miss(&mut self, _ctx: &MissContext, out: &mut Vec<PrefetchDecision>) {
            out.push(PrefetchDecision::plain(self.0));
        }

        fn storage_bits(&self) -> u64 {
            0
        }
    }

    #[test]
    fn duplicate_prefetches_are_discarded() {
        let (mut mmu, mut mem) = setup(Box::new(FixedTarget(VirtPage::new(0x4050))));
        mmu.translate_instr(pc(0x4000), ThreadId::ZERO, 0, &mut mem);
        assert_eq!(mmu.stats.prefetches_issued, 1);
        // A second miss re-requests 0x4050, which is already staged.
        mmu.translate_instr(pc(0x4001), ThreadId::ZERO, 100, &mut mem);
        assert_eq!(mmu.stats.prefetches_issued, 1);
        assert_eq!(mmu.stats.prefetches_duplicate, 1);
    }

    #[test]
    fn spatial_prefetch_stages_line_neighbors() {
        let (mut mmu, mut mem) = setup(Box::new(NextPage {
            spatial: true,
            hits_credited: 0,
        }));
        // Miss on 0x4007 prefetches 0x4008 (first slot of a fresh PTE
        // line) spatially: neighbors 0x4009..0x400f staged for free.
        mmu.translate_instr(pc(0x4007), ThreadId::ZERO, 0, &mut mem);
        assert_eq!(mmu.stats.spatial_ptes_staged, 7);
        let out = mmu.translate_instr(pc(0x400a), ThreadId::ZERO, 10_000, &mut mem);
        assert!(out.pb_hit, "spatially staged PTE should cover the miss");
    }

    #[test]
    fn p2tlb_places_into_stlb() {
        let mut pt = PageTable::new(1);
        pt.map_range(VirtPage::new(0x4000), 64);
        let mut mmu = Mmu::new(
            MmuConfig {
                placement: PrefetchPlacement::Stlb,
                ..MmuConfig::default()
            },
            pt,
            Box::new(NextPage {
                spatial: false,
                hits_credited: 0,
            }),
        );
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
        mmu.translate_instr(pc(0x4000), ThreadId::ZERO, 0, &mut mem);
        // The prefetched page lands in the STLB: the next access misses the
        // I-TLB but hits the STLB (no PB hit, no walk).
        let out = mmu.translate_instr(pc(0x4001), ThreadId::ZERO, 10_000, &mut mem);
        assert!(out.l1_miss && !out.stlb_miss);
        assert!(mmu.prefetch_buffer().is_empty());
    }

    #[test]
    fn p2tlb_counts_duplicates_like_buffer_mode() {
        let mut pt = PageTable::new(1);
        pt.map_range(VirtPage::new(0x4000), 256);
        let mut mmu = Mmu::new(
            MmuConfig {
                placement: PrefetchPlacement::Stlb,
                ..MmuConfig::default()
            },
            pt,
            Box::new(FixedTarget(VirtPage::new(0x4050))),
        );
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
        mmu.translate_instr(pc(0x4000), ThreadId::ZERO, 0, &mut mem);
        assert_eq!(mmu.stats.prefetches_issued, 1);
        // The second miss re-requests 0x4050, already placed in the STLB:
        // it must count as a duplicate, exactly as Buffer mode would.
        mmu.translate_instr(pc(0x4001), ThreadId::ZERO, 10_000, &mut mem);
        assert_eq!(mmu.stats.prefetches_issued, 1);
        assert_eq!(mmu.stats.prefetches_duplicate, 1);
    }

    #[test]
    fn perfect_istlb_never_misses() {
        let mut pt = PageTable::new(1);
        pt.map_range(VirtPage::new(0x4000), 64);
        let mut mmu = Mmu::new(
            MmuConfig {
                perfect_istlb: true,
                ..MmuConfig::default()
            },
            pt,
            Box::new(NullPrefetcher),
        );
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
        for i in 0..64 {
            let out = mmu.translate_instr(pc(0x4000 + i), ThreadId::ZERO, i * 10, &mut mem);
            assert!(!out.stlb_miss);
        }
        assert_eq!(mmu.stats.istlb_misses, 0);
        assert_eq!(mmu.walker_stats().demand_instr_walks, 0);
    }

    #[test]
    fn data_misses_walk_without_prefetching() {
        let (mut mmu, mut mem) = setup(Box::new(NextPage {
            spatial: false,
            hits_credited: 0,
        }));
        let out = mmu.translate_data(pc(0x4010), ThreadId::ZERO, 0, &mut mem);
        assert!(out.stlb_miss && !out.pb_hit);
        assert_eq!(mmu.stats.dstlb_misses, 1);
        assert_eq!(
            mmu.stats.prefetches_issued, 0,
            "data misses must not engage the prefetcher"
        );
        assert_eq!(mmu.walker_stats().demand_data_walks, 1);
    }

    #[test]
    fn instruction_and_data_share_the_stlb() {
        let (mut mmu, mut mem) = setup(Box::new(NullPrefetcher));
        mmu.translate_data(pc(0x4020), ThreadId::ZERO, 0, &mut mem);
        // An instruction fetch of the same page: I-TLB miss, STLB hit.
        let out = mmu.translate_instr(pc(0x4020), ThreadId::ZERO, 500, &mut mem);
        assert!(out.l1_miss && !out.stlb_miss);
    }

    #[test]
    fn miss_stream_stats_collected() {
        let (mut mmu, mut mem) = setup(Box::new(NullPrefetcher));
        mmu.translate_instr(pc(0x4000), ThreadId::ZERO, 0, &mut mem);
        mmu.translate_instr(pc(0x4005), ThreadId::ZERO, 500, &mut mem);
        assert_eq!(mmu.miss_stream.total_misses, 2);
        assert_eq!(mmu.miss_stream.delta_hist[&5], 1);
    }

    #[test]
    fn context_switch_flushes_everything() {
        let (mut mmu, mut mem) = setup(Box::new(NextPage {
            spatial: false,
            hits_credited: 0,
        }));
        mmu.translate_instr(pc(0x4000), ThreadId::ZERO, 0, &mut mem);
        mmu.context_switch();
        let out = mmu.translate_instr(pc(0x4000), ThreadId::ZERO, 10_000, &mut mem);
        assert!(
            out.stlb_miss && !out.pb_hit,
            "all translation state must be gone"
        );
    }

    #[test]
    fn traced_mmu_emits_reconciling_events() {
        use morrigan_obs::TraceRecorder;

        let mut pt = PageTable::new(1);
        pt.map_range(VirtPage::new(0x4000), 256);
        let mut mmu = Mmu::with_recorder(
            MmuConfig::default(),
            pt,
            Box::new(NextPage {
                spatial: false,
                hits_credited: 0,
            }),
            TraceRecorder::with_capacity(4096),
        );
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default());

        // Miss + prefetch of the next page; later hit the prefetch, then
        // a data walk and a context switch flushing the (empty) PB.
        mmu.translate_instr(pc(0x4000), ThreadId::ZERO, 0, &mut mem);
        mmu.translate_instr(pc(0x4001), ThreadId::ZERO, 10_000, &mut mem);
        mmu.translate_data(pc(0x4080), ThreadId::ZERO, 20_000, &mut mem);
        mmu.context_switch_at(30_000);

        let stats = mmu.stats;
        let walker = *mmu.walker_stats();
        let pb = mmu.prefetch_buffer().stats;
        let counts = *mmu.recorder().counts();

        assert_eq!(counts.istlb_miss, stats.istlb_misses);
        assert_eq!(
            counts.pb_probe_hit_ready + counts.pb_probe_hit_inflight,
            stats.istlb_covered
        );
        assert_eq!(counts.pb_probe_miss, pb.misses);
        assert_eq!(counts.pb_promote, stats.istlb_covered);
        assert_eq!(counts.pb_fill, pb.inserts);
        assert_eq!(counts.pb_evict, pb.evicted_unused);
        assert_eq!(counts.prefetch_issue, stats.prefetches_issued);
        assert_eq!(
            counts.walk_complete[WalkKind::DemandInstruction.index()],
            walker.demand_instr_walks
        );
        assert_eq!(
            counts.walk_complete[WalkKind::DemandData.index()],
            walker.demand_data_walks
        );
        assert_eq!(
            counts.walk_complete[WalkKind::Prefetch.index()],
            walker.prefetch_walks
        );
        assert_eq!(counts.walk_issue, counts.walk_complete);
        assert!(counts.total() > 0);
        assert_eq!(mmu.recorder().dropped(), 0);
    }

    #[test]
    fn null_recorder_mmu_is_the_default_type() {
        // `Mmu` with no parameter is `Mmu<NullRecorder>`; this pins that
        // the default keeps compiling (and that tracing stays opt-in).
        fn takes_default(_: &Mmu) {}
        let mut pt = PageTable::new(1);
        pt.map_range(VirtPage::new(0x4000), 4);
        let mmu = Mmu::without_prefetching(MmuConfig::default(), pt);
        takes_default(&mmu);
    }

    #[test]
    fn icache_prefetch_translation_stages_pb() {
        let (mut mmu, mut mem) = setup(Box::new(NullPrefetcher));
        let vpn = VirtPage::new(0x4042);
        assert!(mmu.icache_prefetch_translation(vpn, 0, &mut mem).is_some());
        // Second request: already staged.
        assert!(mmu.icache_prefetch_translation(vpn, 1, &mut mem).is_none());
        assert_eq!(
            mmu.stats.icache_prefetches_issued, 1,
            "i-cache-initiated walks have their own counter"
        );
        assert_eq!(
            mmu.stats.prefetches_issued, 0,
            "the STLB prefetcher issued nothing"
        );
        let out = mmu.translate_instr(pc(0x4042), ThreadId::ZERO, 10_000, &mut mem);
        assert!(out.pb_hit);
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use morrigan_mem::HierarchyConfig;

    fn pc(page: u64) -> VirtAddr {
        VirtPage::new(page).base_addr()
    }

    /// Prefetches a constant stream of never-used pages to churn the PB.
    #[derive(Debug)]
    struct Churner(u64);

    impl TlbPrefetcher for Churner {
        fn name(&self) -> &'static str {
            "test-churner"
        }

        fn on_stlb_miss(&mut self, _ctx: &MissContext, out: &mut Vec<PrefetchDecision>) {
            self.0 += 1;
            out.push(PrefetchDecision::plain(VirtPage::new(
                0x4000 + self.0 % 200,
            )));
        }

        fn storage_bits(&self) -> u64 {
            0
        }
    }

    #[test]
    fn correcting_walks_fire_on_unused_evictions() {
        let mut pt = PageTable::new(1);
        pt.map_range(VirtPage::new(0x4000), 256);
        let mut cfg = MmuConfig {
            correcting_walks: true,
            ..MmuConfig::default()
        };
        cfg.pb_entries = 4; // tiny PB so evictions happen quickly
        let mut mmu = Mmu::new(cfg, pt, Box::new(Churner(0)));
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
        for i in 0..64 {
            // Miss on fresh pages; each miss prefetches a churn page.
            let _ =
                mmu.translate_instr(pc(0x4000 + 200 + i % 50), ThreadId::ZERO, i * 50, &mut mem);
        }
        assert!(
            mmu.stats.correcting_walks > 0,
            "churned PB must trigger corrections"
        );
        assert!(
            mmu.walker_stats().prefetch_walks
                >= mmu.stats.prefetches_issued + mmu.stats.correcting_walks,
            "correcting walks are extra background walks"
        );
    }

    #[test]
    fn correcting_walks_disabled_by_default() {
        let mut pt = PageTable::new(1);
        pt.map_range(VirtPage::new(0x4000), 256);
        let cfg = MmuConfig {
            pb_entries: 4,
            ..MmuConfig::default()
        };
        let mut mmu = Mmu::new(cfg, pt, Box::new(Churner(0)));
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
        for i in 0..64 {
            let _ =
                mmu.translate_instr(pc(0x4000 + 200 + i % 50), ThreadId::ZERO, i * 50, &mut mem);
        }
        assert_eq!(mmu.stats.correcting_walks, 0);
    }

    #[test]
    fn shootdown_clears_every_structure() {
        let mut pt = PageTable::new(1);
        pt.map_range(VirtPage::new(0x4000), 64);
        let mut mmu = Mmu::without_prefetching(MmuConfig::default(), pt);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
        let vpn = VirtPage::new(0x4010);

        // Populate I-TLB + STLB via an instruction fetch.
        let _ = mmu.translate_instr(pc(0x4010), ThreadId::ZERO, 0, &mut mem);
        assert!(mmu.shootdown(vpn), "translation was cached somewhere");
        assert_eq!(mmu.stats.shootdowns, 1);

        // After the shootdown the next access walks again.
        let out = mmu.translate_instr(pc(0x4010), ThreadId::ZERO, 10_000, &mut mem);
        assert!(
            out.stlb_miss && !out.pb_hit,
            "shootdown must force a fresh walk"
        );

        // Shooting down an uncached page reports false.
        assert!(!mmu.shootdown(VirtPage::new(0x403f)));
        assert_eq!(mmu.stats.shootdowns, 1);
    }

    #[test]
    fn engage_on_hits_prefetches_on_stlb_hits() {
        let mut pt = PageTable::new(1);
        pt.map_range(VirtPage::new(0x4000), 512);
        let cfg = MmuConfig {
            engage_on_stlb_hits: true,
            ..MmuConfig::default()
        };
        let mut mmu = Mmu::new(cfg, pt, Box::new(Churner(0)));
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default());

        // First touch: miss (engages once). Then evict from the I-TLB by
        // touching other pages... simpler: an STLB hit happens when the
        // I-TLB misses but the STLB holds the page. Force it by filling
        // the I-TLB set with aliasing pages (same I-TLB set = vpn mod 16).
        let _ = mmu.translate_instr(pc(0x4000), ThreadId::ZERO, 0, &mut mem);
        let issued_after_miss = mmu.stats.prefetches_issued + mmu.stats.prefetches_duplicate;
        for i in 1..=16u64 {
            let _ = mmu.translate_instr(pc(0x4000 + i * 16), ThreadId::ZERO, i * 1000, &mut mem);
        }
        // 0x4000 now misses the I-TLB but hits the STLB → engagement.
        let out = mmu.translate_instr(pc(0x4000), ThreadId::ZERO, 100_000, &mut mem);
        assert!(
            out.l1_miss && !out.stlb_miss,
            "setup must produce an STLB hit"
        );
        let issued_after_hit = mmu.stats.prefetches_issued + mmu.stats.prefetches_duplicate;
        assert!(
            issued_after_hit > issued_after_miss,
            "the prefetcher must have been engaged on the STLB hit"
        );
    }
}
