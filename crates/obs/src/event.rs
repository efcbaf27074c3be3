//! The event taxonomy: every lifecycle moment the simulation stack can
//! narrate, stamped with the cycle at which it happened and the virtual
//! page it concerns.
//!
//! The taxonomy deliberately mirrors the audit layer's conservation
//! laws: each event kind corresponds to exactly one counter in
//! `MmuStats`/`WalkerStats`/`PbStats`, so a trace can be *proved*
//! complete by tallying it (see [`EventCounts`]) and comparing against
//! the end-of-run statistics. The reconciliation test in
//! `crates/sim/tests/trace_reconciliation.rs` pins that equality.

use morrigan_types::{PrefetchComponent, WalkKind};

/// Why an emitted prefetch decision never became a prefetch walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchDropReason {
    /// The target translation was already resident (PB or STLB).
    Duplicate,
    /// The target page is unmapped; faulting prefetches are suppressed.
    Fault,
}

impl PrefetchDropReason {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            PrefetchDropReason::Duplicate => "duplicate",
            PrefetchDropReason::Fault => "fault",
        }
    }
}

/// Outcome of a prefetch-buffer probe on the iSTLB miss path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PbProbeOutcome {
    /// The entry was resident and its fill had already completed.
    HitReady,
    /// The entry was resident but its fill was still in flight; the
    /// miss pays the remaining latency.
    HitInflight,
    /// No entry; a demand walk follows.
    Miss,
}

impl PbProbeOutcome {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            PbProbeOutcome::HitReady => "hit_ready",
            PbProbeOutcome::HitInflight => "hit_inflight",
            PbProbeOutcome::Miss => "miss",
        }
    }
}

/// Outcome of an I-cache prefetcher crossing into a new page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcacheCrossOutcome {
    /// The target page's translation was already available (same page,
    /// TLB/PB resident, or translation cost disabled).
    Ready,
    /// The crossing triggered a speculative translation walk.
    WalkIssued,
    /// The crossing wanted a walk but the MMU suppressed it (already
    /// resident or the page faults).
    Suppressed,
}

impl IcacheCrossOutcome {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            IcacheCrossOutcome::Ready => "ready",
            IcacheCrossOutcome::WalkIssued => "walk_issued",
            IcacheCrossOutcome::Suppressed => "suppressed",
        }
    }
}

/// What happened. Kinds marked with a duration (only
/// [`EventKind::WalkComplete`]) render as Chrome "complete" spans; the
/// rest render as instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An instruction translation missed iTLB *and* STLB; the composite
    /// prefetcher's coverage question starts here.
    IstlbMiss,
    /// The prefetch buffer was probed on the iSTLB miss path.
    PbProbe(PbProbeOutcome),
    /// A PB hit promoted its entry into STLB + iTLB. `late` when the
    /// fill was still in flight at probe time (the timeliness debit).
    PbPromote {
        /// Which engine staged the promoted entry.
        component: PrefetchComponent,
        /// Whether the miss paid residual in-flight latency.
        late: bool,
    },
    /// A translation was staged into the prefetch buffer.
    PbFill {
        /// Which engine asked for the staged translation.
        component: PrefetchComponent,
    },
    /// A PB entry was discarded unused (capacity eviction or flush).
    PbEvict {
        /// Which engine had staged the discarded entry.
        component: PrefetchComponent,
    },
    /// The prefetch engine issued a speculative translation.
    PrefetchIssue {
        /// Which engine produced the decision.
        component: PrefetchComponent,
    },
    /// A prefetch decision was dropped before reaching the walker.
    PrefetchDrop {
        /// Which engine produced the dropped decision.
        component: PrefetchComponent,
        /// Why it was dropped.
        reason: PrefetchDropReason,
    },
    /// IRIP's replacement policy evicted a valid prediction-table entry;
    /// `vpn` is the victim's tag page. Fuel for replacement forensics:
    /// a demand re-miss on the victim page shortly after is a premature
    /// eviction.
    IripEvict {
        /// Index of the prediction table the entry was evicted from.
        table: u8,
    },
    /// A page walk entered the walker.
    WalkIssue {
        /// Demand class of the walk.
        class: WalkKind,
        /// Steps skipped thanks to a paging-structure-cache hit
        /// (0 = PSC miss, walked all four levels; 3 = PD hit, one ref).
        psc_skip: u8,
    },
    /// A page walk finished; `cycle` is the completion cycle, so the
    /// walk occupied `[cycle - duration, cycle]`.
    WalkComplete {
        /// Demand class of the walk.
        class: WalkKind,
        /// Memory references the walk performed.
        refs: u8,
        /// Cycles from issue to completion.
        duration: u32,
    },
    /// The I-cache prefetcher crossed a page boundary.
    IcacheCross(IcacheCrossOutcome),
}

/// One traced event: a kind stamped with cycle and virtual page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle at which the event (or its completion) happened.
    pub cycle: u64,
    /// Raw virtual page number the event concerns.
    pub vpn: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Exact per-kind totals for a trace. Maintained by tallying every
/// event *before* it enters the ring, so the totals stay exact even
/// after the ring wraps and drops old events — which is what makes the
/// audit reconciliation independent of ring capacity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    pub istlb_miss: u64,
    pub pb_probe_hit_ready: u64,
    pub pb_probe_hit_inflight: u64,
    pub pb_probe_miss: u64,
    pub pb_promote: u64,
    pub pb_fill: u64,
    pub pb_evict: u64,
    pub prefetch_issue: u64,
    /// Indexed by [`WalkKind::index`].
    pub walk_issue: [u64; 3],
    /// Indexed by [`WalkKind::index`].
    pub walk_complete: [u64; 3],
    pub icache_cross_ready: u64,
    pub icache_cross_walk_issued: u64,
    pub icache_cross_suppressed: u64,
    /// Prefetches issued, indexed by [`PrefetchComponent::index`]; sums
    /// to `prefetch_issue`.
    pub prefetch_issue_by_component: [u64; PrefetchComponent::COUNT],
    /// Decisions dropped as duplicates, per component.
    pub prefetch_drop_duplicate: [u64; PrefetchComponent::COUNT],
    /// Decisions dropped because the target page faults, per component.
    pub prefetch_drop_fault: [u64; PrefetchComponent::COUNT],
    /// PB fills per component; sums to `pb_fill`.
    pub pb_fill_by_component: [u64; PrefetchComponent::COUNT],
    /// PB-hit promotions per component; sums to `pb_promote`.
    pub pb_promote_by_component: [u64; PrefetchComponent::COUNT],
    /// The late (fill still in flight) subset of promotions, per
    /// component; sums to `pb_probe_hit_inflight`.
    pub pb_promote_late_by_component: [u64; PrefetchComponent::COUNT],
    /// Unused PB evictions per component; sums to `pb_evict`.
    pub pb_evict_by_component: [u64; PrefetchComponent::COUNT],
    /// IRIP replacement evictions per prediction table (tables above 3
    /// fold into the last bucket).
    pub irip_evict_by_table: [u64; 4],
}

impl EventCounts {
    /// Adds one event to the tally.
    pub fn tally(&mut self, event: &TraceEvent) {
        match event.kind {
            EventKind::IstlbMiss => self.istlb_miss += 1,
            EventKind::PbProbe(PbProbeOutcome::HitReady) => self.pb_probe_hit_ready += 1,
            EventKind::PbProbe(PbProbeOutcome::HitInflight) => self.pb_probe_hit_inflight += 1,
            EventKind::PbProbe(PbProbeOutcome::Miss) => self.pb_probe_miss += 1,
            EventKind::PbPromote { component, late } => {
                self.pb_promote += 1;
                self.pb_promote_by_component[component.index()] += 1;
                if late {
                    self.pb_promote_late_by_component[component.index()] += 1;
                }
            }
            EventKind::PbFill { component } => {
                self.pb_fill += 1;
                self.pb_fill_by_component[component.index()] += 1;
            }
            EventKind::PbEvict { component } => {
                self.pb_evict += 1;
                self.pb_evict_by_component[component.index()] += 1;
            }
            EventKind::PrefetchIssue { component } => {
                self.prefetch_issue += 1;
                self.prefetch_issue_by_component[component.index()] += 1;
            }
            EventKind::PrefetchDrop { component, reason } => match reason {
                PrefetchDropReason::Duplicate => {
                    self.prefetch_drop_duplicate[component.index()] += 1
                }
                PrefetchDropReason::Fault => self.prefetch_drop_fault[component.index()] += 1,
            },
            EventKind::IripEvict { table } => {
                self.irip_evict_by_table[(table as usize).min(3)] += 1
            }
            EventKind::WalkIssue { class, .. } => self.walk_issue[class.index()] += 1,
            EventKind::WalkComplete { class, .. } => self.walk_complete[class.index()] += 1,
            EventKind::IcacheCross(IcacheCrossOutcome::Ready) => self.icache_cross_ready += 1,
            EventKind::IcacheCross(IcacheCrossOutcome::WalkIssued) => {
                self.icache_cross_walk_issued += 1
            }
            EventKind::IcacheCross(IcacheCrossOutcome::Suppressed) => {
                self.icache_cross_suppressed += 1
            }
        }
    }

    /// Total events tallied across every kind. The per-component arrays
    /// for issue/fill/promote/evict are breakdowns of their scalar
    /// totals, so only the drop and IRIP-evict arrays add events here.
    pub fn total(&self) -> u64 {
        self.istlb_miss
            + self.pb_probe_hit_ready
            + self.pb_probe_hit_inflight
            + self.pb_probe_miss
            + self.pb_promote
            + self.pb_fill
            + self.pb_evict
            + self.prefetch_issue
            + self.walk_issue.iter().sum::<u64>()
            + self.walk_complete.iter().sum::<u64>()
            + self.icache_cross_ready
            + self.icache_cross_walk_issued
            + self.icache_cross_suppressed
            + self.prefetch_drop_duplicate.iter().sum::<u64>()
            + self.prefetch_drop_fault.iter().sum::<u64>()
            + self.irip_evict_by_table.iter().sum::<u64>()
    }
}
