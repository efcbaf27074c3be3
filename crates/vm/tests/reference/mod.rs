//! Plain reference models of the translation structures, for the
//! equivalence proptests in `prop_reference.rs`.
//!
//! Each model is the obvious implementation of the policy: per-way
//! structs with LRU stamps, one tick counter, linear searches and "first
//! free way, else least-recent stamp" victims. None of the optimized
//! structures' layout tricks (structure-of-arrays tags, stamp-0 empty
//! encoding, the one-entry way memo, batched scans) appear here, so
//! agreement is evidence about the policy, not a comparison of a
//! structure with an earlier version of itself.
//!
//! The PSC model is three such TLBs keyed by VPN prefixes; the walker
//! model keeps its own slots, pending fills and PSC, and drives the
//! memory hierarchy it is handed (the hierarchy has its own oracle). The
//! prefetch-buffer model keeps its entries in recency order instead of
//! stamping them.

use std::collections::VecDeque;

use morrigan_mem::{AccessClass, MemoryHierarchy};
use morrigan_types::{PhysPage, PrefetchComponent, PrefetchOrigin, VirtPage};
use morrigan_vm::{
    PageTable, PbEntry, PbStats, PscConfig, PscHit, TlbConfig, WalkKind, WalkResult, WalkerConfig,
    WalkerStats,
};

/// One resident translation and the tick of its last use.
#[derive(Debug, Clone, Copy)]
struct Way {
    vpn: VirtPage,
    pfn: PhysPage,
    stamp: u64,
    instruction: bool,
}

/// A stamp-LRU set-associative TLB.
#[derive(Debug, Clone)]
pub struct RefTlb {
    sets: Vec<Vec<Option<Way>>>,
    tick: u64,
    /// Valid instruction entries evicted by data fills.
    pub instr_evicted_by_data: u64,
    /// Valid data entries evicted by instruction fills.
    pub data_evicted_by_instr: u64,
}

impl RefTlb {
    pub fn new(cfg: TlbConfig) -> Self {
        Self {
            sets: vec![vec![None; cfg.ways]; cfg.entries / cfg.ways],
            tick: 0,
            instr_evicted_by_data: 0,
            data_evicted_by_instr: 0,
        }
    }

    fn set_index(&self, vpn: VirtPage) -> usize {
        (vpn.raw() % self.sets.len() as u64) as usize
    }

    fn find(&self, vpn: VirtPage) -> Option<&Way> {
        self.sets[self.set_index(vpn)]
            .iter()
            .flatten()
            .find(|w| w.vpn == vpn)
    }

    fn find_mut(&mut self, vpn: VirtPage) -> Option<&mut Way> {
        let set = self.set_index(vpn);
        self.sets[set].iter_mut().flatten().find(|w| w.vpn == vpn)
    }

    /// Hit: refresh the stamp and return the translation.
    pub fn lookup(&mut self, vpn: VirtPage) -> Option<PhysPage> {
        self.tick += 1;
        let tick = self.tick;
        let way = self.find_mut(vpn)?;
        way.stamp = tick;
        Some(way.pfn)
    }

    /// `count` back-to-back lookups of a resident page.
    pub fn touch_repeat(&mut self, vpn: VirtPage, count: u64) {
        for _ in 0..count {
            assert!(
                self.lookup(vpn).is_some(),
                "touch_repeat needs a resident page"
            );
        }
    }

    pub fn contains(&self, vpn: VirtPage) -> bool {
        self.find(vpn).is_some()
    }

    pub fn peek(&self, vpn: VirtPage) -> Option<PhysPage> {
        self.find(vpn).map(|w| w.pfn)
    }

    /// Refresh a resident page; else take the first free way, else the
    /// way with the smallest stamp, and return the page it held.
    pub fn insert(&mut self, vpn: VirtPage, pfn: PhysPage, instruction: bool) -> Option<VirtPage> {
        self.tick += 1;
        let fresh = Way {
            vpn,
            pfn,
            stamp: self.tick,
            instruction,
        };
        if let Some(way) = self.find_mut(vpn) {
            *way = fresh;
            return None;
        }
        let index = self.set_index(vpn);
        let set = &mut self.sets[index];
        if let Some(free) = set.iter_mut().find(|w| w.is_none()) {
            *free = Some(fresh);
            return None;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|w| w.expect("the set is full").stamp)
            .expect("ways > 0");
        let old = victim.replace(fresh).expect("the set is full");
        if old.instruction && !instruction {
            self.instr_evicted_by_data += 1;
        } else if !old.instruction && instruction {
            self.data_evicted_by_instr += 1;
        }
        Some(old.vpn)
    }

    /// Removes a page; returns whether it was resident.
    pub fn invalidate(&mut self, vpn: VirtPage) -> bool {
        let index = self.set_index(vpn);
        match self.sets[index]
            .iter_mut()
            .find(|w| w.is_some_and(|w| w.vpn == vpn))
        {
            Some(way) => {
                *way = None;
                true
            }
            None => false,
        }
    }

    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.fill(None);
        }
    }

    pub fn occupancy(&self) -> usize {
        self.sets.iter().flatten().flatten().count()
    }

    pub fn occupancy_for_asid(&self, asid: u16) -> usize {
        self.sets
            .iter()
            .flatten()
            .flatten()
            .filter(|w| w.vpn.asid() == asid)
            .count()
    }
}

/// VPN bits below a PML4, PDP and PD entry's span: one PSC entry at that
/// level covers 2^shift pages (512 GB, 1 GB and 2 MB).
const PML4_SHIFT: u32 = 27;
const PDP_SHIFT: u32 = 18;
const PD_SHIFT: u32 = 9;

/// The split paging-structure caches: three stamp-LRU levels, each
/// keyed by the VPN prefix above its span.
#[derive(Debug, Clone)]
pub struct RefPsc {
    pml4: RefTlb,
    pdp: RefTlb,
    pd: RefTlb,
    pub lookups: u64,
    pub pd_hits: u64,
    pub pdp_hits: u64,
    pub pml4_hits: u64,
}

impl RefPsc {
    pub fn new(cfg: PscConfig) -> Self {
        let level = |entries, ways| {
            RefTlb::new(TlbConfig {
                entries,
                ways,
                latency: 0,
            })
        };
        Self {
            pml4: level(cfg.pml4_entries, cfg.pml4_entries),
            pdp: level(cfg.pdp_entries, cfg.pdp_entries),
            pd: level(cfg.pd_entries, cfg.pd_ways),
            lookups: 0,
            pd_hits: 0,
            pdp_hits: 0,
            pml4_hits: 0,
        }
    }

    fn prefix(vpn: VirtPage, shift: u32) -> VirtPage {
        VirtPage::new(vpn.raw() >> shift)
    }

    /// Probes PD, then PDP, then PML4; the first level holding its
    /// prefix answers, and the levels above it are not touched.
    pub fn lookup(&mut self, vpn: VirtPage) -> PscHit {
        self.lookups += 1;
        if self.pd.lookup(Self::prefix(vpn, PD_SHIFT)).is_some() {
            self.pd_hits += 1;
            PscHit::Pd
        } else if self.pdp.lookup(Self::prefix(vpn, PDP_SHIFT)).is_some() {
            self.pdp_hits += 1;
            PscHit::Pdp
        } else if self.pml4.lookup(Self::prefix(vpn, PML4_SHIFT)).is_some() {
            self.pml4_hits += 1;
            PscHit::Pml4
        } else {
            PscHit::None
        }
    }

    /// Installs (or refreshes) all three prefixes, root level first.
    pub fn fill(&mut self, vpn: VirtPage) {
        let none = PhysPage::new(0);
        self.pml4.insert(Self::prefix(vpn, PML4_SHIFT), none, false);
        self.pdp.insert(Self::prefix(vpn, PDP_SHIFT), none, false);
        self.pd.insert(Self::prefix(vpn, PD_SHIFT), none, false);
    }

    pub fn flush(&mut self) {
        self.pml4.flush();
        self.pdp.flush();
        self.pd.flush();
    }
}

/// A PSC fill waiting for the walk that produced it to complete.
#[derive(Debug, Clone, Copy)]
struct PendingFill {
    ready_at: u64,
    /// Issue order, the tie-break among fills ready in the same cycle.
    seq: u64,
    vpn: VirtPage,
}

/// The page-table walker, transcribed from its rules rather than from
/// the optimized code:
///
/// - A walk takes the slot that frees earliest, lowest index on ties.
///   Slot 0 is reserved for demand walks whenever there is more than
///   one slot.
/// - A walk starts no earlier than its request, its slot's release and
///   one cycle after the previous walk's start (the very first walk may
///   start at cycle 0).
/// - At its start, every pending PSC fill whose walk completed by then
///   is applied, ordered by completion cycle and then by issue order.
///   Only then does the walk probe the PSC.
/// - The walk performs the references below the deepest PSC hit. Its
///   memory time is their sum, or with ASAP the slowest of them; the
///   PSC latency is charged once.
/// - An unmapped page has no walk. A prefetch of one counts as a
///   suppressed fault.
/// - A PSC flush empties the PSC and drops every pending fill.
#[derive(Debug, Clone)]
pub struct RefWalker {
    psc: RefPsc,
    psc_latency: u64,
    asap: bool,
    /// Release cycle of each walk slot.
    slots: Vec<u64>,
    last_start: Option<u64>,
    pending: Vec<PendingFill>,
    issued: u64,
    pub stats: WalkerStats,
}

impl RefWalker {
    pub fn new(cfg: WalkerConfig) -> Self {
        Self {
            psc: RefPsc::new(cfg.psc),
            psc_latency: cfg.psc.latency,
            asap: cfg.asap,
            slots: vec![0; cfg.concurrent_walks],
            last_start: None,
            pending: Vec::new(),
            issued: 0,
            stats: WalkerStats::default(),
        }
    }

    pub fn psc(&self) -> &RefPsc {
        &self.psc
    }

    pub fn walk(
        &mut self,
        pt: &PageTable,
        mem: &mut MemoryHierarchy,
        vpn: VirtPage,
        kind: WalkKind,
        now: u64,
    ) -> Option<WalkResult> {
        let Some(pfn) = pt.translate(vpn) else {
            if kind == WalkKind::Prefetch {
                self.stats.faults_suppressed += 1;
            }
            return None;
        };

        let reserved = kind == WalkKind::Prefetch && self.slots.len() > 1;
        let slot = (0..self.slots.len())
            .filter(|&s| !(reserved && s == 0))
            .min_by_key(|&s| (self.slots[s], s))
            .expect("a slot is open to every walk");
        let mut start = now.max(self.slots[slot]);
        if let Some(last) = self.last_start {
            start = start.max(last + 1);
        }
        self.last_start = Some(start);

        let mut due: Vec<PendingFill> = self
            .pending
            .iter()
            .copied()
            .filter(|f| f.ready_at <= start)
            .collect();
        self.pending.retain(|f| f.ready_at > start);
        due.sort_by_key(|f| (f.ready_at, f.seq));
        for fill in due {
            self.psc.fill(fill.vpn);
        }

        let psc_hit = self.psc.lookup(vpn);
        let class = match kind {
            WalkKind::Prefetch => AccessClass::PrefetchWalk,
            _ => AccessClass::PageWalk,
        };
        let latencies: Vec<u64> = pt.walk_steps(vpn)[psc_hit.first_step()..]
            .iter()
            .map(|step| mem.access(step.pte_addr.cache_line(), class).latency)
            .collect();
        let memory_time = if self.asap {
            latencies.iter().copied().max().unwrap_or(0)
        } else {
            latencies.iter().sum()
        };
        let completed_at = start + self.psc_latency + memory_time;
        self.slots[slot] = completed_at;
        self.pending.push(PendingFill {
            ready_at: completed_at,
            seq: self.issued,
            vpn,
        });
        self.issued += 1;

        let latency = completed_at - now;
        let refs = latencies.len() as u64;
        let stats = &mut self.stats;
        match kind {
            WalkKind::DemandInstruction => {
                stats.demand_instr_walks += 1;
                stats.demand_instr_refs += refs;
                stats.demand_instr_latency += latency;
            }
            WalkKind::DemandData => {
                stats.demand_data_walks += 1;
                stats.demand_data_refs += refs;
                stats.demand_data_latency += latency;
            }
            WalkKind::Prefetch => {
                stats.prefetch_walks += 1;
                stats.prefetch_refs += refs;
            }
        }
        Some(WalkResult {
            latency,
            memory_refs: refs as u32,
            pfn,
            started_at: start,
            completed_at,
            psc_hit,
            kind,
        })
    }

    pub fn flush_psc(&mut self) {
        self.psc.flush();
        self.pending.clear();
    }
}

/// A staged prefetch: the page, its translation, the cycle its walk
/// completes and its provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Staged {
    pub vpn: VirtPage,
    pub pfn: PhysPage,
    pub ready_at: u64,
    pub origin: Option<PrefetchOrigin>,
    pub component: PrefetchComponent,
}

impl From<PbEntry> for Staged {
    fn from(e: PbEntry) -> Self {
        Self {
            vpn: e.vpn,
            pfn: e.pfn,
            ready_at: e.ready_at,
            origin: e.origin,
            component: e.component,
        }
    }
}

/// A demand hit: the translation, the cycles left on its walk, and the
/// entry's provenance.
pub type Hit = (PhysPage, u64, Option<PrefetchOrigin>, PrefetchComponent);

/// The fully associative LRU prefetch buffer, least recently staged
/// entry at the front:
///
/// - Staging a new page at capacity evicts the front entry, which never
///   provided a hit, and returns it.
/// - Staging a resident page moves it to the back and keeps its
///   translation and provenance; the first walk to complete supplies the
///   data, so it keeps the earlier `ready_at`.
/// - A demand probe at `now` removes a hit and charges the wait left on
///   its walk, zero once the walk is done.
/// - A shootdown removes one page; a flush discards every entry as
///   evicted unused.
#[derive(Debug, Clone)]
pub struct RefPb {
    entries: VecDeque<Staged>,
    capacity: usize,
    pub stats: PbStats,
}

impl RefPb {
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: VecDeque::new(),
            capacity,
            stats: PbStats::default(),
        }
    }

    fn position(&self, vpn: VirtPage) -> Option<usize> {
        self.entries.iter().position(|e| e.vpn == vpn)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn contains(&self, vpn: VirtPage) -> bool {
        self.position(vpn).is_some()
    }

    pub fn take(&mut self, vpn: VirtPage, now: u64) -> Option<Hit> {
        let Some(i) = self.position(vpn) else {
            self.stats.misses += 1;
            return None;
        };
        let e = self.entries.remove(i).expect("a resident entry");
        let remaining = e.ready_at.saturating_sub(now);
        if remaining == 0 {
            self.stats.hits_ready += 1;
        } else {
            self.stats.hits_inflight += 1;
        }
        Some((e.pfn, remaining, e.origin, e.component))
    }

    pub fn insert(
        &mut self,
        vpn: VirtPage,
        pfn: PhysPage,
        ready_at: u64,
        origin: Option<PrefetchOrigin>,
        component: PrefetchComponent,
    ) -> Option<Staged> {
        if let Some(i) = self.position(vpn) {
            let mut e = self.entries.remove(i).expect("a resident entry");
            e.ready_at = e.ready_at.min(ready_at);
            self.entries.push_back(e);
            self.stats.refreshes += 1;
            return None;
        }
        self.stats.inserts += 1;
        let victim = if self.entries.len() == self.capacity {
            self.stats.evicted_unused += 1;
            self.entries.pop_front()
        } else {
            None
        };
        self.entries.push_back(Staged {
            vpn,
            pfn,
            ready_at,
            origin,
            component,
        });
        victim
    }

    pub fn invalidate(&mut self, vpn: VirtPage) -> bool {
        let Some(i) = self.position(vpn) else {
            return false;
        };
        self.entries.remove(i);
        self.stats.invalidations += 1;
        true
    }

    pub fn occupancy_for_asid(&self, asid: u16) -> usize {
        self.entries.iter().filter(|e| e.vpn.asid() == asid).count()
    }

    pub fn flush(&mut self) {
        self.stats.evicted_unused += self.entries.len() as u64;
        self.entries.clear();
    }
}
