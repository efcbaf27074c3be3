//! The STLB Prefetch Buffer (PB).
//!
//! Prefetched PTEs are staged in a small fully-associative buffer rather
//! than the STLB itself, so inaccurate prefetches cannot pollute the STLB
//! (§2.1; Fig 18's P2TLB experiment quantifies the pollution). On a demand
//! STLB miss, the PB is probed; a hit *moves* the entry into the STLB and
//! the demand walk is avoided.
//!
//! Entries carry a `ready_at` cycle — the completion time of the prefetch
//! page walk that produced them — so the timeliness of prefetches is
//! modelled: a demand lookup that arrives while the walk is still in flight
//! only saves the *remaining* latency (this is the effect that cripples
//! naive page-crossing I-cache prefetchers in Fig 10).

use morrigan_types::{PhysPage, PrefetchComponent, PrefetchOrigin, VirtPage};

/// One prefetched translation staged in the PB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PbEntry {
    /// The prefetched virtual page.
    pub vpn: VirtPage,
    /// Its translation.
    pub pfn: PhysPage,
    /// Cycle at which the producing prefetch walk completes.
    pub ready_at: u64,
    /// Which prediction slot produced this prefetch, for confidence credit.
    pub origin: Option<PrefetchOrigin>,
    /// Which prefetch engine staged this entry, for trace attribution.
    pub component: PrefetchComponent,
    stamp: u64,
}

/// Outcome of a successful PB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PbHit {
    /// The translation found.
    pub pfn: PhysPage,
    /// Cycles the requester must still wait for an in-flight prefetch walk
    /// (zero when the entry was ready before the lookup).
    pub remaining_latency: u64,
    /// Provenance for prefetcher confidence training.
    pub origin: Option<PrefetchOrigin>,
    /// Which prefetch engine staged the hit entry.
    pub component: PrefetchComponent,
}

morrigan_types::counter_set! {
    /// PB counters. Together they form a closed ledger: every entry that ever
    /// entered the buffer (`inserts`) either left through a demand hit
    /// (`hits_ready + hits_inflight`), an eviction or flush (`evicted_unused`),
    /// a shootdown (`invalidations`), or is still resident (occupancy) —
    /// `inserts == hits + evicted_unused + invalidations + len()` at every
    /// instant, which the audit layer checks.
    pub struct PbStats {
        /// Demand lookups that hit a ready entry.
        pub hits_ready: u64,
        /// Demand lookups that hit an entry whose walk was still in flight.
        pub hits_inflight: u64,
        /// Demand lookups that missed.
        pub misses: u64,
        /// Entries evicted without ever providing a hit (useless prefetches),
        /// including entries discarded by a flush.
        pub evicted_unused: u64,
        /// Insertions of pages not already staged (new entries only).
        pub inserts: u64,
        /// Re-insertions of already-staged pages (recency refresh; the entry
        /// count does not change).
        pub refreshes: u64,
        /// Entries removed by TLB shootdowns.
        pub invalidations: u64,
    }
}

impl PbStats {
    /// Demand hits, ready or in flight.
    pub fn hits(&self) -> u64 {
        self.hits_ready + self.hits_inflight
    }
}

/// A fully-associative, LRU prefetch buffer (Table 1: 64-entry, 2-cycle).
#[derive(Debug, Clone)]
pub struct PrefetchBuffer {
    entries: Vec<PbEntry>,
    capacity: usize,
    /// Lookup latency in cycles.
    pub latency: u64,
    tick: u64,
    /// Counters.
    pub stats: PbStats,
}

impl PrefetchBuffer {
    /// Creates an empty PB.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, latency: u64) -> Self {
        assert!(capacity > 0, "prefetch buffer capacity must be positive");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            latency,
            tick: 0,
            stats: PbStats::default(),
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a translation for `vpn` is staged (ready or in flight).
    ///
    /// Used by the prefetch logic's duplicate check before issuing a new
    /// prefetch (§2.1 probes the PB, *not* the STLB, to avoid contending
    /// with demand lookups).
    pub fn contains(&self, vpn: VirtPage) -> bool {
        self.entries.iter().any(|e| e.vpn == vpn)
    }

    /// Demand lookup probing the buffer at cycle `now`. On a hit the entry
    /// is **removed** (it moves to the STLB, per §2.1) and returned.
    ///
    /// `now` must be the cycle the probe actually happens — after the
    /// I-TLB, STLB, and PB lookup latencies have elapsed — so that
    /// `remaining_latency` charges only the wait that is genuinely left on
    /// an in-flight prefetch walk.
    pub fn take(&mut self, vpn: VirtPage, now: u64) -> Option<PbHit> {
        match self.entries.iter().position(|e| e.vpn == vpn) {
            Some(i) => {
                let e = self.entries.swap_remove(i);
                let remaining = e.ready_at.saturating_sub(now);
                if remaining == 0 {
                    self.stats.hits_ready += 1;
                } else {
                    self.stats.hits_inflight += 1;
                }
                Some(PbHit {
                    pfn: e.pfn,
                    remaining_latency: remaining,
                    origin: e.origin,
                    component: e.component,
                })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stages a prefetched translation, evicting LRU on overflow; the
    /// evicted entry (which never provided a hit — hits remove entries) is
    /// returned so the MMU can issue a *correcting page walk* for it
    /// (§4.3: resetting the access bit of PTEs evicted unused).
    ///
    /// Re-inserting a staged VPN refreshes its recency and keeps the
    /// earlier `ready_at` (the first walk to complete supplies the data).
    pub fn insert(
        &mut self,
        vpn: VirtPage,
        pfn: PhysPage,
        ready_at: u64,
        origin: Option<PrefetchOrigin>,
        component: PrefetchComponent,
    ) -> Option<PbEntry> {
        self.tick += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.vpn == vpn) {
            self.stats.refreshes += 1;
            e.stamp = self.tick;
            e.ready_at = e.ready_at.min(ready_at);
            return None;
        }
        self.stats.inserts += 1;
        let mut victim = None;
        if self.entries.len() == self.capacity {
            let (i, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .expect("buffer is full, hence non-empty");
            victim = Some(self.entries.swap_remove(i));
            self.stats.evicted_unused += 1;
        }
        self.entries.push(PbEntry {
            vpn,
            pfn,
            ready_at,
            origin,
            component,
            stamp: self.tick,
        });
        victim
    }

    /// Removes a staged translation without counting a hit or a miss
    /// (TLB shootdown); returns whether it was present.
    pub fn invalidate(&mut self, vpn: VirtPage) -> bool {
        match self.entries.iter().position(|e| e.vpn == vpn) {
            Some(i) => {
                self.entries.swap_remove(i);
                self.stats.invalidations += 1;
                true
            }
            None => false,
        }
    }

    /// Number of staged entries tagged with `asid`.
    pub fn occupancy_for_asid(&self, asid: u16) -> usize {
        self.entries.iter().filter(|e| e.vpn.asid() == asid).count()
    }

    /// Staged entries as `(vpn, component)` pairs, in no particular
    /// order; the component lets the MMU attribute flush evictions.
    pub fn resident_entries(&self) -> impl Iterator<Item = (VirtPage, PrefetchComponent)> + '_ {
        self.entries.iter().map(|e| (e.vpn, e.component))
    }

    /// Empties the buffer (context switch).
    pub fn flush(&mut self) {
        self.stats.evicted_unused += self.entries.len() as u64;
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morrigan_types::PageDistance;

    fn pfn(i: u64) -> PhysPage {
        PhysPage::new(0x8000 + i)
    }

    #[test]
    fn hit_removes_entry() {
        let mut pb = PrefetchBuffer::new(4, 2);
        pb.insert(VirtPage::new(1), pfn(1), 0, None, PrefetchComponent::Other);
        let hit = pb.take(VirtPage::new(1), 10).expect("staged entry");
        assert_eq!(hit.pfn, pfn(1));
        assert_eq!(hit.remaining_latency, 0);
        assert!(
            pb.take(VirtPage::new(1), 10).is_none(),
            "entry moved to STLB"
        );
        assert_eq!(pb.stats.hits_ready, 1);
        assert_eq!(pb.stats.misses, 1);
    }

    #[test]
    fn inflight_hit_charges_remaining_latency() {
        let mut pb = PrefetchBuffer::new(4, 2);
        pb.insert(
            VirtPage::new(2),
            pfn(2),
            150,
            None,
            PrefetchComponent::Other,
        );
        let hit = pb.take(VirtPage::new(2), 100).expect("staged entry");
        assert_eq!(hit.remaining_latency, 50);
        assert_eq!(pb.stats.hits_inflight, 1);
        assert_eq!(pb.stats.hits_ready, 0);
    }

    #[test]
    fn lru_eviction_counts_unused() {
        let mut pb = PrefetchBuffer::new(2, 2);
        pb.insert(VirtPage::new(1), pfn(1), 0, None, PrefetchComponent::Other);
        pb.insert(VirtPage::new(2), pfn(2), 0, None, PrefetchComponent::Other);
        pb.insert(VirtPage::new(3), pfn(3), 0, None, PrefetchComponent::Other); // evicts 1
        assert_eq!(pb.stats.evicted_unused, 1);
        assert!(!pb.contains(VirtPage::new(1)));
        assert!(pb.contains(VirtPage::new(2)));
        assert!(pb.contains(VirtPage::new(3)));
    }

    #[test]
    fn reinsert_keeps_earliest_ready_time() {
        let mut pb = PrefetchBuffer::new(2, 2);
        pb.insert(
            VirtPage::new(1),
            pfn(1),
            100,
            None,
            PrefetchComponent::Other,
        );
        pb.insert(
            VirtPage::new(1),
            pfn(1),
            500,
            None,
            PrefetchComponent::Other,
        );
        assert_eq!(pb.len(), 1);
        assert_eq!(pb.stats.inserts, 1, "a refresh is not a new entry");
        assert_eq!(pb.stats.refreshes, 1);
        let hit = pb.take(VirtPage::new(1), 0).expect("staged");
        assert_eq!(hit.remaining_latency, 100);
    }

    #[test]
    fn origin_round_trips() {
        let mut pb = PrefetchBuffer::new(2, 2);
        let origin = PrefetchOrigin {
            source: VirtPage::new(9),
            distance: PageDistance(3),
        };
        pb.insert(
            VirtPage::new(12),
            pfn(12),
            0,
            Some(origin),
            PrefetchComponent::Other,
        );
        let hit = pb.take(VirtPage::new(12), 0).expect("staged");
        assert_eq!(hit.origin, Some(origin));
    }

    #[test]
    fn flush_counts_all_as_unused() {
        let mut pb = PrefetchBuffer::new(4, 2);
        pb.insert(VirtPage::new(1), pfn(1), 0, None, PrefetchComponent::Other);
        pb.insert(VirtPage::new(2), pfn(2), 0, None, PrefetchComponent::Other);
        pb.flush();
        assert_eq!(pb.stats.evicted_unused, 2);
        assert!(pb.is_empty());
    }

    #[test]
    fn ledger_balances_through_mixed_operations() {
        let mut pb = PrefetchBuffer::new(2, 2);
        pb.insert(VirtPage::new(1), pfn(1), 0, None, PrefetchComponent::Other);
        pb.insert(VirtPage::new(2), pfn(2), 0, None, PrefetchComponent::Other);
        pb.insert(VirtPage::new(2), pfn(2), 50, None, PrefetchComponent::Other); // refresh
        pb.insert(VirtPage::new(3), pfn(3), 0, None, PrefetchComponent::Other); // evicts 1
        let _ = pb.take(VirtPage::new(2), 10); // hit
        assert!(pb.invalidate(VirtPage::new(3)));
        assert!(!pb.invalidate(VirtPage::new(3)), "already gone");
        let s = pb.stats;
        assert_eq!(s.invalidations, 1, "only present entries count");
        assert_eq!(
            s.inserts,
            s.hits() + s.evicted_unused + s.invalidations + pb.len() as u64,
            "every inserted entry is accounted for exactly once"
        );
    }

    #[test]
    fn hit_rate_math() {
        let mut pb = PrefetchBuffer::new(4, 2);
        pb.insert(VirtPage::new(1), pfn(1), 0, None, PrefetchComponent::Other);
        let _ = pb.take(VirtPage::new(1), 0);
        let _ = pb.take(VirtPage::new(2), 0);
        assert_eq!((pb.stats.hits(), pb.stats.misses), (1, 1));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = PrefetchBuffer::new(0, 2);
    }
}
