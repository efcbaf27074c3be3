//! The STLB-prefetcher interface shared by Morrigan and every baseline.
//!
//! The contract mirrors §2.1 of the paper: the prefetch logic is engaged on
//! every instruction-STLB miss (whether the prefetch buffer hit or not), may
//! emit any number of prefetch requests, and receives credit feedback when a
//! prefetch it issued later eliminates a demand page walk (a PB hit), which
//! is how IRIP's confidence counters are trained.

use crate::addr::{VirtAddr, VirtPage};

/// Identifies a hardware thread on an SMT core (§4.3: the IRIP tables are
/// shared between threads, but the previous-miss register is per thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(pub u8);

impl ThreadId {
    /// Thread 0, the only thread on a single-threaded core.
    pub const ZERO: ThreadId = ThreadId(0);
}

/// A signed distance between two virtual pages, as stored in IRIP's
/// prediction slots.
///
/// The paper stores 15-bit distances instead of full 36-bit VPNs (§4.1.1,
/// §6.1); [`PageDistance::fits_bits`] checks representability for a given
/// slot width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageDistance(pub i64);

impl PageDistance {
    /// Distance from `from` to `to` (positive when `to` is above `from`).
    ///
    /// ```
    /// use morrigan_types::addr::VirtPage;
    /// use morrigan_types::prefetcher::PageDistance;
    /// let d = PageDistance::between(VirtPage::new(0xb5), VirtPage::new(0xa1));
    /// assert_eq!(d.0, -20);
    /// ```
    #[inline]
    pub fn between(from: VirtPage, to: VirtPage) -> Self {
        PageDistance(to.distance_from(from))
    }

    /// Whether this distance is representable as a signed `bits`-bit field.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 63.
    #[inline]
    pub fn fits_bits(self, bits: u32) -> bool {
        assert!((1..=63).contains(&bits), "bit width must be in 1..=63");
        let max = (1i64 << (bits - 1)) - 1;
        let min = -(1i64 << (bits - 1));
        (min..=max).contains(&self.0)
    }

    /// Applies this distance to a page.
    #[inline]
    pub fn apply(self, page: VirtPage) -> VirtPage {
        page.offset(self.0)
    }
}

/// Everything a prefetcher may key on when an iSTLB miss occurs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissContext {
    /// The virtual page whose translation missed in the STLB.
    pub vpn: VirtPage,
    /// Program counter of the instruction whose fetch triggered the miss
    /// (the feature ASP indexes on).
    pub pc: VirtAddr,
    /// Hardware thread that triggered the miss.
    pub thread: ThreadId,
    /// Whether the missing translation was found in the prefetch buffer
    /// (the prefetcher is engaged on both PB hits and PB misses, §2.1).
    pub pb_hit: bool,
    /// Current simulation cycle, for prefetchers with time-based heuristics.
    pub cycle: u64,
}

/// Identifies the prediction-table slot that produced a prefetch so a later
/// PB hit can credit the right confidence counter (§4.2 step 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefetchOrigin {
    /// The miss page whose prediction-table entry produced the prefetch.
    pub source: VirtPage,
    /// The predicted distance stored in the producing slot.
    pub distance: PageDistance,
}

/// The engine inside a composite prefetcher that produced a decision, so
/// the observability layer can attribute every prefetch's fate (fill, PB
/// hit, unused eviction) back to the component that asked for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchComponent {
    /// One of IRIP's prediction tables, by table index (0 = 1-slot table).
    IripTable(u8),
    /// The sequential-distance prefetcher engaged when IRIP stays silent.
    Sdp,
    /// The FNL+MMA front-end path: translations fetched ahead of i-cache
    /// prefetches crossing a page boundary.
    Icache,
    /// Any engine without finer-grained attribution (the dSTLB baselines,
    /// SP/ASP/DP/MP, and the unbounded Markov variants).
    Other,
}

impl PrefetchComponent {
    /// Dense index for per-component counter arrays. IRIP tables above 3
    /// fold into the last table bucket so the array stays fixed-size even
    /// for tuning configs with more tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            PrefetchComponent::IripTable(t) => (t as usize).min(3),
            PrefetchComponent::Sdp => 4,
            PrefetchComponent::Icache => 5,
            PrefetchComponent::Other => 6,
        }
    }

    /// Number of dense component buckets (`index()` range).
    pub const COUNT: usize = 7;

    /// One component per dense bucket, in [`Self::index`] order.
    pub const ALL: [PrefetchComponent; Self::COUNT] = [
        PrefetchComponent::IripTable(0),
        PrefetchComponent::IripTable(1),
        PrefetchComponent::IripTable(2),
        PrefetchComponent::IripTable(3),
        PrefetchComponent::Sdp,
        PrefetchComponent::Icache,
        PrefetchComponent::Other,
    ];

    /// Stable lowercase name used by the exporters and reports; IRIP
    /// tables above 3 share `irip3`, like their [`Self::index`] bucket.
    pub fn name(self) -> &'static str {
        match self {
            PrefetchComponent::IripTable(0) => "irip0",
            PrefetchComponent::IripTable(1) => "irip1",
            PrefetchComponent::IripTable(2) => "irip2",
            PrefetchComponent::IripTable(_) => "irip3",
            PrefetchComponent::Sdp => "sdp",
            PrefetchComponent::Icache => "icache",
            PrefetchComponent::Other => "other",
        }
    }
}

/// A state transition inside a prefetcher that the observability layer
/// wants on the event timeline but that happens out of the MMU's sight —
/// today, replacement-policy evictions inside IRIP's prediction tables.
/// Captured only when event capture is enabled (see
/// [`TlbPrefetcher::set_event_capture`]); the disabled path records
/// nothing and costs one branch on the rare eviction path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetcherEvent {
    /// The replacement policy evicted a valid entry from prediction table
    /// `table`; `vpn` is the victim's tag (the miss page it predicted for).
    TableEvict {
        /// Index of the table the entry was evicted from.
        table: u8,
        /// The victim entry's tag VPN.
        vpn: VirtPage,
    },
}

/// One prefetch request emitted by a prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchDecision {
    /// The virtual page whose PTE should be fetched into the PB.
    pub vpn: VirtPage,
    /// Whether to also install the PTEs sharing the target PTE's cache line
    /// ("lookahead"/spatial prefetching via page-table locality, §4.1.1;
    /// Morrigan sets this only for the highest-confidence prediction).
    pub spatial: bool,
    /// Provenance for confidence-training feedback; `None` for prefetchers
    /// without trained state (e.g. SP/SDP).
    pub origin: Option<PrefetchOrigin>,
    /// Which engine inside the prefetcher produced this request.
    pub component: PrefetchComponent,
}

impl PrefetchDecision {
    /// A plain prefetch of `vpn` with no spatial component and no origin.
    pub fn plain(vpn: VirtPage) -> Self {
        PrefetchDecision {
            vpn,
            spatial: false,
            origin: None,
            component: PrefetchComponent::Other,
        }
    }

    /// A prefetch of `vpn` that also pulls in the cache-line-adjacent PTEs.
    pub fn spatial(vpn: VirtPage) -> Self {
        PrefetchDecision {
            vpn,
            spatial: true,
            origin: None,
            component: PrefetchComponent::Other,
        }
    }

    /// Tags the decision with the component that produced it.
    pub fn with_component(mut self, component: PrefetchComponent) -> Self {
        self.component = component;
        self
    }
}

/// An STLB prefetcher engaged on instruction-STLB misses.
///
/// Implementors: Morrigan ([IRIP]+[SDP]), the dSTLB baselines (SP, ASP, DP,
/// MP), Morrigan-mono, and the idealized unbounded Markov variants.
///
/// The `Send` bound lets a boxed prefetcher move into a worker thread: the
/// experiment runner executes each simulation on a pool thread, and every
/// prefetcher owns plain table state, so the bound costs implementors
/// nothing.
///
/// [IRIP]: https://doi.org/10.1145/3466752.3480049
/// [SDP]: https://doi.org/10.1145/3466752.3480049
pub trait TlbPrefetcher: Send {
    /// Short identifier used in experiment output (e.g. `"morrigan"`).
    fn name(&self) -> &'static str;

    /// Called on every iSTLB miss. Pushes zero or more prefetch requests
    /// into `out` (reused by the caller to avoid per-miss allocation).
    ///
    /// The caller (the simulated MMU) is responsible for dropping requests
    /// whose translation already resides in the PB and for performing the
    /// prefetch page walks.
    fn on_stlb_miss(&mut self, ctx: &MissContext, out: &mut Vec<PrefetchDecision>);

    /// Called when a prefetch this prefetcher issued produced a PB hit,
    /// eliminating a demand walk. Default: no trained state, ignore.
    fn on_prefetch_hit(&mut self, origin: &PrefetchOrigin) {
        let _ = origin;
    }

    /// Flushes all prediction state (context switch, §4.3).
    fn flush(&mut self) {}

    /// Total prediction-state storage in bits, for ISO-storage comparisons
    /// (§6.2, §6.3). Stateless prefetchers report 0.
    fn storage_bits(&self) -> u64;

    /// Turns internal event capture on or off. Only the traced MMU enables
    /// this; the default implementation (and the disabled state) records
    /// nothing, so untraced runs pay nothing.
    fn set_event_capture(&mut self, on: bool) {
        let _ = on;
    }

    /// Moves captured [`PrefetcherEvent`]s into `out`, oldest first. The
    /// traced MMU drains after every `on_stlb_miss` call, so capture
    /// buffers stay small. Default: nothing to drain.
    fn drain_events(&mut self, out: &mut Vec<PrefetcherEvent>) {
        let _ = out;
    }

    /// Downcast hook for tests and analysis tooling that need a concrete
    /// prefetcher's internal statistics. Default: no downcast available.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// A prefetcher that never prefetches; the paper's no-prefetching baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullPrefetcher;

impl TlbPrefetcher for NullPrefetcher {
    fn name(&self) -> &'static str {
        "none"
    }

    fn on_stlb_miss(&mut self, _ctx: &MissContext, _out: &mut Vec<PrefetchDecision>) {}

    fn storage_bits(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_between_matches_paper_example() {
        // Fig 11: current miss 0xA1, previous miss 0xB5 → distance -20
        // (0xA1 - 0xB5); the paper's rendered figure stores the magnitude
        // with direction, we keep it signed.
        let d = PageDistance::between(VirtPage::new(0xb5), VirtPage::new(0xa1));
        assert_eq!(d.apply(VirtPage::new(0xb5)), VirtPage::new(0xa1));
    }

    #[test]
    fn fits_bits_boundaries() {
        assert!(PageDistance(16383).fits_bits(15));
        assert!(!PageDistance(16384).fits_bits(15));
        assert!(PageDistance(-16384).fits_bits(15));
        assert!(!PageDistance(-16385).fits_bits(15));
        assert!(PageDistance(0).fits_bits(1));
        assert!(PageDistance(-1).fits_bits(1));
        assert!(!PageDistance(1).fits_bits(1));
    }

    #[test]
    #[should_panic(expected = "bit width")]
    fn fits_bits_rejects_zero_width() {
        let _ = PageDistance(0).fits_bits(0);
    }

    #[test]
    fn null_prefetcher_is_silent() {
        let mut p = NullPrefetcher;
        let ctx = MissContext {
            vpn: VirtPage::new(1),
            pc: VirtAddr::new(0x400000),
            thread: ThreadId::ZERO,
            pb_hit: false,
            cycle: 0,
        };
        let mut out = Vec::new();
        p.on_stlb_miss(&ctx, &mut out);
        assert!(out.is_empty());
        assert_eq!(p.storage_bits(), 0);
        assert_eq!(p.name(), "none");
    }

    #[test]
    fn components_cover_the_dense_buckets_in_order() {
        let names: Vec<&str> = PrefetchComponent::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            ["irip0", "irip1", "irip2", "irip3", "sdp", "icache", "other"]
        );
        for (i, c) in PrefetchComponent::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        // Wider tuning tables fold into the last IRIP bucket and name.
        let wide = PrefetchComponent::IripTable(6);
        assert_eq!((wide.index(), wide.name()), (3, "irip3"));
    }

    #[test]
    fn decision_builders() {
        let d = PrefetchDecision::spatial(VirtPage::new(7));
        assert!(d.spatial);
        assert_eq!(d.vpn, VirtPage::new(7));
        let p = PrefetchDecision::plain(VirtPage::new(7));
        assert!(!p.spatial);
        assert!(p.origin.is_none());
    }
}
