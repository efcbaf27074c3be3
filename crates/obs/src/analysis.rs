//! Streaming trace analysis: turns the event stream into a per-run
//! diagnosis with bounded memory.
//!
//! [`TraceAnalysis`] consumes [`TraceEvent`]s one at a time, live, via
//! [`AnalysisRecorder`] plugged into the simulator's recorder slot
//! (which never drops, so the diagnosis is always complete). It
//! maintains:
//!
//! * **Miss-stream anatomy** — a log-bucketed histogram of distances
//!   between consecutive iSTLB miss pages, the up/down/repeat direction
//!   split, and per-STLB-set demand pressure.
//! * **Per-component prefetch attribution** — every issue, drop, fill,
//!   promotion (with lateness), and unused eviction tallied by the
//!   [`PrefetchComponent`] that produced the prefetch, from which
//!   coverage/accuracy/timeliness per engine follow.
//! * **Replacement forensics** — IRIP table evictions whose victim page
//!   demand-misses again within a window are counted as premature, per
//!   table.
//! * **Walk-latency histograms** per walk class.
//!
//! Every histogram is a fixed-size log-bucket array and the eviction
//! watchlist is pruned to a bounded size, so memory never scales with
//! run length. All numbers that also exist as audited counters are kept
//! in an [`EventCounts`] tallied from the same stream, which is what
//! the report layer reconciles against `MmuStats`/`PbStats`.

use std::collections::HashMap;

use morrigan_types::{PrefetchComponent, WalkKind};

use crate::event::{EventCounts, EventKind, TraceEvent};
use crate::recorder::Recorder;

/// Log₂-bucketed streaming histogram of `u64` samples.
///
/// Bucket 0 counts zeros; bucket *i* ≥ 1 counts values in
/// `[2^(i-1), 2^i)`. 65 buckets cover the whole `u64` range, so memory
/// is constant regardless of sample count.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Bucket index for a value: 0 for 0, else `64 - leading_zeros`.
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded, 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(low, high_inclusive, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                if i == 0 {
                    (0, 0, c)
                } else {
                    let low = 1u64 << (i - 1);
                    let high = low.wrapping_shl(1).wrapping_sub(1).max(low);
                    (low, high, c)
                }
            })
            .collect()
    }

    /// The smallest bucket `(low, high)` whose cumulative count reaches
    /// the given quantile (`0.0..=1.0`); `None` when empty.
    pub fn quantile_bucket(&self, q: f64) -> Option<(u64, u64)> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (low, high, c) in self.nonzero_buckets() {
            seen += c;
            if seen >= target {
                return Some((low, high));
            }
        }
        None
    }
}

/// Attribution tallies for one prefetch component, extracted from
/// [`EventCounts`] by [`TraceAnalysis::component_tallies`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComponentTally {
    /// Prefetch walks actually issued for this component.
    pub issued: u64,
    /// Decisions dropped because the translation was already resident.
    pub dropped_duplicate: u64,
    /// Decisions dropped because the target page faults.
    pub dropped_fault: u64,
    /// Translations staged into the PB (issued targets + spatial line
    /// neighbors).
    pub fills: u64,
    /// PB hits credited to this component (demand walks eliminated).
    pub hits: u64,
    /// The subset of hits whose fill was still in flight (late).
    pub hits_late: u64,
    /// PB entries staged by this component that were discarded unused.
    pub evicted_unused: u64,
}

impl ComponentTally {
    /// Useful fills / fills staged — the accuracy debit side.
    pub fn accuracy(&self) -> f64 {
        if self.fills == 0 {
            0.0
        } else {
            self.hits as f64 / self.fills as f64
        }
    }

    /// Fraction of this component's hits that arrived late.
    pub fn late_fraction(&self) -> f64 {
        if self.hits == 0 {
            0.0
        } else {
            self.hits_late as f64 / self.hits as f64
        }
    }
}

/// Tuning knobs for [`TraceAnalysis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// STLB set count for the set-pressure heat map (power of two).
    pub stlb_sets: usize,
    /// An IRIP eviction whose victim page demand-misses again within
    /// this many cycles counts as premature.
    pub premature_window: u64,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self {
            stlb_sets: 128,
            premature_window: 2000,
        }
    }
}

/// Bound on the premature-eviction watchlist; pruning keeps analysis
/// memory constant on arbitrarily long runs.
const WATCHLIST_PRUNE_AT: usize = 8192;

/// Streaming per-run diagnosis state. Feed it events via
/// [`TraceAnalysis::observe`] (or wrap it in an [`AnalysisRecorder`]).
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    cfg: AnalysisConfig,
    counts: EventCounts,
    events_seen: u64,
    // Miss-stream anatomy.
    last_miss: Option<u64>,
    last_miss_cycle: u64,
    miss_distance: LogHistogram,
    miss_gap_cycles: LogHistogram,
    misses_up: u64,
    misses_down: u64,
    misses_repeat: u64,
    set_heat: Vec<u64>,
    set_mask: u64,
    // Walk latency per class.
    walk_latency: [LogHistogram; 3],
    // Replacement forensics: victim VPN → (eviction cycle, table).
    evicted_watch: HashMap<u64, (u64, u8)>,
    premature_by_table: [u64; 4],
    now: u64,
}

impl TraceAnalysis {
    /// A fresh analysis with the given knobs.
    ///
    /// # Panics
    ///
    /// Panics if `stlb_sets` is zero or not a power of two.
    pub fn new(cfg: AnalysisConfig) -> Self {
        assert!(
            cfg.stlb_sets > 0 && cfg.stlb_sets.is_power_of_two(),
            "stlb_sets must be a nonzero power of two"
        );
        Self {
            counts: EventCounts::default(),
            events_seen: 0,
            last_miss: None,
            last_miss_cycle: 0,
            miss_distance: LogHistogram::new(),
            miss_gap_cycles: LogHistogram::new(),
            misses_up: 0,
            misses_down: 0,
            misses_repeat: 0,
            set_heat: vec![0; cfg.stlb_sets],
            set_mask: cfg.stlb_sets as u64 - 1,
            walk_latency: [
                LogHistogram::new(),
                LogHistogram::new(),
                LogHistogram::new(),
            ],
            evicted_watch: HashMap::new(),
            premature_by_table: [0; 4],
            now: 0,
            cfg,
        }
    }

    /// Events the analysis itself consumed.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// The configured knobs.
    pub fn config(&self) -> &AnalysisConfig {
        &self.cfg
    }

    /// Exact per-kind tallies over the consumed stream.
    pub fn counts(&self) -> &EventCounts {
        &self.counts
    }

    /// Distance (|Δpage|) histogram between consecutive iSTLB misses.
    pub fn miss_distance(&self) -> &LogHistogram {
        &self.miss_distance
    }

    /// Cycle-gap histogram between consecutive iSTLB misses.
    pub fn miss_gap_cycles(&self) -> &LogHistogram {
        &self.miss_gap_cycles
    }

    /// Miss-direction split: (ascending, descending, same-page).
    pub fn miss_directions(&self) -> (u64, u64, u64) {
        (self.misses_up, self.misses_down, self.misses_repeat)
    }

    /// Demand-miss count per STLB set index.
    pub fn set_heat(&self) -> &[u64] {
        &self.set_heat
    }

    /// Walk-latency histogram for one class.
    pub fn walk_latency(&self, class: WalkKind) -> &LogHistogram {
        &self.walk_latency[class.index()]
    }

    /// Premature IRIP evictions per table: victims that demand-missed
    /// again within the configured window.
    pub fn premature_by_table(&self) -> [u64; 4] {
        self.premature_by_table
    }

    /// Per-component attribution, indexed by
    /// [`PrefetchComponent::index`].
    pub fn component_tallies(&self) -> [ComponentTally; PrefetchComponent::COUNT] {
        let mut out = [ComponentTally::default(); PrefetchComponent::COUNT];
        for (i, tally) in out.iter_mut().enumerate() {
            tally.issued = self.counts.prefetch_issue_by_component[i];
            tally.dropped_duplicate = self.counts.prefetch_drop_duplicate[i];
            tally.dropped_fault = self.counts.prefetch_drop_fault[i];
            tally.fills = self.counts.pb_fill_by_component[i];
            tally.hits = self.counts.pb_promote_by_component[i];
            tally.hits_late = self.counts.pb_promote_late_by_component[i];
            tally.evicted_unused = self.counts.pb_evict_by_component[i];
        }
        out
    }

    /// Consumes one event.
    pub fn observe(&mut self, event: &TraceEvent) {
        self.counts.tally(event);
        self.events_seen += 1;
        self.now = self.now.max(event.cycle);
        match event.kind {
            EventKind::IstlbMiss => {
                let vpn = event.vpn;
                if let Some(prev) = self.last_miss {
                    self.miss_distance.record(prev.abs_diff(vpn));
                    self.miss_gap_cycles
                        .record(event.cycle.saturating_sub(self.last_miss_cycle));
                    match vpn.cmp(&prev) {
                        std::cmp::Ordering::Greater => self.misses_up += 1,
                        std::cmp::Ordering::Less => self.misses_down += 1,
                        std::cmp::Ordering::Equal => self.misses_repeat += 1,
                    }
                }
                self.last_miss = Some(vpn);
                self.last_miss_cycle = event.cycle;
                self.set_heat[(vpn & self.set_mask) as usize] += 1;
                if let Some(&(evicted_at, table)) = self.evicted_watch.get(&vpn) {
                    if event.cycle.saturating_sub(evicted_at) <= self.cfg.premature_window {
                        self.premature_by_table[(table as usize).min(3)] += 1;
                    }
                    self.evicted_watch.remove(&vpn);
                }
            }
            EventKind::WalkComplete {
                class, duration, ..
            } => {
                self.walk_latency[class.index()].record(duration as u64);
            }
            EventKind::IripEvict { table } => {
                self.evicted_watch.insert(event.vpn, (event.cycle, table));
                if self.evicted_watch.len() > WATCHLIST_PRUNE_AT {
                    let horizon = event.cycle.saturating_sub(self.cfg.premature_window);
                    self.evicted_watch.retain(|_, &mut (at, _)| at >= horizon);
                }
            }
            _ => {}
        }
    }
}

/// A [`Recorder`] that feeds every event straight into a
/// [`TraceAnalysis`] without retaining the stream — never drops, so
/// the resulting diagnosis is always complete.
#[derive(Debug, Clone)]
pub struct AnalysisRecorder {
    analysis: TraceAnalysis,
}

impl AnalysisRecorder {
    /// A recorder around a fresh analysis.
    pub fn new(cfg: AnalysisConfig) -> Self {
        Self {
            analysis: TraceAnalysis::new(cfg),
        }
    }

    /// The diagnosis so far.
    pub fn analysis(&self) -> &TraceAnalysis {
        &self.analysis
    }

    /// Consumes the recorder, yielding the diagnosis.
    pub fn into_analysis(self) -> TraceAnalysis {
        self.analysis
    }
}

impl Recorder for AnalysisRecorder {
    const ENABLED: bool = true;

    #[inline]
    fn record(&mut self, event: TraceEvent) {
        self.analysis.observe(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PbProbeOutcome;

    fn ev(cycle: u64, vpn: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { cycle, vpn, kind }
    }

    #[test]
    fn log_histogram_buckets_powers_of_two() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1024);
        let buckets = h.nonzero_buckets();
        assert_eq!(
            buckets,
            vec![
                (0, 0, 1),
                (1, 1, 1),
                (2, 3, 2),
                (4, 7, 2),
                (8, 15, 1),
                (1024, 2047, 1)
            ]
        );
        assert_eq!(h.quantile_bucket(0.5), Some((2, 3)));
        assert_eq!(h.quantile_bucket(1.0), Some((1024, 2047)));
        assert_eq!(LogHistogram::new().quantile_bucket(0.5), None);
    }

    #[test]
    fn miss_anatomy_tracks_distance_direction_and_heat() {
        let mut a = TraceAnalysis::new(AnalysisConfig {
            stlb_sets: 4,
            premature_window: 100,
        });
        a.observe(&ev(10, 100, EventKind::IstlbMiss));
        a.observe(&ev(20, 117, EventKind::IstlbMiss));
        a.observe(&ev(35, 101, EventKind::IstlbMiss));
        a.observe(&ev(50, 101, EventKind::IstlbMiss));
        assert_eq!(a.miss_directions(), (1, 1, 1));
        assert_eq!(a.miss_distance().count(), 3);
        assert_eq!(a.miss_distance().max(), 17);
        // Sets: 100 % 4 = 0, 117 % 4 = 1, 101 % 4 = 1 twice.
        assert_eq!(a.set_heat(), &[1, 3, 0, 0]);
    }

    #[test]
    fn premature_eviction_window_is_enforced() {
        let cfg = AnalysisConfig {
            stlb_sets: 4,
            premature_window: 100,
        };
        let mut a = TraceAnalysis::new(cfg);
        a.observe(&ev(1000, 42, EventKind::IripEvict { table: 2 }));
        a.observe(&ev(1050, 42, EventKind::IstlbMiss));
        // Same vpn evicted again, but the re-miss falls outside the
        // window this time.
        a.observe(&ev(2000, 42, EventKind::IripEvict { table: 2 }));
        a.observe(&ev(2500, 42, EventKind::IstlbMiss));
        assert_eq!(a.premature_by_table(), [0, 0, 1, 0]);
        assert_eq!(a.counts().irip_evict_by_table, [0, 0, 2, 0]);
    }

    #[test]
    fn component_tallies_mirror_counts() {
        let mut a = TraceAnalysis::new(AnalysisConfig::default());
        let sdp = PrefetchComponent::Sdp;
        a.observe(&ev(1, 7, EventKind::PrefetchIssue { component: sdp }));
        a.observe(&ev(1, 7, EventKind::PbFill { component: sdp }));
        a.observe(&ev(2, 8, EventKind::PbFill { component: sdp }));
        a.observe(&ev(3, 7, EventKind::PbProbe(PbProbeOutcome::HitReady)));
        a.observe(&ev(
            3,
            7,
            EventKind::PbPromote {
                component: sdp,
                late: false,
            },
        ));
        a.observe(&ev(9, 8, EventKind::PbEvict { component: sdp }));
        let t = a.component_tallies()[sdp.index()];
        assert_eq!(t.issued, 1);
        assert_eq!(t.fills, 2);
        assert_eq!(t.hits, 1);
        assert_eq!(t.evicted_unused, 1);
        assert!((t.accuracy() - 0.5).abs() < 1e-12);
        assert_eq!(t.late_fraction(), 0.0);
    }

    #[test]
    fn analysis_recorder_streams_without_dropping() {
        let mut r = AnalysisRecorder::new(AnalysisConfig::default());
        for i in 0..10_000u64 {
            r.record(ev(i, i % 97, EventKind::IstlbMiss));
        }
        let a = r.into_analysis();
        assert_eq!(a.counts().istlb_miss, 10_000);
        assert_eq!(a.events_seen(), 10_000);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = TraceAnalysis::new(AnalysisConfig {
            stlb_sets: 3,
            premature_window: 1,
        });
    }
}
