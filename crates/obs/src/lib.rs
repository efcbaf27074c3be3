//! Observability for the Morrigan reproduction: zero-cost-when-disabled
//! event tracing, trace exporters, and host-side phase profiling.
//!
//! The crate depends only on `morrigan-types`, whose vocabulary it
//! shares: events carry the walker's [`WalkKind`] and the prefetchers'
//! [`PrefetchComponent`], and the exporters read a page's ASID with
//! [`VirtPage::asid`]. It sits *below* the vm crate in the dependency
//! graph and exposes three layers:
//!
//! 1. **Events + recorders** ([`TraceEvent`], [`Recorder`],
//!    [`NullRecorder`], [`TraceRecorder`]): the simulation stack is
//!    generic over a recorder; with the default [`NullRecorder`] every
//!    emission site monomorphizes to nothing, so a non-traced run pays
//!    zero cost. [`TraceRecorder`] keeps a bounded ring of recent
//!    events plus *exact* per-kind totals ([`EventCounts`]) that stay
//!    correct even after the ring wraps — the reconciliation tests
//!    compare those totals against the audit layer's counters.
//! 2. **Exporters** ([`to_chrome_trace`], [`to_jsonl`]): render a
//!    trace as Chrome `trace_event` JSON (opens in Perfetto /
//!    `chrome://tracing`) or JSON Lines.
//! 3. **Phase profiling** ([`Phase`], [`PhaseProfile`]): wall-time
//!    buckets splitting host seconds into workload generation, trace
//!    materialization, and simulation, with the multi-core machine's
//!    epoch barrier wait and shared-state replay counted inside
//!    simulation.
//!
//! [`WalkKind`]: morrigan_types::WalkKind
//! [`PrefetchComponent`]: morrigan_types::PrefetchComponent
//! [`VirtPage::asid`]: morrigan_types::VirtPage::asid
//!
//! ```
//! use morrigan_obs::{EventKind, Recorder, TraceEvent, TraceRecorder};
//!
//! let mut trace = TraceRecorder::with_capacity(16);
//! trace.record(TraceEvent { cycle: 7, vpn: 0x51d, kind: EventKind::IstlbMiss });
//! assert_eq!(trace.counts().istlb_miss, 1);
//! assert!(morrigan_obs::to_jsonl(&trace).contains("istlb_miss"));
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
mod event;
mod export;
mod phase;
mod recorder;

pub use analysis::{AnalysisConfig, AnalysisRecorder, ComponentTally, LogHistogram, TraceAnalysis};
pub use event::{
    EventCounts, EventKind, IcacheCrossOutcome, PbProbeOutcome, PrefetchDropReason, TraceEvent,
};
pub use export::{to_chrome_trace, to_jsonl};
pub use phase::{Phase, PhaseProfile};
pub use recorder::{NullRecorder, Recorder, TraceRecorder, DEFAULT_TRACE_CAPACITY};

#[cfg(test)]
mod tests {
    use super::*;
    use morrigan_types::{PrefetchComponent, WalkKind};

    fn ev(cycle: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            cycle,
            vpn: 0x1000 + cycle,
            kind,
        }
    }

    #[test]
    fn null_recorder_is_disabled() {
        const { assert!(!NullRecorder::ENABLED) };
        let mut r = NullRecorder;
        r.record(ev(1, EventKind::IstlbMiss));
    }

    #[test]
    fn ring_preserves_order_and_counts_after_wrap() {
        let mut trace = TraceRecorder::with_capacity(4);
        for cycle in 0..10 {
            trace.record(ev(
                cycle,
                EventKind::PbFill {
                    component: PrefetchComponent::Sdp,
                },
            ));
        }
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.dropped(), 6);
        // The ring retains only the newest four, oldest first…
        let cycles: Vec<u64> = trace.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
        // …but the totals cover all ten.
        assert_eq!(trace.counts().pb_fill, 10);
        assert_eq!(
            trace.counts().pb_fill_by_component[PrefetchComponent::Sdp.index()],
            10
        );
        assert_eq!(trace.counts().total(), 10);
    }

    #[test]
    fn counts_cover_every_kind() {
        let mut trace = TraceRecorder::with_capacity(64);
        let kinds = [
            EventKind::IstlbMiss,
            EventKind::PbProbe(PbProbeOutcome::HitReady),
            EventKind::PbProbe(PbProbeOutcome::HitInflight),
            EventKind::PbProbe(PbProbeOutcome::Miss),
            EventKind::PbPromote {
                component: PrefetchComponent::IripTable(0),
                late: false,
            },
            EventKind::PbFill {
                component: PrefetchComponent::Sdp,
            },
            EventKind::PbEvict {
                component: PrefetchComponent::Icache,
            },
            EventKind::PrefetchIssue {
                component: PrefetchComponent::IripTable(3),
            },
            EventKind::PrefetchDrop {
                component: PrefetchComponent::Other,
                reason: PrefetchDropReason::Duplicate,
            },
            EventKind::PrefetchDrop {
                component: PrefetchComponent::Sdp,
                reason: PrefetchDropReason::Fault,
            },
            EventKind::IripEvict { table: 1 },
            EventKind::WalkIssue {
                class: WalkKind::DemandInstruction,
                psc_skip: 2,
            },
            EventKind::WalkIssue {
                class: WalkKind::DemandData,
                psc_skip: 0,
            },
            EventKind::WalkIssue {
                class: WalkKind::Prefetch,
                psc_skip: 3,
            },
            EventKind::WalkComplete {
                class: WalkKind::DemandInstruction,
                refs: 4,
                duration: 100,
            },
            EventKind::WalkComplete {
                class: WalkKind::DemandData,
                refs: 2,
                duration: 50,
            },
            EventKind::WalkComplete {
                class: WalkKind::Prefetch,
                refs: 1,
                duration: 25,
            },
            EventKind::IcacheCross(IcacheCrossOutcome::Ready),
            EventKind::IcacheCross(IcacheCrossOutcome::WalkIssued),
            EventKind::IcacheCross(IcacheCrossOutcome::Suppressed),
        ];
        for (i, kind) in kinds.iter().enumerate() {
            trace.record(ev(i as u64, *kind));
            assert_eq!(trace.count_of(kind), 1, "kind {kind:?} not tallied");
        }
        assert_eq!(trace.counts().total(), kinds.len() as u64);
        assert_eq!(trace.dropped(), 0);
        // Component breakdowns telescope to the scalar totals, and the
        // late flag lands in the dedicated late array.
        let c = trace.counts();
        assert_eq!(c.pb_promote_by_component.iter().sum::<u64>(), c.pb_promote);
        assert_eq!(c.pb_promote_late_by_component.iter().sum::<u64>(), 0);
        trace.record(ev(
            99,
            EventKind::PbPromote {
                component: PrefetchComponent::IripTable(1),
                late: true,
            },
        ));
        let c = trace.counts();
        assert_eq!(
            c.pb_promote_late_by_component[PrefetchComponent::IripTable(1).index()],
            1
        );
        assert_eq!(c.pb_fill_by_component.iter().sum::<u64>(), c.pb_fill);
        assert_eq!(c.pb_evict_by_component.iter().sum::<u64>(), c.pb_evict);
        assert_eq!(
            c.prefetch_issue_by_component.iter().sum::<u64>(),
            c.prefetch_issue
        );
        assert_eq!(c.irip_evict_by_table, [0, 1, 0, 0]);
    }

    /// A tiny structural check used in place of a JSON parser: every
    /// brace and bracket closes, and quotes pair up.
    fn assert_balanced(doc: &str) {
        let mut depth_brace = 0i64;
        let mut depth_bracket = 0i64;
        let mut in_string = false;
        for c in doc.chars() {
            match c {
                '"' => in_string = !in_string,
                '{' if !in_string => depth_brace += 1,
                '}' if !in_string => depth_brace -= 1,
                '[' if !in_string => depth_bracket += 1,
                ']' if !in_string => depth_bracket -= 1,
                _ => {}
            }
            assert!(depth_brace >= 0 && depth_bracket >= 0);
        }
        assert_eq!(depth_brace, 0, "unbalanced braces");
        assert_eq!(depth_bracket, 0, "unbalanced brackets");
        assert!(!in_string, "unbalanced quotes");
    }

    #[test]
    fn chrome_trace_is_structured_and_spans_walks() {
        let mut trace = TraceRecorder::with_capacity(64);
        trace.record(ev(100, EventKind::IstlbMiss));
        trace.record(ev(
            160,
            EventKind::WalkComplete {
                class: WalkKind::DemandInstruction,
                refs: 4,
                duration: 60,
            },
        ));
        let doc = to_chrome_trace(&trace);
        assert_balanced(&doc);
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"ph\":\"M\""), "metadata records present");
        assert!(doc.contains("\"ph\":\"i\""), "instant for the miss");
        // The walk renders as a complete span starting at issue time.
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"ts\":100,\"dur\":60"));
        assert!(doc.contains("morrigan-sim"));
    }

    #[test]
    fn jsonl_emits_one_line_per_event_plus_summary() {
        let mut trace = TraceRecorder::with_capacity(8);
        trace.record(ev(
            1,
            EventKind::PbFill {
                component: PrefetchComponent::Sdp,
            },
        ));
        trace.record(ev(
            2,
            EventKind::WalkIssue {
                class: WalkKind::Prefetch,
                psc_skip: 1,
            },
        ));
        trace.record(ev(3, EventKind::IcacheCross(IcacheCrossOutcome::Ready)));
        let doc = to_jsonl(&trace);
        assert_eq!(doc.lines().count(), 4, "3 events + 1 summary line");
        for line in doc.lines() {
            assert_balanced(line);
        }
        assert!(doc.contains("\"event\":\"walk_issue_prefetch\""));
        assert!(doc.contains("\"psc_skip\":1"));
        assert!(doc.contains("\"component\":\"sdp\""));
        let summary = doc.lines().last().unwrap();
        assert!(summary.contains("\"summary\":true"));
        assert!(summary.contains("\"dropped_events\":0"));
    }

    #[test]
    fn phase_profile_math() {
        let mut p = PhaseProfile::new();
        p.add(Phase::WorkloadGen, 2.0);
        p.add_total(5.0);
        assert_eq!(p.workload_gen(), 2.0);
        assert_eq!(p.simulate(), 3.0);

        let mut q = PhaseProfile::new();
        q.add(Phase::WorkloadGen, 0.5);
        q.add_total(1.0);

        let mut merged = PhaseProfile::new();
        merged.merge(&q);
        merged.merge(&p);
        assert_eq!(merged.total(), 6.0);
        assert_eq!(merged.workload_gen(), 2.5);
        assert_eq!(merged.simulate(), 3.5);
    }

    #[test]
    fn trace_build_is_excluded_from_simulate_like_workload_gen() {
        let mut p = PhaseProfile::new();
        p.add(Phase::WorkloadGen, 2.0);
        p.add(Phase::TraceBuild, 1.0);
        p.add_total(6.0);
        assert_eq!(p.trace_build(), 1.0);
        assert_eq!(p.simulate(), 3.0);
    }

    #[test]
    fn barrier_wait_and_replay_stay_inside_simulate() {
        let mut p = PhaseProfile::new();
        p.add(Phase::WorkloadGen, 1.0);
        p.add(Phase::BarrierWait, 0.5);
        p.add(Phase::Replay, 0.25);
        p.add_total(4.0);
        assert_eq!((p.barrier_wait(), p.replay()), (0.5, 0.25));
        assert_eq!(p.simulate(), 3.0, "machine overhead is simulation time");
        let mut merged = PhaseProfile::new();
        merged.merge(&p);
        merged.merge(&p);
        assert_eq!((merged.barrier_wait(), merged.replay()), (1.0, 0.5));
    }

    #[test]
    fn simulate_clamps_at_zero() {
        let mut p = PhaseProfile::new();
        p.add(Phase::WorkloadGen, 2.0);
        p.add_total(1.5);
        assert_eq!(p.simulate(), 0.0);
    }
}
