//! Trace/stats reconciliation: every lifecycle event the MMU emits is
//! double-entry bookkeeping against the audit layer's counters. A full
//! simulator run with a [`TraceRecorder`] attached must produce event
//! totals that equal the cumulative `MmuStats`/`WalkerStats`/`PbStats`
//! *exactly* — any drift means an emission site is missing, duplicated,
//! or miscounted.
//!
//! The companion test pins the interval sampler's telescoping property:
//! epoch deltas are snapshot differences, so summing them reconstitutes
//! the measurement-window [`Metrics`] bit for bit.

use morrigan::{Morrigan, MorriganConfig};
use morrigan_obs::TraceRecorder;
use morrigan_sim::{IcachePrefetcherKind, Metrics, SimConfig, Simulator, SystemConfig};
use morrigan_types::{PrefetchComponent, WalkKind};
use morrigan_workloads::{InstructionStream, ServerWorkload, ServerWorkloadConfig};

fn stressful_system() -> SystemConfig {
    // Exercise every emission site: i-cache prefetch page crossings with
    // a real translation cost, periodic context-switch flushes (PbEvict
    // from `context_switch_at`), and correcting walks on PB evictions.
    let mut system = SystemConfig {
        icache_prefetcher: IcachePrefetcherKind::FnlMma {
            translation_cost: true,
        },
        context_switch_interval: Some(15_000),
        ..SystemConfig::default()
    };
    system.mmu.correcting_walks = true;
    system
}

fn workload() -> Box<dyn InstructionStream> {
    Box::new(ServerWorkload::new(ServerWorkloadConfig::qmm_like(
        "trace-reconcile",
        5,
    )))
}

const SIM: SimConfig = SimConfig {
    warmup_instructions: 20_000,
    measure_instructions: 60_000,
};

#[test]
fn trace_events_reconcile_with_audited_counters() {
    let mut sim = Simulator::with_recorder(
        stressful_system(),
        vec![workload()],
        Box::new(Morrigan::new(MorriganConfig::default())),
        TraceRecorder::new(),
    );
    sim.set_audit(true);
    sim.run(SIM);

    // Cumulative structure counters (warmup + window), matching the
    // recorder's view: events are emitted for the whole run.
    let stats = sim.mmu().stats;
    let walker = *sim.mmu().walker_stats();
    let pb = sim.mmu().prefetch_buffer().stats;
    let morrigan = sim
        .mmu()
        .prefetcher()
        .as_any()
        .and_then(|any| any.downcast_ref::<Morrigan>())
        .expect("this run uses a Morrigan prefetcher");
    let irip_stats = morrigan.irip().stats;
    let sdp_issued = morrigan.sdp().issued;
    let trace = sim.into_recorder();
    let counts = *trace.counts();

    assert_eq!(trace.dropped(), 0, "ring must not wrap in this run");
    assert_eq!(counts.total(), trace.len() as u64);

    // The run must actually exercise the paths being reconciled.
    assert!(counts.istlb_miss > 0, "no iSTLB misses traced");
    assert!(counts.pb_fill > 0, "no PB fills traced");
    assert!(counts.pb_evict > 0, "no PB evictions traced");
    assert!(counts.pb_promote > 0, "no PB promotions traced");
    assert!(
        counts.walk_complete[WalkKind::Prefetch.index()] > 0,
        "no prefetch walks traced"
    );
    assert!(
        counts.icache_cross_walk_issued > 0,
        "no i-cache prefetch page-crossing walks traced"
    );

    // --- Demand translation path ---
    assert_eq!(counts.istlb_miss, stats.istlb_misses);
    assert_eq!(counts.pb_probe_hit_ready, pb.hits_ready);
    assert_eq!(counts.pb_probe_hit_inflight, pb.hits_inflight);
    assert_eq!(counts.pb_probe_miss, pb.misses);
    assert_eq!(
        counts.pb_probe_hit_ready + counts.pb_probe_hit_inflight + counts.pb_probe_miss,
        stats.istlb_misses,
        "every iSTLB miss probes the PB exactly once"
    );
    assert_eq!(counts.pb_promote, stats.istlb_covered);

    // --- PB ledger ---
    assert_eq!(counts.pb_fill, pb.inserts);
    assert_eq!(counts.pb_evict, pb.evicted_unused);

    // --- Walker, per class ---
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
    for class in WalkKind::ALL {
        assert_eq!(
            counts.walk_issue[class.index()],
            counts.walk_complete[class.index()],
            "the walker model completes every {} walk it issues",
            class.name()
        );
    }

    // --- Prefetch issuers ---
    assert_eq!(counts.prefetch_issue, stats.prefetches_issued);
    assert_eq!(
        counts.icache_cross_walk_issued,
        stats.icache_prefetches_issued
    );
    assert_eq!(
        counts.walk_complete[WalkKind::Prefetch.index()],
        stats.prefetches_issued + stats.icache_prefetches_issued + stats.correcting_walks,
        "every prefetch-class walk has exactly one issuer"
    );

    // --- Component attribution telescopes to the scalar counters ---
    let sum = |a: &[u64]| a.iter().sum::<u64>();
    assert_eq!(
        sum(&counts.prefetch_issue_by_component),
        stats.prefetches_issued
    );
    assert_eq!(
        sum(&counts.prefetch_drop_duplicate),
        stats.prefetches_duplicate,
        "every duplicate-suppressed decision is a per-component drop event"
    );
    assert_eq!(sum(&counts.pb_fill_by_component), pb.inserts);
    assert_eq!(sum(&counts.pb_promote_by_component), stats.istlb_covered);
    assert_eq!(
        sum(&counts.pb_promote_late_by_component),
        pb.hits_inflight,
        "the late promotions are exactly the in-flight PB hits"
    );
    assert_eq!(sum(&counts.pb_evict_by_component), pb.evicted_unused);

    // --- Morrigan-internal attribution (via the `as_any` downcast) ---
    // Every IRIP prediction becomes exactly one issue or drop event
    // tagged with its table's component; same trichotomy for the SDP.
    let irip_range = 0..PrefetchComponent::Sdp.index();
    let irip_sum = |a: &[u64]| a[irip_range.clone()].iter().sum::<u64>();
    assert_eq!(
        irip_sum(&counts.prefetch_issue_by_component)
            + irip_sum(&counts.prefetch_drop_duplicate)
            + irip_sum(&counts.prefetch_drop_fault),
        irip_stats.predictions,
        "IRIP predictions telescope to issue + drop events"
    );
    let sdp = PrefetchComponent::Sdp.index();
    assert_eq!(
        counts.prefetch_issue_by_component[sdp]
            + counts.prefetch_drop_duplicate[sdp]
            + counts.prefetch_drop_fault[sdp],
        sdp_issued,
        "SDP decisions telescope to issue + drop events"
    );
    assert_eq!(
        sum(&counts.irip_evict_by_table),
        irip_stats.evictions,
        "every IRIP replacement eviction is traced with its table"
    );
    assert!(
        counts.irip_evict_by_table.iter().any(|&c| c > 0),
        "the run must exercise IRIP replacement"
    );
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let mut plain = Simulator::new(
        stressful_system(),
        workload(),
        Box::new(Morrigan::new(MorriganConfig::default())),
    );
    let baseline = plain.run(SIM);

    let mut traced = Simulator::with_recorder(
        stressful_system(),
        vec![workload()],
        Box::new(Morrigan::new(MorriganConfig::default())),
        TraceRecorder::new(),
    );
    assert_eq!(traced.run(SIM), baseline);
}

#[test]
fn interval_epochs_sum_to_window_metrics() {
    let run = |interval: Option<u64>| {
        let mut sim = Simulator::new(
            stressful_system(),
            workload(),
            Box::new(Morrigan::new(MorriganConfig::default())),
        );
        sim.set_interval(interval);
        let metrics = sim.run(SIM);
        (metrics, sim.interval_samples().to_vec())
    };

    let (baseline, none) = run(None);
    assert!(none.is_empty(), "sampling off records no epochs");

    let (metrics, samples) = run(Some(10_000));
    assert_eq!(metrics, baseline, "sampling must not perturb the run");
    assert_eq!(samples.len(), 6, "60k window / 10k epochs");

    // Epochs tile the window contiguously, in instructions and cycles.
    for (i, s) in samples.iter().enumerate() {
        assert_eq!(s.start_instruction, i as u64 * 10_000);
        assert_eq!(s.end_instruction, (i + 1) as u64 * 10_000);
        assert!(s.start_cycle <= s.end_cycle);
        if i > 0 {
            assert_eq!(s.start_cycle, samples[i - 1].end_cycle);
        }
    }

    // Telescoping: the epoch deltas sum to the window metrics exactly.
    let total = samples
        .iter()
        .map(|s| s.metrics)
        .fold(Metrics::default(), |acc, m| acc + m);
    assert_eq!(total, metrics);

    // A partial tail epoch still covers the window.
    let (metrics, samples) = run(Some(25_000));
    assert_eq!(metrics, baseline);
    assert_eq!(samples.len(), 3, "25k + 25k + 10k tail");
    assert_eq!(
        samples[2].end_instruction - samples[2].start_instruction,
        10_000
    );
    let total = samples
        .iter()
        .map(|s| s.metrics)
        .fold(Metrics::default(), |acc, m| acc + m);
    assert_eq!(total, metrics);
}
