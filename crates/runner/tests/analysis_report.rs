//! Analysis-report grounding tests: every number the report claims must
//! reconcile with the audited structure counters, the report must not
//! perturb the simulation, and multi-core reports must be byte-identical
//! at any epoch-driver width.

use morrigan_runner::{AnalysisReport, PrefetcherKind, RunSpec, WorkloadCache};
use morrigan_sim::{SimConfig, SystemConfig};
use morrigan_workloads::ServerWorkloadConfig;

fn sim() -> SimConfig {
    SimConfig {
        warmup_instructions: 20_000,
        measure_instructions: 60_000,
    }
}

#[test]
fn traced_report_reconciles_and_does_not_perturb() {
    let cfg = ServerWorkloadConfig::qmm_like("analysis-grounding", 5);
    let spec = RunSpec::server(
        &cfg,
        SystemConfig::default(),
        sim(),
        PrefetcherKind::Morrigan,
    );
    let analyzed = spec.execute_analyzed(None);
    let plain = spec.execute();
    assert_eq!(
        analyzed.metrics, plain.metrics,
        "attaching the analysis recorder must not change the simulation"
    );

    let report = analyzed.analysis.as_ref().expect("analysis attached");
    assert!(report.complete, "streaming analysis never drops");
    assert_eq!(report.dropped_events, 0);
    assert!(report.events_seen > 0);
    for law in &report.laws {
        assert!(
            law.ok(),
            "law violated: {} ({} != {})",
            law.law,
            law.lhs,
            law.rhs
        );
    }
    // Morrigan's internal counters joined the laws via the downcast.
    assert!(
        report.laws.iter().any(|l| l.law.contains("IripStats")),
        "Morrigan runs must reconcile against IRIP's own counters"
    );

    // The anatomy is present and internally consistent: direction
    // splits cover every consecutive-miss pair.
    let anatomy = report.anatomy.as_ref().expect("traced runs have anatomy");
    assert_eq!(
        anatomy.ascending + anatomy.descending + anatomy.repeats,
        anatomy.distance.count,
        "direction split must cover every inter-miss distance sample"
    );
    assert_eq!(
        anatomy.set_total, anatomy.total_misses,
        "set heat bins every demand miss"
    );

    // Component hits telescope to the coverage the headline reports.
    let total_hits: u64 = report.components.iter().map(|c| c.tally.hits).sum();
    let covered_law = report
        .laws
        .iter()
        .find(|l| l.law.contains("istlb_covered"))
        .expect("coverage law present");
    assert_eq!(total_hits, covered_law.lhs);

    // Rendering is pure: two renders of the same report are identical.
    assert_eq!(report.to_json(), report.to_json());
    assert!(report.to_markdown().contains("## Reconciliation"));
    assert!(!report.digest().is_empty());
}

#[test]
fn analysis_key_is_absent_without_execute_analyzed() {
    let cfg = ServerWorkloadConfig::qmm_like("analysis-absent", 3);
    let spec = RunSpec::server(
        &cfg,
        SystemConfig::default(),
        sim(),
        PrefetcherKind::Morrigan,
    );
    let plain = spec.execute();
    assert!(plain.analysis.is_none());
    let rendered = morrigan_runner::json::record_json(&plain);
    assert!(
        !rendered.contains("\"analysis\""),
        "non-analyzed records must render without the analysis key"
    );
    let analyzed = spec.execute_analyzed(None);
    let rendered = morrigan_runner::json::record_json(&analyzed);
    assert!(rendered.contains("\"analysis\""));
    assert!(rendered.contains("morrigan-analysis-v1"));
}

#[test]
fn machine_report_is_byte_identical_across_driver_widths() {
    let mixes = vec![
        vec![
            ServerWorkloadConfig::qmm_like("tenant-a", 2),
            ServerWorkloadConfig::qmm_like("tenant-b", 3),
        ],
        vec![
            ServerWorkloadConfig::qmm_like("tenant-c", 4),
            ServerWorkloadConfig::qmm_like("tenant-d", 5),
        ],
        vec![
            ServerWorkloadConfig::qmm_like("tenant-e", 6),
            ServerWorkloadConfig::qmm_like("tenant-f", 7),
        ],
        vec![
            ServerWorkloadConfig::qmm_like("tenant-g", 8),
            ServerWorkloadConfig::qmm_like("tenant-h", 9),
        ],
    ];
    let spec = RunSpec::multi(
        mixes,
        5_000,
        SystemConfig::default(),
        sim(),
        PrefetcherKind::Morrigan,
    );
    let cache = WorkloadCache::disabled();
    let narrow = spec.execute_cached(None, None, Some(1), &cache);
    let wide = spec.execute_cached(None, None, Some(4), &cache);
    let report_narrow = AnalysisReport::from_machine(&narrow);
    let report_wide = AnalysisReport::from_machine(&wide);
    assert_eq!(
        report_narrow.to_json(),
        report_wide.to_json(),
        "machine reports must be byte-identical at any machine thread width"
    );
    assert_eq!(report_narrow.to_markdown(), report_wide.to_markdown());

    // The report carries the interference attribution: 4 cores, each
    // with its 2 tenants named and per-core stall shares summing to 1.
    let machine = report_narrow.machine.as_ref().expect("machine section");
    assert_eq!(machine.cores, 4);
    assert_eq!(machine.per_core.len(), 4);
    assert_eq!(machine.per_core[0].tenants, "tenant-a+tenant-b");
    assert_eq!(machine.per_core[0].first_asid, 1);
    assert_eq!(machine.per_core[3].first_asid, 7);
    let share: f64 = machine.per_core.iter().map(|c| c.stall_share).sum();
    assert!((share - 1.0).abs() < 1e-9, "stall shares sum to 1");
    assert!(report_narrow.reconciles());
}

#[test]
fn multi_core_execute_analyzed_attaches_machine_report() {
    let mixes = vec![
        vec![ServerWorkloadConfig::qmm_like("mt-a", 2)],
        vec![ServerWorkloadConfig::qmm_like("mt-b", 3)],
    ];
    let spec = RunSpec::multi(
        mixes,
        5_000,
        SystemConfig::default(),
        sim(),
        PrefetcherKind::Morrigan,
    );
    let record = spec.execute_analyzed(None);
    let report = record.analysis.as_ref().expect("analysis attached");
    assert!(report.anatomy.is_none(), "no event stream on machines");
    assert!(report.machine.is_some());
    assert!(report.reconciles());
}
