//! Sampled-vs-full accuracy suite: the error contract of SMARTS-style
//! sampling, pinned at test scale.
//!
//! The simulator is deterministic (independent of build profile and
//! host), so the sampled-run deviations asserted here are exact,
//! reproducible numbers — the bounds are set from measured values with
//! margin, and a regression that widens any of them is a real accuracy
//! change, not noise:
//!
//! * **Miss counters are measured, never extrapolated.** Every
//!   fast-forwarded instruction still drives the real MMU/cache paths,
//!   so MPKI may deviate from a full run only through second-order
//!   timestamp effects on the timing-sensitive structures (PB, walker).
//! * **Cycle-derived metrics are estimates** (pooled-CPI fast-forward
//!   clock plus the per-window cycle regression), bounded per workload.
//! * **Phase accounting stays honest**: sampled or not, single- or
//!   multi-core, every record reports a nonzero simulate phase — the
//!   multi-core machine used to drop its per-core profiles, which is
//!   how fig21's zero `simulate_seconds` bug escaped.

use morrigan_runner::json::record_json;
use morrigan_runner::{PrefetcherKind, RunSpec, Runner, WorkloadCache};
use morrigan_sim::{SamplingConfig, SimConfig, SystemConfig, TopologyConfig};
use morrigan_workloads::suites;

/// Bench-like scale: the throughput bench's reduced profile, which puts
/// five full periods of the default 12.5k:37.5k schedule inside the
/// measurement window.
fn sim() -> SimConfig {
    SimConfig {
        warmup_instructions: 100_000,
        measure_instructions: 250_000,
    }
}

fn rel_err(sampled: f64, full: f64) -> f64 {
    if full == 0.0 {
        return if sampled == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (sampled - full) / full
}

#[test]
fn sampled_single_core_errors_are_bounded() {
    let full_runner = Runner::new(1).with_workload_cache(WorkloadCache::in_memory());
    let sampled_runner = Runner::new(1).with_workload_cache(WorkloadCache::in_memory());
    for workload in suites::qmm_suite_subset(2) {
        let mut spec = RunSpec::server(
            &workload,
            SystemConfig::default(),
            sim(),
            PrefetcherKind::Morrigan,
        );
        let full = full_runner.run_one(&spec);
        spec.sampling = Some(SamplingConfig::default_schedule());
        let sampled = sampled_runner.run_one(&spec);

        // The instruction stream is identical by construction.
        assert_eq!(sampled.metrics.instructions, full.metrics.instructions);

        // Measured counters: ≤ 1 % deviation (second-order timestamp
        // effects only; at this scale they are typically exactly zero).
        for (name, s, f) in [
            (
                "istlb_misses",
                sampled.metrics.mmu.istlb_misses,
                full.metrics.mmu.istlb_misses,
            ),
            (
                "itlb_misses",
                sampled.metrics.mmu.itlb_misses,
                full.metrics.mmu.itlb_misses,
            ),
        ] {
            let err = rel_err(s as f64, f as f64);
            assert!(
                err.abs() <= 0.01,
                "{}: sampled {name} deviates {:.4} (sampled {s}, full {f})",
                workload.name,
                err
            );
        }

        // Estimated cycles: 8 % bounds the per-workload IPC deviation
        // with margin over its measured value while still catching an
        // estimator regression (a naive detail-only extrapolation lands
        // well outside).
        let ipc_err = rel_err(sampled.metrics.ipc(), full.metrics.ipc());
        assert!(
            ipc_err.abs() <= 0.08,
            "{}: sampled IPC deviates {:.4} (sampled {:.4}, full {:.4})",
            workload.name,
            ipc_err,
            sampled.metrics.ipc(),
            full.metrics.ipc()
        );

        // Both runs report a real simulate phase.
        assert!(full.phases.simulate() > 0.0);
        assert!(sampled.phases.simulate() > 0.0);
    }
}

#[test]
fn sampled_multi_core_counters_match_and_phases_are_nonzero() {
    let scale = SimConfig {
        warmup_instructions: 20_000,
        measure_instructions: 60_000,
    };
    let system = SystemConfig {
        topology: TopologyConfig {
            cores: 2,
            shared_stlb: true,
            llc_shards: 2,
            shootdown_interval: Some(9_000),
        },
        ..SystemConfig::default()
    };
    let mut spec = RunSpec::multi(
        suites::tenant_mixes(2, 2),
        5_000,
        system,
        scale,
        PrefetcherKind::Morrigan,
    );
    let full = Runner::new(1).run_one(&spec);
    spec.sampling = Some(SamplingConfig::default_schedule());
    let sampled = Runner::new(1).run_one(&spec);

    assert_eq!(sampled.metrics.instructions, full.metrics.instructions);
    let (fm, sm) = (
        full.machine.as_ref().expect("multi record"),
        sampled.machine.as_ref().expect("multi record"),
    );
    for (core, (f, s)) in fm.per_core.iter().zip(&sm.per_core).enumerate() {
        assert_eq!(
            s.instructions, f.instructions,
            "core {core} retires the same window sampled or not"
        );
        let err = rel_err(s.istlb_mpki(), f.istlb_mpki());
        assert!(
            err.abs() <= 0.02,
            "core {core}: sampled iSTLB MPKI deviates {err:.4}"
        );
    }

    // The fig21 regression: multi-core records must merge per-core phase
    // profiles into the record, sampled and full alike.
    assert!(
        full.phases.simulate() > 0.0,
        "multi-core full run dropped its simulate phase"
    );
    assert!(
        sampled.phases.simulate() > 0.0,
        "multi-core sampled run dropped its simulate phase"
    );
}

#[test]
fn sampling_configuration_keys_the_result_cache() {
    // A sampled record and a full record of the same spec must never
    // share a result-cache slot: the cached-metrics contract is "same
    // sampling setting in, same record out".
    let workload = &suites::qmm_suite_subset(1)[0];
    let spec = RunSpec::server(
        workload,
        SystemConfig::default(),
        SimConfig {
            warmup_instructions: 10_000,
            measure_instructions: 30_000,
        },
        PrefetcherKind::Morrigan,
    );
    let runner = Runner::new(1);
    let full = runner.run_one(&spec);

    let mut sampled_spec = spec.clone();
    sampled_spec.sampling = Some(SamplingConfig::default_schedule());
    let sampled = runner.run_one(&sampled_spec);
    assert_eq!(runner.sims_executed(), 2, "no false result-cache hit");
    assert_eq!(sampled.metrics.instructions, full.metrics.instructions);
}

#[test]
fn multi_core_spec_keeps_its_own_schedule_on_every_path() {
    // A machine spec that pins its own sampling schedule runs it whether
    // it is executed directly, analyzed, or pooled by a runner.
    let system = SystemConfig {
        topology: TopologyConfig {
            cores: 2,
            shared_stlb: true,
            llc_shards: 2,
            shootdown_interval: Some(9_000),
        },
        ..SystemConfig::default()
    };
    let mut spec = RunSpec::multi(
        suites::tenant_mixes(2, 2),
        5_000,
        system,
        SimConfig {
            warmup_instructions: 20_000,
            measure_instructions: 60_000,
        },
        PrefetcherKind::Morrigan,
    );
    spec.sampling = Some(SamplingConfig::default_schedule());
    let pooled = Runner::new(1).run_one(&spec);
    assert_eq!(record_json(&spec.execute()), record_json(&pooled));
    assert_eq!(spec.execute_analyzed(None).metrics, pooled.metrics);
}
