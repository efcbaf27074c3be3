//! Observers see the same run under replay. `figures --trace` and
//! `--explain` re-execute a journaled spec through the runner's warm
//! workload cache, so the record, the event trace and the analysis
//! report captured over replayed streams must equal those captured over
//! live generators, byte for byte.

use morrigan_obs::{to_jsonl, TraceRecorder};
use morrigan_runner::json::record_json;
use morrigan_runner::{Execution, Observer, PrefetcherKind, RunRecord, RunSpec, WorkloadCache};
use morrigan_sim::{SimConfig, SystemConfig, TopologyConfig};
use morrigan_workloads::suites;

fn sim() -> SimConfig {
    SimConfig {
        warmup_instructions: 20_000,
        measure_instructions: 60_000,
    }
}

fn server() -> RunSpec {
    let cfg = &suites::qmm_suite_subset(1)[0];
    RunSpec::server(
        cfg,
        SystemConfig::default(),
        sim(),
        PrefetcherKind::Morrigan,
    )
}

fn smt() -> RunSpec {
    let pair = &suites::smt_pairs(1)[0];
    RunSpec::smt(
        pair,
        SystemConfig::default(),
        sim(),
        PrefetcherKind::MorriganSmt,
    )
}

fn multi() -> RunSpec {
    let system = SystemConfig {
        topology: TopologyConfig {
            cores: 2,
            shared_stlb: true,
            llc_shards: 2,
            shootdown_interval: Some(9_000),
        },
        ..SystemConfig::default()
    };
    RunSpec::multi(
        suites::tenant_mixes(2, 2),
        5_000,
        system,
        sim(),
        PrefetcherKind::Morrigan,
    )
}

/// Runs `spec` under `observer` twice: over a cache a plain run has
/// already warmed (every stream replayed, nothing rebuilt), and with
/// the cache disabled (every stream generated live).
fn replayed_and_live(
    spec: &RunSpec,
    observer: Observer,
) -> [(RunRecord, Option<TraceRecorder>); 2] {
    let warm = WorkloadCache::in_memory();
    spec.execute_with(&Execution::new(&warm));
    let built = warm.materialized();
    assert!(built > 0, "the plain run must materialize its traces");
    let replayed = spec.execute_with(&Execution {
        observer,
        ..Execution::new(&warm)
    });
    assert_eq!(
        warm.materialized(),
        built,
        "the observed run rebuilt a trace"
    );
    assert_eq!(
        warm.stats().live_fallbacks,
        0,
        "a stream was generated live"
    );
    let live = spec.execute_with(&Execution {
        observer,
        ..Execution::new(&WorkloadCache::disabled())
    });
    [replayed, live]
}

#[test]
fn traces_are_identical_replayed_and_live() {
    for spec in [server(), smt()] {
        let name = spec.workload.name();
        let [(replayed, replayed_trace), (live, live_trace)] =
            replayed_and_live(&spec, Observer::Trace { capacity: 1 << 20 });
        assert_eq!(record_json(&replayed), record_json(&live), "{name}");
        let replayed_trace = replayed_trace.expect("the trace observer returns its recorder");
        let live_trace = live_trace.expect("the trace observer returns its recorder");
        assert!(
            !replayed_trace.is_empty() && replayed_trace.dropped() == 0,
            "{name}"
        );
        assert_eq!(to_jsonl(&replayed_trace), to_jsonl(&live_trace), "{name}");
    }
}

#[test]
fn analyses_are_identical_replayed_and_live() {
    for spec in [server(), smt(), multi()] {
        let name = spec.workload.name();
        let [(replayed, _), (live, _)] = replayed_and_live(&spec, Observer::Analysis);
        let report = |record: &RunRecord| {
            record
                .analysis
                .as_ref()
                .expect("the analysis observer attaches a report")
                .to_json()
        };
        assert_eq!(report(&replayed), report(&live), "{name}");
        assert_eq!(record_json(&replayed), record_json(&live), "{name}");
    }
}
