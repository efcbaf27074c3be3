//! The workload cache is a pure transport change: a simulation fed
//! replay cursors over materialized traces must produce records
//! byte-identical to one generating its streams live. These tests pin
//! that for every workload shape the figures use (server, SPEC, SMT
//! pair, multi-tenant machine), comparing metrics, audit reports (debug
//! builds always audit), and the rendered record JSON — the same
//! contract `batching.rs` pins for block delivery. They also cover the
//! on-disk cache layer: a persisted trace must replay identically across
//! cache instances, and a corrupted file must be detected and rebuilt,
//! never silently replayed and never fatal.

use morrigan_runner::json::record_json;
use morrigan_runner::{PrefetcherKind, RunSpec, Runner, WorkloadCache};
use morrigan_sim::{SimConfig, SystemConfig, TopologyConfig};
use morrigan_workloads::{suites, ServerWorkloadConfig, SpecWorkloadConfig};

fn sim() -> SimConfig {
    SimConfig {
        warmup_instructions: 30_000,
        measure_instructions: 90_000,
    }
}

/// Runs `spec` once through a caching runner and once through a
/// live-generation runner and requires identical records.
fn assert_equivalent(spec: RunSpec) {
    let cached_runner = Runner::new(1).with_workload_cache(WorkloadCache::in_memory());
    let live_runner = Runner::new(1).with_workload_cache(WorkloadCache::disabled());
    let cached = cached_runner.run_one(&spec);
    let live = live_runner.run_one(&spec);
    assert!(
        cached_runner.workload_cache_stats().built > 0,
        "the caching runner must actually have materialized"
    );
    assert_eq!(
        cached_runner.workload_cache_stats().live_fallbacks,
        0,
        "nothing should have fallen back to live generation"
    );
    assert_eq!(
        cached.metrics,
        live.metrics,
        "metrics diverge for {}",
        spec.workload.name()
    );
    assert_eq!(
        cached.audit,
        live.audit,
        "audit reports diverge for {}",
        spec.workload.name()
    );
    assert!(
        cached.audit.is_some() || !cfg!(debug_assertions),
        "debug builds always audit; this test must compare real reports"
    );
    assert_eq!(
        record_json(&cached),
        record_json(&live),
        "record JSON diverges for {}",
        spec.workload.name()
    );
}

#[test]
fn server_run_is_cache_invariant() {
    let cfg = ServerWorkloadConfig::qmm_like("cache-srv", 21);
    let mut system = SystemConfig::default();
    system.mmu.collect_stream_stats = true;
    assert_equivalent(RunSpec::server(
        &cfg,
        system,
        sim(),
        PrefetcherKind::Morrigan,
    ));
}

#[test]
fn spec_run_is_cache_invariant() {
    let cfg = SpecWorkloadConfig::spec_like("cache-spec", 22);
    assert_equivalent(RunSpec::spec_cpu(
        &cfg,
        SystemConfig::default(),
        sim(),
        PrefetcherKind::Mp,
    ));
}

#[test]
fn smt_run_is_cache_invariant() {
    let pair = morrigan_workloads::suites::smt_pairs(1).pop().unwrap();
    assert_equivalent(RunSpec::smt(
        &pair,
        SystemConfig::default(),
        sim(),
        PrefetcherKind::MorriganSmt,
    ));
}

#[test]
fn multi_core_run_is_cache_invariant() {
    // Two cores with two tenants each: every core replays through a
    // context-switch schedule over ASID-tagged tenant traces. A quantum
    // shorter than the simulator's 1024-instruction refill puts several
    // tenant chunks, and their rebased run ends, into one refill
    // (`multi_core.rs` covers a 5 000-instruction quantum).
    let system = SystemConfig {
        topology: TopologyConfig {
            cores: 2,
            shared_stlb: true,
            llc_shards: 2,
            shootdown_interval: Some(9_000),
        },
        ..SystemConfig::default()
    };
    assert_equivalent(RunSpec::multi(
        suites::tenant_mixes(2, 2),
        700,
        system,
        sim(),
        PrefetcherKind::Morrigan,
    ));
}

#[test]
fn one_trace_serves_a_whole_prefetcher_sweep() {
    // The amortization claim itself: N specs over one workload
    // materialize exactly one trace and serve N replays.
    let cfg = ServerWorkloadConfig::qmm_like("cache-sweep", 23);
    let kinds = [
        PrefetcherKind::None,
        PrefetcherKind::Sp,
        PrefetcherKind::Mp,
        PrefetcherKind::Morrigan,
    ];
    let specs: Vec<RunSpec> = kinds
        .iter()
        .map(|&k| RunSpec::server(&cfg, SystemConfig::default(), sim(), k))
        .collect();
    let runner = Runner::new(2);
    let records = runner.run_batch(&specs);
    assert_eq!(records.len(), kinds.len());
    let stats = runner.workload_cache_stats();
    assert_eq!(stats.built, 1, "one workload, one materialization");
    assert_eq!(stats.streams_served as usize, kinds.len());
    assert!(
        stats.saved_seconds > 0.0,
        "serves beyond the first count as saved generation time"
    );
}

#[test]
fn smt_members_share_traces_with_solo_runs() {
    let pair = morrigan_workloads::suites::smt_pairs(1).pop().unwrap();
    let solo = RunSpec::server(
        &pair.0,
        SystemConfig::default(),
        sim(),
        PrefetcherKind::None,
    );
    let smt = RunSpec::smt(&pair, SystemConfig::default(), sim(), PrefetcherKind::None);
    let runner = Runner::new(1);
    runner.run_batch(&[solo, smt]);
    let stats = runner.workload_cache_stats();
    assert_eq!(
        stats.built, 2,
        "two distinct member configs, even though three streams were served"
    );
    assert_eq!(stats.streams_served, 3, "solo + two SMT members");
}

#[test]
fn disk_cache_preserves_records_across_invocations() {
    let dir = std::env::temp_dir().join(format!("morrigan-it-disk-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = ServerWorkloadConfig::qmm_like("cache-disk", 24);
    let spec = RunSpec::server(
        &cfg,
        SystemConfig::default(),
        sim(),
        PrefetcherKind::Morrigan,
    );

    let first = Runner::new(1).with_workload_cache(WorkloadCache::with_disk(&dir));
    let record_first = first.run_one(&spec);
    assert_eq!(first.workload_cache_stats().built, 1);

    // A fresh runner (fresh invocation) loads the persisted trace and
    // produces the identical record.
    let second = Runner::new(1).with_workload_cache(WorkloadCache::with_disk(&dir));
    let record_second = second.run_one(&spec);
    let stats = second.workload_cache_stats();
    assert_eq!(stats.built, 0, "no rebuild: the disk file served");
    assert_eq!(stats.loaded_from_disk, 1);
    assert_eq!(record_json(&record_first), record_json(&record_second));

    // Corrupt the persisted trace: the next invocation must detect it
    // (hash mismatch), rebuild, and still produce the identical record.
    let path = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .next()
        .expect("one trace file")
        .expect("readable entry")
        .path();
    let mut bytes = std::fs::read(&path).expect("trace readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).expect("trace writable");

    let third = Runner::new(1).with_workload_cache(WorkloadCache::with_disk(&dir));
    let record_third = third.run_one(&spec);
    let stats = third.workload_cache_stats();
    assert_eq!(stats.loaded_from_disk, 0, "corrupted file must not load");
    assert_eq!(stats.built, 1, "detected, rebuilt, non-fatal");
    assert_eq!(record_json(&record_first), record_json(&record_third));
    std::fs::remove_dir_all(&dir).ok();
}
