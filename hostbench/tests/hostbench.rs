//! The benchmark's own checks, run at the workload table's tiny lengths.

use morrigan_hostbench::kernels::{self, OpStreams};
use morrigan_hostbench::phases::{self, run_traced};
use morrigan_hostbench::report::{evaluate, Outcome, Phases};
use morrigan_hostbench::trace::SpanLog;
use morrigan_hostbench::{members, workload, Lengths, Workload, WORKLOADS};
use morrigan_mem::MemLevel;
use morrigan_runner::{jsonval, WorkloadCache};
use morrigan_workloads::PackedTrace;

/// All three phases of `w` in-process, judged as the binary judges them.
fn outcome(w: &Workload, seed: u64, trace: bool) -> Outcome {
    let lengths = &Lengths::TINY;
    let phases = Phases {
        verify: Ok(phases::verify(w, seed, lengths)),
        timed: Ok(phases::timed(w, seed, lengths, 0.0, trace)),
        traced: trace.then(|| Ok(phases::traced(w, seed, lengths, None))),
    };
    evaluate(w, w.specs(seed, lengths).len(), None, &phases)
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let doc = jsonval::parse(text).expect("BENCHMARK.json parses");
    doc.get(section)
        .expect("section present")
        .items()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn traced_runs_reproduce_untraced_records() {
    for w in &WORKLOADS {
        let log = SpanLog::new();
        for spec in w.specs(1, &Lengths::TINY) {
            let untraced = spec.execute_cached(None, None, None, &WorkloadCache::in_memory());
            let traced = run_traced(&spec, &log, 0);
            assert_eq!(
                traced.record.metrics, untraced.metrics,
                "{} metrics",
                w.name
            );
            assert_eq!(
                traced.record.elision, untraced.elision,
                "{} elision",
                w.name
            );
        }
        let spans = log.spans();
        for name in [
            "workloads.capture",
            "workloads.fill",
            "core.on_stlb_miss",
            "sim.run",
        ] {
            assert!(
                spans.iter().any(|s| s.name == name),
                "{}: no {name} span",
                w.name
            );
        }
    }
}

#[test]
fn seed_one_reports_every_declared_metric_without_failures() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let metrics = declared(section);
        for w in &WORKLOADS {
            let o = outcome(w, 1, trace);
            assert!(o.attempted > 0);
            assert_eq!(o.failed, 0, "{}: {:?}", w.name, o.problems);
            assert!(o.correct(), "{}: {:?}", w.name, o.problems);
            let lines = o.lines("");
            for (name, unit) in &metrics {
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "metric name {name}"
                );
                assert!(
                    lines.lines().any(|l| {
                        let f: Vec<&str> = l.split(' ').collect();
                        f.len() == 3 && f[0] == name && f[1].parse::<f64>().is_ok() && f[2] == unit
                    }),
                    "{}: `{name} <value> {unit}` missing from\n{lines}",
                    w.name
                );
            }
            assert_eq!(
                o.metrics.len(),
                metrics.len(),
                "{}: undeclared metrics",
                w.name
            );
        }
    }
}

#[test]
fn kernels_replay_one_stream_identically_through_fresh_structures() {
    let w = workload("server").expect("server workload");
    let spec = &w.specs(0, &Lengths::TINY)[0];
    let member = &members(spec)[0];
    let trace = PackedTrace::capture((member.build)().as_mut(), 80_000);
    let pt = kernels::page_table([&trace]);
    let ops = OpStreams::derive(&trace, u64::MAX, &pt, &spec.system);
    let timed = |n: usize| (n - n / 4) as u64;

    let (a, mem_a) = kernels::access(spec.system.mem, &ops.lines);
    let (b, mem_b) = kernels::access(spec.system.mem, &ops.lines);
    assert_eq!(a.ops, timed(ops.lines.len()));
    assert_eq!(a.ops, b.ops);
    for level in MemLevel::ALL {
        assert_eq!(mem_a.served_by(level), mem_b.served_by(level), "{level:?}");
    }

    let (a, mmu_a) = kernels::translate(
        &spec.system,
        &pt,
        spec.prefetcher.build(),
        &ops.translations,
    );
    let (b, mmu_b) = kernels::translate(
        &spec.system,
        &pt,
        spec.prefetcher.build(),
        &ops.translations,
    );
    assert_eq!(a.ops, timed(ops.translations.len()));
    assert_eq!(a.ops, b.ops);
    assert!(mmu_a.stats.istlb_misses > 0);
    assert_eq!(mmu_a.stats, mmu_b.stats);

    let (a, walker_a) = kernels::walk(&spec.system, &pt, &ops.stlb_misses);
    let (b, walker_b) = kernels::walk(&spec.system, &pt, &ops.stlb_misses);
    assert_eq!(a.ops, b.ops);
    assert!(a.ops > 0);
    assert_eq!(walker_a.stats, walker_b.stats);

    let (a, tlb_a) = kernels::stlb(spec.system.mmu.stlb, &ops.itlb_misses);
    let (b, tlb_b) = kernels::stlb(spec.system.mmu.stlb, &ops.itlb_misses);
    assert_eq!(a.ops, b.ops);
    assert_eq!(tlb_a.occupancy(), tlb_b.occupancy());

    let (a, llc_a) = kernels::llc(spec.system.mem.llc, &ops.l2_misses);
    let (b, llc_b) = kernels::llc(spec.system.mem.llc, &ops.l2_misses);
    assert_eq!(a.ops, b.ops);
    assert_eq!(llc_a.occupancy(), llc_b.occupancy());

    let (a, _) = kernels::warm(spec.system.mem, &ops.lines);
    assert_eq!(a.ops, timed(ops.lines.len()));
}
