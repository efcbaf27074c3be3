//! Page-run stepping properties that the stepping pin's fixed grid does
//! not cover: delivery independence (a packed replay derives its runs
//! while it decodes, a live generator's refill scans them, and both must
//! give the same results) and the fetch-side probe conservation law
//! under SMT, whose blocks are clipped at every `smt_block` rotation.

use morrigan::{Morrigan, MorriganConfig};
use morrigan_sim::{SimConfig, Simulator, SystemConfig};
use morrigan_workloads::{
    InstructionStream, PackedReplay, PackedTrace, ServerWorkload, ServerWorkloadConfig,
};
use proptest::prelude::*;
use std::sync::Arc;

fn server(seed: u64) -> Box<ServerWorkload> {
    Box::new(ServerWorkload::new(ServerWorkloadConfig::qmm_like(
        format!("t{seed}"),
        seed,
    )))
}

/// One audited run; returns the metrics and the rendered audit report.
fn run_one(
    workload: Box<dyn InstructionStream>,
    system: SystemConfig,
    cfg: SimConfig,
) -> (morrigan_sim::Metrics, String) {
    let mut sim = Simulator::new(
        system,
        workload,
        Box::new(Morrigan::new(MorriganConfig::default())),
    );
    sim.set_audit(true);
    let metrics = sim.run(cfg);
    let report = sim
        .audit_report()
        .expect("audit was enabled")
        .render()
        .to_string();
    let c = sim.elision_counters();
    assert_eq!(
        c.probes_issued + c.probes_elided,
        cfg.warmup_instructions + cfg.measure_instructions,
        "fetch-side probe conservation"
    );
    assert!(c.runs_consumed > 0, "the kernel consumes page runs");
    (metrics, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replay of a packed trace, with runs derived in its decode, must
    /// match live generation with a fresh per-block scan: two deliveries
    /// of the same instruction stream, one set of results.
    #[test]
    fn derived_run_replay_matches_live_generation(
        seed in 0u64..500,
        cs_sel in 0u64..2,
        cs_raw in 0u64..4_500,
    ) {
        let cfg = SimConfig { warmup_instructions: 2_000, measure_instructions: 6_000 };
        let total = cfg.warmup_instructions + cfg.measure_instructions
            + morrigan_workloads::REPLAY_SLACK;
        let trace = Arc::new(PackedTrace::capture(&mut *server(seed), total));
        let system = SystemConfig {
            context_switch_interval: (cs_sel > 0).then_some(500 + cs_raw),
            ..SystemConfig::default()
        };
        let replay = run_one(Box::new(PackedReplay::new(Arc::clone(&trace))), system, cfg);
        let live = run_one(server(seed), system, cfg);
        prop_assert_eq!(&replay.0, &live.0);
        prop_assert_eq!(&replay.1, &live.1);
    }
}

/// SMT colocation runs the kernel in blocks clipped at `smt_block`
/// rotation edges: it must keep the probe-conservation law and consume
/// page runs like any single-thread run.
#[test]
fn smt_conserves_probes_and_consumes_runs() {
    let pair = morrigan_workloads::suites::smt_pairs(1).remove(0);
    let mut sim = Simulator::new_smt(
        SystemConfig::default(),
        vec![
            Box::new(ServerWorkload::new(pair.0)),
            Box::new(ServerWorkload::new(pair.1)),
        ],
        Box::new(Morrigan::new(MorriganConfig::default())),
    );
    let cfg = SimConfig {
        warmup_instructions: 5_000,
        measure_instructions: 15_000,
    };
    sim.run(cfg);
    let c = sim.elision_counters();
    assert_eq!(c.probes_issued + c.probes_elided, 20_000);
    assert!(
        c.probes_elided > 0,
        "same-line fetches still count as elided"
    );
    // Every block is at most `smt_block` instructions, so each one ends
    // at least one segment.
    let smt_block = SystemConfig::default().core.smt_block;
    assert!(
        c.runs_consumed >= 20_000 / smt_block,
        "{} runs consumed",
        c.runs_consumed
    );
}
