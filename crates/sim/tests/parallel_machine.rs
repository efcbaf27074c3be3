//! The threaded epoch driver against its serial reference: any host
//! thread count must produce bitwise-identical results.
//!
//! The machine freezes shared structures between epoch barriers and
//! replays each core's operation log in (core, sequence) order, so the
//! final state is a pure function of the logs — independent of how the
//! epoch work was spread over host threads. These tests pin that claim
//! on the contended 4-core × 2-tenant topology (audit on, sampling on
//! and off) at widths 1/2/4, and property-test shootdown delivery over
//! random epoch schedules: intervals, quanta, and run lengths that slide
//! shootdowns across epoch boundaries must never change the ledger or
//! the per-core metrics, whether the cores split evenly over the host
//! threads or not.

use morrigan::{Morrigan, MorriganConfig};
use morrigan_sim::{
    Machine, MachineSummary, Metrics, SamplingConfig, SimConfig, SystemConfig, TopologyConfig,
};
use morrigan_types::prefetcher::NullPrefetcher;
use morrigan_types::TlbPrefetcher;
use morrigan_workloads::{suites, AsidStream, InstructionStream, ScheduledStream, ServerWorkload};
use proptest::prelude::*;

/// One core's time-shared tenant mix, every tenant in its own ASID.
fn tenant_stream(core: usize, tenants: usize, quantum: u64) -> Box<dyn InstructionStream> {
    let mix = suites::tenant_mixes(core + 1, tenants).pop().unwrap();
    let streams: Vec<Box<dyn InstructionStream>> = mix
        .into_iter()
        .enumerate()
        .map(|(t, cfg)| {
            let asid = (core * tenants + t + 1) as u16;
            Box::new(AsidStream::new(ServerWorkload::new(cfg), asid)) as Box<dyn InstructionStream>
        })
        .collect();
    Box::new(ScheduledStream::new(streams, quantum))
}

/// The contended machine: shared sharded LLC, machine-wide STLB, and a
/// per-core shootdown schedule.
fn machine(
    cores: usize,
    tenants: usize,
    quantum: u64,
    llc_shards: usize,
    shootdown_interval: Option<u64>,
    morrigan: bool,
) -> Machine {
    let system = SystemConfig {
        topology: TopologyConfig {
            cores,
            shared_stlb: true,
            llc_shards,
            shootdown_interval,
        },
        ..SystemConfig::default()
    };
    let workloads = (0..cores)
        .map(|c| tenant_stream(c, tenants, quantum))
        .collect();
    let prefetchers = (0..cores)
        .map(|_| {
            if morrigan {
                Box::new(Morrigan::new(MorriganConfig::default())) as Box<dyn TlbPrefetcher>
            } else {
                Box::new(NullPrefetcher) as Box<dyn TlbPrefetcher>
            }
        })
        .collect();
    Machine::new(system, workloads, prefetchers)
}

/// Everything a run produces that callers can observe: aggregate
/// metrics, the whole summary, and the audit's rendered law table.
fn observe(
    mut m: Machine,
    threads: usize,
    sampling: Option<SamplingConfig>,
    sim: SimConfig,
) -> (Metrics, MachineSummary, String) {
    m.set_threads(Some(threads));
    m.set_sampling(sampling);
    m.set_audit(true);
    let agg = m.run(sim);
    let report = m.audit_report().expect("audit was on");
    assert!(report.is_clean(), "{}", report.render());
    (agg, m.summary().clone(), report.render())
}

/// The reference 4-core × 2-tenant contended run of the tentpole bar.
fn reference_machine() -> Machine {
    machine(4, 2, 5_000, 4, Some(7_000), true)
}

const SIM: SimConfig = SimConfig {
    warmup_instructions: 10_000,
    measure_instructions: 30_000,
};

#[test]
fn threaded_runs_match_serial_in_full_detail() {
    let serial = observe(reference_machine(), 1, None, SIM);
    for threads in [2, 4] {
        let threaded = observe(reference_machine(), threads, None, SIM);
        assert_eq!(
            serial, threaded,
            "width {threads} diverged from the serial reference (full detail)"
        );
    }
}

#[test]
fn threaded_runs_match_serial_under_sampled_simulation() {
    let schedule = SamplingConfig {
        detail: 2_000,
        skip: 6_000,
    };
    let serial = observe(reference_machine(), 1, Some(schedule), SIM);
    for threads in [2, 4] {
        let threaded = observe(reference_machine(), threads, Some(schedule), SIM);
        assert_eq!(
            serial, threaded,
            "width {threads} diverged from the serial reference (sampled)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Shootdown delivery over random epoch schedules: whatever the
    /// shootdown interval, context-switch quantum, shard count, and run
    /// length — i.e. wherever shootdowns land relative to the 64-entry
    /// epoch boundary — the threaded driver must deliver them in the
    /// same deterministic (epoch, issuing-core, sequence) order the
    /// serial driver does, and the ledger must balance. The 3-core
    /// machine runs at width 2, so one thread owns two cores and the
    /// other one.
    #[test]
    fn shootdown_ordering_is_width_invariant(
        cores_sel in 0usize..3,
        interval in 500u64..6_000,
        quantum in 1_000u64..8_000,
        shards_sel in 0usize..3,
        measure in 8_000u64..20_000,
    ) {
        let (cores, width) = [(2, 2), (4, 4), (3, 2)][cores_sel];
        let shards = [1, 2, 4][shards_sel];
        let sim = SimConfig {
            warmup_instructions: 2_000,
            measure_instructions: measure,
        };
        let build = || machine(cores, 2, quantum, shards, Some(interval), false);
        let serial = observe(build(), 1, None, sim);
        let threaded = observe(build(), width, None, sim);
        prop_assert_eq!(&serial, &threaded, "{} cores at width {} diverged", cores, width);
        let summary = &serial.1;
        prop_assert!(summary.shootdowns_issued > 0, "schedule must fire");
        prop_assert_eq!(
            summary.shootdowns_received,
            summary.shootdowns_issued * cores as u64,
            "every shootdown reaches every core exactly once"
        );
    }
}
