//! The stepping pin: every observable output of the stepping kernel,
//! byte for byte, over a fixed grid of schedules.
//!
//! `tests/fixtures/stepping_pin.txt` was rendered by the per-instruction
//! stepping path (one `translate_instr` per new fetch line, one
//! `translate_data` per access, no page-run elision) before the page-run
//! kernel replaced it. This test renders the same document with the
//! current kernel and requires equality, so the elision argument,
//! the fast-forward clock reconstruction and the SMT rotation clipping
//! stay exact against that reference.
//!
//! Each case contributes the `Metrics` Debug line and the rendered audit
//! report (check count included). Interval runs add their epoch count
//! and an FNV-1a of the epochs; traced runs add the event count and an
//! FNV-1a of the whole event stream. Elision counters are deliberately
//! absent: they describe how the kernel got the answer, not the answer.

use morrigan::{Morrigan, MorriganConfig};
use morrigan_obs::{NullRecorder, Recorder, TraceRecorder};
use morrigan_sim::{
    IcachePrefetcherKind, Metrics, SamplingConfig, SimConfig, Simulator, SystemConfig,
};
use morrigan_types::TlbPrefetcher;
use morrigan_workloads::{
    suites, InstructionStream, PackedReplay, PackedTrace, ServerWorkload, ServerWorkloadConfig,
    SpecWorkload, SpecWorkloadConfig,
};
use std::fmt::Write as _;
use std::sync::Arc;

/// Sampled schedules whose window edges land at varied offsets from
/// delivery blocks, page runs, and context-switch boundaries.
const SCHEDULES: [(u64, u64); 3] = [(50, 50), (137, 1_999), (300, 1_700)];

/// Context-switch intervals: off, and three that land mid-block.
const SWITCHES: [Option<u64>; 4] = [None, Some(500), Some(2_917), Some(7_919)];

const SHORT: SimConfig = SimConfig {
    warmup_instructions: 10_000,
    measure_instructions: 40_000,
};

/// Long enough for two and a half periods of the default schedule.
const LONG: SimConfig = SimConfig {
    warmup_instructions: 20_000,
    measure_instructions: 100_000,
};

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>, mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of the Debug renderings of `items`, in order.
fn fnv_debug<T: std::fmt::Debug>(items: impl IntoIterator<Item = T>) -> u64 {
    items.into_iter().fold(FNV_OFFSET, |h, item| {
        fnv1a(format!("{item:?}\n").into_bytes(), h)
    })
}

fn server(seed: u64) -> Box<dyn InstructionStream> {
    Box::new(ServerWorkload::new(ServerWorkloadConfig::qmm_like(
        format!("pin{seed}"),
        seed,
    )))
}

fn smt_pair() -> Vec<Box<dyn InstructionStream>> {
    let (a, b) = suites::smt_pairs(1).remove(0);
    vec![
        Box::new(ServerWorkload::new(a)),
        Box::new(ServerWorkload::new(b)),
    ]
}

fn morrigan() -> Box<dyn TlbPrefetcher> {
    Box::new(Morrigan::new(MorriganConfig::default()))
}

fn switching(interval: Option<u64>) -> SystemConfig {
    SystemConfig {
        context_switch_interval: interval,
        ..SystemConfig::default()
    }
}

fn sampled((detail, skip): (u64, u64)) -> Option<SamplingConfig> {
    Some(SamplingConfig { detail, skip })
}

/// One pinned run.
struct Case {
    name: String,
    system: SystemConfig,
    workloads: Vec<Box<dyn InstructionStream>>,
    prefetcher: Box<dyn TlbPrefetcher>,
    sampling: Option<SamplingConfig>,
    interval: Option<u64>,
    cfg: SimConfig,
}

impl Case {
    fn new(name: impl Into<String>, workloads: Vec<Box<dyn InstructionStream>>) -> Self {
        Self {
            name: name.into(),
            system: SystemConfig::default(),
            workloads,
            prefetcher: morrigan(),
            sampling: None,
            interval: None,
            cfg: SHORT,
        }
    }

    /// Runs the case with `rec` attached and renders its section.
    fn render<R: Recorder>(self, rec: R, doc: &mut String) -> Simulator<R> {
        let mut sim = Simulator::with_recorder(self.system, self.workloads, self.prefetcher, rec);
        sim.set_audit(true);
        sim.set_sampling(self.sampling);
        sim.set_interval(self.interval);
        let metrics = sim.run(self.cfg);
        let audit = sim.audit_report().expect("audit was enabled").render();
        writeln!(doc, "== {} ==", self.name).unwrap();
        writeln!(doc, "metrics: {metrics:?}").unwrap();
        writeln!(doc, "audit: {audit}").unwrap();
        if self.interval.is_some() {
            let epochs = sim.interval_samples();
            let sum = epochs
                .iter()
                .fold(Metrics::default(), |acc, e| acc + e.metrics);
            assert_eq!(sum, metrics, "{}: epochs must sum to the window", self.name);
            writeln!(
                doc,
                "intervals: {} fnv {:016x}",
                epochs.len(),
                fnv_debug(epochs)
            )
            .unwrap();
        }
        sim
    }
}

/// The untraced grid.
fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for cs in SWITCHES {
        cases.push(Case {
            system: switching(cs),
            ..Case::new(format!("server full cs={cs:?}"), vec![server(7)])
        });
        for schedule in SCHEDULES {
            cases.push(Case {
                system: switching(cs),
                sampling: sampled(schedule),
                ..Case::new(
                    format!("server sampled {schedule:?} cs={cs:?}"),
                    vec![server(7)],
                )
            });
        }
    }
    for cs in [None, Some(7_919)] {
        cases.push(Case {
            system: switching(cs),
            sampling: Some(SamplingConfig::default_schedule()),
            cfg: LONG,
            ..Case::new(
                format!("server sampled 12500:37500 cs={cs:?}"),
                vec![server(3)],
            )
        });
    }

    let smt = |name: &str| Case {
        prefetcher: Box::new(Morrigan::new(MorriganConfig::smt())),
        ..Case::new(format!("smt {name}"), smt_pair())
    };
    cases.push(smt("full"));
    cases.push(Case {
        sampling: sampled((137, 1_999)),
        ..smt("sampled (137, 1999)")
    });
    cases.push(Case {
        system: switching(Some(2_917)),
        ..smt("full cs=2917")
    });
    cases.push(Case {
        system: switching(Some(500)),
        sampling: sampled((300, 1_700)),
        ..smt("sampled (300, 1700) cs=500")
    });
    cases.push(Case {
        interval: Some(2_917),
        ..smt("full interval=2917")
    });

    let fnl = SystemConfig {
        icache_prefetcher: IcachePrefetcherKind::FnlMma {
            translation_cost: true,
        },
        ..SystemConfig::default()
    };
    cases.push(Case {
        system: fnl,
        ..Case::new("fnl+mma full", vec![server(5)])
    });
    cases.push(Case {
        system: fnl,
        sampling: sampled((300, 1_700)),
        ..Case::new("fnl+mma sampled (300, 1700)", vec![server(5)])
    });

    let spec = || -> Vec<Box<dyn InstructionStream>> {
        vec![Box::new(SpecWorkload::new(SpecWorkloadConfig::spec_like(
            "pin-spec", 2,
        )))]
    };
    cases.push(Case::new("spec full", spec()));
    cases.push(Case {
        sampling: sampled((50, 50)),
        ..Case::new("spec sampled (50, 50)", spec())
    });

    // Replay derives its page runs while it decodes, not by a scan.
    let total =
        SHORT.warmup_instructions + SHORT.measure_instructions + morrigan_workloads::REPLAY_SLACK;
    let trace = Arc::new(PackedTrace::capture(&mut *server(9), total));
    cases.push(Case {
        system: switching(Some(2_917)),
        sampling: sampled((137, 1_999)),
        ..Case::new(
            "replay sampled (137, 1999) cs=2917",
            vec![Box::new(PackedReplay::new(trace))],
        )
    });

    cases.push(Case {
        interval: Some(3_000),
        ..Case::new("server full interval=3000", vec![server(7)])
    });
    cases
}

/// Traced runs: the full MMU event stream, cycle stamps included.
fn traced_cases() -> Vec<Case> {
    let cfg = SimConfig {
        warmup_instructions: 10_000,
        measure_instructions: 40_000,
    };
    vec![
        Case {
            system: switching(Some(7_919)),
            cfg,
            ..Case::new("traced server full cs=7919", vec![server(7)])
        },
        Case {
            sampling: sampled((300, 1_700)),
            cfg,
            ..Case::new("traced server sampled (300, 1700)", vec![server(11)])
        },
    ]
}

fn document() -> String {
    let mut doc = String::new();
    for case in cases() {
        case.render(NullRecorder, &mut doc);
    }
    for case in traced_cases() {
        let rec = case.render(TraceRecorder::new(), &mut doc).into_recorder();
        assert_eq!(rec.dropped(), 0, "the pin needs the whole event stream");
        writeln!(
            doc,
            "events: {} fnv {:016x}",
            rec.len(),
            fnv_debug(rec.events())
        )
        .unwrap();
    }
    doc
}

#[test]
fn stepping_matches_the_per_instruction_fixture() {
    let fixture = include_str!("fixtures/stepping_pin.txt");
    let current = document();
    let mut case = "";
    for (want, got) in fixture.lines().zip(current.lines()) {
        if want.starts_with("== ") {
            case = want;
        }
        assert_eq!(got, want, "stepping pin drifted in case {case}");
    }
    assert_eq!(
        current.lines().count(),
        fixture.lines().count(),
        "stepping pin case list changed"
    );
}
