//! `hostbench`: the host-throughput benchmark of the Morrigan simulator.
//!
//! Five workloads ([`WORKLOADS`]) stress different layers of a detail
//! step. Each workload runs in three child processes, one at a time
//! ([`phases`]): an audited *verify* pass that records every spec's
//! result digest, an untraced *timed* pass that measures set-up time,
//! MIPS and peak memory, and a *traced* pass that splits host time into
//! layers. Everything is measured from outside the simulator: timing
//! wrappers around the trait objects the simulator calls
//! ([`trace`]), public counters read after the run, and microkernels
//! that replay operation streams derived from the workload's own traces
//! through freshly built structures ([`kernels`]). [`report`] turns the
//! three outputs into the metrics and the correctness verdict.

pub mod kernels;
pub mod phases;
pub mod report;
pub mod trace;

use std::collections::BTreeMap;

use morrigan_runner::json::record_json;
use morrigan_runner::{PrefetcherKind, RunRecord, RunSpec, WorkloadSpec};
use morrigan_sim::{SamplingConfig, SimConfig, SystemConfig, TopologyConfig};
use morrigan_workloads::{
    fnv1a, suites, AsidStream, InstructionStream, ServerWorkload, ServerWorkloadConfig,
    SpecWorkload,
};

/// Run lengths of a workload's specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lengths {
    /// Each single-core spec (server, SPEC, sampled and SMT workloads).
    pub core: SimConfig,
    /// Each core of the machine workload.
    pub machine: SimConfig,
}

impl Lengths {
    /// The lengths the benchmark measures at: the workspace default run
    /// (2 M warm-up + 6 M measured) per single-core spec, and half of it
    /// per core of the 4-core machine.
    pub const BENCH: Lengths = Lengths {
        core: SimConfig {
            warmup_instructions: 2_000_000,
            measure_instructions: 6_000_000,
        },
        machine: SimConfig {
            warmup_instructions: 1_000_000,
            measure_instructions: 3_000_000,
        },
    };

    /// Lengths short enough for the test suite's debug builds, long
    /// enough that every machine core switches tenants (quantum 50 k).
    pub const TINY: Lengths = Lengths {
        core: SimConfig {
            warmup_instructions: 50_000,
            measure_instructions: 150_000,
        },
        machine: SimConfig {
            warmup_instructions: 40_000,
            measure_instructions: 80_000,
        },
    };
}

/// One benchmark workload: a fixed set of specs executed once per
/// repetition.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    build: fn(u64, &Lengths) -> Vec<RunSpec>,
}

impl Workload {
    /// The workload's specs for input seed `seed`.
    pub fn specs(&self, seed: u64, lengths: &Lengths) -> Vec<RunSpec> {
        (self.build)(seed, lengths)
    }

    /// Whether the specs run under the SMARTS sampling schedule.
    pub fn sampled(&self) -> bool {
        self.name == "sampled"
    }
}

/// The five workloads, in the order the benchmark runs them. Each
/// stresses different layers; README.md gives the reasons in full.
pub const WORKLOADS: [Workload; 5] = [
    // Large code footprints: iSTLB misses, walks, IRIP/SDP and the
    // prefetch buffer are busy.
    Workload {
        name: "server",
        build: server_specs,
    },
    // Code fits the TLBs: prefetcher and walker idle; the cost is the
    // d-side hierarchy and ROB/retire.
    Workload {
        name: "spec",
        build: spec_specs,
    },
    // Three quarters of the instructions take the cache-warming
    // fast-forward.
    Workload {
        name: "sampled",
        build: sampled_specs,
    },
    // The only workload on the per-instruction fallback.
    Workload {
        name: "smt",
        build: smt_specs,
    },
    // Epoch barrier, shared-state replay and shootdowns.
    Workload {
        name: "machine",
        build: machine_specs,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seed `seed` keeps every suite member's footprint and locality
/// parameters and reseeds only its instruction generator, so different
/// seeds give different inputs of the same shape and the host cost
/// stays comparable across seeds. Seed 0 is the suite exactly as the
/// figures run it.
fn reseed(member_seed: u64, seed: u64) -> u64 {
    member_seed.wrapping_add(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn reseeded_server(cfg: &ServerWorkloadConfig, seed: u64) -> ServerWorkloadConfig {
    ServerWorkloadConfig {
        seed: reseed(cfg.seed, seed),
        ..cfg.clone()
    }
}

fn server_specs(seed: u64, lengths: &Lengths) -> Vec<RunSpec> {
    suites::qmm_suite()
        .iter()
        .take(2)
        .map(|cfg| {
            RunSpec::server(
                &reseeded_server(cfg, seed),
                SystemConfig::default(),
                lengths.core,
                PrefetcherKind::Morrigan,
            )
        })
        .collect()
}

fn spec_specs(seed: u64, lengths: &Lengths) -> Vec<RunSpec> {
    suites::spec_suite()
        .iter()
        .take(2)
        .map(|cfg| {
            let mut cfg = cfg.clone();
            cfg.seed = reseed(cfg.seed, seed);
            RunSpec::spec_cpu(
                &cfg,
                SystemConfig::default(),
                lengths.core,
                PrefetcherKind::Morrigan,
            )
        })
        .collect()
}

fn sampled_specs(seed: u64, lengths: &Lengths) -> Vec<RunSpec> {
    server_specs(seed, lengths)
        .into_iter()
        .map(|spec| RunSpec {
            sampling: Some(SamplingConfig::default_schedule()),
            ..spec
        })
        .collect()
}

fn smt_specs(seed: u64, lengths: &Lengths) -> Vec<RunSpec> {
    suites::smt_pairs(2)
        .iter()
        .map(|(a, b)| {
            let pair = (reseeded_server(a, seed), reseeded_server(b, seed));
            RunSpec::smt(
                &pair,
                SystemConfig::default(),
                lengths.core,
                PrefetcherKind::MorriganSmt,
            )
        })
        .collect()
}

/// Context-switch quantum and shootdown interval of the machine
/// workload: fig21's contended topology.
const MACHINE_QUANTUM: u64 = 50_000;
const MACHINE_SHOOTDOWN_INTERVAL: u64 = 100_000;

fn machine_specs(seed: u64, lengths: &Lengths) -> Vec<RunSpec> {
    let mixes = suites::tenant_mixes(4, 2)
        .iter()
        .map(|mix| mix.iter().map(|c| reseeded_server(c, seed)).collect())
        .collect();
    let system = SystemConfig {
        topology: TopologyConfig {
            cores: 4,
            shared_stlb: true,
            llc_shards: 4,
            shootdown_interval: Some(MACHINE_SHOOTDOWN_INTERVAL),
        },
        ..SystemConfig::default()
    };
    vec![RunSpec::multi(
        mixes,
        MACHINE_QUANTUM,
        system,
        lengths.machine,
        PrefetcherKind::Morrigan,
    )]
}

/// One generator behind a spec: the workload cache's key for it, the
/// simulator-level stream it feeds (SMT thread or machine core), and a
/// constructor of the live generator.
pub struct Member {
    /// Key under which `RunSpec::execute_cached` looks the trace up.
    pub key: String,
    /// Index of the simulator-level stream this member feeds.
    pub stream: usize,
    /// Builds the live generator.
    pub build: Box<dyn Fn() -> Box<dyn InstructionStream>>,
}

/// Every generator of `spec`, in the order `RunSpec::execute_cached`
/// serves them. The keys must match the runner's so that set-up leaves
/// the cache warm; the timed phase checks that the warm repetition
/// builds nothing.
pub fn members(spec: &RunSpec) -> Vec<Member> {
    fn server(key: String, stream: usize, cfg: &ServerWorkloadConfig) -> Member {
        let cfg = cfg.clone();
        Member {
            key,
            stream,
            build: Box::new(move || Box::new(ServerWorkload::new(cfg.clone()))),
        }
    }
    match &spec.workload {
        WorkloadSpec::Server(cfg) => vec![server(format!("{cfg:?}"), 0, cfg)],
        WorkloadSpec::Spec(cfg) => {
            let cfg = cfg.clone();
            vec![Member {
                key: format!("{cfg:?}"),
                stream: 0,
                build: Box::new(move || Box::new(SpecWorkload::new(cfg.clone()))),
            }]
        }
        WorkloadSpec::Smt(cfgs) => cfgs
            .iter()
            .enumerate()
            .map(|(thread, cfg)| server(format!("{cfg:?}"), thread, cfg))
            .collect(),
        WorkloadSpec::Multi { mixes, quantum } => {
            let mut asid: u16 = 0;
            let mut out = Vec::new();
            for (core, mix) in mixes.iter().enumerate() {
                for cfg in mix {
                    asid += 1;
                    let (cfg, tag) = (cfg.clone(), asid);
                    out.push(Member {
                        key: format!("{cfg:?}#asid={tag}#quantum={quantum}"),
                        stream: core,
                        build: Box::new(move || {
                            Box::new(AsidStream::new(ServerWorkload::new(cfg.clone()), tag))
                        }),
                    });
                }
            }
            out
        }
    }
}

/// FNV-1a digest of a record's JSON rendering, audit section excluded
/// (the verify phase audits, the others do not; everything else must
/// match byte for byte).
pub fn digest(record: &RunRecord) -> String {
    let mut record = record.clone();
    record.audit = None;
    format!("{:016x}", fnv1a(record_json(&record).as_bytes()))
}

/// What one phase reports to the parent: measured values, result
/// digests by label, and errors found while running.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseOutput {
    /// Measured values by name.
    pub values: BTreeMap<String, f64>,
    /// Result digests by label (`spec0`, `rep3.spec1`, `traced.spec0`).
    pub digests: BTreeMap<String, String>,
    /// Problems the phase detected itself.
    pub errors: Vec<String>,
}

impl PhaseOutput {
    /// Renders the output as the line protocol a child prints.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.values {
            out.push_str(&format!("value {name} {value:?}\n"));
        }
        for (label, hex) in &self.digests {
            out.push_str(&format!("digest {label} {hex}\n"));
        }
        for error in &self.errors {
            out.push_str(&format!("error {}\n", error.replace('\n', " ")));
        }
        out
    }

    /// Parses the line protocol back.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut out = PhaseOutput::default();
        for line in text.lines().filter(|l| !l.is_empty()) {
            let mut parts = line.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("value"), Some(name), Some(value)) => {
                    let value = value
                        .parse()
                        .map_err(|_| format!("bad value line `{line}`"))?;
                    out.values.insert(name.to_string(), value);
                }
                (Some("digest"), Some(label), Some(hex)) => {
                    out.digests.insert(label.to_string(), hex.to_string());
                }
                (Some("error"), Some(first), rest) => out
                    .errors
                    .push(rest.map_or(first.to_string(), |r| format!("{first} {r}"))),
                _ => return Err(format!("bad line `{line}`")),
            }
        }
        Ok(out)
    }
}

/// The median and the first and third quartiles of `values`, computed
/// as Python's `statistics.quantiles(values, n=4)` (exclusive method)
/// and `statistics.median` do.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n == 1 {
        return (v[0], median, v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), median, q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn phase_output_round_trips() {
        let mut out = PhaseOutput::default();
        out.values.insert("mips".into(), 12.345678901234);
        out.digests.insert("rep0.spec1".into(), "00ff".into());
        out.errors.push("setup left the cache cold".into());
        assert_eq!(PhaseOutput::parse(&out.to_lines()), Ok(out));
        assert!(PhaseOutput::parse("value mips twelve").is_err());
    }

    #[test]
    fn seed_zero_is_the_suite_and_other_seeds_only_reseed() {
        let base = server_specs(0, &Lengths::TINY);
        let WorkloadSpec::Server(cfg) = &base[0].workload else {
            unreachable!()
        };
        assert_eq!(*cfg, suites::qmm_suite()[0]);
        let other = server_specs(1, &Lengths::TINY);
        let WorkloadSpec::Server(moved) = &other[0].workload else {
            unreachable!()
        };
        assert_ne!(moved.seed, cfg.seed);
        assert_eq!(moved.code_pages, cfg.code_pages);
    }
}
