//! Drives the `stlbsim` binary end to end: a run prints what the runner
//! computes for the same spec, and bad arguments fail with a message.

use std::process::{Command, Output};

use morrigan_experiments::{PrefetcherKind, RunSpec};
use morrigan_sim::{SimConfig, SystemConfig};
use morrigan_workloads::ServerWorkloadConfig;

fn stlbsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stlbsim"))
        .args(args)
        .env_remove("MORRIGAN_WORKLOAD_CACHE")
        .output()
        .expect("stlbsim starts")
}

#[test]
fn baseline_run_prints_the_runner_ipc() {
    let out = stlbsim(&[
        "--workload",
        "3",
        "--prefetcher",
        "morrigan",
        "--baseline",
        "--instructions",
        "30000",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stlbsim failed: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 report");

    let cfg = ServerWorkloadConfig::qmm_like("cli-3", 3);
    let sim = SimConfig {
        warmup_instructions: 10_000,
        measure_instructions: 30_000,
    };
    let ipc_line = |kind| {
        let record = RunSpec::server(&cfg, SystemConfig::default(), sim, kind).execute();
        format!("IPC                 {:.4}", record.metrics.ipc())
    };
    let printed: Vec<&str> = stdout.lines().filter(|l| l.starts_with("IPC")).collect();
    assert_eq!(
        printed,
        [
            ipc_line(PrefetcherKind::Morrigan),
            ipc_line(PrefetcherKind::None)
        ]
    );
    assert!(stdout.starts_with("--- morrigan ---\n"), "{stdout}");
    assert!(stdout.contains("--- baseline ---\n"), "{stdout}");
    assert!(stdout.contains("speedup over baseline: "), "{stdout}");
}

#[test]
fn bad_arguments_fail_with_a_message() {
    for args in [
        &["--prefetcher", "bogus"][..],
        &["--instructions", "many"],
        &["--workload", "w7.mtrace"],
        &["--record", "w7.mtrace"],
    ] {
        let out = stlbsim(&[&["--instructions", "1000"], args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        assert!(
            stderr.starts_with("stlbsim: ")
                && (stderr.contains(args[0]) || stderr.contains(args[1])),
            "{args:?} must say what was wrong: {stderr}"
        );
    }
}
