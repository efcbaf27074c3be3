//! Drives the `figures` binary end to end: a removed flag is rejected
//! as unknown, and a zero trace budget generates every stream live
//! without a word about materialization.

use std::process::{Command, Output};

/// Runs `figures` with `args` and `vars` as the only `MORRIGAN_*`
/// variables, so the caller's environment cannot change the run.
fn figures(args: &[&str], vars: &[(&str, &str)]) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_figures"));
    for (name, _) in std::env::vars() {
        if name.starts_with("MORRIGAN_") {
            command.env_remove(name);
        }
    }
    command
        .args(args)
        .envs(vars.iter().copied())
        .output()
        .expect("figures starts")
}

#[test]
fn the_sample_flag_is_unknown() {
    let out = figures(&["--sample", "12500:37500", "fig02"], &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "--sample must fail: {stderr}");
    assert!(out.stdout.is_empty(), "--sample ran a figure");
    assert!(
        stderr.starts_with("unknown flag '--sample' — did you mean '"),
        "{stderr}"
    );
}

#[test]
fn a_zero_budget_generates_live_without_skip_messages() {
    let out = figures(
        &["fig02"],
        &[
            ("MORRIGAN_INSTR", "60000"),
            ("MORRIGAN_WORKLOADS", "2"),
            ("MORRIGAN_WORKLOAD_CACHE_MB", "0"),
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "fig02 failed: {stderr}");
    assert!(!stderr.contains("skipping materialization"), "{stderr}");
    assert!(
        stderr.contains("; 0 distinct workloads materialized serving 0 streams"),
        "{stderr}"
    );
}
