//! Property tests pinning the materialized-trace contract: for any
//! workload configuration and any consumption pattern, a [`PackedReplay`]
//! over a captured [`PackedTrace`] emits *exactly* the live generator's
//! sequence — including across the warmup/measure boundary, which is
//! just another index in the stream as far as the trace is concerned.
//!
//! This is the property the runner's workload cache rests on: if replay
//! and live generation ever diverge by a single instruction, cached and
//! uncached figure outputs split, and the `figures --json` byte-identity
//! guarantee breaks.

use std::sync::Arc;

use morrigan_workloads::{
    scan_page_runs, InstructionStream, PackedReplay, PackedTrace, ServerWorkload,
    ServerWorkloadConfig, SpecWorkload, SpecWorkloadConfig, TraceInstruction,
};
use proptest::prelude::*;

/// Drains `n` instructions from a stream via `next_instruction` only.
fn drain(stream: &mut dyn InstructionStream, n: usize) -> Vec<TraceInstruction> {
    (0..n).map(|_| stream.next_instruction()).collect()
}

/// Drains `n` instructions alternating `fill_block` (with the given
/// block sizes, cycled) and single-instruction pulls, mimicking how the
/// simulator's refill loop and tests mix the two entry points.
fn drain_mixed(
    stream: &mut dyn InstructionStream,
    n: usize,
    blocks: &[usize],
) -> Vec<TraceInstruction> {
    let mut out = Vec::with_capacity(n);
    let mut sizes = blocks.iter().cycle();
    while out.len() < n {
        let take = (*sizes.next().expect("cycle never ends")).min(n - out.len());
        if take <= 1 {
            out.push(stream.next_instruction());
        } else {
            stream.fill_block(&mut out, take);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Server workloads: replay equals live generation for arbitrary
    /// seeds, trace lengths, and fill-block size mixes.
    #[test]
    fn server_replay_equals_live(
        seed in 0u64..1_000_000,
        warmup in 500usize..3_000,
        measure in 500usize..5_000,
        b1 in 1usize..2_048,
        b2 in 1usize..2_048,
    ) {
        let cfg = ServerWorkloadConfig::qmm_like(format!("prop-srv-{seed}"), seed);
        let n = warmup + measure;
        let trace = Arc::new(PackedTrace::capture(
            &mut ServerWorkload::new(cfg.clone()),
            n as u64,
        ));
        let expected = drain(&mut ServerWorkload::new(cfg), n);
        let got = drain_mixed(&mut PackedReplay::new(trace), n, &[b1, 1, b2]);
        prop_assert_eq!(got, expected);
    }

    /// SPEC workloads: same property over the loopy generator.
    #[test]
    fn spec_replay_equals_live(
        seed in 0u64..1_000_000,
        n in 1_000usize..8_000,
        block in 1usize..4_096,
    ) {
        let cfg = SpecWorkloadConfig::spec_like(format!("prop-spec-{seed}"), seed);
        let trace = Arc::new(PackedTrace::capture(
            &mut SpecWorkload::new(cfg.clone()),
            n as u64,
        ));
        let expected = drain(&mut SpecWorkload::new(cfg), n);
        let got = drain_mixed(&mut PackedReplay::new(trace), n, &[block]);
        prop_assert_eq!(got, expected);
    }

    /// Two cursors over one shared trace are independent: interleaving
    /// their consumption never cross-contaminates either sequence.
    #[test]
    fn shared_trace_cursors_are_independent(
        seed in 0u64..1_000_000,
        n in 500usize..3_000,
        block in 1usize..512,
    ) {
        let cfg = ServerWorkloadConfig::qmm_like(format!("prop-shr-{seed}"), seed);
        let trace = Arc::new(PackedTrace::capture(
            &mut ServerWorkload::new(cfg.clone()),
            n as u64,
        ));
        let expected = drain(&mut ServerWorkload::new(cfg), n);
        let mut a = PackedReplay::new(Arc::clone(&trace));
        let mut b = PackedReplay::new(trace);
        let mut got_a = Vec::with_capacity(n);
        let mut got_b = Vec::with_capacity(n);
        while got_a.len() < n || got_b.len() < n {
            if got_a.len() < n {
                let take = block.min(n - got_a.len());
                a.fill_block(&mut got_a, take);
            }
            if got_b.len() < n {
                got_b.push(b.next_instruction());
            }
        }
        prop_assert_eq!(&got_a, &expected);
        prop_assert_eq!(&got_b, &expected);
    }

    /// Disk round-trips preserve replay equality: a trace written to the
    /// on-disk cache format and read back replays the same sequence.
    #[test]
    fn disk_round_trip_replays_identically(
        seed in 0u64..100_000,
        n in 500usize..2_500,
    ) {
        let cfg = ServerWorkloadConfig::qmm_like(format!("prop-dsk-{seed}"), seed);
        let trace = PackedTrace::capture(&mut ServerWorkload::new(cfg.clone()), n as u64);
        let key = morrigan_workloads::fnv1a(format!("{cfg:?}|{n}").as_bytes());
        let path = std::env::temp_dir().join(format!(
            "morrigan-prop-{}-{seed}-{n}.mpt",
            std::process::id()
        ));
        trace.write_to(&path, key, 0.5).expect("write");
        let (loaded, _) = PackedTrace::read_from(&path, key).expect("read");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(&loaded, &trace);
        let expected = drain(&mut ServerWorkload::new(cfg), n);
        let got = drain(&mut PackedReplay::new(Arc::new(loaded)), n);
        prop_assert_eq!(got, expected);
    }

    /// Random access: `get(i)` decodes the instruction sequential replay
    /// delivers at `i`, for random positions, the edges of every
    /// 64-instruction word the draw lands in, and the last instruction.
    #[test]
    fn get_equals_sequential_replay(
        seed in 0u64..1_000_000,
        n in 1usize..3_000,
        picks in prop::collection::vec(0usize..1_000_000, 1..40),
    ) {
        let cfg = ServerWorkloadConfig::qmm_like(format!("prop-get-{seed}"), seed);
        let trace = Arc::new(PackedTrace::capture(
            &mut ServerWorkload::new(cfg),
            n as u64,
        ));
        let replayed = drain(&mut PackedReplay::new(Arc::clone(&trace)), n);
        let mut positions = vec![0, n - 1];
        for pick in picks {
            let i = pick % n;
            let word = i / 64 * 64;
            positions.extend([i, word, (word + 63).min(n - 1)]);
        }
        for i in positions {
            prop_assert_eq!(trace.get(i), replayed[i], "position {} of {}", i, n);
        }
    }

    /// Version migration: a stale v1 or v2 file is rejected with an error
    /// naming its version — the exact signal the workload cache's rebuild
    /// fallback keys on — and the rebuilt v3 file round-trips with the
    /// page-run index intact and canonical (equal to a fresh scan of the
    /// decoded instructions).
    #[test]
    fn old_formats_trigger_rebuild_and_v3_keeps_run_index(
        seed in 0u64..100_000,
        n in 500usize..2_500,
        version in 1u8..3,
    ) {
        let cfg = ServerWorkloadConfig::qmm_like(format!("prop-v12-{seed}"), seed);
        let trace = PackedTrace::capture(&mut ServerWorkload::new(cfg.clone()), n as u64);
        let key = morrigan_workloads::fnv1a(format!("{cfg:?}|{n}").as_bytes());
        let path = std::env::temp_dir().join(format!(
            "morrigan-prop-v12-{}-{seed}-{n}.mpt",
            std::process::id()
        ));
        // An older file differs from a v3 one in its magic first.
        trace.write_to(&path, key, 0.5).expect("write");
        let mut bytes = std::fs::read(&path).expect("read back");
        bytes[7] = b'0' + version;
        std::fs::write(&path, &bytes).expect("write old magic");
        let err = PackedTrace::read_from(&path, key).expect_err("old formats must be rejected");
        prop_assert!(
            err.to_string().contains(&format!("v{version}")),
            "rebuild trigger must name the stale version, got: {}", err
        );

        // The cache's fallback path: rebuild in place and persist as v3.
        trace.write_to(&path, key, 0.5).expect("write v3");
        let (loaded, _) = PackedTrace::read_from(&path, key).expect("read v3");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(loaded.irun_ends(), trace.irun_ends());
        prop_assert_eq!(loaded.drun_ends(), trace.drun_ends());
        prop_assert_eq!(&loaded, &trace);

        // The persisted index must agree with a fresh scan of the decoded
        // instructions, so replay-side run consumption sees the same
        // spans a live generator would produce.
        let instrs: Vec<_> = (0..n).map(|i| loaded.get(i)).collect();
        let (mut si, mut sd) = (Vec::new(), Vec::new());
        scan_page_runs(&instrs, &mut si, &mut sd);
        prop_assert_eq!(loaded.irun_ends(), si);
        prop_assert_eq!(loaded.drun_ends(), sd);
    }
}
