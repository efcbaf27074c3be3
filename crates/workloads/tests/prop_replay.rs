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

    /// Page runs derived on replay: for server and SPEC captures of any
    /// length, at any mix of take sizes (single instructions, mid-word
    /// cuts, the simulator's 1024, and the rest of the trace),
    /// `fill_block_runs` returns exactly the partition `scan_page_runs`
    /// finds over the block it delivered.
    #[test]
    fn fill_block_runs_equals_a_fresh_scan_of_the_block(
        seed in 0u64..1_000_000,
        spec in any::<bool>(),
        words in 1usize..200,
        tail in 1usize..64,
        takes in prop::collection::vec((0u8..4, 2usize..64), 1..12),
    ) {
        // Never a whole number of words.
        let n = words * 64 + tail;
        let trace = Arc::new(if spec {
            let cfg = SpecWorkloadConfig::spec_like(format!("prop-runs-{seed}"), seed);
            PackedTrace::capture(&mut SpecWorkload::new(cfg), n as u64)
        } else {
            let cfg = ServerWorkloadConfig::qmm_like(format!("prop-runs-{seed}"), seed);
            PackedTrace::capture(&mut ServerWorkload::new(cfg), n as u64)
        });
        let mut replay = PackedReplay::new(trace);
        let (mut block, mut iruns, mut druns) = (Vec::new(), Vec::new(), Vec::new());
        let (mut scan_i, mut scan_d) = (Vec::new(), Vec::new());
        let mut done = 0;
        for &(kind, mid_word) in takes.iter().cycle() {
            if done == n {
                break;
            }
            let take = match kind {
                0 => 1,
                1 => mid_word,
                2 => 1024,
                _ => n,
            }
            .min(n - done);
            block.clear();
            replay.fill_block_runs(&mut block, &mut iruns, &mut druns, take);
            scan_i.clear();
            scan_d.clear();
            scan_page_runs(&block, &mut scan_i, &mut scan_d);
            prop_assert_eq!(&iruns, &scan_i, "i-runs of {} at {} of {}", take, done, n);
            prop_assert_eq!(&druns, &scan_d, "d-runs of {} at {} of {}", take, done, n);
            done += take;
        }
    }
}
