//! The resident-byte budget holds when traces are materialized
//! concurrently: two workers building different keys at the same time
//! must not both pass a budget that fits only one of them.

use std::sync::Barrier;

use morrigan_runner::WorkloadCache;
use morrigan_workloads::{InstructionStream, PackedTrace, ServerWorkload, ServerWorkloadConfig};

const LEN: u64 = 20_000;

#[test]
fn concurrent_builds_share_one_budget() {
    let budget = PackedTrace::projected_bytes(LEN) * 3 / 2;
    let cache = WorkloadCache::in_memory().with_max_resident_bytes(budget);
    // Each build closure waits for the other thread's, so both requests
    // are in flight together. The one that fits builds; the other falls
    // back to live generation, whose build call releases the barrier.
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        for seed in [1, 2] {
            let (cache, barrier) = (&cache, &barrier);
            scope.spawn(move || {
                let build = || -> Box<dyn InstructionStream> {
                    barrier.wait();
                    Box::new(ServerWorkload::new(ServerWorkloadConfig::qmm_like(
                        format!("budget-{seed}"),
                        seed,
                    )))
                };
                let mut stream = cache.stream_for(&format!("budget-{seed}"), LEN, build);
                stream.next_instruction();
            });
        }
    });
    let stats = cache.stats();
    assert_eq!(stats.built, 1, "only one trace fits the budget");
    assert_eq!(stats.live_fallbacks, 1, "the other request generates live");
}
