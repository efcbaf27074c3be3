//! The workload-trace cache: materialize each distinct workload once,
//! replay it everywhere.
//!
//! A `figures` invocation executes hundreds of [`RunSpec`]s but only a
//! few dozen *distinct workloads* — a figure that sweeps ten prefetcher
//! configurations over one workload used to regenerate the same
//! instruction stream ten times. [`WorkloadCache`] keys a
//! [`PackedTrace`] by workload-config content + capture length, builds
//! it at most once per distinct workload per invocation (concurrent
//! workers block on the same build instead of duplicating it), and hands
//! every consumer an `Arc`-shared [`PackedReplay`] cursor. Aggregate
//! workload-generation cost drops from O(runs) to O(distinct workloads).
//!
//! Two modes:
//!
//! * **off** — [`WorkloadCache::disabled`] (`figures
//!   --no-workload-cache` / `MORRIGAN_NO_WORKLOAD_CACHE=1`): every
//!   consumer generates live, exactly as before the cache existed;
//! * **in-memory** — the default for a [`Runner`](crate::Runner):
//!   traces live for the invocation, shared across worker threads.
//!
//! Correctness does not depend on any of this: replay emits byte-for-byte
//! the live generator's sequence (pinned by the workloads proptests and
//! the `workload_cache` equivalence suite), so cached and uncached runs
//! produce identical records. The cache only moves wall time around.
//!
//! [`RunSpec`]: crate::RunSpec

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use morrigan_workloads::{InstructionStream, PackedReplay, PackedTrace, REPLAY_SLACK};

/// Default resident-byte budget for materialized traces (2 GiB).
///
/// At figure scale a trace is a few MiB and the whole suite fits with
/// room to spare. At paper scale a trace of 150 M instructions takes
/// about 0.25 GB and is charged 0.30 GB up front
/// ([`PackedTrace::projected_bytes`]), so seven fit; the budget makes
/// further workloads fall back to live generation instead of exhausting
/// host memory. Tunable via `MORRIGAN_WORKLOAD_CACHE_MB`.
const DEFAULT_MAX_RESIDENT_BYTES: u64 = 2 << 30;

/// One cache slot: a build-once cell plus serve accounting.
///
/// `None` inside the cell records a deliberate *skip* decision (the
/// trace would blow the resident budget), so every later consumer takes
/// the live-generation fallback without re-deciding.
struct Slot {
    cell: OnceLock<Option<Materialized>>,
    /// Replay streams handed out from this slot.
    serves: AtomicU64,
}

struct Materialized {
    trace: Arc<PackedTrace>,
    /// Seconds the capture of this trace took: the basis for the
    /// "generation seconds saved" estimate.
    build_seconds: f64,
}

/// Counters summarizing what the cache did, for the `figures` summary
/// line and the throughput bench.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkloadCacheStats {
    /// Distinct traces materialized by running a generator this
    /// invocation.
    pub built: u64,
    /// Replay streams served (every consumer, including the first).
    pub streams_served: u64,
    /// Streams that fell back to live generation (cache disabled or
    /// trace over the resident budget).
    pub live_fallbacks: u64,
    /// Wall seconds spent generating + packing traces this invocation.
    pub build_seconds: f64,
    /// Estimated generation seconds avoided: each serve beyond a trace's
    /// first charges the trace's one-time build cost that the consumer
    /// did *not* pay.
    pub saved_seconds: f64,
}

/// A build-once, replay-many cache of materialized workload traces.
/// Shared by every worker thread of a [`Runner`](crate::Runner).
pub struct WorkloadCache {
    /// `false` disables the cache entirely: every stream is generated
    /// live.
    enabled: bool,
    max_resident_bytes: u64,
    slots: Mutex<HashMap<String, Arc<Slot>>>,
    resident_bytes: AtomicU64,
    built: AtomicU64,
    streams_served: AtomicU64,
    live_fallbacks: AtomicU64,
    seconds: Mutex<(f64, f64)>, // (build_seconds, saved_seconds)
}

impl WorkloadCache {
    /// A cache that never materializes: every request generates live.
    pub fn disabled() -> Self {
        WorkloadCache {
            enabled: false,
            ..Self::in_memory()
        }
    }

    /// The default: materialize in memory.
    pub fn in_memory() -> Self {
        WorkloadCache {
            enabled: true,
            max_resident_bytes: DEFAULT_MAX_RESIDENT_BYTES,
            slots: Mutex::new(HashMap::new()),
            resident_bytes: AtomicU64::new(0),
            built: AtomicU64::new(0),
            streams_served: AtomicU64::new(0),
            live_fallbacks: AtomicU64::new(0),
            seconds: Mutex::new((0.0, 0.0)),
        }
    }

    /// Overrides the resident-byte budget (bytes, not MiB).
    pub fn with_max_resident_bytes(mut self, bytes: u64) -> Self {
        self.max_resident_bytes = bytes;
        self
    }

    /// Whether materialization is on at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The capture length for a run of `warmup + measure` instructions:
    /// the simulator refills in `fill_block` chunks, so the trace carries
    /// [`REPLAY_SLACK`] extra instructions beyond the retired count.
    pub fn trace_len(warmup: u64, measure: u64) -> u64 {
        warmup + measure + REPLAY_SLACK
    }

    /// The cache's counters so far.
    pub fn stats(&self) -> WorkloadCacheStats {
        let (build_seconds, saved_seconds) = *self.seconds.lock().unwrap();
        WorkloadCacheStats {
            built: self.built.load(Ordering::Relaxed),
            streams_served: self.streams_served.load(Ordering::Relaxed),
            live_fallbacks: self.live_fallbacks.load(Ordering::Relaxed),
            build_seconds,
            saved_seconds,
        }
    }

    /// Distinct traces built so far.
    pub fn materialized(&self) -> u64 {
        self.built.load(Ordering::Relaxed)
    }

    /// Returns a stream for the workload identified by `key`: a replay
    /// cursor over the materialized trace when the cache can serve one,
    /// otherwise the `live` fallback stream.
    ///
    /// `key` must losslessly describe the generator's configuration
    /// (callers use the config's `Debug` rendering, the same convention
    /// as [`RunSpec::content_key`](crate::RunSpec::content_key)) and is
    /// combined with `len` so different scales never collide. `build`
    /// constructs the live generator; it is invoked once to capture the
    /// trace, or once per request when falling back.
    ///
    /// The first caller for a key materializes; concurrent callers for
    /// the same key block on that build rather than duplicating it.
    pub fn stream_for(
        &self,
        key: &str,
        len: u64,
        build: impl Fn() -> Box<dyn InstructionStream>,
    ) -> Box<dyn InstructionStream> {
        if !self.enabled {
            self.live_fallbacks.fetch_add(1, Ordering::Relaxed);
            return build();
        }
        let full_key = format!("{key}|trace_len={len}");
        let slot = {
            let mut slots = self.slots.lock().unwrap();
            Arc::clone(slots.entry(full_key.clone()).or_insert_with(|| {
                Arc::new(Slot {
                    cell: OnceLock::new(),
                    serves: AtomicU64::new(0),
                })
            }))
        };
        let entry = slot
            .cell
            .get_or_init(|| self.materialize(&full_key, len, &build));
        match entry {
            Some(m) => {
                let prior = slot.serves.fetch_add(1, Ordering::Relaxed);
                self.streams_served.fetch_add(1, Ordering::Relaxed);
                if prior > 0 {
                    self.seconds.lock().unwrap().1 += m.build_seconds;
                }
                Box::new(PackedReplay::new(Arc::clone(&m.trace)))
            }
            None => {
                self.live_fallbacks.fetch_add(1, Ordering::Relaxed);
                build()
            }
        }
    }

    /// Builds the trace for one slot; `None` means the trace would
    /// exceed the resident budget and this key permanently falls back to
    /// live generation.
    fn materialize(
        &self,
        full_key: &str,
        len: u64,
        build: &impl Fn() -> Box<dyn InstructionStream>,
    ) -> Option<Materialized> {
        // Reserve the projected size before building: concurrent
        // materializations of different keys each see the others'
        // reservations, so together they never pass the budget.
        let projected = PackedTrace::projected_bytes(len);
        let reserved =
            self.resident_bytes
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |resident| {
                    (resident + projected <= self.max_resident_bytes)
                        .then_some(resident + projected)
                });
        if reserved.is_err() {
            eprintln!(
                "[workload-cache] skipping materialization (~{} MiB would exceed the \
                 {} MiB budget; set MORRIGAN_WORKLOAD_CACHE_MB to raise it): {full_key}",
                projected >> 20,
                self.max_resident_bytes >> 20,
            );
            return None;
        }

        let start = Instant::now();
        let trace = PackedTrace::capture(build().as_mut(), len);
        let build_seconds = start.elapsed().as_secs_f64();
        self.built.fetch_add(1, Ordering::Relaxed);
        // The actual resident bytes replace the charge, added before the
        // charge is taken back so the total never dips below what is
        // really held.
        self.resident_bytes
            .fetch_add(trace.resident_bytes(), Ordering::Relaxed);
        self.resident_bytes.fetch_sub(projected, Ordering::Relaxed);
        self.seconds.lock().unwrap().0 += build_seconds;
        Some(Materialized {
            trace: Arc::new(trace),
            build_seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morrigan_workloads::{ServerWorkload, ServerWorkloadConfig, TraceInstruction};

    fn live(seed: u64) -> Box<dyn InstructionStream> {
        Box::new(ServerWorkload::new(ServerWorkloadConfig::qmm_like(
            format!("wc-{seed}"),
            seed,
        )))
    }

    fn drain(stream: &mut dyn InstructionStream, n: usize) -> Vec<TraceInstruction> {
        (0..n).map(|_| stream.next_instruction()).collect()
    }

    #[test]
    fn serves_replays_that_match_live_generation() {
        let cache = WorkloadCache::in_memory();
        let mut a = cache.stream_for("k1", 5_000, || live(1));
        let mut b = cache.stream_for("k1", 5_000, || live(1));
        let expected = drain(live(1).as_mut(), 4_000);
        assert_eq!(drain(a.as_mut(), 4_000), expected);
        assert_eq!(drain(b.as_mut(), 4_000), expected);
        let stats = cache.stats();
        assert_eq!(stats.built, 1, "one build for two serves");
        assert_eq!(stats.streams_served, 2);
        assert_eq!(stats.live_fallbacks, 0);
        assert!(stats.saved_seconds > 0.0, "second serve counts as saved");
    }

    #[test]
    fn disabled_cache_always_generates_live() {
        let cache = WorkloadCache::disabled();
        let mut s = cache.stream_for("k1", 5_000, || live(2));
        assert_eq!(drain(s.as_mut(), 100), drain(live(2).as_mut(), 100));
        let stats = cache.stats();
        assert_eq!(stats.built, 0);
        assert_eq!(stats.live_fallbacks, 1);
    }

    #[test]
    fn distinct_keys_and_lengths_do_not_collide() {
        let cache = WorkloadCache::in_memory();
        let _ = cache.stream_for("k1", 5_000, || live(1));
        let _ = cache.stream_for("k2", 5_000, || live(2));
        let _ = cache.stream_for("k1", 6_000, || live(1));
        assert_eq!(cache.stats().built, 3);
        assert_eq!(cache.materialized(), 3);
    }

    #[test]
    fn over_budget_traces_fall_back_to_live() {
        let cache = WorkloadCache::in_memory().with_max_resident_bytes(1024);
        let mut s = cache.stream_for("big", 5_000, || live(3));
        assert_eq!(drain(s.as_mut(), 100), drain(live(3).as_mut(), 100));
        let stats = cache.stats();
        assert_eq!(stats.built, 0);
        assert_eq!(stats.live_fallbacks, 1);
        // The skip decision is cached too.
        let _ = cache.stream_for("big", 5_000, || live(3));
        assert_eq!(cache.stats().live_fallbacks, 2);
    }

    #[test]
    fn concurrent_requests_build_once() {
        let cache = std::sync::Arc::new(WorkloadCache::in_memory());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    let mut s = cache.stream_for("racy", 6_000, || live(7));
                    drain(s.as_mut(), 1_000)
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.built, 1, "OnceLock serializes the build");
        assert_eq!(stats.streams_served, 8);
    }
}
