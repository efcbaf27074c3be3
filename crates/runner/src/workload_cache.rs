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
//! Three layers, each optional:
//!
//! * **off** — [`WorkloadCache::disabled`] (`figures
//!   --no-workload-cache` / `MORRIGAN_NO_WORKLOAD_CACHE=1`): every
//!   consumer generates live, exactly as before the cache existed;
//! * **in-memory** — the default for a [`Runner`](crate::Runner):
//!   traces live for the invocation, shared across worker threads;
//! * **on-disk** — [`WorkloadCache::with_disk`], opt-in via
//!   `MORRIGAN_WORKLOAD_CACHE=<dir>`: traces are also persisted in the
//!   versioned, hash-verified `.mpt` format for cross-invocation reuse. A corrupted or stale file is detected
//!   (magic/key/content hash), logged, and rebuilt — never fatal, never
//!   silently replayed.
//!
//! Correctness does not depend on any of this: replay emits byte-for-byte
//! the live generator's sequence (pinned by the workloads proptests and
//! the `workload_cache` equivalence suite), so cached and uncached runs
//! produce identical records. The cache only moves wall time around.
//!
//! [`RunSpec`]: crate::RunSpec

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use morrigan_workloads::{fnv1a, InstructionStream, PackedReplay, PackedTrace, REPLAY_SLACK};

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
    /// Seconds one live generation of this trace costs — measured here
    /// when built in-process, or carried in the file header when loaded
    /// from disk. Basis for the "generation seconds saved" estimate.
    build_seconds: f64,
}

/// Counters summarizing what the cache did, for the `figures` summary
/// line and the throughput bench.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkloadCacheStats {
    /// Distinct traces materialized by running a generator this
    /// invocation.
    pub built: u64,
    /// Distinct traces loaded from the on-disk cache.
    pub loaded_from_disk: u64,
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
    disk_dir: Option<PathBuf>,
    max_resident_bytes: u64,
    slots: Mutex<HashMap<String, Arc<Slot>>>,
    resident_bytes: AtomicU64,
    built: AtomicU64,
    loaded_from_disk: AtomicU64,
    streams_served: AtomicU64,
    live_fallbacks: AtomicU64,
    seconds: Mutex<(f64, f64)>, // (build_seconds, saved_seconds)
}

impl WorkloadCache {
    /// A cache that never materializes: every request generates live.
    pub fn disabled() -> Self {
        Self::with_options(false, None, DEFAULT_MAX_RESIDENT_BYTES)
    }

    /// The default: materialize in memory, no disk persistence.
    pub fn in_memory() -> Self {
        Self::with_options(true, None, DEFAULT_MAX_RESIDENT_BYTES)
    }

    /// Materialize in memory and persist traces under `dir` for
    /// cross-invocation reuse (created on first write).
    pub fn with_disk(dir: impl Into<PathBuf>) -> Self {
        Self::with_options(true, Some(dir.into()), DEFAULT_MAX_RESIDENT_BYTES)
    }

    fn with_options(enabled: bool, disk_dir: Option<PathBuf>, max_resident_bytes: u64) -> Self {
        WorkloadCache {
            enabled,
            disk_dir,
            max_resident_bytes,
            slots: Mutex::new(HashMap::new()),
            resident_bytes: AtomicU64::new(0),
            built: AtomicU64::new(0),
            loaded_from_disk: AtomicU64::new(0),
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
            loaded_from_disk: self.loaded_from_disk.load(Ordering::Relaxed),
            streams_served: self.streams_served.load(Ordering::Relaxed),
            live_fallbacks: self.live_fallbacks.load(Ordering::Relaxed),
            build_seconds,
            saved_seconds,
        }
    }

    /// Distinct traces materialized (built or disk-loaded) so far.
    pub fn materialized(&self) -> u64 {
        self.built.load(Ordering::Relaxed) + self.loaded_from_disk.load(Ordering::Relaxed)
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
    /// The first caller for a key materializes (loading from disk when a
    /// valid file exists); concurrent callers for the same key block on
    /// that build rather than duplicating it.
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

    /// Builds (or disk-loads) the trace for one slot; `None` means the
    /// trace would exceed the resident budget and this key permanently
    /// falls back to live generation.
    fn materialize(
        &self,
        full_key: &str,
        len: u64,
        build: &impl Fn() -> Box<dyn InstructionStream>,
    ) -> Option<Materialized> {
        // Reserve the projected size before loading or building:
        // concurrent materializations of different keys each see the
        // others' reservations, so together they never pass the budget.
        // Once the trace exists its actual resident bytes replace the
        // charge.
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

        let key_hash = fnv1a(full_key.as_bytes());
        let path = self.disk_path(full_key, key_hash);
        if let Some(path) = &path {
            match PackedTrace::read_from(path, key_hash) {
                Ok((trace, build_seconds)) if trace.len() == len => {
                    self.loaded_from_disk.fetch_add(1, Ordering::Relaxed);
                    self.settle(projected, &trace);
                    return Some(Materialized {
                        trace: Arc::new(trace),
                        build_seconds,
                    });
                }
                Ok(_) => eprintln!(
                    "[workload-cache] {} has the right key but the wrong length; rebuilding",
                    path.display()
                ),
                // A missing file is the common cold-cache case; anything
                // else (corruption, stale format, foreign key) is worth a
                // line before the non-fatal rebuild.
                Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
                Err(err) => eprintln!(
                    "[workload-cache] ignoring {} ({err}); rebuilding",
                    path.display()
                ),
            }
        }

        let start = Instant::now();
        let mut live = build();
        let trace = PackedTrace::capture(live.as_mut(), len);
        let build_seconds = start.elapsed().as_secs_f64();
        self.built.fetch_add(1, Ordering::Relaxed);
        self.settle(projected, &trace);
        self.seconds.lock().unwrap().0 += build_seconds;

        if let Some(path) = &path {
            if let Err(err) = write_via_parent(path, &trace, key_hash, build_seconds) {
                eprintln!(
                    "[workload-cache] could not persist {} ({err}); continuing in-memory",
                    path.display()
                );
            }
        }
        Some(Materialized {
            trace: Arc::new(trace),
            build_seconds,
        })
    }

    /// Replaces a trace's `projected` reservation with its actual
    /// resident bytes, adding before subtracting so the total never dips
    /// below what is really held.
    fn settle(&self, projected: u64, trace: &PackedTrace) {
        self.resident_bytes
            .fetch_add(trace.resident_bytes(), Ordering::Relaxed);
        self.resident_bytes.fetch_sub(projected, Ordering::Relaxed);
    }

    /// The on-disk file for a key: `<name-ish prefix>-<key hash>.mpt`.
    /// The hash alone is the identity (and is verified on load); the
    /// prefix only keeps the directory human-readable.
    fn disk_path(&self, full_key: &str, key_hash: u64) -> Option<PathBuf> {
        let dir = self.disk_dir.as_ref()?;
        let prefix: String = full_key
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
            .take(24)
            .collect();
        let prefix = if prefix.is_empty() {
            "trace".to_string()
        } else {
            prefix
        };
        Some(dir.join(format!("{prefix}-{key_hash:016x}.mpt")))
    }
}

/// Creates the cache directory if needed, then writes the trace.
fn write_via_parent(
    path: &Path,
    trace: &PackedTrace,
    key_hash: u64,
    build_seconds: f64,
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    trace.write_to(path, key_hash, build_seconds)
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

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("morrigan-wc-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
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
    fn disk_cache_round_trips_across_instances() {
        let dir = tmpdir("rt");
        let expected = drain(live(5).as_mut(), 3_000);

        let first = WorkloadCache::with_disk(&dir);
        let mut s = first.stream_for("k5", 4_000, || live(5));
        assert_eq!(drain(s.as_mut(), 3_000), expected);
        assert_eq!(first.stats().built, 1);
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 1, "one .mpt file persisted");

        // A fresh cache (fresh invocation) loads instead of building.
        let second = WorkloadCache::with_disk(&dir);
        let mut s = second.stream_for("k5", 4_000, || live(5));
        assert_eq!(drain(s.as_mut(), 3_000), expected);
        let stats = second.stats();
        assert_eq!(stats.built, 0, "served from disk, not rebuilt");
        assert_eq!(stats.loaded_from_disk, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_disk_file_is_rebuilt_not_fatal() {
        let dir = tmpdir("corrupt");
        let expected = drain(live(6).as_mut(), 3_000);

        let first = WorkloadCache::with_disk(&dir);
        let _ = first.stream_for("k6", 4_000, || live(6));
        let path = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let second = WorkloadCache::with_disk(&dir);
        let mut s = second.stream_for("k6", 4_000, || live(6));
        assert_eq!(
            drain(s.as_mut(), 3_000),
            expected,
            "rebuild serves correct data"
        );
        let stats = second.stats();
        assert_eq!(stats.loaded_from_disk, 0, "corrupted file must not load");
        assert_eq!(stats.built, 1);
        // The rebuild rewrote a valid file.
        let third = WorkloadCache::with_disk(&dir);
        let _ = third.stream_for("k6", 4_000, || live(6));
        assert_eq!(third.stats().loaded_from_disk, 1);
        std::fs::remove_dir_all(&dir).ok();
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
