//! The worker-pool scheduler and deduplicating result cache.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use morrigan_obs::PhaseProfile;
use morrigan_sim::{ElisionCounters, SamplingConfig};

use crate::spec::{Execution, Observer, RunRecord, RunSpec};
use crate::workload_cache::{WorkloadCache, WorkloadCacheStats};

/// Executes [`RunSpec`] batches on a pool of worker threads, memoizing
/// results by spec content.
///
/// One `Runner` is shared across a whole `figures` invocation, so a spec
/// that several figures declare (the no-prefetch baseline, the default
/// Morrigan point, …) is simulated exactly once and every consumer gets
/// the same [`Arc<RunRecord>`].
///
/// # Determinism
///
/// Batch results are bitwise-identical regardless of worker count or
/// completion order: each job builds and owns its own `Simulator` (no
/// shared mutable simulation state), and results are keyed and returned
/// by spec — never by arrival order. `run_batch` returns records in the
/// order the specs were given.
pub struct Runner {
    threads: usize,
    verbose: bool,
    /// Interval-sampler epoch length applied to every executed spec;
    /// `None` (the default) disables sampling. Part of the cache key
    /// contract: it is fixed at construction, so every cached record was
    /// produced under the same sampling setting.
    interval: Option<u64>,
    /// Default SMARTS sampled-simulation schedule for specs that don't
    /// pin one themselves; `None` (the default) runs full detailed
    /// timing. Construction-time only, same cache-key contract as
    /// `interval`.
    sampling: Option<SamplingConfig>,
    /// Host-thread budget handed to each multi-core [`Machine`]'s epoch
    /// driver; `None` (the default) lets the machine auto-size to
    /// min(cores, available parallelism). Never part of the cache key:
    /// the epoch protocol is bit-deterministic at any width, so records
    /// are identical whatever this is set to.
    ///
    /// [`Machine`]: morrigan_sim::Machine
    machine_threads: Option<usize>,
    cache: Mutex<HashMap<String, Arc<RunRecord>>>,
    /// Records every record handed out, in request order, across batches.
    /// Lets callers attribute records to request ranges (the `figures`
    /// binary uses watermarks over this journal for its `--json` output).
    journal: Mutex<Vec<Arc<RunRecord>>>,
    sims_executed: AtomicU64,
    cache_hits: AtomicU64,
    instructions_simulated: AtomicU64,
    /// Host wall-time phase split summed over every *executed* simulation
    /// (cached records add nothing — no simulation ran).
    phase_totals: Mutex<PhaseProfile>,
    /// Page-run probe/elision counters summed over every *executed*
    /// simulation (same accounting discipline as `phase_totals`).
    elision_totals: Mutex<ElisionCounters>,
    /// Materialized workload traces shared across worker threads: each
    /// distinct workload is generated once per invocation and replayed
    /// by every spec that uses it. Defaults to in-memory; see
    /// [`Runner::with_workload_cache`] for the disabled variant.
    workloads: WorkloadCache,
}

impl Runner {
    /// A runner with a fixed worker count (`0` is clamped to `1`).
    pub fn new(threads: usize) -> Self {
        Runner {
            threads: threads.max(1),
            verbose: false,
            interval: None,
            sampling: None,
            machine_threads: None,
            cache: Mutex::new(HashMap::new()),
            journal: Mutex::new(Vec::new()),
            sims_executed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            instructions_simulated: AtomicU64::new(0),
            phase_totals: Mutex::new(PhaseProfile::new()),
            elision_totals: Mutex::new(ElisionCounters::default()),
            workloads: WorkloadCache::in_memory(),
        }
    }

    /// Enables or disables per-job progress narration on stderr.
    pub fn verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// Sets the interval-sampler epoch length applied to every spec this
    /// runner executes (`None` disables sampling).
    ///
    /// Construction-time only, so the result cache stays sound: all
    /// cached records share one sampling configuration.
    ///
    /// # Panics
    ///
    /// Panics on `Some(0)`, or when a sampled-simulation schedule is also
    /// configured (the two telemetry modes are mutually exclusive).
    pub fn with_interval(mut self, interval: Option<u64>) -> Self {
        assert!(
            interval != Some(0),
            "sampling interval must be positive when set"
        );
        assert!(
            interval.is_none() || self.sampling.is_none(),
            "interval time-series and sampled simulation are mutually exclusive \
             (MORRIGAN_INTERVAL vs MORRIGAN_SAMPLE)"
        );
        self.interval = interval;
        self
    }

    /// The interval-sampler epoch length applied to executed specs.
    pub fn interval(&self) -> Option<u64> {
        self.interval
    }

    /// Sets the default SMARTS sampled-simulation schedule for specs that
    /// don't pin one themselves (`None` runs full detailed timing).
    ///
    /// Construction-time only — same cache-key contract as
    /// [`Runner::with_interval`]. The two telemetry modes are mutually
    /// exclusive per simulator, so a runner configured with both rejects
    /// the combination here rather than deep inside a worker.
    ///
    /// # Panics
    ///
    /// Panics when an interval is also configured.
    pub fn with_sampling(mut self, sampling: Option<SamplingConfig>) -> Self {
        assert!(
            sampling.is_none() || self.interval.is_none(),
            "interval time-series and sampled simulation are mutually exclusive \
             (MORRIGAN_INTERVAL vs MORRIGAN_SAMPLE)"
        );
        self.sampling = sampling;
        self
    }

    /// The default sampled-simulation schedule applied to executed specs.
    pub fn sampling(&self) -> Option<SamplingConfig> {
        self.sampling
    }

    /// Sets the host-thread budget each multi-core machine's epoch
    /// driver may use (`None` auto-sizes to min(cores, available
    /// parallelism)). Thread width never changes results — only
    /// wall-clock time — so this is *not* part of the cache key; it does
    /// shrink the worker pool so that pool width × machine threads stays
    /// within this runner's thread budget.
    ///
    /// # Panics
    ///
    /// Panics on `Some(0)`.
    pub fn with_machine_threads(mut self, machine_threads: Option<usize>) -> Self {
        assert!(
            machine_threads != Some(0),
            "machine threads must be positive when set"
        );
        self.machine_threads = machine_threads;
        self
    }

    /// The per-machine host-thread budget applied to multi-core specs.
    pub fn machine_threads(&self) -> Option<usize> {
        self.machine_threads
    }

    /// Replaces the workload-trace cache (construction-time only, like
    /// the interval, so every executed spec shares one configuration).
    /// Pass [`WorkloadCache::disabled`] to force live generation.
    pub fn with_workload_cache(mut self, cache: WorkloadCache) -> Self {
        self.workloads = cache;
        self
    }

    /// The workload-trace cache shared by this runner's workers.
    pub fn workload_cache(&self) -> &WorkloadCache {
        &self.workloads
    }

    /// How this runner executes a spec — its interval, default sampling
    /// schedule, machine threads and workload cache — with `observer`
    /// attached. An observed re-run of a journaled spec under this
    /// replays the traces the runner already built and reproduces the
    /// journaled record.
    pub fn execution(&self, observer: Observer) -> Execution<'_> {
        Execution {
            interval: self.interval,
            sampling: self.sampling,
            machine_threads: self.machine_threads,
            cache: &self.workloads,
            observer,
        }
    }

    /// The workload cache's counters: distinct traces materialized,
    /// replay streams served, estimated generation seconds saved.
    pub fn workload_cache_stats(&self) -> WorkloadCacheStats {
        self.workloads.stats()
    }

    /// The host wall-time phase split summed over every simulation this
    /// runner actually executed (cache hits contribute nothing).
    pub fn phase_totals(&self) -> PhaseProfile {
        *self.phase_totals.lock().unwrap()
    }

    /// Page-run probe/elision counters summed over every simulation this
    /// runner actually executed (cache hits contribute nothing).
    pub fn elision_totals(&self) -> ElisionCounters {
        *self.elision_totals.lock().unwrap()
    }

    /// The worker count used for batches.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Simulations actually executed (cache misses) so far.
    pub fn sims_executed(&self) -> u64 {
        self.sims_executed.load(Ordering::Relaxed)
    }

    /// Requests served from the cache (including duplicates within one
    /// batch) so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Total instructions stepped by executed simulations (warmup +
    /// measurement per cache miss; cached records add nothing). The
    /// throughput bench divides this by wall time for its MIPS figures.
    pub fn instructions_simulated(&self) -> u64 {
        self.instructions_simulated.load(Ordering::Relaxed)
    }

    /// Number of records handed out so far; use as a watermark with
    /// [`Runner::journal_since`].
    pub fn journal_len(&self) -> usize {
        self.journal.lock().unwrap().len()
    }

    /// The records handed out since a [`Runner::journal_len`] watermark,
    /// in request order.
    pub fn journal_since(&self, watermark: usize) -> Vec<Arc<RunRecord>> {
        self.journal.lock().unwrap()[watermark..].to_vec()
    }

    /// Executes one spec (through the cache).
    pub fn run_one(&self, spec: &RunSpec) -> Arc<RunRecord> {
        self.run_batch(std::slice::from_ref(spec)).pop().unwrap()
    }

    /// Executes a batch, returning one record per spec **in spec order**.
    ///
    /// Specs already in the cache (or repeated within the batch) are not
    /// re-simulated; the remaining unique specs are distributed over the
    /// worker pool.
    pub fn run_batch(&self, specs: &[RunSpec]) -> Vec<Arc<RunRecord>> {
        let keys: Vec<String> = specs.iter().map(RunSpec::content_key).collect();

        // Collect the unique, not-yet-cached jobs.
        let mut pending: Vec<(usize, &RunSpec)> = Vec::new();
        {
            let cache = self.cache.lock().unwrap();
            let mut claimed: HashMap<&str, ()> = HashMap::new();
            for (i, key) in keys.iter().enumerate() {
                if cache.contains_key(key) || claimed.contains_key(key.as_str()) {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    claimed.insert(key, ());
                    pending.push((i, &specs[i]));
                }
            }
        }

        if !pending.is_empty() {
            let total = pending.len();
            // Pool width × per-machine threads must stay within the
            // runner's thread budget, so a batch of 4-core machines at
            // machine-threads 4 doesn't oversubscribe the host 4×.
            let widest = pending
                .iter()
                .map(|(_, spec)| spec.host_threads(self.machine_threads))
                .max()
                .unwrap_or(1);
            let workers = self.threads.min(total).min((self.threads / widest).max(1));
            let slots: Vec<Mutex<Option<RunRecord>>> =
                (0..total).map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);

            let work = |_worker: usize| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j >= total {
                    break;
                }
                let (_, spec) = pending[j];
                if self.verbose {
                    eprintln!(
                        "[runner] sim {}/{}: {} / {}",
                        j + 1,
                        total,
                        spec.workload.name(),
                        spec.prefetcher.name()
                    );
                }
                let (record, _) = spec.execute_with(&self.execution(Observer::None));
                self.sims_executed.fetch_add(1, Ordering::Relaxed);
                self.instructions_simulated
                    .fetch_add(spec.instructions_cost(), Ordering::Relaxed);
                self.phase_totals.lock().unwrap().merge(&record.phases);
                self.elision_totals.lock().unwrap().add(&record.elision);
                *slots[j].lock().unwrap() = Some(record);
            };

            if workers == 1 {
                work(0);
            } else {
                std::thread::scope(|scope| {
                    for w in 0..workers {
                        let work = &work;
                        scope.spawn(move || work(w));
                    }
                });
            }

            let mut cache = self.cache.lock().unwrap();
            for ((i, _), slot) in pending.iter().zip(slots) {
                let record = slot.into_inner().unwrap().expect("worker filled slot");
                cache.insert(keys[*i].clone(), Arc::new(record));
            }
        }

        // Assemble output by key, in spec order — never arrival order.
        let cache = self.cache.lock().unwrap();
        let out: Vec<Arc<RunRecord>> = keys.iter().map(|key| Arc::clone(&cache[key])).collect();
        drop(cache);
        self.journal.lock().unwrap().extend(out.iter().cloned());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PrefetcherKind, RunSpec};
    use morrigan_sim::{SimConfig, SystemConfig};
    use morrigan_workloads::ServerWorkloadConfig;

    fn tiny_sim() -> SimConfig {
        SimConfig {
            warmup_instructions: 20_000,
            measure_instructions: 60_000,
        }
    }

    fn batch() -> Vec<RunSpec> {
        let kinds = [
            PrefetcherKind::None,
            PrefetcherKind::Sp,
            PrefetcherKind::Mp,
            PrefetcherKind::Morrigan,
        ];
        (0..3)
            .flat_map(|seed| {
                let cfg = ServerWorkloadConfig::qmm_like(format!("pool-{seed}"), seed);
                kinds.map(move |k| RunSpec::server(&cfg, SystemConfig::default(), tiny_sim(), k))
            })
            .collect()
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let specs = batch();
        let serial = Runner::new(1).run_batch(&specs);
        let pooled = Runner::new(8).run_batch(&specs);
        assert_eq!(serial.len(), pooled.len());
        for (a, b) in serial.iter().zip(&pooled) {
            assert_eq!(a.spec, b.spec, "records come back in spec order");
            assert_eq!(
                a.metrics,
                b.metrics,
                "metrics for {} / {} must be bitwise-identical across pool sizes",
                a.spec.workload.name(),
                a.spec.prefetcher.name()
            );
        }
    }

    #[test]
    fn duplicate_specs_simulate_once() {
        let cfg = ServerWorkloadConfig::qmm_like("dup", 7);
        let spec = RunSpec::server(
            &cfg,
            SystemConfig::default(),
            tiny_sim(),
            PrefetcherKind::None,
        );
        let runner = Runner::new(4);
        let records = runner.run_batch(&[spec.clone(), spec.clone(), spec.clone()]);
        assert_eq!(
            runner.sims_executed(),
            1,
            "one simulation for three requests"
        );
        assert_eq!(runner.cache_hits(), 2);
        assert!(Arc::ptr_eq(&records[0], &records[1]));
        assert!(Arc::ptr_eq(&records[0], &records[2]));

        // A later batch reuses the cache too.
        let again = runner.run_one(&spec);
        assert_eq!(runner.sims_executed(), 1);
        assert_eq!(runner.cache_hits(), 3);
        assert!(Arc::ptr_eq(&records[0], &again));
    }

    #[test]
    fn journal_watermarks_attribute_records_to_batches() {
        let cfg = ServerWorkloadConfig::qmm_like("journal", 11);
        let a = RunSpec::server(
            &cfg,
            SystemConfig::default(),
            tiny_sim(),
            PrefetcherKind::None,
        );
        let b = RunSpec::server(
            &cfg,
            SystemConfig::default(),
            tiny_sim(),
            PrefetcherKind::Sp,
        );
        let runner = Runner::new(2);
        runner.run_batch(std::slice::from_ref(&a));
        let mark = runner.journal_len();
        assert_eq!(mark, 1);
        runner.run_batch(&[b.clone(), a.clone()]);
        let since = runner.journal_since(mark);
        assert_eq!(since.len(), 2);
        assert_eq!(since[0].spec, b);
        assert_eq!(
            since[1].spec, a,
            "cached records still appear in the journal"
        );
    }

    #[test]
    #[should_panic(expected = "machine threads must be positive")]
    fn zero_machine_threads_builder_rejected() {
        let _ = Runner::new(2).with_machine_threads(Some(0));
    }

    #[test]
    fn machine_thread_width_does_not_change_multi_core_records() {
        let tenants = vec![
            ServerWorkloadConfig::qmm_like("mt-a", 3),
            ServerWorkloadConfig::qmm_like("mt-b", 4),
        ];
        let mixes = vec![tenants.clone(); 4];
        let mut system = SystemConfig::default();
        system.topology.shared_stlb = true;
        system.topology.llc_shards = 4;
        system.topology.shootdown_interval = Some(25_000);
        let spec = RunSpec::multi(mixes, 10_000, system, tiny_sim(), PrefetcherKind::Morrigan);
        let narrow = Runner::new(1).with_machine_threads(Some(1)).run_one(&spec);
        let wide = Runner::new(4).with_machine_threads(Some(4)).run_one(&spec);
        assert_eq!(
            crate::json::record_json(&narrow),
            crate::json::record_json(&wide),
            "machine thread width must not leak into results"
        );
    }
}
