//! In-memory spans and the timing wrappers that produce them.
//!
//! The simulator takes its instruction streams and its STLB prefetcher
//! as trait objects, so the traced phase measures those two layers in
//! place by wrapping them: [`TimedStream`] times every refill call and
//! [`TimedPrefetcher`] every `on_stlb_miss` call. Both forward every
//! other trait method untouched, so a traced run produces the same
//! record as an untraced one (the test suite pins this).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use morrigan_runner::json::json_string;
use morrigan_types::{
    MissContext, PrefetchDecision, PrefetchOrigin, PrefetcherEvent, TlbPrefetcher, VirtPage,
};
use morrigan_workloads::{InstructionStream, TraceInstruction};

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within one log (never 0).
    pub id: u32,
    /// The enclosing span; 0 for a root.
    pub parent: u32,
    /// Layer boundary the span times.
    pub name: &'static str,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created.
    pub end_ns: u64,
    /// Operations the span covered (instructions delivered, prefetches
    /// requested, microkernel operations replayed).
    pub ops: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A thread-safe, append-only span log kept in memory until the run
/// ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    next_id: AtomicU32,
    /// Parent of the spans the timing wrappers record.
    current: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(SpanLog {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            current: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserves a span identifier, so children can name their parent
    /// before the parent has ended.
    pub fn reserve(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Makes `id` the parent of the spans the timing wrappers record.
    pub fn set_current(&self, id: u32) {
        self.current.store(id, Ordering::Relaxed);
    }

    /// Records a span that started at `start_ns` and ends now.
    pub fn record(&self, id: u32, parent: u32, name: &'static str, start_ns: u64, ops: u64) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            ops,
        });
    }

    /// Records a span under the current parent.
    fn record_child(&self, name: &'static str, start_ns: u64, ops: u64) {
        let id = self.reserve();
        let parent = self.current.load(Ordering::Relaxed);
        self.record(id, parent, name, start_ns, ops);
    }

    /// Times `f` as a span named `name` under `parent`; `ops` reads the
    /// operation count off the result.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u32,
        f: impl FnOnce() -> T,
        ops: impl FnOnce(&T) -> u64,
    ) -> T {
        let id = self.reserve();
        let start = self.now_ns();
        let out = f();
        self.record(id, parent, name, start, ops(&out));
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"ops\": {}}}",
                s.id,
                s.parent,
                json_string(s.name),
                s.start_ns,
                s.end_ns,
                s.ops
            )?;
        }
        out.flush()
    }
}

/// Totals of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times: duration minus the part of the interval its
    /// children cover.
    pub self_ns: u64,
    /// Summed operation counts.
    pub ops: u64,
}

/// Per-name totals with self times. Children of one parent may overlap
/// (machine cores run on several threads), so a parent's covered time
/// is the union of its children's intervals, clipped to the parent.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
        }
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.ns();
        t.self_ns += s.ns() - covered;
        t.ops += s.ops;
    }
    totals
}

/// An instruction stream that records a `workloads.fill` span around
/// every refill and forwards everything else.
pub struct TimedStream {
    inner: Box<dyn InstructionStream>,
    log: Arc<SpanLog>,
}

impl TimedStream {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: Box<dyn InstructionStream>, log: Arc<SpanLog>) -> Self {
        TimedStream { inner, log }
    }
}

impl InstructionStream for TimedStream {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_instruction(&mut self) -> TraceInstruction {
        self.inner.next_instruction()
    }

    fn fill_block(&mut self, out: &mut Vec<TraceInstruction>, n: usize) {
        let start = self.log.now_ns();
        self.inner.fill_block(out, n);
        self.log.record_child("workloads.fill", start, n as u64);
    }

    fn fill_block_runs(
        &mut self,
        out: &mut Vec<TraceInstruction>,
        irun_ends: &mut Vec<u32>,
        drun_ends: &mut Vec<u32>,
        n: usize,
    ) {
        let start = self.log.now_ns();
        self.inner.fill_block_runs(out, irun_ends, drun_ends, n);
        self.log.record_child("workloads.fill", start, n as u64);
    }

    fn code_region(&self) -> (VirtPage, u64) {
        self.inner.code_region()
    }

    fn data_region(&self) -> (VirtPage, u64) {
        self.inner.data_region()
    }

    fn regions(&self) -> Vec<(VirtPage, u64)> {
        self.inner.regions()
    }
}

/// An STLB prefetcher that records a `core.on_stlb_miss` span around
/// every miss it digests (ops = prefetches requested) and forwards
/// everything else.
pub struct TimedPrefetcher {
    inner: Box<dyn TlbPrefetcher>,
    log: Arc<SpanLog>,
}

impl TimedPrefetcher {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: Box<dyn TlbPrefetcher>, log: Arc<SpanLog>) -> Self {
        TimedPrefetcher { inner, log }
    }
}

impl TlbPrefetcher for TimedPrefetcher {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_stlb_miss(&mut self, ctx: &MissContext, out: &mut Vec<PrefetchDecision>) {
        let before = out.len();
        let start = self.log.now_ns();
        self.inner.on_stlb_miss(ctx, out);
        self.log
            .record_child("core.on_stlb_miss", start, (out.len() - before) as u64);
    }

    fn on_prefetch_hit(&mut self, origin: &PrefetchOrigin) {
        self.inner.on_prefetch_hit(origin);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn set_event_capture(&mut self, on: bool) {
        self.inner.set_event_capture(on);
    }

    fn drain_events(&mut self, out: &mut Vec<PrefetcherEvent>) {
        self.inner.drain_events(out);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morrigan_types::VirtAddr;
    use morrigan_workloads::{
        AsidStream, PackedReplay, PackedTrace, ScheduledStream, ServerWorkload,
        ServerWorkloadConfig,
    };

    /// Two tenants on one core, as the machine workload builds them.
    fn scheduled() -> ScheduledStream {
        let tenants = (1..=2)
            .map(|asid| {
                let cfg = ServerWorkloadConfig::qmm_like("tenant", u64::from(asid));
                let mut live = AsidStream::new(ServerWorkload::new(cfg), asid);
                let trace = PackedTrace::capture(&mut live, 4_096);
                Box::new(PackedReplay::new(Arc::new(trace))) as Box<dyn InstructionStream>
            })
            .collect();
        ScheduledStream::new(tenants, 1_000)
    }

    #[test]
    fn timed_stream_forwards_refills_and_regions() {
        let log = SpanLog::new();
        let mut plain = scheduled();
        let mut timed = TimedStream::new(Box::new(scheduled()), Arc::clone(&log));
        assert_eq!(timed.regions(), plain.regions());
        assert_eq!(timed.regions().len(), 4, "both tenants' regions");
        assert_eq!(timed.code_region(), plain.code_region());
        let (mut a, mut ai, mut ad) = (Vec::new(), Vec::new(), Vec::new());
        let (mut b, mut bi, mut bd) = (Vec::new(), Vec::new(), Vec::new());
        plain.fill_block_runs(&mut a, &mut ai, &mut ad, 1_500);
        timed.fill_block_runs(&mut b, &mut bi, &mut bd, 1_500);
        assert_eq!((a, ai, ad), (b, bi, bd));
        let spans = log.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].name, spans[0].ops), ("workloads.fill", 1_500));
    }

    #[derive(Default)]
    struct Calls {
        hits: u32,
        flushes: u32,
        capture: Option<bool>,
    }

    struct Fake(Arc<Mutex<Calls>>);

    impl TlbPrefetcher for Fake {
        fn name(&self) -> &'static str {
            "fake"
        }

        fn on_stlb_miss(&mut self, ctx: &MissContext, out: &mut Vec<PrefetchDecision>) {
            out.push(PrefetchDecision::plain(ctx.vpn.offset(1)));
        }

        fn on_prefetch_hit(&mut self, _origin: &PrefetchOrigin) {
            self.0.lock().unwrap().hits += 1;
        }

        fn flush(&mut self) {
            self.0.lock().unwrap().flushes += 1;
        }

        fn storage_bits(&self) -> u64 {
            42
        }

        fn set_event_capture(&mut self, on: bool) {
            self.0.lock().unwrap().capture = Some(on);
        }

        fn drain_events(&mut self, out: &mut Vec<PrefetcherEvent>) {
            out.push(PrefetcherEvent::TableEvict {
                table: 1,
                vpn: VirtPage::new(9),
            });
        }

        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }

    #[test]
    fn timed_prefetcher_forwards_every_method() {
        let calls = Arc::new(Mutex::new(Calls::default()));
        let log = SpanLog::new();
        let mut p = TimedPrefetcher::new(Box::new(Fake(Arc::clone(&calls))), Arc::clone(&log));
        let ctx = MissContext {
            vpn: VirtPage::new(7),
            pc: VirtAddr::new(0x7000),
            thread: morrigan_types::ThreadId::ZERO,
            pb_hit: false,
            cycle: 0,
        };
        let mut out = vec![PrefetchDecision::plain(VirtPage::new(1))];
        p.on_stlb_miss(&ctx, &mut out);
        assert_eq!(out.len(), 2);
        let origin = PrefetchOrigin {
            source: VirtPage::new(7),
            distance: morrigan_types::PageDistance(1),
        };
        p.on_prefetch_hit(&origin);
        p.flush();
        p.set_event_capture(true);
        let mut events = Vec::new();
        p.drain_events(&mut events);
        assert_eq!(events.len(), 1);
        assert_eq!((p.name(), p.storage_bits()), ("fake", 42));
        assert!(p
            .as_any()
            .and_then(|any| any.downcast_ref::<Fake>())
            .is_some());
        let calls = calls.lock().unwrap();
        assert_eq!(
            (calls.hits, calls.flushes, calls.capture),
            (1, 1, Some(true))
        );
        let spans = log.spans();
        assert_eq!(
            (spans.len(), spans[0].name, spans[0].ops),
            (1, "core.on_stlb_miss", 1)
        );
    }

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            ops: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "a", 30, 50),  // overlaps the first child
            span(4, 1, "b", 90, 120), // runs past the parent's end
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["root"].total_ns, 100);
        assert_eq!(t["root"].self_ns, 100 - 40 - 10);
        assert_eq!(t["a"].count, 2);
        assert_eq!(t["a"].self_ns, 50);
    }
}
