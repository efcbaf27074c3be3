//! Materialized workload traces: generate once, replay zero-copy.
//!
//! The synthetic generators are deterministic but not free — at figure
//! scale, procedural generation is a double-digit percentage of a run's
//! wall time, and a figure that sweeps ten prefetcher configurations
//! over one workload pays it ten times. [`PackedTrace`] decouples stream
//! *generation* from stream *consumption*, the same way ChampSim-style
//! evaluations replay pre-materialized trace files across
//! configurations: capture a workload's instruction stream once into a
//! compact buffer, then hand out any number of [`PackedReplay`] cursors
//! over it. A replay's
//! [`fill_block`](crate::InstructionStream::fill_block) decodes whole
//! 64-instruction words — no RNG, no chain bookkeeping, no virtual
//! dispatch per instruction.
//!
//! ## Layout
//!
//! About 1.6 bytes per instruction on the server and SPEC suites.
//! Instructions are grouped into 64-instruction words; bit `i` of each
//! of a word's two bitmaps describes instruction `64·w + i`:
//!
//! * `jump` — the PC is not the previous PC + 4, and always bit 0. The
//!   PCs at set bits go, in order, into `jumps: Vec<u32>` as byte
//!   offsets from the first byte of the stream's code region; every
//!   other PC is its predecessor's + 4.
//! * `mem` — the instruction has a data access. The accesses go, in
//!   order, into `mems: Vec<u32>` as byte offsets from the first byte of
//!   the stream's data region.
//!
//! Each word also carries `u32` counts of the jumps and accesses before
//! it, so [`PackedTrace::get`] is O(1): one word, two popcounts, one
//! load from each array.
//!
//! The layout rests on two region contracts. Every generator meets
//! both, because the page table maps only regions, and
//! [`PackedTrace::capture`] asserts both, naming the stream:
//!
//! * every PC lies in its stream's code region, and every data access
//!   in its stream's data region;
//! * both lie in the first 4 GiB of their region, the reach of a `u32`
//!   offset.
//!
//! ## Page runs
//!
//! Instruction fetch is overwhelmingly sequential within a page, so one
//! iTLB probe can vouch for a whole run of same-page fetches. The
//! simulator consumes runs through
//! [`fill_block_runs`](crate::InstructionStream::fill_block_runs),
//! issuing a single translation per run and reconciling statistics and
//! LRU recency in bulk at run end. A replay derives each block's runs
//! while it decodes, so the layout stores no run index:
//!
//! * an i-run starts at each jump whose page differs from the previous
//!   PC's, and where a +4 stretch crosses a 4 KiB boundary (at most
//!   once, as a stretch lies within one word);
//! * a d-run starts at each access whose page differs from the block's
//!   previous access.
//!
//! The block's first instruction starts no run. That is exactly the
//! partition [`scan_page_runs`](crate::scan_page_runs) finds for the
//! delivered block, for the cost of one page compare per jump and per
//! access.

use std::mem::size_of_val;

use morrigan_types::addr::PAGE_SIZE;
use morrigan_types::{VirtAddr, VirtPage, PAGE_SHIFT};

use crate::instruction::{InstructionStream, MemAccess, TraceInstruction};

/// How far into its region a PC or a data access may lie: `jumps` and
/// `mems` entries are `u32` offsets.
const REACH: u64 = 1 << 32;

/// Extra instructions captured beyond a run's `warmup + measure` length.
///
/// The simulator pulls instructions in [`fill_block`] chunks (1024 by
/// default), so the last refill can overshoot the retired-instruction
/// count by up to one block per stream. Capturing this much slack keeps
/// any block size up to 4096 in bounds; [`PackedReplay`] panics with a
/// diagnostic rather than wrapping if a consumer overruns it, because a
/// wrapped replay would silently diverge from live generation.
///
/// [`fill_block`]: crate::InstructionStream::fill_block
pub const REPLAY_SLACK: u64 = 4096;

/// FNV-1a 64-bit, a short digest of a record's bytes (hostbench pins
/// each rendered record by it). Not cryptographic.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One 64-instruction word of the layout: bit `i` of each bitmap
/// describes instruction `64·w + i`.
#[derive(Debug, Clone, Copy, Default)]
struct Word {
    /// The PC is not the previous PC + 4; always set on bit 0.
    jump: u64,
    /// The instruction has a data access.
    mem: u64,
    /// Jumps in earlier words: the index into `jumps` of this word's
    /// first.
    jumps_before: u32,
    /// Accesses in earlier words: the index into `mems` of this word's
    /// first.
    mems_before: u32,
}

/// Entries of `jumps` and `mems` a `len`-instruction trace holds at the
/// densest rates the server, Java-server and SPEC suites reach (3.8 % of
/// instructions start a jump, word starts included, and 34.8 % access
/// data), rounded up to 4 % and 36 %. Capture reserves them up front, so
/// a suite trace never regrows an array (and briefly holds two copies)
/// mid-capture; reserved pages that are never written stay
/// non-resident.
fn array_bounds(len: usize) -> (usize, usize) {
    (len / 25, len * 9 / 25)
}

/// The mask of bits `0..n`, for `n` in `1..=64`.
fn below(n: usize) -> u64 {
    u64::MAX >> (64 - n)
}

/// A workload's instruction stream, materialized into the compact
/// layout. Immutable once captured; share it across worker threads as
/// `Arc<PackedTrace>` and replay it through any number of independent
/// [`PackedReplay`] cursors.
#[derive(Debug)]
pub struct PackedTrace {
    name: String,
    code_region: (VirtPage, u64),
    data_region: (VirtPage, u64),
    len: usize,
    words: Vec<Word>,
    /// The PC at every `jump` bit, in order, as a byte offset from the
    /// first byte of `code_region`.
    jumps: Vec<u32>,
    /// Every data access, in order, as a byte offset from the first byte
    /// of `data_region`.
    mems: Vec<u32>,
}

impl PackedTrace {
    /// Captures the next `len` instructions of `stream`.
    ///
    /// The stream is drained through its native
    /// [`fill_block`](InstructionStream::fill_block) in large chunks and
    /// packed in the same pass; no full-length intermediate is built.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds `u32::MAX`, or, naming the stream, if the
    /// stream breaks a region contract: a PC outside its code region, a
    /// data access outside its data region, or either 4 GiB or more into
    /// its region.
    pub fn capture(stream: &mut dyn InstructionStream, len: u64) -> Self {
        assert!(
            len <= u32::MAX as u64,
            "packed traces count positions in u32; a trace of {len} instructions overflows"
        );
        let n = len as usize;
        let (jumps, mems) = array_bounds(n);
        let mut trace = PackedTrace {
            name: stream.name().to_string(),
            code_region: stream.code_region(),
            data_region: stream.data_region(),
            len: n,
            words: Vec::with_capacity(n.div_ceil(64)),
            jumps: Vec::with_capacity(jumps),
            mems: Vec::with_capacity(mems),
        };
        let (code_start, data_start) = (trace.code_start(), trace.data_start());
        let code_bytes = (trace.code_region.1 << PAGE_SHIFT).min(REACH);
        let data_bytes = trace.data_region.1 << PAGE_SHIFT;
        let region = |(page, pages): (VirtPage, u64)| {
            format!("{pages} pages at {:#x}", page.raw() << PAGE_SHIFT)
        };
        let mut word = Word::default();
        let mut prev_pc = 0u64;
        let mut scratch: Vec<TraceInstruction> = Vec::with_capacity(8192);
        let mut i = 0;
        while i < n {
            scratch.clear();
            stream.fill_block(&mut scratch, 8192.min(n - i));
            for instr in &scratch {
                let pc = instr.pc.raw();
                let code_offset = pc.wrapping_sub(code_start);
                assert!(
                    code_offset < code_bytes,
                    "stream '{}' fetched {pc:#x}, outside its code region of {}; packed traces \
                     store PCs as 32-bit offsets into it",
                    trace.name,
                    region(trace.code_region)
                );
                let bit = i % 64;
                if bit == 0 {
                    word = Word {
                        jumps_before: trace.jumps.len() as u32,
                        mems_before: trace.mems.len() as u32,
                        ..Word::default()
                    };
                }
                if bit == 0 || pc != prev_pc.wrapping_add(4) {
                    word.jump |= 1 << bit;
                    trace.jumps.push(code_offset as u32);
                }
                prev_pc = pc;
                if let Some(access) = instr.mem {
                    let addr = access.addr.raw();
                    let offset = addr.wrapping_sub(data_start);
                    assert!(
                        offset < data_bytes,
                        "stream '{}' accessed {addr:#x}, outside its data region of {}; packed \
                         traces store accesses as offsets into it",
                        trace.name,
                        region(trace.data_region)
                    );
                    assert!(
                        offset < REACH,
                        "stream '{}' accessed {addr:#x}, 4 GiB or more into its data region of \
                         {}; packed traces store accesses as 32-bit offsets into it",
                        trace.name,
                        region(trace.data_region)
                    );
                    word.mem |= 1 << bit;
                    trace.mems.push(offset as u32);
                }
                if bit == 63 {
                    trace.words.push(word);
                }
                i += 1;
            }
        }
        if !n.is_multiple_of(64) {
            trace.words.push(word);
        }
        trace.jumps.shrink_to_fit();
        trace.mems.shrink_to_fit();
        trace
    }

    /// The resident bytes a trace of `len` instructions is projected to
    /// take before it exists: its words, plus as many `jumps` and `mems`
    /// entries as the densest suite trace needs, rounded up. That is
    /// 1.98 bytes per instruction against the suites' 1.49–1.87.
    /// [`resident_bytes`](Self::resident_bytes) gives the actual figure
    /// once the trace is built.
    pub fn projected_bytes(len: u64) -> u64 {
        let (jumps, mems) = array_bounds(len as usize);
        (len.div_ceil(64) as usize * size_of::<Word>() + (jumps + mems) * 4) as u64
    }

    /// Number of instructions captured.
    pub fn len(&self) -> u64 {
        self.len as u64
    }

    /// Whether the trace holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Workload name the trace was captured from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Resident size of the trace's arrays in bytes, per-word counts
    /// included (they live in the same `WorkloadCache` resident budget as
    /// the instructions they index).
    pub fn resident_bytes(&self) -> u64 {
        (size_of_val(self.words.as_slice())
            + size_of_val(self.jumps.as_slice())
            + size_of_val(self.mems.as_slice())) as u64
    }

    fn code_start(&self) -> u64 {
        self.code_region.0.raw() << PAGE_SHIFT
    }

    fn data_start(&self) -> u64 {
        self.data_region.0.raw() << PAGE_SHIFT
    }

    /// The access a `mems` entry holds.
    #[inline]
    fn access(&self, entry: u32) -> MemAccess {
        MemAccess {
            addr: VirtAddr::new(self.data_start().wrapping_add(entry as u64)),
        }
    }

    /// Decodes instruction `i` in constant time.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> TraceInstruction {
        assert!(
            i < self.len,
            "instruction {i} of a {}-instruction trace",
            self.len
        );
        let word = &self.words[i / 64];
        let bit = i % 64;
        // Bit 0 is always a jump, so `upto` is never zero.
        let upto = word.jump & below(bit + 1);
        let jump = word.jumps_before as usize + upto.count_ones() as usize - 1;
        let since = bit - (63 - upto.leading_zeros() as usize);
        let pc = self
            .code_start()
            .wrapping_add(self.jumps[jump] as u64 + 4 * since as u64);
        // Loaded whether or not `i` has an access, so that the presence
        // test selects rather than branches; without an access, `m` may
        // be one past the last entry.
        let m = word.mems_before as usize + (word.mem & !(u64::MAX << bit)).count_ones() as usize;
        let entry = self.mems.get(m).copied().unwrap_or_default();
        TraceInstruction {
            pc: VirtAddr::new(pc),
            mem: (word.mem >> bit & 1 != 0).then(|| self.access(entry)),
        }
    }

    /// The captured stream's code region.
    pub fn code_region(&self) -> (VirtPage, u64) {
        self.code_region
    }

    /// The captured stream's data region.
    pub fn data_region(&self) -> (VirtPage, u64) {
        self.data_region
    }
}

/// A cursor over a shared [`PackedTrace`], implementing
/// [`InstructionStream`] by sequential decode.
///
/// Cloning the `Arc` is the entire cost of handing a workload to another
/// simulation: every worker thread replays the same buffer through its
/// own cursor.
#[derive(Debug, Clone)]
pub struct PackedReplay {
    trace: std::sync::Arc<PackedTrace>,
    cursor: usize,
}

impl PackedReplay {
    /// A replay cursor positioned at the start of `trace`.
    pub fn new(trace: std::sync::Arc<PackedTrace>) -> Self {
        Self { trace, cursor: 0 }
    }

    /// Instructions consumed so far.
    pub fn position(&self) -> u64 {
        self.cursor as u64
    }

    #[cold]
    fn exhausted(&self, wanted: usize) -> ! {
        panic!(
            "packed trace '{}' exhausted: {} of {} instructions consumed, {wanted} more \
             requested. The trace was captured for a specific warmup+measure length (plus \
             {REPLAY_SLACK} slack); a consumer that runs longer must regenerate live \
             (MORRIGAN_WORKLOAD_CACHE_MB=0) rather than wrap, which would silently \
             diverge from live generation.",
            self.trace.name(),
            self.cursor,
            self.trace.len(),
        );
    }

    /// Word-at-a-time decode of the next `n` instructions into `out`,
    /// with one up-front bounds check: per word, the +4 stretches between
    /// jumps go out as straight-line stores, then the set bits of `mem`
    /// patch in the data accesses. With `RUNS`, each stretch and each
    /// access also checks its page against its predecessor's and appends
    /// the block-relative start of every run it opens to `irun_ends` or
    /// `drun_ends`, then the block length to both (the module docs give
    /// the rules).
    #[inline(always)]
    fn decode<const RUNS: bool>(
        &mut self,
        out: &mut Vec<TraceInstruction>,
        irun_ends: &mut Vec<u32>,
        drun_ends: &mut Vec<u32>,
        n: usize,
    ) {
        let trace = &*self.trace;
        let start = self.cursor;
        let Some(end) = start.checked_add(n).filter(|&e| e <= trace.len) else {
            self.exhausted(n);
        };
        out.reserve(n);
        let code_start = trace.code_start();
        // Pages of the previous PC and of the block's previous access.
        let mut ipage: Option<u64> = None;
        let mut dpage: Option<u32> = None;
        let mut i = start;
        while i < end {
            let w = i / 64;
            let word = &trace.words[w];
            let (lo, hi) = (i % 64, (end - w * 64).min(64));
            let first = out.len();
            // Block-relative position of bit `b` of this word.
            let at_block = |b: usize| (w * 64 + b - start) as u32;

            let upto = word.jump & below(lo + 1);
            let mut jump = word.jumps_before as usize + upto.count_ones() as usize - 1;
            let mut pc = code_start.wrapping_add(
                trace.jumps[jump] as u64 + 4 * (lo - (63 - upto.leading_zeros() as usize)) as u64,
            );
            let mut at = lo;
            // Jump bits strictly inside the word's `lo..hi` slice.
            let mut later = word.jump & !below(lo + 1) & below(hi);
            loop {
                let stop = if later == 0 {
                    hi
                } else {
                    later.trailing_zeros() as usize
                };
                let base = pc;
                let len = stop - at;
                if RUNS {
                    if ipage.is_some_and(|page| page != base >> PAGE_SHIFT) {
                        irun_ends.push(at_block(at));
                    }
                    let cross = (PAGE_SIZE - (base & (PAGE_SIZE - 1))).div_ceil(4) as usize;
                    if cross < len {
                        irun_ends.push(at_block(at + cross));
                    }
                    ipage = Some(base.wrapping_add(4 * (len - 1) as u64) >> PAGE_SHIFT);
                }
                out.extend((0..len as u64).map(|k| TraceInstruction {
                    pc: VirtAddr::new(base.wrapping_add(4 * k)),
                    mem: None,
                }));
                if later == 0 {
                    break;
                }
                jump += 1;
                pc = code_start.wrapping_add(trace.jumps[jump] as u64);
                at = stop;
                later &= later - 1;
            }

            let from_lo = u64::MAX << lo;
            let mut m = word.mems_before as usize + (word.mem & !from_lo).count_ones() as usize;
            let mut bits = word.mem & from_lo & below(hi);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                let entry = trace.mems[m];
                if RUNS {
                    let page = entry >> PAGE_SHIFT;
                    if dpage.is_some_and(|p| p != page) {
                        drun_ends.push(at_block(b));
                    }
                    dpage = Some(page);
                }
                out[first + b - lo].mem = Some(trace.access(entry));
                m += 1;
                bits &= bits - 1;
            }
            i = w * 64 + hi;
        }
        if RUNS && n > 0 {
            irun_ends.push(n as u32);
            drun_ends.push(n as u32);
        }
        self.cursor = end;
    }
}

impl InstructionStream for PackedReplay {
    fn name(&self) -> &str {
        self.trace.name()
    }

    fn next_instruction(&mut self) -> TraceInstruction {
        if self.cursor >= self.trace.len {
            self.exhausted(1);
        }
        let instr = self.trace.get(self.cursor);
        self.cursor += 1;
        instr
    }

    fn fill_block(&mut self, out: &mut Vec<TraceInstruction>, n: usize) {
        self.decode::<false>(out, &mut Vec::new(), &mut Vec::new(), n);
    }

    /// Run-aware refill: the runs are derived during the word decode, so
    /// no pass over the delivered instructions happens at all.
    fn fill_block_runs(
        &mut self,
        out: &mut Vec<TraceInstruction>,
        irun_ends: &mut Vec<u32>,
        drun_ends: &mut Vec<u32>,
        n: usize,
    ) {
        irun_ends.clear();
        drun_ends.clear();
        self.decode::<true>(out, irun_ends, drun_ends, n);
    }

    fn code_region(&self) -> (VirtPage, u64) {
        self.trace.code_region
    }

    fn data_region(&self) -> (VirtPage, u64) {
        self.trace.data_region
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServerWorkload, ServerWorkloadConfig};
    use crate::spec::{SpecWorkload, SpecWorkloadConfig};
    use std::sync::Arc;

    fn server(seed: u64) -> ServerWorkload {
        ServerWorkload::new(ServerWorkloadConfig::qmm_like(format!("pk-{seed}"), seed))
    }

    fn capture(seed: u64, len: u64) -> PackedTrace {
        PackedTrace::capture(&mut server(seed), len)
    }

    #[test]
    fn replay_matches_live_generation_exactly() {
        let n = 30_000u64;
        let trace = capture(3, n);
        let mut live = server(3);
        let mut replay = PackedReplay::new(Arc::new(trace));
        for i in 0..n {
            assert_eq!(replay.next_instruction(), live.next_instruction(), "at {i}");
        }
    }

    #[test]
    fn fill_block_matches_mixed_consumption() {
        let n = 20_000u64;
        let trace = Arc::new(capture(5, n));
        let mut live = server(5);
        let expected: Vec<TraceInstruction> = (0..n).map(|_| live.next_instruction()).collect();
        let mut replay = PackedReplay::new(trace);
        let mut got = Vec::new();
        let mut sizes = [1usize, 7, 1024, 333, 4096, 1].iter().cycle();
        while got.len() < n as usize {
            let take = (*sizes.next().unwrap()).min(n as usize - got.len());
            if take == 1 {
                got.push(replay.next_instruction());
            } else {
                replay.fill_block(&mut got, take);
            }
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn regions_and_name_survive_capture() {
        let mut live = server(7);
        let trace = PackedTrace::capture(&mut live, 100);
        assert_eq!(trace.code_region(), live.code_region());
        assert_eq!(trace.data_region(), live.data_region());
        assert_eq!(trace.name(), live.name());
        assert_eq!(trace.len(), 100);
        // Two words, and at least their two leading jumps.
        assert!(trace.resident_bytes() >= 2 * size_of::<Word>() as u64 + 2 * 4);
    }

    #[test]
    fn spec_workload_packs_too() {
        let cfg = SpecWorkloadConfig::spec_like("pk-spec", 9);
        let mut live = SpecWorkload::new(cfg.clone());
        let trace = Arc::new(PackedTrace::capture(&mut SpecWorkload::new(cfg), 10_000));
        let mut replay = PackedReplay::new(trace);
        for _ in 0..10_000 {
            assert_eq!(replay.next_instruction(), live.next_instruction());
        }
    }

    #[test]
    fn suite_traces_stay_within_two_bytes_per_instruction() {
        let len = 200_000u64;
        let server_cfg = &crate::suites::qmm_suite()[0];
        let spec_cfg = &crate::suites::spec_suite()[0];
        for trace in [
            PackedTrace::capture(&mut ServerWorkload::new(server_cfg.clone()), len),
            PackedTrace::capture(&mut SpecWorkload::new(spec_cfg.clone()), len),
        ] {
            let per_instr = trace.resident_bytes() as f64 / len as f64;
            assert!(
                per_instr <= 2.0,
                "{}: {per_instr:.2} bytes per instruction",
                trace.name()
            );
            assert!(
                trace.resident_bytes() <= PackedTrace::projected_bytes(len),
                "{}: the projection must not undercharge",
                trace.name()
            );
        }
    }

    /// A stream that fetches `pc` and accesses `addr` on every
    /// instruction, with a one-page code region at 0x400000 and a data
    /// region of `data_pages` pages at 0x100000.
    struct Stray {
        pc: u64,
        addr: u64,
        data_pages: u64,
    }

    impl InstructionStream for Stray {
        fn name(&self) -> &str {
            "stray"
        }

        fn next_instruction(&mut self) -> TraceInstruction {
            TraceInstruction {
                pc: VirtAddr::new(self.pc),
                mem: Some(MemAccess {
                    addr: VirtAddr::new(self.addr),
                }),
            }
        }

        fn code_region(&self) -> (VirtPage, u64) {
            (VirtPage::new(0x400), 1)
        }

        fn data_region(&self) -> (VirtPage, u64) {
            (VirtPage::new(0x100), self.data_pages)
        }
    }

    #[test]
    #[should_panic(expected = "stream 'stray' accessed 0x200000, outside its data region")]
    fn capture_rejects_accesses_outside_the_data_region() {
        // One byte past the region's 256 pages.
        PackedTrace::capture(
            &mut Stray {
                pc: 0x40_0000,
                addr: 0x20_0000,
                data_pages: 0x100,
            },
            10,
        );
    }

    #[test]
    #[should_panic(expected = "stream 'stray' fetched 0x401000, outside its code region")]
    fn capture_rejects_pcs_outside_the_code_region() {
        let mut stray = Stray {
            pc: 0x40_0ffc,
            addr: 0x10_0000,
            data_pages: 0x100,
        };
        // The region's last PC packs; the next page's first does not.
        PackedTrace::capture(&mut stray, 10);
        stray.pc = 0x40_1000;
        PackedTrace::capture(&mut stray, 10);
    }

    #[test]
    #[should_panic(expected = "stream 'stray' accessed 0x100100000, 4 GiB or more into its data")]
    fn capture_rejects_accesses_four_gib_into_the_data_region() {
        // An 8 GiB data region: the access just below 4 GiB into it
        // packs.
        let mut stray = Stray {
            pc: 0x40_0000,
            addr: 0x10_0000 + (1 << 32) - 8,
            data_pages: 1 << 21,
        };
        let trace = PackedTrace::capture(&mut stray, 10);
        assert_eq!(trace.get(9).mem.unwrap().addr.raw(), stray.addr);
        stray.addr = 0x10_0000 + (1 << 32);
        PackedTrace::capture(&mut stray, 10);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn overrunning_the_trace_panics_instead_of_wrapping() {
        let trace = Arc::new(capture(1, 64));
        let mut replay = PackedReplay::new(trace);
        let mut out = Vec::new();
        replay.fill_block(&mut out, 65);
    }

    #[test]
    fn fill_block_runs_agrees_with_default_scan() {
        let trace = Arc::new(capture(19, 30_000));
        let mut replay = PackedReplay::new(trace.clone());
        let (mut out, mut iruns, mut druns) = (Vec::new(), Vec::new(), Vec::new());
        let mut consumed = 0usize;
        for &n in [1usize, 1024, 7, 333, 4096, 1, 2048].iter().cycle() {
            let n = n.min(30_000 - consumed);
            if n == 0 {
                break;
            }
            out.clear();
            replay.fill_block_runs(&mut out, &mut iruns, &mut druns, n);
            let (mut si, mut sd) = (Vec::new(), Vec::new());
            crate::instruction::scan_page_runs(&out, &mut si, &mut sd);
            assert_eq!(iruns, si, "iruns at offset {consumed}, block {n}");
            assert_eq!(druns, sd, "druns at offset {consumed}, block {n}");
            consumed += n;
        }
    }

    #[test]
    fn resident_bytes_counts_words_and_arrays() {
        let trace = capture(29, 10_000);
        // Two bitmaps and two counts per word; `u32` jumps and accesses.
        assert_eq!(size_of::<Word>(), 24);
        let words = (trace.len() as usize).div_ceil(64) * size_of::<Word>();
        let arrays = (trace.jumps.len() + trace.mems.len()) * 4;
        assert_eq!(trace.resident_bytes(), (words + arrays) as u64);
    }
}
