//! Materialized workload traces: generate once, replay zero-copy.
//!
//! The synthetic generators are deterministic but not free — at figure
//! scale, procedural generation is a double-digit percentage of a run's
//! wall time, and a figure that sweeps ten prefetcher configurations
//! over one workload pays it ten times. [`PackedTrace`] decouples stream
//! *generation* from stream *consumption*, the same way ChampSim-style
//! evaluations replay pre-materialized trace files across
//! configurations: capture a workload's instruction stream once into a
//! compact struct-of-arrays buffer, then hand out any number of
//! [`PackedReplay`] cursors over it. A replay's
//! [`fill_block`](crate::InstructionStream::fill_block) is a
//! bounds-checked sequential decode of three flat arrays — no RNG, no
//! chain bookkeeping, no virtual dispatch per instruction.
//!
//! ## In-memory layout
//!
//! Struct-of-arrays, 16 bytes + 1 bit per instruction (vs. 24 bytes for
//! `Vec<TraceInstruction>`, whose `Option<MemAccess>` padding the
//! simulator would drag through the cache on every copy):
//!
//! * `pcs:   Vec<u64>` — fetch addresses;
//! * `mems:  Vec<u64>` — data addresses, [`NO_MEM`] when absent;
//! * `writes: Vec<u64>` — store flags, one bit per instruction.
//!
//! ## Page-run index
//!
//! Instruction fetch is overwhelmingly sequential within a page, so one
//! iTLB probe can vouch for a whole run of same-page fetches. The trace
//! carries a run-length index computed once at capture — maximal spans
//! of same-page PCs (`irun_ends`) and spans whose data accesses all
//! touch one page (`drun_ends`), each stored as strictly increasing
//! exclusive end positions with the last entry equal to the trace
//! length. The simulator consumes runs through
//! [`fill_block_runs`](crate::InstructionStream::fill_block_runs),
//! issuing a single translation per run and reconciling statistics and
//! LRU recency in bulk at run end.
//!
//! ## On-disk format (`MORRIGAN_WORKLOAD_CACHE`)
//!
//! Little-endian, versioned by magic, self-verified:
//!
//! ```text
//! magic      "MRGNPKT2"                                8 bytes
//! key_hash   FNV-1a 64 of the cache key string         u64
//! len        instruction count                         u64
//! code_base, code_pages, data_base, data_pages         4 × u64
//! build_seconds (f64 bits; provenance, informational)  u64
//! name_len + name bytes (UTF-8)
//! pcs        zigzag(delta) LEB128 varints              len entries
//! mem bitset (1 = instruction has a data access)       ⌈len/64⌉ × u64
//! mem addrs  zigzag(delta) varints, present entries only
//! write bitset                                         ⌈len/64⌉ × u64
//! irun count u64, then end-position deltas as varints
//! drun count u64, then end-position deltas as varints
//! hash       FNV-1a 64 of every preceding byte         u64
//! ```
//!
//! Version 1 files (magic `MRGNPKT1`, no run index) fail the magic
//! check and take the caller's existing rebuild-non-fatal path.
//!
//! Page-level control flow makes consecutive-PC deltas small most of the
//! time (straight-line fetch advances by 4 bytes), so the delta-varint
//! sections compress a trace to a fraction of its in-memory size while
//! staying trivially seekless to decode. The trailing hash (and the key
//! hash, which binds the file to the workload config + length that
//! produced it) means a corrupted or stale cache file is *detected and
//! regenerated*, never silently replayed.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use morrigan_types::{VirtAddr, VirtPage, PAGE_SHIFT};

use crate::instruction::{scan_runs, InstructionStream, MemAccess, TraceInstruction};

/// Sentinel in the `mems` array for "no data access" (real virtual
/// addresses are ≤ 2^52).
const NO_MEM: u64 = u64::MAX;

/// On-disk magic; bump the trailing digit on any format change so stale
/// cache files from older revisions fail the magic check and rebuild.
const MAGIC: &[u8; 8] = b"MRGNPKT2";

/// The previous on-disk magic (no page-run index). Recognized only to
/// produce a precise "older format" error; the file is rebuilt.
const MAGIC_V1: &[u8; 8] = b"MRGNPKT1";

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

/// FNV-1a 64-bit, used for cache keys and file self-verification. Not
/// cryptographic — it guards against corruption and stale formats, not
/// adversaries (the cache directory is the user's own disk).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A workload's instruction stream, materialized into a compact
/// struct-of-arrays buffer. Immutable once captured; share it across
/// worker threads as `Arc<PackedTrace>` and replay it through any number
/// of independent [`PackedReplay`] cursors.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedTrace {
    name: String,
    code_region: (VirtPage, u64),
    data_region: (VirtPage, u64),
    pcs: Vec<u64>,
    /// Data address per instruction; [`NO_MEM`] when the instruction has
    /// no access. Kept index-aligned with `pcs` so replay is one
    /// sequential pass over both arrays.
    mems: Vec<u64>,
    /// Store flags, one bit per instruction (bit i of word i/64).
    writes: Vec<u64>,
    /// Page-run index over `pcs`: exclusive end positions of maximal
    /// same-page fetch spans, strictly increasing, last entry == `len`.
    /// `u32` holds any plausible trace (the capture asserts the bound).
    irun_ends: Vec<u32>,
    /// Page-run index over `mems`: exclusive end positions of spans
    /// whose data accesses all touch one page (instructions with no
    /// access extend whichever span they fall in).
    drun_ends: Vec<u32>,
}

/// Builds both page-run indices from the packed arrays in one pass.
fn build_page_runs(pcs: &[u64], mems: &[u64]) -> (Vec<u32>, Vec<u32>) {
    assert!(
        pcs.len() <= u32::MAX as usize,
        "page-run index stores end positions as u32; trace of {} instructions overflows",
        pcs.len()
    );
    let (mut irun_ends, mut drun_ends) = (Vec::new(), Vec::new());
    scan_runs(
        pcs.iter().zip(mems).map(|(&pc, &mem)| {
            (
                pc >> PAGE_SHIFT,
                (mem != NO_MEM).then_some(mem >> PAGE_SHIFT),
            )
        }),
        &mut irun_ends,
        &mut drun_ends,
    );
    (irun_ends, drun_ends)
}

impl PackedTrace {
    /// Captures the next `len` instructions of `stream`.
    ///
    /// The stream is drained through its native
    /// [`fill_block`](InstructionStream::fill_block) in large chunks, so
    /// capture runs at the generator's best bulk speed; everything after
    /// is pure replay.
    pub fn capture(stream: &mut dyn InstructionStream, len: u64) -> Self {
        let n = len as usize;
        let mut pcs = Vec::with_capacity(n);
        let mut mems = Vec::with_capacity(n);
        let mut writes = vec![0u64; n.div_ceil(64)];
        let mut scratch: Vec<TraceInstruction> = Vec::with_capacity(8192);
        let mut filled = 0usize;
        while filled < n {
            let chunk = 8192.min(n - filled);
            scratch.clear();
            stream.fill_block(&mut scratch, chunk);
            for (j, instr) in scratch.iter().enumerate() {
                let i = filled + j;
                pcs.push(instr.pc.raw());
                match instr.mem {
                    Some(mem) => {
                        mems.push(mem.addr.raw());
                        if mem.write {
                            writes[i / 64] |= 1 << (i % 64);
                        }
                    }
                    None => mems.push(NO_MEM),
                }
            }
            filled += chunk;
        }
        let (irun_ends, drun_ends) = build_page_runs(&pcs, &mems);
        Self {
            name: stream.name().to_string(),
            code_region: stream.code_region(),
            data_region: stream.data_region(),
            pcs,
            mems,
            writes,
            irun_ends,
            drun_ends,
        }
    }

    /// Number of instructions captured.
    pub fn len(&self) -> u64 {
        self.pcs.len() as u64
    }

    /// Whether the trace holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// Workload name the trace was captured from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Resident size of the packed arrays in bytes, page-run index
    /// included (it lives in the same `WorkloadCache` resident budget
    /// as the instruction arrays it accelerates).
    pub fn resident_bytes(&self) -> u64 {
        (self.pcs.len() * 8
            + self.mems.len() * 8
            + self.writes.len() * 8
            + self.irun_ends.len() * 4
            + self.drun_ends.len() * 4) as u64
    }

    /// The page-run index over fetch addresses: exclusive end positions
    /// of maximal same-page PC spans.
    pub fn irun_ends(&self) -> &[u32] {
        &self.irun_ends
    }

    /// The page-run index over data addresses: exclusive end positions
    /// of spans whose accesses all touch one page.
    pub fn drun_ends(&self) -> &[u32] {
        &self.drun_ends
    }

    /// Decodes instruction `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> TraceInstruction {
        let mem_raw = self.mems[i];
        TraceInstruction {
            pc: VirtAddr::new(self.pcs[i]),
            mem: (mem_raw != NO_MEM).then(|| MemAccess {
                addr: VirtAddr::new(mem_raw),
                write: self.writes[i / 64] >> (i % 64) & 1 != 0,
            }),
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

    /// Writes the trace to `path` in the versioned on-disk format,
    /// bound to `key_hash` (the FNV-1a of the cache key that produced
    /// it) and carrying `build_seconds` as provenance.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn write_to(
        &self,
        path: impl AsRef<Path>,
        key_hash: u64,
        build_seconds: f64,
    ) -> io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = Hashing::new(BufWriter::new(file));
        out.write_all(MAGIC)?;
        for v in [
            key_hash,
            self.len(),
            self.code_region.0.raw(),
            self.code_region.1,
            self.data_region.0.raw(),
            self.data_region.1,
            build_seconds.to_bits(),
            self.name.len() as u64,
        ] {
            out.write_all(&v.to_le_bytes())?;
        }
        out.write_all(self.name.as_bytes())?;

        let mut prev = 0u64;
        for &pc in &self.pcs {
            write_varint(&mut out, zigzag(pc.wrapping_sub(prev) as i64))?;
            prev = pc;
        }
        let mut present = vec![0u64; self.pcs.len().div_ceil(64)];
        for (i, &mem) in self.mems.iter().enumerate() {
            if mem != NO_MEM {
                present[i / 64] |= 1 << (i % 64);
            }
        }
        for &word in &present {
            out.write_all(&word.to_le_bytes())?;
        }
        let mut prev = 0u64;
        for &mem in &self.mems {
            if mem != NO_MEM {
                write_varint(&mut out, zigzag(mem.wrapping_sub(prev) as i64))?;
                prev = mem;
            }
        }
        for &word in &self.writes {
            out.write_all(&word.to_le_bytes())?;
        }
        for ends in [&self.irun_ends, &self.drun_ends] {
            out.write_all(&(ends.len() as u64).to_le_bytes())?;
            let mut prev = 0u32;
            for &end in ends.iter() {
                // Strictly increasing, so the delta is ≥ 1 and a plain
                // (unsigned) varint; runs are short, so most are 1 byte.
                write_varint(&mut out, (end - prev) as u64)?;
                prev = end;
            }
        }

        let hash = out.hash;
        let mut inner = out.inner;
        inner.write_all(&hash.to_le_bytes())?;
        inner.flush()
    }

    /// Loads a trace from `path`, verifying the magic, the binding to
    /// `key_hash`, and the whole-file content hash.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a version/magic mismatch, a key-hash
    /// mismatch (the file was built for a different workload config or
    /// length), a content-hash mismatch (corruption), or truncation —
    /// all of which callers treat as "rebuild, non-fatal".
    pub fn read_from(path: impl AsRef<Path>, key_hash: u64) -> io::Result<(Self, f64)> {
        let file = std::fs::File::open(path)?;
        let file_bytes = file.metadata()?.len();
        Self::decode(BufReader::new(file), file_bytes, key_hash)
    }

    /// [`read_from`](Self::read_from) over any reader of a
    /// `file_bytes`-byte encoding. The header's trace length is checked
    /// against `file_bytes` before anything is sized from it.
    fn decode(input: impl Read, file_bytes: u64, key_hash: u64) -> io::Result<(Self, f64)> {
        let mut input = Hashing::new(input);
        let mut magic = [0u8; 8];
        input.read_exact(&mut magic)?;
        if &magic == MAGIC_V1 {
            return Err(bad(
                "packed trace is format v1 (no page-run index); rebuilding as v2",
            ));
        }
        if &magic != MAGIC {
            return Err(bad("not a Morrigan packed trace (or an older format)"));
        }
        let stored_key = read_u64(&mut input)?;
        if stored_key != key_hash {
            return Err(bad("packed trace was built for a different cache key"));
        }
        let len = read_u64(&mut input)?;
        // Each instruction costs at least one PC-varint byte, so a longer
        // trace than the file is corruption (e.g. a flipped high bit),
        // not an allocation to attempt.
        if len > file_bytes {
            return Err(bad("trace length exceeds the file size"));
        }
        let len = len as usize;
        let code_base = read_u64(&mut input)?;
        let code_pages = read_u64(&mut input)?;
        let data_base = read_u64(&mut input)?;
        let data_pages = read_u64(&mut input)?;
        let build_seconds = f64::from_bits(read_u64(&mut input)?);
        let name_len = read_u64(&mut input)? as usize;
        if name_len > 4096 {
            return Err(bad("implausible workload name length"));
        }
        let mut name = vec![0u8; name_len];
        input.read_exact(&mut name)?;
        let name = String::from_utf8(name).map_err(|_| bad("workload name is not valid UTF-8"))?;

        let mut pcs = Vec::with_capacity(len);
        let mut prev = 0u64;
        for _ in 0..len {
            prev = prev.wrapping_add(unzigzag(read_varint(&mut input)?) as u64);
            pcs.push(prev);
        }
        let words = len.div_ceil(64);
        let mut present = vec![0u64; words];
        for word in &mut present {
            *word = read_u64(&mut input)?;
        }
        let mut mems = Vec::with_capacity(len);
        let mut prev = 0u64;
        for (i, mem) in mems.spare_capacity_mut().iter_mut().enumerate().take(len) {
            if present[i / 64] >> (i % 64) & 1 != 0 {
                prev = prev.wrapping_add(unzigzag(read_varint(&mut input)?) as u64);
                if prev == NO_MEM {
                    return Err(bad("data address collides with the no-access sentinel"));
                }
                mem.write(prev);
            } else {
                mem.write(NO_MEM);
            }
        }
        // SAFETY: the loop above initialized exactly `len` elements.
        unsafe { mems.set_len(len) };
        let mut writes = vec![0u64; words];
        for word in &mut writes {
            *word = read_u64(&mut input)?;
        }
        let mut run_sections = [Vec::new(), Vec::new()];
        for ends in &mut run_sections {
            let count = read_u64(&mut input)? as usize;
            if count > len {
                return Err(bad("page-run index longer than the trace"));
            }
            ends.reserve_exact(count);
            let mut prev = 0u64;
            for _ in 0..count {
                prev = prev
                    .checked_add(read_varint(&mut input)?)
                    .filter(|&end| end <= len as u64)
                    .ok_or_else(|| bad("page-run end position past the end of the trace"))?;
                ends.push(prev as u32);
            }
            if ends.last().is_some_and(|&last| last as usize != len) || (len > 0 && ends.is_empty())
            {
                return Err(bad("page-run index does not cover the trace"));
            }
        }
        let [irun_ends, drun_ends] = run_sections;

        let computed = input.hash;
        let mut trailer = [0u8; 8];
        input.inner.read_exact(&mut trailer)?;
        if u64::from_le_bytes(trailer) != computed {
            return Err(bad("packed trace content hash mismatch (corrupted file)"));
        }

        Ok((
            Self {
                name,
                code_region: (VirtPage::new(code_base), code_pages),
                data_region: (VirtPage::new(data_base), data_pages),
                pcs,
                mems,
                writes,
                irun_ends,
                drun_ends,
            },
            build_seconds,
        ))
    }

    /// Writes the trace in the retired v1 format (no page-run index) —
    /// test support for exercising the v1 → v2 rebuild fallback.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    #[doc(hidden)]
    pub fn write_v1_for_tests(
        &self,
        path: impl AsRef<Path>,
        key_hash: u64,
        build_seconds: f64,
    ) -> io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = Hashing::new(BufWriter::new(file));
        out.write_all(MAGIC_V1)?;
        for v in [
            key_hash,
            self.len(),
            self.code_region.0.raw(),
            self.code_region.1,
            self.data_region.0.raw(),
            self.data_region.1,
            build_seconds.to_bits(),
            self.name.len() as u64,
        ] {
            out.write_all(&v.to_le_bytes())?;
        }
        out.write_all(self.name.as_bytes())?;
        let mut prev = 0u64;
        for &pc in &self.pcs {
            write_varint(&mut out, zigzag(pc.wrapping_sub(prev) as i64))?;
            prev = pc;
        }
        let mut present = vec![0u64; self.pcs.len().div_ceil(64)];
        for (i, &mem) in self.mems.iter().enumerate() {
            if mem != NO_MEM {
                present[i / 64] |= 1 << (i % 64);
            }
        }
        for &word in &present {
            out.write_all(&word.to_le_bytes())?;
        }
        let mut prev = 0u64;
        for &mem in &self.mems {
            if mem != NO_MEM {
                write_varint(&mut out, zigzag(mem.wrapping_sub(prev) as i64))?;
                prev = mem;
            }
        }
        for &word in &self.writes {
            out.write_all(&word.to_le_bytes())?;
        }
        let hash = out.hash;
        let mut inner = out.inner;
        inner.write_all(&hash.to_le_bytes())?;
        inner.flush()
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn read_u64(input: &mut impl Read) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    input.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_varint(out: &mut impl Write, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return out.write_all(&[byte]);
        }
        out.write_all(&[byte | 0x80])?;
    }
}

fn read_varint(input: &mut impl Read) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        input.read_exact(&mut byte)?;
        if shift >= 64 {
            return Err(bad("varint overflows 64 bits"));
        }
        v |= ((byte[0] & 0x7f) as u64) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// An adapter hashing every byte that passes through it (FNV-1a), so
/// writer and reader accumulate the content hash in one pass.
struct Hashing<T> {
    inner: T,
    hash: u64,
}

impl<T> Hashing<T> {
    fn new(inner: T) -> Self {
        Self {
            inner,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn mix(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl<T: Write> Write for Hashing<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.mix(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<T: Read> Read for Hashing<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.mix(&buf[..n]);
        Ok(n)
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
    /// Positions into the trace's run indices of the first run ending
    /// after `cursor`. Replay is strictly forward, so these only ever
    /// advance — `fill_block_runs` slices the persisted index instead
    /// of rescanning the block.
    irun_pos: usize,
    drun_pos: usize,
}

impl PackedReplay {
    /// A replay cursor positioned at the start of `trace`.
    pub fn new(trace: std::sync::Arc<PackedTrace>) -> Self {
        Self {
            trace,
            cursor: 0,
            irun_pos: 0,
            drun_pos: 0,
        }
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
             (MORRIGAN_NO_WORKLOAD_CACHE=1) rather than wrap, which would silently \
             diverge from live generation.",
            self.trace.name(),
            self.cursor,
            self.trace.len(),
        );
    }
}

impl InstructionStream for PackedReplay {
    fn name(&self) -> &str {
        self.trace.name()
    }

    fn next_instruction(&mut self) -> TraceInstruction {
        if self.cursor >= self.trace.pcs.len() {
            self.exhausted(1);
        }
        let instr = self.trace.get(self.cursor);
        self.cursor += 1;
        instr
    }

    /// Bounds-checked sequential decode: one pass over the `pcs`/`mems`
    /// arrays, no RNG and no per-instruction branching beyond the
    /// presence test — the whole point of materializing. The bounds
    /// check happens once up front; the loop itself runs over slices
    /// through `extend`'s exact-size fast path, so the hot refill is a
    /// branch-predictable linear scan.
    fn fill_block(&mut self, out: &mut Vec<TraceInstruction>, n: usize) {
        let trace = &*self.trace;
        let Some(end) = self.cursor.checked_add(n).filter(|&e| e <= trace.pcs.len()) else {
            self.exhausted(n);
        };
        let start = self.cursor;
        let pcs = &trace.pcs[start..end];
        let mems = &trace.mems[start..end];
        let writes = &trace.writes;
        // The write bit is fetched unconditionally through `get` so the
        // closure has no panic edge; a fall-through zero for a
        // hypothetical out-of-range word is harmless because the
        // up-front bounds check already proved every index is in range.
        let mut bit = start;
        out.extend(pcs.iter().zip(mems).map(|(&pc, &mem)| {
            let write = writes.get(bit >> 6).map_or(0, |&w| w >> (bit & 63)) & 1 != 0;
            bit += 1;
            TraceInstruction {
                pc: VirtAddr::new(pc),
                mem: (mem != NO_MEM).then(|| MemAccess {
                    addr: VirtAddr::new(mem),
                    write,
                }),
            }
        }));
        self.cursor = end;
    }

    /// Run-aware refill: the instructions come from [`fill_block`]'s
    /// slice fast path, the run boundaries from the index persisted at
    /// capture — clipped to the block and rebased to it — so no rescan
    /// of the delivered instructions happens at all.
    ///
    /// [`fill_block`]: InstructionStream::fill_block
    fn fill_block_runs(
        &mut self,
        out: &mut Vec<TraceInstruction>,
        irun_ends: &mut Vec<u32>,
        drun_ends: &mut Vec<u32>,
        n: usize,
    ) {
        let start = self.cursor;
        self.fill_block(out, n);
        let end = self.cursor;
        irun_ends.clear();
        drun_ends.clear();
        if start == end {
            return;
        }
        for (ends, pos, out_ends) in [
            (&self.trace.irun_ends, &mut self.irun_pos, irun_ends),
            (&self.trace.drun_ends, &mut self.drun_pos, drun_ends),
        ] {
            // The cursor only moves forward (next_instruction/fill_block
            // included), so catching the run position up is a short —
            // usually zero-iteration — skip, not a search.
            while *pos < ends.len() && ends[*pos] as usize <= start {
                *pos += 1;
            }
            let mut i = *pos;
            loop {
                let e = if i < ends.len() {
                    ends[i] as usize
                } else {
                    end
                };
                if e >= end {
                    // Block boundaries clip runs; the tail resumes next
                    // refill (`*pos` stays on the clipped run).
                    out_ends.push((end - start) as u32);
                    break;
                }
                out_ends.push((e - start) as u32);
                i += 1;
            }
        }
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
        assert!(trace.resident_bytes() >= 100 * 16);
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
    #[should_panic(expected = "exhausted")]
    fn overrunning_the_trace_panics_instead_of_wrapping() {
        let trace = Arc::new(capture(1, 64));
        let mut replay = PackedReplay::new(trace);
        let mut out = Vec::new();
        replay.fill_block(&mut out, 65);
    }

    #[test]
    fn disk_round_trip_is_lossless() {
        let trace = capture(11, 25_000);
        let key = fnv1a(b"round-trip-key");
        let path = std::env::temp_dir().join(format!("morrigan-pk-rt-{}.mpt", std::process::id()));
        trace.write_to(&path, key, 1.25).expect("write");
        let (loaded, build_seconds) = PackedTrace::read_from(&path, key).expect("read");
        assert_eq!(loaded, trace);
        assert_eq!(build_seconds, 1.25);
        let file_bytes = std::fs::metadata(&path).expect("stat").len();
        assert!(
            file_bytes < trace.resident_bytes() / 2,
            "delta-varint encoding should at least halve the resident size: \
             {file_bytes} vs {}",
            trace.resident_bytes()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_file_is_detected_by_hash() {
        let trace = capture(13, 5_000);
        let key = fnv1a(b"corruption-key");
        let path = std::env::temp_dir().join(format!("morrigan-pk-cr-{}.mpt", std::process::id()));
        trace.write_to(&path, key, 0.0).expect("write");
        let mut bytes = std::fs::read(&path).expect("read back");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("rewrite");
        let err = PackedTrace::read_from(&path, key).expect_err("corruption must be detected");
        // A flipped byte usually trips the content hash (InvalidData),
        // but can also derail a varint into reading past the end of the
        // file (UnexpectedEof). Either way the load fails and the caller
        // regenerates.
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
            ),
            "unexpected error kind: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_key_is_rejected() {
        let trace = capture(13, 1_000);
        let path = std::env::temp_dir().join(format!("morrigan-pk-key-{}.mpt", std::process::id()));
        trace.write_to(&path, fnv1a(b"key-a"), 0.0).expect("write");
        let err = PackedTrace::read_from(&path, fnv1a(b"key-b")).expect_err("key must bind");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn page_run_index_matches_fresh_scan() {
        let trace = capture(17, 40_000);
        let instrs: Vec<TraceInstruction> =
            (0..trace.len() as usize).map(|i| trace.get(i)).collect();
        let (mut iruns, mut druns) = (Vec::new(), Vec::new());
        crate::instruction::scan_page_runs(&instrs, &mut iruns, &mut druns);
        assert_eq!(trace.irun_ends(), &iruns[..]);
        assert_eq!(trace.drun_ends(), &druns[..]);
        assert_eq!(*iruns.last().unwrap() as u64, trace.len());
        assert_eq!(*druns.last().unwrap() as u64, trace.len());
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
            // i-runs are canonical: every instruction has a PC, so a
            // fresh scan and the persisted index agree exactly.
            assert_eq!(iruns, si, "iruns at offset {consumed}, block {n}");
            // d-runs may be split finer by the index when a span crosses
            // a refill boundary; the fresh scan's boundaries (real page
            // changes) must all be present, and every indexed span must
            // still touch at most one data page.
            assert_eq!(*druns.last().unwrap() as usize, n);
            assert!(druns.windows(2).all(|w| w[0] < w[1]));
            assert!(sd.iter().all(|b| druns.contains(b)), "at offset {consumed}");
            let mut begin = 0usize;
            for &e in &druns {
                let pages: std::collections::HashSet<u64> = out[begin..e as usize]
                    .iter()
                    .filter_map(|i| i.mem.map(|m| m.addr.raw() >> 12))
                    .collect();
                assert!(pages.len() <= 1, "d-run spans {} pages", pages.len());
                begin = e as usize;
            }
            consumed += n;
        }
    }

    #[test]
    fn v1_file_is_rejected_with_rebuild_error() {
        let trace = capture(23, 2_000);
        let key = fnv1a(b"v1-key");
        let path = std::env::temp_dir().join(format!("morrigan-pk-v1-{}.mpt", std::process::id()));
        trace.write_v1_for_tests(&path, key, 0.5).expect("write v1");
        let err = PackedTrace::read_from(&path, key).expect_err("v1 must be rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("v1"),
            "error names the version: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resident_bytes_counts_the_run_index() {
        let trace = capture(29, 10_000);
        let arrays = (trace.pcs.len() * 8 + trace.mems.len() * 8 + trace.writes.len() * 8) as u64;
        let index = (trace.irun_ends.len() * 4 + trace.drun_ends.len() * 4) as u64;
        assert!(index > 0);
        assert_eq!(trace.resident_bytes(), arrays + index);
    }

    #[test]
    fn damaged_encodings_are_errors_not_panics() {
        let trace = capture(31, 300);
        let key = fnv1a(b"damage-key");
        let path = std::env::temp_dir().join(format!("morrigan-pk-dm-{}.mpt", std::process::id()));
        trace.write_to(&path, key, 0.5).expect("write");
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        let decode = |b: &[u8]| PackedTrace::decode(b, b.len() as u64, key);
        assert_eq!(decode(&bytes).expect("intact").0, trace);

        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "truncated to {cut} bytes");
        }
        // Magic plus the eight u64 header fields; byte 23 is the top
        // byte of the length.
        let header = 8 + 8 * 8;
        let flipped = |bit: usize| {
            let mut b = bytes.clone();
            b[bit / 8] ^= 1 << (bit % 8);
            b
        };
        for bit in 0..header * 8 {
            assert!(decode(&flipped(bit)).is_err(), "header bit {bit} flipped");
        }
        for bit in (header * 8..bytes.len() * 8).step_by(13) {
            assert!(decode(&flipped(bit)).is_err(), "body bit {bit} flipped");
        }
    }

    #[test]
    fn zigzag_varint_round_trips_extremes() {
        for v in [0i64, 1, -1, 4, -4, i64::MAX, i64::MIN, 1 << 40, -(1 << 40)] {
            assert_eq!(unzigzag(zigzag(v)), v);
            let mut buf = Vec::new();
            write_varint(&mut buf, zigzag(v)).expect("write");
            let got = read_varint(&mut &buf[..]).expect("read");
            assert_eq!(unzigzag(got), v);
        }
    }
}
