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
//! One layout serves in memory and on disk, about 2 bytes per
//! instruction on the server and SPEC suites. Instructions are grouped
//! into 64-instruction words; bit `i` of each of a word's five bitmaps
//! describes instruction `64·w + i`:
//!
//! * `jump` — the PC is not the previous PC + 4, and always bit 0. The
//!   PCs at set bits go whole, in order, into `jumps: Vec<u64>`; every
//!   other PC is its predecessor's + 4.
//! * `mem` — the instruction has a data access. The accesses go, in
//!   order, into `mems: Vec<u32>` as byte offsets from the first byte
//!   of the stream's data region.
//! * `write` — that access is a store.
//! * `irun`, `drun` — the page-run index (below).
//!
//! Each word also carries `u32` counts of the jumps and accesses before
//! it, so [`PackedTrace::get`] is O(1): one word, two popcounts, one
//! load from each array. The counts are recomputed on load, never
//! stored.
//!
//! The layout rests on one contract: every data access lies inside its
//! stream's data region. Every generator meets it, because the page
//! table maps only regions; [`PackedTrace::capture`] asserts it, naming
//! the stream.
//!
//! ## Page-run index
//!
//! Instruction fetch is overwhelmingly sequential within a page, so one
//! iTLB probe can vouch for a whole run of same-page fetches. The
//! `irun` bitmap marks each instruction that starts a maximal same-page
//! fetch span, and `drun` each whose data access starts a span of
//! accesses to one page (instructions with no access extend whichever
//! span they fall in); the first instruction is never marked. These are
//! the boundaries [`scan_page_runs`](crate::scan_page_runs) finds. The
//! simulator consumes runs through
//! [`fill_block_runs`](crate::InstructionStream::fill_block_runs),
//! issuing a single translation per run and reconciling statistics and
//! LRU recency in bulk at run end.
//!
//! ## On-disk format (`MORRIGAN_WORKLOAD_CACHE`)
//!
//! Little-endian, versioned by magic, self-verified. The sections are
//! the resident arrays verbatim, less the per-word counts:
//!
//! ```text
//! magic      "MRGNPKT3"                                8 bytes
//! key_hash   FNV-1a 64 of the cache key string         u64
//! len        instruction count                         u64
//! code_base, code_pages, data_base, data_pages         4 × u64
//! build_seconds (f64 bits; provenance, informational)  u64
//! jumps, mems  entries in the two arrays               2 × u64
//! name_len + name bytes (UTF-8)
//! words      jump, mem, write, irun, drun bitmaps      ⌈len/64⌉ × 5 × u64
//! jumps      whole PCs                                 jumps × u64
//! mems       data-region byte offsets                  mems × u32
//! hash       FNV-1a 64 of every preceding byte         u64
//! ```
//!
//! The header fixes every section's length, so the loader checks the
//! file size before it allocates. It then checks that each word starts
//! with a jump, that the popcounts match the array lengths, that no bit
//! lies past `len`, and that a rescan of the decoded instructions
//! reproduces every bitmap and array (which also puts every access in
//! the data region), plus the content hash. The key hash binds the file
//! to the workload config and length that produced it. Any failure is
//! `InvalidData`, never a panic, and the caller rebuilds: a corrupted
//! or stale cache file is never silently replayed. Files of older
//! versions (`MRGNPKT1`, `MRGNPKT2`) fail the magic check with an error
//! naming their version.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::mem::size_of_val;
use std::path::Path;

use morrigan_types::{VirtAddr, VirtPage, PAGE_SHIFT};

use crate::instruction::{InstructionStream, MemAccess, RunScanner, TraceInstruction};

/// On-disk magic; bump the trailing digit on any format change so stale
/// cache files from older revisions fail the magic check and rebuild.
const MAGIC: &[u8; 8] = b"MRGNPKT3";

/// Header fields after the magic, each a `u64`.
const HEADER_FIELDS: usize = 10;

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

/// One 64-instruction word of the layout: bit `i` of each bitmap
/// describes instruction `64·w + i`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Word {
    /// The PC is not the previous PC + 4; always set on bit 0.
    jump: u64,
    /// The instruction has a data access.
    mem: u64,
    /// The access is a store.
    write: u64,
    /// An i-run starts here.
    irun: u64,
    /// A d-run starts here.
    drun: u64,
    /// Jumps in earlier words: the index into `jumps` of this word's
    /// first.
    jumps_before: u32,
    /// Accesses in earlier words: the index into `mems` of this word's
    /// first.
    mems_before: u32,
}

impl Word {
    /// The five bitmaps in on-disk order.
    fn bitmaps(&self) -> [u64; 5] {
        [self.jump, self.mem, self.write, self.irun, self.drun]
    }
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
#[derive(Debug, Clone, PartialEq)]
pub struct PackedTrace {
    name: String,
    code_region: (VirtPage, u64),
    data_region: (VirtPage, u64),
    len: usize,
    words: Vec<Word>,
    /// The PC at every `jump` bit, in order.
    jumps: Vec<u64>,
    /// Every data access, in order, as a byte offset from the first
    /// byte of `data_region`.
    mems: Vec<u32>,
}

/// Packs instructions one at a time into the layout: capture feeds it a
/// live stream, the loader's rescan a decoded one.
struct Packer {
    trace: PackedTrace,
    word: Word,
    prev_pc: u64,
    runs: RunScanner,
    data_start: u64,
    data_bytes: u64,
}

impl Packer {
    fn new(
        name: String,
        code_region: (VirtPage, u64),
        data_region: (VirtPage, u64),
        len: usize,
    ) -> Self {
        let (jumps, mems) = array_bounds(len);
        Self {
            trace: PackedTrace {
                name,
                code_region,
                data_region,
                len: 0,
                words: Vec::with_capacity(len.div_ceil(64)),
                jumps: Vec::with_capacity(jumps),
                mems: Vec::with_capacity(mems),
            },
            word: Word::default(),
            prev_pc: 0,
            runs: RunScanner::default(),
            data_start: data_region.0.raw() << PAGE_SHIFT,
            data_bytes: data_region.1 << PAGE_SHIFT,
        }
    }

    /// Appends one instruction. `Err` carries a data address outside the
    /// data region (or past the 4 GiB an offset holds); nothing is
    /// appended then.
    #[inline]
    fn push(&mut self, instr: &TraceInstruction) -> Result<(), u64> {
        let trace = &mut self.trace;
        let bit = trace.len % 64;
        let access = match instr.mem {
            Some(access) => {
                let offset = access.addr.raw().wrapping_sub(self.data_start);
                if offset >= self.data_bytes || offset > u32::MAX as u64 {
                    return Err(access.addr.raw());
                }
                Some((offset as u32, access.write))
            }
            None => None,
        };
        if bit == 0 {
            self.word = Word {
                jumps_before: trace.jumps.len() as u32,
                mems_before: trace.mems.len() as u32,
                ..Word::default()
            };
        }
        let word = &mut self.word;
        let pc = instr.pc.raw();
        if bit == 0 || pc != self.prev_pc.wrapping_add(4) {
            word.jump |= 1 << bit;
            trace.jumps.push(pc);
        }
        self.prev_pc = pc;
        if let Some((offset, write)) = access {
            word.mem |= 1 << bit;
            word.write |= (write as u64) << bit;
            trace.mems.push(offset);
        }
        let (irun, drun) = self.runs.step(
            pc >> PAGE_SHIFT,
            instr.mem.map(|access| access.addr.raw() >> PAGE_SHIFT),
        );
        word.irun |= (irun as u64) << bit;
        word.drun |= (drun as u64) << bit;
        trace.len += 1;
        if bit == 63 {
            trace.words.push(self.word);
        }
        Ok(())
    }

    fn finish(mut self) -> PackedTrace {
        if !self.trace.len.is_multiple_of(64) {
            self.trace.words.push(self.word);
        }
        self.trace.jumps.shrink_to_fit();
        self.trace.mems.shrink_to_fit();
        self.trace
    }
}

impl PackedTrace {
    /// Captures the next `len` instructions of `stream`.
    ///
    /// The stream is drained through its native
    /// [`fill_block`](InstructionStream::fill_block) in large chunks and
    /// packed in the same pass, run bitmaps included; no full-length
    /// intermediate is built.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds `u32::MAX`, or if the stream makes a data
    /// access outside its data region.
    pub fn capture(stream: &mut dyn InstructionStream, len: u64) -> Self {
        assert!(
            len <= u32::MAX as u64,
            "packed traces count positions in u32; a trace of {len} instructions overflows"
        );
        let n = len as usize;
        let mut packer = Packer::new(
            stream.name().to_string(),
            stream.code_region(),
            stream.data_region(),
            n,
        );
        let mut scratch: Vec<TraceInstruction> = Vec::with_capacity(8192);
        while packer.trace.len < n {
            scratch.clear();
            stream.fill_block(&mut scratch, 8192.min(n - packer.trace.len));
            for instr in &scratch {
                if let Err(addr) = packer.push(instr) {
                    let (page, pages) = stream.data_region();
                    panic!(
                        "stream '{}' accessed {addr:#x}, outside its data region of {pages} \
                         pages at {:#x}; packed traces store accesses as offsets into it",
                        stream.name(),
                        page.raw() << PAGE_SHIFT,
                    );
                }
            }
        }
        packer.finish()
    }

    /// The resident bytes a trace of `len` instructions is projected to
    /// take before it exists: its words, plus as many `jumps` and `mems`
    /// entries as the densest suite trace needs, rounded up. That is
    /// 2.51 bytes per instruction against the suites' 2.05–2.36.
    /// [`resident_bytes`](Self::resident_bytes) gives the actual figure
    /// once the trace is built.
    pub fn projected_bytes(len: u64) -> u64 {
        let (jumps, mems) = array_bounds(len as usize);
        (len.div_ceil(64) as usize * size_of::<Word>() + jumps * 8 + mems * 4) as u64
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

    /// Resident size of the trace's arrays in bytes, page-run index and
    /// per-word counts included (they live in the same `WorkloadCache`
    /// resident budget as the instructions they index).
    pub fn resident_bytes(&self) -> u64 {
        (size_of_val(self.words.as_slice())
            + size_of_val(self.jumps.as_slice())
            + size_of_val(self.mems.as_slice())) as u64
    }

    /// The page-run index over fetch addresses: exclusive end positions
    /// of maximal same-page PC spans, the last equal to the length.
    pub fn irun_ends(&self) -> Vec<u32> {
        self.run_ends(|w| w.irun)
    }

    /// The page-run index over data addresses: exclusive end positions
    /// of spans whose accesses all touch one page, the last equal to
    /// the length.
    pub fn drun_ends(&self) -> Vec<u32> {
        self.run_ends(|w| w.drun)
    }

    fn run_ends(&self, field: fn(&Word) -> u64) -> Vec<u32> {
        let mut ends = Vec::new();
        if self.len > 0 {
            self.push_run_ends(0, self.len, field, &mut ends);
        }
        ends
    }

    /// Appends, relative to `start`, the end of every run the `field`
    /// bitmap starts inside `start + 1..end`, then `end` itself: the
    /// runs of `start..end` with the block edges as extra boundaries.
    fn push_run_ends(
        &self,
        start: usize,
        end: usize,
        field: impl Fn(&Word) -> u64,
        ends: &mut Vec<u32>,
    ) {
        let first = start + 1;
        let mut w = first / 64;
        let mut mask = u64::MAX << (first % 64);
        while w * 64 < end {
            let mut bits = field(&self.words[w]) & mask & below((end - w * 64).min(64));
            while bits != 0 {
                ends.push((w * 64 + bits.trailing_zeros() as usize - start) as u32);
                bits &= bits - 1;
            }
            w += 1;
            mask = u64::MAX;
        }
        ends.push((end - start) as u32);
    }

    fn data_start(&self) -> u64 {
        self.data_region.0.raw() << PAGE_SHIFT
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
        let pc = self.jumps[jump].wrapping_add(4 * since as u64);
        // Loaded whether or not `i` has an access, so that the presence
        // test selects rather than branches; without an access, `m` may
        // be one past the last entry.
        let m = word.mems_before as usize + (word.mem & !(u64::MAX << bit)).count_ones() as usize;
        let offset = self.mems.get(m).copied().unwrap_or_default();
        let mem = (word.mem >> bit & 1 != 0).then_some(MemAccess {
            addr: VirtAddr::new(self.data_start().wrapping_add(offset as u64)),
            write: word.write >> bit & 1 != 0,
        });
        TraceInstruction {
            pc: VirtAddr::new(pc),
            mem,
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
        let header: [u64; HEADER_FIELDS] = [
            key_hash,
            self.len(),
            self.code_region.0.raw(),
            self.code_region.1,
            self.data_region.0.raw(),
            self.data_region.1,
            build_seconds.to_bits(),
            self.jumps.len() as u64,
            self.mems.len() as u64,
            self.name.len() as u64,
        ];
        for v in header {
            out.write_all(&v.to_le_bytes())?;
        }
        out.write_all(self.name.as_bytes())?;
        for word in &self.words {
            for bitmap in word.bitmaps() {
                out.write_all(&bitmap.to_le_bytes())?;
            }
        }
        for &pc in &self.jumps {
            out.write_all(&pc.to_le_bytes())?;
        }
        for &offset in &self.mems {
            out.write_all(&offset.to_le_bytes())?;
        }

        let hash = out.hash;
        let mut inner = out.inner;
        inner.write_all(&hash.to_le_bytes())?;
        inner.flush()
    }

    /// Loads a trace from `path`, verifying the magic, the binding to
    /// `key_hash`, the layout's invariants and the whole-file content
    /// hash.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a version/magic mismatch, a key-hash
    /// mismatch (the file was built for a different workload config or
    /// length), a size or layout inconsistency, or a content-hash
    /// mismatch (corruption) — all of which callers treat as "rebuild,
    /// non-fatal".
    pub fn read_from(path: impl AsRef<Path>, key_hash: u64) -> io::Result<(Self, f64)> {
        let file = std::fs::File::open(path)?;
        let file_bytes = file.metadata()?.len();
        Self::decode(BufReader::new(file), file_bytes, key_hash)
    }

    /// [`read_from`](Self::read_from) over any reader of a
    /// `file_bytes`-byte encoding. The header's section lengths are
    /// checked against `file_bytes` before anything is sized from them.
    fn decode(input: impl Read, file_bytes: u64, key_hash: u64) -> io::Result<(Self, f64)> {
        let mut input = Hashing::new(input);
        let mut magic = [0u8; 8];
        input.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad(&match magic.strip_prefix(b"MRGNPKT") {
                Some(&[v]) if v.is_ascii_digit() => {
                    format!("packed trace is format v{}; this build reads v3", v as char)
                }
                _ => "not a Morrigan packed trace".to_string(),
            }));
        }
        let [stored_key, len, code_base, code_pages, data_base, data_pages, build_bits, jump_count, mem_count, name_len] =
            read_u64s::<HEADER_FIELDS>(&mut input)?;
        if stored_key != key_hash {
            return Err(bad("packed trace was built for a different cache key"));
        }
        let words = len.div_ceil(64);
        // Magic, header and hash, then the variable-length sections.
        let expected_bytes = [
            (8 + 8 * HEADER_FIELDS as u64 + 8, 1),
            (name_len, 1),
            (words, 5 * 8),
            (jump_count, 8),
            (mem_count, 4),
        ]
        .into_iter()
        .try_fold(0u64, |sum, (count, size)| {
            count.checked_mul(size)?.checked_add(sum)
        });
        if expected_bytes != Some(file_bytes) {
            return Err(bad(
                "section lengths in the header disagree with the file size",
            ));
        }
        if len > u32::MAX as u64 {
            return Err(bad("trace longer than u32::MAX instructions"));
        }
        let len = len as usize;
        let mut name = vec![0u8; name_len as usize];
        input.read_exact(&mut name)?;
        let name = String::from_utf8(name).map_err(|_| bad("workload name is not valid UTF-8"))?;

        let mut word_list = Vec::with_capacity(words as usize);
        let (mut jumps_before, mut mems_before) = (0u64, 0u64);
        for _ in 0..words {
            let [jump, mem, write, irun, drun] = read_u64s(&mut input)?;
            word_list.push(Word {
                jump,
                mem,
                write,
                irun,
                drun,
                jumps_before: jumps_before as u32,
                mems_before: mems_before as u32,
            });
            jumps_before += jump.count_ones() as u64;
            mems_before += mem.count_ones() as u64;
        }
        let mut jumps = Vec::with_capacity(jump_count as usize);
        for _ in 0..jump_count {
            jumps.push(read_u64(&mut input)?);
        }
        let mut mems = Vec::with_capacity(mem_count as usize);
        for _ in 0..mem_count {
            let mut buf = [0u8; 4];
            input.read_exact(&mut buf)?;
            mems.push(u32::from_le_bytes(buf));
        }
        let computed = input.hash;
        if read_u64(&mut input.inner)? != computed {
            return Err(bad("packed trace content hash mismatch (corrupted file)"));
        }

        if (jumps_before, mems_before) != (jump_count, mem_count) {
            return Err(bad("bitmap popcounts disagree with the array lengths"));
        }
        if word_list.iter().any(|w| w.jump & 1 == 0) {
            return Err(bad("a word does not start with a jump"));
        }
        let past_len = if len.is_multiple_of(64) {
            0
        } else {
            !below(len % 64)
        };
        if word_list
            .last()
            .is_some_and(|w| w.bitmaps().iter().any(|b| b & past_len != 0))
        {
            return Err(bad("bits set past the end of the trace"));
        }
        let trace = Self {
            name,
            code_region: (VirtPage::new(code_base), code_pages),
            data_region: (VirtPage::new(data_base), data_pages),
            len,
            words: word_list,
            jumps,
            mems,
        };
        // The checks above make every `get` in bounds.
        let mut rescan = Packer::new(
            trace.name.clone(),
            trace.code_region,
            trace.data_region,
            len,
        );
        for i in 0..len {
            rescan
                .push(&trace.get(i))
                .map_err(|_| bad("a data access lies outside the data region"))?;
        }
        if rescan.finish() != trace {
            return Err(bad(
                "packed trace disagrees with a rescan of its instructions (run or jump bitmaps)",
            ));
        }
        Ok((trace, f64::from_bits(build_bits)))
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

fn read_u64s<const N: usize>(input: &mut impl Read) -> io::Result<[u64; N]> {
    let mut values = [0u64; N];
    for v in &mut values {
        *v = read_u64(input)?;
    }
    Ok(values)
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
        if self.cursor >= self.trace.len {
            self.exhausted(1);
        }
        let instr = self.trace.get(self.cursor);
        self.cursor += 1;
        instr
    }

    /// Word-at-a-time decode with one up-front bounds check: per word,
    /// the +4 stretches between jumps go out as straight-line stores,
    /// then the set bits of `mem` patch in the data accesses.
    fn fill_block(&mut self, out: &mut Vec<TraceInstruction>, n: usize) {
        let trace = &*self.trace;
        let Some(end) = self.cursor.checked_add(n).filter(|&e| e <= trace.len) else {
            self.exhausted(n);
        };
        out.reserve(n);
        let data_start = trace.data_start();
        let mut i = self.cursor;
        while i < end {
            let w = i / 64;
            let word = &trace.words[w];
            let (lo, hi) = (i % 64, (end - w * 64).min(64));
            let first = out.len();

            let upto = word.jump & below(lo + 1);
            let mut jump = word.jumps_before as usize + upto.count_ones() as usize - 1;
            let mut pc = trace.jumps[jump]
                .wrapping_add(4 * (lo - (63 - upto.leading_zeros() as usize)) as u64);
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
                out.extend((0..(stop - at) as u64).map(|k| TraceInstruction {
                    pc: VirtAddr::new(base.wrapping_add(4 * k)),
                    mem: None,
                }));
                if later == 0 {
                    break;
                }
                jump += 1;
                pc = trace.jumps[jump];
                at = stop;
                later &= later - 1;
            }

            let from_lo = u64::MAX << lo;
            let mut m = word.mems_before as usize + (word.mem & !from_lo).count_ones() as usize;
            let mut bits = word.mem & from_lo & below(hi);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out[first + b - lo].mem = Some(MemAccess {
                    addr: VirtAddr::new(data_start.wrapping_add(trace.mems[m] as u64)),
                    write: word.write >> b & 1 != 0,
                });
                m += 1;
                bits &= bits - 1;
            }
            i = w * 64 + hi;
        }
        self.cursor = end;
    }

    /// Run-aware refill: the instructions come from [`fill_block`]'s
    /// word decode, the run boundaries from the trace's run bitmaps —
    /// clipped to the block and rebased to it — so no rescan of the
    /// delivered instructions happens at all.
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
        irun_ends.clear();
        drun_ends.clear();
        if n > 0 {
            self.trace
                .push_run_ends(start, start + n, |w| w.irun, irun_ends);
            self.trace
                .push_run_ends(start, start + n, |w| w.drun, drun_ends);
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
        // Two words, and at least their two leading jumps.
        assert!(trace.resident_bytes() >= 2 * size_of::<Word>() as u64 + 2 * 8);
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
    fn suite_traces_stay_within_two_and_a_half_bytes_per_instruction() {
        let len = 200_000u64;
        let server_cfg = &crate::suites::qmm_suite()[0];
        let spec_cfg = &crate::suites::spec_suite()[0];
        for trace in [
            PackedTrace::capture(&mut ServerWorkload::new(server_cfg.clone()), len),
            PackedTrace::capture(&mut SpecWorkload::new(spec_cfg.clone()), len),
        ] {
            let per_instr = trace.resident_bytes() as f64 / len as f64;
            assert!(
                per_instr <= 2.5,
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

    /// A stream whose every access lies one byte past its data region.
    struct Stray;

    impl InstructionStream for Stray {
        fn name(&self) -> &str {
            "stray"
        }

        fn next_instruction(&mut self) -> TraceInstruction {
            TraceInstruction {
                pc: VirtAddr::new(0x40_0000),
                mem: Some(MemAccess {
                    addr: VirtAddr::new(0x20_0000),
                    write: false,
                }),
            }
        }

        fn code_region(&self) -> (VirtPage, u64) {
            (VirtPage::new(0x400), 1)
        }

        fn data_region(&self) -> (VirtPage, u64) {
            (VirtPage::new(0x100), 0x100)
        }
    }

    #[test]
    #[should_panic(expected = "stream 'stray' accessed 0x200000, outside its data region")]
    fn capture_rejects_accesses_outside_the_data_region() {
        PackedTrace::capture(&mut Stray, 10);
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
        // One layout: the file is the resident sections, less the two
        // per-word counts, plus the header and the hash.
        let file_bytes = std::fs::metadata(&path).expect("stat").len();
        let header = 8 + 8 * HEADER_FIELDS + trace.name().len() + 8;
        assert_eq!(
            file_bytes,
            trace.resident_bytes() - 8 * trace.words.len() as u64 + header as u64
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
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
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
        assert_eq!(trace.irun_ends(), iruns);
        assert_eq!(trace.drun_ends(), druns);
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
        trace.write_to(&path, key, 0.5).expect("write");
        let mut bytes = std::fs::read(&path).expect("read back");
        for old in [b"MRGNPKT1", b"MRGNPKT2"] {
            bytes[..8].copy_from_slice(old);
            std::fs::write(&path, &bytes).expect("rewrite");
            let err = PackedTrace::read_from(&path, key).expect_err("old formats are rejected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let version = format!("v{}", old[7] as char);
            assert!(
                err.to_string().contains(&version),
                "error names {version}: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resident_bytes_counts_the_run_index() {
        let trace = capture(29, 10_000);
        // The run bitmaps live in the words, beside the instruction bits.
        assert!(trace.words.iter().any(|w| w.irun != 0));
        assert!(trace.words.iter().any(|w| w.drun != 0));
        let words = (trace.len() as usize).div_ceil(64) * size_of::<Word>();
        let arrays = trace.jumps.len() * 8 + trace.mems.len() * 4;
        assert_eq!(trace.resident_bytes(), (words + arrays) as u64);
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
        // Magic, the header fields and the name; byte 23 is the top byte
        // of the length.
        let header = 8 + 8 * HEADER_FIELDS + trace.name().len();
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

    /// Files whose content hash is made to match still fail the layout
    /// checks: each check catches one kind of inconsistency.
    #[test]
    fn layout_checks_reject_consistent_looking_files() {
        let trace = capture(37, 1_000);
        let key = fnv1a(b"layout-key");
        let encode = |t: &PackedTrace| {
            let path =
                std::env::temp_dir().join(format!("morrigan-pk-ly-{}.mpt", std::process::id()));
            t.write_to(&path, key, 0.0).expect("write");
            let bytes = std::fs::read(&path).expect("read back");
            std::fs::remove_file(&path).ok();
            bytes
        };
        let mut cases: Vec<(&str, PackedTrace)> = Vec::new();
        let mut t = trace.clone();
        t.words[3].jump &= !1;
        t.jumps.remove(t.words[3].jumps_before as usize);
        cases.push(("does not start with a jump", t));
        let mut t = trace.clone();
        t.words.last_mut().unwrap().write |= 1 << 63;
        cases.push(("past the end", t));
        let mut t = trace.clone();
        t.words[5].irun ^= 1 << 17;
        cases.push(("rescan", t));
        let mut t = trace.clone();
        t.words[5].mem = 0;
        cases.push(("popcounts", t));
        let mut t = trace.clone();
        t.mems[10] = u32::MAX;
        cases.push(("outside the data region", t));
        for (expected, t) in cases {
            let bytes = encode(&t);
            let err = PackedTrace::decode(&bytes[..], bytes.len() as u64, key)
                .expect_err("inconsistent file must fail");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(expected), "{expected}: got {err}");
        }
    }
}
