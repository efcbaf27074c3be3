//! Microkernels: one structure, one operation stream, nanoseconds per
//! operation.
//!
//! [`OpStreams::derive`] turns a workload's own [`PackedTrace`] into the
//! operation streams the simulator feeds each layer: one translation
//! per same-page run, one hierarchy reference per fetched line and per
//! data access, and the miss streams each TLB level passes down. Each
//! kernel replays one stream through a freshly built structure with the
//! workload's `SystemConfig`. The first quarter of every stream is
//! replayed untimed so the structure is warm when timing starts (the
//! simulator, too, times a warm structure for most of a run); the rest
//! is timed with one clock read at each end. Results flow through
//! `black_box`, and every kernel returns the structure it drove so a
//! test can check that two replays of one stream agree.
//!
//! A kernel runs its structure alone in the host caches, so its ns/op
//! is a lower bound on the same operation inside the simulator, where
//! every layer competes for those caches.

use std::hint::black_box;
use std::time::Instant;

use morrigan_mem::{AccessClass, Cache, CacheConfig, HierarchyConfig, Llc, MemoryHierarchy};
use morrigan_sim::SystemConfig;
use morrigan_types::{
    CacheLine, PhysPage, ThreadId, TlbPrefetcher, VirtAddr, VirtPage, PAGE_SHIFT,
};
use morrigan_vm::{Mmu, PageTable, Tlb, TlbConfig, WalkKind, Walker};
use morrigan_workloads::PackedTrace;

/// The address-space seed the simulator builds its page table with, so
/// kernels see the same physical frames (and cache sets) as the run.
pub const SIMULATOR_ASID: u64 = 0x0a51d;

/// Banks of the machine workload's shared LLC.
pub const LLC_SHARDS: usize = 4;

/// A page table mapping every region of `traces`, built the way the
/// simulator builds its own.
pub fn page_table<'a>(traces: impl IntoIterator<Item = &'a PackedTrace>) -> PageTable {
    let mut pt = PageTable::new(SIMULATOR_ASID);
    for trace in traces {
        for (base, count) in [trace.code_region(), trace.data_region()] {
            pt.map_range(base, count);
        }
    }
    pt
}

/// The operation streams one trace yields.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpStreams {
    /// Instructions of the trace the streams cover.
    pub instructions: u64,
    /// One translation per same-page run, in trace order: the run's
    /// first fetch address (`true`) or first data address (`false`).
    pub translations: Vec<(VirtAddr, bool)>,
    /// One hierarchy reference per fetched line (`true`) and per data
    /// access (`false`), at the physical line.
    pub lines: Vec<(CacheLine, bool)>,
    /// Fetch translations that miss a fresh iTLB, with their frames.
    pub itlb_misses: Vec<(VirtPage, PhysPage)>,
    /// iTLB misses that also miss a fresh STLB.
    pub stlb_misses: Vec<VirtPage>,
    /// References that miss a fresh L1 and L2.
    pub l2_misses: Vec<CacheLine>,
}

impl OpStreams {
    /// Derives the streams from the first `limit` instructions of
    /// `trace`; `pt` must map the trace's regions.
    ///
    /// # Panics
    ///
    /// Panics if the trace touches a page `pt` does not map.
    pub fn derive(trace: &PackedTrace, limit: u64, pt: &PageTable, system: &SystemConfig) -> Self {
        let n = trace.len().min(limit);
        let frame = |vpn: VirtPage| {
            pt.translate(vpn)
                .expect("kernel page table maps every region of the trace")
        };
        let line = |addr: VirtAddr, pfn: PhysPage| {
            CacheLine::new(pfn.raw() << (PAGE_SHIFT - 6) | (addr.page_offset() >> 6))
        };
        let mut s = OpStreams {
            instructions: n,
            ..OpStreams::default()
        };
        let (mut ipage, mut iline, mut dpage) = (None, None, None);
        let (mut ipfn, mut dpfn) = (PhysPage::new(0), PhysPage::new(0));
        for i in 0..n as usize {
            let instr = trace.get(i);
            let vpn = instr.pc.virt_page();
            if ipage != Some(vpn) {
                ipage = Some(vpn);
                ipfn = frame(vpn);
                s.translations.push((instr.pc, true));
            }
            let vline = instr.pc.raw() >> 6;
            if iline != Some(vline) {
                iline = Some(vline);
                s.lines.push((line(instr.pc, ipfn), true));
            }
            if let Some(access) = instr.mem {
                let vpn = access.addr.virt_page();
                if dpage != Some(vpn) {
                    dpage = Some(vpn);
                    dpfn = frame(vpn);
                    s.translations.push((access.addr, false));
                }
                s.lines.push((line(access.addr, dpfn), false));
            }
        }

        let mut itlb = Tlb::new(system.mmu.itlb);
        let mut stlb = Tlb::new(system.mmu.stlb);
        for &(addr, _) in s.translations.iter().filter(|t| t.1) {
            let vpn = addr.virt_page();
            if itlb.lookup(vpn).is_none() {
                let pfn = frame(vpn);
                itlb.insert(vpn, pfn, true);
                s.itlb_misses.push((vpn, pfn));
                if stlb.lookup(vpn).is_none() {
                    stlb.insert(vpn, pfn, true);
                    s.stlb_misses.push(vpn);
                }
            }
        }

        let mem = &system.mem;
        let (mut l1i, mut l1d, mut l2) =
            (Cache::new(mem.l1i), Cache::new(mem.l1d), Cache::new(mem.l2));
        for &(line, instruction) in &s.lines {
            let l1 = if instruction { &mut l1i } else { &mut l1d };
            if !l1.probe(line) {
                if !l2.probe(line) {
                    l2.fill(line);
                    s.l2_misses.push(line);
                }
                l1.fill(line);
            }
        }
        s
    }

    /// Data-side translations in [`Self::translations`].
    pub fn data_translations(&self) -> u64 {
        self.translations.iter().filter(|t| !t.1).count() as u64
    }
}

/// Operations one kernel timed and how long they took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelRun {
    /// Operations replayed inside the timed part.
    pub ops: u64,
    /// Nanoseconds the timed part took.
    pub ns: u64,
}

impl KernelRun {
    /// Accumulates another run of the same kernel.
    pub fn add(&mut self, other: KernelRun) {
        self.ops += other.ops;
        self.ns += other.ns;
    }

    /// Mean cost of one operation (0 when nothing was timed).
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns as f64 / self.ops as f64
        }
    }
}

/// Replays the first quarter of `ops` untimed, then times the rest.
fn replay<T: Copy>(ops: &[T], mut op: impl FnMut(T) -> u64) -> KernelRun {
    let (warm, timed) = ops.split_at(ops.len() / 4);
    let mut acc = 0u64;
    for &o in warm {
        acc = acc.wrapping_add(op(o));
    }
    let timed = black_box(timed);
    let start = Instant::now();
    for &o in timed {
        acc = acc.wrapping_add(op(o));
    }
    let ns = start.elapsed().as_nanos() as u64;
    black_box(acc);
    KernelRun {
        ops: timed.len() as u64,
        ns,
    }
}

/// `Mmu::translate_instr`/`translate_data` over the translation stream,
/// prefetcher, walker and PB included.
pub fn translate(
    system: &SystemConfig,
    pt: &PageTable,
    prefetcher: Box<dyn TlbPrefetcher>,
    ops: &[(VirtAddr, bool)],
) -> (KernelRun, Mmu) {
    let mut mmu = Mmu::new(system.mmu, pt.clone(), prefetcher);
    let mut mem = MemoryHierarchy::new(system.mem);
    let mut now = 0u64;
    let run = replay(ops, |(addr, instruction)| {
        now += 16;
        let out = if instruction {
            mmu.translate_instr(addr, ThreadId::ZERO, now, &mut mem)
        } else {
            mmu.translate_data(addr, ThreadId::ZERO, now, &mut mem)
        };
        out.latency
    });
    (run, black_box(mmu))
}

/// `Tlb::lookup`, plus `insert` on a miss, over the iTLB-miss stream.
pub fn stlb(cfg: TlbConfig, ops: &[(VirtPage, PhysPage)]) -> (KernelRun, Tlb) {
    let mut tlb = Tlb::new(cfg);
    let run = replay(ops, |(vpn, pfn)| match tlb.lookup(vpn) {
        Some(hit) => hit.raw(),
        None => {
            tlb.insert(vpn, pfn, true);
            0
        }
    });
    (run, black_box(tlb))
}

/// `Walker::walk` over the STLB-miss stream, PSCs and hierarchy included.
pub fn walk(system: &SystemConfig, pt: &PageTable, ops: &[VirtPage]) -> (KernelRun, Walker) {
    let mut walker = Walker::new(system.mmu.walker);
    let mut mem = MemoryHierarchy::new(system.mem);
    let mut now = 0u64;
    let run = replay(ops, |vpn| {
        now += 256;
        walker
            .walk(pt, &mut mem, vpn, WalkKind::DemandInstruction, now)
            .map_or(0, |w| w.latency)
    });
    (run, black_box(walker))
}

/// `MemoryHierarchy::access` over the line stream.
pub fn access(cfg: HierarchyConfig, ops: &[(CacheLine, bool)]) -> (KernelRun, MemoryHierarchy) {
    let mut mem = MemoryHierarchy::new(cfg);
    let run = replay(ops, |(line, instruction)| {
        let class = if instruction {
            AccessClass::IFetch
        } else {
            AccessClass::Data
        };
        mem.access(line, class).latency
    });
    (run, black_box(mem))
}

/// `MemoryHierarchy::warm` (the fast-forward's functional fill) over the
/// line stream.
pub fn warm(cfg: HierarchyConfig, ops: &[(CacheLine, bool)]) -> (KernelRun, MemoryHierarchy) {
    let mut mem = MemoryHierarchy::new(cfg);
    let run = replay(ops, |(line, instruction)| {
        mem.warm(line, instruction);
        0
    });
    (run, black_box(mem))
}

/// `Llc::probe`, plus `fill` on a miss, at [`LLC_SHARDS`] banks over the
/// L2-miss stream.
pub fn llc(cfg: CacheConfig, ops: &[CacheLine]) -> (KernelRun, Llc) {
    let mut llc = Llc::new(cfg, LLC_SHARDS);
    let run = replay(ops, |line| {
        let hit = llc.probe(line);
        if !hit {
            llc.fill(line);
        }
        hit as u64
    });
    (run, black_box(llc))
}
