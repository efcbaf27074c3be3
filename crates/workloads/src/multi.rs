//! Multi-process stream combinators: ASID tagging and context-switch
//! scheduling.
//!
//! The multi-tenant model composes existing single-process generators
//! instead of changing them. [`AsidStream`] relocates a tenant into its
//! own address space by fusing an ASID into every virtual address it
//! emits (see `morrigan_types::addr::ASID_SHIFT`), and
//! [`ScheduledStream`] round-robins a set of tenant streams on one core
//! with a fixed context-switch quantum. Because the ASID rides in the
//! address bits, the TLB/PSC/PB hot paths need no extra tag field and a
//! context switch needs no flush — exactly the property hardware ASIDs
//! buy — while cross-tenant isolation remains structurally guaranteed:
//! fused VPNs from different ASIDs can never compare equal.

use morrigan_types::VirtPage;

use crate::instruction::{InstructionStream, TraceInstruction};

/// Wraps a stream so every address it emits is fused with `asid`.
///
/// ASID 0 is the identity fusing: an `AsidStream` with ASID 0 replays
/// its inner stream bit for bit, which keeps the single-process
/// configuration byte-identical to the pre-multicore simulator.
///
/// # Examples
///
/// ```
/// use morrigan_workloads::{AsidStream, InstructionStream, ServerWorkload, ServerWorkloadConfig};
///
/// let cfg = ServerWorkloadConfig::qmm_like("tenant", 7);
/// let mut tagged = AsidStream::new(ServerWorkload::new(cfg), 3);
/// assert_eq!(tagged.next_instruction().pc.asid(), 3);
/// assert_eq!(tagged.code_region().0.asid(), 3);
/// ```
#[derive(Debug)]
pub struct AsidStream<S> {
    inner: S,
    asid: u16,
    name: String,
}

impl<S: InstructionStream> AsidStream<S> {
    /// Tags `inner` with `asid`. The stream's name becomes
    /// `"<inner>#<asid>"` so records and traces identify the tenant.
    pub fn new(inner: S, asid: u16) -> Self {
        let name = format!("{}#{asid}", inner.name());
        Self { inner, asid, name }
    }

    /// The ASID this stream fuses into its addresses.
    pub fn asid(&self) -> u16 {
        self.asid
    }
}

impl<S: InstructionStream> InstructionStream for AsidStream<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_instruction(&mut self) -> TraceInstruction {
        let mut i = self.inner.next_instruction();
        i.pc = i.pc.with_asid(self.asid);
        if let Some(m) = &mut i.mem {
            m.addr = m.addr.with_asid(self.asid);
        }
        i
    }

    fn fill_block(&mut self, out: &mut Vec<TraceInstruction>, n: usize) {
        // Bulk-generate through the inner stream's fast path, then tag in
        // place: one pass over a contiguous block instead of a virtual
        // call per instruction.
        let start = out.len();
        self.inner.fill_block(out, n);
        for i in &mut out[start..] {
            i.pc = i.pc.with_asid(self.asid);
            if let Some(m) = &mut i.mem {
                m.addr = m.addr.with_asid(self.asid);
            }
        }
    }

    fn code_region(&self) -> (VirtPage, u64) {
        let (page, count) = self.inner.code_region();
        (page.with_asid(self.asid), count)
    }

    fn data_region(&self) -> (VirtPage, u64) {
        let (page, count) = self.inner.data_region();
        (page.with_asid(self.asid), count)
    }
}

/// Round-robins boxed tenant streams on one core with a fixed
/// context-switch quantum (in instructions).
///
/// The schedule is deterministic: tenants run in the order given,
/// `quantum` instructions each, wrapping forever. Tenants are expected
/// to already live in disjoint address spaces (wrap them in
/// [`AsidStream`]); [`regions`](InstructionStream::regions) concatenates
/// every tenant's regions so the simulator maps all address spaces up
/// front.
pub struct ScheduledStream {
    tenants: Vec<Box<dyn InstructionStream>>,
    quantum: u64,
    active: usize,
    issued_in_quantum: u64,
    name: String,
    /// One quantum chunk's run ends, before they are rebased into the
    /// block (reused across refills).
    chunk_iruns: Vec<u32>,
    chunk_druns: Vec<u32>,
}

impl ScheduledStream {
    /// Builds the schedule. The composite name joins the tenant names
    /// with `/`.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty or `quantum` is zero.
    pub fn new(tenants: Vec<Box<dyn InstructionStream>>, quantum: u64) -> Self {
        assert!(!tenants.is_empty(), "schedule needs at least one tenant");
        assert!(quantum > 0, "context-switch quantum must be positive");
        let name = tenants
            .iter()
            .map(|t| t.name())
            .collect::<Vec<_>>()
            .join("/");
        Self {
            tenants,
            quantum,
            active: 0,
            issued_in_quantum: 0,
            name,
            chunk_iruns: Vec::new(),
            chunk_druns: Vec::new(),
        }
    }

    /// Number of tenants in the schedule.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The context-switch quantum in instructions.
    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    #[inline]
    fn rotate_if_expired(&mut self) {
        if self.issued_in_quantum == self.quantum {
            self.issued_in_quantum = 0;
            self.active = (self.active + 1) % self.tenants.len();
        }
    }
}

impl InstructionStream for ScheduledStream {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_instruction(&mut self) -> TraceInstruction {
        self.rotate_if_expired();
        self.issued_in_quantum += 1;
        self.tenants[self.active].next_instruction()
    }

    fn fill_block(&mut self, out: &mut Vec<TraceInstruction>, n: usize) {
        // Chunk at quantum boundaries so each run delegates to the active
        // tenant's own bulk path.
        let mut remaining = n as u64;
        out.reserve(n);
        while remaining > 0 {
            self.rotate_if_expired();
            let run = remaining.min(self.quantum - self.issued_in_quantum);
            self.tenants[self.active].fill_block(out, run as usize);
            self.issued_in_quantum += run;
            remaining -= run;
        }
    }

    /// Forwards each quantum chunk to the active tenant's own run-aware
    /// refill (a replay cursor derives its runs while it decodes) and
    /// rebases the chunk's run ends into the block. Every chunk edge is a
    /// run edge: a valid partition, since runs may be split finer than a
    /// fresh scan would (see
    /// [`fill_block_runs`](InstructionStream::fill_block_runs)).
    fn fill_block_runs(
        &mut self,
        out: &mut Vec<TraceInstruction>,
        irun_ends: &mut Vec<u32>,
        drun_ends: &mut Vec<u32>,
        n: usize,
    ) {
        irun_ends.clear();
        drun_ends.clear();
        out.reserve(n);
        let mut done = 0u64;
        while done < n as u64 {
            self.rotate_if_expired();
            let run = (n as u64 - done).min(self.quantum - self.issued_in_quantum);
            self.tenants[self.active].fill_block_runs(
                out,
                &mut self.chunk_iruns,
                &mut self.chunk_druns,
                run as usize,
            );
            let base = done as u32;
            irun_ends.extend(self.chunk_iruns.iter().map(|&end| base + end));
            drun_ends.extend(self.chunk_druns.iter().map(|&end| base + end));
            self.issued_in_quantum += run;
            done += run;
        }
    }

    fn code_region(&self) -> (VirtPage, u64) {
        self.tenants[0].code_region()
    }

    fn data_region(&self) -> (VirtPage, u64) {
        self.tenants[0].data_region()
    }

    fn regions(&self) -> Vec<(VirtPage, u64)> {
        self.tenants.iter().flat_map(|t| t.regions()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServerWorkload, ServerWorkloadConfig};

    fn tenant(name: &str, seed: u64) -> ServerWorkload {
        ServerWorkload::new(ServerWorkloadConfig::qmm_like(name, seed))
    }

    #[test]
    fn asid_zero_is_identity() {
        let mut plain = tenant("t", 1);
        let mut tagged = AsidStream::new(tenant("t", 1), 0);
        for _ in 0..1000 {
            assert_eq!(plain.next_instruction(), tagged.next_instruction());
        }
        assert_eq!(plain.code_region(), tagged.code_region());
        assert_eq!(plain.data_region(), tagged.data_region());
    }

    #[test]
    fn tagging_moves_every_address_into_the_asid_space() {
        let mut s = AsidStream::new(tenant("t", 2), 9);
        let mut block = Vec::new();
        s.fill_block(&mut block, 500);
        assert_eq!(block.len(), 500);
        for i in &block {
            assert_eq!(i.pc.asid(), 9);
            if let Some(m) = i.mem {
                assert_eq!(m.addr.asid(), 9);
            }
        }
        // fill_block and next_instruction agree.
        let mut s2 = AsidStream::new(tenant("t", 2), 9);
        for want in &block[..100] {
            assert_eq!(s2.next_instruction(), *want);
        }
    }

    #[test]
    fn schedule_round_robins_at_the_quantum() {
        let tenants: Vec<Box<dyn InstructionStream>> = vec![
            Box::new(AsidStream::new(tenant("a", 1), 1)),
            Box::new(AsidStream::new(tenant("b", 2), 2)),
        ];
        let mut s = ScheduledStream::new(tenants, 10);
        let mut block = Vec::new();
        s.fill_block(&mut block, 45);
        let asids: Vec<u16> = block.iter().map(|i| i.pc.asid()).collect();
        for (n, &asid) in asids.iter().enumerate() {
            let expect = if (n / 10) % 2 == 0 { 1 } else { 2 };
            assert_eq!(asid, expect, "instruction {n}");
        }
        // Tenant a resumes where it left off, mid-quantum boundary intact.
        assert_eq!(s.next_instruction().pc.asid(), 1);
    }

    #[test]
    fn fill_block_matches_single_stepping() {
        let build = || {
            let tenants: Vec<Box<dyn InstructionStream>> = vec![
                Box::new(AsidStream::new(tenant("a", 1), 1)),
                Box::new(AsidStream::new(tenant("b", 2), 2)),
                Box::new(AsidStream::new(tenant("c", 3), 3)),
            ];
            ScheduledStream::new(tenants, 7)
        };
        let mut bulk = build();
        let mut single = build();
        let mut block = Vec::new();
        bulk.fill_block(&mut block, 200);
        for (n, want) in block.iter().enumerate() {
            assert_eq!(single.next_instruction(), *want, "instruction {n}");
        }
    }

    #[test]
    fn fill_block_runs_partitions_each_quantum_chunk() {
        let build = || {
            let tenants: Vec<Box<dyn InstructionStream>> = vec![
                Box::new(AsidStream::new(tenant("a", 1), 1)),
                Box::new(AsidStream::new(tenant("b", 2), 2)),
            ];
            ScheduledStream::new(tenants, 300)
        };
        let mut runs = build();
        let mut plain = build();
        let (mut out, mut iruns, mut druns) = (Vec::new(), Vec::new(), Vec::new());
        let mut expected = Vec::new();
        for n in [1024usize, 77, 1, 700] {
            out.clear();
            expected.clear();
            runs.fill_block_runs(&mut out, &mut iruns, &mut druns, n);
            plain.fill_block(&mut expected, n);
            assert_eq!(out, expected, "block of {n}");
            let (mut scan_i, mut scan_d) = (Vec::new(), Vec::new());
            crate::scan_page_runs(&out, &mut scan_i, &mut scan_d);
            // Tenants live in disjoint address spaces, so every chunk edge
            // is a page change and the i-runs are exactly a fresh scan's.
            // A d-run ends at each chunk edge instead, before the next
            // tenant's first access, so only the span invariant holds.
            assert_eq!(iruns, scan_i, "block of {n}");
            assert_eq!(druns.last(), Some(&(n as u32)));
            let mut begin = 0;
            for &end in &druns {
                let mut pages = out[begin..end as usize]
                    .iter()
                    .filter_map(|i| i.mem.map(|m| m.addr.virt_page()));
                let first = pages.next();
                assert!(pages.all(|p| Some(p) == first), "d-run {begin}..{end}");
                begin = end as usize;
            }
        }
    }

    #[test]
    fn regions_concatenate_per_tenant() {
        let tenants: Vec<Box<dyn InstructionStream>> = vec![
            Box::new(AsidStream::new(tenant("a", 1), 1)),
            Box::new(AsidStream::new(tenant("b", 2), 2)),
        ];
        let s = ScheduledStream::new(tenants, 10);
        let regions = s.regions();
        assert_eq!(regions.len(), 4);
        assert_eq!(regions[0].0.asid(), 1);
        assert_eq!(regions[2].0.asid(), 2);
        assert_eq!(s.name(), "a#1/b#2");
    }
}
