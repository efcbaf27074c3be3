//! The trace-instruction format and the stream interface the simulator
//! consumes.

use morrigan_types::{VirtAddr, VirtPage, PAGE_SHIFT};

/// One data memory access attached to an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Virtual address of the access.
    pub addr: VirtAddr,
    /// Whether it is a store (the latency model treats loads and stores
    /// alike; the flag exists for trace realism and future extensions).
    pub write: bool,
}

/// One traced instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceInstruction {
    /// Fetch address.
    pub pc: VirtAddr,
    /// Optional data access.
    pub mem: Option<MemAccess>,
}

/// An endless, deterministic instruction stream.
///
/// Streams are infinite: the simulator decides how many instructions to
/// warm up and measure (the paper runs 50 M + 100 M).
///
/// `Send` lets a boxed stream move into an experiment-runner worker
/// thread together with the simulator that owns it; generators and trace
/// readers hold only owned state, so the bound is free.
pub trait InstructionStream: Send {
    /// Workload name (e.g. `"qmm-srv-07"`).
    fn name(&self) -> &str;

    /// Produces the next instruction.
    fn next_instruction(&mut self) -> TraceInstruction;

    /// Appends the next `n` instructions to `out`.
    ///
    /// Semantically identical to calling [`next_instruction`] `n` times
    /// (the default implementation does exactly that), but lets the
    /// simulator amortize the per-instruction virtual call over a whole
    /// block: the default body is monomorphized per implementor, so its
    /// inner `next_instruction` calls dispatch statically. Implementors
    /// with cheap bulk paths (e.g. trace replay) override it.
    ///
    /// `out` is not cleared; the block is appended to whatever it holds.
    ///
    /// [`next_instruction`]: InstructionStream::next_instruction
    fn fill_block(&mut self, out: &mut Vec<TraceInstruction>, n: usize) {
        out.reserve(n);
        for _ in 0..n {
            out.push(self.next_instruction());
        }
    }

    /// Appends the next `n` instructions to `out` and fills the two
    /// page-run vectors describing them: `irun_ends` holds the exclusive
    /// end positions (relative to the delivered block, last entry `n`)
    /// of maximal same-page fetch spans, `drun_ends` the same for spans
    /// whose data accesses all touch one page. Both run vectors are
    /// cleared first; `out` is appended to, like [`fill_block`].
    ///
    /// The default implementation delegates to [`fill_block`] and scans
    /// the delivered block with [`scan_page_runs`]; a packed replay
    /// derives the same partition while it decodes, with no scan.
    ///
    /// The partition is valid but **not canonical**: a composite stream
    /// may split a span the fresh scan merges. Only `ScheduledStream`
    /// does, at the edges of its context-switch quantum chunks.
    /// Consumers must rely only on the span invariants — same fetch page
    /// within an i-run, at most one data page within a d-run — never on
    /// a particular split.
    ///
    /// [`fill_block`]: InstructionStream::fill_block
    fn fill_block_runs(
        &mut self,
        out: &mut Vec<TraceInstruction>,
        irun_ends: &mut Vec<u32>,
        drun_ends: &mut Vec<u32>,
        n: usize,
    ) {
        let start = out.len();
        self.fill_block(out, n);
        irun_ends.clear();
        drun_ends.clear();
        scan_page_runs(&out[start..], irun_ends, drun_ends);
    }

    /// The contiguous virtual code region `(first page, page count)` this
    /// stream fetches from; the simulator maps it before running.
    fn code_region(&self) -> (VirtPage, u64);

    /// The contiguous virtual data region `(first page, page count)`.
    fn data_region(&self) -> (VirtPage, u64);

    /// Every contiguous virtual region this stream touches, as
    /// `(first page, page count)` pairs; the simulator maps them all
    /// before running.
    ///
    /// Single-process streams have exactly the code and data regions (the
    /// default). Multi-process composites (see `ScheduledStream`) return
    /// one code+data pair per tenant, each in its own ASID-fused part of
    /// the address space.
    fn regions(&self) -> Vec<(VirtPage, u64)> {
        vec![self.code_region(), self.data_region()]
    }
}

/// Scans `instrs` into page runs, appending exclusive end positions
/// (relative to the slice) to the two vectors.
///
/// An *i-run* is a maximal span of instructions whose PCs share a
/// virtual page. A *d-run* is a span whose data accesses all touch one
/// page; instructions with no data access extend whichever span they
/// fall in. Both vectors end with `instrs.len()` when the slice is
/// non-empty, so a consumer can walk them as a partition of the block.
pub fn scan_page_runs(
    instrs: &[TraceInstruction],
    irun_ends: &mut Vec<u32>,
    drun_ends: &mut Vec<u32>,
) {
    let (mut fetch_page, mut data_page) = (None, None);
    for (i, instr) in instrs.iter().enumerate() {
        let page = instr.pc.raw() >> PAGE_SHIFT;
        if fetch_page.replace(page).is_some_and(|p| p != page) {
            irun_ends.push(i as u32);
        }
        if let Some(mem) = instr.mem {
            let page = mem.addr.raw() >> PAGE_SHIFT;
            if data_page.replace(page).is_some_and(|p| p != page) {
                drun_ends.push(i as u32);
            }
        }
    }
    if !instrs.is_empty() {
        irun_ends.push(instrs.len() as u32);
        drun_ends.push(instrs.len() as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_instruction_is_plain_data() {
        let i = TraceInstruction {
            pc: VirtAddr::new(0x400000),
            mem: Some(MemAccess {
                addr: VirtAddr::new(0x7000_0000),
                write: false,
            }),
        };
        let j = i;
        assert_eq!(i, j);
        assert_eq!(format!("{:?}", i.pc), "VirtAddr(0x400000)");
    }
}
