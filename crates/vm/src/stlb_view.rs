//! A core's epoch-local window onto the machine-wide shared STLB.
//!
//! The parallel machine freezes the shared STLB between epoch barriers.
//! Each host thread keeps its own copy and swaps it into each of its
//! cores' MMUs for the quantum. A core reads that epoch-start image
//! (non-promoting [`Tlb::peek`]) plus an overlay of its own in-epoch
//! inserts, logs each operation in program order, and never writes the
//! image. At the barrier every thread replays all cores' logs into its
//! own copy in (core, sequence) order ([`replay_stlb_ops`]), so every
//! copy ends the epoch equal: the final state is a pure function of the
//! logs, independent of host thread count and scheduling.
//!
//! Flush semantics carry over from the serial swap model: a core that
//! context-switches mid-epoch flushes the *shared* STLB (under swapping
//! the shared structure was resident in the switching core's MMU). The
//! view models that by hiding the frozen image from this core for the
//! rest of the epoch and logging a [`StlbOp::Flush`] for replay.

use morrigan_types::{PhysPage, VirtPage};

use crate::tlb::Tlb;

/// One buffered shared-STLB operation, replayed at the epoch barrier in
/// (core, sequence) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StlbOp {
    /// A lookup hit: replay promotes the entry to MRU.
    Touch(VirtPage),
    /// An insert (the `bool` is the instruction-class tag).
    Insert(VirtPage, PhysPage, bool),
    /// A context-switch flush.
    Flush,
}

/// The epoch-frozen shared-STLB window of one core. See the module docs.
/// A fresh view has an empty overlay and log.
#[derive(Debug, Clone, Default)]
pub struct StlbView {
    /// Operation log for barrier replay, program order.
    ops: Vec<StlbOp>,
    /// Inserts this core performed since the epoch start or its last
    /// flush: `(vpn, pfn)`. Scanned newest-first so re-inserts shadow
    /// older entries.
    overlay: Vec<(u64, u64)>,
    /// This core flushed the shared STLB this epoch: the frozen image
    /// is invisible for the remainder of the epoch.
    frozen_hidden: bool,
}

impl StlbView {
    fn overlay_get(&self, vpn: VirtPage) -> Option<PhysPage> {
        let key = vpn.raw();
        self.overlay
            .iter()
            .rev()
            .find(|&&(v, _)| v == key)
            .map(|&(_, pfn)| PhysPage::new(pfn))
    }

    /// Epoch-frozen lookup in this core's overlay, then the epoch-start
    /// image `frozen`. Hits log a [`StlbOp::Touch`] so the LRU promotion
    /// replays at the barrier.
    pub fn lookup(&mut self, vpn: VirtPage, frozen: &Tlb) -> Option<PhysPage> {
        let hit = match self.overlay_get(vpn) {
            None if !self.frozen_hidden => frozen.peek(vpn),
            resolved => resolved,
        };
        if hit.is_some() {
            self.ops.push(StlbOp::Touch(vpn));
        }
        hit
    }

    /// Epoch-frozen residency check against the overlay and `frozen`
    /// (non-promoting, nothing logged).
    pub fn contains(&self, vpn: VirtPage, frozen: &Tlb) -> bool {
        self.overlay_get(vpn).is_some() || (!self.frozen_hidden && frozen.contains(vpn))
    }

    /// Buffers an insert: visible to this core immediately, to everyone
    /// after the barrier replay.
    pub fn insert(&mut self, vpn: VirtPage, pfn: PhysPage, instruction: bool) {
        self.ops.push(StlbOp::Insert(vpn, pfn, instruction));
        self.overlay.push((vpn.raw(), pfn.raw()));
    }

    /// Buffers a context-switch flush: the shared STLB becomes invisible
    /// to this core immediately and is emptied at the barrier replay.
    /// Dropping the overlay is enough: `frozen_hidden` hides the frozen
    /// image, so only later inserts remain visible.
    pub fn flush(&mut self) {
        self.ops.push(StlbOp::Flush);
        self.overlay.clear();
        self.frozen_hidden = true;
    }

    /// Hands this epoch's log to the caller (swapping in the cleared
    /// buffer `into`) and resets the overlay and visibility state.
    pub fn take_epoch(&mut self, into: &mut Vec<StlbOp>) {
        debug_assert!(into.is_empty());
        std::mem::swap(&mut self.ops, into);
        self.overlay.clear();
        self.frozen_hidden = false;
    }
}

/// Replays one core's epoch log into a copy of the shared STLB (the
/// caller iterates cores in id order).
pub fn replay_stlb_ops(stlb: &mut Tlb, ops: &[StlbOp]) {
    for op in ops {
        match *op {
            StlbOp::Touch(vpn) => {
                stlb.lookup(vpn);
            }
            StlbOp::Insert(vpn, pfn, instruction) => {
                stlb.insert(vpn, pfn, instruction);
            }
            StlbOp::Flush => stlb.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlb::TlbConfig;

    fn shared() -> Tlb {
        Tlb::new(TlbConfig::stlb())
    }

    fn vp(i: u64) -> VirtPage {
        VirtPage::new(0x400 + i)
    }

    fn pp(i: u64) -> PhysPage {
        PhysPage::new(0x900 + i)
    }

    #[test]
    fn own_inserts_are_visible_before_replay() {
        let stlb = shared();
        let mut view = StlbView::default();
        assert_eq!(view.lookup(vp(1), &stlb), None);
        view.insert(vp(1), pp(1), true);
        assert_eq!(view.lookup(vp(1), &stlb), Some(pp(1)));
        assert!(view.contains(vp(1), &stlb));
        assert_eq!(
            stlb.occupancy(),
            0,
            "shared structure stays frozen until the barrier"
        );
    }

    #[test]
    fn replay_applies_logs_in_order() {
        let mut stlb = shared();
        let mut view = StlbView::default();
        view.insert(vp(1), pp(1), true);
        view.insert(vp(2), pp(2), false);
        let mut ops = Vec::new();
        view.take_epoch(&mut ops);
        replay_stlb_ops(&mut stlb, &ops);
        assert_eq!(stlb.peek(vp(1)), Some(pp(1)));
        assert_eq!(stlb.peek(vp(2)), Some(pp(2)));
        assert_eq!(
            view.lookup(vp(1), &stlb),
            Some(pp(1)),
            "frozen image now has it"
        );
    }

    #[test]
    fn flush_hides_frozen_image_for_the_rest_of_the_epoch() {
        let mut stlb = shared();
        stlb.insert(vp(7), pp(7), true);
        let mut view = StlbView::default();
        assert_eq!(view.lookup(vp(7), &stlb), Some(pp(7)));
        view.flush();
        assert_eq!(view.lookup(vp(7), &stlb), None);
        view.insert(vp(8), pp(8), true);
        assert_eq!(
            view.lookup(vp(8), &stlb),
            Some(pp(8)),
            "post-flush inserts live"
        );
        let mut ops = Vec::new();
        view.take_epoch(&mut ops);
        replay_stlb_ops(&mut stlb, &ops);
        assert_eq!(stlb.peek(vp(7)), None, "flush replayed");
        assert_eq!(stlb.peek(vp(8)), Some(pp(8)));
    }

    #[test]
    fn take_epoch_resets_visibility() {
        let mut stlb = shared();
        stlb.insert(vp(3), pp(3), true);
        let mut view = StlbView::default();
        view.flush();
        let mut ops = Vec::new();
        view.take_epoch(&mut ops);
        // The replayed flush emptied nothing here (we dropped the ops),
        // so the frozen image must be visible again next epoch.
        assert_eq!(view.lookup(vp(3), &stlb), Some(pp(3)));
    }
}
