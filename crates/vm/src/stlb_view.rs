//! A core's epoch-local window onto the machine-wide shared STLB.
//!
//! The parallel machine freezes the shared STLB between epoch barriers:
//! every core reads the epoch-start image (non-promoting [`Tlb::peek`],
//! a plain read of the [`EpochCell`]) plus an overlay of its own
//! in-epoch inserts, and logs each operation in program order. At the
//! barrier one thread replays all cores' logs against the real structure
//! in (core, sequence) order while no core reads it, so the final state
//! is a pure function of the logs — independent of host thread count
//! and scheduling.
//!
//! Flush semantics carry over from the serial swap model: a core that
//! context-switches mid-epoch flushes the *shared* STLB (under swapping
//! the shared structure was resident in the switching core's MMU). The
//! view models that by hiding the frozen image from this core for the
//! rest of the epoch and logging a [`StlbOp::Flush`] for replay.

use std::sync::Arc;

use morrigan_types::{EpochCell, PhysPage, VirtPage};

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
#[derive(Debug, Clone)]
pub struct StlbView {
    shared: Arc<EpochCell<Tlb>>,
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
    /// A fresh view over `shared` with empty overlay and log.
    pub fn new(shared: Arc<EpochCell<Tlb>>) -> Self {
        Self {
            shared,
            ops: Vec::new(),
            overlay: Vec::new(),
            frozen_hidden: false,
        }
    }

    fn overlay_get(&self, vpn: VirtPage) -> Option<PhysPage> {
        let key = vpn.raw();
        self.overlay
            .iter()
            .rev()
            .find(|&&(v, _)| v == key)
            .map(|&(_, pfn)| PhysPage::new(pfn))
    }

    /// Epoch-frozen lookup. Hits log a [`StlbOp::Touch`] so the LRU
    /// promotion replays at the barrier.
    pub fn lookup(&mut self, vpn: VirtPage) -> Option<PhysPage> {
        let hit = match self.overlay_get(vpn) {
            None if !self.frozen_hidden => self.shared.read().peek(vpn),
            resolved => resolved,
        };
        if hit.is_some() {
            self.ops.push(StlbOp::Touch(vpn));
        }
        hit
    }

    /// Epoch-frozen residency check (non-promoting, nothing logged).
    pub fn contains(&self, vpn: VirtPage) -> bool {
        self.overlay_get(vpn).is_some() || (!self.frozen_hidden && self.shared.read().contains(vpn))
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

/// Replays one core's epoch log against the real shared STLB (the
/// caller has exclusive access and iterates cores in id order).
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

    fn shared() -> Arc<EpochCell<Tlb>> {
        Arc::new(EpochCell::new(Tlb::new(TlbConfig::stlb())))
    }

    /// The barrier replay of `ops`.
    fn replay(stlb: &EpochCell<Tlb>, ops: &[StlbOp]) {
        // SAFETY: one thread, and no reference from `read` is alive while
        // the log replays.
        unsafe { stlb.write(|tlb| replay_stlb_ops(tlb, ops)) }
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
        let mut view = StlbView::new(Arc::clone(&stlb));
        assert_eq!(view.lookup(vp(1)), None);
        view.insert(vp(1), pp(1), true);
        assert_eq!(view.lookup(vp(1)), Some(pp(1)));
        assert!(view.contains(vp(1)));
        assert_eq!(
            stlb.read().occupancy(),
            0,
            "shared structure stays frozen until the barrier"
        );
    }

    #[test]
    fn replay_applies_logs_in_order() {
        let stlb = shared();
        let mut view = StlbView::new(Arc::clone(&stlb));
        view.insert(vp(1), pp(1), true);
        view.insert(vp(2), pp(2), false);
        let mut ops = Vec::new();
        view.take_epoch(&mut ops);
        replay(&stlb, &ops);
        assert_eq!(stlb.read().peek(vp(1)), Some(pp(1)));
        assert_eq!(stlb.read().peek(vp(2)), Some(pp(2)));
        assert_eq!(view.lookup(vp(1)), Some(pp(1)), "frozen image now has it");
    }

    #[test]
    fn flush_hides_frozen_image_for_the_rest_of_the_epoch() {
        let mut stlb = shared();
        Arc::get_mut(&mut stlb)
            .unwrap()
            .get_mut()
            .insert(vp(7), pp(7), true);
        let mut view = StlbView::new(Arc::clone(&stlb));
        assert_eq!(view.lookup(vp(7)), Some(pp(7)));
        view.flush();
        assert_eq!(view.lookup(vp(7)), None);
        view.insert(vp(8), pp(8), true);
        assert_eq!(view.lookup(vp(8)), Some(pp(8)), "post-flush inserts live");
        let mut ops = Vec::new();
        view.take_epoch(&mut ops);
        replay(&stlb, &ops);
        assert_eq!(stlb.read().peek(vp(7)), None, "flush replayed");
        assert_eq!(stlb.read().peek(vp(8)), Some(pp(8)));
    }

    #[test]
    fn take_epoch_resets_visibility() {
        let mut stlb = shared();
        Arc::get_mut(&mut stlb)
            .unwrap()
            .get_mut()
            .insert(vp(3), pp(3), true);
        let mut view = StlbView::new(Arc::clone(&stlb));
        view.flush();
        let mut ops = Vec::new();
        view.take_epoch(&mut ops);
        // The replayed flush emptied nothing here (we dropped the ops),
        // so the frozen image must be visible again next epoch.
        assert_eq!(view.lookup(vp(3)), Some(pp(3)));
    }
}
