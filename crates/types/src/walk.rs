//! The demand class of a page walk, shared by the walker that performs
//! it and the trace events that narrate it.

/// Who requested a page walk; selects the walker's accounting bucket, the
/// access class of its references and its lane in an exported trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WalkKind {
    /// A demand walk triggered by an instruction STLB miss (critical path).
    DemandInstruction,
    /// A demand walk triggered by a data STLB miss.
    DemandData,
    /// A background prefetch walk.
    Prefetch,
}

impl WalkKind {
    /// All kinds, in [`Self::index`] order.
    pub const ALL: [WalkKind; 3] = [
        WalkKind::DemandInstruction,
        WalkKind::DemandData,
        WalkKind::Prefetch,
    ];

    /// Dense index for per-kind counter arrays.
    pub fn index(self) -> usize {
        match self {
            WalkKind::DemandInstruction => 0,
            WalkKind::DemandData => 1,
            WalkKind::Prefetch => 2,
        }
    }

    /// Stable lowercase name used by the exporters and reports.
    pub fn name(self) -> &'static str {
        match self {
            WalkKind::DemandInstruction => "demand_instr",
            WalkKind::DemandData => "demand_data",
            WalkKind::Prefetch => "prefetch",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_in_index_order_with_distinct_names() {
        for (i, kind) in WalkKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        let names = WalkKind::ALL.map(WalkKind::name);
        assert_eq!(names, ["demand_instr", "demand_data", "prefetch"]);
    }
}
