//! Trace exporters: JSONL for ad-hoc scripting and Chrome
//! `trace_event` JSON so a run opens directly in Perfetto or
//! `chrome://tracing`.
//!
//! The workspace deliberately carries no JSON dependency; both
//! exporters hand-render their (entirely numeric/ASCII) documents.

use morrigan_types::{VirtPage, WalkKind};

use crate::event::{EventKind, TraceEvent};
use crate::recorder::TraceRecorder;

/// Chrome trace thread lanes, one per pipeline station.
const TID_TRANSLATION: u32 = 0;
const TID_WALKER: u32 = 1;
const TID_PREFETCH: u32 = 2;
const TID_ICACHE: u32 = 3;
const TID_IRIP: u32 = 4;

/// The process/tenant an event belongs to, recovered from its fused VPN;
/// ASID 0 is the single-tenant identity.
fn asid_of(vpn: u64) -> u16 {
    VirtPage::new(vpn).asid()
}

/// Lanes are grouped per ASID: tenant `a`'s stations live at
/// `a * 100 + station`, so ASID 0 (single-tenant runs) keeps the
/// original lane numbers and multi-tenant traces read side by side.
const ASID_LANE_STRIDE: u32 = 100;

fn station(kind: &EventKind) -> u32 {
    match kind {
        EventKind::IstlbMiss | EventKind::PbProbe(_) | EventKind::PbPromote { .. } => {
            TID_TRANSLATION
        }
        EventKind::WalkIssue { .. } | EventKind::WalkComplete { .. } => TID_WALKER,
        EventKind::PbFill { .. } | EventKind::PbEvict { .. } | EventKind::PrefetchIssue { .. } => {
            TID_PREFETCH
        }
        EventKind::PrefetchDrop { .. } => TID_PREFETCH,
        EventKind::IripEvict { .. } => TID_IRIP,
        EventKind::IcacheCross(_) => TID_ICACHE,
    }
}

fn lane(event: &TraceEvent) -> u32 {
    u32::from(asid_of(event.vpn)) * ASID_LANE_STRIDE + station(&event.kind)
}

/// Short human-facing event name shown on the timeline.
fn display_name(kind: &EventKind) -> String {
    match kind {
        EventKind::IstlbMiss => "istlb_miss".into(),
        EventKind::PbProbe(outcome) => format!("pb_probe_{}", outcome.name()),
        EventKind::PbPromote { .. } => "pb_promote".into(),
        EventKind::PbFill { .. } => "pb_fill".into(),
        EventKind::PbEvict { .. } => "pb_evict".into(),
        EventKind::PrefetchIssue { .. } => "prefetch_issue".into(),
        EventKind::PrefetchDrop { reason, .. } => format!("prefetch_drop_{}", reason.name()),
        EventKind::IripEvict { .. } => "irip_evict".into(),
        EventKind::WalkIssue { class, .. } => format!("walk_issue_{}", class.name()),
        EventKind::WalkComplete { class, .. } => format!("walk_{}", class.name()),
        EventKind::IcacheCross(outcome) => format!("icache_cross_{}", outcome.name()),
    }
}

/// Extra `"key":value` args (beyond `vpn`) an event carries.
fn extra_args(kind: &EventKind) -> String {
    match kind {
        EventKind::PbPromote { component, late } => {
            format!(",\"component\":\"{}\",\"late\":{late}", component.name())
        }
        EventKind::PbFill { component }
        | EventKind::PbEvict { component }
        | EventKind::PrefetchIssue { component } => {
            format!(",\"component\":\"{}\"", component.name())
        }
        EventKind::PrefetchDrop { component, reason } => format!(
            ",\"component\":\"{}\",\"reason\":\"{}\"",
            component.name(),
            reason.name()
        ),
        EventKind::IripEvict { table } => format!(",\"table\":{table}"),
        EventKind::WalkIssue { psc_skip, .. } => format!(",\"psc_skip\":{psc_skip}"),
        EventKind::WalkComplete { refs, duration, .. } => {
            format!(",\"refs\":{refs},\"duration\":{duration}")
        }
        _ => String::new(),
    }
}

fn walk_class_lane_offset(class: WalkKind) -> u32 {
    // Walk spans of different classes routinely overlap in time (the
    // walker has multiple slots); giving each class its own sub-lane
    // keeps the Perfetto rendering legible.
    class.index() as u32
}

/// Renders the retained events as Chrome `trace_event` JSON (the
/// "JSON object format": `{"traceEvents": [...], ...}`).
///
/// Simulated cycles are rendered one-cycle-per-microsecond, the scale
/// Perfetto's timeline is most comfortable at. `WalkComplete` events
/// become `"X"` complete spans covering the walk's issue-to-completion
/// window; everything else becomes an `"i"` instant. Trace recording
/// is single-core: metadata records name the process `morrigan-sim
/// core 0` (pid 1) and each station lane after the core and its ASID,
/// giving each tenant its own lane block so multi-tenant traces stay
/// legible.
pub fn to_chrome_trace(trace: &TraceRecorder) -> String {
    let mut out = String::with_capacity(128 + trace.len() * 96);
    out.push_str("{\"traceEvents\":[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"morrigan-sim core 0\"}},\n",
    );
    // One lane block per ASID seen in the retained events; ASID 0 keeps
    // the original lane ids so single-tenant traces are unchanged.
    let mut asids: Vec<u16> = trace.events().map(|e| asid_of(e.vpn)).collect();
    asids.sort_unstable();
    asids.dedup();
    if asids.is_empty() {
        asids.push(0);
    }
    for &asid in &asids {
        let base = u32::from(asid) * ASID_LANE_STRIDE;
        for (tid, name) in [
            (TID_TRANSLATION, "translation"),
            (TID_WALKER, "walker (demand_instr)"),
            (TID_PREFETCH, "prefetch-buffer"),
            (TID_ICACHE, "icache-prefetch"),
            (TID_IRIP, "irip-tables"),
        ] {
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"core 0 asid {asid} {name}\"}}}},\n",
                base + tid
            ));
        }
        // Extra walker sub-lanes for data/prefetch walks, declared in
        // the metadata block so every lane the events use is named.
        for class in [WalkKind::DemandData, WalkKind::Prefetch] {
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"core 0 asid {asid} walker ({})\"}}}},\n",
                base + TID_WALKER + 10 + walk_class_lane_offset(class),
                class.name()
            ));
        }
    }

    let mut first = true;
    for event in trace.events() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let name = display_name(&event.kind);
        let asid = asid_of(event.vpn);
        match event.kind {
            EventKind::WalkComplete {
                class,
                refs,
                duration,
            } => {
                let base = u32::from(asid) * ASID_LANE_STRIDE;
                let tid = if class == WalkKind::DemandInstruction {
                    base + TID_WALKER
                } else {
                    base + TID_WALKER + 10 + walk_class_lane_offset(class)
                };
                let start = event.cycle.saturating_sub(u64::from(duration));
                out.push_str(&format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{start},\
                     \"dur\":{duration},\"name\":\"{name}\",\
                     \"args\":{{\"vpn\":\"{:#x}\",\"asid\":{asid},\"refs\":{refs}}}}}",
                    event.vpn
                ));
            }
            _ => {
                out.push_str(&format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"s\":\"t\",\
                     \"name\":\"{name}\",\"args\":{{\"vpn\":\"{:#x}\",\"asid\":{asid}{}}}}}",
                    lane(event),
                    event.cycle,
                    event.vpn,
                    extra_args(&event.kind)
                ));
            }
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\",");
    out.push_str(&format!(
        "\"otherData\":{{\"core\":0,\"dropped_events\":{},\"total_events\":{}}}}}\n",
        trace.dropped(),
        trace.counts().total()
    ));
    out
}

/// Renders the retained events as JSON Lines: one flat object per
/// event, oldest first, friendly to `jq`/pandas, closed by a summary
/// line (`"summary":true`) reporting exact totals and how many events
/// the ring dropped — so saturation is never silent.
pub fn to_jsonl(trace: &TraceRecorder) -> String {
    let mut out = String::with_capacity(trace.len() * 80 + 80);
    for event in trace.events() {
        out.push_str(&format!(
            "{{\"cycle\":{},\"vpn\":\"{:#x}\",\"asid\":{},\"event\":\"{}\"{}}}\n",
            event.cycle,
            event.vpn,
            asid_of(event.vpn),
            display_name(&event.kind),
            extra_args(&event.kind)
        ));
    }
    out.push_str(&format!(
        "{{\"summary\":true,\"total_events\":{},\"retained_events\":{},\"dropped_events\":{}}}\n",
        trace.counts().total(),
        trace.len(),
        trace.dropped()
    ));
    out
}
