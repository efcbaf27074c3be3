//! A machine's records do not depend on how many host threads step it.
//!
//! The runner runs every machine on one thread, so the figures never
//! exercise another width; `RunSpec::execute_cached` still takes one.
//! This pins fig21's contended 4-core machines, at the default run
//! length, to the same record at widths 1 and 4. At that length
//! shootdowns fire, so a driver that delivered them only to the issuing
//! thread's cores would fail here. Release-only; run it under
//! `MORRIGAN_AUDIT=1` to audit every record too.

use morrigan_experiments::fig21_multicore::machine_spec;
use morrigan_experiments::{PrefetcherKind, Scale};
use morrigan_runner::json::record_json;
use morrigan_runner::WorkloadCache;

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn fig21_contended_machines_are_width_invariant() {
    let scale = Scale::quick();
    let cache = WorkloadCache::in_memory();
    for tenants in [2, 3] {
        for prefetcher in [PrefetcherKind::None, PrefetcherKind::Morrigan] {
            let spec = machine_spec(4, tenants, &scale, prefetcher);
            let serial = spec.execute_cached(None, None, Some(1), &cache);
            let wide = spec.execute_cached(None, None, Some(4), &cache);
            let summary = serial.machine.as_ref().expect("a machine summary");
            assert!(summary.shootdowns_issued > 0, "shootdowns must fire");
            assert_eq!(
                record_json(&serial),
                record_json(&wide),
                "4 cores x {tenants} tenants, {prefetcher:?}: width 4 changed the record"
            );
        }
    }
}
