//! The active keeps the pool's checkpoint chain short.
//!
//! With deltas only, nothing but the active's own chain rule ever writes a
//! full image: a tick that finds the chain holding more than 8 deltas, or
//! deltas outweighing max(base, 64 KiB), writes an image instead of folding
//! another delta. So whatever a reader has to stream to catch up, the
//! manifest never holds more than that bound plus the one delta a tick may
//! fold just under it.

mod common;

use common::{group, secs};
use mams::core::MdsTiming;
use mams::sim::Duration;

#[test]
fn the_manifest_chain_stays_within_the_active_chain_rule() {
    // The delta-only setting of `block_ids_after_image.rs`.
    let timing = MdsTiming {
        delta_interval: Some(Duration::from_secs(1)),
        renew_image_gap: 9,
        ..MdsTiming::default()
    };
    let mut g = group(0xc4a1, 1, timing, 3);
    let (mut by_count, mut by_bytes) = (0, 0);
    let mut last: Option<(u64, usize)> = None;
    for step in 1..=300 {
        g.sim.run_until(secs(step as f64 * 0.1));
        let pool = g.pool_state.lock();
        let Some(manifest) = pool.group(0).map(|s| s.manifest().clone()) else { continue };
        let Some(base) = manifest.base() else { continue };
        let deltas = manifest.deltas();
        let floor = base.bytes.max(64 * 1024);
        let delta_bytes: u64 = deltas.iter().map(|d| d.bytes).sum();
        let newest = deltas.last().map_or(0, |d| d.bytes);
        assert!(deltas.len() <= 8 + 1, "{} deltas at {step}: {manifest:?}", deltas.len());
        assert!(
            delta_bytes - newest <= floor,
            "{delta_bytes} delta bytes on a {} byte base at {step}: {manifest:?}",
            base.bytes
        );
        // A base replaced its chain: say which half of the rule did it.
        match last {
            Some((id, n)) if id != base.id => {
                if n > 8 {
                    by_count += 1;
                } else {
                    by_bytes += 1;
                }
            }
            _ => {}
        }
        last = Some((base.id, deltas.len()));
    }
    assert!(g.metrics.ok_count() > 10_000, "the run was meant to be busy");
    assert!(by_count > 0 && by_bytes > 0, "images by count {by_count}, by bytes {by_bytes}");
}
