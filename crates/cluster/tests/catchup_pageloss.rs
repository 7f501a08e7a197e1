//! Windowed journal catch-up under sustained page loss.
//!
//! Regression guard on the paged `CatchupStage::Journal` path: a junior
//! replaying the shared journal pages its reads with several requests in
//! flight. When pages are repeatedly lost, the re-anchor-on-idle repair must
//! keep re-driving the window until the junior converges — a single lost
//! page must never strand the renewal.

use mams_cluster::deploy::{build, DeploySpec};
use mams_cluster::faults;
use mams_cluster::metrics::Metrics;
use mams_cluster::workload::Workload;
use mams_core::MdsTrace;
use mams_sim::{Duration, Sim, SimConfig, SimTime};

#[test]
fn journal_catchup_converges_under_sustained_page_loss() {
    let mut s = Sim::new(SimConfig { seed: 77, ..SimConfig::default() });
    let mut spec = DeploySpec { standbys_per_group: 2, ..DeploySpec::default() };
    // Force the journal-replay path: never fall back to an image load, no
    // matter how far behind the junior is.
    spec.timing.renew_image_gap = u64::MAX;
    let mut d = build(&mut s, spec);

    let m = Metrics::new(false);
    d.add_client(&mut s, Workload::create_only(0), m.clone());

    // Take a standby down long enough for its session to expire and a real
    // journal gap to accumulate, then restart it into a lossy world: every
    // junior↔pool link drops half its messages while it catches up.
    let standby = d.groups[0].members[2];
    faults::schedule_crash_restart(&mut s, standby, SimTime(10_000_000), Duration::from_secs(6));
    for &p in &d.pool {
        faults::schedule_loss(
            &mut s,
            standby,
            p,
            0.5,
            SimTime(16_000_000),
            Some(Duration::from_secs(20)),
        );
    }
    s.run_for(Duration::from_secs(80));

    // The junior must have converged and been promoted back to standby —
    // if catch-up wedges on a lost page, this is what goes missing.
    let promoted = s.trace().of::<MdsTrace>().any(|(t, _, e)| {
        t > SimTime(16_000_000)
            && matches!(e, MdsTrace::JuniorPromoted { junior } if *junior == standby)
    });
    assert!(promoted, "restarted member never converged back to standby under page loss");
    // Replaying with lost-and-retried pages must not reorder or skip
    // records.
    assert!(
        !s.trace().of::<MdsTrace>().any(|(_, _, e)| matches!(e, MdsTrace::Diverged { .. })),
        "catch-up under loss produced a divergent replica"
    );
    // The cluster as a whole kept serving throughout.
    assert!(m.ok_count() > 1_000, "only {} ops completed", m.ok_count());
}
