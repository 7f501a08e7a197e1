//! Figure 9: MapReduce (wordcount-shaped) task-completion CDFs with a
//! metadata-server failure injected mid-job — CFS (MAMS-3A9S) vs Boom-FS.
//!
//! Expected shape (paper): both systems finish the job, but Boom-FS's
//! slower centralized recovery stalls maps (and therefore the reduce
//! barrier) longer; CFS completes maps ~28% and reduces ~10% sooner in the
//! failure case.

use mams_baselines::{boomfs, Mechanism};
use mams_bench::{arr, obj, save_json};
use mams_cluster::deploy::DeploySpec;
use mams_mapreduce::{build_job, JobSpec, JobStats};
use mams_sim::{Duration, Sim, SimConfig, SimTime};
use std::sync::Arc;

const FAIL_AT: SimTime = SimTime(30_000_000);

fn job_spec() -> JobSpec {
    JobSpec {
        maps: 64,
        reduces: 10,
        workers: 8,
        map_compute: Duration::from_secs(4),
        reduce_compute: Duration::from_secs(6),
    }
}

/// The job on `mechanism`, its serving node crashed at [`FAIL_AT`] if
/// `fail`: group 0's boot-time active, or the elected Boom-FS leader.
fn run(mechanism: Mechanism, seed: u64, fail: bool) -> Arc<JobStats> {
    let (name, boom) = (mechanism.name(), matches!(mechanism, Mechanism::BoomFs));
    let mut sim = Sim::new(SimConfig { seed, trace: true, ..SimConfig::default() });
    let d = mechanism.build(&mut sim);
    if boom {
        // Give the RSM time to elect before the job starts.
        sim.run_for(Duration::from_secs(10));
    }
    let stats = JobStats::new();
    build_job(&mut sim, d.coord, d.partitioner, job_spec(), stats.clone());
    if fail {
        let active = d.initial_active(0);
        sim.at(FAIL_AT, move |s| {
            s.crash(if boom { boomfs::last_leader(s).expect("a leader exists") } else { active })
        });
    }
    sim.run_until(SimTime(600_000_000));
    assert!(stats.job_done_at().is_some(), "{name} job (fail={fail}) did not finish");
    stats
}

fn secs(us: u64) -> f64 {
    us as f64 / 1e6
}

/// Completion times relative to the job's start.
fn summarize(label: &str, stats: &JobStats) -> (f64, f64) {
    let t0 = stats.started_at().expect("job started");
    let rel = |us: u64| secs(us.saturating_sub(t0));
    let maps = stats.maps_done();
    let reduces = stats.reduces_done();
    let map_done = rel(*maps.last().expect("maps"));
    let red_done = rel(*reduces.last().expect("reduces"));
    println!(
        "{label:<24} maps 50%/90%/100%: {:>6.1}/{:>6.1}/{:>6.1}s   reduces 100%: {:>6.1}s",
        rel(JobStats::quantile(&maps, 0.5).expect("q")),
        rel(JobStats::quantile(&maps, 0.9).expect("q")),
        map_done,
        red_done,
    );
    (map_done, red_done)
}

fn main() {
    println!("Running the no-failure references...");
    let cfs = || Mechanism::Mams(DeploySpec::mams(3, 9));
    let cfs_ok = run(cfs(), 0xF169, false);
    let boom_ok = run(Mechanism::BoomFs, 0xF16A, false);
    println!("Running the failure cases (metadata server killed at t=30s)...");
    let cfs_fail = run(cfs(), 0xF169, true);
    let boom_fail = run(Mechanism::BoomFs, 0xF16A, true);

    println!("\n== Figure 9: task completion under a mid-job MDS failure ==");
    summarize("CFS (normal)", &cfs_ok);
    summarize("Boom-FS (normal)", &boom_ok);
    let (cfs_map, cfs_red) = summarize("CFS (failure)", &cfs_fail);
    let (boom_map, boom_red) = summarize("Boom-FS (failure)", &boom_fail);

    let map_gain = (boom_map - cfs_map) / boom_map * 100.0;
    let red_gain = (boom_red - cfs_red) / boom_red * 100.0;
    println!("\nCFS finishes maps {map_gain:.1}% sooner and reduces {red_gain:.1}% sooner than Boom-FS under failure");
    println!("(paper: 28.13% and 9.76%)");
    assert!(map_gain > 0.0, "CFS must beat Boom-FS on map completion under failure");

    let points =
        |times: &[u64]| arr(JobStats::cdf(times).into_iter().map(|(t, f)| arr([secs(t), f])));
    let cdf = |s: &JobStats| {
        obj([("maps", points(&s.maps_done())), ("reduces", points(&s.reduces_done()))])
    };
    save_json(
        "fig9_mapreduce_failover",
        &obj([
            ("cfs_normal", cdf(&cfs_ok)),
            ("boomfs_normal", cdf(&boom_ok)),
            ("cfs_failure", cdf(&cfs_fail)),
            ("boomfs_failure", cdf(&boom_fail)),
            ("map_gain_pct", map_gain.into()),
            ("reduce_gain_pct", red_gain.into()),
        ]),
    );
}
