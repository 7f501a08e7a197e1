//! Ablations over the design choices DESIGN.md calls out:
//!
//! 1. failure-detection (session) timeout vs MTTR — detection dominates
//!    MAMS failover, so MTTR ≈ timeout + a small constant;
//! 2. number of hot standbys vs MTTR and vs throughput — one standby is
//!    enough for fast failover; each standby costs a few percent of
//!    mutation throughput (reliability is what the extras buy);
//! 3. SSP journal-disk latency vs client op latency — the "built-in shared
//!    storage pool reduces the overhead for state synchronization" claim:
//!    ops track pool latency, so a slow pool *would* be the bottleneck;
//! 4. (fixed flush intervals vs the group-commit controller: removed with
//!    the fixed cadence; its recorded table is in EXPERIMENTS.md);
//! 5. the renewing protocol's image path vs journal-only replay for a
//!    large sn gap — why juniors load images instead of replaying
//!    everything.

use mams_baselines::{KillRig, Mechanism};
use mams_bench::{arr, obj, print_table, save_json, Value};
use mams_cluster::deploy::{build, DeploySpec, CLIENT_SEED};
use mams_cluster::metrics::Metrics;
use mams_cluster::workload::Workload;
use mams_core::{MdsReq, MdsTrace};
use mams_sim::{Duration, Sim, SimConfig, SimTime};
use mams_storage::DiskModel;

/// Print one ablation's table and return its rows for `ablations.json`:
/// one object per row keyed by column header, numeric cells as numbers.
fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> Value {
    print_table(title, headers, rows);
    let cell = |c: &String| c.parse::<f64>().map_or_else(|_| c.as_str().into(), Value::from);
    arr(rows.iter().map(|row| {
        Value::Object(headers.iter().zip(row).map(|(h, c)| (h.to_string(), cell(c))).collect())
    }))
}

fn base_spec(standbys: usize) -> DeploySpec {
    DeploySpec { groups: 1, standbys_per_group: standbys, ..DeploySpec::default() }
}

fn throughput_with(spec: DeploySpec, clients: u32, seed: u64) -> f64 {
    let mut sim = Sim::new(SimConfig { seed, trace: false, ..SimConfig::default() });
    let mut d = build(&mut sim, spec);
    let m = Metrics::new(false);
    for c in 0..clients {
        d.add_client(&mut sim, Workload::create_only(c), m.clone());
    }
    sim.run_for(Duration::from_secs(3));
    sim.run_for(Duration::from_secs(10));
    m.mean_throughput(3, 13)
}

fn ablate_session_timeout() -> Value {
    let mut rows = Vec::new();
    for timeout_s in [1u64, 2, 5, 10] {
        let mut spec = base_spec(3);
        spec.coord.session_timeout = Duration::from_secs(timeout_s);
        spec.timing.heartbeat = Duration::from_millis((timeout_s * 1000 / 3).max(200));
        let cfg = SimConfig { seed: 0xAB1 + timeout_s, ..SimConfig::default() };
        let mut rig = KillRig::new(cfg, Mechanism::Mams(spec));
        rig.add_client(CLIENT_SEED, |_| {});
        let mttr = rig.mttr_after(SimTime(15_000_000), SimTime(60_000_000));
        rows.push(vec![
            format!("{timeout_s}"),
            format!("{mttr:.2}"),
            format!("{:.2}", mttr - timeout_s as f64),
        ]);
    }
    let json = table(
        "Ablation 1: session timeout vs MTTR (1A3S)",
        &["timeout (s)", "MTTR (s)", "MTTR − timeout"],
        &rows,
    );
    println!("detection dominates: the post-timeout remainder stays roughly constant.");
    json
}

fn ablate_standby_count() -> Value {
    let mut rows = Vec::new();
    for standbys in [1usize, 2, 3, 4] {
        let cfg = SimConfig { seed: 0xAB2 + standbys as u64, ..SimConfig::default() };
        let mut rig = KillRig::new(cfg, Mechanism::Mams(base_spec(standbys)));
        rig.add_client(CLIENT_SEED, |_| {});
        let mttr = rig.mttr_after(SimTime(15_000_000), SimTime(60_000_000));
        let tput = throughput_with(base_spec(standbys), 48, 0xAB2);
        rows.push(vec![format!("{standbys}"), format!("{mttr:.2}"), format!("{tput:.0}")]);
    }
    let json = table(
        "Ablation 2: hot standbys vs MTTR and create throughput (1 group, 48 clients)",
        &["standbys", "MTTR (s)", "create ops/s"],
        &rows,
    );
    println!("one standby already gives fast failover; extras buy failure tolerance,");
    println!("not speed, and cost a few percent of mutation throughput each.");
    json
}

fn ablate_pool_latency() -> Value {
    let mut rows = Vec::new();
    for overhead_us in [500u64, 1_500, 5_000, 15_000] {
        let disk = DiskModel {
            op_overhead: Duration::from_micros(overhead_us),
            bytes_per_sec: 100 * 1024 * 1024,
        };
        let mut spec = base_spec(3);
        spec.pool_disks = Some((disk, DiskModel::image_disk()));
        // Few clients => latency-bound: op latency tracks the pool.
        let tput = throughput_with(spec, 4, 0xAB3 + overhead_us);
        let latency_ms = 4.0 * 1000.0 / tput;
        rows.push(vec![
            format!("{:.1}", overhead_us as f64 / 1000.0),
            format!("{tput:.0}"),
            format!("{latency_ms:.2}"),
        ]);
    }
    let json = table(
        "Ablation 3: SSP journal latency vs op latency (4 clients, latency-bound)",
        &["pool fsync (ms)", "ops/s", "mean op latency (ms)"],
        &rows,
    );
    println!("client-visible latency tracks the SSP append — the pool being cheap is");
    println!("what keeps MAMS synchronization overhead negligible (Figure 5/6 claim).");
    json
}

fn ablate_renewing_image_path() -> Value {
    // Recovery time as a function of history length, with and without a
    // checkpointed image. Without checkpoints the junior must replay the
    // whole journal (cost grows with history, and the shared journal can
    // never be compacted); with a recent checkpoint it loads the image and
    // replays only the tail.
    let mut rows = Vec::new();
    for history_s in [30u64, 60, 90] {
        let mut cells = vec![format!("{history_s}")];
        for checkpoint in [true, false] {
            let mut sim = Sim::new(SimConfig { seed: 0xAB5 + history_s, ..SimConfig::default() });
            let mut d = build(&mut sim, base_spec(2));
            let m = Metrics::new(false);
            for c in 0..8 {
                d.add_client(&mut sim, Workload::create_only(c), m.clone());
            }
            let active = d.initial_active(0);
            if checkpoint {
                // Checkpoint shortly before the crash (a realistic cadence).
                let at = SimTime((history_s - 3) * 1_000_000);
                sim.at(at, move |s| s.send_external(active, MdsReq::Checkpoint));
            }
            let standby = d.groups[0].members[1];
            let crash_at = SimTime(history_s * 1_000_000);
            sim.at(crash_at, move |s| s.crash(standby));
            let restart_at = crash_at + Duration::from_secs(2);
            sim.at(restart_at, move |s| s.restart(standby));
            sim.run_until(crash_at + Duration::from_secs(120));
            let catchup = sim
                .trace()
                .of::<MdsTrace>()
                .find(|&(t, _, e)| t >= restart_at && matches!(e, MdsTrace::JuniorPromoted { .. }))
                .map(|(t, _, _)| (t - restart_at).as_secs_f64());
            cells.push(catchup.map_or("never".into(), |c| format!("{c:.2}")));
        }
        rows.push(cells);
    }
    let json = table(
        "Ablation 5: junior recovery time vs history length",
        &["history (s)", "with checkpoint+image (s)", "journal-only replay (s)"],
        &rows,
    );
    println!("journal-only recovery grows with the whole history; the image path is");
    println!("bounded by namespace size plus the journal tail since the checkpoint.");
    json
}

fn main() {
    save_json(
        "ablations",
        &obj([
            ("session_timeout", ablate_session_timeout()),
            ("standby_count", ablate_standby_count()),
            ("pool_latency", ablate_pool_latency()),
            ("renewing_image_path", ablate_renewing_image_path()),
        ]),
    );
}
