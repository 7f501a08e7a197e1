//! One workload, start to finish: set up a cluster, measure windows of fixed
//! virtual length, audit what the cluster ended up holding.
//!
//! The work of a run is a function of `(workload, seed, windows)` alone —
//! the scripts, the simulator's random stream and so every virtual-time
//! figure and count repeat exactly. What varies between runs of one seed is
//! only how long this machine took, which `cpu_ns_per_op` and `setup_s`
//! measure, scaled by the meter to a machine of nominal speed.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use mams_chaos::{check_history, CheckOutcome};
use mams_cluster::{Completion, History, Metrics};
use mams_core::FsOp;
use mams_sim::{Duration, NodeId, NodeStatus, SimTime};
use mams_storage::ArtifactId;

use crate::cluster::{self, active_of, ClientOpts, Cluster, Member};
use crate::probe::{lock, LayerStats, PoolCounts, LAYERS};
use crate::script::{self, Oracle};
use crate::stats::Meter;
use crate::workload::{Spec, CRASH_STEP_MS, RESTART_AFTER_S};

/// A measured client: node, completion log, length of its script.
pub struct Client {
    node: NodeId,
    metrics: Arc<Metrics>,
    script_len: usize,
}

/// A cluster that is populated, warmed up and ready to be measured.
pub struct Staged {
    pub cluster: Cluster,
    clients: Vec<Client>,
    history: Option<Arc<History>>,
    pub script_bytes: usize,
}

/// In a traced run the driver looks at the cluster every this many events.
const SAMPLE_EVERY: u64 = 4096;
/// The populate phase is given this much virtual time per step and in all.
const POPULATE_STEP: Duration = Duration::from_millis(100);
const POPULATE_LIMIT: Duration = Duration::from_secs(600);
/// One client in this many has its history recorded and checked.
const HISTORY_EVERY: usize = 4;

fn done(m: &Metrics) -> usize {
    (m.ok_count() + m.failed_count()) as usize
}

/// Build the cluster, make the namespace the workload starts from through
/// the cluster itself, then start the measured clients and warm up.
///
/// Returns the staged cluster and the on-CPU seconds, at nominal machine
/// speed, that staging it took.
pub fn stage(
    spec: &Spec,
    seed: u64,
    windows: u32,
    traced: bool,
    meter: &mut Meter,
) -> Result<(Staged, f64), String> {
    let mut stretch = meter.start();
    let mut cluster = cluster::build(spec, seed, traced);
    let run_ops = spec.run_ops_per_client(windows);
    let mut scripts: Vec<script::Scripts> =
        (0..spec.clients).map(|c| script::generate(spec, seed, c, run_ops)).collect();

    // Where the active is crashed, every `HISTORY_EVERY`-th client is
    // recorded, from its first populate op on: the checker starts from an
    // empty namespace, and a client's paths are its own, so the history of
    // some clients is checkable without the others'.
    let history = spec.crash.then(History::new);
    let history_of = |c: usize| history.clone().filter(|_| c.is_multiple_of(HISTORY_EVERY));
    let populators: Vec<(NodeId, Arc<Metrics>, usize)> = scripts
        .iter_mut()
        .enumerate()
        .map(|(c, s)| {
            let ops = std::mem::take(&mut s.populate);
            let (metrics, len) = (Metrics::new(false), ops.len());
            let opts = ClientOpts { history: history_of(c), ..ClientOpts::default() };
            (cluster.add_client(ops, opts, metrics.clone()), metrics, len)
        })
        .collect();
    let deadline = cluster.sim.now() + POPULATE_LIMIT;
    while populators.iter().any(|(_, m, len)| done(m) < *len) {
        if cluster.sim.now() >= deadline {
            return Err(format!("{}: populate did not finish in {POPULATE_LIMIT:?}", spec.name));
        }
        cluster.sim.run_for(POPULATE_STEP);
        meter.tick(&mut stretch);
    }
    for (node, metrics, _) in &populators {
        if metrics.failed_count() > 0 {
            return Err(format!("{}: {} populate ops failed", spec.name, metrics.failed_count()));
        }
        cluster.sim.crash(*node);
    }

    let script_bytes = scripts.iter().map(|s| script::script_bytes(&s.run)).sum();
    let clients = scripts
        .into_iter()
        .enumerate()
        .map(|(c, s)| {
            let (metrics, script_len) = (Metrics::new(true), s.run.len());
            let opts =
                ClientOpts { think: Duration::from_millis(spec.think_ms), history: history_of(c) };
            Client { node: cluster.add_client(s.run, opts, metrics.clone()), metrics, script_len }
        })
        .collect();
    for _ in 0..spec.warmup_s {
        cluster.sim.run_for(Duration::from_secs(1));
        meter.tick(&mut stretch);
    }
    Ok((Staged { cluster, clients, history, script_bytes }, meter.finish(stretch)))
}

/// One measured window.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub start_us: u64,
    pub end_us: u64,
    /// On-CPU ns as the scheduler counted them, and the machine's speed
    /// while it did (the mean of the meter's readings at the window's ends).
    pub cpu_ns: u64,
    pub speed: f64,
    /// `cpu_ns * speed` per op acknowledged in the window, the least over
    /// all repetitions of this window (see `repeat`).
    pub best_cpu_ns_per_op: f64,
    pub wall_ns: u64,
    /// Simulator events stepped; counted in a traced run only.
    pub events: u64,
    /// Per layer: busy ns inside this window (traced only).
    pub busy_ns: [u64; LAYERS.len()],
}

/// A crash the driver injected.
#[derive(Debug, Clone, Copy)]
pub struct Crash {
    pub at_us: u64,
    pub node: NodeId,
}

/// What the driver saw between events of a traced run.
#[derive(Debug, Default)]
pub struct Samples {
    /// Active minus standby applied sn, one entry per standby per look.
    pub lags: Vec<u64>,
    /// Base artifact of each group's manifest at the last look.
    bases: Vec<Option<ArtifactId>>,
    image_writes_seen: u64,
    /// Base changes no full checkpoint explains: pool compactions.
    pub compactions: u64,
}

impl Samples {
    fn look(&mut self, cluster: &Cluster) {
        self.lags.extend(cluster.standby_lags());
        let image_writes = cluster.trace.as_ref().map_or(0, |t| lock(t).pool.image_writes);
        let pool = cluster.shared_pool.lock();
        self.bases.resize(cluster.groups.len(), None);
        for (g, seen) in self.bases.iter_mut().enumerate() {
            let base = pool.group(g as u32).and_then(|s| s.manifest().base().map(|b| b.id));
            if base != *seen && seen.is_some() && image_writes == self.image_writes_seen {
                self.compactions += 1;
            }
            *seen = base;
        }
        self.image_writes_seen = image_writes;
    }
}

/// Everything measured over the windows of one staged cluster.
#[derive(Default)]
pub struct Measured {
    pub windows: Vec<Window>,
    pub crashes: Vec<Crash>,
    /// Windows in which no member reported itself active at crash time.
    pub crashes_skipped: u64,
    pub samples: Samples,
    /// Successful completions inside the windows, by completion time.
    pub acks: Vec<Completion>,
    pub failed: u64,
    /// Trace totals over the windows (traced only).
    pub layers: Vec<LayerStats>,
    pub pool: PoolCounts,
    /// Journal batches the pool gained over the windows, all groups.
    pub batches: u64,
}

/// Acks that completed inside `w`, given all acks sorted by completion time.
pub fn acks_in<'a>(acks: &'a [Completion], w: &Window) -> &'a [Completion] {
    let from = acks.partition_point(|c| c.at_us < w.start_us);
    let to = acks.partition_point(|c| c.at_us < w.end_us);
    &acks[from..to]
}

fn schedule_crash(cluster: &mut Cluster, at: SimTime, log: &Arc<Mutex<(Vec<Crash>, u64)>>) {
    let members: Vec<Member> = cluster.groups[0].clone();
    let log = log.clone();
    cluster.sim.at(at, move |sim| match active_of(sim, &members) {
        Some(node) => {
            sim.crash(node);
            lock(&log).0.push(Crash { at_us: sim.now().micros(), node });
            sim.after(Duration::from_secs(RESTART_AFTER_S), move |s| s.restart(node));
        }
        None => lock(&log).1 += 1,
    });
}

fn pool_tail(cluster: &Cluster) -> u64 {
    let pool = cluster.shared_pool.lock();
    (0..cluster.groups.len()).filter_map(|g| pool.group(g as u32)).map(|s| s.tail_sn()).sum()
}

/// Drive the simulator to `until`. An untraced run hands the loop to the
/// simulator; a traced run steps it here, to count events and look at the
/// cluster between them.
fn drive(cluster: &mut Cluster, until: SimTime, samples: &mut Samples) -> u64 {
    let mut events = 0u64;
    if cluster.trace.is_some() {
        while cluster.sim.peek_time().is_some_and(|t| t <= until) {
            cluster.sim.step();
            events += 1;
            if events.is_multiple_of(SAMPLE_EVERY) {
                samples.look(cluster);
            }
        }
    }
    cluster.sim.run_until(until);
    events
}

pub fn measure(spec: &Spec, staged: &mut Staged, windows: u32, meter: &mut Meter) -> Measured {
    let cluster = &mut staged.cluster;
    let crash_log = Arc::new(Mutex::new((Vec::new(), 0)));
    let mut samples = Samples::default();
    let trace_totals = |c: &Cluster| -> Vec<LayerStats> {
        let log = c.trace.as_ref().map(|t| lock(t));
        LAYERS
            .iter()
            .map(|&l| log.as_ref().map(|g| g.layer(l).clone()).unwrap_or_default())
            .collect()
    };
    let pool_counts = |c: &Cluster| c.trace.as_ref().map(|t| lock(t).pool).unwrap_or_default();
    let (layers0, pool0, tail0) = (trace_totals(cluster), pool_counts(cluster), pool_tail(cluster));

    let mut out = Vec::new();
    let mut before = layers0.clone();
    let mut speed_before = meter.speed();
    for k in 0..windows {
        let start = cluster.sim.now();
        let end = start + Duration::from_secs(spec.window_s);
        if spec.crash {
            let offset = Duration::from_millis(u64::from(k % 10) * CRASH_STEP_MS);
            schedule_crash(cluster, start + offset, &crash_log);
        }
        let (cpu0, wall0) = (meter.clock.now_ns(), Instant::now());
        let events = drive(cluster, end, &mut samples);
        let (cpu_ns, wall_ns) = (meter.clock.now_ns() - cpu0, wall0.elapsed().as_nanos() as u64);
        let speed_after = meter.speed();
        let after = trace_totals(cluster);
        let mut w = Window {
            start_us: start.micros(),
            end_us: end.micros(),
            cpu_ns,
            speed: (speed_before + speed_after) / 2.0,
            wall_ns,
            events,
            ..Window::default()
        };
        for (i, (now, then)) in after.iter().zip(&before).enumerate() {
            w.busy_ns[i] = now.busy_ns - then.busy_ns;
        }
        (before, speed_before) = (after, speed_after);
        out.push(w);
    }

    let (from, to) = (out[0].start_us, out[out.len() - 1].end_us);
    let mut acks = Vec::new();
    let mut failed = 0;
    for c in &staged.clients {
        for done in c.metrics.completions() {
            if (from..to).contains(&done.at_us) {
                if done.ok {
                    acks.push(done);
                } else {
                    failed += 1;
                }
            }
        }
    }
    acks.sort_by_key(|c| c.at_us);

    let layers = trace_totals(cluster).iter().zip(&layers0).map(|(l, l0)| l.since(l0)).collect();
    let (crashes, crashes_skipped) = std::mem::take(&mut *lock(&crash_log));
    Measured {
        windows: out,
        crashes,
        crashes_skipped,
        samples,
        acks,
        failed,
        layers,
        pool: pool_counts(cluster).since(pool0),
        batches: pool_tail(cluster) - tail0,
    }
}

/// What `repeat` hands back: the last repetition, still staged for the
/// audit, with every window's `best_cpu_ns_per_op` taken over all of them.
pub struct Repeated {
    pub measured: Measured,
    pub staged: Staged,
    /// Seconds each set-up took, at nominal machine speed.
    pub setups_s: Vec<f64>,
    /// Whether every repetition acknowledged the same ops in every window.
    pub same_work: bool,
}

/// Set up and measure `reps` times over. The seed is the same, so each
/// repetition does the same work, window for window; what differs is how
/// fast this machine happened to be. The meter's speed takes out what a
/// neighbour does for minutes; what it does for a fraction of a second falls
/// between the meter's readings, but it can only add time, so the fastest
/// repetition of a window is the best estimate of what the window costs.
pub fn repeat(
    spec: &Spec,
    seed: u64,
    windows: u32,
    traced: bool,
    reps: usize,
    meter: &mut Meter,
) -> Result<Repeated, String> {
    let mut setups_s = Vec::new();
    let mut best: Vec<(f64, usize)> = Vec::new();
    let mut same_work = true;
    let mut last = None;
    for _ in 0..reps {
        // One cluster at a time, or the memory high-water mark counts two.
        drop(last.take());
        let (mut staged, setup_s) = stage(spec, seed, windows, traced, meter)?;
        setups_s.push(setup_s);
        let measured = measure(spec, &mut staged, windows, meter);
        for (k, w) in measured.windows.iter().enumerate() {
            let acks = acks_in(&measured.acks, w).len();
            let per_op = w.cpu_ns as f64 * w.speed / acks.max(1) as f64;
            match best.get_mut(k) {
                Some((least, first_acks)) => {
                    *least = per_op.min(*least);
                    same_work &= *first_acks == acks;
                }
                None => best.push((per_op, acks)),
            }
        }
        last = Some((measured, staged));
    }
    let (mut measured, staged) = last.ok_or("no repetition asked for")?;
    for (w, (per_op, _)) in measured.windows.iter_mut().zip(best) {
        w.best_cpu_ns_per_op = per_op;
    }
    Ok(Repeated { measured, staged, setups_s, same_work })
}

/// The audits' verdict: what failed, in words. Empty means correct.
pub type Findings = Vec<String>;

/// At most this many paths of each kind are read back.
const VERIFY_CAP: usize = 2_048;
const VERIFY_STRIDE: usize = 16;
const DRAIN: Duration = Duration::from_secs(3);
const VERIFY_LIMIT: Duration = Duration::from_secs(60);

/// Every `VERIFY_STRIDE`-th path, thinned further to stay under the cap.
fn sample<'a>(paths: impl ExactSizeIterator<Item = &'a String>) -> Vec<FsOp> {
    let stride = VERIFY_STRIDE.max(paths.len() / VERIFY_CAP);
    paths.step_by(stride).map(|p| FsOp::GetFileInfo { path: p.clone() }).collect()
}

/// Stop the clients, let the cluster settle, and check that what it holds
/// is what the scripts say it must hold. Runs outside every timed region.
pub fn audit(spec: &Spec, seed: u64, windows: u32, mut staged: Staged) -> Findings {
    let mut findings = Findings::new();
    let cluster = &mut staged.cluster;
    for c in &staged.clients {
        cluster.sim.crash(c.node);
    }
    cluster.sim.run_for(DRAIN);

    for (g, members) in cluster.groups.iter().enumerate() {
        let down: Vec<NodeId> = members
            .iter()
            .filter(|m| cluster.sim.node_status(m.0) != NodeStatus::Up)
            .map(|m| m.0)
            .collect();
        if !down.is_empty() {
            findings.push(format!("group {g}: members {down:?} are down at the end"));
            continue;
        }
        let state: Vec<_> = members
            .iter()
            .map(|(_, h)| {
                let m = lock(h);
                (m.applied_sn(), m.fingerprint(), m.divergences())
            })
            .collect();
        if state.iter().any(|s| (s.0, s.1) != (state[0].0, state[0].1)) {
            findings
                .push(format!("group {g}: members disagree on (sn, fingerprint, _): {state:?}"));
        }
        if state.iter().any(|s| s.2 != 0) {
            findings.push(format!("group {g}: replay diverged: {state:?}"));
        }
        if active_of(&cluster.sim, members).is_none() {
            findings.push(format!("group {g}: no member is active at the end"));
        }
    }

    // What must exist: replay each client's scripts, as far as it got, into
    // the oracle. The scripts are generated again rather than kept, so that
    // a run does not hold every script twice.
    let run_ops = spec.run_ops_per_client(windows);
    let mut oracle = Oracle::default();
    for (c, client) in staged.clients.iter().enumerate() {
        let scripts = script::generate(spec, seed, c as u32, run_ops);
        let reached = done(&client.metrics);
        if reached >= client.script_len {
            findings.push(format!("client {c} reached the end of its script; raise max_ops_per_s"));
        }
        scripts.populate.iter().chain(&scripts.run[..reached]).for_each(|op| oracle.apply(op));
        // The op in flight when the client stopped may or may not have run.
        // No other client's mutations touch its paths, so it can be
        // forgotten here and now.
        if let Some(op) = scripts.run.get(reached) {
            oracle.forget(op);
        }
    }
    let checks = [(sample(oracle.live.iter()), true), (sample(oracle.gone.iter()), false)];
    let verifiers: Vec<(Arc<Metrics>, usize, bool)> = checks
        .into_iter()
        .map(|(reads, expect_ok)| {
            let (metrics, len) = (Metrics::new(false), reads.len());
            cluster.add_client(reads, ClientOpts::default(), metrics.clone());
            (metrics, len, expect_ok)
        })
        .collect();
    let deadline = cluster.sim.now() + VERIFY_LIMIT;
    while verifiers.iter().any(|(m, len, _)| done(m) < *len) && cluster.sim.now() < deadline {
        cluster.sim.run_for(POPULATE_STEP);
    }
    for (metrics, len, expect_ok) in verifiers {
        let (ok, failed) = (metrics.ok_count() as usize, metrics.failed_count() as usize);
        let right = if expect_ok { ok } else { failed };
        if right != len {
            let what = if expect_ok { "paths that must exist" } else { "paths that must be gone" };
            findings.push(format!("read back {len} {what}: {ok} found, {failed} not found"));
        }
    }

    if let Some(history) = &staged.history {
        match check_history(&history.records()) {
            CheckOutcome::Ok { .. } => {}
            CheckOutcome::Violation { witness } => {
                findings.push(format!("history is not linearizable: {witness}"))
            }
            CheckOutcome::Inconclusive { states } => {
                findings.push(format!("history check ran out of budget after {states} states"))
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Probes;
    use crate::metrics::{self, LayerInputs};
    use crate::probe::Layer;
    use crate::workload;

    fn small(name: &str) -> Spec {
        let spec = workload::all().into_iter().find(|s| s.name == name).unwrap().quick();
        Spec { clients: 8, max_ops_per_s: spec.max_ops_per_s / 2, ..spec }
    }

    fn run_once(spec: &Spec, seed: u64, traced: bool) -> (Measured, Staged) {
        let mut meter = Meter::new();
        let (mut staged, setup_s) = stage(spec, seed, 2, traced, &mut meter).unwrap();
        assert!(setup_s > 0.0);
        let measured = measure(spec, &mut staged, 2, &mut meter);
        (measured, staged)
    }

    /// Everything that comes out of the simulator's clock, and every count,
    /// is a function of the seed: two clusters built in one process agree op
    /// for op. (Not so with several groups; see the README's known limits.)
    #[test]
    fn same_seed_same_virtual_time_and_counts() {
        let spec = small("write_steady");
        let (a, _) = run_once(&spec, 11, true);
        let (b, _) = run_once(&spec, 11, true);
        assert!(a.acks.len() > 1_000, "only {} acks", a.acks.len());
        assert_eq!(a.acks, b.acks, "completion and issue time of every op");
        let events = |m: &Measured| m.windows.iter().map(|w| w.events).collect::<Vec<_>>();
        assert_eq!(events(&a), events(&b));
        for l in LAYERS {
            let (la, lb) = (&a.layers[l as usize], &b.layers[l as usize]);
            assert_eq!((la.callbacks, la.by_kind), (lb.callbacks, lb.by_kind), "{l:?}");
        }
        assert_eq!(format!("{:?}", a.pool), format!("{:?}", b.pool));
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.samples.lags, b.samples.lags);
        let (c, _) = run_once(&spec, 12, true);
        assert_ne!(a.acks, c.acks, "another seed is another run");
    }

    /// The layer table adds up: window by window the rows' busy time is what
    /// the trace totals say, every callback is an event, and the printed rows
    /// plus the kernel residual are the printed sum.
    #[test]
    fn rows_and_kernel_residual_add_up_to_the_total() {
        let spec = small("write_steady");
        let (mut t, staged) = run_once(&spec, 5, true);
        assert!(t.windows.iter().all(|w| w.speed > 0.0));
        for w in &mut t.windows {
            // At nominal speed throughout, so that the rows are the raw spans.
            (w.best_cpu_ns_per_op, w.speed) = (w.cpu_ns as f64, 1.0);
        }
        for l in LAYERS {
            let i = l as usize;
            assert_eq!(t.windows.iter().map(|w| w.busy_ns[i]).sum::<u64>(), t.layers[i].busy_ns);
        }
        let callbacks: u64 = t.layers.iter().map(|l| l.callbacks).sum();
        let events: u64 = t.windows.iter().map(|w| w.events).sum();
        assert!(callbacks <= events && callbacks * 10 > events * 9, "{callbacks} of {events}");
        assert!(t.layers[Layer::Active as usize].busy_ns > t.layers[Layer::Coord as usize].busy_ns);

        let trace = staged.cluster.trace.clone().unwrap();
        let roles = lock(&trace).roles.clone();
        let probes = Probes { inodes: 1, ..Probes::default() };
        let rows = metrics::per_layer(&LayerInputs {
            untraced: &t,
            traced: &t,
            roles: &roles,
            probes: &probes,
            script_bytes: 0,
        });
        let get = |name: &str| rows.iter().find(|m| m.name == name).unwrap().value;
        let mutations = t.pool.appended_records as f64 / t.acks.len() as f64;
        let virt_s_per_op = 2.0 * spec.window_s as f64 / t.acks.len() as f64;
        let sum = get("cluster.client.busy_ns_per_op")
            + get("core.active.busy_ns_per_op")
            + get("cluster.datasrv.busy_ns_per_virt_s") * virt_s_per_op
            + get("coord.busy_ns_per_virt_s") * virt_s_per_op
            + (get("core.standby.busy_ns_per_mutation") + get("storage.pool.busy_ns_per_mutation"))
                * mutations
            + get("sim.kernel_ns_per_event") * get("sim.events_per_op");
        let total = get("bench.layer_sum_ns_per_op");
        assert!((sum - total).abs() < total * 0.01, "rows {sum} vs total {total}");
        let cpu: u64 = t.windows.iter().map(|w| w.cpu_ns).sum();
        assert!((total - cpu as f64 / t.acks.len() as f64).abs() < total * 1e-9);
    }

    /// A healthy run passes its audits; the same cluster audited against
    /// another seed's scripts does not, so the read-back can tell.
    #[test]
    fn the_audit_passes_a_healthy_run_and_has_teeth() {
        let spec = small("write_steady");
        let (_, staged) = run_once(&spec, 21, false);
        assert_eq!(audit(&spec, 21, 2, staged), Findings::new());
        let (_, staged) = run_once(&spec, 21, false);
        let findings = audit(&spec, 22, 2, staged);
        assert!(findings.iter().any(|f| f.contains("read back")), "{findings:?}");
    }

    /// The crash workload, small: every window loses its active, the service
    /// comes back, nothing fails, and the recorded history checks out.
    #[test]
    fn failover_windows_recover_and_audit_clean() {
        let spec = small("failover_cycle");
        let (m, staged) = run_once(&spec, 3, true);
        assert_eq!((m.crashes.len(), m.crashes_skipped, m.failed), (2, 0, 0));
        let e2e = metrics::end_to_end(&m, &[1.0], 1.0);
        let mttr = e2e.metrics.iter().find(|x| x.name == "mttr_ms").unwrap().value;
        assert!((3_000.0..9_000.0).contains(&mttr), "mttr {mttr} ms");
        assert_eq!(audit(&spec, 3, 2, staged), Findings::new());
    }
}
