//! From what a run measured to the named metrics of `BENCHMARK.json`.
//!
//! Two kinds are kept apart. Virtual-time figures (`commit_*`,
//! `virt_ops_per_s`, `mttr_ms`) and counts come out of the simulator's
//! clock: they repeat exactly for a seed and move only when the protocol
//! changes. `cpu_ns_per_op`, `setup_s` and `peak_rss_mb` are this machine
//! running our code, and move when the code gets faster or slower.

use mams_cluster::Completion;
use mams_core::Role;

use crate::layers::Probes;
use crate::probe::{Kind, Layer, LayerStats, RoleChange, LAYERS};
use crate::run::{acks_in, Measured, Window};
use crate::stats::{mean, median, percentile, quartiles};
use crate::workload::RESTART_AFTER_S;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// On-CPU nanoseconds per acknowledged op, window by window, from each
/// window's fastest repetition.
pub fn cpu_ns_per_op(m: &Measured) -> Vec<f64> {
    m.windows.iter().map(|w| w.best_cpu_ns_per_op).collect()
}

/// Longest stretch of `w` in which no op was acknowledged, in ms. Where the
/// active was crashed this is the outage the clients saw: the paper's MTTR.
fn longest_gap_ms(acks: &[Completion], w: &Window) -> f64 {
    let times = acks_in(acks, w).iter().map(|c| c.at_us);
    let mut last = w.start_us;
    let mut longest = 0;
    for t in times.chain([w.end_us]) {
        longest = longest.max(t - last);
        last = t;
    }
    longest as f64 / 1e3
}

pub struct EndToEnd {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Spread of the wall-domain figure and the sample count, for a reader.
    pub detail: String,
}

/// Cost per op over all windows: each window's best cost, weighted by the
/// ops it acknowledged. A mean, not a median, because the windows of some
/// workloads are not alike (one in five holds a full image, one cycle in two
/// a renewal) and the ones that cost more are the point of those workloads;
/// the meter and the repetitions have dealt with the machine by then.
pub fn mean_cpu_ns_per_op(m: &Measured) -> f64 {
    let weighted =
        m.windows.iter().map(|w| w.best_cpu_ns_per_op * acks_in(&m.acks, w).len() as f64);
    ratio(weighted.sum(), m.acks.len() as f64)
}

pub fn end_to_end(m: &Measured, setups_s: &[f64], peak_rss_mb: f64) -> EndToEnd {
    let per_window = cpu_ns_per_op(m);
    let [q1, med, q3] = quartiles(&per_window);
    let min = per_window.iter().copied().fold(f64::INFINITY, f64::min);
    let mut latencies: Vec<u64> = m.acks.iter().map(Completion::latency_us).collect();
    latencies.sort_unstable();
    let virt_s: f64 = m.windows.iter().map(|w| (w.end_us - w.start_us) as f64 / 1e6).sum();
    let gaps: Vec<f64> = m.windows.iter().map(|w| longest_gap_ms(&m.acks, w)).collect();
    let metrics = vec![
        metric("cpu_ns_per_op", "ns", mean_cpu_ns_per_op(m)),
        metric("commit_p50_us", "us", percentile(&latencies, 0.5)),
        metric("commit_p99_us", "us", percentile(&latencies, 0.99)),
        metric("commit_p999_us", "us", percentile(&latencies, 0.999)),
        metric("virt_ops_per_s", "1/s", m.acks.len() as f64 / virt_s),
        metric("mttr_ms", "ms", mean(&gaps)),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("setup_s", "s", median(setups_s)),
    ];
    let mut speeds: Vec<f64> = m.windows.iter().map(|w| w.speed).collect();
    speeds.sort_by(f64::total_cmp);
    let detail = format!(
        "cpu_ns_per_op by window {per_window:.0?}: min {min:.0} q1 {q1:.0} median {med:.0} q3 \
         {q3:.0}; machine speed in the last repetition {:.2}-{:.2} of nominal, median {:.2}; \
         samples {}; virtual {virt_s:.0} s; set-ups {setups_s:.3?} s; crashes {} (skipped {})",
        speeds[0],
        speeds[speeds.len() - 1],
        speeds[speeds.len() / 2],
        latencies.len(),
        m.crashes.len(),
        m.crashes_skipped,
    );
    EndToEnd { metrics, attempted: m.acks.len() as u64 + m.failed, failed: m.failed, detail }
}

/// The stages of the injected failovers, as means over the crashes in
/// virtual ms: crash to a member reporting itself active, from there to the
/// first acknowledged op, and restart of the crashed node to its return as a
/// standby. They exist only where the active is crashed, so they go to the
/// trace file and stderr, not to the per-layer list, which every workload
/// must fill with measured values.
pub fn failover_stages(m: &Measured, roles: &[RoleChange]) -> Vec<Metric> {
    let (mut detect, mut switch, mut catchup) = (Vec::new(), Vec::new(), Vec::new());
    for (i, crash) in m.crashes.iter().enumerate() {
        let until = m.crashes.get(i + 1).map_or(u64::MAX, |next| next.at_us);
        let promoted =
            roles.iter().find(|r| r.role == Role::Active && r.at_us > crash.at_us).map(|r| r.at_us);
        if let Some(at) = promoted {
            detect.push((at - crash.at_us) as f64 / 1e3);
            let first_ack = m.acks.partition_point(|c| c.at_us <= at);
            if let Some(ack) = m.acks.get(first_ack) {
                switch.push((ack.at_us - at) as f64 / 1e3);
            }
        }
        let restarted = crash.at_us + RESTART_AFTER_S * 1_000_000;
        // A restarted member boots calling itself a standby, is told it is a
        // junior, and is a standby again once renewed: the last such change
        // before the next crash is the one that counts.
        let renewed = roles
            .iter()
            .filter(|r| r.node == crash.node && r.role == Role::Standby)
            .rfind(|r| r.at_us > restarted && r.at_us < until);
        catchup.extend(renewed.map(|r| (r.at_us - restarted) as f64 / 1e3));
    }
    let stage = |name, v: Vec<f64>| metric(name, "ms", if v.is_empty() { 0.0 } else { mean(&v) });
    vec![
        stage("core.failover.detect_ms_mean", detect),
        stage("core.failover.switch_ms_mean", switch),
        stage("core.renew.catchup_ms_mean", catchup),
    ]
}

/// What a traced run adds to the untraced one, for the per-layer table.
pub struct LayerInputs<'a> {
    pub untraced: &'a Measured,
    pub traced: &'a Measured,
    pub roles: &'a [RoleChange],
    pub probes: &'a Probes,
    pub script_bytes: usize,
}

/// Mutations per journal batch, as the pool saw them.
pub fn ops_per_batch(m: &Measured) -> f64 {
    ratio(m.pool.appended_records as f64, m.batches as f64)
}

pub fn per_layer(x: &LayerInputs<'_>) -> Vec<Metric> {
    let (t, p) = (x.traced, x.probes);
    let layer = |l: Layer| -> &LayerStats { &t.layers[l as usize] };
    // Time at nominal machine speed, window by window, like `cpu_ns_per_op`.
    let at_nominal = |ns: &dyn Fn(&Window) -> u64| -> f64 {
        t.windows.iter().map(|w| ns(w) as f64 * w.speed).sum()
    };
    let busy = |l: Layer| at_nominal(&|w| w.busy_ns[l as usize]);
    let ops = t.acks.len() as f64;
    let records = t.pool.appended_records as f64;
    let virt_s: f64 = t.windows.iter().map(|w| (w.end_us - w.start_us) as f64 / 1e6).sum();
    let events: f64 = t.windows.iter().map(|w| w.events as f64).sum();
    let cpu = at_nominal(&|w| w.cpu_ns);
    let spans: f64 = LAYERS.iter().map(|&l| busy(l)).sum();
    let kernel = cpu - spans;
    let from = t.windows[0].start_us;
    let messages = |l: Layer| {
        let s = layer(l);
        (s.callbacks - s.by_kind[Kind::Timer as usize] - s.by_kind[Kind::Start as usize]) as f64
    };

    // How the active's time splits over the crates it calls, per op: each
    // probe's cost weighted by how often the workload makes that call.
    let mutations = ratio(records, ops);
    let batch = ops_per_batch(t);
    let checkpoints = t.pool.image_writes as f64 * p.inodes as f64 * p.image_encode_ns_per_inode
        + if t.pool.delta_writes > 0 { records * p.delta_fold_ns_per_txn } else { 0.0 };
    let attributed = p.ingress_ns_per_op
        + p.retry_cache_ns_per_op
        + (1.0 - mutations).max(0.0) * p.snapshot_read_ns_per_op
        + mutations
            * (p.mutate_ns_per_op
                + p.seal_ns_per_record
                + p.retry_window_fold_ns_per_ack
                + ratio(p.log_append_ns_per_batch, batch))
        + ratio(checkpoints, ops);
    let active_per_op = ratio(busy(Layer::Active), ops);

    // Both sides from each window's fastest repetition: the two runs did the
    // same work, so the difference is what the spans cost.
    let (with_spans, without) = (mean_cpu_ns_per_op(t), mean_cpu_ns_per_op(x.untraced));
    let overhead = ratio(with_spans - without, without);
    let wall_s: f64 = x.untraced.windows.iter().map(|w| w.wall_ns as f64 / 1e9).sum();
    let mut lags = t.samples.lags.clone();
    lags.sort_unstable();
    let elections = x.roles.iter().filter(|r| r.role == Role::Active && r.at_us >= from).count();
    let longest_active =
        layer(Layer::Active).top.iter().filter(|s| s.at_us >= from).map(|s| s.ns).max();

    vec![
        metric("sim.events_per_op", "count", ratio(events, ops)),
        metric("sim.kernel_ns_per_event", "ns", ratio(kernel, events)),
        metric("sim.kernel_share", "ratio", ratio(kernel, cpu)),
        metric("sim.pingpong_ns_per_event", "ns", p.pingpong_ns_per_event),
        metric("cluster.client.busy_ns_per_op", "ns", ratio(busy(Layer::Client), ops)),
        metric("cluster.client.msgs_in_per_op", "count", ratio(messages(Layer::Client), ops)),
        metric("cluster.datasrv.busy_ns_per_virt_s", "ns/s", ratio(busy(Layer::DataSrv), virt_s)),
        metric("core.active.busy_ns_per_op", "ns", active_per_op),
        metric(
            "core.active.callbacks_per_op",
            "count",
            ratio(layer(Layer::Active).callbacks as f64, ops),
        ),
        metric("core.active.max_callback_us", "us", longest_active.unwrap_or(0) as f64 / 1e3),
        metric("core.active.unattributed_ns_per_op", "ns", active_per_op - attributed),
        metric("core.standby.busy_ns_per_mutation", "ns", ratio(busy(Layer::Standby), records)),
        metric(
            "core.standby.lag_sn_p99",
            "count",
            if lags.is_empty() { 0.0 } else { percentile(&lags, 0.99) },
        ),
        metric("core.ops_per_batch", "count", batch),
        metric("core.ingress_ns_per_op", "ns", p.ingress_ns_per_op),
        metric("core.retry_cache_ns_per_op", "ns", p.retry_cache_ns_per_op),
        metric("journal.seal_ns_per_record", "ns", p.seal_ns_per_record),
        metric("journal.decode_ns_per_record", "ns", p.decode_ns_per_record),
        metric("journal.wire_bytes_per_record", "B", p.wire_bytes_per_record),
        metric("journal.log_append_ns_per_batch", "ns", p.log_append_ns_per_batch),
        metric("namespace.mutate_ns_per_op", "ns", p.mutate_ns_per_op),
        metric("namespace.read_ns_per_op", "ns", p.read_ns_per_op),
        metric("namespace.snapshot_read_ns_per_op", "ns", p.snapshot_read_ns_per_op),
        metric("namespace.replay_ns_per_record", "ns", p.replay_ns_per_record),
        metric("namespace.cache_hit_ratio", "ratio", p.cache_hit_ratio),
        metric("namespace.image_encode_ns_per_inode", "ns", p.image_encode_ns_per_inode),
        metric("namespace.image_decode_ns_per_inode", "ns", p.image_decode_ns_per_inode),
        metric("namespace.delta_fold_ns_per_txn", "ns", p.delta_fold_ns_per_txn),
        metric("namespace.delta_apply_ns_per_entry", "ns", p.delta_apply_ns_per_entry),
        metric("namespace.retry_window_fold_ns_per_ack", "ns", p.retry_window_fold_ns_per_ack),
        metric("storage.pool.busy_ns_per_mutation", "ns", ratio(busy(Layer::Pool), records)),
        metric("storage.appends_per_mutation", "count", ratio(t.pool.appends as f64, records)),
        metric(
            "storage.ssp_bytes_per_mutation",
            "B",
            ratio((t.pool.journal_bytes + t.pool.image_bytes + t.pool.delta_bytes) as f64, records),
        ),
        metric("storage.append_ns_per_batch", "ns", p.pool_append_ns_per_batch),
        metric("storage.read_ns_per_batch", "ns", p.pool_read_ns_per_batch),
        metric("storage.compactions", "count", t.samples.compactions as f64),
        metric("coord.busy_ns_per_virt_s", "ns/s", ratio(busy(Layer::Coord), virt_s)),
        metric("coord.msgs_per_virt_s", "1/s", ratio(messages(Layer::Coord), virt_s)),
        metric("coord.elections", "count", elections as f64),
        metric("bench.trace_overhead_pct", "%", 100.0 * overhead),
        metric("bench.wall_ops_per_s", "1/s", ratio(x.untraced.acks.len() as f64, wall_s)),
        metric("bench.script_mb", "MB", x.script_bytes as f64 / (1024.0 * 1024.0)),
        metric("bench.layer_sum_ns_per_op", "ns", ratio(spans + kernel, ops)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(at_us: u64, latency_us: u64) -> Completion {
        Completion { at_us, issued_us: at_us - latency_us, ok: true }
    }

    fn window(start_us: u64, end_us: u64, cpu_ns: u64) -> Window {
        Window { start_us, end_us, cpu_ns, ..Window::default() }
    }

    #[test]
    fn windows_split_acks_at_their_edges() {
        let acks: Vec<Completion> = [5, 10, 19, 20, 29].map(|t| ack(t, 1)).to_vec();
        let (a, b) = (window(10, 20, 0), window(20, 30, 0));
        assert_eq!(acks_in(&acks, &a).len(), 2, "10 and 19; 20 opens the next window");
        assert_eq!(acks_in(&acks, &b).len(), 2);
    }

    #[test]
    fn longest_gap_counts_the_window_edges() {
        let w = window(1_000, 11_000, 0);
        let acks: Vec<Completion> = [2_000, 3_000, 9_000].map(|t| ack(t, 1)).to_vec();
        assert_eq!(longest_gap_ms(&acks, &w), 6.0);
        assert_eq!(longest_gap_ms(&acks[..1], &w), 9.0, "2000 to the end of the window");
        assert_eq!(longest_gap_ms(&[], &w), 10.0, "no ack at all: the whole window");
    }

    #[test]
    fn end_to_end_takes_the_median_window_and_all_latencies() {
        let acks: Vec<Completion> = (0..300).map(|i| ack(1_000 + i * 100, 10 + i)).collect();
        let per_op = |w: Window, best_cpu_ns_per_op| Window { best_cpu_ns_per_op, ..w };
        let m = Measured {
            windows: vec![
                per_op(window(1_000, 11_000, 1_000_000), 10_000.0),
                per_op(window(11_000, 21_000, 3_000_000), 30_000.0),
                per_op(window(21_000, 31_000, 2_000_000), 20_000.0),
            ],
            acks,
            failed: 2,
            ..Measured::default()
        };
        let e = end_to_end(&m, &[3.0, 1.0, 2.0], 7.5);
        let get = |name: &str| e.metrics.iter().find(|x| x.name == name).unwrap().value;
        assert_eq!(get("cpu_ns_per_op"), 20_000.0, "100 acks in each window, so the plain mean");
        assert_eq!(get("commit_p50_us"), 159.5);
        assert!((get("commit_p999_us") - 309.2).abs() < 1e-9);
        assert_eq!(get("virt_ops_per_s"), 300.0 / 0.03);
        assert_eq!(get("setup_s"), 2.0);
        assert_eq!((e.attempted, e.failed), (302, 2));
    }
}
