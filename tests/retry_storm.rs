//! Randomized retry storms: exact at-most-once across failover, end to end.
//!
//! Each case drives a closed-loop fleet against one replica group while the
//! network drops a sizable fraction of all messages — so replies are lost,
//! clients time out, and the same `(client, seq)` is re-offered over and
//! over — then crashes the active mid-storm so the retries drain into a
//! freshly promoted successor. The successor's answer comes from the
//! journal-replicated retry window, and the suite checks the whole claim:
//!
//! - the recorded client history is **strictly** linearizable — no echo
//!   slack, no "modulo retry duplication" (the Wing–Gong checker's default
//!   since the window became replicated);
//! - no replica ever diverged from the journal;
//! - **journal ↔ window replay parity**: the retry window carried inside
//!   every checkpoint image the active wrote (the `'W'` section a junior
//!   would restore from) has exactly the fingerprint an independent replay
//!   of the shared-pool journal prefix produces — the active's serve-order
//!   fold and a replica's replay fold agree byte-for-byte;
//! - the storm was real: retried operations completed, and some image
//!   actually carried a non-empty window (no vacuous pass).
//!
//! Seeded `SmallRng` drives the randomization. Override the case count with
//! `PARITY_CASES=n`; the nightly workflow runs an elevated sweep.

use mams_chaos::{check_history, CheckOutcome};
use mams_cluster::deploy::{build, DeploySpec};
use mams_cluster::faults::active_of;
use mams_cluster::{History, Metrics, Recorder, Workload};
use mams_core::{MdsTiming, MdsTrace};
use mams_journal::JournalBatch;
use mams_namespace::{
    decode_delta, decode_image, replay_outcome, RetryEntry, RetryWindow, ShardedNamespace,
};
use mams_sim::{Duration, Sim, SimConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn cases(default: u64) -> u64 {
    std::env::var("PARITY_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Continue the retry-window fold exactly as a replica's `apply_records`
/// does: starting from an artifact-restored namespace and window, replay
/// every journal record in `(from_sn, up_to_sn]` and, at each acked
/// record's apply point, reconstruct the outcome from the journal
/// (`replay_outcome`) with the namespace lookup evaluated right after the
/// record applied.
fn fold_window(
    ns: ShardedNamespace,
    mut window: RetryWindow,
    batches: &[JournalBatch],
    from_sn: u64,
    up_to_sn: u64,
) -> RetryWindow {
    for b in batches {
        if b.sn <= from_sn || b.sn > up_to_sn {
            continue;
        }
        let mut acks = b.acks.iter().peekable();
        for (i, (_, txn)) in b.entries().enumerate() {
            ns.apply(txn).expect("journaled txns always replay");
            while let Some(ack) = acks.next_if(|a| a.record as usize == i) {
                let outcome = replay_outcome(|p| ns.getfileinfo(p).ok(), txn);
                window.record(ack.client, ack.seq, RetryEntry { outcome, token: None });
            }
        }
    }
    window
}

struct CaseOutcome {
    records: usize,
    retried_ok: usize,
    parity_checks: usize,
    windowed_checks: usize,
}

fn run_case(case: u64) -> CaseOutcome {
    let mut rng = SmallRng::seed_from_u64(0x5708_4ca5 ^ (case << 8));

    let clients: u32 = rng.gen_range(4u32..7);
    let keys: u64 = rng.gen_range(3u64..7);
    let think_ms: u64 = rng.gen_range(5u64..20);
    let loss: f64 = rng.gen_range(0.10f64..0.25);
    let dup: f64 = rng.gen_range(0.0f64..0.05);
    let storm_secs: u64 = rng.gen_range(6u64..10);

    let mut sim = Sim::new(SimConfig { seed: 0x570_12b ^ case, ..SimConfig::default() });
    // Checkpoint + delta cadence on, so the active writes images whose 'W'
    // sections the parity check below can hold against the journal.
    let timing = MdsTiming {
        renew_image_gap: 64,
        checkpoint_interval: Some(Duration::from_secs(6)),
        delta_interval: Some(Duration::from_secs(2)),
        ..MdsTiming::default()
    };
    let spec = DeploySpec {
        groups: 1,
        standbys_per_group: 2,
        juniors_per_group: 1,
        timing,
        ..DeploySpec::default()
    };
    let mut d = build(&mut sim, spec);
    let history = History::new();
    let metrics = Metrics::new(false);
    for _ in 0..clients {
        let client = d.next_client_id();
        let log = history.clone();
        let think = Duration::from_millis(think_ms);
        d.add_client_with(&mut sim, Workload::shared_hot(keys), metrics.clone(), move |mut c| {
            c.history = Some(Recorder { client, log });
            c.think = think;
            c
        });
    }

    // Warm up clean, then storm: global loss makes replies vanish and the
    // same-seq retries pile up, duplication re-delivers live requests.
    sim.run_for(Duration::from_secs(4));
    sim.net_mut().set_loss_probability(loss);
    sim.net_mut().set_dup_probability(dup);
    sim.run_for(Duration::from_secs(storm_secs));

    // Mid-storm failover: whoever is active dies while retries are in
    // flight. The successor must answer them from the seeded window.
    let victim = active_of(&sim, d.coord, 0).unwrap_or_else(|| d.initial_active(0));
    sim.crash(victim);
    sim.run_for(Duration::from_secs(6));
    sim.net_mut().set_loss_probability(0.0);
    sim.net_mut().set_dup_probability(0.0);
    sim.restart(victim);
    sim.run_for(Duration::from_secs(10));

    // ---- strict linearizability over the whole storm ----
    let records = history.records();
    let ok_count = records.iter().filter(|r| r.ok == Some(true)).count();
    assert!(ok_count > 50, "case {case}: workload barely ran ({ok_count} ok)");
    let retried_ok = records
        .iter()
        .filter(|r| r.ok == Some(true) && r.attempts > 1 && r.op.is_mutation())
        .count();
    match check_history(&records) {
        CheckOutcome::Ok { .. } => {}
        CheckOutcome::Inconclusive { states } => {
            panic!("case {case}: checker ran out of budget after {states} states")
        }
        CheckOutcome::Violation { witness } => {
            panic!("case {case}: retry storm broke strict linearizability: {witness}")
        }
    }
    assert!(
        !sim.trace().of::<MdsTrace>().any(|(_, _, e)| matches!(e, MdsTrace::Diverged { .. })),
        "case {case}: a replica diverged from the journal"
    );

    // ---- journal ↔ window replay parity ----
    // The base image's 'W' section and every delta's window are the
    // active's serve-order fold at their respective sns; a junior restoring
    // from the base and folding the shared journal forward must land on the
    // identical window the newest delta carries. (The journal prefix below
    // the base sn is compacted away, which is exactly why the artifacts
    // must carry the window in the first place.)
    let (base, tail, delta) = {
        let pool = d.shared_pool.lock();
        let g = pool.group(0).expect("group 0 store");
        let base = g
            .manifest()
            .base()
            .and_then(|e| g.artifact_chunk(e.id, 0, u64::MAX).ok().map(|(bytes, _)| bytes));
        let after = g.manifest().base().map(|e| e.end_sn).unwrap_or(0);
        let tail: Vec<JournalBatch> = g
            .read_journal(after, usize::MAX)
            .unwrap_or_default()
            .iter()
            .map(|b| (**b).clone())
            .collect();
        let delta = g
            .manifest()
            .deltas()
            .last()
            .and_then(|e| g.artifact_chunk(e.id, 0, u64::MAX).ok().map(|(bytes, _)| bytes));
        (base, tail, delta)
    };
    let mut parity_checks = 0;
    let mut windowed_checks = 0;
    if let (Some(base), Some(delta)) = (base, delta) {
        let image = decode_image(base).expect("the pool base image decodes");
        let base_sn = image.sn;
        let d = decode_delta(&delta).expect("the newest pool delta decodes");
        let folded = fold_window(image.ns, image.window, &tail, base_sn, d.end_sn);
        assert_eq!(
            folded.fingerprint(),
            d.window.fingerprint(),
            "case {case}: replay fold from base sn {base_sn} ({} entries) disagrees \
             with the delta window at sn {} ({} entries)",
            folded.len(),
            d.end_sn,
            d.window.len(),
        );
        parity_checks += 1;
        if !d.window.is_empty() {
            windowed_checks += 1;
        }
    }

    CaseOutcome { records: records.len(), retried_ok, parity_checks, windowed_checks }
}

/// Randomized sweep: storms of lost replies and duplicated deliveries across
/// a mid-storm failover never double-apply, never break strict
/// linearizability, and every checkpointed window matches its journal.
#[test]
fn retry_storms_stay_exactly_once_across_failover() {
    let mut total_records = 0usize;
    let mut total_retried = 0usize;
    let mut total_parity = 0usize;
    let mut total_windowed = 0usize;
    for case in 0..cases(4) {
        let out = run_case(case);
        total_records += out.records;
        total_retried += out.retried_ok;
        total_parity += out.parity_checks;
        total_windowed += out.windowed_checks;
    }
    assert!(total_records > 500, "sweep too small to mean anything ({total_records} records)");
    assert!(
        total_retried > 0,
        "no completed multi-attempt mutation across the sweep — the storm never forced a retry"
    );
    assert!(total_parity > 0, "no base+delta chain was ever parity-checked");
    assert!(
        total_windowed > 0,
        "every checked delta had an empty window — the parity check was vacuous"
    );
}
