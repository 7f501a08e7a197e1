//! Out-of-order ack equivalence, end to end.
//!
//! The active releases client replies out of order across batches (subject
//! to per-shard FIFO, see `release_walk` in mams-core) whenever an earlier
//! batch is stuck on a distributed-transaction leg or a straggling standby.
//! These tests drive randomized workloads that make that genuinely happen —
//! cross-group structural ops plus a gray-slow standby — and then check the
//! client-visible and durable outcomes are exactly what in-order release
//! would have produced:
//!
//! - the recorded history is strictly linearizable (Wing–Gong checker);
//! - the SSP journal replays to the same fingerprint via the members' own
//!   replay (`Prefix::ingest`) and a naive per-record apply — and no replica
//!   ever reported divergence, so the live (serve-order) image agrees;
//! - replies for ops journaled under the *same parent directory* by the
//!   same group completed in journal order (per-shard FIFO held);
//! - the `commit.ooo_release` trace fired, so the suite exercised the
//!   out-of-order path rather than vacuously passing.
//!
//! Seeded `SmallRng` drives the randomization (see
//! tests/proptest_invariants.rs for the pattern). Override the case count
//! with `PARITY_CASES=n`.

use std::collections::HashMap;

use mams_chaos::{check_history, CheckOutcome};
use mams_cluster::deploy::{build, DeploySpec};
use mams_cluster::faults::{self, FaultKind, NodeRef};
use mams_cluster::{History, Metrics, Recorder, Workload};
use mams_core::{FsOp, MdsTrace, Prefix};
use mams_journal::Txn;
use mams_namespace::{path, NamespaceTree};
use mams_sim::{Duration, Sim, SimConfig, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn cases(default: u64) -> u64 {
    std::env::var("PARITY_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Reply deliveries to different clients ride independent links with up to
/// 50µs of jitter each way; completions this close together cannot witness
/// the server's send order.
const JITTER_SLACK_US: u64 = 200;

struct CaseOutcome {
    ooo_events: usize,
    records: usize,
}

fn run_case(case: u64) -> CaseOutcome {
    let mut rng = SmallRng::seed_from_u64(0x00c0_de01 ^ (case << 8));

    let shared_dirs: u64 = rng.gen_range(2u64..5);
    let script_clients: u32 = rng.gen_range(3u32..6);
    let mkdir_clients: u32 = rng.gen_range(2u32..5);
    let ops_per_script: u64 = rng.gen_range(40u64..90);
    let slow_factor = rng.gen_range(6u64..18) as f64;
    let slow_secs: u64 = rng.gen_range(4u64..8);

    let mut sim = Sim::new(SimConfig { seed: 0xD15C ^ case, ..SimConfig::default() });
    let mut d =
        build(&mut sim, DeploySpec { groups: 2, standbys_per_group: 2, ..DeploySpec::default() });
    let history = History::new();
    let metrics = Metrics::new(false);

    // Setup client: materialize the shared directories, then stop.
    let setup: Vec<FsOp> =
        (0..shared_dirs).map(|dir| FsOp::Mkdir { path: format!("/s{dir}") }).collect();
    {
        let client = d.next_client_id();
        let log = history.clone();
        d.add_client_with(&mut sim, Workload::script(setup), metrics.clone(), move |mut c| {
            c.history = Some(Recorder { client, log });
            c
        });
    }

    // Script clients write uniquely named files into the *shared*
    // directories — the cross-client same-directory traffic the per-shard
    // FIFO contract is about.
    for worker in 0..script_clients {
        let ops: Vec<FsOp> = (0..ops_per_script)
            .map(|i| {
                let dir = rng.gen_range(0..shared_dirs);
                FsOp::Create { path: format!("/s{dir}/w{worker}_f{i}"), replication: 3 }
            })
            .collect();
        let think = Duration::from_millis(rng.gen_range(1u64..4));
        let client = d.next_client_id();
        let log = history.clone();
        d.add_client_with(&mut sim, Workload::script(ops), metrics.clone(), move |mut c| {
            c.history = Some(Recorder { client, log });
            c.think = think;
            c.start_delay = Duration::from_millis(2_500);
            c
        });
    }

    // Mkdir-heavy clients generate cross-group structural transactions —
    // their legs are what stall batches and force later creates to release
    // out of order past them.
    for m in 0..mkdir_clients {
        let think = Duration::from_millis(rng.gen_range(1u64..3));
        let client = d.next_client_id();
        let log = history.clone();
        d.add_client_with(
            &mut sim,
            Workload::create_mkdir(1000 + m),
            metrics.clone(),
            move |mut c| {
                c.history = Some(Recorder { client, log });
                c.think = think;
                c.max_ops = Some(400);
                c
            },
        );
    }

    // Gray-slow one standby of group 0 mid-run: its sync acks straggle,
    // stretching group 0's durability legs without killing progress.
    let slow = FaultKind::SlowNode {
        node: NodeRef::Member { group: 0, idx: 1 },
        factor: slow_factor,
        clear_ms: Some(slow_secs * 1_000),
    };
    faults::inject(&mut sim, &d, SimTime(2_000_000), slow);

    sim.run_for(Duration::from_secs(12));

    // ---- client-visible equivalence: strict linearizability ----
    let records = history.records();
    assert!(
        records.iter().filter(|r| r.ok == Some(true)).count() > 100,
        "case {case}: workload barely ran ({} records)",
        records.len()
    );
    match check_history(&records) {
        CheckOutcome::Ok { .. } => {}
        CheckOutcome::Inconclusive { states } => {
            panic!("case {case}: checker ran out of budget after {states} states")
        }
        CheckOutcome::Violation { witness } => {
            panic!("case {case}: OOO release broke linearizability: {witness}")
        }
    }

    // ---- durable equivalence: no replica divergence, replay parity ----
    assert!(
        !sim.trace().of::<MdsTrace>().any(|(_, _, e)| matches!(e, MdsTrace::Diverged { .. })),
        "case {case}: a replica diverged from the journal"
    );
    let mut completed_ok: HashMap<String, u64> = HashMap::new();
    for r in &records {
        if r.ok == Some(true) {
            if let (FsOp::Create { path, .. }, Some(done)) = (&r.op, r.completed_us) {
                completed_ok.insert(path.clone(), done);
            }
        }
    }
    for group in 0..2 {
        let batches = d
            .shared_pool
            .lock()
            .group(group)
            .and_then(|g| g.read_journal(0, usize::MAX))
            .unwrap_or_default();
        let mut fast = Prefix::new();
        for b in batches {
            assert_eq!(fast.ingest(b), 0, "case {case}: group {group} replay diverged");
        }
        let applied = fast.log().read_after(0).expect("nothing compacted");
        let order: Vec<&Txn> =
            applied.iter().flat_map(|b| b.entries().map(|(_, txn)| txn)).collect();
        assert!(!order.is_empty(), "case {case}: group {group} journaled nothing");

        let mut naive = NamespaceTree::new();
        for t in &order {
            naive.apply(t).expect("journaled txns always replay");
        }
        assert_eq!(
            fast.ns().fingerprint(),
            naive.fingerprint(),
            "case {case}: group {group} replay paths disagree"
        );

        // Per-shard FIFO: creates this group journaled under one parent
        // directory must have completed in journal order (modulo reply
        // delivery jitter).
        let mut last_done: HashMap<String, (u64, String)> = HashMap::new();
        for t in order {
            if let Txn::Create { path: p, .. } = t {
                if let Some(&done) = completed_ok.get(p) {
                    let dir = path::parent(p).unwrap_or("/").to_string();
                    if let Some((prev, prev_path)) = last_done.get(&dir) {
                        assert!(
                            done + JITTER_SLACK_US >= *prev,
                            "case {case}: group {group} dir {dir}: {p} (done {done}us) \
                             journaled after {prev_path} (done {prev}us) but completed first"
                        );
                    }
                    last_done.insert(dir, (done, p.clone()));
                }
            }
        }
    }

    let events = sim.trace().of::<MdsTrace>();
    let ooo_events = events.filter(|(_, _, e)| matches!(e, MdsTrace::OooRelease { .. })).count();
    CaseOutcome { ooo_events, records: records.len() }
}

/// Randomized sweep: histories produced under genuine out-of-order release
/// are indistinguishable from in-order release — linearizable, durable
/// state replays identically, and same-directory replies kept their order.
#[test]
fn ooo_released_histories_are_equivalent_to_in_order() {
    let mut total_ooo = 0usize;
    let mut total_records = 0usize;
    for case in 0..cases(6) {
        let out = run_case(case);
        total_ooo += out.ooo_events;
        total_records += out.records;
    }
    assert!(total_records > 1000, "sweep too small to mean anything ({total_records} records)");
    assert!(
        total_ooo > 0,
        "no commit.ooo_release across the sweep — the OOO path was never exercised"
    );
}
