//! Layer probes: the workload's own operation stream played straight into
//! each crate's public functions, timed per group of calls. Where the traced
//! run says how long a node was busy, the probes say which crate's code the
//! time went to; what they do not explain is printed as unattributed.
//!
//! Each probe makes the calls the server makes, in its order: the mutate
//! probe is `MdsServer::exec_mutation`, the seal probe is `flush_batch`, the
//! replay and fold probes are `apply_records`, the image probes are
//! `start_checkpoint` and the junior's install, and so on.

use std::sync::Arc;
use std::time::Instant;

use mams_core::{CpuModel, FsOp, Ingress, MdsResp, OpOutput, RetryCache};
use mams_journal::{decode_batch, AckRecord, JournalBatch, JournalLog, SharedBatch, Txn};
use mams_namespace::{
    apply_delta, decode_delta, decode_image_with_window, encode_image_with_window,
    fold_delta_with_window, replay_outcome, RetryEntry, RetryWindow, ShardedNamespace,
    ShardedReplaySession,
};
use mams_sim::{Ctx, DetRng, Duration, Message, Node, NodeId, Sim, SimConfig};
use mams_storage::PoolState;

use crate::script::{self, Oracle};
use crate::stats::Meter;
use crate::workload::Spec;

/// Measured operations the probes replay, over all clients.
const PROBE_OPS: usize = 96_000;
/// Lookups of the read probes.
const READS: usize = 50_000;
/// Events of the kernel-only simulation.
const PINGPONG_EVENTS: u64 = 200_000;

#[derive(Debug, Default, Clone)]
pub struct Probes {
    pub mutate_ns_per_op: f64,
    pub read_ns_per_op: f64,
    pub snapshot_read_ns_per_op: f64,
    pub replay_ns_per_record: f64,
    pub cache_hit_ratio: f64,
    pub image_encode_ns_per_inode: f64,
    pub image_decode_ns_per_inode: f64,
    pub delta_fold_ns_per_txn: f64,
    pub delta_apply_ns_per_entry: f64,
    pub retry_window_fold_ns_per_ack: f64,
    pub seal_ns_per_record: f64,
    pub decode_ns_per_record: f64,
    pub wire_bytes_per_record: f64,
    pub log_append_ns_per_batch: f64,
    pub pool_append_ns_per_batch: f64,
    pub pool_read_ns_per_batch: f64,
    pub ingress_ns_per_op: f64,
    pub retry_cache_ns_per_op: f64,
    pub pingpong_ns_per_event: f64,
    /// Inodes of the namespace at the end of the replayed stream.
    pub inodes: u64,
    /// A probe whose result contradicts another's; empty when consistent.
    pub findings: Vec<String>,
}

fn per(ns: u128, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64
    }
}

/// Run `f`, returning its result and the nanoseconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u128) {
    let started = Instant::now();
    let out = std::hint::black_box(f());
    (out, started.elapsed().as_nanos())
}

/// Reads the machine's speed between probes, so that each reports time at
/// nominal speed, as the end-to-end metrics do.
struct Pace<'a> {
    meter: &'a mut Meter,
    last: f64,
}

impl Pace<'_> {
    /// The mean of the speed now and at the previous lap.
    fn lap(&mut self) -> f64 {
        let now = self.meter.speed();
        let mean = (self.last + now) / 2.0;
        self.last = now;
        mean
    }
}

/// A mutation as the active executes it: validate and apply, and hand back
/// the journal record.
fn exec_mutation(ns: &ShardedNamespace, op: FsOp) -> Txn {
    let done = match &op {
        FsOp::Create { path, replication } => ns.create(path, *replication).map(|_| ()),
        FsOp::Mkdir { path } => ns.mkdir(path),
        FsOp::Delete { path, recursive } => ns.delete(path, *recursive).map(|_| ()),
        FsOp::Rename { src, dst } => ns.rename(src, dst),
        other => panic!("generators never emit {other:?}"),
    };
    done.unwrap_or_else(|e| panic!("probe stream must apply: {op:?}: {e}"));
    match op {
        FsOp::Create { path, replication } => Txn::Create { path, replication },
        FsOp::Mkdir { path } => Txn::Mkdir { path },
        FsOp::Delete { path, recursive } => Txn::Delete { path, recursive },
        FsOp::Rename { src, dst } => Txn::Rename { src, dst },
        _ => unreachable!("matched above"),
    }
}

/// A read as the active executes it: against a pinned snapshot.
fn exec_read(ns: &ShardedNamespace, op: &FsOp) {
    let view = ns.pin();
    let ok = match op {
        FsOp::GetFileInfo { path } => view.getfileinfo(path).is_ok(),
        FsOp::List { path } => view.list(path).is_ok(),
        other => panic!("not a read: {other:?}"),
    };
    assert!(std::hint::black_box(ok), "probe stream must apply: {op:?}");
}

/// The clients' streams, interleaved one op at a time as a server sees
/// closed-loop clients: `(client, op)`.
fn interleave(streams: Vec<Vec<FsOp>>) -> Vec<(u32, FsOp)> {
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let mut iters: Vec<_> = streams.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::new();
    for _ in 0..longest {
        for (c, it) in iters.iter_mut().enumerate() {
            out.extend(it.next().map(|op| (c as u32, op)));
        }
    }
    out
}

/// `ops_per_batch` is what the traced run observed; the probes seal batches
/// of that size.
pub fn run(spec: &Spec, seed: u64, ops_per_batch: f64, meter: &mut Meter) -> Probes {
    let mut p = Probes::default();
    let per_client = PROBE_OPS / spec.clients as usize;
    let (mut populate, mut stream) = (Vec::new(), Vec::new());
    for c in 0..spec.clients {
        let s = script::generate(spec, seed, c, per_client);
        populate.push(s.populate);
        stream.push(s.run);
    }
    let (populate, stream) = (interleave(populate), interleave(stream));
    let mut oracle = Oracle::default();
    populate.iter().chain(&stream).for_each(|(_, op)| oracle.apply(op));

    // The namespace the workload starts from, and its image: the base every
    // replica-side probe below is rebuilt from.
    let live = ShardedNamespace::new();
    for (_, op) in populate {
        exec_mutation(&live, op);
    }
    let base_image = encode_image_with_window(&live.to_tree(), 0, &RetryWindow::new());
    let base = || {
        let (tree, _, _) = decode_image_with_window(base_image.data.clone()).expect("own image");
        ShardedNamespace::from_tree(tree)
    };

    let mut pace = Pace { last: meter.speed(), meter };

    // namespace: the stream through the active's calls. Mutations are timed
    // a run of them at a time, so the clock is read only where reads begin
    // and end; the reads in the stream keep the state moving but are timed
    // by the lookups below, which every workload has.
    let cache0 = live.cache_stats();
    let mut txns: Vec<(u32, Txn)> = Vec::new();
    let mut mutate_ns = 0u128;
    let mut run_started: Option<Instant> = None;
    for (client, op) in stream {
        if op.is_mutation() {
            run_started.get_or_insert_with(Instant::now);
            txns.push((client, exec_mutation(&live, op)));
        } else {
            mutate_ns += run_started.take().map_or(0, |t| t.elapsed().as_nanos());
            exec_read(&live, &op);
        }
    }
    mutate_ns += run_started.map_or(0, |t| t.elapsed().as_nanos());
    p.mutate_ns_per_op = per(mutate_ns, txns.len()) * pace.lap();
    let cache = live.cache_stats();
    let (hits, misses) = (cache.hits - cache0.hits, cache.misses - cache0.misses);
    p.cache_hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    p.inodes = live.num_files() + live.num_dirs();

    // namespace: uniform lookups over what exists now, bare and pinned.
    let files: Vec<&String> = oracle.live.iter().collect();
    let mut rng = DetRng::seed_from_u64(seed);
    let picks: Vec<&str> = (0..READS).map(|_| files[rng.index(files.len())].as_str()).collect();
    let ((), ns) = timed(|| {
        for path in &picks {
            assert!(std::hint::black_box(live.getfileinfo(path)).is_ok(), "{path} must exist");
        }
    });
    p.read_ns_per_op = per(ns, READS) * pace.lap();
    let ((), ns) = timed(|| {
        for path in &picks {
            assert!(std::hint::black_box(live.pin().getfileinfo(path)).is_ok());
        }
    });
    p.snapshot_read_ns_per_op = per(ns, READS) * pace.lap();

    // journal: seal, decode, append. A batch never holds two ops of one
    // client (a closed-loop client has one in flight), which the interleaved
    // stream gives for batches no larger than the client count.
    let size = (ops_per_batch.round() as usize).clamp(1, spec.clients as usize);
    let mut unsealed = Vec::new();
    let (mut sn, mut txid) = (0u64, 1u64);
    for chunk in txns.chunks(size) {
        sn += 1;
        let acks = chunk
            .iter()
            .enumerate()
            .map(|(i, (client, _))| AckRecord {
                record: i as u32,
                client: *client,
                seq: sn,
                spec: false,
            })
            .collect();
        let records: Vec<Txn> = chunk.iter().map(|(_, t)| t.clone()).collect();
        unsealed.push(JournalBatch::with_acks(sn, txid, records, acks));
        txid += chunk.len() as u64;
    }
    let (batches, ns) =
        timed(|| unsealed.into_iter().map(SharedBatch::sealed).collect::<Vec<SharedBatch>>());
    p.seal_ns_per_record = per(ns, txns.len()) * pace.lap();
    let wire: usize = batches.iter().map(|b| b.wire().len()).sum();
    p.wire_bytes_per_record = per(wire as u128, txns.len());
    let (decoded, ns) = timed(|| {
        batches
            .iter()
            .map(|b| decode_batch(b.wire().clone()).expect("own wire"))
            .collect::<Vec<_>>()
    });
    p.decode_ns_per_record = per(ns, txns.len()) * pace.lap();
    if decoded.iter().zip(&batches).any(|(d, b)| d != b.batch()) {
        p.findings.push("journal: a decoded batch differs from the one sealed".into());
    }
    drop(decoded);
    let mut log = JournalLog::new();
    let ((), ns) = timed(|| {
        for b in &batches {
            log.append(b.share()).expect("contiguous");
        }
    });
    p.log_append_ns_per_batch = per(ns, batches.len()) * pace.lap();

    // storage: the pool's journal segment, written and read back in pages.
    let mut pool = PoolState::new();
    let ((), ns) = timed(|| {
        for b in &batches {
            pool.group_mut(0).append_journal(1, b.share()).expect("epoch holds");
        }
    });
    p.pool_append_ns_per_batch = per(ns, batches.len()) * pace.lap();
    let (read, ns) = timed(|| {
        let (mut after, mut read) = (0, 0);
        let store = pool.group(0).expect("just written");
        while let Some(page) = store.read_journal(after, 64).filter(|pg| !pg.is_empty()) {
            after = page[page.len() - 1].sn;
            read += page.len();
        }
        read
    });
    assert_eq!(read, batches.len(), "the pool returns every batch it was given");
    p.pool_read_ns_per_batch = per(ns, batches.len()) * pace.lap();

    // namespace: a standby's replay of the same batches, then the retry
    // window folded from their acks.
    let replica = base();
    let mut session = ShardedReplaySession::new();
    let mut window = RetryWindow::new();
    let (mut replay_ns, mut fold_ns) = (0u128, 0u128);
    for b in &batches {
        let ((), ns) = timed(|| {
            for (_, txn) in b.entries() {
                session.apply(&replica, txn).expect("journaled records replay");
            }
        });
        replay_ns += ns;
        let ((), ns) = timed(|| {
            for ack in &b.acks {
                let txn = &b.records[ack.record as usize];
                let outcome = replay_outcome(|path| replica.getfileinfo(path).ok(), txn);
                window.record(ack.client, ack.seq, RetryEntry { outcome, token: None });
            }
        });
        fold_ns += ns;
    }
    let speed = pace.lap();
    p.replay_ns_per_record = per(replay_ns, txns.len()) * speed;
    p.retry_window_fold_ns_per_ack = per(fold_ns, txns.len()) * speed;
    if replica.fingerprint() != live.fingerprint() {
        p.findings.push("namespace: replaying the journal did not reproduce the active".into());
    }
    drop(replica);

    // namespace: a delta over the stream, folded off the active and applied
    // to a replica still at the base.
    let (delta, ns) =
        timed(|| fold_delta_with_window(&live, 0, sn, txns.iter().map(|(_, t)| t), &window));
    p.delta_fold_ns_per_txn = per(ns, txns.len()) * pace.lap();
    let mut junior = base();
    let (entries, ns) = timed(|| {
        let decoded = decode_delta(&delta.data).expect("own delta");
        apply_delta(&mut junior, &decoded).expect("delta applies on its base");
        decoded.entries.len()
    });
    p.delta_apply_ns_per_entry = per(ns, entries) * pace.lap();
    if junior.fingerprint() != live.fingerprint() {
        p.findings.push("namespace: base image + delta did not reproduce the active".into());
    }
    drop(junior);

    // namespace: a full image of the final state, as the active writes it
    // and as a junior installs it.
    let inodes = p.inodes as usize;
    let (image, ns) = timed(|| encode_image_with_window(&live.to_tree(), sn, &window));
    p.image_encode_ns_per_inode = per(ns, inodes) * pace.lap();
    let (installed, ns) = timed(|| {
        let (tree, _, _) = decode_image_with_window(image.data.clone()).expect("own image");
        ShardedNamespace::from_tree(tree)
    });
    p.image_decode_ns_per_inode = per(ns, inodes) * pace.lap();
    if installed.fingerprint() != live.fingerprint() {
        p.findings.push("namespace: the image did not decode to what was encoded".into());
    }
    drop(installed);

    // core: admission queue and response cache, per op.
    let ops: Vec<(u32, FsOp)> = txns
        .iter()
        .map(|(c, t)| (*c, FsOp::Create { path: t.primary_path().to_string(), replication: 3 }))
        .collect();
    let n_ops = ops.len();
    let mut ingress = Ingress::default();
    let budget = Duration::from_secs(1);
    let ((), ns) = timed(|| {
        for (i, (client, op)) in ops.into_iter().enumerate() {
            ingress.push(client, op, i as u64, None);
            if ingress.len() == size {
                std::hint::black_box(ingress.drain(budget, CpuModel::default()));
            }
        }
    });
    p.ingress_ns_per_op = per(ns, n_ops) * pace.lap();
    let mut cache = RetryCache::new();
    let reply = Arc::new(MdsResp::Reply { seq: 0, result: Ok(OpOutput::Done) });
    let ((), ns) = timed(|| {
        for (seq, (client, _)) in txns.iter().enumerate() {
            let seq = seq as u64 + 1;
            cache.note_acked(*client, seq.saturating_sub(spec.clients.into()));
            assert!(cache.begin(*client, seq));
            cache.store(*client, seq, reply.clone());
        }
    });
    p.retry_cache_ns_per_op = per(ns, n_ops) * pace.lap();

    p.pingpong_ns_per_event = pingpong() * pace.lap();
    p
}

/// Returns whatever it is sent; the one told of a peer serves first. Two of
/// these make a simulation in which the kernel does all the work.
struct PingPong {
    serve_to: Option<NodeId>,
}

impl Node for PingPong {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(peer) = self.serve_to {
            ctx.send(peer, 0u64);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        ctx.send_msg(from, msg);
    }
}

/// Kernel cost per event with nothing else going on: pop, deliver, send.
fn pingpong() -> f64 {
    let mut sim = Sim::new(SimConfig { trace: false, ..SimConfig::default() });
    let peer = sim.add_node("a", Box::new(PingPong { serve_to: None }));
    sim.add_node("b", Box::new(PingPong { serve_to: Some(peer) }));
    let ((), ns) = timed(|| {
        for _ in 0..PINGPONG_EVENTS {
            assert!(sim.step(), "the ball is always in flight");
        }
    });
    per(ns, PINGPONG_EVENTS as usize)
}
