//! The journal prefix as a value (`mams_core::Prefix`): however a journal
//! reaches a node — in order, duplicated, out of order through the stash,
//! with holes filled late, through an image or a delta and then the suffix —
//! the node derives the same state, and that state is what the writer held
//! when it sealed the last batch.
//!
//! The journals are written by a prefix too: random client operations go
//! through `exec`, what they journal is sealed with ack records, so every
//! case below also holds `exec` + `seal` on one side against `ingest` on the
//! other. Seeded `SmallRng` drives the randomization (see
//! tests/proptest_invariants.rs for the pattern). Override the case count
//! with `PARITY_CASES=n`.
//!
//! The retry window is folded from the log only when it is read; the last
//! suite holds every read against a window folded eagerly, batch by batch,
//! as each one was sealed or applied.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mams::core::{FsOp, OpOutput, Prefix};
use mams::journal::{AckRecord, SharedBatch, Sn, Txn};
use mams::namespace::{
    apply_delta, decode_delta, decode_image_with_window, fold_delta_with_window, replay_outcome,
    DecodedDelta, NamespaceImage, RetryEntry, RetryOutcome, RetryWindow, ShardedNamespace,
};

fn cases() -> u64 {
    std::env::var("PARITY_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(48)
}

/// A small universe so operations collide: four directories, one nested,
/// six file names.
fn rand_path(rng: &mut SmallRng) -> String {
    const DIRS: [&str; 5] = ["/a", "/b", "/c", "/a/x", "/b/y"];
    let dir = DIRS[rng.gen_range(0..DIRS.len())];
    if rng.gen_bool(0.2) {
        dir.to_string()
    } else {
        format!("{dir}/f{}", rng.gen_range(0..6u32))
    }
}

fn rand_op(rng: &mut SmallRng) -> FsOp {
    let path = rand_path(rng);
    match rng.gen_range(0..12u32) {
        0..=2 => FsOp::Create { path, replication: rng.gen_range(1..4u32) as u8 },
        3..=4 => FsOp::Mkdir { path },
        5 => FsOp::Delete { path, recursive: rng.gen_bool(0.5) },
        6 => FsOp::Rename { src: path, dst: rand_path(rng) },
        7..=8 => FsOp::AddBlock { path, len: rng.gen_range(1..1u32 << 20) },
        9 => FsOp::CloseFile { path },
        10 => FsOp::SetPerm { path, perm: rng.gen_range(0..0o777u32) as u16 },
        _ => FsOp::GetFileInfo { path },
    }
}

/// What a prefix derives whichever way the journal reached it: namespace
/// and window digests and the applied position.
fn derived(p: &mut Prefix) -> (u64, u64, u64) {
    (p.ns().fingerprint(), p.window().fingerprint(), p.tail_sn())
}

/// That, and both id marks: what any replay of the batches themselves
/// agrees on.
fn state(p: &mut Prefix) -> ((u64, u64, u64), (u64, u64)) {
    (derived(p), p.id_marks())
}

/// Execute one random operation on `writer`. A journaled one comes back as
/// its record and the outcome its client was answered.
fn exec_random(writer: &mut Prefix, rng: &mut SmallRng) -> Option<(Txn, RetryOutcome)> {
    let op = rand_op(rng);
    let read = !op.is_mutation();
    match writer.exec(op) {
        Ok((None, _)) => {
            assert!(read, "only a read journals nothing");
            None
        }
        Ok((Some(txn), output)) => {
            assert!(!read, "a read journaled {txn:?}");
            let outcome = match output {
                OpOutput::Done => RetryOutcome::Done,
                OpOutput::Block(b) => RetryOutcome::Block(b),
                OpOutput::Info(info) => RetryOutcome::Info(info),
                OpOutput::Listing(_) => unreachable!("a mutation lists nothing"),
            };
            Some((txn, outcome))
        }
        Err(_) => None,
    }
}

/// A writer's run: random operations executed and sealed a few at a time,
/// about two in three journaled records answering a client request. Returns
/// the writer and the journal it wrote.
fn write_journal(rng: &mut SmallRng) -> (Prefix, Vec<SharedBatch>) {
    let mut writer = Prefix::new();
    let mut journal = Vec::new();
    let (mut records, mut acks): (Vec<Txn>, Vec<_>) = (Vec::new(), Vec::new());
    let mut seq = 0;
    for _ in 0..rng.gen_range(20..160u32) {
        if let Some((txn, _)) = exec_random(&mut writer, rng) {
            if rng.gen_bool(0.66) {
                seq += 1;
                let record = records.len() as u32;
                let client = rng.gen_range(1..4u32);
                acks.push(AckRecord { record, client, seq, spec: false });
            }
            records.push(txn);
        }
        if !records.is_empty() && rng.gen_bool(0.3) {
            journal.push(writer.seal(std::mem::take(&mut records), std::mem::take(&mut acks)));
        }
    }
    if !records.is_empty() {
        journal.push(writer.seal(records, acks));
    }
    (writer, journal)
}

fn replay<'a>(onto: &mut Prefix, batches: impl IntoIterator<Item = &'a SharedBatch>) {
    for b in batches {
        assert_eq!(onto.ingest(b.share()), 0, "sn {}: a journaled record failed to re-apply", b.sn);
    }
}

/// What the writer holds after `exec` + `seal` is what a reader derives by
/// `ingest`: namespace, retry window, position and both id marks.
#[test]
fn a_reader_derives_what_the_writer_held() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x9f1_0001 ^ (case << 8));
        let (mut writer, journal) = write_journal(&mut rng);
        let mut reader = Prefix::new();
        replay(&mut reader, &journal);
        assert_eq!(state(&mut reader), state(&mut writer), "case {case}");
        assert_eq!(reader.log().read_after(0), writer.log().read_after(0), "case {case}");
    }
}

/// Step 4 of the switch, as the members run it: a journal offered with
/// duplicates and out of order equals the clean in-order replay; a batch
/// past a hole stays stashed until the hole is filled; and a prefix given
/// up for a new one replays like one that never held anything.
#[test]
fn any_arrival_order_equals_the_in_order_replay() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x9f1_0002 ^ (case << 8));
        let (mut writer, journal) = write_journal(&mut rng);
        if journal.is_empty() {
            continue;
        }

        // Shuffled within a sliding window, every batch up to three times.
        let mut offers: Vec<&SharedBatch> = Vec::new();
        for b in &journal {
            offers.extend(std::iter::repeat_n(b, rng.gen_range(1..4usize)));
        }
        for window in offers.chunks_mut(rng.gen_range(2..9usize)) {
            for i in (1..window.len()).rev() {
                window.swap(i, rng.gen_range(0..i + 1));
            }
        }
        let mut member = Prefix::new();
        replay(&mut member, offers);
        assert_eq!(state(&mut member), state(&mut writer), "case {case}: shuffled, duplicated");

        // A member's reset, then a hole: everything but one batch, then it.
        member = Prefix::new();
        let hole = rng.gen_range(0..journal.len());
        replay(&mut member, journal.iter().filter(|b| b.sn != hole as u64 + 1));
        assert_eq!(member.tail_sn(), hole as u64, "case {case}: nothing past the hole applies");
        replay(&mut member, [&journal[hole]]);
        assert_eq!(state(&mut member), state(&mut writer), "case {case}: hole filled late");
    }
}

/// Catching up from the pool: the image at sn `k` and then the suffix, or
/// the state at `k`, a delta to `m` and then the suffix, is the state of
/// having replayed everything. (An image carries no txid, and a block id
/// only while a file holds it: the marks are bounded, not equal.)
#[test]
fn an_image_or_a_delta_and_the_suffix_equal_the_whole_journal() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x9f1_0003 ^ (case << 8));
        let (mut writer, journal) = write_journal(&mut rng);
        if journal.len() < 2 {
            continue;
        }
        let k = rng.gen_range(0..journal.len());
        let m = rng.gen_range(k + 1..journal.len() + 1);
        let mut at_k = Prefix::new();
        replay(&mut at_k, &journal[..k]);
        let mut at_m = Prefix::new();
        replay(&mut at_m, &journal[..m]);

        let image = at_k.encode_image();
        assert_eq!(image.checkpoint_sn, k as u64, "case {case}: an image is of the tail");
        let (tree, sn, window) = decode_image_with_window(image.data).expect("own image decodes");
        let mut from_image = Prefix::from_image(tree, sn, window);
        assert_eq!(derived(&mut from_image), derived(&mut at_k), "case {case}: image at {k}");
        replay(&mut from_image, &journal);
        let want = derived(&mut writer);
        assert_eq!(derived(&mut from_image), want, "case {case}: image at {k}, suffix");
        assert!(from_image.id_marks().1 <= writer.id_marks().1, "case {case}");

        let delta = at_m.fold_delta(k as u64).expect("nothing compacted");
        let mut via_delta = at_k;
        via_delta.adopt_delta(decode_delta(&delta.data).expect("own delta decodes")).unwrap();
        assert_eq!(derived(&mut via_delta), derived(&mut at_m), "case {case}: delta ({k}, {m}]");
        assert!(via_delta.log().is_empty(), "case {case}: the log restarts at the delta's end");
        replay(&mut via_delta, &journal);
        assert_eq!(derived(&mut via_delta), want, "case {case}: delta, suffix");
        assert!(via_delta.id_marks().1 <= writer.id_marks().1, "case {case}");
    }
}

/// What `exec` journals and what it does not: the record carries the op's
/// own arguments, a read and a refused mutation journal nothing, and a block
/// id is spent only when the block is added.
#[test]
fn exec_journals_mutations_and_only_mutations() {
    let mut p = Prefix::new();
    let (txn, _) = p.exec(FsOp::Mkdir { path: "/a".into() }).unwrap();
    assert_eq!(txn, Some(Txn::Mkdir { path: "/a".into() }));
    let (txn, out) = p.exec(FsOp::Create { path: "/a/f".into(), replication: 2 }).unwrap();
    assert_eq!(txn, Some(Txn::Create { path: "/a/f".into(), replication: 2 }));
    assert!(matches!(out, OpOutput::Info(i) if i.path == "/a/f"));
    let (txn, _) = p.exec(FsOp::GetFileInfo { path: "/a/f".into() }).unwrap();
    assert_eq!(txn, None, "reads are not journaled");
    let (txn, out) = p.exec(FsOp::List { path: "/a".into() }).unwrap();
    assert_eq!((txn, out), (None, OpOutput::Listing(vec!["f".into()])));
    let err = p.exec(FsOp::Mkdir { path: "/a".into() }).unwrap_err();
    assert!(err.contains("already exists"), "{err}");

    p.exec(FsOp::AddBlock { path: "/a/nope".into(), len: 1 }).unwrap_err();
    assert_eq!(p.id_marks().1, 1, "a refused AddBlock spends no id");
    let (txn, out) = p.exec(FsOp::AddBlock { path: "/a/f".into(), len: 42 }).unwrap();
    assert_eq!(txn, Some(Txn::AddBlock { path: "/a/f".into(), block_id: 1, len: 42 }));
    assert_eq!((out, p.id_marks().1), (OpOutput::Block(1), 2));
    assert_eq!(p.tail_sn(), 0, "nothing is on the log until it is sealed");
}

/// The window of a node that reads the journal, kept eagerly: each batch's
/// acks folded as it applies, at each acked record's apply point
/// (`replay_outcome`), on a namespace of its own that applies the records
/// one by one.
struct EagerFold {
    ns: ShardedNamespace,
    window: RetryWindow,
    tail: Sn,
}

impl EagerFold {
    fn new() -> Self {
        EagerFold { ns: ShardedNamespace::new(), window: RetryWindow::new(), tail: 0 }
    }

    /// What a node restored from `image` holds.
    fn from_image(image: &NamespaceImage) -> Self {
        let (tree, tail, window) =
            decode_image_with_window(image.data.clone()).expect("own image decodes");
        EagerFold { ns: ShardedNamespace::from_tree(tree), window, tail }
    }

    /// Apply the journal's batches past our tail through `to`; whether any
    /// of them acked a request.
    fn apply_through(&mut self, journal: &[SharedBatch], to: Sn) -> bool {
        let batches = &journal[self.tail as usize..to as usize];
        for batch in batches {
            let mut acks = batch.acks.iter().peekable();
            for (i, txn) in batch.records.iter().enumerate() {
                self.ns.apply(txn).expect("a journaled record re-applies");
                while let Some(ack) = acks.next_if(|a| a.record as usize == i) {
                    let outcome = replay_outcome(|p| self.ns.getfileinfo(p).ok(), txn);
                    self.window.record(ack.client, ack.seq, RetryEntry { outcome, token: None });
                }
            }
        }
        self.tail = to;
        batches.iter().any(|b| !b.acks.is_empty())
    }

    fn adopt_delta(&mut self, delta: &DecodedDelta) {
        apply_delta(&mut self.ns, delta).expect("own delta applies");
        if !delta.window.is_empty() {
            self.window = delta.window.clone();
        }
        self.tail = delta.end_sn;
    }
}

/// A read of a window must be the eager fold's, byte for byte.
fn same_window(read: &RetryWindow, eager: &RetryWindow, what: &str) {
    assert_eq!(read.encode_bytes(), eager.encode_bytes(), "{what}");
    assert_eq!(read, eager, "{what}");
}

fn replayed_to(journal: &[SharedBatch]) -> Prefix {
    let mut p = Prefix::new();
    replay(&mut p, journal);
    p
}

/// The window is a view of the log. A writer seals, compacts and has its
/// window read (a promotion, an image, a delta); a reader is offered runs of
/// the journal shuffled, duplicated and with holes, compacts, catches up by
/// deltas with and without a window section, restarts from images, and has
/// its window read. Every read, at random points of random runs, is the
/// eager fold's: the writer's folded at each seal from the outcomes `exec`
/// answered, the reader's at each acked record's apply point.
#[test]
fn a_window_read_at_any_point_is_the_eager_fold() {
    let (mut reads, mut nonempty_reads, mut folding_adopts) = (0, 0, 0);
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x9f1_0005 ^ (case << 8));
        let (mut writer, mut writer_eager) = (Prefix::new(), RetryWindow::new());
        let (mut reader, mut eager) = (Prefix::new(), EagerFold::new());
        let mut journal: Vec<SharedBatch> = Vec::new();
        let mut seq = 0u64;
        // The reader applied acks its window has not been read through.
        let mut unread = false;
        for step in 0..rng.gen_range(40..240u32) {
            let what = format!("case {case} step {step}");
            match rng.gen_range(0..16u32) {
                // The writer executes a few ops and seals them; now and then
                // a seq repeats or steps back, as a client's retries do.
                0..=4 => {
                    let (mut records, mut acks, mut answered) =
                        (Vec::new(), Vec::new(), Vec::new());
                    for _ in 0..rng.gen_range(1..8u32) {
                        let Some((txn, outcome)) = exec_random(&mut writer, &mut rng) else {
                            continue;
                        };
                        if rng.gen_bool(0.66) {
                            seq = match rng.gen_range(0..10u32) {
                                0 => seq.saturating_sub(rng.gen_range(0..4u64)),
                                _ => seq + 1,
                            };
                            let (record, client) = (records.len() as u32, rng.gen_range(1..4u32));
                            acks.push(AckRecord { record, client, seq, spec: false });
                            answered.push((client, seq, outcome));
                        }
                        records.push(txn);
                    }
                    if records.is_empty() {
                        continue;
                    }
                    for (client, seq, outcome) in answered {
                        writer_eager.record(client, seq, RetryEntry { outcome, token: None });
                    }
                    journal.push(writer.seal(records, acks));
                }
                // The active's compaction after an image.
                5 => {
                    let log = writer.log();
                    let through = rng.gen_range(log.base_sn()..log.tail_sn() + 1);
                    writer.compact_log(through);
                }
                // The writer's window read as a promotion, an image or a
                // delta reads it.
                6 => {
                    reads += 1;
                    let (base, tail) = (writer.log().base_sn(), writer.tail_sn());
                    match rng.gen_range(0..3u32) {
                        1 => {
                            let image = writer.encode_image();
                            let (_, _, window) =
                                decode_image_with_window(image.data).expect("own image decodes");
                            same_window(&window, &writer_eager, &what);
                        }
                        // A delta folds a non-empty range.
                        2 if base < tail => {
                            let anchor = rng.gen_range(base..tail);
                            let delta =
                                writer.fold_delta(anchor).expect("the anchor is on the log");
                            let delta = decode_delta(&delta.data).expect("own delta decodes");
                            same_window(&delta.window, &writer_eager, &what);
                        }
                        _ => same_window(writer.window(), &writer_eager, &what),
                    }
                }
                // The reader is offered a run of the journal: every batch up
                // to three times, shuffled in a sliding window, now and then
                // short of one (what stays stashed waits for a later run).
                7..=10 => {
                    let from = (reader.tail_sn() as usize).saturating_sub(rng.gen_range(0..3usize));
                    let to = rng.gen_range(from..journal.len() + 1);
                    let mut offers: Vec<&SharedBatch> = Vec::new();
                    for b in &journal[from..to] {
                        offers.extend(std::iter::repeat_n(b, rng.gen_range(1..4usize)));
                    }
                    for window in offers.chunks_mut(rng.gen_range(2..6usize)) {
                        for i in (1..window.len()).rev() {
                            window.swap(i, rng.gen_range(0..i + 1));
                        }
                    }
                    if !offers.is_empty() && rng.gen_bool(0.2) {
                        let hole = offers[rng.gen_range(0..offers.len())].sn;
                        offers.retain(|b| b.sn != hole);
                    }
                    replay(&mut reader, offers);
                    unread |= eager.apply_through(&journal, reader.tail_sn());
                }
                11 => {
                    let log = reader.log();
                    let through = rng.gen_range(log.base_sn()..log.tail_sn() + 1);
                    reader.compact_log(through);
                    unread = false;
                }
                // The reader catches up from its tail by a delta that carries
                // the window, or one without the section.
                12..=13 => {
                    let (tail, len) = (reader.tail_sn(), journal.len() as Sn);
                    if tail == len {
                        continue;
                    }
                    let end = rng.gen_range(tail + 1..len + 1);
                    let mut at_end = replayed_to(&journal[..end as usize]);
                    let delta = if rng.gen_bool(0.5) {
                        at_end.fold_delta(tail).expect("nothing compacted")
                    } else {
                        let range = &journal[tail as usize..end as usize];
                        let txns = range.iter().flat_map(|b| b.records.iter());
                        fold_delta_with_window(at_end.ns(), tail, end, txns, &RetryWindow::new())
                    };
                    let delta = decode_delta(&delta.data).expect("own delta decodes");
                    folding_adopts += usize::from(unread && delta.window.is_empty());
                    eager.adopt_delta(&delta);
                    reader.adopt_delta(delta).expect("the delta chains onto the tail");
                    unread = false;
                }
                // The reader restarts from an image: its own (a read), or a
                // replica's at some sn.
                14 => {
                    let image = if rng.gen_bool(0.5) {
                        reads += 1;
                        let image = reader.encode_image();
                        same_window(&EagerFold::from_image(&image).window, &eager.window, &what);
                        image
                    } else {
                        replayed_to(&journal[..rng.gen_range(0..journal.len() + 1)]).encode_image()
                    };
                    let (tree, sn, window) =
                        decode_image_with_window(image.data.clone()).expect("own image decodes");
                    reader = Prefix::from_image(tree, sn, window);
                    eager = EagerFold::from_image(&image);
                    unread = false;
                }
                // The reader's window read as a promotion reads it.
                _ => {
                    reads += 1;
                    nonempty_reads += usize::from(!eager.window.is_empty());
                    same_window(reader.window(), &eager.window, &what);
                    unread = false;
                }
            }
        }
        replay(&mut reader, &journal);
        eager.apply_through(&journal, reader.tail_sn());
        same_window(reader.window(), &eager.window, &format!("case {case}: caught up"));
        same_window(writer.window(), &writer_eager, &format!("case {case}: the writer at the end"));
    }
    assert!(reads > 0 && nonempty_reads > 0, "{reads} reads, {nonempty_reads} of a filled window");
    assert!(folding_adopts > 0, "no delta without a window section met an unread ack");
}
