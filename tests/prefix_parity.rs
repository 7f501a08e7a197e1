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

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mams::core::{FsOp, OpOutput, Prefix};
use mams::journal::{AckRecord, SharedBatch, Txn};
use mams::namespace::{
    decode_delta, decode_image_with_window, fold_delta_with_window, RetryOutcome,
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
fn derived(p: &Prefix) -> (u64, u64, u64) {
    (p.ns().fingerprint(), p.window().fingerprint(), p.tail_sn())
}

/// That, and both id marks: what any replay of the batches themselves
/// agrees on.
fn state(p: &Prefix) -> ((u64, u64, u64), (u64, u64)) {
    (derived(p), p.id_marks())
}

/// A writer's run: random operations executed and sealed a few at a time,
/// about two in three journaled records answering a client request. Returns
/// the writer and the journal it wrote.
fn write_journal(rng: &mut SmallRng) -> (Prefix, Vec<SharedBatch>) {
    let mut writer = Prefix::new();
    let mut journal = Vec::new();
    let (mut records, mut settled): (Vec<Txn>, Vec<_>) = (Vec::new(), Vec::new());
    let mut seq = 0;
    for _ in 0..rng.gen_range(20..160u32) {
        let op = rand_op(rng);
        let read = !op.is_mutation();
        match writer.exec(op) {
            Ok((None, _)) => assert!(read, "only a read journals nothing"),
            Ok((Some(txn), output)) => {
                assert!(!read, "a read journaled {txn:?}");
                if rng.gen_bool(0.66) {
                    seq += 1;
                    let outcome = match output {
                        OpOutput::Done => RetryOutcome::Done,
                        OpOutput::Block(b) => RetryOutcome::Block(b),
                        OpOutput::Info(info) => RetryOutcome::Info(info),
                        OpOutput::Listing(_) => unreachable!("a mutation lists nothing"),
                    };
                    let record = records.len() as u32;
                    let client = rng.gen_range(1..4u32);
                    settled.push((AckRecord { record, client, seq, spec: false }, outcome));
                }
                records.push(txn);
            }
            Err(_) => {}
        }
        if !records.is_empty() && rng.gen_bool(0.3) {
            journal.push(writer.seal(std::mem::take(&mut records), std::mem::take(&mut settled)));
        }
    }
    if !records.is_empty() {
        journal.push(writer.seal(records, settled));
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
        let (writer, journal) = write_journal(&mut rng);
        let mut reader = Prefix::new();
        replay(&mut reader, &journal);
        assert_eq!(state(&reader), state(&writer), "case {case}");
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
        let (writer, journal) = write_journal(&mut rng);
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
        assert_eq!(state(&member), state(&writer), "case {case}: shuffled, duplicated");

        // A member's reset, then a hole: everything but one batch, then it.
        member = Prefix::new();
        let hole = rng.gen_range(0..journal.len());
        replay(&mut member, journal.iter().filter(|b| b.sn != hole as u64 + 1));
        assert_eq!(member.tail_sn(), hole as u64, "case {case}: nothing past the hole applies");
        replay(&mut member, [&journal[hole]]);
        assert_eq!(state(&member), state(&writer), "case {case}: hole filled late");
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
        let (writer, journal) = write_journal(&mut rng);
        if journal.len() < 2 {
            continue;
        }
        let k = rng.gen_range(0..journal.len());
        let m = rng.gen_range(k + 1..journal.len() + 1);
        let mut at_k = Prefix::new();
        replay(&mut at_k, &journal[..k]);
        let mut at_m = Prefix::new();
        replay(&mut at_m, &journal[..m]);

        let image = at_k.ns().pin().encode_image(k as u64, at_k.window());
        let (tree, sn, window) = decode_image_with_window(image.data).expect("own image decodes");
        let mut from_image = Prefix::from_image(tree, sn, window);
        assert_eq!(derived(&from_image), derived(&at_k), "case {case}: image at {k}");
        replay(&mut from_image, &journal);
        assert_eq!(derived(&from_image), derived(&writer), "case {case}: image at {k}, suffix");
        assert!(from_image.id_marks().1 <= writer.id_marks().1, "case {case}");

        let txns = journal[k..m].iter().flat_map(|b| b.entries().map(|(_, txn)| txn));
        let delta = fold_delta_with_window(at_m.ns(), k as u64, m as u64, txns, at_m.window());
        let mut via_delta = at_k;
        via_delta.adopt_delta(decode_delta(&delta.data).expect("own delta decodes")).unwrap();
        assert_eq!(derived(&via_delta), derived(&at_m), "case {case}: delta ({k}, {m}]");
        assert!(via_delta.log().is_empty(), "case {case}: the log restarts at the delta's end");
        replay(&mut via_delta, &journal);
        assert_eq!(derived(&via_delta), derived(&writer), "case {case}: delta, suffix");
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
