//! Hostile bytes against the three decoders that read bytes a replica did
//! not just write: `decode_batch` (journal wire), `StreamingImageDecoder`
//! (checkpoint images, fed at random chunk sizes, with and without a `W`
//! retry-window section) and `decode_delta` (MDLT deltas).
//!
//! Each case builds two valid artifacts per format from a seeded random
//! namespace history and mutates them: truncate, flip a bit, splice one
//! into the other, overwrite a byte with a `u64::MAX` length varint, zero
//! the record count. Every artifact ends in a checksum over everything
//! before it, so the property comes in two strengths:
//!
//! - mutated bytes as they are: the decode is an **error**, unless the
//!   mutation happened to reproduce one of the two originals, in which case
//!   it is **identical** to that original's decode;
//! - mutated bytes with the checksum recomputed (a writer bug, or an
//!   adversary): the parser behind the checksum is reached, and the only
//!   claim is the one that holds for every input — **never a panic**
//!   (and for a zeroed record count over a body that still carries its
//!   records, an **error**).
//!
//! The image decoder parses entries *before* the checksum can be verified
//! (the junior decodes chunks as they stream in), so for it the first
//! strength already reaches the parser.
//!
//! Seeded `SmallRng`; `PARITY_CASES` scales the case count.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bytes::Bytes;
use mams_journal::{decode_batch, encode_batch, fnv1a64, AckRecord, JournalBatch, Txn};
use mams_journal::{EncodeError, Sn};
use mams_namespace::{
    decode_delta, encode_image_with_window, fold_delta_with_window, ImageError, NamespaceTree,
    RetryEntry, RetryOutcome, RetryWindow, StreamingImageDecoder,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn cases() -> u64 {
    std::env::var("PARITY_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
}

/// Mutations of each kind per artifact and case.
const MUTATIONS_PER_KIND: usize = 12;
/// LEB128 encoding of `u64::MAX`.
const MAX_VARINT: [u8; 10] = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
/// Every artifact ends in an 8-byte big-endian FNV-1a-64 of its body.
const TRAILER_LEN: usize = 8;
/// Journal batch: magic (4) + version (2), then the varints sn, first txid
/// and record count — one byte each for every batch built here (< 128).
const JOURNAL_SN_AT: usize = 6;
const JOURNAL_COUNT_AT: usize = JOURNAL_SN_AT + 2;
/// Delta: magic (4) + version (2) + base sn (8) + end sn (8), then the
/// entry-count varint.
const DELTA_COUNT_AT: usize = 22;

// ---------------------------------------------------------- generators

/// Component names from a small universe, some multi-byte so that prefix
/// lengths can land inside a character.
const NAMES: [&str; 8] = ["a", "b", "log", "é", "éa", "文件", "αβ", "part-0001"];

fn rand_path(rng: &mut SmallRng) -> String {
    let depth = rng.gen_range(1..4usize);
    let comps: Vec<&str> = (0..depth).map(|_| NAMES[rng.gen_range(0..NAMES.len())]).collect();
    format!("/{}", comps.join("/"))
}

fn rand_txn(rng: &mut SmallRng) -> Txn {
    match rng.gen_range(0..12u32) {
        0..=3 => Txn::Mkdir { path: rand_path(rng) },
        4..=6 => Txn::Create { path: rand_path(rng), replication: rng.gen_range(1..4u32) as u8 },
        7 => Txn::Delete { path: rand_path(rng), recursive: rng.gen_bool(0.5) },
        8 => Txn::Rename { src: rand_path(rng), dst: rand_path(rng) },
        9 => Txn::AddBlock {
            path: rand_path(rng),
            block_id: rng.gen_range(1..1u64 << 40),
            len: rng.gen_range(1..1u32 << 20),
        },
        10 => Txn::CloseFile { path: rand_path(rng) },
        _ => Txn::SetPerm { path: rand_path(rng), perm: rng.gen_range(0..0o1000u32) as u16 },
    }
}

/// Apply random transactions until `n` have committed; returns those.
fn grow(rng: &mut SmallRng, tree: &mut NamespaceTree, n: usize) -> Vec<Txn> {
    let mut journal = Vec::with_capacity(n);
    while journal.len() < n {
        let txn = rand_txn(rng);
        if tree.apply(&txn).is_ok() {
            journal.push(txn);
        }
    }
    journal
}

fn rand_window(rng: &mut SmallRng, tree: &NamespaceTree) -> RetryWindow {
    let mut w = RetryWindow::new();
    for i in 0..rng.gen_range(1..6u64) {
        let outcome = match rng.gen_range(0..3u32) {
            0 => RetryOutcome::Done,
            1 => RetryOutcome::Block(rng.gen_range(1..1u64 << 40)),
            _ => RetryOutcome::Info(tree.getfileinfo("/").expect("root exists")),
        };
        let token = rng.gen_bool(0.3).then(|| rng.gen_range(1..1u64 << 32));
        w.record(rng.gen_range(0..4u32), i + 1, RetryEntry { outcome, token });
    }
    w
}

/// The three artifacts of one random history, as their writers seal them.
struct Artifacts {
    journal: Vec<u8>,
    image: Vec<u8>,
    delta: Vec<u8>,
}

fn rand_artifacts(rng: &mut SmallRng, with_window: bool) -> Artifacts {
    let mut tree = NamespaceTree::new();
    let base_len = rng.gen_range(1..40usize);
    grow(rng, &mut tree, base_len);
    let range_len = rng.gen_range(1..40usize);
    let range = grow(rng, &mut tree, range_len);
    let window = if with_window { rand_window(rng, &tree) } else { RetryWindow::new() };

    let base_sn = base_len as Sn;
    let end_sn = base_sn + range.len() as Sn;
    let mut acks = Vec::new();
    for record in 0..range.len() as u32 {
        if with_window && rng.gen_bool(0.4) {
            acks.push(AckRecord {
                record,
                client: rng.gen_range(0..8u32),
                seq: rng.gen_range(1..1u64 << 20),
                spec: rng.gen_bool(0.2),
            });
        }
    }
    let delta = fold_delta_with_window(&tree, base_sn, end_sn, range.iter(), &window);
    let batch = JournalBatch::with_acks(end_sn, base_sn + 1, range, acks);
    Artifacts {
        journal: encode_batch(&batch).to_vec(),
        image: encode_image_with_window(&tree, end_sn, &window).data.to_vec(),
        delta: delta.data.to_vec(),
    }
}

// ------------------------------------------------------------- decoders

/// Stream `data` through the image decoder in chunks of random size and
/// return what a junior would adopt, re-encoded (byte equality with the
/// original image is the strongest "identical decode" there is).
fn stream_image(data: &[u8], rng: &mut SmallRng) -> Result<Vec<u8>, ImageError> {
    let mut d = StreamingImageDecoder::new();
    let mut rest = data;
    while !rest.is_empty() {
        let n = rng.gen_range(1..200usize).min(rest.len());
        d.push(&rest[..n])?;
        rest = &rest[n..];
    }
    let (tree, sn, window) = d.finish_with_window()?;
    Ok(encode_image_with_window(&tree, sn, &window).data.to_vec())
}

fn journal_of(data: &[u8]) -> Result<JournalBatch, EncodeError> {
    decode_batch(Bytes::from(data.to_vec()))
}

// ------------------------------------------------------------ mutations

fn reseal(bytes: &mut [u8]) {
    if let Some(body_len) = bytes.len().checked_sub(TRAILER_LEN) {
        let sum = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_be_bytes());
    }
}

/// With a one-byte length replaced by `u64::MAX` at `at`.
fn with_max_varint(a: &[u8], at: usize) -> Vec<u8> {
    [&a[..at], &MAX_VARINT[..], &a[at + 1..]].concat()
}

fn mutate(kind: usize, a: &[u8], b: &[u8], rng: &mut SmallRng) -> (Vec<u8>, &'static str) {
    match kind {
        0 => (a[..rng.gen_range(0..a.len())].to_vec(), "truncate"),
        1 => {
            let mut m = a.to_vec();
            m[rng.gen_range(0..a.len())] ^= 1 << rng.gen_range(0..8u32);
            (m, "bit flip")
        }
        2 => {
            let i = rng.gen_range(0..a.len() + 1);
            let j = rng.gen_range(0..b.len() + 1);
            ([&a[..i], &b[j..]].concat(), "splice")
        }
        _ => (with_max_varint(a, rng.gen_range(0..a.len())), "max varint"),
    }
}

/// Run `decode` on every mutation of `a` (spliced with `b`), in both
/// strengths, and hold it to the property in the module docs. `count_at`
/// is where the format keeps its one-byte record count, if it has one.
fn assault<T: PartialEq + std::fmt::Debug, E: std::fmt::Debug>(
    what: &str,
    a: &[u8],
    b: &[u8],
    count_at: Option<usize>,
    rng: &mut SmallRng,
    mut decode: impl FnMut(&[u8], &mut SmallRng) -> Result<T, E>,
) {
    let original_a = decode(a, rng).unwrap_or_else(|e| panic!("{what}: valid artifact: {e:?}"));
    let original_b = decode(b, rng).unwrap_or_else(|e| panic!("{what}: valid artifact: {e:?}"));
    for kind in 0..4 {
        for _ in 0..MUTATIONS_PER_KIND {
            let (mut bytes, how) = mutate(kind, a, b, rng);
            for resealed in [false, true] {
                if resealed {
                    reseal(&mut bytes);
                }
                let got =
                    catch_unwind(AssertUnwindSafe(|| decode(&bytes, rng))).unwrap_or_else(|_| {
                        panic!("{what}: decoder panicked on {how} (resealed: {resealed})")
                    });
                if resealed {
                    continue;
                }
                match got {
                    Ok(t) if bytes == a => assert_eq!(t, original_a, "{what}: {how}"),
                    Ok(t) if bytes == b => assert_eq!(t, original_b, "{what}: {how}"),
                    Ok(t) => panic!("{what}: {how} of a sealed artifact decoded to {t:?}"),
                    Err(_) => {}
                }
            }
        }
    }
    if let Some(at) = count_at.filter(|&at| a[at] != 0) {
        let mut bytes = a.to_vec();
        bytes[at] = 0;
        reseal(&mut bytes);
        let got = catch_unwind(AssertUnwindSafe(|| decode(&bytes, rng)))
            .unwrap_or_else(|_| panic!("{what}: decoder panicked on a zeroed record count"));
        assert!(got.is_err(), "{what}: zero records over a non-empty body decoded to {got:?}");
    }
}

// ---------------------------------------------------------------- tests

#[test]
fn mutated_artifacts_error_or_decode_identically_and_never_panic() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x0BAD_B17E ^ (case << 8));
        // Odd cases carry acks and a `W` section, even ones elide both.
        let a = rand_artifacts(&mut rng, case % 2 == 1);
        let b = rand_artifacts(&mut rng, true);
        let what = |format: &str| format!("case {case}, {format}");
        let (j, d) = (Some(JOURNAL_COUNT_AT), Some(DELTA_COUNT_AT));
        assault(&what("journal"), &a.journal, &b.journal, j, &mut rng, |d, _| journal_of(d));
        assault(&what("image"), &a.image, &b.image, None, &mut rng, stream_image);
        assault(&what("delta"), &a.delta, &b.delta, d, &mut rng, |d, _| decode_delta(d));
    }
}

/// Fixed header: magic (4) + version (2) + checkpoint sn (8) + root perm (2).
const IMAGE_HEADER_LEN: usize = 16;

#[test]
fn image_length_varint_near_u64_max_is_corrupt_not_a_panic() {
    let mut rng = SmallRng::seed_from_u64(1);
    // One directory `/d`, so the first entry is: kind `D`, parent varint
    // 0, then the name length.
    let mut tree = NamespaceTree::new();
    tree.mkdir("/d").unwrap();
    let img = encode_image_with_window(&tree, 5, &RetryWindow::new()).data.to_vec();
    let name_len_at = IMAGE_HEADER_LEN + 2;
    assert_eq!(&img[IMAGE_HEADER_LEN..name_len_at + 2], b"D\x00\x01d");
    let name = with_max_varint(&img, name_len_at);

    // A `W` section straight after the header: tag, then its length.
    let mut window = img[..IMAGE_HEADER_LEN].to_vec();
    window.push(b'W');
    window.extend_from_slice(&MAX_VARINT);
    window.extend_from_slice(&[0; TRAILER_LEN]);

    for (bytes, what) in [(name, "name length"), (window, "window length")] {
        let got = catch_unwind(AssertUnwindSafe(|| stream_image(&bytes, &mut rng)))
            .unwrap_or_else(|_| panic!("decoder panicked on a u64::MAX {what}"));
        assert!(matches!(got, Err(ImageError::Corrupt(_))), "{what}: {got:?}");
    }
}

#[test]
fn delta_prefix_inside_a_character_is_corrupt_not_a_panic() {
    // Two siblings sharing "/é" (3 bytes): the second entry is written as
    // ⟨shared 3, suffix "2"⟩. Claiming 2 shared bytes lands inside "é".
    let mut tree = NamespaceTree::new();
    let txns = [
        Txn::Create { path: "/é1".into(), replication: 1 },
        Txn::Create { path: "/é2".into(), replication: 1 },
    ];
    for t in &txns {
        tree.apply(t).unwrap();
    }
    let mut bytes =
        fold_delta_with_window(&tree, 0, 2, txns.iter(), &RetryWindow::new()).data.to_vec();
    let at = bytes.windows(3).position(|w| w == [3, 1, b'2']).expect("second entry's path");
    bytes[at] = 2;
    reseal(&mut bytes);
    let got = catch_unwind(|| decode_delta(&bytes))
        .unwrap_or_else(|_| panic!("decoder panicked on a prefix inside a character"));
    assert!(matches!(got, Err(ImageError::Corrupt(_))), "{got:?}");
}

/// Offset of the big-endian u16 version in all three headers (after the
/// 4-byte magic).
const VERSION_AT: usize = 4;

#[test]
fn a_version_without_a_codec_is_bad_version_not_a_misparse() {
    let mut rng = SmallRng::seed_from_u64(2);
    let a = rand_artifacts(&mut rng, true);
    let with_version = |bytes: &[u8], v: u16| {
        let mut m = bytes.to_vec();
        m[VERSION_AT..VERSION_AT + 2].copy_from_slice(&v.to_be_bytes());
        reseal(&mut m);
        m
    };
    // Journal and image wire version 1 were decoded until their codecs were
    // deleted; the delta format's only version is 1.
    assert_eq!(journal_of(&with_version(&a.journal, 1)), Err(EncodeError::BadVersion(1)));
    assert_eq!(stream_image(&with_version(&a.image, 1), &mut rng), Err(ImageError::BadVersion(1)));
    assert_eq!(decode_delta(&with_version(&a.delta, 2)), Err(ImageError::BadVersion(2)));
}

#[test]
fn a_resealed_batch_with_no_records_or_sn_zero_is_invalid() {
    let batch = JournalBatch::new(3, 40, vec![Txn::Mkdir { path: "/d".into() }]);
    let sealed = encode_batch(&batch).to_vec();
    assert_eq!(&sealed[JOURNAL_SN_AT..=JOURNAL_COUNT_AT], [3, 40, 1]);

    // Header and a zero count, nothing after it: `last_txid()` of what this
    // used to decode to underflows.
    let mut empty = sealed[..=JOURNAL_COUNT_AT].to_vec();
    empty[JOURNAL_COUNT_AT] = 0;
    empty.extend_from_slice(&[0; TRAILER_LEN]);
    reseal(&mut empty);
    assert!(matches!(journal_of(&empty), Err(EncodeError::Invalid(_))), "no records");

    let mut sn_zero = sealed.clone();
    sn_zero[JOURNAL_SN_AT] = 0;
    reseal(&mut sn_zero);
    assert!(matches!(journal_of(&sn_zero), Err(EncodeError::Invalid(_))), "sn 0");

    assert_eq!(journal_of(&sealed), Ok(batch));
}

#[test]
fn delta_entry_count_beyond_the_bytes_left_is_truncated() {
    let mut tree = NamespaceTree::new();
    let txn = Txn::Mkdir { path: "/d".into() };
    tree.apply(&txn).unwrap();
    let sealed = fold_delta_with_window(&tree, 0, 1, [&txn], &RetryWindow::new()).data.to_vec();
    assert_eq!(sealed[DELTA_COUNT_AT], 1);
    // One entry of 7 bytes is left: a count of 3 cannot fit (3 bytes is the
    // smallest entry), and neither can u64::MAX.
    let entry_len = sealed.len() - TRAILER_LEN - DELTA_COUNT_AT - 1;
    assert!(entry_len < 9, "{entry_len}");
    let mut three = sealed.clone();
    three[DELTA_COUNT_AT] = 3;
    for mut bytes in [three, with_max_varint(&sealed, DELTA_COUNT_AT)] {
        reseal(&mut bytes);
        assert_eq!(decode_delta(&bytes).map(|d| d.entries.len()), Err(ImageError::Truncated));
    }
}
