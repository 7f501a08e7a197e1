//! [`RetryWindow`]'s per-client rings against a reference map.
//!
//! The window is replicated state: every replica folds the same acks and
//! must hold the same bytes. Its rings take the ascending-seq fast path
//! almost always, so the duplicate and out-of-order paths are checked here
//! against the structure they replaced — a `BTreeMap` per client, insert then
//! evict the lowest seq — under random `(client, seq)` streams: same `get`,
//! `len`, `iter` and eviction, and the same bytes as a window that was only
//! ever fed in order. A golden fingerprint pins those bytes to what the
//! `BTreeMap` window encoded before the rings existed.

use std::collections::BTreeMap;

use mams_namespace::{FileInfo, RetryEntry, RetryOutcome, RetryWindow};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

type Model = BTreeMap<u32, BTreeMap<u64, RetryEntry>>;

fn model_record(model: &mut Model, cap: usize, client: u32, seq: u64, entry: RetryEntry) {
    let m = model.entry(client).or_default();
    m.insert(seq, entry);
    while m.len() > cap {
        let oldest = *m.keys().next().expect("non-empty");
        m.remove(&oldest);
    }
}

fn rand_entry(rng: &mut SmallRng) -> RetryEntry {
    let outcome = match rng.gen_range(0..3u32) {
        0 => RetryOutcome::Done,
        1 => RetryOutcome::Block(rng.gen_range(0..1u64 << 40)),
        _ => RetryOutcome::Info(FileInfo {
            path: format!("/c{}/f{}", rng.gen_range(0..9u32), rng.gen_range(0..999u32)),
            is_dir: false,
            blocks: (0..rng.gen_range(0..3u64)).collect(),
            replication: rng.gen_range(1..4u32) as u8,
            sealed: rng.gen_bool(0.5),
            perm: 0o644,
            child_count: 0,
        }),
    };
    RetryEntry { outcome, token: rng.gen_bool(0.3).then(|| rng.gen_range(0..1u64 << 20)) }
}

/// A stream that mostly ascends per client, with duplicates and stragglers.
fn stream(seed: u64, clients: u32, len: usize) -> Vec<(u32, u64, RetryEntry)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut next = vec![1u64; clients as usize];
    (0..len)
        .map(|_| {
            let c = rng.gen_range(0..clients);
            let head = &mut next[c as usize];
            let seq = match rng.gen_range(0..10u32) {
                // A retry of something recent, or of something long evicted.
                0 => head.saturating_sub(rng.gen_range(0..6u64)).max(1),
                1 => rng.gen_range(1..*head + 1),
                // A gap: the client's seqs need not be dense.
                2 => *head + rng.gen_range(1..4u64),
                _ => *head,
            };
            *head = (*head).max(seq + 1);
            (c, seq, rand_entry(&mut rng))
        })
        .collect()
}

#[test]
fn ring_matches_the_btreemap_model() {
    for case in 0..32u64 {
        let cap = [1usize, 2, 7, 128][case as usize % 4];
        let mut ring = RetryWindow::with_capacity(cap);
        let mut model = Model::new();
        for (step, (c, seq, e)) in stream(0x41C6 ^ (case << 8), 5, 2_000).into_iter().enumerate() {
            ring.record(c, seq, e.clone());
            model_record(&mut model, cap, c, seq, e);
            if step % 50 != 0 {
                continue;
            }
            let flat: Vec<(u32, u64, &RetryEntry)> =
                model.iter().flat_map(|(&c, m)| m.iter().map(move |(&s, e)| (c, s, e))).collect();
            assert_eq!(ring.iter().collect::<Vec<_>>(), flat, "case {case} step {step}: iter");
            assert_eq!(ring.len(), flat.len(), "case {case} step {step}: len");
            for client in 0..6 {
                let newest = model.get(&client).and_then(|m| m.keys().last().copied()).unwrap_or(0);
                for seq in newest.saturating_sub(cap as u64 + 3)..newest + 3 {
                    assert_eq!(
                        ring.get(client, seq),
                        model.get(&client).and_then(|m| m.get(&seq)),
                        "case {case} step {step}: get({client}, {seq})"
                    );
                }
            }
            // The same content fed in order — pure push_back — is the same
            // window, byte for byte, and survives its own codec.
            let mut in_order = RetryWindow::with_capacity(cap);
            for (c, s, e) in &flat {
                in_order.record(*c, *s, (*e).clone());
            }
            assert_eq!(ring, in_order, "case {case} step {step}");
            let bytes = ring.encode_bytes();
            assert_eq!(bytes, in_order.encode_bytes(), "case {case} step {step}: bytes");
            assert_eq!(RetryWindow::decode_bytes(&bytes).unwrap(), ring, "case {case} step {step}");
        }
    }
}

/// The bytes are what the `BTreeMap` window wrote: this fingerprint was
/// recorded from it, over the same stream, before the rings replaced it.
#[test]
fn window_bytes_are_unchanged_from_the_btreemap_window() {
    let mut w = RetryWindow::new();
    for (c, seq, e) in stream(0x60_1DE4, 9, 4_000) {
        w.record(c, seq, e);
    }
    assert_eq!(w.len(), 9 * 128, "every client's ring is full");
    assert_eq!(w.fingerprint(), GOLDEN, "fingerprint {:#x}", w.fingerprint());
}

const GOLDEN: u64 = 0x0fff_d61c_4e1f_5962;
