//! The replicated retry-outcome window.
//!
//! MAMS §IV-C answers duplicated client requests from a per-client response
//! cache instead of re-executing them. The cache is *replicated state*:
//! every journaled batch carries [`AckRecord`](mams_journal::AckRecord)s
//! binding records to the `(client, seq)` requests they settle, and the
//! [`RetryWindow`] is the fold of those acks over the journal prefix a
//! replica holds. A freshly promoted active seeds its response cache from
//! that window, so a retry of a committed-but-unacknowledged mutation is
//! answered from cache — exactly once across failover, with no checker
//! escape hatch. The fold runs when the window is read (a promotion, an
//! image or delta written), not as each batch applies: the journal log
//! already holds everything it needs.
//!
//! Reply payloads are **not** journaled. The outcome of a journaled
//! mutation is a function of its record alone ([`RetryOutcome::of`]):
//! `Create` returns the fresh file's info, `AddBlock` the block id riding
//! in the record, everything else `Done` — so a late fold reconstructs
//! exactly the reply the original active sent. [`replay_outcome`] is the
//! same, checked in debug builds against the namespace at the record's
//! apply point.
//!
//! The window also rides inside namespace images and MDLT deltas (one
//! length-prefixed section each) so a junior restored from base + deltas
//! still holds it. Eviction is deterministic — per-client bound, lowest
//! seq first — which keeps the window a pure function of the journal
//! prefix on every replica (the replay-parity invariant tests assert).

use std::collections::{BTreeMap, VecDeque};

use mams_journal::hash::{push_varint, CodecError, Reader};
use mams_journal::Txn;

use crate::inode::FileInfo;

/// Default per-client entries remembered (matches the server's response
/// cache window).
pub const DEFAULT_WINDOW_CAP: usize = 128;

/// The reconstructed outcome of a journaled (hence successful) mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryOutcome {
    Done,
    /// Block id allocated by `AddBlock`.
    Block(u64),
    /// File info returned by `Create`.
    Info(FileInfo),
}

/// One settled request and its outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryEntry {
    pub outcome: RetryOutcome,
    /// Reserved; see ROADMAP item 2. Written `None`, read only by the codec.
    pub token: Option<u64>,
}

/// Bounded per-client window of settled `(client, seq) → outcome` entries.
/// A client's seqs arrive ascending, so each client holds a ring sorted by
/// seq: a new entry is a `push_back`, eviction a `pop_front`, and only a
/// duplicate or out-of-order seq pays for a search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryWindow {
    per_client: BTreeMap<u32, VecDeque<(u64, RetryEntry)>>,
    cap: usize,
}

impl Default for RetryWindow {
    fn default() -> Self {
        Self::new()
    }
}

impl RetryWindow {
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_WINDOW_CAP)
    }

    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap >= 1);
        RetryWindow { per_client: BTreeMap::new(), cap }
    }

    /// Remember a settled request, evicting the lowest seq beyond the
    /// per-client bound. Deterministic: replicas folding the same journal
    /// prefix hold byte-identical windows.
    pub fn record(&mut self, client: u32, seq: u64, entry: RetryEntry) {
        let ring = self.per_client.entry(client).or_default();
        if ring.back().is_none_or(|(newest, _)| *newest < seq) {
            ring.push_back((seq, entry));
        } else {
            match ring.binary_search_by_key(&seq, |(s, _)| *s) {
                Ok(i) => ring[i].1 = entry,
                Err(i) => ring.insert(i, (seq, entry)),
            }
        }
        if ring.len() > self.cap {
            ring.pop_front();
        }
    }

    /// The remembered entry for an exact `(client, seq)`, if any.
    pub fn get(&self, client: u32, seq: u64) -> Option<&RetryEntry> {
        let ring = self.per_client.get(&client)?;
        let i = ring.binary_search_by_key(&seq, |(s, _)| *s).ok()?;
        Some(&ring[i].1)
    }

    /// Total entries across clients.
    pub fn len(&self) -> usize {
        self.per_client.values().map(VecDeque::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.per_client.is_empty()
    }

    /// Iterate `(client, seq, entry)` in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64, &RetryEntry)> {
        self.per_client.iter().flat_map(|(&c, ring)| ring.iter().map(move |(s, e)| (c, *s, e)))
    }

    /// Order-independent digest of the window contents (replay-parity
    /// assertions compare these across replicas).
    pub fn fingerprint(&self) -> u64 {
        mams_journal::fnv1a64(&self.encode_bytes())
    }

    // ---------------------------------------------------------------- wire

    /// Encode the window as a standalone byte section (ridden inside
    /// images and deltas, always under their checksums, so it carries none
    /// of its own).
    pub fn encode_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        push_varint(&mut out, self.cap as u64);
        push_varint(&mut out, self.per_client.len() as u64);
        for (&client, ring) in &self.per_client {
            push_varint(&mut out, client as u64);
            push_varint(&mut out, ring.len() as u64);
            for (seq, e) in ring {
                push_varint(&mut out, *seq);
                let kind: u8 = match &e.outcome {
                    RetryOutcome::Done => 0,
                    RetryOutcome::Block(_) => 1,
                    RetryOutcome::Info(_) => 2,
                };
                out.push(kind | if e.token.is_some() { 0x80 } else { 0 });
                if let Some(t) = e.token {
                    push_varint(&mut out, t);
                }
                match &e.outcome {
                    RetryOutcome::Done => {}
                    RetryOutcome::Block(b) => push_varint(&mut out, *b),
                    RetryOutcome::Info(i) => {
                        push_varint(&mut out, i.path.len() as u64);
                        out.extend_from_slice(i.path.as_bytes());
                        out.push(i.is_dir as u8);
                        out.extend_from_slice(&i.perm.to_be_bytes());
                        out.extend_from_slice(&[i.replication, i.sealed as u8]);
                        push_varint(&mut out, i.child_count as u64);
                        push_varint(&mut out, i.blocks.len() as u64);
                        for b in &i.blocks {
                            push_varint(&mut out, *b);
                        }
                    }
                }
            }
        }
        out
    }

    /// Decode a window section produced by [`encode_bytes`](Self::encode_bytes).
    pub fn decode_bytes(data: &[u8]) -> Result<RetryWindow, CodecError> {
        let mut r = Reader::new(data);
        let cap = r.varint()? as usize;
        if cap == 0 {
            return Err(CodecError::Corrupt("retry window cap 0".into()));
        }
        let mut win = RetryWindow::with_capacity(cap);
        let clients = r.varint()?;
        for _ in 0..clients {
            let client = r.varint()?;
            if client > u32::MAX as u64 {
                return Err(CodecError::Corrupt("retry window client id overflow".into()));
            }
            let n = r.varint()?;
            for _ in 0..n {
                let seq = r.varint()?;
                let flags = r.u8()?;
                let token = if flags & 0x80 != 0 { Some(r.varint()?) } else { None };
                let outcome = match flags & 0x7f {
                    0 => RetryOutcome::Done,
                    1 => RetryOutcome::Block(r.varint()?),
                    2 => {
                        let path = r.str()?.to_string();
                        let is_dir = r.u8()? != 0;
                        let perm = r.u16()?;
                        let replication = r.u8()?;
                        let sealed = r.u8()? != 0;
                        let child_count = r.varint()? as usize;
                        let nblocks = r.varint()?;
                        let mut blocks = Vec::with_capacity(nblocks.min(1 << 16) as usize);
                        for _ in 0..nblocks {
                            blocks.push(r.varint()?);
                        }
                        RetryOutcome::Info(FileInfo {
                            path,
                            is_dir,
                            blocks,
                            replication,
                            sealed,
                            perm,
                            child_count,
                        })
                    }
                    k => return Err(CodecError::Corrupt(format!("bad retry outcome kind {k}"))),
                };
                win.record(client as u32, seq, RetryEntry { outcome, token });
            }
        }
        if !r.is_empty() {
            return Err(CodecError::Corrupt("trailing bytes after retry window".into()));
        }
        Ok(win)
    }
}

impl RetryOutcome {
    /// The outcome the active replied for a journaled mutation, from the
    /// record alone: a `Create` answered with the fresh file's info, a
    /// constant of the record's path and replication; an `AddBlock` with
    /// the block id it carries; everything else `Done`.
    pub fn of(txn: &Txn) -> RetryOutcome {
        match txn {
            Txn::Create { path, replication } => {
                RetryOutcome::Info(FileInfo::new_file(path, *replication))
            }
            Txn::AddBlock { block_id, .. } => RetryOutcome::Block(*block_id),
            Txn::Mkdir { .. }
            | Txn::Delete { .. }
            | Txn::Rename { .. }
            | Txn::CloseFile { .. }
            | Txn::SetPerm { .. } => RetryOutcome::Done,
        }
    }
}

/// [`RetryOutcome::of`], checked: `info` looks a path up in the namespace
/// state **at the record's apply point** (right after applying it, before
/// the next one) and is consulted only by debug builds, to check a
/// `Create`'s constant against a real lookup.
pub fn replay_outcome<F>(info: F, txn: &Txn) -> RetryOutcome
where
    F: FnOnce(&str) -> Option<FileInfo>,
{
    let outcome = RetryOutcome::of(txn);
    if let (Txn::Create { path, .. }, RetryOutcome::Info(fresh)) = (txn, &outcome) {
        debug_assert_eq!(info(path).as_ref(), Some(fresh), "create reply is not a constant");
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(path: &str) -> FileInfo {
        FileInfo {
            path: path.to_string(),
            is_dir: false,
            blocks: vec![7, 9],
            replication: 3,
            sealed: false,
            perm: 0o644,
            child_count: 0,
        }
    }

    fn sample() -> RetryWindow {
        let mut w = RetryWindow::new();
        w.record(1, 5, RetryEntry { outcome: RetryOutcome::Done, token: None });
        w.record(1, 6, RetryEntry { outcome: RetryOutcome::Block(42), token: Some(901) });
        w.record(9, 1, RetryEntry { outcome: RetryOutcome::Info(info("/a/b")), token: None });
        w
    }

    #[test]
    fn round_trips_through_bytes() {
        let w = sample();
        let enc = w.encode_bytes();
        let dec = RetryWindow::decode_bytes(&enc).unwrap();
        assert_eq!(dec, w);
        assert_eq!(dec.fingerprint(), w.fingerprint());
    }

    #[test]
    fn empty_window_round_trips() {
        let w = RetryWindow::new();
        let dec = RetryWindow::decode_bytes(&w.encode_bytes()).unwrap();
        assert!(dec.is_empty());
        assert_eq!(dec, w);
    }

    #[test]
    fn corruption_rejected_at_every_byte() {
        let enc = sample().encode_bytes();
        for i in 0..enc.len() {
            let mut bad = enc.clone();
            bad[i] = bad[i].wrapping_add(0x41);
            // Either an error or a *different* window — never a silent
            // equal decode (the artifact checksum covers real bit rot;
            // this guards the decoder's bounds).
            if let Ok(w) = RetryWindow::decode_bytes(&bad) {
                assert_ne!(w, sample(), "flip at byte {i} decoded to an equal window");
            }
        }
        for cut in 0..enc.len() {
            assert!(RetryWindow::decode_bytes(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn eviction_is_deterministic_lowest_seq_first() {
        let mut w = RetryWindow::with_capacity(2);
        w.record(3, 10, RetryEntry { outcome: RetryOutcome::Done, token: None });
        w.record(3, 11, RetryEntry { outcome: RetryOutcome::Done, token: None });
        w.record(3, 12, RetryEntry { outcome: RetryOutcome::Done, token: None });
        assert!(w.get(3, 10).is_none(), "lowest seq evicted at the bound");
        assert!(w.get(3, 11).is_some());
        assert!(w.get(3, 12).is_some());
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn replay_outcomes_match_the_active_reply_shapes() {
        let t = Txn::Create { path: "/f".into(), replication: 3 };
        assert_eq!(
            replay_outcome(|p| Some(FileInfo::new_file(p, 3)), &t),
            RetryOutcome::Info(FileInfo::new_file("/f", 3))
        );
        let t = Txn::AddBlock { path: "/f".into(), block_id: 77, len: 1 };
        assert_eq!(replay_outcome(|_| None, &t), RetryOutcome::Block(77));
        let t = Txn::Mkdir { path: "/d".into() };
        assert_eq!(replay_outcome(|_| None, &t), RetryOutcome::Done);
        let t = Txn::Rename { src: "/a".into(), dst: "/b".into() };
        assert_eq!(replay_outcome(|_| None, &t), RetryOutcome::Done);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = sample();
        let mut b = sample();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.record(2, 2, RetryEntry { outcome: RetryOutcome::Done, token: None });
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
