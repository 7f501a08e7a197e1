//! Binary journal encoding.
//!
//! The SSP stores journal segments as sequential shared files; this module
//! defines the record format. There is one: **wire version 2**, named by
//! the header's version field. Any other version is refused with
//! [`CodecError::BadVersion`].
//!
//! Header integers are LEB128 varints; per-record txids stay implicit
//! deltas from the varint `first_txid` base (txid of record *i* is
//! `first_txid + i`). Paths are prefix-compressed against the previous path
//! in the batch: journals have heavy directory locality (a client writing
//! `/a/b/f0001..f9999` repeats the 40-byte prefix thousands of times), so
//! each path is `⟨varint shared, varint suffix_len, suffix bytes⟩` where
//! `shared` is the byte length of the common prefix with the previously
//! encoded path. `Rename` chains: `src` deltas against the previous path
//! and `dst` deltas against `src`. The checksum is folded in while encoding
//! via [`HashingBuf`] — sealing a batch is one 8-byte append, not a second
//! pass. After the records the body may carry an **ack section** (varint
//! count + per-entry `⟨record idx, client, seq, flags⟩` varints) binding
//! records to the client requests they answer — the replicated
//! retry-outcome window rides here. The section is elided when the batch
//! owes nothing to a client and detected by "body bytes remain after the
//! `n` records".
//!
//! A batch ends with an 8-byte big-endian FNV-1a-64 trailer over everything
//! before it, so a torn or corrupted write is detected on replay before any
//! field is trusted: [`decode_batch`] reads through the crate's one frame
//! check and [`Reader`](crate::hash::Reader).

use bytes::Bytes;

use crate::hash::{open_frame, CodecError, HashingBuf, Reader};
use crate::txn::{AckRecord, JournalBatch, Txn};

/// Format magic: "MAMSJRNL" truncated to 4 bytes.
pub const MAGIC: u32 = 0x4d4a_524e;
/// The wire version: varints + prefix-compressed paths.
pub const VERSION_V2: u16 = 2;

/// Longest common prefix of `prev` and `next` in bytes, clamped back to a
/// character boundary so the suffix stays valid UTF-8 on its own.
fn shared_prefix(prev: &str, next: &str) -> usize {
    let a = prev.as_bytes();
    let b = next.as_bytes();
    let mut n = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    while n > 0 && !prev.is_char_boundary(n) {
        n -= 1;
    }
    n
}

/// Append one path as a delta against `prev`, then advance `prev` to it.
fn put_path_v2(buf: &mut HashingBuf, prev: &mut String, path: &str) {
    let shared = shared_prefix(prev, path);
    let suffix = &path.as_bytes()[shared..];
    buf.put_varint(shared as u64);
    buf.put_varint(suffix.len() as u64);
    buf.put_slice(suffix);
    prev.truncate(shared);
    prev.push_str(&path[shared..]);
}

fn put_txn_v2(buf: &mut HashingBuf, prev: &mut String, t: &Txn) {
    buf.put_u8(t.tag());
    match t {
        Txn::Create { path, replication } => {
            put_path_v2(buf, prev, path);
            buf.put_u8(*replication);
        }
        Txn::Mkdir { path } => put_path_v2(buf, prev, path),
        Txn::Delete { path, recursive } => {
            put_path_v2(buf, prev, path);
            buf.put_u8(*recursive as u8);
        }
        Txn::Rename { src, dst } => {
            put_path_v2(buf, prev, src);
            put_path_v2(buf, prev, dst);
        }
        Txn::AddBlock { path, block_id, len } => {
            put_path_v2(buf, prev, path);
            buf.put_varint(*block_id);
            buf.put_varint(*len as u64);
        }
        Txn::CloseFile { path } => put_path_v2(buf, prev, path),
        Txn::SetPerm { path, perm } => {
            put_path_v2(buf, prev, path);
            buf.put_u16(*perm);
        }
    }
}

fn get_txn_v2(r: &mut Reader<'_>, prev: &mut String) -> Result<Txn, CodecError> {
    Ok(match r.u8()? {
        1 => {
            let path = r.path(prev)?;
            Txn::Create { path, replication: r.u8()? }
        }
        2 => Txn::Mkdir { path: r.path(prev)? },
        3 => {
            let path = r.path(prev)?;
            Txn::Delete { path, recursive: r.u8()? != 0 }
        }
        4 => {
            let src = r.path(prev)?;
            let dst = r.path(prev)?;
            Txn::Rename { src, dst }
        }
        5 => {
            let path = r.path(prev)?;
            let block_id = r.varint()?;
            let len = r.varint()?;
            Txn::AddBlock { path, block_id, len: len as u32 }
        }
        6 => Txn::CloseFile { path: r.path(prev)? },
        7 => {
            let path = r.path(prev)?;
            Txn::SetPerm { path, perm: r.u16()? }
        }
        t => return Err(CodecError::Corrupt(format!("unknown transaction tag {t}"))),
    })
}

/// Encode a batch into its on-disk/wire bytes.
pub fn encode_batch(batch: &JournalBatch) -> Bytes {
    let mut buf = HashingBuf::with_capacity(32 + batch.records.len() * 24);
    buf.put_u32(MAGIC);
    buf.put_u16(VERSION_V2);
    buf.put_varint(batch.sn);
    buf.put_varint(batch.first_txid);
    buf.put_varint(batch.records.len() as u64);
    let mut prev = String::new();
    for t in &batch.records {
        put_txn_v2(&mut buf, &mut prev, t);
    }
    // Optional ack section, elided when empty.
    if !batch.acks.is_empty() {
        buf.put_varint(batch.acks.len() as u64);
        for a in &batch.acks {
            buf.put_varint(a.record as u64);
            buf.put_varint(a.client as u64);
            buf.put_varint(a.seq);
            buf.put_u8(a.spec as u8);
        }
    }
    buf.seal()
}

/// Decode a batch, verifying checksum, magic and version.
pub fn decode_batch(data: Bytes) -> Result<JournalBatch, CodecError> {
    let mut r = open_frame(&data, MAGIC, VERSION_V2)?;
    let sn = r.varint()?;
    let first_txid = r.varint()?;
    let n = r.varint()? as usize;
    if sn == 0 {
        return Err(CodecError::Invalid("sn 0 is the 'nothing applied' sentinel"));
    }
    if n == 0 {
        return Err(CodecError::Invalid("no records"));
    }
    if first_txid.checked_add(n as u64).is_none() {
        return Err(CodecError::Invalid("txid range overflows"));
    }
    let mut records = Vec::with_capacity(n.min(r.remaining()));
    let mut prev = String::new();
    for _ in 0..n {
        records.push(get_txn_v2(&mut r, &mut prev)?);
    }
    // Body bytes past the records host the ack section (absent when the
    // batch owes nothing to a client).
    let mut acks = Vec::new();
    if !r.is_empty() {
        let count = r.varint()? as usize;
        acks.reserve(count.min(r.remaining()));
        for _ in 0..count {
            let record = r.varint()?;
            let client = r.varint()?;
            let seq = r.varint()?;
            let spec = r.u8()? != 0;
            if record >= n as u64 || record > u32::MAX as u64 || client > u32::MAX as u64 {
                return Err(CodecError::Invalid("an ack names no record or client"));
            }
            acks.push(AckRecord { record: record as u32, client: client as u32, seq, spec });
        }
        if !r.is_empty() {
            return Err(CodecError::Corrupt("bytes after the ack section".into()));
        }
    }
    Ok(JournalBatch { sn, first_txid, records, acks })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> JournalBatch {
        JournalBatch::new(
            3,
            40,
            vec![
                Txn::Create { path: "/dir/file-α".into(), replication: 3 },
                Txn::Mkdir { path: "/dir/sub".into() },
                Txn::Delete { path: "/old".into(), recursive: true },
                Txn::Rename { src: "/a".into(), dst: "/b".into() },
                Txn::AddBlock { path: "/dir/file-α".into(), block_id: 99, len: 4096 },
                Txn::CloseFile { path: "/dir/file-α".into() },
                Txn::SetPerm { path: "/dir".into(), perm: 0o750 },
            ],
        )
    }

    #[test]
    fn round_trip_all_variants() {
        let b = sample_batch();
        let dec = decode_batch(encode_batch(&b)).unwrap();
        assert_eq!(dec, b);
    }

    #[test]
    fn ack_section_round_trips() {
        let mut b = sample_batch();
        b.acks = vec![
            AckRecord { record: 0, client: 17, seq: 5, spec: false },
            AckRecord { record: 3, client: 2, seq: u64::MAX - 7, spec: true },
            AckRecord { record: 6, client: u32::MAX, seq: 0, spec: false },
        ];
        let enc = encode_batch(&b);
        let dec = decode_batch(enc).unwrap();
        assert_eq!(dec, b);
    }

    #[test]
    fn ack_section_is_elided_when_empty() {
        let b = sample_batch();
        let enc = encode_batch(&b);
        let dec = decode_batch(enc.clone()).unwrap();
        assert!(dec.acks.is_empty());
        let mut with_acks = b.clone();
        with_acks.acks = vec![AckRecord { record: 1, client: 9, seq: 4, spec: false }];
        assert!(encode_batch(&with_acks).len() > enc.len());
    }

    #[test]
    fn ack_referencing_missing_record_rejected() {
        let mut b = sample_batch();
        let n = b.records.len() as u32;
        b.acks = vec![AckRecord { record: n, client: 1, seq: 1, spec: false }];
        // Bypass the constructor's debug assertion: encode the raw struct.
        let enc = encode_batch(&b);
        assert!(decode_batch(enc).is_err(), "out-of-range ack index must not decode");
    }

    #[test]
    fn v2_prefix_compression_shrinks_local_workloads() {
        // A directory-local run of creates: shared-prefix deltas should
        // beat the raw path bytes comfortably.
        let records: Vec<Txn> = (0..256)
            .map(|i| Txn::Create {
                path: format!("/warehouse/db7/events/part-{i:05}"),
                replication: 3,
            })
            .collect();
        let raw: usize = records.iter().map(|t| t.primary_path().len()).sum();
        let b = JournalBatch::new(9, 1000, records);
        let enc = encode_batch(&b);
        assert_eq!(decode_batch(enc.clone()).unwrap(), b);
        assert!(enc.len() * 2 < raw, "wire ({}) should be <half of the paths ({raw})", enc.len());
    }

    #[test]
    fn v2_handles_multibyte_boundary_prefixes() {
        // Paths diverging inside a multi-byte character: the shared prefix
        // must clamp to a char boundary, not split "α"/"β" mid-sequence.
        let b = JournalBatch::new(
            1,
            1,
            vec![
                Txn::Mkdir { path: "/αβ".into() },
                Txn::Mkdir { path: "/αγ".into() },
                Txn::Mkdir { path: "/α".into() },
                Txn::Mkdir { path: "/αβγδ".into() },
            ],
        );
        assert_eq!(decode_batch(encode_batch(&b)).unwrap(), b);
    }

    #[test]
    fn single_record_batch_round_trips() {
        let b = JournalBatch::new(1, u64::MAX - 1, vec![Txn::Mkdir { path: "/x".into() }]);
        assert_eq!(decode_batch(encode_batch(&b)).unwrap(), b);
    }

    #[test]
    fn corruption_detected() {
        let enc = encode_batch(&sample_batch());
        for i in [0usize, 6, enc.len() / 2, enc.len() - 1] {
            let mut bad = enc.to_vec();
            bad[i] ^= 0xff;
            let err = decode_batch(Bytes::from(bad)).unwrap_err();
            assert!(
                matches!(
                    err,
                    CodecError::BadChecksum { .. }
                        | CodecError::BadMagic(_)
                        | CodecError::BadVersion(_)
                ),
                "unexpected error at byte {i}: {err:?}"
            );
        }
    }

    #[test]
    fn truncation_detected() {
        let enc = encode_batch(&sample_batch());
        for cut in [0usize, 4, 7, 20, enc.len() - 9] {
            let err = decode_batch(enc.slice(..cut)).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated | CodecError::BadChecksum { .. }),
                "cut={cut}: {err:?}"
            );
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = CodecError::BadChecksum { stored: 1, computed: 2 };
        assert!(format!("{e}").contains("checksum"));
        let decode = |body: &[u8]| {
            let mut b = HashingBuf::with_capacity(32);
            b.put_u32(MAGIC);
            b.put_u16(VERSION_V2);
            b.put_slice(&[1, 1, 1]);
            b.put_slice(body);
            decode_batch(b.seal()).unwrap_err().to_string()
        };
        assert!(decode(&[9]).contains("tag 9"));
        assert!(decode(&[[2].as_slice(), &[0xff; 11]].concat()).contains("varint"));
        assert!(decode(&[2, 5, 1, b'a']).contains("prefix 5"));
    }
}
