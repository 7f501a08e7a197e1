//! Shared checksum, varint and reading primitives for every byte format
//! in the repo: journal batches, namespace images, MDLT deltas and the
//! retry-window section.
//!
//! One FNV-1a-64 implementation serves every on-disk format and every
//! in-memory hash — both namespace fingerprints, the group partitioner, the
//! resolution cache's sets and the active's reply-release buckets: same
//! offset basis, same prime.
//! The incremental form is split-invariant — feeding the same bytes in any
//! chunking produces the same digest — which is what lets encoders seal a
//! trailer checksum without a second scan ([`HashingBuf`]) and streaming
//! decoders verify chunk by chunk.
//!
//! The read side is one [`Reader`] (a bounds-checked cursor: fixed-width
//! big-endian integers, varints, length-prefixed bytes and strings,
//! prefix-compressed paths), one frame check ([`open_frame`] for the
//! `magic · version · … · fnv64` artifacts) and one [`CodecError`]. Every
//! decoder of bytes a member did not just write reads through them.

use bytes::{BufMut, Bytes, BytesMut};

/// Incremental FNV-1a (64-bit). Byte-identical to the classic one-byte-at-
/// a-time definition, but the bulk loop loads 8-byte words and unrolls the
/// eight byte-steps from a register — fewer loads and bounds checks on
/// megabytes-long bodies.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64 {
    h: u64,
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a64 {
    /// FNV-1a 64-bit offset basis.
    pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a 64-bit prime.
    pub const PRIME: u64 = 0x1_0000_0000_01b3;

    pub fn new() -> Self {
        Fnv1a64 { h: Self::OFFSET }
    }

    #[inline]
    pub fn write(&mut self, data: &[u8]) {
        const P: u64 = Fnv1a64::PRIME;
        let mut h = self.h;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let x = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            h = (h ^ (x & 0xff)).wrapping_mul(P);
            h = (h ^ ((x >> 8) & 0xff)).wrapping_mul(P);
            h = (h ^ ((x >> 16) & 0xff)).wrapping_mul(P);
            h = (h ^ ((x >> 24) & 0xff)).wrapping_mul(P);
            h = (h ^ ((x >> 32) & 0xff)).wrapping_mul(P);
            h = (h ^ ((x >> 40) & 0xff)).wrapping_mul(P);
            h = (h ^ ((x >> 48) & 0xff)).wrapping_mul(P);
            h = (h ^ (x >> 56)).wrapping_mul(P);
        }
        for &b in words.remainder() {
            h = (h ^ b as u64).wrapping_mul(P);
        }
        self.h = h;
    }

    pub fn digest(&self) -> u64 {
        self.h
    }
}

/// One-shot FNV-1a 64.
#[inline]
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut f = Fnv1a64::new();
    f.write(data);
    f.digest()
}

/// An output buffer that folds every written byte into the running
/// checksum, so sealing a format is one 8-byte trailer append instead of a
/// second scan over the whole body.
#[derive(Debug)]
pub struct HashingBuf {
    buf: BytesMut,
    hash: Fnv1a64,
}

impl HashingBuf {
    pub fn with_capacity(n: usize) -> Self {
        HashingBuf { buf: BytesMut::with_capacity(n), hash: Fnv1a64::new() }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.hash.write(&[v]);
        self.buf.put_u8(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.hash.write(&v.to_be_bytes());
        self.buf.put_u16(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.hash.write(&v.to_be_bytes());
        self.buf.put_u32(v);
    }

    pub fn put_u64(&mut self, v: u64) {
        self.hash.write(&v.to_be_bytes());
        self.buf.put_u64(v);
    }

    pub fn put_slice(&mut self, s: &[u8]) {
        self.hash.write(s);
        self.buf.put_slice(s);
    }

    /// LEB128-encode `v`.
    pub fn put_varint(&mut self, v: u64) {
        let (bytes, n) = leb128(v);
        self.put_slice(&bytes[..n]);
    }

    /// Bytes written so far (the trailer is not included until `seal`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append the checksum trailer (not hashed) and freeze.
    pub fn seal(mut self) -> Bytes {
        let sum = self.hash.digest();
        self.buf.put_u64(sum);
        self.buf.freeze()
    }
}

/// The LEB128 encoding of `v` and its length.
#[inline]
fn leb128(mut v: u64) -> ([u8; 10], usize) {
    let mut bytes = [0u8; 10];
    let mut n = 0;
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        bytes[n] = if v == 0 { b } else { b | 0x80 };
        n += 1;
        if v == 0 {
            return (bytes, n);
        }
    }
}

/// LEB128-encode `v` onto the end of `out` — for encoders that assemble an
/// entry in a scratch buffer and hand it to [`HashingBuf::put_slice`] whole.
pub fn push_varint(out: &mut Vec<u8>, v: u64) {
    let (bytes, n) = leb128(v);
    out.extend_from_slice(&bytes[..n]);
}

/// Why bytes read back from the pool or the wire do not decode: one error
/// for every format (journal batch, image, delta, retry-window section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes end inside a value.
    Truncated,
    /// The header names another format.
    BadMagic(u32),
    /// A version of the format no codec reads.
    BadVersion(u16),
    /// The trailer is not the FNV-1a-64 of the bytes before it.
    BadChecksum { stored: u64, computed: u64 },
    /// Malformed bytes: an unknown tag, a bad varint or UTF-8, a length or
    /// prefix that fits nothing, or an entry no namespace can hold.
    Corrupt(String),
    /// The bytes parse, but to a value the format forbids (a batch with no
    /// records or sn 0, a delta over an empty range).
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated artifact"),
            CodecError::BadMagic(m) => write!(f, "bad magic {m:#x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported version {v}"),
            CodecError::BadChecksum { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#x}, computed {computed:#x}")
            }
            CodecError::Corrupt(why) => write!(f, "corrupt artifact: {why}"),
            CodecError::Invalid(why) => write!(f, "invalid artifact: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Check a whole `magic · version · body · fnv64` artifact — the trailer
/// first, so no field is trusted before it — and return a reader over the
/// body after the header.
pub fn open_frame(data: &[u8], magic: u32, version: u16) -> Result<Reader<'_>, CodecError> {
    let body_len = data.len().checked_sub(8).ok_or(CodecError::Truncated)?;
    let (body, trailer) = data.split_at(body_len);
    let stored = u64::from_be_bytes(trailer.try_into().expect("8-byte trailer"));
    let computed = fnv1a64(body);
    if stored != computed {
        return Err(CodecError::BadChecksum { stored, computed });
    }
    let mut r = Reader::new(body);
    r.header(magic, version)?;
    Ok(r)
}

/// A bounds-checked cursor over bytes a member did not just write. Running
/// out of bytes is [`CodecError::Truncated`]; a length whose end overflows
/// `usize` is [`CodecError::Corrupt`], never an offset to compute.
#[derive(Debug)]
pub struct Reader<'a> {
    /// What is left to read.
    rest: &'a [u8],
    /// The length of the whole buffer.
    len: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { rest: buf, len: buf.len() }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.len - self.rest.len()
    }

    /// Bytes not consumed yet.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// The next `len` bytes.
    #[inline]
    pub fn bytes(&mut self, len: u64) -> Result<&'a [u8], CodecError> {
        if len > self.rest.len() as u64 {
            let end = usize::try_from(len).ok().and_then(|n| self.pos().checked_add(n));
            return Err(match end {
                Some(_) => CodecError::Truncated,
                None => CodecError::Corrupt(format!("length {len} overflows")),
            });
        }
        let (head, rest) = self.rest.split_at(len as usize);
        self.rest = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.bytes(N as u64)?.try_into().expect("N bytes"))
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_be_bytes)
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_be_bytes)
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_be_bytes)
    }

    /// A LEB128 varint: at most 10 bytes, no bits past the 64th.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut x = 0u64;
        for (i, &b) in self.rest.iter().enumerate() {
            if i == 9 && (b & 0x7f) > 1 || i > 9 {
                return Err(CodecError::Corrupt("malformed varint".into()));
            }
            x |= ((b & 0x7f) as u64) << (7 * i);
            if b & 0x80 == 0 {
                self.rest = &self.rest[i + 1..];
                return Ok(x);
            }
        }
        Err(CodecError::Truncated)
    }

    /// A varint length, then that many bytes of UTF-8.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.varint()?;
        std::str::from_utf8(self.bytes(len)?)
            .map_err(|_| CodecError::Corrupt("non-UTF-8 string".into()))
    }

    /// A path written as `⟨varint shared, str suffix⟩` against `prev`, the
    /// path before it: rebuilt into `prev` and returned.
    #[inline]
    pub fn path(&mut self, prev: &mut String) -> Result<String, CodecError> {
        let shared = self.varint()?;
        let keep = usize::try_from(shared).ok().filter(|&n| prev.is_char_boundary(n));
        let Some(keep) = keep else {
            return Err(CodecError::Corrupt(format!(
                "prefix {shared} does not fit the previous {}-byte path",
                prev.len()
            )));
        };
        let suffix = self.str()?;
        prev.truncate(keep);
        prev.push_str(suffix);
        Ok(prev.clone())
    }

    /// A `magic · version` header naming this format and version.
    pub fn header(&mut self, magic: u32, version: u16) -> Result<(), CodecError> {
        match (self.u32()?, self.u16()?) {
            (m, _) if m != magic => Err(CodecError::BadMagic(m)),
            (_, v) if v != version => Err(CodecError::BadVersion(v)),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Fixed vectors under the repo-wide hash constants. Pinning these
        // guarantees the shared implementation produces byte-identical
        // digests to the per-crate copies it replaced, so images and
        // journal batches written before the hoist still verify.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xb084_984c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x2a2a_5471_f739_67e8);
        // The word-unrolled bulk loop agrees with the byte-wise definition
        // on lengths around the 8-byte boundary.
        let data: Vec<u8> = (0u16..257).map(|i| (i % 251) as u8).collect();
        for len in 0..data.len() {
            let byte_wise = data[..len]
                .iter()
                .fold(Fnv1a64::OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(Fnv1a64::PRIME));
            assert_eq!(fnv1a64(&data[..len]), byte_wise, "len {len}");
        }
    }

    #[test]
    fn fnv1a64_is_split_invariant() {
        let data: Vec<u8> = (0u16..100).map(|i| i as u8).collect();
        let whole = fnv1a64(&data);
        for split in 0..=data.len() {
            let mut f = Fnv1a64::new();
            f.write(&data[..split]);
            f.write(&data[split..]);
            assert_eq!(f.digest(), whole, "split {split}");
        }
    }

    #[test]
    fn hashing_buf_seal_matches_one_shot() {
        let mut b = HashingBuf::with_capacity(16);
        b.put_u32(0xdead_beef);
        b.put_u8(7);
        b.put_u16(300);
        b.put_u64(u64::MAX);
        b.put_slice(b"hello");
        b.put_varint(300);
        let out = b.seal();
        let (body, trailer) = out.split_at(out.len() - 8);
        assert_eq!(u64::from_be_bytes(trailer.try_into().unwrap()), fnv1a64(body));
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut b = HashingBuf::with_capacity(10);
            b.put_varint(v);
            let enc = b.seal();
            let mut r = Reader::new(&enc[..enc.len() - 8]);
            assert_eq!(r.varint(), Ok(v));
            assert!(r.is_empty(), "{v}: left {} bytes", r.remaining());
            let mut pushed = Vec::new();
            push_varint(&mut pushed, v);
            assert_eq!(pushed, enc[..enc.len() - 8], "{v}: push_varint");
        }
        assert_eq!(Reader::new(&[0x80]).varint(), Err(CodecError::Truncated));
        assert!(matches!(Reader::new(&[0xff; 11]).varint(), Err(CodecError::Corrupt(_))));
        // What the streaming image decoder relies on: a length past the end
        // of the bytes is "wait for more", one whose end overflows `usize`
        // is damage — and neither moves the cursor.
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.bytes(4), Err(CodecError::Truncated));
        assert_eq!(r.u8(), Ok(1));
        assert!(matches!(r.bytes(u64::MAX), Err(CodecError::Corrupt(_))));
        assert_eq!(r.bytes(2), Ok(&[2, 3][..]));
    }
}
