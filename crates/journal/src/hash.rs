//! Shared checksum/varint primitives for the journal and image wire
//! formats.
//!
//! One FNV-1a-64 implementation serves every on-disk format in the repo
//! (journal batches, namespace images) and the in-memory tree fingerprint
//! constants: same offset basis, same prime. The incremental form is
//! split-invariant — feeding the same bytes in any chunking produces the
//! same digest — which is what lets encoders seal a trailer checksum
//! without a second scan and streaming decoders verify chunk by chunk.

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

/// Result of peeking a varint at the front of a window.
#[derive(Debug, Clone, Copy)]
pub enum Varint {
    /// Not enough bytes yet.
    Need,
    /// Malformed (longer than 10 bytes or overflowing 64 bits).
    Bad,
    /// Decoded value and its encoded length.
    Val(u64, usize),
}

/// Peek a LEB128 varint at the front of `w` without consuming it.
pub fn peek_varint(w: &[u8]) -> Varint {
    let mut x = 0u64;
    for (i, &b) in w.iter().enumerate() {
        if i == 9 && (b & 0x7f) > 1 || i > 9 {
            return Varint::Bad;
        }
        x |= ((b & 0x7f) as u64) << (7 * i);
        if b & 0x80 == 0 {
            return Varint::Val(x, i + 1);
        }
    }
    Varint::Need
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
            match peek_varint(&enc[..enc.len() - 8]) {
                Varint::Val(x, n) => {
                    assert_eq!(x, v);
                    assert_eq!(n, enc.len() - 8);
                }
                other => panic!("{v}: {other:?}"),
            }
            let mut pushed = Vec::new();
            push_varint(&mut pushed, v);
            assert_eq!(pushed, enc[..enc.len() - 8], "{v}: push_varint");
        }
        assert!(matches!(peek_varint(&[0x80]), Varint::Need));
        assert!(matches!(peek_varint(&[0xff; 11]), Varint::Bad));
    }
}
