//! Namespace images: checkpoints of the whole namespace.
//!
//! The renewing protocol ships an image to a junior whose journal gap is too
//! large to replay record-by-record. There is one wire format, **version
//! 2**, named in the header; any other version is refused with
//! [`ImageError::BadVersion`].
//!
//! The body is a preorder DFS of **parent-id delta** entries — `(parent
//! entry index, name, attrs)` with varint lengths. The encoder reads the
//! namespace through [`InodeSource`] — a node's pinned shards, or the
//! reference tree in tests, no copy of either — with names borrowed from
//! the directories that hold them. The decoder loads each inode straight
//! into the shards of a [`ShardedNamespace`], under its already-loaded
//! parent, where a live create or mkdir would have put it: no from-root
//! path resolution, no intermediate tree, and a name appears once, not
//! once per descendant. After the entries an image may carry the
//! retry-outcome window as one `W`-tagged, length-prefixed section, elided
//! when the window is empty.
//!
//! Images are read back in *chunks* so the junior can checkpoint its
//! progress and resume after an interruption (Section III-D: "the junior
//! records the checkpoint that has been committed ... and avoid
//! retransmitting the whole files"). [`StreamingImageDecoder`] consumes
//! those chunks at arbitrary boundaries as they arrive, so the junior never
//! buffers a whole image before starting to rebuild the namespace.

use std::collections::BTreeMap;

use bytes::Bytes;
use mams_journal::hash::{peek_varint, push_varint, Fnv1a64, HashingBuf, Varint};
use mams_journal::Sn;

use crate::inode::{Inode, InodeId, InodeSource, ROOT_ID};
use crate::retry::RetryWindow;
use crate::shard::ShardedNamespace;
use crate::tree::NamespaceTree;

/// Image format magic ("MIMG").
pub const MAGIC: u32 = 0x4d49_4d47;
/// The image format version: parent-id delta entries.
pub const VERSION_V2: u16 = 2;

/// Fixed header: magic (4) + version (2) + checkpoint sn (8) + root perm (2).
const HEADER_LEN: usize = 16;
/// Trailing checksum length.
const TRAILER_LEN: usize = 8;

/// Image decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    BadMagic(u32),
    BadVersion(u16),
    Truncated,
    BadChecksum,
    Corrupt(String),
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::BadMagic(m) => write!(f, "bad image magic {m:#x}"),
            ImageError::BadVersion(v) => write!(f, "unsupported image version {v}"),
            ImageError::Truncated => write!(f, "truncated image"),
            ImageError::BadChecksum => write!(f, "image checksum mismatch"),
            ImageError::Corrupt(s) => write!(f, "corrupt image: {s}"),
        }
    }
}

impl std::error::Error for ImageError {}

/// A serialized namespace checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamespaceImage {
    /// The journal sn this image reflects (replay continues from
    /// `checkpoint_sn + 1`).
    pub checkpoint_sn: Sn,
    /// Encoded bytes.
    pub data: Bytes,
    /// File count at checkpoint time.
    pub files: u64,
    /// Directory count at checkpoint time (excluding root).
    pub dirs: u64,
}

impl NamespaceImage {
    /// Size of the encoded image in bytes — the paper's "Image (MB)" column.
    pub fn size_bytes(&self) -> u64 {
        self.data.len() as u64
    }

    /// Wire format version of the encoded bytes (`None` if the header is
    /// shorter than the version field).
    pub fn version(&self) -> Option<u16> {
        self.data.get(4..6).map(|b| u16::from_be_bytes([b[0], b[1]]))
    }
}

// ------------------------------------------------------------------ encode
//
// The checksum machinery ([`Fnv1a64`], [`HashingBuf`], varints) is shared
// with the journal wire format and lives in `mams_journal::hash`.

/// Mean component length assumed when sizing the output buffer. Generous:
/// reserved pages an image does not reach are never touched, while a
/// reservation that falls short re-copies megabytes.
const ASSUMED_NAME_LEN: u64 = 16;

/// Encode the namespace `src` shows into an image checkpointed at
/// `checkpoint_sn`.
pub fn encode_image<S: InodeSource>(src: &S, checkpoint_sn: Sn) -> NamespaceImage {
    encode_image_with_window(src, checkpoint_sn, &RetryWindow::new())
}

/// Encode an image carrying the retry-outcome window as of
/// `checkpoint_sn`. The window rides as one `W`-tagged, length-prefixed
/// section after the tree entries, elided when empty (such an image decodes
/// with an empty window).
///
/// This is the only encoder: every node hands it its pinned shards
/// ([`SnapshotView::encode_image`](crate::SnapshotView::encode_image)), the
/// parity suites also the reference tree, and the bytes depend on the
/// namespace alone, not on which of the two held it.
pub fn encode_image_with_window<S: InodeSource>(
    src: &S,
    checkpoint_sn: Sn,
    window: &RetryWindow,
) -> NamespaceImage {
    let root = src.inode(ROOT_ID).expect("a namespace has a root");
    let window_bytes = if window.is_empty() { Vec::new() } else { window.encode_bytes() };
    let (files, dirs) = src.counts();
    let reserve = estimated_image_bytes(files, dirs, ASSUMED_NAME_LEN) as usize;
    let mut out = HashingBuf::with_capacity(reserve + window_bytes.len() + 11);
    out.put_u32(MAGIC);
    out.put_u16(VERSION_V2);
    out.put_u64(checkpoint_sn);
    out.put_u16(root.perm());

    // Preorder DFS, one open child iterator per level. Every emitted entry
    // gets the next index (the root is index 0 and is never emitted);
    // children reference their parent by that index, which the decoder has
    // always already materialized. Names are borrowed from the directory
    // that holds them, and an entry is assembled in `entry` and handed to
    // the hashing buffer whole: one checksum run and one copy per inode.
    let (mut files, mut dirs) = (0u64, 0u64);
    let mut next_index: u64 = 1;
    let mut entry: Vec<u8> = Vec::with_capacity(128);
    let mut open = Vec::new();
    if let Inode::Directory { children, .. } = root {
        open.push((children.iter(), 0u64));
    }
    while let Some((siblings, parent)) = open.last_mut() {
        let Some((name, &id)) = siblings.next() else {
            open.pop();
            continue;
        };
        let parent = *parent;
        let node = src.inode(id).expect("a directory entry names an inode of the same state");
        entry.clear();
        entry.push(if node.is_dir() { b'D' } else { b'F' });
        push_varint(&mut entry, parent);
        push_varint(&mut entry, name.len() as u64);
        entry.extend_from_slice(name.as_bytes());
        entry.extend_from_slice(&node.perm().to_be_bytes());
        match node {
            Inode::Directory { children, .. } => {
                dirs += 1;
                open.push((children.iter(), next_index));
            }
            Inode::File { blocks, replication, sealed, .. } => {
                files += 1;
                entry.extend_from_slice(&[*replication, *sealed as u8]);
                push_varint(&mut entry, blocks.len() as u64);
                for b in blocks {
                    push_varint(&mut entry, *b);
                }
            }
        }
        out.put_slice(&entry);
        next_index += 1;
    }
    if !window_bytes.is_empty() {
        out.put_u8(b'W');
        out.put_varint(window_bytes.len() as u64);
        out.put_slice(&window_bytes);
    }
    NamespaceImage { checkpoint_sn, data: out.seal(), files, dirs }
}

// ------------------------------------------------------------------ decode

/// A decoded image: what a junior installs, as one value.
#[derive(Debug)]
pub struct DecodedImage {
    /// The namespace, each inode where a live create or mkdir puts it.
    pub ns: ShardedNamespace,
    /// The journal sn the image reflects.
    pub sn: Sn,
    /// The retry-outcome window (empty when the image carries none).
    pub window: RetryWindow,
    /// The highest block id any file holds (0: none): the mark replaying
    /// the image's prefix would have left.
    pub highest_block: u64,
}

/// Chunk-incremental image decoder.
///
/// A push-based state machine: feed encoded bytes in chunks of any size
/// with [`push`](Self::push), then call [`finish`](Self::finish) once the
/// whole image has been delivered. Entries are loaded into the shards as
/// soon as they are complete, so decoding overlaps the transfer and no
/// whole-image buffer ever exists.
///
/// **Checkpoint rule:** after any `push`, [`checkpoint`](Self::checkpoint)
/// reports `(offset, last_inode)` — the total bytes accepted and the most
/// recently materialized inode. A transfer interrupted and resumed from
/// `offset` (with the same decoder, as the renewing junior does) yields a
/// result identical to an uninterrupted decode: the decoder internally
/// holds back the final [`TRAILER_LEN`] bytes it has seen plus any
/// incomplete entry, so chunk boundaries never split its view of the body.
///
/// Errors are sticky: after a `push` fails the decoder refuses further
/// input, and the caller restarts the transfer from scratch.
#[derive(Debug)]
pub struct StreamingImageDecoder {
    ns: ShardedNamespace,
    /// Entry index → inode id (index 0 is the root).
    ids: Vec<InodeId>,
    highest_block: u64,
    sn: Sn,
    header_done: bool,
    hash: Fnv1a64,
    /// Total bytes accepted (the junior's resume offset).
    offset: u64,
    /// Undecoded tail: the held-back checksum candidate plus any
    /// incomplete entry straddling the last chunk boundary.
    pending: Vec<u8>,
    /// Most recently attached inode (checkpoint telemetry).
    last_id: InodeId,
    /// Retry-outcome window section (`W`), when the image carries one.
    window: RetryWindow,
    window_seen: bool,
    err: Option<ImageError>,
}

impl Default for StreamingImageDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingImageDecoder {
    pub fn new() -> Self {
        StreamingImageDecoder {
            ns: ShardedNamespace::new(),
            ids: vec![ROOT_ID],
            highest_block: 0,
            sn: 0,
            header_done: false,
            hash: Fnv1a64::new(),
            offset: 0,
            pending: Vec::new(),
            last_id: ROOT_ID,
            window: RetryWindow::new(),
            window_seen: false,
            err: None,
        }
    }

    /// Consume the next chunk of encoded bytes (any size, including empty).
    pub fn push(&mut self, chunk: &[u8]) -> Result<(), ImageError> {
        if let Some(e) = &self.err {
            return Err(e.clone());
        }
        self.offset += chunk.len() as u64;
        let mut owned = std::mem::take(&mut self.pending);
        let res = if owned.is_empty() {
            self.process(chunk)
        } else {
            owned.extend_from_slice(chunk);
            self.process(&owned)
        };
        match res {
            Ok(consumed) => {
                if owned.is_empty() {
                    self.pending = chunk[consumed..].to_vec();
                } else {
                    owned.drain(..consumed);
                    self.pending = owned;
                }
                Ok(())
            }
            Err(e) => {
                self.err = Some(e.clone());
                Err(e)
            }
        }
    }

    /// `(offset, last inode id)`: the resume checkpoint after the bytes
    /// pushed so far.
    pub fn checkpoint(&self) -> (u64, InodeId) {
        (self.offset, self.last_id)
    }

    /// The checkpoint sn from the header, once seen.
    pub fn checkpoint_sn(&self) -> Option<Sn> {
        self.header_done.then_some(self.sn)
    }

    /// Verify the checksum and return what the image holds.
    pub fn finish(self) -> Result<DecodedImage, ImageError> {
        if let Some(e) = self.err {
            return Err(e);
        }
        if !self.header_done || self.pending.len() > TRAILER_LEN {
            // Never saw a full header, or ended mid-entry.
            return Err(ImageError::Truncated);
        }
        if self.pending.len() < TRAILER_LEN {
            return Err(ImageError::Truncated);
        }
        let stored = u64::from_be_bytes(self.pending[..8].try_into().expect("8 bytes"));
        if stored != self.hash.digest() {
            return Err(ImageError::BadChecksum);
        }
        let StreamingImageDecoder { ns, sn, window, highest_block, .. } = self;
        Ok(DecodedImage { ns, sn, window, highest_block })
    }

    /// Decode as much of `s` as possible; returns the consumed prefix
    /// length. The final [`TRAILER_LEN`] bytes currently visible are never
    /// consumed — they are the checksum candidate until more data proves
    /// otherwise.
    fn process(&mut self, s: &[u8]) -> Result<usize, ImageError> {
        let mut pos = 0;
        if !self.header_done {
            if s.len() < HEADER_LEN + TRAILER_LEN {
                return Ok(0);
            }
            let magic = u32::from_be_bytes(s[0..4].try_into().expect("4 bytes"));
            if magic != MAGIC {
                return Err(ImageError::BadMagic(magic));
            }
            let version = u16::from_be_bytes(s[4..6].try_into().expect("2 bytes"));
            if version != VERSION_V2 {
                return Err(ImageError::BadVersion(version));
            }
            self.sn = u64::from_be_bytes(s[6..14].try_into().expect("8 bytes"));
            let root_perm = u16::from_be_bytes(s[14..16].try_into().expect("2 bytes"));
            self.ns.set_root_perm(root_perm);
            self.hash.write(&s[..HEADER_LEN]);
            self.header_done = true;
            pos = HEADER_LEN;
        }
        while s.len() - pos > TRAILER_LEN {
            let window = &s[pos..s.len() - TRAILER_LEN];
            match self.entry_v2(window)? {
                Some(n) => {
                    self.hash.write(&window[..n]);
                    pos += n;
                }
                None => break,
            }
        }
        Ok(pos)
    }

    /// Try to decode one entry from the front of `w`. `Ok(None)` means the
    /// entry is not complete yet.
    fn entry_v2(&mut self, w: &[u8]) -> Result<Option<usize>, ImageError> {
        let Some(&kind) = w.first() else { return Ok(None) };
        if self.window_seen {
            return Err(ImageError::Corrupt("entry after retry-window section".into()));
        }
        if kind == b'W' {
            // Retry-outcome window: one length-prefixed blob, decoded whole
            // once fully visible (incomplete prefixes stay pending like any
            // other straddling entry).
            let mut pos = 1;
            let wlen = match peek_varint(&w[pos..]) {
                Varint::Need => return Ok(None),
                Varint::Bad => return Err(ImageError::Corrupt("malformed window length".into())),
                Varint::Val(v, n) => {
                    pos += n;
                    v
                }
            };
            let end = claimed_end(pos, wlen)?;
            if w.len() < end {
                return Ok(None);
            }
            self.window = RetryWindow::decode_bytes(&w[pos..end])?;
            self.window_seen = true;
            return Ok(Some(end));
        }
        let mut pos = 1;
        let parent = match peek_varint(&w[pos..]) {
            Varint::Need => return Ok(None),
            Varint::Bad => return Err(ImageError::Corrupt("malformed parent varint".into())),
            Varint::Val(v, n) => {
                pos += n;
                v
            }
        };
        let nlen = match peek_varint(&w[pos..]) {
            Varint::Need => return Ok(None),
            Varint::Bad => return Err(ImageError::Corrupt("malformed name length".into())),
            Varint::Val(v, n) => {
                pos += n;
                v
            }
        };
        let end = claimed_end(pos, nlen)?;
        if w.len() < end {
            return Ok(None);
        }
        let name = std::str::from_utf8(&w[pos..end])
            .map_err(|_| ImageError::Corrupt("non-UTF-8 name".into()))?;
        pos = end;
        if name.is_empty() || name.contains('/') || name == "." || name == ".." {
            return Err(ImageError::Corrupt(format!("invalid component name {name:?}")));
        }
        let parent_id = *self
            .ids
            .get(parent as usize)
            .ok_or_else(|| ImageError::Corrupt(format!("parent index {parent} not yet seen")))?;
        let inode = match kind {
            b'D' => {
                if w.len() < pos + 2 {
                    return Ok(None);
                }
                let perm = u16::from_be_bytes(w[pos..pos + 2].try_into().expect("2 bytes"));
                pos += 2;
                Inode::Directory { children: BTreeMap::new(), perm }
            }
            b'F' => {
                if w.len() < pos + 4 {
                    return Ok(None);
                }
                let perm = u16::from_be_bytes(w[pos..pos + 2].try_into().expect("2 bytes"));
                let replication = w[pos + 2];
                let sealed = w[pos + 3] != 0;
                pos += 4;
                let nblocks = match peek_varint(&w[pos..]) {
                    Varint::Need => return Ok(None),
                    Varint::Bad => return Err(ImageError::Corrupt("malformed block count".into())),
                    Varint::Val(v, n) => {
                        pos += n;
                        v as usize
                    }
                };
                let mut blocks = Vec::with_capacity(nblocks.min(1024));
                for _ in 0..nblocks {
                    match peek_varint(&w[pos..]) {
                        Varint::Need => return Ok(None),
                        Varint::Bad => {
                            return Err(ImageError::Corrupt("malformed block id".into()))
                        }
                        Varint::Val(v, n) => {
                            pos += n;
                            blocks.push(v);
                        }
                    }
                }
                self.highest_block = blocks.iter().fold(self.highest_block, |h, &b| h.max(b));
                Inode::File { blocks, replication, sealed, perm }
            }
            k => return Err(ImageError::Corrupt(format!("unknown entry kind {k}"))),
        };
        let id =
            self.ns.load(parent_id, name, inode).map_err(|e| ImageError::Corrupt(e.to_string()))?;
        self.ids.push(id);
        self.last_id = id;
        Ok(Some(pos))
    }
}

/// Where a section of `len` bytes starting at `pos` ends. The length comes
/// from bytes whose checksum has not been verified yet (the junior decodes
/// chunks as they stream in), so an end past `usize::MAX` is a corrupt
/// image, not an offset to compute.
fn claimed_end(pos: usize, len: u64) -> Result<usize, ImageError> {
    usize::try_from(len)
        .ok()
        .and_then(|n| pos.checked_add(n))
        .ok_or_else(|| ImageError::Corrupt(format!("section length {len} overflows")))
}

/// Decode a whole in-memory image, verifying the checksum. One pass over
/// the bytes — this is the streaming decoder fed a single chunk.
pub fn decode_image(data: Bytes) -> Result<DecodedImage, ImageError> {
    let mut d = StreamingImageDecoder::new();
    d.push(&data)?;
    d.finish()
}

/// [`decode_image`], flattened into a [`NamespaceTree`] beside the sn and
/// the window. It stays only because `bench_e2e`'s API surface names it;
/// nothing outside this module may call it.
pub fn decode_image_with_window(
    data: Bytes,
) -> Result<(NamespaceTree, Sn, RetryWindow), ImageError> {
    let image = decode_image(data)?;
    Ok((image.ns.to_tree(), image.sn, image.window))
}

/// Estimated encoded image size (bytes) for a namespace with the given
/// shape, used to size experiments without materializing millions of
/// inodes. Derived from the encoding: ~`name + 6` bytes per entry (kind,
/// parent varint, name length, perm) plus ~11 bytes of file attributes and
/// a short block list. Note the paper's calibration point — "more than 7
/// million files when the image size is about 1 GB", i.e. ~150 B/file — is
/// a property of HDFS's full-path-style records; the parent-id delta format
/// stores the same namespace in roughly a third of that.
pub fn estimated_image_bytes(files: u64, dirs: u64, avg_name_len: u64) -> u64 {
    (HEADER_LEN + TRAILER_LEN) as u64 + (files + dirs) * (avg_name_len + 6) + files * 11
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> NamespaceTree {
        let mut t = NamespaceTree::new();
        t.mkdir_p("/data/logs").unwrap();
        t.mkdir_p("/tmp").unwrap();
        for i in 0..20 {
            let p = format!("/data/logs/f{i}");
            t.create(&p, 3).unwrap();
            t.add_block(&p, 1000 + i).unwrap();
            if i % 2 == 0 {
                t.close_file(&p).unwrap();
            }
        }
        t.set_perm("/tmp", 0o777).unwrap();
        t.set_perm("/", 0o711).unwrap();
        t
    }

    #[test]
    fn image_round_trip_preserves_tree() {
        let t = sample_tree();
        let img = encode_image(&t, 42);
        assert_eq!(img.checkpoint_sn, 42);
        assert_eq!(img.files, 20);
        assert_eq!(img.dirs, 3);
        assert_eq!(img.version(), Some(VERSION_V2));
        let d = decode_image(img.data.clone()).unwrap();
        assert_eq!((d.sn, d.highest_block), (42, 1019));
        assert_eq!(t.fingerprint(), d.ns.fingerprint());
        assert_eq!(d.ns.num_files(), 20);
        assert_eq!(d.ns.num_dirs(), 3);
        assert_eq!(d.ns.getfileinfo("/tmp").unwrap().perm, 0o777);
        assert_eq!(d.ns.getfileinfo("/").unwrap().perm, 0o711);
        assert_eq!(d.ns.getfileinfo("/data/logs/f3").unwrap().blocks, vec![1003]);
    }

    #[test]
    fn window_section_round_trips_at_every_chunk_boundary() {
        use crate::retry::{RetryEntry, RetryOutcome, RetryWindow};
        let t = sample_tree();
        let mut win = RetryWindow::new();
        win.record(4, 9, RetryEntry { outcome: RetryOutcome::Done, token: None });
        win.record(4, 10, RetryEntry { outcome: RetryOutcome::Block(1007), token: Some(55) });
        let img = encode_image_with_window(&t, 42, &win);
        // Buffered decode, and its flattening into a tree.
        let d = decode_image(img.data.clone()).unwrap();
        assert_eq!((d.sn, &d.window), (42, &win));
        assert_eq!(d.ns.fingerprint(), t.fingerprint());
        let (t2, sn, w2) = decode_image_with_window(img.data.clone()).unwrap();
        assert_eq!((t2.fingerprint(), sn, w2), (t.fingerprint(), 42, win.clone()));
        // Streaming decode at every split point.
        for cut in 0..=img.data.len() {
            let mut d = StreamingImageDecoder::new();
            d.push(&img.data[..cut]).unwrap();
            d.push(&img.data[cut..]).unwrap();
            assert_eq!(d.finish().unwrap().window, win, "split at {cut}");
        }
    }

    #[test]
    fn empty_window_is_elided_and_decodes_empty() {
        use crate::retry::RetryWindow;
        let t = sample_tree();
        let plain = encode_image(&t, 7);
        let explicit = encode_image_with_window(&t, 7, &RetryWindow::new());
        assert_eq!(plain.data, explicit.data, "empty window must be elided");
        assert!(decode_image(plain.data.clone()).unwrap().window.is_empty());
    }

    #[test]
    fn windowed_image_corruption_detected_at_every_byte() {
        use crate::retry::{RetryEntry, RetryOutcome, RetryWindow};
        let mut win = RetryWindow::new();
        win.record(1, 1, RetryEntry { outcome: RetryOutcome::Done, token: None });
        let img = encode_image_with_window(&sample_tree(), 1, &win);
        for i in 0..img.data.len() {
            let mut bad = img.data.to_vec();
            bad[i] ^= 0x55;
            assert!(decode_image(Bytes::from(bad)).is_err(), "flip at byte {i}");
        }
    }

    #[test]
    fn corruption_detected_at_every_byte() {
        let img = encode_image(&sample_tree(), 1);
        for i in 0..img.data.len() {
            let mut bad = img.data.to_vec();
            bad[i] ^= 0x55;
            assert!(
                decode_image(Bytes::from(bad)).is_err(),
                "flip at byte {i}/{} must not decode",
                img.data.len()
            );
        }
    }

    #[test]
    fn truncation_detected_at_every_cut_point() {
        let img = encode_image(&sample_tree(), 1);
        for cut in 0..img.data.len() {
            let prefix = img.data.slice(..cut);
            assert!(decode_image(prefix.clone()).is_err(), "cut at {cut} must not decode");
            // Streaming path: same prefix, any boundary, then finish.
            let mut d = StreamingImageDecoder::new();
            let ok = d.push(&prefix).is_ok();
            assert!(!ok || d.finish().is_err(), "streaming cut at {cut} must not finish");
        }
    }

    #[test]
    fn streaming_matches_buffered_at_every_boundary() {
        let t = sample_tree();
        let img = encode_image(&t, 77);
        let buffered = decode_image(img.data.clone()).unwrap();
        let reencoded = buffered.ns.pin().encode_image(buffered.sn, &buffered.window).data;
        assert_eq!(reencoded, img.data);
        for cut in 0..=img.data.len() {
            let mut d = StreamingImageDecoder::new();
            d.push(&img.data[..cut]).unwrap();
            let (off, _) = d.checkpoint();
            assert_eq!(off, cut as u64);
            d.push(&img.data[cut..]).unwrap();
            let d = d.finish().unwrap();
            assert_eq!(d.sn, 77);
            assert_eq!(d.ns.fingerprint(), buffered.ns.fingerprint(), "split at {cut}");
            // Byte-identical result: re-encoding the resumed decode equals
            // re-encoding the buffered decode.
            assert_eq!(d.ns.pin().encode_image(d.sn, &d.window).data, reencoded, "split at {cut}");
        }
    }

    #[test]
    fn decoder_error_is_sticky() {
        let img = encode_image(&sample_tree(), 1);
        let mut bad = img.data.to_vec();
        bad[HEADER_LEN] = b'Z'; // first entry kind
        let mut d = StreamingImageDecoder::new();
        let err = d.push(&bad).unwrap_err();
        assert!(matches!(err, ImageError::Corrupt(_)));
        assert_eq!(d.push(b"more").unwrap_err(), err);
        assert_eq!(d.finish().unwrap_err(), err);
    }

    #[test]
    fn empty_tree_round_trips() {
        let t = NamespaceTree::new();
        let img = encode_image(&t, 0);
        let d = decode_image(img.data).unwrap();
        assert_eq!((d.sn, d.highest_block), (0, 0));
        assert_eq!(t.fingerprint(), d.ns.fingerprint());
    }

    #[test]
    fn image_trailer_is_shared_fnv_of_body() {
        // The image checksum is the repo-wide shared FNV-1a-64.
        let img = encode_image(&sample_tree(), 1);
        let (body, trailer) = img.data.split_at(img.data.len() - TRAILER_LEN);
        assert_eq!(
            u64::from_be_bytes(trailer.try_into().unwrap()),
            mams_journal::hash::fnv1a64(body)
        );
    }

    #[test]
    fn estimator_reflects_v2_compaction() {
        // The paper's 7M-file namespace needs ~1 GB as full-path records;
        // the v2 delta format holds it in a few hundred MB.
        let est = estimated_image_bytes(7_000_000, 700_000, 16);
        let mb = est as f64 / (1024.0 * 1024.0);
        assert!((150.0..500.0).contains(&mb), "estimated {mb:.0} MB");
    }

    #[test]
    fn encoded_size_tracks_estimate_roughly() {
        let t = sample_tree();
        let img = encode_image(&t, 1);
        let est = estimated_image_bytes(t.num_files(), t.num_dirs(), 3);
        let ratio = img.size_bytes() as f64 / est as f64;
        assert!((0.3..3.0).contains(&ratio), "ratio {ratio}");
    }
}
