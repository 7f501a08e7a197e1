//! Namespace images: checkpoints of the whole namespace.
//!
//! The renewing protocol ships an image to a junior whose journal gap is too
//! large to replay record-by-record. There is one wire format, **version
//! 2**, named in the header; any other version is refused with
//! [`CodecError::BadVersion`].
//!
//! The body is a preorder DFS of **parent-id delta** entries — `(parent
//! entry index, name, attrs)` with varint lengths. The encoder reads the
//! namespace through [`InodeSource`] — a node's pinned slot table, or the
//! reference tree in tests, no copy of either — with names borrowed from
//! the directories that hold them. It scans, then walks: one pass over the
//! source in storage order packs every file's attributes ([`FileAttrs`]),
//! and the preorder walk copies a file's from there, reading an inode only
//! for a directory (for its children) or a file the scan packed nothing for
//! (one written after the pin). The decoder loads each inode straight
//! into the slot table of a [`ShardedNamespace`], under its already-loaded
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
use mams_journal::hash::{push_varint, CodecError, Fnv1a64, HashingBuf, Reader};
use mams_journal::{NamespaceImage, Sn};

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
/// This is the only encoder: every node hands it its pinned slot table
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

    // Scan, then walk: preorder DFS, one open child iterator per level, a
    // file's attributes copied from the scan's. Every emitted entry gets the
    // next index (the root is index 0 and is never emitted); children
    // reference their parent by that index, which the decoder has always
    // already materialized. Names are borrowed from the directory that holds
    // them, and an entry is assembled in `entry` and handed to the hashing
    // buffer whole: one checksum run and one copy per inode.
    let attrs = src.file_attrs();
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
        entry.clear();
        entry.push(b'F');
        push_varint(&mut entry, parent);
        push_varint(&mut entry, name.len() as u64);
        entry.extend_from_slice(name.as_bytes());
        if attrs.write(id as u32 as usize, &mut entry) {
            debug_assert!(src.inode(id).is_some_and(|n| !n.is_dir()), "{id} names no file");
            files += 1;
        } else {
            match src.inode(id).expect("a directory entry names an inode of the same state") {
                Inode::Directory { children, perm } => {
                    entry[0] = b'D';
                    dirs += 1;
                    open.push((children.iter(), next_index));
                    entry.extend_from_slice(&perm.to_be_bytes());
                }
                Inode::File { blocks, replication, sealed, perm } => {
                    files += 1;
                    push_file_attrs(&mut entry, *perm, *replication, *sealed, blocks);
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

/// Append a file's attributes as an entry holds them: `perm, replication,
/// sealed, varint(nblocks), varint(block_id)…`.
fn push_file_attrs(out: &mut Vec<u8>, perm: u16, replication: u8, sealed: bool, blocks: &[u64]) {
    out.extend_from_slice(&perm.to_be_bytes());
    out.extend_from_slice(&[replication, sealed as u8]);
    push_varint(out, blocks.len() as u64);
    for b in blocks {
        push_varint(out, *b);
    }
}

/// Every file's attributes, packed by one scan of an [`InodeSource`] in
/// storage order ([`InodeSource::file_attrs`]), so that the preorder walk,
/// which meets the inodes out of that order, copies a file's attributes
/// instead of reading its inode. One 4-byte row per index: a file with no
/// blocks holds its attributes in the row, a file with blocks the offset in
/// `spill` of a 4-byte length and then its attributes as an entry holds
/// them. A directory, a free index, an inode the source shows in another
/// version and every index past the end are `READ`: the walk reads the
/// inode. A namespace where most files have blocks gains as well: their
/// block lists are read in storage order, not scattered across the heap.
#[derive(Debug, Default)]
pub struct FileAttrs {
    rows: Vec<u32>,
    spill: Vec<u8>,
}

impl FileAttrs {
    const READ: u32 = u32::MAX;
    /// Set in the row of a file with no blocks, beside `sealed << 24 |
    /// replication << 16 | perm`; clear in an offset into `spill`.
    const INLINE: u32 = 1 << 31;

    /// Room for `indexes` calls of [`Self::push`] before the rows grow.
    pub(crate) fn with_capacity(indexes: usize) -> Self {
        FileAttrs { rows: Vec::with_capacity(indexes), spill: Vec::new() }
    }

    /// Pack the next index: `node`'s attributes if it is a file, else none.
    pub(crate) fn push(&mut self, node: Option<&Inode>) {
        let row = match node {
            Some(Inode::File { blocks, replication, sealed, perm }) if blocks.is_empty() => {
                Self::INLINE
                    | u32::from(*sealed) << 24
                    | u32::from(*replication) << 16
                    | u32::from(*perm)
            }
            // Past 2 GiB of spill, the rest of the files read their inodes.
            Some(Inode::File { blocks, replication, sealed, perm }) => {
                match u32::try_from(self.spill.len()) {
                    Ok(at) if at < Self::INLINE => {
                        self.spill.extend_from_slice(&[0; 4]);
                        push_file_attrs(&mut self.spill, *perm, *replication, *sealed, blocks);
                        let len = (self.spill.len() - at as usize - 4) as u32;
                        self.spill[at as usize..][..4].copy_from_slice(&len.to_le_bytes());
                        at
                    }
                    _ => Self::READ,
                }
            }
            _ => Self::READ,
        };
        self.rows.push(row);
    }

    /// Append the attributes packed for `index` to `out`; `false` when there
    /// are none and the inode must be read instead.
    fn write(&self, index: usize, out: &mut Vec<u8>) -> bool {
        match self.rows.get(index).copied().unwrap_or(Self::READ) {
            Self::READ => return false,
            row if row & Self::INLINE != 0 => {
                push_file_attrs(out, row as u16, (row >> 16) as u8, row >> 24 & 1 != 0, &[]);
            }
            at => {
                let (len, attrs) = self.spill[at as usize..].split_at(4);
                let len = u32::from_le_bytes(len.try_into().expect("four bytes"));
                out.extend_from_slice(&attrs[..len as usize]);
            }
        }
        true
    }
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
/// whole image has been delivered. Entries are loaded into the table as
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
    /// Retry-outcome window section (`W`), when the image carries one.
    window: RetryWindow,
    window_seen: bool,
    err: Option<CodecError>,
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
            window: RetryWindow::new(),
            window_seen: false,
            err: None,
        }
    }

    /// Consume the next chunk of encoded bytes (any size, including empty).
    pub fn push(&mut self, chunk: &[u8]) -> Result<(), CodecError> {
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

    /// The resume checkpoint after the bytes pushed so far: their count.
    pub fn checkpoint(&self) -> u64 {
        self.offset
    }

    /// The checkpoint sn from the header, once seen.
    pub fn checkpoint_sn(&self) -> Option<Sn> {
        self.header_done.then_some(self.sn)
    }

    /// Verify the checksum and return what the image holds.
    pub fn finish(self) -> Result<DecodedImage, CodecError> {
        if let Some(e) = self.err {
            return Err(e);
        }
        // Anything but a header and exactly the trailer left: the bytes
        // ended before the header did, or inside an entry.
        let trailer = match <[u8; TRAILER_LEN]>::try_from(self.pending.as_slice()) {
            Ok(trailer) if self.header_done => trailer,
            _ => return Err(CodecError::Truncated),
        };
        let (stored, computed) = (u64::from_be_bytes(trailer), self.hash.digest());
        if stored != computed {
            return Err(CodecError::BadChecksum { stored, computed });
        }
        let StreamingImageDecoder { ns, sn, window, highest_block, .. } = self;
        Ok(DecodedImage { ns, sn, window, highest_block })
    }

    /// Decode the header and as many whole entries as `s` holds; returns the
    /// consumed prefix length. The final [`TRAILER_LEN`] bytes currently
    /// visible are never consumed — they are the checksum candidate until
    /// more data proves otherwise — and an entry the bytes end inside
    /// ([`CodecError::Truncated`]) waits for the next chunk.
    fn process(&mut self, s: &[u8]) -> Result<usize, CodecError> {
        let Some(body) = s.len().checked_sub(TRAILER_LEN).map(|n| &s[..n]) else {
            return Ok(0);
        };
        let mut r = Reader::new(body);
        let mut done = 0;
        while !r.is_empty() {
            let step = if self.header_done { self.entry(&mut r) } else { self.header(&mut r) };
            match step {
                Ok(()) => {
                    self.hash.write(&body[done..r.pos()]);
                    done = r.pos();
                }
                Err(CodecError::Truncated) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(done)
    }

    fn header(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        r.header(MAGIC, VERSION_V2)?;
        let (sn, root_perm) = (r.u64()?, r.u16()?);
        self.sn = sn;
        self.ns.set_root_perm(root_perm);
        self.header_done = true;
        Ok(())
    }

    /// Read one entry off `r` and load it. The whole entry is read before
    /// anything changes, so an entry cut short leaves the decoder as it was.
    fn entry(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        if self.window_seen {
            return Err(CodecError::Corrupt("entry after retry-window section".into()));
        }
        let kind = r.u8()?;
        if kind == b'W' {
            // Retry-outcome window: one length-prefixed blob. Once it is
            // whole, running out of bytes inside it is damage, not a wait.
            let len = r.varint()?;
            self.window = RetryWindow::decode_bytes(r.bytes(len)?).map_err(|e| match e {
                CodecError::Truncated => CodecError::Corrupt("window section cut short".into()),
                e => e,
            })?;
            self.window_seen = true;
            return Ok(());
        }
        let parent = r.varint()?;
        let name = r.str()?;
        if name.is_empty() || name.contains('/') || name == "." || name == ".." {
            return Err(CodecError::Corrupt(format!("invalid component name {name:?}")));
        }
        let parent_id = *self
            .ids
            .get(parent as usize)
            .ok_or_else(|| CodecError::Corrupt(format!("parent index {parent} not yet seen")))?;
        let perm = r.u16()?;
        let inode = match kind {
            b'D' => Inode::Directory { children: BTreeMap::new(), perm },
            b'F' => {
                let (replication, sealed) = (r.u8()?, r.u8()? != 0);
                let nblocks = r.varint()?;
                let mut blocks = Vec::with_capacity(nblocks.min(1024) as usize);
                for _ in 0..nblocks {
                    blocks.push(r.varint()?);
                }
                self.highest_block = blocks.iter().fold(self.highest_block, |h, &b| h.max(b));
                Inode::File { blocks, replication, sealed, perm }
            }
            k => return Err(CodecError::Corrupt(format!("unknown entry kind {k}"))),
        };
        let id =
            self.ns.load(parent_id, name, inode).map_err(|e| CodecError::Corrupt(e.to_string()))?;
        self.ids.push(id);
        Ok(())
    }
}

/// Decode a whole in-memory image, verifying the checksum. One pass over
/// the bytes — this is the streaming decoder fed a single chunk.
pub fn decode_image(data: Bytes) -> Result<DecodedImage, CodecError> {
    let mut d = StreamingImageDecoder::new();
    d.push(&data)?;
    d.finish()
}

/// [`decode_image`], flattened into a [`NamespaceTree`] beside the sn and
/// the window. It stays only because `bench_e2e`'s API surface names it;
/// nothing outside this module may call it.
pub fn decode_image_with_window(
    data: Bytes,
) -> Result<(NamespaceTree, Sn, RetryWindow), CodecError> {
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
        // The section's blob one byte short, its length and the trailer
        // rewritten to match: the blob is whole, so running out inside it is
        // damage at once, not a wait for the next chunk.
        let blob = win.encode_bytes();
        let body = &img.data[..img.data.len() - TRAILER_LEN];
        let section_at = body.len() - blob.len() - 2;
        assert_eq!(&body[section_at..section_at + 2], [b'W', blob.len() as u8]);
        let mut cut = body[..section_at].to_vec();
        cut.extend_from_slice(&[b'W', blob.len() as u8 - 1]);
        cut.extend_from_slice(&blob[..blob.len() - 1]);
        let sum = mams_journal::hash::fnv1a64(&cut);
        cut.extend_from_slice(&sum.to_be_bytes());
        let got = StreamingImageDecoder::new().push(&cut);
        assert!(matches!(got, Err(CodecError::Corrupt(_))), "{got:?}");
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
            let off = d.checkpoint();
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
        assert!(matches!(err, CodecError::Corrupt(_)));
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

    /// The pinned table's image is the tree's, byte for byte, whether the
    /// walk copies a file's attributes from the scan or reads its inode: sealed
    /// and unsealed files with default and other perms, a file with 130
    /// blocks (ids and count multi-byte varints), directories (empty, and
    /// with a non-default perm), names inline, on the heap and longer than a
    /// one-byte length varint, and files changed under the pin, whose visible
    /// version is in the history, so the scan packs nothing for them.
    #[test]
    fn a_pinned_table_encodes_what_its_tree_encodes_packed_or_read() {
        use crate::inode::NAME_INLINE;
        let (long, longer) = ("l".repeat(NAME_INLINE + 1), "m".repeat(200));
        let dir = format!("/{long}/{longer}");
        let ns = ShardedNamespace::new();
        ns.mkdir_p(&dir).unwrap();
        ns.mkdir_p("/empty").unwrap();
        ns.set_perm("/empty", 0o700).unwrap();
        ns.set_perm(&dir, 0o750).unwrap();
        let files = ["plain", "sealed", "perm", "to_perm", "to_seal", "to_grow", "grown"];
        let files = files.map(|f| format!("{dir}/{f}"));
        for (i, f) in files.iter().enumerate() {
            ns.create(f, 1 + i as u8).unwrap();
        }
        ns.close_file(&files[1]).unwrap();
        ns.set_perm(&files[2], 0o600).unwrap();
        for b in 0..130 {
            ns.add_block(&files[6], (1 << 20) + b).unwrap();
        }
        let win = RetryWindow::new();
        let check = |view: &crate::SnapshotView<'_>, tree: &NamespaceTree, files: usize| {
            let got = ns.inodes_at(Some(view.epoch())).file_attrs();
            let packed = got.rows.iter().filter(|&&r| r != FileAttrs::READ).count();
            assert_eq!(packed, files, "files the scan packed");
            let img = view.encode_image(9, &win);
            assert_eq!(img.data, encode_image_with_window(tree, 9, &win).data);
            let d = decode_image(img.data).unwrap();
            assert_eq!(d.ns.fingerprint(), tree.fingerprint());
            assert_eq!(d.ns.fingerprint(), view.fingerprint());
        };
        let before = ns.to_tree();
        let view = ns.pin();
        check(&view, &before, 7);
        ns.set_perm(&files[3], 0o640).unwrap();
        ns.close_file(&files[4]).unwrap();
        ns.add_block(&files[5], 300).unwrap();
        ns.add_block(&files[6], 1 << 40).unwrap();
        check(&view, &before, 3);
        drop(view);
        check(&ns.pin(), &ns.to_tree(), 7);
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
