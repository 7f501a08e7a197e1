//! The checkpoint artifacts as the shared storage pool keeps them: sealed
//! bytes and the few numbers its manifest reads. `mams-namespace` writes
//! and reads the bytes; the pool stores them and never looks inside.

use bytes::Bytes;

use crate::txn::Sn;

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

/// A serialized delta image covering the journal range `(base_sn, end_sn]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaImage {
    /// The sn this delta chains onto (exclusive).
    pub base_sn: Sn,
    /// The sn this delta advances the consumer to (inclusive).
    pub end_sn: Sn,
    /// Number of folded entries.
    pub entries: u64,
    /// Encoded bytes.
    pub data: Bytes,
}

impl DeltaImage {
    /// Size of the encoded delta in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.data.len() as u64
    }
}
