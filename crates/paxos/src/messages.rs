//! Wire vocabulary shared by the acceptor and the RSM.

use bytes::Bytes;

/// The value type consensus is run over. Opaque bytes: the Boom-FS baseline
/// stores encoded journal batches; the tests store small literals.
pub type Value = Bytes;
