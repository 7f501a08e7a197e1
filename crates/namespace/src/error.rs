//! The error a metadata operation fails with: a value end to end, text for people only.

use crate::path::PathError;

/// Metadata operation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NsError {
    Invalid(PathError),
    NotFound(String),
    AlreadyExists(String),
    ParentNotFound(String),
    ParentNotDirectory(String),
    NotEmpty(String),
    IsDirectory(String),
    IsFile(String),
    FileSealed(String),
    RenameIntoSelf { src: String, dst: String },
    RootImmutable,
}

impl std::fmt::Display for NsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NsError::Invalid(e) => write!(f, "{e}"),
            NsError::NotFound(p) => write!(f, "{p}: no such file or directory"),
            NsError::AlreadyExists(p) => write!(f, "{p}: already exists"),
            NsError::ParentNotFound(p) => write!(f, "{p}: parent does not exist"),
            NsError::ParentNotDirectory(p) => write!(f, "{p}: parent is not a directory"),
            NsError::NotEmpty(p) => write!(f, "{p}: directory not empty"),
            NsError::IsDirectory(p) => write!(f, "{p}: is a directory"),
            NsError::IsFile(p) => write!(f, "{p}: is a file"),
            NsError::FileSealed(p) => write!(f, "{p}: file is sealed"),
            NsError::RenameIntoSelf { src, dst } => {
                write!(f, "cannot rename {src} into its own subtree {dst}")
            }
            NsError::RootImmutable => write!(f, "the root directory cannot be modified"),
        }
    }
}

impl std::error::Error for NsError {}

impl From<PathError> for NsError {
    fn from(e: PathError) -> Self {
        NsError::Invalid(e)
    }
}
