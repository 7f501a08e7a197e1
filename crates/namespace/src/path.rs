//! Absolute slash-separated path handling.
//!
//! All namespace APIs take normalized absolute paths: `/`, `/a`, `/a/b`.
//! No `.`/`..` components, no trailing slash (except the root itself), no
//! empty components.

/// Path validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathError(pub String);

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid path: {}", self.0)
    }
}

impl std::error::Error for PathError {}

/// Check that `p` is a normalized absolute path.
pub fn validate(p: &str) -> Result<(), PathError> {
    if p == "/" {
        return Ok(());
    }
    if !p.starts_with('/') {
        return Err(PathError(format!("{p:?} is not absolute")));
    }
    if p.ends_with('/') {
        return Err(PathError(format!("{p:?} has a trailing slash")));
    }
    // By bytes: `str::split` on a `char` confirms every match with a call
    // to `bcmp`, once per component of every path of every op.
    for comp in p.as_bytes()[1..].split(|&b| b == b'/') {
        match comp {
            b"" => return Err(PathError(format!("{p:?} has an empty component"))),
            b"." => return Err(PathError(format!("{p:?} contains \".\""))),
            b".." => return Err(PathError(format!("{p:?} contains \"..\""))),
            _ => {}
        }
    }
    Ok(())
}

/// Where the last `/` of `p` is (by bytes, like [`validate`]'s scan: `rfind`
/// on a `char` calls `bcmp` too).
fn last_slash(p: &str) -> Option<usize> {
    p.bytes().rposition(|b| b == b'/')
}

/// Parent directory of a validated path. `None` for the root.
pub fn parent(p: &str) -> Option<&str> {
    if p == "/" {
        return None;
    }
    match last_slash(p) {
        Some(0) => Some("/"),
        Some(i) => Some(&p[..i]),
        None => None,
    }
}

/// Final component of a validated path. The root has no basename.
pub fn basename(p: &str) -> Option<&str> {
    if p == "/" {
        return None;
    }
    last_slash(p).map(|i| &p[i + 1..])
}

/// Split a validated non-root path into `(parent_dir, basename)` in one
/// scan (`"/a/b/c"` → `("/a/b", "c")`, `"/a"` → `("/", "a")`). `None` for
/// the root. One `rfind` instead of separate [`parent`] + [`basename`]
/// calls on the hot resolution path.
pub fn split(p: &str) -> Option<(&str, &str)> {
    if p == "/" {
        return None;
    }
    match last_slash(p) {
        Some(0) => Some(("/", &p[1..])),
        Some(i) => Some((&p[..i], &p[i + 1..])),
        None => None,
    }
}

/// Components of a validated path (empty for the root).
pub fn components(p: &str) -> impl Iterator<Item = &str> {
    p.strip_prefix('/').unwrap_or(p).split('/').filter(|c| !c.is_empty())
}

/// Every ancestor prefix of a validated non-root path, shallowest first,
/// ending with the path itself: `"/a/b/c"` → `"/a"`, `"/a/b"`, `"/a/b/c"`.
/// Borrowed slices of the input — no per-level `String` building (this is
/// what `mkdir_p` walks).
pub fn prefixes(p: &str) -> impl Iterator<Item = &str> {
    let bytes = p.as_bytes();
    (2..=p.len()).filter(move |&i| i == p.len() || bytes[i] == b'/').map(move |i| &p[..i])
}

/// Join a validated directory path with a single component.
pub fn join(dir: &str, name: &str) -> String {
    debug_assert!(!name.contains('/'), "join with multi-component name");
    if dir == "/" {
        format!("/{name}")
    } else {
        format!("{dir}/{name}")
    }
}

/// Whether `descendant` is strictly inside `ancestor` (path-wise).
pub fn is_strict_descendant(descendant: &str, ancestor: &str) -> bool {
    if ancestor == "/" {
        return descendant != "/";
    }
    descendant.len() > ancestor.len()
        && descendant.starts_with(ancestor)
        && descendant.as_bytes()[ancestor.len()] == b'/'
}

/// Depth of a path (root = 0).
pub fn depth(p: &str) -> usize {
    components(p).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_accepts_normal_paths() {
        for p in ["/", "/a", "/a/b", "/long/path/with/many/components", "/with-dash_и"] {
            assert!(validate(p).is_ok(), "{p}");
        }
    }

    #[test]
    fn validation_rejects_malformed() {
        for p in ["", "a", "a/b", "/a/", "//", "/a//b", "/.", "/a/..", "/../x"] {
            assert!(validate(p).is_err(), "{p:?} should be invalid");
        }
    }

    #[test]
    fn parent_and_basename() {
        assert_eq!(parent("/"), None);
        assert_eq!(parent("/a"), Some("/"));
        assert_eq!(parent("/a/b/c"), Some("/a/b"));
        assert_eq!(basename("/"), None);
        assert_eq!(basename("/a"), Some("a"));
        assert_eq!(basename("/a/b/c"), Some("c"));
    }

    #[test]
    fn join_inverts_split() {
        for p in ["/a", "/a/b", "/x/y/z"] {
            let d = parent(p).unwrap();
            let b = basename(p).unwrap();
            assert_eq!(join(d, b), p);
        }
    }

    #[test]
    fn split_matches_parent_and_basename() {
        assert_eq!(split("/"), None);
        for p in ["/a", "/a/b", "/x/y/z", "/with-dash_и/f"] {
            assert_eq!(split(p), Some((parent(p).unwrap(), basename(p).unwrap())));
        }
    }

    #[test]
    fn prefixes_walk_shallowest_first() {
        assert_eq!(prefixes("/a").collect::<Vec<_>>(), vec!["/a"]);
        assert_eq!(prefixes("/a/b/c").collect::<Vec<_>>(), vec!["/a", "/a/b", "/a/b/c"]);
    }

    #[test]
    fn components_and_depth() {
        assert_eq!(components("/").count(), 0);
        assert_eq!(components("/a/b").collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(depth("/"), 0);
        assert_eq!(depth("/a/b/c"), 3);
    }

    #[test]
    fn descendant_checks() {
        assert!(is_strict_descendant("/a/b", "/a"));
        assert!(is_strict_descendant("/a", "/"));
        assert!(!is_strict_descendant("/a", "/a"));
        assert!(!is_strict_descendant("/ab", "/a"), "prefix but not a path child");
        assert!(!is_strict_descendant("/", "/"));
        assert!(!is_strict_descendant("/a", "/a/b"));
    }
}
