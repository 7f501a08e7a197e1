//! Global-view key layout and role encoding.
//!
//! The view is a small key space on the coordination service:
//!
//! ```text
//! g/<group>/lock            # the distributed lock (lock API, not a key)
//! g/<group>/active          # ephemeral: node id of the current active
//! g/<group>/state/<node>    # ephemeral: "A" | "S" | "J"
//! ```

use mams_sim::NodeId;

/// Key helpers.
pub mod keys {
    use super::NodeId;

    /// The group's distributed-lock path.
    pub fn lock(group: u32) -> String {
        format!("g/{group}/lock")
    }

    /// The group's active pointer.
    pub fn active(group: u32) -> String {
        format!("g/{group}/active")
    }

    /// A member's state key.
    pub fn state(group: u32, node: NodeId) -> String {
        format!("g/{group}/state/{node}")
    }

    /// Prefix covering every group (used by actives that coordinate
    /// distributed transactions across groups).
    pub fn all_groups() -> String {
        "g/".to_string()
    }

    /// Parse a `state/<node>` key back to the node id.
    pub fn parse_state_key(key: &str) -> Option<(u32, NodeId)> {
        let rest = key.strip_prefix("g/")?;
        let (group, rest) = rest.split_once('/')?;
        let node = rest.strip_prefix("state/")?;
        Some((group.parse().ok()?, node.parse().ok()?))
    }

    /// Parse an `active` key back to the group id.
    pub fn parse_active_key(key: &str) -> Option<u32> {
        let rest = key.strip_prefix("g/")?;
        let (group, rest) = rest.split_once('/')?;
        (rest == "active").then(|| group.parse().ok()).flatten()
    }
}

/// Decode the view value of the `active` key.
pub fn decode_node(s: &str) -> Option<NodeId> {
    s.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_round_trips() {
        assert_eq!(keys::lock(3), "g/3/lock");
        assert_eq!(keys::active(0), "g/0/active");
        assert_eq!(keys::state(2, 17), "g/2/state/17");
        assert_eq!(keys::parse_state_key("g/2/state/17"), Some((2, 17)));
        assert_eq!(keys::parse_state_key("g/2/active"), None);
        assert_eq!(keys::parse_active_key("g/5/active"), Some(5));
        assert_eq!(keys::parse_active_key("g/5/state/1"), None);
    }

    #[test]
    fn node_decoding() {
        assert_eq!(decode_node("42"), Some(42));
        assert_eq!(decode_node("bogus"), None);
    }
}
