//! Global-view key layout: the one module that knows it.
//!
//! The view is a small key space on the coordination service:
//!
//! ```text
//! g/<group>/lock            # the distributed lock (lock API, not a key)
//! g/<group>/active          # ephemeral: node id of the current active
//! g/<group>/state/<node>    # ephemeral: "A" | "S" | "J"
//! g/<group>/bid/<node>      # ephemeral: an election bid (Algorithm 1)
//! ```

use std::fmt;

use mams_sim::NodeId;

/// A key of the view. `Display` is its wire form, [`ViewKey::parse`] the
/// way back. Ordered by kind, then group, then node: one group's state keys
/// (or bids) are one range of a sorted map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViewKey {
    /// The group's distributed-lock path.
    Lock(u32),
    /// The group's active pointer; its value is the active's node id.
    Active(u32),
    /// A member's state key.
    State(u32, NodeId),
    /// A member's election bid.
    Bid(u32, NodeId),
}

impl fmt::Display for ViewKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewKey::Lock(g) => write!(f, "g/{g}/lock"),
            ViewKey::Active(g) => write!(f, "g/{g}/active"),
            ViewKey::State(g, n) => write!(f, "g/{g}/state/{n}"),
            ViewKey::Bid(g, n) => write!(f, "g/{g}/bid/{n}"),
        }
    }
}

impl ViewKey {
    pub fn parse(key: &str) -> Option<ViewKey> {
        let (group, rest) = key.strip_prefix("g/")?.split_once('/')?;
        let g = group.parse().ok()?;
        match rest.split_once('/') {
            None if rest == "lock" => Some(ViewKey::Lock(g)),
            None if rest == "active" => Some(ViewKey::Active(g)),
            Some(("state", node)) => Some(ViewKey::State(g, node.parse().ok()?)),
            Some(("bid", node)) => Some(ViewKey::Bid(g, node.parse().ok()?)),
            _ => None,
        }
    }

    /// Prefix covering every group (clients route by it, and actives
    /// coordinate distributed transactions across groups).
    pub fn all_groups() -> String {
        "g/".to_string()
    }

    /// Prefix covering one group's keys.
    pub fn group(group: u32) -> String {
        format!("g/{group}/")
    }

    /// Prefix covering one group's election bids.
    pub fn bids(group: u32) -> String {
        format!("g/{group}/bid/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_round_trips() {
        assert_eq!(ViewKey::Lock(3).to_string(), "g/3/lock");
        assert_eq!(ViewKey::Active(0).to_string(), "g/0/active");
        assert_eq!(ViewKey::State(2, 17).to_string(), "g/2/state/17");
        assert_eq!(ViewKey::Bid(1, 4).to_string(), "g/1/bid/4");
        for key in [ViewKey::Lock(3), ViewKey::Active(5), ViewKey::State(2, 17), ViewKey::Bid(1, 4)]
        {
            assert_eq!(ViewKey::parse(&key.to_string()), Some(key));
            assert!(key.to_string().starts_with(&ViewKey::all_groups()));
        }
        assert!(ViewKey::Bid(1, 4).to_string().starts_with(&ViewKey::bids(1)));
        assert!(ViewKey::State(1, 4).to_string().starts_with(&ViewKey::group(1)));
        assert!(!ViewKey::State(1, 4).to_string().starts_with(&ViewKey::group(10)));
    }

    #[test]
    fn what_is_not_a_key_does_not_parse() {
        for bogus in
            ["", "g/", "g/2", "g/2/", "g/x/active", "g/2/state", "g/2/state/bogus", "h/2/lock"]
        {
            assert_eq!(ViewKey::parse(bogus), None, "{bogus:?}");
        }
    }
}
