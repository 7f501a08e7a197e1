//! The acceptor: the only state that matters for Paxos safety. The RSM
//! runs phase 1 once per leadership (its own `promised` ballot covers every
//! slot), so a slot's acceptor sees phase 2 only.

use crate::ballot::Ballot;

/// Reply to a phase-2 `Accept`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcceptReply {
    Accepted { ballot: Ballot },
    Nack { promised: Ballot },
}

/// Single-instance acceptor state machine over values of type `V`.
#[derive(Debug, Clone)]
pub struct Acceptor<V> {
    promised: Option<Ballot>,
    accepted: Option<(Ballot, V)>,
}

impl<V> Default for Acceptor<V> {
    fn default() -> Self {
        Acceptor { promised: None, accepted: None }
    }
}

impl<V> Acceptor<V> {
    pub fn new() -> Self {
        Acceptor::default()
    }

    /// Phase 2: handle `Accept(ballot, value)`.
    pub fn on_accept(&mut self, ballot: Ballot, value: V) -> AcceptReply {
        match self.promised {
            Some(p) if p > ballot => AcceptReply::Nack { promised: p },
            _ => {
                self.promised = Some(ballot);
                self.accepted = Some((ballot, value));
                AcceptReply::Accepted { ballot }
            }
        }
    }

    /// The highest-ballot value this acceptor has accepted.
    pub fn accepted(&self) -> Option<&(Ballot, V)> {
        self.accepted.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn b(round: u64, p: u32) -> Ballot {
        Ballot::new(round, p)
    }
    fn v(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn accept_without_prior_prepare_is_legal() {
        // An acceptor that never promised can accept directly (it implicitly
        // promises the accept ballot).
        let mut a = Acceptor::new();
        assert_eq!(a.on_accept(b(1, 0), v("y")), AcceptReply::Accepted { ballot: b(1, 0) });
        assert_eq!(a.accepted(), Some(&(b(1, 0), v("y"))));
    }

    #[test]
    fn higher_accept_replaces_value() {
        let mut a = Acceptor::new();
        a.on_accept(b(1, 0), v("old"));
        a.on_accept(b(2, 0), v("new"));
        assert_eq!(a.accepted().unwrap().1, v("new"));
        // But a lower accept cannot roll it back.
        assert_eq!(a.on_accept(b(1, 5), v("evil")), AcceptReply::Nack { promised: b(2, 0) });
        assert_eq!(a.accepted().unwrap().1, v("new"));
    }
}
