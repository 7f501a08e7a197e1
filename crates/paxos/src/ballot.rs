//! Ballot numbers: totally ordered, proposer-unique.

/// A Paxos ballot: lexicographic `(round, proposer)` so two proposers can
/// never issue the same ballot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ballot {
    pub round: u64,
    pub proposer: u32,
}

impl Ballot {
    /// The ballot below every real ballot.
    pub const ZERO: Ballot = Ballot { round: 0, proposer: 0 };

    pub fn new(round: u64, proposer: u32) -> Self {
        Ballot { round, proposer }
    }

    /// Smallest ballot of `proposer` strictly greater than `self`.
    pub fn next_for(self, proposer: u32) -> Ballot {
        if proposer > self.proposer {
            Ballot { round: self.round, proposer }
        } else {
            Ballot { round: self.round + 1, proposer }
        }
    }
}

impl std::fmt::Display for Ballot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}.{}", self.round, self.proposer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_round_major() {
        assert!(Ballot::new(2, 0) > Ballot::new(1, 9));
        assert!(Ballot::new(1, 2) > Ballot::new(1, 1));
        assert!(Ballot::ZERO < Ballot::new(0, 1));
    }

    #[test]
    fn next_for_is_strictly_greater_and_minimal() {
        let b = Ballot::new(3, 5);
        let hi = b.next_for(7);
        assert!(hi > b);
        assert_eq!(hi, Ballot::new(3, 7));
        let lo = b.next_for(2);
        assert!(lo > b);
        assert_eq!(lo, Ballot::new(4, 2));
        let same = b.next_for(5);
        assert_eq!(same, Ballot::new(4, 5));
    }

    #[test]
    fn distinct_proposers_never_collide() {
        let a = Ballot::new(1, 1);
        let b = Ballot::new(1, 2);
        assert_ne!(a, b);
    }
}
