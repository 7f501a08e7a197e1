//! Randomized test for Paxos safety: with competing proposers and arbitrary
//! message interleavings, at most one value is ever chosen per instance —
//! the guarantee MAMS leans on for "only one active is elected each time".
//!
//! Seeded randomized coverage; `PARITY_CASES` scales the number of cases.

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mams::paxos::{Acceptor, Ballot, Proposer, ProposerEvent};

/// Cases per test; override with `PARITY_CASES` (nightly runs elevated).
fn cases() -> u64 {
    std::env::var("PARITY_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
}

#[derive(Debug, Clone)]
struct Round {
    proposer: u32,
    ballot_round: u64,
    /// Which acceptors the prepare reaches, in order (others are "lost").
    prepare_order: Vec<usize>,
    /// Which acceptors the accept reaches, in order.
    accept_order: Vec<usize>,
}

/// A random subsequence of `0..n` (order preserved, each element kept with
/// probability 1/2) — the acceptors one phase's messages actually reach.
fn subsequence(rng: &mut SmallRng, n: usize) -> Vec<usize> {
    (0..n).filter(|_| rng.gen_bool(0.5)).collect()
}

fn rand_round(rng: &mut SmallRng, n_acceptors: usize) -> Round {
    Round {
        proposer: rng.gen_range(0..3u32),
        ballot_round: rng.gen_range(1..6u64),
        prepare_order: subsequence(rng, n_acceptors),
        accept_order: subsequence(rng, n_acceptors),
    }
}

/// Drive one proposer round against shared acceptors with the given
/// delivery pattern; returns the value it believes was chosen, if any.
fn drive(acceptors: &mut [Acceptor], round: &Round) -> Option<Bytes> {
    let ballot = Ballot::new(round.ballot_round, round.proposer);
    let my_value = Bytes::from(format!("v{}@{}", round.proposer, round.ballot_round));
    let mut p = Proposer::new(round.proposer, acceptors.len(), ballot, my_value);
    let mut accept_payload = None;
    for &i in &round.prepare_order {
        let reply = acceptors[i].on_prepare(ballot);
        match p.on_prepare_reply(i as u32, reply) {
            ProposerEvent::SendAccepts { ballot, value } => {
                accept_payload = Some((ballot, value));
                break;
            }
            ProposerEvent::Preempted { .. } => return None,
            _ => {}
        }
    }
    let (ballot, value) = accept_payload?;
    for &i in &round.accept_order {
        let reply = acceptors[i].on_accept(ballot, value.clone());
        match p.on_accept_reply(i as u32, reply) {
            ProposerEvent::Chosen { value, .. } => return Some(value),
            ProposerEvent::Preempted { .. } => return None,
            _ => {}
        }
    }
    None
}

#[test]
fn at_most_one_value_is_ever_chosen() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x9a1c05 ^ (case << 8));
        let n_rounds = rng.gen_range(1..12usize);
        let mut acceptors = vec![Acceptor::new(); 5];
        let mut chosen: Option<Bytes> = None;
        for r in 0..n_rounds {
            let round = rand_round(&mut rng, 5);
            if let Some(v) = drive(&mut acceptors, &round) {
                match &chosen {
                    None => chosen = Some(v),
                    Some(prev) => {
                        assert_eq!(prev, &v, "case {case} round {r}: two different values chosen")
                    }
                }
            }
        }
    }
}

/// Once a quorum has accepted a value, every later successful round must
/// choose that same value (the adoption rule works).
#[test]
fn chosen_values_are_stable_under_later_rounds() {
    for case in 0..cases() {
        let mut rng = SmallRng::seed_from_u64(0x9a1c06 ^ (case << 8));
        let mut acceptors = vec![Acceptor::new(); 3];
        // Choose "first" with a full round.
        let first = drive(
            &mut acceptors,
            &Round {
                proposer: 0,
                ballot_round: 1,
                prepare_order: vec![0, 1, 2],
                accept_order: vec![0, 1, 2],
            },
        )
        .expect("uncontended round chooses");
        let n_rounds = rng.gen_range(1..8usize);
        for r in 0..n_rounds {
            let round = rand_round(&mut rng, 3);
            if let Some(v) = drive(&mut acceptors, &round) {
                assert_eq!(first, v, "case {case} round {r}: later round overwrote the choice");
            }
        }
    }
}
