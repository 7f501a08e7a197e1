//! Duplicate-request handling ("duplicated message handling in the MAMS
//! will avoid the problem of incorrect metadata operations", Section IV-C).
//!
//! Servers remember the last responses to each client's *mutations*; an
//! exactly-retried mutation is answered from the cache, never re-executed.
//! What the cache holds is a mutation's reply and a rejected mutation's
//! observation (its error read the namespace, and a second run could answer
//! differently). A read's reply is never cached: a resent read executes
//! again, inside the interval of the op it repeats and behind the same read
//! barrier as any read, so it linearizes. Clients may have several
//! operations outstanding (the MapReduce workers do), so the cache holds a
//! bounded window per client rather than a single entry.
//!
//! Eviction is driven by the client's own receipt watermark: every request
//! piggybacks the highest seq `A` such that the client has received replies
//! for *all* seqs ≤ `A` (`MdsReq::Op::acked`). A response at or below the
//! watermark can never be retried, so it is dropped exactly then — neither
//! early (a blind oldest-first eviction can drop a response the client is
//! actively retrying) nor late (entries linger only while the client might
//! still need them). A request at or below the watermark is refused outright
//! (`begin`): its reply is gone from the cache *because* the client has it.
//! The capacity bound remains as an overflow backstop for clients that
//! never advance their watermark.
//!
//! A client's seqs arrive in ascending order, so its window is a ring: a
//! reply is pushed at the back, the watermark pops from the front, and only
//! a duplicate or out-of-order seq pays a binary search. Clients are found
//! by binary search in a vector sorted by node id; nothing is hashed and,
//! once a client's ring has grown, nothing is allocated per request.
//!
//! After a failover the successor seeds this cache from the replicated
//! retry window ([`mams_namespace::RetryWindow`]), which its prefix folds
//! from the ack records of the journal it replayed — at the promotion, the
//! first time a standby reads it — so at-most-once holds *across* the
//! switch: a retry of an op the dead active committed is answered with the
//! recorded outcome, not re-executed.
#![deny(clippy::disallowed_types)]

use std::collections::VecDeque;
use std::sync::Arc;

use mams_namespace::{RetryOutcome, RetryWindow};
use mams_sim::NodeId;

use crate::proto::{MdsResp, OpOutput};

/// Per-client slice of the cache: remembered responses, the requests still
/// executing, and the client's cumulative receipt watermark.
#[derive(Debug, Default)]
struct ClientSlot {
    /// Ascending by seq.
    responses: VecDeque<(u64, Arc<MdsResp>)>,
    /// Requests admitted but not yet answered. A duplicate delivery in this
    /// window (the network duplicated the message, or the client retried
    /// into a slow durability round) must not execute a second time: the
    /// response cache only covers *completed* requests, and a re-execution
    /// of a mutation whose first run is still in flight can interleave with
    /// other clients' operations and corrupt the history.
    inflight: Vec<u64>,
    /// Highest seq the client confirmed receiving all replies through.
    /// `None` until a watermark or a reply of the client's was seen: only
    /// then does it refuse seqs at or below the mark, seq 0 included.
    acked: Option<u64>,
}

/// Bounded per-client response cache. Responses are held behind `Arc` so a
/// cache hit (and the original send) is a reference-count bump, not a deep
/// clone of the reply payload.
#[derive(Debug, Default)]
pub struct RetryCache {
    /// Sorted by node id. Never indexed by one: `EXTERNAL` is `u32::MAX`.
    slots: Vec<(NodeId, ClientSlot)>,
}

/// Default responses remembered per client (overflow bound; the watermark
/// is the primary eviction signal).
pub const DEFAULT_RETRY_WINDOW: usize = 128;

impl RetryCache {
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, from: NodeId) -> Option<&ClientSlot> {
        let at = self.slots.binary_search_by_key(&from, |s| s.0).ok()?;
        Some(&self.slots[at].1)
    }

    fn slot_mut(&mut self, from: NodeId) -> &mut ClientSlot {
        let at = match self.slots.binary_search_by_key(&from, |s| s.0) {
            Ok(at) => at,
            Err(at) => {
                self.slots.insert(at, (from, ClientSlot::default()));
                at
            }
        };
        &mut self.slots[at].1
    }

    /// A cached response for an exact duplicate, if remembered.
    pub fn check(&self, from: NodeId, seq: u64) -> Option<Arc<MdsResp>> {
        let responses = &self.slot(from)?.responses;
        let at = responses.binary_search_by_key(&seq, |r| r.0).ok()?;
        Some(responses[at].1.clone())
    }

    /// Admit a request for execution. Returns `false` when the same
    /// `(client, seq)` is already executing — the caller must drop the
    /// duplicate; the original's reply will reach the client (or the client
    /// re-retries and hits the response cache) — and when `seq` is at or
    /// below the client's watermark: the client holds that reply and can
    /// never need another, so this is a network copy that trailed its
    /// original past the eviction of the cached response. Executed again it
    /// could succeed where the original was refused (or the reverse) and
    /// nobody would learn.
    pub fn begin(&mut self, from: NodeId, seq: u64) -> bool {
        let slot = self.slot_mut(from);
        if slot.acked.is_some_and(|acked| seq <= acked) || slot.inflight.contains(&seq) {
            return false;
        }
        slot.inflight.push(seq);
        true
    }

    /// Absorb the client's receipt watermark: responses at or below `acked`
    /// have been received (cumulatively) and will never be retried, so they
    /// are dropped now. The watermark is monotonic; a reordered request
    /// carrying an older value is ignored.
    pub fn note_acked(&mut self, from: NodeId, acked: u64) {
        let slot = self.slot_mut(from);
        let mark = slot.acked.get_or_insert(0);
        if acked <= *mark {
            return;
        }
        *mark = acked;
        while slot.responses.front().is_some_and(|r| r.0 <= acked) {
            slot.responses.pop_front();
        }
    }

    /// Remember a response. Eviction is watermark-first (see `note_acked`);
    /// the capacity bound only kicks in when a client's un-acked span
    /// overflows it, where it falls back to dropping the lowest seq — the
    /// entry whose retry is least likely still in flight.
    /// Also retires the request's in-flight marker.
    pub fn store(&mut self, from: NodeId, seq: u64, resp: Arc<MdsResp>) {
        let slot = self.slot_mut(from);
        if let Some(at) = slot.inflight.iter().position(|&s| s == seq) {
            slot.inflight.swap_remove(at);
        }
        if seq <= *slot.acked.get_or_insert(0) {
            // The client already confirmed receipt past this seq (possible
            // when a watermark overtakes a slow durability round): caching
            // it would only leak.
            return;
        }
        let responses = &mut slot.responses;
        if responses.back().is_some_and(|r| r.0 >= seq) {
            match responses.binary_search_by_key(&seq, |r| r.0) {
                Ok(at) => responses[at].1 = resp,
                Err(at) => responses.insert(at, (seq, resp)),
            }
        } else {
            responses.push_back((seq, resp));
        }
        if responses.len() > DEFAULT_RETRY_WINDOW {
            responses.pop_front();
        }
    }

    /// Seed the cache from a replicated retry window folded from the
    /// replayed journal (failover: the successor inherits the dead active's
    /// duplicate-suppression state). Entries become exactly the replies the
    /// predecessor sent.
    ///
    /// Only *journaled* acks live in the window, so an op whose batch
    /// failover discarded is naturally absent — its retry executes fresh,
    /// as it does against a re-promoted predecessor, whose markers went
    /// with the tenure that held them.
    pub fn seed_from_window(&mut self, window: &RetryWindow) {
        for (client, seq, entry) in window.iter() {
            let result = Ok(match &entry.outcome {
                RetryOutcome::Done => OpOutput::Done,
                RetryOutcome::Block(b) => OpOutput::Block(*b),
                RetryOutcome::Info(info) => OpOutput::Info(info.clone()),
            });
            self.store(client, seq, Arc::new(MdsResp::Reply { seq, result }));
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the model test keeps the old maps as its oracle and records a window to seed from"
)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap, HashSet};

    use mams_sim::node::EXTERNAL;
    use mams_sim::DetRng;

    fn resp(seq: u64) -> Arc<MdsResp> {
        Arc::new(MdsResp::Reply { seq, result: Ok(crate::proto::OpOutput::Done) })
    }

    #[test]
    fn exact_duplicates_hit() {
        let mut c = RetryCache::new();
        c.store(1, 5, resp(5));
        assert!(c.check(1, 5).is_some());
        assert!(c.check(1, 4).is_none(), "unknown seqs execute fresh");
        assert!(c.check(2, 5).is_none(), "caches are per client");
    }

    #[test]
    fn out_of_order_seqs_are_all_remembered() {
        let mut c = RetryCache::new();
        c.store(1, 9, resp(9));
        c.store(1, 3, resp(3));
        assert!(c.check(1, 3).is_some(), "lower seq after higher must not be dropped");
        assert!(c.check(1, 9).is_some());
    }

    #[test]
    fn duplicate_in_flight_is_rejected_until_stored() {
        let mut c = RetryCache::new();
        assert!(c.begin(1, 7), "first delivery executes");
        assert!(!c.begin(1, 7), "duplicate while executing is dropped");
        assert!(c.begin(1, 8), "other seqs are independent");
        assert!(c.begin(2, 7), "other clients are independent");
        c.store(1, 7, resp(7));
        assert!(c.check(1, 7).is_some(), "after completion the cache answers");
        assert!(c.begin(1, 7), "marker retired with the stored response");
    }

    /// A network duplicate can trail its original past the client's next
    /// request, whose watermark has by then evicted the cached reply: the
    /// duplicate must still not execute.
    #[test]
    fn a_request_at_or_below_the_watermark_is_never_begun() {
        let mut c = RetryCache::new();
        assert!(c.begin(1, 7));
        c.store(1, 7, resp(7));
        c.note_acked(1, 7);
        assert!(c.check(1, 7).is_none(), "the client holds that reply: nothing to resend");
        assert!(!c.begin(1, 7), "a late duplicate must not execute a second time");
        assert!(!c.begin(1, 3), "nor anything older");
        assert!(c.begin(1, 8), "the next request executes");
        assert!(c.begin(2, 7), "watermarks are per client");
    }

    #[test]
    fn watermark_evicts_exactly_the_acked_prefix() {
        let mut c = RetryCache::new();
        for seq in 1..=5 {
            c.store(1, seq, resp(seq));
        }
        c.note_acked(1, 3);
        for seq in 1..=3 {
            assert!(c.check(1, seq).is_none(), "seq {seq} at/below watermark dropped");
        }
        for seq in 4..=5 {
            assert!(c.check(1, seq).is_some(), "seq {seq} above watermark retained");
        }
        // Watermarks are per client and monotonic.
        c.store(2, 1, resp(1));
        assert!(c.check(2, 1).is_some(), "other clients unaffected");
        c.note_acked(1, 2);
        assert!(c.check(1, 4).is_some(), "stale (lower) watermark ignored");
    }

    #[test]
    fn store_below_watermark_is_dropped() {
        let mut c = RetryCache::new();
        c.note_acked(1, 10);
        c.store(1, 7, resp(7));
        assert!(c.check(1, 7).is_none(), "client confirmed receipt past 7 already");
        c.store(1, 11, resp(11));
        assert!(c.check(1, 11).is_some());
    }

    #[test]
    fn capacity_remains_an_overflow_backstop() {
        let mut c = RetryCache::new();
        let last = DEFAULT_RETRY_WINDOW as u64 + 1;
        for seq in 1..=last {
            c.store(1, seq, resp(seq));
        }
        assert!(c.check(1, 1).is_none(), "overflow still drops the lowest seq");
        assert!(c.check(1, 2).is_some());
        assert!(c.check(1, last).is_some());
    }

    /// The reserved `token` of an entry never reaches the reply.
    #[test]
    fn seeding_from_a_window_reconstructs_replies() {
        use mams_namespace::{RetryEntry, RetryWindow};
        let mut w = RetryWindow::new();
        w.record(4, 9, RetryEntry { outcome: RetryOutcome::Done, token: None });
        w.record(4, 10, RetryEntry { outcome: RetryOutcome::Block(77), token: Some(12) });
        let mut c = RetryCache::new();
        c.seed_from_window(&w);
        match c.check(4, 9).as_deref() {
            Some(MdsResp::Reply { seq: 9, result: Ok(OpOutput::Done) }) => {}
            other => panic!("unexpected seeded reply {other:?}"),
        }
        match c.check(4, 10).as_deref() {
            Some(MdsResp::Reply { seq: 10, result: Ok(OpOutput::Block(77)) }) => {}
            other => panic!("unexpected seeded reply {other:?}"),
        }
        assert!(c.check(4, 11).is_none(), "unseen seqs execute fresh");
    }

    /// The cache as it was kept before the ring: a hash map of per-client
    /// B-trees and one hash set of in-flight requests.
    #[derive(Default)]
    struct Oracle {
        per_client: HashMap<NodeId, (BTreeMap<u64, Arc<MdsResp>>, u64)>,
        inflight: HashSet<(NodeId, u64)>,
    }

    impl Oracle {
        fn check(&self, from: NodeId, seq: u64) -> Option<Arc<MdsResp>> {
            self.per_client.get(&from).and_then(|s| s.0.get(&seq)).cloned()
        }

        fn begin(&mut self, from: NodeId, seq: u64) -> bool {
            if self.per_client.get(&from).is_some_and(|s| seq <= s.1) {
                return false;
            }
            self.inflight.insert((from, seq))
        }

        fn note_acked(&mut self, from: NodeId, acked: u64) {
            let (responses, mark) = self.per_client.entry(from).or_default();
            if acked <= *mark {
                return;
            }
            *mark = acked;
            *responses = responses.split_off(&(acked + 1));
        }

        fn store(&mut self, from: NodeId, seq: u64, resp: Arc<MdsResp>) {
            self.inflight.remove(&(from, seq));
            let (responses, mark) = self.per_client.entry(from).or_default();
            if seq <= *mark {
                return;
            }
            responses.insert(seq, resp);
            while responses.len() > DEFAULT_RETRY_WINDOW {
                let oldest = *responses.keys().next().expect("non-empty");
                responses.remove(&oldest);
            }
        }
    }

    /// `PARITY_CASES` scales the case count, as in the other suites.
    fn cases() -> u64 {
        std::env::var("PARITY_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
    }

    /// Seeded walks over four clients, one of them `EXTERNAL`: seqs mostly
    /// ascend from 0 but repeat, step back and jump ahead; watermarks mostly
    /// trail the seqs but regress; a client that never advances its own
    /// overflows its ring. Every call must answer as the oracle does, and
    /// every hit must be the very response the oracle holds.
    #[test]
    fn the_ring_answers_every_call_as_the_maps_did() {
        const CLIENTS: [NodeId; 4] = [EXTERNAL, 3, 0, 1 << 20];
        let (mut hits, mut refusals, mut overflows) = (0, 0, 0);
        for case in 0..cases() {
            let mut rng = DetRng::seed_from_u64(0x2e7_0000 + case);
            let (mut ring, mut oracle) = (RetryCache::new(), Oracle::default());
            let mut next = [0u64; 4];
            // In half the cases one client never advances its watermark.
            let stalled = rng.below(8) as usize;
            for step in 0..rng.range(400, 2000) {
                let c = rng.index(CLIENTS.len());
                let from = CLIENTS[c];
                let seq = match rng.below(8) {
                    0 => next[c].saturating_sub(rng.below(2 * DEFAULT_RETRY_WINDOW as u64)),
                    1 => next[c] + rng.below(4),
                    2 => next[c],
                    _ => {
                        next[c] += 1;
                        next[c]
                    }
                };
                let what = format!("case {case} step {step}: client {from} seq {seq}");
                match rng.below(8) {
                    0..=1 => {
                        let (got, want) = (ring.check(from, seq), oracle.check(from, seq));
                        hits += usize::from(want.is_some());
                        match (&got, &want) {
                            (Some(g), Some(w)) => assert!(Arc::ptr_eq(g, w), "check, {what}"),
                            (None, None) => {}
                            _ => panic!("check, {what}: ring {got:?}, oracle {want:?}"),
                        }
                    }
                    2..=3 => {
                        let want = oracle.begin(from, seq);
                        refusals += usize::from(!want);
                        assert_eq!(ring.begin(from, seq), want, "begin, {what}");
                    }
                    4 if c == stalled => {}
                    4 => {
                        let acked = match rng.below(4) {
                            0 => rng.below(seq + 1),
                            _ => seq.saturating_sub(rng.below(8)),
                        };
                        ring.note_acked(from, acked);
                        oracle.note_acked(from, acked);
                    }
                    _ => {
                        let r = resp(seq);
                        ring.store(from, seq, r.clone());
                        oracle.store(from, seq, r);
                        let held = oracle.per_client[&from].0.len();
                        overflows += usize::from(held == DEFAULT_RETRY_WINDOW);
                    }
                }
                // Both hold the same seqs, in the same order.
                let ring_seqs: Vec<u64> =
                    ring.slot(from).iter().flat_map(|s| s.responses.iter().map(|r| r.0)).collect();
                let oracle_seqs: Vec<u64> =
                    oracle.per_client.get(&from).iter().flat_map(|s| s.0.keys().copied()).collect();
                assert_eq!(ring_seqs, oracle_seqs, "held, {what}");
            }
        }
        assert!(hits > 0 && refusals > 0 && overflows > 0, "{hits} {refusals} {overflows}");
    }
}
