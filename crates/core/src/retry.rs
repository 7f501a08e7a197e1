//! Duplicate-request handling ("duplicated message handling in the MAMS
//! will avoid the problem of incorrect metadata operations", Section IV-C).
//!
//! Servers remember the last responses per client; an exactly-retried
//! request is answered from the cache, never re-executed. Clients may have
//! several operations outstanding (the MapReduce workers do), so the cache
//! holds a bounded window per client rather than a single entry.
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
//! After a failover the successor seeds this cache from the replicated
//! retry window ([`mams_namespace::RetryWindow`]) it rebuilt during journal
//! replay, so at-most-once holds *across* the switch: a retry of an op the
//! dead active committed is answered with the recorded outcome, not
//! re-executed.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use mams_namespace::{RetryOutcome, RetryWindow};
use mams_sim::NodeId;

use crate::proto::{MdsResp, OpOutput};

/// Per-client slice of the cache: remembered responses plus the client's
/// cumulative receipt watermark.
#[derive(Debug, Default)]
struct ClientSlot {
    responses: BTreeMap<u64, Arc<MdsResp>>,
    /// Highest seq the client confirmed receiving all replies through.
    acked: u64,
}

/// Bounded per-client response cache. Responses are held behind `Arc` so a
/// cache hit (and the original send) is a reference-count bump, not a deep
/// clone of the reply payload — listings and file infos can be large.
#[derive(Debug, Default)]
pub struct RetryCache {
    per_client: HashMap<NodeId, ClientSlot>,
    /// Requests admitted but not yet answered. A duplicate delivery in this
    /// window (the network duplicated the message, or the client retried
    /// into a slow durability round) must not execute a second time: the
    /// response cache only covers *completed* requests, and a re-execution
    /// of a mutation whose first run is still in flight can interleave with
    /// other clients' operations and corrupt the history.
    inflight: HashSet<(NodeId, u64)>,
}

/// Default responses remembered per client (overflow bound; the watermark
/// is the primary eviction signal).
pub const DEFAULT_RETRY_WINDOW: usize = 128;

impl RetryCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// A cached response for an exact duplicate, if remembered.
    pub fn check(&self, from: NodeId, seq: u64) -> Option<Arc<MdsResp>> {
        self.per_client.get(&from).and_then(|s| s.responses.get(&seq)).cloned()
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
        if self.per_client.get(&from).is_some_and(|slot| seq <= slot.acked) {
            return false;
        }
        self.inflight.insert((from, seq))
    }

    /// Absorb the client's receipt watermark: responses at or below `acked`
    /// have been received (cumulatively) and will never be retried, so they
    /// are dropped now. The watermark is monotonic; a reordered request
    /// carrying an older value is ignored.
    pub fn note_acked(&mut self, from: NodeId, acked: u64) {
        let slot = self.per_client.entry(from).or_default();
        if acked <= slot.acked {
            return;
        }
        slot.acked = acked;
        // Split off the suffix the client may still retry; everything at or
        // below the watermark is garbage.
        slot.responses = slot.responses.split_off(&(acked + 1));
    }

    /// Remember a response. Eviction is watermark-first (see `note_acked`);
    /// the capacity bound only kicks in when a client's un-acked span
    /// overflows it, where it falls back to dropping the lowest seq — the
    /// entry whose retry is least likely still in flight.
    /// Also retires the request's in-flight marker.
    pub fn store(&mut self, from: NodeId, seq: u64, resp: Arc<MdsResp>) {
        self.inflight.remove(&(from, seq));
        let slot = self.per_client.entry(from).or_default();
        if seq <= slot.acked {
            // The client already confirmed receipt past this seq (possible
            // when a watermark overtakes a slow durability round): caching
            // it would only leak.
            return;
        }
        slot.responses.insert(seq, resp);
        while slot.responses.len() > DEFAULT_RETRY_WINDOW {
            let oldest = *slot.responses.keys().next().expect("non-empty");
            slot.responses.remove(&oldest);
        }
    }

    /// Seed the cache from a replicated retry window rebuilt during journal
    /// replay (failover: the successor inherits the dead active's
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
mod tests {
    use super::*;

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
}
