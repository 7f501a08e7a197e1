//! Structured protocol traces.
//!
//! Figure 7 (failover-stage breakdown) and Table II (state-transition
//! sequences) are produced by reading these traces back after a run, so
//! protocol crates tag the interesting instants (`"election.won"`,
//! `"failover.switch_done"`, `"view.state"`, …) rather than printing.

use std::fmt;

use crate::node::NodeId;
use crate::time::SimTime;

/// One trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    pub time: SimTime,
    pub node: NodeId,
    /// Stable machine-readable tag, dot-separated (`"failover.election_won"`).
    pub tag: &'static str,
    /// Free-form human detail.
    pub detail: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>12}] n{:<3} {:<28} {}", self.time, self.node, self.tag, self.detail)
    }
}

/// Append-only trace sink. When disabled, `record` is a cheap no-op and the
/// detail closure is never evaluated.
#[derive(Debug, Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Trace { enabled, events: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event. `detail` is lazily evaluated.
    pub fn record(
        &mut self,
        time: SimTime,
        node: NodeId,
        tag: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        if self.enabled {
            self.events.push(TraceEvent { time, node, tag, detail: detail() });
        }
    }

    /// All recorded events in time order (recording order == time order).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// First event with exactly this tag at or after `from`.
    pub fn first_at_or_after(&self, tag: &str, from: SimTime) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.tag == tag && e.time >= from)
    }

    /// Last event with exactly this tag strictly before `before`.
    pub fn last_before(&self, tag: &str, before: SimTime) -> Option<&TraceEvent> {
        self.events.iter().rev().find(|e| e.tag == tag && e.time < before)
    }

    /// Drop all recorded events (between experiment phases).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing_and_skips_closure() {
        let mut t = Trace::new(false);
        let mut evaluated = false;
        t.record(SimTime(1), 0, "x", || {
            evaluated = true;
            String::new()
        });
        assert!(!evaluated);
        assert!(t.events().is_empty());
    }

    #[test]
    fn query_helpers() {
        let mut t = Trace::new(true);
        t.record(SimTime(10), 1, "op.ok", || "a".into());
        t.record(SimTime(20), 1, "op.fail", || "b".into());
        t.record(SimTime(30), 2, "op.ok", || "c".into());
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.first_at_or_after("op.ok", SimTime(15)).unwrap().time, SimTime(30));
        assert_eq!(t.last_before("op.ok", SimTime(30)).unwrap().time, SimTime(10));
        assert!(t.last_before("op.ok", SimTime(10)).is_none());
        t.clear();
        assert!(t.events().is_empty());
    }

    #[test]
    fn display_contains_tag() {
        let e = TraceEvent { time: SimTime(5), node: 3, tag: "a.b", detail: "d".into() };
        assert!(format!("{e}").contains("a.b"));
    }
}
