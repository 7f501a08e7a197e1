//! Typed protocol traces.
//!
//! Figure 7 (failover-stage breakdown) and Table II (state-transition
//! sequences) are produced by reading these traces back after a run. Every
//! crate that records owns one enum of what it records — fields, not prose —
//! and implements [`Event`] for it; a reader asks for that enum with
//! [`Trace::of`] and matches variants, so a renamed event is a compile error
//! rather than a check that quietly matches nothing.

use std::any::Any;
use std::fmt;

use crate::node::NodeId;
use crate::time::SimTime;

/// What a trace record carries: one crate's event enum. The kernel sits
/// below every crate that owns a vocabulary, so it holds them erased.
pub trait Event: Any + fmt::Debug + Send {}

/// One trace record.
#[derive(Debug)]
pub struct TraceEvent {
    pub time: SimTime,
    pub node: NodeId,
    pub event: Box<dyn Event>,
}

/// The one timeline format: virtual microseconds, node, the event's `Debug`.
impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>10}us n{:<3} {:?}", self.time.micros(), self.node, self.event)
    }
}

/// Append-only trace sink. When disabled, `record` is a no-op and the
/// closure that builds the event is never evaluated.
#[derive(Debug, Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl Trace {
    pub(crate) fn new(enabled: bool) -> Self {
        Trace { enabled, events: Vec::new() }
    }

    /// Record an event; `event` is evaluated only when the sink is on.
    pub(crate) fn record<E: Event>(
        &mut self,
        time: SimTime,
        node: NodeId,
        event: impl FnOnce() -> E,
    ) {
        if self.enabled {
            self.events.push(TraceEvent { time, node, event: Box::new(event()) });
        }
    }

    /// All recorded events in time order (recording order == time order).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Every recorded `E`, in time order, with when and where it happened.
    pub fn of<E: Event>(&self) -> impl Iterator<Item = (SimTime, NodeId, &E)> {
        self.events.iter().filter_map(|e| {
            let event: &dyn Any = &*e.event;
            event.downcast_ref::<E>().map(|ev| (e.time, e.node, ev))
        })
    }
}

/// The whole timeline, one [`TraceEvent`] per line.
impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.events.iter().try_for_each(|e| writeln!(f, "{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Op {
        Ok(u32),
        Failed,
    }
    impl Event for Op {}

    #[derive(Debug)]
    struct Other;
    impl Event for Other {}

    #[test]
    fn disabled_trace_records_nothing_and_skips_closure() {
        let mut t = Trace::new(false);
        let mut evaluated = false;
        t.record(SimTime(1), 0, || {
            evaluated = true;
            Op::Failed
        });
        assert!(!evaluated);
        assert!(t.events().is_empty());
    }

    #[test]
    fn of_reads_back_one_type_in_order() {
        let mut t = Trace::new(true);
        t.record(SimTime(10), 1, || Op::Ok(1));
        t.record(SimTime(20), 1, || Other);
        t.record(SimTime(30), 2, || Op::Failed);
        let ops: Vec<_> = t.of::<Op>().collect();
        assert_eq!(ops, [(SimTime(10), 1, &Op::Ok(1)), (SimTime(30), 2, &Op::Failed)]);
        assert_eq!(t.of::<Other>().count(), 1);
        assert_eq!(t.to_string().lines().nth(2), Some("        30us n2   Failed"));
    }
}
