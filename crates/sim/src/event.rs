//! The simulation event queue.
//!
//! A strict total order over events — `(time, sequence)` with sequence
//! numbers assigned at scheduling time — makes runs deterministic even when
//! many events share a timestamp.
//!
//! The queue also owns the timer table, the one structure that says whether
//! a timer is still armed. A cancelled timer's entry stays in the heap as a
//! dead one (removing from the middle of a binary heap costs what the
//! cancel is meant to save) and leaves it when popped or, once dead entries
//! outnumber live ones, in one sweep; either way it never reaches its node.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::node::{Message, NodeId, TimerId};
use crate::time::SimTime;

/// What happens when an event fires.
pub enum EventKind {
    /// Deliver `msg` from `from` to node `dst`.
    Deliver { from: NodeId, dst: NodeId, msg: Message },
    /// Fire timer `id` (token `token`) on `node`, valid only while `id` is
    /// armed and the node is still in incarnation `epoch`.
    Timer { node: NodeId, epoch: u64, id: TimerId, token: u64 },
    /// Run an external control action against the whole simulation (fault
    /// injection, measurements). Boxed so the queue stays homogeneous.
    Control(Box<dyn FnOnce(&mut crate::world::Sim) + Send>),
}

impl std::fmt::Debug for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventKind::Deliver { from, dst, msg } => f
                .debug_struct("Deliver")
                .field("from", from)
                .field("dst", dst)
                .field("msg", msg)
                .finish(),
            EventKind::Timer { node, epoch, id, token } => f
                .debug_struct("Timer")
                .field("node", node)
                .field("epoch", epoch)
                .field("id", id)
                .field("token", token)
                .finish(),
            EventKind::Control(_) => f.write_str("Control(..)"),
        }
    }
}

/// A scheduled event.
#[derive(Debug)]
pub struct Event {
    pub at: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    /// Reversed so that `BinaryHeap` (a max-heap) pops the *earliest* event.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Below this many dead entries the heap is never swept: popping them costs
/// less than a rebuild, and a queue this small sits in first-level cache.
pub const SWEEP_MIN_DEAD: usize = 64;

/// One row of the timer table. A [`TimerId`] names a row and the generation
/// the row had when the timer was armed; the timer is armed for as long as
/// the two agree. Firing or cancelling moves the row to its next generation
/// and frees it for the next timer, so a handle kept past that point matches
/// nothing and nothing has to remember it.
#[derive(Debug, Default, Clone, Copy)]
struct TimerSlot {
    generation: u32,
    /// The timer's entry came due while its node was paused and waits in the
    /// kernel's backlog, not in the heap.
    parked: bool,
}

impl TimerSlot {
    /// Whether `id` still names an armed timer of `table`.
    fn holds(table: &[TimerSlot], id: TimerId) -> bool {
        table[id.slot as usize].generation == id.generation
    }
}

/// Priority queue of pending events, earliest first, and the table of armed
/// timers.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
    timers: Vec<TimerSlot>,
    free_timers: Vec<u32>,
    /// Entries of cancelled timers still in `heap`.
    dead: usize,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, kind });
    }

    /// Pop the earliest event, if any. A popped timer goes through
    /// [`EventQueue::take_due`] before it fires.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Entries in the heap, dead ones included. Each cancel leaves at most
    /// `max(live, SWEEP_MIN_DEAD)` dead ones, and pops only take away.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Arm a timer for `node` (incarnation `epoch`) at absolute time `at`.
    pub fn arm_timer(&mut self, at: SimTime, node: NodeId, epoch: u64, token: u64) -> TimerId {
        let slot = self.free_timers.pop().unwrap_or_else(|| {
            self.timers.push(TimerSlot::default());
            u32::try_from(self.timers.len() - 1).expect("fewer than 2^32 timers armed at once")
        });
        let id = TimerId { slot, generation: self.timers[slot as usize].generation };
        self.push(at, EventKind::Timer { node, epoch, id, token });
        id
    }

    fn is_armed(&self, id: TimerId) -> bool {
        TimerSlot::holds(&self.timers, id)
    }

    /// End an armed timer: every copy of `id` stops matching, the row is free.
    fn disarm(&mut self, id: TimerId) {
        let row = &mut self.timers[id.slot as usize];
        *row = TimerSlot { generation: row.generation.wrapping_add(1), parked: false };
        self.free_timers.push(id.slot);
    }

    /// Take a timer back. A timer that has fired or was cancelled before is
    /// not armed, so this does nothing and records nothing.
    pub fn cancel_timer(&mut self, id: TimerId) {
        if !self.is_armed(id) {
            return;
        }
        let in_heap = !self.timers[id.slot as usize].parked;
        self.disarm(id);
        if in_heap {
            self.dead += 1;
            if self.dead > SWEEP_MIN_DEAD && self.dead > self.heap.len() / 2 {
                self.sweep();
            }
        }
    }

    /// Drop every dead entry. The survivors keep their `(at, seq)`, so they
    /// pop in the order they would have; each dead entry was put there by one
    /// cancel and more than half the heap is dead, so a cancel pays O(1).
    fn sweep(&mut self) {
        let before = self.heap.len();
        let timers = &self.timers;
        self.heap.retain(|e| match e.kind {
            EventKind::Timer { id, .. } => TimerSlot::holds(timers, id),
            _ => true,
        });
        debug_assert_eq!(before - self.heap.len(), self.dead, "dead entries miscounted");
        self.dead = 0;
    }

    /// The entry of timer `id` has just been popped: `false` if it was a
    /// cancelled timer's dead entry. Otherwise the timer is due, which ends
    /// it (the caller fires it, or drops it with its crashed owner) — unless
    /// the owner is paused and the caller parks the entry in its backlog,
    /// where the timer stays armed, and cancellable, until
    /// [`EventQueue::unpark`].
    pub fn take_due(&mut self, id: TimerId, park: bool) -> bool {
        let armed = self.is_armed(id);
        if !armed {
            self.dead -= 1;
        } else if park {
            self.timers[id.slot as usize].parked = true;
        } else {
            self.disarm(id);
        }
        armed
    }

    /// A parked entry goes back into the heap at `at`, unless its timer was
    /// cancelled meanwhile.
    pub fn unpark(&mut self, at: SimTime, kind: EventKind) {
        if let EventKind::Timer { id, .. } = kind {
            if !self.is_armed(id) {
                return;
            }
            self.timers[id.slot as usize].parked = false;
        }
        self.push(at, kind);
    }

    /// No timer armed and no dead entry counted: nothing a timer left behind.
    #[cfg(test)]
    pub(crate) fn holds_no_timer(&self) -> bool {
        self.free_timers.len() == self.timers.len() && self.dead == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: NodeId) -> EventKind {
        EventKind::Timer { node, epoch: 0, id: TimerId { slot: 0, generation: 0 }, token: 0 }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), timer(3));
        q.push(SimTime(10), timer(1));
        q.push(SimTime(20), timer(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.at.0).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for node in 0..5 {
            q.push(SimTime(7), timer(node));
        }
        let nodes: Vec<NodeId> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { node, .. } => node,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(nodes, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn peek_time_tracks_head() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime(5), timer(0));
        q.push(SimTime(2), timer(0));
        assert_eq!(q.peek_time(), Some(SimTime(2)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime(5)));
    }
}
