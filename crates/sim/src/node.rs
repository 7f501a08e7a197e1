//! The sans-IO protocol interface: [`Node`], [`Ctx`], and type-erased
//! [`Message`]s.
//!
//! A protocol participant (metadata server, coordination server, data
//! server, client driver, …) implements [`Node`]. It owns only its local
//! state; every externally visible effect goes through the [`Ctx`] handle the
//! kernel passes to each callback. This keeps protocol code independent of
//! the runtime that drives it.

use std::any::Any;
use std::fmt;

use crate::rng::DetRng;
use crate::time::{Duration, SimTime};
use crate::trace::Event;
use crate::world::Kernel;

/// Identifies a node in the simulated cluster. Dense small integers; assigned
/// by [`crate::Sim::add_node`] in registration order.
pub type NodeId = u32;

/// Reserved pseudo-sender for messages injected from outside the cluster
/// (test harnesses, fault injectors).
pub const EXTERNAL: NodeId = u32::MAX;

/// Handle to a pending timer, usable for cancellation: a row of the kernel's
/// timer table and the generation the row had when the timer was armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId {
    pub(crate) slot: u32,
    pub(crate) generation: u32,
}

/// Object-safe super-trait for type-erased message payloads.
///
/// Blanket-implemented for every `'static + Send + Debug + Clone` type, so
/// protocol crates simply define plain structs/enums and send them. `Clone`
/// is required so the network can duplicate messages in flight (chaos
/// injection); wire-like payloads are cheaply cloneable by construction.
pub trait AnyMessage: Any + Send + fmt::Debug {
    fn as_any(&self) -> &dyn Any;
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
    fn clone_boxed(&self) -> Box<dyn AnyMessage>;
}

impl<T: Any + Send + fmt::Debug + Clone> AnyMessage for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
    fn clone_boxed(&self) -> Box<dyn AnyMessage> {
        Box::new(self.clone())
    }
}

/// A type-erased message in flight.
pub struct Message(pub Box<dyn AnyMessage>);

impl Message {
    /// Wrap a concrete payload.
    pub fn new<T: AnyMessage>(payload: T) -> Message {
        Message(Box::new(payload))
    }

    /// Borrow the payload as `T` if it has that type.
    ///
    /// Note the explicit deref: calling `as_any` directly on the `Box`
    /// would resolve to the blanket impl *for the box itself* and report the
    /// wrong type id.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        (*self.0).as_any().downcast_ref::<T>()
    }

    /// Consume the message, recovering the payload as `T`.
    ///
    /// Returns `Err(self)` unchanged when the type does not match, so
    /// dispatchers can try several protocol enums in sequence.
    pub fn downcast<T: Any>(self) -> Result<T, Message> {
        if self.is::<T>() {
            Ok(*self.0.into_any().downcast::<T>().expect("checked above"))
        } else {
            Err(self)
        }
    }

    /// Whether the payload is a `T`.
    pub fn is<T: Any>(&self) -> bool {
        (*self.0).as_any().is::<T>()
    }

    /// Deep-copy the message (network duplication).
    pub fn duplicate(&self) -> Message {
        Message((*self.0).clone_boxed())
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// A protocol participant.
///
/// Callbacks are invoked by the driving runtime ([`crate::Sim`]). All methods
/// default to no-ops except [`Node::on_message`], which every node must
/// handle.
///
/// `Any` is a supertrait so a harness can read a node's state back by its
/// concrete type ([`crate::Sim::node`]).
pub trait Node: Any + Send {
    /// Invoked once when the node starts (either at simulation start or on
    /// restart after a crash). Typical use: arm heartbeat timers, register
    /// with the coordination service.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A message arrived from `from`.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message);

    /// A timer armed via [`Ctx::set_timer`] fired. `token` is the caller's
    /// semantic tag.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
}

/// The capability handle through which a node interacts with the world.
///
/// Lives only for the duration of one callback.
pub struct Ctx<'a> {
    pub(crate) kernel: &'a mut Kernel,
    pub(crate) id: NodeId,
}

impl<'a> Ctx<'a> {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Send a message to `dst`. Latency is sampled from the network model;
    /// the message is silently dropped if the link is cut or the destination
    /// is down at delivery time (like a real datagram).
    pub fn send<T: AnyMessage>(&mut self, dst: NodeId, payload: T) {
        let msg = Message::new(payload);
        self.kernel.send_message(self.id, dst, msg);
    }

    /// Send an already-erased message.
    pub fn send_msg(&mut self, dst: NodeId, msg: Message) {
        self.kernel.send_message(self.id, dst, msg);
    }

    /// Arm a one-shot timer `delay` from now. `token` is returned to
    /// [`Node::on_timer`]. Timers are implicitly cancelled when the node
    /// crashes.
    pub fn set_timer(&mut self, delay: Duration, token: u64) -> TimerId {
        self.kernel.set_timer(self.id, delay, token)
    }

    /// Take a pending timer back: it will not fire, and its queue entry is
    /// gone at the latest when a cancel finds cancelled entries outnumbering
    /// live ones. Only the handle is checked, so pass ids this node's own
    /// `set_timer` returned. Cancelling a timer that has fired or was
    /// cancelled before does nothing and leaves nothing behind (the handle's
    /// generation no longer matches anything); cancelling one a crashed
    /// incarnation armed changes nothing a node can see, since it could not
    /// fire. A timer that came due while its node was paused can still be
    /// cancelled: it is left out when the backlog replays at resume, and the
    /// rest replays in arrival order.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.kernel.queue.cancel_timer(id);
    }

    /// Deterministic random source shared by the whole simulation.
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.kernel.rng
    }

    /// Record a trace event. With tracing off `event` is never called, so
    /// nothing is built.
    pub fn trace<E: Event>(&mut self, event: impl FnOnce() -> E) {
        self.kernel.trace.record(self.kernel.now, self.id, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Clone)]
    struct Ping(u32);
    #[derive(Debug, Clone)]
    struct Pong;

    #[test]
    fn downcast_ref_and_is() {
        let m = Message::new(Ping(7));
        assert!(m.is::<Ping>());
        assert!(!m.is::<Pong>());
        assert_eq!(m.downcast_ref::<Ping>(), Some(&Ping(7)));
        assert!(m.downcast_ref::<Pong>().is_none());
    }

    #[test]
    fn downcast_consumes_or_returns() {
        let m = Message::new(Ping(9));
        let m = match m.downcast::<Pong>() {
            Ok(_) => panic!("wrong type must not downcast"),
            Err(m) => m,
        };
        assert_eq!(m.downcast::<Ping>().unwrap(), Ping(9));
    }

    #[test]
    fn debug_formats_payload() {
        let m = Message::new(Ping(1));
        assert!(format!("{m:?}").contains("Ping"));
    }

    #[test]
    fn duplicate_deep_copies_payload() {
        let m = Message::new(Ping(3));
        let d = m.duplicate();
        assert_eq!(d.downcast_ref::<Ping>(), Some(&Ping(3)));
        // Original untouched.
        assert_eq!(m.downcast::<Ping>().unwrap(), Ping(3));
    }
}
