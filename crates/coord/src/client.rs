//! Client-side helper embedded by every coordinated node.
//!
//! Owns the session lifecycle (register + periodic heartbeats) and request
//! numbering; the owner node feeds timers and messages through and receives
//! classified [`Incoming`] values back.

use mams_sim::{Ctx, Duration, Message, NodeId};

use crate::proto::{CoordEvent, CoordReq, CoordResp, KeyOp, ReqId};

/// Timer token reserved for the coordination heartbeat. Owner nodes must
/// not use tokens in the `0xC001_...` range.
pub const COORD_HB_TOKEN: u64 = 0xC001_0000_0000_0001;

/// A classified inbound coordination message.
#[derive(Debug, Clone)]
pub enum Incoming {
    Resp(CoordResp),
    Event(CoordEvent),
}

/// Session + request bookkeeping against one coordination server.
#[derive(Debug)]
pub struct CoordClient {
    coord: NodeId,
    heartbeat: Duration,
    next_req: ReqId,
}

impl CoordClient {
    /// `heartbeat` defaults in the paper's setup to 2 s.
    pub fn new(coord: NodeId, heartbeat: Duration) -> Self {
        CoordClient { coord, heartbeat, next_req: 0 }
    }

    /// The coordination server's node id.
    pub fn coord(&self) -> NodeId {
        self.coord
    }

    /// Open the session and arm the heartbeat timer. Call from `on_start`.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(self.coord, CoordReq::Register);
        ctx.set_timer(self.heartbeat, COORD_HB_TOKEN);
    }

    /// Feed a timer through; returns `true` if it was the heartbeat timer
    /// (owner should not interpret the token further).
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> bool {
        if token == COORD_HB_TOKEN {
            ctx.send(self.coord, CoordReq::Heartbeat);
            ctx.set_timer(self.heartbeat, COORD_HB_TOKEN);
            true
        } else {
            false
        }
    }

    /// Classify an inbound message; returns the original message back when
    /// it is not coordination traffic.
    pub fn classify(msg: Message) -> Result<Incoming, Message> {
        match msg.downcast::<CoordResp>() {
            Ok(r) => Ok(Incoming::Resp(r)),
            Err(m) => match m.downcast::<CoordEvent>() {
                Ok(e) => Ok(Incoming::Event(e)),
                Err(m) => Err(m),
            },
        }
    }

    fn req(&mut self) -> ReqId {
        self.next_req += 1;
        self.next_req
    }

    /// Re-open the session (after `CoordResp::NoSession` or
    /// `CoordEvent::SessionExpired`).
    pub fn reregister(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(self.coord, CoordReq::Register);
    }

    /// Atomically apply key operations.
    pub fn multi(&mut self, ctx: &mut Ctx<'_>, ops: Vec<KeyOp>) -> ReqId {
        let req = self.req();
        ctx.send(self.coord, CoordReq::Multi { ops, req });
        req
    }

    /// Convenience: set one key.
    pub fn set(
        &mut self,
        ctx: &mut Ctx<'_>,
        key: impl Into<String>,
        value: impl Into<String>,
        ephemeral: bool,
    ) -> ReqId {
        self.multi(ctx, vec![KeyOp::Set { key: key.into(), value: value.into(), ephemeral }])
    }

    pub fn get(&mut self, ctx: &mut Ctx<'_>, key: impl Into<String>) -> ReqId {
        let req = self.req();
        ctx.send(self.coord, CoordReq::Get { key: key.into(), req });
        req
    }

    pub fn list(&mut self, ctx: &mut Ctx<'_>, prefix: impl Into<String>) -> ReqId {
        let req = self.req();
        ctx.send(self.coord, CoordReq::List { prefix: prefix.into(), req });
        req
    }

    pub fn watch(&mut self, ctx: &mut Ctx<'_>, prefix: impl Into<String>) -> ReqId {
        let req = self.req();
        ctx.send(self.coord, CoordReq::Watch { prefix: prefix.into(), req });
        req
    }

    pub fn acquire_lock(&mut self, ctx: &mut Ctx<'_>, path: impl Into<String>) -> ReqId {
        let req = self.req();
        ctx.send(self.coord, CoordReq::AcquireLock { path: path.into(), req });
        req
    }

    /// `epoch` must be the grant epoch being released; stale duplicates of
    /// this request are ignored by the server (see [`CoordReq::ReleaseLock`]).
    pub fn release_lock(
        &mut self,
        ctx: &mut Ctx<'_>,
        path: impl Into<String>,
        epoch: u64,
    ) -> ReqId {
        let req = self.req();
        ctx.send(self.coord, CoordReq::ReleaseLock { path: path.into(), epoch, req });
        req
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mams_sim::Message;

    #[test]
    fn classify_separates_coord_traffic() {
        let resp = Message::new(CoordResp::Registered);
        assert!(matches!(CoordClient::classify(resp), Ok(Incoming::Resp(CoordResp::Registered))));
        let ev = Message::new(CoordEvent::SessionExpired);
        assert!(matches!(
            CoordClient::classify(ev),
            Ok(Incoming::Event(CoordEvent::SessionExpired))
        ));
        let other = Message::new(42u32);
        let back = CoordClient::classify(other).unwrap_err();
        assert!(back.is::<u32>());
    }

    #[test]
    fn request_ids_are_unique() {
        let mut c = CoordClient::new(0, Duration::from_secs(2));
        let a = c.req();
        let b = c.req();
        assert_ne!(a, b);
    }
}
