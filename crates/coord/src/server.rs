//! The coordination server node.

use std::collections::BTreeMap;

use mams_sim::{Ctx, Duration, Event, Message, Node, NodeId, SimTime};

use crate::proto::{CoordEvent, CoordReq, CoordResp, KeyOp};

const T_EXPIRY_SCAN: u64 = 1;

/// Server tuning. Defaults follow the paper's experimental setup: 2 s
/// heartbeats (client side), 5 s session timeout.
#[derive(Debug, Clone, Copy)]
pub struct CoordConfig {
    pub session_timeout: Duration,
    /// How often to sweep for dead sessions (bounds detection latency on
    /// top of the timeout).
    pub expiry_scan: Duration,
}

impl Default for CoordConfig {
    fn default() -> Self {
        CoordConfig {
            session_timeout: Duration::from_secs(5),
            expiry_scan: Duration::from_millis(250),
        }
    }
}

/// What the coordination server records: every change to the global view,
/// every lock grant (with the fencing `epoch` it carries) and release, every
/// session opened or expired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordTrace {
    ViewSet { key: String, value: String },
    ViewDel { key: String },
    LockGranted { path: String, holder: NodeId, epoch: u64 },
    LockFreed { path: String, by_expiry: bool },
    SessionOpened { session: NodeId },
    SessionExpired { session: NodeId },
}

impl Event for CoordTrace {}

#[derive(Debug, Clone)]
struct Entry {
    value: String,
    ephemeral: Option<NodeId>,
}

#[derive(Debug, Default)]
struct LockState {
    holder: Option<NodeId>,
    epoch: u64,
}

/// The global-view / lock / watch service.
pub struct CoordServer {
    cfg: CoordConfig,
    /// Ordered, like `locks`: the expiry scan and `expire_session` iterate
    /// them, and every send is a latency draw from the one rng.
    sessions: BTreeMap<NodeId, SimTime>,
    keys: BTreeMap<String, Entry>,
    locks: BTreeMap<String, LockState>,
    /// (watcher, prefix) pairs; persistent.
    watches: Vec<(NodeId, String)>,
}

impl CoordServer {
    pub fn new(cfg: CoordConfig) -> Self {
        CoordServer {
            cfg,
            sessions: BTreeMap::new(),
            keys: BTreeMap::new(),
            locks: BTreeMap::new(),
            watches: Vec::new(),
        }
    }

    /// The value of `key`, if set (harness hook: read through `Sim::node`).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.keys.get(key).map(|e| e.value.as_str())
    }

    fn watchers_of(&self, key: &str) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .watches
            .iter()
            .filter(|(_, p)| key.starts_with(p.as_str()))
            .map(|(w, _)| *w)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    fn fire_key_event(&self, ctx: &mut Ctx<'_>, key: &str, value: Option<&str>, by_expiry: bool) {
        for w in self.watchers_of(key) {
            ctx.send(
                w,
                CoordEvent::KeyChanged {
                    key: key.to_string(),
                    value: value.map(str::to_string),
                    by_expiry,
                },
            );
        }
    }

    fn apply_key_op(&mut self, ctx: &mut Ctx<'_>, from: NodeId, op: KeyOp, by_expiry: bool) {
        match op {
            KeyOp::Set { key, value, ephemeral } => {
                ctx.trace(|| CoordTrace::ViewSet { key: key.clone(), value: value.clone() });
                self.keys.insert(
                    key.clone(),
                    Entry { value: value.clone(), ephemeral: ephemeral.then_some(from) },
                );
                self.fire_key_event(ctx, &key, Some(&value), by_expiry);
            }
            KeyOp::Delete { key } => {
                if self.keys.remove(&key).is_some() {
                    ctx.trace(|| CoordTrace::ViewDel { key: key.clone() });
                    self.fire_key_event(ctx, &key, None, by_expiry);
                }
            }
            KeyOp::DeleteIfValue { key, value } => {
                if self.keys.get(&key).is_some_and(|e| e.value == value) {
                    self.keys.remove(&key);
                    ctx.trace(|| CoordTrace::ViewDel { key: key.clone() });
                    self.fire_key_event(ctx, &key, None, by_expiry);
                }
            }
        }
    }

    fn release_lock(&mut self, ctx: &mut Ctx<'_>, path: &str, by_expiry: bool) {
        if let Some(lock) = self.locks.get_mut(path) {
            if lock.holder.take().is_some() {
                ctx.trace(|| CoordTrace::LockFreed { path: path.to_string(), by_expiry });
                for w in self.watchers_of(path) {
                    ctx.send(w, CoordEvent::LockFreed { path: path.to_string(), by_expiry });
                }
            }
        }
    }

    fn expire_session(&mut self, ctx: &mut Ctx<'_>, who: NodeId) {
        if self.sessions.remove(&who).is_none() {
            return;
        }
        ctx.trace(|| CoordTrace::SessionExpired { session: who });
        // Drop ephemerals.
        let dead: Vec<String> = self
            .keys
            .iter()
            .filter(|(_, e)| e.ephemeral == Some(who))
            .map(|(k, _)| k.clone())
            .collect();
        for key in dead {
            self.apply_key_op(ctx, who, KeyOp::Delete { key }, true);
        }
        // Release locks.
        let held: Vec<String> = self
            .locks
            .iter()
            .filter(|(_, l)| l.holder == Some(who))
            .map(|(p, _)| p.clone())
            .collect();
        for path in held {
            self.release_lock(ctx, &path, true);
        }
        ctx.send(who, CoordEvent::SessionExpired);
    }

    fn has_session(&self, who: NodeId) -> bool {
        self.sessions.contains_key(&who)
    }
}

impl Node for CoordServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.cfg.expiry_scan, T_EXPIRY_SCAN);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != T_EXPIRY_SCAN {
            return;
        }
        let now = ctx.now();
        let dead: Vec<NodeId> = self
            .sessions
            .iter()
            .filter(|(_, &last)| now.since(last) > self.cfg.session_timeout)
            .map(|(&n, _)| n)
            .collect();
        for n in dead {
            self.expire_session(ctx, n);
        }
        ctx.set_timer(self.cfg.expiry_scan, T_EXPIRY_SCAN);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        let req = match msg.downcast::<CoordReq>() {
            Ok(r) => r,
            Err(_) => return,
        };
        // Any request from a session holder renews the session (ZooKeeper
        // semantics). This keeps the expiry clock aligned with the client's
        // own last-contact clock: the client hears our response a few
        // milliseconds after we hear its request, so a self-fencing lease
        // below `session_timeout` can never fire after our expiry.
        if let Some(last) = self.sessions.get_mut(&from) {
            *last = ctx.now();
        }
        match req {
            CoordReq::Register => {
                self.sessions.insert(from, ctx.now());
                ctx.trace(|| CoordTrace::SessionOpened { session: from });
                ctx.send(from, CoordResp::Registered);
            }
            CoordReq::Heartbeat => {
                if let Some(last) = self.sessions.get_mut(&from) {
                    *last = ctx.now();
                } else {
                    ctx.send(from, CoordResp::NoSession);
                }
            }
            CoordReq::Multi { ops, req } => {
                if !self.has_session(from) {
                    ctx.send(from, CoordResp::NoSession);
                    return;
                }
                for op in ops {
                    self.apply_key_op(ctx, from, op, false);
                }
                ctx.send(from, CoordResp::MultiOk { req });
            }
            CoordReq::Get { key, req } => {
                let value = self.keys.get(&key).map(|e| e.value.clone());
                ctx.send(from, CoordResp::Value { key, value, req });
            }
            CoordReq::List { prefix, req } => {
                let entries: Vec<(String, String)> = self
                    .keys
                    .range(prefix.clone()..)
                    .take_while(|(k, _)| k.starts_with(&prefix))
                    .map(|(k, e)| (k.clone(), e.value.clone()))
                    .collect();
                ctx.send(from, CoordResp::Listing { prefix, entries, req });
            }
            CoordReq::Watch { prefix, req } => {
                if !self.watches.iter().any(|(w, p)| *w == from && *p == prefix) {
                    self.watches.push((from, prefix.clone()));
                }
                ctx.send(from, CoordResp::Watching { prefix, req });
            }
            CoordReq::AcquireLock { path, req } => {
                if !self.has_session(from) {
                    ctx.send(from, CoordResp::NoSession);
                    return;
                }
                let lock = self.locks.entry(path.clone()).or_default();
                match lock.holder {
                    None => {
                        lock.holder = Some(from);
                        lock.epoch += 1;
                        let epoch = lock.epoch;
                        ctx.trace(|| CoordTrace::LockGranted {
                            path: path.clone(),
                            holder: from,
                            epoch,
                        });
                        for w in self.watchers_of(&path) {
                            ctx.send(
                                w,
                                CoordEvent::LockTaken { path: path.clone(), holder: from, epoch },
                            );
                        }
                        ctx.send(from, CoordResp::LockGranted { path, epoch, req });
                    }
                    Some(holder) if holder == from => {
                        let epoch = lock.epoch;
                        ctx.send(from, CoordResp::LockGranted { path, epoch, req });
                    }
                    Some(holder) => {
                        ctx.send(from, CoordResp::LockBusy { path, holder, req });
                    }
                }
            }
            CoordReq::ReleaseLock { path, epoch, req } => {
                // Epoch-fenced: a duplicated or delayed release from an
                // earlier grant must not free a re-acquired lock.
                let is_holder = self
                    .locks
                    .get(&path)
                    .is_some_and(|l| l.holder == Some(from) && l.epoch == epoch);
                if is_holder {
                    self.release_lock(ctx, &path, false);
                }
                ctx.send(from, CoordResp::LockReleased { path, req });
            }
            CoordReq::ForceExpire { victim } => {
                self.expire_session(ctx, victim);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mams_sim::{Sim, SimConfig};
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// Scriptable test client: sends a list of (delay, request) and records
    /// everything it hears back.
    struct Scripted {
        coord: NodeId,
        script: Vec<(Duration, CoordReq)>,
        heartbeats: bool,
        log: Arc<Mutex<Vec<String>>>,
    }

    const T_STEP: u64 = 10;
    const T_HB: u64 = 11;

    impl Node for Scripted {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.coord, CoordReq::Register);
            if let Some((d, _)) = self.script.first() {
                ctx.set_timer(*d, T_STEP);
            }
            if self.heartbeats {
                ctx.set_timer(Duration::from_secs(2), T_HB);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            match token {
                T_STEP if !self.script.is_empty() => {
                    let (_, req) = self.script.remove(0);
                    ctx.send(self.coord, req);
                    if let Some((d, _)) = self.script.first() {
                        ctx.set_timer(*d, T_STEP);
                    }
                }
                T_HB => {
                    ctx.send(self.coord, CoordReq::Heartbeat);
                    ctx.set_timer(Duration::from_secs(2), T_HB);
                }
                _ => {}
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
            let msg = match msg.downcast::<CoordResp>() {
                Ok(r) => {
                    self.log.lock().push(format!("{r:?}"));
                    return;
                }
                Err(m) => m,
            };
            if let Ok(ev) = msg.downcast::<CoordEvent>() {
                self.log.lock().push(format!("EV {ev:?}"));
            }
        }
    }

    fn contains(log: &Arc<Mutex<Vec<String>>>, needle: &str) -> bool {
        log.lock().iter().any(|l| l.contains(needle))
    }

    #[test]
    fn lock_is_exclusive_and_epochs_increase() {
        let mut sim = Sim::new(SimConfig::default());
        let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
        let log_a = Arc::new(Mutex::new(Vec::new()));
        let log_b = Arc::new(Mutex::new(Vec::new()));
        sim.add_node(
            "a",
            Box::new(Scripted {
                coord,
                script: vec![
                    (Duration::from_millis(10), CoordReq::AcquireLock { path: "L".into(), req: 1 }),
                    (
                        Duration::from_millis(500),
                        CoordReq::ReleaseLock { path: "L".into(), epoch: 1, req: 2 },
                    ),
                ],
                heartbeats: true,
                log: log_a.clone(),
            }),
        );
        sim.add_node(
            "b",
            Box::new(Scripted {
                coord,
                script: vec![
                    (
                        Duration::from_millis(100),
                        CoordReq::AcquireLock { path: "L".into(), req: 1 },
                    ),
                    (
                        Duration::from_millis(900),
                        CoordReq::AcquireLock { path: "L".into(), req: 2 },
                    ),
                ],
                heartbeats: true,
                log: log_b.clone(),
            }),
        );
        sim.run_for(Duration::from_secs(3));
        assert!(contains(&log_a, "LockGranted { path: \"L\", epoch: 1"));
        assert!(contains(&log_b, "LockBusy"), "b's early attempt must be refused");
        assert!(
            contains(&log_b, "LockGranted { path: \"L\", epoch: 2"),
            "b gets it after release, with a higher epoch"
        );
    }

    #[test]
    fn session_expiry_releases_locks_and_ephemerals_and_fires_watches() {
        let mut sim = Sim::new(SimConfig::default());
        let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
        let log_dead = Arc::new(Mutex::new(Vec::new()));
        let log_watcher = Arc::new(Mutex::new(Vec::new()));
        // This client takes the lock and an ephemeral key, then goes silent
        // (no heartbeats) — like a crashed active.
        sim.add_node(
            "dying",
            Box::new(Scripted {
                coord,
                script: vec![
                    (
                        Duration::from_millis(10),
                        CoordReq::AcquireLock { path: "g/0/lock".into(), req: 1 },
                    ),
                    (
                        Duration::from_millis(10),
                        CoordReq::Multi {
                            ops: vec![KeyOp::Set {
                                key: "g/0/active".into(),
                                value: "n1".into(),
                                ephemeral: true,
                            }],
                            req: 2,
                        },
                    ),
                ],
                heartbeats: false,
                log: log_dead.clone(),
            }),
        );
        sim.add_node(
            "watcher",
            Box::new(Scripted {
                coord,
                script: vec![(
                    Duration::from_millis(5),
                    CoordReq::Watch { prefix: "g/0/".into(), req: 1 },
                )],
                heartbeats: true,
                log: log_watcher.clone(),
            }),
        );
        sim.run_for(Duration::from_secs(8));
        // Expiry happens after ~5s: watcher sees lock freed + key deleted.
        assert!(contains(&log_watcher, "LockFreed"), "{:?}", log_watcher.lock());
        assert!(contains(
            &log_watcher,
            "KeyChanged { key: \"g/0/active\", value: None, by_expiry: true"
        ));
        assert!(contains(&log_dead, "SessionExpired"));
    }

    #[test]
    fn heartbeats_keep_session_alive() {
        let mut sim = Sim::new(SimConfig::default());
        let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
        let log = Arc::new(Mutex::new(Vec::new()));
        sim.add_node(
            "steady",
            Box::new(Scripted {
                coord,
                script: vec![(
                    Duration::from_millis(10),
                    CoordReq::AcquireLock { path: "L".into(), req: 1 },
                )],
                heartbeats: true,
                log: log.clone(),
            }),
        );
        sim.run_for(Duration::from_secs(20));
        assert!(contains(&log, "LockGranted"));
        assert!(!contains(&log, "SessionExpired"), "heartbeating session must survive");
    }

    #[test]
    fn multi_and_list_round_trip() {
        let mut sim = Sim::new(SimConfig::default());
        let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
        let log = Arc::new(Mutex::new(Vec::new()));
        sim.add_node(
            "c",
            Box::new(Scripted {
                coord,
                script: vec![
                    (
                        Duration::from_millis(10),
                        CoordReq::Multi {
                            ops: vec![
                                KeyOp::Set {
                                    key: "g/0/state/1".into(),
                                    value: "A".into(),
                                    ephemeral: false,
                                },
                                KeyOp::Set {
                                    key: "g/0/state/2".into(),
                                    value: "S".into(),
                                    ephemeral: false,
                                },
                                KeyOp::Set {
                                    key: "g/1/state/9".into(),
                                    value: "J".into(),
                                    ephemeral: false,
                                },
                            ],
                            req: 1,
                        },
                    ),
                    (Duration::from_millis(10), CoordReq::List { prefix: "g/0/".into(), req: 2 }),
                    (
                        Duration::from_millis(10),
                        CoordReq::Get { key: "g/1/state/9".into(), req: 3 },
                    ),
                    (
                        Duration::from_millis(10),
                        CoordReq::Multi {
                            ops: vec![KeyOp::Delete { key: "g/1/state/9".into() }],
                            req: 4,
                        },
                    ),
                    (
                        Duration::from_millis(10),
                        CoordReq::Get { key: "g/1/state/9".into(), req: 5 },
                    ),
                ],
                heartbeats: true,
                log: log.clone(),
            }),
        );
        sim.run_for(Duration::from_secs(2));
        let l = log.lock();
        let listing = l.iter().find(|s| s.contains("Listing")).unwrap();
        assert!(listing.contains("g/0/state/1") && listing.contains("g/0/state/2"));
        assert!(!listing.contains("g/1"), "prefix listing must not leak other groups");
        assert!(l.iter().any(|s| s.contains("value: Some(\"J\")") && s.contains("req: 3")));
        assert!(l.iter().any(|s| s.contains("value: None") && s.contains("req: 5")));
    }

    #[test]
    fn operations_without_session_are_refused() {
        let mut sim = Sim::new(SimConfig::default());
        let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
        // Inject a lock attempt without registering first.
        sim.send_external(coord, CoordReq::Heartbeat);
        sim.run_for(Duration::from_secs(1));
        // No panic and no grant recorded.
        let mut events = sim.trace().of::<CoordTrace>();
        assert!(!events.any(|(_, _, e)| matches!(e, CoordTrace::LockGranted { .. })));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::proto::{CoordEvent, CoordReq, CoordResp};
    use mams_sim::{Ctx, Message, Node, NodeId, Sim, SimConfig};
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// Records everything; sends whatever the controller injects.
    struct Probe {
        log: Arc<Mutex<Vec<String>>>,
    }

    impl Node for Probe {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
            if let Some(r) = msg.downcast_ref::<CoordResp>() {
                self.log.lock().push(format!("{r:?}"));
            } else if let Some(e) = msg.downcast_ref::<CoordEvent>() {
                self.log.lock().push(format!("EV {e:?}"));
            }
        }
    }

    fn world() -> (Sim, NodeId, NodeId, Arc<Mutex<Vec<String>>>) {
        let mut sim = Sim::new(SimConfig::default());
        let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
        let log = Arc::new(Mutex::new(Vec::new()));
        let probe = sim.add_node("probe", Box::new(Probe { log: log.clone() }));
        (sim, coord, probe, log)
    }

    /// Forwarding variant of the probe used by tests that need `from` to be
    /// a live session holder.
    struct Forwarder {
        coord: NodeId,
        script: Vec<CoordReq>,
        log: Arc<Mutex<Vec<String>>>,
    }

    impl Node for Forwarder {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            // Stagger the script so requests arrive in order (independent
            // per-message jitter can otherwise reorder them).
            for i in 0..self.script.len() {
                ctx.set_timer(mams_sim::Duration::from_millis(20 * (i as u64 + 1)), i as u64);
            }
            ctx.set_timer(mams_sim::Duration::from_secs(2), 99);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, t: u64) {
            if t == 99 {
                ctx.send(self.coord, CoordReq::Heartbeat);
                ctx.set_timer(mams_sim::Duration::from_secs(2), 99);
            } else if let Some(req) = self.script.get(t as usize).cloned() {
                ctx.send(self.coord, req);
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
            if let Some(r) = msg.downcast_ref::<CoordResp>() {
                self.log.lock().push(format!("{r:?}"));
            } else if let Some(e) = msg.downcast_ref::<CoordEvent>() {
                self.log.lock().push(format!("EV {e:?}"));
            }
        }
    }

    #[test]
    fn force_expire_of_unknown_session_is_a_noop() {
        let (mut sim, coord, _probe, _log) = world();
        sim.send_external(coord, CoordReq::ForceExpire { victim: 999 });
        sim.run_for(mams_sim::Duration::from_secs(1));
        let mut events = sim.trace().of::<CoordTrace>();
        assert!(!events.any(|(_, _, e)| matches!(e, CoordTrace::SessionExpired { .. })));
    }

    #[test]
    fn reacquiring_a_held_lock_returns_the_same_epoch() {
        let mut sim = Sim::new(SimConfig::default());
        let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
        let log = Arc::new(Mutex::new(Vec::new()));
        sim.add_node(
            "f",
            Box::new(Forwarder {
                coord,
                script: vec![
                    CoordReq::Register,
                    CoordReq::AcquireLock { path: "L".into(), req: 1 },
                    CoordReq::AcquireLock { path: "L".into(), req: 2 },
                ],
                log: log.clone(),
            }),
        );
        sim.run_for(mams_sim::Duration::from_secs(1));
        let grants: Vec<String> =
            log.lock().iter().filter(|l| l.contains("LockGranted")).cloned().collect();
        assert_eq!(grants.len(), 2, "{grants:?}");
        assert!(
            grants.iter().all(|g| g.contains("epoch: 1")),
            "re-grant must not bump the epoch: {grants:?}"
        );
    }

    #[test]
    fn watches_survive_session_expiry_and_reregistration() {
        let mut sim = Sim::new(SimConfig::default());
        let coord = sim.add_node("coord", Box::new(CoordServer::new(CoordConfig::default())));
        let log = Arc::new(Mutex::new(Vec::new()));
        sim.add_node(
            "w",
            Box::new(Forwarder {
                coord,
                script: vec![
                    CoordReq::Register,
                    CoordReq::Watch { prefix: "k/".into(), req: 1 },
                    // Kill our own session, then come back.
                    CoordReq::ForceExpire { victim: 1 },
                    CoordReq::Register,
                    CoordReq::Multi {
                        ops: vec![KeyOp::Set {
                            key: "k/x".into(),
                            value: "1".into(),
                            ephemeral: false,
                        }],
                        req: 2,
                    },
                ],
                log: log.clone(),
            }),
        );
        sim.run_for(mams_sim::Duration::from_secs(2));
        let l = log.lock();
        assert!(
            l.iter().any(|s| s.contains("KeyChanged") && s.contains("k/x")),
            "watch must still fire after re-registration: {l:?}"
        );
    }
}
