//! The same run with and without cancellation.
//!
//! Two sims from one seed: a handful of nodes that tick, arm long timeouts,
//! message each other, and take back a random share of their timeouts before
//! they are due — while the harness pauses, resumes, crashes and restarts
//! nodes. In run A "take back" is [`Ctx::cancel_timer`]; in run B the timer
//! is left to fire and the node ignores it by token, which is what every
//! caller did before the kernel could take a timer back. Everything a node
//! observes must be the same in both: each delivery and each firing that is
//! not ignored, at the same virtual time, in the same order, with the shared
//! rng in the same state afterwards. That is the property that lets a
//! protocol start cancelling its timers without moving a recorded history.
//!
//! Run A's queue must also stay bounded by what is live, which run B's —
//! holding every ignored timer until it is due — does not.
//!
//! Seeded `DetRng`; `PARITY_CASES` scales the case count.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use mams_sim::event::SWEEP_MIN_DEAD;
use mams_sim::{Ctx, DetRng, Duration, Message, Node, NodeId, Sim, SimConfig, SimTime, TimerId};

fn cases() -> u64 {
    std::env::var("PARITY_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
}

const NODES: u32 = 5;
const TICK: u64 = 0;
const RUN: Duration = Duration::from_secs(2);

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Cancel,
    IgnoreByToken,
}

/// What the nodes of one run share with the harness.
#[derive(Default)]
struct Shared {
    /// `(virtual µs, node, what)` of every delivery and non-ignored firing.
    log: Vec<(u64, NodeId, String)>,
    /// Timers armed and not yet fired or taken back (in either mode);
    /// messages sent and not yet delivered. Both only ever over-count what
    /// is live in the kernel (a crashed node's timers and the messages sent
    /// to it stay counted).
    armed: usize,
    in_flight: usize,
}

struct Chatter {
    mode: Mode,
    /// Probability that a tick or a message takes one timeout back.
    take_back: f64,
    shared: Arc<Mutex<Shared>>,
    next_token: u64,
    timeouts: Vec<(u64, TimerId)>,
    ignored: HashSet<u64>,
}

impl Chatter {
    fn log(&self, ctx: &Ctx<'_>, what: String) {
        self.shared.lock().unwrap().log.push((ctx.now().micros(), ctx.id(), what));
    }

    fn arm_timeout(&mut self, ctx: &mut Ctx<'_>) {
        self.next_token += 1;
        let delay = Duration::from_micros(ctx.rng().range(50_000, 500_000));
        let id = ctx.set_timer(delay, self.next_token);
        self.timeouts.push((self.next_token, id));
        self.shared.lock().unwrap().armed += 1;
    }

    fn maybe_take_one_back(&mut self, ctx: &mut Ctx<'_>) {
        if self.timeouts.is_empty() || !ctx.rng().chance(self.take_back) {
            return;
        }
        let (token, id) = self.timeouts.swap_remove(ctx.rng().index(self.timeouts.len()));
        self.shared.lock().unwrap().armed -= 1;
        match self.mode {
            Mode::Cancel => ctx.cancel_timer(id),
            Mode::IgnoreByToken => {
                self.ignored.insert(token);
            }
        }
    }

    fn maybe_send(&mut self, ctx: &mut Ctx<'_>, p: f64) {
        if ctx.rng().chance(p) {
            let peer = ctx.rng().below(u64::from(NODES)) as NodeId;
            if peer != ctx.id() {
                let payload = ctx.rng().next_u64();
                ctx.send(peer, payload);
                self.shared.lock().unwrap().in_flight += 1;
            }
        }
    }
}

impl Node for Chatter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.log(ctx, "start".into());
        ctx.set_timer(Duration::from_millis(1), TICK);
        self.shared.lock().unwrap().armed += 1;
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.ignored.remove(&token) {
            // Run B's stand-in for a cancelled timer: no trace, no draw.
            return;
        }
        self.shared.lock().unwrap().armed -= 1;
        if token != TICK {
            self.timeouts.retain(|(t, _)| *t != token);
            self.log(ctx, format!("timeout {token}"));
            return;
        }
        self.log(ctx, "tick".into());
        let next = Duration::from_micros(ctx.rng().range(1_000, 5_000));
        ctx.set_timer(next, TICK);
        self.shared.lock().unwrap().armed += 1;
        self.arm_timeout(ctx);
        self.maybe_take_one_back(ctx);
        self.maybe_send(ctx, 0.3);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        let payload = msg.downcast::<u64>().expect("only u64s are sent");
        if from != mams_sim::node::EXTERNAL {
            self.shared.lock().unwrap().in_flight -= 1;
        }
        // The rng's next value goes into the log too: the streams of the two
        // runs are compared at every delivery, not only at the end.
        let draw = ctx.rng().next_u64();
        self.log(ctx, format!("msg {payload} from {from}, rng {draw}"));
        self.maybe_take_one_back(ctx);
        self.maybe_send(ctx, 0.3);
    }
}

struct Outcome {
    log: Vec<(u64, NodeId, String)>,
    peak_queued: usize,
    /// Largest excess of `queued_events()` over the bound the sweep promises:
    /// what is live, and as many dead entries as were ever live at once (or
    /// `SWEEP_MIN_DEAD`).
    peak_over_bound: isize,
}

fn run(seed: u64, mode: Mode) -> Outcome {
    // The harness's own choices come from a stream both runs share.
    let mut plan = DetRng::seed_from_u64(seed ^ 0x5eed);
    let take_back = 0.3 + 0.65 * plan.f64();
    let shared = Arc::new(Mutex::new(Shared::default()));
    let mut sim = Sim::new(SimConfig { seed, trace: false, ..SimConfig::default() });
    for n in 0..NODES {
        let shared = shared.clone();
        sim.add_restartable(format!("n{n}"), move || {
            Box::new(Chatter {
                mode,
                take_back,
                shared: shared.clone(),
                next_token: TICK,
                timeouts: Vec::new(),
                ignored: HashSet::new(),
            })
        });
    }
    // Two pauses and a crash, each over within the first 1.6 s; the victims
    // differ, so no node is crashed while paused by accident of the draw
    // (the kernel's own tests cover that corner).
    let mut controls = 0;
    for (victim, crash) in [(1, false), (2, false), (3, true)] {
        let from = SimTime(plan.range(100_000, 1_200_000));
        let to = from + Duration::from_micros(plan.range(10_000, 400_000));
        if crash {
            sim.at(from, move |s| s.crash(victim));
            sim.at(to, move |s| s.restart(victim));
        } else {
            sim.at(from, move |s| s.pause(victim));
            sim.at(to, move |s| s.resume(victim));
        }
        controls += 2;
    }
    // Last, one delivery to a node that is up: its log line carries the
    // state of the rng after everything else.
    sim.at(SimTime::ZERO + RUN, |s| s.send_external(0, 0u64));
    controls += 1;

    let (mut peak_queued, mut peak_live, mut peak_over_bound) = (0, 0, isize::MIN);
    let end = SimTime::ZERO + RUN + Duration::from_millis(1);
    while sim.peek_time().is_some_and(|t| t <= end) {
        sim.step();
        let queued = sim.queued_events();
        let live = {
            let s = shared.lock().unwrap();
            s.armed + s.in_flight + controls
        };
        peak_queued = peak_queued.max(queued);
        // Dead entries are counted against live ones when a timer is
        // cancelled; until the next cancel, live ones may fire and leave.
        peak_live = peak_live.max(live);
        let bound = live + peak_live.max(SWEEP_MIN_DEAD);
        peak_over_bound = peak_over_bound.max(queued as isize - bound as isize);
    }
    let log = std::mem::take(&mut shared.lock().unwrap().log);
    Outcome { log, peak_queued, peak_over_bound }
}

#[test]
fn a_run_that_cancels_is_the_run_that_ignores() {
    let mut sweeps_were_needed = 0;
    for case in 0..cases() {
        let seed = 0xCA9CE1 + case;
        let a = run(seed, Mode::Cancel);
        let b = run(seed, Mode::IgnoreByToken);
        assert!(a.log.len() > 1_000, "seed {seed:#x}: the run is not trivial ({})", a.log.len());
        if let Some(at) = (0..a.log.len().max(b.log.len())).find(|&i| a.log.get(i) != b.log.get(i))
        {
            panic!(
                "seed {seed:#x}: the runs part at entry {at}: cancelling saw {:?}, ignoring saw {:?}",
                a.log.get(at),
                b.log.get(at)
            );
        }
        assert!(
            a.peak_over_bound <= 0,
            "seed {seed:#x}: the queue held {} entries over its bound",
            a.peak_over_bound
        );
        assert!(a.peak_queued <= b.peak_queued, "seed {seed:#x}");
        sweeps_were_needed += usize::from(b.peak_over_bound > 0);
    }
    // The bound has teeth: left to fire, the same timers break it.
    assert!(sweeps_were_needed * 2 > cases() as usize, "{sweeps_were_needed} of {}", cases());
}
