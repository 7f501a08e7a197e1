//! Wall-clock paced execution: run a simulated cluster in real time.
//!
//! The protocols are sans-IO, so the same deployment that runs in virtual
//! time for tests and benches can be *paced* against the OS clock for
//! interactive demos and soak runs: each event fires when the wall clock
//! reaches its virtual timestamp (scaled by a speed factor). Determinism is
//! preserved — pacing changes when events execute in wall time, never
//! their order or virtual timestamps.

use std::time::Instant;

use crate::time::{Duration, SimTime};
use crate::world::Sim;

/// Drives a [`Sim`] so that virtual time tracks wall-clock time.
pub struct RealTimePacer {
    sim: Sim,
    /// Virtual microseconds per wall microsecond (1.0 = real time,
    /// 10.0 = 10× fast-forward).
    speed: f64,
    started: Option<(Instant, SimTime)>,
}

impl RealTimePacer {
    pub fn new(sim: Sim) -> Self {
        RealTimePacer { sim, speed: 1.0, started: None }
    }

    /// Set the fast-forward factor (must be positive).
    pub fn with_speed(mut self, speed: f64) -> Self {
        assert!(speed > 0.0 && speed.is_finite(), "speed must be positive");
        self.speed = speed;
        self
    }

    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Run for `virtual_span` of virtual time, sleeping so that events fire
    /// at their wall-clock moments. Returns the number of events processed.
    pub fn run_for(&mut self, virtual_span: Duration) -> u64 {
        let (epoch_wall, epoch_virtual) =
            *self.started.get_or_insert_with(|| (Instant::now(), self.sim.now()));
        let deadline = self.sim.now() + virtual_span;
        let mut processed = 0u64;
        loop {
            // Advance every event whose virtual time has been reached by
            // the (scaled) wall clock.
            let elapsed_wall_us = epoch_wall.elapsed().as_micros() as f64;
            let clock_now =
                epoch_virtual + Duration::from_micros((elapsed_wall_us * self.speed) as u64);
            let horizon = clock_now.min(deadline);
            while self.sim.peek_time().is_some_and(|t| t <= horizon) {
                self.sim.step();
                processed += 1;
            }
            if horizon >= deadline {
                self.sim.run_until(deadline);
                return processed;
            }
            // Sleep until the earlier of: the next event, or the deadline.
            let next_virtual = self.sim.peek_time().unwrap_or(deadline).min(deadline);
            let wall_target_us = (next_virtual - epoch_virtual).micros() as f64 / self.speed;
            let sleep_us = wall_target_us - epoch_wall.elapsed().as_micros() as f64;
            if sleep_us > 0.0 {
                std::thread::sleep(std::time::Duration::from_micros(sleep_us.min(50_000.0) as u64));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Ctx, Message, Node, NodeId};
    use crate::world::SimConfig;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct Ticker {
        count: Arc<AtomicU64>,
    }

    impl Node for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(Duration::from_millis(10), 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
            self.count.fetch_add(1, Ordering::Relaxed);
            ctx.set_timer(Duration::from_millis(10), 1);
        }
        fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Message) {}
    }

    #[test]
    fn paced_run_takes_wall_time_and_preserves_event_count() {
        let count = Arc::new(AtomicU64::new(0));
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node("t", Box::new(Ticker { count: count.clone() }));
        // 100 ms of virtual time at 10x speed ≈ 10 ms of wall time.
        let mut pacer = RealTimePacer::new(sim).with_speed(10.0);
        let wall = Instant::now();
        pacer.run_for(Duration::from_millis(100));
        let took = wall.elapsed();
        assert_eq!(count.load(Ordering::Relaxed), 10, "ticks preserved");
        assert!(took.as_millis() >= 8, "pacing too fast: {took:?}");
        assert!(took.as_millis() < 500, "pacing too slow: {took:?}");
    }

    #[test]
    fn paced_result_matches_pure_virtual_run() {
        fn ticks(paced: bool) -> u64 {
            let count = Arc::new(AtomicU64::new(0));
            let mut sim = Sim::new(SimConfig { seed: 5, ..SimConfig::default() });
            sim.add_node("t", Box::new(Ticker { count: count.clone() }));
            if paced {
                RealTimePacer::new(sim).with_speed(50.0).run_for(Duration::from_millis(200));
            } else {
                sim.run_for(Duration::from_millis(200));
            }
            count.load(Ordering::Relaxed)
        }
        assert_eq!(ticks(true), ticks(false), "pacing must not change behaviour");
    }
}
