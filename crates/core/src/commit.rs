//! Group-commit controller: the one flush cadence.
//!
//! A fixed flush interval trades throughput against tail latency
//! statically: a short one acks single ops quickly but floods the
//! durability pipe with tiny batches under load; a long one amortizes the
//! fan-out but adds up to a full interval of residual wait to every reply.
//! [`GroupCommitPolicy`] sets the interval from two observed signals:
//!
//! * **arrival rate** (EWMA of admitted ops per µs) — decides whether the
//!   server is idle. An idle server ticks every [`FLUSH_IDLE`], so a lone
//!   op never waits longer than that.
//! * **in-flight ack latency** (EWMA of seal→durable per batch) — paces
//!   flushes under load. One batch per durability round-trip is the group
//!   commit sweet spot: everything that arrives while the previous batch
//!   commits rides the next seal, so batches grow exactly as fast as the
//!   pipe is slow, and the in-flight window stays bounded even when a gray
//!   standby stretches acks by orders of magnitude.
//!
//! The loaded interval is clamped to `[FLUSH_MIN, FLUSH_MAX]`. The policy
//! is pure bookkeeping — no clocks, no I/O — so it is unit-testable in
//! isolation and deterministic under simulation.

use mams_sim::Duration;

/// Smoothing horizon for the arrival-rate EWMA (µs). One tick's weight is
/// `elapsed / RATE_TAU`, so bursts are visible within a few milliseconds
/// while a single stray op decays quickly.
const RATE_TAU_US: f64 = 20_000.0;

/// Fixed smoothing factor for the per-batch ack-latency EWMA.
const ACK_ALPHA: f64 = 0.25;

/// Expected admissions per [`FLUSH_IDLE`] below which the server counts as
/// idle (with an empty backlog).
const IDLE_OPS_PER_TICK: f64 = 0.5;

/// Flush cadence of an idle server, and of every member that is not the
/// active.
pub(crate) const FLUSH_IDLE: Duration = Duration::from_millis(2);
/// Shortest loaded flush interval (latency floor).
pub(crate) const FLUSH_MIN: Duration = Duration::from_micros(250);
/// Longest loaded flush interval (batching ceiling when the durability
/// pipe is slow). Also bounds the drain budget a single tick may spend, so
/// a late tick cannot burst past the CPU model.
pub(crate) const FLUSH_MAX: Duration = Duration::from_millis(8);

/// Flush-cadence controller (see module docs).
#[derive(Debug, Clone)]
pub struct GroupCommitPolicy {
    /// EWMA of the admission rate, in ops per µs.
    rate_per_us: f64,
    /// EWMA of batch durability latency (seal → last ack), in µs.
    ack_us: f64,
}

impl Default for GroupCommitPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl GroupCommitPolicy {
    pub fn new() -> Self {
        // Optimistic start: flush fast until the first ack says otherwise.
        GroupCommitPolicy { rate_per_us: 0.0, ack_us: FLUSH_MIN.micros() as f64 }
    }

    /// Record one drain tick: `arrived` ops were admitted over `elapsed`.
    pub fn observe_tick(&mut self, arrived: u64, elapsed: Duration) {
        let us = (elapsed.micros() as f64).max(1.0);
        let alpha = (us / RATE_TAU_US).min(1.0);
        let inst = arrived as f64 / us;
        self.rate_per_us += alpha * (inst - self.rate_per_us);
    }

    /// Record one batch reaching durability `latency` after its seal.
    pub fn observe_ack(&mut self, latency: Duration) {
        let us = (latency.micros() as f64).max(1.0);
        self.ack_us += ACK_ALPHA * (us - self.ack_us);
    }

    /// The interval until the next drain-and-flush tick. `backlog` is the
    /// number of ops still queued after the current drain.
    pub fn next_interval(&self, backlog: usize) -> Duration {
        if backlog == 0 && self.rate_per_us * (FLUSH_IDLE.micros() as f64) < IDLE_OPS_PER_TICK {
            // Idle: no extra timer traffic.
            return FLUSH_IDLE;
        }
        let (min, max) = (FLUSH_MIN.micros() as f64, FLUSH_MAX.micros() as f64);
        Duration::from_micros(self.ack_us.clamp(min, max) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_keeps_the_base_cadence() {
        let mut p = GroupCommitPolicy::new();
        for _ in 0..100 {
            p.observe_tick(0, Duration::from_millis(2));
        }
        assert_eq!(p.next_interval(0), Duration::from_millis(2));
    }

    #[test]
    fn loaded_fast_pipe_flushes_at_the_floor() {
        let mut p = GroupCommitPolicy::new();
        // Sustained traffic, acks faster than the floor.
        for _ in 0..200 {
            p.observe_tick(40, Duration::from_millis(2));
            p.observe_ack(Duration::from_micros(100));
        }
        assert_eq!(p.next_interval(10), Duration::from_micros(250));
    }

    #[test]
    fn interval_tracks_the_ack_round_trip_under_load() {
        let mut p = GroupCommitPolicy::new();
        for _ in 0..200 {
            p.observe_tick(40, Duration::from_millis(2));
            p.observe_ack(Duration::from_micros(900));
        }
        let us = p.next_interval(10).micros();
        assert!((800..=1000).contains(&us), "interval {us}µs should track the ~900µs ack EWMA");
    }

    #[test]
    fn slow_acks_are_clamped_at_the_ceiling() {
        let mut p = GroupCommitPolicy::new();
        for _ in 0..50 {
            p.observe_tick(40, Duration::from_millis(2));
            p.observe_ack(Duration::from_millis(400)); // gray standby
        }
        assert_eq!(p.next_interval(100), Duration::from_millis(8));
    }

    #[test]
    fn interval_is_monotone_in_ack_latency() {
        let mut prev = Duration::ZERO;
        for ack_us in [100u64, 400, 900, 2000, 5000, 20_000] {
            let mut p = GroupCommitPolicy::new();
            for _ in 0..100 {
                p.observe_tick(40, Duration::from_millis(2));
                p.observe_ack(Duration::from_micros(ack_us));
            }
            let i = p.next_interval(5);
            assert!(i >= prev, "ack {ack_us}µs -> {i:?} must not shrink below {prev:?}");
            prev = i;
        }
    }

    #[test]
    fn backlog_forces_the_busy_path_even_at_low_rate() {
        let mut p = GroupCommitPolicy::new();
        for _ in 0..100 {
            p.observe_tick(0, Duration::from_millis(2));
            p.observe_ack(Duration::from_micros(300));
        }
        // Queued work means the next tick comes at the ack pace, not the
        // idle cadence.
        assert!(p.next_interval(3) < Duration::from_millis(2));
    }

    #[test]
    fn a_light_closed_loop_client_gets_the_fast_cadence() {
        let mut p = GroupCommitPolicy::new();
        // ~1 op/ms: far from saturation, but well above the idle threshold.
        for _ in 0..200 {
            p.observe_tick(2, Duration::from_millis(2));
            p.observe_ack(Duration::from_micros(120));
        }
        assert_eq!(p.next_interval(0), Duration::from_micros(250));
    }

    #[test]
    fn rate_ewma_decays_back_to_idle() {
        let mut p = GroupCommitPolicy::new();
        for _ in 0..50 {
            p.observe_tick(40, Duration::from_millis(2));
        }
        assert_eq!(p.next_interval(0), FLUSH_MIN, "busy: paced by the ack latency");
        for _ in 0..200 {
            p.observe_tick(0, Duration::from_millis(2));
        }
        assert_eq!(p.next_interval(0), Duration::from_millis(2));
    }
}
