//! Declarative fault scenarios.
//!
//! A [`Scenario`] is a cluster shape + a contended workload + a *fault
//! program*: a list of timed [`FaultAction`]s, each a
//! [`mams_cluster::faults::FaultKind`] over symbolic
//! [`NodeRef`]s that resolve when the fault fires, carrying its own end (a
//! crash its restart, a pause its resume, a cut its heal). Programs are
//! data, not code — the engine injects each action through
//! [`mams_cluster::faults::inject`], which is what makes failing programs
//! shrinkable (drop an action and its end goes with it, rerun) and
//! reportable (print the minimal witness).

use mams_cluster::faults::{FaultAction, FaultKind, NodeRef};
use mams_cluster::Workload;
use mams_core::MdsTiming;
use mams_sim::{DetRng, Duration};

/// A complete declarative scenario.
#[derive(Clone)]
pub struct Scenario {
    pub name: &'static str,
    pub about: &'static str,
    /// Replica groups (actives).
    pub groups: u32,
    /// Hot standbys per group.
    pub standbys: usize,
    /// Cold juniors per group.
    pub juniors: usize,
    /// Closed-loop clients, all hammering the same key set.
    pub clients: u32,
    /// Contended keys (paths `/hot/fK` + `/hot/gK`).
    pub keys: u64,
    /// Per-client pause between operations (bounds history size while the
    /// fault window stays covered).
    pub think_ms: u64,
    /// Main phase length; cleanup + grace follow.
    pub run_secs: u64,
    /// Timing overrides (e.g. fast checkpoints for image scenarios).
    pub tune: fn(MdsTiming) -> MdsTiming,
    /// Per-client workload, by client boot index (scenarios can mix e.g.
    /// read-heavy observers with mutation-heavy writers on the same keys).
    pub workload: fn(u32, u64) -> Workload,
    /// The fault program, seeded so each campaign seed jitters times.
    pub faults: fn(&mut DetRng) -> Vec<FaultAction>,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("groups", &self.groups)
            .field("standbys", &self.standbys)
            .field("juniors", &self.juniors)
            .field("clients", &self.clients)
            .field("run_secs", &self.run_secs)
            .finish()
    }
}

fn base(name: &'static str, about: &'static str) -> Scenario {
    Scenario {
        name,
        about,
        groups: 1,
        standbys: 2,
        juniors: 0,
        clients: 4,
        keys: 6,
        think_ms: 40,
        run_secs: 50,
        tune: |t| t,
        workload: |_, keys| Workload::shared_hot(keys),
        faults: |_| Vec::new(),
    }
}

/// Jitter `base_ms` by up to ±`spread_ms` (seeded).
fn jitter(rng: &mut DetRng, base_ms: u64, spread_ms: u64) -> u64 {
    (base_ms + rng.below(2 * spread_ms + 1)).saturating_sub(spread_ms)
}

const A0: NodeRef = NodeRef::Active { group: 0 };
const B0: NodeRef = NodeRef::BackupOf { group: 0 };

/// Crash group 0's active and restart that node `restart_ms` later.
fn crash_a0(restart_ms: u64) -> FaultKind {
    FaultKind::Crash { node: A0, restart_ms: Some(restart_ms) }
}

/// The built-in scenario corpus, in rough order of severity.
pub fn corpus() -> Vec<Scenario> {
    let mut v = Vec::new();

    v.push(Scenario {
        about: "crash the active mid-load, restart it later, crash the \
                successor too",
        faults: |r| {
            let t1 = jitter(r, 10_000, 3_000);
            let t2 = jitter(r, 30_000, 4_000);
            vec![FaultAction::at(t1, crash_a0(12_000)), FaultAction::at(t2, crash_a0(12_000))]
        },
        ..base("failover_crash", "")
    });

    v.push(Scenario {
        about: "partition the active away from everyone during load; heal; \
                repeat against the successor",
        faults: |r| {
            let t1 = jitter(r, 10_000, 3_000);
            let t2 = jitter(r, 32_000, 4_000);
            let everyone =
                vec![NodeRef::Coord, NodeRef::Pool(0), NodeRef::Pool(1), NodeRef::Pool(2), B0];
            vec![
                FaultAction::at(
                    t1,
                    FaultKind::Partition {
                        a: vec![A0],
                        b: everyone.clone(),
                        heal_ms: Some(10_000),
                    },
                ),
                FaultAction::at(
                    t2,
                    FaultKind::Partition { a: vec![A0], b: everyone, heal_ms: Some(10_000) },
                ),
            ]
        },
        ..base("failover_partition", "")
    });

    v.push(Scenario {
        about: "a standby turns gray-slow (25x latency), then the active \
                dies and failover must work around or through it",
        faults: |r| {
            let t1 = jitter(r, 6_000, 2_000);
            vec![
                FaultAction::at(
                    t1,
                    FaultKind::SlowNode { node: B0, factor: 25.0, clear_ms: Some(30_000) },
                ),
                FaultAction::at(t1 + 8_000, crash_a0(14_000)),
            ]
        },
        ..base("gray_slow_standby", "")
    });

    v.push(Scenario {
        about: "sustained 15% loss + 5% duplication network-wide, across a \
                failover",
        faults: |r| {
            let t1 = jitter(r, 5_000, 2_000);
            let tc = jitter(r, 18_000, 3_000);
            let clear_ms = 40_000 - t1;
            vec![
                FaultAction::at(t1, FaultKind::GlobalLoss { p: 0.15, clear_ms }),
                FaultAction::at(t1, FaultKind::GlobalDup { p: 0.05, clear_ms }),
                FaultAction::at(tc, crash_a0(41_000 - tc)),
            ]
        },
        ..base("flaky_network", "")
    });

    v.push(Scenario {
        about: "one-way partition: the active can send to the coordinator \
                but hears nothing back (asymmetric gray link)",
        faults: |r| {
            let t1 = jitter(r, 9_000, 3_000);
            vec![
                FaultAction::at(
                    t1,
                    FaultKind::OneWay {
                        from: vec![NodeRef::Coord],
                        to: vec![A0],
                        heal_ms: Some(12_000),
                    },
                ),
                FaultAction::at(t1 + 20_000, crash_a0(12_000)),
            ]
        },
        ..base("one_way_partition", "")
    });

    v.push(Scenario {
        about: "freeze the active (zombie), let a successor take over, then \
                thaw the zombie — fencing must hold against its stale epoch",
        faults: |r| {
            let t1 = jitter(r, 10_000, 3_000);
            vec![FaultAction::at(t1, FaultKind::Pause { node: A0, resume_ms: 15_000 })]
        },
        ..base("pause_active", "")
    });

    v.push(Scenario {
        juniors: 1,
        tune: |mut t| {
            // Push juniors onto the image path and checkpoint often so a
            // corrupted image is eventually replaced by a fresh one.
            t.renew_image_gap = 64;
            t.checkpoint_interval = Some(Duration::from_secs(8));
            t
        },
        about: "flip a byte in the checkpoint image while a junior is \
                catching up from it; the decoder must reject the damage and \
                recovery must ride the next checkpoint",
        faults: |r| {
            let t1 = jitter(r, 12_000, 3_000);
            vec![
                FaultAction::at(t1, FaultKind::CorruptImage { group: 0 }),
                FaultAction::at(t1 + 9_000, crash_a0(12_000)),
            ]
        },
        ..base("corrupt_catchup", "")
    });

    v.push(Scenario {
        juniors: 1,
        tune: |mut t| {
            // Fast full checkpoints plus an even faster delta cadence, and
            // a low image gap so the renewing junior resolves the manifest
            // chain (base + deltas) rather than journal-only catch-up.
            t.renew_image_gap = 64;
            t.checkpoint_interval = Some(Duration::from_secs(10));
            t.delta_interval = Some(Duration::from_secs(2));
            t
        },
        about: "flip a byte in a mid-chain delta artifact while a junior \
                catches up over the manifest chain; the delta checksum must \
                reject the damage and recovery must fall back down the \
                ladder (journal from the base, or the full image) — never a \
                stuck renewing session, never a divergent replica",
        faults: |r| {
            let t1 = jitter(r, 12_000, 3_000);
            vec![
                FaultAction::at(t1, FaultKind::CorruptDelta { group: 0 }),
                FaultAction::at(t1 + 9_000, crash_a0(12_000)),
            ]
        },
        ..base("delta_corrupt_catchup", "")
    });

    v.push(Scenario {
        juniors: 1,
        tune: |mut t| {
            // Deltas only, every second: the active's chain rule replaces
            // the chain with a full image every tenth tick, whatever a
            // renewing junior is streaming at the time. The restarted
            // member starts streaming three ticks after an image (every
            // timer here is on whole seconds); in 8-byte reads its ~15 KB
            // chain takes about ten seconds, so the next image lands
            // mid-stream.
            t.renew_image_gap = 64;
            t.checkpoint_interval = None;
            t.delta_interval = Some(Duration::from_secs(1));
            t.image_chunk = 8;
            t
        },
        about: "crash the active and restart it while the chain rule keeps \
                superseding the manifest chain with full images: a junior \
                holding a superseded manifest must re-resolve instead of \
                wedging on a dropped artifact, and the successor's first \
                tick must start a chain of its own",
        faults: |r| {
            let t1 = jitter(r, 14_000, 3_000);
            vec![FaultAction::at(t1, crash_a0(18_000))]
        },
        ..base("rechain_during_failover", "")
    });

    v.push(Scenario {
        about: "run the active's clock 3x fast and a standby's 3x slow \
                across a failover (timers fire out of mutual order)",
        faults: |r| {
            let t1 = jitter(r, 6_000, 2_000);
            vec![
                FaultAction::at(t1, FaultKind::ClockSkew { node: A0, factor: 3.0 }),
                FaultAction::at(t1, FaultKind::ClockSkew { node: B0, factor: 0.33 }),
                FaultAction::at(t1 + 10_000, crash_a0(14_000)),
            ]
        },
        ..base("clock_skew", "")
    });

    v.push(Scenario {
        clients: 6,
        run_secs: 60,
        about: "read-heavy observers run concurrently with writers while \
                the active crashes and a standby is promoted, then the \
                successor crashes too — reads served around the promotions \
                must only ever observe durable mutations",
        // Even boot indices observe (mostly getfileinfo), odd ones write
        // the same keys; the linearizability checker then cross-validates
        // every read against the durable write order.
        workload: |i, keys| {
            if i % 2 == 0 {
                Workload::shared_hot_reads(keys)
            } else {
                Workload::shared_hot(keys)
            }
        },
        faults: |r| {
            let t1 = jitter(r, 10_000, 3_000);
            let t2 = jitter(r, 36_000, 4_000);
            vec![FaultAction::at(t1, crash_a0(11_000)), FaultAction::at(t2, crash_a0(11_000))]
        },
        ..base("read_during_promotion", "")
    });

    v.push(Scenario {
        clients: 6,
        keys: 3,
        run_secs: 60,
        about: "maximum rename contention on 3 keys while the active \
                crashes twice — exercises retry reconciliation and the \
                replicated retry window across failovers",
        faults: |r| {
            let t1 = jitter(r, 12_000, 3_000);
            let t2 = jitter(r, 38_000, 4_000);
            vec![FaultAction::at(t1, crash_a0(10_000)), FaultAction::at(t2, crash_a0(10_000))]
        },
        ..base("rename_storm_crash", "")
    });

    v.push(Scenario {
        keys: 4,
        run_secs: 55,
        about: "cut the active's reply path to every client so acked \
                mutations look lost and clients retry with the same seq, \
                then crash the active mid-retry: the successor must answer \
                those retries from the journal-replicated retry window \
                (exact at-most-once), and the history must stay strictly \
                linearizable",
        faults: |r| {
            let t1 = jitter(r, 10_000, 3_000);
            let t2 = jitter(r, 32_000, 3_000);
            vec![
                // Requests still arrive and commit; only the acks vanish.
                FaultAction::at(
                    t1,
                    FaultKind::OneWay {
                        from: vec![A0],
                        to: vec![NodeRef::Clients],
                        heal_ms: Some(9_000),
                    },
                ),
                FaultAction::at(t1 + 4_000, crash_a0(12_000)),
                // Second round against the successor.
                FaultAction::at(
                    t2,
                    FaultKind::OneWay {
                        from: vec![A0],
                        to: vec![NodeRef::Clients],
                        heal_ms: Some(9_000),
                    },
                ),
                FaultAction::at(t2 + 4_000, crash_a0(12_000)),
            ]
        },
        ..base("retry_across_failover", "")
    });

    v.push(Scenario {
        standbys: 1,
        juniors: 1,
        keys: 4,
        run_secs: 60,
        tune: |mut t| {
            // Fast checkpoint + delta cadence and a low image gap so the
            // restarted member renews over the manifest chain (base image
            // + deltas) — the retry window must ride those artifacts, not
            // just live journal replay.
            t.renew_image_gap = 64;
            t.checkpoint_interval = Some(Duration::from_secs(10));
            t.delta_interval = Some(Duration::from_secs(2));
            t
        },
        about: "lose the active's replies so retries pile up, fail over, \
                and let the crashed member restart through the base+delta \
                recovery ladder; when the successor dies too, the promoted \
                junior's retry window — rebuilt from image and delta 'W' \
                sections plus the journal tail — must still answer stale \
                retries exactly-once under strict checking",
        faults: |r| {
            let t1 = jitter(r, 12_000, 2_000);
            vec![
                FaultAction::at(
                    t1,
                    FaultKind::OneWay {
                        from: vec![A0],
                        to: vec![NodeRef::Clients],
                        heal_ms: Some(9_000),
                    },
                ),
                // The ex-active renews as a junior over base+deltas.
                FaultAction::at(t1 + 4_000, crash_a0(10_000)),
                // Second reply cut + crash: promotion now falls to a junior
                // whose window came up the recovery ladder.
                FaultAction::at(
                    t1 + 26_000,
                    FaultKind::OneWay {
                        from: vec![A0],
                        to: vec![NodeRef::Clients],
                        heal_ms: Some(9_000),
                    },
                ),
                FaultAction::at(t1 + 30_000, crash_a0(12_000)),
            ]
        },
        ..base("retry_after_delta_restart", "")
    });

    v.push(Scenario {
        clients: 6,
        run_secs: 60,
        about: "double failover with a restart between the crashes: the \
                first ex-active rejoins as a junior, the second crash \
                takes its successor — nothing acknowledged before either \
                crash may be lost",
        faults: |r| {
            let t1 = jitter(r, 10_000, 3_000);
            let t2 = jitter(r, 36_000, 4_000);
            vec![FaultAction::at(t1, crash_a0(11_000)), FaultAction::at(t2, crash_a0(11_000))]
        },
        ..base("double_failover", "")
    });

    v.push(Scenario {
        clients: 8,
        think_ms: 10,
        run_secs: 50,
        about: "a standby turns gray-slow while the adaptive group-commit \
                controller is pacing batches to its ack latency: the \
                controller must stretch toward its 8 ms ceiling (not spin), \
                durable acks stay strict, and service survives the \
                subsequent active crash",
        faults: |r| {
            let t1 = jitter(r, 8_000, 2_000);
            vec![
                FaultAction::at(
                    t1,
                    FaultKind::SlowNode { node: B0, factor: 15.0, clear_ms: Some(20_000) },
                ),
                FaultAction::at(t1 + 24_000, crash_a0(12_000)),
            ]
        },
        ..base("adaptive_gray_standby", "")
    });

    v.push(Scenario {
        tune: |mut t| {
            t.checkpoint_interval = Some(Duration::from_secs(2));
            t
        },
        about: "cut active → standby one way for 2.5 s — longer than the \
                checkpoint interval, well under the session timeout — so a \
                checkpoint compacts the shared journal past the batches the \
                standby missed: the active must still hold them and re-push \
                them after the heal, or every reply waits on that standby \
                for ever with all nodes up",
        faults: |r| {
            vec![FaultAction::at(
                jitter(r, 15_000, 5_000),
                FaultKind::OneWay { from: vec![A0], to: vec![B0], heal_ms: Some(2_500) },
            )]
        },
        ..base("standby_cut_across_checkpoint", "")
    });

    v
}

/// The fault-free scenario, and the base of `double_ack`.
pub fn quiet() -> Scenario {
    Scenario {
        clients: 3,
        keys: 2,
        think_ms: 30,
        run_secs: 20,
        ..base("quiet", "no faults: small, contended and instant to check")
    }
}

/// The checker's teeth (debug builds only): `quiet`, but acks are faked.
#[cfg(debug_assertions)]
pub fn double_ack() -> Scenario {
    Scenario {
        name: "double_ack",
        about: "quiet, but the active acks deletes it never applies",
        tune: |t| MdsTiming { fault_double_ack: true, ..t },
        ..quiet()
    }
}

/// Look up a corpus scenario, `quiet` or (debug builds) `double_ack` by name.
pub fn by_name(name: &str) -> Option<Scenario> {
    let mut all = corpus();
    all.push(quiet());
    #[cfg(debug_assertions)]
    all.push(double_ack());
    all.into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_named_and_findable() {
        let all = corpus();
        assert!(all.len() >= 8);
        for s in &all {
            assert!(!s.name.is_empty() && !s.about.is_empty());
            assert!(by_name(s.name).is_some(), "{} must round-trip", s.name);
            let mut r = DetRng::seed_from_u64(7);
            let prog = (s.faults)(&mut r);
            assert!(prog.iter().all(|a| a.at_ms < s.run_secs * 1_000), "{}", s.name);
        }
        assert!(by_name("quiet").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn fault_programs_jitter_by_seed() {
        let s = by_name("failover_crash").unwrap();
        let p1 = (s.faults)(&mut DetRng::seed_from_u64(1));
        let p2 = (s.faults)(&mut DetRng::seed_from_u64(2));
        assert_ne!(p1, p2, "seeds must vary the program");
        let p1b = (s.faults)(&mut DetRng::seed_from_u64(1));
        assert_eq!(p1, p1b, "same seed, same program");
    }
}
