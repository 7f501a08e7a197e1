//! The five workloads: cluster shape, traffic mix, and the reason each is
//! here. `BENCHMARK.json` repeats the names and reasons; the README has the
//! longer account.

/// The traffic a client generates (see `script.rs` for the generators).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// File lifecycle in private directories: create, later rename, then
    /// delete; directories are made as they fill and removed as they empty,
    /// so the namespace keeps its size.
    Churn,
    /// Mostly `GetFileInfo`/`List` over every client's pre-made
    /// directories, with a little create/delete of temporary files.
    ReadMostly,
    /// The paper's Figure 6 mix: create, getfileinfo and mkdir in thirds.
    Fig6,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Replica groups (actives) and hot standbys per group.
    pub groups: u32,
    pub standbys: usize,
    /// Closed-loop clients and their pause between a reply and the next op.
    pub clients: u32,
    pub think_ms: u64,
    pub checkpoint_s: Option<u64>,
    pub delta_s: Option<u64>,
    pub mix: Mix,
    /// Made through the cluster before measuring, per client: directories,
    /// and files in each.
    pub populate_dirs: u32,
    pub populate_files: u32,
    /// Virtual seconds: warm-up, then each measured window.
    pub warmup_s: u64,
    pub window_s: u64,
    /// Measured windows of one repetition in a run of `RUN_SECONDS`, sized
    /// so that `REPS` repetitions measure for about that long on the box
    /// the benchmark was written on; `--seconds` scales it.
    pub windows: u32,
    /// Crash the active once per window and restart it.
    pub crash: bool,
    /// Above what all clients together complete per virtual second; sizes
    /// the scripts, and a run fails if a client reaches the end of its own.
    pub max_ops_per_s: u64,
}

/// The `run_seconds` of `BENCHMARK.json`, which `Spec::windows` is sized for.
pub const RUN_SECONDS: u64 = 10;
/// A run sets up and measures this many times over, same seed and so same
/// work, and keeps each window's fastest measurement.
pub const REPS: usize = 3;

pub const POOL_NODES: usize = 3;
pub const DATA_SERVERS: usize = 4;
/// A crashed active restarts this long after the crash, and the crash of
/// window `k` comes `k * CRASH_STEP_MS` after the window opens, so that ten
/// windows sweep the 2 s heartbeat period.
pub const RESTART_AFTER_S: u64 = 8;
pub const CRASH_STEP_MS: u64 = 200;

pub fn all() -> Vec<Spec> {
    let write_steady = Spec {
        name: "write_steady",
        why: "every op is applied, sealed, sent to 3 standbys and the pool, then released: \
              commit pipeline, journal, standby replay and pool do most of the work",
        groups: 1,
        standbys: 3,
        clients: 32,
        think_ms: 0,
        checkpoint_s: None,
        delta_s: None,
        mix: Mix::Churn,
        populate_dirs: 170,
        populate_files: 8,
        warmup_s: 5,
        window_s: 1,
        windows: 39,
        crash: false,
        max_ops_per_s: 8_000,
    };
    vec![
        write_steady.clone(),
        Spec {
            name: "read_mostly",
            why: "reads bypass journal, pool and standbys, so kernel, ingress, client and path \
                  resolution dominate; a commit-path change must leave it flat",
            mix: Mix::ReadMostly,
            // 32 x 625 = 20k directories: more than the 16 x 1024 entries
            // of the resolution cache.
            populate_dirs: 625,
            populate_files: 4,
            warmup_s: 3,
            windows: 80,
            max_ops_per_s: 16_000,
            ..write_steady.clone()
        },
        Spec {
            name: "failover_cycle",
            why: "each window crashes the active and restarts it: session expiry, election, \
                  the 6-step switch, retry-window seeding and junior renewing set the outage",
            standbys: 2,
            clients: 16,
            think_ms: 5,
            checkpoint_s: Some(30),
            delta_s: Some(5),
            populate_dirs: 8,
            warmup_s: 6,
            window_s: 24,
            windows: 10,
            crash: true,
            max_ops_per_s: 2_400,
            ..write_steady.clone()
        },
        Spec {
            name: "checkpoint_churn",
            why: "a full image every 5 s and a delta every 1 s over a large namespace: the only \
                  workload where image and delta code is a large share; write_steady bypasses it",
            checkpoint_s: Some(5),
            delta_s: Some(1),
            populate_dirs: 1_000,
            // One full image and five deltas in every window.
            window_s: 5,
            windows: 6,
            ..write_steady.clone()
        },
        Spec {
            name: "multi_group",
            why: "the paper's MAMS-3A3S: mkdirs fan out to every group, so cross-group legs, the \
                  partitioner and three concurrent actives matter only here",
            groups: 3,
            standbys: 1,
            mix: Mix::Fig6,
            populate_dirs: 0,
            populate_files: 0,
            windows: 60,
            max_ops_per_s: 6_000,
            ..write_steady
        },
    ]
}

impl Spec {
    /// Measured windows for a run asked to last `seconds`.
    pub fn windows_for(&self, seconds: u64) -> u32 {
        let scaled = u64::from(self.windows) * seconds / RUN_SECONDS;
        (scaled as u32).max(2)
    }

    /// The `--quick` shape: a tenth of the pre-made namespace and a short
    /// warm-up. Same code paths, numbers not comparable with a full run.
    pub fn quick(&self) -> Spec {
        Spec { populate_dirs: self.populate_dirs.div_ceil(10), warmup_s: 2, ..self.clone() }
    }

    /// Operations each client's measured script must hold.
    pub fn run_ops_per_client(&self, windows: u32) -> usize {
        let virt_s = self.warmup_s + u64::from(windows) * self.window_s;
        let total = self.max_ops_per_s * virt_s;
        (total / u64::from(self.clients)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_windows_scale() {
        let specs = all();
        for (i, a) in specs.iter().enumerate() {
            assert!(specs[i + 1..].iter().all(|b| b.name != a.name));
            assert_eq!(a.windows_for(RUN_SECONDS), a.windows);
            assert_eq!(a.windows_for(2 * RUN_SECONDS), 2 * a.windows);
            assert_eq!(a.windows_for(0), 2, "never fewer than two windows");
        }
    }
}
