//! Order statistics, the CPU clock and the memory high-water mark.

use std::time::Instant;

/// Percentile of an ascending slice of whole numbers (`p` in `(0, 1]`).
///
/// Virtual time has a resolution of 1 us, so thousands of latencies share a
/// value and the nearest-rank percentile would read the same for almost any
/// seed. Each value `v` is taken as the bin `[v - 0.5, v + 0.5)` instead, and
/// the rank is interpolated inside the bin it lands in — the percentile of
/// grouped data.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() as f64 * p).clamp(0.0, sorted.len() as f64);
    let v = sorted[(rank.ceil() as usize).max(1) - 1];
    let below = sorted.partition_point(|&x| x < v);
    let same = sorted.partition_point(|&x| x <= v) - below;
    v as f64 - 0.5 + (rank - below as f64) / same as f64
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` computes them (the acceptance check
/// uses that function, so `--compare` must agree with it).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return [v[0]; 3];
    }
    let n = v.len();
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Negative when `j` was clamped up, which extrapolates below `v[0]`.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Nanoseconds this thread has spent on a CPU, from the scheduler's own
/// accounting, so time lost to other processes on a shared box is not
/// charged to the cluster. Falls back to wall time where the file is absent.
pub struct CpuClock {
    origin: Instant,
    on_cpu: bool,
}

const SCHEDSTAT: &str = "/proc/thread-self/schedstat";

fn read_schedstat() -> Option<u64> {
    std::fs::read_to_string(SCHEDSTAT).ok()?.split_whitespace().next()?.parse().ok()
}

impl CpuClock {
    pub fn new() -> Self {
        CpuClock { origin: Instant::now(), on_cpu: read_schedstat().is_some() }
    }

    /// Which clock `now_ns` reads (printed in the header of every run).
    pub fn name(&self) -> &'static str {
        if self.on_cpu {
            "schedstat"
        } else {
            "instant"
        }
    }

    pub fn now_ns(&self) -> u64 {
        // The kernel brings a running thread's counter up to date on its
        // tick, every few ms, and whenever the thread passes through the
        // scheduler; yielding makes it do so now.
        std::thread::yield_now();
        match read_schedstat() {
            Some(ns) if self.on_cpu => ns,
            _ => self.origin.elapsed().as_nanos() as u64,
        }
    }
}

/// How fast this machine is right now, from a fixed reference computation.
///
/// On-CPU time is not enough on a shared host. A neighbour on the other
/// hardware thread of the core, or one that floods the shared cache, makes
/// the same instructions take up to twice as long for minutes at a time,
/// and the scheduler's clock counts every one of those nanoseconds. So the
/// meter times a small loop of its own between the measured stretches — six
/// parts wide arithmetic, four parts a pointer chase through 1 MB, which is
/// the blend that slowed as the simulated cluster did across 90 runs under
/// changing neighbours (README, *Steadiness*) — and scales measured time by
/// how that loop compares with [`REFERENCE_NOMINAL_NS`]. The loop is not
/// program code, so it moves with the machine and never with the commit.
pub struct Meter {
    pub clock: CpuClock,
    ring: Vec<u32>,
    at: u32,
}

/// What one pass of the reference takes on an otherwise idle core of the box
/// the benchmark was written on (Xeon at 2.1 GHz). Every reported time is in
/// nanoseconds of a machine on which it takes exactly this long.
pub const REFERENCE_NOMINAL_NS: f64 = 1_200_000.0;

const RING_ENTRIES: usize = 256 << 10;
const CHASE_STEPS: usize = 58_000;
const ALU_STEPS: u64 = 600_000;
const PASSES: usize = 3;

impl Meter {
    pub fn new() -> Self {
        // One cycle through every entry, in an order no prefetcher follows.
        let mut ring: Vec<u32> = (0..RING_ENTRIES as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..RING_ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ring.swap(i, (x % i as u64) as usize);
        }
        Meter { clock: CpuClock::new(), ring, at: 0 }
    }

    /// One pass of the reference: dependent loads that miss the first-level
    /// cache, then four independent arithmetic chains with first-level
    /// table reads — work that shares a core's caches and ports badly.
    fn reference(&mut self) {
        let mut p = self.at;
        for _ in 0..CHASE_STEPS {
            p = self.ring[p as usize];
        }
        self.at = p;
        let table = &self.ring[..4096];
        let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, u64::from(p));
        for i in 0..ALU_STEPS {
            a = a
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(table[(i & 4095) as usize].into());
            b = (b ^ i).wrapping_add(table[((i >> 3) & 4095) as usize].into());
            c = c.rotate_left(7) ^ a;
            d = d.wrapping_add(b) ^ (i << 1);
        }
        std::hint::black_box((a, b, c, d));
    }

    /// The machine's speed now, as a share of nominal: 1.0 where the
    /// reference takes `REFERENCE_NOMINAL_NS`, 0.5 where it takes twice as
    /// long. Measured time times speed is time at nominal speed.
    pub fn speed(&mut self) -> f64 {
        // Whatever ran before has pushed the ring out of the caches, or has
        // not; read it through once so that every timed pass starts from
        // the same place.
        std::hint::black_box(self.ring.iter().fold(0u32, |sum, &x| sum.wrapping_add(x)));
        // A pass is short enough for one interrupt to double it, and such a
        // reading would make the stretch beside it look cheap; the fastest
        // of a few passes is the one nothing got in the way of.
        let fastest = (0..PASSES)
            .map(|_| {
                let started = self.clock.now_ns();
                self.reference();
                self.clock.now_ns() - started
            })
            .min()
            .expect("PASSES is not zero");
        REFERENCE_NOMINAL_NS / fastest.max(1) as f64
    }
}

/// On-CPU time at nominal speed over a long stretch, such as a set-up: the
/// stretch is cut wherever `Meter::tick` is called with `TICK_NS` gone by,
/// and each piece is scaled by the speed readings at its two ends.
pub struct Stretch {
    nominal_ns: f64,
    piece_started: u64,
    speed_then: f64,
}

/// A stretch reads the speed no more often than this, in on-CPU ns.
const TICK_NS: u64 = 150_000_000;

impl Meter {
    pub fn start(&mut self) -> Stretch {
        let speed_then = self.speed();
        Stretch { nominal_ns: 0.0, piece_started: self.clock.now_ns(), speed_then }
    }

    /// Call wherever convenient; it costs a clock read unless a piece is due.
    pub fn tick(&mut self, stretch: &mut Stretch) {
        if self.clock.now_ns() - stretch.piece_started >= TICK_NS {
            self.cut(stretch);
        }
    }

    fn cut(&mut self, stretch: &mut Stretch) {
        let piece = self.clock.now_ns() - stretch.piece_started;
        let speed_now = self.speed();
        stretch.nominal_ns += piece as f64 * (stretch.speed_then + speed_now) / 2.0;
        // The reading itself is not part of the stretch.
        (stretch.piece_started, stretch.speed_then) = (self.clock.now_ns(), speed_now);
    }

    /// Seconds of the whole stretch at nominal speed.
    pub fn finish(&mut self, mut stretch: Stretch) -> f64 {
        self.cut(&mut stretch);
        stretch.nominal_ns / 1e9
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_inside_the_bin_of_its_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), 500.5, "the upper edge of the 500 bin");
        assert_eq!(percentile(&v, 0.999), 999.5);
        assert_eq!(percentile(&v, 1.0), 1000.5);
        assert_eq!(percentile(&[7], 0.5), 7.0, "the middle of the only bin");
        // Ten samples, eight of them 20: the median falls 4/8 into that bin.
        let ties = [10, 20, 20, 20, 20, 20, 20, 20, 20, 30];
        assert_eq!(percentile(&ties, 0.5), 20.0);
        assert_eq!(percentile(&ties, 0.9), 20.5);
        assert_eq!(percentile(&ties, 0.95), 30.0);
        // One more fast sample moves it, though the nearest rank stays 20.
        let shifted = [10, 10, 20, 20, 20, 20, 20, 20, 20, 30];
        assert!(percentile(&shifted, 0.5) < 20.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 9.0, 2.0]), 3.0);
    }

    #[test]
    fn speed_is_near_nominal_on_the_reference_box_and_positive_anywhere() {
        let mut meter = Meter::new();
        let speeds: Vec<f64> = (0..20).map(|_| meter.speed()).collect();
        assert!(speeds.iter().all(|s| s.is_finite() && *s > 0.02 && *s < 50.0), "{speeds:?}");
    }

    #[test]
    fn a_stretch_adds_up_its_pieces() {
        let mut meter = Meter::new();
        let mut stretch = meter.start();
        let started = Instant::now();
        let mut x = 0u64;
        while started.elapsed().as_millis() < 400 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            if x.is_multiple_of(1024) {
                meter.tick(&mut stretch);
            }
        }
        let seconds = meter.finish(stretch);
        // 400 ms of wall time, most of it on the CPU, at a speed that a test
        // cannot know: between a tenth and ten times nominal covers any box.
        assert!((0.02..4.0).contains(&seconds), "{seconds} s");
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let clock = CpuClock::new();
        let t0 = clock.now_ns();
        let mut x = 0u64;
        // The scheduler's counter moves on its tick, so burn well past one.
        let started = Instant::now();
        while started.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(clock.now_ns() > t0, "clock {} did not advance", clock.name());
    }
}
