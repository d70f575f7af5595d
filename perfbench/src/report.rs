//! Order statistics, process resource usage, and the result line.

use std::time::{Duration, Instant};

/// One reported figure: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// A run's outcome, printed as a table and then one JSON line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Prints a readable table, then the JSON object as the last line
    /// of stdout.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:36} {value:>16.4} {unit}");
        }
        println!(
            "ops attempted {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The nearest-rank `p`-quantile (0 < p ≤ 1) of `values`; 0 if empty.
pub fn quantile(values: &[u64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Microseconds from nanoseconds.
pub fn us(ns: f64) -> f64 {
    ns / 1000.0
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux's `struct rusage` on 64-bit targets: two timevals, then
/// fourteen longs (not read here).
#[repr(C)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    _longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 bits.
type CpuMask = [u64; 16];

/// Keeps every thread of the process on one CPU at a time, moving
/// them all to the next CPU the process may use on each
/// [`OneCpu::rotate`].
///
/// The serve loop hands a baton between the thread that feeds the
/// server and a slot worker after every slice. On one CPU a handoff is
/// a plain context switch; spread over two, it wakes an idle CPU each
/// time, which on a virtual machine costs tens of microseconds that
/// come from the host, not the program. Rotating spreads a run over every CPU, so one CPU
/// that other tenants keep busy cannot slow a whole run.
pub struct OneCpu {
    cpus: Vec<usize>,
    next: usize,
}

impl OneCpu {
    /// The CPUs the process may run on, as it starts.
    pub fn new() -> Result<OneCpu, String> {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a live, writable array of the size passed,
        // laid out as the kernel's CPU bitmap; sched_getaffinity(2)
        // writes only within it. Pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Err("sched_getaffinity failed".to_string());
        }
        let cpus: Vec<usize> = (0..mask.len() * 64)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect();
        if cpus.is_empty() {
            return Err("no CPU to run on".to_string());
        }
        Ok(OneCpu { cpus, next: 0 })
    }

    /// Moves every thread of the process, and every thread started
    /// later, to the next CPU; returns it.
    pub fn rotate(&mut self) -> Result<usize, String> {
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        let mut mask: CpuMask = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        let set = |tid: i32| {
            // SAFETY: `mask` is a live array of the size passed, laid
            // out as the kernel's CPU bitmap; sched_setaffinity(2) only
            // reads it.
            unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
        };
        // The calling thread first: threads it starts inherit its mask.
        if !set(0) {
            return Err(format!("sched_setaffinity to CPU {cpu} failed"));
        }
        let tasks =
            std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
        for tid in tasks
            .flatten()
            .filter_map(|t| t.file_name().to_str()?.parse::<i32>().ok())
        {
            // A thread that has exited since the listing has nothing
            // left to move.
            set(tid);
        }
        Ok(cpu)
    }
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time of this process, all threads included,
/// in microseconds.
pub fn cpu_us() -> f64 {
    let mut raw = RawRusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        _longs: [0; 14],
    };
    // SAFETY: `raw` is a live, writable `RawRusage`, whose layout is
    // that of the `struct rusage` getrusage(2) fills on 64-bit Linux;
    // the call writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    let tv = |t: &Timeval| t.sec as f64 * 1e6 + t.usec as f64;
    tv(&raw.utime) + tv(&raw.stime)
}

/// Peak resident memory of this process image, in MiB: `VmHWM`, which
/// (unlike `ru_maxrss`) does not inherit the peak of the process that
/// launched this one.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Share of batches, the fastest, that the end-to-end timings are
/// taken over: a fiftieth. The host's slow spells can last many
/// seconds; a small share still finds enough quiet batches in a run.
const QUIET_SHARE: f64 = 0.02;

/// One timed stretch of a measured loop.
struct Batch {
    /// Batches of one class do the same work.
    class: usize,
    wall_ns: u64,
    /// Part of `wall_ns` left out of the ranking (collector pauses).
    unranked_ns: u64,
    cpu_us: f64,
    lat_ns: Vec<u64>,
}

/// A measured loop cut into short batches, and the timings taken over
/// its quiet part.
///
/// Other tenants of a shared host slow the program down in bursts; a
/// burst only ever makes a batch slower, and a batch of a few
/// milliseconds often falls between bursts. So the end-to-end timings
/// are taken over the quiet batches: in each class of batches that do
/// the same work (one stretch of a fixed op pool, run again on every
/// pass), the fastest fiftieth by wall time per op. That is what the
/// program costs when the host leaves it alone; a change that makes
/// the program slower slows the quiet batches too.
///
/// Batches are ranked without their collector pauses, which fall on
/// different ops from pass to pass: ranking with them would pick the
/// batches that happened to collect less, and hide the collector's
/// cost. The pauses still count in every timing.
pub struct Batches {
    done: Vec<Batch>,
    t0: Instant,
    cpu0: f64,
    lat_ns: Vec<u64>,
}

/// The timings over the quiet batches.
pub struct Quiet {
    pub batches: usize,
    pub wall_ns: u64,
    pub cpu_us: f64,
    /// Every sample of the quiet batches.
    pub lat_ns: Vec<u64>,
}

impl Quiet {
    /// Mean sample, in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        ratio(
            self.lat_ns.iter().sum::<u64>() as f64,
            self.lat_ns.len() as f64,
        )
    }
}

impl Batches {
    pub fn new() -> Batches {
        Batches {
            done: Vec::new(),
            t0: Instant::now(),
            cpu0: cpu_us(),
            lat_ns: Vec::new(),
        }
    }

    /// Starts a batch now, dropping any samples of an unfinished one.
    pub fn start(&mut self) {
        self.lat_ns.clear();
        self.t0 = Instant::now();
        self.cpu0 = cpu_us();
    }

    pub fn op(&mut self, lat_ns: u64) {
        self.lat_ns.push(lat_ns);
    }

    /// Samples in the current batch.
    pub fn len(&self) -> usize {
        self.lat_ns.len()
    }

    /// Ends the current batch, of class `class`, of which `unranked`
    /// went to collector pauses.
    pub fn end(&mut self, class: usize, unranked: Duration) {
        self.done.push(Batch {
            class,
            wall_ns: self.t0.elapsed().as_nanos() as u64,
            unranked_ns: unranked.as_nanos() as u64,
            cpu_us: cpu_us() - self.cpu0,
            lat_ns: std::mem::take(&mut self.lat_ns),
        });
    }

    /// Leaves a pause out of the current batch: `wall` and `cpu_us`
    /// spent on something else (a set-up) between its ops.
    pub fn pause(&mut self, wall: Duration, cpu_us: f64) {
        self.t0 += wall;
        self.cpu0 += cpu_us;
    }

    /// Adds a batch of samples that were not timed back to back (say,
    /// sessions opened and closed between other work): its wall time
    /// is their sum.
    pub fn add(&mut self, lat_ns: Vec<u64>) {
        self.done.push(Batch {
            class: 0,
            wall_ns: lat_ns.iter().sum(),
            unranked_ns: 0,
            cpu_us: 0.0,
            lat_ns,
        });
    }

    /// Samples over all finished batches.
    pub fn samples(&self) -> u64 {
        self.done.iter().map(|b| b.lat_ns.len() as u64).sum()
    }

    /// Mean sample over all finished batches, in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        let sum: u64 = self.done.iter().flat_map(|b| &b.lat_ns).sum();
        ratio(sum as f64, self.samples() as f64)
    }

    /// The fastest [`QUIET_SHARE`] (at least one) of each class of finished
    /// batches.
    pub fn quiet(&self) -> Quiet {
        let mut order: Vec<&Batch> = self.done.iter().filter(|b| !b.lat_ns.is_empty()).collect();
        let ranked =
            |b: &Batch| b.wall_ns.saturating_sub(b.unranked_ns) as f64 / b.lat_ns.len() as f64;
        order.sort_by(|a, b| a.class.cmp(&b.class).then(ranked(a).total_cmp(&ranked(b))));
        let mut quiet: Vec<&Batch> = Vec::new();
        for class in order.chunk_by(|a, b| a.class == b.class) {
            let keep = (class.len() as f64 * QUIET_SHARE).ceil() as usize;
            quiet.extend(&class[..keep]);
        }
        Quiet {
            batches: quiet.len(),
            wall_ns: quiet.iter().map(|b| b.wall_ns).sum(),
            cpu_us: quiet.iter().map(|b| b.cpu_us).sum(),
            lat_ns: quiet
                .iter()
                .flat_map(|b| b.lat_ns.iter().copied())
                .collect(),
        }
    }
}

/// The end-to-end timings: ops per second, op latency and CPU per op
/// over the quiet op batches, and session overhead over the quiet
/// session batches.
pub fn end_to_end(ops: &Batches, sessions: &Batches) -> Vec<Metric> {
    let (q, s) = (ops.quiet(), sessions.quiet());
    let n = q.lat_ns.len() as f64;
    eprintln!(
        "perfbench: {} ops in {} batches, {} in the quiet {}; {} sessions, {} in the quiet {} batches",
        ops.samples(),
        ops.done.len(),
        q.lat_ns.len(),
        q.batches,
        sessions.samples(),
        s.lat_ns.len(),
        s.batches,
    );
    vec![
        (
            "throughput_ops_s",
            ratio(n, q.wall_ns as f64 / 1e9),
            "ops/s",
        ),
        ("latency_p50_us", us(quantile(&q.lat_ns, 0.5)), "us"),
        ("latency_p99_us", us(quantile(&q.lat_ns, 0.99)), "us"),
        (
            "session_overhead_p50_us",
            us(quantile(&s.lat_ns, 0.5)),
            "us",
        ),
        (
            "session_overhead_p99_us",
            us(quantile(&s.lat_ns, 0.99)),
            "us",
        ),
        ("cpu_us_per_op", ratio(q.cpu_us, n), "us"),
    ]
}

/// The median of `values` (seconds, say); 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quiet_takes_the_fastest_share_of_each_class_ranked_without_pauses() {
        let mut b = Batches::new();
        for i in 0..100u64 {
            // Class 0 costs 100 ns an op, class 1 costs 1000; the
            // slowest batch of class 0 would be its fastest but for
            // a collector pause.
            for (class, cost) in [(0, 100), (1, 1000)] {
                let (wall, unranked) = if class == 0 && i == 99 {
                    (10 * cost * 2, 10 * cost * 2)
                } else {
                    (10 * (cost + i), 0)
                };
                b.done.push(Batch {
                    class,
                    wall_ns: wall,
                    unranked_ns: unranked,
                    cpu_us: 0.0,
                    lat_ns: vec![wall / 10; 10],
                });
            }
        }
        let q = b.quiet();
        assert_eq!(q.batches, 4);
        assert_eq!(q.wall_ns, 2000 + 1000 + 10000 + 10010);
    }

    #[test]
    fn usage_reads_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_us() >= 0.0);
    }
}
