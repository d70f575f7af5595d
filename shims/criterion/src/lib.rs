//! A self-contained subset of the `criterion` benchmarking API.
//!
//! The real crates-io `criterion` cannot be vendored in this offline
//! build environment, so this shim implements the surface the bench
//! suite uses — `Criterion::benchmark_group`, `sample_size`,
//! `bench_function`, `bench_with_input`, `Bencher::iter`,
//! `BenchmarkId`, `BenchmarkGroup::throughput`, `black_box`, and the
//! `criterion_group!` / `criterion_main!` macros — with straightforward
//! wall-clock sampling and a text report (median / mean / min per
//! benchmark, and the median per element or byte when a throughput is
//! set).

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer identity, so benchmarked results are not
/// dead-code-eliminated.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// A named benchmark id: `BenchmarkId::new("plain", 200)` prints as
/// `plain/200`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Function name + parameter value.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{}/{}", function.into(), parameter),
        }
    }

    /// A bare id from a string.
    pub fn from_str_id(id: impl Into<String>) -> BenchmarkId {
        BenchmarkId { id: id.into() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId::from_str_id(s)
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId::from_str_id(s)
    }
}

/// How much one iteration processes; the report then also gives the
/// median time per unit.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes per iteration.
    Bytes(u64),
    /// Elements (lines, records, ...) per iteration.
    Elements(u64),
}

/// The top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        eprintln!("\n== {name} ==");
        BenchmarkGroup {
            _criterion: self,
            name,
            sample_size: 20,
            throughput: None,
        }
    }

    /// A one-off benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = BenchmarkGroup {
            _criterion: self,
            name: String::new(),
            sample_size: 20,
            throughput: None,
        };
        group.bench_function(id, f);
    }
}

/// A group sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark takes.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Sets what one iteration of the benchmarks that follow processes.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark; the routine drives `b.iter(...)`.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            sample_size: self.sample_size,
            samples: Vec::new(),
        };
        f(&mut b);
        report(&self.name, &id.id, &b.samples, self.throughput);
        self
    }

    /// Like [`BenchmarkGroup::bench_function`], threading an input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (prints nothing extra; symmetry with criterion).
    pub fn finish(self) {}
}

/// Collects timing samples for one benchmark.
pub struct Bencher {
    sample_size: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `routine`, warming up briefly first. Each sample times a
    /// batch sized so one batch takes roughly a millisecond, keeping
    /// timer overhead negligible for nanosecond-scale routines.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warm-up and batch-size calibration.
        let t0 = Instant::now();
        let mut calib_iters = 0u64;
        while t0.elapsed() < Duration::from_millis(20) {
            black_box(routine());
            calib_iters += 1;
        }
        let per_iter = t0.elapsed().as_nanos().max(1) / calib_iters.max(1) as u128;
        let batch = (1_000_000 / per_iter).clamp(1, 10_000) as u64;
        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let total = start.elapsed();
            self.samples.push(total / batch as u32);
        }
    }
}

/// Prints `group/id  median .. (mean .., min ..)`, then the median per
/// element or byte if a throughput is set.
fn report(group: &str, id: &str, samples: &[Duration], throughput: Option<Throughput>) {
    if samples.is_empty() {
        eprintln!("{group}/{id}: no samples (b.iter never called)");
        return;
    }
    let mut sorted = samples.to_vec();
    sorted.sort();
    let median = sorted[sorted.len() / 2];
    let min = sorted[0];
    let mean = sorted.iter().sum::<Duration>() / sorted.len() as u32;
    let full = if group.is_empty() {
        id.to_string()
    } else {
        format!("{group}/{id}")
    };
    eprintln!(
        "{full:<44} median {median:>12?}  mean {mean:>12?}  min {min:>12?}  ({} samples)",
        sorted.len()
    );
    let (units, unit) = match throughput {
        None => return,
        Some(Throughput::Bytes(n)) => (n, "byte"),
        Some(Throughput::Elements(n)) => (n, "element"),
    };
    let per = median.as_nanos() as f64 / units.max(1) as f64;
    eprintln!("{:<44} median {per:>10.1}ns per {unit} ({units} per iteration)", "");
}

/// `criterion_group!(benches, f1, f2, ...)` — a function running each
/// benchmark function against a fresh `Criterion`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// `criterion_main!(benches);` — the bench binary's entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
