//! F2 — Figure 2: the `%pathsearch` cache.
//!
//! Sweeps the `$path` length and compares command lookup with the
//! cache installed (first hit memoises `fn-$prog`) against the stock
//! linear search. The expected shape: uncached cost grows with the
//! number of path entries; cached cost is flat, so the cache wins by a
//! factor that grows with P.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use es_bench::{machine_with_long_path, run, FIG2_CACHE};

fn bench_pathsearch(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_pathcache");
    for &dirs in &[5usize, 20, 80] {
        group.bench_with_input(BenchmarkId::new("uncached", dirs), &dirs, |b, &dirs| {
            let mut m = machine_with_long_path(dirs);
            b.iter(|| run(&mut m, "ls /tmp"));
        });
        group.bench_with_input(BenchmarkId::new("cached", dirs), &dirs, |b, &dirs| {
            let mut m = machine_with_long_path(dirs);
            run(&mut m, FIG2_CACHE);
            run(&mut m, "ls /tmp"); // warm the cache
            b.iter(|| run(&mut m, "ls /tmp"));
        });
        // Ablation: cache installed but flushed before every lookup —
        // the hook indirection cost without the benefit.
        group.bench_with_input(BenchmarkId::new("cache-miss", dirs), &dirs, |b, &dirs| {
            let mut m = machine_with_long_path(dirs);
            run(&mut m, FIG2_CACHE);
            b.iter(|| run(&mut m, "recache; ls /tmp"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pathsearch);
criterion_main!(benches);
