//! E11 — resource governor: zero-limits overhead.
//!
//! Every eval step runs through `governor::charge` (clock tick, signal
//! poll, step count); with no budgets armed that is the whole cost —
//! the per-kind checks sit behind a single `active` bool and a `#[cold]`
//! function. This bench runs the Figure 1 pipeline with (a) no limits
//! armed — the default — and (b) loose limits armed on every kind, so
//! both the fast path and the full check path are measured against the
//! same workload. The target is <5% for (a) relative to the pre-governor
//! baseline; (b) quantifies what a sandboxed run pays. The behavioural
//! suite — breaches, watchdog, interrupt delivery, 256-seed soak —
//! lives in `es-core` (see `make soak-limits`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use es_bench::{machine_with_paper, run, FIG1_PIPELINE};
use es_core::governor::Kind;

fn bench_governor_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_governor");
    group.sample_size(20);
    for &words in &[200usize, 1000] {
        group.bench_with_input(BenchmarkId::new("no-limits", words), &words, |b, &words| {
            let mut m = machine_with_paper(words);
            b.iter(|| run(&mut m, FIG1_PIPELINE));
        });
        group.bench_with_input(
            BenchmarkId::new("loose-limits", words),
            &words,
            |b, &words| {
                let mut m = machine_with_paper(words);
                // Far above anything the pipeline uses: the checks run
                // every step but never trip.
                for kind in Kind::ALL {
                    m.arm_limit(kind, 1_000_000_000);
                }
                b.iter(|| {
                    // Steps/output budgets are consumed monotonically;
                    // re-arm so long runs never breach mid-measurement.
                    m.arm_limit(Kind::Steps, 1_000_000_000);
                    m.arm_limit(Kind::Output, 1_000_000_000);
                    m.arm_limit(Kind::Time, 1_000_000_000);
                    run(&mut m, FIG1_PIPELINE)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_governor_overhead);
criterion_main!(benches);
