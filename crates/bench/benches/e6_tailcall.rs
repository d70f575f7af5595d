//! E6 — "The current implementation of es has the undesirable
//! property that all function calls cause the C stack to nest. In
//! particular, tail calls consume stack space, something they could
//! be optimized not to do."
//!
//! Measures a self-tail-recursive loop at several depths under the
//! proper-tail-call evaluator (this reproduction's default — the
//! paper's future work, implemented) and under `--naive-calls` (the
//! 1993 behaviour). Also prints the observed application-depth
//! high-water mark: constant for TCO, linear for naive.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use es_bench::{machine_with, run};
use es_core::governor::Limits;
use es_core::Options;

const DEF: &str = "fn count n target { if {~ $n $target} {result done} {count $n^x $target} }";

fn target_of(depth: usize) -> String {
    "x".repeat(depth)
}

fn bench_tailcalls(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_tailcall");
    for &depth in &[10usize, 100, 400] {
        let target = target_of(depth);
        group.bench_with_input(
            BenchmarkId::new("proper-tail-calls", depth),
            &target,
            |b, target| {
                let mut m = machine_with(Options {
                    tail_calls: true,
                    ..Options::default()
                });
                run(&mut m, DEF);
                b.iter(|| run(&mut m, &format!("count '' {target}")));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("naive-1993", depth),
            &target,
            |b, target| {
                let mut m = machine_with(Options {
                    tail_calls: false,
                    limits: Limits {
                        depth: Some(1000),
                        ..Limits::default()
                    },
                    ..Options::default()
                });
                run(&mut m, DEF);
                b.iter(|| run(&mut m, &format!("count '' {target}")));
            },
        );
    }
    group.finish();

    // The structural result: depth high-water marks.
    eprintln!("\n--- E6 artifact: application-depth high-water mark ---");
    for &depth in &[10usize, 100, 400] {
        let target = target_of(depth);
        let mut tco = machine_with(Options {
            tail_calls: true,
            ..Options::default()
        });
        run(&mut tco, DEF);
        tco.max_depth_seen = 0;
        run(&mut tco, &format!("count '' {target}"));
        let mut naive = machine_with(Options {
            tail_calls: false,
            limits: Limits {
                depth: Some(1000),
                ..Limits::default()
            },
            ..Options::default()
        });
        run(&mut naive, DEF);
        naive.max_depth_seen = 0;
        run(&mut naive, &format!("count '' {target}"));
        eprintln!(
            "loop depth {depth:4}: TCO max nesting = {:2}, naive max nesting = {:4}",
            tco.max_depth_seen, naive.max_depth_seen
        );
    }
    eprintln!("(naive mode grows linearly — the 1993 'hidden cost'; TCO is flat)");
}

criterion_group!(benches, bench_tailcalls);
criterion_main!(benches);
