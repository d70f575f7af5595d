//! E4 — "Garbage collection ... takes roughly 4% of the running time
//! of the shell."
//!
//! Runs the loop-heavy closure-churn workload on the default heap and
//! in stress mode (a collection at every allocation) and reports (a)
//! evaluation time for each (criterion) and (b) the measured GC pause
//! fraction on the default heap (printed), which is the paper's
//! number; it should sit in the low single digits.
//!
//! The `collect` cases drive `es-gc` alone: ~240 live objects, then a
//! default-sized semispace of garbage (16k dead strings, pairs or
//! closures) and the one collection it triggers. A copying collection
//! should cost what is live, so the cases' pauses should be alike. The
//! `Rc` cases give the heap a payload with a destructor, as the
//! interpreter's `Heap<Rc<Lambda>>` has, and their dead closures share
//! one code, as closures made from one lambda do.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use es_bench::{machine, run};
use es_core::Machine;
use es_gc::{Heap, Ref};
use es_os::SimOs;
use std::rc::Rc;
use std::time::Instant;

const WORKLOAD: &str = "
for (i = 1 2 3 4 5 6 7 8 9 10) {
    acc =
    for (j = a b c d e f g h i j k l m n o p q r s t) {
        acc = $acc <>{mk $i^$j} $i^$j
    }
    keep = $acc(1 5 9)
}";

fn prepared() -> Machine<SimOs> {
    let mut m = machine();
    run(&mut m, "fn mk n { return @ { result $n $n $n } }");
    m
}

/// A default-sized heap with 240 live objects: 120 strings, each in a
/// rooted list cell.
fn live_heap<C>() -> Heap<C> {
    let mut heap = Heap::new();
    let list = heap.push_root(Ref::NIL);
    for i in 0..120 {
        let s = heap.alloc_string(format!("live word {i}"));
        let p = heap.alloc_pair(s, heap.root(list));
        heap.set_root(list, p);
    }
    heap
}

/// What a semispace of garbage is made of.
#[derive(Clone, Copy)]
enum Dead {
    Strings,
    Pairs,
    Closures,
}

/// Allocates dead objects until one collection has run: a semispace
/// of garbage (16k objects at the default threshold) and its pause.
/// A dead closure's code is `code()`.
fn churn<C>(heap: &mut Heap<C>, dead: Dead, code: &impl Fn() -> C) {
    let before = heap.stats().collections;
    while heap.stats().collections == before {
        match dead {
            Dead::Strings => heap.alloc_str("a dead string term"),
            Dead::Pairs => heap.alloc_pair(Ref::NIL, Ref::NIL),
            Dead::Closures => heap.alloc_closure(code(), Ref::NIL),
        };
    }
}

fn bench_case<C>(c: &mut Criterion, name: &str, dead: Dead, code: impl Fn() -> C) {
    let mut group = c.benchmark_group("e4_gc_overhead");
    group.sample_size(10);
    let mut heap = live_heap();
    group.bench_function(BenchmarkId::new("alloc+collect", name), |b| {
        b.iter(|| churn(&mut heap, dead, &code));
    });
    let s = heap.stats();
    eprintln!(
        "collect, {name}: {} collections, live {}, mean pause {:?}, max pause {:?}",
        s.collections,
        s.live_after_last,
        s.pause_total / s.collections.max(1) as u32,
        s.pause_max
    );
    group.finish();
}

fn bench_collect(c: &mut Criterion) {
    bench_case(c, "16k dead strings", Dead::Strings, || 0u32);
    bench_case(c, "16k dead pairs", Dead::Pairs, || 0u32);
    let shared = Rc::new(0u32);
    let code = || Rc::clone(&shared);
    bench_case(c, "16k dead pairs, Rc payload", Dead::Pairs, code);
    bench_case(c, "16k dead closures, Rc payload", Dead::Closures, code);
}

fn bench_gc(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_gc_overhead");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("workload", "default-heap"), |b| {
        let mut m = prepared();
        b.iter(|| run(&mut m, WORKLOAD));
    });
    group.bench_function(BenchmarkId::new("workload", "stress-gc"), |b| {
        let mut m = prepared();
        m.heap.set_stress(true);
        b.iter(|| run(&mut m, WORKLOAD));
    });
    group.finish();

    // The headline number: pause fraction over a sustained run.
    eprintln!("\n--- E4 artifact: GC pause fraction (paper: \"roughly 4%\") ---");
    let mut m = prepared();
    m.heap.reset_stats();
    let t0 = Instant::now();
    for _ in 0..20 {
        run(&mut m, WORKLOAD);
    }
    let elapsed = t0.elapsed();
    let s = m.heap.stats().clone();
    eprintln!(
        "collections={} allocated={} copied={} bytes_copied={} survival={:.2}% max_pause={:?}",
        s.collections,
        s.allocated,
        s.copied,
        s.bytes_copied,
        100.0 * s.survival_rate(),
        s.pause_max
    );
    eprintln!(
        "gc fraction = {:.2}% of {:?} running time",
        100.0 * s.pause_fraction(elapsed),
        elapsed
    );
}

criterion_group!(benches, bench_collect, bench_gc);
criterion_main!(benches);
