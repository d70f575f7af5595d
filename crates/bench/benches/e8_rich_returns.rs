//! E8 — rich return values as data structures.
//!
//! The paper's cons/car/cdr demo turns closures into pairs. This
//! bench builds and walks closure-encoded lists of growing length,
//! and contrasts them with native flat lists — quantifying what the
//! "lists are flat" restriction buys and what the closure encoding
//! costs (each cell is a heap closure + bindings; traversal is
//! function application).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use es_bench::{machine, run};
use es_core::Machine;
use es_os::SimOs;

// NB: `nil` is the empty list, and `walk` tests emptiness with `$#p`
// rather than comparing text — stringifying a deep closure chain is
// expensive by construction (its `%closure` encoding embeds the whole
// substructure), which is itself part of what this experiment shows.
const CONS: &str = "
fn cons a d { return @ f { $f $a $d } }
fn car p { $p @ a d { return $a } }
fn cdr p { $p @ a d { return $d } }
fn build n {
    if {~ $#n 0} { return } { return <>{cons $n(1) <>{build $n(2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32)}} }
}
fn walk p {
    if {~ $#p 0} { result } { walk <>{cdr $p} }
}";

fn items(n: usize) -> String {
    (0..n)
        .map(|i| format!("w{i}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn prepared() -> Machine<SimOs> {
    let mut m = machine();
    run(&mut m, CONS);
    m
}

fn bench_rich(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_rich_returns");
    group.sample_size(20);
    for &n in &[4usize, 16, 32] {
        let list = items(n);
        group.bench_with_input(BenchmarkId::new("build-church", n), &list, |b, list| {
            let mut m = prepared();
            b.iter(|| run(&mut m, &format!("lst = <>{{build {list}}}")));
        });
        group.bench_with_input(BenchmarkId::new("walk-church", n), &list, |b, list| {
            let mut m = prepared();
            run(&mut m, &format!("lst = <>{{build {list}}}"));
            b.iter(|| run(&mut m, "walk $lst"));
        });
        group.bench_with_input(BenchmarkId::new("native-flat-list", n), &list, |b, list| {
            let mut m = prepared();
            b.iter(|| run(&mut m, &format!("lst = {list}; for (i = $lst) {{}}")));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rich);
criterion_main!(benches);
