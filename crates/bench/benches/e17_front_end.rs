//! E17 — the front end alone: `lower(parse_program(line))` and the
//! drop of the tree, per line and per byte, with the mallocs each line
//! makes.
//!
//! Three inputs: `initial.es` (the boot script, one program), and
//! lines shaped like the two perfbench op pools: `script` (lambdas
//! mapped over 8–24-word lists, `let`/`for`/`catch` bodies) and
//! `serve` (3–5-word commands with a pipe, a redirection or a `fn`).
//! Each iteration parses, lowers and drops every item of one input.
//!
//! Run with `make bench-front-end`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use es_syntax::{lower, parse_program};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (a reallocation counts as one).
struct Counting;

static MALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        MALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const INITIAL_ES: &str = include_str!("../../core/src/initial.es");

/// `n` words, cycling through a fixed vocabulary of 3–6 letters.
fn words(n: usize, offset: usize) -> String {
    const VOCAB: &[&str] = &[
        "abc", "defg", "hijkl", "mnopqr", "stu", "vwxy", "zabcd", "efghij", "klm", "nopq",
    ];
    (0..n)
        .map(|i| VOCAB[(i + offset) % VOCAB.len()])
        .collect::<Vec<_>>()
        .join(" ")
}

/// One line of each of the script pool's eight op kinds.
fn script_lines() -> Vec<String> {
    vec![
        format!("echo <>{{map @ x {{ result $x^-abc }} {}}}", words(20, 0)),
        format!("echo <>{{filter @ x {{ ~ $x a* }} {}}}", words(20, 1)),
        format!(
            "let (p = <>{{fold @ acc x {{ cons $x $acc }} nil {l}}}) \
             {{ for (i = {l}) {{ echo <>{{car $p}}; p = <>{{cdr $p}} }} }}",
            l = words(10, 2)
        ),
        format!(
            "for (i = {}) {{ local (gx = $i) {{ show }} }}; show",
            words(8, 3)
        ),
        format!(
            "catch @ e v {{ echo caught $e $v }} \
             {{ for (i = {}) {{ if {{~ $i abc}} {{ throw found $i }} }}; echo none }}",
            words(20, 4)
        ),
        format!("for (i = {}) {{ dbl = $i }}; echo $#dbl $dbl", words(8, 5)),
        format!(
            "echo <>{{map <>{{compose @ y {{result $y^abc}} @ y {{result defg^$y}}}} {}}}",
            words(20, 6)
        ),
        format!(
            "for (i = {}) {{ let (k = $i) {{ fn-getk = @ {{ result $k }} }}; echo <>{{getk}} }}; \
             let (k = abc) {{ echo <>{{getk}} $k }}",
            words(8, 7)
        ),
    ]
}

/// One line of each of the serve pool's five command kinds.
fn serve_lines() -> Vec<String> {
    let all = words(3, 0);
    vec![
        format!("x = {all}; echo $x(2)"),
        format!("echo {all}"),
        format!("echo {all} | wc -w"),
        "echo abc > /tmp/s; cat /tmp/s".to_string(),
        "fn f v { echo $v $v }; f abc".to_string(),
    ]
}

/// Parses, lowers and drops every item.
fn front_end(items: &[String]) {
    for src in items {
        let tree = lower(parse_program(src).expect("bench input parses"));
        drop(black_box(tree));
    }
}

fn bench_front_end(c: &mut Criterion) {
    let inputs = [
        ("initial.es", vec![INITIAL_ES.to_string()]),
        ("script", script_lines()),
        ("serve", serve_lines()),
    ];
    let mut group = c.benchmark_group("e17_front_end");
    for (name, items) in &inputs {
        let lines: usize = items.iter().map(|s| s.lines().count()).sum();
        let bytes: usize = items.iter().map(String::len).sum();
        let before = MALLOCS.load(Ordering::Relaxed);
        front_end(items);
        let mallocs = MALLOCS.load(Ordering::Relaxed) - before;
        eprintln!(
            "{name}: {lines} lines, {bytes} bytes, {mallocs} mallocs ({:.1} per line)",
            mallocs as f64 / lines as f64
        );
        group.throughput(Throughput::Elements(lines as u64));
        group.bench_function(format!("{name}/per-line"), |b| b.iter(|| front_end(items)));
        group.throughput(Throughput::Bytes(bytes as u64));
        group.bench_function(format!("{name}/per-byte"), |b| b.iter(|| front_end(items)));
    }
    group.finish();
}

criterion_group!(benches, bench_front_end);
criterion_main!(benches);
