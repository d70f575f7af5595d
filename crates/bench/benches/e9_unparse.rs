//! E9 — the unparsing machinery behind the environment.
//!
//! "A fair amount of es must be devoted to 'unparsing' function
//! definitions so that they may be passed as environment strings ...
//! complicated a bit more because the lexical environment of a
//! function definition must be preserved."
//!
//! Measures the closure → `%closure(a=b)@ * {...}` encode, the decode
//! (parse back into a live closure), and the full environment
//! round-trip (boot a child shell from a parent's exported state), at
//! 0..32 captured bindings.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use es_bench::{machine, run};
use es_core::Machine;
use es_os::SimOs;

/// A machine with a function capturing `n` lexical bindings.
fn with_captures(n: usize) -> Machine<SimOs> {
    let mut m = machine();
    let bindings: Vec<String> = (0..n).map(|i| format!("v{i} = value-{i}")).collect();
    let body: Vec<String> = (0..n).map(|i| format!("$v{i}")).collect();
    let src = format!(
        "let ({}) fn subject {{ echo {} }}",
        bindings.join("; "),
        body.join(" ")
    );
    run(&mut m, &src);
    m
}

fn bench_unparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_unparse");
    for &n in &[0usize, 8, 32] {
        group.bench_with_input(BenchmarkId::new("encode", n), &n, |b, &n| {
            let m = with_captures(n);
            b.iter(|| {
                let env = m.export_environment();
                assert!(env.iter().any(|(k, _)| k == "fn-subject"));
                env
            });
        });
        // `encode` above reuses the cached encodings; reassigning the
        // function first makes every export unparse it again.
        group.bench_with_input(BenchmarkId::new("encode-dirty", n), &n, |b, &n| {
            let mut m = with_captures(n);
            b.iter(|| {
                run(&mut m, "fn-subject = $fn-subject");
                let env = m.export_environment();
                assert!(env.iter().any(|(k, _)| k == "fn-subject"));
                env
            });
        });
        group.bench_with_input(BenchmarkId::new("decode", n), &n, |b, &n| {
            let m = with_captures(n);
            let env = m.export_environment();
            let encoded = env
                .iter()
                .find(|(k, _)| k == "fn-subject")
                .map(|(_, v)| v.clone())
                .expect("subject exported");
            b.iter(|| {
                let mut child = machine();
                crate_decode(&mut child, &encoded);
            });
        });
        group.bench_with_input(BenchmarkId::new("full-roundtrip", n), &n, |b, &n| {
            let m = with_captures(n);
            let env = m.export_environment().to_vec();
            b.iter(|| {
                let mut os = SimOs::new();
                os.set_initial_env(env.clone());
                let mut child = Machine::new(os).expect("child boots");
                run(&mut child, "subject");
            });
        });
    }
    group.finish();
}

/// Decodes one closure string by assignment (exercises the parser and
/// the closure-literal evaluator).
fn crate_decode(m: &mut Machine<SimOs>, encoded: &str) {
    run(m, &format!("fn-decoded = {encoded}"));
    assert_eq!(m.get_var("fn-decoded").len(), 1);
}

criterion_group!(benches, bench_unparse);
criterion_main!(benches);
