//! E5 — "Since nearly all shell state can now be encoded in the
//! environment, it becomes superfluous for a new instance of es ...
//! to run a configuration file. Hence shell startup becomes very
//! quick."
//!
//! Compares booting a child shell whose state arrives (a) through
//! environment strings (the es way) against (b) a bare shell that
//! must source an equivalent rc file, at F = 1..200 function
//! definitions. The paper's claim holds if (a) is at least
//! competitive and, crucially, (a) scales better because no file I/O
//! or full reparse of user dotfiles happens — both decode the same
//! text here, so the win shows up as the rc-file variant's extra
//! sourcing machinery and file traffic.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use es_core::Machine;
use es_os::SimOs;

/// Builds a parent shell with `n` user-defined functions and returns
/// its exported environment plus the equivalent rc-file text.
fn parent_state(n: usize) -> (Vec<(String, String)>, String) {
    let mut m = Machine::new(SimOs::new()).expect("machine boots");
    let mut rc = String::new();
    for i in 0..n {
        let def = format!("fn user-fn-{i} a b {{ echo $a and $b and more-{i} }}\n");
        m.run(&def).expect("definition runs");
        rc.push_str(&def);
    }
    (m.export_environment().to_vec(), rc)
}

fn bench_startup(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_startup");
    group.sample_size(20);
    for &n in &[1usize, 50, 200] {
        let (env, rc) = parent_state(n);
        group.bench_with_input(BenchmarkId::new("env-encoded", n), &env, |b, env| {
            b.iter(|| {
                let mut os = SimOs::new();
                os.set_initial_env(env.clone());
                let m = Machine::new(os).expect("child boots");
                assert!(m.get_var(&format!("fn-user-fn-{}", n - 1)).len() == 1);
            });
        });
        group.bench_with_input(BenchmarkId::new("rc-file", n), &rc, |b, rc| {
            b.iter(|| {
                let mut os = SimOs::new();
                os.vfs_mut()
                    .put_file("/home/user/.esrc", rc.as_bytes())
                    .expect("rc file written");
                let mut m = Machine::new(os).expect("child boots");
                m.run(". /home/user/.esrc").expect("rc sourced");
                assert!(m.get_var(&format!("fn-user-fn-{}", n - 1)).len() == 1);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_startup);
criterion_main!(benches);
