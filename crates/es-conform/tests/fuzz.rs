//! Grammar-aware script fuzzing.
//!
//! * `fuzz_sim_weather_replay` — the Full grammar against SimOs:
//!   panic-free, descriptor-leak-free, byte-identical replay per seed,
//!   with FaultPlan weather armed on a third of the seeds.
//! * `fuzz_differential_fault_free` — the RealSafe grammar through the
//!   differential oracle: SimOs and RealOs must agree on every field
//!   with zero divergences (this subset runs fault-free by design).
//!
//! Seed count comes from `FUZZ_SEEDS` (default 256).

use es_conform::fuzz::{Profile, ScriptGen};
use es_conform::report::{record, Value};
use es_conform::{compare, have_tools, run_real, run_sim};
use proptest::prelude::Strategy;
use proptest::Rng;
use std::time::Instant;

fn seed_count() -> u64 {
    std::env::var("FUZZ_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256)
}

#[test]
fn fuzz_sim_weather_replay() {
    let started = Instant::now();
    let seeds = seed_count();
    let gen = ScriptGen(Profile::Full);
    let mut injected = 0usize;
    for seed in 0..seeds {
        let script = gen.generate(&mut Rng::new(seed));
        // A third of the seeds run under injected syscall-fault
        // weather; determinism must hold either way.
        let fault = (seed % 3 == 0).then_some(seed);
        let (trace, log) = run_sim(&script, fault, false);
        assert_eq!(
            trace.fd_delta(),
            0,
            "seed {seed} leaked descriptors\nscript: {script:#?}"
        );
        injected += log.len();
        let (trace2, log2) = run_sim(&script, fault, false);
        assert_eq!(
            trace, trace2,
            "seed {seed} trace diverges on replay\nscript: {script:#?}"
        );
        assert_eq!(log, log2, "seed {seed} fault log diverges on replay");
    }
    if seeds >= 16 {
        assert!(
            injected > 0,
            "fault weather never injected anything across {seeds} seeds"
        );
    }
    record(&[
        ("fuzz_sim_seeds", Value::Num(seeds as i64)),
        ("fuzz_sim_fault_injections", Value::Num(injected as i64)),
    ]);
    // Printed, not recorded: a wall-clock time would dirty the
    // checked-in report on every run.
    eprintln!("wall_ms_fuzz_sim: {}", started.elapsed().as_millis());
}

#[test]
fn fuzz_differential_fault_free() {
    // Tools the RealSafe grammar can reference.
    const NEEDED: &[&str] = &[
        "cat", "tr", "sort", "uniq", "head", "tail", "seq", "paste", "comm", "test",
    ];
    let started = Instant::now();
    let seeds = seed_count();
    if !have_tools(NEEDED) {
        eprintln!("skipping differential fuzz: missing one of {NEEDED:?}");
        record(&[("fuzz_diff_seeds", Value::Num(0))]);
        return;
    }
    let gen = ScriptGen(Profile::RealSafe);
    for seed in 0..seeds {
        // A distinct stream from the sim fuzz, so the two suites
        // explore different scripts.
        let script = gen.generate(&mut Rng::new(seed ^ 0xD1FF_EB01));
        let (sim, _) = run_sim(&script, None, false);
        let real = run_real(&script);
        let divergences = compare(&format!("fuzz-seed-{seed}"), &sim, &real);
        assert!(
            divergences.is_empty(),
            "seed {seed} diverges across backends:\n{}\nscript: {script:#?}",
            divergences
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    record(&[("fuzz_diff_seeds", Value::Num(seeds as i64))]);
    eprintln!("wall_ms_fuzz_diff: {}", started.elapsed().as_millis());
}
