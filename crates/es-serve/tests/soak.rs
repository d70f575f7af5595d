//! The serving soak acceptance rig (ISSUE 9): seeded thousands-of-
//! sessions runs with fault weather, tight budgets, injected panics,
//! and admission churn. `make serve-soak` drives this same test at 10k
//! sessions via `SERVE_SESSIONS` / `SERVE_SEEDS`.

use es_serve::soak::{run_soak, SoakConfig, SoakReport};
use es_serve::ServeStats;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn assert_contained(stats: &ServeStats, sessions: u64) {
    assert_eq!(
        stats.opened, sessions,
        "every session must eventually admit"
    );
    assert_eq!(
        stats.oracle_violations, 0,
        "cross-session state bleed detected by the reset oracle"
    );
    assert_eq!(stats.retired, 0, "no slot should fail a fresh-boot audit");
    assert_eq!(
        stats.panics, stats.scrubs,
        "every caught panic must scrub its slot (and nothing else scrubs)"
    );
    assert!(
        stats.panics > 0,
        "the probe should have injected panics to contain"
    );
    assert!(
        stats.shed > 0,
        "driving past high water must engage load shedding"
    );
    assert!(
        stats.failed > 0,
        "tight budgets should breach some runaway commands"
    );
    assert!(
        stats.cancelled > 0,
        "early closes should cancel commands in flight"
    );
    assert!(
        stats.max_live <= 6,
        "admission must hold the high-water mark"
    );
}

/// Every caught panic must be an injected probe. A test-build oracle
/// (a `debug_assert!`, on under the `soak` profile) that fires panics
/// inside a slot too, and the server would otherwise contain it
/// silently.
fn assert_only_probes_panicked(report: &SoakReport) {
    assert_eq!(
        report.foreign_panics, 0,
        "a panic other than the injected probe was caught"
    );
    assert!(report.stats.panics > 0, "the probe never panicked");
}

/// The acceptance soak: every seed runs twice and must produce equal
/// event logs (the replay oracle: same length, same digest of every
/// frame in order), with zero escaped panics (the test process
/// surviving IS the assertion — a panic that crossed a slot boundary
/// would kill the run), zero reset-oracle violations, and shedding
/// engaged but harmless. Prints one `seed len digest` line per seed
/// (under `--nocapture`), so a change that must not alter served
/// frames can diff its output against its parent's.
#[test]
fn soak_is_contained_and_replays_byte_identically() {
    let sessions = env_u64("SERVE_SESSIONS", 400);
    let seeds = env_u64("SERVE_SEEDS", 2);
    for seed_no in 0..seeds {
        let cfg = SoakConfig {
            sessions,
            seed: 0xE5_5E44E + seed_no * 0x9E3779B9,
        };
        let first = run_soak(&cfg);
        println!(
            "{:#x} {} {:016x}",
            cfg.seed,
            first.log.len(),
            first.log.digest()
        );
        assert_contained(&first.stats, sessions);
        assert_only_probes_panicked(&first);
        let replay = run_soak(&cfg);
        assert_eq!(
            first.log.len(),
            replay.log.len(),
            "seed {seed_no}: replay produced a different amount of traffic"
        );
        assert_eq!(
            first.log, replay.log,
            "seed {seed_no}: replay diverged from the original event log"
        );
        assert_eq!(first.frames_fed, replay.frames_fed);
        assert_eq!(first.frames_emitted, replay.frames_emitted);
    }
}

/// Different seeds must actually explore different schedules — a
/// replay oracle that compares constant logs proves nothing.
#[test]
fn different_seeds_produce_different_logs() {
    let a = run_soak(&SoakConfig {
        sessions: 40,
        seed: 1,
    });
    let b = run_soak(&SoakConfig {
        sessions: 40,
        seed: 2,
    });
    assert_ne!(
        a.log.digest(),
        b.log.digest(),
        "seeded soaks are not actually seed-sensitive"
    );
}
