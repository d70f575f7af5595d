//! The `script` workload: a closed loop with one caller, running the
//! op pool back to back on one bare `Machine`.

use crate::gen::{self, BareInputs, Op};
use crate::layers::{release_costs, TracedMachine, Tracer};
use crate::report::{end_to_end, median, peak_rss_mb, ratio, us, Batches, Metric, Report};
use crate::Args;
use es_core::Machine;
use es_os::{Os, SimOs};
use std::time::{Duration, Instant};

/// Passes over the pool every measured loop makes at least. Peak
/// memory is read when they end, so that it reflects a fixed amount of
/// work rather than how many ops the time allowed.
pub const FIXED_PASSES: usize = 4;
/// Seconds of measured loop between two set-ups timed for `setup_s`.
/// Spread over the run, the set-ups meet the same mix of host load as
/// the loop does, rather than whatever the first second brings.
pub const SETUP_EVERY_S: f64 = 1.0;
/// Bare sessions timed after each pass, for `session_overhead_*`, in
/// batches of [`SESSIONS_PER_BATCH`]: enough that the quiet batches
/// hold a thousand sessions or more. The sessions all do the same
/// work, so a short batch keeps the host's stalls out of their p99.
const SESSIONS_PER_PASS: usize = 128;
const SESSIONS_PER_BATCH: usize = 8;
/// Ops per timed batch: about 4 ms of work, short enough that many
/// batches fall between the host's bursts of load. Divides the pool's
/// length, so every pass is cut the same way.
const OPS_PER_BATCH: usize = 32;
/// Mismatches described on stderr before going quiet.
const REPORTED_FAILURES: u64 = 3;

/// Boots a machine and runs the workload's prelude on it.
pub fn boot<O: Os + Clone>(os: O, prelude: &str) -> Result<Machine<O>, String> {
    let mut m = Machine::new(os).map_err(|_| "machine failed to boot".to_string())?;
    m.run_quiet(prelude)
        .map_err(|e| format!("prelude failed: {e}"))?;
    m.os_mut().take_console();
    Ok(m)
}

/// Runs `op` and checks its output, counting and describing the first
/// few mismatches; returns the run's latency in nanoseconds.
pub fn run_checked<O: Os + Clone>(m: &mut Machine<O>, op: &Op, failed: &mut u64) -> u64 {
    let t0 = Instant::now();
    let result = m.run_quiet(&op.line);
    let lat = t0.elapsed().as_nanos() as u64;
    let (out, err) = m.os_mut().take_console();
    if !op.accepts(&result, &out, &err) {
        *failed += 1;
        if *failed <= REPORTED_FAILURES {
            eprintln!(
                "perfbench: op failed: {}\n  result {result:?}\n  want {:?}\n  got  {out:?}\n  stderr {err:?}",
                op.line, op.stdout
            );
        }
    }
    lat
}

/// Shows that the oracle catches a wrong answer: `op` must pass on a
/// fresh machine and fail once one byte of its expectation is changed.
pub fn oracle_self_test(prelude: &str, os: SimOs, op: &Op) -> Result<(), String> {
    let mut m = boot(os, prelude)?;
    let result = m.run_quiet(&op.line);
    let (out, err) = m.os_mut().take_console();
    if !op.accepts(&result, &out, &err) {
        return Err(format!(
            "oracle self-test: `{}` fails its own expectation",
            op.line
        ));
    }
    let mut corrupted = op.clone();
    let first = if corrupted.stdout.starts_with('x') {
        "y"
    } else {
        "x"
    };
    corrupted.stdout.replace_range(..1, first);
    if corrupted.accepts(&result, &out, &err) {
        return Err("oracle self-test: a corrupted expectation was not caught".to_string());
    }
    eprintln!("perfbench: oracle self-test: the corrupted expectation was caught");
    Ok(())
}

/// Generates inputs, boots, and warms up with one pass over the pool
/// (so code caches and the heap have grown before timing starts).
fn setup(seed: u64) -> Result<(BareInputs, Machine<SimOs>), String> {
    let inputs = gen::script(seed);
    let mut m = boot(SimOs::new(), &inputs.prelude)?;
    let mut failed = 0;
    for op in &inputs.ops {
        run_checked(&mut m, op, &mut failed);
    }
    if failed > 0 {
        return Err(format!("{failed} warm-up ops failed"));
    }
    Ok((inputs, m))
}

/// One closed-loop phase.
struct Phase {
    ops: Batches,
    sessions: Batches,
    failed: u64,
    peak_rss_mb: f64,
}

/// Runs passes over the pool, timed in batches of [`OPS_PER_BATCH`] ops,
/// for `seconds` and at least [`FIXED_PASSES`] passes. Each pass is
/// followed by [`SESSIONS_PER_PASS`] bare sessions timed on the `side`
/// machine. Once the fixed passes are done, `between` runs every
/// [`SETUP_EVERY_S`].
fn closed_loop(
    m: &mut Machine<SimOs>,
    inputs: &BareInputs,
    seconds: f64,
    side: &mut Machine<SimOs>,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Phase, String> {
    let (mut ops, mut sessions) = (Batches::new(), Batches::new());
    let mut failed = 0;
    let mut peak = 0.0;
    let start = Instant::now();
    let mut next_between = SETUP_EVERY_S;
    let mut passes = 0;
    while passes < FIXED_PASSES || start.elapsed().as_secs_f64() < seconds {
        timed_pass(m, inputs, &mut ops, |m, op| run_checked(m, op, &mut failed));
        passes += 1;
        if passes == FIXED_PASSES {
            peak = peak_rss_mb();
        }
        for _ in 0..SESSIONS_PER_PASS / SESSIONS_PER_BATCH {
            let mut lat = Vec::with_capacity(SESSIONS_PER_BATCH);
            for _ in 0..SESSIONS_PER_BATCH {
                lat.push(session(side, &inputs.prelude)?);
            }
            sessions.add(lat);
        }
        if passes >= FIXED_PASSES && start.elapsed().as_secs_f64() >= next_between {
            between()?;
            next_between += SETUP_EVERY_S;
        }
    }
    Ok(Phase {
        ops,
        sessions,
        failed,
        peak_rss_mb: peak,
    })
}

/// Runs one pass over the pool on `m`, timed in batches of
/// [`OPS_PER_BATCH`] ops; the `i`th batch of every pass is of class `i`.
/// `run` runs one op and returns its latency in nanoseconds.
fn timed_pass<O: Os + Clone>(
    m: &mut Machine<O>,
    inputs: &BareInputs,
    batches: &mut Batches,
    mut run: impl FnMut(&mut Machine<O>, &Op) -> u64,
) {
    for (class, batch) in inputs.ops.chunks(OPS_PER_BATCH).enumerate() {
        let gc0 = m.heap.stats().pause_total;
        batches.start();
        for op in batch {
            batches.op(run(m, op));
        }
        batches.end(class, m.heap.stats().pause_total - gc0);
    }
}

/// Restores the boot image and reinstalls the prelude, as a host that
/// gives each user a fresh session of this workload would; returns
/// the time taken.
fn session(m: &mut Machine<SimOs>, prelude: &str) -> Result<u64, String> {
    let t0 = Instant::now();
    m.recycle();
    m.run_quiet(prelude)
        .map_err(|e| format!("prelude failed: {e}"))?;
    let ns = t0.elapsed().as_nanos() as u64;
    m.os_mut().take_console();
    Ok(ns)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let t0 = Instant::now();
    let (inputs, mut m) = setup(args.seed)?;
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    oracle_self_test(&inputs.prelude, SimOs::new(), &inputs.ops[0])?;

    if args.trace {
        return traced(&inputs, m, args);
    }
    let mut side = boot(SimOs::new(), &inputs.prelude)?;
    let phase = closed_loop(&mut m, &inputs, args.seconds, &mut side, || {
        let t0 = Instant::now();
        let state = setup(args.seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(state);
        Ok(())
    })?;
    let mut metrics = end_to_end(&phase.ops, &phase.sessions);
    metrics.push(("peak_rss_mb", phase.peak_rss_mb, "MB"));
    metrics.push(("setup_s", median(&setup_s), "s"));
    eprintln!(
        "perfbench: setup_s is the median of {} set-ups",
        setup_s.len()
    );
    Ok(Report {
        correct: phase.failed == 0,
        attempted: phase.ops.samples(),
        failed: phase.failed,
        metrics,
    })
}

/// Boots a fresh traced machine and runs one pass over the pool on it;
/// returns the machine, the tracer, and the failures.
fn traced_pass(inputs: &BareInputs) -> Result<(TracedMachine, Tracer, u64), String> {
    let mut tracer = Tracer::new();
    let mut m = boot(tracer.kernel(SimOs::new()), &inputs.prelude)?;
    let mut failed = 0;
    for op in &inputs.ops {
        if !tracer.run(&mut m, op).0 {
            failed += 1;
        }
    }
    Ok((m, tracer, failed))
}

/// The traced run: passes over the pool taken in turns by the set-up
/// machine, untraced, and a fresh traced one, so that both meet the
/// same host load; `trace.slowdown_x` compares their quiet batches.
/// Counts come from the traced machine's first pass, which a second
/// fresh pass must repeat exactly.
fn traced(inputs: &BareInputs, mut m: Machine<SimOs>, args: &Args) -> Result<Report, String> {
    let (mut tm, mut tracer, mut failed) = traced_pass(inputs)?;
    let first_pass = tracer.counts();
    // The first pass warmed the machine up; time the passes after it.
    tracer.restart_timing();
    let (mut plain, mut spans) = (Batches::new(), Batches::new());
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut passes = 0;
    while passes == 0 || Instant::now() < deadline {
        timed_pass(&mut m, inputs, &mut plain, |m, op| {
            run_checked(m, op, &mut failed)
        });
        timed_pass(&mut tm, inputs, &mut spans, |m, op| {
            let (ok, span) = tracer.run(m, op);
            failed += u64::from(!ok);
            span
        });
        passes += 1;
    }
    let (fingerprint, recycle) = release_costs(&mut tm);

    let (_, again, failed_again) = traced_pass(inputs)?;
    let deterministic = again.counts() == first_pass;
    if !deterministic {
        eprintln!(
            "perfbench: counts differ between two passes with one seed:\n  {first_pass:?}\n  {:?}",
            again.counts()
        );
    }
    let self_ok = tracer.self_ns() >= 0;
    if !self_ok {
        eprintln!("perfbench: interpreter self time came out negative");
    }
    match tracer.write_spans(&args.workload, args.seed) {
        Ok(path) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: spans not written: {e}"),
    }

    let mut metrics = tracer.metrics(&first_pass);
    metrics.extend(serve_metrics_absent(fingerprint, recycle));
    metrics.push((
        "trace.slowdown_x",
        ratio(spans.quiet().mean_ns(), plain.quiet().mean_ns()),
        "ratio",
    ));
    let failed = failed + failed_again;
    Ok(Report {
        correct: failed == 0 && deterministic && self_ok,
        attempted: tracer.counts().ops + again.counts().ops + plain.samples(),
        failed,
        metrics,
    })
}

/// The `serve.*` metrics on a bare machine: no server runs, so only
/// the release costs (fingerprint, recycle) exist; the rest read 0.
fn serve_metrics_absent(fingerprint_ns: u64, recycle_ns: u64) -> Vec<Metric> {
    vec![
        ("serve.open_us_p50", 0.0, "us"),
        ("serve.close_us_p50", 0.0, "us"),
        ("serve.recycle_us", us(recycle_ns as f64), "us"),
        ("serve.fingerprint_us", us(fingerprint_ns as f64), "us"),
        ("serve.slices_per_cmd", 0.0, "count"),
        ("serve.pump_us_per_slice", 0.0, "us"),
        ("serve.handoff_us_per_cmd", 0.0, "us"),
        ("serve.log_bytes_per_session", 0.0, "bytes"),
    ]
}
