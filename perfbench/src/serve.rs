//! The `serve` workload: a closed loop with eight clients. One
//! thread keeps eight sessions live on an eight-slot `Server`; each
//! session sends its next line only after the previous one's `Done`,
//! and a closed session is replaced by a new one at once.
//!
//! The pool's slot machines are `Machine<SimOs>` inside es-serve, out
//! of the decorator's reach, so the traced run splits a served command
//! by replaying the pool's commands on a bare traced machine (the
//! mirror). A second, untraced mirror gives the tracing overhead and
//! the handoff: the served time minus its time for the same commands.

use crate::bare::{boot, oracle_self_test, run_checked, FIXED_PASSES, SETUP_EVERY_S};
use crate::gen::{self, Op};
use crate::layers::{release_costs, Tracer};
use crate::report::{
    cpu_us, end_to_end, median, peak_rss_mb, quantile, ratio, us, Batches, Metric, OneCpu, Report,
};
use crate::Args;
use es_os::SimOs;
use es_serve::{Frame, ServeConfig, Server};
use std::time::{Duration, Instant};

/// Live sessions, and the server's slots and admission high-water.
const LIVE: usize = 8;
/// Served commands per batch of the measured loop (a few ms).
const CMDS_PER_BATCH: usize = 64;
/// Closed sessions per batch of session overheads.
const SESSIONS_PER_BATCH: usize = 4;
/// Replays of the pool on the bare mirror machines.
const MIRROR_REPLAYS: usize = 10;

fn config() -> ServeConfig {
    ServeConfig {
        capacity: LIVE,
        high_water: LIVE,
        ..ServeConfig::default()
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

struct Session {
    sid: u64,
    /// Which pool session this is an instance of.
    idx: usize,
    /// Opened during the first pass over the pool.
    first: bool,
    next: usize,
    waiting: bool,
    sent: Instant,
    out: Vec<u8>,
    err: Vec<u8>,
    open_ns: u64,
    lat_ns: Vec<u64>,
}

/// Work done by the first pass over the session pool: deterministic
/// for a seed, so two runs must agree on it exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PassCounts {
    cmds: u64,
    sessions: u64,
    slices: u64,
    log_bytes: u64,
}

struct Drive {
    ops: Batches,
    sessions: Batches,
    /// Open + close times of the session batch being filled.
    session_ns: Vec<u64>,
    open_ns: Vec<u64>,
    close_ns: Vec<u64>,
    pump_ns: u64,
    cmds: u64,
    closed: u64,
    failed: u64,
    slices: u64,
    /// Peak memory when the fixed number of sessions had closed.
    peak_rss_mb: f64,
    first_pass: Option<PassCounts>,
    /// Served latency of each first-pass command, per pool session.
    first_lat: Vec<Vec<u64>>,
}

fn slices(server: &Server) -> u64 {
    (0..server.pool().capacity())
        .map(|i| server.pool().gate(i).slices_granted())
        .sum()
}

struct Feeder<'a> {
    server: &'a mut Server,
    pool: &'a [Vec<Op>],
    opened: usize,
    first_closed: usize,
    fixed_sessions: u64,
    /// False once the loop stops sending, so that the drain, with
    /// fewer sessions live, stays out of the batches.
    measuring: bool,
    slices0: u64,
    log0: usize,
    d: Drive,
}

impl Feeder<'_> {
    fn open(&mut self) -> Result<Session, String> {
        let idx = self.opened % self.pool.len();
        let first = self.opened < self.pool.len();
        self.opened += 1;
        let t0 = Instant::now();
        let resp = self.server.feed(Frame::Open {
            limits: vec![],
            fault_seed: None,
        });
        let open_ns = ns(t0.elapsed());
        match resp.as_slice() {
            [Frame::Opened { sid }] => Ok(Session {
                sid: *sid,
                idx,
                first,
                next: 0,
                waiting: false,
                sent: t0,
                out: Vec::new(),
                err: Vec::new(),
                open_ns,
                lat_ns: Vec::new(),
            }),
            other => Err(format!("session not admitted: {other:?}")),
        }
    }

    fn close(&mut self, s: Session) {
        let t0 = Instant::now();
        let resp = self.server.feed(Frame::Close { sid: s.sid });
        let close_ns = ns(t0.elapsed());
        if !matches!(resp.as_slice(), [Frame::Closed { .. }]) {
            self.d.failed += 1;
            eprintln!("perfbench: unexpected close reply: {resp:?}");
        }
        self.d.open_ns.push(s.open_ns);
        self.d.close_ns.push(close_ns);
        if self.measuring {
            self.d.session_ns.push(s.open_ns + close_ns);
            if self.d.session_ns.len() == SESSIONS_PER_BATCH {
                self.d.sessions.add(std::mem::take(&mut self.d.session_ns));
            }
        }
        self.d.closed += 1;
        if self.d.closed == self.fixed_sessions {
            self.d.peak_rss_mb = peak_rss_mb();
        }
        if s.first {
            self.d.first_lat[s.idx] = s.lat_ns;
            self.first_closed += 1;
            if self.first_closed == self.pool.len() {
                self.d.first_pass = Some(PassCounts {
                    cmds: self.d.cmds,
                    sessions: self.d.closed,
                    slices: slices(self.server) - self.slices0,
                    log_bytes: (self.server.event_log().len() - self.log0) as u64,
                });
            }
        }
    }

    /// Handles a `Done` for live session `pos`, stamped at `now`.
    fn done(&mut self, s: &mut Session, ok: bool, value: String, now: Instant) {
        let lat = ns(now.duration_since(s.sent));
        let op = &self.pool[s.idx][s.next];
        let result = if ok { Ok(()) } else { Err(value) };
        let (out, err) = (
            String::from_utf8_lossy(&s.out),
            String::from_utf8_lossy(&s.err),
        );
        if !op.accepts(&result, &out, &err) {
            self.d.failed += 1;
            if self.d.failed <= 3 {
                eprintln!(
                    "perfbench: served command failed: {}\n  result {result:?}\n  want {:?}\n  got  {out:?}",
                    op.line, op.stdout
                );
            }
        }
        if self.measuring {
            self.d.ops.op(lat);
            if self.d.ops.len() == CMDS_PER_BATCH {
                self.d.ops.end(0, Duration::ZERO);
                self.d.ops.start();
            }
        }
        self.d.cmds += 1;
        if s.first {
            s.lat_ns.push(lat);
        }
        s.next += 1;
        s.waiting = false;
        s.out.clear();
        s.err.clear();
    }
}

/// Drives the closed loop for `seconds`, and until at least `passes`
/// passes' worth of sessions (and every session of the first pass over
/// `pool`) have closed; then lets the commands in flight finish and
/// closes the remaining sessions. Once the fixed sessions have closed,
/// `between` runs every [`SETUP_EVERY_S`], with the clocks of the
/// commands in flight stopped.
fn drive(
    server: &mut Server,
    pool: &[Vec<Op>],
    seconds: f64,
    passes: usize,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Drive, String> {
    let mut dr = Feeder {
        slices0: slices(server),
        log0: server.event_log().len(),
        server,
        pool,
        opened: 0,
        first_closed: 0,
        fixed_sessions: (passes * pool.len()) as u64,
        measuring: true,
        d: Drive {
            ops: Batches::new(),
            sessions: Batches::new(),
            session_ns: Vec::new(),
            open_ns: Vec::new(),
            close_ns: Vec::new(),
            pump_ns: 0,
            cmds: 0,
            closed: 0,
            failed: 0,
            slices: 0,
            peak_rss_mb: 0.0,
            first_pass: None,
            first_lat: vec![Vec::new(); pool.len()],
        },
    };
    let mut live = Vec::with_capacity(LIVE);
    for _ in 0..LIVE {
        live.push(dr.open()?);
    }
    let start = Instant::now();
    let mut next_between = SETUP_EVERY_S;
    dr.d.ops.start();
    loop {
        let fixed_done = dr.d.first_pass.is_some() && dr.d.closed >= dr.fixed_sessions;
        let stopping = fixed_done && start.elapsed().as_secs_f64() >= seconds;
        dr.measuring = !stopping;
        if !stopping {
            if fixed_done && start.elapsed().as_secs_f64() >= next_between {
                let (t0, cpu0) = (Instant::now(), cpu_us());
                between()?;
                let wall = t0.elapsed();
                dr.d.ops.pause(wall, cpu_us() - cpu0);
                for s in live.iter_mut() {
                    s.sent += wall;
                }
                next_between += SETUP_EVERY_S;
            }
            for s in live.iter_mut().filter(|s| !s.waiting) {
                let cmd = pool[s.idx][s.next].line.clone();
                s.sent = Instant::now();
                s.waiting = true;
                let resp = dr.server.feed(Frame::Line { sid: s.sid, cmd });
                if !resp.is_empty() {
                    return Err(format!("line refused: {resp:?}"));
                }
            }
        } else if live.iter().all(|s| !s.waiting) {
            break;
        }
        let t0 = Instant::now();
        let frames = dr.server.pump(1);
        let now = Instant::now();
        dr.d.pump_ns += ns(now.duration_since(t0));
        for frame in frames {
            let sid = match &frame {
                Frame::Out { sid, .. } | Frame::Err { sid, .. } | Frame::Done { sid, .. } => *sid,
                other => return Err(format!("unexpected frame: {other:?}")),
            };
            let pos = live
                .iter()
                .position(|s| s.sid == sid)
                .ok_or_else(|| format!("frame for a session not live: {frame:?}"))?;
            match frame {
                Frame::Out { bytes, .. } => live[pos].out.extend(bytes),
                Frame::Err { bytes, .. } => live[pos].err.extend(bytes),
                Frame::Done { ok, value, .. } => {
                    let mut s = live.remove(pos);
                    dr.done(&mut s, ok, value, now);
                    if s.next < pool[s.idx].len() {
                        live.insert(pos, s);
                    } else {
                        dr.close(s);
                        if !stopping {
                            let fresh = dr.open()?;
                            live.insert(pos, fresh);
                        }
                    }
                }
                _ => unreachable!("filtered above"),
            }
        }
    }
    for s in live {
        dr.close(s);
    }
    let stats = dr.server.stats();
    if stats.shed != 0 || stats.oracle_violations != 0 || stats.panics != 0 {
        return Err(format!("server reported trouble: {stats:?}"));
    }
    dr.d.slices = slices(dr.server) - dr.slices0;
    Ok(dr.d)
}

/// Generates inputs, boots the pool, and warms it up with one pass
/// over the session pool.
fn setup(seed: u64) -> Result<(Vec<Vec<Op>>, Server), String> {
    let pool = gen::serve(seed);
    let mut server = Server::new(config());
    let warm = drive(&mut server, &pool, 0.0, 1, &mut || Ok(()))?;
    if warm.failed > 0 {
        return Err(format!("{} warm-up commands failed", warm.failed));
    }
    Ok((pool, server))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut cpu = OneCpu::new()?;
    cpu.rotate()?;
    let t0 = Instant::now();
    let (pool, mut server) = setup(args.seed)?;
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    oracle_self_test("", SimOs::new(), &pool[0][0])?;

    if args.trace {
        return traced(&pool, server, args);
    }
    let d = drive(&mut server, &pool, args.seconds, FIXED_PASSES, &mut || {
        cpu.rotate()?;
        let t0 = Instant::now();
        let state = setup(args.seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(state);
        Ok(())
    })?;
    let mut metrics: Vec<Metric> = end_to_end(&d.ops, &d.sessions);
    metrics.push(("peak_rss_mb", d.peak_rss_mb, "MB"));
    metrics.push(("setup_s", median(&setup_s), "s"));
    eprintln!(
        "perfbench: setup_s is the median of {} set-ups",
        setup_s.len()
    );
    Ok(Report {
        correct: d.failed == 0,
        attempted: d.cmds,
        failed: d.failed,
        metrics,
    })
}

/// The pool's sessions replayed on two bare machines, one on the
/// tracing kernel and one not, each session from the boot image.
struct Mirror {
    tracer: Tracer,
    /// One batch per session replayed, of that session's class: op
    /// spans on the traced machine, and op latencies on the untraced
    /// one.
    traced: Batches,
    plain: Batches,
    fingerprint_ns: Vec<f64>,
    recycle_ns: Vec<f64>,
    failed: u64,
}

/// Replays the pool [`MIRROR_REPLAYS`] times on each machine, taking
/// turns session by session; `SimOs::fingerprint` and `Machine::recycle` are timed at each
/// traced session's end.
fn mirror(pool: &[Vec<Op>]) -> Result<Mirror, String> {
    let tracer = Tracer::new();
    let mut tm = boot(tracer.kernel(SimOs::new()), "")?;
    let mut pm = boot(SimOs::new(), "")?;
    let mut mr = Mirror {
        tracer,
        traced: Batches::new(),
        plain: Batches::new(),
        fingerprint_ns: Vec::new(),
        recycle_ns: Vec::new(),
        failed: 0,
    };
    for _ in 0..MIRROR_REPLAYS {
        for (idx, session) in pool.iter().enumerate() {
            mr.plain.start();
            for op in session {
                mr.plain.op(run_checked(&mut pm, op, &mut mr.failed));
            }
            mr.plain.end(idx, Duration::ZERO);
            pm.recycle();
            mr.traced.start();
            for op in session {
                let (ok, span) = mr.tracer.run(&mut tm, op);
                mr.failed += u64::from(!ok);
                mr.traced.op(span);
            }
            mr.traced.end(idx, Duration::ZERO);
            let (f, r) = release_costs(&mut tm);
            mr.fingerprint_ns.push(f as f64);
            mr.recycle_ns.push(r as f64);
        }
    }
    Ok(mr)
}

/// The traced run: a phase on the set-up server whose first pass gives
/// the counts (a second fresh server must repeat them), and the mirror
/// replays for the layer split and the tracing overhead.
fn traced(pool: &[Vec<Op>], mut server: Server, args: &Args) -> Result<Report, String> {
    let d = drive(
        &mut server,
        pool,
        args.seconds / 2.0,
        FIXED_PASSES,
        &mut || Ok(()),
    )?;
    drop(server);
    let (_, mut server) = setup(args.seed)?;
    let again = drive(&mut server, pool, 0.0, 1, &mut || Ok(()))?;
    drop(server);

    let mr = mirror(pool)?;
    let tracer = &mr.tracer;
    let tracer_again = mirror(pool)?.tracer;
    let pass = d.first_pass.expect("drive completes the first pass");
    let deterministic =
        again.first_pass == d.first_pass && tracer_again.counts() == tracer.counts();
    if !deterministic {
        eprintln!(
            "perfbench: counts differ between two passes with one seed:\n  {:?} {:?}\n  {:?} {:?}",
            d.first_pass,
            tracer.counts(),
            again.first_pass,
            tracer_again.counts()
        );
    }
    let self_ok = tracer.self_ns() >= 0;
    if !self_ok {
        eprintln!("perfbench: interpreter self time came out negative");
    }
    match tracer.write_spans(&args.workload, args.seed) {
        Ok(path) => eprintln!("perfbench: mirror spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: spans not written: {e}"),
    }

    let served: Vec<u64> = d.first_lat.iter().flatten().copied().collect();
    let served_mean = ratio(served.iter().sum::<u64>() as f64, served.len() as f64);
    let mut metrics = tracer.metrics(&tracer.counts());
    metrics.extend([
        ("serve.open_us_p50", us(quantile(&d.open_ns, 0.5)), "us"),
        ("serve.close_us_p50", us(quantile(&d.close_ns, 0.5)), "us"),
        ("serve.recycle_us", us(median(&mr.recycle_ns)), "us"),
        ("serve.fingerprint_us", us(median(&mr.fingerprint_ns)), "us"),
        (
            "serve.slices_per_cmd",
            ratio(pass.slices as f64, pass.cmds as f64),
            "count",
        ),
        (
            "serve.pump_us_per_slice",
            us(ratio(d.pump_ns as f64, d.slices as f64)),
            "us",
        ),
        (
            "serve.handoff_us_per_cmd",
            us(served_mean - mr.plain.mean_ns()),
            "us",
        ),
        (
            "serve.log_bytes_per_session",
            ratio(pass.log_bytes as f64, pass.sessions as f64),
            "bytes",
        ),
        (
            "trace.slowdown_x",
            ratio(mr.traced.quiet().mean_ns(), mr.plain.quiet().mean_ns()),
            "ratio",
        ),
    ]);
    let failed = d.failed + again.failed + mr.failed;
    Ok(Report {
        correct: failed == 0 && deterministic && self_ok,
        attempted: d.cmds + again.cmds + mr.plain.samples() + mr.traced.samples(),
        failed,
        metrics,
    })
}
