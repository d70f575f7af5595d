//! E14 — the session server (EXPERIMENTS.md §E14).
//!
//! Three questions, one number each:
//!
//! * **Slot turnover**: what does admitting a tenant cost — a cold
//!   `Machine` boot (parse + run initial.es, build the kernel) versus
//!   `recycle()` restoring the frozen boot image of a dirtied machine?
//!   The pool's economics rest on this ratio. Next to it, the whole
//!   close of such a session through a `Server`: the recycle plus the
//!   reset audit. Both report the fastest of 15 rounds' means.
//! * **Throughput**: sessions/sec through a full `Server` — framed
//!   open/line/close, baton-scheduled slices, reset audit on every
//!   release — at 1k and 10k sequential sessions.
//! * **Tail latency**: p50/p99 of per-command completion (Line fed →
//!   Done emitted) under the same drive.
//! * **Live sessions**: the same two numbers on an 8-slot server with
//!   1 and with 8 sessions open at once, each client sending its next
//!   command only after the previous one's `Done` — so the baton's
//!   handoff between tenants is measured, not just one tenant's
//!   turnover.
//!
//! The criterion shim reports only to stderr, so this is a plain
//! `harness = false` main writing `BENCH_serve.json` at the repo root.

use es_core::Machine;
use es_os::SimOs;
use es_serve::{Frame, ServeConfig, Server};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Commands each benchmark session runs (ordinary small work: a
/// variable, a pipe, a redirection).
const SESSION_CMDS: &[&str] = &[
    "x = a b c; echo $x(2)",
    "echo bench | wc -l",
    "echo kept > /tmp/b; cat /tmp/b",
];

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// ns per cold Machine boot.
fn bench_cold_boot(iters: u32) -> u64 {
    let started = Instant::now();
    for _ in 0..iters {
        let m = Machine::new(SimOs::new()).expect("machine boots");
        std::hint::black_box(&m);
    }
    started.elapsed().as_nanos() as u64 / u64::from(iters)
}

/// Rounds of the recycle and close benches. Each reports its fastest
/// round's mean, because a single mean over every iteration moved by
/// nearly 2x between two runs on one tree.
const ROUNDS: u32 = 15;

/// The fastest of [`ROUNDS`] rounds of `iters` iterations, in ns per
/// iteration. `round` runs one round and returns the time it measured.
fn best_of_rounds(iters: u32, mut round: impl FnMut() -> Duration) -> u64 {
    (0..ROUNDS)
        .map(|_| round().as_nanos() as u64 / u64::from(iters))
        .min()
        .expect("at least one round")
}

/// ns per recycle of a dirtied machine: each iteration runs the
/// dirtying commands untimed, then times `recycle()` alone.
fn bench_recycle(iters: u32) -> u64 {
    let mut m = Machine::new(SimOs::new()).expect("machine boots");
    best_of_rounds(iters, || {
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            m.run("x = dirty; echo leak > /tmp/leak")
                .expect("dirtying runs");
            let started = Instant::now();
            assert!(m.recycle());
            total += started.elapsed();
        }
        total
    })
}

/// ns per `Frame::Close` of a session that ran the same dirtying
/// commands: each iteration opens a session and runs them untimed,
/// then times the close alone, which recycles the slot's machine and
/// audits it.
fn bench_close(iters: u32) -> u64 {
    let mut server = Server::new(ServeConfig {
        capacity: 1,
        high_water: 1,
        ..ServeConfig::default()
    });
    best_of_rounds(iters, || {
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            let resp = server.feed(Frame::Open {
                limits: vec![],
                fault_seed: None,
            });
            let sid = match resp.first() {
                Some(Frame::Opened { sid }) => *sid,
                other => panic!("bench session not admitted: {other:?}"),
            };
            server.feed(Frame::Line {
                sid,
                cmd: "x = dirty; echo leak > /tmp/leak".to_string(),
            });
            while !server
                .pump(1_000)
                .iter()
                .any(|f| matches!(f, Frame::Done { .. }))
            {}
            let started = Instant::now();
            let resp = server.feed(Frame::Close { sid });
            total += started.elapsed();
            assert!(
                matches!(resp.as_slice(), [Frame::Closed { .. }]),
                "bench session did not close cleanly: {resp:?}"
            );
        }
        total
    })
}

/// Drives `sessions` sequential sessions through one server; returns
/// (sessions/sec, sorted per-command latencies ns).
fn bench_serve(sessions: u64) -> (u64, Vec<u64>) {
    let mut server = Server::new(ServeConfig {
        capacity: 4,
        high_water: 4,
        ..ServeConfig::default()
    });
    let mut lat = Vec::with_capacity((sessions as usize) * SESSION_CMDS.len());
    let started = Instant::now();
    for _ in 0..sessions {
        let resp = server.feed(Frame::Open {
            limits: vec![],
            fault_seed: None,
        });
        let sid = match resp.first() {
            Some(Frame::Opened { sid }) => *sid,
            other => panic!("bench session not admitted: {other:?}"),
        };
        for cmd in SESSION_CMDS {
            let t0 = Instant::now();
            server.feed(Frame::Line {
                sid,
                cmd: (*cmd).to_string(),
            });
            'done: loop {
                for f in server.pump(1_000) {
                    if matches!(f, Frame::Done { .. }) {
                        break 'done;
                    }
                }
            }
            lat.push(t0.elapsed().as_nanos() as u64);
        }
        server.feed(Frame::Close { sid });
    }
    let secs = started.elapsed().as_secs_f64();
    let stats = server.stats();
    assert_eq!(stats.oracle_violations, 0, "bench sessions leaked state");
    lat.sort_unstable();
    ((sessions as f64 / secs) as u64, lat)
}

/// A closed-loop client of [`bench_live`]: one open session and the
/// next command it will send.
struct Client {
    sid: u64,
    next: usize,
    sent: Instant,
}

impl Client {
    fn open(server: &mut Server) -> Client {
        let resp = server.feed(Frame::Open {
            limits: vec![],
            fault_seed: None,
        });
        let sid = match resp.first() {
            Some(Frame::Opened { sid }) => *sid,
            other => panic!("bench session not admitted: {other:?}"),
        };
        let mut c = Client {
            sid,
            next: 0,
            sent: Instant::now(),
        };
        c.send(server);
        c
    }

    fn send(&mut self, server: &mut Server) {
        self.sent = Instant::now();
        server.feed(Frame::Line {
            sid: self.sid,
            cmd: SESSION_CMDS[self.next].to_string(),
        });
    }
}

/// Drives `sessions` sessions through an 8-slot server with `live` of
/// them open at once. Each client sends its next command when the
/// previous one's `Done` arrives; a client whose session has run every
/// command closes it and opens the next. One slice per pump, so each
/// `Done` is stamped when it is emitted. Returns (sessions/sec, sorted
/// per-command latencies ns).
fn bench_live(live: usize, sessions: u64) -> (u64, Vec<u64>) {
    let mut server = Server::new(ServeConfig {
        capacity: 8,
        high_water: 8,
        ..ServeConfig::default()
    });
    let mut lat = Vec::with_capacity((sessions as usize) * SESSION_CMDS.len());
    let started = Instant::now();
    let mut clients: Vec<Client> = (0..live).map(|_| Client::open(&mut server)).collect();
    let mut opened = live as u64;
    while !clients.is_empty() {
        for f in server.pump(1) {
            let Frame::Done { sid, .. } = f else {
                continue;
            };
            let i = clients
                .iter()
                .position(|c| c.sid == sid)
                .expect("Done for a live client");
            lat.push(clients[i].sent.elapsed().as_nanos() as u64);
            clients[i].next += 1;
            if clients[i].next < SESSION_CMDS.len() {
                clients[i].send(&mut server);
                continue;
            }
            server.feed(Frame::Close { sid });
            if opened < sessions {
                clients[i] = Client::open(&mut server);
                opened += 1;
            } else {
                clients.swap_remove(i);
            }
        }
    }
    let secs = started.elapsed().as_secs_f64();
    assert_eq!(
        server.stats().oracle_violations,
        0,
        "bench sessions leaked state"
    );
    lat.sort_unstable();
    ((sessions as f64 / secs) as u64, lat)
}

fn main() {
    let mut fields: Vec<(String, u64)> = Vec::new();

    let cold = bench_cold_boot(200);
    let recycle = bench_recycle(200);
    fields.push(("cold_boot_ns".into(), cold));
    fields.push(("recycle_ns".into(), recycle));
    fields.push(("close_ns".into(), bench_close(200)));
    fields.push(("recycle_speedup_x".into(), cold / recycle.max(1)));

    for sessions in [1_000u64, 10_000] {
        let (per_sec, lat) = bench_serve(sessions);
        let k = sessions / 1_000;
        fields.push((format!("serve_sessions_per_sec_{k}k"), per_sec));
        fields.push((format!("serve_cmd_p50_ns_{k}k"), percentile(&lat, 0.50)));
        fields.push((format!("serve_cmd_p99_ns_{k}k"), percentile(&lat, 0.99)));
    }

    for live in [1usize, 8] {
        let (per_sec, lat) = bench_live(live, 5_000);
        fields.push((format!("serve_live{live}_sessions_per_sec"), per_sec));
        fields.push((
            format!("serve_live{live}_cmd_p50_ns"),
            percentile(&lat, 0.50),
        ));
        fields.push((
            format!("serve_live{live}_cmd_p99_ns"),
            percentile(&lat, 0.99),
        ));
    }

    let mut json = String::from("{\n");
    for (i, (key, value)) in fields.iter().enumerate() {
        let comma = if i + 1 == fields.len() { "" } else { "," };
        json.push_str(&format!("  \"{key}\": {value}{comma}\n"));
        eprintln!("{key:32} {value:>12}");
    }
    json.push_str("}\n");

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    std::fs::write(&path, json).expect("BENCH_serve.json writes");
    eprintln!("wrote {}", path.display());
}
