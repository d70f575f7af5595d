//! The deterministic serving soak: thousands of seeded sessions with
//! fault weather, tight budgets, injected panics, and churn, driven
//! through one [`crate::server::Server`] — the acceptance rig for the
//! containment story.
//!
//! Everything the driver does is a pure function of the seed
//! (splitmix64 all the way down), and the server itself is
//! deterministic under a fixed feed/pump cadence, so running the same
//! soak twice must produce *byte-identical* event logs — the replay
//! oracle. The report carries the log so callers can compare runs.

use crate::proto::Frame;
use crate::server::{ServeConfig, ServeStats, Server};
use std::collections::VecDeque;

/// Soak shape knobs. All defaults match the checked-in `make
/// serve-soak` acceptance run except `sessions`, which that target
/// scales up to 10k.
#[derive(Clone)]
pub struct SoakConfig {
    /// Total sessions to push through the server.
    pub sessions: u64,
    /// Master seed; every decision derives from it.
    pub seed: u64,
    /// Server under test.
    pub serve: ServeConfig,
    /// Keep roughly this many sessions live at once (drives admission
    /// past the high-water mark when it exceeds it).
    pub target_live: usize,
    /// One in this many sessions opens with fault weather.
    pub weather_one_in: u64,
    /// One in this many commands is the panic probe.
    pub panic_one_in: u64,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        let serve = ServeConfig {
            capacity: 8,
            high_water: 6,
            slice_steps: 150,
            // Tight per-command budgets: runaway loops breach in a
            // few dozen slices instead of hanging the soak.
            session_limits: vec![("steps".to_string(), 4000), ("output".to_string(), 16384)],
            ..ServeConfig::default()
        };
        SoakConfig {
            sessions: 400,
            seed: 0xE5_5E44_E001,
            serve,
            target_live: 7,
            weather_one_in: 3,
            panic_one_in: 64,
        }
    }
}

/// What one soak run observed. `log` is the server's full event log;
/// byte-compare two seeded runs for the replay oracle.
pub struct SoakReport {
    /// Final server counters.
    pub stats: ServeStats,
    /// Total client frames fed.
    pub frames_fed: u64,
    /// Total server frames received back.
    pub frames_emitted: u64,
    /// The interleaved event log.
    pub log: Vec<u8>,
}

/// One in this many sessions is closed right after queueing its lines
/// and one grant, before the pump burst that would run them.
const CLOSE_EARLY_ONE_IN: u64 = 16;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The command mix: ordinary work, state that must not leak (globals,
/// hook rebinds, open redirections), breach-bound loops, and output
/// through pipes. Index by rng.
const COMMANDS: &[&str] = &[
    "echo soak",
    "x = a b c; echo $x(2)",
    "let (i = one two) { echo $i }",
    "if {true} {echo yes} {echo no}",
    "fn f a { echo <$a> }; f 7",
    "echo hi | wc -l",
    "echo stored > /tmp/soak; cat /tmp/soak",
    "catch @ e { echo caught } { throw error soak boom }",
    "fn-%pipe = @ { echo hooked }",
    "while {true} {}",
    "echo a b c d e f g h",
    "result 1 2 3",
];

/// Drives one seeded soak and returns the report. Panics only if the
/// *driver's* invariants break (a session the server claims is open
/// refusing commands, the drain never completing); server-side faults
/// are data, counted in the report.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let mut rng = cfg.seed;
    let mut server = Server::new(cfg.serve.clone());
    let mut alive: VecDeque<u64> = VecDeque::new();
    let mut frames_fed = 0u64;
    let mut frames_emitted = 0u64;

    let note = |alive: &mut VecDeque<u64>, frames: &[Frame]| {
        for f in frames {
            if let Frame::Closed { sid } = f {
                alive.retain(|s| s != sid);
            }
        }
    };

    let mut opened = 0u64;
    while opened < cfg.sessions {
        // Admission: retry-after-shed, closing the oldest session to
        // free capacity — the backoff loop a well-behaved client runs.
        let fault_seed = if splitmix(&mut rng).is_multiple_of(cfg.weather_one_in) {
            Some(splitmix(&mut rng))
        } else {
            None
        };
        let mut retries = 0u32;
        let sid = loop {
            retries += 1;
            assert!(retries < 10_000, "admission permanently stuck");
            frames_fed += 1;
            let resp = server.feed(Frame::Open {
                limits: vec![],
                fault_seed,
            });
            frames_emitted += resp.len() as u64;
            match resp.first() {
                Some(Frame::Opened { sid }) => break *sid,
                _ => {
                    // Shed: make room — pump in-flight work, close the
                    // oldest session — then retry.
                    let pumped = server.pump(32 + splitmix(&mut rng) % 64);
                    frames_emitted += pumped.len() as u64;
                    note(&mut alive, &pumped);
                    if let Some(old) = alive.pop_front() {
                        frames_fed += 1;
                        let closed = server.feed(Frame::Close { sid: old });
                        frames_emitted += closed.len() as u64;
                    }
                }
            }
        };
        alive.push_back(sid);
        opened += 1;

        // Queue this session's script.
        let ncmds = 1 + splitmix(&mut rng) % 3;
        for _ in 0..ncmds {
            let cmd = if splitmix(&mut rng).is_multiple_of(cfg.panic_one_in) {
                cfg.serve.panic_probe.clone()
            } else {
                COMMANDS[(splitmix(&mut rng) % COMMANDS.len() as u64) as usize].to_string()
            };
            frames_fed += 1;
            let resp = server.feed(Frame::Line { sid, cmd });
            frames_emitted += resp.len() as u64;
        }

        // Churn: now and then a client hangs up right after sending.
        // One grant first, so that its first command has left the
        // queue: it is cancelled mid-run, or before it ever ran.
        if splitmix(&mut rng).is_multiple_of(CLOSE_EARLY_ONE_IN) {
            let pumped = server.pump(1);
            frames_emitted += pumped.len() as u64;
            note(&mut alive, &pumped);
            if alive.back() == Some(&sid) {
                alive.pop_back();
                frames_fed += 1;
                let closed = server.feed(Frame::Close { sid });
                frames_emitted += closed.len() as u64;
            }
        }

        // Interleave: a burst of baton grants across everything live.
        let pumped = server.pump(16 + splitmix(&mut rng) % 48);
        frames_emitted += pumped.len() as u64;
        note(&mut alive, &pumped);

        // Churn down to the target population.
        while alive.len() > cfg.target_live {
            let old = alive.pop_front().expect("non-empty");
            frames_fed += 1;
            let closed = server.feed(Frame::Close { sid: old });
            frames_emitted += closed.len() as u64;
        }
    }

    // Run remaining work dry, then drain.
    loop {
        let pumped = server.pump(10_000);
        frames_emitted += pumped.len() as u64;
        note(&mut alive, &pumped);
        if pumped.is_empty() {
            break;
        }
    }
    frames_fed += 1;
    let resp = server.feed(Frame::Drain { grace: 64 });
    frames_emitted += resp.len() as u64;
    note(&mut alive, &resp);
    let mut drained = resp.iter().any(|f| matches!(f, Frame::Drained { .. }));
    let mut rounds = 0;
    while !drained {
        let pumped = server.pump(10_000);
        frames_emitted += pumped.len() as u64;
        note(&mut alive, &pumped);
        drained = pumped.iter().any(|f| matches!(f, Frame::Drained { .. }));
        rounds += 1;
        assert!(rounds < 1000, "drain never completed");
    }

    SoakReport {
        stats: server.stats(),
        frames_fed,
        frames_emitted,
        log: server.event_log().to_vec(),
    }
}
