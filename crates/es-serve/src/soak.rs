//! The deterministic serving soak: thousands of seeded sessions with
//! fault weather, tight budgets, injected panics, and churn, driven
//! through one [`crate::server::Server`] — the acceptance rig for the
//! containment story.
//!
//! Everything the driver does is a pure function of the seed
//! (splitmix64 all the way down), and the server itself is
//! deterministic under a fixed feed/pump cadence, so running the same
//! soak twice must consume and emit the same bytes: the replay oracle.
//! The report carries the server's [`EventLog`] (the bytes' length and
//! digest) so callers can compare runs. The driver's other checks read
//! the frames the server hands back, as any client would.

use crate::pool::{PANIC_PROBE, PROBE_PANIC};
use crate::proto::{FaultClass, Frame};
use crate::server::{EventLog, ServeConfig, ServeStats, Server};
use std::collections::VecDeque;

/// What varies between soak runs; everything else about a run's shape
/// is fixed below.
#[derive(Clone)]
pub struct SoakConfig {
    /// Total sessions to push through the server.
    pub sessions: u64,
    /// Master seed; every decision derives from it.
    pub seed: u64,
}

/// What one soak run observed. Compare two seeded runs' `log`s for the
/// replay oracle.
#[derive(Default)]
pub struct SoakReport {
    /// Final server counters.
    pub stats: ServeStats,
    /// Total client frames fed.
    pub frames_fed: u64,
    /// Total server frames received back.
    pub frames_emitted: u64,
    /// Caught panics whose message is not the injected probe's.
    pub foreign_panics: u64,
    /// The server's event log at the end of the run.
    pub log: EventLog,
}

/// The server under test.
fn serve_config() -> ServeConfig {
    ServeConfig {
        capacity: 8,
        high_water: 6,
        slice_steps: 150,
        // Tight per-command budgets: runaway loops breach in a few
        // dozen slices instead of hanging the soak.
        session_limits: vec![("steps".to_string(), 4000), ("output".to_string(), 16384)],
        os_setup: None,
    }
}

/// Keep roughly this many sessions live at once: past the high-water
/// mark, so admission sheds.
const TARGET_LIVE: usize = 7;

/// One in this many sessions opens with fault weather.
const WEATHER_ONE_IN: u64 = 3;

/// One in this many commands is the panic probe.
const PANIC_ONE_IN: u64 = 64;

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

/// The driver's side of the wire: the server, the sessions it admitted
/// and has not seen close, and the frame counts for the report.
struct Client {
    server: Server,
    alive: VecDeque<u64>,
    seen: SoakReport,
}

impl Client {
    fn feed(&mut self, frame: Frame) -> Vec<Frame> {
        self.seen.frames_fed += 1;
        let frames = self.server.feed(frame);
        self.take(frames)
    }

    fn pump(&mut self, max_slices: u64) -> Vec<Frame> {
        let frames = self.server.pump(max_slices);
        self.take(frames)
    }

    /// Every batch the server returns passes through here: count it,
    /// forget the sessions it closed, and count the caught panics that
    /// were not the injected probe (a test-build oracle firing inside a
    /// slot, which the server would otherwise contain silently).
    fn take(&mut self, frames: Vec<Frame>) -> Vec<Frame> {
        self.seen.frames_emitted += frames.len() as u64;
        for f in &frames {
            match f {
                Frame::Closed { sid } => self.alive.retain(|s| s != sid),
                Frame::Fault {
                    class: FaultClass::Panic,
                    detail,
                    ..
                } if detail != PROBE_PANIC => self.seen.foreign_panics += 1,
                _ => {}
            }
        }
        frames
    }
}

/// Drives one seeded soak and returns the report. Panics only if the
/// *driver's* invariants break (a session the server claims is open
/// refusing commands, the drain never completing); server-side faults
/// are data, counted in the report.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let mut rng = cfg.seed;
    let mut c = Client {
        server: Server::new(serve_config()),
        alive: VecDeque::new(),
        seen: SoakReport::default(),
    };

    let mut opened = 0u64;
    while opened < cfg.sessions {
        // Admission: retry-after-shed, closing the oldest session to
        // free capacity — the backoff loop a well-behaved client runs.
        let fault_seed = if splitmix(&mut rng).is_multiple_of(WEATHER_ONE_IN) {
            Some(splitmix(&mut rng))
        } else {
            None
        };
        let mut retries = 0u32;
        let sid = loop {
            retries += 1;
            assert!(retries < 10_000, "admission permanently stuck");
            let resp = c.feed(Frame::Open {
                limits: vec![],
                fault_seed,
            });
            if let Some(Frame::Opened { sid }) = resp.first() {
                break *sid;
            }
            // Shed: make room — pump in-flight work, close the oldest
            // session — then retry.
            c.pump(32 + splitmix(&mut rng) % 64);
            if let Some(old) = c.alive.pop_front() {
                c.feed(Frame::Close { sid: old });
            }
        };
        c.alive.push_back(sid);
        opened += 1;

        // Queue this session's script.
        let ncmds = 1 + splitmix(&mut rng) % 3;
        for _ in 0..ncmds {
            let cmd = if splitmix(&mut rng).is_multiple_of(PANIC_ONE_IN) {
                PANIC_PROBE
            } else {
                COMMANDS[(splitmix(&mut rng) % COMMANDS.len() as u64) as usize]
            };
            c.feed(Frame::Line {
                sid,
                cmd: cmd.to_string(),
            });
        }

        // Churn: now and then a client hangs up right after sending.
        // One grant first, so that its first command has left the
        // queue: it is cancelled mid-run, or before it ever ran.
        if splitmix(&mut rng).is_multiple_of(CLOSE_EARLY_ONE_IN) {
            c.pump(1);
            if c.alive.back() == Some(&sid) {
                c.alive.pop_back();
                c.feed(Frame::Close { sid });
            }
        }

        // Interleave: a burst of baton grants across everything live.
        c.pump(16 + splitmix(&mut rng) % 48);

        // Churn down to the target population.
        while c.alive.len() > TARGET_LIVE {
            let old = c.alive.pop_front().expect("non-empty");
            c.feed(Frame::Close { sid: old });
        }
    }

    // Run remaining work dry, then drain.
    while !c.pump(10_000).is_empty() {}
    let drained = |frames: &[Frame]| frames.iter().any(|f| matches!(f, Frame::Drained { .. }));
    let mut done = drained(&c.feed(Frame::Drain { grace: 64 }));
    let mut rounds = 0;
    while !done {
        done = drained(&c.pump(10_000));
        rounds += 1;
        assert!(rounds < 1000, "drain never completed");
    }

    SoakReport {
        stats: c.server.stats(),
        log: c.server.event_log(),
        ..c.seen
    }
}
