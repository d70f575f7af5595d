//! The session server: admission control, baton scheduling, fault
//! containment, and graceful drain over a [`crate::pool::Pool`].
//!
//! The server is deliberately *caller-driven*: [`Server::feed`]
//! consumes one client frame and returns any immediate responses;
//! [`Server::pump`] advances execution by up to `max_slices` baton
//! grants and returns whatever frames that produced. Everything runs
//! in the caller's thread: each slot worker runs on a fiber there, and
//! exactly one of them runs at any moment (the baton), which makes the
//! whole serving path deterministic: the same frame sequence fed
//! through the same pump cadence consumes and emits the same bytes. The server keeps only an [`EventLog`] of those bytes (a
//! length and a digest, O(1) however long it runs), which the soak
//! suite's replay oracle compares between two runs.
//!
//! ## Containment ladder
//!
//! - A *budget breach* (`limit steps ...`) is a per-command error: the
//!   tenant gets [`Frame::Done`] with `ok = false`, the session
//!   survives, and its limits are re-armed before the next command.
//! - A *cancellation* (client close, drain deadline) unwinds the
//!   command with the uncatchable exit — tenant `catch` cannot
//!   intercept it — and is reported as [`FaultClass::Cancelled`].
//! - A *panic* is caught at the slot boundary: the tenant gets
//!   [`FaultClass::Panic`], the slot is scrubbed (fresh boot + reset
//!   audit), and every other session keeps running undisturbed.
//! - A *reset-oracle violation* on release means the slot could leak
//!   state to its next tenant: [`FaultClass::Oracle`] is reported and
//!   the slot is scrubbed — or retired if even a fresh boot fails the
//!   audit.

use crate::gate::Phase;
use crate::pool::{OsSetup, Outcome, Pool, Request, SlotState};
use crate::proto::{FaultClass, Frame};
use es_core::governor::Kind;
use std::collections::{BTreeMap, VecDeque};
use std::hash::{DefaultHasher, Hasher};

/// Base retry hint for shed responses, in milliseconds.
const SHED_BASE_MS: u64 = 25;
/// Cap on the shed backoff exponent (`base << min(streak, cap)`).
const SHED_MAX_EXP: u32 = 8;

/// Server tuning knobs.
#[derive(Clone)]
pub struct ServeConfig {
    /// Pool slots (maximum concurrently admitted sessions).
    pub capacity: usize,
    /// Admission high-water mark: opens are shed while live sessions
    /// are at or above this (≤ `capacity`).
    pub high_water: usize,
    /// Charge ticks per baton grant — the fairness quantum.
    pub slice_steps: u64,
    /// Limits re-armed before every command of every session (an
    /// `Open` may override individual kinds).
    pub session_limits: Vec<(String, u64)>,
    /// Kernel setup run before each slot boots (seed `/bin`, etc.).
    pub os_setup: Option<OsSetup>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            capacity: 8,
            high_water: 8,
            slice_steps: 200,
            session_limits: vec![("steps".to_string(), 200_000)],
            os_setup: None,
        }
    }
}

/// Counters the serve tests and the soak report read.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Sessions admitted.
    pub opened: u64,
    /// Opens refused by admission control.
    pub shed: u64,
    /// Commands that finished with a value.
    pub completed: u64,
    /// Commands that finished with an es-level error (breaches etc.).
    pub failed: u64,
    /// Commands cancelled by close or drain deadline.
    pub cancelled: u64,
    /// Panics caught at the slot boundary.
    pub panics: u64,
    /// Dirty reset audits (recycle or scrub).
    pub oracle_violations: u64,
    /// Fresh boots forced by a panic or a dirty audit.
    pub scrubs: u64,
    /// Slots permanently retired.
    pub retired: u64,
    /// Most sessions live at once.
    pub max_live: usize,
}

/// What the server keeps of its traffic: the length and a digest of
/// every frame it consumed and emitted, encoded, in order. Equal logs
/// stand in for equal bytes (the replay oracle), and a long-running
/// server keeps no transcript.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventLog {
    len: usize,
    digest: u64,
}

impl EventLog {
    /// Bytes of encoded frames logged so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before the first frame.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The frames' digest, chained in order. `DefaultHasher::new()` is
    /// keyless, so equal traffic gives equal digests within one build.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    fn absorb(&mut self, frame: &[u8]) {
        let mut h = DefaultHasher::new();
        h.write_u64(self.digest);
        h.write(frame);
        self.digest = h.finish();
        self.len += frame.len();
    }
}

struct Session {
    slot: usize,
    /// Merged limit spec, re-armed before every command.
    limits: Vec<(String, u64)>,
    /// Fault weather for the slot, taken by the first command.
    fault_seed: Option<u64>,
    /// Commands accepted but not yet started (FIFO).
    queue: VecDeque<String>,
    /// A command is in flight: `pending` until its first slice
    /// delivers it to the slot worker.
    running: bool,
    pending: Option<String>,
    /// Baton grants consumed since drain began (drain deadline).
    drain_used: u64,
}

impl Session {
    /// The request that delivers the pending command to the slot
    /// worker, with its limits and, on the session's first command,
    /// its fault weather.
    fn deliver(&mut self) -> Option<Request> {
        let cmd = self.pending.take()?;
        Some(Request {
            cmd,
            limits: self.limits.clone(),
            fault_seed: self.fault_seed.take(),
        })
    }
}

/// The multi-tenant session server. See the module docs for the
/// feed/pump driving model.
pub struct Server {
    cfg: ServeConfig,
    pool: Pool,
    sessions: BTreeMap<u64, Session>,
    next_sid: u64,
    /// Consecutive sheds since the last successful admit.
    shed_streak: u32,
    /// Round-robin position: the last sid granted a slice.
    rr_cursor: u64,
    draining: bool,
    drain_grace: u64,
    drain_finished: u64,
    drain_cancelled: u64,
    /// A `Drained` frame is still owed once in-flight work ends.
    drain_pending: bool,
    /// Every frame consumed and emitted, as a length and a digest.
    log: EventLog,
    /// Where each logged frame is encoded; reused.
    scratch: Vec<u8>,
    stats: ServeStats,
}

impl Server {
    /// Boots the pool (all slots warm) and an empty session table.
    pub fn new(cfg: ServeConfig) -> Server {
        assert!(cfg.high_water <= cfg.capacity, "high_water > capacity");
        assert!(
            cfg.session_limits
                .iter()
                .all(|(k, _)| Kind::parse(k).is_some()),
            "unknown limit kind in session_limits"
        );
        let pool = Pool::new(cfg.capacity, cfg.os_setup.clone());
        Server {
            cfg,
            pool,
            sessions: BTreeMap::new(),
            next_sid: 1,
            shed_streak: 0,
            rr_cursor: 0,
            draining: false,
            drain_grace: 0,
            drain_finished: 0,
            drain_cancelled: 0,
            drain_pending: false,
            log: EventLog::default(),
            scratch: Vec::new(),
            stats: ServeStats::default(),
        }
    }

    /// Live (admitted, unclosed) sessions.
    pub fn live(&self) -> usize {
        self.sessions.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// The event log so far. Two identically driven servers end with
    /// equal logs (the replay oracle).
    pub fn event_log(&self) -> EventLog {
        self.log
    }

    fn log_frames(&mut self, frames: &[Frame]) {
        for f in frames {
            self.scratch.clear();
            f.encode_into(&mut self.scratch);
            self.log.absorb(&self.scratch);
        }
    }

    /// The slot pool (tests inspect slot states).
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    // ---- feed ------------------------------------------------------------

    /// Consumes one client frame; returns (and logs) the immediate
    /// responses. Command output arrives later, via [`Server::pump`].
    pub fn feed(&mut self, frame: Frame) -> Vec<Frame> {
        self.log_frames(std::slice::from_ref(&frame));
        let mut out = Vec::new();
        match frame {
            Frame::Open { limits, fault_seed } => self.open(limits, fault_seed, &mut out),
            Frame::Line { sid, cmd } => self.line(sid, cmd, &mut out),
            Frame::Close { sid } => self.close(sid, &mut out),
            Frame::Drain { grace } => self.drain(grace, &mut out),
            other => out.push(no_session(
                0,
                format!("server-to-client frame fed to server: {other:?}"),
            )),
        }
        self.log_frames(&out);
        out
    }

    fn shed(&mut self, out: &mut Vec<Frame>) {
        let exp = self.shed_streak.min(SHED_MAX_EXP);
        out.push(Frame::Shed {
            retry_after_ms: SHED_BASE_MS << exp,
            attempt: self.shed_streak,
        });
        self.shed_streak = self.shed_streak.saturating_add(1);
        self.stats.shed += 1;
    }

    fn open(&mut self, limits: Vec<(String, u64)>, fault_seed: Option<u64>, out: &mut Vec<Frame>) {
        if self.draining || self.sessions.len() >= self.cfg.high_water {
            self.shed(out);
            return;
        }
        if let Some((bad, _)) = limits.iter().find(|(k, _)| Kind::parse(k).is_none()) {
            out.push(no_session(0, format!("unknown limit kind '{bad}'")));
            return;
        }
        let Some(slot) = self.pool.acquire() else {
            // Slots can lag sessions when retired ones are out of
            // rotation; that is still back-pressure.
            self.shed(out);
            return;
        };
        let mut merged = self.cfg.session_limits.clone();
        for (k, v) in limits {
            match merged.iter_mut().find(|(mk, _)| *mk == k) {
                Some(slot) => slot.1 = v,
                None => merged.push((k, v)),
            }
        }
        let sid = self.next_sid;
        self.next_sid += 1;
        self.sessions.insert(
            sid,
            Session {
                slot,
                limits: merged,
                fault_seed,
                queue: VecDeque::new(),
                running: false,
                pending: None,
                drain_used: 0,
            },
        );
        self.shed_streak = 0;
        self.stats.opened += 1;
        self.stats.max_live = self.stats.max_live.max(self.sessions.len());
        out.push(Frame::Opened { sid });
    }

    fn line(&mut self, sid: u64, cmd: String, out: &mut Vec<Frame>) {
        match self.sessions.get_mut(&sid) {
            None => out.push(no_session(sid, String::new())),
            Some(s) => s.queue.push_back(cmd),
        }
    }

    fn close(&mut self, sid: u64, out: &mut Vec<Frame>) {
        let Some(mut sess) = self.sessions.remove(&sid) else {
            out.push(no_session(sid, String::new()));
            return;
        };
        let mut panicked = false;
        if sess.running {
            let mut outcome = self.cancel_and_reap(&mut sess);
            self.emit_console(sid, &mut outcome, out);
            let (class, detail) = match outcome.panic {
                Some(msg) => (FaultClass::Panic, msg),
                None => {
                    self.stats.cancelled += 1;
                    (FaultClass::Cancelled, "session closed".to_string())
                }
            };
            panicked = class == FaultClass::Panic;
            out.push(Frame::Fault { sid, class, detail });
        }
        self.end_session(sid, sess.slot, panicked, out);
    }

    fn drain(&mut self, grace: u64, out: &mut Vec<Frame>) {
        self.draining = true;
        self.drain_grace = grace;
        self.drain_pending = true;
        // Sessions with nothing in flight close right away; queued but
        // unstarted commands are dropped (only in-flight work gets the
        // grace budget).
        let idle: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| !s.running)
            .map(|(&sid, _)| sid)
            .collect();
        for sid in idle {
            let sess = self.sessions.remove(&sid).expect("session exists");
            self.end_session(sid, sess.slot, false, out);
        }
        for sess in self.sessions.values_mut() {
            sess.queue.clear();
            sess.drain_used = 0;
        }
        self.settle_drain(out);
    }

    /// Emits the `Drained` frame a drain owes, once no session is left.
    fn settle_drain(&mut self, out: &mut Vec<Frame>) {
        if self.drain_pending && self.sessions.is_empty() {
            out.push(Frame::Drained {
                finished: self.drain_finished,
                cancelled: self.drain_cancelled,
            });
            self.drain_pending = false;
        }
    }

    // ---- pump ------------------------------------------------------------

    /// Advances execution by up to `max_slices` baton grants,
    /// round-robin across sessions with work, starting queued commands
    /// as their slots go idle. Returns (and logs) every frame emitted.
    /// Returns early when no session has anything in flight.
    pub fn pump(&mut self, max_slices: u64) -> Vec<Frame> {
        let mut out = Vec::new();
        let mut granted = 0u64;
        loop {
            self.start_pending();
            let Some(sid) = self.next_runnable() else {
                self.settle_drain(&mut out);
                break;
            };
            if granted >= max_slices {
                break;
            }
            self.rr_cursor = sid;
            let slot = self.sessions[&sid].slot;

            if self.draining {
                let used = {
                    let s = self.sessions.get_mut(&sid).expect("session exists");
                    s.drain_used += 1;
                    s.drain_used
                };
                if used > self.drain_grace {
                    // Deadline: cancel this straggler instead of
                    // granting another slice.
                    let mut sess = self.sessions.remove(&sid).expect("session exists");
                    let mut outcome = self.cancel_and_reap(&mut sess);
                    self.emit_console(sid, &mut outcome, &mut out);
                    self.stats.cancelled += 1;
                    self.drain_cancelled += 1;
                    out.push(Frame::Fault {
                        sid,
                        class: FaultClass::Cancelled,
                        detail: "drain deadline".to_string(),
                    });
                    self.end_session(sid, sess.slot, outcome.panic.is_some(), &mut out);
                    continue;
                }
            }

            let gate = self.pool.gate(slot);
            let sess = self.sessions.get_mut(&sid).expect("session exists");
            match sess.deliver() {
                Some(req) => gate.start(req, self.cfg.slice_steps),
                None => gate.grant(self.cfg.slice_steps),
            }
            granted += 1;
            if gate.wait_parked() == Phase::Done {
                let outcome = gate.take_reply();
                self.finish_command(sid, outcome, &mut out);
            }
        }
        self.log_frames(&out);
        out
    }

    /// The session the next slice goes to: the first running one after
    /// the round-robin cursor, wrapping to the first running one.
    fn next_runnable(&self) -> Option<u64> {
        let running = |(&sid, s): (&u64, &Session)| s.running.then_some(sid);
        self.sessions
            .range(self.rr_cursor + 1..)
            .find_map(running)
            .or_else(|| self.sessions.iter().find_map(running))
    }

    /// Moves the head-of-queue command of every idle session into its
    /// `pending` slot. Nothing reaches the slot worker yet: the
    /// session's next slice delivers the command with its limits.
    fn start_pending(&mut self) {
        for s in self.sessions.values_mut().filter(|s| !s.running) {
            if let Some(cmd) = s.queue.pop_front() {
                s.pending = Some(cmd);
                s.running = true;
            }
        }
    }

    fn finish_command(&mut self, sid: u64, mut outcome: Outcome, out: &mut Vec<Frame>) {
        self.emit_console(sid, &mut outcome, out);
        if let Some(msg) = &outcome.panic {
            let sess = self.sessions.remove(&sid).expect("session exists");
            out.push(Frame::Fault {
                sid,
                class: FaultClass::Panic,
                detail: msg.clone(),
            });
            self.end_session(sid, sess.slot, true, out);
            return;
        }
        if outcome.cancelled {
            // Only the drain path cancels without removing the session
            // first, and it reaps synchronously — a cancel seen here
            // means the close raced a completion; treat as done.
            self.stats.cancelled += 1;
        }
        let (ok, value) = match outcome.result {
            Ok(v) => {
                self.stats.completed += 1;
                (true, v)
            }
            Err(e) => {
                self.stats.failed += 1;
                (false, e)
            }
        };
        out.push(Frame::Done { sid, ok, value });
        if self.draining {
            self.drain_finished += 1;
            let sess = self.sessions.remove(&sid).expect("session exists");
            self.end_session(sid, sess.slot, false, out);
            return;
        }
        let s = self.sessions.get_mut(&sid).expect("session exists");
        s.running = false;
    }

    /// Moves the command's console output out of `outcome` into `Out`
    /// and `Err` frames, one each when non-empty.
    fn emit_console(&self, sid: u64, outcome: &mut Outcome, out: &mut Vec<Frame>) {
        let stdout = std::mem::take(&mut outcome.stdout);
        if !stdout.is_empty() {
            out.push(Frame::Out {
                sid,
                bytes: stdout.into_bytes(),
            });
        }
        let stderr = std::mem::take(&mut outcome.stderr);
        if !stderr.is_empty() {
            out.push(Frame::Err {
                sid,
                bytes: stderr.into_bytes(),
            });
        }
    }

    /// Cancels the session's in-flight command and waits for its
    /// outcome. A parked command is woken to unwind; one never
    /// delivered is delivered now, already cancelled, and unwinds at
    /// its first tick exactly as a parked one would.
    fn cancel_and_reap(&self, sess: &mut Session) -> Outcome {
        let gate = self.pool.gate(sess.slot);
        gate.cancel();
        match sess.deliver() {
            Some(req) => gate.call(req),
            None => gate.take_reply(),
        }
    }

    /// Ends a session already removed from the table, and says so.
    ///
    /// A slot whose command panicked is session-fatal: its machine is
    /// untrustworthy, so it is scrubbed, and other sessions never
    /// notice. Any other slot is recycled and audited;
    /// a dirty audit is a containment event: report it, scrub the slot
    /// (retiring it if even a fresh boot fails), and keep serving.
    fn end_session(&mut self, sid: u64, slot: usize, panicked: bool, out: &mut Vec<Frame>) {
        if panicked {
            self.stats.panics += 1;
            self.scrub_slot(slot);
        } else {
            let report = self.pool.release(slot);
            if !report.clean() {
                self.stats.oracle_violations += 1;
                out.push(Frame::Fault {
                    sid,
                    class: FaultClass::Oracle,
                    detail: report.violations().join(","),
                });
                self.scrub_slot(slot);
            }
        }
        out.push(Frame::Closed { sid });
    }

    fn scrub_slot(&mut self, slot: usize) {
        self.stats.scrubs += 1;
        let report = self.pool.scrub(slot);
        if !report.clean() {
            self.stats.oracle_violations += 1;
        }
        if self.pool.state(slot) == SlotState::Retired {
            self.stats.retired += 1;
        }
    }
}

/// A [`FaultClass::NoSession`] fault: the frame named no live session,
/// or could not open one.
fn no_session(sid: u64, detail: String) -> Frame {
    Frame::Fault {
        sid,
        class: FaultClass::NoSession,
        detail,
    }
}
