//! The slice gate: the one channel between the scheduler and a slot
//! worker.
//!
//! One mutex and one condvar per slot carry everything that crosses
//! between the two threads: the request going down, the timeslices,
//! and the reply coming back, with one wake per handoff. A command
//! reaches its worker together with its first slice
//! ([`SliceGate::start`]), so running it costs one wake for that grant
//! and one for [`Phase::Done`].
//!
//! Cooperative timeslicing works by blocking, not by unwinding: the
//! worker thread runs its `Machine` normally, and the machine's
//! [`es_core::Yield`] hook (installed per slot) calls
//! [`SliceGate::tick`] at every `charge()`. Ticks burn slice fuel;
//! when the fuel is gone the worker parks *in place* — arbitrarily
//! deep in the evaluator — and the scheduler's
//! [`SliceGate::wait_parked`] returns so the run loop can hand the
//! baton to another slot. Exactly one side runs at any moment, which
//! is what makes the served frames, and so the event log, replayable.
//!
//! Cancellation rides the same gate: [`SliceGate::cancel`] wakes a
//! parked worker and makes its next tick return
//! [`YieldAction::Cancel`], which the interpreter turns into the
//! uncatchable `EsError::Exit` — tenant code cannot catch its way out
//! of a cancel the way it can catch a `limit` breach.

use crate::pool::{Reply, Request};
use es_core::{Yield, YieldAction};
use std::sync::{Condvar, Mutex};

/// Where the worker is, as observed through the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// No request in flight.
    Idle,
    /// The worker holds the baton (a granted slice is being consumed).
    Running,
    /// The worker parked mid-command: its slice fuel ran out.
    Parked,
    /// The worker finished the request and posted its reply.
    Done,
}

#[derive(Debug)]
struct GateState {
    phase: Phase,
    /// Charge ticks left in the granted slice.
    fuel: u64,
    /// When set, the next tick cancels the running command.
    cancel: bool,
    /// Set once, when the pool stops: the worker's next wait for a
    /// request ends its thread.
    shutdown: bool,
    /// The worker thread has ended (shut down, or killed by a panic
    /// outside the command boundary): nothing will answer any more.
    exited: bool,
    /// Slices granted since the gate was built (stats/fairness tests).
    slices: u64,
    /// Posted by the scheduler, taken by the worker.
    request: Option<Request>,
    /// Posted by the worker with [`Phase::Done`], taken by the
    /// scheduler.
    reply: Option<Reply>,
}

/// The scheduler↔worker baton. One per pool slot, shared by `Arc`.
#[derive(Debug)]
pub struct SliceGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

impl Default for SliceGate {
    fn default() -> Self {
        Self::new()
    }
}

impl SliceGate {
    /// A fresh gate in [`Phase::Idle`].
    pub fn new() -> SliceGate {
        SliceGate {
            state: Mutex::new(GateState {
                phase: Phase::Idle,
                fuel: 0,
                cancel: false,
                shutdown: false,
                exited: false,
                slices: 0,
                request: None,
                reply: None,
            }),
            cv: Condvar::new(),
        }
    }

    // ---- scheduler side --------------------------------------------------

    /// Hands the worker `req` together with its first slice of `fuel`
    /// charge ticks: one lock and one wake.
    pub fn start(&self, req: Request, fuel: u64) {
        let mut s = self.state.lock().expect("gate lock");
        s.slices += 1;
        post(&mut s, req, fuel);
        drop(s);
        self.cv.notify_all();
    }

    /// Posts `req` and blocks until the worker has answered it. For
    /// requests that never tick (recycle, scrub), and for a command
    /// cancelled before its first slice: after [`SliceGate::cancel`],
    /// it unwinds at its first tick. `None` if the worker has exited.
    pub fn call(&self, req: Request) -> Option<Reply> {
        post(&mut self.state.lock().expect("gate lock"), req, 0);
        self.cv.notify_all();
        self.take_reply()
    }

    /// Grants a further timeslice of `fuel` charge ticks to a parked
    /// worker and wakes it.
    pub fn grant(&self, fuel: u64) {
        let mut s = self.state.lock().expect("gate lock");
        s.fuel = fuel;
        s.phase = Phase::Running;
        s.slices += 1;
        drop(s);
        self.cv.notify_all();
    }

    /// Requests cancellation of the in-flight command and wakes a
    /// parked worker so it can observe it. On an idle gate the flag
    /// waits for the next request. The worker still finishes normally
    /// (posting its reply and reaching [`Phase::Done`]) — the
    /// scheduler must keep waiting for that.
    pub fn cancel(&self) {
        let mut s = self.state.lock().expect("gate lock");
        s.cancel = true;
        // Wake a parked worker; a running one notices at its next tick.
        if s.phase == Phase::Parked {
            s.phase = Phase::Running;
        }
        drop(s);
        self.cv.notify_all();
    }

    /// Stops the worker: cancels a parked command (which still ends in
    /// [`Phase::Done`]) and makes [`SliceGate::next`] return `None`.
    pub fn shutdown(&self) {
        self.state.lock().expect("gate lock").shutdown = true;
        self.cancel();
    }

    /// Blocks until the worker either parks (slice exhausted) or
    /// completes the request; returns the phase that ended the wait.
    /// A worker that has exited counts as done.
    pub fn wait_parked(&self) -> Phase {
        let mut s = self.state.lock().expect("gate lock");
        while !s.exited && s.phase != Phase::Parked && s.phase != Phase::Done {
            s = self.cv.wait(s).expect("gate wait");
        }
        if s.exited {
            Phase::Done
        } else {
            s.phase
        }
    }

    /// Blocks until the worker completes the request, takes its reply,
    /// and resets the gate to [`Phase::Idle`] for the next request.
    /// `None` if the worker exited without answering.
    pub fn take_reply(&self) -> Option<Reply> {
        let mut s = self.state.lock().expect("gate lock");
        while !s.exited && s.phase != Phase::Done {
            s = self.cv.wait(s).expect("gate wait");
        }
        s.phase = Phase::Idle;
        s.cancel = false;
        s.fuel = 0;
        s.reply.take()
    }

    /// Slices granted so far (fairness assertions in tests).
    pub fn slices_granted(&self) -> u64 {
        self.state.lock().expect("gate lock").slices
    }

    /// Whether cancellation was requested for the in-flight command.
    /// The worker reads this to classify its outcome — a tenant
    /// running `exit 124` must not be mistaken for a server cancel, so
    /// classification never keys on the exit status alone.
    pub fn cancel_requested(&self) -> bool {
        self.state.lock().expect("gate lock").cancel
    }

    // ---- worker side -----------------------------------------------------

    /// Waits for the next request; `None` once the gate is shut down.
    pub fn next(&self) -> Option<Request> {
        let mut s = self.state.lock().expect("gate lock");
        loop {
            if s.shutdown {
                return None;
            }
            if let Some(req) = s.request.take() {
                return Some(req);
            }
            s = self.cv.wait(s).expect("gate wait");
        }
    }

    /// Marks the worker thread as ended and wakes the scheduler, so no
    /// wait on this gate outlives it.
    pub fn exited(&self) {
        self.state.lock().expect("gate lock").exited = true;
        self.cv.notify_all();
    }

    /// Posts the reply to the current request and wakes the scheduler.
    pub fn done(&self, reply: Reply) {
        let mut s = self.state.lock().expect("gate lock");
        s.reply = Some(reply);
        s.phase = Phase::Done;
        drop(s);
        self.cv.notify_all();
    }

    /// The per-charge tick: burn one unit of fuel, parking in place
    /// when the slice is spent, until the scheduler grants the next
    /// slice (or cancels).
    pub fn tick(&self) -> YieldAction {
        let mut s = self.state.lock().expect("gate lock");
        if s.cancel {
            return YieldAction::Cancel;
        }
        if s.fuel > 0 {
            s.fuel -= 1;
            return YieldAction::Run;
        }
        s.phase = Phase::Parked;
        self.cv.notify_all();
        while s.phase != Phase::Running {
            s = self.cv.wait(s).expect("gate wait");
        }
        if s.cancel {
            return YieldAction::Cancel;
        }
        s.fuel = s.fuel.saturating_sub(1);
        YieldAction::Run
    }
}

/// Deposits `req` with `fuel` ticks for the worker to take; the caller
/// wakes it once the lock is released, so the worker does not wake
/// only to block on the mutex.
fn post(s: &mut GateState, req: Request, fuel: u64) {
    debug_assert_eq!(s.phase, Phase::Idle, "one request at a time per slot");
    s.request = Some(req);
    s.fuel = fuel;
    s.phase = Phase::Running;
}

/// The `Rc`-able adapter a `Machine` holds: forwards its yield ticks
/// to the slot's shared gate.
pub struct GateYield(pub std::sync::Arc<SliceGate>);

impl Yield for GateYield {
    fn tick(&self) -> YieldAction {
        self.0.tick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{Outcome, ResetReport};
    use std::sync::Arc;
    use std::thread::JoinHandle;

    fn run(cmd: &str) -> Request {
        Request::Run {
            cmd: cmd.to_string(),
            limits: Vec::new(),
            fault_seed: None,
        }
    }

    /// The reply a test worker gives to a `Run`: the command text as
    /// the value, and the number of ticks it was allowed as its output.
    fn ran(req: Request, ticks: u64, cancelled: bool) -> Reply {
        let Request::Run { cmd, .. } = req else {
            panic!("expected a Run request");
        };
        Reply::Ran(Outcome {
            result: Ok(cmd),
            cancelled,
            panic: None,
            stdout: ticks.to_string(),
            stderr: String::new(),
        })
    }

    fn report() -> ResetReport {
        ResetReport {
            os_clean: true,
            fd_delta: 0,
            hooks_pristine: true,
            limits_ok: true,
        }
    }

    /// A stand-in slot worker: ticks through every `Run` until it is
    /// cancelled or has ticked `max_ticks` times, answers `Recycle`
    /// with a clean report, and returns once the gate shuts down.
    fn worker(gate: &Arc<SliceGate>, max_ticks: u64) -> JoinHandle<()> {
        let g = Arc::clone(gate);
        std::thread::spawn(move || {
            while let Some(req) = g.next() {
                let reply = match req {
                    Request::Run { .. } => {
                        let mut ticks = 0;
                        while ticks < max_ticks && g.tick() == YieldAction::Run {
                            ticks += 1;
                        }
                        ran(req, ticks, g.cancel_requested())
                    }
                    Request::Recycle => Reply::Recycled(report()),
                    Request::Scrub => Reply::Scrubbed(report()),
                };
                g.done(reply);
            }
        })
    }

    fn outcome(reply: Option<Reply>) -> Outcome {
        match reply {
            Some(Reply::Ran(o)) => o,
            _ => panic!("expected a Ran reply"),
        }
    }

    /// A command arrives with its first slice, parks when the fuel is
    /// spent, resumes on the next grant, and its reply is taken once
    /// it is done; the gate is then idle for the next command.
    #[test]
    fn start_park_grant_done() {
        let gate = Arc::new(SliceGate::new());
        let w = worker(&gate, 15);
        gate.start(run("first"), 10);
        assert_eq!(gate.wait_parked(), Phase::Parked);
        gate.grant(10);
        assert_eq!(gate.wait_parked(), Phase::Done);
        let o = outcome(gate.take_reply());
        assert_eq!(
            (o.result, o.stdout.as_str(), o.cancelled),
            (Ok("first".into()), "15", false)
        );
        gate.start(run("second"), 20);
        assert_eq!(gate.wait_parked(), Phase::Done);
        assert_eq!(outcome(gate.take_reply()).stdout, "15");
        assert_eq!(gate.slices_granted(), 3);
        gate.shutdown();
        w.join().expect("worker joins");
    }

    /// A parked command resumes on each grant; cancelling it wakes it,
    /// its next tick cancels, and it still posts a reply, marked
    /// cancelled. The flag does not outlive the command.
    #[test]
    fn park_resume_cancel() {
        let gate = Arc::new(SliceGate::new());
        let w = worker(&gate, u64::MAX);
        gate.start(run("spin"), 10);
        assert_eq!(gate.wait_parked(), Phase::Parked);
        gate.grant(5);
        assert_eq!(gate.wait_parked(), Phase::Parked);
        gate.cancel();
        let o = outcome(gate.take_reply());
        assert_eq!((o.stdout.as_str(), o.cancelled), ("15", true));
        assert!(!gate.cancel_requested());
        gate.start(run("next"), 3);
        assert_eq!(gate.wait_parked(), Phase::Parked);
        gate.shutdown();
        w.join().expect("worker joins");
    }

    /// `call` hands over a synchronous request and returns its reply;
    /// a command called after `cancel` (one that never had a slice)
    /// unwinds at its first tick without granting a slice.
    #[test]
    fn call_answers_synchronously() {
        let gate = Arc::new(SliceGate::new());
        let w = worker(&gate, u64::MAX);
        assert!(matches!(gate.call(Request::Recycle), Some(Reply::Recycled(r)) if r.clean()));
        gate.cancel();
        let o = outcome(gate.call(run("never ran")));
        assert_eq!((o.stdout.as_str(), o.cancelled), ("0", true));
        assert_eq!(gate.slices_granted(), 0);
        gate.shutdown();
        w.join().expect("worker joins");
    }

    /// Shutdown cancels a parked command, which still ends in `Done`
    /// with its reply; the worker's next wait for a request then ends.
    #[test]
    fn shutdown_while_parked() {
        let gate = Arc::new(SliceGate::new());
        let g = Arc::clone(&gate);
        let w = std::thread::spawn(move || {
            let req = g.next().expect("a request before shutdown");
            let mut ticks = 0;
            while g.tick() == YieldAction::Run {
                ticks += 1;
            }
            g.done(ran(req, ticks, g.cancel_requested()));
            g.next().is_none()
        });
        gate.start(run("spin"), 4);
        assert_eq!(gate.wait_parked(), Phase::Parked);
        gate.shutdown();
        assert_eq!(gate.wait_parked(), Phase::Done);
        let o = outcome(gate.take_reply());
        assert_eq!((o.stdout.as_str(), o.cancelled), ("4", true));
        assert!(w.join().expect("worker joins"), "next() after shutdown");
    }

    /// A worker that ends without answering (a panic outside the
    /// command boundary) releases every wait on its gate.
    #[test]
    fn exited_worker_answers_none() {
        let gate = Arc::new(SliceGate::new());
        let g = Arc::clone(&gate);
        let w = std::thread::spawn(move || {
            let _ = g.next();
            g.exited();
        });
        assert!(gate.call(Request::Scrub).is_none());
        gate.start(run("lost"), 10);
        assert_eq!(gate.wait_parked(), Phase::Done);
        assert!(gate.take_reply().is_none());
        w.join().expect("worker joins");
    }

    /// Shutdown wakes a worker waiting for its next request.
    #[test]
    fn shutdown_while_idle() {
        let gate = Arc::new(SliceGate::new());
        let g = Arc::clone(&gate);
        let w = std::thread::spawn(move || g.next().is_none());
        gate.shutdown();
        assert!(w.join().expect("worker joins"));
    }
}
