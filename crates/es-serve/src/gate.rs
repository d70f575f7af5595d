//! The slice gate: the one channel between the scheduler and a slot
//! worker.
//!
//! The worker runs on a fiber in the scheduler's own thread, and
//! the gate owns that fiber. The worker only runs commands: the
//! command going down, its timeslices, and its [`Outcome`] coming back
//! all go through the gate's cells. The scheduler's waits
//! ([`SliceGate::wait_parked`], [`SliceGate::take_reply`],
//! [`SliceGate::call`]) resume the worker's fiber until it answers;
//! the worker's waits ([`SliceGate::next`], and a tick with no fuel
//! left) suspend it. A command reaches its worker together with its
//! first slice ([`SliceGate::start`]), so running it costs one resume,
//! up to [`Phase::Done`].
//!
//! Cooperative timeslicing works by suspending, not by unwinding: the
//! worker runs its `Machine` normally, and the gate itself is the
//! machine's [`es_core::Yield`] hook (installed per slot), ticked at
//! every `charge()`. Ticks burn slice fuel; when the fuel is gone the
//! worker parks *in place* — arbitrarily deep in the evaluator, its
//! frames kept on the fiber's stack — and [`SliceGate::wait_parked`]
//! returns so the run loop can hand the baton to another slot. Exactly
//! one side runs at any moment, which is what makes the served frames,
//! and so the event log, replayable.
//!
//! Cancellation rides the same gate: [`SliceGate::cancel`] wakes a
//! parked worker and makes its next tick return
//! [`YieldAction::Cancel`], which the interpreter turns into the
//! uncatchable `EsError::Exit` — tenant code cannot catch its way out
//! of a cancel the way it can catch a `limit` breach.

use crate::fiber::Fiber;
use crate::pool::{Outcome, Request};
use es_core::{Yield, YieldAction};
use std::cell::{Cell, OnceCell};

/// Where the worker is, as observed through the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// No request in flight.
    Idle,
    /// The worker holds the baton (a granted slice is being consumed).
    Running,
    /// The worker parked mid-command: its slice fuel ran out.
    Parked,
    /// The worker finished the command and posted its outcome.
    Done,
}

/// The scheduler↔worker baton. One per pool slot, shared by `Rc` with
/// the worker running on its fiber and with the slot's machine, whose
/// yield hook it is. Every field is a `Cell`, so no borrow is ever
/// held across a switch between the two.
pub struct SliceGate {
    phase: Cell<Phase>,
    /// Charge ticks left in the granted slice.
    fuel: Cell<u64>,
    /// When set, the next tick cancels the running command.
    cancel: Cell<bool>,
    /// Set once, when the pool stops: the worker's next wait for a
    /// request ends it.
    shutdown: Cell<bool>,
    /// Slices granted since the gate was built (stats/fairness tests).
    slices: Cell<u64>,
    /// Posted by the scheduler, taken by the worker.
    request: Cell<Option<Request>>,
    /// Posted by the worker with [`Phase::Done`], taken by the
    /// scheduler.
    outcome: Cell<Option<Outcome>>,
    /// The fiber the worker runs on ([`SliceGate::attach`]).
    worker: OnceCell<Fiber>,
}

impl SliceGate {
    /// A fresh gate in [`Phase::Idle`], with no worker yet.
    pub(crate) fn new() -> SliceGate {
        SliceGate {
            phase: Cell::new(Phase::Idle),
            fuel: Cell::new(0),
            cancel: Cell::new(false),
            shutdown: Cell::new(false),
            slices: Cell::new(0),
            request: Cell::new(None),
            outcome: Cell::new(None),
            worker: OnceCell::new(),
        }
    }

    /// Gives the gate the fiber its worker runs on. The fiber first
    /// runs at the scheduler's first wait.
    pub(crate) fn attach(&self, worker: Fiber) {
        assert!(self.worker.set(worker).is_ok(), "one worker per gate");
    }

    /// The fiber the worker runs on.
    fn fiber(&self) -> &Fiber {
        self.worker.get().expect("a worker is attached")
    }

    // ---- scheduler side --------------------------------------------------

    /// Hands the worker `req` together with its first slice of `fuel`
    /// charge ticks; it runs at the next wait.
    pub fn start(&self, req: Request, fuel: u64) {
        self.slices.set(self.slices.get() + 1);
        self.post(req, fuel);
    }

    /// Posts `req` with no fuel and runs the worker until it has
    /// answered: for a command cancelled before its first slice, which
    /// after [`SliceGate::cancel`] unwinds at its first tick.
    pub fn call(&self, req: Request) -> Outcome {
        self.post(req, 0);
        self.take_reply()
    }

    /// Grants a further timeslice of `fuel` charge ticks to a parked
    /// worker; it runs at the next wait.
    pub fn grant(&self, fuel: u64) {
        self.fuel.set(fuel);
        self.phase.set(Phase::Running);
        self.slices.set(self.slices.get() + 1);
    }

    /// Requests cancellation of the in-flight command and wakes a
    /// parked worker so it can observe it. On an idle gate the flag
    /// waits for the next request. The worker still finishes normally
    /// (posting its outcome and reaching [`Phase::Done`]) — the
    /// scheduler must keep waiting for that.
    pub fn cancel(&self) {
        self.cancel.set(true);
        // Wake a parked worker; a running one notices at its next tick.
        if self.phase.get() == Phase::Parked {
            self.phase.set(Phase::Running);
        }
    }

    /// Stops the worker and runs its fiber to the end: a parked command
    /// is cancelled (it still ends in [`Phase::Done`], its outcome left
    /// for [`SliceGate::take_reply`]) and [`SliceGate::next`] returns
    /// `None`.
    pub fn shutdown(&self) {
        self.shutdown.set(true);
        self.cancel();
        let fiber = self.fiber();
        while !fiber.finished() {
            fiber.resume();
        }
    }

    /// Runs the worker until it either parks (slice exhausted) or
    /// completes the command; returns the phase that ended the wait.
    pub fn wait_parked(&self) -> Phase {
        while !matches!(self.phase.get(), Phase::Parked | Phase::Done) {
            self.fiber().resume();
        }
        self.phase.get()
    }

    /// Runs the worker until it completes the command, takes its
    /// outcome, and resets the gate to [`Phase::Idle`] for the next
    /// command.
    pub fn take_reply(&self) -> Outcome {
        while self.phase.get() != Phase::Done {
            self.fiber().resume();
        }
        self.phase.set(Phase::Idle);
        self.cancel.set(false);
        self.fuel.set(0);
        self.outcome
            .take()
            .expect("a worker at Done has posted its outcome")
    }

    /// Slices granted so far (fairness assertions in tests).
    pub fn slices_granted(&self) -> u64 {
        self.slices.get()
    }

    /// Whether cancellation was requested for the in-flight command.
    /// The worker reads this to classify its outcome — a tenant
    /// running `exit 124` must not be mistaken for a server cancel, so
    /// classification never keys on the exit status alone.
    pub fn cancel_requested(&self) -> bool {
        self.cancel.get()
    }

    /// Deposits `req` with `fuel` ticks for the worker to take.
    fn post(&self, req: Request, fuel: u64) {
        debug_assert_eq!(
            self.phase.get(),
            Phase::Idle,
            "one request at a time per slot"
        );
        self.request.set(Some(req));
        self.fuel.set(fuel);
        self.phase.set(Phase::Running);
    }

    // ---- worker side -----------------------------------------------------

    /// Waits for the next request; `None` once the gate is shut down.
    pub fn next(&self) -> Option<Request> {
        loop {
            if self.shutdown.get() {
                return None;
            }
            if let Some(req) = self.request.take() {
                return Some(req);
            }
            Fiber::suspend();
        }
    }

    /// Posts the outcome of the current command.
    pub fn done(&self, outcome: Outcome) {
        self.outcome.set(Some(outcome));
        self.phase.set(Phase::Done);
    }
}

impl Yield for SliceGate {
    /// The per-charge tick: burn one unit of fuel, parking in place
    /// when the slice is spent, until the scheduler grants the next
    /// slice (or cancels).
    fn tick(&self) -> YieldAction {
        if self.cancel.get() {
            return YieldAction::Cancel;
        }
        let fuel = self.fuel.get();
        if fuel > 0 {
            self.fuel.set(fuel - 1);
            return YieldAction::Run;
        }
        self.phase.set(Phase::Parked);
        while self.phase.get() != Phase::Running {
            Fiber::suspend();
        }
        if self.cancel.get() {
            return YieldAction::Cancel;
        }
        self.fuel.set(self.fuel.get().saturating_sub(1));
        YieldAction::Run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fiber::Stack;
    use std::rc::Rc;

    fn run(cmd: &str) -> Request {
        Request {
            cmd: cmd.to_string(),
            limits: Default::default(),
            fault_seed: None,
        }
    }

    /// The outcome a test worker gives a command: the command text as
    /// the value, and the number of ticks it was allowed as its output.
    fn ran(req: Request, ticks: u64, cancelled: bool) -> Outcome {
        Outcome {
            result: Ok(req.cmd),
            cancelled,
            panic: None,
            stdout: ticks.to_string(),
            stderr: String::new(),
        }
    }

    /// A gate whose worker is `body`, run on a stand-in fiber.
    fn gate_with(body: impl FnOnce(&SliceGate) + 'static) -> Rc<SliceGate> {
        let gate = Rc::new(SliceGate::new());
        let g = Rc::clone(&gate);
        let stack = Stack::new(256 << 10).expect("map a test stack");
        gate.attach(Fiber::new(stack, move || body(&g)));
        gate
    }

    /// A stand-in slot worker: ticks through every command until it is
    /// cancelled or has ticked `max_ticks` times, and returns once the
    /// gate shuts down.
    fn worker(max_ticks: u64) -> Rc<SliceGate> {
        gate_with(move |g| {
            while let Some(req) = g.next() {
                let mut ticks = 0;
                while ticks < max_ticks && g.tick() == YieldAction::Run {
                    ticks += 1;
                }
                g.done(ran(req, ticks, g.cancel_requested()));
            }
        })
    }

    /// A command arrives with its first slice, parks when the fuel is
    /// spent, resumes on the next grant, and its outcome is taken once
    /// it is done; the gate is then idle for the next command.
    #[test]
    fn start_park_grant_done() {
        let gate = worker(15);
        gate.start(run("first"), 10);
        assert_eq!(gate.wait_parked(), Phase::Parked);
        gate.grant(10);
        assert_eq!(gate.wait_parked(), Phase::Done);
        let o = gate.take_reply();
        assert_eq!(
            (o.result, o.stdout.as_str(), o.cancelled),
            (Ok("first".into()), "15", false)
        );
        gate.start(run("second"), 20);
        assert_eq!(gate.wait_parked(), Phase::Done);
        assert_eq!(gate.take_reply().stdout, "15");
        assert_eq!(gate.slices_granted(), 3);
        gate.shutdown();
        assert!(gate.worker.get().is_some_and(Fiber::finished));
    }

    /// A parked command resumes on each grant; cancelling it wakes it,
    /// its next tick cancels, and it still posts an outcome, marked
    /// cancelled. The flag does not outlive the command.
    #[test]
    fn park_resume_cancel() {
        let gate = worker(u64::MAX);
        gate.start(run("spin"), 10);
        assert_eq!(gate.wait_parked(), Phase::Parked);
        gate.grant(5);
        assert_eq!(gate.wait_parked(), Phase::Parked);
        gate.cancel();
        let o = gate.take_reply();
        assert_eq!((o.stdout.as_str(), o.cancelled), ("15", true));
        assert!(!gate.cancel_requested());
        gate.start(run("next"), 3);
        assert_eq!(gate.wait_parked(), Phase::Parked);
        gate.shutdown();
        assert!(gate.worker.get().is_some_and(Fiber::finished));
    }

    /// `call` hands over a command and returns its outcome: a command
    /// called after `cancel` (one that never had a slice) unwinds at its
    /// first tick without granting a slice.
    #[test]
    fn call_answers_synchronously() {
        let gate = worker(u64::MAX);
        gate.cancel();
        let o = gate.call(run("never ran"));
        assert_eq!((o.stdout.as_str(), o.cancelled), ("0", true));
        assert_eq!(gate.slices_granted(), 0);
        gate.shutdown();
        assert!(gate.worker.get().is_some_and(Fiber::finished));
    }

    /// Shutdown cancels a parked command, which still ends in `Done`
    /// with its outcome; the worker's next wait for a request then ends.
    #[test]
    fn shutdown_while_parked() {
        let ended = Rc::new(Cell::new(false));
        let e = Rc::clone(&ended);
        let gate = gate_with(move |g| {
            let req = g.next().expect("a request before shutdown");
            let mut ticks = 0;
            while g.tick() == YieldAction::Run {
                ticks += 1;
            }
            g.done(ran(req, ticks, g.cancel_requested()));
            e.set(g.next().is_none());
        });
        gate.start(run("spin"), 4);
        assert_eq!(gate.wait_parked(), Phase::Parked);
        gate.shutdown();
        assert_eq!(gate.wait_parked(), Phase::Done);
        let o = gate.take_reply();
        assert_eq!((o.stdout.as_str(), o.cancelled), ("4", true));
        assert!(ended.get(), "next() after shutdown");
    }

    /// Shutdown wakes a worker waiting for its next request.
    #[test]
    fn shutdown_while_idle() {
        let ended = Rc::new(Cell::new(false));
        let e = Rc::clone(&ended);
        let gate = gate_with(move |g| e.set(g.next().is_none()));
        gate.shutdown();
        assert!(ended.get());
    }
}
