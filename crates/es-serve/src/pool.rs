//! The slot pool: recycled `Machine` instances, each run by a worker on
//! a fiber of its own.
//!
//! Each pool slot's worker boots its machine once and keeps it for the
//! slot's whole life. The worker runs on a fiber in the
//! scheduler's thread, because a command stopped at a slice boundary
//! keeps its evaluator frames on the worker's stack. The scheduler
//! never touches a machine directly — it hands the worker
//! [`Request`]s and timeslices through the slot's [`SliceGate`], and
//! takes [`Reply`]s back from it. Booting is the expensive part
//! (parsing and running `initial.es`, importing the environment);
//! recycling via [`es_core::Machine::recycle`] restores the frozen
//! boot image in place, which is why a pooled session starts orders
//! of magnitude faster than a cold one (measured in E14).
//!
//! ## The reset oracle
//!
//! Every release runs the machine through `recycle()` and then audits
//! it against the snapshot taken right after boot: the kernel
//! fingerprint ([`es_os::SimOs::fingerprint`] — vfs, descriptors,
//! pipes, consoles, clocks, signals), the open-descriptor delta, the
//! `fn-%*` hook bindings, and the armed limits. A clean report means
//! the next tenant provably cannot observe the previous one. A dirty
//! report quarantines the slot; scrubbing (a fresh boot) is the only
//! way back, and a slot whose *scrub* still fails the oracle is
//! retired for good.
//!
//! The audit costs O(fd table + live pipes + consoles), not O(files):
//! a slot's filesystem is shared copy-on-write with its boot image,
//! and the filesystem's part of the fingerprint is a digest cached
//! inside the shared tree ([`es_os::Vfs::digest`]). The boot
//! `snapshot()` fills that cache once for the image and every slot
//! that shares its tree; only a tenant that wrote the filesystem pays
//! for one inode walk of its private copy. In builds with debug
//! assertions every cached digest is checked against a fresh walk.

use crate::fiber::{self, Fiber, Stack};
use crate::gate::{GateYield, SliceGate};
use es_core::Machine;
use es_os::{Os, SimOs};
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Once;

/// Background fault-injection intensity for sessions opened with a
/// fault seed: roughly 1.2% of syscalls fail (`12/1024`), the same
/// weather band the in-crate fault soaks run under.
pub const WEATHER_PER_1024: u16 = 12;

/// Command text that makes a slot worker panic: the containment test
/// rig. No real tenant would type it.
pub const PANIC_PROBE: &str = "__es_serve_panic_probe__";

/// The panic message [`PANIC_PROBE`] raises; any other caught panic is
/// a real fault.
pub(crate) const PROBE_PANIC: &str = "injected probe panic";

/// Stack size for slot worker fibers. Slot workers interpret
/// recursive tenant code under the default depth-150 governor; 4 MiB
/// clears that with room for the evaluator's own frames even in debug
/// builds.
const WORKER_STACK: usize = 4 << 20;

/// Hook applied to a slot's kernel *before* boot (and again on every
/// scrub), e.g. to seed `/bin` with scenario programs. Runs before
/// `initial.es`, so whatever it installs is part of the boot image
/// that `recycle()` restores.
pub type OsSetup = Rc<dyn Fn(&mut SimOs)>;

/// What the scheduler asks a slot worker to do.
#[derive(Debug)]
pub enum Request {
    /// Run one command line to completion (timesliced via the gate).
    /// The worker first arms `limits` (each command gets a fresh
    /// budget) and, when `fault_seed` is set, installs fault weather:
    /// a session's first command carries its seed.
    Run {
        cmd: String,
        limits: Vec<(String, u64)>,
        fault_seed: Option<u64>,
    },
    /// Restore the boot image and audit it (normal release path).
    Recycle,
    /// Throw the machine away and boot a fresh one (post-panic path).
    Scrub,
}

/// What a slot worker reports back.
#[derive(Debug)]
pub enum Reply {
    Ran(Outcome),
    Recycled(ResetReport),
    Scrubbed(ResetReport),
}

/// Everything observable from one command run in a slot.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The es-level result: the command's value list (joined) or its
    /// error rendering. Errors here are tenant-visible data, not
    /// server faults.
    pub result: Result<String, String>,
    /// The scheduler cancelled this command (drain or close); the
    /// error value is the cancel unwind, not tenant code.
    pub cancelled: bool,
    /// The interpreter panicked; the payload message. The machine is
    /// in an unknown state and the slot must be scrubbed.
    pub panic: Option<String>,
    /// Bytes the command wrote to the session's stdout.
    pub stdout: String,
    /// Bytes the command wrote to the session's stderr (including any
    /// governor warnings, which land here and nowhere else).
    pub stderr: String,
}

/// The recycle/scrub audit: how the machine compares to its own
/// post-boot snapshot. All four checks must hold for the slot to be
/// handed to another tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResetReport {
    /// Kernel fingerprint matches the post-boot fingerprint (vfs,
    /// descriptor table, pipes, consoles, clock, signals).
    pub os_clean: bool,
    /// Open kernel descriptors gained since boot (0 when clean).
    pub fd_delta: isize,
    /// No `fn-%*` hook binding differs from its boot binding.
    pub hooks_pristine: bool,
    /// Armed limits are exactly the boot defaults again.
    pub limits_ok: bool,
}

impl ResetReport {
    /// The report for a slot whose worker has ended: every
    /// check fails, so the slot leaves rotation.
    const WORKER_GONE: ResetReport = ResetReport {
        os_clean: false,
        fd_delta: 0,
        hooks_pristine: false,
        limits_ok: false,
    };

    /// True when every check passed — the next tenant cannot observe
    /// the previous one.
    pub fn clean(&self) -> bool {
        self.os_clean && self.fd_delta == 0 && self.hooks_pristine && self.limits_ok
    }

    /// The checks that failed, by name (for `Fault` frame details).
    pub fn violations(&self) -> Vec<&'static str> {
        let mut v = Vec::new();
        if !self.os_clean {
            v.push("kernel-fingerprint");
        }
        if self.fd_delta != 0 {
            v.push("fd-delta");
        }
        if !self.hooks_pristine {
            v.push("hook-bindings");
        }
        if !self.limits_ok {
            v.push("limits");
        }
        v
    }
}

/// A slot's lifecycle state, as the pool tracks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Ready for a new tenant.
    Free,
    /// Leased to a live session.
    Leased,
    /// A panic or dirty recycle happened; must be scrubbed before
    /// reuse.
    Quarantined,
    /// Scrubbing did not produce a clean machine; permanently out of
    /// rotation.
    Retired,
}

struct Slot {
    gate: Rc<SliceGate>,
    state: SlotState,
}

/// The fixed-capacity slot pool.
pub struct Pool {
    slots: Vec<Slot>,
}

/// Silences panics raised while a slot fiber runs, so injected panics
/// don't spray backtraces over test output, while panics anywhere else
/// still report normally.
fn install_quiet_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !fiber::in_fiber() {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Boot state the worker audits against: taken once right after boot,
/// retaken after every scrub.
struct BootSnapshot {
    fingerprint: u64,
    fds: usize,
    /// The `fn-%*` globals and their encodings ([`Machine::hook_bindings`]).
    hooks: Vec<(Rc<str>, Rc<str>)>,
    limits: es_core::governor::Limits,
}

fn boot_machine(setup: &Option<OsSetup>) -> Machine<SimOs> {
    let mut os = SimOs::new();
    if let Some(f) = setup {
        f(&mut os);
    }
    Machine::new(os).expect("slot boot: initial.es must run clean")
}

fn snapshot(m: &Machine<SimOs>) -> BootSnapshot {
    BootSnapshot {
        fingerprint: m.os().fingerprint(),
        fds: m.os().open_desc_count(),
        hooks: m.hook_bindings(),
        limits: *m.governor().limits(),
    }
}

fn audit(m: &Machine<SimOs>, boot: &BootSnapshot) -> ResetReport {
    ResetReport {
        os_clean: m.os().fingerprint() == boot.fingerprint,
        fd_delta: m.os().open_desc_count() as isize - boot.fds as isize,
        hooks_pristine: m.hooks_match(&boot.hooks),
        limits_ok: *m.governor().limits() == boot.limits,
    }
}

fn worker_main(gate: &Rc<SliceGate>, setup: Option<OsSetup>) {
    let mut m = boot_machine(&setup);
    let mut boot = snapshot(&m);
    m.set_yielder(Some(Rc::new(GateYield(Rc::clone(gate)))));
    while let Some(req) = gate.next() {
        let reply = match req {
            Request::Run {
                cmd,
                limits,
                fault_seed,
            } => {
                for (kind, value) in &limits {
                    m.arm_limit(kind, *value)
                        .expect("open admits only known limit kinds");
                }
                if let Some(seed) = fault_seed {
                    m.os_mut().set_fault_plan(Some(
                        es_os::FaultPlan::new(seed).uniform_rate(WEATHER_PER_1024),
                    ));
                }
                Reply::Ran(run_command(&mut m, gate, &cmd))
            }
            Request::Recycle => {
                m.os_mut().set_fault_plan(None);
                m.recycle();
                Reply::Recycled(audit(&m, &boot))
            }
            Request::Scrub => {
                m = boot_machine(&setup);
                boot = snapshot(&m);
                m.set_yielder(Some(Rc::new(GateYield(Rc::clone(gate)))));
                Reply::Scrubbed(audit(&m, &boot))
            }
        };
        gate.done(reply);
    }
}

/// Runs one command on the slot's machine, catching a panic at the
/// slot boundary, and harvests its console output.
fn run_command(m: &mut Machine<SimOs>, gate: &SliceGate, cmd: &str) -> Outcome {
    let run = panic::catch_unwind(AssertUnwindSafe(|| {
        if cmd == PANIC_PROBE {
            panic::panic_any(PROBE_PANIC);
        }
        m.run(cmd)
    }));
    let (result, panic) = match run {
        Ok(Ok(values)) => (Ok(values.join(" ")), None),
        Ok(Err(e)) => (Err(e.to_string()), None),
        Err(payload) => (Err("panic".to_string()), Some(panic_message(payload))),
    };
    let (stdout, stderr) = m.os_mut().take_console();
    Outcome {
        result,
        cancelled: gate.cancel_requested(),
        panic,
        stdout,
        stderr,
    }
}

impl Pool {
    /// Starts `capacity` slot workers, each on its own fiber, and runs
    /// each one until its machine has booted: the pool is warm when
    /// `new` returns.
    pub fn new(capacity: usize, setup: Option<OsSetup>) -> Pool {
        install_quiet_panics();
        let slots = (0..capacity)
            .map(|_| {
                let gate = Rc::new(SliceGate::new());
                let g = Rc::clone(&gate);
                let s = setup.clone();
                let stack = Stack::new(WORKER_STACK).expect("map a slot worker stack");
                gate.attach(Fiber::new(stack, move || {
                    // A panic outside the command boundary (a failed
                    // boot) ends the worker; its gate must still answer.
                    let _ = panic::catch_unwind(AssertUnwindSafe(|| worker_main(&g, s)));
                    g.exited();
                }));
                Slot {
                    gate,
                    state: SlotState::Free,
                }
            })
            .collect();
        Pool { slots }
    }

    /// Total slots, regardless of state.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Leases the lowest-numbered free slot.
    pub fn acquire(&mut self) -> Option<usize> {
        let idx = self
            .slots
            .iter()
            .position(|s| s.state == SlotState::Free)?;
        self.slots[idx].state = SlotState::Leased;
        Some(idx)
    }

    /// The slot's scheduler↔worker gate.
    pub fn gate(&self, idx: usize) -> &Rc<SliceGate> {
        &self.slots[idx].gate
    }

    /// The slot's lifecycle state.
    pub fn state(&self, idx: usize) -> SlotState {
        self.slots[idx].state
    }

    /// Releases a leased slot through the recycle+audit path. A clean
    /// report frees the slot; a dirty one quarantines it (caller
    /// decides whether to scrub now or retire).
    pub fn release(&mut self, idx: usize) -> ResetReport {
        let slot = &mut self.slots[idx];
        let report = match slot.gate.call(Request::Recycle) {
            Some(Reply::Recycled(r)) => r,
            _ => ResetReport::WORKER_GONE,
        };
        slot.state = if report.clean() {
            SlotState::Free
        } else {
            SlotState::Quarantined
        };
        report
    }

    /// Marks a slot quarantined without recycling (post-panic: the
    /// machine is not trustworthy enough to even run `recycle`).
    pub fn quarantine(&mut self, idx: usize) {
        self.slots[idx].state = SlotState::Quarantined;
    }

    /// Scrubs a quarantined slot: fresh boot, fresh audit. Clean →
    /// back to `Free`; still dirty → `Retired`.
    pub fn scrub(&mut self, idx: usize) -> ResetReport {
        let slot = &mut self.slots[idx];
        let report = match slot.gate.call(Request::Scrub) {
            Some(Reply::Scrubbed(r)) => r,
            _ => ResetReport::WORKER_GONE,
        };
        slot.state = if report.clean() {
            SlotState::Free
        } else {
            SlotState::Retired
        };
        report
    }

    /// Stops every worker. A parked command is cancelled (the gate
    /// wakes it with the cancel flag set), and each worker's fiber runs
    /// to its end, so its stack is freed with the slot.
    pub fn shutdown(&mut self) {
        for slot in &self.slots {
            slot.gate.shutdown();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cached filesystem digest does not blind the reset oracle: a
    /// session that writes `/tmp`, makes a directory and removes a
    /// `/bin` program audits dirty until the slot is recycled. Each
    /// write alone, made straight on the filesystem so that nothing
    /// else in the kernel (clock, pid counter) moves, does too.
    #[test]
    fn audit_catches_filesystem_writes_until_recycled() {
        let mut m = boot_machine(&None);
        let boot = snapshot(&m);
        assert!(audit(&m, &boot).clean(), "a fresh boot audits clean");
        m.run("echo residue > /tmp/residue; mkdir /tmp/made; rm /bin/tr")
            .expect("the dirty session runs");
        m.os_mut().take_console();
        let dirty = audit(&m, &boot);
        assert!(!dirty.os_clean, "filesystem writes went unnoticed");
        assert_eq!(dirty.violations(), vec!["kernel-fingerprint"]);
        assert!(m.recycle());
        assert!(audit(&m, &boot).clean(), "recycle restores the boot image");

        type Write = fn(&mut es_os::Vfs);
        let writes: [(&str, Write); 3] = [
            ("write /tmp", |fs| {
                fs.put_file("/tmp/residue", b"x").unwrap();
            }),
            ("mkdir", |fs| {
                fs.mkdir("/tmp/made", "/").unwrap();
            }),
            ("rm /bin/tr", |fs| fs.unlink("/bin/tr", "/").unwrap()),
        ];
        for (what, write) in writes {
            write(m.os_mut().vfs_mut());
            assert!(!audit(&m, &boot).os_clean, "{what} went unnoticed");
            assert!(m.recycle());
            assert!(audit(&m, &boot).clean(), "{what} survived recycle");
        }
    }

    /// The audit compares the `fn-%*` bindings with the boot image's: a
    /// hook spoofed, removed or added audits dirty until the slot is
    /// recycled, and a hook assigned back its boot binding audits clean.
    /// None of these runs a command, so nothing else in the machine
    /// moves. A spoof scoped by `let` or `local` leaves the hooks as
    /// boot bound them once the command returns.
    #[test]
    fn audit_catches_hook_changes_until_recycled() {
        let mut m = boot_machine(&None);
        let boot = snapshot(&m);
        for change in [
            "fn %pipe { result spoofed }",
            "fn-%pipe =",
            "fn %newhook {}",
        ] {
            m.run(change).expect("the change runs");
            let dirty = audit(&m, &boot);
            assert_eq!(dirty.violations(), vec!["hook-bindings"], "{change}");
            assert!(m.recycle());
            assert!(audit(&m, &boot).clean(), "{change} survived recycle");
        }
        m.run("fn %pipe { result spoofed }; fn-%pipe = $&pipe")
            .expect("the restore runs");
        assert!(audit(&m, &boot).clean(), "the restored hook audits dirty");
        for scoped in [
            "let (fn-%pipe = @ * {result spoofed}) {echo a | tr a b}",
            "local (fn-%pipe = @ * {result spoofed}) {echo a | tr a b}",
        ] {
            assert_eq!(m.run(scoped), Ok(vec!["spoofed".to_string()]), "{scoped}");
            let report = audit(&m, &boot);
            assert!(report.hooks_pristine, "{scoped} left a hook behind");
        }
    }
}
