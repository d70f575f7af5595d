//! The slot pool: recycled `Machine` instances, each with a worker on
//! a fiber of its own that runs its commands.
//!
//! Each pool slot boots its machine once, in [`Pool::new`], and keeps
//! it for the slot's whole life. The slot's worker runs on a fiber in
//! the scheduler's thread, because a command stopped at a slice
//! boundary keeps its evaluator frames on the worker's stack; the
//! worker borrows the machine only while a command runs, parked
//! commands included. Each [`Request`] and its timeslices reach the
//! worker through the slot's [`SliceGate`], and its [`Outcome`] comes
//! back the same way. Recycling, auditing and scrubbing a machine are
//! plain calls on the pool's own stack, made while no command is in
//! flight. Booting is the expensive part
//! (parsing and running `initial.es`, importing the environment);
//! recycling via [`es_core::Machine::recycle`] restores the frozen
//! boot image in place, which is why a pooled session starts orders
//! of magnitude faster than a cold one (measured in E14).
//!
//! ## The reset oracle
//!
//! Every release runs the machine through `recycle()` and then audits
//! it against the snapshot taken right after boot: the kernel, table
//! by table ([`es_os::SimOs::same_state`] — vfs, descriptors, pipes,
//! consoles, clocks, signals, processes), the open-descriptor delta,
//! the `fn-%*` hook bindings, and the armed limits. The snapshot is a
//! copy of the kernel that boot left, not the machine's boot image,
//! which the recycle itself reads; debug builds (and so the serve
//! soak) also compare the two kernels' [`es_os::SimOs::fingerprint`]s
//! and assert that both ways agree. A clean report means
//! the next tenant provably cannot observe the previous one. After a
//! dirty report, scrubbing (a fresh boot) is the only way back, and a
//! slot whose *scrub* still fails the oracle, or whose fresh boot
//! panics, is retired for good.
//!
//! The audit costs O(fd table + live pipes + consoles), not O(files)
//! and not O(bytes a session wrote and the recycle dropped): each
//! buffer's length is compared before its bytes. A slot's filesystem
//! and process table are shared by `Rc` with its boot image, and so
//! with the snapshot, so after a recycle they compare equal by pointer
//! and nothing is walked. Two filesystems that share no tree compare
//! by their digests ([`es_os::Vfs::digest`]), each walked afresh. A
//! recycle gives the slot back its snapshot's tree, and a scrub takes
//! a new snapshot, so only a tree a recycle failed to restore, and the
//! debug builds' fingerprints, are ever walked.

use crate::fiber::{self, Fiber, Stack};
use crate::gate::SliceGate;
use es_core::governor::Limits;
use es_core::Machine;
use es_os::{Os, SimOs};
use std::cell::RefCell;
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

/// One command line for a slot worker to run to completion
/// (timesliced via the gate). The worker first arms `limits` (each
/// command gets a fresh budget) and, when `fault_seed` is set, installs
/// fault weather: a session's first command carries its seed.
#[derive(Debug)]
pub struct Request {
    pub cmd: String,
    pub limits: Limits,
    pub fault_seed: Option<u64>,
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
    /// The kernel equals the one the slot kept at boot in every table
    /// its fingerprint covers (vfs, descriptor table, pipes, consoles,
    /// clock, signals, process table), compared table by table
    /// ([`es_os::SimOs::same_state`]).
    pub os_clean: bool,
    /// Open kernel descriptors gained since boot (0 when clean).
    pub fd_delta: isize,
    /// No `fn-%*` hook binding differs from its boot binding.
    pub hooks_pristine: bool,
    /// Armed limits are exactly the boot defaults again.
    pub limits_ok: bool,
}

impl ResetReport {
    /// The report for a scrub whose fresh boot panicked: every check
    /// fails, so the slot is retired.
    const BOOT_FAILED: ResetReport = ResetReport {
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
    /// Scrubbing did not produce a clean machine; permanently out of
    /// rotation.
    Retired,
}

struct Slot {
    gate: Rc<SliceGate>,
    /// Shared with the worker, which borrows it while a command runs.
    machine: Rc<RefCell<Machine<SimOs>>>,
    /// What the audit compares the machine with.
    boot: BootSnapshot,
    state: SlotState,
}

/// The fixed-capacity slot pool.
pub struct Pool {
    slots: Vec<Slot>,
    /// Run before every boot, a scrub's included.
    setup: Option<OsSetup>,
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

/// Boot state a slot is audited against: taken once right after boot,
/// retaken after every scrub.
struct BootSnapshot {
    /// A copy of the kernel as boot left it. It shares the filesystem
    /// and the process table with the boot image by `Rc`, as a clone
    /// does; the audit reads it, never the image.
    os: SimOs,
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
        os: m.os().clone(),
        hooks: m.hook_bindings(),
        limits: *m.governor().limits(),
    }
}

/// Compares `m` with the snapshot its slot took at boot. The kernel is
/// compared table by table ([`SimOs::same_state`]); debug builds check
/// that the answer is the one the two fingerprints give.
fn audit(m: &Machine<SimOs>, boot: &BootSnapshot) -> ResetReport {
    let os_clean = m.os().same_state(&boot.os);
    debug_assert_eq!(
        os_clean,
        m.os().fingerprint() == boot.os.fingerprint(),
        "the kernel compare disagrees with the fingerprints"
    );
    ResetReport {
        os_clean,
        fd_delta: m.os().open_desc_count() as isize - boot.os.open_desc_count() as isize,
        hooks_pristine: m.hooks_match(&boot.hooks),
        limits_ok: *m.governor().limits() == boot.limits,
    }
}

/// Boots a slot's machine with the slot's gate as its yield hook, and
/// takes its snapshot.
fn boot_slot(setup: &Option<OsSetup>, gate: &Rc<SliceGate>) -> (Machine<SimOs>, BootSnapshot) {
    let mut m = boot_machine(setup);
    let boot = snapshot(&m);
    m.set_yielder(Some(gate.clone()));
    (m, boot)
}

/// The body of a slot's fiber: runs each command the gate hands over
/// on the slot's machine, until the gate shuts down.
fn worker_main(gate: &SliceGate, machine: &RefCell<Machine<SimOs>>) {
    while let Some(req) = gate.next() {
        let outcome = run_command(&mut machine.borrow_mut(), gate, req);
        gate.done(outcome);
    }
}

/// Arms the command's limits and fault weather, runs it on the slot's
/// machine, catching a panic at the slot boundary, and harvests its
/// console output.
fn run_command(m: &mut Machine<SimOs>, gate: &SliceGate, req: Request) -> Outcome {
    for (kind, value) in req.limits.armed() {
        m.arm_limit(kind, value);
    }
    if let Some(seed) = req.fault_seed {
        m.os_mut().set_fault_plan(Some(
            es_os::FaultPlan::new(seed).uniform_rate(WEATHER_PER_1024),
        ));
    }
    let run = panic::catch_unwind(AssertUnwindSafe(|| {
        if req.cmd == PANIC_PROBE {
            panic::panic_any(PROBE_PANIC);
        }
        m.run(&req.cmd)
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
    /// Boots `capacity` slot machines on the caller's stack and gives
    /// each a worker fiber: the pool is warm when `new` returns.
    pub fn new(capacity: usize, setup: Option<OsSetup>) -> Pool {
        install_quiet_panics();
        let slots = (0..capacity)
            .map(|_| {
                let gate = Rc::new(SliceGate::new());
                let (m, boot) = boot_slot(&setup, &gate);
                let machine = Rc::new(RefCell::new(m));
                let (g, w) = (Rc::clone(&gate), Rc::clone(&machine));
                let stack = Stack::new(WORKER_STACK).expect("map a slot worker stack");
                gate.attach(Fiber::new(stack, move || worker_main(&g, &w)));
                Slot {
                    gate,
                    machine,
                    boot,
                    state: SlotState::Free,
                }
            })
            .collect();
        Pool { slots, setup }
    }

    /// Total slots, regardless of state.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Leases the lowest-numbered free slot.
    pub fn acquire(&mut self) -> Option<usize> {
        let idx = self.slots.iter().position(|s| s.state == SlotState::Free)?;
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

    /// Releases a leased slot whose worker is idle: recycles its
    /// machine and audits it. A clean report frees the slot; after a
    /// dirty one it stays leased until the caller scrubs it.
    pub fn release(&mut self, idx: usize) -> ResetReport {
        let slot = &mut self.slots[idx];
        let report = {
            let mut m = slot.machine.borrow_mut();
            m.recycle();
            audit(&m, &slot.boot)
        };
        if report.clean() {
            slot.state = SlotState::Free;
        }
        report
    }

    /// Scrubs a slot whose machine is not trusted (its command
    /// panicked, or its release audited dirty): a fresh boot, then a
    /// fresh audit. Clean → back to `Free`; still dirty, or the boot
    /// panicked → `Retired`.
    pub fn scrub(&mut self, idx: usize) -> ResetReport {
        let slot = &mut self.slots[idx];
        let booted = panic::catch_unwind(AssertUnwindSafe(|| boot_slot(&self.setup, &slot.gate)));
        let report = match booted {
            Ok((m, boot)) => {
                let report = audit(&m, &boot);
                *slot.machine.borrow_mut() = m;
                slot.boot = boot;
                report
            }
            Err(_) => ResetReport::BOOT_FAILED,
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

    /// Sharing the filesystem does not blind the reset oracle: a
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
