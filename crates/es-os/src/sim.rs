//! The simulated kernel: descriptors, pipes, processes, clock, signals.

use crate::clock::{
    civil_from_ns, Rusage, BYTE_SYS_NS, BYTE_USER_NS, EXEC_SYS_NS, EXEC_USER_NS, SYSCALL_SYS_NS,
};
use crate::error::{OsError, OsResult};
use crate::fault::{FaultEvent, FaultKind, FaultPlan, Syscall};
use crate::programs;
use crate::vfs::Vfs;
use crate::{OpenMode, Os, Signal};
use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::rc::Rc;

/// A kernel descriptor: an index into the open-description table.
/// Descriptors are reference counted ([`Os::dup`] shares the
/// description; each `dup` needs a matching `close`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Desc(pub u32);

/// What an open description refers to.
#[derive(Debug, Clone, PartialEq)]
enum FileKind {
    /// A VFS file with a cursor.
    Vnode {
        ino: crate::vfs::Ino,
        offset: usize,
        readable: bool,
        writable: bool,
        append: bool,
    },
    /// Read end of pipe `n`.
    PipeR(usize),
    /// Write end of pipe `n`.
    PipeW(usize),
    /// The shell's standard input (scripted or interactive).
    ConsoleIn,
    /// The shell's standard output (captured, optionally echoed).
    ConsoleOut,
    /// The shell's standard error (captured, optionally echoed).
    ConsoleErr,
}

#[derive(Debug, Clone, PartialEq)]
struct OpenFile {
    kind: FileKind,
    refs: usize,
}

#[derive(Debug, Clone, Default)]
struct Pipe {
    buf: VecDeque<u8>,
    writers: usize,
    readers: usize,
}

impl PartialEq for Pipe {
    fn eq(&self, other: &Pipe) -> bool {
        self.readers == other.readers
            && self.writers == other.writers
            && same_queue(&self.buf, &other.buf)
    }
}

/// One row of the fake process table (for `ps` / `kill` / the paper's
/// `ps aux | grep '^byron' | ... | xargs kill -9` example).
#[derive(Debug, Clone, PartialEq)]
pub struct ProcEntry {
    /// Owner login name.
    pub user: String,
    /// Process id.
    pub pid: i32,
    /// Command line shown by `ps`.
    pub command: String,
}

/// The simulated UNIX kernel. See the crate docs for scope.
///
/// `Clone` copies the whole kernel (descriptors, pipes, clock) except
/// the filesystem, which it shares copy-on-write: the clone pays for
/// its own copy of the inode table on its first write. The process
/// table and the initial environment are shared too (`kill` copies
/// the process table before it removes a row); the program table is
/// one static for the whole process (`programs::PROGRAMS`). The
/// interpreter's `fork` clones the kernel together with the shell
/// state, giving true fork semantics; `clone_from` copies into the
/// buffers the kernel already has, which is how a recycled session
/// restores its boot kernel.
pub struct SimOs {
    vfs: Vfs,
    cwd: String,
    files: Vec<Option<OpenFile>>,
    pipes: Vec<Pipe>,
    /// Virtual nanoseconds since the 1993-01-25 epoch.
    real_ns: u64,
    children: Rusage,
    console_in: VecDeque<u8>,
    console_out: Vec<u8>,
    console_err: Vec<u8>,
    /// Write console output to the real stdout/stderr instead of
    /// capturing it, and fall back to reading real stdin when the
    /// scripted input runs dry — this is what makes `es --sim` usable
    /// interactively.
    interactive: bool,
    signals: VecDeque<Signal>,
    /// Signals scheduled for delivery at a virtual time (sorted by
    /// time). `take_signal` delivers one once the clock reaches it —
    /// tests use this to model "^C arrives mid-computation".
    sig_schedule: Vec<(u64, Signal)>,
    procs: Rc<Vec<ProcEntry>>,
    next_pid: i32,
    initial_env: Rc<Vec<(String, String)>>,
    /// The shell's own pid in the fake process table.
    pub shell_pid: i32,
    shell_sys_ns: u64,
    /// Armed fault-injection plan, if any (see [`crate::fault`]).
    fault: Option<FaultPlan>,
}

impl std::fmt::Debug for SimOs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimOs")
            .field("cwd", &self.cwd)
            .field("real_ns", &self.real_ns)
            .field("open_files", &self.files.iter().flatten().count())
            .finish()
    }
}

impl Default for SimOs {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for SimOs {
    fn clone(&self) -> Self {
        let SimOs {
            vfs,
            cwd,
            files,
            pipes,
            real_ns,
            children,
            console_in,
            console_out,
            console_err,
            interactive,
            signals,
            sig_schedule,
            procs,
            next_pid,
            initial_env,
            shell_pid,
            shell_sys_ns,
            fault,
        } = self;
        SimOs {
            vfs: vfs.clone(),
            cwd: cwd.clone(),
            files: files.clone(),
            pipes: pipes.clone(),
            real_ns: *real_ns,
            children: *children,
            console_in: console_in.clone(),
            console_out: console_out.clone(),
            console_err: console_err.clone(),
            interactive: *interactive,
            signals: signals.clone(),
            sig_schedule: sig_schedule.clone(),
            procs: Rc::clone(procs),
            next_pid: *next_pid,
            initial_env: Rc::clone(initial_env),
            shell_pid: *shell_pid,
            shell_sys_ns: *shell_sys_ns,
            fault: fault.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let SimOs {
            vfs,
            cwd,
            files,
            pipes,
            real_ns,
            children,
            console_in,
            console_out,
            console_err,
            interactive,
            signals,
            sig_schedule,
            procs,
            next_pid,
            initial_env,
            shell_pid,
            shell_sys_ns,
            fault,
        } = source;
        self.vfs.clone_from(vfs);
        self.cwd.clone_from(cwd);
        self.files.clone_from(files);
        self.pipes.clone_from(pipes);
        self.real_ns = *real_ns;
        self.children = *children;
        self.console_in.clone_from(console_in);
        self.console_out.clone_from(console_out);
        self.console_err.clone_from(console_err);
        self.interactive = *interactive;
        self.signals.clone_from(signals);
        self.sig_schedule.clone_from(sig_schedule);
        self.procs.clone_from(procs);
        self.next_pid = *next_pid;
        self.initial_env.clone_from(initial_env);
        self.shell_pid = *shell_pid;
        self.shell_sys_ns = *shell_sys_ns;
        self.fault.clone_from(fault);
    }
}

impl SimOs {
    /// Boots a kernel with the standard filesystem layout (`/bin` full
    /// of simulated coreutils, `/tmp`, `/usr/tmp`, `/home/user`), a
    /// fake process table, and descriptors 0/1/2 pre-opened on the
    /// console.
    pub fn new() -> SimOs {
        let mut vfs = Vfs::new();
        for dir in ["/bin", "/usr/bin", "/tmp", "/usr/tmp", "/home/user", "/etc"] {
            vfs.mkdir_all(dir).expect("fresh vfs accepts mkdir");
        }
        for name in programs::PROGRAMS.keys() {
            vfs.put_program(&format!("/bin/{name}"), name)
                .expect("fresh vfs accepts programs");
        }
        vfs.put_file("/etc/motd", b"welcome to the es simulation\n")
            .expect("fresh vfs accepts files");
        let files = vec![
            Some(OpenFile {
                kind: FileKind::ConsoleIn,
                refs: 1,
            }),
            Some(OpenFile {
                kind: FileKind::ConsoleOut,
                refs: 1,
            }),
            Some(OpenFile {
                kind: FileKind::ConsoleErr,
                refs: 1,
            }),
        ];
        let procs = vec![
            ProcEntry {
                user: "root".into(),
                pid: 1,
                command: "init".into(),
            },
            ProcEntry {
                user: "root".into(),
                pid: 74,
                command: "update".into(),
            },
            ProcEntry {
                user: "byron".into(),
                pid: 4523,
                command: "rc".into(),
            },
            ProcEntry {
                user: "byron".into(),
                pid: 4619,
                command: "vi paper.ms".into(),
            },
            ProcEntry {
                user: "haahr".into(),
                pid: 5000,
                command: "es".into(),
            },
        ];
        SimOs {
            vfs,
            cwd: "/home/user".into(),
            files,
            pipes: Vec::new(),
            real_ns: 0,
            children: Rusage::default(),
            console_in: VecDeque::new(),
            console_out: Vec::new(),
            console_err: Vec::new(),
            interactive: false,
            signals: VecDeque::new(),
            sig_schedule: Vec::new(),
            procs: Rc::new(procs),
            next_pid: 6000,
            shell_sys_ns: 0,
            initial_env: Rc::new(vec![
                ("HOME".into(), "/home/user".into()),
                ("PATH".into(), "/bin:/usr/bin".into()),
                ("TERM".into(), "vt100".into()),
            ]),
            shell_pid: 5000,
            fault: None,
        }
    }

    /// Direct access to the filesystem (test and example setup).
    pub fn vfs_mut(&mut self) -> &mut Vfs {
        &mut self.vfs
    }

    /// Read-only access to the filesystem.
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Queues bytes on the shell's standard input.
    pub fn push_input(&mut self, text: &str) {
        self.console_in.extend(text.bytes());
    }

    /// Takes and clears everything the shell wrote to stdout.
    pub fn take_output(&mut self) -> String {
        String::from_utf8_lossy(&std::mem::take(&mut self.console_out)).into_owned()
    }

    /// Takes and clears everything the shell wrote to stderr.
    pub fn take_error(&mut self) -> String {
        String::from_utf8_lossy(&std::mem::take(&mut self.console_err)).into_owned()
    }

    /// Enables interactive mode: console output goes to the real
    /// stdout/stderr (and is not captured for [`SimOs::take_output`])
    /// and console input falls back to the real stdin.
    pub fn set_interactive(&mut self, on: bool) {
        self.interactive = on;
    }

    /// Replaces the environment reported by [`Os::initial_env`].
    pub fn set_initial_env(&mut self, env: Vec<(String, String)>) {
        self.initial_env = Rc::new(env);
    }

    /// Delivers a signal to the shell (tests use this to model ^C).
    pub fn raise_signal(&mut self, sig: Signal) {
        self.signals.push_back(sig);
    }

    /// Schedules a signal for delivery once the virtual clock reaches
    /// `at_ns`. Deterministic: the signal surfaces at the first
    /// `take_signal` poll at or after that instant.
    pub fn schedule_signal(&mut self, at_ns: u64, sig: Signal) {
        self.sig_schedule.push((at_ns, sig));
        self.sig_schedule.sort_by_key(|&(t, _)| t);
    }

    /// The fake process table (shared with `ps`/`kill`).
    pub fn procs(&self) -> &[ProcEntry] {
        &self.procs
    }

    /// Advances the virtual clock (also used by `sleep`).
    pub fn advance_ns(&mut self, ns: u64) {
        self.real_ns += ns;
    }

    /// Borrowed current directory (avoids a clone inside ProcCtx).
    pub(crate) fn cwd_ref(&self) -> &str {
        &self.cwd
    }

    /// Arms (or disarms, with `None`) fault injection. The plan is
    /// consulted by every `open`/`read`/`write`/`pipe`/`dup`/`close`/
    /// `run`/`chdir` the shell issues.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// The armed plan, if any (its log tells you what was injected).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Takes the armed plan's event log (empty if no plan).
    pub fn take_fault_log(&mut self) -> Vec<FaultEvent> {
        self.fault
            .as_mut()
            .map(|p| std::mem::take(p.log_mut()))
            .unwrap_or_default()
    }

    /// How many descriptor-table slots are currently open (the fresh
    /// kernel has 3: stdin/stdout/stderr). Leak checks compare this
    /// against a baseline snapshot.
    pub fn open_desc_count(&self) -> usize {
        self.files.iter().flatten().count()
    }

    /// Rows in the pipe table, live or waiting for reuse.
    #[cfg(test)]
    pub(crate) fn pipe_rows(&self) -> usize {
        self.pipes.len()
    }

    /// Consults the armed plan for this syscall; `None` means proceed
    /// normally. Injection happens *before* any kernel state changes,
    /// so an injected `EINTR` is always safely retryable.
    fn inject(&mut self, sc: Syscall, allowed: &[FaultKind]) -> Option<FaultKind> {
        self.fault.as_mut()?.decide(sc, allowed)
    }

    /// Maps an injected fault kind to the errno it surfaces as.
    fn fault_error(kind: FaultKind, operand: &str) -> OsError {
        match kind {
            FaultKind::Intr => OsError::Intr,
            FaultKind::NoSpc => OsError::NoSpc(operand.to_string()),
            FaultKind::MFile => OsError::MFile,
            // ShortRead / PartialWrite never reach here from their own
            // syscalls; a schedule forcing them elsewhere degrades to EIO.
            FaultKind::Io | FaultKind::ShortRead | FaultKind::PartialWrite => {
                OsError::Io(operand.to_string())
            }
        }
    }

    // ---- internals shared with ProcCtx -------------------------------------

    fn file(&self, d: Desc) -> OsResult<&OpenFile> {
        self.files
            .get(d.0 as usize)
            .and_then(|f| f.as_ref())
            .ok_or(OsError::BadF)
    }

    fn charge_sys(&mut self, bytes: usize) {
        let ns = SYSCALL_SYS_NS + BYTE_SYS_NS * bytes as u64;
        self.real_ns += ns;
        self.shell_sys_ns += ns;
    }

    pub(crate) fn do_read(&mut self, d: Desc, buf: &mut [u8]) -> OsResult<usize> {
        let kind = self.file(d)?.kind.clone();
        let n = match kind {
            FileKind::Vnode {
                ino,
                offset,
                readable,
                ..
            } => {
                if !readable {
                    return Err(OsError::BadF);
                }
                let n = self.vfs.read_at(ino, offset, buf);
                if let Some(Some(of)) = self.files.get_mut(d.0 as usize) {
                    if let FileKind::Vnode { offset, .. } = &mut of.kind {
                        *offset += n;
                    }
                }
                n
            }
            FileKind::PipeR(p) => {
                let pipe = &mut self.pipes[p];
                let n = buf.len().min(pipe.buf.len());
                for b in buf.iter_mut().take(n) {
                    *b = pipe.buf.pop_front().expect("len checked");
                }
                n
            }
            FileKind::PipeW(_) | FileKind::ConsoleOut | FileKind::ConsoleErr => {
                return Err(OsError::BadF)
            }
            FileKind::ConsoleIn => {
                let n = buf.len().min(self.console_in.len());
                if n == 0 && self.interactive {
                    // Fall back to the real stdin so the REPL works.
                    return std::io::stdin()
                        .read(buf)
                        .map_err(|e| OsError::Io(e.to_string()));
                }
                for b in buf.iter_mut().take(n) {
                    *b = self.console_in.pop_front().expect("len checked");
                }
                n
            }
        };
        self.charge_sys(n);
        Ok(n)
    }

    pub(crate) fn do_write(&mut self, d: Desc, data: &[u8]) -> OsResult<usize> {
        let kind = self.file(d)?.kind.clone();
        match kind {
            FileKind::Vnode {
                ino,
                offset,
                writable,
                append,
                ..
            } => {
                if !writable {
                    return Err(OsError::BadF);
                }
                let at = if append {
                    self.vfs.file_len(ino)
                } else {
                    offset
                };
                self.vfs.write_at(ino, at, data);
                if let Some(Some(of)) = self.files.get_mut(d.0 as usize) {
                    if let FileKind::Vnode { offset, .. } = &mut of.kind {
                        *offset = at + data.len();
                    }
                }
            }
            FileKind::PipeW(p) => {
                let pipe = &mut self.pipes[p];
                if pipe.readers == 0 {
                    return Err(OsError::Pipe);
                }
                pipe.buf.extend(data.iter().copied());
            }
            // Interactive output goes straight through: nothing would
            // ever drain a copy kept here.
            FileKind::ConsoleOut if self.interactive => {
                let _ = std::io::stdout().write_all(data);
                let _ = std::io::stdout().flush();
            }
            FileKind::ConsoleErr if self.interactive => {
                let _ = std::io::stderr().write_all(data);
                let _ = std::io::stderr().flush();
            }
            FileKind::ConsoleOut => self.console_out.extend_from_slice(data),
            FileKind::ConsoleErr => self.console_err.extend_from_slice(data),
            FileKind::PipeR(_) | FileKind::ConsoleIn => return Err(OsError::BadF),
        }
        self.charge_sys(data.len());
        Ok(data.len())
    }

    fn alloc_desc(&mut self, kind: FileKind) -> Desc {
        // Reuse the lowest free slot, like a real descriptor table.
        for (i, slot) in self.files.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(OpenFile { kind, refs: 1 });
                return Desc(i as u32);
            }
        }
        self.files.push(Some(OpenFile { kind, refs: 1 }));
        Desc((self.files.len() - 1) as u32)
    }

    /// Removes pids from the fake process table; returns how many were
    /// found. Signals aimed at the shell's own pid are queued instead.
    pub(crate) fn kill_pids(&mut self, pids: &[i32], sig: Signal) -> usize {
        let mut hit = 0;
        for &pid in pids {
            if pid == self.shell_pid {
                self.signals.push_back(sig);
                hit += 1;
                continue;
            }
            if self.procs.iter().any(|p| p.pid == pid) {
                Rc::make_mut(&mut self.procs).retain(|p| p.pid != pid);
                hit += 1;
            }
        }
        hit
    }

    /// Formats the virtual clock for `date`: `(y, m, d, h, min, s)`.
    pub(crate) fn civil_now(&self) -> (i64, u32, u32, u32, u32, u32) {
        civil_from_ns(self.real_ns)
    }

    /// System time charged to the shell itself (not children); `time`
    /// reports child usage only, like getrusage(RUSAGE_CHILDREN).
    pub fn shell_sys_ns(&self) -> u64 {
        self.shell_sys_ns
    }

    /// True when a tenant could not tell this kernel from `other`:
    /// every table [`SimOs::fingerprint`] covers is equal, compared
    /// table by table with the cheap checks first. A filesystem or
    /// process table still `Rc`-shared by the two is equal without
    /// being read, a filesystem that is not compares by its walked
    /// digest, and a byte buffer's length is compared before its bytes
    /// (see `same_bytes`). Fully closed pipe rows, which only wait to
    /// be reused, are skipped, as the fingerprint skips them. The
    /// serving pool's reset audit compares a recycled slot with the
    /// kernel it kept at boot this way; debug builds check that the
    /// answer agrees with the fingerprints'.
    pub fn same_state(&self, other: &SimOs) -> bool {
        self.real_ns == other.real_ns
            && self.shell_sys_ns == other.shell_sys_ns
            && self.children == other.children
            && self.next_pid == other.next_pid
            && self.shell_pid == other.shell_pid
            && same_bytes(self.cwd.as_bytes(), other.cwd.as_bytes())
            && self.open_files().eq(other.open_files())
            && self.live_pipes().eq(other.live_pipes())
            && same_queue(&self.console_in, &other.console_in)
            && same_bytes(&self.console_out, &other.console_out)
            && same_bytes(&self.console_err, &other.console_err)
            && self.signals == other.signals
            && self.sig_schedule == other.sig_schedule
            && (Rc::ptr_eq(&self.procs, &other.procs) || self.procs == other.procs)
            && self.vfs.same_tree(&other.vfs)
    }

    /// The open descriptions, with their descriptor numbers.
    fn open_files(&self) -> impl Iterator<Item = (usize, &OpenFile)> {
        self.files
            .iter()
            .enumerate()
            .filter_map(|(i, f)| Some((i, f.as_ref()?)))
    }

    /// The pipe rows with a live end, with their numbers.
    fn live_pipes(&self) -> impl Iterator<Item = (usize, &Pipe)> {
        self.pipes
            .iter()
            .enumerate()
            .filter(|(_, p)| p.readers != 0 || p.writers != 0)
    }

    /// Deterministic digest of every tenant-observable piece of kernel
    /// state: the filesystem (paths, contents, executable bits; see
    /// [`Vfs::digest`], which walks the whole tree), the
    /// descriptor table (kinds, cursors, refcounts), pipes and their
    /// buffered bytes, console buffers, working directory, virtual
    /// clock, child rusage, pending and scheduled signals, the process
    /// table, and the pid counter. The serving pool's reset oracle
    /// compares a recycled slot's fingerprint against its boot
    /// image's — equality means zero cross-tenant state bleed at the
    /// kernel layer. The armed fault plan is deliberately excluded: it
    /// is per-session *configuration*, not state a tenant mutates.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv(&mut h, self.cwd.as_bytes());
        fnv_u64(&mut h, self.real_ns);
        fnv_u64(&mut h, self.shell_sys_ns);
        fnv_u64(&mut h, self.children.user_ns);
        fnv_u64(&mut h, self.children.sys_ns);
        fnv_u64(&mut h, self.next_pid as u64);
        fnv_u64(&mut h, self.shell_pid as u64);
        fnv_u64(&mut h, self.vfs.digest());
        for (i, of) in self.open_files() {
            fnv_u64(&mut h, i as u64);
            fnv_u64(&mut h, of.refs as u64);
            match &of.kind {
                FileKind::Vnode {
                    ino,
                    offset,
                    readable,
                    writable,
                    append,
                } => {
                    fnv(&mut h, b"vnode");
                    fnv_u64(&mut h, ino.0 as u64);
                    fnv_u64(&mut h, *offset as u64);
                    fnv(&mut h, &[*readable as u8, *writable as u8, *append as u8]);
                }
                FileKind::PipeR(p) => {
                    fnv(&mut h, b"piper");
                    fnv_u64(&mut h, *p as u64);
                }
                FileKind::PipeW(p) => {
                    fnv(&mut h, b"pipew");
                    fnv_u64(&mut h, *p as u64);
                }
                FileKind::ConsoleIn => fnv(&mut h, b"cin"),
                FileKind::ConsoleOut => fnv(&mut h, b"cout"),
                FileKind::ConsoleErr => fnv(&mut h, b"cerr"),
            }
        }
        // Only pipes with a live end are observable; fully closed rows
        // wait to be reused by the next `pipe`.
        for (i, pipe) in self.live_pipes() {
            fnv_u64(&mut h, i as u64);
            fnv_u64(&mut h, pipe.readers as u64);
            fnv_u64(&mut h, pipe.writers as u64);
            let (a, b) = pipe.buf.as_slices();
            fnv(&mut h, a);
            fnv(&mut h, b);
        }
        fnv(&mut h, self.console_in.as_slices().0);
        fnv(&mut h, self.console_in.as_slices().1);
        fnv(&mut h, &self.console_out);
        fnv(&mut h, &self.console_err);
        for sig in &self.signals {
            fnv(&mut h, sig.name().as_bytes());
        }
        for (t, sig) in &self.sig_schedule {
            fnv_u64(&mut h, *t);
            fnv(&mut h, sig.name().as_bytes());
        }
        for p in self.procs.iter() {
            fnv(&mut h, p.user.as_bytes());
            fnv_u64(&mut h, p.pid as u64);
            fnv(&mut h, p.command.as_bytes());
        }
        h
    }
}

/// True if the two byte runs are equal. The lengths are compared
/// first, and two empty runs are equal without a library call: on
/// some hosts `memcmp` on the dangling pointer of an empty `Vec`
/// costs 100 times more than on a short equal run (DESIGN.md §4f).
fn same_bytes(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && (a.is_empty() || a == b)
}

/// `same_bytes` for a queue, whose bytes may wrap around its buffer.
fn same_queue(a: &VecDeque<u8>, b: &VecDeque<u8>) -> bool {
    a.len() == b.len() && (a.is_empty() || a == b)
}

/// FNV-1a's initial state.
pub(crate) const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a over a byte run (the fingerprint's mixing step).
pub(crate) fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// FNV-1a over a little-endian u64.
fn fnv_u64(h: &mut u64, v: u64) {
    fnv(h, &v.to_le_bytes());
}

impl Os for SimOs {
    fn open(&mut self, path: &str, mode: OpenMode) -> OsResult<Desc> {
        let allowed: &[FaultKind] = match mode {
            OpenMode::Read => &[FaultKind::Intr, FaultKind::MFile, FaultKind::Io],
            OpenMode::Write | OpenMode::Append => &[
                FaultKind::Intr,
                FaultKind::MFile,
                FaultKind::NoSpc,
                FaultKind::Io,
            ],
        };
        if let Some(kind) = self.inject(Syscall::Open, allowed) {
            return Err(Self::fault_error(kind, path));
        }
        let (ino, readable, writable, append) = match mode {
            OpenMode::Read => {
                let ino = self.vfs.lookup(path, &self.cwd)?;
                if self.vfs.is_dir(path, &self.cwd) {
                    return Err(OsError::IsDir(path.to_string()));
                }
                (ino, true, false, false)
            }
            OpenMode::Write => {
                let cwd = self.cwd.clone();
                let ino = self.vfs.create_file(path, &cwd, false)?;
                self.vfs.truncate(ino);
                (ino, false, true, false)
            }
            OpenMode::Append => {
                let cwd = self.cwd.clone();
                let ino = self.vfs.create_file(path, &cwd, false)?;
                (ino, false, true, true)
            }
        };
        self.charge_sys(0);
        Ok(self.alloc_desc(FileKind::Vnode {
            ino,
            offset: 0,
            readable,
            writable,
            append,
        }))
    }

    fn pipe(&mut self) -> OsResult<(Desc, Desc)> {
        if let Some(kind) = self.inject(Syscall::Pipe, &[FaultKind::Intr, FaultKind::MFile]) {
            return Err(Self::fault_error(kind, "pipe"));
        }
        // Reuse the lowest fully closed row, like `alloc_desc`, so a
        // long session's table stays as large as its busiest moment.
        let fresh = Pipe {
            buf: VecDeque::new(),
            writers: 1,
            readers: 1,
        };
        let p = match self
            .pipes
            .iter()
            .position(|p| p.readers == 0 && p.writers == 0)
        {
            Some(p) => {
                self.pipes[p] = fresh;
                p
            }
            None => {
                self.pipes.push(fresh);
                self.pipes.len() - 1
            }
        };
        let r = self.alloc_desc(FileKind::PipeR(p));
        let w = self.alloc_desc(FileKind::PipeW(p));
        self.charge_sys(0);
        Ok((r, w))
    }

    fn dup(&mut self, d: Desc) -> OsResult<Desc> {
        if let Some(kind) = self.inject(Syscall::Dup, &[FaultKind::Intr, FaultKind::MFile]) {
            return Err(Self::fault_error(kind, "dup"));
        }
        let kind = self.file(d)?.kind.clone();
        if let Some(Some(of)) = self.files.get_mut(d.0 as usize) {
            of.refs += 1;
        }
        match kind {
            FileKind::PipeR(p) => self.pipes[p].readers += 1,
            FileKind::PipeW(p) => self.pipes[p].writers += 1,
            _ => {}
        }
        Ok(d)
    }

    fn close(&mut self, d: Desc) -> OsResult<()> {
        // Close only injects EINTR-before-anything-happened (the one
        // safe interpretation of EINTR-from-close); the descriptor
        // stays open and the caller retries.
        if let Some(kind) = self.inject(Syscall::Close, &[FaultKind::Intr]) {
            return Err(Self::fault_error(kind, "close"));
        }
        let idx = d.0 as usize;
        let of = self
            .files
            .get_mut(idx)
            .and_then(|f| f.as_mut())
            .ok_or(OsError::BadF)?;
        of.refs -= 1;
        let kind = of.kind.clone();
        let drop_it = of.refs == 0;
        match kind {
            FileKind::PipeR(p) => self.pipes[p].readers -= 1,
            FileKind::PipeW(p) => self.pipes[p].writers -= 1,
            _ => {}
        }
        if drop_it {
            self.files[idx] = None;
        }
        Ok(())
    }

    fn read(&mut self, d: Desc, buf: &mut [u8]) -> OsResult<usize> {
        let allowed: &[FaultKind] = if buf.len() >= 2 {
            &[FaultKind::Intr, FaultKind::Io, FaultKind::ShortRead]
        } else {
            // A 1-byte read can't be meaningfully shortened (0 would
            // read as EOF), so short reads only apply to larger buffers.
            &[FaultKind::Intr, FaultKind::Io]
        };
        match self.inject(Syscall::Read, allowed) {
            Some(FaultKind::ShortRead) if buf.len() >= 2 => {
                let n = 1 + self
                    .fault
                    .as_mut()
                    .expect("plan armed")
                    .draw_below(buf.len() as u64 - 1) as usize;
                self.do_read(d, &mut buf[..n])
            }
            Some(kind) => Err(Self::fault_error(kind, "read")),
            None => self.do_read(d, buf),
        }
    }

    fn write(&mut self, d: Desc, data: &[u8]) -> OsResult<usize> {
        let allowed: &[FaultKind] = if data.len() >= 2 {
            &[
                FaultKind::Intr,
                FaultKind::Io,
                FaultKind::NoSpc,
                FaultKind::PartialWrite,
            ]
        } else {
            &[FaultKind::Intr, FaultKind::Io, FaultKind::NoSpc]
        };
        match self.inject(Syscall::Write, allowed) {
            Some(FaultKind::PartialWrite) if data.len() >= 2 => {
                // Consume only a nonempty strict prefix; the caller
                // must loop for the rest.
                let n = 1 + self
                    .fault
                    .as_mut()
                    .expect("plan armed")
                    .draw_below(data.len() as u64 - 1) as usize;
                self.do_write(d, &data[..n])
            }
            Some(kind) => Err(Self::fault_error(kind, "")),
            None => self.do_write(d, data),
        }
    }

    fn run(
        &mut self,
        argv: &[String],
        env: &[(String, String)],
        fds: &[(u32, Desc)],
    ) -> OsResult<i32> {
        let path = argv
            .first()
            .ok_or_else(|| OsError::Inval("empty argv".into()))?;
        if let Some(kind) = self.inject(Syscall::Run, &[FaultKind::Intr, FaultKind::Io]) {
            return Err(Self::fault_error(kind, path));
        }
        let ino = self.vfs.lookup(path, &self.cwd)?;
        let prog = match self.vfs.program_of(ino) {
            Some(key) => *programs::PROGRAMS
                .get(key)
                .ok_or_else(|| OsError::NoExec(path.clone()))?,
            None if self.vfs.is_executable(path, &self.cwd) => {
                return Err(OsError::NoExec(path.clone()))
            }
            None => return Err(OsError::Access(path.clone())),
        };
        let pid = self.next_pid;
        self.next_pid += 1;
        let mut ctx = programs::ProcCtx::new(self, argv, env, fds, pid);
        let status = prog(&mut ctx);
        let bytes = ctx.bytes_io();
        let extra = ctx.extra_user_ns();
        let usage = Rusage {
            user_ns: EXEC_USER_NS + BYTE_USER_NS * bytes + extra,
            sys_ns: EXEC_SYS_NS + SYSCALL_SYS_NS * ctx.io_calls() + BYTE_SYS_NS * bytes,
        };
        self.children += usage;
        self.real_ns += usage.total_ns();
        Ok(status)
    }

    fn chdir(&mut self, path: &str) -> OsResult<()> {
        if let Some(kind) = self.inject(Syscall::Chdir, &[FaultKind::Intr, FaultKind::Io]) {
            return Err(Self::fault_error(kind, path));
        }
        let ino = self.vfs.lookup(path, &self.cwd)?;
        if self.vfs.program_of(ino).is_some() || self.vfs.is_file(path, &self.cwd) {
            return Err(OsError::NotDir(path.to_string()));
        }
        let comps = Vfs::normalize(path, &self.cwd);
        self.cwd = format!("/{}", comps.join("/"));
        Ok(())
    }

    fn cwd(&self) -> String {
        self.cwd.clone()
    }

    fn read_dir(&self, path: &str) -> OsResult<Vec<String>> {
        self.vfs.read_dir(path, &self.cwd)
    }

    fn is_file(&self, path: &str) -> bool {
        self.vfs.is_file(path, &self.cwd)
    }

    fn is_dir(&self, path: &str) -> bool {
        self.vfs.is_dir(path, &self.cwd)
    }

    fn is_executable(&self, path: &str) -> bool {
        self.vfs.is_executable(path, &self.cwd)
    }

    fn now_ns(&self) -> u64 {
        self.real_ns
    }

    fn children_rusage(&self) -> Rusage {
        self.children
    }

    fn take_signal(&mut self) -> Option<Signal> {
        if let Some(sig) = self.signals.pop_front() {
            return Some(sig);
        }
        match self.sig_schedule.first() {
            Some(&(t, sig)) if t <= self.real_ns => {
                self.sig_schedule.remove(0);
                Some(sig)
            }
            _ => None,
        }
    }

    // Explicit impls (not the trait defaults): generic `Machine<O: Os>`
    // code dispatches through the trait, which would otherwise see the
    // no-op `advance_ns` default instead of the inherent method above.
    fn advance_ns(&mut self, ns: u64) {
        SimOs::advance_ns(self, ns);
    }

    fn open_desc_count(&self) -> usize {
        SimOs::open_desc_count(self)
    }

    fn initial_env(&self) -> Vec<(String, String)> {
        self.initial_env.to_vec()
    }

    fn take_console(&mut self) -> (String, String) {
        (self.take_output(), self.take_error())
    }

    fn absorb_fork(&mut self, child: Self) {
        // Execution is strictly sequential (the child ran to
        // completion), so the child's kernel state is simply the
        // newer truth — except the working directory, which a real
        // fork keeps per-process.
        let cwd = self.cwd.clone();
        *self = child;
        self.cwd = cwd;
    }
}
