//! The simulated kernel: descriptors, pipes, processes, clock, signals.

use crate::clock::{
    civil_from_ns, Rusage, BYTE_SYS_NS, BYTE_USER_NS, EXEC_SYS_NS, EXEC_USER_NS, SYSCALL_SYS_NS,
};
use crate::desc::{same_bytes, Desc, Table};
use crate::error::{OsError, OsResult};
use crate::fault::{FaultEvent, FaultKind, FaultPlan, Syscall};
use crate::programs;
use crate::vfs::Vfs;
use crate::{OpenMode, Os, Signal};
use std::collections::VecDeque;
use std::rc::Rc;

/// SimOs's file kind: a VFS file with its cursor and the access it
/// was opened for.
#[derive(Debug, Clone, PartialEq)]
struct Vnode {
    ino: crate::vfs::Ino,
    offset: usize,
    readable: bool,
    writable: bool,
    append: bool,
}

impl Vnode {
    fn read(&mut self, vfs: &Vfs, buf: &mut [u8]) -> OsResult<usize> {
        if !self.readable {
            return Err(OsError::BadF);
        }
        let n = vfs.read_at(self.ino, self.offset, buf);
        self.offset += n;
        Ok(n)
    }

    fn write(&mut self, vfs: &mut Vfs, data: &[u8]) -> OsResult<usize> {
        if !self.writable {
            return Err(OsError::BadF);
        }
        let at = if self.append {
            vfs.file_len(self.ino)
        } else {
            self.offset
        };
        vfs.write_at(self.ino, at, data);
        self.offset = at + data.len();
        Ok(data.len())
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
    /// Descriptors, pipes and console (the `desc` module's model); the
    /// console passes through to the process's stdio in interactive
    /// mode, which is what makes `es` on this kernel usable at a
    /// terminal.
    fds: Table<Vnode>,
    /// Virtual nanoseconds since the 1993-01-25 epoch.
    real_ns: u64,
    children: Rusage,
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
            .field("open_files", &self.fds.open_desc_count())
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
            fds,
            real_ns,
            children,
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
            fds: fds.clone(),
            real_ns: *real_ns,
            children: *children,
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
            fds,
            real_ns,
            children,
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
        self.fds.clone_from(fds);
        self.real_ns = *real_ns;
        self.children = *children;
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
    /// of simulated coreutils, `/tmp`, `/usr/tmp`, `/home/user`,
    /// `/dev/null`), a fake process table, and descriptors 0/1/2
    /// pre-opened on the console.
    pub fn new() -> SimOs {
        let mut vfs = Vfs::new();
        for dir in [
            "/bin",
            "/usr/bin",
            "/tmp",
            "/usr/tmp",
            "/home/user",
            "/etc",
            "/dev",
        ] {
            vfs.mkdir_all(dir).expect("fresh vfs accepts mkdir");
        }
        vfs.put_null("/dev/null")
            .expect("fresh vfs accepts devices");
        for name in programs::PROGRAMS.keys() {
            vfs.put_program(&format!("/bin/{name}"), name)
                .expect("fresh vfs accepts programs");
        }
        vfs.put_file("/etc/motd", b"welcome to the es simulation\n")
            .expect("fresh vfs accepts files");
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
            fds: Table::new(false),
            real_ns: 0,
            children: Rusage::default(),
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
        self.fds.push_input(text);
    }

    /// Takes and clears everything the shell wrote to stdout.
    pub fn take_output(&mut self) -> String {
        self.fds.take_output()
    }

    /// Takes and clears everything the shell wrote to stderr.
    pub fn take_error(&mut self) -> String {
        self.fds.take_error()
    }

    /// Enables interactive mode: console output goes to the real
    /// stdout/stderr (and is not captured for [`SimOs::take_output`])
    /// and console input falls back to the real stdin.
    pub fn set_interactive(&mut self, on: bool) {
        self.fds.set_passthrough(on);
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
        self.fds.open_desc_count()
    }

    /// Rows in the pipe table, live or waiting for reuse.
    #[cfg(test)]
    pub(crate) fn pipe_rows(&self) -> usize {
        self.fds.pipe_rows()
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

    fn charge_sys(&mut self, bytes: usize) {
        let ns = SYSCALL_SYS_NS + BYTE_SYS_NS * bytes as u64;
        self.real_ns += ns;
        self.shell_sys_ns += ns;
    }

    pub(crate) fn do_read(&mut self, d: Desc, buf: &mut [u8]) -> OsResult<usize> {
        let vfs = &self.vfs;
        let n = self.fds.read(d, buf, |node, buf| node.read(vfs, buf))?;
        self.charge_sys(n);
        Ok(n)
    }

    pub(crate) fn do_write(&mut self, d: Desc, data: &[u8]) -> OsResult<usize> {
        let vfs = &mut self.vfs;
        let n = self
            .fds
            .write(d, data, |node, data| node.write(vfs, data))?;
        self.charge_sys(n);
        Ok(n)
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
            && self.fds.same(&other.fds)
            && self.signals == other.signals
            && self.sig_schedule == other.sig_schedule
            && (Rc::ptr_eq(&self.procs, &other.procs) || self.procs == other.procs)
            && self.vfs.same_tree(&other.vfs)
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
        self.fds.digest(&mut h, |h, node| {
            fnv(h, b"vnode");
            fnv_u64(h, node.ino.0 as u64);
            fnv_u64(h, node.offset as u64);
            fnv(
                h,
                &[node.readable as u8, node.writable as u8, node.append as u8],
            );
        });
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
pub(crate) fn fnv_u64(h: &mut u64, v: u64) {
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
        Ok(self.fds.open(Vnode {
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
        let (r, w) = self.fds.pipe();
        self.charge_sys(0);
        Ok((r, w))
    }

    fn dup(&mut self, d: Desc) -> OsResult<Desc> {
        if let Some(kind) = self.inject(Syscall::Dup, &[FaultKind::Intr, FaultKind::MFile]) {
            return Err(Self::fault_error(kind, "dup"));
        }
        self.fds.dup(d)
    }

    fn close(&mut self, d: Desc) -> OsResult<()> {
        // Close only injects EINTR-before-anything-happened (the one
        // safe interpretation of EINTR-from-close); the descriptor
        // stays open and the caller retries.
        if let Some(kind) = self.inject(Syscall::Close, &[FaultKind::Intr]) {
            return Err(Self::fault_error(kind, "close"));
        }
        self.fds.close(d)
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
