//! The simulated external programs ("coreutils") and their runtime.
//!
//! Each program is a plain function `fn(&mut ProcCtx) -> i32` running
//! synchronously inside the kernel. A [`ProcCtx`] gives it argv, the
//! environment, a descriptor table laid out by the parent (the shell),
//! and mediated access to files, the process table, and the clock, so
//! all I/O is accounted for in the virtual rusage (which the `time`
//! builtin reports, reproducing Figure 1 of the paper).

use crate::error::{OsError, OsResult};
use crate::sim::{ProcEntry, SimOs};
use crate::Desc;
use crate::Signal;
use std::collections::BTreeMap;
use std::sync::LazyLock;

mod extra;
mod files;
mod grep;
mod misc;
mod multi;
mod sed;
mod text;

/// The type of a simulated program.
pub type ProgramFn = fn(&mut ProcCtx) -> i32;

/// Every simulated program under its command name: one table per
/// process, built on first use. Every kernel registers all of it in
/// `/bin`, and nothing adds a program at run time.
pub(crate) static PROGRAMS: LazyLock<BTreeMap<&'static str, ProgramFn>> = LazyLock::new(|| {
    let mut map = BTreeMap::new();
    text::install(&mut map);
    files::install(&mut map);
    misc::install(&mut map);
    extra::install(&mut map);
    multi::install(&mut map);
    map.insert("grep", grep::grep);
    map.insert("sed", sed::sed);
    map
});

/// The execution context handed to a simulated program.
pub struct ProcCtx<'a> {
    os: &'a mut SimOs,
    name: String,
    args: Vec<String>,
    env: &'a [(String, String)],
    fds: BTreeMap<u32, Desc>,
    pid: i32,
    bytes_io: u64,
    io_calls: u64,
    extra_user_ns: u64,
}

impl<'a> ProcCtx<'a> {
    pub(crate) fn new(
        os: &'a mut SimOs,
        argv: &[String],
        env: &'a [(String, String)],
        fds: &[(u32, Desc)],
        pid: i32,
    ) -> ProcCtx<'a> {
        let path = argv.first().cloned().unwrap_or_default();
        let name = path.rsplit('/').next().unwrap_or(&path).to_string();
        ProcCtx {
            os,
            name,
            args: argv.iter().skip(1).cloned().collect(),
            env,
            fds: fds.iter().copied().collect(),
            pid,
            bytes_io: 0,
            io_calls: 0,
            extra_user_ns: 0,
        }
    }

    /// The program's own name (basename of `argv[0]`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// argv[1..].
    pub fn args(&self) -> &[String] {
        &self.args
    }

    /// This process's pid.
    pub fn pid(&self) -> i32 {
        self.pid
    }

    /// Looks up an environment variable.
    pub fn getenv(&self, name: &str) -> Option<&str> {
        self.env
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The whole environment.
    pub fn env(&self) -> &[(String, String)] {
        self.env
    }

    /// Total bytes moved through this context (for rusage).
    pub fn bytes_io(&self) -> u64 {
        self.bytes_io
    }

    /// Number of I/O calls made (for rusage).
    pub fn io_calls(&self) -> u64 {
        self.io_calls
    }

    /// Extra user time charged by the program itself (e.g. sort).
    pub fn extra_user_ns(&self) -> u64 {
        self.extra_user_ns
    }

    /// Charges additional user time beyond the per-byte default.
    pub fn charge_user_ns(&mut self, ns: u64) {
        self.extra_user_ns += ns;
    }

    // ----- descriptor I/O ---------------------------------------------------

    fn desc(&self, fd: u32) -> OsResult<Desc> {
        self.fds.get(&fd).copied().ok_or(OsError::BadF)
    }

    /// Reads from the child's fd `fd`.
    pub fn read_fd(&mut self, fd: u32, buf: &mut [u8]) -> OsResult<usize> {
        let d = self.desc(fd)?;
        let n = self.os.do_read(d, buf)?;
        self.bytes_io += n as u64;
        self.io_calls += 1;
        Ok(n)
    }

    /// Writes to the child's fd `fd`.
    pub fn write_fd(&mut self, fd: u32, data: &[u8]) -> OsResult<usize> {
        let d = self.desc(fd)?;
        let n = self.os.do_write(d, data)?;
        self.bytes_io += n as u64;
        self.io_calls += 1;
        Ok(n)
    }

    /// Reads all of standard input.
    pub fn stdin_all(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match self.read_fd(0, &mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => out.extend_from_slice(&buf[..n]),
            }
        }
        out
    }

    /// Reads the file at `path`, or all of standard input when there
    /// is none. A file that cannot be read is reported as a
    /// diagnostic, and the error is the program's failure status.
    pub(crate) fn file_or_stdin(&mut self, path: Option<&str>) -> Result<Vec<u8>, i32> {
        match path {
            Some(path) => self.read_file(path).map_err(|e| self.fail(&e.to_string())),
            None => Ok(self.stdin_all()),
        }
    }

    /// Writes `s` to standard output (ignores EBADF like a real
    /// program whose stdout was closed would die quietly).
    pub fn out(&mut self, s: &str) {
        let _ = self.write_fd(1, s.as_bytes());
    }

    /// Writes `s` to standard error, prefixed handling left to callers.
    pub fn err(&mut self, s: &str) {
        let _ = self.write_fd(2, s.as_bytes());
    }

    /// Standard "name: message" diagnostic plus failure status.
    pub fn fail(&mut self, msg: &str) -> i32 {
        let line = format!("{}: {}\n", self.name, msg);
        self.err(&line);
        1
    }

    // ----- filesystem access -------------------------------------------------

    /// Reads a whole file (counted as I/O).
    pub fn read_file(&mut self, path: &str) -> OsResult<Vec<u8>> {
        let cwd = self.os.cwd_ref().to_string();
        let ino = self.os.vfs().lookup(path, &cwd)?;
        if self.os.vfs().is_dir(path, &cwd) {
            return Err(OsError::IsDir(path.to_string()));
        }
        let data = self.os.vfs().file_data(ino).to_vec();
        self.bytes_io += data.len() as u64;
        self.io_calls += 1;
        Ok(data)
    }

    /// Writes a whole file (counted as I/O).
    pub fn write_file(&mut self, path: &str, data: &[u8]) -> OsResult<()> {
        let cwd = self.os.cwd_ref().to_string();
        let ino = self.os.vfs_mut().create_file(path, &cwd, false)?;
        self.os.vfs_mut().truncate(ino);
        self.os.vfs_mut().write_at(ino, 0, data);
        self.bytes_io += data.len() as u64;
        self.io_calls += 1;
        Ok(())
    }

    /// Mutable filesystem access (mkdir, rm, ...).
    pub fn vfs_mut(&mut self) -> &mut crate::vfs::Vfs {
        self.os.vfs_mut()
    }

    /// Read-only filesystem access.
    pub fn vfs(&self) -> &crate::vfs::Vfs {
        self.os.vfs()
    }

    /// The kernel's current directory.
    pub fn cwd(&self) -> String {
        self.os.cwd_ref().to_string()
    }

    // ----- process & clock services -------------------------------------------

    /// Runs another program (xargs does this), inheriting this
    /// process's environment and descriptors.
    pub fn exec(&mut self, argv: &[String]) -> OsResult<i32> {
        use crate::Os as _;
        let fds: Vec<(u32, Desc)> = self.fds.iter().map(|(k, v)| (*k, *v)).collect();
        // Resolve bare names against PATH, as execvp would.
        let mut argv = argv.to_vec();
        if let Some(first) = argv.first_mut() {
            if !first.contains('/') {
                let path = self.getenv("PATH").unwrap_or("/bin").to_string();
                for dir in path.split(':') {
                    let cand = format!("{dir}/{first}");
                    if self.os.vfs().is_executable(&cand, "/") {
                        *first = cand;
                        break;
                    }
                }
            }
        }
        self.os.run(&argv, self.env, &fds)
    }

    /// The fake process table.
    pub fn procs(&self) -> Vec<ProcEntry> {
        self.os.procs().to_vec()
    }

    /// Kills pids (removes them from the table / signals the shell).
    pub fn kill(&mut self, pids: &[i32], sig: Signal) -> usize {
        self.os.kill_pids(pids, sig)
    }

    /// Civil date/time from the virtual clock.
    pub fn civil_now(&self) -> (i64, u32, u32, u32, u32, u32) {
        self.os.civil_now()
    }

    /// Advances the virtual clock (sleep).
    pub fn sleep_ns(&mut self, ns: u64) {
        self.os.advance_ns(ns);
    }
}

/// Splits bytes into lines, keeping semantics simple for filters:
/// a trailing newline does not produce an empty final line.
pub(crate) fn lines_of(data: &[u8]) -> Vec<String> {
    let text = String::from_utf8_lossy(data);
    let mut lines: Vec<String> = text.split('\n').map(str::to_string).collect();
    if lines.last().is_some_and(|l| l.is_empty()) {
        lines.pop();
    }
    lines
}
