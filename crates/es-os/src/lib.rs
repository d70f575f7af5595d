//! The UNIX substrate for the es shell reproduction.
//!
//! The paper's shell sits directly on UNIX: processes, file
//! descriptors, pipes, a filesystem, signals, and a tree of external
//! programs (`cat`, `tr`, `sort`, ...). A faithful *and deterministic*
//! reproduction needs that substrate under our control, so this crate
//! provides two backends behind the [`Os`] trait.
//!
//! Both share one descriptor model: a refcounted table of open
//! descriptions, unbounded byte-buffer pipes that count their readers
//! and writers (a write with no reader left is `EPIPE`), and a console
//! that is captured or passed through to the process's stdio. The
//! backends differ only in what a file is and in what lies beyond the
//! descriptors:
//!
//! * [`SimOs`] — a simulated kernel: its files are vnodes of an
//!   in-memory VFS ([`vfs::Vfs`], with a `/dev/null`), and it has a
//!   virtual clock with per-child rusage (so the paper's Figure 1
//!   `time` output reproduces exactly), a fake process table, signal
//!   delivery, and 42 simulated coreutils (`[` among them) registered
//!   as in-process programs.
//!   All tests and benchmarks run on this backend.
//! * [`RealOs`] — a thin backend so the `es` binary is usable as an
//!   actual shell: its files are host `std::fs` files, and it runs
//!   external commands through `std::process`. Pipes are the shared
//!   buffers, not kernel pipes, and pipeline stages run one after
//!   another.
//!
//! ## Why simulation preserves the paper's behaviour
//!
//! Es only observes the OS through byte streams, exit statuses, errno
//! strings, and rusage numbers. The simulator exposes the same
//! interface and failure modes (ENOENT, EEXIST, ...), so every shell
//! code path the paper discusses — redirection, pipes, spoofed hooks,
//! `%pathsearch`, `fork`, signals-as-exceptions — exercises identically.
//! Timing *shapes* are preserved by charging virtual time per byte
//! processed (see [`clock`]).
//!
//! # Examples
//!
//! ```
//! use es_os::{Os, SimOs, OpenMode};
//!
//! let mut os = SimOs::new();
//! os.vfs_mut().put_file("/tmp/greeting", b"hello, world\n").unwrap();
//! let fd = os.open("/tmp/greeting", OpenMode::Read).unwrap();
//! let mut buf = [0u8; 64];
//! let n = os.read(fd, &mut buf).unwrap();
//! assert_eq!(&buf[..n], b"hello, world\n");
//! ```

pub mod clock;
mod desc;
pub mod error;
pub mod fault;
pub mod programs;
pub mod real;
pub mod sim;
pub mod vfs;

#[cfg(test)]
mod real_tests;
#[cfg(test)]
mod tests;

pub use clock::Rusage;
pub use desc::Desc;
pub use error::{OsError, OsResult};
pub use fault::{FaultEvent, FaultKind, FaultPlan, Syscall};
pub use real::RealOs;
pub use sim::SimOs;
pub use vfs::Vfs;

/// How a file should be opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Read-only; the file must exist (`%open`, `<`).
    Read,
    /// Write-only; create or truncate (`%create`, `>`).
    Write,
    /// Write-only; create if missing, position at end (`%append`, `>>`).
    Append,
}

/// A UNIX signal, delivered to the shell as an exception
/// (the paper maps signals onto the exception mechanism).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// Interrupt (^C).
    Int,
    /// Termination request.
    Term,
    /// Hangup.
    Hup,
    /// Quit.
    Quit,
    /// Uncatchable kill; the shell exits.
    Kill,
    /// Alarm clock; the governor's virtual-time watchdog delivers this.
    Alrm,
}

impl Signal {
    /// The lowercase exception name es uses (`sigint`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Signal::Int => "sigint",
            Signal::Term => "sigterm",
            Signal::Hup => "sighup",
            Signal::Quit => "sigquit",
            Signal::Kill => "sigkill",
            Signal::Alrm => "sigalrm",
        }
    }

    /// Parses `-9` / `-KILL` / `-sigint` / `SIGINT` style designators.
    /// Matching is case-insensitive; an empty designator (or a bare
    /// run of dashes) is rejected rather than falling through the
    /// alias table.
    pub fn parse(s: &str) -> Option<Signal> {
        let body = s.trim_start_matches('-');
        if body.is_empty() {
            return None;
        }
        match body.to_ascii_lowercase().as_str() {
            "2" | "int" | "sigint" => Some(Signal::Int),
            "15" | "term" | "sigterm" => Some(Signal::Term),
            "1" | "hup" | "sighup" => Some(Signal::Hup),
            "3" | "quit" | "sigquit" => Some(Signal::Quit),
            "9" | "kill" | "sigkill" => Some(Signal::Kill),
            "14" | "alrm" | "sigalrm" => Some(Signal::Alrm),
            _ => None,
        }
    }
}

/// The kernel interface the es interpreter needs.
///
/// Deliberately small: the shell only ever opens/creates files, dups
/// and closes descriptors, reads/writes bytes, makes pipes, runs
/// external programs with an explicit fd layout, changes directory,
/// inspects the filesystem (for `%pathsearch` and glob expansion),
/// reads the clock and child rusage (for `time`), and polls for
/// signals. Everything else in the paper is built *inside* the shell.
pub trait Os {
    /// Opens `path` (relative to [`Os::cwd`]) in the given mode.
    fn open(&mut self, path: &str, mode: OpenMode) -> OsResult<Desc>;
    /// Creates a pipe; returns `(read_end, write_end)`.
    fn pipe(&mut self) -> OsResult<(Desc, Desc)>;
    /// Duplicates a descriptor (shares the open-file description).
    fn dup(&mut self, d: Desc) -> OsResult<Desc>;
    /// Closes a descriptor.
    fn close(&mut self, d: Desc) -> OsResult<()>;
    /// Reads into `buf`; 0 means end-of-file.
    fn read(&mut self, d: Desc, buf: &mut [u8]) -> OsResult<usize>;
    /// Writes `data`; returns bytes written.
    fn write(&mut self, d: Desc, data: &[u8]) -> OsResult<usize>;
    /// Runs an external program to completion and returns its exit
    /// status. `fds` lays out the child's descriptor table as
    /// `(child_fd, parent_desc)` pairs.
    fn run(
        &mut self,
        argv: &[String],
        env: &[(String, String)],
        fds: &[(u32, Desc)],
    ) -> OsResult<i32>;
    /// Changes the current directory.
    fn chdir(&mut self, path: &str) -> OsResult<()>;
    /// The current directory (absolute).
    fn cwd(&self) -> String;
    /// Sorted names in a directory (for glob expansion and `ls`).
    fn read_dir(&self, path: &str) -> OsResult<Vec<String>>;
    /// Does `path` name a regular file?
    fn is_file(&self, path: &str) -> bool;
    /// Does `path` name a directory?
    fn is_dir(&self, path: &str) -> bool;
    /// Is `path` an executable file? (`%pathsearch` uses this.)
    fn is_executable(&self, path: &str) -> bool;
    /// Virtual (or real) nanoseconds since the backend's epoch.
    fn now_ns(&self) -> u64;
    /// Advances the clock by `ns`. The simulator moves its virtual
    /// clock (the interpreter charges a little time per eval step so
    /// deadlines fire even in pure-CPU loops); a real kernel's clock
    /// advances by itself, so the default is a no-op.
    fn advance_ns(&mut self, _ns: u64) {}
    /// How many descriptors are currently open in this kernel's
    /// descriptor table (the governor's fd budget checks this).
    fn open_desc_count(&self) -> usize;
    /// Cumulative rusage of all children so far (`time` diffs this).
    fn children_rusage(&self) -> Rusage;
    /// Takes one pending signal, if any. The interpreter polls this
    /// between commands and converts it into a `signal` exception.
    fn take_signal(&mut self) -> Option<Signal>;
    /// The process environment the shell was started with.
    fn initial_env(&self) -> Vec<(String, String)>;
    /// Drains the captured console streams as `(stdout, stderr)`.
    /// Backends that write straight to the process's stdio (e.g.
    /// [`RealOs`] outside capture mode) return empty strings; the
    /// conformance harness uses this to collect traces generically.
    fn take_console(&mut self) -> (String, String) {
        (String::new(), String::new())
    }
    /// Merges a forked child kernel's observable effects back into the
    /// parent. The shell's `fork` clones the whole kernel and runs the
    /// child to completion; in a real kernel the filesystem, terminal,
    /// clock and process table are *shared*, so the parent adopts the
    /// child's kernel state (keeping only its own working directory).
    fn absorb_fork(&mut self, child: Self)
    where
        Self: Sized;
}

/// The descriptor numbers of the shell's standard streams; both
/// backends pre-open these.
pub const STDIN: Desc = Desc(0);
/// Standard output descriptor.
pub const STDOUT: Desc = Desc(1);
/// Standard error descriptor.
pub const STDERR: Desc = Desc(2);

/// How many consecutive `EINTR`s a retry loop tolerates before giving
/// up. On a real kernel `EINTR` is transient; under fault injection a
/// hostile plan could return it forever, and an unbounded loop would
/// turn an injected fault into a hang.
pub const INTR_RETRY_LIMIT: u32 = 64;

/// Calls `op`, retrying (up to [`INTR_RETRY_LIMIT`] times) while it
/// fails with `EINTR`. Any other outcome — success or a different
/// error — is returned as-is; if the limit is exhausted the final
/// `EINTR` is returned.
pub fn retry_intr<T, F: FnMut() -> OsResult<T>>(mut op: F) -> OsResult<T> {
    for _ in 0..INTR_RETRY_LIMIT {
        match op() {
            Err(e) if e.is_intr() => continue,
            other => return other,
        }
    }
    Err(OsError::Intr)
}

/// Reads everything from a descriptor (convenience built on
/// [`Os::read`]). Retries interrupted reads; a short read just means
/// "go around again", never end-of-file.
pub fn read_all<O: Os + ?Sized>(os: &mut O, d: Desc) -> OsResult<Vec<u8>> {
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = retry_intr(|| os.read(d, &mut buf))?;
        if n == 0 {
            return Ok(out);
        }
        out.extend_from_slice(&buf[..n]);
    }
}

/// A write that failed partway: `written` bytes made it out before
/// `cause` stopped the transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteError {
    /// Bytes successfully written before the failure.
    pub written: usize,
    /// The kernel error that stopped the transfer.
    pub cause: OsError,
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.written > 0 {
            write!(f, "{} (after {} bytes written)", self.cause, self.written)
        } else {
            write!(f, "{}", self.cause)
        }
    }
}

impl std::error::Error for WriteError {}

/// Writes all of `data`, looping on partial writes and retrying
/// interrupted ones. On success returns the byte count; on failure
/// reports both the error *and* how much was already written, so
/// callers can report truncated output honestly.
pub fn write_fully<O: Os + ?Sized>(os: &mut O, d: Desc, data: &[u8]) -> Result<usize, WriteError> {
    let mut off = 0;
    while off < data.len() {
        match retry_intr(|| os.write(d, &data[off..])) {
            Ok(0) => {
                return Err(WriteError {
                    written: off,
                    cause: OsError::Io("write returned 0".into()),
                })
            }
            Ok(n) => off += n,
            Err(cause) => {
                return Err(WriteError {
                    written: off,
                    cause,
                })
            }
        }
    }
    Ok(off)
}

/// Writes everything to a descriptor (convenience built on
/// [`write_fully`]; kept for callers that don't care how much made it
/// out before a failure).
pub fn write_all<O: Os + ?Sized>(os: &mut O, d: Desc, data: &[u8]) -> OsResult<()> {
    write_fully(os, d, data).map(|_| ()).map_err(|e| e.cause)
}
