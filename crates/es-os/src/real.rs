//! The real-OS backend, so the `es` binary works as an actual shell
//! *and* so the conformance harness can hold it to the simulator's
//! behaviour.
//!
//! Files and directories use `std::fs`; external commands run through
//! `std::process`. Descriptors, pipes and the console are the one
//! model both kernels share (the `desc` module), with a host
//! `fs::File` as this kernel's file kind, so pipeline stages run one
//! after another through buffered pipes, exactly as on the simulator.
//! The current directory is tracked per instance (never via
//! `std::env::set_current_dir`), so several `RealOs` kernels can
//! coexist in one test process and `cd` behaves like a per-process
//! property, as on a real kernel.
//!
//! Fidelity notes, for the conformance divergence ledger:
//!
//! * child rusage is approximated by wall time (all *measurements* in
//!   this repository run on [`crate::SimOs`], whose clock is virtual);
//! * there is no signal delivery (`take_signal` always returns `None`);
//! * `clone` (the shell's `fork`) re-opens file-backed descriptors by
//!   path and seeks to the saved offset — the open-file description is
//!   *not* shared with the parent afterwards, but since the shell runs
//!   forked children to completion before the parent continues, and
//!   [`Os::absorb_fork`] adopts the child's table, redirections inside
//!   subshells still agree with the simulator.
//!
//! The console passes through to the process's stdio unless
//! [`RealOs::set_capture`] turns capture on, which keeps it in the
//! same buffers as [`crate::SimOs::take_output`] for differential
//! testing.

use crate::clock::Rusage;
use crate::desc::{Desc, Table};
use crate::error::{OsError, OsResult};
use crate::{OpenMode, Os, Signal};
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// RealOs's file kind: a host file, with the path and mode it was
/// opened by.
#[derive(Debug)]
struct HostFile {
    /// `None` once a `fork` could not reopen the file; I/O on it then
    /// fails with `EBADF`.
    file: Option<fs::File>,
    path: PathBuf,
    mode: OpenMode,
}

impl HostFile {
    fn file(&mut self) -> OsResult<&mut fs::File> {
        self.file.as_mut().ok_or(OsError::BadF)
    }
}

impl Clone for HostFile {
    /// Fork support: re-opens the file by path, positioned at this
    /// descriptor's offset.
    fn clone(&self) -> Self {
        HostFile {
            file: self
                .file
                .as_ref()
                .and_then(|f| reopen_at(f, &self.path, self.mode)),
            path: self.path.clone(),
            mode: self.mode,
        }
    }
}

/// The `std`-backed kernel. See the module docs for fidelity notes.
///
/// `Clone` is the shell's `fork`: it copies the descriptor table slot
/// by slot (same numbers, so the shell's fd table stays valid in the
/// clone), reopening each host file.
#[derive(Debug, Clone)]
pub struct RealOs {
    fds: Table<HostFile>,
    cwd: PathBuf,
    start: Instant,
    children: Rusage,
}

/// Re-opens `path` the way `mode` originally did — but *without*
/// truncating — and seeks to the original descriptor's current
/// position, so the clone continues where the parent's cursor is.
fn reopen_at(original: &fs::File, path: &Path, mode: OpenMode) -> Option<fs::File> {
    let mut opts = fs::OpenOptions::new();
    match mode {
        OpenMode::Read => {
            opts.read(true);
        }
        OpenMode::Write => {
            opts.write(true).create(true);
        }
        OpenMode::Append => {
            opts.append(true).create(true);
        }
    }
    let file = opts.open(path).ok()?;
    if mode != OpenMode::Append {
        // `impl Seek for &File` lets us read the parent's cursor
        // without mutable access.
        let pos = (&*original).stream_position().ok()?;
        (&file).seek(SeekFrom::Start(pos)).ok()?;
    }
    Some(file)
}

impl Default for RealOs {
    fn default() -> Self {
        Self::new()
    }
}

impl RealOs {
    /// Creates the backend with 0/1/2 bound to the process streams and
    /// the current directory inherited from the process.
    pub fn new() -> RealOs {
        RealOs {
            fds: Table::new(true),
            cwd: std::env::current_dir().unwrap_or_else(|_| PathBuf::from("/")),
            start: Instant::now(),
            children: Rusage::default(),
        }
    }

    /// Enables (or disables) console capture: with capture on, writes
    /// to stdout/stderr collect in buffers readable via
    /// [`RealOs::take_output`]/[`RealOs::take_error`], and stdin reads
    /// drain the buffer filled by [`RealOs::push_input`]. The
    /// conformance harness uses this to compare RealOs traces against
    /// SimOs byte for byte.
    pub fn set_capture(&mut self, on: bool) {
        self.fds.set_passthrough(!on);
    }

    /// Queues bytes on the captured standard input (capture mode).
    pub fn push_input(&mut self, text: &str) {
        self.fds.push_input(text);
    }

    /// Takes and clears everything written to the captured stdout.
    pub fn take_output(&mut self) -> String {
        self.fds.take_output()
    }

    /// Takes and clears everything written to the captured stderr.
    pub fn take_error(&mut self) -> String {
        self.fds.take_error()
    }

    /// Rows in the pipe table, free ones included (tests).
    #[cfg(test)]
    pub(crate) fn pipe_rows(&self) -> usize {
        self.fds.pipe_rows()
    }

    /// Resolves `path` against this kernel's current directory and
    /// normalizes `.`/`..` lexically (mirroring the simulator's VFS,
    /// so `pwd` and error messages agree across backends).
    fn resolve(&self, path: &str) -> PathBuf {
        let joined = if Path::new(path).is_absolute() {
            PathBuf::from(path)
        } else {
            self.cwd.join(path)
        };
        let mut out = PathBuf::from("/");
        for comp in joined.components() {
            use std::path::Component;
            match comp {
                Component::RootDir | Component::Prefix(_) => {}
                Component::CurDir => {}
                Component::ParentDir => {
                    out.pop();
                }
                Component::Normal(c) => out.push(c),
            }
        }
        out
    }

    /// How a child's `fd`, laid out on `d`, is wired: a console
    /// stream that passes through is inherited, a missing descriptor
    /// is the null device, and anything else goes through a host pipe.
    fn stdio(&self, fd: u32, d: Option<Desc>) -> Stdio {
        match d {
            None => Stdio::null(),
            Some(d) if self.fds.is_process_stdio(fd, d) => Stdio::inherit(),
            Some(_) => Stdio::piped(),
        }
    }

    fn path_err(e: std::io::Error, path: &str) -> OsError {
        match e.kind() {
            std::io::ErrorKind::NotFound => OsError::NoEnt(path.into()),
            std::io::ErrorKind::PermissionDenied => OsError::Access(path.into()),
            _ => OsError::Io(e.to_string()),
        }
    }
}

impl Os for RealOs {
    fn open(&mut self, path: &str, mode: OpenMode) -> OsResult<Desc> {
        let abs = self.resolve(path);
        let file = match mode {
            OpenMode::Read => fs::File::open(&abs),
            OpenMode::Write => fs::File::create(&abs),
            OpenMode::Append => fs::OpenOptions::new().create(true).append(true).open(&abs),
        }
        .map_err(|e| Self::path_err(e, path))?;
        if mode == OpenMode::Read && abs.is_dir() {
            return Err(OsError::IsDir(path.into()));
        }
        Ok(self.fds.open(HostFile {
            file: Some(file),
            path: abs,
            mode,
        }))
    }

    fn pipe(&mut self) -> OsResult<(Desc, Desc)> {
        Ok(self.fds.pipe())
    }

    fn dup(&mut self, d: Desc) -> OsResult<Desc> {
        self.fds.dup(d)
    }

    fn close(&mut self, d: Desc) -> OsResult<()> {
        self.fds.close(d)
    }

    fn read(&mut self, d: Desc, buf: &mut [u8]) -> OsResult<usize> {
        self.fds.read(d, buf, |host, buf| {
            host.file()?.read(buf).map_err(OsError::io)
        })
    }

    fn write(&mut self, d: Desc, data: &[u8]) -> OsResult<usize> {
        self.fds.write(d, data, |host, data| {
            host.file()?.write(data).map_err(OsError::io)
        })
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
        let mut cmd = Command::new(self.resolve(path));
        cmd.args(&argv[1..]);
        // The shell hands us a resolved path, but tools self-identify
        // via argv[0] in diagnostics ("cat: ..."), so pass the bare
        // program name the way a shell's exec would.
        #[cfg(unix)]
        {
            use std::os::unix::process::CommandExt;
            if let Some(name) = std::path::Path::new(path).file_name() {
                cmd.arg0(name);
            }
        }
        cmd.env_clear();
        cmd.current_dir(&self.cwd);
        for (k, v) in env {
            cmd.env(k, v);
        }
        let desc = |fd: u32| fds.iter().find(|(n, _)| *n == fd).map(|(_, d)| *d);
        let (stdin_src, out_desc, err_desc) = (desc(0), desc(1), desc(2));
        // Stdin from a descriptor is drained into a buffer fed to the
        // child through a host pipe. Whatever the child leaves unread
        // is reclaimed into the source descriptor afterwards — a child
        // that ignores stdin (`test`, `echo`) must not destroy pipeline
        // data that later stages still need.
        let fed = match stdin_src {
            Some(d) if !self.fds.is_process_stdio(0, d) => {
                let data = crate::read_all(self, d)?;
                let (r, w) = std::io::pipe().map_err(OsError::io)?;
                cmd.stdin(Stdio::from(r.try_clone().map_err(OsError::io)?));
                Some((d, r, w, data))
            }
            other => {
                cmd.stdin(self.stdio(0, other));
                None
            }
        };
        cmd.stdout(self.stdio(1, out_desc));
        cmd.stderr(self.stdio(2, err_desc));
        let began = Instant::now();
        let child = cmd.spawn().map_err(|e| Self::path_err(e, path))?;
        // Feed from a thread so a child that never reads stdin cannot
        // deadlock the parent against a full pipe buffer.
        let feeder = fed.map(|(d, r, mut w, data)| {
            let feed = std::thread::spawn(move || {
                let _ = w.write_all(&data);
            });
            (d, r, feed)
        });
        let output = child
            .wait_with_output()
            .map_err(|e| OsError::Io(e.to_string()))?;
        if let Some((src, mut r, feed)) = feeder {
            // The child has exited; drain what it never consumed (this
            // also unblocks the feeder) and push it back upstream.
            let mut rest = Vec::new();
            let _ = r.read_to_end(&mut rest);
            let _ = feed.join();
            self.fds.unread(src, &rest, |host, n| {
                if let Ok(file) = host.file() {
                    let _ = file.seek(SeekFrom::Current(-(n as i64)));
                }
            });
        }
        // An inherited or null stream leaves nothing here, so this
        // writes only what a host pipe caught.
        for (d, bytes) in [(out_desc, &output.stdout), (err_desc, &output.stderr)] {
            if let Some(d) = d {
                crate::write_all(self, d, bytes)?;
            }
        }
        // Approximate child CPU as wall time (measurements use SimOs).
        let elapsed = began.elapsed().as_nanos() as u64;
        self.children.user_ns += elapsed / 2;
        self.children.sys_ns += elapsed / 2;
        Ok(output.status.code().unwrap_or(128))
    }

    fn chdir(&mut self, path: &str) -> OsResult<()> {
        let abs = self.resolve(path);
        let meta = fs::metadata(&abs).map_err(|e| Self::path_err(e, path))?;
        if !meta.is_dir() {
            return Err(OsError::NotDir(path.into()));
        }
        self.cwd = abs;
        Ok(())
    }

    fn cwd(&self) -> String {
        self.cwd.display().to_string()
    }

    fn read_dir(&self, path: &str) -> OsResult<Vec<String>> {
        let mut names: Vec<String> = fs::read_dir(self.resolve(path))
            .map_err(|e| Self::path_err(e, path))?
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        Ok(names)
    }

    fn is_file(&self, path: &str) -> bool {
        fs::metadata(self.resolve(path))
            .map(|m| m.is_file())
            .unwrap_or(false)
    }

    fn is_dir(&self, path: &str) -> bool {
        fs::metadata(self.resolve(path))
            .map(|m| m.is_dir())
            .unwrap_or(false)
    }

    fn is_executable(&self, path: &str) -> bool {
        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            fs::metadata(self.resolve(path))
                .map(|m| m.is_file() && m.permissions().mode() & 0o111 != 0)
                .unwrap_or(false)
        }
        #[cfg(not(unix))]
        {
            self.is_file(path)
        }
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    // advance_ns: trait default no-op — the real clock advances itself.

    fn open_desc_count(&self) -> usize {
        self.fds.open_desc_count()
    }

    fn children_rusage(&self) -> Rusage {
        self.children
    }

    fn take_signal(&mut self) -> Option<Signal> {
        None // Signal handling needs libc; the simulator models it instead.
    }

    fn take_console(&mut self) -> (String, String) {
        (self.take_output(), self.take_error())
    }

    fn initial_env(&self) -> Vec<(String, String)> {
        std::env::vars().collect()
    }

    fn absorb_fork(&mut self, child: Self) {
        // The filesystem is genuinely shared, but the descriptor
        // offsets, pipe buffers, capture buffers, and child rusage the
        // forked shell accumulated are the newer truth — adopt them,
        // keeping only this kernel's own working directory (fork keeps
        // cwd per-process). Mirrors SimOs::absorb_fork.
        let cwd = std::mem::take(&mut self.cwd);
        *self = child;
        self.cwd = cwd;
    }
}
