//! The real-OS backend, so the `es` binary works as an actual shell
//! *and* so the conformance harness can hold it to the simulator's
//! behaviour.
//!
//! Files and directories use `std::fs`; external commands run through
//! `std::process`. Pipes are staged through in-memory buffers and
//! pipeline stages run sequentially, exactly like the simulator. The
//! current directory is tracked per instance (never via
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
//! For differential testing, [`RealOs::set_capture`] redirects the
//! console streams into in-memory buffers (mirroring
//! [`crate::SimOs::take_output`]) instead of the process's stdio.

use crate::clock::Rusage;
use crate::error::{OsError, OsResult};
use crate::sim::Desc;
use crate::{OpenMode, Os, Signal};
use std::collections::VecDeque;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

#[derive(Debug)]
enum RealKind {
    StdIn,
    StdOut,
    StdErr,
    /// A real file, remembering how it was opened so `clone` can
    /// rebuild an equivalent descriptor (fork support).
    File {
        file: fs::File,
        path: PathBuf,
        mode: OpenMode,
    },
    PipeR(usize),
    PipeW(usize),
}

#[derive(Debug)]
struct RealFile {
    kind: RealKind,
    refs: usize,
}

/// The `std`-backed kernel. See the module docs for fidelity notes.
#[derive(Debug)]
pub struct RealOs {
    files: Vec<Option<RealFile>>,
    pipes: Vec<Vec<u8>>,
    cwd: PathBuf,
    /// Console capture (conformance harness): when on, stdio reads and
    /// writes go through these buffers instead of the process streams.
    capture: bool,
    console_in: VecDeque<u8>,
    console_out: Vec<u8>,
    console_err: Vec<u8>,
    start: Instant,
    children: Rusage,
}

impl Clone for RealOs {
    /// Fork support: rebuilds the descriptor table slot by slot (same
    /// indices, so the shell's fd table stays valid in the clone).
    /// File-backed descriptors are re-opened by path and positioned at
    /// the parent's offset; a file that can no longer be opened leaves
    /// an empty slot, which subsequent I/O reports as `EBADF`.
    fn clone(&self) -> Self {
        let files = self
            .files
            .iter()
            .map(|slot| {
                let f = slot.as_ref()?;
                let kind = match &f.kind {
                    RealKind::StdIn => RealKind::StdIn,
                    RealKind::StdOut => RealKind::StdOut,
                    RealKind::StdErr => RealKind::StdErr,
                    RealKind::PipeR(p) => RealKind::PipeR(*p),
                    RealKind::PipeW(p) => RealKind::PipeW(*p),
                    RealKind::File { file, path, mode } => {
                        let reopened = reopen_at(file, path, *mode)?;
                        RealKind::File {
                            file: reopened,
                            path: path.clone(),
                            mode: *mode,
                        }
                    }
                };
                Some(RealFile { kind, refs: f.refs })
            })
            .collect();
        RealOs {
            files,
            pipes: self.pipes.clone(),
            cwd: self.cwd.clone(),
            capture: self.capture,
            console_in: self.console_in.clone(),
            console_out: self.console_out.clone(),
            console_err: self.console_err.clone(),
            start: self.start,
            children: self.children,
        }
    }
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
            files: vec![
                Some(RealFile {
                    kind: RealKind::StdIn,
                    refs: 1,
                }),
                Some(RealFile {
                    kind: RealKind::StdOut,
                    refs: 1,
                }),
                Some(RealFile {
                    kind: RealKind::StdErr,
                    refs: 1,
                }),
            ],
            pipes: Vec::new(),
            cwd: std::env::current_dir().unwrap_or_else(|_| PathBuf::from("/")),
            capture: false,
            console_in: VecDeque::new(),
            console_out: Vec::new(),
            console_err: Vec::new(),
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
        self.capture = on;
    }

    /// Queues bytes on the captured standard input (capture mode).
    pub fn push_input(&mut self, text: &str) {
        self.console_in.extend(text.bytes());
    }

    /// Takes and clears everything written to the captured stdout.
    pub fn take_output(&mut self) -> String {
        String::from_utf8_lossy(&std::mem::take(&mut self.console_out)).into_owned()
    }

    /// Takes and clears everything written to the captured stderr.
    pub fn take_error(&mut self) -> String {
        String::from_utf8_lossy(&std::mem::take(&mut self.console_err)).into_owned()
    }

    /// Rows in the pipe table, free ones included (tests).
    #[cfg(test)]
    pub(crate) fn pipe_rows(&self) -> usize {
        self.pipes.len()
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

    fn alloc(&mut self, kind: RealKind) -> Desc {
        for (i, slot) in self.files.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(RealFile { kind, refs: 1 });
                return Desc(i as u32);
            }
        }
        self.files.push(Some(RealFile { kind, refs: 1 }));
        Desc((self.files.len() - 1) as u32)
    }

    fn file_mut(&mut self, d: Desc) -> OsResult<&mut RealFile> {
        self.files
            .get_mut(d.0 as usize)
            .and_then(|f| f.as_mut())
            .ok_or(OsError::BadF)
    }

    /// Puts back bytes a child process was offered on stdin but never
    /// read: to the front of the source pipe/console buffer, or by
    /// rewinding a file cursor. Unknown/closed descriptors are a no-op
    /// (the data was already consumed from them; there is nowhere to
    /// return it).
    fn unread(&mut self, d: Desc, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        enum Source {
            Console,
            File,
            Pipe(usize),
        }
        let src = match self.files.get(d.0 as usize) {
            Some(Some(f)) => match &f.kind {
                RealKind::StdIn => Source::Console,
                RealKind::File { .. } => Source::File,
                RealKind::PipeR(p) => Source::Pipe(*p),
                _ => return,
            },
            _ => return,
        };
        match src {
            Source::Console => {
                for &b in bytes.iter().rev() {
                    self.console_in.push_front(b);
                }
            }
            Source::File => {
                if let Some(Some(f)) = self.files.get_mut(d.0 as usize) {
                    if let RealKind::File { file, .. } = &mut f.kind {
                        let _ = file.seek(SeekFrom::Current(-(bytes.len() as i64)));
                    }
                }
            }
            Source::Pipe(p) => {
                let pipe = &mut self.pipes[p];
                let mut restored = bytes.to_vec();
                restored.extend_from_slice(pipe);
                *pipe = restored;
            }
        }
    }

    fn io_err(e: std::io::Error) -> OsError {
        match e.kind() {
            std::io::ErrorKind::NotFound => OsError::NoEnt(String::new()),
            std::io::ErrorKind::PermissionDenied => OsError::Access(String::new()),
            _ => OsError::Io(e.to_string()),
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
        Ok(self.alloc(RealKind::File {
            file,
            path: abs,
            mode,
        }))
    }

    fn pipe(&mut self) -> OsResult<(Desc, Desc)> {
        // Reuse the lowest row no descriptor refers to, emptied, so a
        // long session's table stays as large as its busiest moment.
        let mut used = vec![false; self.pipes.len()];
        for f in self.files.iter().flatten() {
            if let RealKind::PipeR(p) | RealKind::PipeW(p) = f.kind {
                used[p] = true;
            }
        }
        let p = match used.iter().position(|&u| !u) {
            Some(p) => {
                self.pipes[p] = Vec::new();
                p
            }
            None => {
                self.pipes.push(Vec::new());
                self.pipes.len() - 1
            }
        };
        let r = self.alloc(RealKind::PipeR(p));
        let w = self.alloc(RealKind::PipeW(p));
        Ok((r, w))
    }

    fn dup(&mut self, d: Desc) -> OsResult<Desc> {
        self.file_mut(d)?.refs += 1;
        Ok(d)
    }

    fn close(&mut self, d: Desc) -> OsResult<()> {
        let idx = d.0 as usize;
        let f = self
            .files
            .get_mut(idx)
            .and_then(|f| f.as_mut())
            .ok_or(OsError::BadF)?;
        f.refs -= 1;
        if f.refs == 0 {
            self.files[idx] = None;
        }
        Ok(())
    }

    fn read(&mut self, d: Desc, buf: &mut [u8]) -> OsResult<usize> {
        let capture = self.capture;
        let f = self.file_mut(d)?;
        match &mut f.kind {
            RealKind::StdIn => {
                if capture {
                    let n = buf.len().min(self.console_in.len());
                    for b in buf.iter_mut().take(n) {
                        *b = self.console_in.pop_front().expect("len checked");
                    }
                    Ok(n)
                } else {
                    std::io::stdin().read(buf).map_err(Self::io_err)
                }
            }
            RealKind::File { file, .. } => file.read(buf).map_err(Self::io_err),
            RealKind::PipeR(p) => {
                let p = *p;
                let pipe = &mut self.pipes[p];
                let n = buf.len().min(pipe.len());
                buf[..n].copy_from_slice(&pipe[..n]);
                pipe.drain(..n);
                Ok(n)
            }
            _ => Err(OsError::BadF),
        }
    }

    fn write(&mut self, d: Desc, data: &[u8]) -> OsResult<usize> {
        let capture = self.capture;
        let f = self.file_mut(d)?;
        match &mut f.kind {
            RealKind::StdOut => {
                if capture {
                    self.console_out.extend_from_slice(data);
                } else {
                    std::io::stdout().write_all(data).map_err(Self::io_err)?;
                    let _ = std::io::stdout().flush();
                }
                Ok(data.len())
            }
            RealKind::StdErr => {
                if capture {
                    self.console_err.extend_from_slice(data);
                } else {
                    std::io::stderr().write_all(data).map_err(Self::io_err)?;
                    let _ = std::io::stderr().flush();
                }
                Ok(data.len())
            }
            RealKind::File { file, .. } => file.write(data).map_err(Self::io_err),
            RealKind::PipeW(p) => {
                let p = *p;
                self.pipes[p].extend_from_slice(data);
                Ok(data.len())
            }
            _ => Err(OsError::BadF),
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
        let lookup =
            |fds: &[(u32, Desc)], fd: u32| fds.iter().find(|(n, _)| *n == fd).map(|(_, d)| *d);
        // Stage stdin: the console inherits (or, under capture, hands
        // over the scripted buffer); files/pipes are drained into a
        // buffer fed to the child through a real OS pipe. Whatever the
        // child leaves unread is reclaimed into the source descriptor
        // afterwards — a child that ignores stdin (`test`, `echo`)
        // must not destroy pipeline data that later stages still need.
        let stdin_src = lookup(fds, 0);
        let stdin_data: Option<Vec<u8>> = match stdin_src {
            Some(Desc(0)) if !self.capture => None,
            Some(Desc(0)) => Some(self.console_in.drain(..).collect()),
            Some(d) => Some(crate::read_all(self, d)?),
            None => Some(Vec::new()),
        };
        let mut stdin_pipe = None;
        match &stdin_data {
            Some(_) => {
                let (r, w) = std::io::pipe().map_err(Self::io_err)?;
                cmd.stdin(Stdio::from(r.try_clone().map_err(Self::io_err)?));
                stdin_pipe = Some((r, w));
            }
            None => {
                cmd.stdin(Stdio::inherit());
            }
        }
        let out_desc = lookup(fds, 1);
        let err_desc = lookup(fds, 2);
        // Under capture nothing may inherit the process streams —
        // child output must land in the capture buffers.
        let inherit_out = !self.capture && out_desc == Some(Desc(1));
        let inherit_err = !self.capture && (err_desc == Some(Desc(2)) || err_desc.is_none());
        cmd.stdout(if inherit_out {
            Stdio::inherit()
        } else {
            Stdio::piped()
        });
        cmd.stderr(if inherit_err {
            Stdio::inherit()
        } else {
            Stdio::piped()
        });
        let began = Instant::now();
        let child = cmd.spawn().map_err(|e| Self::path_err(e, path))?;
        // Feed from a thread so a child that never reads stdin cannot
        // deadlock the parent against a full pipe buffer.
        let feeder = match (stdin_pipe, stdin_data) {
            (Some((r, mut w)), Some(data)) => Some((
                r,
                std::thread::spawn(move || {
                    let _ = w.write_all(&data);
                }),
            )),
            _ => None,
        };
        let output = child
            .wait_with_output()
            .map_err(|e| OsError::Io(e.to_string()))?;
        if let Some((mut r, feed)) = feeder {
            // The child has exited; drain what it never consumed (this
            // also unblocks the feeder) and push it back upstream.
            let mut rest = Vec::new();
            let _ = r.read_to_end(&mut rest);
            let _ = feed.join();
            if let Some(src) = stdin_src {
                self.unread(src, &rest);
            }
        }
        if !inherit_out {
            match out_desc {
                Some(d) => crate::write_all(self, d, &output.stdout)?,
                None => self.console_out.extend_from_slice(&output.stdout),
            }
        }
        if !inherit_err {
            match err_desc {
                Some(d) => crate::write_all(self, d, &output.stderr)?,
                None => self.console_err.extend_from_slice(&output.stderr),
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
        self.files.iter().flatten().count()
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
