//! The traced run's kernel decorator.
//!
//! `Machine<O: Os + Clone>` is generic over its kernel, so wrapping
//! `SimOs` in [`TracingOs`] routes every syscall and external launch
//! the interpreter makes through this file, with no instrumentation
//! inside the program. Launches (`run`) and the other syscalls get a
//! span each; the clock and signal polls the governor makes every step
//! (`advance_ns`, `take_signal`, ...) are passed through untimed, since
//! timing them would cost more than they do. Spans stay in memory and
//! are written out when the run ends.

use es_os::{Desc, OpenMode, Os, OsResult, Rusage, Signal};
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

/// Spans kept in memory at most; later ones are only aggregated.
const SPAN_CAP: usize = 500_000;

/// No parent: the span is an op's root.
const ROOT: u32 = u32::MAX;

/// One timed interval. `op` is the id shared by all spans of one op;
/// `parent` indexes the span that caused this one.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u32,
    /// For `run`: index into the recorder's program names, and the
    /// environment bytes handed to the program.
    argv0: u16,
    env_bytes: u32,
}

/// Kernel work inside one op, summed as its spans are recorded.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsWork {
    pub launches: u64,
    pub launch_ns: u64,
    pub env_bytes: u64,
    pub syscalls: u64,
    pub syscall_ns: u64,
}

/// Shared by a machine's kernel and every clone `fork` makes of it.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    programs: Vec<String>,
    op: u32,
    op_span: u32,
    work: OsWork,
    /// Durations of every launch, for percentiles.
    pub launch_ns: Vec<u64>,
}

impl Recorder {
    pub fn new() -> Rc<RefCell<Recorder>> {
        Rc::new(RefCell::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
            programs: Vec::new(),
            op: 0,
            op_span: ROOT,
            work: OsWork::default(),
            launch_ns: Vec::new(),
        }))
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a calibration span under the current op.
    pub fn child(&mut self, name: &'static str, t0: Instant, t1: Instant) {
        self.span(name, t0, t1, self.op_span);
    }

    /// Records a span; returns its index (or `ROOT` past the cap).
    fn span(&mut self, name: &'static str, t0: Instant, t1: Instant, parent: u32) -> u32 {
        self.push(Span {
            name,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
            parent,
            op: self.op,
            argv0: 0,
            env_bytes: 0,
        })
    }

    fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Starts op `op`, whose root span opens at `t0`. Kernel spans
    /// recorded until [`Recorder::end_op`] are its children.
    pub fn begin_op(&mut self, op: u32, t0: Instant) {
        self.op = op;
        self.work = OsWork::default();
        self.op_span = self.span("op", t0, t0, ROOT);
    }

    /// Closes the current op's root span; returns its kernel work. The
    /// span stays current, so calibration spans timed right after the
    /// op attach to it.
    pub fn end_op(&mut self, t1: Instant) -> OsWork {
        let end = self.ns(t1);
        if let Some(span) = self.spans.get_mut(self.op_span as usize) {
            span.end_ns = end;
        }
        self.work
    }

    fn syscall(&mut self, name: &'static str, t0: Instant, t1: Instant) {
        let ns = t1.duration_since(t0).as_nanos() as u64;
        self.work.syscalls += 1;
        self.work.syscall_ns += ns;
        self.span(name, t0, t1, self.op_span);
    }

    fn launch(&mut self, argv0: &str, env_bytes: usize, t0: Instant, t1: Instant) {
        let ns = t1.duration_since(t0).as_nanos() as u64;
        self.work.launches += 1;
        self.work.launch_ns += ns;
        self.work.env_bytes += env_bytes as u64;
        self.launch_ns.push(ns);
        let program = match self.programs.iter().position(|p| p == argv0) {
            Some(i) => i,
            None => {
                self.programs.push(argv0.to_string());
                self.programs.len() - 1
            }
        };
        let span = Span {
            name: "run",
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
            parent: self.op_span,
            op: self.op,
            argv0: program as u16,
            env_bytes: env_bytes as u32,
        };
        self.push(span);
    }

    /// Writes every kept span as tab-separated text.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            out,
            "id\tparent\top\tname\tstart_ns\tend_ns\tprogram\tenv_bytes"
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let program = if s.name == "run" {
                self.programs[s.argv0 as usize].as_str()
            } else {
                "-"
            };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{program}\t{}",
                s.op, s.name, s.start_ns, s.end_ns, s.env_bytes
            )?;
        }
        if self.dropped > 0 {
            writeln!(
                out,
                "# {} further spans were aggregated but not kept",
                self.dropped
            )?;
        }
        Ok(())
    }
}

/// An [`Os`] that forwards to `inner` and reports to a [`Recorder`].
#[derive(Clone)]
pub struct TracingOs<O> {
    pub inner: O,
    pub rec: Rc<RefCell<Recorder>>,
}

impl<O: Os> TracingOs<O> {
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut O) -> T) -> T {
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        self.rec.borrow_mut().syscall(name, t0, Instant::now());
        r
    }

    fn timed_ref<T>(&self, name: &'static str, f: impl FnOnce(&O) -> T) -> T {
        let t0 = Instant::now();
        let r = f(&self.inner);
        self.rec.borrow_mut().syscall(name, t0, Instant::now());
        r
    }
}

impl<O: Os> Os for TracingOs<O> {
    fn open(&mut self, path: &str, mode: OpenMode) -> OsResult<Desc> {
        self.timed("open", |os| os.open(path, mode))
    }
    fn pipe(&mut self) -> OsResult<(Desc, Desc)> {
        self.timed("pipe", |os| os.pipe())
    }
    fn dup(&mut self, d: Desc) -> OsResult<Desc> {
        self.timed("dup", |os| os.dup(d))
    }
    fn close(&mut self, d: Desc) -> OsResult<()> {
        self.timed("close", |os| os.close(d))
    }
    fn read(&mut self, d: Desc, buf: &mut [u8]) -> OsResult<usize> {
        self.timed("read", |os| os.read(d, buf))
    }
    fn write(&mut self, d: Desc, data: &[u8]) -> OsResult<usize> {
        self.timed("write", |os| os.write(d, data))
    }
    fn run(
        &mut self,
        argv: &[String],
        env: &[(String, String)],
        fds: &[(u32, Desc)],
    ) -> OsResult<i32> {
        let env_bytes = env.iter().map(|(k, v)| k.len() + v.len() + 2).sum();
        let t0 = Instant::now();
        let r = self.inner.run(argv, env, fds);
        let argv0 = argv.first().map_or("", String::as_str);
        self.rec
            .borrow_mut()
            .launch(argv0, env_bytes, t0, Instant::now());
        r
    }
    fn chdir(&mut self, path: &str) -> OsResult<()> {
        self.timed("chdir", |os| os.chdir(path))
    }
    fn cwd(&self) -> String {
        self.inner.cwd()
    }
    fn read_dir(&self, path: &str) -> OsResult<Vec<String>> {
        self.timed_ref("read_dir", |os| os.read_dir(path))
    }
    fn is_file(&self, path: &str) -> bool {
        self.timed_ref("is_file", |os| os.is_file(path))
    }
    fn is_dir(&self, path: &str) -> bool {
        self.timed_ref("is_dir", |os| os.is_dir(path))
    }
    fn is_executable(&self, path: &str) -> bool {
        self.timed_ref("is_executable", |os| os.is_executable(path))
    }
    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }
    fn advance_ns(&mut self, ns: u64) {
        self.inner.advance_ns(ns)
    }
    fn open_desc_count(&self) -> usize {
        self.inner.open_desc_count()
    }
    fn children_rusage(&self) -> Rusage {
        self.inner.children_rusage()
    }
    fn take_signal(&mut self) -> Option<Signal> {
        self.inner.take_signal()
    }
    fn initial_env(&self) -> Vec<(String, String)> {
        self.inner.initial_env()
    }
    fn take_console(&mut self) -> (String, String) {
        self.inner.take_console()
    }
    fn absorb_fork(&mut self, child: Self) {
        self.inner.absorb_fork(child.inner)
    }
}
