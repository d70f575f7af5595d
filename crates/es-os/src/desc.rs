//! The descriptor model both kernels share: the refcounted table of
//! open descriptions, the pipes, and the console.
//!
//! The shell sees UNIX only through descriptors, pipes and byte
//! streams, and those behave the same whatever a file is. So
//! [`crate::SimOs`] and [`crate::RealOs`] each keep one [`Table`] and
//! supply only their own file kind `F`: a VFS file with its cursor, or
//! a host `std::fs::File` with the path and mode `fork` reopens it by.
//! Everything else is here once:
//!
//! * a descriptor is an index into the table; a new description takes
//!   the lowest free slot, `dup` shares it (one more reference), and
//!   `close` drops one reference, freeing the slot with the last;
//! * a pipe is a row of buffered bytes with reader and writer counts:
//!   a write after the last reader closed fails with `EPIPE`, a read of
//!   an empty pipe is end-of-file (pipeline stages run one after
//!   another, so no reader ever waits), and `pipe` reuses the lowest
//!   fully closed row, so a long session's table stays as large as its
//!   busiest moment;
//! * the console is descriptors 0, 1 and 2: queued input and captured
//!   output and error, unless the table passes them through to the
//!   process's own stdio.

use crate::error::{OsError, OsResult};
use std::collections::VecDeque;
use std::io::{Read as _, Write};

/// A kernel descriptor: an index into the open-description table.
/// Descriptors are reference counted ([`crate::Os::dup`] shares the
/// description; each `dup` needs a matching `close`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Desc(pub u32);

/// What an open description refers to.
#[derive(Debug, Clone, PartialEq)]
enum Kind<F> {
    /// A file of the kernel's own kind.
    File(F),
    /// Read end of pipe row `n`.
    PipeR(usize),
    /// Write end of pipe row `n`.
    PipeW(usize),
    /// The shell's standard input.
    ConsoleIn,
    /// The shell's standard output.
    ConsoleOut,
    /// The shell's standard error.
    ConsoleErr,
}

#[derive(Debug, Clone, PartialEq)]
struct Description<F> {
    kind: Kind<F>,
    refs: usize,
}

#[derive(Debug, Clone)]
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

/// The descriptor table, the pipe rows and the console of one kernel,
/// whose files are of kind `F`.
#[derive(Debug)]
pub(crate) struct Table<F> {
    files: Vec<Option<Description<F>>>,
    pipes: Vec<Pipe>,
    console_in: VecDeque<u8>,
    console_out: Vec<u8>,
    console_err: Vec<u8>,
    /// Console output goes to the process's stdout and stderr and is
    /// not kept (nothing would ever drain a copy), and console input
    /// falls back to the process's stdin once the queue runs dry.
    passthrough: bool,
}

impl<F: Clone> Clone for Table<F> {
    fn clone(&self) -> Self {
        let Table {
            files,
            pipes,
            console_in,
            console_out,
            console_err,
            passthrough,
        } = self;
        Table {
            files: files.clone(),
            pipes: pipes.clone(),
            console_in: console_in.clone(),
            console_out: console_out.clone(),
            console_err: console_err.clone(),
            passthrough: *passthrough,
        }
    }

    /// Copies field by field into the buffers this table already has,
    /// so a recycled kernel's restore makes no malloc.
    fn clone_from(&mut self, source: &Self) {
        let Table {
            files,
            pipes,
            console_in,
            console_out,
            console_err,
            passthrough,
        } = source;
        self.files.clone_from(files);
        self.pipes.clone_from(pipes);
        self.console_in.clone_from(console_in);
        self.console_out.clone_from(console_out);
        self.console_err.clone_from(console_err);
        self.passthrough = *passthrough;
    }
}

impl<F> Table<F> {
    /// A table with descriptors 0, 1 and 2 open on the console.
    pub(crate) fn new(passthrough: bool) -> Table<F> {
        let console = |kind| Some(Description { kind, refs: 1 });
        Table {
            files: vec![
                console(Kind::ConsoleIn),
                console(Kind::ConsoleOut),
                console(Kind::ConsoleErr),
            ],
            pipes: Vec::new(),
            console_in: VecDeque::new(),
            console_out: Vec::new(),
            console_err: Vec::new(),
            passthrough,
        }
    }

    /// Turns pass-through of the console to the process's stdio on or
    /// off.
    pub(crate) fn set_passthrough(&mut self, on: bool) {
        self.passthrough = on;
    }

    /// Queues bytes on the console input.
    pub(crate) fn push_input(&mut self, text: &str) {
        self.console_in.extend(text.bytes());
    }

    /// Takes and clears the captured console output.
    pub(crate) fn take_output(&mut self) -> String {
        String::from_utf8_lossy(&std::mem::take(&mut self.console_out)).into_owned()
    }

    /// Takes and clears the captured console error.
    pub(crate) fn take_error(&mut self) -> String {
        String::from_utf8_lossy(&std::mem::take(&mut self.console_err)).into_owned()
    }

    /// Opens a description of `file` in the lowest free slot.
    pub(crate) fn open(&mut self, file: F) -> Desc {
        self.alloc(Kind::File(file))
    }

    fn alloc(&mut self, kind: Kind<F>) -> Desc {
        let desc = Some(Description { kind, refs: 1 });
        match self.files.iter().position(Option::is_none) {
            Some(i) => {
                self.files[i] = desc;
                Desc(i as u32)
            }
            None => {
                self.files.push(desc);
                Desc((self.files.len() - 1) as u32)
            }
        }
    }

    /// The open description `d` names, or `EBADF`.
    fn slot(files: &mut [Option<Description<F>>], d: Desc) -> OsResult<&mut Description<F>> {
        files
            .get_mut(d.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(OsError::BadF)
    }

    /// Creates a pipe in the lowest fully closed row (emptied) or a new
    /// one; returns `(read_end, write_end)`.
    pub(crate) fn pipe(&mut self) -> (Desc, Desc) {
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
        (self.alloc(Kind::PipeR(p)), self.alloc(Kind::PipeW(p)))
    }

    /// Shares `d`'s description: one more reference, and one more
    /// reader or writer for a pipe end.
    pub(crate) fn dup(&mut self, d: Desc) -> OsResult<Desc> {
        let of = Self::slot(&mut self.files, d)?;
        of.refs += 1;
        match of.kind {
            Kind::PipeR(p) => self.pipes[p].readers += 1,
            Kind::PipeW(p) => self.pipes[p].writers += 1,
            _ => {}
        }
        Ok(d)
    }

    /// Drops one reference to `d`'s description, freeing its slot with
    /// the last.
    pub(crate) fn close(&mut self, d: Desc) -> OsResult<()> {
        let of = Self::slot(&mut self.files, d)?;
        of.refs -= 1;
        match of.kind {
            Kind::PipeR(p) => self.pipes[p].readers -= 1,
            Kind::PipeW(p) => self.pipes[p].writers -= 1,
            _ => {}
        }
        if of.refs == 0 {
            self.files[d.0 as usize] = None;
        }
        Ok(())
    }

    /// How many slots hold an open description.
    pub(crate) fn open_desc_count(&self) -> usize {
        self.files.iter().flatten().count()
    }

    /// Rows in the pipe table, live or waiting for reuse.
    #[cfg(test)]
    pub(crate) fn pipe_rows(&self) -> usize {
        self.pipes.len()
    }

    /// Reads from `d` into `buf`; a file is read by `file`.
    pub(crate) fn read(
        &mut self,
        d: Desc,
        buf: &mut [u8],
        file: impl FnOnce(&mut F, &mut [u8]) -> OsResult<usize>,
    ) -> OsResult<usize> {
        match &mut Self::slot(&mut self.files, d)?.kind {
            Kind::File(f) => file(f, buf),
            Kind::PipeR(p) => Ok(drain_into(&mut self.pipes[*p].buf, buf)),
            Kind::ConsoleIn if self.passthrough && self.console_in.is_empty() => {
                std::io::stdin().read(buf).map_err(OsError::io)
            }
            Kind::ConsoleIn => Ok(drain_into(&mut self.console_in, buf)),
            Kind::PipeW(_) | Kind::ConsoleOut | Kind::ConsoleErr => Err(OsError::BadF),
        }
    }

    /// Writes `data` to `d`; a file is written by `file`.
    pub(crate) fn write(
        &mut self,
        d: Desc,
        data: &[u8],
        file: impl FnOnce(&mut F, &[u8]) -> OsResult<usize>,
    ) -> OsResult<usize> {
        match &mut Self::slot(&mut self.files, d)?.kind {
            Kind::File(f) => return file(f, data),
            Kind::PipeW(p) => {
                let pipe = &mut self.pipes[*p];
                if pipe.readers == 0 {
                    return Err(OsError::Pipe);
                }
                pipe.buf.extend(data);
            }
            Kind::ConsoleOut if self.passthrough => pass_through(std::io::stdout().lock(), data)?,
            Kind::ConsoleErr if self.passthrough => pass_through(std::io::stderr().lock(), data)?,
            Kind::ConsoleOut => self.console_out.extend_from_slice(data),
            Kind::ConsoleErr => self.console_err.extend_from_slice(data),
            Kind::PipeR(_) | Kind::ConsoleIn => return Err(OsError::BadF),
        }
        Ok(data.len())
    }

    /// Puts `bytes` back in front of what `d` reads next: at the head
    /// of its pipe or of the console input, or by `rewind` for a file.
    /// A closed descriptor drops them: there is nowhere to return them.
    pub(crate) fn unread(&mut self, d: Desc, bytes: &[u8], rewind: impl FnOnce(&mut F, usize)) {
        let Ok(of) = Self::slot(&mut self.files, d) else {
            return;
        };
        let queue = match &mut of.kind {
            Kind::File(f) => return rewind(f, bytes.len()),
            Kind::PipeR(p) => &mut self.pipes[*p].buf,
            Kind::ConsoleIn => &mut self.console_in,
            Kind::PipeW(_) | Kind::ConsoleOut | Kind::ConsoleErr => return,
        };
        for &b in bytes.iter().rev() {
            queue.push_front(b);
        }
    }

    /// True if a child's descriptor `fd`, laid out on `d`, should
    /// inherit the process's own stream: the console passes through
    /// and `d` is its input for fd 0, its output for 1, its error for 2.
    pub(crate) fn is_process_stdio(&self, fd: u32, d: Desc) -> bool {
        let kind = self.files.get(d.0 as usize).and_then(Option::as_ref);
        self.passthrough
            && matches!(
                (fd, kind.map(|of| &of.kind)),
                (0, Some(Kind::ConsoleIn))
                    | (1, Some(Kind::ConsoleOut))
                    | (2, Some(Kind::ConsoleErr))
            )
    }

    /// The open descriptions, with their descriptor numbers.
    fn open_files(&self) -> impl Iterator<Item = (usize, &Description<F>)> {
        self.files
            .iter()
            .enumerate()
            .filter_map(|(i, f)| Some((i, f.as_ref()?)))
    }

    /// The pipe rows with a live end, with their numbers. Fully closed
    /// rows only wait to be reused, so no tenant can observe them.
    fn live_pipes(&self) -> impl Iterator<Item = (usize, &Pipe)> {
        self.pipes
            .iter()
            .enumerate()
            .filter(|(_, p)| p.readers != 0 || p.writers != 0)
    }

    /// Mixes every observable part of the table into the FNV state `h`:
    /// each open description (its number, references and kind, a file
    /// by `file`), each live pipe and its bytes, and the consoles.
    pub(crate) fn digest(&self, h: &mut u64, file: impl Fn(&mut u64, &F)) {
        use crate::sim::{fnv, fnv_u64};
        for (i, of) in self.open_files() {
            fnv_u64(h, i as u64);
            fnv_u64(h, of.refs as u64);
            match &of.kind {
                Kind::File(f) => file(h, f),
                Kind::PipeR(p) => {
                    fnv(h, b"piper");
                    fnv_u64(h, *p as u64);
                }
                Kind::PipeW(p) => {
                    fnv(h, b"pipew");
                    fnv_u64(h, *p as u64);
                }
                Kind::ConsoleIn => fnv(h, b"cin"),
                Kind::ConsoleOut => fnv(h, b"cout"),
                Kind::ConsoleErr => fnv(h, b"cerr"),
            }
        }
        for (i, pipe) in self.live_pipes() {
            fnv_u64(h, i as u64);
            fnv_u64(h, pipe.readers as u64);
            fnv_u64(h, pipe.writers as u64);
            let (a, b) = pipe.buf.as_slices();
            fnv(h, a);
            fnv(h, b);
        }
        let (a, b) = self.console_in.as_slices();
        fnv(h, a);
        fnv(h, b);
        fnv(h, &self.console_out);
        fnv(h, &self.console_err);
    }
}

impl<F: PartialEq> Table<F> {
    /// True if [`Table::digest`] covers nothing that differs between
    /// the two tables: the open descriptions, then the live pipe rows,
    /// then the consoles, each byte buffer by `same_bytes`.
    pub(crate) fn same(&self, other: &Table<F>) -> bool {
        self.open_files().eq(other.open_files())
            && self.live_pipes().eq(other.live_pipes())
            && same_queue(&self.console_in, &other.console_in)
            && same_bytes(&self.console_out, &other.console_out)
            && same_bytes(&self.console_err, &other.console_err)
    }
}

/// Moves the front of `queue` into `buf`; returns how many bytes.
fn drain_into(queue: &mut VecDeque<u8>, buf: &mut [u8]) -> usize {
    let n = buf.len().min(queue.len());
    for (b, byte) in buf.iter_mut().zip(queue.drain(..n)) {
        *b = byte;
    }
    n
}

/// Writes `data` to one of the process's own streams, flushed.
fn pass_through(mut out: impl Write, data: &[u8]) -> OsResult<()> {
    out.write_all(data)
        .and_then(|()| out.flush())
        .map_err(OsError::io)
}

/// True if the two byte runs are equal. The lengths are compared
/// first, and two empty runs are equal without a library call: on
/// some hosts `memcmp` on the dangling pointer of an empty `Vec`
/// costs 100 times more than on a short equal run (DESIGN.md §4f).
pub(crate) fn same_bytes(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && (a.is_empty() || a == b)
}

/// `same_bytes` for a queue, whose bytes may wrap around its buffer.
fn same_queue(a: &VecDeque<u8>, b: &VecDeque<u8>) -> bool {
    a.len() == b.len() && (a.is_empty() || a == b)
}
