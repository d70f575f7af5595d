//! Redirection and I/O primitives: create/open/append/dup/close/here,
//! pipe, backquote, echo.
//!
//! Every redirection primitive follows the same shape: rearrange the
//! shell's fd table, apply the command thunk, restore the table (even
//! on exceptions — exception safety here is what makes `catch` +
//! redirections compose).

use super::{apply_thunk, arg_slot};
use crate::eval::{must_value, Flow};
use crate::exception::{EsError, EsResult};
use crate::machine::Machine;
use crate::value::{self, Term};
use es_gc::{Obj, Ref, RootSlot};
use es_os::{Desc, OpenMode, Os};

/// The `i`-th (1-based) argument as a descriptor number, read without
/// rendering any other argument; `None` unless it is a numeric string.
fn fd_word<O: Os + Clone>(m: &Machine<O>, args: RootSlot, i: usize) -> Option<u32> {
    let t = value::list_nth(&m.heap, m.heap.root(args), i)?;
    match m.heap.get(t) {
        Obj::Str(_) => m.heap.str_value(t).parse().ok(),
        _ => None,
    }
}

/// Parses a required numeric fd argument.
fn fd_arg<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot, i: usize) -> EsResult<u32> {
    match fd_word(m, args, i) {
        Some(fd) => Ok(fd),
        None => Err(m.error("bad file descriptor number")),
    }
}

/// Runs the thunk at argument `idx` with shell fd `fd` temporarily
/// pointing at `desc`. `Machine::with_fd` is the scope guard: the
/// descriptor is closed (with bounded EINTR retry) and the table entry
/// restored on every exit path, value or exception.
fn run_with_fd<O: Os + Clone>(
    m: &mut Machine<O>,
    fd: u32,
    desc: Desc,
    args: RootSlot,
    idx: usize,
    env: RootSlot,
) -> EsResult<Flow> {
    m.with_fd(fd, desc, |m| {
        let base = m.heap.roots_len();
        let result = match arg_slot(m, args, idx) {
            Some(cmd) => apply_thunk(m, cmd, env, None),
            None => Ok(Flow::Val(Ref::NIL)),
        };
        m.heap.truncate_roots(base);
        result
    })
}

/// `$&create fd file {cmd}` (and open/append): the rewritten form of
/// `cmd > file`, `< file`, `>> file`.
pub fn redir_file<O: Os + Clone>(
    m: &mut Machine<O>,
    args: RootSlot,
    env: RootSlot,
    mode: OpenMode,
) -> EsResult<Flow> {
    let fd = fd_arg(m, args, 1)?;
    let strings = m.strings_at(args);
    let file = match strings.get(1) {
        Some(f) => f.clone(),
        None => return Err(m.error("redirection: missing file name")),
    };
    let desc = match es_os::retry_intr(|| m.os_mut().open(&file, mode)) {
        Ok(d) => d,
        Err(e) => return Err(m.error(&e.to_string())),
    };
    run_with_fd(m, fd, desc, args, 3, env)
}

/// `$&dup a b {cmd}` — `cmd >[a=b]`: fd `a` becomes a copy of fd `b`.
pub fn dup<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot, env: RootSlot) -> EsResult<Flow> {
    let a = fd_arg(m, args, 1)?;
    let b = fd_arg(m, args, 2)?;
    let source = match m.fd(b) {
        Some(d) => d,
        None => return Err(m.error(&format!("fd {b} is not open"))),
    };
    let desc = match es_os::retry_intr(|| m.os_mut().dup(source)) {
        Ok(d) => d,
        Err(e) => return Err(m.error(&e.to_string())),
    };
    run_with_fd(m, a, desc, args, 3, env)
}

/// `$&close fd {cmd}` — `cmd >[fd=]`: run with fd closed.
pub fn close<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot, env: RootSlot) -> EsResult<Flow> {
    let fd = fd_arg(m, args, 1)?;
    let saved = m.remove_fd(fd);
    let base = m.heap.roots_len();
    let result = match arg_slot(m, args, 2) {
        Some(cmd) => apply_thunk(m, cmd, env, None),
        None => Ok(Flow::Val(Ref::NIL)),
    };
    m.heap.truncate_roots(base);
    if let Some(old) = saved {
        m.set_fd(fd, old);
    }
    result
}

/// `$&here fd text {cmd}` — here document: text becomes fd's input.
pub fn here<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot, env: RootSlot) -> EsResult<Flow> {
    let fd = fd_arg(m, args, 1)?;
    let strings = m.strings_at(args);
    let text = strings.get(1).cloned().unwrap_or_default();
    let (r, w) = match es_os::retry_intr(|| m.os_mut().pipe()) {
        Ok(p) => p,
        Err(e) => return Err(m.error(&e.to_string())),
    };
    let write_result = es_os::write_fully(m.os_mut(), w, text.as_bytes());
    m.close_desc(w);
    if let Err(e) = write_result {
        m.close_desc(r);
        return Err(m.error(&e.to_string()));
    }
    run_with_fd(m, fd, r, args, 3, env)
}

/// `$&pipe {c1} out1 in1 {c2} [out2 in2 {c3} ...]` — the variadic
/// pipeline primitive Figure 1 spoofs. Stages run left to right; each
/// writes into an unbounded buffer the next stage reads (the
/// simulator's run-to-completion model). The value is the last
/// stage's value.
/// Restores a saved fd-table entry, closing the temporary descriptor
/// (with bounded EINTR retry, so injected interrupts can't leak it).
fn restore_entry<O: Os + Clone>(m: &mut Machine<O>, fd: u32, saved: Option<Desc>, temp: Desc) {
    m.close_desc(temp);
    match saved {
        Some(old) => {
            m.set_fd(fd, old);
        }
        None => {
            m.remove_fd(fd);
        }
    }
}

pub fn pipe<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot, env: RootSlot) -> EsResult<Flow> {
    let n = value::list_len(&m.heap, m.heap.root(args));
    if n == 0 {
        return Ok(Flow::Val(Ref::NIL));
    }
    // Arguments come in the shape cmd (out in cmd)*.
    let mut stage = 1usize;
    let mut carry_in: Option<Desc> = None; // read end feeding the next stage
    let mut last;
    loop {
        let is_last = stage + 2 > n;
        let (out_fd, in_fd) = if is_last {
            (1, 0)
        } else {
            match (fd_word(m, args, stage + 1), fd_word(m, args, stage + 2)) {
                (Some(out), Some(inp)) => (out, inp),
                _ => {
                    // The previous stage's read end must not outlive
                    // this failure.
                    if let Some(r) = carry_in.take() {
                        m.close_desc(r);
                    }
                    return Err(m.error("pipe: bad fd"));
                }
            }
        };
        // Build this stage's fd plumbing.
        let mut saved_in = None;
        let mut in_desc = None;
        if let Some(r) = carry_in.take() {
            saved_in = Some((in_fd, m.set_fd(in_fd, r)));
            in_desc = Some(r);
        }
        let mut saved_out = None;
        let mut out_desc = None;
        let mut next_read = None;
        if !is_last {
            let (r, w) = match es_os::retry_intr(|| m.os_mut().pipe()) {
                Ok(p) => p,
                Err(e) => {
                    // Unwind the input plumbing installed just above.
                    if let Some((fd, saved)) = saved_in {
                        restore_entry(m, fd, saved, in_desc.expect("in desc set with saved_in"));
                    }
                    return Err(m.error(&e.to_string()));
                }
            };
            saved_out = Some((out_fd, m.set_fd(out_fd, w)));
            out_desc = Some(w);
            next_read = Some(r);
        }
        let base = m.heap.roots_len();
        let cmd = arg_slot(m, args, stage);
        let result = match cmd {
            Some(c) => apply_thunk(m, c, env, None),
            None => Ok(Flow::Val(Ref::NIL)),
        };
        m.heap.truncate_roots(base);
        // Restore plumbing before propagating any error.
        if let Some((fd, saved)) = saved_out {
            restore_entry(m, fd, saved, out_desc.expect("out desc set with saved_out"));
        }
        if let Some((fd, saved)) = saved_in {
            restore_entry(m, fd, saved, in_desc.expect("in desc set with saved_in"));
        }
        match result {
            Ok(flow) => last = Flow::Val(must_value(flow)),
            Err(e) => {
                if let Some(r) = next_read {
                    m.close_desc(r);
                }
                return Err(e);
            }
        }
        if is_last {
            return Ok(last);
        }
        carry_in = next_read;
        stage += 3;
    }
}

/// `$&backquote {cmd}` — run cmd with stdout captured; split the
/// output on the characters of `$ifs`; also records `$bqstatus`.
pub fn backquote<O: Os + Clone>(
    m: &mut Machine<O>,
    args: RootSlot,
    env: RootSlot,
) -> EsResult<Flow> {
    let (r, w) = match es_os::retry_intr(|| m.os_mut().pipe()) {
        Ok(p) => p,
        Err(e) => return Err(m.error(&e.to_string())),
    };
    let result = run_with_fd(m, 1, w, args, 1, env);
    let status = match result {
        Ok(flow) => must_value(flow),
        Err(e) => {
            m.close_desc(r);
            return Err(e);
        }
    };
    let s_slot = m.heap.push_root(status);
    // Chunked, interruptible drain of the pipe: a ^C that arrives
    // mid-read must deliver its `signal` exception promptly instead of
    // waiting for end-of-file — and must not leak the read end.
    let output = (|| -> Result<Vec<u8>, EsError> {
        let mut out = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            if let Some(sig) = m.os_mut().take_signal() {
                return Err(crate::governor::signal_error(m, sig));
            }
            match es_os::retry_intr(|| m.os_mut().read(r, &mut buf)) {
                Ok(0) => return Ok(out),
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) => {
                    let msg = format!("backquote: {e}");
                    return Err(m.error(&msg));
                }
            }
        }
    })();
    m.close_desc(r);
    let output = match output {
        Ok(bytes) => bytes,
        Err(e) => {
            m.heap.truncate_roots(s_slot.index());
            return Err(e);
        }
    };
    let text = String::from_utf8_lossy(&output).into_owned();
    let ifs: String = m.get_var("ifs").concat();
    let ifs = if ifs.is_empty() {
        " \t\n".to_string()
    } else {
        ifs
    };
    let words: Vec<&str> = text
        .split(|c: char| ifs.contains(c))
        .filter(|w| !w.is_empty())
        .collect();
    // $bqstatus records the command's value.
    let status = m.heap.root(s_slot);
    m.assign_raw(Ref::NIL, "bqstatus", status);
    m.heap.truncate_roots(s_slot.index());
    Ok(Flow::Val(value::list_from_strs(&mut m.heap, &words)))
}

/// `$&echo [-n] args...` — the built-in echo (es builds echo in; the
/// external `/bin/echo` also exists in the simulator).
pub fn echo<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot) -> EsResult<Flow> {
    let terms = m.terms_at(args);
    let mut strings: Vec<String> = Vec::with_capacity(terms.len());
    for t in terms {
        match t {
            Term::Str(s) => strings.push(s),
            Term::Closure(code, bindings) => {
                strings.push(value::unparse_closure(&m.heap, &code, bindings))
            }
        }
    }
    let newline = if strings.first().map(String::as_str) == Some("-n") {
        strings.remove(0);
        false
    } else {
        true
    };
    let mut out = strings.join(" ");
    if newline {
        out.push('\n');
    }
    if let Err(e) = m.write_fd(1, out.as_bytes()) {
        return Err(m.error(&format!("echo: {e}")));
    }
    Ok(Flow::Val(value::true_value(&mut m.heap)))
}
