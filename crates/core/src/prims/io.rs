//! Redirection and I/O primitives: create/open/append/dup/close/here,
//! pipe, backquote, echo.
//!
//! Every primitive that points a shell fd at a new descriptor does it
//! through [`Machine::with_fd`], which restores the table (even on
//! exceptions — exception safety here is what makes `catch` +
//! redirections compose); `%close` only removes an entry and puts it
//! back.

use super::{arg, run_arg};
use crate::eval::{must_value, Flow};
use crate::exception::{EsError, EsResult};
use crate::machine::Machine;
use crate::value;
use es_gc::{Ref, RootSlot};
use es_os::{Desc, OpenMode, Os};

/// Parses a required numeric fd argument.
fn fd_arg<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot, i: usize) -> EsResult<u32> {
    match arg(m, args, i) {
        Some(fd) => Ok(fd),
        None => Err(m.error("bad file descriptor number")),
    }
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
    let Some(file) = arg::<String, _>(m, args, 2) else {
        return Err(m.error("redirection: missing file name"));
    };
    let desc =
        es_os::retry_intr(|| m.os_mut().open(&file, mode)).map_err(|e| m.error(&e.to_string()))?;
    m.with_fd(fd, desc, |m| run_arg(m, args, 3, env))
}

/// `$&dup a b {cmd}` — `cmd >[a=b]`: fd `a` becomes a copy of fd `b`.
pub fn dup<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot, env: RootSlot) -> EsResult<Flow> {
    let a = fd_arg(m, args, 1)?;
    let b = fd_arg(m, args, 2)?;
    let source = match m.fd(b) {
        Some(d) => d,
        None => return Err(m.error(&format!("fd {b} is not open"))),
    };
    let desc = es_os::retry_intr(|| m.os_mut().dup(source)).map_err(|e| m.error(&e.to_string()))?;
    m.with_fd(a, desc, |m| run_arg(m, args, 3, env))
}

/// `$&close fd {cmd}` — `cmd >[fd=]`: run with fd closed.
pub fn close<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot, env: RootSlot) -> EsResult<Flow> {
    let fd = fd_arg(m, args, 1)?;
    let saved = m.remove_fd(fd);
    let result = run_arg(m, args, 2, env);
    if let Some(old) = saved {
        m.set_fd(fd, old);
    }
    result
}

/// `$&here fd text {cmd}` — here document: text becomes fd's input.
pub fn here<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot, env: RootSlot) -> EsResult<Flow> {
    let fd = fd_arg(m, args, 1)?;
    let text: String = arg(m, args, 2).unwrap_or_default();
    let (r, w) = es_os::retry_intr(|| m.os_mut().pipe()).map_err(|e| m.error(&e.to_string()))?;
    let write_result = es_os::write_fully(m.os_mut(), w, text.as_bytes());
    m.close_desc(w);
    if let Err(e) = write_result {
        m.close_desc(r);
        return Err(m.error(&e.to_string()));
    }
    m.with_fd(fd, r, |m| run_arg(m, args, 3, env))
}

/// `$&pipe {c1} out1 in1 {c2} [out2 in2 {c3} ...]` — the variadic
/// pipeline primitive Figure 1 spoofs. Stages run left to right:
/// stage k writes on fd `out_k` into a fresh pipe, and stage k+1
/// reads its read end on fd `in_k` (an unbounded buffer, in the
/// simulator's run-to-completion model). The value is the last
/// stage's value.
pub fn pipe<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot, env: RootSlot) -> EsResult<Flow> {
    // `input` is the read end the stage at argument `stage` reads,
    // and the fd it reads it on.
    let mut input = None;
    let mut stage = 1;
    loop {
        let (result, next) = match input {
            Some((in_fd, r)) => m.with_fd(in_fd, r, |m| pipe_stage(m, args, stage, env)),
            None => pipe_stage(m, args, stage, env),
        };
        let value = match result {
            Ok(flow) => must_value(flow),
            Err(e) => {
                if let Some((_, r)) = next {
                    m.close_desc(r);
                }
                return Err(e);
            }
        };
        if next.is_none() {
            return Ok(Flow::Val(value));
        }
        input = next;
        stage += 3;
    }
}

/// Runs the pipeline stage at argument `i`. Unless it is the last, it
/// writes on `out` into a fresh pipe; the pipe's read end, and the
/// `in` fd the next stage reads it on, come back beside the result
/// (even a failed one) for the caller to pass on, or to close once
/// this stage's input is restored.
fn pipe_stage<O: Os + Clone>(
    m: &mut Machine<O>,
    args: RootSlot,
    i: usize,
    env: RootSlot,
) -> (EsResult<Flow>, Option<(u32, Desc)>) {
    if value::list_nth(&m.heap, m.heap.root(args), i + 2).is_none() {
        return (run_arg(m, args, i, env), None);
    }
    let (Some(out), Some(inp)) = (arg(m, args, i + 1), arg(m, args, i + 2)) else {
        return (Err(m.error("pipe: bad fd")), None);
    };
    match es_os::retry_intr(|| m.os_mut().pipe()) {
        Ok((r, w)) => (
            m.with_fd(out, w, |m| run_arg(m, args, i, env)),
            Some((inp, r)),
        ),
        Err(e) => (Err(m.error(&e.to_string())), None),
    }
}

/// `$&backquote {cmd}` — run cmd with stdout captured; split the
/// output on the characters of `$ifs`; also records `$bqstatus`.
pub fn backquote<O: Os + Clone>(
    m: &mut Machine<O>,
    args: RootSlot,
    env: RootSlot,
) -> EsResult<Flow> {
    let (r, w) = es_os::retry_intr(|| m.os_mut().pipe()).map_err(|e| m.error(&e.to_string()))?;
    let result = m.with_fd(1, w, |m| run_arg(m, args, 1, env));
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
    m.assign_raw(Ref::NIL, crate::machine::sym::BQSTATUS, status);
    m.heap.truncate_roots(s_slot.index());
    Ok(Flow::Val(value::list_from_strs(&mut m.heap, &words)))
}

/// `$&echo [-n] args...` — the built-in echo (es builds echo in; the
/// external `/bin/echo` also exists in the simulator).
pub fn echo<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot) -> EsResult<Flow> {
    let mut list = m.heap.root(args);
    let newline = list.is_nil() || value::term_text(&m.heap, m.heap.pair_head(list)) != "-n";
    if !newline {
        list = m.heap.pair_tail(list);
    }
    let mut out = String::new();
    while !list.is_nil() {
        out.push_str(&value::term_text(&m.heap, m.heap.pair_head(list)));
        list = m.heap.pair_tail(list);
        if !list.is_nil() {
            out.push(' ');
        }
    }
    if newline {
        out.push('\n');
    }
    if let Err(e) = m.write_fd(1, out.as_bytes()) {
        return Err(m.error(&format!("echo: {e}")));
    }
    Ok(Flow::Val(value::true_value(&mut m.heap)))
}
