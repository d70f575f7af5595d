//! The `$&` primitives — the unoverridable floor under the hooks.
//!
//! "%create is not really the built-in file redirection service. It is
//! a hook to the primitive $&create, which itself cannot be
//! overridden. That means that it is always possible to access the
//! underlying shell service, even when its hook has been reassigned."
//!
//! Control-flow primitives apply their argument thunks *transparently*
//! (no `return` boundary), so `return` inside `if`/`while`/`%seq`
//! bodies exits the enclosing function, as users expect.

mod control;
mod governor;
mod io;
mod misc;

use crate::eval::{Flow, TailSlots};
use crate::exception::EsResult;
use crate::machine::Machine;
use crate::value::{self, ListBuilder};
use es_gc::{Obj, Ref, RootSlot};
use es_os::Os;
use std::str::FromStr;

/// Every primitive name, for `$&primitives`.
pub const NAMES: &[&str] = &[
    "and",
    "append",
    "background",
    "backquote",
    "break",
    "catch",
    "cd",
    "close",
    "collect",
    "create",
    "dot",
    "dup",
    "echo",
    "eval",
    "exit",
    "false",
    "flatten",
    "forever",
    "fork",
    "fsplit",
    "gcstats",
    "here",
    "if",
    "isinteractive",
    "limit",
    "limits",
    "not",
    "open",
    "or",
    "parse",
    "pathsearch",
    "pipe",
    "primitives",
    "result",
    "return",
    "seq",
    "split",
    "throw",
    "time",
    "true",
    "vars",
    "version",
    "wait",
    "whatis",
    "while",
];

/// Dispatches a primitive by name. `args` is the rooted argument list
/// (without the `$&name` head); `env` the caller's lexical scope;
/// `tail` the apply loop's tail slots (forwarded to thunk application
/// by control primitives whose last action is that application).
pub fn call<O: Os + Clone>(
    m: &mut Machine<O>,
    name: &str,
    args: RootSlot,
    env: RootSlot,
    tail: Option<TailSlots>,
) -> EsResult<Flow> {
    match name {
        // Control flow.
        "seq" => control::seq(m, args, env, tail),
        "if" => control::if_prim(m, args, env, tail),
        "while" => control::while_prim(m, args, env),
        "forever" => control::forever(m, args, env),
        "and" => control::and_or(m, args, env, tail, true),
        "or" => control::and_or(m, args, env, tail, false),
        "not" => control::not(m, args, env),
        "result" => Ok(Flow::Val(m.heap.root(args))),
        "true" => Ok(Flow::Val(value::true_value(&mut m.heap))),
        "false" => Ok(Flow::Val(value::false_value(&mut m.heap))),
        "throw" => control::throw(m, args),
        "catch" => control::catch(m, args, env),
        "return" => control::unwind(m, args, "return"),
        "break" => control::unwind(m, args, "break"),
        "eval" => control::eval_prim(m, args, env),
        // Redirections and I/O.
        "create" => io::redir_file(m, args, env, es_os::OpenMode::Write),
        "open" => io::redir_file(m, args, env, es_os::OpenMode::Read),
        "append" => io::redir_file(m, args, env, es_os::OpenMode::Append),
        "dup" => io::dup(m, args, env),
        "close" => io::close(m, args, env),
        "here" => io::here(m, args, env),
        "pipe" => io::pipe(m, args, env),
        "backquote" => io::backquote(m, args, env),
        "echo" => io::echo(m, args),
        // Processes and the kernel.
        "fork" => misc::fork(m, args, env),
        "background" => misc::background(m, args, env),
        "exit" => misc::exit(m, args),
        "time" => misc::time(m, args, env),
        "wait" => Ok(Flow::Val(value::true_value(&mut m.heap))),
        "cd" => misc::cd(m, args),
        // Strings and variables.
        "flatten" => misc::flatten(m, args),
        "fsplit" => misc::split(m, args, true),
        "split" => misc::split(m, args, false),
        "vars" => misc::vars(m),
        "whatis" => misc::whatis(m, args, env),
        "pathsearch" => misc::pathsearch(m, args),
        "dot" => misc::dot(m, args, env),
        "parse" => misc::parse(m, args),
        "version" => {
            let v = value::list_from_strs(
                &mut m.heap,
                &["es-rs 0.1 — reproduction of Haahr & Rakitzis, Winter USENIX 1993"],
            );
            Ok(Flow::Val(v))
        }
        "primitives" => {
            let v = value::list_from_strs(&mut m.heap, NAMES);
            Ok(Flow::Val(v))
        }
        "isinteractive" => {
            let v = if m.opts.interactive {
                value::true_value(&mut m.heap)
            } else {
                value::false_value(&mut m.heap)
            };
            Ok(Flow::Val(v))
        }
        // Resource governor.
        "limit" => governor::limit_prim(m, args, env),
        "limits" => governor::limits_prim(m),
        // GC services (reproduction extras for experiment E4).
        "collect" => {
            m.heap.collect();
            Ok(Flow::Val(value::true_value(&mut m.heap)))
        }
        "gcstats" => misc::gcstats(m),
        other => Err(m.error(&format!("unknown primitive $&{other}"))),
    }
}

/// Roots the `i`-th (1-based) argument term; `None` when absent.
pub(crate) fn arg_slot<O: Os + Clone>(
    m: &mut Machine<O>,
    args: RootSlot,
    i: usize,
) -> Option<RootSlot> {
    let t = value::list_nth(&m.heap, m.heap.root(args), i)?;
    Some(m.heap.push_root(t))
}

/// Reads the `i`-th (1-based) argument as a `T`, rendering only that
/// term: a string as it is, a closure unparsed (as
/// [`value::read_strings`] renders it). `None` when the argument is
/// absent or does not parse; `T = String` reads any argument.
pub(crate) fn arg<T: FromStr, O: Os + Clone>(
    m: &Machine<O>,
    args: RootSlot,
    i: usize,
) -> Option<T> {
    let t = value::list_nth(&m.heap, m.heap.root(args), i)?;
    value::term_text(&m.heap, t).parse().ok()
}

/// Applies the `i`-th (1-based) argument as a thunk (see
/// [`apply_thunk`]) in its own root scope; an absent argument runs
/// nothing and yields `()`.
pub(crate) fn run_arg<O: Os + Clone>(
    m: &mut Machine<O>,
    args: RootSlot,
    i: usize,
    env: RootSlot,
) -> EsResult<Flow> {
    let base = m.heap.roots_len();
    let result = match arg_slot(m, args, i) {
        Some(cmd) => apply_thunk(m, cmd, env, None),
        None => Ok(Flow::Val(Ref::NIL)),
    };
    m.heap.truncate_roots(base);
    result
}

/// Roots the term under the cursor in `rest` and moves the cursor on
/// one cell; `None` at the end of the list. A primitive that walks its
/// arguments this way reads each once, where [`arg_slot`] starts again
/// from the head.
pub(crate) fn next_arg<O: Os + Clone>(m: &mut Machine<O>, rest: RootSlot) -> Option<RootSlot> {
    let cell = m.heap.root(rest);
    if cell.is_nil() {
        return None;
    }
    m.heap.set_root(rest, m.heap.pair_tail(cell));
    Some(m.heap.push_root(m.heap.pair_head(cell)))
}

/// Applies one rooted term as a command with no arguments. Closures
/// are applied *without* a `return` boundary (transparent thunks);
/// strings resolve as commands in `env`.
pub(crate) fn apply_thunk<O: Os + Clone>(
    m: &mut Machine<O>,
    term: RootSlot,
    env: RootSlot,
    tail: Option<TailSlots>,
) -> EsResult<Flow> {
    apply_thunk_with_args(m, term, Ref::NIL, env, tail)
}

/// Like [`apply_thunk`] but passing an argument list (shared spine).
pub(crate) fn apply_thunk_with_args<O: Os + Clone>(
    m: &mut Machine<O>,
    term: RootSlot,
    extra: Ref,
    env: RootSlot,
    tail: Option<TailSlots>,
) -> EsResult<Flow> {
    let base = m.heap.roots_len();
    let extra_slot = m.heap.push_root(extra);
    let t = m.heap.root(term);
    let flow = match m.heap.get(t) {
        Obj::Closure(..) => crate::eval::call_closure(m, term, extra_slot, "<thunk>", tail)?,
        Obj::Str(_) => {
            let mut b = ListBuilder::new(&mut m.heap);
            let t = m.heap.root(term);
            b.push(&mut m.heap, t);
            let extra = m.heap.root(extra_slot);
            let call = b.finish_onto(&mut m.heap, extra);
            crate::eval::apply_slot(m, call, env, tail)?
        }
        other => {
            let shape = format!("{other:?}");
            m.heap.truncate_roots(base);
            return Err(m.error(&format!("cannot apply {shape}")));
        }
    };
    // The tail slots belong to an outer loop, so truncating is safe.
    m.heap.truncate_roots(base);
    Ok(flow)
}
