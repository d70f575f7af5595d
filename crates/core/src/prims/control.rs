//! Control-flow primitives: seq, if, while, forever, and/or/not,
//! throw/catch, return/break, eval.

use super::{apply_thunk, arg_slot, next_arg};
use crate::eval::{must_value, throw_is, Flow, TailSlots};
use crate::exception::{EsError, EsResult};
use crate::machine::{Input, Machine};
use crate::value::{self, ListBuilder};
use es_gc::{Ref, RootSlot};
use es_os::Os;

/// `$&seq {a} {b} ...` — run each; value of the last (tail position).
pub fn seq<O: Os + Clone>(
    m: &mut Machine<O>,
    args: RootSlot,
    env: RootSlot,
    tail: Option<TailSlots>,
) -> EsResult<Flow> {
    let rest = m.heap.push_root(m.heap.root(args));
    let mut last = Flow::Val(Ref::NIL);
    while !m.heap.root(rest).is_nil() {
        let base = m.heap.roots_len();
        let t = next_arg(m, rest).expect("index in range");
        let is_last = m.heap.root(rest).is_nil();
        let this_tail = if is_last { tail } else { None };
        let flow = apply_thunk(m, t, env, this_tail)?;
        m.heap.truncate_roots(base);
        if is_last {
            last = flow;
        } else {
            let _ = must_value(flow);
        }
    }
    m.heap.truncate_roots(rest.index());
    Ok(last)
}

/// `$&if {c1} {t1} [{c2} {t2} ...] [{else}]` — the paper's multi-way
/// conditional (see Figure 3's three-armed `if`).
pub fn if_prim<O: Os + Clone>(
    m: &mut Machine<O>,
    args: RootSlot,
    env: RootSlot,
    tail: Option<TailSlots>,
) -> EsResult<Flow> {
    let rest = m.heap.push_root(m.heap.root(args));
    while !m.heap.root(rest).is_nil() {
        let base = m.heap.roots_len();
        let cond = next_arg(m, rest).expect("index in range");
        if m.heap.root(rest).is_nil() {
            // Trailing else branch.
            let flow = apply_thunk(m, cond, env, tail)?;
            m.heap.truncate_roots(rest.index());
            return Ok(flow);
        }
        let flow = apply_thunk(m, cond, env, None)?;
        let v = must_value(flow);
        let truth = value::truth(&m.heap, v);
        m.heap.truncate_roots(base);
        if truth {
            let t = next_arg(m, rest).expect("index in range");
            let flow = apply_thunk(m, t, env, tail)?;
            m.heap.truncate_roots(rest.index());
            return Ok(flow);
        }
        // Skip the branch.
        m.heap.set_root(rest, m.heap.pair_tail(m.heap.root(rest)));
    }
    m.heap.truncate_roots(rest.index());
    Ok(Flow::Val(Ref::NIL))
}

/// `$&while {cond} {body}` — loop while cond is true; `break` exits.
pub fn while_prim<O: Os + Clone>(
    m: &mut Machine<O>,
    args: RootSlot,
    env: RootSlot,
) -> EsResult<Flow> {
    let result = m.heap.push_root(Ref::NIL);
    loop {
        // Loops whose condition and body never dispatch a command
        // (e.g. `while {} {}`) would otherwise starve the signal poll
        // and the governor.
        crate::governor::charge(m)?;
        let base = m.heap.roots_len();
        let cond = match arg_slot(m, args, 1) {
            Some(c) => c,
            None => return Err(m.error("while: missing condition")),
        };
        let flow = apply_thunk(m, cond, env, None)?;
        let v = must_value(flow);
        let truth = value::truth(&m.heap, v);
        m.heap.truncate_roots(base);
        if !truth {
            break;
        }
        let base = m.heap.roots_len();
        let body = match arg_slot(m, args, 2) {
            Some(b) => b,
            None => break,
        };
        match apply_thunk(m, body, env, None) {
            Ok(flow) => {
                let v = must_value(flow);
                m.heap.truncate_roots(base);
                m.heap.set_root(result, v);
            }
            Err(EsError::Throw(e)) if throw_is(m, e, "break") => {
                let v = m.heap.pair_tail(e);
                m.heap.truncate_roots(base);
                m.heap.set_root(result, v);
                break;
            }
            Err(other) => {
                m.heap.truncate_roots(base);
                return Err(other);
            }
        }
    }
    Ok(Flow::Val(m.heap.root(result)))
}

/// `$&forever {body}`.
pub fn forever<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot, env: RootSlot) -> EsResult<Flow> {
    loop {
        crate::governor::charge(m)?;
        let base = m.heap.roots_len();
        let body = match arg_slot(m, args, 1) {
            Some(b) => b,
            None => return Err(m.error("forever: missing body")),
        };
        match apply_thunk(m, body, env, None) {
            Ok(_) => m.heap.truncate_roots(base),
            Err(EsError::Throw(e)) if throw_is(m, e, "break") => {
                let v = m.heap.pair_tail(e);
                m.heap.truncate_roots(base);
                return Ok(Flow::Val(v));
            }
            Err(other) => {
                m.heap.truncate_roots(base);
                return Err(other);
            }
        }
    }
}

/// `$&and` / `$&or` over thunks; short-circuiting; the last applied
/// thunk is in tail position.
pub fn and_or<O: Os + Clone>(
    m: &mut Machine<O>,
    args: RootSlot,
    env: RootSlot,
    tail: Option<TailSlots>,
    is_and: bool,
) -> EsResult<Flow> {
    if m.heap.root(args).is_nil() {
        let v = if is_and {
            value::true_value(&mut m.heap)
        } else {
            value::false_value(&mut m.heap)
        };
        return Ok(Flow::Val(v));
    }
    let rest = m.heap.push_root(m.heap.root(args));
    loop {
        let base = m.heap.roots_len();
        let t = next_arg(m, rest).expect("index in range");
        if m.heap.root(rest).is_nil() {
            let flow = apply_thunk(m, t, env, tail)?;
            m.heap.truncate_roots(rest.index());
            return Ok(flow);
        }
        let flow = apply_thunk(m, t, env, None)?;
        let v = must_value(flow);
        let truth = value::truth(&m.heap, v);
        m.heap.truncate_roots(base);
        if truth != is_and {
            // Short circuit: the deciding value is the result.
            m.heap.truncate_roots(rest.index());
            return Ok(Flow::Val(v));
        }
    }
}

/// `$&not {cmd}`.
pub fn not<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot, env: RootSlot) -> EsResult<Flow> {
    let base = m.heap.roots_len();
    let t = match arg_slot(m, args, 1) {
        Some(t) => t,
        None => {
            let v = value::false_value(&mut m.heap);
            return Ok(Flow::Val(v));
        }
    };
    let flow = apply_thunk(m, t, env, None)?;
    let v = must_value(flow);
    let truth = value::truth(&m.heap, v);
    m.heap.truncate_roots(base);
    let v = if truth {
        value::false_value(&mut m.heap)
    } else {
        value::true_value(&mut m.heap)
    };
    Ok(Flow::Val(v))
}

/// `$&throw name args...`.
pub fn throw<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot) -> EsResult<Flow> {
    let list = m.heap.root(args);
    if list.is_nil() {
        return Err(m.error("throw: missing exception name"));
    }
    Err(EsError::Throw(list))
}

/// `$&return args...` / `$&break args...` — unwind to the matching
/// boundary carrying a value.
pub fn unwind<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot, kind: &str) -> EsResult<Flow> {
    let mut b = ListBuilder::new(&mut m.heap);
    b.push_str(&mut m.heap, kind);
    let rest = m.heap.root(args);
    let thrown = b.finish_onto(&mut m.heap, rest);
    Err(EsError::Throw(m.heap.root(thrown)))
}

/// `$&catch handler body` — run body; on any exception run handler
/// with the exception as arguments; a `retry` from the handler re-runs
/// the body (exactly Figure 3's semantics).
pub fn catch<O: Os + Clone>(m: &mut Machine<O>, args: RootSlot, env: RootSlot) -> EsResult<Flow> {
    loop {
        let base = m.heap.roots_len();
        let body = match arg_slot(m, args, 2) {
            Some(b) => b,
            None => return Err(m.error("catch: usage: catch handler body")),
        };
        match apply_thunk(m, body, env, None) {
            Ok(flow) => {
                let v = must_value(flow);
                m.heap.truncate_roots(base);
                return Ok(Flow::Val(v));
            }
            Err(EsError::Throw(e)) => {
                let e_slot = m.heap.push_root(e);
                let handler = match arg_slot(m, args, 1) {
                    Some(h) => h,
                    None => return Err(m.error("catch: missing handler")),
                };
                let exc = m.heap.root(e_slot);
                match super::apply_thunk_with_args(m, handler, exc, env, None) {
                    Ok(flow) => {
                        let v = must_value(flow);
                        m.heap.truncate_roots(base);
                        return Ok(Flow::Val(v));
                    }
                    Err(EsError::Throw(r)) if throw_is(m, r, "retry") => {
                        m.heap.truncate_roots(base);
                        continue;
                    }
                    Err(other) => {
                        m.heap.truncate_roots(base);
                        return Err(other);
                    }
                }
            }
            Err(other) => {
                m.heap.truncate_roots(base);
                return Err(other);
            }
        }
    }
}

/// `$&eval args...` — flatten, parse, and run in the current scope.
pub fn eval_prim<O: Os + Clone>(
    m: &mut Machine<O>,
    args: RootSlot,
    env: RootSlot,
) -> EsResult<Flow> {
    let src = m.strings_at(args).join(" ");
    let node = match m.parse(&src) {
        Ok(node) => node,
        Err(e) => return Err(m.error(&format!("eval: parse error: {}", e.msg))),
    };
    m.push_input(Input::Text {
        src: src.clone(),
        pos: src.len(),
    });
    let result = crate::eval::eval_node(m, &node, env, None);
    m.pop_input();
    result
}
