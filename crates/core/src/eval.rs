//! The evaluator: core AST → values.
//!
//! Everything here is written against the copying collector's
//! discipline: any `Ref` held across an allocation must sit in a root
//! slot. Functions that return a `Ref` return it *unrooted*; the
//! caller roots it before allocating again. Root scopes are explicit:
//! save `heap.roots_len()`, truncate on exit.
//!
//! Tail calls: `eval_node` takes an optional pair of root slots owned
//! by the nearest [`apply_closure`] loop. When a call in tail position
//! resolves to a closure and `opts.tail_calls` is on, the evaluator
//! stores the closure and argument list into those slots and returns
//! [`Flow::Tail`]; the apply loop rebinds and iterates instead of
//! recursing. With `opts.tail_calls` off the evaluator recurses, which
//! is the 1993 behaviour whose "hidden costs" the paper laments (and
//! experiment E6 measures via [`crate::Machine::max_depth_seen`]).

use crate::exception::{EsError, EsResult};
use crate::machine::Machine;
use crate::prims;
use crate::value::{self, ListBuilder};
use es_gc::{Obj, Ref, RootSlot};
use es_match::Pattern;
use es_os::Os;
use es_syntax::ast::{Expr, Node, Word};

/// Evaluation outcome: a value, or a pending tail call (stored in the
/// apply loop's slots).
#[derive(Debug, Clone, Copy)]
pub enum Flow {
    /// A finished value (unrooted).
    Val(Ref),
    /// Tail slots were filled; the apply loop iterates.
    Tail,
}

/// Tail-call plumbing: `(closure_slot, args_slot, name_slot)` owned by
/// the innermost apply loop.
pub type TailSlots = (RootSlot, RootSlot);

/// Unwraps a value from a context where tails are impossible.
pub fn must_value(f: Flow) -> Ref {
    match f {
        Flow::Val(r) => r,
        Flow::Tail => unreachable!("tail flow escaped its apply loop"),
    }
}

/// Evaluates a core node.
///
/// Only `Call` and `Seq` are handled inline: every es call recurses
/// through this function at least twice (`apply_closure` → body `Seq`
/// → `Call`), so the other arms live in their own never-inlined
/// functions to keep this frame, and with it the Rust stack spent per
/// es call, small.
pub fn eval_node<O: Os + Clone>(
    m: &mut Machine<O>,
    node: &Node,
    env: RootSlot,
    tail: Option<TailSlots>,
) -> EsResult<Flow> {
    match node {
        Node::Call(exprs) => {
            crate::governor::charge(m)?;
            let base = m.heap.roots_len();
            let list = eval_exprs(m, exprs, env, true)?;
            let flow = apply_slot(m, list, env, tail)?;
            Ok(pop_scope(m, base, flow))
        }
        Node::Seq(nodes) => {
            let mut last = Flow::Val(Ref::NIL);
            for (i, n) in nodes.iter().enumerate() {
                let is_last = i + 1 == nodes.len();
                let node_tail = if is_last { tail } else { None };
                let flow = eval_node(m, n, env, node_tail)?;
                if is_last {
                    last = flow;
                } else {
                    let _ = must_value(flow);
                }
            }
            Ok(last)
        }
        Node::Assign(lhs, values) => eval_assign(m, lhs, values, env),
        Node::Let(bindings, body) => eval_let(m, bindings, body, env, tail),
        Node::Local(bindings, body) => eval_local(m, bindings, body, env),
        Node::For(bindings, body) => eval_for(m, bindings, body, env),
        Node::Match(subject, patterns) => eval_match(m, subject, patterns, env),
        Node::Pipe(..)
        | Node::Redir(..)
        | Node::AndAnd(..)
        | Node::OrOr(..)
        | Node::Bang(..)
        | Node::Background(..)
        | Node::FnDef(..)
        | Node::SurfaceSeq(..) => {
            Err(m.error("internal error: surface node reached the evaluator (missing lower())"))
        }
    }
}

/// `let`/`local`/`for` bindings: `(name, values)` pairs.
type Bindings = [(Expr, Vec<Expr>)];

#[inline(never)]
fn eval_assign<O: Os + Clone>(
    m: &mut Machine<O>,
    lhs: &Expr,
    values: &[Expr],
    env: RootSlot,
) -> EsResult<Flow> {
    let base = m.heap.roots_len();
    let names_list = eval_expr_rooted(m, lhs, env, false)?;
    let names = m.strings_at(names_list);
    let values_slot = eval_exprs(m, values, env, false)?;
    if names.is_empty() {
        m.heap.truncate_roots(base);
        return Err(m.error("assignment to empty name list"));
    }
    assign_distribute(m, env, &names, values_slot)?;
    let out = m.heap.root(values_slot);
    Ok(pop_scope(m, base, Flow::Val(out)))
}

#[inline(never)]
fn eval_let<O: Os + Clone>(
    m: &mut Machine<O>,
    bindings: &Bindings,
    body: &Node,
    env: RootSlot,
    tail: Option<TailSlots>,
) -> EsResult<Flow> {
    let base = m.heap.roots_len();
    let chain = m.heap.push_root(m.heap.root(env));
    for (name_expr, value_exprs) in bindings {
        let name = single_name(m, name_expr, chain)?;
        let inner = m.heap.roots_len();
        let value_slot = eval_exprs(m, value_exprs, chain, false)?;
        let value = m.heap.root(value_slot);
        m.note_binding(&name);
        let binding = m.heap.alloc_binding(&name, value, m.heap.root(chain));
        m.heap.set_root(chain, binding);
        m.heap.truncate_roots(inner);
    }
    // Tail propagates through let: the bindings live in the heap,
    // nothing needs unwinding here.
    let flow = eval_node(m, body, chain, tail)?;
    Ok(pop_scope(m, base, flow))
}

#[inline(never)]
fn eval_local<O: Os + Clone>(
    m: &mut Machine<O>,
    bindings: &Bindings,
    body: &Node,
    env: RootSlot,
) -> EsResult<Flow> {
    let base = m.heap.roots_len();
    let dyn_base = m.dynamics_len();
    // Evaluate all values in the outer scope first.
    let mut staged: Vec<(String, RootSlot)> = Vec::new();
    for (name_expr, value_exprs) in bindings {
        let name = single_name(m, name_expr, env)?;
        let value_slot = eval_exprs(m, value_exprs, env, false)?;
        staged.push((name, value_slot));
    }
    // Settors fire on dynamic binding too (harmlessly skipped when the
    // settor itself is dynamically nulled — that is exactly the
    // paper's set-path/set-PATH suppression trick).
    for (name, slot) in &staged {
        let transformed = run_settor(m, env, name, *slot)?;
        m.push_dynamic(name, transformed);
    }
    let result = eval_node(m, body, env, None);
    m.pop_dynamics(dyn_base);
    let flow = result?;
    let out = must_value(flow);
    Ok(pop_scope(m, base, Flow::Val(out)))
}

#[inline(never)]
fn eval_for<O: Os + Clone>(
    m: &mut Machine<O>,
    bindings: &Bindings,
    body: &Node,
    env: RootSlot,
) -> EsResult<Flow> {
    let base = m.heap.roots_len();
    // Evaluate every list once, up front.
    let mut lists: Vec<(String, RootSlot)> = Vec::new();
    for (name_expr, value_exprs) in bindings {
        let name = single_name(m, name_expr, env)?;
        let slot = eval_exprs(m, value_exprs, env, false)?;
        lists.push((name, slot));
    }
    let n = lists
        .iter()
        .map(|(_, s)| value::list_len(&m.heap, m.heap.root(*s)))
        .max()
        .unwrap_or(0);
    let result_slot = m.heap.push_root(Ref::NIL);
    for i in 1..=n {
        crate::governor::charge(m)?;
        let iter_base = m.heap.roots_len();
        let chain = m.heap.push_root(m.heap.root(env));
        for (name, slot) in &lists {
            let value = match value::list_nth(&m.heap, m.heap.root(*slot), i) {
                Some(term) => {
                    let t = m.heap.push_root(term);
                    m.heap.alloc_pair(m.heap.root(t), Ref::NIL)
                }
                None => Ref::NIL,
            };
            let v = m.heap.push_root(value);
            m.note_binding(name);
            let binding = m.heap.alloc_binding(name, m.heap.root(v), m.heap.root(chain));
            m.heap.set_root(chain, binding);
        }
        match eval_node(m, body, chain, None) {
            Ok(flow) => {
                let v = must_value(flow);
                m.heap.truncate_roots(iter_base);
                m.heap.set_root(result_slot, v);
            }
            Err(EsError::Throw(e)) if throw_is(m, e, "break") => {
                let v = m.heap.pair_tail(e);
                m.heap.truncate_roots(iter_base);
                m.heap.set_root(result_slot, v);
                break;
            }
            Err(other) => {
                m.heap.truncate_roots(iter_base);
                return Err(other);
            }
        }
    }
    let out = m.heap.root(result_slot);
    Ok(pop_scope(m, base, Flow::Val(out)))
}

#[inline(never)]
fn eval_match<O: Os + Clone>(
    m: &mut Machine<O>,
    subject: &Expr,
    patterns: &[Expr],
    env: RootSlot,
) -> EsResult<Flow> {
    let base = m.heap.roots_len();
    let subj_slot = eval_expr_rooted(m, subject, env, false)?;
    let subjects = m.strings_at(subj_slot);
    let mut pats: Vec<Pattern> = Vec::new();
    for p in patterns {
        match p {
            // Literal pattern words keep their quoting (so a quoted
            // `'*'` matches a literal star).
            Expr::Word(w) => pats.push(Pattern::from_segments(&w.seg_refs())),
            other => {
                let slot = eval_expr_rooted(m, other, env, false)?;
                for s in m.strings_at(slot) {
                    pats.push(Pattern::parse(&s));
                }
            }
        }
    }
    m.heap.truncate_roots(base);
    let matched = if subjects.is_empty() {
        pats.is_empty()
    } else {
        subjects.iter().any(|s| es_match::match_any(&pats, s))
    };
    let out = if matched {
        value::true_value(&mut m.heap)
    } else {
        value::false_value(&mut m.heap)
    };
    Ok(Flow::Val(out))
}

/// Truncates the scope, keeping a value flow's ref alive by re-rooting
/// is unnecessary: truncation never collects, and the caller roots the
/// returned ref before the next allocation.
pub(crate) fn pop_scope<O: Os + Clone>(m: &mut Machine<O>, base: usize, flow: Flow) -> Flow {
    m.heap.truncate_roots(base);
    flow
}

/// True if the exception list's first term is the string `name`.
pub fn throw_is<O: Os + Clone>(m: &Machine<O>, e: Ref, name: &str) -> bool {
    if e.is_nil() {
        return false;
    }
    matches!(m.heap.get(m.heap.pair_head(e)), Obj::Str(s) if &**s == name)
}

/// Evaluates a name expression that must denote exactly one name.
pub(crate) fn single_name<O: Os + Clone>(
    m: &mut Machine<O>,
    expr: &Expr,
    env: RootSlot,
) -> EsResult<String> {
    let base = m.heap.roots_len();
    let slot = eval_expr_rooted(m, expr, env, false)?;
    let names = m.strings_at(slot);
    m.heap.truncate_roots(base);
    match names.as_slice() {
        [one] => Ok(one.clone()),
        _ => Err(m.error("binding name must be a single word")),
    }
}

// ---------------------------------------------------------------------------
// Assignment.
// ---------------------------------------------------------------------------

/// Distributes `values` over `names` like parameter binding (leftover
/// values go to the last name) and assigns each, firing settors.
fn assign_distribute<O: Os + Clone>(
    m: &mut Machine<O>,
    env: RootSlot,
    names: &[String],
    values_slot: RootSlot,
) -> EsResult<()> {
    let n = names.len();
    for (i, name) in names.iter().enumerate() {
        let base = m.heap.roots_len();
        let value = if n == 1 {
            m.heap.root(values_slot)
        } else if i + 1 == n {
            nth_tail(m, m.heap.root(values_slot), i)
        } else {
            match value::list_nth(&m.heap, m.heap.root(values_slot), i + 1) {
                Some(term) => {
                    let t = m.heap.push_root(term);
                    m.heap.alloc_pair(m.heap.root(t), Ref::NIL)
                }
                None => Ref::NIL,
            }
        };
        let v_slot = m.heap.push_root(value);
        let transformed = run_settor(m, env, name, v_slot)?;
        let env_ref = m.heap.root(env);
        m.assign_raw(env_ref, name, transformed);
        m.heap.truncate_roots(base);
    }
    Ok(())
}

/// The i-th tail (0-based) of a list, shared (no copying).
fn nth_tail<O: Os + Clone>(m: &Machine<O>, mut list: Ref, mut i: usize) -> Ref {
    while i > 0 && !list.is_nil() {
        list = m.heap.pair_tail(list);
        i -= 1;
    }
    list
}

/// Runs the `set-name` settor, if any: applies it as a command with
/// the new value as arguments and returns its result as the value to
/// actually assign (paper, section "Settor Variables"). Returns the
/// original value when no settor is set (or it is null).
pub fn run_settor<O: Os + Clone>(
    m: &mut Machine<O>,
    env: RootSlot,
    name: &str,
    value_slot: RootSlot,
) -> EsResult<Ref> {
    let settor_name = format!("set-{name}");
    let settor = m.lookup(m.heap.root(env), &settor_name);
    let settor = match settor {
        Some(s) if !s.is_nil() => s,
        _ => return Ok(m.heap.root(value_slot)),
    };
    let base = m.heap.roots_len();
    let s_slot = m.heap.push_root(settor);
    let mut b = ListBuilder::new(&mut m.heap);
    b.append_slot(&mut m.heap, s_slot);
    b.append_slot(&mut m.heap, value_slot);
    let call_slot = b.head_slot();
    let flow = apply_slot(m, call_slot, env, None)?;
    let out = must_value(flow);
    m.heap.truncate_roots(base);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Expressions.
// ---------------------------------------------------------------------------

/// Evaluates an expression list, splicing results into one rooted
/// list; returns the slot holding it (inside the caller's scope).
pub fn eval_exprs<O: Os + Clone>(
    m: &mut Machine<O>,
    exprs: &[Expr],
    env: RootSlot,
    glob: bool,
) -> EsResult<RootSlot> {
    let mut b = ListBuilder::new(&mut m.heap);
    for e in exprs {
        let inner = m.heap.roots_len();
        let list = eval_expr(m, e, env, glob)?;
        let slot = m.heap.push_root(list);
        b.append_slot(&mut m.heap, slot);
        m.heap.truncate_roots(inner);
    }
    Ok(b.head_slot())
}

/// Evaluates one expression and roots the result; returns the slot.
pub fn eval_expr_rooted<O: Os + Clone>(
    m: &mut Machine<O>,
    expr: &Expr,
    env: RootSlot,
    glob: bool,
) -> EsResult<RootSlot> {
    let list = eval_expr(m, expr, env, glob)?;
    Ok(m.heap.push_root(list))
}

/// Evaluates one expression to an (unrooted) list.
pub fn eval_expr<O: Os + Clone>(
    m: &mut Machine<O>,
    expr: &Expr,
    env: RootSlot,
    glob: bool,
) -> EsResult<Ref> {
    match expr {
        Expr::Word(w) => {
            if glob && w.has_live_glob() {
                glob_word(m, w, env)
            } else {
                Ok(value::list_from_strs(&mut m.heap, &[&w.text()]))
            }
        }
        Expr::Var(target) => {
            let base = m.heap.roots_len();
            let names_slot = eval_expr_rooted(m, target, env, false)?;
            let names = m.strings_at(names_slot);
            let mut b = ListBuilder::new(&mut m.heap);
            for name in &names {
                let value = m.lookup(m.heap.root(env), name);
                match value {
                    Some(v) => {
                        let v_slot = m.heap.push_root(v);
                        b.append_slot(&mut m.heap, v_slot);
                        m.heap.truncate_roots(v_slot.index());
                    }
                    None => {
                        // Positional parameters: an unbound all-digit
                        // name indexes `$*` (`$1` is `$*(1)`).
                        if let Ok(i) = name.parse::<usize>() {
                            let star = m.lookup(m.heap.root(env), "*");
                            if let Some(star) = star {
                                if let Some(term) = value::list_nth(&m.heap, star, i) {
                                    let t = m.heap.push_root(term);
                                    let term = m.heap.root(t);
                                    b.push(&mut m.heap, term);
                                    m.heap.truncate_roots(t.index());
                                }
                            }
                        }
                    }
                }
            }
            let out = b.finish(&m.heap);
            m.heap.truncate_roots(base);
            Ok(out)
        }
        Expr::VarCount(target) => {
            let base = m.heap.roots_len();
            let names_slot = eval_expr_rooted(m, target, env, false)?;
            let names = m.strings_at(names_slot);
            let mut count = 0usize;
            for name in &names {
                if let Some(v) = m.lookup(m.heap.root(env), name) {
                    count += value::list_len(&m.heap, v);
                }
            }
            m.heap.truncate_roots(base);
            Ok(value::list_from_strs(&mut m.heap, &[&count.to_string()]))
        }
        Expr::VarFlat(target) => {
            let base = m.heap.roots_len();
            let var = Expr::Var(Box::new((**target).clone()));
            let slot = eval_expr_rooted(m, &var, env, false)?;
            let joined = m.strings_at(slot).join(" ");
            m.heap.truncate_roots(base);
            Ok(value::list_from_strs(&mut m.heap, &[&joined]))
        }
        Expr::VarSub(var, subs) => {
            let base = m.heap.roots_len();
            let value_slot = eval_expr_rooted(m, var, env, false)?;
            let mut indices = Vec::new();
            for s in subs {
                let slot = eval_expr_rooted(m, s, env, false)?;
                for text in m.strings_at(slot) {
                    match text.parse::<usize>() {
                        Ok(i) => indices.push(i),
                        Err(_) => {
                            m.heap.truncate_roots(base);
                            return Err(m.error(&format!("bad subscript: {text}")));
                        }
                    }
                }
            }
            let mut b = ListBuilder::new(&mut m.heap);
            for i in indices {
                if let Some(term) = value::list_nth(&m.heap, m.heap.root(value_slot), i) {
                    let t = m.heap.push_root(term);
                    let term = m.heap.root(t);
                    b.push(&mut m.heap, term);
                    m.heap.truncate_roots(t.index());
                }
            }
            let out = b.finish(&m.heap);
            m.heap.truncate_roots(base);
            Ok(out)
        }
        Expr::Concat(a, b) => {
            let base = m.heap.roots_len();
            let la_slot = eval_expr_rooted(m, a, env, false)?;
            let la = m.strings_at(la_slot);
            let lb_slot = eval_expr_rooted(m, b, env, false)?;
            let lb = m.strings_at(lb_slot);
            m.heap.truncate_roots(base);
            let combined: Vec<String> = match (la.len(), lb.len()) {
                (0, _) | (_, 0) => Vec::new(),
                (1, _) => lb.iter().map(|y| format!("{}{}", la[0], y)).collect(),
                (_, 1) => la.iter().map(|x| format!("{}{}", x, lb[0])).collect(),
                (n, m2) if n == m2 => la
                    .iter()
                    .zip(lb.iter())
                    .map(|(x, y)| format!("{x}{y}"))
                    .collect(),
                (n, m2) => {
                    return Err(m.error(&format!("bad concatenation: {n} words and {m2} words")))
                }
            };
            let refs: Vec<&str> = combined.iter().map(String::as_str).collect();
            Ok(value::list_from_strs(&mut m.heap, &refs))
        }
        Expr::List(items) => {
            let base = m.heap.roots_len();
            let slot = eval_exprs(m, items, env, glob)?;
            let out = m.heap.root(slot);
            m.heap.truncate_roots(base);
            Ok(out)
        }
        Expr::Lambda(code) => {
            let env_ref = m.heap.root(env);
            let clo = m.heap.alloc_closure(code.clone(), env_ref);
            let c = m.heap.push_root(clo);
            let out = m.heap.alloc_pair(m.heap.root(c), Ref::NIL);
            m.heap.truncate_roots(c.index());
            Ok(out)
        }
        Expr::Prim(name) => {
            Ok(value::list_from_strs(&mut m.heap, &[&format!("$&{name}")]))
        }
        Expr::CmdSub(node) => {
            let flow = eval_node(m, node, env, None)?;
            Ok(must_value(flow))
        }
        Expr::ClosureLit { bindings, lambda } => {
            let base = m.heap.roots_len();
            let chain = m.heap.push_root(Ref::NIL);
            // Binding values are literals; evaluate them in an empty
            // environment (they came from unparsing, where everything
            // was quoted or is itself a closure literal).
            let empty_env = m.heap.push_root(Ref::NIL);
            for (name, value_exprs) in bindings {
                let slot = eval_exprs(m, value_exprs, empty_env, false)?;
                let value = m.heap.root(slot);
                m.note_binding(name);
                let binding = m.heap.alloc_binding(name, value, m.heap.root(chain));
                m.heap.set_root(chain, binding);
            }
            let clo = m.heap.alloc_closure(lambda.clone(), m.heap.root(chain));
            let c = m.heap.push_root(clo);
            let out = m.heap.alloc_pair(m.heap.root(c), Ref::NIL);
            m.heap.truncate_roots(base);
            Ok(out)
        }
        Expr::Backquote(_) => {
            Err(m.error("internal error: backquote reached the evaluator (missing lower())"))
        }
    }
}

// ---------------------------------------------------------------------------
// Application.
// ---------------------------------------------------------------------------

/// Applies the (rooted) list as a command.
pub fn apply_slot<O: Os + Clone>(
    m: &mut Machine<O>,
    list_slot: RootSlot,
    env: RootSlot,
    tail: Option<TailSlots>,
) -> EsResult<Flow> {
    let list = m.heap.root(list_slot);
    if list.is_nil() {
        return Ok(Flow::Val(Ref::NIL));
    }
    let head = m.heap.pair_head(list);
    match m.heap.get(head) {
        Obj::Closure(..) => {
            let base = m.heap.roots_len();
            let clo = m.heap.push_root(head);
            let args = m.heap.push_root(m.heap.pair_tail(list));
            if let (Some((tc, ta)), true) = (tail, m.opts.tail_calls) {
                let c = m.heap.root(clo);
                m.heap.set_root(tc, c);
                let a = m.heap.root(args);
                m.heap.set_root(ta, a);
                m.heap.truncate_roots(base);
                return Ok(Flow::Tail);
            }
            let flow = apply_closure(m, clo, args, "<closure>")?;
            Ok(pop_scope(m, base, flow))
        }
        Obj::Str(s) => {
            let name = s.to_string();
            let base = m.heap.roots_len();
            let args = m.heap.push_root(m.heap.pair_tail(list));
            let flow = apply_named(m, &name, args, env, tail, 0)?;
            Ok(pop_scope(m, base, flow))
        }
        other => {
            let shape = format!("{other:?}");
            Err(m.error(&format!("cannot apply {shape}")))
        }
    }
}

/// Resolves and applies a command named by a string: primitives,
/// boot hooks while pristine, slash-paths, `fn-` variables, then
/// `%pathsearch`.
fn apply_named<O: Os + Clone>(
    m: &mut Machine<O>,
    name: &str,
    args: RootSlot,
    env: RootSlot,
    tail: Option<TailSlots>,
    hops: usize,
) -> EsResult<Flow> {
    if hops > 64 {
        return Err(m.error(&format!("function definition loop resolving {name}")));
    }
    if let Some(prim) = name.strip_prefix("$&") {
        return prims::call(m, prim, args, env, tail);
    }
    // While the hook generation says no `fn-%*` binding has changed
    // since boot, a boot hook provably still means its primitive:
    // dispatch straight to it instead of looking up `fn-%hook` and
    // splicing `$&prim ++ args`. The arguments have already run, so a
    // spoof made while evaluating them is seen here.
    if name.starts_with('%') && m.hooks_pristine() {
        if let Some(prim) = prims::hook_prim(name) {
            return prims::call(m, prim, args, env, tail);
        }
    }
    if name.contains('/') {
        return run_external(m, name, args);
    }
    let fn_name = format!("fn-{name}");
    let resolved = m.lookup(m.heap.root(env), &fn_name);
    match resolved {
        Some(value) if !value.is_nil() => {
            let base = m.heap.roots_len();
            let v_slot = m.heap.push_root(value);
            // Single-closure definitions (the common case) apply
            // directly, binding $0 to the invocation name.
            let value = m.heap.root(v_slot);
            let head = m.heap.pair_head(value);
            let rest = m.heap.pair_tail(value);
            if matches!(m.heap.get(head), Obj::Closure(..)) && rest.is_nil() {
                let clo = m.heap.push_root(head);
                if let (Some((tc, ta)), true) = (tail, m.opts.tail_calls) {
                    let c = m.heap.root(clo);
                    m.heap.set_root(tc, c);
                    let a = m.heap.root(args);
                    m.heap.set_root(ta, a);
                    m.heap.truncate_roots(base);
                    return Ok(Flow::Tail);
                }
                let flow = apply_closure(m, clo, args, name)?;
                return Ok(pop_scope(m, base, flow));
            }
            // General case: splice `value ++ args` and re-apply.
            let mut b = ListBuilder::new(&mut m.heap);
            b.append_slot(&mut m.heap, v_slot);
            b.append_slot(&mut m.heap, args);
            let new_list = b.head_slot();
            let new_head = m.heap.pair_head(m.heap.root(new_list));
            let flow = match m.heap.get(new_head) {
                Obj::Str(s) => {
                    let next_name = s.to_string();
                    let new_args = m.heap.push_root(m.heap.pair_tail(m.heap.root(new_list)));
                    apply_named(m, &next_name, new_args, env, tail, hops + 1)?
                }
                _ => apply_slot(m, new_list, env, tail)?,
            };
            Ok(pop_scope(m, base, flow))
        }
        _ => {
            // Path search through the (spoofable) %pathsearch hook.
            // While the hook generation says no `fn-%*` binding has
            // changed since boot, `fn-%pathsearch` provably still
            // means the bare primitive: dispatch straight to it.
            let base = m.heap.roots_len();
            let flow = if m.hooks_pristine() {
                let mut b = ListBuilder::new(&mut m.heap);
                b.push_str(&mut m.heap, name);
                prims::call(m, "pathsearch", b.head_slot(), env, None)?
            } else {
                let hook = m.lookup(m.heap.root(env), "fn-%pathsearch");
                let hook = match hook {
                    Some(h) if !h.is_nil() => h,
                    _ => {
                        m.heap.truncate_roots(base);
                        return Err(m.error(&format!("{name}: command not found")));
                    }
                };
                let h_slot = m.heap.push_root(hook);
                let mut b = ListBuilder::new(&mut m.heap);
                b.append_slot(&mut m.heap, h_slot);
                b.push_str(&mut m.heap, name);
                apply_slot(m, b.head_slot(), env, None)?
            };
            let path_list = must_value(flow);
            let p_slot = m.heap.push_root(path_list);
            let terms = m.terms_at(p_slot);
            let only_str = match terms.as_slice() {
                [crate::value::Term::Str(s)] => Some(s.clone()),
                _ => None,
            };
            let flow = match (only_str, terms.len()) {
                (Some(path), _) => run_external(m, &path, args)?,
                (None, 0) => return Err(m.error(&format!("{name}: command not found"))),
                _ => {
                    // A multi-word result is treated as a command
                    // prefix (lets %pathsearch rewrite invocations).
                    let mut b = ListBuilder::new(&mut m.heap);
                    b.append_slot(&mut m.heap, p_slot);
                    b.append_slot(&mut m.heap, args);
                    apply_slot(m, b.head_slot(), env, tail)?
                }
            };
            Ok(pop_scope(m, base, flow))
        }
    }
}

/// Applies a closure: binds parameters lexically (one-to-one,
/// leftovers to the last parameter, missing → null; `$*` is always the
/// full argument list and `$0` the invocation name), then evaluates the
/// body. The loop here *is* the proper-tail-call trampoline.
pub fn apply_closure<O: Os + Clone>(
    m: &mut Machine<O>,
    clo_slot: RootSlot,
    args_slot: RootSlot,
    name: &str,
) -> EsResult<Flow> {
    m.depth += 1;
    m.max_depth_seen = m.max_depth_seen.max(m.depth);
    if let Some(max) = m.governor().limits().depth {
        let used = m.depth as u64;
        if used > max {
            // Unwinding pops frames, so depth falls back under the
            // limit by itself; the guard stays armed for next time.
            m.depth -= 1;
            return Err(crate::governor::breach(m, crate::governor::Kind::Depth, used, max));
        }
        crate::governor::soft_warn(m, crate::governor::Kind::Depth, used, max);
    }
    let result = apply_closure_inner(m, clo_slot, args_slot, name);
    m.depth -= 1;
    result
}

fn apply_closure_inner<O: Os + Clone>(
    m: &mut Machine<O>,
    clo_slot: RootSlot,
    args_slot: RootSlot,
    name: &str,
) -> EsResult<Flow> {
    // Only function-form closures (named params or `@ *`) are
    // `return` boundaries; a bare `{...}` block is transparent, so
    // `return` inside it exits the enclosing *function*, as users
    // expect from `if {...} {return}`-style code. The boundary is
    // sticky across the tail-call trampoline: once any frame in the
    // (merged) tail chain is a function form, the chain catches.
    let mut catching = m
        .heap
        .closure_code(m.heap.root(clo_slot))
        .params
        .is_some();
    let base = m.heap.roots_len();
    // The trampoline's slots: current closure/args, plus the pair the
    // evaluator fills when it spots a tail call.
    let cur_clo = m.heap.push_root(m.heap.root(clo_slot));
    let cur_args = m.heap.push_root(m.heap.root(args_slot));
    let tail_clo = m.heap.push_root(Ref::NIL);
    let tail_args = m.heap.push_root(Ref::NIL);
    let mut invocation = name.to_string();
    loop {
        let code = m.heap.closure_code(m.heap.root(cur_clo)).clone();
        let captured = m.heap.closure_bindings(m.heap.root(cur_clo));
        let iter_base = m.heap.roots_len();
        let chain = m.heap.push_root(captured);
        match &code.params {
            Some(params) => {
                // A function-form closure: bind named parameters
                // one-to-one (leftovers to the last), plus `$*` (the
                // full argument list) and `$0` (the invocation name).
                let n = params.len();
                for (i, p) in params.iter().enumerate() {
                    let value = if i + 1 == n {
                        nth_tail(m, m.heap.root(cur_args), i)
                    } else {
                        match value::list_nth(&m.heap, m.heap.root(cur_args), i + 1) {
                            Some(term) => {
                                let t = m.heap.push_root(term);
                                m.heap.alloc_pair(m.heap.root(t), Ref::NIL)
                            }
                            None => Ref::NIL,
                        }
                    };
                    let v = m.heap.push_root(value);
                    m.note_binding(p);
                    let b = m.heap.alloc_binding(p, m.heap.root(v), m.heap.root(chain));
                    m.heap.set_root(chain, b);
                }
                if !params.iter().any(|p| p == "*") {
                    let b = m
                        .heap
                        .alloc_binding("*", m.heap.root(cur_args), m.heap.root(chain));
                    m.heap.set_root(chain, b);
                }
                let zero = m.heap.alloc_str(&invocation);
                let z = m.heap.push_root(zero);
                let zl = m.heap.alloc_pair(m.heap.root(z), Ref::NIL);
                let zs = m.heap.push_root(zl);
                let b = m.heap.alloc_binding("0", m.heap.root(zs), m.heap.root(chain));
                m.heap.set_root(chain, b);
            }
            None => {
                // A bare `{...}` thunk is transparent: `$*` (and
                // everything else) stays visible from the enclosing
                // scope. Explicit arguments, if any, do rebind `$*`.
                if !m.heap.root(cur_args).is_nil() {
                    let b = m
                        .heap
                        .alloc_binding("*", m.heap.root(cur_args), m.heap.root(chain));
                    m.heap.set_root(chain, b);
                }
            }
        }

        match eval_node(m, &code.body, chain, Some((tail_clo, tail_args))) {
            Ok(Flow::Tail) => {
                // Rebind and iterate: this is the proper-tail-call.
                let c = m.heap.root(tail_clo);
                catching = catching || m.heap.closure_code(c).params.is_some();
                m.heap.set_root(cur_clo, c);
                let a = m.heap.root(tail_args);
                m.heap.set_root(cur_args, a);
                m.heap.set_root(tail_clo, Ref::NIL);
                m.heap.set_root(tail_args, Ref::NIL);
                invocation = "<tail>".to_string();
                m.heap.truncate_roots(iter_base);
                continue;
            }
            Ok(Flow::Val(v)) => {
                m.heap.truncate_roots(base);
                return Ok(Flow::Val(v));
            }
            Err(EsError::Throw(e)) if catching && throw_is(m, e, "return") => {
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

/// Runs an external program: argv = path + flattened args, the current
/// environment encoding, and the shell's fd layout.
pub fn run_external<O: Os + Clone>(
    m: &mut Machine<O>,
    path: &str,
    args: RootSlot,
) -> EsResult<Flow> {
    let mut argv = vec![path.to_string()];
    argv.extend(m.strings_at(args));
    let envs = crate::env::build_environment(m);
    let fds = m.fd_layout();
    // Bounded EINTR retry: the fault layer injects interrupts before
    // the child runs, so re-issuing the whole exec is safe.
    match es_os::retry_intr(|| m.os_mut().run(&argv, &envs, &fds)) {
        Ok(status) => {
            let v = value::status_value(&mut m.heap, status);
            Ok(Flow::Val(v))
        }
        Err(e) => Err(m.error(&format!("{path}: {}", e.strerror()))),
    }
}

// ---------------------------------------------------------------------------
// Glob expansion.
// ---------------------------------------------------------------------------

/// Expands one word with live glob metacharacters to a value list.
///
/// The paper's Future Work: "The most notable of [the missing hooks]
/// is the wildcard expansion". This reproduction exposes it: if
/// `fn-%glob` is defined, expansion is delegated to it (pattern text
/// as the argument); otherwise the built-in expansion runs, which
/// "behaves identically to that in traditional shells". Boot leaves
/// `fn-%glob` unbound, so while the hook generation says no `fn-%*`
/// binding has ever changed, the per-word lookup is skipped entirely.
pub(crate) fn glob_word<O: Os + Clone>(
    m: &mut Machine<O>,
    w: &Word,
    env: RootSlot,
) -> EsResult<Ref> {
    if !m.hooks_pristine() {
        let hook = m.lookup(m.heap.root(env), "fn-%glob");
        if let Some(h) = hook {
            if !h.is_nil() {
                let base = m.heap.roots_len();
                let h_slot = m.heap.push_root(h);
                let mut b = ListBuilder::new(&mut m.heap);
                b.append_slot(&mut m.heap, h_slot);
                b.push_str(&mut m.heap, &w.text());
                let flow = apply_slot(m, b.head_slot(), env, None)?;
                let out = must_value(flow);
                m.heap.truncate_roots(base);
                return Ok(out);
            }
        }
    }
    let matches = glob_expand(m, w);
    if matches.is_empty() {
        // No match: the pattern stands for itself, as in the Bourne
        // shell.
        Ok(value::list_from_strs(&mut m.heap, &[&w.text()]))
    } else {
        let refs: Vec<&str> = matches.iter().map(String::as_str).collect();
        Ok(value::list_from_strs(&mut m.heap, &refs))
    }
}

/// Expands a word with live metacharacters against the filesystem.
/// `*`/`?` do not match a leading dot unless the pattern component
/// spells it, and matches come back sorted (directory order is
/// already sorted by the kernel).
pub fn glob_expand<O: Os + Clone>(m: &mut Machine<O>, word: &Word) -> Vec<String> {
    // Split into path components on unquoted `/`.
    let mut components: Vec<Vec<(String, bool)>> = vec![Vec::new()];
    for seg in &word.segs {
        let mut rest = seg.text.as_str();
        if seg.quoted {
            components
                .last_mut()
                .expect("components never empty")
                .push((rest.to_string(), true));
            continue;
        }
        while let Some(i) = rest.find('/') {
            let (before, after) = rest.split_at(i);
            if !before.is_empty() {
                components
                    .last_mut()
                    .expect("components never empty")
                    .push((before.to_string(), false));
            }
            components.push(Vec::new());
            rest = &after[1..];
        }
        if !rest.is_empty() {
            components
                .last_mut()
                .expect("components never empty")
                .push((rest.to_string(), false));
        }
    }
    let absolute = word.text().starts_with('/');
    if absolute {
        components.remove(0);
    }
    let mut candidates: Vec<String> = vec![if absolute {
        "/".to_string()
    } else {
        String::new()
    }];
    for comp in &components {
        if comp.is_empty() {
            continue;
        }
        let seg_refs: Vec<(&str, bool)> = comp
            .iter()
            .map(|(t, q)| (t.as_str(), *q))
            .collect();
        let pattern = Pattern::from_segments(&seg_refs);
        let literal_dot = comp
            .first()
            .map(|(t, _)| t.starts_with('.'))
            .unwrap_or(false);
        let mut next = Vec::new();
        if let Some(lit) = pattern.as_literal() {
            for c in &candidates {
                next.push(join_path(c, &lit));
            }
        } else {
            for c in &candidates {
                let dir = if c.is_empty() { "." } else { c.as_str() };
                let entries = match m.os().read_dir(dir) {
                    Ok(e) => e,
                    Err(_) => continue,
                };
                for name in entries {
                    if name.starts_with('.') && !literal_dot {
                        continue;
                    }
                    if pattern.matches(&name) {
                        next.push(join_path(c, &name));
                    }
                }
            }
        }
        candidates = next;
    }
    candidates.retain(|c| {
        !c.is_empty() && (m.os().is_file(c) || m.os().is_dir(c))
    });
    candidates.sort();
    candidates.dedup();
    candidates
}

fn join_path(base: &str, name: &str) -> String {
    if base.is_empty() {
        name.to_string()
    } else if base == "/" {
        format!("/{name}")
    } else {
        format!("{base}/{name}")
    }
}
