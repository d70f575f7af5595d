//! The evaluator: core AST → values.
//!
//! Each control job happens in one place. [`apply_term`] decides how a
//! command's head is applied (a closure is called, a string resolved
//! as a command), whether the head came from a list, a definition, a
//! settor, a hook's result or a control primitive's thunk.
//! [`caught`] ends every body run under a `break`, `return` or `retry`
//! catcher. [`bind`] extends every lexical scope: `let`, `for`,
//! parameters, `$*`, `$0` and `%closure(…)` literals.
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
use crate::governor::Kind;
use crate::machine::{sym, Machine, NameBuf};
use crate::prims;
use crate::value::{self, ListBuilder};
use es_gc::{Obj, Ref, RootSlot, Sym};
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
///
/// A call whose head is a literal word or a `$&name` is resolved from
/// the tree: the head is neither put in the heap nor copied, and a
/// word's `fn-` symbol came with the tree.
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
            let flow = match exprs.split_first() {
                Some((Expr::Word(w), rest)) if w.prefixed_sym().is_some() => {
                    let fn_sym = Name::word(w).prefixed(m, "fn-");
                    let args = eval_exprs(m, rest, env, true)?;
                    apply_named(m, w.text(), fn_sym, args, env, tail, 0)?
                }
                Some((Expr::Prim(name), rest)) => {
                    let args = eval_exprs(m, rest, env, true)?;
                    prims::call(m, name, args, env, tail)?
                }
                _ => {
                    let list = eval_exprs(m, exprs, env, true)?;
                    apply_slot(m, list, env, tail)?
                }
            };
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
    let names = names(m, lhs, env)?;
    let values_slot = eval_exprs(m, values, env, false)?;
    if names.len() == 0 {
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
        let names = names(m, name_expr, chain)?;
        let name = names.single(m)?.intern(m);
        let inner = m.heap.roots_len();
        let value_slot = eval_exprs(m, value_exprs, chain, false)?;
        bind(m, chain, name, m.heap.root(value_slot));
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
    let mut staged: Vec<(Names, RootSlot)> = Vec::new();
    for (name_expr, value_exprs) in bindings {
        let names = names(m, name_expr, env)?;
        names.single(m)?;
        let value_slot = eval_exprs(m, value_exprs, env, false)?;
        staged.push((names, value_slot));
    }
    // Settors fire on dynamic binding too (harmlessly skipped when the
    // settor itself is dynamically nulled — that is exactly the
    // paper's set-path/set-PATH suppression trick).
    for (names, slot) in &staged {
        let name = names.single(m)?;
        let settor = name.prefixed(m, "set-");
        let transformed = run_settor(m, env, settor, *slot)?;
        let sym = name.intern(m);
        m.push_dynamic(sym, transformed);
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
    // Evaluate every list once, up front. Each list's slot is then a
    // cursor that advances one cell per iteration.
    let mut lists: Vec<(Sym, RootSlot)> = Vec::new();
    for (name_expr, value_exprs) in bindings {
        let names = names(m, name_expr, env)?;
        let name = names.single(m)?.intern(m);
        let slot = eval_exprs(m, value_exprs, env, false)?;
        lists.push((name, slot));
    }
    let result_slot = m.heap.push_root(Ref::NIL);
    while lists.iter().any(|(_, s)| !m.heap.root(*s).is_nil()) {
        crate::governor::charge(m)?;
        let iter_base = m.heap.roots_len();
        let chain = m.heap.push_root(m.heap.root(env));
        for (name, slot) in &lists {
            // An exhausted list binds its name to `()`.
            let value = next_value(m, *slot, false);
            bind(m, chain, *name, value);
        }
        let result = eval_node(m, body, chain, None);
        match caught(m, result, "break", iter_base)? {
            Ended::Value(v) => m.heap.set_root(result_slot, v),
            Ended::Caught(v) => {
                m.heap.set_root(result_slot, v);
                break;
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
    render_closures(m, subj_slot);
    let mut pats: Vec<MatchPattern> = Vec::new();
    for p in patterns {
        match p {
            // A word with no live metacharacter matches its own text.
            Expr::Word(w) if !w.has_live_glob() => pats.push(MatchPattern::Literal(w.text())),
            // Literal pattern words keep their quoting (so a quoted
            // `'*'` matches a literal star).
            Expr::Word(w) => pats.push(MatchPattern::Glob(Pattern::from_segments(&w.seg_refs()))),
            other => {
                let slot = eval_expr_rooted(m, other, env, false)?;
                for s in m.strings_at(slot) {
                    pats.push(MatchPattern::Glob(Pattern::parse(&s)));
                }
            }
        }
    }
    // The subjects are read where they lie; `render_closures` left
    // only strings.
    let mut cell = m.heap.root(subj_slot);
    let mut matched = cell.is_nil() && pats.is_empty();
    while !matched && !cell.is_nil() {
        let subject = m.heap.str_value(m.heap.pair_head(cell));
        matched = pats.iter().any(|p| p.matches(subject));
        cell = m.heap.pair_tail(cell);
    }
    m.heap.truncate_roots(base);
    let out = if matched {
        value::true_value(&mut m.heap)
    } else {
        value::false_value(&mut m.heap)
    };
    Ok(Flow::Val(out))
}

/// A `~` pattern.
enum MatchPattern<'e> {
    /// A word with no live metacharacter: its text, compared as is.
    Literal(&'e str),
    Glob(Pattern),
}

impl MatchPattern<'_> {
    fn matches(&self, subject: &str) -> bool {
        match self {
            MatchPattern::Literal(text) => *text == subject,
            MatchPattern::Glob(pattern) => pattern.matches(subject),
        }
    }
}

/// Replaces the list in `slot` by its strings if it holds a closure,
/// so that reading it later gives the text it had now: code still to
/// run (the other side of `^`, the patterns of `~`) may assign to a
/// variable the closure captured. Any other list is left in place.
fn render_closures<O: Os + Clone>(m: &mut Machine<O>, slot: RootSlot) {
    let mut cell = m.heap.root(slot);
    while !cell.is_nil() {
        if matches!(m.heap.get(m.heap.pair_head(cell)), Obj::Closure(..)) {
            let text = m.strings_at(slot);
            let refs: Vec<&str> = text.iter().map(String::as_str).collect();
            let list = value::list_from_strs(&mut m.heap, &refs);
            m.heap.set_root(slot, list);
            return;
        }
        cell = m.heap.pair_tail(cell);
    }
}

/// Truncates the scope, keeping a value flow's ref alive by re-rooting
/// is unnecessary: truncation never collects, and the caller roots the
/// returned ref before the next allocation.
pub(crate) fn pop_scope<O: Os + Clone>(m: &mut Machine<O>, base: usize, flow: Flow) -> Flow {
    m.heap.truncate_roots(base);
    flow
}

/// True if the exception list's first term is the string `name`.
fn throw_is<O: Os + Clone>(m: &Machine<O>, e: Ref, name: &str) -> bool {
    if e.is_nil() {
        return false;
    }
    let head = m.heap.pair_head(e);
    matches!(m.heap.get(head), Obj::Str(_)) && m.heap.str_value(head) == name
}

/// The names an expression in name position denotes: the target of a
/// `$`-reference, the left side of an assignment, or a `let`, `local`
/// or `for` name. A literal word lends its own text and the symbols
/// its tree was lowered with, so naming a variable copies nothing; any
/// other expression (`$$x`, `$(fn-$f)`) is evaluated, and its strings
/// are owned.
enum Names<'e> {
    Literal(&'e Word),
    Computed(Vec<String>),
}

impl Names<'_> {
    fn len(&self) -> usize {
        match self {
            Names::Literal(_) => 1,
            Names::Computed(names) => names.len(),
        }
    }

    fn iter(&self) -> impl Iterator<Item = Name<'_>> {
        let (word, texts) = match self {
            Names::Literal(w) => (Some(Name::word(w)), &[][..]),
            Names::Computed(names) => (None, names.as_slice()),
        };
        word.into_iter().chain(texts.iter().map(|t| Name {
            text: t,
            sym: None,
            pre: None,
        }))
    }

    /// The one name, for a binding form.
    fn single<O: Os + Clone>(&self, m: &mut Machine<O>) -> EsResult<Name<'_>> {
        match self.len() {
            1 => Ok(self.iter().next().expect("one name")),
            _ => Err(m.error("binding name must be a single word")),
        }
    }
}

/// One name in name position: its text, and the symbols the tree gave
/// a literal word (a computed name has none).
#[derive(Clone, Copy)]
struct Name<'a> {
    text: &'a str,
    /// The name's own symbol.
    sym: Option<u32>,
    /// Its `fn-` symbol for a call head, its `set-` one for an assigned
    /// or `local` name.
    pre: Option<u32>,
}

impl<'a> Name<'a> {
    fn word(w: &'a Word) -> Name<'a> {
        Name {
            text: w.text(),
            sym: w.sym(),
            pre: w.prefixed_sym(),
        }
    }

    /// The name's symbol, or `None` if it was never interned: then no
    /// variable has it.
    fn find<O: Os + Clone>(self, m: &Machine<O>) -> Option<Sym> {
        resolve(m, self.sym, "", self.text)
    }

    /// The symbol of `prefix` followed by the name, or `None` if it was
    /// never interned.
    fn prefixed<O: Os + Clone>(self, m: &Machine<O>, prefix: &str) -> Option<Sym> {
        resolve(m, self.pre, prefix, self.text)
    }

    /// The name's symbol, interned if it is new: what a binding or an
    /// assignment stores under.
    fn intern<O: Os + Clone>(self, m: &mut Machine<O>) -> Sym {
        match resolve(m, self.sym, "", self.text) {
            Some(sym) => sym,
            None => m.heap.intern("", self.text),
        }
    }
}

/// The symbol of `prefix` followed by `text`: `raw` if a tree gave it,
/// else the table's, if the name was ever interned. Debug builds check
/// a tree's symbol against the table's by-name search: a tree runs
/// only on the machine that lowered it, and its symbols must still be
/// that machine's.
fn resolve<O: Os + Clone>(
    m: &Machine<O>,
    raw: Option<u32>,
    prefix: &str,
    text: &str,
) -> Option<Sym> {
    let Some(raw) = raw else {
        return m.heap.find_sym(prefix, text);
    };
    let sym = Sym::from_raw(raw);
    debug_assert_eq!(
        m.heap.find_sym(prefix, text),
        Some(sym),
        "the tree's symbol for {prefix}{text} is not the table's"
    );
    Some(sym)
}

/// Evaluates `expr` in name position (see [`Names`]). A literal word
/// evaluates to exactly its text, so both forms name the same
/// variables.
fn names<'e, O: Os + Clone>(
    m: &mut Machine<O>,
    expr: &'e Expr,
    env: RootSlot,
) -> EsResult<Names<'e>> {
    if let Expr::Word(w) = expr {
        return Ok(Names::Literal(w));
    }
    let base = m.heap.roots_len();
    let slot = eval_expr_rooted(m, expr, env, false)?;
    let names = m.strings_at(slot);
    m.heap.truncate_roots(base);
    Ok(Names::Computed(names))
}

// ---------------------------------------------------------------------------
// Assignment.
// ---------------------------------------------------------------------------

/// Distributes `values` over `names` like parameter binding (leftover
/// values go to the last name) and assigns each, firing settors.
fn assign_distribute<O: Os + Clone>(
    m: &mut Machine<O>,
    env: RootSlot,
    names: &Names,
    values_slot: RootSlot,
) -> EsResult<()> {
    let n = names.len();
    let rest = m.heap.push_root(m.heap.root(values_slot));
    for (i, name) in names.iter().enumerate() {
        let base = m.heap.roots_len();
        let value = next_value(m, rest, i + 1 == n);
        let v_slot = m.heap.push_root(value);
        let settor = name.prefixed(m, "set-");
        let transformed = run_settor(m, env, settor, v_slot)?;
        let sym = name.intern(m);
        let env_ref = m.heap.root(env);
        m.assign_raw(env_ref, sym, transformed);
        m.heap.truncate_roots(base);
    }
    m.heap.truncate_roots(rest.index());
    Ok(())
}

/// The value the next of several names binds, taken from the values
/// under the cursor `rest`: for the last name, all of them (shared);
/// for any other, a one-term list of the next one, moving the cursor
/// on; `()` once they are used up.
fn next_value<O: Os + Clone>(m: &mut Machine<O>, rest: RootSlot, last: bool) -> Ref {
    let cell = m.heap.root(rest);
    if last || cell.is_nil() {
        return cell;
    }
    m.heap.set_root(rest, m.heap.pair_tail(cell));
    m.heap.alloc_pair(m.heap.pair_head(cell), Ref::NIL)
}

/// Runs the `set-name` settor, if any: applies it as a command with
/// the new value as arguments and returns its result as the value to
/// actually assign (paper, section "Settor Variables"). `settor` is
/// the symbol of `set-name`, `None` if it was never interned. Returns
/// the original value when no settor is set (or it is null).
pub fn run_settor<O: Os + Clone>(
    m: &mut Machine<O>,
    env: RootSlot,
    settor: Option<Sym>,
    value_slot: RootSlot,
) -> EsResult<Ref> {
    let settor = settor.and_then(|s| m.lookup(m.heap.root(env), s));
    let Some(settor) = settor.filter(|s| !s.is_nil()) else {
        return Ok(m.heap.root(value_slot));
    };
    let flow = apply_value(m, "<closure>", settor, value_slot, env, None, 0)?;
    Ok(must_value(flow))
}

// ---------------------------------------------------------------------------
// Expressions.
// ---------------------------------------------------------------------------

/// Evaluates an expression list, splicing results into one rooted
/// list; returns the slot holding it (inside the caller's scope).
///
/// A word (unless it is to be globbed) and a `$&name` are pushed
/// straight into the list. Any other expression's list is copied in,
/// except the last one's, which is linked on (see [`crate::value`]).
pub fn eval_exprs<O: Os + Clone>(
    m: &mut Machine<O>,
    exprs: &[Expr],
    env: RootSlot,
    glob: bool,
) -> EsResult<RootSlot> {
    let mut b = ListBuilder::new(&mut m.heap);
    for (i, e) in exprs.iter().enumerate() {
        match e {
            Expr::Word(w) if !(glob && w.has_live_glob()) => b.push_str(&mut m.heap, w.text()),
            Expr::Prim(name) => b.push_str(&mut m.heap, NameBuf::new(&["$&", name]).as_str()),
            _ => {
                let list = eval_expr(m, e, env, glob)?;
                if i + 1 == exprs.len() {
                    return Ok(b.finish_onto(&mut m.heap, list));
                }
                let slot = m.heap.push_root(list);
                b.append_slot(&mut m.heap, slot);
                m.heap.truncate_roots(slot.index());
            }
        }
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
                Ok(value::list_from_strs(&mut m.heap, &[w.text()]))
            }
        }
        Expr::Var(target) => var_value(m, target, env),
        Expr::VarCount(target) => {
            let names = names(m, target, env)?;
            let env_ref = m.heap.root(env);
            let count: usize = names
                .iter()
                .filter_map(|name| m.lookup(env_ref, name.find(m)?))
                .map(|v| value::list_len(&m.heap, v))
                .sum();
            Ok(value::list_from_strs(&mut m.heap, &[&count.to_string()]))
        }
        Expr::VarFlat(target) => {
            let base = m.heap.roots_len();
            let list = var_value(m, target, env)?;
            let slot = m.heap.push_root(list);
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
            let xs = eval_expr_rooted(m, a, env, false)?;
            render_closures(m, xs);
            let ys = eval_expr_rooted(m, b, env, false)?;
            let n = value::list_len(&m.heap, m.heap.root(xs));
            let n2 = value::list_len(&m.heap, m.heap.root(ys));
            if n > 1 && n2 > 1 && n != n2 {
                m.heap.truncate_roots(base);
                return Err(m.error(&format!("bad concatenation: {n} words and {n2} words")));
            }
            // `xs` and `ys` are cursors; a one-word side stays put.
            let count = if n == 0 || n2 == 0 { 0 } else { n.max(n2) };
            let mut out = ListBuilder::new(&mut m.heap);
            let mut word = String::new();
            for _ in 0..count {
                let (x, y) = (m.heap.root(xs), m.heap.root(ys));
                word.clear();
                word.push_str(&value::term_text(&m.heap, m.heap.pair_head(x)));
                word.push_str(&value::term_text(&m.heap, m.heap.pair_head(y)));
                out.push_str(&mut m.heap, &word);
                if n > 1 {
                    m.heap.set_root(xs, m.heap.pair_tail(m.heap.root(xs)));
                }
                if n2 > 1 {
                    m.heap.set_root(ys, m.heap.pair_tail(m.heap.root(ys)));
                }
            }
            let out = out.finish(&m.heap);
            m.heap.truncate_roots(base);
            Ok(out)
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
        Expr::Prim(name) => Ok(value::list_from_strs(
            &mut m.heap,
            &[NameBuf::new(&["$&", name]).as_str()],
        )),
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
                let name = m.heap.intern("", name);
                bind(m, chain, name, m.heap.root(slot));
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

/// The value of `$target`, behind `$x`, `$^x` and `$x(i)`: the values
/// of the target's names, spliced. A single bound name yields its list
/// itself, not a copy; lists are immutable once built (see
/// [`crate::value`]). An unbound all-digit name indexes `$*` (`$1` is
/// `$*(1)`).
fn var_value<O: Os + Clone>(m: &mut Machine<O>, target: &Expr, env: RootSlot) -> EsResult<Ref> {
    let names = names(m, target, env)?;
    let base = m.heap.roots_len();
    let mut b = ListBuilder::new(&mut m.heap);
    for name in names.iter() {
        match name.find(m).and_then(|s| m.lookup(m.heap.root(env), s)) {
            Some(v) if names.len() == 1 => {
                m.heap.truncate_roots(base);
                return Ok(v);
            }
            Some(v) => {
                let v_slot = m.heap.push_root(v);
                b.append_slot(&mut m.heap, v_slot);
                m.heap.truncate_roots(v_slot.index());
            }
            None => {
                let Ok(i) = name.text.parse::<usize>() else {
                    continue;
                };
                let star = m.lookup(m.heap.root(env), sym::STAR);
                if let Some(term) = star.and_then(|star| value::list_nth(&m.heap, star, i)) {
                    let t = m.heap.push_root(term);
                    let term = m.heap.root(t);
                    b.push(&mut m.heap, term);
                    m.heap.truncate_roots(t.index());
                }
            }
        }
    }
    let out = b.finish(&m.heap);
    m.heap.truncate_roots(base);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Application.
// ---------------------------------------------------------------------------

/// Applies the (rooted) list as a command: its head to its tail.
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
    let base = m.heap.roots_len();
    let args = m.heap.push_root(m.heap.pair_tail(list));
    let flow = apply_term(m, m.heap.pair_head(list), args, "<closure>", env, tail, 0)?;
    Ok(pop_scope(m, base, flow))
}

/// Applies one term as a command's head to the rooted `args`: a
/// closure is called with `$0` bound to `name`, a string is resolved
/// as a command by [`apply_named`], and anything else cannot be
/// applied. `hops` counts the definitions resolved to reach `term`.
/// Every application of a head, however the head was reached, is
/// decided here.
pub(crate) fn apply_term<O: Os + Clone>(
    m: &mut Machine<O>,
    term: Ref,
    args: RootSlot,
    name: &str,
    env: RootSlot,
    tail: Option<TailSlots>,
    hops: usize,
) -> EsResult<Flow> {
    match m.heap.get(term) {
        Obj::Closure(..) => {
            let base = m.heap.roots_len();
            let clo = m.heap.push_root(term);
            let flow = call_closure(m, clo, args, name, tail)?;
            Ok(pop_scope(m, base, flow))
        }
        Obj::Str(_) => {
            // Copied to the stack: the heap may move the string while
            // the command runs.
            let name = NameBuf::new(&[m.heap.str_value(term)]);
            apply_named(m, name.as_str(), None, args, env, tail, hops)
        }
        other => {
            let shape = format!("{other:?}");
            Err(m.error(&format!("cannot apply {shape}")))
        }
    }
}

/// Resolves and applies a command named by a string: primitives,
/// slash-paths, `fn-` variables, then `%pathsearch`. `fn_sym` is the
/// symbol of `fn-name` when the caller has it from a tree; otherwise
/// the name is resolved by its text. A primitive is called however
/// many definitions led to it; any other name past the 64th fails as
/// a definition loop.
fn apply_named<O: Os + Clone>(
    m: &mut Machine<O>,
    name: &str,
    fn_sym: Option<Sym>,
    args: RootSlot,
    env: RootSlot,
    tail: Option<TailSlots>,
    hops: usize,
) -> EsResult<Flow> {
    if let Some(prim) = name.strip_prefix("$&") {
        return prims::call(m, prim, args, env, tail);
    }
    if hops > 64 {
        return Err(m.error(&format!("function definition loop resolving {name}")));
    }
    if name.contains('/') {
        return run_external(m, name, args);
    }
    let fn_sym = fn_sym.or_else(|| m.heap.find_sym("fn-", name));
    let resolved = fn_sym.and_then(|s| m.lookup(m.heap.root(env), s));
    if let Some(value) = resolved.filter(|v| !v.is_nil()) {
        return apply_value(m, name, value, args, env, tail, hops + 1);
    }
    // Path search through the (spoofable) %pathsearch hook.
    let hook = (sym::FN_PATHSEARCH, "%pathsearch");
    let found = call_hook(m, hook, name, env, hops)?.filter(|p| !p.is_nil());
    let Some(path_list) = found else {
        return Err(m.error(&format!("{name}: command not found")));
    };
    let head = m.heap.pair_head(path_list);
    if m.heap.pair_tail(path_list).is_nil() && matches!(m.heap.get(head), Obj::Str(_)) {
        let path = NameBuf::new(&[m.heap.str_value(head)]);
        return run_external(m, path.as_str(), args);
    }
    // Anything else is a command prefix (lets %pathsearch rewrite
    // invocations).
    apply_value(m, "<closure>", path_list, args, env, tail, 0)
}

/// Applies `value`, the definition the command `name` resolved to
/// (unrooted, non-empty), to the rooted `args`, as `value ++ args`
/// would run. Every call that resolves a function, hooks and settors
/// included, comes here. A one-term definition is applied as it is (a
/// closure with `$0` bound to `name`); a longer one is spliced onto
/// the arguments. `hops` counts the definitions resolved to reach
/// `value`.
fn apply_value<O: Os + Clone>(
    m: &mut Machine<O>,
    name: &str,
    value: Ref,
    args: RootSlot,
    env: RootSlot,
    tail: Option<TailSlots>,
    hops: usize,
) -> EsResult<Flow> {
    if m.heap.pair_tail(value).is_nil() {
        return apply_term(m, m.heap.pair_head(value), args, name, env, tail, hops);
    }
    let base = m.heap.roots_len();
    let v_slot = m.heap.push_root(value);
    let mut b = ListBuilder::new(&mut m.heap);
    b.append_slot(&mut m.heap, v_slot);
    let args_list = m.heap.root(args);
    let list = b.finish_onto(&mut m.heap, args_list);
    let list = m.heap.root(list);
    let (head, rest) = (m.heap.pair_head(list), m.heap.pair_tail(list));
    let rest = m.heap.push_root(rest);
    let flow = apply_term(m, head, rest, "<closure>", env, tail, hops)?;
    Ok(pop_scope(m, base, flow))
}

/// Calls the hook `hook`, given as the symbol of `fn-<hook>` and its
/// name, on one word, as the command `hook word` would, and returns
/// its value; `None` when the hook is unbound. `hops` is the caller's
/// count of definitions resolved so far: a hook that names an unbound
/// command resolves through the hook again, and the count is what ends
/// that loop.
fn call_hook<O: Os + Clone>(
    m: &mut Machine<O>,
    (fn_sym, hook): (Sym, &str),
    word: &str,
    env: RootSlot,
    hops: usize,
) -> EsResult<Option<Ref>> {
    let Some(value) = m.lookup(m.heap.root(env), fn_sym).filter(|v| !v.is_nil()) else {
        return Ok(None);
    };
    let base = m.heap.roots_len();
    // Rooted first: building the argument list allocates.
    let v_slot = m.heap.push_root(value);
    let mut b = ListBuilder::new(&mut m.heap);
    b.push_str(&mut m.heap, word);
    let value = m.heap.root(v_slot);
    let flow = apply_value(m, hook, value, b.head_slot(), env, None, hops + 1)?;
    let out = must_value(flow);
    m.heap.truncate_roots(base);
    Ok(Some(out))
}

/// Applies the rooted closure `clo` to the rooted `args` with `$0`
/// bound to `name`. In tail position, with tail calls on, the closure
/// and its arguments go to the enclosing apply loop instead.
pub(crate) fn call_closure<O: Os + Clone>(
    m: &mut Machine<O>,
    clo: RootSlot,
    args: RootSlot,
    name: &str,
    tail: Option<TailSlots>,
) -> EsResult<Flow> {
    if let (Some((tc, ta)), true) = (tail, m.opts.tail_calls) {
        let c = m.heap.root(clo);
        m.heap.set_root(tc, c);
        let a = m.heap.root(args);
        m.heap.set_root(ta, a);
        return Ok(Flow::Tail);
    }
    apply_closure(m, clo, args, name)
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
    if let Some(max) = m.governor().limits().get(Kind::Depth) {
        let used = m.depth as u64;
        if used > max {
            // Unwinding pops frames, so depth falls back under the
            // limit by itself; the guard stays armed for next time.
            m.depth -= 1;
            return Err(crate::governor::breach(
                m,
                crate::governor::Kind::Depth,
                used,
                max,
            ));
        }
        crate::governor::soft_warn(m, crate::governor::Kind::Depth, used, max);
    }
    let result = apply_closure_inner(m, clo_slot, args_slot, name);
    m.depth -= 1;
    result
}

/// Binds `sym` to `value` (unrooted) onto the chain in `chain`: the
/// one way a lexical scope is extended.
pub(crate) fn bind<O: Os + Clone>(m: &mut Machine<O>, chain: RootSlot, sym: Sym, value: Ref) {
    let b = m.heap.alloc_binding(sym, value, m.heap.root(chain));
    m.heap.set_root(chain, b);
}

/// Binds `$*` to the list in `args` (when given) and then `$0` to
/// `name` onto the chain in `chain`: what a function call and `.`
/// bind for their body.
pub(crate) fn bind_invocation<O: Os + Clone>(
    m: &mut Machine<O>,
    chain: RootSlot,
    args: Option<RootSlot>,
    name: &str,
) {
    if let Some(args) = args {
        bind(m, chain, sym::STAR, m.heap.root(args));
    }
    let zero = m.heap.alloc_str(name);
    let zero = m.heap.alloc_pair(zero, Ref::NIL);
    bind(m, chain, sym::ZERO, zero);
}

/// How a body run under a catcher ended.
pub(crate) enum Ended {
    /// It finished with this value.
    Value(Ref),
    /// A throw of the caught kind carried this value out.
    Caught(Ref),
}

/// Ends a body run under a catcher for `kind` (`break`, `return`,
/// `retry`): drops the body's root scope, which began at `base`, and
/// gives the body's value, or the value a `kind` throw carried out.
/// Every other error passes on. Every catcher of those throws comes
/// here.
pub(crate) fn caught<O: Os + Clone>(
    m: &mut Machine<O>,
    result: EsResult<Flow>,
    kind: &str,
    base: usize,
) -> EsResult<Ended> {
    m.heap.truncate_roots(base);
    match result {
        Ok(flow) => Ok(Ended::Value(must_value(flow))),
        Err(EsError::Throw(e)) if throw_is(m, e, kind) => Ok(Ended::Caught(m.heap.pair_tail(e))),
        Err(other) => Err(other),
    }
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
    let mut catching = m.heap.closure_code(m.heap.root(clo_slot)).params.is_some();
    let base = m.heap.roots_len();
    // The trampoline's slots: current closure/args, plus the pair the
    // evaluator fills when it spots a tail call.
    let cur_clo = m.heap.push_root(m.heap.root(clo_slot));
    let cur_args = m.heap.push_root(m.heap.root(args_slot));
    let tail_clo = m.heap.push_root(Ref::NIL);
    let tail_args = m.heap.push_root(Ref::NIL);
    let mut invocation = name;
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
                let rest = m.heap.push_root(m.heap.root(cur_args));
                for (i, p) in params.iter().enumerate() {
                    let p = Name::word(p).intern(m);
                    let value = next_value(m, rest, i + 1 == n);
                    bind(m, chain, p, value);
                }
                let star = !params.iter().any(|p| p.text() == "*");
                bind_invocation(m, chain, star.then_some(cur_args), invocation);
            }
            None => {
                // A bare `{...}` thunk is transparent: `$*` (and
                // everything else) stays visible from the enclosing
                // scope. Explicit arguments, if any, do rebind `$*`.
                if !m.heap.root(cur_args).is_nil() {
                    bind(m, chain, sym::STAR, m.heap.root(cur_args));
                }
            }
        }
        let result = eval_node(m, &code.body, chain, Some((tail_clo, tail_args)));
        if let Ok(Flow::Tail) = result {
            // Rebind and iterate: this is the proper-tail-call.
            let c = m.heap.root(tail_clo);
            catching = catching || m.heap.closure_code(c).params.is_some();
            m.heap.set_root(cur_clo, c);
            let a = m.heap.root(tail_args);
            m.heap.set_root(cur_args, a);
            m.heap.set_root(tail_clo, Ref::NIL);
            m.heap.set_root(tail_args, Ref::NIL);
            invocation = "<tail>";
            m.heap.truncate_roots(iter_base);
            continue;
        }
        if !catching {
            // Not a `return` boundary: every throw passes on, so no
            // kind is caught (even an empty one would catch `throw ''`).
            m.heap.truncate_roots(base);
            return result;
        }
        let (Ended::Value(v) | Ended::Caught(v)) = caught(m, result, "return", base)?;
        return Ok(Flow::Val(v));
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
/// `fn-%glob` unbound.
pub(crate) fn glob_word<O: Os + Clone>(
    m: &mut Machine<O>,
    w: &Word,
    env: RootSlot,
) -> EsResult<Ref> {
    if let Some(out) = call_hook(m, (sym::FN_GLOB, "%glob"), w.text(), env, 0)? {
        return Ok(out);
    }
    let matches = glob_expand(m, w);
    if matches.is_empty() {
        // No match: the pattern stands for itself, as in the Bourne
        // shell.
        Ok(value::list_from_strs(&mut m.heap, &[w.text()]))
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
    // Split into path components on unquoted `/`; each component's
    // segments borrow the word's text.
    let mut components: Vec<Vec<(&str, bool)>> = vec![Vec::new()];
    for (mut rest, quoted) in word.segments() {
        if quoted {
            components
                .last_mut()
                .expect("components never empty")
                .push((rest, true));
            continue;
        }
        while let Some(i) = rest.find('/') {
            let (before, after) = rest.split_at(i);
            if !before.is_empty() {
                components
                    .last_mut()
                    .expect("components never empty")
                    .push((before, false));
            }
            components.push(Vec::new());
            rest = &after[1..];
        }
        if !rest.is_empty() {
            components
                .last_mut()
                .expect("components never empty")
                .push((rest, false));
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
        let pattern = Pattern::from_segments(comp);
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
    candidates.retain(|c| !c.is_empty() && (m.os().is_file(c) || m.os().is_dir(c)));
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
