//! The sugar→core transformation.
//!
//! Every surface construct becomes a call on a `%`-prefixed hook
//! function, exactly the rewriting the paper describes ("es's shell
//! syntax is just a front for calls on built-in functions"):
//!
//! | surface                  | core                                  |
//! |--------------------------|---------------------------------------|
//! | `cmd > f`                | `%create 1 f {cmd}`                   |
//! | `cmd >> f`               | `%append 1 f {cmd}`                   |
//! | `cmd < f`                | `%open 0 f {cmd}`                     |
//! | `cmd >[a=b]`             | `%dup a b {cmd}`                      |
//! | `cmd >[a=]`              | `%close a {cmd}`                      |
//! | `cmd << text`            | `%here 0 text {cmd}`                  |
//! | `a \| b \| c`            | `%pipe {a} 1 0 {b} 1 0 {c}`           |
//! | `a && b`                 | `%and {a} {b}`                        |
//! | `a \|\| b`               | `%or {a} {b}`                         |
//! | `! a`                    | `%not {a}`                            |
//! | `a &`                    | `%background {a}`                     |
//! | `a ; b` (inside braces)  | `%seq {a} {b}`                        |
//! | `` `{a} ``               | `<>{%backquote {a}}`                  |
//! | `fn f p { b }`           | `fn-f = @ p { b }`                    |
//! | `fn f`                   | `fn-f = ()`                           |
//!
//! Each hook defaults (in `initial.es`) to an unoverridable `$&`
//! primitive and can be *spoofed* by assignment, which is the paper's
//! central extensibility mechanism.
//!
//! The *top-level* sequence of a program stays a core `Seq` node: the
//! original interpreter also evaluates top-level commands one at a
//! time (the REPL parses and runs line by line), and `initial.es`
//! could not otherwise bind `fn-%seq` in the first place.

use crate::ast::{Expr, Lambda, Node, Redirect, Word, NO_SYM};
use std::iter;
use std::rc::Rc;

/// Lowers a parsed program to the core language. Idempotent on core
/// nodes.
///
/// The tree is lowered in place: a core node keeps its vectors and
/// boxes, and only a surface node is rebuilt, as the hook call that
/// replaces it. A lambda the tree alone holds is lowered where it is;
/// one shared with another tree is cloned first (`Rc::make_mut`),
/// leaving that tree as it was. So lowering an already-core tree
/// allocates nothing.
pub fn lower(node: Node) -> Node {
    lower_with(node, &mut |_, _| NO_SYM)
}

/// Lowers like [`lower`], and gives each word in a name position the
/// symbols its interpreter resolves, in the same walk: `intern(prefix,
/// name)` returns the symbol of `prefix` followed by `name`.
///
/// | position                                  | [`Word::sym`] | [`Word::prefixed_sym`] |
/// |-------------------------------------------|---------------|------------------------|
/// | literal call head (no live glob)          |               | `fn-` head             |
/// | assigned name (`x = ...`), `local` name   | name          | `set-` name            |
/// | `let` or `for` name, lambda parameter     | name          |                        |
/// | target of `$`, `$#`, `$^`                 | name          |                        |
///
/// A computed name (`$$x`, `fn-$f = ...`) has no word to carry its
/// symbol; the interpreter resolves its text when it runs.
pub fn lower_with(mut node: Node, intern: &mut dyn FnMut(&str, &str) -> u32) -> Node {
    lower_node(&mut node, true, intern);
    node
}

/// The interner [`lower_with`] threads through the walk.
type Intern<'a> = dyn FnMut(&str, &str) -> u32 + 'a;

/// The head word of a hook call, with its `fn-` symbol.
fn hook(name: &str, intern: &mut Intern) -> Expr {
    let mut w = Word::bare(name);
    w.pre = intern("fn-", name);
    Expr::Word(w)
}

fn fd_word(fd: u32) -> Expr {
    Expr::Word(Word::bare(fd.to_string()))
}

fn thunk(body: Node) -> Expr {
    Expr::Lambda(Rc::new(Lambda { params: None, body }))
}

/// Moves a node out, leaving the empty program (which allocates
/// nothing).
fn take(node: &mut Node) -> Node {
    std::mem::replace(node, Node::empty())
}

/// `node`, lowered below the top level.
fn lowered(mut node: Node, intern: &mut Intern) -> Node {
    lower_node(&mut node, false, intern);
    node
}

/// `%name {a} {b} ...`: a hook call on thunks of the lowered `parts`.
fn hook_thunks(
    name: &str,
    parts: impl ExactSizeIterator<Item = Node>,
    intern: &mut Intern,
) -> Node {
    let mut call = Vec::with_capacity(parts.len() + 1);
    call.push(hook(name, intern));
    call.extend(parts.map(|n| thunk(lowered(n, intern))));
    Node::Call(call)
}

/// Gives a literal name its symbol, and with `prefix`, its prefixed
/// symbol too. A computed name is left to the interpreter.
fn name_syms(name: &mut Expr, prefix: Option<&str>, intern: &mut Intern) {
    if let Expr::Word(w) = name {
        w.sym = intern("", &w.text);
        if let Some(prefix) = prefix {
            w.pre = intern(prefix, &w.text);
        }
    }
}

fn lower_node(node: &mut Node, top: bool, intern: &mut Intern) {
    match node {
        Node::Call(exprs) => {
            exprs.iter_mut().for_each(|e| lower_expr(e, intern));
            if let Some(Expr::Word(w)) = exprs.first_mut() {
                if !w.has_live_glob() {
                    w.pre = intern("fn-", &w.text);
                }
            }
        }
        Node::Assign(lhs, values) => {
            lower_expr(lhs, intern);
            name_syms(lhs, Some("set-"), intern);
            values.iter_mut().for_each(|e| lower_expr(e, intern));
        }
        Node::Let(bindings, body) | Node::For(bindings, body) => {
            lower_bindings(bindings, None, intern);
            lower_node(body, false, intern);
        }
        Node::Local(bindings, body) => {
            lower_bindings(bindings, Some("set-"), intern);
            lower_node(body, false, intern);
        }
        Node::Match(subject, patterns) => {
            lower_expr(subject, intern);
            patterns.iter_mut().for_each(|e| lower_expr(e, intern));
        }
        Node::Seq(nodes) => nodes.iter_mut().for_each(|n| lower_node(n, top, intern)),
        // ----- surface forms -------------------------------------------------
        Node::SurfaceSeq(nodes) if top => {
            // Top level: evaluate commands one at a time natively.
            nodes.iter_mut().for_each(|n| lower_node(n, true, intern));
            *node = Node::Seq(std::mem::take(nodes));
        }
        Node::SurfaceSeq(nodes) => {
            *node = hook_thunks("%seq", std::mem::take(nodes).into_iter(), intern)
        }
        Node::Pipe(segments, fds) => {
            // `{s1} out1 in1 {s2} out2 in2 {s3} ...` — the variadic
            // shape Figure 1's recursive `%pipe` spoof expects.
            let mut call = Vec::with_capacity(3 * segments.len());
            call.push(hook("%pipe", intern));
            let mut segs = std::mem::take(segments).into_iter();
            if let Some(first) = segs.next() {
                call.push(thunk(lowered(first, intern)));
            }
            for (seg, &mut (out, inp)) in segs.zip(fds) {
                call.push(fd_word(out));
                call.push(fd_word(inp));
                call.push(thunk(lowered(seg, intern)));
            }
            *node = Node::Call(call);
        }
        Node::Redir(redirs, inner) => {
            let mut result = lowered(take(inner), intern);
            for r in std::mem::take(redirs).into_iter().rev() {
                result = lower_redirect(r, result, intern);
            }
            *node = result;
        }
        Node::AndAnd(parts) => {
            *node = hook_thunks("%and", std::mem::take(parts).into_iter(), intern)
        }
        Node::OrOr(parts) => *node = hook_thunks("%or", std::mem::take(parts).into_iter(), intern),
        Node::Bang(inner) => *node = hook_thunks("%not", iter::once(take(inner)), intern),
        Node::Background(inner) => {
            *node = hook_thunks("%background", iter::once(take(inner)), intern)
        }
        Node::FnDef(name, lambda) => {
            let mut name = std::mem::replace(name, Expr::List(Vec::new()));
            lower_expr(&mut name, intern);
            let lhs = Expr::Concat(Box::new(Expr::Word(Word::quoted("fn-"))), Box::new(name));
            let values = match lambda.take() {
                Some(mut l) => {
                    lower_lambda(&mut l, intern);
                    vec![Expr::Lambda(l)]
                }
                None => Vec::new(),
            };
            *node = Node::Assign(lhs, values);
        }
    }
}

fn lower_redirect(r: Redirect, inner: Node, intern: &mut Intern) -> Node {
    let file = |mut file: Expr, intern: &mut Intern| {
        lower_expr(&mut file, intern);
        file
    };
    let call = match r {
        Redirect::Create(fd, f) => {
            vec![
                hook("%create", intern),
                fd_word(fd),
                file(f, intern),
                thunk(inner),
            ]
        }
        Redirect::Append(fd, f) => {
            vec![
                hook("%append", intern),
                fd_word(fd),
                file(f, intern),
                thunk(inner),
            ]
        }
        Redirect::Open(fd, f) => {
            vec![
                hook("%open", intern),
                fd_word(fd),
                file(f, intern),
                thunk(inner),
            ]
        }
        Redirect::Dup(a, b) => vec![hook("%dup", intern), fd_word(a), fd_word(b), thunk(inner)],
        Redirect::Close(fd) => vec![hook("%close", intern), fd_word(fd), thunk(inner)],
        Redirect::Here(fd, text) => vec![
            hook("%here", intern),
            fd_word(fd),
            Expr::Word(Word::quoted(text)),
            thunk(inner),
        ],
    };
    Node::Call(call)
}

fn lower_bindings(bindings: &mut [(Expr, Vec<Expr>)], prefix: Option<&str>, intern: &mut Intern) {
    for (name, values) in bindings {
        lower_expr(name, intern);
        name_syms(name, prefix, intern);
        values.iter_mut().for_each(|e| lower_expr(e, intern));
    }
}

fn lower_expr(expr: &mut Expr, intern: &mut Intern) {
    match expr {
        Expr::Word(_) | Expr::Prim(_) => {}
        Expr::Var(t) | Expr::VarCount(t) | Expr::VarFlat(t) => {
            lower_expr(t, intern);
            name_syms(t, None, intern);
        }
        Expr::VarSub(t, subs) => {
            lower_expr(t, intern);
            subs.iter_mut().for_each(|e| lower_expr(e, intern));
        }
        Expr::Concat(a, b) => {
            lower_expr(a, intern);
            lower_expr(b, intern);
        }
        Expr::List(items) => items.iter_mut().for_each(|e| lower_expr(e, intern)),
        Expr::Lambda(l) => lower_lambda(l, intern),
        Expr::CmdSub(n) => lower_node(n, false, intern),
        Expr::Backquote(n) => {
            // `{cmd}  ⇒  <>{%backquote {cmd}}, in the same box.
            **n = hook_thunks("%backquote", iter::once(take(n)), intern);
            if let Expr::Backquote(n) = std::mem::replace(expr, Expr::List(Vec::new())) {
                *expr = Expr::CmdSub(n);
            }
        }
        Expr::ClosureLit { bindings, lambda } => {
            for (_, values) in bindings {
                values.iter_mut().for_each(|e| lower_expr(e, intern));
            }
            lower_lambda(lambda, intern);
        }
    }
}

/// Lowers a lambda's body where it is, and gives each parameter its
/// symbol. The parser hands over the only reference, so nothing is
/// copied; a lambda shared with another tree is cloned first, leaving
/// that tree as it was.
fn lower_lambda(l: &mut Rc<Lambda>, intern: &mut Intern) {
    let l = Rc::make_mut(l);
    for p in l.params.iter_mut().flatten() {
        p.sym = intern("", &p.text);
    }
    lower_node(&mut l.body, false, intern);
}
