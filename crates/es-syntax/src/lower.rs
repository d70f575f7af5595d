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

use crate::ast::{Expr, Lambda, Node, Redirect, Word};
use std::rc::Rc;

/// Lowers a parsed program to the core language. Idempotent on core
/// nodes.
pub fn lower(node: Node) -> Node {
    lower_node(node, true)
}

fn hook(name: &str) -> Expr {
    Expr::Word(Word::bare(name))
}

fn fd_word(fd: u32) -> Expr {
    Expr::Word(Word::bare(fd.to_string()))
}

fn thunk(body: Node) -> Expr {
    Expr::Lambda(Rc::new(Lambda { params: None, body }))
}

fn lower_node(node: Node, top: bool) -> Node {
    match node {
        Node::Call(exprs) => Node::Call(exprs.into_iter().map(lower_expr).collect()),
        Node::Assign(lhs, values) => Node::Assign(
            lower_expr(lhs),
            values.into_iter().map(lower_expr).collect(),
        ),
        Node::Let(bindings, body) => {
            Node::Let(lower_bindings(bindings), Box::new(lower_node(*body, false)))
        }
        Node::Local(bindings, body) => {
            Node::Local(lower_bindings(bindings), Box::new(lower_node(*body, false)))
        }
        Node::For(bindings, body) => {
            Node::For(lower_bindings(bindings), Box::new(lower_node(*body, false)))
        }
        Node::Match(subject, patterns) => Node::Match(
            lower_expr(subject),
            patterns.into_iter().map(lower_expr).collect(),
        ),
        Node::Seq(nodes) => Node::Seq(
            nodes
                .into_iter()
                .map(|n| lower_node(n, top))
                .collect(),
        ),
        // ----- surface forms -------------------------------------------------
        Node::SurfaceSeq(nodes) => {
            if top {
                // Top level: evaluate commands one at a time natively.
                Node::Seq(nodes.into_iter().map(|n| lower_node(n, true)).collect())
            } else {
                let mut call = vec![hook("%seq")];
                call.extend(
                    nodes
                        .into_iter()
                        .map(|n| thunk(lower_node(n, false))),
                );
                Node::Call(call)
            }
        }
        Node::Pipe(segments, fds) => {
            // `{s1} out1 in1 {s2} out2 in2 {s3} ...` — the variadic
            // shape Figure 1's recursive `%pipe` spoof expects.
            let mut call = vec![hook("%pipe")];
            let mut segs = segments.into_iter();
            if let Some(first) = segs.next() {
                call.push(thunk(lower_node(first, false)));
            }
            for (seg, (out, inp)) in segs.zip(fds) {
                call.push(fd_word(out));
                call.push(fd_word(inp));
                call.push(thunk(lower_node(seg, false)));
            }
            Node::Call(call)
        }
        Node::Redir(redirs, inner) => {
            let mut result = lower_node(*inner, false);
            for r in redirs.into_iter().rev() {
                result = lower_redirect(r, result);
            }
            result
        }
        Node::AndAnd(parts) => {
            let mut call = vec![hook("%and")];
            call.extend(parts.into_iter().map(|n| thunk(lower_node(n, false))));
            Node::Call(call)
        }
        Node::OrOr(parts) => {
            let mut call = vec![hook("%or")];
            call.extend(parts.into_iter().map(|n| thunk(lower_node(n, false))));
            Node::Call(call)
        }
        Node::Bang(inner) => Node::Call(vec![hook("%not"), thunk(lower_node(*inner, false))]),
        Node::Background(inner) => Node::Call(vec![
            hook("%background"),
            thunk(lower_node(*inner, false)),
        ]),
        Node::FnDef(name, lambda) => {
            let lhs = Expr::Concat(
                Box::new(Expr::Word(Word::quoted("fn-"))),
                Box::new(lower_expr(name)),
            );
            let values = match lambda {
                Some(l) => vec![lower_expr(Expr::Lambda(l))],
                None => Vec::new(),
            };
            Node::Assign(lhs, values)
        }
    }
}

fn lower_redirect(r: Redirect, inner: Node) -> Node {
    match r {
        Redirect::Create(fd, file) => Node::Call(vec![
            hook("%create"),
            fd_word(fd),
            lower_expr(file),
            thunk(inner),
        ]),
        Redirect::Append(fd, file) => Node::Call(vec![
            hook("%append"),
            fd_word(fd),
            lower_expr(file),
            thunk(inner),
        ]),
        Redirect::Open(fd, file) => Node::Call(vec![
            hook("%open"),
            fd_word(fd),
            lower_expr(file),
            thunk(inner),
        ]),
        Redirect::Dup(a, b) => Node::Call(vec![
            hook("%dup"),
            fd_word(a),
            fd_word(b),
            thunk(inner),
        ]),
        Redirect::Close(fd) => Node::Call(vec![hook("%close"), fd_word(fd), thunk(inner)]),
        Redirect::Here(fd, text) => Node::Call(vec![
            hook("%here"),
            fd_word(fd),
            Expr::Word(Word::quoted(text)),
            thunk(inner),
        ]),
    }
}

fn lower_bindings(bindings: Vec<(Expr, Vec<Expr>)>) -> Vec<(Expr, Vec<Expr>)> {
    bindings
        .into_iter()
        .map(|(name, values)| {
            (
                lower_expr(name),
                values.into_iter().map(lower_expr).collect(),
            )
        })
        .collect()
}

fn lower_expr(expr: Expr) -> Expr {
    match expr {
        Expr::Word(_) | Expr::Prim(_) => expr,
        Expr::Var(t) => Expr::Var(Box::new(lower_expr(*t))),
        Expr::VarCount(t) => Expr::VarCount(Box::new(lower_expr(*t))),
        Expr::VarFlat(t) => Expr::VarFlat(Box::new(lower_expr(*t))),
        Expr::VarSub(t, subs) => Expr::VarSub(
            Box::new(lower_expr(*t)),
            subs.into_iter().map(lower_expr).collect(),
        ),
        Expr::Concat(a, b) => Expr::Concat(Box::new(lower_expr(*a)), Box::new(lower_expr(*b))),
        Expr::List(items) => Expr::List(items.into_iter().map(lower_expr).collect()),
        Expr::Lambda(l) => Expr::Lambda(lower_lambda(l)),
        Expr::CmdSub(n) => Expr::CmdSub(Box::new(lower_node(*n, false))),
        Expr::Backquote(n) => {
            // `{cmd}  ⇒  <>{%backquote {cmd}}
            let call = Node::Call(vec![hook("%backquote"), thunk(lower_node(*n, false))]);
            Expr::CmdSub(Box::new(call))
        }
        Expr::ClosureLit { bindings, lambda } => Expr::ClosureLit {
            bindings: bindings
                .into_iter()
                .map(|(n, vs)| (n, vs.into_iter().map(lower_expr).collect()))
                .collect(),
            lambda: lower_lambda(lambda),
        },
    }
}

/// Lowers a lambda. The parser hands over the only reference, so the
/// body is moved, not copied; a lambda shared with another tree is
/// cloned first, leaving that tree as it was.
fn lower_lambda(l: Rc<Lambda>) -> Rc<Lambda> {
    let Lambda { params, body } = Rc::try_unwrap(l).unwrap_or_else(|l| (*l).clone());
    Rc::new(Lambda {
        params,
        body: lower_node(body, false),
    })
}
