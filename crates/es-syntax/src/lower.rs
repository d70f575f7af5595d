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
pub fn lower(mut node: Node) -> Node {
    lower_node(&mut node, true);
    node
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

/// Moves a node out, leaving the empty program (which allocates
/// nothing).
fn take(node: &mut Node) -> Node {
    std::mem::replace(node, Node::empty())
}

/// `node`, lowered below the top level.
fn lowered(mut node: Node) -> Node {
    lower_node(&mut node, false);
    node
}

/// `%name {a} {b} ...`: a hook call on thunks of the lowered `parts`.
fn hook_thunks(name: &str, parts: impl ExactSizeIterator<Item = Node>) -> Node {
    let mut call = Vec::with_capacity(parts.len() + 1);
    call.push(hook(name));
    call.extend(parts.map(|n| thunk(lowered(n))));
    Node::Call(call)
}

fn lower_node(node: &mut Node, top: bool) {
    match node {
        Node::Call(exprs) => exprs.iter_mut().for_each(lower_expr),
        Node::Assign(lhs, values) => {
            lower_expr(lhs);
            values.iter_mut().for_each(lower_expr);
        }
        Node::Let(bindings, body) | Node::Local(bindings, body) | Node::For(bindings, body) => {
            lower_bindings(bindings);
            lower_node(body, false);
        }
        Node::Match(subject, patterns) => {
            lower_expr(subject);
            patterns.iter_mut().for_each(lower_expr);
        }
        Node::Seq(nodes) => nodes.iter_mut().for_each(|n| lower_node(n, top)),
        // ----- surface forms -------------------------------------------------
        Node::SurfaceSeq(nodes) if top => {
            // Top level: evaluate commands one at a time natively.
            nodes.iter_mut().for_each(|n| lower_node(n, true));
            *node = Node::Seq(std::mem::take(nodes));
        }
        Node::SurfaceSeq(nodes) => *node = hook_thunks("%seq", std::mem::take(nodes).into_iter()),
        Node::Pipe(segments, fds) => {
            // `{s1} out1 in1 {s2} out2 in2 {s3} ...` — the variadic
            // shape Figure 1's recursive `%pipe` spoof expects.
            let mut call = Vec::with_capacity(3 * segments.len());
            call.push(hook("%pipe"));
            let mut segs = std::mem::take(segments).into_iter();
            if let Some(first) = segs.next() {
                call.push(thunk(lowered(first)));
            }
            for (seg, &mut (out, inp)) in segs.zip(fds) {
                call.push(fd_word(out));
                call.push(fd_word(inp));
                call.push(thunk(lowered(seg)));
            }
            *node = Node::Call(call);
        }
        Node::Redir(redirs, inner) => {
            let mut result = lowered(take(inner));
            for r in std::mem::take(redirs).into_iter().rev() {
                result = lower_redirect(r, result);
            }
            *node = result;
        }
        Node::AndAnd(parts) => *node = hook_thunks("%and", std::mem::take(parts).into_iter()),
        Node::OrOr(parts) => *node = hook_thunks("%or", std::mem::take(parts).into_iter()),
        Node::Bang(inner) => *node = hook_thunks("%not", iter::once(take(inner))),
        Node::Background(inner) => *node = hook_thunks("%background", iter::once(take(inner))),
        Node::FnDef(name, lambda) => {
            let mut name = std::mem::replace(name, Expr::List(Vec::new()));
            lower_expr(&mut name);
            let lhs = Expr::Concat(Box::new(Expr::Word(Word::quoted("fn-"))), Box::new(name));
            let values = match lambda.take() {
                Some(mut l) => {
                    lower_lambda(&mut l);
                    vec![Expr::Lambda(l)]
                }
                None => Vec::new(),
            };
            *node = Node::Assign(lhs, values);
        }
    }
}

fn lower_redirect(r: Redirect, inner: Node) -> Node {
    let file = |mut file: Expr| {
        lower_expr(&mut file);
        file
    };
    match r {
        Redirect::Create(fd, f) => {
            Node::Call(vec![hook("%create"), fd_word(fd), file(f), thunk(inner)])
        }
        Redirect::Append(fd, f) => {
            Node::Call(vec![hook("%append"), fd_word(fd), file(f), thunk(inner)])
        }
        Redirect::Open(fd, f) => {
            Node::Call(vec![hook("%open"), fd_word(fd), file(f), thunk(inner)])
        }
        Redirect::Dup(a, b) => Node::Call(vec![hook("%dup"), fd_word(a), fd_word(b), thunk(inner)]),
        Redirect::Close(fd) => Node::Call(vec![hook("%close"), fd_word(fd), thunk(inner)]),
        Redirect::Here(fd, text) => Node::Call(vec![
            hook("%here"),
            fd_word(fd),
            Expr::Word(Word::quoted(text)),
            thunk(inner),
        ]),
    }
}

fn lower_bindings(bindings: &mut [(Expr, Vec<Expr>)]) {
    for (name, values) in bindings {
        lower_expr(name);
        values.iter_mut().for_each(lower_expr);
    }
}

fn lower_expr(expr: &mut Expr) {
    match expr {
        Expr::Word(_) | Expr::Prim(_) => {}
        Expr::Var(t) | Expr::VarCount(t) | Expr::VarFlat(t) => lower_expr(t),
        Expr::VarSub(t, subs) => {
            lower_expr(t);
            subs.iter_mut().for_each(lower_expr);
        }
        Expr::Concat(a, b) => {
            lower_expr(a);
            lower_expr(b);
        }
        Expr::List(items) => items.iter_mut().for_each(lower_expr),
        Expr::Lambda(l) => lower_lambda(l),
        Expr::CmdSub(n) => lower_node(n, false),
        Expr::Backquote(n) => {
            // `{cmd}  ⇒  <>{%backquote {cmd}}, in the same box.
            **n = hook_thunks("%backquote", iter::once(take(n)));
            if let Expr::Backquote(n) = std::mem::replace(expr, Expr::List(Vec::new())) {
                *expr = Expr::CmdSub(n);
            }
        }
        Expr::ClosureLit { bindings, lambda } => {
            for (_, values) in bindings {
                values.iter_mut().for_each(lower_expr);
            }
            lower_lambda(lambda);
        }
    }
}

/// Lowers a lambda's body where it is. The parser hands over the only
/// reference, so nothing is copied; a lambda shared with another tree
/// is cloned first, leaving that tree as it was.
fn lower_lambda(l: &mut Rc<Lambda>) {
    lower_node(&mut Rc::make_mut(l).body, false);
}
