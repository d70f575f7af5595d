//! The unparser: AST → re-parseable es source.
//!
//! The paper's environment mechanism depends on this ("a fair amount
//! of es must be devoted to 'unparsing' function definitions so that
//! they may be passed as environment strings"): closures are encoded
//! as `%closure(a=b)@ * {echo $a}`, which is also what `whatis`
//! prints. Every printer here guarantees round-tripping: parsing the
//! output and printing it again yields the same text.

use crate::ast::{Expr, Lambda, Node, Redirect, Word};

/// Quotes `s` if it could not lex back as a single bare word.
pub fn quote(s: &str) -> String {
    let needs = s.is_empty()
        || s.chars()
            .any(|c| " \t\r\n#;&|^$=`'{}()<>!@~\\*?[]".contains(c));
    if needs {
        format!("'{}'", s.replace('\'', "''"))
    } else {
        s.to_string()
    }
}

/// Prints a word segment-by-segment, preserving quoting.
pub fn unparse_word(w: &Word) -> String {
    let mut out = String::new();
    for (text, quoted) in w.segments() {
        if quoted {
            out.push('\'');
            out.push_str(&text.replace('\'', "''"));
            out.push('\'');
        } else {
            out.push_str(text);
        }
    }
    if out.is_empty() {
        out.push_str("''");
    }
    out
}

/// Prints an expression.
pub fn unparse_expr(e: &Expr) -> String {
    match e {
        Expr::Word(w) => unparse_word(w),
        Expr::Var(t) => format!("${}", var_target(t)),
        Expr::VarCount(t) => format!("$#{}", var_target(t)),
        Expr::VarFlat(t) => format!("$^{}", var_target(t)),
        Expr::VarSub(v, subs) => {
            let base = unparse_expr(v);
            let subs: Vec<String> = subs.iter().map(unparse_expr).collect();
            format!("{base}({})", subs.join(" "))
        }
        Expr::Concat(a, b) => format!("{}^{}", unparse_expr(a), unparse_expr(b)),
        Expr::List(items) => {
            let items: Vec<String> = items.iter().map(unparse_expr).collect();
            format!("({})", items.join(" "))
        }
        Expr::Lambda(l) => unparse_lambda(l),
        Expr::Prim(name) => format!("$&{name}"),
        Expr::CmdSub(n) => format!("<>{{{}}}", unparse_node(n)),
        Expr::Backquote(n) => format!("`{{{}}}", unparse_node(n)),
        Expr::ClosureLit { bindings, lambda } => {
            let binds: Vec<String> = bindings
                .iter()
                .map(|(n, vs)| {
                    let vals: Vec<String> = vs.iter().map(unparse_expr).collect();
                    format!("{n}={}", vals.join(" "))
                })
                .collect();
            format!("%closure({}){}", binds.join(";"), unparse_lambda(lambda))
        }
    }
}

/// Prints the target of a `$` reference.
fn var_target(t: &Expr) -> String {
    match t {
        Expr::Word(w) => unparse_word(w),
        Expr::Var(inner) => format!("${}", var_target(inner)),
        Expr::List(items) => {
            let items: Vec<String> = items.iter().map(unparse_expr).collect();
            format!("({})", items.join(" "))
        }
        other => format!("({})", unparse_expr(other)),
    }
}

/// Prints a lambda: `{body}` without parameters, else `@ params {body}`.
pub fn unparse_lambda(l: &Lambda) -> String {
    match &l.params {
        None => format!("{{{}}}", unparse_node(&l.body)),
        Some(ps) => {
            let ps: Vec<&str> = ps.iter().map(Word::text).collect();
            format!("@ {} {{{}}}", ps.join(" "), unparse_node(&l.body))
        }
    }
}

/// Prints a binding-form body. A body that is already a braced block
/// (a call of one bare lambda) prints as that block; anything else is
/// wrapped in braces so the output reparses — and stays stable on a
/// second round trip.
fn body_text(body: &Node) -> String {
    if let Node::Call(exprs) = body {
        if let [Expr::Lambda(l)] = exprs.as_slice() {
            if l.params.is_none() {
                return format!("{{{}}}", unparse_node(&l.body));
            }
        }
    }
    format!("{{{}}}", unparse_node(body))
}

fn unparse_bindings(bindings: &[(Expr, Vec<Expr>)]) -> String {
    let parts: Vec<String> = bindings
        .iter()
        .map(|(n, vs)| {
            let vals: Vec<String> = vs.iter().map(unparse_expr).collect();
            if vals.is_empty() {
                format!("{} =", unparse_expr(n))
            } else {
                format!("{} = {}", unparse_expr(n), vals.join(" "))
            }
        })
        .collect();
    parts.join("; ")
}

/// Prints a command node.
pub fn unparse_node(n: &Node) -> String {
    match n {
        Node::Call(exprs) => exprs.iter().map(unparse_expr).collect::<Vec<_>>().join(" "),
        Node::Assign(lhs, values) => {
            let vals: Vec<String> = values.iter().map(unparse_expr).collect();
            if vals.is_empty() {
                format!("{} =", unparse_expr(lhs))
            } else {
                format!("{} = {}", unparse_expr(lhs), vals.join(" "))
            }
        }
        Node::Let(b, body) => format!("let ({}) {}", unparse_bindings(b), body_text(body)),
        Node::Local(b, body) => {
            format!("local ({}) {}", unparse_bindings(b), body_text(body))
        }
        Node::For(b, body) => format!("for ({}) {}", unparse_bindings(b), body_text(body)),
        Node::Match(subject, patterns) => {
            let pats: Vec<String> = patterns.iter().map(unparse_expr).collect();
            if pats.is_empty() {
                format!("~ {}", unparse_expr(subject))
            } else {
                format!("~ {} {}", unparse_expr(subject), pats.join(" "))
            }
        }
        Node::Seq(nodes) | Node::SurfaceSeq(nodes) => nodes
            .iter()
            .map(unparse_node)
            .collect::<Vec<_>>()
            .join("; "),
        Node::Pipe(segments, fds) => {
            let mut out = String::new();
            for (i, seg) in segments.iter().enumerate() {
                if i > 0 {
                    let (o, inp) = fds[i - 1];
                    if (o, inp) == (1, 0) {
                        out.push_str(" | ");
                    } else {
                        out.push_str(&format!(" |[{o}={inp}] "));
                    }
                }
                out.push_str(&unparse_node(seg));
            }
            out
        }
        Node::Redir(redirs, inner) => {
            let mut out = unparse_node(inner);
            for r in redirs {
                out.push(' ');
                out.push_str(&unparse_redirect(r));
            }
            out
        }
        Node::AndAnd(parts) => parts
            .iter()
            .map(unparse_node)
            .collect::<Vec<_>>()
            .join(" && "),
        Node::OrOr(parts) => parts
            .iter()
            .map(unparse_node)
            .collect::<Vec<_>>()
            .join(" || "),
        Node::Bang(inner) => format!("!{}", unparse_node(inner)),
        Node::Background(inner) => format!("{} &", unparse_node(inner)),
        Node::FnDef(name, Some(l)) => {
            format!("fn {} {}", unparse_expr(name), unparse_lambda(l))
        }
        Node::FnDef(name, None) => format!("fn {}", unparse_expr(name)),
    }
}

fn unparse_redirect(r: &Redirect) -> String {
    match r {
        Redirect::Create(1, f) => format!("> {}", unparse_expr(f)),
        Redirect::Create(fd, f) => format!(">[{fd}] {}", unparse_expr(f)),
        Redirect::Append(1, f) => format!(">> {}", unparse_expr(f)),
        Redirect::Append(fd, f) => format!(">>[{fd}] {}", unparse_expr(f)),
        Redirect::Open(0, f) => format!("< {}", unparse_expr(f)),
        Redirect::Open(fd, f) => format!("<[{fd}] {}", unparse_expr(f)),
        Redirect::Dup(a, b) => format!(">[{a}={b}]"),
        Redirect::Close(fd) => format!(">[{fd}=]"),
        Redirect::Here(fd, text) => {
            if *fd == 0 {
                format!("<< {}", quote(text))
            } else {
                format!("<<[{fd}] {}", quote(text))
            }
        }
    }
}
