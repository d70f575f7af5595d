//! Lexer, parser, desugarer, and unparser for the es shell language.
//!
//! The paper describes es as a small *core language* — function calls,
//! lambdas, assignments, variable references — dressed in conventional
//! shell syntax, with the parser rewriting the sugar into calls on
//! `%`-prefixed hook functions:
//!
//! ```text
//! ls > /tmp/foo        ⇒   %create 1 /tmp/foo {ls}
//! a | b                ⇒   %pipe {a} 1 0 {b}
//! a && b               ⇒   %and {a} {b}
//! fn f x { cmd }       ⇒   fn-f = @ x { cmd }
//! `{cmd}               ⇒   <>{%backquote {cmd}}
//! a ; b                ⇒   %seq {a} {b}
//! ```
//!
//! The original implementation performed this rewriting inside one
//! yacc grammar and the authors call that regrettable ("offers little
//! room for a user to extend the syntax... a set of exposed
//! transformation rules would map the extended syntax down to the core
//! language"). This crate implements the separation they wished for:
//!
//! * [`lex`] — tokens, rc-style quoting, adjacency tracking (for the
//!   implicit `^` concatenation rule),
//! * [`ast`] — one AST covering both surface and core forms,
//! * [`parse`] — recursive descent producing *surface* nodes,
//! * [`lower`] — the explicit sugar→core transformation,
//! * [`print`] — the unparser, producing re-parseable text (used by
//!   `whatis` and by the environment codec's
//!   `%closure(a=b)@ * {echo $a}` encoding).
//!
//! # Examples
//!
//! ```
//! use es_syntax::{parse_program, lower};
//!
//! let prog = parse_program("ls > /tmp/foo").unwrap();
//! let core = lower(prog);
//! // The core form is a call on the spoofable %create hook.
//! assert_eq!(es_syntax::print::unparse_node(&core), "%create 1 /tmp/foo {ls}");
//! ```

pub mod ast;
pub mod lex;
pub mod lower;
pub mod parse;
pub mod print;

#[cfg(test)]
mod tests;

pub use ast::{Expr, Lambda, Node, Redirect, Word};
pub use lower::{lower, lower_with};
pub use parse::{parse_program, ParseError};
