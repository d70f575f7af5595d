//! The es shell interpreter — the paper's primary contribution.
//!
//! This crate implements the semantics described in *Es: A shell with
//! higher-order functions* (Haahr & Rakitzis, Winter USENIX 1993):
//!
//! * **First-class closures** with lexical scoping (`let`, lambda
//!   parameters) plus dynamic binding (`local`), stored in a copying
//!   garbage-collected heap (`es-gc`) because closures capturing
//!   bindings form true cyclic structures.
//! * **Everything is a function call**: the parser (`es-syntax`)
//!   rewrites all shell syntax into calls on `%`-hooks; `initial.es`
//!   (itself written in es, embedded at compile time like the
//!   original's `initial.es`) binds each hook to an unoverridable
//!   `$&` primitive. Spoofing a hook is ordinary assignment.
//! * **Exceptions** (`throw` / `catch`) with the six
//!   interpreter-known exceptions: `error`, `eof`, `retry`, `break`,
//!   `return`, `signal`.
//! * **Rich return values**: any command returns a list of strings
//!   and/or closures, accessed with `<>{cmd}`.
//! * **Settor variables**: assigning `x` runs `set-x` first; the
//!   `path`/`PATH` aliasing from the paper is implemented exactly that
//!   way in `initial.es`.
//! * **Functions in the environment**: closures are unparsed to
//!   `%closure(a=b)@ * {...}` strings and exported, so a child shell
//!   reconstructs all shell state without reading any rc file.
//! * **Proper tail calls** (the paper's stated future work) with a
//!   switchable naive mode so experiment E6 can measure the 1993
//!   stack-growth behaviour.
//!
//! # Examples
//!
//! ```
//! use es_core::Machine;
//! use es_os::SimOs;
//!
//! let mut m = Machine::new(SimOs::new()).unwrap();
//! // The paper's apply function, defined and used with a lambda.
//! m.run("fn apply cmd args { for (i = $args) $cmd $i }").unwrap();
//! m.run("apply @ i {echo ($i)} 1.. 2.. 3..").unwrap();
//! assert_eq!(m.os_mut().take_output(), "1..\n2..\n3..\n");
//! ```

pub mod compile;
mod env;
mod eval;
mod exception;
pub mod governor;
pub mod harness;
mod machine;
mod prims;
mod value;

#[cfg(test)]
mod tests;
#[cfg(test)]
mod tests_prop;

pub use es_gc::Sym;
pub use exception::{EsError, EsResult};
pub use machine::{Machine, Options, Yield, YieldAction};
pub use value::Term;

/// The bootstrap script, written in es itself (like the original's
/// `initial.es`, converted to a C string at compile time). It binds
/// every `%`-hook to its `$&` primitive, defines the `path`/`PATH` and
/// `home`/`HOME` settor aliases, and defines `%interactive-loop`
/// verbatim from Figure 3 of the paper.
pub const INITIAL_ES: &str = include_str!("initial.es");
