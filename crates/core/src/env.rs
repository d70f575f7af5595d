//! The environment codec: shell state ⇄ environment strings.
//!
//! "The duality of functions and variables in es has made it possible
//! to pass down function definitions to subshells. ... Since nearly
//! all shell state can now be encoded in the environment, it becomes
//! superfluous for a new instance of es ... to run a configuration
//! file. Hence shell startup becomes very quick." (Experiment E5
//! measures exactly that claim.)
//!
//! Encoding: list elements are joined with `\x01` (the original also
//! used control-character separators); string terms travel raw,
//! closure terms travel as their unparsed
//! `%closure(a=b)@ * {echo $a}` form. A `\x01` or `\x02` inside an
//! element travels escaped as `\x02a` or `\x02b`, so every element
//! comes back whole. Decoding parses any piece that looks like (and
//! successfully parses as) a lambda back into a closure; everything
//! else is a literal string.

use crate::eval;
use crate::exception::EsResult;
use crate::machine::Machine;
use crate::value::{self, ListBuilder, Term};
use es_gc::Ref;
use es_os::Os;
use es_syntax::ast::{Expr, Node};
use std::borrow::Cow;
use std::rc::Rc;

/// List-element separator in environment strings.
pub const SEP: char = '\u{1}';

/// Escape character: `ESC a` stands for a [`SEP`] inside an element,
/// `ESC b` for an `ESC`.
const ESC: char = '\u{2}';

/// Variables never exported, beyond the user-controlled `$noexport`.
const BUILTIN_NOEXPORT: &[&str] = &[
    "*", "0", "apid", "bqstatus", "ifs", "noexport", "path", "home", "pid",
];

/// Encodes every exportable global as `NAME=value` pairs.
///
/// While no `local` binding is live, every launch shares one export,
/// kept on the machine until [`Machine::assign_raw`] next creates,
/// stores or removes a global. It is kept only when every entry could
/// be cached (see [`encode_globals`]); otherwise each launch encodes
/// afresh. In debug builds every shared hit is checked against a
/// rebuild, whose per-global cache hits are in turn checked against
/// fresh encodes.
pub fn build_environment<O: Os + Clone>(m: &Machine<O>) -> Rc<[(String, String)]> {
    let shareable = m.dynamics_len() == 0;
    if shareable {
        if let Some(shared) = m.shared_export().get() {
            debug_assert_eq!(
                **shared,
                *encode_globals(m).0,
                "stale shared environment export"
            );
            return Rc::clone(shared);
        }
    }
    let (env, cacheable) = encode_globals(m);
    let env: Rc<[(String, String)]> = env.into();
    if shareable && cacheable {
        let _ = m.shared_export().set(Rc::clone(&env));
    }
    env
}

/// Encodes every exportable global, and says whether every entry was
/// cacheable.
///
/// Each global's encoding is cached next to its value and reused until
/// [`Machine::assign_raw`] stores the global again. Two cases bypass
/// the cache: a `local` binding shadowing the name (the export is what
/// `lookup` sees), and a value holding a closure with captured
/// bindings (a lexical assignment can change those without touching
/// the global).
fn encode_globals<O: Os + Clone>(m: &Machine<O>) -> (Vec<(String, String)>, bool) {
    let noexport = m.get_var("noexport");
    let mut all_cacheable = true;
    let mut out = Vec::new();
    for (name, sym, global) in m.globals() {
        if BUILTIN_NOEXPORT.contains(&name)
            || noexport.iter().any(|n| n == name)
            || name.contains('=')
        {
            continue;
        }
        let encoded = if let Some(value) = m.dynamic(sym) {
            all_cacheable = false;
            encode_value(m, value).0
        } else if let Some(cached) = global.export.get() {
            debug_assert_eq!(
                **cached,
                encode_value(m, m.heap.perm(global.slot)).0,
                "stale environment cache for {name}"
            );
            String::from(&**cached)
        } else {
            let (encoded, cacheable) = encode_value(m, m.heap.perm(global.slot));
            if cacheable {
                let _ = global.export.set(Rc::from(encoded.as_str()));
            }
            all_cacheable &= cacheable;
            encoded
        };
        out.push((name.to_string(), encoded));
    }
    (out, all_cacheable)
}

/// Fills the cached encoding of every global whose encoding can be
/// cached, whether it is exported or not. Boot calls this before the
/// freeze, so that after it an export fills only the cells of globals
/// stored since; otherwise a session that clears `$noexport` and
/// launches a program would fill a boot global's cell without storing
/// it, and recycle, which restores only what was stored, would miss it.
pub(crate) fn fill_export_caches<O: Os + Clone>(m: &Machine<O>) {
    for (_, _, global) in m.globals() {
        if global.export.get().is_none() {
            let (encoded, cacheable) = encode_value(m, m.heap.perm(global.slot));
            if cacheable {
                let _ = global.export.set(Rc::from(encoded));
            }
        }
    }
}

/// Encodes one value list as an environment string, and says whether
/// the encoding can be cached: true unless some closure in the list
/// captured bindings, which lexical assignment can mutate in place.
pub fn encode_value<O: Os + Clone>(m: &Machine<O>, list: Ref) -> (String, bool) {
    let mut cacheable = true;
    let pieces: Vec<String> = value::read_terms(&m.heap, list)
        .into_iter()
        .map(|t| match t {
            Term::Str(s) => escape(s),
            Term::Closure(code, bindings) => {
                cacheable &= bindings.is_nil();
                escape(value::unparse_closure(&m.heap, &code, bindings))
            }
        })
        .collect();
    (pieces.join(&SEP.to_string()), cacheable)
}

/// Escapes the separator and the escape character inside one element.
fn escape(piece: String) -> String {
    if !piece.contains([SEP, ESC]) {
        return piece;
    }
    let mut out = String::with_capacity(piece.len() + 2);
    for c in piece.chars() {
        match c {
            SEP => out.push_str("\u{2}a"),
            ESC => out.push_str("\u{2}b"),
            c => out.push(c),
        }
    }
    out
}

/// Undoes [`escape`]. An `ESC` not followed by `a` or `b` (a value
/// from outside es) is kept as it is.
fn unescape(piece: &str) -> Cow<'_, str> {
    if !piece.contains(ESC) {
        return Cow::Borrowed(piece);
    }
    let mut out = String::with_capacity(piece.len());
    let mut chars = piece.chars().peekable();
    while let Some(c) = chars.next() {
        match (c, chars.peek()) {
            (ESC, Some('a')) => {
                chars.next();
                out.push(SEP);
            }
            (ESC, Some('b')) => {
                chars.next();
                out.push(ESC);
            }
            (c, _) => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// Imports the kernel's initial environment: every `NAME=value` pair
/// becomes a global assignment *through the settor machinery*, so
/// importing `PATH` populates `$path` via the `set-PATH` settor that
/// `initial.es` installed.
pub fn import_environment<O: Os + Clone>(m: &mut Machine<O>) -> EsResult<()> {
    let pairs = m.os().initial_env();
    for (name, encoded) in pairs {
        if name.is_empty() || name.contains('=') {
            continue;
        }
        set_from_encoded(m, &name, &encoded)?;
    }
    Ok(())
}

/// Assigns `name` from an encoded environment value, firing settors.
pub fn set_from_encoded<O: Os + Clone>(
    m: &mut Machine<O>,
    name: &str,
    encoded: &str,
) -> EsResult<()> {
    let base = m.heap.roots_len();
    let env = m.heap.push_root(Ref::NIL);
    let mut b = ListBuilder::new(&mut m.heap);
    for piece in encoded.split(SEP) {
        let piece = &*unescape(piece);
        match decode_piece(m, piece)? {
            Some(term_list) => {
                let slot = m.heap.push_root(term_list);
                b.append_slot(&mut m.heap, slot);
                m.heap.truncate_roots(slot.index());
            }
            None => b.push_str(&mut m.heap, piece),
        }
    }
    let value_slot = b.head_slot();
    let settor = m.heap.find_sym("set-", name);
    let transformed = eval::run_settor(m, env, settor, value_slot)?;
    let sym = m.heap.intern("", name);
    m.assign_raw(Ref::NIL, sym, transformed);
    m.heap.truncate_roots(base);
    Ok(())
}

/// Tries to decode one piece as a closure; `Ok(None)` means "treat as
/// a literal string".
fn decode_piece<O: Os + Clone>(m: &mut Machine<O>, piece: &str) -> EsResult<Option<Ref>> {
    let looks_like_code = piece.starts_with("%closure(")
        || piece.starts_with("@ ")
        || (piece.starts_with('{') && piece.ends_with('}'));
    if !looks_like_code {
        return Ok(None);
    }
    let parsed = match m.parse(piece) {
        Ok(node) => node,
        Err(_) => return Ok(None),
    };
    // Expect exactly one expression that is a lambda/closure literal.
    let expr = match &parsed {
        Node::Call(exprs) if exprs.len() == 1 => match &exprs[0] {
            e @ (Expr::Lambda(_) | Expr::ClosureLit { .. }) => e.clone(),
            _ => return Ok(None),
        },
        _ => return Ok(None),
    };
    let base = m.heap.roots_len();
    let env = m.heap.push_root(Ref::NIL);
    let list = eval::eval_expr(m, &expr, env, false)?;
    m.heap.truncate_roots(base);
    Ok(Some(list))
}
