//! Value helpers: es values are GC lists of strings and closures.
//!
//! The paper restricts lists to the flat, exec-compatible shape ("all
//! lists are flattened, as in rc and csh"), so a value is a chain of
//! `Pair` cells whose heads are `Str` or `Closure` objects. This
//! module provides the rooted construction and inspection helpers the
//! evaluator uses; everything allocates through the copying collector,
//! so builders keep their intermediate state in root slots.
//!
//! **A list is immutable once built.** The only writes to a pair cell
//! are a [`ListBuilder`]'s, and it writes only into the last cell it
//! allocated itself, before the list is handed out: [`ListBuilder::push`]
//! links a new cell there, and [`ListBuilder::finish_onto`] links a
//! finished list there and consumes the builder, so no builder is left
//! that could write into that list. Appending a finished list anywhere
//! but last copies its spine. So one list may be shared freely: `$x`
//! returns the list bound to `x`, not a copy; a call's words are pushed
//! straight into its list and its last argument list is linked, not
//! copied; `x = ...` later rebinds `x` without touching the list a
//! reader, or a longer list ending in it, already holds.

use crate::machine::Heap;
use es_gc::{Obj, Ref, RootSlot};
use es_syntax::ast::Lambda;
use es_syntax::print;
use std::rc::Rc;

/// A term read out of a GC list, for Rust-side consumption.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// A string term.
    Str(String),
    /// A closure: the code and the (GC) binding chain it captured.
    /// The `Ref` is only valid until the next allocation.
    Closure(Rc<Lambda>, Ref),
}

/// Incremental list builder with O(1) append, GC-safe: the head and
/// tail cells live in root slots owned by the caller's root scope.
pub struct ListBuilder {
    head: RootSlot,
    tail: RootSlot,
}

impl ListBuilder {
    /// Creates a builder; roots two slots (freed by the caller's
    /// scope truncation).
    pub fn new(heap: &mut Heap) -> ListBuilder {
        let head = heap.push_root(Ref::NIL);
        let tail = heap.push_root(Ref::NIL);
        ListBuilder { head, tail }
    }

    /// Appends one term (must be a `Str` or `Closure` ref).
    pub fn push(&mut self, heap: &mut Heap, term: Ref) {
        let cell = heap.alloc_pair(term, Ref::NIL);
        if heap.root(self.head).is_nil() {
            heap.set_root(self.head, cell);
        } else {
            heap.set_pair_tail(heap.root(self.tail), cell);
        }
        heap.set_root(self.tail, cell);
    }

    /// Appends a string term.
    pub fn push_str(&mut self, heap: &mut Heap, s: &str) {
        let term = heap.alloc_str(s);
        self.push(heap, term);
    }

    /// Appends every term of `list` (shares the term objects, copies
    /// the spine).
    pub fn append(&mut self, heap: &mut Heap, list: Ref) {
        let cursor = heap.push_root(list);
        while !heap.root(cursor).is_nil() {
            let term = heap.pair_head(heap.root(cursor));
            let next = heap.pair_tail(heap.root(cursor));
            heap.set_root(cursor, next);
            // `term` is reachable from the rooted cursor's old cell...
            // which we just dropped. Root it across the allocation.
            let t = heap.push_root(term);
            let term = heap.root(t);
            self.push(heap, term);
            heap.truncate_roots(t.index());
        }
        heap.truncate_roots(cursor.index());
    }

    /// Appends every term of the list held in a root slot.
    pub fn append_slot(&mut self, heap: &mut Heap, slot: RootSlot) {
        let list = heap.root(slot);
        self.append(heap, list);
    }

    /// The built list (rooted in the builder's head slot until the
    /// caller truncates its scope).
    pub fn finish(self, heap: &Heap) -> Ref {
        heap.root(self.head)
    }

    /// Links `rest` after the last cell this builder allocated (or
    /// makes it the whole list, if there is none) and returns the slot
    /// holding the result. `rest` is shared, not copied; consuming the
    /// builder keeps it from ever writing into `rest`.
    pub fn finish_onto(self, heap: &mut Heap, rest: Ref) -> RootSlot {
        if heap.root(self.head).is_nil() {
            heap.set_root(self.head, rest);
        } else {
            heap.set_pair_tail(heap.root(self.tail), rest);
        }
        self.head
    }

    /// The root slot holding the list under construction.
    pub fn head_slot(&self) -> RootSlot {
        self.head
    }
}

/// Builds a list of string terms.
pub fn list_from_strs(heap: &mut Heap, items: &[&str]) -> Ref {
    let base = heap.roots_len();
    let mut b = ListBuilder::new(heap);
    for s in items {
        b.push_str(heap, s);
    }
    let out = b.finish(heap);
    // Keep the result alive past truncation: truncation does not
    // collect, so returning the raw ref is safe as long as the caller
    // roots it before the next allocation.
    heap.truncate_roots(base);
    out
}

/// Reads a list into Rust terms. Closure refs in the result are only
/// valid until the next allocation.
pub fn read_terms(heap: &Heap, mut list: Ref) -> Vec<Term> {
    let mut out = Vec::new();
    while !list.is_nil() {
        let head = heap.pair_head(list);
        match heap.get(head) {
            Obj::Str(_) => out.push(Term::Str(heap.str_value(head).to_string())),
            Obj::Closure(code, bindings) => out.push(Term::Closure(code.clone(), *bindings)),
            other => unreachable!("list head is {other:?}"),
        }
        list = heap.pair_tail(list);
    }
    out
}

/// Reads a list of strings; closures are unparsed to their external
/// representation (what happens when a closure is passed to an
/// external program or flattened).
pub fn read_strings(heap: &Heap, list: Ref) -> Vec<String> {
    read_terms(heap, list)
        .into_iter()
        .map(|t| match t {
            Term::Str(s) => s,
            Term::Closure(code, bindings) => unparse_closure(heap, &code, bindings),
        })
        .collect()
}

/// Appends the text of one term to `out`: a string as is, a closure
/// unparsed (as [`read_strings`] renders it).
pub fn push_text(heap: &Heap, term: Ref, out: &mut String) {
    match heap.get(term) {
        Obj::Closure(code, bindings) => out.push_str(&unparse_closure(heap, code, *bindings)),
        _ => out.push_str(heap.str_value(term)),
    }
}

/// List length without reading contents.
pub fn list_len(heap: &Heap, mut list: Ref) -> usize {
    let mut n = 0;
    while !list.is_nil() {
        n += 1;
        list = heap.pair_tail(list);
    }
    n
}

/// The nth term (1-based, as es subscripts are), if present.
pub fn list_nth(heap: &Heap, mut list: Ref, n: usize) -> Option<Ref> {
    if n == 0 {
        return None;
    }
    let mut i = 1;
    while !list.is_nil() {
        if i == n {
            return Some(heap.pair_head(list));
        }
        i += 1;
        list = heap.pair_tail(list);
    }
    None
}

/// Es truth: a list is true iff every string term is `""`, `"0"`, or
/// `"true"`; closures count as true; the empty list is true. (A
/// non-zero exit status like `"1"` is false.)
pub fn truth(heap: &Heap, mut list: Ref) -> bool {
    while !list.is_nil() {
        let head = heap.pair_head(list);
        if matches!(heap.get(head), Obj::Str(_))
            && !matches!(heap.str_value(head), "" | "0" | "true")
        {
            return false;
        }
        list = heap.pair_tail(list);
    }
    true
}

/// The conventional true value, `(0)`.
pub fn true_value(heap: &mut Heap) -> Ref {
    list_from_strs(heap, &["0"])
}

/// The conventional false value, `(1)`.
pub fn false_value(heap: &mut Heap) -> Ref {
    list_from_strs(heap, &["1"])
}

/// A one-element status value from an exit code.
pub fn status_value(heap: &mut Heap, status: i32) -> Ref {
    list_from_strs(heap, &[&status.to_string()])
}

/// Unparses a closure term to its external `%closure(...)@ ... {...}`
/// representation (or plain `{...}` / `@ p {...}` when it captured
/// nothing) — the paper's `whatis` output and environment encoding.
pub fn unparse_closure(heap: &Heap, code: &Rc<Lambda>, bindings: Ref) -> String {
    let mut visiting = Vec::new();
    let mut memo = std::collections::HashMap::new();
    unparse_closure_guarded(heap, code, bindings, &mut visiting, &mut memo)
}

/// Memo key: the closure's identity is its code pointer plus captured
/// chain (refs are stable within one unparse — nothing allocates).
type UnparseMemo = std::collections::HashMap<(usize, Ref), String>;

/// Worker for [`unparse_closure`] carrying the cycle guard and a memo
/// table. The guard handles true cycles (a closure capturing a binding
/// whose value contains the closure itself — the paper's "true
/// recursive structures"); the memo handles *sharing*: church-list
/// style structures reach the same inner closure along several paths
/// (e.g. through both a named binding and `$*`), which without
/// memoisation makes unparsing exponential in the nesting depth.
fn unparse_closure_guarded(
    heap: &Heap,
    code: &Rc<Lambda>,
    bindings: Ref,
    visiting: &mut Vec<Ref>,
    memo: &mut UnparseMemo,
) -> String {
    let lambda_text = print::unparse_lambda(code);
    if !bindings.is_nil() && visiting.contains(&bindings) {
        return lambda_text;
    }
    // Defensive depth cap: nested closures embed their children's
    // text, so pathological structures (a church list hundreds deep)
    // would otherwise produce exponentially large encodings. Past the
    // cap the code is kept but captures are elided; a structure that
    // deep cannot round-trip through a real environ either.
    const MAX_UNPARSE_DEPTH: usize = 64;
    if visiting.len() >= MAX_UNPARSE_DEPTH {
        return lambda_text;
    }
    let key = (Rc::as_ptr(code) as usize, bindings);
    if let Some(cached) = memo.get(&key) {
        return cached.clone();
    }
    visiting.push(bindings);
    let mut binds = Vec::new();
    let mut cur = bindings;
    let mut seen = std::collections::BTreeSet::new();
    while !cur.is_nil() {
        let (name, value, next) = heap.binding_parts(cur);
        let name = name.to_string();
        // Inner bindings shadow outer ones; encode each name once.
        if seen.insert(name.clone()) {
            // Strings are quoted so they reparse as literals; closure
            // terms keep their (unquoted) lambda form so they reparse
            // as closures.
            let vals: Vec<String> = read_terms(heap, value)
                .into_iter()
                .map(|t| match t {
                    Term::Str(s) => print::quote(&s),
                    Term::Closure(code, b) => {
                        unparse_closure_guarded(heap, &code, b, visiting, memo)
                    }
                })
                .collect();
            binds.push(format!("{name}={}", vals.join(" ")));
        }
        cur = next;
    }
    visiting.pop();
    let out = if binds.is_empty() {
        lambda_text
    } else {
        format!("%closure({}){}", binds.join(";"), lambda_text)
    };
    memo.insert(key, out.clone());
    out
}
