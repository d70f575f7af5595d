//! A semispace copying garbage collector for the es shell runtime.
//!
//! This crate reproduces the memory-management design described in the
//! paper *Es: A shell with higher-order functions* (Haahr & Rakitzis,
//! Winter USENIX 1993), section "Garbage Collection":
//!
//! * Because es embeds a true lambda calculus, runtime values can form
//!   arbitrary cyclic graphs (closures capture bindings which refer to
//!   closures, ...), so neither arena allocation nor reference counting
//!   suffices — a tracing collector is required.
//! * The paper chose a **copying** (semispace) collector: between two
//!   commands little memory is live, command execution can allocate a
//!   lot for a short time, and the live set is far smaller than physical
//!   memory, so trading space for fast collections is the right call.
//! * Allocation is a bump through a preallocated block; when the block
//!   is exhausted, everything reachable from the *rootset* is copied to
//!   a fresh block (Cheney scan) and the spaces are swapped.
//! * During some phases (the yacc parser driver in the original) the
//!   rootset cannot be fully identified, so the original can
//!   **disable** collection and grab extra chunks instead. This crate
//!   has no such mode: the interpreter's parser builds a Rust tree and
//!   allocates nothing here, and every other caller roots what it
//!   holds, so a disabled region would protect nothing.
//! * The original's debug mode collects at *every* allocation and
//!   revokes access to the old semispace with `mprotect`, so any stale
//!   pointer faults immediately. Our safe-Rust analogue: every
//!   [`Ref`] carries the collection *epoch* in which it was created and
//!   dereferencing a stale ref panics with a diagnostic — the same bug
//!   class caught at the same moment, without `unsafe`.
//!
//! The object model is exactly the four runtime shapes the es
//! interpreter needs (strings, list cells, closures, binding frames).
//! An [`Obj`] is plain data (`Copy`, no type parameter). The closure
//! *code* payload is a generic parameter `C` of the [`Heap`], kept in
//! a code table beside the objects, so this crate does not depend on
//! the syntax crate (the interpreter instantiates it with
//! `Rc<Lambda>`; tests here use `u32`).
//!
//! # The text arena and the code table
//!
//! A semispace is three buffers: a `Vec` of [`Obj`]s, one `String`
//! holding the bytes of every string term and every binding name, and
//! a table of closure codes. A `Str` or a `Binding` stores a [`Span`]
//! (offset and length) into the arena, and a `Closure` a [`CodeId`]
//! into the table, instead of owning an allocation or a payload of its
//! own. A collection copies a live object's bytes or code into the
//! to-space's arena or table as it forwards the object.
//!
//! The heap keeps one spare semispace: a collection copies into it and
//! the space it copied from becomes the next spare, its buffers kept.
//! Objects and text are plain data, so emptying that space runs one
//! destructor per dead closure's code and visits nothing else. A
//! collection therefore costs what is live (objects copied plus
//! [`GcStats::bytes_copied`]) and the dead closures' codes, not the
//! dead space, which is the paper's reason for choosing a copying
//! collector; once both spaces are warm it makes no malloc and no
//! free.
//!
//! `Span` and `CodeId` are opaque: their fields are private and no
//! public method takes or returns one. They mean something only in the
//! epoch that made them, so text and code are read through
//! [`Heap::str_value`], [`Heap::binding_parts`] and
//! [`Heap::closure_code`], which take an epoch-checked [`Ref`]. A stale
//! string or closure thus panics like any stale ref, however its old
//! space's buffers have been reused, and the arena is an ordinary
//! `String` sliced by range — still no `unsafe`. A string that would
//! push one arena past `u32::MAX` bytes panics rather than wrap.
//!
//! `Clone` (the interpreter's fork and boot image) copies the three
//! young buffers and the rootset, bumping each closure payload's
//! reference count, and gives the copy an empty spare; it makes no
//! allocation per string. `clone_from` keeps the heap's own spare.
//!
//! # The boot space
//!
//! [`Heap::freeze`] moves every live object, with its text and code,
//! into an immutable boot space, shared by `Rc` with the heap's
//! clones. A boot [`Ref`]
//! ([`Ref::is_boot`]) is never copied, scanned or staled by a
//! collection, so a collection costs what is live *and young*. A
//! lexical assignment to a boot binding goes through a write barrier
//! into a per-heap overlay, which the collector treats as roots.
//! `clone_from` restores a heap from a frozen image into the buffers it
//! already has: the same boot space, an empty young space and overlay,
//! and no malloc per boot object (the interpreter's session recycle).
//!
//! # Examples
//!
//! ```
//! use es_gc::{Heap, Obj, Ref};
//!
//! let mut heap: Heap<u32> = Heap::new();
//! let s = heap.alloc_str("hello");
//! let cell = heap.alloc_pair(s, Ref::NIL);
//! let root = heap.push_root(cell);
//! heap.collect();
//! let cell = heap.root(root); // refs move across collections
//! let head = heap.pair_head(cell);
//! assert!(matches!(heap.get(head), Obj::Str(_)));
//! assert_eq!(heap.str_value(head), "hello"); // text is read through a checked Ref
//! ```

mod heap;
mod stats;

pub use heap::{CodeId, Heap, Obj, PermSlot, Ref, RootSlot, Span};
pub use stats::GcStats;

#[cfg(test)]
mod tests;
