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
//!   rootset cannot be fully identified, so collection can be
//!   **disabled**; allocation then grabs extra chunks instead of
//!   collecting.
//! * The original's debug mode collects at *every* allocation and
//!   revokes access to the old semispace with `mprotect`, so any stale
//!   pointer faults immediately. Our safe-Rust analogue: every
//!   [`Ref`] carries the collection *epoch* in which it was created and
//!   dereferencing a stale ref panics with a diagnostic — the same bug
//!   class caught at the same moment, without `unsafe`.
//!
//! The object model is exactly the four runtime shapes the es
//! interpreter needs (strings, list cells, closures, binding frames);
//! the closure *code* payload is a generic parameter `C` so this crate
//! does not depend on the syntax crate (the interpreter instantiates it
//! with `Rc<Lambda>`; tests here use `u32`).
//!
//! # The text arena
//!
//! A semispace is two buffers: a `Vec` of [`Obj`]s and one `String`
//! holding the bytes of every string term and every binding name. A
//! `Str` or a `Binding` stores a [`Span`] (offset and length) into that
//! arena instead of owning an allocation of its own. Allocating a
//! string appends to the arena; a collection copies a live object's
//! bytes into the to-space arena as it forwards the object, and then
//! drops the old arena with one `free`. A collection therefore costs
//! what is live (objects copied plus [`GcStats::bytes_copied`]), not
//! what is dead, which is the paper's reason for choosing a copying
//! collector.
//!
//! `Span` is opaque: its fields are private and no public method takes
//! or returns one. A span means something only in the epoch that made
//! it, so text is read through [`Heap::str_value`] and
//! [`Heap::binding_parts`], which take an epoch-checked [`Ref`]. A stale
//! string thus panics like any stale ref, and the arena is an ordinary
//! `String` sliced by range — still no `unsafe`. A string that would
//! push one arena past `u32::MAX` bytes panics rather than wrap.
//!
//! `Clone` (the interpreter's fork and boot image) copies the two
//! young buffers and the rootset and bumps each closure payload's
//! reference count; it makes no allocation per string.
//!
//! # The boot space
//!
//! [`Heap::freeze`] moves every live object into an immutable boot
//! space, shared by `Rc` with the heap's clones. A boot [`Ref`]
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

pub use heap::{Heap, Obj, PermSlot, Ref, RootSlot, Span};
pub use stats::GcStats;

#[cfg(test)]
mod tests;
