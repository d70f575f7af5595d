//! The semispace heap: object model, bump allocation, Cheney copy.

use crate::stats::GcStats;
use crate::symbols::{Sym, Symbols};
use std::rc::Rc;
use std::time::Instant;

/// The epoch tag of a ref into the boot space. Young epochs count up
/// from 0 and never reach it.
const BOOT: u32 = u32::MAX;

/// A garbage-collected reference: an index into the current semispace
/// tagged with the collection *epoch* in which it was created, or an
/// index into the frozen boot space (see [`Heap::freeze`]).
///
/// Copying collection moves every live young object, so a young `Ref`
/// held across a collection without being registered in the rootset is
/// invalid. The epoch tag makes such bugs deterministic: dereferencing
/// a stale `Ref` panics immediately instead of silently reading
/// relocated memory. This mirrors the original implementation's
/// debugging collector, which `mprotect`ed the old semispace so stale C
/// pointers faulted. A boot `Ref` never moves, so it never goes stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ref {
    idx: u32,
    epoch: u32,
}

impl Ref {
    /// The null reference (end of a list, empty binding chain, ...).
    pub const NIL: Ref = Ref {
        idx: u32::MAX,
        epoch: 0,
    };

    /// Returns true if this is the null reference.
    ///
    /// # Examples
    ///
    /// ```
    /// use es_gc::Ref;
    /// assert!(Ref::NIL.is_nil());
    /// ```
    pub fn is_nil(self) -> bool {
        self.idx == u32::MAX
    }

    /// Returns true if this ref names an object in the frozen boot
    /// space, which no collection moves.
    pub fn is_boot(self) -> bool {
        self.epoch == BOOT && !self.is_nil()
    }
}

/// A stable handle to a slot in the heap's root stack.
///
/// Unlike a [`Ref`], a `RootSlot` survives collections: the collector
/// rewrites the `Ref` stored in the slot. Interpreter code pushes roots
/// on entry to a region that may allocate, and truncates back to the
/// saved depth on exit (a shadow stack, playing the role of the
/// original's per-routine rootset declarations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootSlot(usize);

impl RootSlot {
    /// The slot's position in the root stack, usable with
    /// [`Heap::truncate_roots`] to pop this slot and everything above it.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A byte range in the heap's text arena: where a `Str`'s bytes live
/// in the current semispace.
///
/// Its fields are private and nothing public reads it. A span is only
/// meaningful in the epoch that made it (the collector moves the bytes
/// and rewrites the span), so text is read through
/// [`Heap::str_value`], which takes an epoch-checked [`Ref`]: a stale
/// string panics as any stale ref does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// Where a closure's code sits in the code table of the space that
/// holds the closure.
///
/// Like [`Span`], its field is private and nothing public reads it:
/// the collector moves the code and rewrites the id, so code is read
/// through [`Heap::closure_code`], which takes an epoch-checked
/// [`Ref`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeId(u32);

/// Appends `s` to an arena and returns its span.
///
/// # Panics
///
/// Panics if the arena would grow past `u32::MAX` bytes; a span never
/// wraps.
fn append_text(text: &mut String, s: &str) -> Span {
    let fits = text
        .len()
        .checked_add(s.len())
        .is_some_and(|end| u32::try_from(end).is_ok());
    assert!(
        fits,
        "gc text arena full: {} bytes held, {} more would pass u32::MAX",
        text.len(),
        s.len()
    );
    // The end fits in u32, so the start and the length do too.
    let span = Span {
        start: text.len() as u32,
        len: s.len() as u32,
    };
    text.push_str(s);
    span
}

/// A heap object: plain data, so a space of them is freed without
/// visiting one. A string's bytes and a closure's code live beside the
/// objects, in their space's text arena and code table; a binding's
/// name is a symbol of the heap's symbol table.
#[derive(Debug, Clone, Copy)]
pub enum Obj {
    /// An immutable string term; its bytes are in the heap's text arena
    /// (read them with [`Heap::str_value`]).
    Str(Span),
    /// A list cell: `(head, tail)`. `head` is a `Str` or `Closure`;
    /// `tail` is a `Pair` or [`Ref::NIL`]. Lists are flat, as the paper
    /// requires ("lists may not contain lists as elements").
    Pair(Ref, Ref),
    /// A closure: its code, in the space's code table (read it with
    /// [`Heap::closure_code`]), and the chain of captured bindings.
    Closure(CodeId, Ref),
    /// A lexical binding frame: `(name, value list, next frame)`
    /// (read it with [`Heap::binding`] or [`Heap::binding_parts`]).
    /// Binding values are mutable — es lets a closure assign to a
    /// captured variable, visibly to other closures sharing the frame.
    Binding(Sym, Ref, Ref),
    /// Forwarding entry, only present mid-collection.
    Forward(u32),
}

// Clearing a space runs no destructor per object only while `Obj` is
// plain data; this stops compiling if it ever gains drop glue.
const _: fn() = || {
    fn plain_data<T: Copy>() {}
    plain_data::<Obj>();
};

/// A stable handle to a *persistent* root (e.g. a shell global
/// variable). Unlike stack roots these are freed explicitly and may be
/// reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PermSlot(usize);

/// A semispace: its objects, the text arena their spans index and the
/// code table their closures index.
#[derive(Debug)]
struct Space<C> {
    objs: Vec<Obj>,
    text: String,
    /// One entry per `Closure` in `objs`, in order: the k-th closure
    /// holds `CodeId(k)`. An entry is `None` only in a space being
    /// collected, once its closure has moved.
    codes: Vec<Option<C>>,
}

impl<C> Default for Space<C> {
    fn default() -> Self {
        Space {
            objs: Vec::new(),
            text: String::new(),
            codes: Vec::new(),
        }
    }
}

impl<C> Space<C> {
    /// Appends `code` to the code table and returns its id.
    fn push_code(&mut self, code: C) -> CodeId {
        let id = CodeId(self.codes.len() as u32);
        self.codes.push(Some(code));
        id
    }

    fn code(&self, id: CodeId) -> &C {
        self.codes[id.0 as usize]
            .as_ref()
            .expect("a live closure's code is in its space's table")
    }

    /// Empties the space and keeps its buffers. Objects and text are
    /// plain data, so this drops only what the code table still holds.
    fn clear(&mut self) {
        self.objs.clear();
        self.text.clear();
        self.codes.clear();
    }

    /// True if the code table holds exactly one entry per `Closure`, the
    /// k-th closure's id being k: every id is in range and no code is
    /// missing or left over.
    fn codes_match(&self) -> bool {
        let mut k = 0;
        for obj in &self.objs {
            if let Obj::Closure(id, _) = obj {
                if id.0 != k || self.codes.get(k as usize).is_none_or(Option::is_none) {
                    return false;
                }
                k += 1;
            }
        }
        k as usize == self.codes.len()
    }
}

impl<C: Clone> Clone for Space<C> {
    fn clone(&self) -> Self {
        Space {
            objs: self.objs.clone(),
            text: self.text.clone(),
            codes: self.codes.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.objs.clone_from(&source.objs);
        self.text.clone_from(&source.text);
        self.codes.clone_from(&source.codes);
    }
}

/// The objects that were live when [`Heap::freeze`] ran, with their
/// text arena and code table: immutable, and shared by `Rc` between a
/// heap and its clones.
#[derive(Debug)]
struct BootSpace<C> {
    space: Space<C>,
    /// [`digest`] of the objects and the text, taken at the freeze.
    digest: u64,
}

/// The garbage-collected heap.
///
/// See the crate docs for the design rationale. The heap is
/// single-threaded (the es interpreter is too); `Clone` shares the boot
/// space and copies the young space (objects, text arena, code table),
/// the overlay and the rootset, which is how the interpreter implements
/// `fork` (a subshell gets a copy-on-fork image of all shell state, as
/// a real `fork(2)` would provide). `clone_from` does the same into the
/// buffers the heap already has.
#[derive(Debug)]
pub struct Heap<C> {
    /// Objects live at [`Heap::freeze`]; empty until then.
    boot: Rc<BootSpace<C>>,
    /// The young space: everything allocated since the freeze.
    young: Space<C>,
    /// An empty space that keeps its buffers: the next collection
    /// copies into it, and the space it copies from becomes the spare.
    spare: Space<C>,
    /// Values assigned to boot `Binding`s since the freeze, by boot
    /// index: the write barrier's log, which the collector treats as
    /// roots. At most one entry per boot binding.
    overlay: Vec<(u32, Ref)>,
    /// The names bindings carry, frozen with the boot space.
    symbols: Symbols,
    roots: Vec<Ref>,
    perm: Vec<Ref>,
    perm_free: Vec<usize>,
    epoch: u32,
    /// Collection triggers when the space reaches this many objects.
    threshold: usize,
    /// Collect on every allocation (the paper's debugging mode).
    stress: bool,
    stats: GcStats,
}

/// Default number of objects that fit in a semispace before a
/// collection triggers. Deliberately small-ish so ordinary shell
/// workloads actually exercise the collector, as in the original
/// (which sized blocks in tens of kilobytes).
pub const DEFAULT_THRESHOLD: usize = 16 * 1024;

impl<C> Default for Heap<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> Heap<C> {
    /// Creates a heap with the default space size.
    pub fn new() -> Self {
        Self::with_threshold(DEFAULT_THRESHOLD)
    }

    /// Creates a heap whose semispace holds `threshold` objects before
    /// a collection triggers.
    ///
    /// # Examples
    ///
    /// ```
    /// let heap: es_gc::Heap<()> = es_gc::Heap::with_threshold(64);
    /// assert_eq!(heap.stats().collections, 0);
    /// ```
    pub fn with_threshold(threshold: usize) -> Self {
        Heap {
            boot: Rc::new(BootSpace {
                space: Space::default(),
                digest: digest(&[], ""),
            }),
            young: Space {
                objs: Vec::with_capacity(threshold.min(1 << 20)),
                ..Space::default()
            },
            spare: Space::default(),
            overlay: Vec::new(),
            symbols: Symbols::default(),
            roots: Vec::new(),
            perm: Vec::new(),
            perm_free: Vec::new(),
            epoch: 0,
            threshold: threshold.max(8),
            stress: false,
            stats: GcStats::default(),
        }
    }

    /// Enables or disables stress mode (collect at every allocation).
    pub fn set_stress(&mut self, on: bool) {
        self.stress = on;
    }

    /// Returns the accumulated collection statistics.
    pub fn stats(&self) -> &GcStats {
        &self.stats
    }

    /// Resets the statistics counters (useful between benchmark phases).
    pub fn reset_stats(&mut self) {
        self.stats = GcStats::default();
    }

    /// Number of objects the heap holds: the boot space plus the young
    /// space (live + garbage).
    pub fn len(&self) -> usize {
        self.boot_len() + self.young.objs.len()
    }

    /// Returns true if the heap holds no object at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of objects in the frozen boot space.
    pub fn boot_len(&self) -> usize {
        self.boot.space.objs.len()
    }

    /// The current collection epoch. Bumped by every collection.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    // ----- rootset ------------------------------------------------------------

    /// Pushes `r` onto the root stack and returns its slot.
    pub fn push_root(&mut self, r: Ref) -> RootSlot {
        self.roots.push(r);
        RootSlot(self.roots.len() - 1)
    }

    /// Reads the (possibly relocated) ref stored in a root slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot has been popped.
    pub fn root(&self, slot: RootSlot) -> Ref {
        self.roots[slot.0]
    }

    /// Overwrites the ref stored in a root slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot has been popped.
    pub fn set_root(&mut self, slot: RootSlot, r: Ref) {
        self.roots[slot.0] = r;
    }

    /// Current depth of the root stack; pair with
    /// [`Heap::truncate_roots`] for scoped root regions.
    pub fn roots_len(&self) -> usize {
        self.roots.len()
    }

    /// Allocates a persistent root slot holding `r`. Persistent roots
    /// survive until freed; the interpreter uses them for global
    /// variables.
    pub fn alloc_perm(&mut self, r: Ref) -> PermSlot {
        match self.perm_free.pop() {
            Some(i) => {
                self.perm[i] = r;
                PermSlot(i)
            }
            None => {
                self.perm.push(r);
                PermSlot(self.perm.len() - 1)
            }
        }
    }

    /// Reads a persistent root.
    pub fn perm(&self, slot: PermSlot) -> Ref {
        self.perm[slot.0]
    }

    /// Overwrites a persistent root.
    pub fn set_perm(&mut self, slot: PermSlot, r: Ref) {
        self.perm[slot.0] = r;
    }

    /// Frees a persistent root slot for reuse.
    pub fn free_perm(&mut self, slot: PermSlot) {
        self.perm[slot.0] = Ref::NIL;
        self.perm_free.push(slot.0);
    }

    /// Pops root slots down to a previously saved depth.
    ///
    /// # Panics
    ///
    /// Panics if `len` is greater than the current depth (that would
    /// indicate an unbalanced scope).
    pub fn truncate_roots(&mut self, len: usize) {
        assert!(len <= self.roots.len(), "unbalanced root scope");
        self.roots.truncate(len);
    }

    // ----- allocation -----------------------------------------------------------

    /// True if the next allocation collects first (stress mode, or the
    /// space is full). Every other allocation bumps directly.
    #[inline]
    fn slow_alloc(&self) -> bool {
        self.stress || self.young.objs.len() >= self.threshold
    }

    /// Appends `obj` to the space. The caller has already given the
    /// collector its chance to run.
    fn bump(&mut self, obj: Obj) -> Ref {
        self.stats.allocated += 1;
        let idx = self.young.objs.len() as u32;
        self.young.objs.push(obj);
        Ref {
            idx,
            epoch: self.epoch,
        }
    }

    /// Allocates a string term.
    ///
    /// # Panics
    ///
    /// Panics if the text arena would pass `u32::MAX` bytes.
    pub fn alloc_str(&mut self, s: &str) -> Ref {
        if self.slow_alloc() {
            self.collect();
        }
        let span = append_text(&mut self.young.text, s);
        self.bump(Obj::Str(span))
    }

    /// Allocates a string term from an owned string.
    pub fn alloc_string(&mut self, s: String) -> Ref {
        self.alloc_str(&s)
    }

    /// Allocates a list cell.
    ///
    /// # Panics
    ///
    /// Panics (in the same way as any deref) if `head` or `tail` are
    /// stale refs from a previous epoch.
    pub fn alloc_pair(&mut self, head: Ref, tail: Ref) -> Ref {
        self.check(head);
        self.check(tail);
        let (head, tail) = if self.slow_alloc() {
            // Root the children: the allocation itself may collect.
            let base = self.roots.len();
            self.roots.push(head);
            self.roots.push(tail);
            self.collect();
            let tail = self.roots.pop().expect("root stack underflow");
            let head = self.roots.pop().expect("root stack underflow");
            debug_assert_eq!(self.roots.len(), base);
            (head, tail)
        } else {
            (head, tail)
        };
        self.bump(Obj::Pair(head, tail))
    }

    /// Allocates a closure with the given code payload and captured
    /// binding chain.
    pub fn alloc_closure(&mut self, code: C, bindings: Ref) -> Ref {
        self.check(bindings);
        let bindings = if self.slow_alloc() {
            let base = self.roots.len();
            self.roots.push(bindings);
            self.collect();
            let bindings = self.roots.pop().expect("root stack underflow");
            debug_assert_eq!(self.roots.len(), base);
            bindings
        } else {
            bindings
        };
        let code = self.young.push_code(code);
        self.bump(Obj::Closure(code, bindings))
    }

    /// Allocates a binding frame `name = value` chained onto `next`.
    /// `name` is a symbol of this heap's table ([`Heap::intern`]).
    pub fn alloc_binding(&mut self, name: Sym, value: Ref, next: Ref) -> Ref {
        debug_assert!(
            name.index() < self.symbols.len(),
            "{name:?} is not interned"
        );
        self.check(value);
        self.check(next);
        let (value, next) = if self.slow_alloc() {
            let base = self.roots.len();
            self.roots.push(value);
            self.roots.push(next);
            self.collect();
            let next = self.roots.pop().expect("root stack underflow");
            let value = self.roots.pop().expect("root stack underflow");
            debug_assert_eq!(self.roots.len(), base);
            (value, next)
        } else {
            (value, next)
        };
        self.bump(Obj::Binding(name, value, next))
    }

    // ----- symbols --------------------------------------------------------------

    /// The symbol of `prefix` followed by `name`, interned if it is new.
    /// A name interned since the freeze is dropped by a `clone_from`
    /// from the frozen image.
    pub fn intern(&mut self, prefix: &str, name: &str) -> Sym {
        self.symbols.intern(prefix, name)
    }

    /// The symbol of `prefix` followed by `name`, if it was interned.
    /// Nothing is built: the two parts are hashed and compared in place.
    pub fn find_sym(&self, prefix: &str, name: &str) -> Option<Sym> {
        self.symbols.find(prefix, name)
    }

    /// The name of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` is not a symbol of this heap's table.
    pub fn sym_name(&self, sym: Sym) -> &str {
        self.symbols.name(sym)
    }

    /// The number of names interned, the boot ones included.
    pub fn symbols_len(&self) -> usize {
        self.symbols.len()
    }

    // ----- access ---------------------------------------------------------------

    /// Panics unless `r` is nil or can be dereferenced.
    #[inline]
    #[track_caller]
    fn check(&self, r: Ref) {
        let young = r.epoch == self.epoch && (r.idx as usize) < self.young.objs.len();
        if !young && !r.is_nil() {
            // A boot ref, or the panic.
            self.resolve(r);
        }
    }

    /// Dereferences `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is [`Ref::NIL`] or stale (allocated before the
    /// most recent collection and not re-read through a root slot) —
    /// the safe-Rust analogue of the original's `mprotect` fault on a
    /// missed-rootset bug.
    ///
    /// A boot `Binding` shows the value it had at the freeze; read a
    /// binding's current value with [`Heap::binding_parts`].
    #[track_caller]
    pub fn get(&self, r: Ref) -> &Obj {
        self.resolve(r).0
    }

    /// Dereferences `r`, returning its object and the space whose text
    /// arena and code table it indexes (the boot space or the young
    /// space). A young ref costs one compare and a bounds check.
    #[inline]
    #[track_caller]
    fn resolve(&self, r: Ref) -> (&Obj, &Space<C>) {
        let space = if r.epoch == self.epoch {
            &self.young
        } else if r.epoch == BOOT {
            &self.boot.space
        } else {
            self.bad_ref(r)
        };
        match space.objs.get(r.idx as usize) {
            Some(obj) => (obj, space),
            None => self.bad_ref(r),
        }
    }

    /// Raises the panic for a ref that cannot be dereferenced: nil,
    /// boot out of range, stale, or out of range.
    #[cold]
    #[inline(never)]
    #[track_caller]
    fn bad_ref(&self, r: Ref) -> ! {
        assert!(!r.is_nil(), "deref of nil gc ref");
        assert!(r.epoch != BOOT, "boot ref out of range");
        assert_eq!(
            r.epoch, self.epoch,
            "stale gc ref: created in epoch {} but heap is in epoch {} \
             (a ref was held across a collection without being rooted)",
            r.epoch, self.epoch
        );
        panic!("gc ref out of range")
    }

    /// Returns the string payload of a `Str` object.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to a `Str`.
    #[track_caller]
    pub fn str_value(&self, r: Ref) -> &str {
        match self.resolve(r) {
            (Obj::Str(span), space) => &space.text[span.range()],
            (other, _) => panic!("expected Str, found {}", shape_name(other)),
        }
    }

    /// Returns the head of a `Pair`.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to a `Pair`.
    #[track_caller]
    pub fn pair_head(&self, r: Ref) -> Ref {
        match self.get(r) {
            Obj::Pair(h, _) => *h,
            other => panic!("expected Pair, found {}", shape_name(other)),
        }
    }

    /// Returns the tail of a `Pair`.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to a `Pair`.
    #[track_caller]
    pub fn pair_tail(&self, r: Ref) -> Ref {
        match self.get(r) {
            Obj::Pair(_, t) => *t,
            other => panic!("expected Pair, found {}", shape_name(other)),
        }
    }

    /// Replaces the tail of a `Pair` (used for in-place list append).
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to a young `Pair` or `t` is stale.
    /// Boot lists are immutable: a cell appended to is always fresh.
    pub fn set_pair_tail(&mut self, r: Ref, t: Ref) {
        self.check(t);
        self.check(r);
        assert!(!r.is_nil(), "deref of nil gc ref");
        assert!(r.epoch != BOOT, "set_pair_tail on a boot cell");
        match &mut self.young.objs[r.idx as usize] {
            Obj::Pair(_, tail) => *tail = t,
            other => panic!("expected Pair, found {}", shape_name(other)),
        }
    }

    /// Returns the code payload of a `Closure`.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to a `Closure`.
    #[track_caller]
    pub fn closure_code(&self, r: Ref) -> &C {
        match self.resolve(r) {
            (Obj::Closure(code, _), space) => space.code(*code),
            (other, _) => panic!("expected Closure, found {}", shape_name(other)),
        }
    }

    /// Returns the captured binding chain of a `Closure`.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to a `Closure`.
    #[track_caller]
    pub fn closure_bindings(&self, r: Ref) -> Ref {
        match self.get(r) {
            Obj::Closure(_, b) => *b,
            other => panic!("expected Closure, found {}", shape_name(other)),
        }
    }

    /// Returns the `(name, value, next)` parts of a `Binding`, its name
    /// as a symbol.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to a `Binding`.
    #[track_caller]
    pub fn binding(&self, r: Ref) -> (Sym, Ref, Ref) {
        match self.get(r) {
            Obj::Binding(name, v, next) => {
                let v = match r.epoch {
                    BOOT => self.overlay_value(r.idx).unwrap_or(*v),
                    _ => *v,
                };
                (*name, v, *next)
            }
            other => panic!("expected Binding, found {}", shape_name(other)),
        }
    }

    /// Returns the `(name, value, next)` parts of a `Binding`, its name
    /// as text.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to a `Binding`.
    #[track_caller]
    pub fn binding_parts(&self, r: Ref) -> (&str, Ref, Ref) {
        let (name, v, next) = self.binding(r);
        (self.symbols.name(name), v, next)
    }

    /// The value the overlay holds for boot binding `idx`, if it was
    /// assigned since the freeze.
    fn overlay_value(&self, idx: u32) -> Option<Ref> {
        self.overlay
            .iter()
            .find(|(i, _)| *i == idx)
            .map(|(_, v)| *v)
    }

    /// Mutates the value of a `Binding` frame (lexical assignment). A
    /// boot binding is not written: the write barrier records the value
    /// in the overlay instead.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to a `Binding` or `v` is stale.
    pub fn set_binding_value(&mut self, r: Ref, v: Ref) {
        self.check(v);
        if r.epoch == BOOT {
            let obj = self.get(r);
            assert!(
                matches!(obj, Obj::Binding(..)),
                "expected Binding, found {}",
                shape_name(obj)
            );
            match self.overlay.iter_mut().find(|(i, _)| *i == r.idx) {
                Some(entry) => entry.1 = v,
                None => self.overlay.push((r.idx, v)),
            }
            return;
        }
        self.check(r);
        assert!(!r.is_nil(), "deref of nil gc ref");
        match &mut self.young.objs[r.idx as usize] {
            Obj::Binding(_, value, _) => *value = v,
            other => panic!("expected Binding, found {}", shape_name(other)),
        }
    }

    // ----- collection ------------------------------------------------------------

    /// Runs a full collection now.
    ///
    /// All live young objects (reachable from the root stack, the
    /// persistent roots and the overlay) are copied into the spare
    /// space, with the bytes of live strings and the code of live
    /// closures; the epoch is bumped, and all previously
    /// issued young [`Ref`]s become stale. Holders must re-read their
    /// refs through root slots. The old space then becomes the spare:
    /// clearing it keeps its buffers and runs one destructor per dead
    /// closure's code, since objects and text are plain data. So the
    /// cost is what is live plus the dead closures, and a warm heap
    /// makes no malloc and no free. The boot space is neither copied
    /// nor scanned: nothing in it points into the young space except
    /// through the overlay.
    pub fn collect(&mut self) {
        let start = Instant::now();
        let epoch = self.epoch + 1;
        assert!(epoch < BOOT, "gc epoch counter exhausted");
        let mut to = std::mem::take(&mut self.spare);
        // No-ops once the spare has been a full young space.
        to.objs.reserve(self.young.objs.len().min(self.threshold));
        to.text.reserve(self.young.text.len());
        self.evacuate(epoch, &mut to);
        // Swap spaces. A stale Ref into the old space fails the epoch
        // check on deref, however its buffers are reused: epochs only
        // rise.
        self.spare = std::mem::replace(&mut self.young, to);
        self.spare.clear();
        let live = self.young.objs.len();
        debug_assert!(
            self.young.codes_match(),
            "the code table does not match the closures of the to-space"
        );
        self.stats.bytes_copied += self.young.text.len() as u64;
        self.epoch = epoch;
        self.stats.collections += 1;
        self.stats.copied += live as u64;
        self.stats.live_after_last = live as u64;
        // If the live set alone fills the space, double the threshold
        // for the collections to come ("a larger block is allocated";
        // nothing is redone, since the to-space grows as it fills).
        if live >= self.threshold {
            self.threshold = self.threshold.saturating_mul(2);
            self.stats.grows += 1;
        }
        let pause = start.elapsed();
        self.stats.pause_total += pause;
        if pause > self.stats.pause_max {
            self.stats.pause_max = pause;
        }
    }

    /// Moves every live object into an immutable boot space shared by
    /// this heap's clones, and empties the young space; every name
    /// interned so far moves into the symbol table's boot part, shared
    /// the same way. Afterwards no
    /// collection copies, scans or stales a boot object, and a lexical
    /// assignment to a boot binding goes to the overlay. The interpreter
    /// freezes once, at the end of boot; the statistics are left as they
    /// were.
    ///
    /// # Panics
    ///
    /// Panics if the heap is already frozen.
    pub fn freeze(&mut self) {
        assert!(self.boot_len() == 0, "the heap is already frozen");
        let mut space = Space::default();
        self.evacuate(BOOT, &mut space);
        space.objs.shrink_to_fit();
        space.text.shrink_to_fit();
        space.codes.shrink_to_fit();
        let digest = digest(&space.objs, &space.text);
        self.boot = Rc::new(BootSpace { space, digest });
        self.symbols.freeze();
        // Release the buffers boot's garbage filled, and the spare sized
        // like them: the young space grows again with what runs after
        // the freeze.
        self.young = Space::default();
        self.spare = Space::default();
        // Every young ref issued before the freeze is now stale.
        self.epoch += 1;
    }

    /// True if the boot space still has the digest [`Heap::freeze`]
    /// took: the oracle that no one wrote into it.
    pub fn boot_space_intact(&self) -> bool {
        let boot = &self.boot.space;
        digest(&boot.objs, &boot.text) == self.boot.digest
    }

    /// Copies every young object reachable from the roots, the
    /// persistent roots and the overlay into `to` (Cheney scan),
    /// tagging the new refs with `epoch`, and rewrites those roots.
    /// The young space is left full of forwarding entries.
    fn evacuate(&mut self, epoch: u32, to: &mut Space<C>) {
        let from = &mut self.young;
        let overlay = self.overlay.iter_mut().map(|(_, v)| v);
        for r in self
            .roots
            .iter_mut()
            .chain(self.perm.iter_mut())
            .chain(overlay)
        {
            *r = copy_obj(from, to, *r, epoch);
        }
        let mut scan = 0;
        while scan < to.objs.len() {
            to.objs[scan] = match to.objs[scan] {
                Obj::Pair(h, t) => {
                    let h = copy_obj(from, to, h, epoch);
                    Obj::Pair(h, copy_obj(from, to, t, epoch))
                }
                Obj::Closure(code, b) => Obj::Closure(code, copy_obj(from, to, b, epoch)),
                Obj::Binding(name, v, n) => {
                    let v = copy_obj(from, to, v, epoch);
                    Obj::Binding(name, v, copy_obj(from, to, n, epoch))
                }
                str @ Obj::Str(_) => str,
                Obj::Forward(_) => unreachable!("forward in to-space"),
            };
            scan += 1;
        }
    }

    /// Checks the space against a governor budget of `max` objects.
    ///
    /// Garbage must not count against a limit, so if the raw count
    /// exceeds `max` this collects first and re-measures; only when
    /// *live* objects still exceed the budget is `Some(live)` returned
    /// for the caller to raise a `limit heap` exception.
    pub fn enforce_budget(&mut self, max: u64) -> Option<u64> {
        if self.len() as u64 <= max {
            return None;
        }
        self.collect();
        self.stats.budget_collections += 1;
        let live = self.len() as u64;
        (live > max).then_some(live)
    }
}

impl<C: Clone> Clone for Heap<C> {
    /// Copies the heap for a fork. The copy starts with an empty spare,
    /// which its first collection fills.
    fn clone(&self) -> Self {
        let Heap {
            boot,
            young,
            spare: _,
            overlay,
            symbols,
            roots,
            perm,
            perm_free,
            epoch,
            threshold,
            stress,
            stats,
        } = self;
        Heap {
            boot: Rc::clone(boot),
            young: young.clone(),
            spare: Space::default(),
            overlay: overlay.clone(),
            symbols: symbols.clone(),
            roots: roots.clone(),
            perm: perm.clone(),
            perm_free: perm_free.clone(),
            epoch: *epoch,
            threshold: *threshold,
            stress: *stress,
            stats: stats.clone(),
        }
    }

    /// Becomes a copy of `source` field by field, in the buffers this
    /// heap already has, and keeps its own spare. Restoring a heap from
    /// its boot image (young space, overlay and young names empty) is
    /// then a few truncations, one probe per young name and the copy of
    /// the rootset: no malloc once the buffers are big enough, and
    /// nothing per boot object.
    fn clone_from(&mut self, source: &Self) {
        let Heap {
            boot,
            young,
            spare: _,
            overlay,
            symbols,
            roots,
            perm,
            perm_free,
            epoch,
            threshold,
            stress,
            stats,
        } = source;
        if !Rc::ptr_eq(&self.boot, boot) {
            self.boot = Rc::clone(boot);
        }
        self.young.clone_from(young);
        self.overlay.clone_from(overlay);
        self.symbols.clone_from(symbols);
        self.roots.clone_from(roots);
        self.perm.clone_from(perm);
        self.perm_free.clone_from(perm_free);
        self.epoch = *epoch;
        self.threshold = *threshold;
        self.stress = *stress;
        self.stats.clone_from(stats);
    }
}

/// Copies one object from `from` to `to`, leaving a forwarding entry,
/// and returns its new ref. A string's bytes or a closure's code move
/// to `to`'s arena or code table with it.
/// Already-forwarded objects are not copied again, which is what
/// preserves sharing and cycles.
fn copy_obj<C>(from: &mut Space<C>, to: &mut Space<C>, r: Ref, new_epoch: u32) -> Ref {
    if r.is_nil() || r.epoch == BOOT {
        return r;
    }
    let idx = r.idx as usize;
    let new_idx = to.objs.len() as u32;
    // The to-space arena holds a subset of the from-space's bytes,
    // which fit in u32 offsets, so a moved span cannot overflow.
    let mut move_text = |span: Span| {
        let start = to.text.len() as u32;
        to.text.push_str(&from.text[span.range()]);
        Span { start, ..span }
    };
    let obj = match from.objs[idx] {
        Obj::Forward(n) => {
            return Ref {
                idx: n,
                epoch: new_epoch,
            }
        }
        Obj::Str(span) => Obj::Str(move_text(span)),
        Obj::Closure(code, b) => {
            let code = from.codes[code.0 as usize]
                .take()
                .expect("a closure's code moves once");
            Obj::Closure(to.push_code(code), b)
        }
        obj @ (Obj::Pair(..) | Obj::Binding(..)) => obj,
    };
    from.objs[idx] = Obj::Forward(new_idx);
    to.objs.push(obj);
    Ref {
        idx: new_idx,
        epoch: new_epoch,
    }
}

/// FNV-1a over a space's shape: each object's kind, its child refs, its
/// text and a binding's symbol. Closure payloads are opaque to the
/// collector and left out.
fn digest(objs: &[Obj], text: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for obj in objs {
        let (refs, span) = match obj {
            Obj::Str(span) => ([Ref::NIL; 2], Some(*span)),
            Obj::Pair(a, b) => ([*a, *b], None),
            Obj::Closure(_, b) => ([*b, Ref::NIL], None),
            Obj::Binding(name, v, n) => {
                mix(&name.raw().to_le_bytes());
                ([*v, *n], None)
            }
            Obj::Forward(n) => ([Ref { idx: *n, epoch: 0 }, Ref::NIL], None),
        };
        mix(shape_name(obj).as_bytes());
        for r in refs {
            mix(&r.idx.to_le_bytes());
            mix(&r.epoch.to_le_bytes());
        }
        if let Some(span) = span {
            mix(text[span.range()].as_bytes());
        }
    }
    h
}

fn shape_name(o: &Obj) -> &'static str {
    match o {
        Obj::Str(_) => "Str",
        Obj::Pair(..) => "Pair",
        Obj::Closure(..) => "Closure",
        Obj::Binding(..) => "Binding",
        Obj::Forward(_) => "Forward",
    }
}
