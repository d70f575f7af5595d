//! Counted mallocs: a collection, a string allocation and a heap clone
//! cost what is live, not one malloc or free per string, and a
//! collection on a warm heap makes none at all.
//!
//! A counting global allocator tallies the allocations and frees made
//! on the calling thread (the test harness runs tests on parallel
//! threads), so every count below repeats exactly.

use es_gc::{Heap, Ref};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

struct Counting;

thread_local! {
    /// (allocations, frees) made on this thread.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn tally(mallocs: u64, frees: u64) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = COUNTS.try_with(|c| {
        let (m, f) = c.get();
        c.set((m + mallocs, f + frees));
    });
}

// The default `realloc` calls `alloc` and `dealloc` on this allocator,
// so a reallocation counts as one malloc and one free.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(1, 0);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(0, 1);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`
        // (every allocation above is forwarded there).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns (mallocs, frees) it made on this thread.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let (m0, f0) = COUNTS.with(Cell::get);
    f();
    let (m1, f1) = COUNTS.with(Cell::get);
    (m1 - m0, f1 - f0)
}

/// A heap whose roots keep 250 objects live (125 strings, each in a
/// list cell), followed by `dead` unreachable strings.
fn heap_with_garbage(dead: usize) -> Heap<u32> {
    let mut heap: Heap<u32> = Heap::new();
    let list = heap.push_root(Ref::NIL);
    for i in 0..125 {
        let s = heap.alloc_string(format!("live-{i}"));
        let p = heap.alloc_pair(s, heap.root(list));
        heap.set_root(list, p);
    }
    for i in 0..dead {
        heap.alloc_string(format!("dead-string-{i}"));
    }
    assert_eq!(heap.stats().collections, 0, "set-up must not collect");
    heap
}

#[test]
fn collect_costs_the_same_however_many_dead_strings_precede_it() {
    let mut few = heap_with_garbage(100);
    let mut many = heap_with_garbage(10_000);
    let few_counts = counted(|| few.collect());
    let many_counts = counted(|| many.collect());
    assert_eq!(few.stats().live_after_last, 250);
    assert_eq!(many.stats().live_after_last, 250);
    assert_eq!(
        few_counts, many_counts,
        "(mallocs, frees) of a collection must not depend on the garbage"
    );
}

#[test]
fn string_allocation_mallocs_grow_logarithmically() {
    let mallocs = |n: usize| {
        let mut heap: Heap<u32> = Heap::new();
        counted(|| {
            for _ in 0..n {
                heap.alloc_str("a short string term");
            }
        })
        .0
    };
    let (m100, m1k, m10k) = (mallocs(100), mallocs(1_000), mallocs(10_000));
    // Ten times the strings may cost one arena doubling per factor of
    // two (log2 10 < 4), never a malloc per string.
    assert!(
        m1k <= m100 + 4,
        "100 -> 1000 strings: {m100} -> {m1k} mallocs"
    );
    assert!(
        m10k <= m1k + 4,
        "1000 -> 10000 strings: {m1k} -> {m10k} mallocs"
    );
    assert!(m10k < 32, "10000 strings made {m10k} mallocs");
}

#[test]
fn clone_mallocs_do_not_depend_on_the_string_count() {
    let few = heap_with_garbage(100);
    let many = heap_with_garbage(10_000);
    let few_mallocs = counted(|| drop(few.clone())).0;
    let many_mallocs = counted(|| drop(many.clone())).0;
    assert_eq!(few_mallocs, many_mallocs);
}

/// Allocates dead pairs until one collection has run.
fn churn_pairs<C>(heap: &mut Heap<C>) {
    let before = heap.stats().collections;
    while heap.stats().collections == before {
        heap.alloc_pair(Ref::NIL, Ref::NIL);
    }
}

#[test]
fn a_warm_collection_makes_no_malloc_and_no_free() {
    // A payload with a destructor, as the interpreter's closures have.
    let code = Rc::new(0u32);
    let mut heap: Heap<Rc<u32>> = Heap::new();
    let list = heap.push_root(Ref::NIL);
    for i in 0..125 {
        let s = heap.alloc_string(format!("live-{i}"));
        let p = heap.alloc_pair(s, heap.root(list));
        heap.set_root(list, p);
    }
    let closure = heap.alloc_closure(Rc::clone(&code), Ref::NIL);
    let p = heap.alloc_pair(closure, heap.root(list));
    heap.set_root(list, p);
    // The first collections size both semispaces.
    for _ in 0..3 {
        churn_pairs(&mut heap);
    }
    let counts = counted(|| churn_pairs(&mut heap));
    assert_eq!(heap.stats().live_after_last, 252);
    assert_eq!(
        counts,
        (0, 0),
        "(mallocs, frees) of a space of 16k dead pairs and its collection"
    );
    assert_eq!(Rc::strong_count(&code), 2, "the live closure kept its code");
}
